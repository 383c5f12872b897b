"""Tests for the DP oracle (repro.core.dp) and its CUBIS integration."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.behavior.interval import IntervalSUQR
from repro.core.cubis import solve_cubis
from repro.core.dp import (
    _maximize_separable_on_grid_loop,
    maximize_separable_on_grid,
)
from repro.game.generator import random_interval_game, table1_game


def brute_force_grid(phi, budget):
    """Exhaustive enumeration of grid allocations (tiny instances only)."""
    t, cols = phi.shape
    k = cols - 1
    best = -np.inf
    best_units = None
    for units in itertools.product(range(k + 1), repeat=t):
        if sum(units) > budget:
            continue
        val = sum(phi[j, a] for j, a in enumerate(units))
        if val > best:
            best, best_units = val, units
    return best, np.array(best_units)


class TestMaximizeSeparableOnGrid:
    def test_single_target(self):
        phi = np.array([[0.0, 1.0, 3.0, 2.0]])
        alloc = maximize_separable_on_grid(phi, budget_units=3)
        assert alloc.value == 3.0
        assert alloc.units[0] == 2

    def test_budget_binds(self):
        phi = np.array([[0.0, 5.0], [0.0, 4.0], [0.0, 3.0]])
        alloc = maximize_separable_on_grid(phi, budget_units=2)
        assert alloc.value == 9.0
        assert alloc.units.sum() == 2

    def test_slack_allowed_when_phi_decreasing(self):
        """If allocating hurts, the DP leaves budget unused."""
        phi = np.array([[0.0, -1.0, -2.0]])
        alloc = maximize_separable_on_grid(phi, budget_units=2)
        assert alloc.value == 0.0
        assert alloc.units[0] == 0

    def test_zero_budget(self):
        phi = np.array([[1.0, 9.0], [2.0, 9.0]])
        alloc = maximize_separable_on_grid(phi, budget_units=0)
        assert alloc.value == 3.0
        np.testing.assert_array_equal(alloc.units, [0, 0])

    def test_budget_exceeding_capacity_clipped(self):
        phi = np.array([[0.0, 1.0], [0.0, 1.0]])
        alloc = maximize_separable_on_grid(phi, budget_units=100)
        assert alloc.value == 2.0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget_units"):
            maximize_separable_on_grid(np.zeros((1, 2)), -1)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            maximize_separable_on_grid(np.zeros(3), 1)

    def test_coverage_conversion(self):
        phi = np.array([[0.0, 0.0, 1.0]])
        alloc = maximize_separable_on_grid(phi, budget_units=2)
        np.testing.assert_allclose(alloc.coverage(num_segments=2), [1.0])

    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(0, 8),
        st.integers(0, 10**6),
    )
    def test_matches_brute_force(self, t, k, budget, seed):
        rng = np.random.default_rng(seed)
        phi = rng.normal(size=(t, k + 1)) * 3
        alloc = maximize_separable_on_grid(phi, budget)
        bf_value, _ = brute_force_grid(phi, min(budget, t * k))
        assert alloc.value == pytest.approx(bf_value, abs=1e-9)
        assert alloc.units.sum() <= budget
        direct = sum(phi[j, a] for j, a in enumerate(alloc.units))
        assert alloc.value == pytest.approx(direct, abs=1e-9)


class TestCubisDPOracle:
    def test_table1_dp_converges_to_milp(self):
        """The DP snaps strategies to the grid, so it needs a much finer K
        than the MILP to resolve the kink at the robust optimum (see the
        module docstring) — but it must converge there."""
        game = table1_game()
        uncertainty = IntervalSUQR(
            game.payoffs, w1=(-6.0, -2.0), w2=(0.5, 1.0), w3=(0.4, 0.9)
        )
        milp = solve_cubis(game, uncertainty, num_segments=25, epsilon=1e-4)
        dp = solve_cubis(game, uncertainty, num_segments=200, epsilon=1e-4, oracle="dp")
        assert dp.worst_case_value == pytest.approx(milp.worst_case_value, abs=0.1)
        np.testing.assert_allclose(dp.strategy, milp.strategy, atol=0.05)

    def test_table1_dp_error_shrinks_with_k(self):
        game = table1_game()
        uncertainty = IntervalSUQR(
            game.payoffs, w1=(-6.0, -2.0), w2=(0.5, 1.0), w3=(0.4, 0.9)
        )
        values = [
            solve_cubis(
                game, uncertainty, num_segments=k, epsilon=1e-4, oracle="dp"
            ).worst_case_value
            for k in (25, 100, 400)
        ]
        assert values[2] >= values[0] - 1e-9
        assert values[2] == pytest.approx(-0.908, abs=0.05)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_games_dp_close_to_milp(self, seed):
        game = random_interval_game(6, payoff_halfwidth=0.5, seed=seed)
        uncertainty = IntervalSUQR(
            game.payoffs, w1=(-4.0, -2.0), w2=(0.6, 0.9), w3=(0.3, 0.6),
            convention="tight",
        )
        milp = solve_cubis(game, uncertainty, num_segments=12, epsilon=0.01)
        dp = solve_cubis(game, uncertainty, num_segments=96, epsilon=0.01, oracle="dp")
        assert dp.worst_case_value == pytest.approx(milp.worst_case_value, abs=0.15)

    def test_dp_strategy_feasible(self, small_interval_game, small_uncertainty):
        dp = solve_cubis(
            small_interval_game, small_uncertainty, num_segments=10, epsilon=0.01,
            oracle="dp",
        )
        assert small_interval_game.strategy_space.contains(dp.strategy, atol=1e-6)

    def test_invalid_oracle(self, small_interval_game, small_uncertainty):
        with pytest.raises(ValueError, match="oracle"):
            solve_cubis(small_interval_game, small_uncertainty, oracle="magic")


class TestVectorisedTransitionMatchesLoop:
    """The sliding-window max-plus transition must replay the reference
    loop bit for bit — same value, same units, same tie-breaks."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_instances_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(1, 9))
        k = int(rng.integers(1, 13))
        budget = int(rng.integers(0, t * k + 3))
        phi = rng.normal(size=(t, k + 1)).cumsum(axis=1)
        fast = maximize_separable_on_grid(phi, budget)
        slow = _maximize_separable_on_grid_loop(phi, budget)
        assert fast.value == slow.value
        np.testing.assert_array_equal(fast.units, slow.units)

    @pytest.mark.parametrize("seed", range(10))
    def test_tie_heavy_instances_bit_identical(self, seed):
        # Rounding phi to one decimal forces many exact DP ties; argmax's
        # first-occurrence rule must award them to the smallest
        # allocation exactly like the loop's strict `>` update.
        rng = np.random.default_rng(1000 + seed)
        t = int(rng.integers(2, 7))
        k = int(rng.integers(2, 9))
        budget = int(rng.integers(1, t * k + 1))
        phi = np.round(rng.normal(size=(t, k + 1)), 1)
        fast = maximize_separable_on_grid(phi, budget)
        slow = _maximize_separable_on_grid_loop(phi, budget)
        assert fast.value == slow.value
        np.testing.assert_array_equal(fast.units, slow.units)

    def test_all_zero_phi_prefers_empty_allocation(self):
        phi = np.zeros((3, 5))
        fast = maximize_separable_on_grid(phi, 6)
        slow = _maximize_separable_on_grid_loop(phi, 6)
        np.testing.assert_array_equal(fast.units, slow.units)
        np.testing.assert_array_equal(fast.units, np.zeros(3, dtype=np.int64))

