"""Integration tests for the CUBIS solver.

The key checks:

* Table I reproduction (the paper's own numbers);
* optimality against exhaustive grid search on 2-target games;
* the Theorem-1 bracket: exact worst-case value vs ``[lb, ub]``;
* backend equivalence (HiGHS vs our branch-and-bound);
* quality improves (weakly) with finer K / epsilon.
"""

import numpy as np
import pytest

from repro.behavior.interval import IntervalSUQR
from repro.core.cubis import WarmStart, solve_cubis
from repro.core.worst_case import evaluate_worst_case
from repro.game.generator import random_interval_game, table1_game


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self, ):
        game = table1_game()
        uncertainty = IntervalSUQR(
            game.payoffs, w1=(-6.0, -2.0), w2=(0.5, 1.0), w3=(0.4, 0.9)
        )
        return solve_cubis(game, uncertainty, num_segments=25, epsilon=1e-4)

    def test_robust_strategy_matches_paper(self, result):
        np.testing.assert_allclose(result.strategy, [0.46, 0.54], atol=0.02)

    def test_worst_case_value_matches_paper(self, result):
        assert result.worst_case_value == pytest.approx(-0.90, abs=0.05)

    def test_bracket_tight(self, result):
        assert result.upper_bound - result.lower_bound <= 1e-4 + 1e-12

    def test_strategy_feasible(self, result):
        game = table1_game()
        assert game.strategy_space.contains(result.strategy, atol=1e-6)


class TestOptimalityOnSmallGames:
    def brute_force(self, game, uncertainty, grid_points=401):
        """Exhaustive search over the 1-D strategy space of a 2-target,
        1-resource game."""
        best_x, best_v = None, -np.inf
        for a in np.linspace(0.0, 1.0, grid_points):
            x = np.array([a, 1.0 - a])
            v = evaluate_worst_case(game, uncertainty, x).value
            if v > best_v:
                best_v, best_x = v, x
        return best_x, best_v

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, seed):
        game = random_interval_game(2, num_resources=1, payoff_halfwidth=0.8, seed=seed)
        uncertainty = IntervalSUQR(
            game.payoffs, w1=(-4.0, -2.0), w2=(0.6, 0.9), w3=(0.3, 0.6),
            convention="tight",
        )
        _, best_v = self.brute_force(game, uncertainty)
        result = solve_cubis(game, uncertainty, num_segments=30, epsilon=1e-4)
        # Theorem 1: within O(epsilon + 1/K) of the optimum.
        assert result.worst_case_value >= best_v - 0.05
        # And never above it (brute force is a true upper bound up to its
        # own grid resolution).
        assert result.worst_case_value <= best_v + 0.01

    def test_table1_brute_force_agreement(self):
        game = table1_game()
        uncertainty = IntervalSUQR(
            game.payoffs, w1=(-6.0, -2.0), w2=(0.5, 1.0), w3=(0.4, 0.9)
        )
        bx, bv = self.brute_force(game, uncertainty)
        result = solve_cubis(game, uncertainty, num_segments=30, epsilon=1e-4)
        assert result.worst_case_value == pytest.approx(bv, abs=0.03)
        np.testing.assert_allclose(result.strategy, bx, atol=0.03)


class TestBracketSemantics:
    def test_exact_value_consistent_with_bracket(self, small_interval_game, small_uncertainty):
        result = solve_cubis(
            small_interval_game, small_uncertainty, num_segments=20, epsilon=1e-3
        )
        # Lemma 2: the exact worst case of the returned strategy is at
        # least lb - O(1/K); Lemma 3 bounds the optimum by ub + O(1/K).
        slack = 0.5  # generous O(1/K) envelope for K=20
        assert result.worst_case_value >= result.lower_bound - slack
        assert result.worst_case_value <= result.upper_bound + slack

    def test_trace_is_monotone_feasibility(self, small_interval_game, small_uncertainty):
        result = solve_cubis(
            small_interval_game, small_uncertainty, num_segments=8, epsilon=0.05
        )
        feas = [c for c, ok in result.trace if ok]
        infeas = [c for c, ok in result.trace if not ok]
        if feas and infeas:
            assert max(feas) <= min(infeas) + 1e-9

    def test_iterations_recorded(self, small_interval_game, small_uncertainty):
        result = solve_cubis(
            small_interval_game, small_uncertainty, num_segments=8, epsilon=0.05
        )
        assert result.iterations == len(result.trace)
        assert result.solve_seconds > 0.0


class TestKnobs:
    def test_quality_improves_with_k(self, small_interval_game, small_uncertainty):
        coarse = solve_cubis(
            small_interval_game, small_uncertainty, num_segments=2, epsilon=1e-3
        )
        fine = solve_cubis(
            small_interval_game, small_uncertainty, num_segments=25, epsilon=1e-3
        )
        assert fine.worst_case_value >= coarse.worst_case_value - 0.02

    def test_epsilon_controls_bracket(self, small_interval_game, small_uncertainty):
        loose = solve_cubis(
            small_interval_game, small_uncertainty, num_segments=10, epsilon=0.5
        )
        tight = solve_cubis(
            small_interval_game, small_uncertainty, num_segments=10, epsilon=1e-3
        )
        assert tight.upper_bound - tight.lower_bound <= 1e-3 + 1e-12
        assert loose.upper_bound - loose.lower_bound <= 0.5 + 1e-12

    def test_invalid_epsilon(self, small_interval_game, small_uncertainty):
        with pytest.raises(ValueError, match="epsilon"):
            solve_cubis(small_interval_game, small_uncertainty, epsilon=0.0)

    def test_target_mismatch(self, small_uncertainty):
        other = random_interval_game(7, seed=0)
        with pytest.raises(ValueError, match="targets"):
            solve_cubis(other, small_uncertainty)

    def test_equality_resources_mode(self, small_interval_game, small_uncertainty):
        result = solve_cubis(
            small_interval_game,
            small_uncertainty,
            num_segments=10,
            epsilon=0.01,
            equality_resources=True,
        )
        assert result.strategy.sum() == pytest.approx(
            small_interval_game.num_resources, abs=1e-6
        )


class TestBackends:
    def test_bnb_matches_highs(self, small_interval_game, small_uncertainty):
        a = solve_cubis(
            small_interval_game, small_uncertainty, num_segments=5, epsilon=0.05,
            backend="highs",
        )
        b = solve_cubis(
            small_interval_game, small_uncertainty, num_segments=5, epsilon=0.05,
            backend="bnb",
        )
        assert a.lower_bound == pytest.approx(b.lower_bound, abs=1e-9)
        assert a.worst_case_value == pytest.approx(b.worst_case_value, abs=0.05)


class TestRobustDominance:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_beats_uniform_in_worst_case(self, seed):
        game = random_interval_game(6, payoff_halfwidth=0.5, seed=seed)
        uncertainty = IntervalSUQR(
            game.payoffs, w1=(-4.0, -2.0), w2=(0.6, 0.9), w3=(0.3, 0.6),
            convention="tight",
        )
        result = solve_cubis(game, uncertainty, num_segments=12, epsilon=0.01)
        uniform_v = evaluate_worst_case(
            game, uncertainty, game.strategy_space.uniform()
        ).value
        assert result.worst_case_value >= uniform_v - 0.05


class TestPerformanceLayer:
    """Memoisation, the LP-relaxation screen, and warm starts must change
    solver-call counts, never answers."""

    def solve(self, game, unc, **kw):
        kw.setdefault("num_segments", 8)
        kw.setdefault("epsilon", 0.01)
        return solve_cubis(game, unc, **kw)

    def test_memoised_matches_cold_value(self, small_interval_game, small_uncertainty):
        cold = self.solve(small_interval_game, small_uncertainty, memoise=False)
        memo = self.solve(small_interval_game, small_uncertainty, memoise=True)
        # Both brackets enclose the same approximated optimum.
        assert memo.lower_bound <= cold.upper_bound + 1e-9
        assert cold.lower_bound <= memo.upper_bound + 1e-9
        assert abs(memo.lower_bound - cold.lower_bound) <= memo.epsilon
        assert abs(memo.worst_case_value - cold.worst_case_value) <= 2 * memo.epsilon

    def test_cold_counters(self, small_interval_game, small_uncertainty):
        cold = self.solve(small_interval_game, small_uncertainty, memoise=False)
        assert cold.lp_solves == 0
        assert cold.cache_hits == 0
        assert cold.milp_solves == cold.oracle_calls == cold.iterations

    def test_memoised_counters(self, small_interval_game, small_uncertainty):
        cold = self.solve(small_interval_game, small_uncertainty, memoise=False)
        memo = self.solve(small_interval_game, small_uncertainty, memoise=True)
        # Every oracle step is accounted for by exactly one mechanism.
        assert memo.milp_solves + memo.lp_solves + memo.cache_hits >= memo.iterations
        assert memo.milp_solves < cold.milp_solves

    def test_warm_start_cuts_solver_calls(self, small_interval_game, small_uncertainty):
        first = self.solve(small_interval_game, small_uncertainty)
        warm = self.solve(
            small_interval_game, small_uncertainty,
            warm_start=first.as_warm_start(),
        )
        assert warm.lower_bound == pytest.approx(first.lower_bound, abs=first.epsilon)
        calls = lambda r: r.milp_solves + r.lp_solves  # noqa: E731
        assert calls(warm) + warm.cache_hits <= calls(first) + first.cache_hits
        assert warm.cache_hits > 0 or calls(warm) < calls(first)

    def test_warm_vs_cold_equal_answer(self, small_interval_game, small_uncertainty):
        """Warm starts may only shorten the path, never move the answer."""
        first = self.solve(small_interval_game, small_uncertainty, memoise=False)
        warm = self.solve(
            small_interval_game, small_uncertainty, memoise=False,
            warm_start=first.as_warm_start(),
        )
        assert warm.lower_bound >= first.lower_bound - 1e-9
        assert warm.upper_bound <= first.upper_bound + 1e-9
        assert abs(warm.worst_case_value - first.worst_case_value) <= 2 * first.epsilon

    def test_garbage_warm_start_ignored(self, small_interval_game, small_uncertainty):
        baseline = self.solve(small_interval_game, small_uncertainty)
        garbage = WarmStart(
            bracket=(float("nan"), float("inf")),
            strategies=(
                np.ones(7),              # wrong dimension
                np.full(4, 10.0),        # violates the budget
                np.array([-1.0, 0.0, 0.0, 0.0]),  # outside the box
            ),
        )
        result = self.solve(
            small_interval_game, small_uncertainty, warm_start=garbage
        )
        assert result.lower_bound == pytest.approx(
            baseline.lower_bound, abs=baseline.epsilon
        )
        assert result.converged

    def test_as_warm_start_round_trip(self, small_interval_game, small_uncertainty):
        result = self.solve(small_interval_game, small_uncertainty)
        ws = result.as_warm_start()
        assert ws.bracket == (result.lower_bound, result.upper_bound)
        np.testing.assert_array_equal(ws.strategies[0], result.strategy)

    def test_cross_game_warm_start_is_safe(self):
        """A warm start from a different game must not corrupt the result."""
        games = [random_interval_game(5, payoff_halfwidth=0.5, seed=s) for s in (11, 12)]
        uncs = [
            IntervalSUQR(g.payoffs, w1=(-4.0, -2.0), w2=(0.6, 0.9), w3=(0.3, 0.6),
                         convention="tight")
            for g in games
        ]
        cold = solve_cubis(games[1], uncs[1], num_segments=8, epsilon=0.01)
        carried = solve_cubis(games[0], uncs[0], num_segments=8, epsilon=0.01)
        warm = solve_cubis(
            games[1], uncs[1], num_segments=8, epsilon=0.01,
            warm_start=carried.as_warm_start(),
        )
        assert warm.lower_bound == pytest.approx(cold.lower_bound, abs=cold.epsilon)


class TestSessionLayer:
    """The incremental-session oracle may only change cost, never
    answers — and a mid-sequence backend failure must degrade to exactly
    one fresh-build retry per failing step."""

    def solve(self, game, unc, **kw):
        kw.setdefault("num_segments", 8)
        kw.setdefault("epsilon", 0.01)
        return solve_cubis(game, unc, **kw)

    def test_incremental_matches_fresh_bit_for_bit(
        self, small_interval_game, small_uncertainty
    ):
        from repro.resilience import ResiliencePolicy, Rung

        # An unvalidated single-rung ladder keeps exact MILP steps (no
        # pool, no LP screen) but prepares every model through the
        # session; the memoise=False reference builds each one cold.
        policy = ResiliencePolicy(rungs=(Rung("milp", "highs"),),
                                  validate_steps=False)
        fresh = self.solve(small_interval_game, small_uncertainty,
                           resilience=policy, memoise=False)
        inc = self.solve(small_interval_game, small_uncertainty,
                         resilience=policy)
        # Patched models are bit-identical to fresh builds and HiGHS gets
        # no warm start, so the whole search replays identically.
        np.testing.assert_array_equal(inc.strategy, fresh.strategy)
        assert inc.trace == fresh.trace
        assert inc.lower_bound == fresh.lower_bound
        assert inc.upper_bound == fresh.upper_bound
        assert inc.milp_solves == fresh.milp_solves == fresh.iterations
        assert inc.session_patches > 0
        assert fresh.session_patches == 0
        assert inc.session_fallbacks == 0

    def test_auto_mode_resolution(self, small_interval_game, small_uncertainty):
        # memoise alone selects the path: the session stack or the cold
        # per-step build.
        memo = self.solve(small_interval_game, small_uncertainty, memoise=True)
        cold = self.solve(small_interval_game, small_uncertainty, memoise=False)
        assert memo.session_patches > 0
        assert cold.session_patches == 0

    def test_invalid_session_rejected(
        self, small_interval_game, small_uncertainty
    ):
        # The retired mode strings are not sessions.
        with pytest.raises(TypeError, match="session"):
            self.solve(small_interval_game, small_uncertainty, session="sticky")

    def test_bnb_session_matches_highs_session(
        self, small_interval_game, small_uncertainty
    ):
        highs = self.solve(small_interval_game, small_uncertainty,
                           backend="highs")
        bnb = self.solve(small_interval_game, small_uncertainty, backend="bnb")
        assert bnb.lower_bound == pytest.approx(highs.lower_bound, abs=1e-6)
        assert bnb.session_patches > 0


class TestSessionFailureSemantics:
    """A backend error mid-sequence must trigger a fresh-build fallback
    exactly once for that step, surface as a ``resilience.attempt``
    event, and leave the answer identical to the non-session path."""

    def _flaky_backend(self, fail_on_call):
        from repro.solvers.milp_backend import solve_milp

        calls = {"n": 0}

        def flaky(problem, **options):
            calls["n"] += 1
            if calls["n"] == fail_on_call:
                raise RuntimeError("injected backend failure")
            return solve_milp(problem, backend="highs", **options)

        return flaky, calls

    def test_fallback_exactly_once_and_answer_unchanged(
        self, small_interval_game, small_uncertainty
    ):
        from repro import telemetry

        # A callable backend gets no LP screen, so every pool miss is a
        # MILP solve through the session.
        steady, _ = self._flaky_backend(fail_on_call=0)
        ref = solve_cubis(small_interval_game, small_uncertainty,
                          num_segments=8, epsilon=0.01, backend=steady)
        flaky, calls = self._flaky_backend(fail_on_call=2)
        tele = telemetry.Telemetry()
        with telemetry.use(tele):
            result = solve_cubis(small_interval_game, small_uncertainty,
                                 num_segments=8, epsilon=0.01, backend=flaky)

        # Exactly one fallback: the failing step was re-solved from a
        # fresh build once, every other step stayed incremental.
        assert result.session_fallbacks == 1
        assert calls["n"] == result.milp_solves == ref.milp_solves + 1
        np.testing.assert_array_equal(result.strategy, ref.strategy)
        assert result.lower_bound == ref.lower_bound
        assert result.upper_bound == ref.upper_bound

        attempts = [r for r in tele.spans if r.name == "resilience.attempt"]
        errors = [r for r in attempts if r.attributes["outcome"] == "error"]
        assert len(errors) == 1
        assert "injected backend failure" in errors[0].attributes["message"]
        fallback_counters = [m for m in tele.metrics
                             if m.name == "repro_session_fallbacks_total"]
        assert sum(m.value for m in fallback_counters) == 1

    def test_persistent_failure_propagates_like_non_session_path(
        self, small_interval_game, small_uncertainty
    ):
        def broken(problem, **options):
            raise RuntimeError("backend is down")

        with pytest.raises(RuntimeError, match="backend is down"):
            solve_cubis(small_interval_game, small_uncertainty,
                        num_segments=8, epsilon=0.01, backend=broken)
