"""End-to-end tests of the fault-tolerant solve pipeline: injected
failures, ladder recovery, certificates, and the converged flag."""

import numpy as np
import pytest

from repro.behavior.interval import IntervalSUQR
from repro.core.cubis import solve_cubis
from repro.experiments.quality import default_uncertainty
from repro.game.generator import random_interval_game
from repro.resilience import (
    FaultInjector,
    LadderExhaustedError,
    ResiliencePolicy,
    Rung,
    certify_result,
    injected_policy,
    theorem_slack,
)


@pytest.fixture(scope="module")
def instance():
    game = random_interval_game(5, num_resources=1.5, seed=21)
    uncertainty = IntervalSUQR(
        game.payoffs, w1=(-4.0, -1.0), w2=(0.6, 0.9), w3=(0.3, 0.6),
        convention="tight",
    )
    return game, uncertainty


@pytest.fixture(scope="module")
def clean_result(instance):
    game, uncertainty = instance
    return solve_cubis(game, uncertainty, num_segments=10, epsilon=1e-3)


class TestFaultyEqualsFaultFree:
    """The acceptance scenario: 50% of MILP solves fail, the ladder
    recovers, and the answer matches the fault-free run within the
    Theorem 1 tolerance ``epsilon + 1/K``."""

    def solve_faulty(self, instance, seed):
        game, uncertainty = instance
        injector = FaultInjector(0.5, seed=seed)
        policy = injected_policy(injector, ResiliencePolicy(max_retries=2))
        result = solve_cubis(
            game, uncertainty, num_segments=10, epsilon=1e-3,
            resilience=policy,
        )
        return injector, result

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_completes_and_matches(self, instance, clean_result, seed):
        game, uncertainty = instance
        injector, result = self.solve_faulty(instance, seed)
        assert injector.faults > 0, "the schedule must actually inject"
        tolerance = result.epsilon + 1.0 / result.num_segments
        assert abs(result.worst_case_value - clean_result.worst_case_value) <= tolerance
        certificate = certify_result(game, uncertainty, result)
        assert certificate.valid, certificate.summary()

    def test_reports_ladder_usage(self, instance):
        injector, result = self.solve_faulty(instance, seed=3)
        report = result.resilience
        assert report is not None
        assert report.failed_attempts > 0
        assert sum(report.rung_counts) == result.iterations
        assert result.degraded == report.degraded
        # Every accepted step must have an "ok" event.
        ok_events = [e for e in report.events if e.outcome == "ok"]
        assert len(ok_events) == result.iterations

    def test_clean_policy_is_not_degraded(self, instance):
        game, uncertainty = instance
        result = solve_cubis(
            game, uncertainty, num_segments=10, epsilon=1e-3,
            resilience=ResiliencePolicy(), memoise=False,
        )
        assert not result.degraded
        assert result.resilience.rung_counts[1:] == (0, 0)
        # With memoise=False a ladder run answers every step with an exact
        # MILP solve, so the strategy must match the plain exact path; the
        # memoised ladder may return a different — equally valid — witness
        # from the LP-relaxation screen (see TestLadderKeepsFastPath).
        exact = solve_cubis(
            game, uncertainty, num_segments=10, epsilon=1e-3, memoise=False,
        )
        np.testing.assert_allclose(result.strategy, exact.strategy, atol=1e-8)


class TestLadderKeepsFastPath:
    """The certificate pool, the LP screen and the certified-level jumps
    run inside each MILP rung's oracle, so a clean ladder changes nothing
    and a step they settle is that rung's answer."""

    @pytest.mark.parametrize("num_targets", [5, 10, 20])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_clean_ladder_is_a_no_op(self, num_targets, seed):
        game = random_interval_game(num_targets, seed=seed)
        uncertainty = default_uncertainty(game.payoffs)
        laddered = solve_cubis(game, uncertainty, resilience=ResiliencePolicy())
        plain = solve_cubis(game, uncertainty)
        assert not laddered.degraded
        assert np.array_equal(laddered.strategy, plain.strategy)
        assert laddered.lower_bound == plain.lower_bound
        assert laddered.upper_bound == plain.upper_bound
        assert laddered.trace == plain.trace
        assert (laddered.lp_solves, laddered.milp_solves, laddered.cache_hits) == (
            plain.lp_solves, plain.milp_solves, plain.cache_hits
        )
        assert laddered.milp_solves == 0
        assert laddered.session_patches == plain.session_patches > 0
        assert sum(laddered.resilience.rung_counts) == laddered.iterations

    @pytest.mark.parametrize("mode", ["error", "perturb"])
    def test_failing_rung_invalidates_the_shared_session(self, instance, mode):
        # Every MILP rung prepares its model through one session.  A highs
        # failure (a solver error, or a perturbed solution that fails step
        # validation) drops the live model and escalates; the bnb rung's
        # prepare is then a fresh build, and no step is retried in place.
        from repro.solvers.session import MilpSession

        game, uncertainty = instance
        injector = FaultInjector(0.5, modes=(mode,), seed=4)
        policy = ResiliencePolicy(
            rungs=(Rung("milp", injector.wrap("highs")), Rung("milp", "bnb")),
            max_retries=0,
        )
        session = MilpSession(None)
        result = solve_cubis(
            game, uncertainty, num_segments=10, epsilon=1e-3,
            resilience=policy, session=session,
        )
        report = result.resilience
        assert injector.faults > 0
        assert report.failed_attempts == injector.faults
        assert report.rung_counts[1] == report.failed_attempts
        assert session.fallbacks == report.failed_attempts
        assert session.fresh_builds == 1 + session.fallbacks
        assert session.solves == result.milp_solves
        assert result.session_fallbacks == 0
        assert result.session_patches > 0
        assert certify_result(game, uncertainty, result).valid

    def test_failing_screen_escalates_like_a_failing_milp(self, monkeypatch):
        # The LP screen is a backend call of its rung: when HiGHS raises on
        # every relaxation, each uncached step escalates to the bnb rung.
        import repro.core.cubis as cubis_module

        real_solve_milp = cubis_module.solve_milp

        def flaky_lp(problem, backend="highs", **kwargs):
            if backend == "highs" and not problem.integrality.any():
                raise RuntimeError("injected LP-screen failure")
            return real_solve_milp(problem, backend=backend, **kwargs)

        monkeypatch.setattr(cubis_module, "solve_milp", flaky_lp)
        game = random_interval_game(6, seed=5)
        uncertainty = default_uncertainty(game.payoffs)
        result = solve_cubis(
            game, uncertainty, num_segments=8, epsilon=1e-2,
            resilience=ResiliencePolicy(max_retries=0),
        )
        report = result.resilience
        assert result.degraded
        assert sum(report.rung_counts) == result.iterations
        assert report.rung_counts[1] == result.iterations - result.cache_hits
        assert report.failed_attempts == report.rung_counts[1]
        assert result.milp_solves == 0
        assert certify_result(game, uncertainty, result).valid

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_unvalidated_ladder_keeps_exact_steps(self, seed):
        # With validate_steps=False a perturbed witness is never checked,
        # so it must not join the certificate pool or raise the lower
        # bound: the memoised ladder behaves exactly like memoise=False.
        game = random_interval_game(8, seed=seed)
        uncertainty = default_uncertainty(game.payoffs)

        def solve(memoise):
            injector = FaultInjector(1.0, modes=("perturb",))
            policy = ResiliencePolicy(
                rungs=(Rung("milp", injector.wrap("highs")),),
                validate_steps=False,
            )
            return solve_cubis(
                game, uncertainty, resilience=policy, memoise=memoise
            )

        memoised, exact = solve(True), solve(False)
        assert memoised.trace == exact.trace
        assert memoised.lower_bound == exact.lower_bound
        assert memoised.upper_bound == exact.upper_bound
        assert np.array_equal(memoised.strategy, exact.strategy)
        assert memoised.lp_solves == 0 and memoised.cache_hits == 0


class TestCrossBackendLadderEquality:
    """Single-rung ladders must agree: highs and bnb solve the identical
    MILP; the dp rung is within the Theorem 1 envelope."""

    @pytest.fixture(scope="class")
    def rung_results(self, instance):
        game, uncertainty = instance
        results = {}
        for label, rungs in (
            ("highs", (Rung("milp", "highs"),)),
            ("bnb", (Rung("milp", "bnb"),)),
            ("dp", (Rung("dp"),)),
        ):
            results[label] = solve_cubis(
                game, uncertainty, num_segments=10, epsilon=1e-3,
                resilience=ResiliencePolicy(rungs=rungs),
            )
        return results

    def test_highs_and_bnb_agree_exactly(self, rung_results):
        a, b = rung_results["highs"], rung_results["bnb"]
        assert a.worst_case_value == pytest.approx(b.worst_case_value, abs=1e-6)
        np.testing.assert_allclose(a.strategy, b.strategy, atol=1e-5)

    def test_dp_rung_within_theorem_envelope(self, instance, rung_results):
        game, _ = instance
        a, d = rung_results["highs"], rung_results["dp"]
        slack = theorem_slack(game, a.epsilon, a.num_segments)
        assert abs(a.worst_case_value - d.worst_case_value) <= slack

    def test_each_rung_result_certifies(self, instance, rung_results):
        game, uncertainty = instance
        for result in rung_results.values():
            assert certify_result(game, uncertainty, result).valid


class TestHardFailures:
    def test_exhausted_ladder_raises_with_step_context(self, instance):
        game, uncertainty = instance
        injector = FaultInjector(1.0, modes=("error",), seed=0)
        policy = ResiliencePolicy(
            rungs=(Rung("milp", injector.wrap("highs")),), max_retries=1
        )
        with pytest.raises(LadderExhaustedError) as excinfo:
            solve_cubis(
                game, uncertainty, num_segments=6, epsilon=0.01,
                resilience=policy,
            )
        message = str(excinfo.value)
        assert "step 1" in message
        assert "bracket" in message
        assert "faulty-highs" in message

    def test_plain_backend_failure_names_backend_and_bracket(self, instance):
        game, uncertainty = instance
        injector = FaultInjector(1.0, modes=("error",), seed=0)
        with pytest.raises(RuntimeError) as excinfo:
            solve_cubis(
                game, uncertainty, num_segments=6, epsilon=0.01,
                backend=injector.wrap("highs"),
            )
        message = str(excinfo.value)
        assert "faulty-highs" in message
        assert "step 1" in message and "bracket" in message

    def test_nan_objective_is_caught_not_propagated(self, instance):
        game, uncertainty = instance
        injector = FaultInjector(1.0, modes=("nan",), seed=0)
        policy = ResiliencePolicy(
            rungs=(Rung("milp", injector.wrap("highs")), Rung("dp")),
            max_retries=0,
        )
        result = solve_cubis(
            game, uncertainty, num_segments=10, epsilon=1e-3,
            resilience=policy,
        )
        assert result.degraded
        assert result.resilience.rung_counts == (0, result.iterations)
        assert np.isfinite(result.worst_case_value)

    def test_slow_backend_times_out_onto_dp(self, instance):
        game, uncertainty = instance
        injector = FaultInjector(
            1.0, modes=("slow",), seed=0, slow_seconds=0.05
        )
        policy = ResiliencePolicy(
            rungs=(Rung("milp", injector.wrap("highs")), Rung("dp")),
            max_retries=0, step_timeout=0.01, sticky=True,
        )
        result = solve_cubis(
            game, uncertainty, num_segments=10, epsilon=1e-3,
            resilience=policy,
        )
        assert result.degraded
        outcomes = {e.outcome for e in result.resilience.events}
        assert "timeout" in outcomes
        # Sticky: only the first step pays the slow attempt.
        timeouts = [e for e in result.resilience.events if e.outcome == "timeout"]
        assert len(timeouts) == 1


class TestConvergedFlag:
    def test_exhausted_iterations_flagged_and_warned(self, instance):
        game, uncertainty = instance
        with pytest.warns(RuntimeWarning, match="max_iterations"):
            result = solve_cubis(
                game, uncertainty, num_segments=6, epsilon=1e-9,
                max_iterations=3,
            )
        assert not result.converged
        assert result.upper_bound - result.lower_bound > 1e-9

    def test_unconverged_result_still_certifies(self, instance):
        game, uncertainty = instance
        with pytest.warns(RuntimeWarning):
            result = solve_cubis(
                game, uncertainty, num_segments=6, epsilon=1e-9,
                max_iterations=3,
            )
        certificate = certify_result(game, uncertainty, result)
        assert certificate.valid, certificate.summary()

    def test_normal_solve_converges(self, clean_result):
        assert clean_result.converged
        assert clean_result.resilience is None
        assert not clean_result.degraded


class TestInputValidation:
    def test_num_segments_validated(self, instance):
        game, uncertainty = instance
        with pytest.raises(ValueError, match="num_segments"):
            solve_cubis(game, uncertainty, num_segments=0)
        with pytest.raises(TypeError, match="num_segments"):
            solve_cubis(game, uncertainty, num_segments=2.5)

    def test_max_iterations_validated(self, instance):
        game, uncertainty = instance
        with pytest.raises(ValueError, match="max_iterations"):
            solve_cubis(game, uncertainty, max_iterations=0)

    def test_constraints_with_dp_rung_rejected(self, instance):
        from repro.game.constraints import CoverageConstraints

        game, uncertainty = instance
        constraints = CoverageConstraints(
            matrix=np.eye(game.num_targets), rhs=np.ones(game.num_targets)
        )
        with pytest.raises(ValueError, match="milp_only"):
            solve_cubis(
                game, uncertainty, coverage_constraints=constraints,
                resilience=ResiliencePolicy(),
            )

    def test_constraints_with_milp_only_policy_work(self, instance):
        from repro.game.constraints import CoverageConstraints

        game, uncertainty = instance
        constraints = CoverageConstraints(
            matrix=np.eye(game.num_targets),
            rhs=np.full(game.num_targets, 0.9),
        )
        result = solve_cubis(
            game, uncertainty, num_segments=8, epsilon=0.01,
            coverage_constraints=constraints,
            resilience=ResiliencePolicy().milp_only(),
        )
        assert constraints.satisfied(result.strategy)


class TestPasaqLadder:
    def test_pasaq_recovers_from_faults(self):
        from repro.baselines.pasaq import solve_pasaq
        from repro.behavior.qr import QuantalResponse
        from repro.game.generator import random_game

        game = random_game(5, seed=4)
        model = QuantalResponse(game.payoffs, 0.8)
        clean = solve_pasaq(game, model, num_segments=8, epsilon=0.01)
        injector = FaultInjector(0.5, seed=11)
        policy = injected_policy(injector, ResiliencePolicy(max_retries=4))
        faulty = solve_pasaq(
            game, model, num_segments=8, epsilon=0.01, resilience=policy
        )
        assert injector.faults > 0
        assert faulty.value == pytest.approx(clean.value, abs=1e-9)
        assert faulty.converged
        assert faulty.resilience is not None
        # The dp rung is stripped for PASAQ.
        assert all("milp" in l for l in faulty.resilience.rung_labels)
