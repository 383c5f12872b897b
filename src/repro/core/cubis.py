"""CUBIS — the paper's robust algorithm (Section IV).

``solve_cubis`` computes an approximately optimal defender strategy for
the behavioral-robust maximin problem (Eq. 5):

1. the maximin is converted (by LP duality, Section IV-A) into the single
   maximisation (15-17) — this conversion is implicit here: CUBIS searches
   the value axis of that problem directly;
2. a binary search over the candidate utility ``c`` (Section IV-B) reduces
   the problem to a sequence of value-point feasibility checks (P1),
   monotone by Proposition 1;
3. each check maximises the piecewise-linearised ``G(x, beta)`` as the
   MILP (33-40) (Section IV-C) and applies Proposition 2's sign test.

The returned strategy carries an exact worst-case evaluation (via the
inner-problem solver, not the approximation), the final binary-search
bracket ``[lb, ub]``, and the per-step trace.  Theorem 1 guarantees the
result is ``O(epsilon + 1/K)``-optimal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.behavior.interval import UncertaintyModel
from repro.core.dp import maximize_separable_on_grid
from repro.core.milp import CubisMilpSkeleton, build_cubis_milp
from repro.core.worst_case import WorstCaseSolution, evaluate_worst_case
from repro.game.ssg import IntervalSecurityGame
from repro.obs import progress
from repro.solvers.binary_search import binary_search_max
from repro.solvers.fleet import active_shape_cache
from repro.solvers.milp_backend import relax_integrality, solve_milp
from repro.solvers.piecewise import SegmentGrid
from repro.solvers.session import MilpSession
from repro.resilience.events import SolveEventLog, StepEvent
from repro.resilience.policy import (
    LadderExhaustedError,
    OracleLadder,
    OracleStepError,
    ResiliencePolicy,
    ResilienceReport,
)
from repro import telemetry
from repro.utils.timing import Timer
from repro.utils.validation import check_int_at_least

__all__ = ["CubisResult", "WarmStart", "solve_cubis"]

#: Numerical slack allowed when sanity-checking a backend's solution
#: (box membership, budget).  Looser than ``feasibility_tolerance``
#: because branch-and-cut backends report solutions at their own
#: primal-feasibility tolerance.
_STEP_VALIDATION_TOL = 1e-6

#: Cap on cached feasibility certificates per solve.  The pool holds the
#: warm-start strategies plus the most recent feasible MILP maximisers;
#: each certificate check is O(T), so the cap only bounds memory.
_CERTIFICATE_POOL_LIMIT = 16


@dataclass(frozen=True)
class WarmStart:
    """Carry-over state from a previous CUBIS solve.

    Attributes
    ----------
    bracket:
        The previous solve's final ``[lb, ub]``.  It is *probed*, never
        trusted: both ends are re-verified by the oracle before use, so a
        bracket from a neighbouring problem (the same game at a different
        ``K``, the previous game of a sweep) can only shrink the search
        interval, never corrupt it.
    strategies:
        Candidate coverage vectors (typically the previous solve's
        strategy).  Each is screened against the current game's budget and
        side constraints, then used as a feasibility certificate: any
        candidate utility it still certifies is answered without a MILP
        solve.  Strategies of the wrong dimension are ignored, so a sweep
        over ``T`` can thread one warm start throughout.
    """

    bracket: tuple[float, float] | None = None
    strategies: tuple = ()


@dataclass(frozen=True)
class CubisResult:
    """Outcome of a CUBIS solve.

    Attributes
    ----------
    strategy:
        The robust coverage vector (projected onto ``sum x = R``).
    worst_case_value:
        Exact worst-case defender utility of ``strategy`` (inner problem
        solved exactly — not the piecewise approximation).
    worst_case:
        The full adversarial response (distribution + attractiveness).
    lower_bound, upper_bound:
        Final binary-search bracket ``[lb, ub]`` on the *approximated*
        optimal value; ``ub - lb <= epsilon`` on normal termination.
    epsilon, num_segments:
        The accuracy knobs (Theorem 1: the result is
        ``O(epsilon + 1/K)``-optimal).
    iterations:
        Binary-search steps (= oracle calls: certificate-pool hits plus
        LP screens plus MILP solves).
    trace:
        ``(c, feasible)`` per step.
    solve_seconds:
        Wall-clock time of the whole call.
    converged:
        Whether the binary search closed its bracket to ``epsilon``;
        False means ``max_iterations`` ran out first and the bracket
        (still valid) is wider than requested.
    milp_solves:
        Full (integer) MILP solves actually performed — equals
        ``iterations`` for a cold MILP-oracle run; with ``memoise=True``
        most steps are answered by the certificate pool or the
        LP-relaxation screen instead, and this drops to a handful; 0 for
        the ``"dp"`` oracle.
    lp_solves:
        LP-relaxation screens performed (``memoise=True`` only).  The
        relaxation's optimum bounds the MILP's from above, so a
        low-enough value proves infeasibility outright; its coverage,
        evaluated exactly through a certificate, usually proves
        feasibility.  Only the gap between the two pays for a full MILP.
    cache_hits:
        Oracle steps answered by a cached strategy certificate with no
        solver call at all (always 0 with ``memoise=False``).
    session_patches:
        In-place sparse coefficient patches the
        :class:`~repro.solvers.session.MilpSession` applied during this
        solve (excludes full builds; always 0 with ``memoise=False``).
    session_fallbacks:
        Steps whose session solve failed and was answered by a one-shot
        fresh-build retry (each also emits a ``resilience.attempt``
        telemetry event; always 0 under a resilience policy, whose
        ladder owns retries).
    guess_probes:
        Warm-start guesses (certificate level + carried bracket ends)
        actually probed by the binary search — what a
        :class:`WarmStart` cost to re-validate on this instance.
    degraded:
        True iff a fallback rung other than the first answered at least
        one step (always False without a resilience policy).
    resilience:
        The :class:`~repro.resilience.policy.ResilienceReport` for the
        solve when a policy was active, else ``None``.
    """

    strategy: np.ndarray
    worst_case_value: float
    worst_case: WorstCaseSolution
    lower_bound: float
    upper_bound: float
    epsilon: float
    num_segments: int
    iterations: int
    trace: tuple
    solve_seconds: float
    converged: bool = True
    degraded: bool = False
    resilience: ResilienceReport | None = None
    milp_solves: int = 0
    lp_solves: int = 0
    cache_hits: int = 0
    session_patches: int = 0
    session_fallbacks: int = 0
    guess_probes: int = 0

    @property
    def oracle_calls(self) -> int:
        """Alias for ``iterations`` — total feasibility-oracle queries."""
        return self.iterations

    def as_warm_start(self) -> WarmStart:
        """Package this result for a neighbouring solve's ``warm_start``."""
        return WarmStart(
            bracket=(self.lower_bound, self.upper_bound),
            strategies=(self.strategy,),
        )


def solve_cubis(
    game: IntervalSecurityGame,
    uncertainty: UncertaintyModel,
    *,
    num_segments: int = 10,
    epsilon: float = 1e-3,
    backend: str = "highs",
    oracle: str = "milp",
    equality_resources: bool = False,
    coverage_constraints=None,
    execution_alpha: float = 0.0,
    feasibility_tolerance: float = 1e-7,
    max_iterations: int = 200,
    resilience: ResiliencePolicy | None = None,
    memoise: bool = True,
    warm_start: WarmStart | None = None,
    session: MilpSession | None = None,
) -> CubisResult:
    """Run CUBIS on an interval security game.

    Parameters
    ----------
    game:
        The :class:`~repro.game.ssg.IntervalSecurityGame` (defender
        payoffs + resources).
    uncertainty:
        The :class:`~repro.behavior.interval.UncertaintyModel` providing
        ``[L_i(x), U_i(x)]``; must cover the same number of targets.
    num_segments:
        ``K`` — piecewise-linear segments per target.
    epsilon:
        Binary-search tolerance on the defender-utility axis.
    backend:
        MILP backend: ``"highs"`` (default) or ``"bnb"`` (the pure-Python
        branch and bound).  Ignored when ``oracle="dp"``.
    oracle:
        Per-step feasibility oracle: ``"milp"`` is the paper's MILP
        (33-40); ``"dp"`` is the grid-restricted dynamic program of
        :mod:`repro.core.dp` (no MILP solver involved, same ``O(1/K)``
        approximation order — see the module docs for the trade-off).
    equality_resources:
        Use ``sum x = R`` in the MILP instead of the paper's ``<= R``
        (``"milp"`` oracle only).
    coverage_constraints:
        Optional :class:`~repro.game.constraints.CoverageConstraints`
        ``A x <= b`` — scheduling-style side constraints (zone caps,
        minimum coverage).  Supported by the ``"milp"`` oracle only; the
        returned strategy is not re-projected onto ``sum x = R`` (the
        projection could break the side constraints), so it may leave
        budget slack.
    execution_alpha:
        Execution-noise radius (see :mod:`repro.behavior.noise`): the
        realised coverage may fall up to ``alpha`` short of the plan per
        target, and nature exploits the shortfall.  Implemented by
        evaluating every grid — defender utilities and interval bounds —
        at the worst-case realised coverage ``max(t - alpha, 0)``; the
        returned ``worst_case_value`` is likewise execution-adjusted.
    feasibility_tolerance:
        Numerical slack on Proposition 2's sign test (``G_bar >= -tol``
        counts as feasible).
    max_iterations:
        Hard cap on binary-search steps, counting the two endpoint
        checks (which always run) and any warm-start guesses.
    resilience:
        Optional :class:`~repro.resilience.policy.ResiliencePolicy`.
        When given, every binary-search step runs through the policy's
        fallback ladder (by default ``highs`` → ``bnb`` → ``dp``) with
        bounded retries and soft timeouts, and the result carries a
        :class:`~repro.resilience.policy.ResilienceReport`; the
        ``backend`` / ``oracle`` arguments are ignored in favour of the
        policy's rungs.  The ladder wraps each rung's backend calls only:
        with ``memoise=True`` and ``validate_steps=True`` every MILP rung
        consults the certificate pool and, for a named backend, the
        LP-relaxation screen before its MILP, and a verdict from either
        counts as that rung's answer (an LP-screen call that raises is a
        rung failure and escalates like a MILP failure).  Every MILP
        rung prepares its model through the same ``MilpSession`` as the
        plain oracle (the rung's backend is passed per solve); any
        exception in a rung's MILP step invalidates the session and
        escalates, so the ladder alone owns retries.  A clean default
        ladder therefore returns exactly what the default solve returns.
    memoise:
        Enable the per-solve performance layer (default on): the MILP
        skeleton is assembled once, every MILP step prepares its model
        through one :class:`~repro.solvers.session.MilpSession` (an
        in-place sparse patch of a live model, bit-identical to a fresh
        build), and feasible strategies are cached as certificates that
        answer later oracle steps without a MILP solve (see
        docs/PERFORMANCE.md).  Feasibility *verdicts* are unchanged — a
        certificate only fires when the MILP would also have reported
        feasible — but the certifying strategy may replace the MILP
        maximiser as the step's witness.  ``memoise=False`` is the
        paper-literal cold reference: every step calls
        :func:`~repro.core.milp.build_cubis_milp`, with no skeleton,
        session, certificate pool or LP screen (the benchmark
        baseline).  Certificate short-circuits, the
        LP screen and certified-level jumps apply to the ``"milp"``
        oracle and to the MILP rungs of a resilience policy with
        ``validate_steps=True``; the ``"dp"`` oracle and ladders with
        ``validate_steps=False`` (whose witnesses are never checked, so
        must not become certificates) keep their exact step-by-step
        semantics.
    warm_start:
        Optional :class:`WarmStart` from a neighbouring solve (same game
        with a different ``K``/``epsilon``, or a similar game in a sweep).
        The carried bracket is probed — not trusted — and the carried
        strategies join the certificate pool, so a stale warm start
        degrades gracefully to at most two extra oracle calls.
    session:
        A live :class:`~repro.solvers.session.MilpSession` to *lease*
        (``None``, the default, uses a private one).  The solve
        retargets it at this game's skeleton and drives every MILP step
        through it, which is how :func:`~repro.solvers.resolve.resolve`
        carries one live model across interval drift, the fleet solver
        (:mod:`repro.solvers.fleet`) across a whole fleet of games and
        the service's workers across requests.  Without a resilience
        policy, a session solve that errors invalidates the live model
        and retries that step once from a fresh build.  Unused when no
        MILP runs (``memoise=False`` or the ``"dp"`` oracle).
    """
    if uncertainty.num_targets != game.num_targets:
        raise ValueError(
            f"uncertainty model covers {uncertainty.num_targets} targets but the "
            f"game has {game.num_targets}"
        )
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")

    if execution_alpha < 0:
        raise ValueError(f"execution_alpha must be >= 0, got {execution_alpha}")
    num_segments = check_int_at_least(num_segments, 1, "num_segments")
    max_iterations = check_int_at_least(max_iterations, 1, "max_iterations")
    if session is not None and not isinstance(session, MilpSession):
        raise TypeError(f"session must be a MilpSession or None, got {session!r}")
    solve_span = telemetry.span(
        "cubis.solve",
        targets=game.num_targets,
        segments=int(num_segments),
        epsilon=float(epsilon),
        oracle=oracle,
        backend=backend if isinstance(backend, str)
        else getattr(backend, "__name__", type(backend).__name__),
        memoise=bool(memoise),
        resilient=resilience is not None,
    )
    with solve_span:
        grid = SegmentGrid(num_segments)
        breakpoints = grid.breakpoints
        # Tabulate everything once: U^d, L, U at the K+1 breakpoints (T, K+1).
        # Under execution noise, a planned coverage t realises (worst case) as
        # max(t - alpha, 0) — all three grids are evaluated there.
        realised = np.maximum(breakpoints - execution_alpha, 0.0)
        ud_grid = (
            np.outer(game.payoffs.defender_reward, realised)
            + np.outer(game.payoffs.defender_penalty, 1.0 - realised)
        )
        lower_grid = uncertainty.lower_on_grid(realised)
        upper_grid = uncertainty.upper_on_grid(realised)
        if not (np.all(np.isfinite(upper_grid)) and np.all(lower_grid > 0)):
            raise ValueError(
                "uncertainty bounds must be positive and finite on the grid; "
                "extreme model parameters (e.g. SUQR weights fitted at their "
                "bounds) can overflow the exponential attractiveness"
            )
        # The attack probabilities — and hence the sign of G — are invariant
        # to a global scaling of (L, U); normalise so the largest upper bound
        # is 1, keeping the MILP's big-M coefficients well-conditioned no
        # matter how large the raw exp(...) attractiveness values are.
        scale = 1.0 / upper_grid.max()
        lower_grid = lower_grid * scale
        upper_grid = upper_grid * scale

        if oracle not in ("milp", "dp"):
            raise ValueError(f"oracle must be 'milp' or 'dp', got {oracle!r}")
        if coverage_constraints is not None and oracle != "milp":
            raise ValueError("coverage_constraints require the 'milp' oracle")
        if coverage_constraints is not None and resilience is not None:
            if any(r.oracle != "milp" for r in resilience.rungs):
                raise ValueError(
                    "coverage_constraints require milp rungs only; pass "
                    "resilience.milp_only()"
                )

        def validate_step_solution(strategy: np.ndarray, label: str) -> None:
            # Cheap sanity screen on a backend's solution; a corrupted or
            # perturbed answer must not silently steer the binary search.
            tol = _STEP_VALIDATION_TOL
            if not np.all(np.isfinite(strategy)):
                raise OracleStepError(f"{label} returned a non-finite strategy")
            if np.any(strategy < -tol) or np.any(strategy > 1.0 + tol):
                raise OracleStepError(
                    f"{label} returned coverage outside [0, 1]: "
                    f"min {strategy.min():.6g}, max {strategy.max():.6g}"
                )
            spent = float(strategy.sum())
            over = spent - game.num_resources
            if over > tol or (equality_resources and abs(over) > tol):
                raise OracleStepError(
                    f"{label} violated the resource budget: sum x = {spent:.6g} "
                    f"vs R = {game.num_resources:.6g}"
                )
            if coverage_constraints is not None and not coverage_constraints.satisfied(
                strategy, atol=tol
            ):
                raise OracleStepError(f"{label} violated the side constraints")

        # --- performance layer -------------------------------------------- #
        # memoise=True assembles the MILP structure once and prepares every
        # MILP step — plain oracle and ladder rungs alike — by patching one
        # live model in place through a MilpSession.  It also keeps a pool
        # of feasible-strategy certificates that answer oracle steps in
        # O(T) when a cached strategy still certifies the candidate.  A
        # certificate or an LP bound is a proof whichever backend produced
        # it, so all of this also runs inside each MILP rung of a
        # resilience ladder (a step it settles is that rung's answer).  The
        # dp oracle keeps its exact per-step semantics, and so does a
        # ladder with validate_steps=False: an unvalidated witness must
        # never join the pool or raise the lower bound (see
        # docs/RESILIENCE.md).
        needs_milp = (
            any(r.oracle == "milp" for r in resilience.rungs)
            if resilience is not None
            else oracle == "milp"
        )
        use_certificates = memoise and needs_milp and (
            resilience is None or resilience.validate_steps
        )
        skeleton = None
        milp_session: MilpSession | None = None
        patches_at_entry = 0
        if memoise and needs_milp:
            # An active shape cache (run_grid(fleet=True), solve_fleet)
            # leases a structure-sharing skeleton instead of assembling
            # one; rebinding is bit-identical to a fresh build, so this
            # only changes cost.  Side constraints embed their matrix in
            # the structure, so constrained games always build fresh.
            shape_cache = active_shape_cache()
            if shape_cache is not None and coverage_constraints is None:
                skeleton = shape_cache.lease(
                    ud_grid,
                    lower_grid,
                    upper_grid,
                    game.num_resources,
                    grid,
                    equality_resources=equality_resources,
                )
            else:
                skeleton = CubisMilpSkeleton(
                    ud_grid,
                    lower_grid,
                    upper_grid,
                    game.num_resources,
                    grid,
                    equality_resources=equality_resources,
                    coverage_constraints=coverage_constraints,
                )
            if session is not None:
                # A leased session is retargeted at this game's skeleton:
                # its live model and — with carry_incumbent — its MIP start
                # carry over from whatever it solved last.
                session.retarget(skeleton)
                milp_session = session
                patches_at_entry = session.patches_applied
            else:
                milp_session = MilpSession(skeleton, backend=backend)
        session_log = SolveEventLog()
        pool: list = []  # StrategyCertificate entries, oldest first
        # Run-level telemetry counters (docs/OBSERVABILITY.md).  They
        # accumulate across every solve sharing the active context (a sweep,
        # a service process); the per-solve CubisResult fields are recovered
        # as deltas against this snapshot.
        meter = telemetry.metrics()
        milp_counter = meter.counter("repro_cubis_milp_solves_total")
        lp_counter = meter.counter("repro_cubis_lp_screens_total")
        hit_counter = meter.counter("repro_cubis_cache_hits_total")
        miss_counter = meter.counter("repro_cubis_cache_misses_total")
        fallback_counter = meter.counter("repro_session_fallbacks_total")
        counts_at_entry = (
            milp_counter.value, lp_counter.value, hit_counter.value,
            fallback_counter.value,
        )

        def certificate_answer(c: float):
            # A cached strategy that certifies c answers the oracle for
            # free: the MILP maximum can only be higher, so the verdict is
            # the one the solver would have returned.  Returns None when
            # the pool cannot answer.
            if not (use_certificates and pool):
                return None
            best, best_g = None, -float("inf")
            for cert in pool:
                g = cert.g_bar(c)
                if g > best_g:
                    best, best_g = cert, g
            if best_g >= -feasibility_tolerance:
                return True, best.strategy
            return None

        def add_to_pool(cert) -> None:
            if cert is None:
                return
            pool.append(cert)
            if len(pool) > _CERTIFICATE_POOL_LIMIT:
                del pool[0]

        def make_milp_oracle(milp_backend, *, validate: bool = True):
            label = milp_backend if isinstance(milp_backend, str) else getattr(
                milp_backend, "__name__", type(milp_backend).__name__
            )
            lp_screen = use_certificates and isinstance(milp_backend, str)

            def prepare(c: float):
                if milp_session is not None:
                    return milp_session.prepare(c)
                # memoise=False: the paper-literal cold build, every step.
                return build_cubis_milp(
                    ud_grid,
                    lower_grid,
                    upper_grid,
                    game.num_resources,
                    c,
                    grid,
                    equality_resources=equality_resources,
                    coverage_constraints=coverage_constraints,
                )

            def solve(model, c: float):
                milp_counter.inc()
                result = (
                    milp_session.solve(backend=milp_backend)
                    if milp_session is not None
                    else solve_milp(model.problem, backend=milp_backend)
                )
                if not result.optimal:
                    # The MILP is always feasible in (x, v, q, h) — x =
                    # anything feasible, q = 1, v at its forced value — so a
                    # non-optimal status signals a solver failure, not (P1)
                    # infeasibility.
                    raise OracleStepError(
                        f"CUBIS MILP solve failed at c={c:.6g} with backend "
                        f"{label!r}: {result.status} {result.message}"
                    )
                return result

            def note_session_fallback(c, exc, wall_seconds: float) -> None:
                # Mirror the resilience ladder's per-attempt event so a
                # degraded session surfaces in the same telemetry stream
                # (resilience.attempt + outcome counter) operators already
                # watch; session fallbacks additionally tick their own
                # counter.
                session_log.record(StepEvent(
                    step=state["step"],
                    c=float(c),
                    rung=0,
                    oracle="milp",
                    backend=label if isinstance(label, str) else str(label),
                    attempt=1,
                    outcome="error",
                    feasible=None,
                    wall_seconds=wall_seconds,
                    message=f"session solve failed, retrying fresh build: {exc}",
                ))

            def milp_step(c: float):
                model = prepare(c)
                if lp_screen:
                    # LP-relaxation screen.  The relaxation's optimum bounds
                    # the integer optimum from above, so a value below the
                    # tolerance proves infeasibility; conversely the relaxed
                    # coverage — evaluated exactly through a certificate, not
                    # the relaxation's own objective — usually proves
                    # feasibility.  Either way the verdict matches what the
                    # full MILP would have said; only the gap between the two
                    # bounds pays for branch and cut.
                    lp_counter.inc()
                    relaxed = solve_milp(
                        relax_integrality(model.problem), backend=milp_backend
                    )
                    if relaxed.optimal:
                        g_upper = model.g_bar_from_objective(relaxed.objective)
                        if g_upper < -feasibility_tolerance:
                            return False, None
                        candidate = np.clip(
                            model.strategy_from_solution(relaxed.x), 0.0, 1.0
                        )
                        cert = skeleton.certificate(candidate)
                        if cert.g_bar(c) >= -feasibility_tolerance:
                            screened = True
                            if validate:
                                try:
                                    validate_step_solution(candidate, "lp relaxation")
                                except OracleStepError:
                                    screened = False  # fall through to the MILP
                            if screened:
                                add_to_pool(cert)
                                return True, candidate
                t0 = time.perf_counter()
                try:
                    result = solve(model, c)
                except Exception as exc:
                    if milp_session is None or resilience is not None:
                        raise
                    # Without a ladder, a failed session solve invalidates
                    # the live model (in-place state may be implicated) and
                    # answers this step with exactly one fresh-build solve;
                    # a second failure propagates.
                    fallback_counter.inc()
                    milp_session.invalidate()
                    note_session_fallback(c, exc, time.perf_counter() - t0)
                    model = milp_session.prepare(c)
                    result = solve(model, c)
                g_bar = model.g_bar_from_objective(result.objective)
                strategy = model.strategy_from_solution(result.x)
                if validate:
                    if not np.isfinite(g_bar):
                        raise OracleStepError(
                            f"backend {label!r} reported a non-finite objective "
                            f"at c={c:.6g}"
                        )
                    validate_step_solution(strategy, f"backend {label!r}")
                feasible = g_bar >= -feasibility_tolerance
                if use_certificates and feasible:
                    add_to_pool(skeleton.certificate(strategy))
                return feasible, strategy

            def milp_oracle(c: float):
                hit = certificate_answer(c)
                if hit is not None:
                    hit_counter.inc()
                    return hit
                if use_certificates:
                    # The pool was consulted (possibly empty) and could not
                    # answer; everything below pays for a solver call.
                    miss_counter.inc()
                try:
                    return milp_step(c)
                except Exception:
                    # Whatever failed — solver, status, LP screen or step
                    # validation — the live model may be implicated: drop it
                    # so the next prepare (a ladder retry, the next rung or
                    # the next step) is a fresh build.  Under a ladder this
                    # is the only failure handling; the ladder owns retries.
                    if milp_session is not None:
                        milp_session.invalidate()
                    raise

            return milp_oracle

        budget_units = int(np.floor(game.num_resources * num_segments + 1e-9))

        def dp_oracle(c: float):
            # G(x, beta*) = sum_i min(f1_i, f2_i)(x_i) — separable, so the
            # grid-restricted maximum is a multiple-choice knapsack.
            t0 = time.perf_counter()
            with telemetry.span(
                "dp.solve", kind="dp", budget_units=budget_units
            ) as sp:
                margin = ud_grid - c
                phi = np.minimum(lower_grid * margin, upper_grid * margin)
                allocation = maximize_separable_on_grid(phi, budget_units)
                feasible = allocation.value >= -feasibility_tolerance
                sp.set(feasible=bool(feasible))
            telemetry.histogram("repro_oracle_seconds", kind="dp").observe(
                time.perf_counter() - t0
            )
            return feasible, allocation.coverage(num_segments)

        lo, hi = game.utility_range()

        # Warm-start intake: screened strategies join the certificate pool and
        # contribute one proven-feasible guess (the best level the pool
        # certifies, computed without any MILP); the carried bracket's ends
        # are probed as ordinary oracle candidates.  Everything is verified
        # against *this* game, so stale warm starts cannot corrupt the result.
        guesses: list[float] = []
        if warm_start is not None:
            if use_certificates:
                for candidate in warm_start.strategies:
                    arr = np.asarray(candidate, dtype=np.float64)
                    if arr.shape != (game.num_targets,) or not np.all(np.isfinite(arr)):
                        continue
                    arr = np.clip(arr, 0.0, 1.0)
                    over = float(arr.sum()) - game.num_resources
                    if over > _STEP_VALIDATION_TOL or (
                        equality_resources and abs(over) > _STEP_VALIDATION_TOL
                    ):
                        continue
                    if coverage_constraints is not None and not (
                        coverage_constraints.satisfied(arr, atol=_STEP_VALIDATION_TOL)
                    ):
                        continue
                    pool.append(skeleton.certificate(arr))
                if pool:
                    level = max(cert.guaranteed_level(lo, hi) for cert in pool)
                    if np.isfinite(level):
                        guesses.append(level)
            if warm_start.bracket is not None:
                prev_lb, prev_ub = warm_start.bracket
                for value in (float(prev_ub), float(prev_lb)):
                    if np.isfinite(value):
                        guesses.append(value)

        ladder: OracleLadder | None = None
        if resilience is not None:
            rung_oracles = tuple(
                make_milp_oracle(r.backend, validate=resilience.validate_steps)
                if r.oracle == "milp"
                else dp_oracle
                for r in resilience.rungs
            )
            ladder = OracleLadder(resilience, rung_oracles, SolveEventLog())
            base_oracle = ladder
        else:
            base_oracle = (
                make_milp_oracle(backend)
                if oracle == "milp"
                else dp_oracle
            )

        # Bookkeeping wrapper: tracks the step index and the live bracket so
        # a hard failure surfaces with enough context for production triage.
        state = {"step": 0, "lo": lo, "hi": hi}

        def step_oracle(c: float):
            state["step"] += 1
            try:
                feasible, payload = base_oracle(c)
            except (OracleStepError, LadderExhaustedError) as exc:
                raise type(exc)(
                    f"{exc} (binary-search step {state['step']}, bracket "
                    f"[{state['lo']:.6g}, {state['hi']:.6g}])"
                ) from exc
            if feasible:
                state["lo"] = max(state["lo"], c)
            else:
                state["hi"] = min(state["hi"], c)
            progress.publish(
                "solve",
                step=state["step"],
                bracket_lo=state["lo"], bracket_hi=state["hi"],
                bracket_width=state["hi"] - state["lo"],
            )
            return feasible, payload

        def certified_level(strategy) -> float:
            # The exact utility level a feasible step's strategy certifies —
            # lets the binary search jump its lower bound past intermediate
            # midpoints (sound: the level is proven by the strategy itself).
            return skeleton.certificate(strategy).guaranteed_level(lo, hi)

        timer = Timer()
        with timer:
            search = binary_search_max(
                step_oracle,
                lo,
                hi,
                tolerance=epsilon,
                max_iterations=max_iterations,
                initial_guesses=tuple(guesses),
                payload_bound=certified_level if use_certificates else None,
            )
            if search.payload is None:
                raise RuntimeError(
                    "CUBIS binary search found no feasible utility level; "
                    "the bottom of the utility range should always be "
                    "feasible — this indicates an inconsistent game or "
                    "uncertainty model"
                )
            if coverage_constraints is None:
                strategy = game.strategy_space.project(
                    np.asarray(search.payload)
                )
            else:
                # Projection onto sum(x) = R could violate the side
                # constraints; keep the MILP's (feasible) strategy,
                # clipped to the box.
                strategy = np.clip(np.asarray(search.payload), 0.0, 1.0)
            with telemetry.span("cubis.evaluate_worst_case"):
                worst = evaluate_worst_case(
                    game, uncertainty, strategy,
                    execution_alpha=execution_alpha,
                )

        milp_solves = int(milp_counter.value - counts_at_entry[0])
        lp_solves = int(lp_counter.value - counts_at_entry[1])
        cache_hits = int(hit_counter.value - counts_at_entry[2])
        session_fallbacks = int(fallback_counter.value - counts_at_entry[3])
        # A leased session carries lifetime counters from earlier games;
        # report only this solve's delta.
        session_patches = 0
        if milp_session is not None:
            session_patches = milp_session.patches_applied - patches_at_entry
            meter.counter("repro_session_patches").inc(session_patches)
        solve_span.set(
            iterations=search.iterations,
            converged=search.converged,
            milp_solves=milp_solves,
            lp_solves=lp_solves,
            cache_hits=cache_hits,
            session_patches=session_patches,
            worst_case_value=float(worst.value),
        )
        return CubisResult(
            strategy=strategy,
            worst_case_value=worst.value,
            worst_case=worst,
            lower_bound=search.lower,
            upper_bound=search.upper,
            epsilon=float(epsilon),
            num_segments=int(num_segments),
            iterations=search.iterations,
            trace=search.trace,
            solve_seconds=timer.elapsed,
            converged=search.converged,
            degraded=ladder.degraded if ladder is not None else False,
            resilience=ladder.report() if ladder is not None else None,
            milp_solves=milp_solves,
            lp_solves=lp_solves,
            cache_hits=cache_hits,
            session_patches=session_patches,
            session_fallbacks=session_fallbacks,
            guess_probes=search.guess_probes,
        )
