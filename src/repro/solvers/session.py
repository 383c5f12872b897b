"""Persistent incremental MILP sessions for the CUBIS oracle.

A cold CUBIS run pays ``O(log(1/eps))`` MILP solves per game, and every
solve used to re-assemble the model — template copies plus a CSR
construction — even though only the ``c``-dependent coefficients change
between binary-search steps.  :class:`MilpSession` keeps **one live
model** for the whole search: the first candidate builds it via
:meth:`~repro.core.milp.CubisMilpSkeleton.patch`, every later candidate
applies the sparse :class:`~repro.core.milp.SkeletonPatch` from
:meth:`~repro.core.milp.CubisMilpSkeleton.diff` *in place* — writing
straight into the live CSR ``data`` array through the skeleton's
``entry_data_slots`` permutation.  Patched and freshly built models are
bit-identical (property-tested), so the session changes nothing about
the answers, only what they cost.

The previous step's optimal solution is carried as an incumbent and
forwarded to backends that accept a MIP start (the pure-Python ``bnb``
backend; ``scipy.optimize.milp`` exposes no warm-start hook, so the
HiGHS path ignores it — see :func:`~repro.solvers.milp_backend.solve_milp`).

Failure semantics: a session never owns correctness.  When a step
fails the caller calls :meth:`MilpSession.invalidate`; the next
:meth:`prepare` rebuilds the live model from the skeleton templates
(which in-place patching never touches), so one corrupted solve cannot
poison the rest of the search.  :mod:`repro.core.cubis` re-solves the
step once from that fresh build (with a ``resilience.attempt``
telemetry event) or, under a resilience ladder, lets the ladder decide;
every ladder rung shares the one session, passing its own backend to
:meth:`~MilpSession.solve`.

A session is not married to one game: :meth:`MilpSession.retarget`
points it at a structure-sharing sibling skeleton (see
:meth:`~repro.core.milp.CubisMilpSkeleton.rebind`), and the next
:meth:`~MilpSession.prepare` carries the live model *across the game
boundary* with one cross-skeleton sparse patch
(:meth:`~repro.core.milp.CubisMilpSkeleton.diff_from`) instead of a
rebuild — the mechanism the fleet solver (:mod:`repro.solvers.fleet`)
leases sessions through.
"""

from __future__ import annotations

from repro import telemetry
from repro.solvers.milp_backend import MILPResult, solve_milp

__all__ = ["MilpSession"]


class MilpSession:
    """One live CUBIS MILP, re-coefficiented in place per candidate.

    Parameters
    ----------
    skeleton:
        The :class:`~repro.core.milp.CubisMilpSkeleton` of the game.
    backend:
        Default MILP backend name or callable, forwarded to
        :func:`~repro.solvers.milp_backend.solve_milp` (a
        :meth:`solve` call may override it).
    carry_incumbent:
        Keep the incumbent across :meth:`retarget` boundaries, seeding
        the *next game's* first solve with the previous game's optimum —
        the fleet solver's δ-continuation MIP start.  Off by default
        (an incumbent from another game is only advisory; backends
        re-validate it, so correctness never depends on this flag).

    Attributes
    ----------
    fresh_builds, patches_applied, solves:
        Lifetime counters: full template builds, in-place sparse
        patches, and backend solves performed through this session.
    fallbacks:
        Times the owning caller reported a failed solve via
        :meth:`invalidate` after at least one successful prepare.
    retargets:
        Times the session was pointed at a different skeleton.
    """

    def __init__(
        self,
        skeleton,
        *,
        backend="highs",
        carry_incumbent: bool = False,
    ) -> None:
        self.skeleton = skeleton
        self.backend = backend
        self.carry_incumbent = bool(carry_incumbent)
        self._model = None
        self._c: float | None = None
        self._incumbent = None
        self._base_skeleton = None
        self.fresh_builds = 0
        self.patches_applied = 0
        self.solves = 0
        self.fallbacks = 0
        self.retargets = 0
        self.last_patch_updates: int | None = None

    @property
    def live(self) -> bool:
        """Whether a model is currently held (next prepare patches it)."""
        return self._model is not None

    @property
    def model(self):
        """The currently prepared :class:`~repro.core.milp.CubisMilp`."""
        return self._model

    def invalidate(self) -> None:
        """Drop the live model (and incumbent); the next
        :meth:`prepare` rebuilds from the skeleton templates.  Callers
        invoke this after a backend failure so a possibly-corrupted
        in-place state cannot carry into later steps."""
        if self._model is not None:
            self.fallbacks += 1
        self._model = None
        self._c = None
        self._incumbent = None
        self._base_skeleton = None

    def retarget(self, skeleton) -> None:
        """Point the session at ``skeleton`` — typically another game's.

        When the new skeleton shares the live model's structure (a
        :meth:`~repro.core.milp.CubisMilpSkeleton.rebind` sibling), the
        model is *kept*: the next :meth:`prepare` applies one sparse
        cross-skeleton patch
        (:meth:`~repro.core.milp.CubisMilpSkeleton.diff_from`) that
        carries it to the new game, bit-identical to a fresh build.  A
        structurally different skeleton (or no live model) simply makes
        the next prepare a fresh build.  The incumbent is dropped unless
        the session was created with ``carry_incumbent=True``.
        """
        if skeleton is self.skeleton:
            return
        if self._model is not None:
            # diff_from must tabulate the old blocks from the skeleton the
            # live model was last prepared with; across chained retargets
            # without an intervening prepare that stays the original base.
            base = self._base_skeleton if self._base_skeleton is not None \
                else self.skeleton
            if base is not None and skeleton.shares_structure(base):
                self._base_skeleton = base
            else:
                self._model = None
                self._c = None
                self._base_skeleton = None
        if not self.carry_incumbent:
            self._incumbent = None
        self.skeleton = skeleton
        self.retargets += 1

    def prepare(self, c: float):
        """Point the live model at candidate ``c`` and return it.

        First call (or first after :meth:`invalidate`): a full
        :meth:`~repro.core.milp.CubisMilpSkeleton.patch` build.  Later
        calls apply the sparse diff in place — the CSR structure, bound
        and integrality arrays are reused, only changed values are
        written.  The first prepare after a structure-sharing
        :meth:`retarget` diffs *across the game boundary* instead
        (``diff_from`` against the previous game's skeleton), still in
        place and still bit-identical to a fresh build.  Each call is
        traced as a ``milp.patch`` span carrying the candidate and the
        write count.
        """
        if self.skeleton is None:
            raise RuntimeError(
                "MilpSession has no skeleton; retarget() one before prepare()"
            )
        c = float(c)
        with telemetry.span("milp.patch", c=c, live=self.live) as span:
            if self._model is None:
                model = self.skeleton.patch(c)
                self.fresh_builds += 1
                self.last_patch_updates = None
                span.set(mode="fresh-build")
            elif c == self._c and self._base_skeleton is None:
                model = self._model
                self.last_patch_updates = 0
                span.set(mode="noop", updates=0)
            else:
                base = self._base_skeleton
                patch = (
                    self.skeleton.diff_from(base, self._c, c)
                    if base is not None
                    else self.skeleton.diff(self._c, c)
                )
                problem = self._model.problem
                slots = self.skeleton.entry_data_slots
                problem.A_ub.data[slots[patch.vals_index]] = patch.vals
                problem.b_ub[patch.rhs_index] = patch.rhs
                problem.c[patch.cost_index] = patch.cost
                problem.ub[patch.ub_index] = patch.ub
                model = type(self._model)(
                    problem=problem,
                    layout=self._model.layout,
                    grid=self._model.grid,
                    f1_constant=patch.f1_constant,
                    c=c,
                )
                self.patches_applied += 1
                self.last_patch_updates = patch.num_updates
                span.set(
                    mode="retarget-patch" if base is not None else "patch",
                    updates=patch.num_updates,
                )
        self._model = model
        self._c = c
        self._base_skeleton = None
        return model

    def solve(self, *, backend=None, **backend_options) -> MILPResult:
        """Solve the currently prepared model with ``backend`` (default:
        the session's).

        The previous step's optimum rides along as ``warm_start`` (the
        backend decides whether it can use it); an optimal result
        becomes the next incumbent.
        """
        if self._model is None:
            raise RuntimeError("MilpSession.solve() requires a prepared model; "
                               "call prepare(c) first")
        if self._incumbent is not None:
            backend_options.setdefault("warm_start", self._incumbent)
        result = solve_milp(
            self._model.problem,
            backend=self.backend if backend is None else backend,
            **backend_options,
        )
        self.solves += 1
        if result.optimal:
            self._incumbent = result.x
        return result

    def stats(self) -> dict:
        """JSON-ready lifetime counters for manifests and benchmarks."""
        return {
            "fresh_builds": int(self.fresh_builds),
            "patches_applied": int(self.patches_applied),
            "solves": int(self.solves),
            "fallbacks": int(self.fallbacks),
            "retargets": int(self.retargets),
        }

