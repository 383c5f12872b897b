"""The benchmark's three workloads, driven only through the public API.

Every workload makes its instances from the workload seed alone
(``random_interval_game(T)`` with ``default_uncertainty``, the solver
defaults K=10 and epsilon=1e-3); the program receives only the generated
games.  Each returns a :class:`Run`: one :class:`Op` per timed call, the
answers to certify, and the set-up times.

* ``solve_t50`` — closed loop, one caller: distinct T=50 games through
  ``solve_cubis(game, uncertainty)`` with every argument at its default
  and no warm start shared between calls.
* ``resolve_ladder_t50`` — closed loop, one caller: per T=50 game one
  ``start_resolve`` and then a ``shrink_factors(10)`` ladder of
  ``BandScaledModel`` drifts through ``resolve``; one step is one
  operation.
* ``serve_mix_t10`` — open loop at a fixed offered rate against an
  in-process ``ServiceDaemon(SolveEngine())`` with the ``repro serve``
  engine defaults.  Requests carry default options (resilience on).
  Each request is timed from its due time.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from time import perf_counter, sleep

import numpy as np

import repro
from repro.analysis.io import game_to_dict, uncertainty_to_dict
from repro.behavior.interval import BandScaledModel
from repro.behavior.sampling import shrink_factors
from repro.experiments.quality import default_uncertainty
from repro.resilience import certify_result
from repro.service import ServiceClient, ServiceDaemon, SolveEngine
from repro.service.requests import result_from_payload
from repro.solvers import resolve as resolve_api

from perfbench.tracing import OpTag

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

LIBRARY_TARGETS = 50
#: Pool of distinct games per closed-loop run.  A run that gets through
#: the whole pool starts over at its first game.
SOLVE_POOL = 1000
RESOLVE_POOL = 200
LADDER_STEPS = 10

SERVICE_TARGETS = 10
#: Offered rate of the service mix, requests per second: 100 requests
#: in a 36 s run, about 60% of one core busy solving.
SERVICE_RATE = 2.8
#: One cycle of the service mix: 7 distinct solves, 3 duplicates and
#: 2 resolve steps.  ``dup_recent`` repeats the distinct request sent one
#: slot before (usually still in flight, so it coalesces); ``dup_old``
#: repeats an older one (usually answered from the response cache).
#: Distinct solves are a fixed majority of every run, so the mix's median
#: latency falls inside their cluster, not on the edge between classes.
SERVICE_CYCLE = ("solve", "dup_recent", "solve", "resolve", "solve",
                 "solve", "dup_old", "solve", "resolve", "solve",
                 "dup_old", "solve")
#: Shrink steps after the standing start on one service resolve game.
SERVICE_LADDER_STEPS = 8

#: Latency limit of goodput, seconds, per workload.
LATENCY_LIMIT = {
    "solve_t50": 1.0,
    "resolve_ladder_t50": 0.5,
    "serve_mix_t10": 2.0,
}


@dataclass
class Op:
    """One timed call.  ``keys`` name the spans that belong to it."""

    kind: str
    start: float
    end: float
    keys: tuple
    game: object = None
    uncertainty: object = None
    result: object = None  # a CubisResult or a result_from_payload view
    error: str | None = None
    late: float = 0.0  # open loop: send time minus due time
    payload: dict | None = None  # service: the decoded response body
    outcome: object = None  # resolve step: the ResolveOutcome

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass
class Run:
    ops: list = field(default_factory=list)  # the workload's operations
    extra: list = field(default_factory=list)  # timed calls that are not ops
    setup_s: list = field(default_factory=list)
    begin: float = 0.0  # when measuring started
    wall: float = 0.0  # how long it lasted
    plan: object = None  # what a replay needs to repeat this run exactly
    service_counters: dict | None = None
    queue_size_max: int = 0


#: Seed of the warm-up instance, the same in every run so that set-up
#: time does not vary with the workload seed.
WARMUP_SEED = 0


def instances(seed: int, stream: int, count: int, targets: int) -> list:
    """``count`` (game, default uncertainty) pairs from ``(seed, stream)``."""
    state = np.random.SeedSequence([seed, stream]).generate_state(count)
    out = []
    for game_seed in state:
        game = repro.random_interval_game(targets, seed=int(game_seed))
        out.append((game, default_uncertainty(game.payoffs)))
    return out


def _tagged(tracer, key, call):
    if tracer is None:
        return call()
    previous = tracer.set_op(OpTag(key))
    try:
        return call()
    finally:
        tracer.set_op(previous)


def _timed(tracer, key, call):
    """Run ``call`` as one operation; returns ``(start, end, result, error)``."""
    start = perf_counter()
    try:
        result = _tagged(tracer, key, call)
        error = None
    except Exception as exc:  # noqa: BLE001 — a failed op is counted, not fatal
        result, error = None, f"{type(exc).__name__}: {exc}"
    return start, perf_counter(), result, error


def repeat_setup(make) -> tuple:
    """Run ``make`` :data:`SETUP_REPEATS` times; ``(last state, times)``."""
    times, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None and hasattr(state, "close"):
            state.close()
        start = perf_counter()
        state = make()
        times.append(perf_counter() - start)
    return state, times


# -- solve_t50 ---------------------------------------------------------- #


def setup_solve(seed: int):
    pool = instances(seed, 1, SOLVE_POOL, LIBRARY_TARGETS)
    game, uncertainty = instances(WARMUP_SEED, 0, 1, LIBRARY_TARGETS)[0]
    repro.solve_cubis(game, uncertainty)
    return pool


def run_solve(pool, *, seconds=None, plan=None, tracer=None) -> Run:
    run = Run()
    count = plan
    begin = perf_counter()
    i = 0
    while (i < count) if count is not None else (perf_counter() - begin < seconds):
        game, uncertainty = pool[i % len(pool)]
        start, end, result, error = _timed(
            tracer, i, lambda: repro.solve_cubis(game, uncertainty))
        run.ops.append(Op("solve", start, end, (i,), game, uncertainty,
                          result, error))
        i += 1
    run.begin, run.wall = begin, perf_counter() - begin
    run.plan = i
    return run


# -- resolve_ladder_t50 ------------------------------------------------- #


def setup_resolve(seed: int):
    pool = instances(seed, 2, RESOLVE_POOL, LIBRARY_TARGETS)
    game, uncertainty = instances(WARMUP_SEED, 0, 1, LIBRARY_TARGETS)[0]
    handle = resolve_api.start_resolve(game, uncertainty)
    resolve_api.resolve(handle, BandScaledModel(uncertainty, 0.9))
    return pool


def run_resolve(pool, *, seconds=None, plan=None, tracer=None) -> Run:
    """Ladders over the pool; ``plan`` is the steps done per game."""
    run = Run()
    factors = shrink_factors(LADDER_STEPS)
    done: list = []
    begin = perf_counter()

    def more(j, k):
        if plan is not None:
            return j < len(plan) and (k is None or k < plan[j])
        return perf_counter() - begin < seconds

    j = 0
    while more(j, None):
        game, uncertainty = pool[j % len(pool)]
        start, end, handle, error = _timed(
            tracer, ("start", j),
            lambda: resolve_api.start_resolve(game, uncertainty))
        run.extra.append(Op("start", start, end, (("start", j),), game,
                            uncertainty, handle and handle.result, error))
        k = 0
        while handle is not None and k < len(factors) and more(j, k):
            drifted = BandScaledModel(uncertainty, float(factors[k]))
            start, end, outcome, error = _timed(
                tracer, ("step", j, k),
                lambda: resolve_api.resolve(handle, drifted))
            run.ops.append(Op("step", start, end, (("step", j, k),), game,
                              drifted, outcome and outcome.result, error,
                              outcome=outcome))
            k += 1
        done.append(k)
        j += 1
    run.begin, run.wall = begin, perf_counter() - begin
    run.plan = done
    return run


# -- serve_mix_t10 ------------------------------------------------------ #


@dataclass
class Request:
    kind: str
    due: float
    path: str
    body: bytes
    game: object
    uncertainty: object


def service_schedule(seed: int, count: int) -> list:
    """The first ``count`` requests of the service mix for ``seed``."""
    rng = np.random.default_rng([seed, 3])
    kinds = [SERVICE_CYCLE[i % len(SERVICE_CYCLE)] for i in range(count)]
    distinct = instances(seed, 3, kinds.count("solve"), SERVICE_TARGETS)
    standing = instances(seed, 4, 1 + kinds.count("resolve")
                         // (SERVICE_LADDER_STEPS + 1), SERVICE_TARGETS)
    ladder = [1.0] + [float(f) for f in shrink_factors(SERVICE_LADDER_STEPS)]
    sent: list = []  # distinct requests so far, oldest first
    schedule = []
    resolves = 0
    for i, kind in enumerate(kinds):
        due = i / SERVICE_RATE
        if kind == "solve":
            game, uncertainty = distinct[len(sent)]
            body = json.dumps({"game": game_to_dict(game)}).encode()
            request = Request("solve", due, "/v1/solve", body, game,
                              uncertainty)
            sent.append(request)
        elif kind.startswith("dup"):
            if kind == "dup_recent" or len(sent) < 3:
                target = sent[-1]
            else:
                target = sent[int(rng.integers(0, len(sent) - 2))]
            request = Request("dup", due, "/v1/solve", target.body,
                              target.game, target.uncertainty)
        else:
            game, base = standing[resolves // len(ladder)]
            factor = ladder[resolves % len(ladder)]
            uncertainty = base if factor == 1.0 else BandScaledModel(base, factor)
            body = json.dumps({
                "game": game_to_dict(game),
                "uncertainty": uncertainty_to_dict(uncertainty),
            }).encode()
            request = Request("resolve", due, "/v1/resolve", body, game,
                              uncertainty)
            resolves += 1
        schedule.append(request)
    return schedule


class ServiceState:
    """A booted daemon plus the schedule it will be driven with."""

    def __init__(self, seed: int, count: int) -> None:
        self.schedule = service_schedule(seed, count)
        game, uncertainty = instances(WARMUP_SEED, 0, 1, SERVICE_TARGETS)[0]
        self.daemon = ServiceDaemon(SolveEngine()).start()
        self.client = ServiceClient(self.daemon.url, timeout=120.0)
        try:
            self.client.solve(game_to_dict(game))
            self.client.resolve(game_to_dict(game),
                                uncertainty=uncertainty_to_dict(uncertainty))
        except BaseException:
            self.daemon.stop()
            raise

    def counters(self) -> dict:
        """The daemon's own ``/metrics`` counters, summed over labels."""
        out: dict = {}
        for line in self.client.metrics_text().splitlines():
            if not line.startswith("repro_service_") or " " not in line:
                continue
            name, value = line.rsplit(" ", 1)
            if "{" in name:
                base, labels = name.split("{", 1)
                if base == "repro_service_requests_total":
                    name = base + ":" + labels.split('"')[1]
                else:
                    name = base
            out[name] = out.get(name, 0.0) + float(value)
        return out

    def close(self) -> None:
        self.daemon.stop()


def run_service(state: ServiceState, *, tracer=None) -> Run:
    """Send the whole schedule open loop; each request timed from its due
    time.  No more sender threads (each with one connection) than cores."""
    run = Run()
    schedule = state.schedule
    before = state.counters()
    if tracer is not None:
        tracer.queue_size_max = 0
    records: list = [None] * len(schedule)
    lock = threading.Lock()
    cursor = [0]
    zero = perf_counter() + 0.05

    def sender() -> None:
        client = ServiceClient(state.daemon.url, timeout=120.0)
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(schedule):
                return
            request = schedule[i]
            due = zero + request.due
            delay = due - perf_counter()
            if delay > 0:
                sleep(delay)
            sent = perf_counter()
            try:
                status, _headers, body = client.request(
                    "POST", request.path, request.body)
            except OSError as exc:
                status, body = None, str(exc).encode()
            records[i] = (due, sent, perf_counter(), status, body)

    senders = max(1, min(2, len(os.sched_getaffinity(0))))
    threads = [threading.Thread(target=sender) for _ in range(senders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    run.begin = zero
    run.wall = max(r[2] for r in records) - zero
    for i, (request, (due, sent, done, status, body)) in enumerate(
            zip(schedule, records)):
        op = Op(request.kind, due, done, (("late", i),), request.game,
                request.uncertainty, late=sent - due)
        if status == 200:
            payload = json.loads(body)
            op.payload = payload
            op.keys += (payload["request_id"],)
            op.result = result_from_payload(payload)
        else:
            op.error = f"HTTP {status}: {body[:200]!r}"
        if tracer is not None:
            tracer.record("loadgen.late", due, sent, OpTag(("late", i)))
        run.ops.append(op)
    after = state.counters()
    run.service_counters = {k: after.get(k, 0.0) - before.get(k, 0.0)
                            for k in set(after) | set(before)}
    if tracer is not None:
        run.queue_size_max = tracer.queue_size_max
    return run


# -- certification ------------------------------------------------------ #


def certify(ops) -> list:
    """Certify every answer against its own game and uncertainty, outside
    any timed region.  Returns the ops whose answer failed (errors too)."""
    failed = []
    for op in ops:
        if op.error is not None or op.result is None:
            failed.append(op)
            continue
        certificate = certify_result(op.game, op.uncertainty, op.result)
        if not certificate.valid:
            op.error = "certificate failed: " + ", ".join(certificate.failures())
            failed.append(op)
    return failed
