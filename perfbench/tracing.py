"""Timing shims around the program's layer boundaries, and span analysis.

The benchmark's traced run wraps the public functions of each layer at
runtime (nothing in ``src/`` changes).  Every wrapped call records one
span ``(id, layer, start, end, parent, operation, thread)`` in memory;
:meth:`Tracer.dump` writes them out when the run ends.

Where a module imported a function by name (``repro.core.cubis`` holds
its own reference to ``solve_milp``, ``repro.solvers.resolve`` to
``solve_cubis``, ...), the shim replaces that reference too: every
attribute of every loaded ``repro`` module that *is* the original
function object is swapped for the one wrapper, so a call through any
path runs exactly one shim.  Methods are wrapped on their class.

A layer's self time is its span's duration minus what its child spans
cover.  :func:`attribute` turns the spans of each operation into
per-layer self seconds that, together with ``unattributed``, add up to
the operation's wall time exactly.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from time import perf_counter

#: Layers, in the order the layer table prints them.
LAYERS = (
    "loadgen.late",
    "service.engine.admit",
    "service.engine.queue",
    "service.engine.worker",
    "service.requests.canonical",
    "service.requests.payload",
    "analysis.io",
    "solvers.resolve",
    "core.cubis",
    "resilience.policy",
    "solvers.session",
    "core.milp.skeleton",
    "core.milp.cert",
    "solvers.milp_backend.lp",
    "solvers.milp_backend.milp",
    "core.worst_case",
)


class OpTag:
    """The operation a span belongs to.  Service admission learns its
    key (the request hash) only when ``submit`` returns, so the tag is
    mutable and spans hold the tag, not the key."""

    __slots__ = ("key",)

    def __init__(self, key=None) -> None:
        self.key = key


class Tracer:
    """In-memory span recorder shared by every shim of one traced run."""

    def __init__(self) -> None:
        self.spans: list = []
        self.info: dict = {}  # span id -> dict recorded by a shim hook
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []
        self.queue_put: dict = {}  # id(job) -> time it entered the queue
        self.queue_size_max = 0

    # -- recording ------------------------------------------------------ #

    def set_op(self, tag):
        previous = getattr(self._local, "op", None)
        self._local.op = tag
        return previous

    def record(self, layer: str, start: float, end: float, tag) -> None:
        """A span with no thread stack (queue wait, generator lateness)."""
        self.spans.append((next(self._ids), layer, start, end, 0, tag, None))

    def wrap(self, layer, fn, hook=None):
        """Wrap ``fn`` so each call records a span.

        ``layer`` is a name or ``f(args, kwargs) -> name``; ``hook(args,
        kwargs, result)`` may return a dict kept in :attr:`info`.
        """
        local = self._local
        spans = self.spans
        ids = self._ids
        info = self.info

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            name = layer(args, kwargs) if callable(layer) else layer
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent,
                              getattr(local, "op", None),
                              threading.get_ident()))
            if hook is not None:
                extra = hook(args, kwargs, result)
                if extra is not None:
                    info[sid] = extra
            return result

        return shim

    # -- installing ----------------------------------------------------- #

    def patch_function(self, module, name: str, layer, hook=None) -> None:
        """Wrap ``module.name`` everywhere a loaded repro module holds it."""
        original = getattr(module, name)
        shim = self.wrap(layer, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, shim)

    def patch_method(self, cls, name: str, layer, hook=None, *,
                     around=None) -> None:
        """Wrap ``cls.name``.  ``around(args, call)``, when given, runs
        instead of the shim and must invoke ``call()`` itself; it sets
        the operation tag around a worker's job, for example."""
        original = cls.__dict__[name]
        shim = self.wrap(layer, original, hook)
        if around is not None:
            inner = shim

            @functools.wraps(original)
            def shim(*args, **kwargs):
                return around(args, lambda: inner(*args, **kwargs))

        self._patches.append((cls, name, original))
        setattr(cls, name, shim)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------- #

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for sid, layer, start, end, parent, tag, thread in self.spans:
                key = tag.key if isinstance(tag, OpTag) else tag
                fh.write(json.dumps({
                    "id": sid, "name": layer, "start": start, "end": end,
                    "parent": parent, "op": key, "thread": thread,
                }) + "\n")


def install(tracer: Tracer) -> None:
    """Install the shims for every layer the benchmark reports."""
    import repro
    import repro.analysis.io as io
    import repro.core.cubis as cubis
    import repro.core.milp as milp
    import repro.core.worst_case as worst_case
    import repro.resilience.policy as policy
    import repro.service.admission as admission
    import repro.service.engine as engine
    import repro.service.requests as requests
    import repro.solvers.milp_backend as milp_backend
    import repro.solvers.resolve as resolve
    import repro.solvers.session as session

    del repro  # imported so its re-exports are patched too

    def backend_layer(args, kwargs):
        problem = args[0] if args else kwargs["problem"]
        return ("solvers.milp_backend.lp" if problem.num_integer == 0
                else "solvers.milp_backend.milp")

    def cubis_hook(args, kwargs, result):
        warm = kwargs.get("warm_start")
        return {
            "iterations": result.iterations,
            "lp_solves": result.lp_solves,
            "milp_solves": result.milp_solves,
            "cache_hits": result.cache_hits,
            "session_patches": result.session_patches,
            "warm_bracket": warm is not None and warm.bracket is not None,
        }

    def resolve_hook(args, kwargs, outcome):
        return {
            "bracket_reused": outcome.bracket_reused,
            "warm_hit": outcome.warm_hit,
            "session_patches": outcome.session_patches,
        }

    def ladder_around(args, call):
        log = args[0].log
        before = len(log.events)
        result = call()
        events = log.events
        tracer.ladder.append((getattr(tracer._local, "op", None),
                              len(events) - before, events[-1].rung > 0))
        return result

    def run_job_around(args, call):
        job = args[1]
        start = perf_counter()
        previous = tracer.set_op(OpTag(job.request_id))
        try:
            put = tracer.queue_put.get(id(job))
            if put is not None:
                tracer.record("service.engine.queue", put, start,
                              OpTag(job.request_id))
            return call()
        finally:
            tracer.set_op(previous)

    def submit_around(args, call):
        tag = OpTag()
        previous = tracer.set_op(tag)
        try:
            ticket = call()
            tag.key = ticket.request_id
            return ticket
        finally:
            tracer.set_op(previous)
            size = args[0].queue_size
            if size > tracer.queue_size_max:
                tracer.queue_size_max = size

    def try_put_hook(args, kwargs, accepted):
        if accepted:
            tracer.queue_put[id(args[1])] = perf_counter()

    def named(fn_name):
        return lambda args, kwargs, result: {"fn": fn_name}

    # (operation, attempts, answered below the top rung) per ladder step
    tracer.ladder = []

    tracer.patch_function(milp_backend, "solve_milp", backend_layer)
    tracer.patch_function(cubis, "solve_cubis", "core.cubis", cubis_hook)
    tracer.patch_function(milp, "build_cubis_milp", "core.milp.skeleton")
    tracer.patch_function(worst_case, "evaluate_worst_case", "core.worst_case")
    tracer.patch_function(resolve, "start_resolve", "solvers.resolve")
    tracer.patch_function(resolve, "resolve", "solvers.resolve", resolve_hook)
    for name in ("canonicalize_request", "canonicalize_resolve_request",
                 "request_hash"):
        tracer.patch_function(requests, name, "service.requests.canonical")
    tracer.patch_function(requests, "solve_payload", "service.requests.payload")
    for name in ("game_to_dict", "game_from_dict", "uncertainty_to_dict",
                 "uncertainty_from_dict"):
        tracer.patch_function(io, name, "analysis.io")

    for name in ("__init__", "patch", "drift_patch", "rebind"):
        tracer.patch_method(milp.CubisMilpSkeleton, name, "core.milp.skeleton")
    for name in ("diff", "diff_from"):
        tracer.patch_method(milp.CubisMilpSkeleton, name, "core.milp.skeleton",
                            named(name))
    tracer.patch_method(milp.CubisMilpSkeleton, "certificate", "core.milp.cert")
    for name in ("g_bar", "guaranteed_level"):
        tracer.patch_method(milp.StrategyCertificate, name, "core.milp.cert")
    for name in ("prepare", "solve"):
        tracer.patch_method(session.MilpSession, name, "solvers.session")
    tracer.patch_method(policy.OracleLadder, "__call__", "resilience.policy",
                        around=ladder_around)
    for name in ("submit", "submit_resolve"):
        tracer.patch_method(engine.SolveEngine, name, "service.engine.admit",
                            around=submit_around)
    tracer.patch_method(engine.SolveEngine, "_run_job", "service.engine.worker",
                        around=run_job_around)
    tracer.patch_method(admission.BoundedQueue, "try_put",
                        "service.engine.admit", try_put_hook)


# -- analysis -------------------------------------------------------------- #


def _key(tag):
    return tag.key if isinstance(tag, OpTag) else tag


def self_pieces(spans) -> dict:
    """Span id -> list of ``(start, end)`` intervals of its self time."""
    children: dict = {}
    for span in spans:
        if span[4]:
            children.setdefault(span[4], []).append((span[2], span[3]))
    pieces = {}
    for sid, _layer, start, end, *_ in spans:
        cursor, out = start, []
        for c_start, c_end in sorted(children.get(sid, ())):
            if c_start > cursor:
                out.append((cursor, c_start))
            cursor = max(cursor, c_end)
        if end > cursor:
            out.append((cursor, end))
        pieces[sid] = out
    return pieces


def attribute(windows, spans, pieces) -> list:
    """Per-operation layer seconds that add up to each window exactly.

    ``windows`` is a list of ``(keys, start, end)``; each window collects
    the self-time pieces of the spans tagged with any of its keys,
    clipped to the window.  Pieces of one thread never overlap; where
    threads do (a coalesced request's own admission and its leader's
    solve), each instant goes to the most recently started piece.
    Returns one dict ``layer -> seconds`` per window, with
    ``"unattributed"`` the rest.
    """
    by_key: dict = {}
    for sid, layer, *_rest in spans:
        key = _key(_rest[3])
        if key is not None:
            by_key.setdefault(key, []).append((layer, sid))
    out = []
    for keys, w_start, w_end in windows:
        segs = []
        for key in keys:
            for layer, sid in by_key.get(key, ()):
                for a, b in pieces[sid]:
                    a, b = max(a, w_start), min(b, w_end)
                    if b > a:
                        segs.append((a, b, layer))
        totals = _sweep(segs)
        totals["unattributed"] = (w_end - w_start) - sum(totals.values())
        out.append(totals)
    return out


def _sweep(segs) -> dict:
    totals: dict = {}
    if not segs:
        return totals
    points = sorted({p for a, b, _ in segs for p in (a, b)})
    segs.sort()
    active: list = []
    nxt = 0
    for left, right in zip(points, points[1:]):
        while nxt < len(segs) and segs[nxt][0] <= left:
            active.append(segs[nxt])
            nxt += 1
        active = [s for s in active if s[1] > left]
        if active:
            layer = max(active)[2]  # the most recently started piece
            totals[layer] = totals.get(layer, 0.0) + (right - left)
    return totals


def _median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def layer_counts(tracer: Tracer, keys) -> dict:
    """Per-layer counts and busy seconds over the spans of ``keys``.

    Busy seconds are self seconds, so nested calls of one layer (a
    ``drift_patch`` that calls ``diff_from``) are not counted twice.
    Also returns the raw material of the cross-checks: LP/MILP calls per
    ``solve_cubis`` span, and patches, bracket reuse and warm hits per
    ``resolve`` call, all derived from the span tree.
    """
    keys = set(keys)
    spans = [s for s in tracer.spans if _key(s[5]) in keys]
    pieces = self_pieces(spans)
    layer_of = {s[0]: s[1] for s in spans}
    parent_of = {s[0]: s[4] for s in spans}
    calls: dict = {}
    busy: dict = {}
    for sid, layer, *_ in spans:
        calls[layer] = calls.get(layer, 0) + 1
        busy[layer] = busy.get(layer, 0.0) + sum(b - a for a, b in pieces[sid])

    def ancestor(sid, layer):
        sid = parent_of.get(sid, 0)
        while sid:
            if layer_of.get(sid) == layer:
                return sid
            sid = parent_of.get(sid, 0)
        return None

    solver_calls: dict = {}  # cubis span -> [lp, milp]
    resolve_patches: dict = {}  # resolve span -> patches under it
    session_patches = 0
    for sid, layer, *_ in spans:
        if layer in ("solvers.milp_backend.lp", "solvers.milp_backend.milp"):
            owner = ancestor(sid, "core.cubis")
            counts = solver_calls.setdefault(owner, [0, 0])
            counts[layer.endswith("milp")] += 1
        elif (tracer.info.get(sid, {}).get("fn") in ("diff", "diff_from")
              and layer_of.get(parent_of[sid]) == "solvers.session"):
            session_patches += 1
            owner = ancestor(sid, "solvers.resolve")
            if owner is not None:
                resolve_patches[owner] = resolve_patches.get(owner, 0) + 1

    cubis = [(sid, tracer.info[sid]) for sid, layer, *_ in spans
             if layer == "core.cubis"]
    resolves = []  # (bracket reused, warm hit, patches) per resolve() call
    for sid, info in cubis:
        owner = ancestor(sid, "solvers.resolve")
        if owner is None or owner not in tracer.info:  # start_resolve
            continue
        lp = solver_calls.get(sid, [0, 0])[0]
        resolves.append((info["warm_bracket"], info["iterations"] - lp > 0,
                         resolve_patches.get(owner, 0)))

    ladder = [(n, low) for tag, n, low in tracer.ladder if _key(tag) in keys]
    queue_waits = [s[3] - s[2] for s in spans
                   if s[1] == "service.engine.queue"]
    return {
        "spans": spans,
        "pieces": pieces,
        "calls": calls,
        "busy": busy,
        "solver_calls": solver_calls,
        "cubis": [info for _sid, info in cubis],
        "resolves": resolves,
        "session_patches": session_patches,
        "ladder": ladder,
        "queue_wait_p50": _median(queue_waits),
    }
