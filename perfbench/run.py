"""Repo benchmark: default-path solve, drift re-solve ladder, service mix.

Run from the root of a checkout::

    python3 perfbench/run.py --workload solve_t50 --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` measures half the time untraced, then replays exactly the
same operations with timing shims installed (see ``tracing.py``) and
reports the per-layer metrics, the layer table and the tracing overhead.
Spans are written to ``perfbench/out/``.

Every answer is certified with ``repro.resilience.certify_result``
outside the timed region.  The human-readable report goes first; the
last line of standard output is one JSON object.  The exit code is 1
when an answer fails certification or a shim count disagrees with the
program's own counters, and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("solve_t50", "resolve_ladder_t50", "serve_mix_t10")
#: Closed-loop throughput is the median over this many equal time slices
#: of the run, so a few seconds of a slow shared host do not move it.
SLICES = 6


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else float("nan")


def _median(values) -> float:
    return _percentile(values, 50)


def _worst_case_mean(ops) -> float:
    """Mean exact worst-case defender utility of the answers, measured
    from each game's utility floor ``min_i P_i^d`` so it stays positive."""
    values = [op.result.worst_case_value - op.game.utility_range()[0]
              for op in ops if op.error is None]
    return sum(values) / len(values) if values else float("nan")


def _rate(ops, begin: float, wall: float, closed: bool) -> float:
    """Operations per second: for a closed loop the median over
    :data:`SLICES` equal slices of the run; for an open loop, whose
    schedule fixes the offered rate, over the whole measured span."""
    if not closed:
        return len(ops) / wall
    width = wall / SLICES
    counts = [0] * SLICES
    for op in ops:
        counts[min(SLICES - 1, int((op.end - begin) / width))] += 1
    return _median(counts) / width


def end_to_end(workload: str, run, limit: float) -> tuple[dict, dict]:
    """``(metrics, report)``: the gated end-to-end metrics, and the wider
    set the report prints (tail and per-class latencies, fail share,
    counts)."""
    ops = run.ops
    ok = [op for op in ops if op.error is None]
    latencies = [op.latency for op in ops]
    closed = workload != "serve_mix_t10"
    if workload == "solve_t50":
        cold = latencies
    elif workload == "resolve_ladder_t50":
        cold = [op.latency for op in run.extra]
    else:
        cold = [op.latency for op in ops if op.kind == "solve"]
    # Each game once: the service's duplicates and its two standing
    # resolve games would otherwise weigh a few games many times.
    distinct = ok if closed else [op for op in ok if op.kind == "solve"]
    answers = ops + run.extra
    failed = sum(op.error is not None for op in answers)
    metrics = {
        "setup_s": (_median(run.setup_s), "s"),
        "ops_per_s": (_rate(ok, run.begin, run.wall, closed), "1/s"),
        "goodput_per_s": (_rate([op for op in ok if op.latency <= limit],
                                run.begin, run.wall, closed), "1/s"),
        "cold_p50_s": (_median(cold), "s"),
        "worst_case_mean": (_worst_case_mean(distinct), "utility"),
    }
    report = dict(metrics)
    report["latency_p50_s"] = (_percentile(latencies, 50), "s")
    report["latency_p90_s"] = (_percentile(latencies, 90), "s")
    report["fail_share"] = (failed / len(answers), "share")
    report["operations"] = (len(ops), "count")
    if workload == "resolve_ladder_t50":
        report["start_p50_s"] = metrics["cold_p50_s"]
        report["starts"] = (len(run.extra), "count")
    if workload == "serve_mix_t10":
        by_kind = {kind: [op.latency for op in ops if op.kind == kind]
                   for kind in ("solve", "dup", "resolve")}
        report["solve_p50_s"] = (_percentile(by_kind["solve"], 50), "s")
        report["solve_p90_s"] = (_percentile(by_kind["solve"], 90), "s")
        report["dup_p50_s"] = (_percentile(by_kind["dup"], 50), "s")
        report["resolve_p50_s"] = (_percentile(by_kind["resolve"], 50), "s")
        report["late_p90_s"] = (_percentile([op.late for op in ops], 90), "s")
        for kind, values in by_kind.items():
            report[f"{kind}_requests"] = (len(values), "count")
    return metrics, report


def _format(title: str, rows: dict) -> list[str]:
    lines = [title]
    for name, (value, unit) in rows.items():
        lines.append(f"  {name:<34} {value:>14.6g} {unit}")
    return lines


def measure(workload: str, seed: int, seconds: float):
    from perfbench import workloads as wl

    if workload == "serve_mix_t10":
        count = max(1, int(seconds * wl.SERVICE_RATE))
        state, setup = wl.repeat_setup(lambda: wl.ServiceState(seed, count))
        try:
            run = wl.run_service(state)
        finally:
            state.close()
    else:
        setup_fn, run_fn = _library(workload)
        pool, setup = wl.repeat_setup(lambda: setup_fn(seed))
        run = run_fn(pool, seconds=seconds)
    run.setup_s = setup
    failed = wl.certify(run.ops + run.extra)
    return run, failed


def _library(workload: str):
    from perfbench import workloads as wl

    if workload == "solve_t50":
        return wl.setup_solve, wl.run_solve
    return wl.setup_resolve, wl.run_resolve


def traced(workload: str, seed: int, seconds: float):
    """Untraced half, then a traced replay of the same operations."""
    from perfbench import tracing
    from perfbench import workloads as wl

    half = seconds / 2.0
    tracer = tracing.Tracer()
    if workload == "serve_mix_t10":
        count = max(1, int(half * wl.SERVICE_RATE))
        start = perf_counter()
        state = wl.ServiceState(seed, count)
        setup = [perf_counter() - start]
        try:
            base = wl.run_service(state)
        finally:
            state.close()
        tracing.install(tracer)
        try:
            state = wl.ServiceState(seed, count)
            try:
                run = wl.run_service(state, tracer=tracer)
            finally:
                state.close()
        finally:
            tracer.uninstall()
    else:
        setup_fn, run_fn = _library(workload)
        start = perf_counter()
        pool = setup_fn(seed)
        setup = [perf_counter() - start]
        base = run_fn(pool, seconds=half)
        tracing.install(tracer)
        try:
            run = run_fn(pool, plan=base.plan, tracer=tracer)
        finally:
            tracer.uninstall()
    base.setup_s = setup
    failed = wl.certify(run.ops + run.extra)
    return base, run, tracer, failed


def per_layer(workload: str, base, run, tracer) -> tuple[dict, list, list]:
    """``(metrics, table lines, cross-check mismatches)``."""
    from perfbench import tracing

    timed = run.ops + run.extra
    windows = [(op.keys, op.start, op.end) for op in timed]
    keys = {key for op in timed for key in op.keys}
    counts = tracing.layer_counts(tracer, keys)
    shares = tracing.attribute(windows, counts["spans"], counts["pieces"])
    wall = sum(op.latency for op in timed)
    totals: dict = {}
    for share in shares:
        for layer, seconds in share.items():
            totals[layer] = totals.get(layer, 0.0) + seconds
    table = [f"layer table ({len(timed)} timed calls, wall {wall:.4f} s)"]
    for layer in tracing.LAYERS + ("unattributed",):
        if layer in totals:
            table.append(f"  {layer:<30} {totals[layer]:>10.4f} s "
                         f"{totals[layer] / wall:>7.1%}")
    table.append(f"  {'sum':<30} {sum(totals.values()):>10.4f} s")

    calls, busy = counts["calls"], counts["busy"]
    cubis = counts["cubis"]
    oracle = sum(info["iterations"] for info in cubis)
    resolves = counts["resolves"]
    ladder = counts["ladder"]
    service = run.service_counters or {}
    requests = (service.get("repro_service_requests_total:/v1/solve", 0.0)
                + service.get("repro_service_requests_total:/v1/resolve", 0.0))
    base_wall = sum(op.latency for op in base.ops + base.extra)

    def share(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {
        "solvers.milp_backend.lp_calls": calls.get("solvers.milp_backend.lp", 0),
        "solvers.milp_backend.lp_busy_s": busy.get("solvers.milp_backend.lp", 0.0),
        "solvers.milp_backend.milp_calls":
            calls.get("solvers.milp_backend.milp", 0),
        "solvers.milp_backend.milp_busy_s":
            busy.get("solvers.milp_backend.milp", 0.0),
        "core.cubis.self_s": busy.get("core.cubis", 0.0),
        "core.cubis.oracle_calls": oracle,
        "core.cubis.milp_share":
            share(sum(i["milp_solves"] for i in cubis), oracle),
        "core.cubis.cert_hit_share":
            share(sum(i["cache_hits"] for i in cubis), oracle),
        "core.milp.skeleton_calls": calls.get("core.milp.skeleton", 0),
        "core.milp.skeleton_busy_s": busy.get("core.milp.skeleton", 0.0),
        "core.milp.cert_checks": calls.get("core.milp.cert", 0),
        "core.milp.cert_busy_s": busy.get("core.milp.cert", 0.0),
        "core.worst_case.calls": calls.get("core.worst_case", 0),
        "core.worst_case.busy_s": busy.get("core.worst_case", 0.0),
        "solvers.session.patches": counts["session_patches"],
        "solvers.resolve.self_s": busy.get("solvers.resolve", 0.0),
        "solvers.resolve.bracket_reuse_share":
            share(sum(r[0] for r in resolves), len(resolves)),
        "solvers.resolve.warm_hit_share":
            share(sum(r[1] for r in resolves), len(resolves)),
        "solvers.resolve.patches": sum(r[2] for r in resolves),
        "resilience.policy.attempts": sum(n for n, _low in ladder),
        "resilience.policy.degraded_share":
            share(sum(low for _n, low in ladder), len(ladder)),
        "service.requests.canonical_busy_s":
            busy.get("service.requests.canonical", 0.0),
        "service.requests.payload_busy_s":
            busy.get("service.requests.payload", 0.0),
        "service.engine.queue_wait_p50_s": counts["queue_wait_p50"],
        "service.engine.queue_depth_max": run.queue_size_max,
        "service.engine.coalesced_share":
            share(service.get("repro_service_coalesced_total", 0.0), requests),
        "service.engine.cache_hit_share":
            share(service.get("repro_service_cache_hits_total", 0.0), requests),
        "service.engine.warm_hit_share":
            share(service.get("repro_service_warm_hits_total", 0.0), requests),
        "service.engine.rejected_share":
            share(service.get("repro_service_rejected_total", 0.0), requests),
        "analysis.io.busy_s": busy.get("analysis.io", 0.0),
        "loadgen.late_p90_s":
            _percentile([op.late for op in run.ops], 90),
        "trace.overhead_share": share(wall, base_wall) - 1.0,
        "trace.unattributed_share": share(totals.get("unattributed", 0.0), wall),
    }
    return metrics, table, cross_check(workload, run, counts)


def cross_check(workload: str, run, counts) -> list[str]:
    """Shim counts against the program's own counters; mismatches."""
    answers = [op for op in run.ops + run.extra if op.error is None]
    shim_lp = sum(v[0] for v in counts["solver_calls"].values())
    shim_milp = sum(v[1] for v in counts["solver_calls"].values())
    if workload == "serve_mix_t10":
        jobs = {op.payload["request_id"]: op.payload for op in answers}
        program_lp = sum(p["lp_solves"] for p in jobs.values())
        program_milp = sum(p["milp_solves"] for p in jobs.values())
    else:
        program_lp = sum(op.result.lp_solves for op in answers)
        program_milp = sum(op.result.milp_solves for op in answers)
    checks = [("lp calls", shim_lp, program_lp),
              ("milp calls", shim_milp, program_milp)]
    if workload == "solve_t50":
        checks.append(("session patches", counts["session_patches"],
                       sum(op.result.session_patches for op in answers)))
    if workload == "resolve_ladder_t50":
        outcomes = [op.outcome for op in run.ops if op.error is None]
        resolves = counts["resolves"]
        checks += [
            ("resolve calls", len(resolves), len(outcomes)),
            ("bracket reuses", sum(r[0] for r in resolves),
             sum(o.bracket_reused for o in outcomes)),
            ("warm hits", sum(r[1] for r in resolves),
             sum(o.warm_hit for o in outcomes)),
            ("resolve patches", sum(r[2] for r in resolves),
             sum(o.session_patches for o in outcomes)),
        ]
    return [f"{name}: shims {shim} != program {program}"
            for name, shim, program in checks if shim != program]


def report_workload(workload: str, seed: int, seconds: float,
                    trace: bool) -> tuple[list, bool]:
    """Measure one workload; ``(report lines ending in the JSON line,
    whether every answer certified and every cross-check held)``."""
    from perfbench.workloads import LATENCY_LIMIT

    limit = LATENCY_LIMIT[workload]
    lines = [f"workload {workload} seed {seed} seconds {seconds:g} "
             f"trace {int(trace)}"]
    mismatches: list = []
    if trace:
        base, run, tracer, failed = traced(workload, seed, seconds)
        _metrics, report = end_to_end(workload, base, limit)
        lines += _format("end-to-end (untraced half)", report)
        layer_metrics, table, mismatches = per_layer(workload, base, run,
                                                     tracer)
        lines += table
        lines += _format("per-layer (traced replay)",
                         {k: (v, "") for k, v in layer_metrics.items()})
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
        tracer.dump(spans_path)
        lines.append(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        units = _per_layer_units()
        metrics = {name: {"value": float(value), "unit": units[name]}
                   for name, value in layer_metrics.items()}
    else:
        run, failed = measure(workload, seed, seconds)
        gated, report = end_to_end(workload, run, limit)
        lines += _format("end-to-end", report)
        metrics = {name: {"value": float(value), "unit": unit}
                   for name, (value, unit) in gated.items()}
    for op in failed:
        lines.append(f"FAILED {op.kind} {op.keys[0]}: {op.error}")
    for mismatch in mismatches:
        lines.append(f"CROSS-CHECK MISMATCH {mismatch}")
    correct = not failed and not mismatches
    lines.append(json.dumps({
        "correct": correct,
        "attempted": len(run.ops + run.extra),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return lines, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"benchmark: no program sources at {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2

    # The HiGHS library prints to file descriptor 1 from native code.
    # Point descriptor 1 at stderr for the whole run and write the report
    # to a private copy of the real stdout, so the JSON line stays last.
    sys.stdout.flush()
    stdout_fd = os.dup(1)
    os.dup2(2, 1)
    sys.path[:0] = [SRC, ROOT]

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct = True
    for workload in workloads:
        lines, correct = report_workload(workload, args.seed, args.seconds,
                                         bool(args.trace))
        os.write(stdout_fd, ("\n".join(lines) + "\n").encode())
        all_correct = all_correct and correct
    return 0 if all_correct else 1


def _per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {entry["name"]: entry["unit"] for entry in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
