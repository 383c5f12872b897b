"""Fleet-mode sweeps and the store-merge seams.

Covers the three contracts this layer added:

* ``run_grid(fleet=True)`` is bit-identical to the plain per-game path —
  serially, through the process pool, across shards, and across resumes
  (the shape cache is a cost knob, never an answer knob);
* ``merge-shards --into`` makes the merged store resumable, carrying
  quarantine records from any shard (regression: a cell quarantined on
  one shard used to be silently retried after a merge + resume);
* an overlapping-store merge fails with an error that names the
  offending key tuple and the source stores (regression: the old
  ``DuplicateKeyError`` named neither).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import ResultTable, collect_store, run_grid
from repro.cli import main
from repro.experiments.perf import _bench_trial
from repro.resilience import SweepFaultInjector
from repro.store import CellKey, CellRecord, SweepStore, SweepStoreError
from tests.test_sweep_resume import _det_trial

GRID = [
    {"num_targets": 4, "num_segments": 4, "epsilon": 0.05, "backend": "highs"},
    {"num_targets": 5, "num_segments": 4, "epsilon": 0.05, "backend": "highs"},
]


def _solve_run(**kwargs) -> ResultTable:
    return run_grid(_bench_trial, GRID, num_trials=2, seed=7, **kwargs)


def _rows_json(table: ResultTable) -> str:
    return json.dumps(table.to_dict(), sort_keys=True)


class TestFleetRunGridBitIdentity:
    def test_fleet_serial_matches_plain_serial(self):
        plain = _solve_run()
        fleet = _solve_run(fleet=True)
        assert _rows_json(fleet) == _rows_json(plain)

    def test_fleet_pooled_matches_plain_serial(self):
        plain = _solve_run()
        pooled = _solve_run(fleet=True, workers=2)
        assert _rows_json(pooled) == _rows_json(plain)

    def test_fleet_shards_merge_to_plain_result(self, tmp_path):
        plain = _solve_run()
        _solve_run(fleet=True, store=tmp_path, shard="0/2")
        _solve_run(fleet=True, store=tmp_path, shard="1/2")
        assert _rows_json(collect_store(tmp_path)) == _rows_json(plain)

    def test_fleet_resume_matches_plain(self, tmp_path):
        from repro.resilience import SimulatedKill

        plain = _solve_run()
        with pytest.raises(SimulatedKill):
            _solve_run(fleet=True, store=tmp_path,
                       faults=SweepFaultInjector(kill_after_puts=1))
        resumed = _solve_run(fleet=True, store=tmp_path, resume=True)
        assert _rows_json(resumed) == _rows_json(plain)

    @given(st.integers(0, 10**6))
    @settings(max_examples=3, deadline=None)
    def test_fleet_property_bit_identity_across_seeds(self, seed):
        grid = GRID[:1]
        plain = run_grid(_bench_trial, grid, num_trials=1, seed=seed)
        fleet = run_grid(_bench_trial, grid, num_trials=1, seed=seed,
                         fleet=True)
        assert _rows_json(fleet) == _rows_json(plain)


def _fleet_trial(rng, trial_index, *, num_targets, **params):
    """A trial that solves a small fleet, so each cell's trace carries a
    ``fleet.solve`` span with the per-game solve spans under it."""
    from repro.experiments.quality import default_uncertainty
    from repro.game.generator import random_interval_game
    from repro.solvers.fleet import solve_fleet

    games = [random_interval_game(num_targets, seed=100 * trial_index + i)
             for i in range(3)]
    uncertainties = [default_uncertainty(g.payoffs) for g in games]
    fleet = solve_fleet(games, uncertainties, num_segments=4, epsilon=0.1)
    return [{"value": fleet.results[0].lower_bound,
             "oracle_calls": sum(r.oracle_calls for r in fleet.results)}]


class TestFleetTraceAdoption:
    """Worker-process traces adopt into the same tree the serial run
    records, fleet spans included."""

    GRID = [{"num_targets": 3}, {"num_targets": 4}]

    def _traced(self, **kwargs):
        from repro import telemetry
        from repro.telemetry import Telemetry, span_signature

        ctx = Telemetry()
        with telemetry.use(ctx):
            table = run_grid(_fleet_trial, self.GRID, num_trials=2,
                             seed=3, fleet=True, **kwargs)
        # The root span honestly records its ``workers`` count — the one
        # attribute that *should* differ.  Everything else must match.
        sig = tuple(
            (pos, name, depth, status,
             tuple((k, v) for k, v in attrs if k != "workers"), err)
            for (pos, name, depth, status, attrs, err)
            in span_signature(ctx.spans)
        )
        # Timing histograms keep a deterministic observation *count* but
        # a wall-clock-dependent bucket spread; compare the former only.
        metrics = []
        for snap in ctx.metrics.snapshot():
            snap = dict(snap)
            if snap["type"] == "histogram":
                snap.pop("counts")
                snap.pop("sum")
            metrics.append(snap)
        return table, sig, metrics

    def test_workers4_span_tree_matches_serial(self):
        ref_table, ref_sig, ref_metrics = self._traced(workers=1)
        table, sig, metrics = self._traced(workers=4)
        assert _rows_json(table) == _rows_json(ref_table)
        assert sig == ref_sig, "adopted span tree must match serial run"
        assert metrics == ref_metrics

    def test_fleet_solve_spans_present(self):
        _, sig, _ = self._traced(workers=1)
        fleet_spans = [entry for entry in sig if entry[1] == "fleet.solve"]
        # One fleet per trial: 2 grid points x 2 trials.
        assert len(fleet_spans) == 4


def _quarantine_run(store, *, shard=None, resume=False, quarantine_after=1):
    """A sharded run whose cell (0, 0) always crashes."""
    return run_grid(
        _det_trial, [{"size": 2}, {"size": 3}], num_trials=1, seed=5,
        store=store, shard=shard, resume=resume,
        on_error="record", quarantine_after=quarantine_after,
        faults=SweepFaultInjector(crash={(0, 0)}, crash_times=99),
    )


class TestQuarantinePersistsAcrossMerge:
    def test_merged_store_honours_shard_quarantine(self, tmp_path, capsys):
        # Shard 0 owns the poisoned cell and quarantines it; shard 1 is
        # healthy.  The merged store must carry the quarantine record.
        a, b, merged = (str(tmp_path / n) for n in ("a", "b", "merged"))
        first = _quarantine_run(a, shard="0/2")
        assert first.failures[0].quarantined
        _quarantine_run(b, shard="1/2")

        code = main(["merge-shards", "--store", a, b, "--into", merged])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 quarantined preserved" in out

        # Resume against the merged store with a *larger* attempt budget:
        # the quarantine decision still stands — the cell is never re-run
        # (the regression: without the carried record it re-crashed here).
        table = _quarantine_run(merged, resume=True, quarantine_after=3)
        assert table.failures[0].quarantined
        assert table.failures[0].attempts == 1
        manifest = SweepStore(merged).load_shard_manifests()[-1]
        assert manifest["executed"] == 0, "a quarantined cell is never re-run"

    def test_absorb_prefers_ok_over_failure(self, tmp_path):
        src, dst = SweepStore(tmp_path / "s"), SweepStore(tmp_path / "d")
        key = CellKey("deadbeef", 0, 0)
        dst.put(CellRecord(key=key, params={"size": 2}, status="ok",
                           records=[{"value": 1}]))
        src.put(CellRecord(key=key, params={"size": 2}, status="failed",
                           failure={"attempts": 5, "quarantined": True}))
        summary = dst.absorb_cells(src)
        assert summary == {"copied": 0, "kept": 1, "quarantined": 0}
        assert dst.load(key).status == "ok"

    def test_absorb_keeps_the_stronger_failure(self, tmp_path):
        src, dst = SweepStore(tmp_path / "s"), SweepStore(tmp_path / "d")
        key = CellKey("deadbeef", 0, 0)
        dst.put(CellRecord(key=key, params={}, status="failed",
                           failure={"attempts": 1, "quarantined": False}))
        src.put(CellRecord(key=key, params={}, status="failed",
                           failure={"attempts": 2, "quarantined": True}))
        dst.absorb_cells(src)
        record = dst.load(key)
        assert record.quarantined
        assert record.failure["attempts"] == 2
        # The reverse direction never un-quarantines.
        src.absorb_cells(dst)
        assert src.load(key).quarantined

    def test_absorb_refuses_foreign_sweep(self, tmp_path):
        src, dst = SweepStore(tmp_path / "s"), SweepStore(tmp_path / "d")
        src.bind("a" * 64)
        dst.bind("b" * 64)
        with pytest.raises(SweepStoreError, match="belongs to sweep"):
            dst.absorb_cells(src)

    def test_absorb_binds_fresh_destination(self, tmp_path):
        src, dst = SweepStore(tmp_path / "s"), SweepStore(tmp_path / "d")
        src.bind("a" * 64)
        dst.absorb_cells(src)
        assert dst.sweep_hash() == "a" * 64


class TestMergeShardsDuplicateDiagnostics:
    def test_overlapping_stores_error_names_key_and_sources(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for root in (a, b):  # two full (unsharded) runs: total overlap
            run_grid(_det_trial, [{"size": 2}], num_trials=1, seed=5,
                     store=root)
        with pytest.raises(SystemExit) as excinfo:
            main(["merge-shards", "--store", a, b])
        message = str(excinfo.value)
        assert "duplicate rows" in message
        assert "'_cell': 0" in message and "'trial': 0" in message
        assert a in message and b in message
