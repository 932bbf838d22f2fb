"""Regression tests for the ``tools/perf_gate.py`` command-line interface.

``--list-suites`` is machine-consumable (piped into ``grep``/``cut`` by
scripts), so the listing must land on **stdout** with exit status 0 and
nothing on stderr; error paths (unknown suite) must exit non-zero via
stderr.  Also pins the registered suite set, so adding a harness without
registering its perf record (or vice versa) fails here.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERF_GATE = Path(__file__).resolve().parent.parent / "tools" / "perf_gate.py"


@pytest.fixture(scope="module")
def perf_gate():
    spec = importlib.util.spec_from_file_location("perf_gate_under_test", PERF_GATE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)


class TestListSuites:
    def test_listing_goes_to_stdout_and_exits_zero(self, perf_gate, capsys):
        status = perf_gate.main(["--list-suites"])
        captured = capsys.readouterr()
        assert status == 0
        assert captured.err == ""
        for name, suite in perf_gate.SUITES.items():
            assert name in captured.out
            assert suite.output in captured.out

    def test_listing_is_one_line_per_suite_sorted(self, perf_gate, capsys):
        perf_gate.main(["--list-suites"])
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        names = [line.split("\t")[0] for line in lines]
        assert names == sorted(perf_gate.SUITES)

    def test_registered_suites_include_problems(self, perf_gate):
        assert set(perf_gate.SUITES) == {
            "assembly",
            "streaming",
            "shard",
            "problems",
            "kernel",
            "resilience",
            "obs",
            "serving",
        }
        assert perf_gate.SUITES["problems"][1] == "BENCH_problems.json"
        assert perf_gate.SUITES["kernel"][1] == "BENCH_kernel.json"
        assert perf_gate.SUITES["resilience"][1] == "BENCH_resilience.json"
        assert perf_gate.SUITES["obs"][1] == "BENCH_obs.json"
        assert perf_gate.SUITES["serving"][1] == "BENCH_serving.json"


class TestErrorPaths:
    def test_unknown_suite_fails_fast_on_stderr(self, perf_gate, capsys):
        with pytest.raises(SystemExit) as excinfo:
            perf_gate.main(["--suite", "nope"])
        assert excinfo.value.code != 0
        captured = capsys.readouterr()
        assert "unknown suite" in captured.err
        assert "problems" in captured.err  # the message lists valid names

    def test_output_with_all_suites_is_rejected(self, perf_gate, capsys, tmp_path):
        with pytest.raises(SystemExit):
            perf_gate.main(
                ["--suite", "all", "--output", str(tmp_path / "out.json")]
            )


class TestProblemsSuiteSmoke:
    def test_problems_suite_writes_certified_record(self, perf_gate, tmp_path, capsys):
        output = tmp_path / "BENCH_problems.json"
        status = perf_gate.main(
            [
                "--suite",
                "problems",
                "--scale",
                "0.1",
                "--repeats",
                "1",
                "--output",
                str(output),
            ]
        )
        assert status == 0
        record = json.loads(output.read_text())
        assert set(record["classes"]) == {
            "matching",
            "paths",
            "segmentation",
            "closure",
        }
        for row in record["classes"].values():
            assert row["certified"] is True
            assert row["num_edges"] > 0
            assert row["total_ms"] >= 0.0
        summary = capsys.readouterr().out
        assert "wrote" in summary and "certified" in summary


class TestResilienceSuiteSmoke:
    def test_resilience_suite_records_overhead_and_recovery(
        self, perf_gate, tmp_path, capsys
    ):
        output = tmp_path / "BENCH_resilience.json"
        status = perf_gate.main(
            [
                "--suite",
                "resilience",
                "--scale",
                "0.02",
                "--repeats",
                "1",
                "--output",
                str(output),
            ]
        )
        assert status == 0
        record = json.loads(output.read_text())
        assert record["overhead"]["value_diff"] <= 1e-9
        assert set(record["recovery"]) == {
            "convergence",
            "singular",
            "error",
            "stall",
        }
        for kind, row in record["recovery"].items():
            if kind == "stall":
                assert row["outcome"] == "deadline-abort"
            else:
                assert row["outcome"] == "degraded"
                assert row["fallback_backend"] == "dinic"
                assert row["value_error"] <= 1e-9
        summary = capsys.readouterr().out
        assert "fault-free" in summary and "deadline-abort" in summary


class TestObsSuiteSmoke:
    def test_obs_suite_records_overhead_fractions(
        self, perf_gate, tmp_path, capsys
    ):
        output = tmp_path / "BENCH_obs.json"
        status = perf_gate.main(
            [
                "--suite",
                "obs",
                "--scale",
                "0.02",
                "--repeats",
                "1",
                "--output",
                str(output),
            ]
        )
        assert status == 0
        record = json.loads(output.read_text())
        over = record["overhead"]
        assert over["value_diff"] <= 1e-9
        assert over["enabled_sweeps"] > 0
        assert over["enabled_root_spans"] > 0
        assert over["raw_ms"] > 0.0
        for key in ("disabled_overhead_fraction", "enabled_overhead_fraction"):
            assert isinstance(over[key], float)
        summary = capsys.readouterr().out
        assert "wrote" in summary and "obs cost" in summary


class TestKernelSuiteSmoke:
    def test_repeats_interleave_and_quartiles_are_recorded(
        self, perf_gate, tmp_path, capsys, monkeypatch
    ):
        from repro.bench import kernel as bench_kernel

        calls = []

        class LoggedDinic(bench_kernel.Dinic):
            def solve(self, *args, **kwargs):
                calls.append("dinic")
                return super().solve(*args, **kwargs)

        class LoggedKernel(bench_kernel.KernelDinic):
            def solve(self, *args, **kwargs):
                calls.append("kernel")
                return super().solve(*args, **kwargs)

        monkeypatch.setattr(bench_kernel, "Dinic", LoggedDinic)
        monkeypatch.setattr(bench_kernel, "KernelDinic", LoggedKernel)
        output = tmp_path / "BENCH_kernel.json"
        status = perf_gate.main([
            "--suite", "kernel", "--scale", "0.01", "--repeats", "4",
            "--output", str(output),
        ])
        assert status == 0
        record = json.loads(output.read_text())
        assert set(record["classes"]) == {"grid", "rmat", "bipartite"}
        # Three classes, four rounds each, both engines once per round,
        # and the first engine of a round alternates.
        rounds = [calls[i:i + 2] for i in range(0, len(calls), 2)]
        assert len(rounds) == 12
        assert rounds[::2] == [["dinic", "kernel"]] * 6
        assert rounds[1::2] == [["kernel", "dinic"]] * 6
        for row in record["classes"].values():
            for engine in ("dinic", "kernel"):
                q1, q3 = row[f"{engine}_q1_ms"], row[f"{engine}_q3_ms"]
                assert 0.0 < q1 <= row[f"{engine}_ms"] <= q3
            assert row["value_diff"] <= 1e-9
        # Both cores forced, the compiled core's rounds and routing, the
        # pick and its band check, per class and on every crossover network.
        rows = [*record["classes"].values(), *record["crossover"].values()]
        assert len(record["crossover"]) == 11
        for row in rows:
            for core in ("compiled", "lockstep"):
                q1, q3 = row[f"{core}_q1_ms"], row[f"{core}_q3_ms"]
                assert 0.0 < q1 <= row[f"{core}_ms"] <= q3
            assert row["compiled_rounds"] >= 1
            assert isinstance(row["compiled_routed"], bool)
            assert row["pick"] in ("compiled", "lockstep")
            assert isinstance(row["pick_within_band"], bool)
        # Integral classes take one exact round; real grids one round, routed.
        assert record["classes"]["rmat"]["compiled_rounds"] == 1
        assert not record["classes"]["rmat"]["compiled_routed"]
        grids = [row for name, row in record["crossover"].items() if name.startswith("grid_")]
        assert all(row["compiled_rounds"] == 1 and row["compiled_routed"] for row in grids)
        out = capsys.readouterr().out
        assert "IQR" in out and "crossover grid_" in out and "rounds, routed" in out


class TestStreamingSuiteSmoke:
    def test_grid_class_records_warm_tail_against_cold_kernel(
        self, perf_gate, tmp_path, capsys
    ):
        output = tmp_path / "BENCH_streaming.json"
        status = perf_gate.main([
            "--suite", "streaming", "--scale", "0.05", "--repeats", "1",
            "--output", str(output),
        ])
        assert status == 0
        record = json.loads(output.read_text())
        assert set(record["classes"]) == {"dense", "sparse", "grid"}
        for regime in ("dense", "sparse"):  # the R-MAT rows keep their fields
            row = record["classes"][regime]
            assert row["classical_value_diff"] <= 1e-9
            assert row["classical_warm_ms"] > 0.0 and row["analog_warm_ms"] > 0.0
        grid = record["classes"]["grid"]
        assert (grid["workload"], grid["num_edges"]) == ("grid_2x9", 38)
        assert (grid["pushes"], grid["cold_samples"], grid["delta_edges"]) == (1000, 100, 1)
        assert 0.0 < grid["warm_p50_ms"] <= grid["warm_p99_ms"] <= grid["warm_max_ms"]
        assert 0.0 < grid["cold_kernel_q1_ms"] <= grid["cold_kernel_ms"] <= grid["cold_kernel_q3_ms"]
        assert isinstance(grid["p99_within_cold"], bool)
        assert grid["warm_frac"] == 1.0 and grid["value_diff"] <= 1e-9
        assert 0.0 <= grid["searches_per_push"] <= 2.0
        out = capsys.readouterr().out
        assert "grid (grid_2x9, 38 edges" in out and "the cold median" in out


class TestHistoryAppend:
    """Every run appends itself to the record's bounded history list."""

    def _run(self, perf_gate, output, extra=()):
        return perf_gate.main([
            "--suite", "problems", "--scale", "0.1", "--repeats", "1",
            "--output", str(output), *extra,
        ])

    def test_first_run_creates_single_entry_history(self, perf_gate, tmp_path):
        output = tmp_path / "BENCH_problems.json"
        assert self._run(perf_gate, output) == 0
        record = json.loads(output.read_text())
        assert len(record["history"]) == 1
        entry = record["history"][0]
        assert "recorded_at" in entry
        assert "history" not in entry  # entries never nest
        # The flat latest-run keys mirror the entry (minus the stamp).
        assert record["classes"] == entry["classes"]
        assert record["scale"] == entry["scale"] == 0.1

    def test_reruns_accumulate_and_flat_keys_track_latest(self, perf_gate, tmp_path):
        output = tmp_path / "BENCH_problems.json"
        self._run(perf_gate, output)
        self._run(perf_gate, output)
        record = json.loads(output.read_text())
        assert len(record["history"]) == 2
        assert record["classes"] == record["history"][-1]["classes"]

    def test_history_only_preserves_flat_keys(self, perf_gate, tmp_path):
        output = tmp_path / "BENCH_problems.json"
        self._run(perf_gate, output)
        first_flat = {
            k: v for k, v in json.loads(output.read_text()).items()
            if k != "history"
        }
        assert self._run(perf_gate, output, extra=("--history-only",)) == 0
        record = json.loads(output.read_text())
        assert len(record["history"]) == 2
        flat = {k: v for k, v in record.items() if k != "history"}
        assert flat == first_flat  # headline record untouched

    def test_history_is_bounded(self, perf_gate):
        existing = {"scale": 0.1, "history": [
            {"scale": 0.1, "n": i} for i in range(perf_gate.HISTORY_LIMIT)
        ]}
        merged = perf_gate._merge_history(
            existing, {"scale": 0.1, "n": "new"}, history_only=False
        )
        assert len(merged["history"]) == perf_gate.HISTORY_LIMIT
        assert merged["history"][-1]["n"] == "new"
        assert merged["history"][0]["n"] == 1  # oldest entry fell off

    def test_corrupt_existing_record_is_replaced(self, perf_gate, tmp_path):
        output = tmp_path / "BENCH_problems.json"
        output.write_text("{not json")
        assert self._run(perf_gate, output) == 0
        record = json.loads(output.read_text())
        assert len(record["history"]) == 1
