"""Sentinel gates for ``tools/bench_watch.py``.

Pins the metric-path extraction (wildcard expansion), the same-scale
baseline selection over BENCH histories, the verdict/exit-status
contract, and the CLI flag surface.  All judgments run on synthetic
records — the sentinel never times anything here.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def bench_watch():
    spec = importlib.util.spec_from_file_location(
        "bench_watch_under_test", TOOLS / "bench_watch.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)


def kernel_report(grid_ms: float, scale: float = 0.25) -> dict:
    return {
        "scale": scale,
        "repeats": 5,
        "classes": {
            "grid": {"kernel_ms": grid_ms, "dinic_ms": 10 * grid_ms},
            "rmat": {"kernel_ms": 8.0, "dinic_ms": 20.0},
        },
    }


class TestExtractMetrics:
    def test_wildcard_expands_over_classes(self, bench_watch):
        values = bench_watch.extract_metrics(
            kernel_report(450.0), ["classes.*.kernel_ms"]
        )
        assert values == {
            "classes.grid.kernel_ms": 450.0,
            "classes.rmat.kernel_ms": 8.0,
        }

    def test_literal_paths_and_missing_keys(self, bench_watch):
        report = {"overhead": {"resilient_ms": 4.5}}
        assert bench_watch.extract_metrics(
            report, ["overhead.resilient_ms", "overhead.absent_ms"]
        ) == {"overhead.resilient_ms": 4.5}

    def test_non_numeric_leaves_are_ignored(self, bench_watch):
        report = {"classes": {"grid": {"kernel_ms": "n/a", "certified": True}}}
        assert bench_watch.extract_metrics(
            report, ["classes.*.kernel_ms", "classes.*.certified"]
        ) == {}


class TestBaselineSelection:
    def test_history_entries_beat_flat_record(self, bench_watch):
        record = kernel_report(500.0)
        record["history"] = [kernel_report(400.0), kernel_report(500.0)]
        best = bench_watch.baseline_metrics(
            record, ["classes.*.kernel_ms"], scale=0.25
        )
        assert best["classes.grid.kernel_ms"] == 400.0  # best, not latest

    def test_other_scales_are_excluded(self, bench_watch):
        record = {"history": [kernel_report(1.0, scale=0.05),
                              kernel_report(400.0, scale=0.25)]}
        best = bench_watch.baseline_metrics(
            record, ["classes.*.kernel_ms"], scale=0.25
        )
        assert best["classes.grid.kernel_ms"] == 400.0

    def test_flat_record_is_the_trajectory_without_history(self, bench_watch):
        assert bench_watch.trajectory(kernel_report(450.0))[0]["scale"] == 0.25
        assert bench_watch.trajectory({}) == []


class TestJudgeSuite:
    def test_ok_within_tolerance(self, bench_watch):
        rows = bench_watch.judge_suite(
            "kernel", kernel_report(400.0), kernel_report(500.0), tolerance=1.6
        )
        grid = next(r for r in rows if r["metric"] == "classes.grid.kernel_ms")
        assert grid["status"] == "ok" and grid["ratio"] == 1.25

    def test_regression_beyond_tolerance(self, bench_watch):
        rows = bench_watch.judge_suite(
            "kernel", kernel_report(400.0), kernel_report(700.0), tolerance=1.6
        )
        grid = next(r for r in rows if r["metric"] == "classes.grid.kernel_ms")
        assert grid["status"] == "regressed"
        assert grid["baseline_ms"] == 400.0 and grid["candidate_ms"] == 700.0

    def test_no_same_scale_history_is_new_baseline(self, bench_watch):
        rows = bench_watch.judge_suite(
            "kernel", kernel_report(400.0, scale=0.25),
            kernel_report(1.0, scale=0.05), tolerance=1.6,
        )
        assert {r["status"] for r in rows} == {"new-baseline"}

    def test_empty_candidate_is_skipped(self, bench_watch):
        rows = bench_watch.judge_suite("kernel", {}, {"scale": 0.25}, 1.6)
        assert rows == [pytest.approx(rows[0])]  # single row
        assert rows[0]["status"] == "skipped"


class TestCli:
    def test_list_suites(self, bench_watch, capsys):
        assert bench_watch.main(["--list-suites"]) == 0
        out = capsys.readouterr().out
        for name in bench_watch.perf_gate.SUITES:
            assert name in out

    def test_unknown_suite_rejected(self, bench_watch, capsys):
        with pytest.raises(SystemExit) as excinfo:
            bench_watch.main(["--suite", "nope"])
        assert excinfo.value.code != 0
        assert "unknown suite" in capsys.readouterr().err

    def test_tolerance_must_exceed_one(self, bench_watch, capsys):
        with pytest.raises(SystemExit):
            bench_watch.main(["--suite", "kernel", "--tolerance", "0.9"])

    def test_candidate_requires_single_suite(self, bench_watch, capsys, tmp_path):
        candidate = tmp_path / "c.json"
        candidate.write_text("{}")
        with pytest.raises(SystemExit):
            bench_watch.main(["--suite", "all", "--candidate", str(candidate)])

    def test_candidate_judgement_sets_exit_status(self, bench_watch, tmp_path,
                                                  capsys, monkeypatch):
        committed = kernel_report(400.0)
        monkeypatch.setattr(
            bench_watch.perf_gate, "_load_existing", lambda path: committed
        )
        good = tmp_path / "good.json"
        good.write_text(json.dumps(kernel_report(410.0)))
        assert bench_watch.main(
            ["--suite", "kernel", "--candidate", str(good)]
        ) == 0
        assert "OK" in capsys.readouterr().out
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(kernel_report(4000.0)))
        assert bench_watch.main(
            ["--suite", "kernel", "--candidate", str(bad)]
        ) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_json_output_is_machine_readable(self, bench_watch, tmp_path,
                                             capsys, monkeypatch):
        monkeypatch.setattr(
            bench_watch.perf_gate, "_load_existing",
            lambda path: kernel_report(400.0),
        )
        candidate = tmp_path / "c.json"
        candidate.write_text(json.dumps(kernel_report(4000.0)))
        bench_watch.main(
            ["--suite", "kernel", "--candidate", str(candidate), "--json"]
        )
        document = json.loads(capsys.readouterr().out)
        assert document["regressions"] == 1
        statuses = {r["status"] for r in document["verdicts"]}
        assert "regressed" in statuses
