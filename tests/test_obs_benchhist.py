"""Tests for repro.obs.benchhist: trajectory folding + regression gate.

Covers the full loop CI runs: flatten heterogeneous bench artifacts,
append to a versioned history, gate the newest run against the rolling
median baseline, and the ``cmp-repro bench-history`` exit codes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.obs.benchhist import (
    HISTORY_VERSION,
    append_run,
    check_regressions,
    flatten_metrics,
    load_history,
    metric_direction,
    new_history,
    save_history,
    summarize_history,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def _artifact(tmp_path, name, payload):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _scan_payload(wall=1.0, rps=5000.0):
    return {
        "benchmark": "scan_parallel",
        "records": 600000,
        "timings": {"wall_seconds": wall, "records_per_s": rps},
    }


def _grow(history, tmp_path, n, run_prefix="r", **payload_kwargs):
    """Append n runs built from identical artifacts."""
    for i in range(n):
        path = _artifact(
            tmp_path, f"BENCH_scan_{run_prefix}{i}", _scan_payload(**payload_kwargs)
        )
        append_run(history, [path], run_id=f"{run_prefix}{i}", timestamp=float(i))
    return history


class TestFlatten:
    def test_nested_paths_and_lists(self):
        out = flatten_metrics(
            {"a": {"b": 1, "c": [2.5, {"d": 3}]}, "top": 4}
        )
        assert out == {"a.b": 1.0, "a.c.0": 2.5, "a.c.1.d": 3.0, "top": 4.0}

    def test_booleans_excluded(self):
        assert flatten_metrics({"bit_identical": True, "n": 1}) == {"n": 1.0}

    def test_non_finite_excluded(self):
        out = flatten_metrics(
            {"nan": float("nan"), "inf": float("inf"), "ok": 0.5}
        )
        assert out == {"ok": 0.5}

    def test_strings_ignored(self):
        assert flatten_metrics({"python": "3.12", "x": 2}) == {"x": 2.0}


class TestDirection:
    @pytest.mark.parametrize(
        "path",
        [
            "timings.wall_seconds",
            "saturated_p99_ms",
            "builders.CMP.on_wall_seconds",
            "overhead_pct",
            "uncontended_p99_ms",
            "peak_bytes",
        ],
    )
    def test_lower_is_better(self, path):
        assert metric_direction(path) == "lower"

    @pytest.mark.parametrize(
        "path",
        ["timings.records_per_s", "speedup", "accuracy", "slo.compliance"],
    )
    def test_higher_is_better(self, path):
        assert metric_direction(path) == "higher"

    @pytest.mark.parametrize("path", ["records", "config.seed", "shed"])
    def test_directionless_is_ungated(self, path):
        assert metric_direction(path) is None

    def test_first_match_wins(self):
        # "seconds" (lower) appears before any higher-is-better pattern
        # would match: a path carrying both resolves to the first ladder.
        assert metric_direction("speedup_seconds") == "lower"

    @pytest.mark.parametrize(
        "path,expected",
        [
            ("build_s", "lower"),
            ("setup_s", "lower"),
            ("scans", "lower"),
            ("tree_predict_1row_us", "lower"),
            ("serve_max_rps", "higher"),
            ("serve_failed_frac", "lower"),
            ("batch_rows_per_s", "higher"),
        ],
    )
    def test_ledger_names_are_gated(self, path, expected):
        assert metric_direction(path) == expected

    def test_agrees_with_benchmark_declaration(self):
        declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        for metric in declared["end_to_end"]:
            assert metric_direction(metric["name"]) == metric["better"], metric
        for metric in declared["per_layer"]:
            direction = metric_direction(metric["name"])
            assert direction in (None, metric["better"]), metric


class TestHistoryIO:
    def test_append_save_load_round_trip(self, tmp_path):
        history = new_history()
        path = _artifact(tmp_path, "BENCH_scan", _scan_payload())
        entry = append_run(history, [path], run_id="abc")
        assert entry["run_id"] == "abc"
        metrics = entry["benchmarks"]["scan_parallel"]["metrics"]
        assert metrics["timings.wall_seconds"] == 1.0
        hist_path = tmp_path / "BENCH_history.json"
        save_history(str(hist_path), history)
        assert not (tmp_path / "BENCH_history.json.tmp").exists()
        assert load_history(str(hist_path)) == history

    def test_missing_file_is_empty_history(self, tmp_path):
        history = load_history(str(tmp_path / "nope.json"))
        assert history == {"version": HISTORY_VERSION, "runs": []}

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"version": 99, "runs": []}))
        with pytest.raises(ValueError, match="version"):
            load_history(str(path))

    def test_runs_must_be_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": HISTORY_VERSION, "runs": 3}))
        with pytest.raises(ValueError, match="runs"):
            load_history(str(path))

    def test_empty_artifact_list_raises(self):
        with pytest.raises(ValueError, match="no bench artifacts"):
            append_run(new_history(), [])

    def test_non_object_artifact_raises(self, tmp_path):
        path = tmp_path / "truncated.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="not a JSON object"):
            append_run(new_history(), [str(path)])

    def test_max_runs_truncates_oldest(self, tmp_path):
        history = _grow(new_history(), tmp_path, 3)
        path = _artifact(tmp_path, "BENCH_scan_last", _scan_payload())
        append_run(history, [path], run_id="last", max_runs=2)
        assert [r["run_id"] for r in history["runs"]] == ["r2", "last"]

    def test_fallback_name_is_file_stem(self, tmp_path):
        path = _artifact(tmp_path, "BENCH_mystery", {"x_seconds": 1.0})
        entry = append_run(new_history(), [path])
        assert list(entry["benchmarks"]) == ["BENCH_mystery"]


class TestRegressionGate:
    def test_steady_trajectory_is_clean(self, tmp_path):
        history = _grow(new_history(), tmp_path, 5)
        assert check_regressions(history) == []

    def test_min_runs_settling_period(self, tmp_path):
        # 3 prior runs needed: with only 2, even a 10x jump is not gated.
        history = _grow(new_history(), tmp_path, 2)
        path = _artifact(tmp_path, "BENCH_scan_jump", _scan_payload(wall=10.0))
        append_run(history, [path], run_id="jump")
        assert check_regressions(history, min_runs=3) == []

    def test_lower_direction_flags_rise(self, tmp_path):
        history = _grow(new_history(), tmp_path, 4)
        path = _artifact(tmp_path, "BENCH_scan_slow", _scan_payload(wall=2.0))
        append_run(history, [path], run_id="slow")
        regs = check_regressions(history, tolerance=0.25)
        metrics = {r.metric for r in regs}
        assert "timings.wall_seconds" in metrics
        reg = next(r for r in regs if r.metric == "timings.wall_seconds")
        assert reg.direction == "lower"
        assert reg.baseline == pytest.approx(1.0)
        assert reg.change_pct == pytest.approx(100.0)
        assert "rose" in reg.describe()

    def test_higher_direction_flags_fall(self, tmp_path):
        history = _grow(new_history(), tmp_path, 4)
        path = _artifact(
            tmp_path, "BENCH_scan_thr", _scan_payload(rps=1000.0)
        )
        append_run(history, [path], run_id="thr")
        regs = check_regressions(history)
        reg = next(r for r in regs if r.metric == "timings.records_per_s")
        assert reg.direction == "higher"
        assert reg.change_pct == pytest.approx(-80.0)
        assert "fell" in reg.describe()

    def test_within_tolerance_not_flagged(self, tmp_path):
        history = _grow(new_history(), tmp_path, 4)
        path = _artifact(tmp_path, "BENCH_scan_ok", _scan_payload(wall=1.2))
        append_run(history, [path], run_id="ok")
        assert check_regressions(history, tolerance=0.25) == []

    def test_improvement_never_flagged(self, tmp_path):
        history = _grow(new_history(), tmp_path, 4)
        path = _artifact(
            tmp_path, "BENCH_scan_fast", _scan_payload(wall=0.1, rps=50000.0)
        )
        append_run(history, [path], run_id="fast")
        assert check_regressions(history) == []

    def test_baseline_is_rolling_median(self, tmp_path):
        # One noisy spike among the priors must not move the baseline:
        # walls [1, 1, 9, 1] -> median 1.0, so wall=2.0 is a regression
        # (a mean baseline of 3.0 would have hidden it).
        history = new_history()
        for i, wall in enumerate([1.0, 1.0, 9.0, 1.0]):
            path = _artifact(
                tmp_path, f"BENCH_scan_m{i}", _scan_payload(wall=wall)
            )
            append_run(history, [path], run_id=f"m{i}")
        path = _artifact(tmp_path, "BENCH_scan_now", _scan_payload(wall=2.0))
        append_run(history, [path], run_id="now")
        regs = check_regressions(history, tolerance=0.25, window=4)
        reg = next(r for r in regs if r.metric == "timings.wall_seconds")
        assert reg.baseline == pytest.approx(1.0)

    def test_window_excludes_ancient_runs(self, tmp_path):
        # Old wall=4.0 era outside the window: baseline comes from the
        # recent wall=1.0 runs only, so wall=2.0 is flagged.
        history = _grow(new_history(), tmp_path, 3, run_prefix="old", wall=4.0)
        _grow(history, tmp_path, 3, run_prefix="new", wall=1.0)
        path = _artifact(tmp_path, "BENCH_scan_x", _scan_payload(wall=2.0))
        append_run(history, [path], run_id="x")
        regs = check_regressions(history, window=3, min_runs=3)
        reg = next(r for r in regs if r.metric == "timings.wall_seconds")
        assert reg.baseline == pytest.approx(1.0)

    def test_zero_baseline_skipped(self, tmp_path):
        history = new_history()
        for i in range(4):
            path = _artifact(
                tmp_path, f"BENCH_scan_z{i}", _scan_payload(wall=0.0)
            )
            append_run(history, [path], run_id=f"z{i}")
        assert check_regressions(history) == []

    def test_sorted_by_magnitude(self, tmp_path):
        history = _grow(new_history(), tmp_path, 4)
        path = _artifact(
            tmp_path, "BENCH_scan_bad", _scan_payload(wall=2.0, rps=500.0)
        )
        append_run(history, [path], run_id="bad")
        regs = check_regressions(history)
        assert len(regs) == 2
        assert abs(regs[0].change_pct) >= abs(regs[1].change_pct)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            check_regressions(new_history(), tolerance=-0.1)
        with pytest.raises(ValueError):
            check_regressions(new_history(), min_runs=0)
        with pytest.raises(ValueError):
            check_regressions(new_history(), min_runs=3, window=2)

    def test_summarize(self, tmp_path):
        assert summarize_history(new_history())["runs"] == 0
        history = _grow(new_history(), tmp_path, 2)
        summary = summarize_history(history)
        assert summary["runs"] == 2
        assert summary["benchmarks"] == ["scan_parallel"]
        assert summary["latest"]["run_id"] == "r1"
        assert summary["latest"]["metrics"] > 0


class TestCli:
    def _append(self, hist, artifacts, run_id):
        return cli_main(
            [
                "bench-history",
                "--history",
                hist,
                "--append",
                *artifacts,
                "--run-id",
                run_id,
            ]
        )

    def test_append_then_clean_check(self, tmp_path, capsys):
        hist = str(tmp_path / "BENCH_history.json")
        for i in range(4):
            path = _artifact(tmp_path, f"BENCH_scan_c{i}", _scan_payload())
            assert self._append(hist, [path], f"c{i}") == 0
        out = capsys.readouterr().out
        assert "appended c3" in out
        assert cli_main(["bench-history", "--history", hist, "--check"]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_synthetic_regression_exits_nonzero(self, tmp_path, capsys):
        hist = str(tmp_path / "BENCH_history.json")
        for i in range(4):
            path = _artifact(tmp_path, f"BENCH_scan_s{i}", _scan_payload())
            assert self._append(hist, [path], f"s{i}") == 0
        bad = _artifact(tmp_path, "BENCH_scan_bad", _scan_payload(wall=3.0))
        assert self._append(hist, [bad], "bad") == 0
        capsys.readouterr()
        assert cli_main(["bench-history", "--history", hist, "--check"]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "timings.wall_seconds" in captured.out

    def test_bare_call_prints_summary(self, tmp_path, capsys):
        hist = str(tmp_path / "BENCH_history.json")
        path = _artifact(tmp_path, "BENCH_scan_b", _scan_payload())
        assert self._append(hist, [path], "b0") == 0
        capsys.readouterr()
        assert cli_main(["bench-history", "--history", hist]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["runs"] == 1

    def test_unreadable_history_exits_2(self, tmp_path, capsys):
        hist = tmp_path / "BENCH_history.json"
        hist.write_text("{broken")
        assert cli_main(["bench-history", "--history", str(hist)]) == 2

    def test_missing_artifact_exits_2(self, tmp_path):
        hist = str(tmp_path / "BENCH_history.json")
        assert (
            cli_main(
                [
                    "bench-history",
                    "--history",
                    hist,
                    "--append",
                    str(tmp_path / "nope.json"),
                ]
            )
            == 2
        )
