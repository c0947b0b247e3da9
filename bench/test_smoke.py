"""Smoke test of the benchmark at tiny input sizes.

Every metric BENCHMARK.json names is emitted, with its unit, by both the
timed and the traced run of every workload, and an operation whose output
is corrupted counts as failed.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run as bench  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _specs(kind):
    return {m["name"]: (m["unit"], m["better"]) for m in SPEC[kind]}


def test_benchmark_json_matches_the_code():
    assert _specs("end_to_end") == {n: (u, b) for n, u, b in bench.END_TO_END}
    assert _specs("per_layer") == {n: (u, b) for n, u, b in layers.metric_specs()}
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(bench.WORKLOADS)
    for kind in ("end_to_end", "per_layer"):
        for m in SPEC[kind]:
            assert m["better"] in ("lower", "higher")


def _assert_emitted(result, kind):
    expected = _specs(kind)
    assert set(result["metrics"]) == set(expected)
    for name, m in result["metrics"].items():
        assert m["unit"] == expected[name][0], name
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), name
    assert result["attempted"] >= 1


def test_every_metric_emitted(tmp_path):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result, detail = bench.run("replay_lstm_long", 1, 0.0, trace, size="tiny", work_root=tmp_path)
        assert result["correct"], detail["ops"]
        assert result["failed"] == 0
        _assert_emitted(result, kind)
        assert json.loads(json.dumps(result)) == result


def _corrupt_saves(monkeypatch, corrupt):
    """Write a NaN row into the estimates whose 1-based save number `corrupt` accepts."""
    import windest.cli

    save = windest.cli.save_estimate
    written = []

    def save_with_nan_row(path, t, table):
        written.append(path)
        if corrupt(len(written)):
            table = table.copy()
            table[table.shape[0] // 2] = np.nan
        save(path, t, table)

    monkeypatch.setattr(windest.cli, "save_estimate", save_with_nan_row)
    return written


def test_corrupted_estimate_counts_as_failed(tmp_path, monkeypatch):
    written = _corrupt_saves(monkeypatch, lambda n: n == 1)
    result, detail = bench.run("replay_model", 1, 0.0, 0, size="tiny", work_root=tmp_path)
    assert len(written) == 2
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)
    assert "1 rows with non-finite values" in detail["ops"][0]["errors"]
    # the reference is the first passing operation, not the failed first one
    assert detail["ops"][1]["errors"] == []
    assert result["metrics"]["ok_rate"]["value"] == 0.5
    assert result["metrics"]["airflow_rms_mps"]["value"] < 1.0
    _assert_emitted(result, "end_to_end")


def test_no_passing_operation_reports_no_gain(tmp_path, monkeypatch):
    _corrupt_saves(monkeypatch, lambda n: True)
    result, detail = bench.run("replay_model", 1, 0.0, 0, size="tiny", work_root=tmp_path)
    assert (result["attempted"], result["failed"]) == (2, 2)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for name in ("op_s", "airflow_rms_mps", "wind_rms_mps", "touch_rms_n"):
        assert metrics[name] == bench.NO_VALUE, name
    assert 0.0 < metrics["rtf"] < 1e-6
    assert metrics["ok_rate"] == 0.0
    _assert_emitted(result, "end_to_end")


def test_traced_replay(tmp_path):
    result, detail = bench.run("replay_model", 1, 0.0, 1, size="tiny", work_root=tmp_path)
    assert result["correct"], detail["ops"]
    assert [op["traced"] for op in detail["ops"]] == [False, True]
    _assert_emitted(result, "per_layer")
