"""tools/bench_pairs.py exits 1 when a pairs run should not pass as a gate."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _result(correct=True, failed=0, cpu_s=1.0):
    return {"correct": correct, "failed": failed, "attempted": 10,
            "metrics": {"cpu_s": {"value": cpu_s}}}


@pytest.mark.parametrize("change, status", [
    ({}, 0),
    ({"cpu_s": 1.2}, 0),
    ({"correct": False}, 1),
    ({"failed": 1}, 1),
    ({"cpu_s": 1.3}, 1),
], ids=["same", "worse-within-bound", "not-correct", "failures",
        "outside-bound"])
def test_exit_status(tmp_path, monkeypatch, capsys, change, status):
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "cpu_s", "better": "lower", "bound": 0.25}]}))
    monkeypatch.setattr(tool, "run_once", lambda checkout, args: (
        _result(**change) if checkout == str(tmp_path) else _result()))
    assert tool.main(["parent", str(tmp_path), "--workload", "w",
                      "--pairs", "3", "--seed", "1", "--seconds", "1"]) == status
    assert "runs not correct or with failures" in capsys.readouterr().out


@pytest.mark.parametrize("second, status", [({}, 0), ({"failed": 1}, 1),
                                            ({"cpu_s": 1.3}, 1)],
                         ids=["both-pass", "failures", "outside-bound"])
def test_each_workload_runs_its_pairs_and_prints_its_table(
        tmp_path, monkeypatch, capsys, second, status):
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "cpu_s", "better": "lower", "bound": 0.25}]}))
    calls = []

    def run_once(checkout, args):
        calls.append(args.workload)
        changed = checkout == str(tmp_path) and args.workload == "second"
        return _result(**second) if changed else _result()

    monkeypatch.setattr(tool, "run_once", run_once)
    assert tool.main(["parent", str(tmp_path), "--workload", "first",
                      "--workload", "second", "--pairs", "3", "--seed", "1",
                      "--seconds", "1"]) == status
    # the first workload's pairs, then the second's, two runs a pair
    assert calls == ["first"] * 6 + ["second"] * 6
    out = capsys.readouterr().out
    assert out.count("runs not correct or with failures") == 2
    assert "\nfirst, seed 1, 1 s runs, 3 pairs\n" in out
    assert "\nsecond, seed 1, 1 s runs, 3 pairs\n" in out
