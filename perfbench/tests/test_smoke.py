"""Smoke test of the benchmark: every workload, plain and traced, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

bench = run.import_bench()
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def tiny(w):
    if isinstance(w, bench.CertifyWorkload):
        return dataclasses.replace(w, k=10, success_floor=0.0)
    return dataclasses.replace(w, n_points=40, outlier_rate=min(w.outlier_rate, 0.5), success_floor=0.0)


def run_tiny(name, trace, monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(bench.WORKLOADS, name, tiny(bench.WORKLOADS[name]))
    monkeypatch.chdir(tmp_path)
    argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("name", sorted(w["name"] for w in SPEC["workloads"]))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(name, trace, monkeypatch, tmp_path, capsys):
    result = run_tiny(name, trace, monkeypatch, tmp_path, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert math.isfinite(emitted["value"])
    assert (tmp_path / ".perfbench" / f"{name}-seed3-trace{trace}.json").is_file()


@pytest.mark.parametrize("name", ["known99_n1000", "dense50_n150", "unknown90_n1000"])
def test_layer_self_times_account_for_register_time(name, monkeypatch, tmp_path, capsys):
    metrics = run_tiny(name, 1, monkeypatch, tmp_path, capsys)["metrics"]
    layers = [v["value"] for k, v in metrics.items() if k in bench.SELF_TIME_METRICS]
    total = sum(layers) + metrics["pipeline.self_s"]["value"]
    assert total == pytest.approx(metrics["pipeline.call_s"]["value"], rel=1e-9)
    assert metrics["invariants.tims"]["value"] == 40 * 39 / 2
