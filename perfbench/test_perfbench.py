"""Tests of the benchmark itself (not part of the package test suite).

    python3 -m pytest perfbench -q

They run the benchmark command in subprocesses with one-second phases, so
the whole file takes about two minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc_long", "mc_short", "circuit_wave", "checks")
# exact counts: every *_calls metric plus these
EXACT = ("stochastic.samples", "spectral.segments", "circuit.fft_samples",
         "experiments.table_bytes")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_at_fixed_seed(workload):
    args = ("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    first, second = result(bench(*args)), result(bench(*args))
    for r in (first, second):
        assert r["correct"] and r["failed"] == 0
    exact = [name for name in first["metrics"] if name.endswith("_calls") or name in EXACT]
    assert len(exact) == 9
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name
    assert any(first["metrics"][name]["value"] > 0 for name in exact)


def test_result_lines_follow_benchmark_json():
    declared = spec()
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        r = result(bench("--workload", "mc_short", "--seed", "1", "--seconds", "1",
                         "--trace", trace))
        assert set(r) == {"correct", "attempted", "failed", "metrics"}
        assert r["correct"] and r["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in declared[key]}
        assert {name: m["unit"] for name, m in r["metrics"].items()} == want
        if key == "end_to_end":
            assert all(m["value"] > 0 for m in r["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "mc_long", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_child_spans():
    from tracing import layer_metrics

    names = ["experiments.estimate_base", "stochastic.wiener_path", "stochastic.path_rng",
             "spectral.welch_psd"]
    s = 1_000_000_000
    seg = {"name_id": np.array([0, 1, 2, 3]), "parent": np.array([-1, 0, 1, 0]),
           "start": np.array([0, 10, 12, 50]) * s, "end": np.array([100, 40, 20, 90]) * s,
           "counts": {}}
    m = layer_metrics(seg, names)
    expected = {
        "experiments.estimate_s": 100,
        "experiments.estimate_self_s": 30,   # 100 - wiener_path 30 - welch 40
        "stochastic.wiener_path_self_s": 22,  # 30 - path_rng 8
        "stochastic.path_rng_s": 8,
        "spectral.welch_s": 40,
        "stochastic.self_s": 30,
        "experiments.self_s": 30,
    }
    for name, value in expected.items():
        assert m[name] == pytest.approx(value), name


def test_tracer_wraps_imported_names_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    from oscavg import circuit, stochastic
    from tracing import Tracer

    original = stochastic.wiener_path
    tracer = Tracer()
    tracer.install()
    try:
        assert circuit.wiener_path is stochastic.wiener_path is not original
        circuit.wiener_path(1.0, 0.0, 1e-6, 8, (1, 0))
        seg = tracer.segment()
        assert [tracer.span_names[i] for i in seg["name_id"]] == [
            "stochastic.wiener_path", "stochastic.path_rng"]
        assert seg["counts"]["stochastic.samples"] == 8
    finally:
        tracer.uninstall()
    assert circuit.wiener_path is original and stochastic.wiener_path is original
