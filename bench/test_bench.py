"""Tests of the benchmark itself: python3 -m pytest -q bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import spinorlab  # noqa: E402,F401
import spinorlab.cli  # noqa: E402,F401


def first(workload: str, seed, count: int, tracer=None) -> run.Run:
    return run.run_tasks(workload, seed, lambda i, t: i >= count, tracer)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_passes_its_oracles(workload):
    result = first(workload, 3, 40)
    assert result.attempted == 40
    assert not result.failures, result.first_errors
    assert set(result.known_failures) <= {"spin_zero_denominator"}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_same_digest(workload):
    a, b, other = first(workload, 5, 25), first(workload, 5, 25), first(workload, 6, 25)
    assert a.kinds == b.kinds
    assert a.digest.hexdigest() == b.digest.hexdigest() != other.digest.hexdigest()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_default_seed_matches_committed_digest(workload):
    expected = json.loads(run.DIGESTS.read_text())[workload]
    assert first(workload, run.DEFAULT_SEED, run.DIGEST_TASKS).digest.hexdigest() == expected


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_setup_is_timed_in_fresh_interpreters(workload):
    assert 0 < run.setup_time(workload) < 10


def test_timings_are_scaled_to_the_reference_speed():
    # the host runs at half speed from task 30 on: its probes take twice as long
    probes = [run.PROBE_S] * 30 + [2 * run.PROBE_S] * 30
    assert run.at_reference_speed([(5, 1.0), (45, 1.0), (29, 1.0), (30, 1.0)], probes) == [1.0, 0.5, 1.0, 0.5]


def _bindings() -> dict:
    """Every attribute of every spinorlab module and of the classes they define."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "spinorlab":
            continue
        for attr, value in vars(module).items():
            out[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                out.update({(name, attr, key): member for key, member in vars(value).items()})
    return out


def test_traced_run_restores_every_binding():
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert spinorlab.build_xi is not before["spinorlab", "build_xi"]
        assert spinorlab.geometry.build_xi is not before["spinorlab.geometry", "build_xi"]
        result = first("cli_mix", 7, 30, tracer)
    finally:
        assert tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert not result.failures, result.first_errors
    names = {span[0] for span in tracer.spans}
    assert {"task", "cli.main", "blades.mul", "linalg.rref"} <= names


def test_self_time_subtracts_covered_child_time():
    # root [0,10] with children [1,4] and [5,9]; [6,7] nests in the second;
    # a child reaching past its parent is clipped, overlapping siblings count once
    tree = [
        ["task", 0.0, 10.0, -1, 0],
        ["geometry.kernel", 1.0, 4.0, 0, 0],
        ["linalg.rref", 5.0, 9.0, 0, 0],
        ["linalg.zeros", 6.0, 7.0, 2, 0],
        ["task", 20.0, 30.0, -1, 1],
        ["spin.norm", 21.0, 25.0, 4, 1],
        ["blades.mul", 24.0, 31.0, 4, 1],
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 3.0, 1.0, 1.0, 4.0, 7.0]


def test_layer_metrics_match_the_declared_per_layer_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = spans.Tracer()
    tracer.install()
    try:
        first("xi_kernel", 1, 5, tracer)
    finally:
        tracer.uninstall()
    produced = set(spans.layer_metrics(tracer)) | {"cli.output_bytes", "trace.overhead_ratio"}
    assert produced == {m["name"] for m in declared["per_layer"]}
    assert {m["name"] for m in declared["end_to_end"]} == {
        "throughput_ops_s", "latency_p50_ms", "latency_p99_ms", "setup_s", "peak_rss_mb"}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "xi_kernel", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout
