"""Tests of the benchmark's own code: inputs, gate, report, memory."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import host
import run
from gate import Gate
from repro.engine import RunRequest, WorkerPool, execute_request
from repro.metrics.serialize import report_to_dict
from workloads import (
    MICRO_MIX,
    latency_cycle,
    micro_requests,
    sample_requests,
    serve_stream,
    suite_round,
)

BENCHMARK_JSON = Path(run.ROOT) / "BENCHMARK.json"


def _requests(workload, seed):
    if workload == "suite":
        requests = [r for i in range(4) for r in suite_round(seed, i)]
        requests += latency_cycle("suite", seed, 0)
    elif workload == "micro":
        requests = micro_requests(seed, 0, 60) + latency_cycle("micro", seed, 3)
    else:
        requests = serve_stream(seed, 200)
    return [r.canonical() for r in requests + sample_requests(workload, seed)]


@pytest.mark.parametrize("workload", ["suite", "micro", "serve"])
def test_same_seed_same_requests_other_seed_other_requests(workload):
    assert _requests(workload, 7) == _requests(workload, 7)
    assert _requests(workload, 7) != _requests(workload, 8)


def test_suite_round0_is_the_default_suite_and_no_request_repeats():
    assert all(r.seed is None and r.nodes == 32 for r in suite_round(3, 0))
    hashes = [r.content_hash() for i in range(40) for r in suite_round(3, i)]
    hashes += [r.content_hash() for i in range(40) for r in latency_cycle("suite", 3, i)]
    assert len(hashes) == len(set(hashes))


def test_micro_requests_are_distinct_and_cover_the_mix():
    requests = micro_requests(5, 0, 600) + [
        r for i in range(10) for r in latency_cycle("micro", 5, i)
    ]
    assert len({r.content_hash() for r in requests}) == len(requests)
    assert {r.benchmark for r in requests} == {name for name, _ in MICRO_MIX}


def test_serve_stream_repeats_about_forty_percent_and_covers_every_benchmark():
    from repro.suite.registry import REGISTRY

    stream = serve_stream(9, 2000)
    seen, repeats = set(), 0
    for request in stream:
        key = request.content_hash()
        repeats += key in seen
        seen.add(key)
    assert 0.35 < repeats / len(stream) < 0.45
    assert {r.benchmark for r in stream} == set(REGISTRY)


def test_every_metric_prints_with_name_and_unit(capsys):
    metrics = {name: 1.5 for name, _ in run.END_TO_END}
    result = run.emit({"seed": 1}, metrics, dict(run.END_TO_END), 10, Gate(), {})
    lines = capsys.readouterr().out.splitlines()
    for name, unit in run.END_TO_END:
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines)
        assert result["metrics"][name] == {"value": 1.5, "unit": unit}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0


def test_benchmark_json_names_the_printed_end_to_end_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert spec["command"] == ["python3", "perfbench/run.py"]


def _report(request):
    return report_to_dict(execute_request(request))


def test_gate_fails_on_a_corrupted_observable():
    request = RunRequest(benchmark="pcr", seed=11)
    record = _report(request)
    gate = Gate()
    gate.observables("ok", record)
    assert gate.ok
    record["observables"]["solve_error"] = 0.5
    gate.observables("bad", record)
    assert not gate.ok and gate.failed == 1


def test_gate_fails_on_a_report_that_differs_from_in_process_execution():
    request = RunRequest(benchmark="n-body", params={"n": 12}, seed=4)
    record = _report(request)
    gate = Gate()
    gate.identical("ok", request, record)
    assert gate.ok
    record["flop_count"] += 1
    gate.identical("bad", request, record)
    assert gate.failed == 1


def test_gate_fails_when_one_baseline_value_is_corrupted():
    records = {r.benchmark: _report(r) for r in suite_round(0, 0)}
    gate = Gate()
    assert gate.baseline(records, run.BASELINE) == 128 and gate.ok
    records["fft"]["elapsed_time_s"] *= 1.0 + 1e-12
    assert gate.baseline(records, run.BASELINE) == 127
    assert gate.failed_labels == {"round0/fft"}


def test_gate_fails_when_a_repeat_gets_another_report():
    first = _report(RunRequest(benchmark="fft", params={"n": 64}, seed=1))
    other = _report(RunRequest(benchmark="fft", params={"n": 64}, seed=2))
    gate = Gate()
    gate.repeat("a", "h", first)
    gate.repeat("b", "h", first)
    assert gate.ok
    gate.repeat("c", "h", other)
    assert gate.failed_labels == {"c"}


def test_peak_rss_includes_a_live_pool_worker():
    pool = WorkerPool(1)
    try:
        pool.warmup()
        tree = host.process_tree(os.getpid())
        assert len(tree) >= 2
        workers = [pid for pid in tree if pid != os.getpid()]
        own_mb = host.vm_hwm_kib(os.getpid()) / 1024.0
        assert all(host.vm_hwm_kib(pid) > 0 for pid in workers)
        assert host.peak_rss_mb() >= own_mb + host.vm_hwm_kib(workers[0]) / 1024.0
    finally:
        pool.shutdown(wait=True)


def test_blas_threads_are_pinned_in_started_processes():
    env = host.child_env(run.ROOT)
    assert all(env[var] == "1" for var in host.BLAS_THREAD_VARS)
    unpinned = host.child_env(run.ROOT, pinned=False)
    assert not any(var in unpinned for var in host.BLAS_THREAD_VARS)


def test_traced_run_reports_every_per_layer_metric_and_a_valid_chrome_trace(tmp_path):
    from repro.obs.chrome import validate_chrome_trace
    from traced import traced

    metrics, units, attempted, gate, notes = traced(
        run.ROOT, "micro", 1, tmp_path / "work", tmp_path, run.BASELINE
    )
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert units == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert gate.ok, gate.problems
    assert attempted > 0 and 0 < metrics["trace.coverage"]
    trace = json.loads((tmp_path / "trace-micro-seed1.json").read_text())
    assert validate_chrome_trace(trace) == []
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {"kernel.run", "cache.put", "pool.submit", "http.hit"} <= {e["name"] for e in spans}


def test_fails_without_printing_a_result_outside_a_full_checkout(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(run.HERE), tmp_path / "perfbench")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
