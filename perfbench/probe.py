"""Fresh-interpreter probes started by the benchmark.

    python perfbench/probe.py setup WORKDIR REQUEST_JSON
        import repro, spawn and warm a 1-worker pool, run REQUEST_JSON
        through Engine.run, print "ok" once it is answered
    python perfbench/probe.py import MODULE
        print the seconds ``import MODULE`` takes
    python perfbench/probe.py pcr REPEATS
        print the median ms of REPEATS ``pcr`` runs after one warm-up run

The caller sets the environment (BLAS pinning, PYTHONPATH).
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from pathlib import Path


def engine_config(workdir: Path):
    """One worker, a fresh result cache and a fresh sharded store."""
    from repro.engine import EngineConfig

    store = workdir / "store"
    store.mkdir(parents=True, exist_ok=True)  # a directory opens sharded
    return EngineConfig(jobs=1, cache_dir=workdir / "cache", store=store)


def setup(workdir: str, request_json: str) -> int:
    from repro.engine import Engine, RunRequest, WorkerPool

    request = RunRequest.from_dict(json.loads(request_json))
    pool = WorkerPool(1)
    try:
        pool.warmup()
        engine = Engine(engine_config(Path(workdir)), pool=pool)
        (result,) = engine.run([request])
        print("ok" if result.ok else f"failed: {result.error}", flush=True)
    finally:
        pool.shutdown(wait=True)
    return 0 if result.ok else 1


def import_seconds(module: str) -> int:
    started = time.perf_counter()
    importlib.import_module(module)
    print(repr(time.perf_counter() - started))
    return 0


def pcr_ms(repeats: int) -> int:
    from repro.engine import RunRequest
    from repro.suite.runner import run_benchmark

    request = RunRequest(benchmark="pcr")
    times = []
    for _ in range(repeats + 1):
        session = request.build_session()
        started = time.perf_counter()
        run_benchmark("pcr", session)
        times.append(time.perf_counter() - started)
    print(repr(statistics.median(times[1:]) * 1e3))
    return 0


def main(argv) -> int:
    mode, *args = argv
    if mode == "setup":
        return setup(*args)
    if mode == "import":
        return import_seconds(*args)
    if mode == "pcr":
        return pcr_ms(int(args[0]))
    raise SystemExit(f"unknown probe {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
