"""Batched-dispatch trajectory point: fidelity gate + dispatch speedups.

Measures what micro-job batch dispatch buys on a warm worker pool, then
writes a ``BENCH_*.json`` trajectory point:

* **fidelity** — the full 32-benchmark suite runs through the default
  engine (batch dispatch on) and must match the seed baseline at
  tolerance 0, per metric;
* **dispatch series** — suite and micro-job (64 small n-body requests)
  throughput through the same warm single-worker pool, measured twice:
  once with solo dispatch (``EngineConfig(batch=False)``, one IPC round
  trip per job) and once with the default batched dispatch.  Best-of-N
  walls; the micro series is the regime batching targets and is gated
  at >= MIN_MICRO_SPEEDUP;
* **heavy subset** — BENCH_pr3's fastpath subset re-measured with the
  same method ("best of 5 cold-cache in-process runs, jobs=1"); gated
  to be no slower than the committed PR 3 wall (+ noise margin).

    PYTHONPATH=src python benchmarks/engine_batching.py --out BENCH_pr8.json

The solo arm is ``EngineConfig(batch=False)`` on the *current* tree,
so it understates the full speedup over older code: the data-path work
that rode along with batching (``fast_roll``, in-place stencils, comm
pricing memo) benefits both arms.  ``docs/PERF.md`` records the
cross-tree comparison against a PR 7 checkout.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from repro.engine import Engine, EngineConfig, compare_benchmarks, plan_suite  # noqa: E402
from repro.engine.jobs import RunRequest, execute_request  # noqa: E402
from repro.engine.pool import WorkerPool  # noqa: E402
from repro.engine.stats import load_baseline_file, trajectory_point  # noqa: E402

BASELINE = Path(__file__).resolve().parent / "baselines" / "seed_suite_bench.json"
PR3_BENCH = Path(__file__).resolve().parents[1] / "BENCH_pr3.json"

#: live solo-vs-batched micro-job gate (the committed point measures
#: ~2.2x; the live gate sits below that to absorb shared-runner noise)
MIN_MICRO_SPEEDUP = 1.8

#: heavy subset may not regress past PR 3's wall by more than this
HEAVY_MARGIN = 1.10

#: BENCH_pr3 fastpath subset, identical params and method
HEAVY_SUBSET = [
    ("diff-2d", {"nx": 32, "steps": 400}),
    ("diff-3d", {"nx": 16, "steps": 200}),
    ("wave-1d", {"nx": 128, "steps": 400}),
    ("conj-grad", {"n": 2048}),
    ("n-body", {"n": 128, "variant": "cshift"}),
]


#: probe run inside a PR 7 checkout (``--pr7-src``): that tree's
#: *default* engine is the solo dispatcher, so no toggles needed
PR7_PROBE = """\
import json, sys, time
from repro.engine.executor import Engine, EngineConfig
from repro.engine.plan import plan_suite
from repro.engine.pool import WorkerPool
from repro.engine.jobs import RunRequest

reps, micro_jobs = int(sys.argv[1]), int(sys.argv[2])
suite = plan_suite()
micro = [
    RunRequest(benchmark="n-body", params={"n": 12 + (i % 8)})
    for i in range(micro_jobs)
]
pool = WorkerPool(workers=1)
engine = Engine(EngineConfig(jobs=2), pool=pool)
engine.run(micro[:16])
engine.run(suite)

def best(requests):
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        results = engine.run(requests)
        walls.append(time.perf_counter() - t0)
        assert all(r.status == "ok" for r in results)
    return min(walls)

out = {"suite_wall_s": best(suite), "micro_wall_s": best(micro)}
pool.shutdown()
print(json.dumps(out))
"""


def probe_pr7(pr7_src: Path, reps: int, micro_jobs: int):
    """Measure a PR 7 checkout's warm-pool walls in a subprocess."""
    env = {**os.environ, "PYTHONPATH": str(pr7_src)}
    env.pop("REPRO_ENGINE_BATCH", None)
    proc = subprocess.run(
        [sys.executable, "-c", PR7_PROBE, str(reps), str(micro_jobs)],
        env=env, check=True, capture_output=True, text=True, timeout=600,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def micro_requests(jobs: int):
    """Small n-body requests: ~0.4 ms of simulated work each."""
    return [
        RunRequest(benchmark="n-body", params={"n": 12 + (i % 8)}) for i in range(jobs)
    ]


def timed_run(engine: Engine, requests) -> float:
    """Wall of one ``engine.run``; asserts every job succeeded."""
    started = time.perf_counter()
    results = engine.run(requests)
    wall = time.perf_counter() - started
    bad = [r for r in results if r.status != "ok"]
    assert not bad, f"{len(bad)} failures, first: {bad[0].error}"
    return wall


def measure_dispatch(suite, micro, reps: int):
    """Best-of-``reps`` suite/micro walls, solo vs batched dispatch.

    The solo arm ships every job in its own IPC round trip
    (``EngineConfig(batch=False)``); the batched arm is the default
    engine.  Both engines stay warm for the whole measurement and the
    arms alternate within each rep, so load or clock-frequency drift
    hits them evenly instead of biasing whichever arm ran last.
    """
    solo_pool = WorkerPool(workers=1)
    solo = Engine(EngineConfig(jobs=2, batch=False), pool=solo_pool)
    batched_pool = WorkerPool(workers=1)
    batched = Engine(EngineConfig(jobs=2), pool=batched_pool)
    for engine in (solo, batched):
        engine.run(micro[:16])  # warm: spawn worker, seed the EWMA
        engine.run(suite)

    walls = {key: float("inf") for key in ("ss", "bs", "sm", "bm")}
    for _ in range(reps):
        walls["ss"] = min(walls["ss"], timed_run(solo, suite))
        walls["bs"] = min(walls["bs"], timed_run(batched, suite))
        walls["sm"] = min(walls["sm"], timed_run(solo, micro))
        walls["bm"] = min(walls["bm"], timed_run(batched, micro))
    solo_pool.shutdown()
    batched_pool.shutdown()
    return walls["ss"], walls["bs"], walls["sm"], walls["bm"]


def run_suite_checked(store_dir: Path):
    """Default-config warm-pool suite run; (stats, check report)."""
    pool = WorkerPool(workers=1)
    engine = Engine(EngineConfig(jobs=2, store=store_dir), pool=pool)
    results = engine.run(plan_suite())
    pool.shutdown()
    bad = [r for r in results if r.status != "ok"]
    assert not bad, f"{len(bad)} failures, first: {bad[0].error}"
    stats = engine.last_run_stats
    report = compare_benchmarks(
        stats.benchmarks, load_baseline_file(BASELINE), tolerance_pct=0.0
    )
    return stats, report


def measure_heavy(reps: int = 5) -> float:
    """BENCH_pr3 fastpath-subset wall: best-of-``reps`` in-process."""
    requests = [
        RunRequest(benchmark=name, params=params) for name, params in HEAVY_SUBSET
    ]
    for request in requests:  # warm imports and numpy paths
        execute_request(request)
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        for request in requests:
            execute_request(request)
        best = min(best, time.perf_counter() - started)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="BENCH_pr8.json", metavar="PATH")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--micro-jobs", type=int, default=64)
    parser.add_argument(
        "--pr7-src", metavar="PATH", default=None,
        help="src/ of a PR 7 checkout (e.g. a git worktree) to probe for "
        "the cross-tree reference series embedded in the point",
    )
    args = parser.parse_args()

    suite = plan_suite()
    micro = micro_requests(args.micro_jobs)

    with tempfile.TemporaryDirectory() as tmp:
        stats, report = run_suite_checked(Path(tmp) / "runs")
    check_ok = report.ok and not report.missing
    print(
        f"engine check vs seed baseline (tolerance 0): "
        f"{'ok' if check_ok else 'FAILED'} "
        f"({len(report.regressions)} regressions, {len(report.missing)} missing)"
    )

    solo_suite, batched_suite, solo_micro, batched_micro = measure_dispatch(
        suite, micro, args.reps
    )
    suite_speedup = solo_suite / batched_suite
    micro_speedup = solo_micro / batched_micro
    print(
        f"suite ({len(suite)} jobs): solo {len(suite) / solo_suite:.1f} "
        f"-> batched {len(suite) / batched_suite:.1f} jobs/s "
        f"({suite_speedup:.2f}x)"
    )
    print(
        f"micro ({len(micro)} jobs): solo {len(micro) / solo_micro:.1f} "
        f"-> batched {len(micro) / batched_micro:.1f} jobs/s "
        f"({micro_speedup:.2f}x)"
    )

    heavy_wall = measure_heavy()
    pr3 = json.loads(PR3_BENCH.read_text()) if PR3_BENCH.exists() else {}
    pr3_wall = pr3.get("fastpath_subset", {}).get("wall_s")
    heavy_ok = pr3_wall is None or heavy_wall <= pr3_wall * HEAVY_MARGIN
    print(
        f"heavy subset: {heavy_wall:.3f}s vs PR 3 "
        f"{pr3_wall if pr3_wall is None else round(pr3_wall, 3)}s "
        f"({'ok' if heavy_ok else 'REGRESSED'})"
    )

    point = trajectory_point(stats)
    point["check"] = {
        "baseline": str(BASELINE.relative_to(Path(__file__).resolve().parents[1])),
        "tolerance_pct": 0.0,
        "ok": check_ok,
        "regressions": len(report.regressions),
        "missing": report.missing,
    }
    point["batching"] = {
        "workers": 1,
        "reps": args.reps,
        "suite_jobs": len(suite),
        "suite_solo_jobs_per_s": round(len(suite) / solo_suite, 1),
        "suite_batched_jobs_per_s": round(len(suite) / batched_suite, 1),
        "suite_speedup_x": round(suite_speedup, 2),
        "micro_jobs": len(micro),
        "micro_solo_jobs_per_s": round(len(micro) / solo_micro, 1),
        "micro_batched_jobs_per_s": round(len(micro) / batched_micro, 1),
        "micro_speedup_x": round(micro_speedup, 2),
        "method": (
            "best-of-reps walls through one warm single-worker pool each; "
            "solo arm = EngineConfig(batch=False) on this tree (understates "
            "the cross-tree PR 7 comparison in docs/PERF.md)"
        ),
    }
    if args.pr7_src:
        pr7_walls = probe_pr7(Path(args.pr7_src), args.reps, len(micro))
        pr7_suite_rate = len(suite) / pr7_walls["suite_wall_s"]
        pr7_micro_rate = len(micro) / pr7_walls["micro_wall_s"]
        point["batching"]["pr7_code_reference"] = {
            "suite_jobs_per_s": round(pr7_suite_rate, 1),
            "micro_jobs_per_s": round(pr7_micro_rate, 1),
            "suite_speedup_x": round(
                (len(suite) / batched_suite) / pr7_suite_rate, 2
            ),
            "micro_speedup_x": round(
                (len(micro) / batched_micro) / pr7_micro_rate, 2
            ),
            "method": (
                "same probe run against the PR 7 checkout's default engine "
                "(solo dispatch, pre-PR-8 data paths) on the same host"
            ),
        }
        print(
            f"vs PR 7 code: suite "
            f"{point['batching']['pr7_code_reference']['suite_speedup_x']}x, "
            f"micro "
            f"{point['batching']['pr7_code_reference']['micro_speedup_x']}x"
        )
    point["heavy_subset"] = {
        "benchmarks": [name for name, _ in HEAVY_SUBSET],
        "params": {name: params for name, params in HEAVY_SUBSET},
        "wall_s": heavy_wall,
        "pr3_wall_s": pr3_wall,
        "margin": HEAVY_MARGIN,
        "method": "best of 5 cold-cache in-process runs, jobs=1",
    }
    Path(args.out).write_text(
        json.dumps(point, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    print(f"trajectory point written to {args.out}")

    gates_ok = check_ok and heavy_ok and micro_speedup >= MIN_MICRO_SPEEDUP
    if micro_speedup < MIN_MICRO_SPEEDUP:
        print(
            f"FAILED: micro-job speedup {micro_speedup:.2f}x "
            f"< {MIN_MICRO_SPEEDUP}x gate"
        )
    return 0 if gates_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
