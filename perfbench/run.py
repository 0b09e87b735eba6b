"""The benchmark command.

    python3 perfbench/run.py --workload {suite,micro,serve} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` makes the separate traced run
that times each layer's public functions (see ``traced.py``).  Both
print a human-readable report (host fingerprint, metrics with units,
correctness verdict) and, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
record lands in ``.perfbench/``.  The exit code is non-zero on any
correctness failure, and 2 when the checkout holds no program sources.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import host

# BLAS threads are pinned before anything imports numpy; see host.py
host.pin_blas(os.environ)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
BASELINE = ROOT / "benchmarks" / "baselines" / "seed_suite_bench.json"

#: serve requests generated per run; far more than a run can send
SERVE_STREAM_LENGTH = 20_000

#: (name, unit) of every end-to-end metric, in report order
END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("suite", "micro", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def warm_imports() -> None:
    """Untimed: import ``repro`` once in a throwaway interpreter.

    After a source edit this compiles the ``.pyc`` files, a cost users
    pay once, so it stays out of ``setup_s``.
    """
    subprocess.run(
        [sys.executable, "-c", "import repro.suite.registry, repro.cli, repro.serve"],
        cwd=ROOT,
        env=host.child_env(ROOT),
        check=True,
    )


def untraced(workload: str, seed: int, seconds: float, workdir: Path):
    """Measure the end-to-end metrics; returns (metrics, attempted, gate, notes)."""
    from gate import Gate
    from phases import MICRO_CHUNK, run_engine_workload, run_serve_workload
    from workloads import latency_cycle, micro_requests, serve_stream, suite_round

    gate = Gate()
    notes = {}
    if workload == "serve":
        stream = serve_stream(seed, SERVE_STREAM_LENGTH)
        outcome, warm = run_serve_workload(
            ROOT, stream[0], suite_round(seed, 0), stream, seconds, workdir, gate
        )
        notes["baseline_exact"] = f"{gate.baseline(warm, BASELINE)}/128"
        notes["latency"] = "client-observed submit(wait=True), 2 closed-loop clients"
    else:
        if workload == "suite":
            batches = (
                (f"round{r}", suite_round(seed, r)) for r in itertools.count()
            )
        else:
            batches = (
                (f"chunk{c}", micro_requests(seed, c * MICRO_CHUNK, MICRO_CHUNK))
                for c in itertools.count()
            )
        cycles = (latency_cycle(workload, seed, n) for n in itertools.count())

        def on_batch(label, results):
            if label == "round0":
                records = {r.request.benchmark: r.report_record for r in results if r.ok}
                notes["baseline_exact"] = f"{gate.baseline(records, BASELINE)}/128"

        first = suite_round(seed, 0)[0] if workload == "suite" else micro_requests(seed, 0, 1)[0]
        outcome = run_engine_workload(
            ROOT, workload, first, batches, cycles, seconds, workdir, gate, on_batch
        )
        notes["latency"] = "Engine.run of one request at a time, 1 closed-loop caller"

    for label, request, record in outcome.sample:
        gate.identical(label, request, record)
    notes["identity_checked"] = len(outcome.sample)
    notes["slices"] = [
        {"setup_s": part.setup_s, "jobs": part.jobs, "seconds": part.seconds,
         "latency_samples": len(part.latencies_s)}
        for part in outcome.slices
    ]
    metrics = outcome.metrics()
    return metrics, outcome.attempted, gate, notes


def emit(fingerprint, metrics, units, attempted, gate, notes) -> dict:
    """Print the human-readable report; returns the result object."""
    print("host " + json.dumps(fingerprint, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    ratio = gate.failed / attempted
    print(f"  {'failed_ratio':40s} {ratio:14.6g} 1 ({gate.failed}/{attempted} attempted)")
    for key, value in notes.items():
        print(f"  note {key}: {value}")
    print(f"correctness: {'PASS' if gate.ok else 'FAIL'} ({len(gate.problems)} problem(s))")
    for problem in gate.problems[:20]:
        print(f"  {problem}")
    return {
        "correct": gate.ok,
        "attempted": attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not BASELINE.is_file():
        print(
            f"perfbench: no program sources under {ROOT}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    loadavg = list(os.getloadavg())
    started = time.perf_counter()
    warm_imports()
    fingerprint = host.fingerprint(args.seed, loadavg)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.trace:
            from traced import traced

            metrics, units, attempted, gate, notes = traced(
                ROOT, args.workload, args.seed, workdir, OUT, BASELINE
            )
        else:
            metrics, attempted, gate, notes = untraced(
                args.workload, args.seed, args.seconds, workdir
            )
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    result = emit(fingerprint, metrics, units, attempted, gate, notes)
    print(f"wall {time.perf_counter() - started:.1f} s")
    OUT.mkdir(exist_ok=True)
    record = {**result, "host": fingerprint, "notes": notes, "problems": gate.problems}
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0 if gate.ok else 1


if __name__ == "__main__":
    sys.exit(main())
