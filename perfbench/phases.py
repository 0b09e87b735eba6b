"""The timed phases of an untraced run, and the server they share.

Only calls into the program are timed: correctness checks run between
batches and after each phase, outside every timed region.

Host speed drifts by about +-15% in episodes of a few seconds, and in
some episodes 2-3% of sub-10 ms requests take over 10 ms.  A run is
therefore cut into ``SLICES`` slices, each holding one fresh set-up and
a share of every timed phase, and every metric is the median of its
per-slice values: an episode that spans a minority of the slices does
not move it.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine import Engine, RunRequest, WorkerPool
from repro.serve import ServeClient, ServeError

from gate import Gate
from host import child_env, peak_rss_mb
from probe import engine_config

HERE = Path(__file__).resolve().parent

#: slices per run; each holds one fresh set-up
SLICES = 6

#: latencies per slice at least, so a slice's p95 has ten samples beyond it
MIN_SLICE_SAMPLES = 200

#: requests per ``Engine.run`` in the micro flood; fixed so the parent's
#: memory does not grow with throughput
MICRO_CHUNK = 1000

#: requests checked against in-process execution per run
IDENTITY_SAMPLE = 32

#: closed-loop clients of the serve workload: callers that each wait
#: for their reply, two so that dedupe can coalesce in-flight requests
SERVE_CLIENTS = 2


def _percentile_ms(latencies_s: Sequence[float], q: int) -> float:
    return statistics.quantiles(latencies_s, n=100)[q - 1] * 1e3


@dataclass
class Slice:
    """One slice's share of the timed phases."""

    setup_s: float = 0.0
    jobs: int = 0
    seconds: float = 0.0
    latencies_s: List[float] = field(default_factory=list)


@dataclass
class Outcome:
    """What the timed phases measured, plus the requests to re-check."""

    slices: List[Slice] = field(default_factory=list)
    attempted: int = 0
    #: (label, request, report record) triples for the identity check
    sample: List[Tuple[str, RunRequest, Dict]] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def new_slice(self) -> Slice:
        self.slices.append(Slice())
        return self.slices[-1]

    def metrics(self) -> Dict[str, float]:
        """Every end-to-end metric: the median of its per-slice values."""
        def med(values):
            return statistics.median(list(values))

        return {
            "setup_s": med(s.setup_s for s in self.slices),
            "jobs_per_s": med(s.jobs / s.seconds for s in self.slices),
            "latency_p50_ms": med(_percentile_ms(s.latencies_s, 50) for s in self.slices),
            "latency_p95_ms": med(_percentile_ms(s.latencies_s, 95) for s in self.slices),
            "peak_rss_mb": self.peak_rss_mb,
        }


def check_results(gate: Gate, label: str, results, outcome: Outcome) -> None:
    for result in results:
        tag = f"{label}/{result.index}"
        if not result.ok or result.report_record is None:
            gate.fail(tag, f"{result.request.describe()} {result.status}: {result.error}")
            continue
        gate.observables(tag, result.report_record)
        # round 0 is pinned by the baseline; sample the seeded requests
        if label != "round0" and len(outcome.sample) < IDENTITY_SAMPLE:
            outcome.sample.append((tag, result.request, result.report_record))


def engine_throughput(
    engine: Engine,
    batches: Iterator[Tuple[str, List[RunRequest]]],
    seconds: float,
    gate: Gate,
    outcome: Outcome,
    part: Slice,
    on_batch: Optional[Callable[[str, list], None]] = None,
) -> None:
    """Run whole batches until ``Engine.run`` time in ``part`` reaches ``seconds``."""
    while part.seconds < seconds:
        label, requests = next(batches)
        started = time.perf_counter()
        results = engine.run(requests)
        part.seconds += time.perf_counter() - started
        part.jobs += sum(1 for r in results if r.ok)
        outcome.attempted += len(requests)
        check_results(gate, label, results, outcome)
        if on_batch is not None:
            on_batch(label, results)


def engine_latency(
    engine: Engine,
    cycles: Iterator[List[RunRequest]],
    seconds: float,
    gate: Gate,
    outcome: Outcome,
    part: Slice,
) -> None:
    """Closed loop of one caller sending each request alone.

    Each request's latency is the wall time of its own ``Engine.run``,
    which is what a caller running one benchmark through the engine
    waits for.  Whole cycles of the workload mix run until ``seconds``
    have passed and ``MIN_SLICE_SAMPLES`` latencies are recorded.
    """
    started = time.perf_counter()
    while (
        len(part.latencies_s) < MIN_SLICE_SAMPLES
        or time.perf_counter() - started < seconds
    ):
        for request in next(cycles):
            label = f"solo{outcome.attempted}"
            t0 = time.perf_counter()
            results = engine.run([request])
            part.latencies_s.append(time.perf_counter() - t0)
            outcome.attempted += 1
            check_results(gate, label, results, outcome)


class Server:
    """A ``repro serve --jobs 1`` subprocess with a store and cache dir."""

    def __init__(self, root: Path, workdir: Path) -> None:
        self.root = root
        self.workdir = workdir
        self.proc: Optional[subprocess.Popen] = None
        self.client: Optional[ServeClient] = None

    def start(self) -> ServeClient:
        """Start the server; returns a client once its socket is bound."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--host", "127.0.0.1", "--port", "0", "--jobs", "1",
                "--store", str(self.workdir / "store"),
                "--cache-dir", str(self.workdir / "cache"),
            ],
            cwd=self.root,
            env=child_env(self.root),
            stdout=subprocess.PIPE,
            text=True,
        )
        banner = self.proc.stdout.readline()
        if not banner.startswith("repro serve on "):
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")
        host, port = banner.split()[3].rsplit(":", 1)
        self.client = ServeClient(host, int(port), timeout=120.0)
        return self.client

    def stop(self) -> None:
        """Ask the server to shut down and wait until it has exited."""
        if self.proc is None:
            return
        try:
            if self.client is not None and self.proc.poll() is None:
                self.client.shutdown()
            self.proc.communicate(timeout=60)
        except (OSError, ServeError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.communicate()
        finally:
            self.proc = None


def serve_closed_loop(
    client: ServeClient,
    stream: Sequence[RunRequest],
    seconds: float,
    gate: Gate,
    outcome: Outcome,
    part: Slice,
    cursor: Iterator[int],
) -> None:
    """``SERVE_CLIENTS`` threads, each sending its next request after a reply.

    Requests are taken from ``stream`` in ``cursor`` order, which later
    slices continue.  Latency is timed from send to reply; a refusal,
    error or failed check counts as failed.
    """
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds
    sampled = {request.content_hash() for _, request, _ in outcome.sample}

    def loop() -> None:
        while time.perf_counter() < deadline:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            request = stream[index]
            label = f"serve/{index}"
            t0 = time.perf_counter()
            try:
                payload = client.submit(request, wait=True)
                error = None
            except (ServeError, OSError) as exc:
                payload, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            with lock:
                outcome.attempted += 1
                if error is None and payload.get("report") is None:
                    error = f"no report (job {payload.get('job')})"
                if error is not None:
                    gate.fail(label, error)
                    continue
                part.jobs += 1
                part.latencies_s.append(latency)
                record = payload["report"]
                key = request.content_hash()
                gate.observables(label, record)
                gate.repeat(label, key, record)
                if len(sampled) < IDENTITY_SAMPLE and key not in sampled:
                    sampled.add(key)
                    outcome.sample.append((label, request, record))

    started = time.perf_counter()
    threads = [threading.Thread(target=loop) for _ in range(SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    part.seconds += time.perf_counter() - started


def setup_seconds(workload: str, root: Path, workdir: Path, first: RunRequest) -> float:
    """Fresh process start to the first answered request, in seconds.

    ``suite`` and ``micro`` start a fresh benchmark interpreter that
    imports ``repro``, spawns and warms a 1-worker pool and runs one
    request through ``Engine.run``; ``serve`` starts ``repro serve`` and
    submits one request over HTTP.
    """
    if workload == "serve":
        server = Server(root, workdir)
        started = time.perf_counter()
        try:
            payload = server.start().submit(first, wait=True)
            elapsed = time.perf_counter() - started
        finally:
            server.stop()
        if payload.get("report") is None:
            raise RuntimeError(f"setup request failed: {payload.get('job')}")
        return elapsed
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), "setup", str(workdir), first.canonical()],
        cwd=root,
        env=child_env(root),
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - started
    proc.communicate(timeout=60)
    if line.strip() != "ok" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {line!r}, exit {proc.returncode}")
    return elapsed


def run_engine_workload(
    root: Path,
    workload: str,
    first: RunRequest,
    batches: Iterator[Tuple[str, List[RunRequest]]],
    cycles: Iterator[List[RunRequest]],
    seconds: float,
    workdir: Path,
    gate: Gate,
    on_batch: Optional[Callable[[str, list], None]] = None,
) -> Outcome:
    """Per slice: one fresh set-up, then throughput, then solo latency.

    Throughput and latency each get half of a slice's share of ``seconds``.
    """
    outcome = Outcome()
    share = seconds / 2 / SLICES
    pool = WorkerPool(1)
    try:
        pool.warmup()
        engine = Engine(engine_config(workdir / "engine"), pool=pool)
        for k in range(SLICES):
            part = outcome.new_slice()
            part.setup_s = setup_seconds(workload, root, workdir / f"setup{k}", first)
            engine_throughput(engine, batches, share, gate, outcome, part, on_batch)
            engine_latency(engine, cycles, share, gate, outcome, part)
        outcome.peak_rss_mb = peak_rss_mb()
    finally:
        pool.shutdown(wait=True)
    return outcome


def run_serve_workload(
    root: Path,
    first: RunRequest,
    warmup: Sequence[RunRequest],
    stream: Sequence[RunRequest],
    seconds: float,
    workdir: Path,
    gate: Gate,
) -> Tuple[Outcome, Dict[str, Dict]]:
    """Untimed warm-up requests, then per slice one set-up and a closed loop.

    The warm-up sends each benchmark once, so the timed tail is not set
    by first-call costs inside the fresh worker.  Returns the outcome
    and the warm-up reports by benchmark.
    """
    outcome = Outcome()
    server = Server(root, workdir / "serve")
    try:
        client = server.start()
        warm = {}
        for request in warmup:
            report = client.submit(request, wait=True).get("report")
            if report is not None:
                warm[request.benchmark] = report
        cursor = iter(range(len(stream)))
        for k in range(SLICES):
            part = outcome.new_slice()
            part.setup_s = setup_seconds("serve", root, workdir / f"setup{k}", first)
            serve_closed_loop(client, stream, seconds / SLICES, gate, outcome, part, cursor)
        outcome.peak_rss_mb = peak_rss_mb()
    finally:
        server.stop()
    return outcome, warm
