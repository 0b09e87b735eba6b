"""The traced run: per-layer wall-clock metrics, measured outside-in.

The program is not instrumented.  This module calls each layer's public
functions in the order the engine calls them -- ``build_session`` ->
``run_benchmark`` -> serialize -> cache put -> store append, then cache
get -- for a seeded sample of the workload's requests, and makes pool
and HTTP round trips.  Every call gets one span (name, start, end,
parent span, request id); spans stay in memory and are written at the
end as Chrome trace-event JSON.

``trace.coverage`` is the summed layer self time per sampled job over
the wall time per job of an untraced ``Engine.run`` of the same sample.
Below 1, the gap is what the outside-in view cannot see: pool waiting
and engine bookkeeping.  Above 1, the engine overlaps parent-side
layers (cache, store) with kernels running in its worker.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.engine import Engine, ResultCache, RunRequest, ShardedRunStore, WorkerPool
from repro.engine.executor import RunResult
from repro.engine.store import make_record
from repro.metrics.serialize import canonical_report_json, report_to_dict
from repro.obs.chrome import validate_chrome_trace, write_chrome_trace
from repro.suite.registry import REGISTRY
from repro.suite.runner import run_benchmark

from gate import Gate
from host import child_env
from phases import Server
from probe import engine_config
from workloads import sample_requests, suite_round

HERE = Path(__file__).resolve().parent

#: fresh interpreters per import probe, and per BLAS probe
IMPORT_PROBES = 3
BLAS_PROBES = 4
#: an unpinned ``pcr`` this many times slower than pinned is "slow mode"
BLAS_SLOW_FACTOR = 5.0
#: walks of each default-size benchmark behind ``run_ms.<benchmark>``
DEFAULT_REPEATS = 3
#: members per ``submit_batch`` round trip
BATCH_SIZE = 8
#: pool round trips, solo and in batches
POOL_PROBES = 32
#: HTTP probes (health checks, memory hits)
HTTP_PROBES = 16
#: calls per reference function behind ``verify_ms.<benchmark>``
VERIFY_REPEATS = 5

TID_WALK, TID_POOL, TID_HTTP = 1, 2, 3
_TRACK_NAMES = {TID_WALK: "layer walk", TID_POOL: "pool round trips", TID_HTTP: "http"}

#: the layer spans a job's walk is made of (children of its root span)
WALK_LAYERS = (
    "session.build",
    "kernel.run",
    "serialize",
    "cache.put",
    "store.append",
    "cache.get",
)


class SpanLog:
    """Wall-clock spans kept in memory until the run ends."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: List[Dict] = []

    @contextmanager
    def span(self, name: str, request: str, parent: Optional[int] = None, tid: int = TID_WALK):
        record = {
            "id": len(self.spans),
            "name": name,
            "request": request,
            "parent": parent,
            "tid": tid,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        try:
            yield record["id"]
        finally:
            record["end"] = time.perf_counter()

    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus the part its direct children cover."""
        covered: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in self.spans}

    def chrome(self) -> Dict:
        events = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": "perfbench traced run (wall clock)"}},
        ]
        for tid, label in _TRACK_NAMES.items():
            events.append({"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
                           "args": {"name": label}})
        for s in self.spans:
            events.append({
                "ph": "X", "name": s["name"], "cat": "wall", "pid": 1, "tid": s["tid"],
                "ts": (s["start"] - self.origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "args": {"span": s["id"], "parent": s["parent"], "request": s["request"]},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _median_ms(seconds: List[float]) -> float:
    return statistics.median(seconds) * 1e3


def _probe(root: Path, args: List[str], *, pinned: bool = True) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), *args],
        cwd=root,
        env=child_env(root, pinned=pinned),
        capture_output=True,
        text=True,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _walk(log: SpanLog, request: RunRequest, rid: str, cache, store) -> Dict:
    """One request through the layers, in engine order; its report record."""
    with log.span("request", rid) as root:
        with log.span("session.build", rid, root):
            session = request.build_session()
        params = request.params_dict
        if request.seed is not None:
            params.setdefault("seed", request.seed)
        with log.span("kernel.run", rid, root):
            report = run_benchmark(request.benchmark, session, **params)
        with log.span("serialize", rid, root):
            record = report_to_dict(report)
            canonical_report_json(record)
        with log.span("cache.put", rid, root):
            cache.put(request, {
                "request": request.to_dict(),
                "request_hash": request.content_hash(),
                "status": "ok",
                "report": record,
            })
        with log.span("store.append", rid, root):
            store.append(make_record("traced", RunResult(
                request=request, status="ok", report_record=record, attempts=1,
            )))
        with log.span("cache.get", rid, root):
            cache.get(request)
    return record


def _layer_ms(log: SpanLog, name: str, requests: set) -> float:
    return _median_ms([
        s["end"] - s["start"]
        for s in log.spans
        if s["name"] == name and s["request"] in requests
    ])


def _verify_inputs() -> Dict[str, Callable[[], object]]:
    """Calls of each benchmark's public reference on its default inputs."""
    from repro.apps.gmo import make_panel, reference_moveout
    from repro.apps.ks_spectral import reference_step
    from repro.apps.nbody import reference_forces
    from repro.apps.pic_gather_scatter import reference_deposit
    from repro.linalg.conj_grad import make_rhs, reference_solve as cg_reference
    from repro.linalg.pcr import make_systems, reference_solve as pcr_reference

    def defaults(name):
        return REGISTRY[name].default_params

    session = RunRequest(benchmark="pcr").build_session()
    a, b, c, f = make_systems(session, n=defaults("pcr")["n"])
    cg_n = defaults("conj-grad")["n"]
    cg_f = make_rhs(RunRequest(benchmark="conj-grad").build_session(), cg_n).np
    rng = np.random.default_rng(0)
    nb = defaults("n-body")["n"]
    x, y, m = rng.uniform(-1, 1, nb), rng.uniform(-1, 1, nb), rng.uniform(0.5, 1.5, nb)
    pgs = defaults("pic-gather-scatter")
    pos = np.random.default_rng(0).uniform(0, pgs["nx"], (pgs["n_p"], 3))
    ks = defaults("ks-spectral")
    L, nx = 22.0, ks["nx"]
    xs = np.arange(nx) * (L / nx)
    u0 = np.cos(2 * np.pi * xs / L)[None, :] * (
        1.0 + 0.1 * np.random.default_rng(0).standard_normal((ks["ne"], 1))
    )
    u_hat = np.fft.fft(u0, axis=-1)
    k = 2.0 * np.pi * np.fft.fftfreq(nx, d=L / nx)
    gm = defaults("gmo")
    panel = make_panel(gm["ns"], gm["ntr"])
    shifts = [np.random.default_rng(1).uniform(0.0, 0.05, gm["ntr"]) for _ in range(4)]

    def ks_steps():
        state = u_hat
        for _ in range(ks["steps"]):
            state = reference_step(state, k, 1e-3)

    return {
        "pcr": lambda: pcr_reference(a.np, b.np, c.np, f.np),
        "conj-grad": lambda: cg_reference(cg_n, -1.0, 4.0, -0.5, cg_f),
        "n-body": lambda: reference_forces(x, y, m),
        "pic-gather-scatter": lambda: [
            reference_deposit(pos, pgs["nx"], 1.0) for _ in range(pgs["steps"])
        ],
        "ks-spectral": ks_steps,
        "gmo": lambda: [reference_moveout(panel, s, 0.004) for s in shifts],
    }


def traced(root: Path, workload: str, seed: int, workdir: Path, out: Path, baseline: Path):
    """Run every layer probe; returns (metrics, units, attempted, gate, notes).

    Its length is set by the sample sizes above, not by a time budget.
    """
    gate = Gate()
    log = SpanLog()
    metrics: Dict[str, float] = {}
    units: Dict[str, str] = {}
    attempted = 0

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = float(value)
        units[name] = unit

    # -- process start ------------------------------------------------
    for name, module in (("import.repro_s", "repro.suite.registry"),
                         ("import.engine_s", "repro.engine.executor")):
        put(name, statistics.median(
            _probe(root, ["import", module]) for _ in range(IMPORT_PROBES)
        ), "s")

    sample = sample_requests(workload, seed)
    sample_ids = {f"sample/{i}" for i in range(len(sample))}

    # -- engine.pool and engine.executor --------------------------------
    pool = WorkerPool(1)
    try:
        put("pool.warmup_s", pool.warmup(), "s")
        # the first pass fills the pool's compute-time estimates, as a
        # long-running caller's would be; the second is measured
        Engine(engine_config(workdir / "engine-warm"), pool=pool).run(sample)
        engine = Engine(engine_config(workdir / "engine"), pool=pool)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        results = engine.run(sample)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        phases = engine.last_run_stats.phases
        put("engine.parent_cpu_ms_per_job", cpu / len(sample) * 1e3, "ms")
        put("engine.batched_share", phases.get("batched_jobs", 0.0) / len(sample), "ratio")
        put("engine.batches", phases.get("batches_submitted", 0.0), "count")
        attempted += len(sample)
        # every later report of a request (pool round trip, in-process
        # walk, server answer) must equal this first, engine-made one
        for i, result in enumerate(results):
            if result.ok:
                gate.repeat(f"engine/{i}", result.request.content_hash(), result.report_record)
            else:
                gate.fail(f"engine/{i}", f"{result.status}: {result.error}")

        solo, batched = [], []
        probes = sample[:POOL_PROBES]
        for i, request in enumerate(probes):
            with log.span("pool.submit", f"sample/{i}", tid=TID_POOL):
                t0 = time.perf_counter()
                payload = pool.submit(request).result()
                solo.append(time.perf_counter() - t0 - payload["compute_time_s"])
            gate.repeat(f"pool/{i}", request.content_hash(), payload["report"])
        for start in range(0, len(probes), BATCH_SIZE):
            items = [(r, 1) for r in probes[start:start + BATCH_SIZE]]
            with log.span("pool.submit_batch", f"sample/{start}", tid=TID_POOL):
                t0 = time.perf_counter()
                members = pool.submit_batch(items).result()["members"]
                elapsed = time.perf_counter() - t0
            compute = sum(m.get("compute_time_s", 0.0) for m in members)
            batched.append((elapsed - compute) / len(items))
            for j, ((request, _), member) in enumerate(zip(items, members)):
                label = f"batch/{start + j}"
                if member.get("ok"):
                    gate.repeat(label, request.content_hash(), member["report"])
                else:
                    gate.fail(label, member.get("error", "failed"))
        attempted += 2 * len(probes)
        put("pool.solo_overhead_ms", _median_ms(solo), "ms")
        put("pool.batch_overhead_ms_per_member", _median_ms(batched), "ms")
    finally:
        pool.shutdown(wait=True)

    # -- outside-in layer walk ----------------------------------------
    cache = ResultCache(workdir / "walk-cache")
    (workdir / "walk-store").mkdir(parents=True, exist_ok=True)
    store = ShardedRunStore(workdir / "walk-store")
    defaults = {}
    for rep in range(DEFAULT_REPEATS):
        for request in suite_round(seed, 0):
            defaults[request.benchmark] = _walk(
                log, request, f"default{rep}/{request.benchmark}", cache, store
            )
            attempted += 1
    gate.baseline(defaults, baseline)
    flops = 0
    for i, request in enumerate(sample):
        label = f"sample/{i}"
        record = _walk(log, request, label, cache, store)
        attempted += 1
        flops += record["flop_count"]
        gate.observables(label, record)
        gate.repeat(label, request.content_hash(), record)
    for name in REGISTRY:
        put(f"run_ms.{name}", _layer_ms(
            log, "kernel.run", {f"default{r}/{name}" for r in range(DEFAULT_REPEATS)}
        ), "ms")
    put("kernel.sim_flops", flops, "flop")
    put("session.build_ms", _layer_ms(log, "session.build", sample_ids), "ms")
    put("serialize.ms", _layer_ms(log, "serialize", sample_ids), "ms")
    put("cache.put_ms", _layer_ms(log, "cache.put", sample_ids), "ms")
    put("cache.get_ms", _layer_ms(log, "cache.get", sample_ids), "ms")
    put("store.append_ms", _layer_ms(log, "store.append", sample_ids), "ms")
    self_times = log.self_times()
    layer_s = sum(
        self_times[s["id"]]
        for s in log.spans
        if s["name"] in WALK_LAYERS and s["request"] in sample_ids
    )
    put("trace.coverage", (layer_s / len(sample)) / (wall / len(sample)), "ratio")

    # -- host-side verification references ----------------------------
    for name, call in _verify_inputs().items():
        times = []
        for rep in range(VERIFY_REPEATS):
            with log.span("verify", f"verify{rep}/{name}"):
                t0 = time.perf_counter()
                call()
                times.append(time.perf_counter() - t0)
        put(f"verify_ms.{name}", _median_ms(times), "ms")

    # -- serve ----------------------------------------------------------
    server = Server(root, workdir / "serve")
    try:
        client = server.start()
        health = []
        for i in range(HTTP_PROBES):
            with log.span("http.health", f"health/{i}", tid=TID_HTTP):
                t0 = time.perf_counter()
                client.health()
                health.append(time.perf_counter() - t0)
        hits = []
        # the whole sample once, then its head again: those answers come
        # from the server's job memory
        for i, request in enumerate(sample + sample[:HTTP_PROBES]):
            name = "http.submit" if i < len(sample) else "http.hit"
            with log.span(name, f"sample/{i % len(sample)}", tid=TID_HTTP):
                t0 = time.perf_counter()
                payload = client.submit(request, wait=True)
                elapsed = time.perf_counter() - t0
            if name == "http.hit":
                hits.append(elapsed)
            attempted += 1
            label = f"http/{i}"
            if payload.get("report") is None:
                gate.fail(label, f"no report (job {payload.get('job')})")
            else:
                gate.repeat(label, request.content_hash(), payload["report"])
        stats = client.stats()["counters"]
    finally:
        server.stop()
    put("http.health_ms", _median_ms(health), "ms")
    put("http.hit_ms", _median_ms(hits), "ms")
    put("serve.dedupe_share",
        (stats["served_cached"] + stats["coalesced"]) / stats["submitted"], "ratio")
    put("serve.executed", stats["executed"], "count")

    # -- the open BLAS defect, in unpinned processes --------------------
    unpinned = [
        _probe(root, ["pcr", "3"], pinned=False) for _ in range(BLAS_PROBES)
    ]
    pinned_ms = metrics["run_ms.pcr"]
    put("blas.unpinned_pcr_ms", statistics.median(unpinned), "ms")
    put("blas.unpinned_slow_share",
        sum(ms > BLAS_SLOW_FACTOR * pinned_ms for ms in unpinned) / len(unpinned), "ratio")

    trace = log.chrome()
    for problem in validate_chrome_trace(trace):
        gate.fail("chrome-trace", problem)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / f"trace-{workload}-seed{seed}.json"
    write_chrome_trace(trace, trace_path)
    notes = {
        "chrome_trace": os.path.relpath(trace_path, root),
        "spans": len(log.spans),
        "sample_requests": len(sample),
        "blas_unpinned_pcr_ms": unpinned,
        "engine_wall_ms_per_job": wall / len(sample) * 1e3,
    }
    return metrics, units, attempted, gate, notes
