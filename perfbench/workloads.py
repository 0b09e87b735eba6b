"""Seeded request generators, one per workload.

Every generator is a pure function of the workload seed: the same seed
gives the same request list, and the program only ever sees the
generated requests.  Why each workload exists:

* ``suite`` -- rounds of all 32 registry benchmarks at their default
  sizes.  Kernels and host-side verification dominate (about 8 ms per
  job against about 1 ms of dispatch).
* ``micro`` -- a flood of sub-millisecond requests.  Parent-side
  dispatch dominates: batch packing, pickling, report serialization,
  cache put and store append.
* ``serve`` -- a closed-loop stream over all 32 benchmarks in which
  about 40% of requests repeat an earlier one, so HTTP, admission,
  dedupe and the disk cache are exercised.
"""

from __future__ import annotations

import random
from typing import List

from repro.engine.jobs import RunRequest
from repro.suite.registry import REGISTRY

#: benchmarks whose later requests vary the node count instead of the
#: seed.  The diffusion benchmarks take no seed.  Two benchmarks fail on
#: about 1 seed in 300, open program defects that would make runs fail
#: at random: mdcell's random placement overflows its fixed cell
#: capacity (``RuntimeError: cell capacity 6 exceeded``), and
#: qptransport's fixed 40-iteration solve leaves supply violations up
#: to 0.85 (its verification reports it; tolerance 1e-3).
NODE_VARIED = ("diff-1d", "diff-2d", "diff-3d", "mdcell", "qptransport")

#: the micro mix: (benchmark, params), every entry well under 1 ms
MICRO_MIX = (
    ("n-body", {"n": 12}),
    ("fft", {"n": 64}),
    ("reduction", {"n": 1024}),
    ("gather", {"n": 1024}),
    ("transpose", {"n": 16}),
    ("matrix-vector", {"n": 16}),
)

#: share of serve requests that repeat an earlier request
SERVE_REPEAT_SHARE = 0.4


def _rng(*parts: object) -> random.Random:
    # string seeds hash with SHA-512, so they are stable across runs
    # and independent of PYTHONHASHSEED
    return random.Random(":".join(str(p) for p in parts))


def suite_round(seed: int, index: int) -> List[RunRequest]:
    """Round ``index`` of the suite workload: one request per benchmark.

    Round 0 is the default suite (it must match the seed baseline
    exactly).  Later rounds give each benchmark a seed derived from the
    workload seed, and the ``NODE_VARIED`` ones a node count unique to
    the round, so no request of a run repeats.
    """
    if index == 0:
        return [RunRequest(benchmark=name) for name in REGISTRY]
    rng = _rng("suite", seed, index)
    node_base = 32 + _rng("suite-nodes", seed).randrange(1, 4096)
    requests = []
    for name in REGISTRY:
        if name in NODE_VARIED:
            requests.append(RunRequest(benchmark=name, nodes=node_base + index))
        else:
            requests.append(
                RunRequest(benchmark=name, seed=rng.randrange(1, 2**31))
            )
    return requests


def micro_requests(seed: int, start: int, count: int) -> List[RunRequest]:
    """Requests ``start .. start+count-1`` of the micro flood.

    Request ``i`` runs ``MICRO_MIX[i % 6]`` with seed ``base + i``, so
    every request of a run is distinct and any slice is reproducible.
    """
    base = _rng("micro", seed).randrange(1, 2**30)
    out = []
    for i in range(start, start + count):
        name, params = MICRO_MIX[i % len(MICRO_MIX)]
        out.append(RunRequest(benchmark=name, params=params, seed=base + i))
    return out


def serve_stream(seed: int, count: int) -> List[RunRequest]:
    """The serve request stream: new requests mixed with repeats.

    New requests walk the 32 benchmarks in a shuffled order (reshuffled
    every pass) at default sizes; each repeat is drawn uniformly from
    the new requests generated before it.
    """
    rng = _rng("serve", seed)
    nodes = 32 + rng.randrange(1, 4096)
    order: List[str] = []
    fresh: List[RunRequest] = []
    stream: List[RunRequest] = []
    for _ in range(count):
        if fresh and rng.random() < SERVE_REPEAT_SHARE:
            stream.append(rng.choice(fresh))
            continue
        if not order:
            order = list(REGISTRY)
            rng.shuffle(order)
        name = order.pop()
        if name in NODE_VARIED:
            nodes += 1
            request = RunRequest(benchmark=name, nodes=nodes)
        else:
            request = RunRequest(benchmark=name, seed=rng.randrange(1, 2**31))
        fresh.append(request)
        stream.append(request)
    return stream


def latency_cycle(workload: str, seed: int, index: int) -> List[RunRequest]:
    """Cycle ``index`` of the solo-latency phase of ``suite`` or ``micro``.

    A cycle is one whole pass over the workload mix (32 benchmarks, or
    the six micro kinds), every request new, so a percentile over whole
    cycles always covers the same mix.
    """
    if workload == "suite":
        # rounds far above any the throughput phase reaches: no overlap
        return suite_round(seed, 10_000 + index)
    if workload == "micro":
        size = len(MICRO_MIX)
        return micro_requests(seed, (1 << 20) + index * size, size)
    raise ValueError(f"no solo-latency phase for workload {workload!r}")


def sample_requests(workload: str, seed: int) -> List[RunRequest]:
    """The seeded sample the traced run walks layer by layer."""
    if workload == "suite":
        return suite_round(seed, 1)
    if workload == "micro":
        return micro_requests(seed, 0, 20 * len(MICRO_MIX))
    if workload == "serve":
        return serve_stream(seed, 96)
    raise ValueError(f"unknown workload {workload!r}")
