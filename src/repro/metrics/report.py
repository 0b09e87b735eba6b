"""Benchmark performance reports (paper §1.5).

Each DPF code produces: busy time, elapsed time, busy FLOP rate and
elapsed FLOP rate, and is quantified by FLOP count, arithmetic
efficiency, memory usage, communication patterns, operation count per
iteration, communication count per iteration and local-memory-access
pattern.  :class:`PerfReport` packages exactly those quantities, with
per-segment sub-reports for the benchmarks the paper times in pieces
(boson, fem-3D, md, qr, lu, diff-1D, diff-2D, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.metrics.access import LocalAccess
from repro.metrics.flops import FlopKind, merge_counters
from repro.metrics.memory import TypeTag
from repro.metrics.patterns import CommPattern
from repro.metrics.recorder import MetricsRecorder, Region


@dataclass
class SegmentReport:
    """Metrics for one named code segment (a recorder region)."""

    name: str
    iterations: int
    flop_count: int
    busy_time: float
    elapsed_time: float
    comm_counts: Dict[CommPattern, int]
    network_bytes: int

    @property
    def busy_floprate_mflops(self) -> float:
        """(3) Busy FLOP rate in MFLOP/s."""
        return self.flop_count / self.busy_time / 1e6 if self.busy_time > 0 else 0.0

    @property
    def elapsed_floprate_mflops(self) -> float:
        """(4) Elapsed FLOP rate in MFLOP/s."""
        return (
            self.flop_count / self.elapsed_time / 1e6 if self.elapsed_time > 0 else 0.0
        )

    @property
    def flops_per_iteration(self) -> float:
        """FLOPs divided by main-loop iterations."""
        return self.flop_count / self.iterations

    def comm_per_iteration(self) -> Dict[CommPattern, float]:
        """Pattern counts per main-loop iteration."""
        return {p: c / self.iterations for p, c in self.comm_counts.items()}


@dataclass
class PerfReport:
    """Full per-benchmark performance record."""

    benchmark: str
    version: str
    problem_size: int
    busy_time: float
    elapsed_time: float
    flop_count: int
    memory_bytes: int
    memory_by_tag: Dict[TypeTag, int]
    comm_counts: Dict[CommPattern, int]
    network_bytes: int
    local_access: LocalAccess
    iterations: int = 1
    peak_mflops: Optional[float] = None
    segments: List[SegmentReport] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)
    #: per-:class:`FlopKind` breakdown — ``{kind: {"ops": raw operation
    #: count, "flops": cost-weighted FLOPs}}``; the weighted values sum
    #: exactly to :attr:`flop_count` (empty for reports rebuilt from
    #: records that predate the breakdown)
    flop_kinds: Dict[FlopKind, Dict[str, int]] = field(default_factory=dict)

    # -- §1.5 performance metrics (1)-(4) -------------------------------
    @property
    def busy_floprate_mflops(self) -> float:
        """(3) Busy FLOP rate in MFLOP/s."""
        return self.flop_count / self.busy_time / 1e6 if self.busy_time > 0 else 0.0

    @property
    def elapsed_floprate_mflops(self) -> float:
        """(4) Elapsed FLOP rate in MFLOP/s."""
        return (
            self.flop_count / self.elapsed_time / 1e6 if self.elapsed_time > 0 else 0.0
        )

    # -- §1.5 attributes (2), (5), (6) ----------------------------------
    @property
    def arithmetic_efficiency(self) -> Optional[float]:
        """(2) Busy FLOP rate over the machine's aggregate peak rate."""
        if self.peak_mflops is None or self.peak_mflops <= 0:
            return None
        return self.busy_floprate_mflops / self.peak_mflops

    @property
    def ops_per_point(self) -> float:
        """(5) Operation count per data point (FLOPs / problem size)."""
        return self.flop_count / self.problem_size if self.problem_size else 0.0

    @property
    def flops_per_iteration(self) -> float:
        """FLOPs divided by main-loop iterations."""
        return self.flop_count / self.iterations

    def comm_per_iteration(self) -> Dict[CommPattern, float]:
        """(6) Communication counts per main-loop iteration."""
        return {p: c / self.iterations for p, c in self.comm_counts.items()}

    def segment(self, name: str) -> SegmentReport:
        """Look up a segment report by (path) name."""
        for seg in self.segments:
            if seg.name == name:
                return seg
        raise KeyError(f"no segment named {name!r} in report for {self.benchmark}")

    # -- construction ----------------------------------------------------
    @classmethod
    def from_recorder(
        cls,
        benchmark: str,
        version: str,
        recorder: MetricsRecorder,
        *,
        problem_size: int,
        local_access: LocalAccess,
        iterations: int = 1,
        peak_mflops: Optional[float] = None,
        main_region: str | None = "main_loop",
    ) -> "PerfReport":
        """Assemble a report from a completed recorder session.

        ``iterations`` defaults to the iteration count of the region
        named ``main_region`` when present, matching the paper's
        per-main-loop-iteration attributes.
        """
        root = recorder.root
        main = root.find(main_region) if main_region else None
        iters = main.iterations if main is not None else iterations
        # Flatten the region tree into path-named segments; the paper
        # reports segment metrics for several benchmarks (boson,
        # fem-3D, md, mdcell, qcd-kernel, qptransport, step4 — §1.5),
        # and those segments nest inside the main loop.
        segments = []
        for child in root.children:
            segments.extend(_segments_from_tree(child, prefix=""))
        merged = merge_counters(r.flops for r in root.walk())
        weighted = merged.weighted_by_kind
        flop_kinds = {
            kind: {"ops": ops, "flops": weighted.get(kind, 0)}
            for kind, ops in sorted(merged.operations.items())
        }
        return cls(
            benchmark=benchmark,
            version=version,
            problem_size=problem_size,
            busy_time=root.busy_time,
            elapsed_time=root.elapsed_time,
            flop_count=root.total_flops,
            memory_bytes=recorder.memory.total_bytes,
            memory_by_tag=recorder.memory.by_tag(),
            comm_counts=(main or root).comm_counts(),
            network_bytes=root.network_bytes,
            local_access=local_access,
            iterations=max(1, iters),
            peak_mflops=peak_mflops,
            segments=segments,
            flop_kinds=flop_kinds,
        )

    def summary(self) -> str:
        """Human-readable summary in the style of DPF output files."""
        lines = [
            f"benchmark      : {self.benchmark} ({self.version})",
            f"problem size   : {self.problem_size}",
            f"busy time      : {self.busy_time:.6f} s",
            f"elapsed time   : {self.elapsed_time:.6f} s",
            f"busy floprate  : {self.busy_floprate_mflops:.2f} MFLOP/s",
            f"elapsed floprate: {self.elapsed_floprate_mflops:.2f} MFLOP/s",
            f"flop count     : {self.flop_count}",
            f"memory usage   : {self.memory_bytes} bytes",
            f"ops/point      : {self.ops_per_point:.2f}",
            f"local access   : {self.local_access.value}",
        ]
        eff = self.arithmetic_efficiency
        if eff is not None:
            lines.append(f"arith. eff.    : {100 * eff:.2f} %")
        if self.comm_counts:
            per_iter = self.comm_per_iteration()
            comm = ", ".join(
                f"{per_iter[p]:g} {p.value}" for p in sorted(per_iter, key=lambda q: q.value)
            )
            lines.append(f"comm/iteration : {comm}")
        for seg in self.segments:
            lines.append(
                f"  segment {seg.name}: busy {seg.busy_time:.6f} s, "
                f"elapsed {seg.elapsed_time:.6f} s, "
                f"{seg.busy_floprate_mflops:.2f} MFLOP/s"
            )
        return "\n".join(lines)


def _segment_from_region(region: Region, name: str | None = None) -> SegmentReport:
    return SegmentReport(
        name=name if name is not None else region.name,
        iterations=region.iterations,
        flop_count=region.total_flops,
        busy_time=region.busy_time,
        elapsed_time=region.elapsed_time,
        comm_counts=region.comm_counts(),
        network_bytes=region.network_bytes,
    )


def _segments_from_tree(region: Region, prefix: str) -> List[SegmentReport]:
    """Depth-first segment list with '/'-joined path names.

    Parent segments are inclusive of their children (a parent's totals
    cover the whole subtree), matching how the paper reports a
    benchmark's constituents alongside the whole.
    """
    path = f"{prefix}/{region.name}" if prefix else region.name
    out = [_segment_from_region(region, path)]
    for child in region.children:
        out.extend(_segments_from_tree(child, path))
    return out
