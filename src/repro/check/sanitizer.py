"""Runtime FLOP/comm sanitizer: charged vs actually-executed.

The static linter proves structure; this module proves *numbers*.  An
:class:`AuditSession` runs a benchmark normally but

* re-views every ``DistArray`` payload as a thin ``np.ndarray``
  subclass whose ``__array_ufunc__`` shadow-counts the NumPy
  operations actually executed on distributed data (and whose
  ``__array_function__`` observes data movement: roll, transpose,
  take, ...), and
* splits the charged side into comparable buckets at the
  :class:`~repro.metrics.recorder.MetricsRecorder` hooks.

Per region the audit then diffs, under the paper's FLOP weights:

``elementwise``
    ``charge_flops`` with ``count > 1`` vs executed ufunc applications.
    Scalar bookkeeping (``count == 1``: CG step coefficients and the
    like, executed on Python floats the wrapper cannot see) is exempt
    and reported separately.
``reduction``
    ``charge_raw_flops`` / ``charge_reduction_flops`` vs executed
    ``ufunc.reduce/accumulate`` at ``N - 1`` ops per result (matching
    ``FlopCounter.add_raw`` semantics).  Boolean reductions (any/all)
    are uncharged by convention and skipped.
``kernel``
    ``Session.charge_kernel`` totals are *declared*: they stand in for
    math executed on raw (unobservable) arrays, e.g. the n-body
    interaction kernel.  They are reported as coverage, not diffed.

**Over-execution** (executed > charged) is uncharged work — a real
accounting bug — and drives the gated discrepancy ratio.
**Under-execution** is reported per bucket: for fully-audited
benchmarks it must be zero; for kernel-style benchmarks it shows up as
the declared-kernel coverage note instead.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.array.distarray import DistArray
from repro.machine.session import Session
from repro.metrics.flops import FlopKind, flop_cost, reduction_flops
from repro.metrics.recorder import MetricsRecorder

#: ufunc name -> FlopKind charged for one application per element.
UFUNC_KINDS: Dict[str, FlopKind] = {
    "add": FlopKind.ADD,
    "subtract": FlopKind.SUB,
    "negative": FlopKind.SUB,
    "conjugate": FlopKind.SUB,
    "multiply": FlopKind.MUL,
    "square": FlopKind.MUL,
    "matmul": FlopKind.MUL,
    "divide": FlopKind.DIV,
    "true_divide": FlopKind.DIV,
    "floor_divide": FlopKind.DIV,
    "reciprocal": FlopKind.DIV,
    "sqrt": FlopKind.SQRT,
    "cbrt": FlopKind.SQRT,
    "exp": FlopKind.EXP,
    "exp2": FlopKind.EXP,
    "expm1": FlopKind.EXP,
    "log": FlopKind.LOG,
    "log2": FlopKind.LOG,
    "log10": FlopKind.LOG,
    "log1p": FlopKind.LOG,
    "sin": FlopKind.TRIG,
    "cos": FlopKind.TRIG,
    "tan": FlopKind.TRIG,
    "arcsin": FlopKind.TRIG,
    "arccos": FlopKind.TRIG,
    "arctan": FlopKind.TRIG,
    "arctan2": FlopKind.TRIG,
    "sinh": FlopKind.TRIG,
    "cosh": FlopKind.TRIG,
    "tanh": FlopKind.TRIG,
    "hypot": FlopKind.TRIG,
    "power": FlopKind.POW,
    "float_power": FlopKind.POW,
    "absolute": FlopKind.ABS,
    "fabs": FlopKind.ABS,
    "maximum": FlopKind.COMPARE,
    "minimum": FlopKind.COMPARE,
    "fmax": FlopKind.COMPARE,
    "fmin": FlopKind.COMPARE,
    "greater": FlopKind.COMPARE,
    "greater_equal": FlopKind.COMPARE,
    "less": FlopKind.COMPARE,
    "less_equal": FlopKind.COMPARE,
    "equal": FlopKind.COMPARE,
    "not_equal": FlopKind.COMPARE,
    "sign": FlopKind.COMPARE,
}

#: ufuncs that move/copy/classify but do not execute FLOPs.
UFUNC_IGNORED = {
    "isnan",
    "isinf",
    "isfinite",
    "signbit",
    "logical_and",
    "logical_or",
    "logical_not",
    "logical_xor",
    "bitwise_and",
    "bitwise_or",
    "bitwise_xor",
    "invert",
    "left_shift",
    "right_shift",
    "rint",
    "floor",
    "ceil",
    "trunc",
    "copysign",
    "nextafter",
    "spacing",
    "mod",
    "remainder",
    "positive",
}

#: array functions counted as data movement (RC003's runtime twin).
#: ``concatenate`` is here because ``repro.array.roll.fast_roll`` spells
#: a circular shift as two slices + concatenate.
MOVEMENT_FUNCS = {
    "roll",
    "concatenate",
    "transpose",
    "swapaxes",
    "moveaxis",
    "rollaxis",
    "take",
    "put",
    "repeat",
}

#: the active audit collector (benchmarks are single-threaded).
_ACTIVE: List["_AuditCollector"] = []


@dataclass
class _RegionTally:
    """Charged-vs-executed accumulators for one region name."""

    # charged
    charged_ops: Dict[Tuple[FlopKind, bool], int] = field(
        default_factory=dict
    )
    scalar_ops: Dict[FlopKind, int] = field(default_factory=dict)
    charged_reduction: int = 0
    declared_kernel: int = 0
    # executed
    executed_ops: Dict[Tuple[FlopKind, bool], int] = field(
        default_factory=dict
    )
    executed_reduction: int = 0
    executed_movement: Dict[str, int] = field(default_factory=dict)
    unmapped: Dict[str, int] = field(default_factory=dict)

    def charged_elementwise_weighted(self) -> int:
        return sum(
            flop_cost(kind, n, complex_valued=cv)
            for (kind, cv), n in self.charged_ops.items()
        )

    def executed_elementwise_weighted(self) -> int:
        return sum(
            flop_cost(kind, n, complex_valued=cv)
            for (kind, cv), n in self.executed_ops.items()
        )

    def over_weighted(self) -> int:
        """Weighted ops executed beyond what was charged (uncharged work)."""
        over = 0
        keys = set(self.charged_ops) | set(self.executed_ops)
        for key in keys:
            kind, cv = key
            extra = self.executed_ops.get(key, 0) - self.charged_ops.get(
                key, 0
            )
            if extra > 0:
                over += flop_cost(kind, extra, complex_valued=cv)
        extra_red = self.executed_reduction - self.charged_reduction
        if extra_red > 0:
            over += extra_red
        return over

    def under_weighted(self) -> int:
        """Weighted charged-but-unobserved elementwise ops."""
        under = 0
        for key, n in self.charged_ops.items():
            kind, cv = key
            missing = n - self.executed_ops.get(key, 0)
            if missing > 0:
                under += flop_cost(kind, missing, complex_valued=cv)
        return under

    def under_reduction(self) -> int:
        return max(0, self.charged_reduction - self.executed_reduction)


class _AuditCollector:
    """Routes charge hooks and execution intercepts into tallies."""

    def __init__(self) -> None:
        self.tallies: Dict[str, _RegionTally] = {}
        self.recorder: Optional[MetricsRecorder] = None

    def _tally(self) -> _RegionTally:
        name = (
            self.recorder.current.name
            if self.recorder is not None
            else "<none>"
        )
        tally = self.tallies.get(name)
        if tally is None:
            tally = self.tallies[name] = _RegionTally()
        return tally

    # -- charged side ---------------------------------------------------
    def note_charge(
        self, kind: FlopKind, count: int, complex_valued: bool
    ) -> None:
        tally = self._tally()
        if count == 1:
            tally.scalar_ops[kind] = tally.scalar_ops.get(kind, 0) + 1
        else:
            key = (kind, complex_valued)
            tally.charged_ops[key] = tally.charged_ops.get(key, 0) + count

    def note_raw(self, flops: int, *, kernel: bool) -> None:
        tally = self._tally()
        if kernel:
            tally.declared_kernel += flops
        else:
            tally.charged_reduction += flops

    # -- executed side --------------------------------------------------
    def note_exec(
        self, kind: FlopKind, count: int, complex_valued: bool
    ) -> None:
        if count <= 0:
            return
        key = (kind, complex_valued)
        tally = self._tally()
        tally.executed_ops[key] = tally.executed_ops.get(key, 0) + count

    def note_exec_reduction(self, ops: int) -> None:
        if ops > 0:
            self._tally().executed_reduction += ops

    def note_movement(self, func_name: str) -> None:
        tally = self._tally()
        tally.executed_movement[func_name] = (
            tally.executed_movement.get(func_name, 0) + 1
        )

    def note_unmapped(self, name: str, count: int) -> None:
        tally = self._tally()
        tally.unmapped[name] = tally.unmapped.get(name, 0) + count


class _AuditArray(np.ndarray):
    """ndarray subclass that shadow-counts executed operations.

    Arithmetic is delegated to plain ndarray views (no recursion, no
    behavior change); when an ``out=`` argument is supplied the
    *original* out object is returned so identity checks in callers
    (e.g. ``repro.array.fused._finish``) keep working.
    """

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        out = kwargs.get("out")
        plain_inputs = tuple(
            i.view(np.ndarray) if isinstance(i, _AuditArray) else i
            for i in inputs
        )
        if out is not None:
            kwargs["out"] = tuple(
                o.view(np.ndarray) if isinstance(o, _AuditArray) else o
                for o in out
            )
        result = getattr(ufunc, method)(*plain_inputs, **kwargs)
        if _ACTIVE:
            _count_ufunc(_ACTIVE[-1], ufunc, method, plain_inputs, result)
        if out is not None:
            return out[0] if len(out) == 1 else out
        if isinstance(result, np.ndarray) and not isinstance(
            result, _AuditArray
        ):
            return result.view(_AuditArray)
        return result

    def __array_function__(self, func, types, args, kwargs):
        if _ACTIVE and func.__name__ in MOVEMENT_FUNCS:
            _ACTIVE[-1].note_movement(func.__name__)
        return super().__array_function__(func, types, args, kwargs)


def _result_size(result) -> int:
    if isinstance(result, tuple):
        result = result[0]
    if isinstance(result, np.ndarray):
        return int(result.size)
    return 1


def _count_ufunc(
    collector: _AuditCollector, ufunc, method: str, inputs, result
) -> None:
    name = ufunc.__name__
    if name in UFUNC_IGNORED:
        return
    first = next((i for i in inputs if isinstance(i, np.ndarray)), None)
    if method in ("reduce", "accumulate", "reduceat"):
        if first is None or first.dtype.kind == "b":
            return  # any/all-style reductions are uncharged by convention
        if method == "accumulate":
            lanes = first.size // max(1, first.shape[0]) or 1
            ops = first.size - lanes
        else:
            ops = first.size - _result_size(result)
        collector.note_exec_reduction(ops)
        return
    if method not in ("__call__", "outer"):
        return
    kind = UFUNC_KINDS.get(name)
    if name == "power" or name == "float_power":
        exponent = inputs[1] if len(inputs) > 1 else None
        if isinstance(exponent, (int, float)) and exponent == 2:
            kind = FlopKind.MUL
    n = _result_size(result)
    if kind is None:
        collector.note_unmapped(name, n)
        return
    complex_valued = False
    res0 = result[0] if isinstance(result, tuple) else result
    if isinstance(res0, np.ndarray) and res0.dtype.kind == "c":
        complex_valued = True
    elif first is not None and first.dtype.kind == "c":
        complex_valued = True
    collector.note_exec(kind, n, complex_valued)


class _AuditRecorder(MetricsRecorder):
    """Recorder that mirrors every charge into the audit collector."""

    def __init__(self, collector: _AuditCollector) -> None:
        super().__init__()
        self.collector = collector
        self.kernel_depth = 0
        collector.recorder = self

    def charge_flops(
        self, kind: FlopKind, count: int, *, complex_valued: bool = False
    ) -> None:
        super().charge_flops(kind, count, complex_valued=complex_valued)
        self.collector.note_charge(kind, count, complex_valued)

    def charge_raw_flops(self, flops: int) -> None:
        super().charge_raw_flops(flops)
        self.collector.note_raw(flops, kernel=self.kernel_depth > 0)

    def charge_reduction(self, n_elements: int, n_results: int = 1) -> None:
        super().charge_reduction(n_elements, n_results)
        self.collector.note_raw(
            reduction_flops(n_elements, n_results), kernel=False
        )


class AuditSession(Session):
    """A session whose run is shadow-audited.

    Use via :func:`audit_benchmark` or directly::

        session = AuditSession(machine)
        with session.auditing():
            run_benchmark("diff-1d", session)
        report = session.audit_report()
    """

    def __init__(self, machine, *, tier=None, **kwargs) -> None:
        collector = _AuditCollector()
        recorder = _AuditRecorder(collector)
        if tier is not None:
            kwargs["tier"] = tier
        super().__init__(machine, recorder=recorder, **kwargs)
        self.collector = collector

    def charge_kernel(self, flops: int, **kwargs) -> None:
        rec = self.recorder
        rec.kernel_depth += 1
        try:
            super().charge_kernel(flops, **kwargs)
        finally:
            rec.kernel_depth -= 1

    @contextmanager
    def auditing(self) -> Iterator[None]:
        """Activate payload interception for the duration of a run."""
        with _audit_scope(self.collector):
            yield

    def audit_report(self, benchmark: str = "") -> "AuditReport":
        """Build the charged-vs-executed report for this session."""
        return AuditReport.from_collector(
            self.collector, benchmark=benchmark
        )


@contextmanager
def _audit_scope(collector: _AuditCollector) -> Iterator[None]:
    """Patch DistArray so payloads are audited and ``.np`` is exempt."""
    orig_init = DistArray.__init__
    orig_np = DistArray.np

    def audit_init(self, data, layout, session, name: str = "") -> None:
        orig_init(self, data, layout, session, name)
        payload = self.data
        if (
            isinstance(payload, np.ndarray)
            and not isinstance(payload, _AuditArray)
            and payload.dtype.kind in "fc"
        ):
            self.data = payload.view(_AuditArray)

    def plain_np(self) -> np.ndarray:
        payload = self.data
        if isinstance(payload, _AuditArray):
            return payload.view(np.ndarray)
        return payload

    DistArray.__init__ = audit_init  # type: ignore[method-assign]
    DistArray.np = property(plain_np)  # type: ignore[assignment]
    _ACTIVE.append(collector)
    try:
        yield
    finally:
        _ACTIVE.pop()
        DistArray.__init__ = orig_init  # type: ignore[method-assign]
        DistArray.np = orig_np  # type: ignore[assignment]


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass
class RegionAudit:
    """Charged-vs-executed summary for one region."""

    name: str
    charged_elementwise: int
    executed_elementwise: int
    charged_reduction: int
    executed_reduction: int
    declared_kernel: int
    scalar_exempt_ops: int
    over: int
    under_elementwise: int
    under_reduction: int
    movement_observed: int
    comm_recorded: int
    unmapped: Dict[str, int]

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "charged_elementwise": self.charged_elementwise,
            "executed_elementwise": self.executed_elementwise,
            "charged_reduction": self.charged_reduction,
            "executed_reduction": self.executed_reduction,
            "declared_kernel": self.declared_kernel,
            "scalar_exempt_ops": self.scalar_exempt_ops,
            "over": self.over,
            "under_elementwise": self.under_elementwise,
            "under_reduction": self.under_reduction,
            "movement_observed": self.movement_observed,
            "comm_recorded": self.comm_recorded,
            "unmapped": dict(self.unmapped),
        }


@dataclass
class AuditReport:
    """Whole-run sanitizer verdict.

    ``over_pct`` is the gated metric: weighted FLOPs executed on
    distributed payloads but never charged, as a percentage of all
    charged FLOPs.  ``under_pct`` covers charged-but-unobserved
    elementwise work (should be zero for fully-audited benchmarks;
    declared kernels are excluded by construction).
    """

    benchmark: str
    regions: List[RegionAudit]

    @classmethod
    def from_collector(
        cls, collector: _AuditCollector, benchmark: str = ""
    ) -> "AuditReport":
        regions: List[RegionAudit] = []
        comm_counts: Dict[str, int] = {}
        if collector.recorder is not None:
            for region in collector.recorder.root.walk():
                comm_counts[region.name] = (
                    comm_counts.get(region.name, 0) + region.comm_count
                )
        for name, tally in sorted(collector.tallies.items()):
            regions.append(
                RegionAudit(
                    name=name,
                    charged_elementwise=tally.charged_elementwise_weighted(),
                    executed_elementwise=(
                        tally.executed_elementwise_weighted()
                    ),
                    charged_reduction=tally.charged_reduction,
                    executed_reduction=tally.executed_reduction,
                    declared_kernel=tally.declared_kernel,
                    scalar_exempt_ops=sum(tally.scalar_ops.values()),
                    over=tally.over_weighted(),
                    under_elementwise=tally.under_weighted(),
                    under_reduction=tally.under_reduction(),
                    movement_observed=sum(
                        tally.executed_movement.values()
                    ),
                    comm_recorded=comm_counts.get(name, 0),
                    unmapped=dict(tally.unmapped),
                )
            )
        return cls(benchmark=benchmark, regions=regions)

    # -- totals ---------------------------------------------------------
    @property
    def charged_total(self) -> int:
        return sum(
            r.charged_elementwise + r.charged_reduction + r.declared_kernel
            for r in self.regions
        )

    @property
    def executed_total(self) -> int:
        return sum(
            r.executed_elementwise + r.executed_reduction
            for r in self.regions
        )

    @property
    def over_total(self) -> int:
        return sum(r.over for r in self.regions)

    @property
    def under_total(self) -> int:
        return sum(r.under_elementwise for r in self.regions)

    @property
    def kernel_total(self) -> int:
        return sum(r.declared_kernel for r in self.regions)

    @property
    def over_pct(self) -> float:
        """Uncharged executed work as a % of charged FLOPs (gated)."""
        return 100.0 * self.over_total / max(1, self.charged_total)

    @property
    def under_pct(self) -> float:
        """Charged-but-unobserved elementwise work as a % of charged."""
        return 100.0 * self.under_total / max(1, self.charged_total)

    @property
    def unmapped_total(self) -> int:
        return sum(sum(r.unmapped.values()) for r in self.regions)

    def ok(self, tolerance_pct: float, *, strict: bool = False) -> bool:
        """Gate verdict: over-execution within tolerance.

        ``strict`` additionally gates under-execution and unmapped
        ufuncs — only meaningful for benchmarks whose math is fully
        observable (no ``charge_kernel`` on raw arrays).
        """
        if self.over_pct > tolerance_pct:
            return False
        if strict and (
            self.under_pct > tolerance_pct or self.unmapped_total > 0
        ):
            return False
        return True

    def table(self) -> str:
        """Human-readable per-region report."""
        lines: List[str] = []
        header = (
            f"{'region':<18} {'charged':>12} {'executed':>12} "
            f"{'kernel':>10} {'over':>8} {'under':>8} "
            f"{'moves':>6} {'comm':>6}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for r in self.regions:
            lines.append(
                f"{r.name:<18} "
                f"{r.charged_elementwise + r.charged_reduction:>12} "
                f"{r.executed_elementwise + r.executed_reduction:>12} "
                f"{r.declared_kernel:>10} {r.over:>8} "
                f"{r.under_elementwise + r.under_reduction:>8} "
                f"{r.movement_observed:>6} {r.comm_recorded:>6}"
            )
        lines.append(
            f"total charged={self.charged_total} "
            f"executed={self.executed_total} "
            f"declared-kernel={self.kernel_total} "
            f"over={self.over_total} ({self.over_pct:.3f}%) "
            f"under={self.under_total} ({self.under_pct:.3f}%)"
        )
        if self.unmapped_total:
            names = sorted(
                {n for r in self.regions for n in r.unmapped}
            )
            lines.append(
                f"warning: {self.unmapped_total} op(s) from unmapped "
                f"ufunc(s): {', '.join(names)}"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "charged_total": self.charged_total,
            "executed_total": self.executed_total,
            "kernel_total": self.kernel_total,
            "over_total": self.over_total,
            "over_pct": self.over_pct,
            "under_total": self.under_total,
            "under_pct": self.under_pct,
            "unmapped_total": self.unmapped_total,
            "regions": [r.to_dict() for r in self.regions],
        }


def audit_benchmark(
    name: str,
    machine=None,
    *,
    params: Optional[Dict[str, object]] = None,
    tier=None,
) -> AuditReport:
    """Run one registered benchmark under the sanitizer.

    Returns the :class:`AuditReport`; the benchmark executes exactly as
    in a normal run (the audit wrapper delegates all arithmetic), so
    its reported metrics are unchanged.
    """
    from repro.machine.presets import cm5
    from repro.suite.runner import run_benchmark

    if machine is None:
        machine = cm5(32)
    session = AuditSession(machine, tier=tier)
    with session.auditing():
        run_benchmark(name, session, **(params or {}))
    return session.audit_report(benchmark=name)
