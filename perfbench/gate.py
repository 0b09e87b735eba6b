"""Correctness gate of the benchmark.

A result counts as correct only when

* suite round 0 matches the seed baseline exactly (4 gated metrics x
  32 benchmarks = 128 values, tolerance 0);
* every verification observable with a stated tolerance is within it;
* a seeded sample of pool and server reports is canonical-JSON
  identical to in-process ``execute_request`` of the same request;
* a repeated serve request returns the report of its first answer.

Every mismatch is one failed request; the benchmark then exits non-zero.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Mapping, Set

from repro.engine.jobs import RunRequest, execute_request
from repro.metrics.serialize import canonical_report_json, report_to_dict

#: the per-benchmark metrics the seed baseline pins
BASELINE_METRICS = (
    "busy_floprate_mflops",
    "busy_time_s",
    "elapsed_time_s",
    "flop_count",
)

#: upper bounds on the absolute value of verification observables.
#: Direct float64 checks (solves, transforms, conservation) sit near
#: 1e-15 and get 1e-9; iterative solvers stop at about 1e-8 and get
#: 1e-6; the transport LP is solved to about 1e-5; energy drift is an
#: integrator property (wave-1d about 1e-3); qmc is a Monte Carlo
#: estimate within about 12% of the exact energy.  Observables not
#: named here (checksums, energies, counts) are covered by the
#: identity check instead.
TOLERANCES: Dict[str, float] = {
    **dict.fromkeys(
        (
            "anti_hermiticity",
            "charge_conservation_error",
            "deposit_error",
            "eigenvalue_error",
            "fft_error",
            "field_error",
            "force_error",
            "force_error_vs_direct",
            "gather_error",
            "interpolation_error",
            "lstsq_error",
            "matmul_error",
            "matvec_error",
            "operator_error",
            "reference_error",
            "solve_error",
        ),
        1e-9,
    ),
    **dict.fromkeys(("residual", "residual_normal", "off_norm"), 1e-6),
    **dict.fromkeys(
        ("supply_violation", "demand_violation", "min_norm_error"), 1e-3
    ),
    "energy_drift": 1e-2,
    "relative_error": 0.5,
}


class Gate:
    """Tally of failed requests and the problems found.

    Problems are keyed by a request label, so a request that fails two
    checks still counts as one failed request.
    """

    def __init__(self) -> None:
        self.problems: List[str] = []
        self.failed_labels: Set[str] = set()
        self._first_answers: Dict[str, str] = {}

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def failed(self) -> int:
        return len(self.failed_labels)

    def fail(self, label: str, message: str) -> None:
        self.failed_labels.add(label)
        self.problems.append(f"{label}: {message}")

    def observables(self, label: str, record: Mapping) -> None:
        """Check one report record's observables against TOLERANCES."""
        for name, value in record.get("observables", {}).items():
            tol = TOLERANCES.get(name)
            if tol is None:
                continue
            if not (isinstance(value, (int, float)) and abs(value) <= tol):
                self.fail(label, f"observable {name}={value!r} exceeds {tol:g}")

    def baseline(self, records: Mapping[str, Mapping], path: Path) -> int:
        """Compare round-0 records with the seed baseline; values matched."""
        with open(path, encoding="utf-8") as fh:
            expected = json.load(fh)["benchmarks"]
        matched = 0
        for name, metrics in sorted(expected.items()):
            label = f"round0/{name}"
            record = records.get(name)
            if record is None:
                self.fail(label, "no report")
                continue
            for metric in BASELINE_METRICS:
                if record.get(metric) == metrics.get(metric):
                    matched += 1
                else:
                    self.fail(
                        label,
                        f"{metric} = {record.get(metric)!r}, "
                        f"baseline {metrics.get(metric)!r}",
                    )
        return matched

    def identical(self, label: str, request: RunRequest, record: Mapping) -> None:
        """Re-run ``request`` in process; its report must be identical."""
        reference = canonical_report_json(report_to_dict(execute_request(request)))
        if canonical_report_json(dict(record)) != reference:
            self.fail(label, f"{request.describe()} differs from in-process run")

    def repeat(self, label: str, request_hash: str, record: Mapping) -> None:
        """A request answered twice must get its first report again."""
        digest = hashlib.sha256(
            canonical_report_json(dict(record)).encode("utf-8")
        ).hexdigest()
        if self._first_answers.setdefault(request_hash, digest) != digest:
            self.fail(label, "answered with a report other than its first")
