"""Importing repro pins BLAS thread pools unless the user already chose.

Runs in fresh interpreters: the pin has to happen before numpy loads,
and this test process imported numpy long ago.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _seen_after_import(preset=None) -> dict:
    """The BLAS variables a fresh ``import repro`` leaves behind."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    env.update(preset or {})
    code = (
        "import json, os, repro; "
        f"print(json.dumps({{v: os.environ.get(v) for v in {BLAS_VARS!r}}}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(out.stdout)


def test_unset_variables_are_pinned_to_one():
    assert _seen_after_import() == {var: "1" for var in BLAS_VARS}


def test_preset_variable_wins():
    seen = _seen_after_import({"OPENBLAS_NUM_THREADS": "4"})
    assert seen == {
        "OPENBLAS_NUM_THREADS": "4",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
