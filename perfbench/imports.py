"""Set-up time: seconds to import the package in a fresh process.

Samples are taken between jobs, spread evenly over a run, so the median
covers the run's whole stretch of machine speed rather than one moment.
"""
from __future__ import annotations

import subprocess
import sys

IMPORT_STMT = {
    "cli-cold": "import horoteich.cli",
    "torus-sweep": "import horoteich.torus, horoteich.horolab, horoteich.kernel",
    "origami-sweep": "import horoteich.origami, horoteich.curvegraph, horoteich.horolab, "
                     "horoteich.kernel",
}
SAMPLES = (7, 2)  # per run: (full, tiny)
TIMEOUT_S = 60


def time_import(workload, cwd=None, env=None) -> float:
    """One fresh interpreter importing the workload's modules; the import
    alone is timed, not the interpreter's start-up."""
    code = f"import time; t = time.perf_counter(); {IMPORT_STMT[workload]}; " \
           "print(time.perf_counter() - t)"
    p = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True,
                       text=True, timeout=TIMEOUT_S)
    if p.returncode != 0:
        raise RuntimeError(f"import failed: {p.stderr.strip()[-300:]}")
    return float(p.stdout)


def positions(total_jobs, tiny):
    """Job indices to take a sample before, one per sample, evenly spread."""
    k = SAMPLES[1] if tiny else SAMPLES[0]
    return [i * total_jobs // k for i in range(k)]
