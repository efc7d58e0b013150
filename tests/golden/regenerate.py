"""Rewrite the golden records from the current source.

    PYTHONPATH=src python tests/golden/regenerate.py

Run from the repository root, and only when an output is meant to change.
"""
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import test_golden  # noqa: E402

for path in HERE.glob("*.txt"):
    path.unlink()
with tempfile.TemporaryDirectory() as tmp:
    os.chdir(tmp)
    for name, argv in test_golden.cases():
        (HERE / f"{name}.txt").write_text(test_golden.record(argv))
    (HERE / "torus-plot.svg").write_text(Path(test_golden.PLOT).read_text())
