"""Regenerate pinned.json: the records the oracle compares against where no
closed form exists (README commands outside ``oracle.CLI_CLOSED_FORM``, and
the crossing tables of the fixed surfaces).  Run from the repository root at the commit whose
outputs are to be pinned:

    PYTHONPATH=src python3 perfbench/pin.py
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

from horoteich import cli, curvegraph, origami

import jobs
import oracle

HERE = os.path.dirname(os.path.abspath(__file__))


def cli_records():
    out = {}
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for argv in jobs.README_COMMANDS:
            if argv[0] in oracle.CLI_CLOSED_FORM:
                continue
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                status = cli.run([a.replace("{tmp}", tmp) for a in argv])
            if status != 0:
                raise SystemExit(f"{argv[0]} exited with {status}")
            out[argv[0]] = oracle.pinned_form(json.loads(buf.getvalue())["results"])
    return out


def fixed_tables():
    out = {}
    for name in ("L", "staircase"):
        o = origami.build_origami(*jobs.SURFACES[name])
        ids, traces = [], []
        for d in (origami.HORIZONTAL, origami.VERTICAL):
            for k, c in enumerate(origami.cylinders(o, d)):
                ids.append(f"{d[0]}{k}")
                traces.append(origami.core_trace(o, c))
        for s in jobs.TABLE_SLOPES:
            ids.append("s:" + s)
            traces.append(origami.robust_trace(o, 0, None if s == "vert" else Fraction(s)))
        cs = curvegraph.curve_set_from_traces(ids, traces)
        out[name] = {"ids": ids, "matrix": [list(r) for r in cs.i_matrix]}
    return out


def main():
    pinned = {"cli": cli_records(), "tables": fixed_tables()}
    with open(os.path.join(HERE, "pinned.json"), "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
