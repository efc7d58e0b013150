"""Golden records: the README commands and the CI's input-error and far-start
rows, run in process through ``cli.run``, print what ``tests/golden/`` holds.

Each case's file is its exit status, its stderr and its stdout with the
timestamp stripped; the README's ``torus-plot`` command also writes the SVG
in ``torus-plot.svg``.  ``python tests/golden/regenerate.py`` rewrites them
all; a change that alters one names each changed field and why.
"""
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from horoteich import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
PLOT = "plot.svg"  # the file the README's torus-plot command writes


def _rows(step):
    """The argument rows of the CI step ``step``'s here-document."""
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    body = re.search(rf"name: {step}\n.*?<<'EOF'\n(.*?)\n *EOF\n", text, re.S).group(1)
    return [shlex.split(line) for line in body.splitlines()]


def cases():
    """(name, argv) for every golden case, in a fixed order."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Command line"):text.index("## Acceptance")]
    readme = [shlex.split(line)[1:] for line in section.splitlines()
              if line.startswith("horoteich ")]
    groups = (("readme", readme),
              ("input-error", _rows("Input errors exit 1 with one error line")),
              ("far-start", _rows("Far-start calls via the horoteich entry point")))
    return [(f"{group}-{k:02d}-{argv[0]}", argv)
            for group, rows in groups for k, argv in enumerate(rows, 1)]


def record(argv):
    """What one call prints: its exit status, stderr and stripped stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.run(argv)
    stdout = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', out.getvalue())
    return f"exit {status}\n--- stderr\n{err.getvalue()}--- stdout\n{stdout}"


def test_golden_cases_cover_the_readme_and_ci_rows():
    names = [name for name, _ in cases()]
    assert len(names) == len(set(names))
    assert sum(name.startswith("readme-") for name in names) == 15
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(names)


@pytest.mark.parametrize("name, argv", cases(), ids=[name for name, _ in cases()])
def test_golden_record(name, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert record(argv) == (GOLDEN / f"{name}.txt").read_text()
    if name.startswith("readme-") and argv[0] == "torus-plot":
        assert (tmp_path / PLOT).read_text() == (GOLDEN / "torus-plot.svg").read_text()
