"""Golden CLI outputs: stdout, the --output file and the exit code of
every case in golden/cases.json, compared byte for byte.

Each case's expected record lives in golden/<name>.txt. To regenerate
records from the code on the path (only when an output change is
intended, and say so in the change log), run

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

which rewrites the named cases only, or every case when no name is
given. An unknown name is refused before anything is written.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

import cavity_grover.cli as cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def render(argv, tmp):
    """Run one argv in process; return its record as text."""
    argv = [a.format(golden=GOLDEN, tmp=tmp) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    text = f"exit {code}\n--- stdout\n{out.getvalue()}"
    for arg in argv:
        if arg.startswith("--output="):
            path = Path(arg.split("=", 1)[1])
            text += f"--- {path.name}\n{path.read_text()}"
    return text


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case, tmp_path):
    expected = (GOLDEN / f"{case['name']}.txt").read_text()
    assert render(case["argv"], tmp_path) == expected


if __name__ == "__main__":
    names = sys.argv[1:]
    unknown = set(names) - {c["name"] for c in CASES}
    if unknown:
        sys.exit(f"unknown golden case(s): {', '.join(sorted(unknown))}")
    for case in CASES:
        if names and case["name"] not in names:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / f"{case['name']}.txt").write_text(render(case["argv"], tmp))
