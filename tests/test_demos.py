"""Every demo prints byte-for-byte what tests/data/demos_golden.json holds."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = json.loads(
    (ROOT / "tests" / "data" / "demos_golden.json").read_text())


def test_golden_covers_every_demo():
    demos = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
    assert sorted(GOLDEN) == demos


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_stdout(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
    assert out.stdout == GOLDEN[name]
