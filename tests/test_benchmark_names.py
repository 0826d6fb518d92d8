"""The names that the benchmark under perfbench/ reads from oligocat exist.

A traced benchmark run wraps `cli.main`, the backend methods, the verify
suite functions and reads the named cache dicts; a renamed one fails here
instead of in that run."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

TRACED_RUN = """
import json, sys
sys.path[:0] = ["perfbench", "src"]
import oligocat.cli, oligocat.verify
import child, tracer
tr = tracer.install()
child.cache_sizes()
code = oligocat.cli.main(["--format", "json", "verify", "--suite", "rado-demo"])
print(json.dumps({"exit": code, "spans": sorted(tr.calls)}))
"""


def test_traced_cli_run_finds_the_names_it_reads():
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN], cwd=ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit"] == 0
    assert {"cli.main", "verify.run_suites",
            "verify.rado-demo"} <= set(result["spans"])
