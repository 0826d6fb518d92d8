"""Record the expected output of every task into perfbench/expected.json.

    python3 perfbench/record.py

Run once, at the commit the benchmark was defined on; later commits are
checked against the record and must not re-record it.  Seeded tasks render
only the outcome of exact laws, so recording at seed 0 serves every seed.
"""

import json
import os
import sys
import time

import run
from workloads import WORKLOADS


def main() -> int:
    os.makedirs(run.OUT_DIR, exist_ok=True)
    expected = {"cli-stdout": {}}
    for workload, processes in WORKLOADS.items():
        expected[workload] = {}
        interp = run.Interpreter(workload, 0)
        try:
            if interp.ready(time.monotonic() + run.RUN_LIMIT_S) is None:
                print(f"{workload}: the interpreter failed", file=sys.stderr)
                return 1
            children, _ = run.fork_pass(interp, workload, time.monotonic())
        finally:
            interp.close()
        for process, child in enumerate(children):
            outputs = {ev["task"]: ev["output"] for ev in child["events"]
                       if ev["ev"] == "output"}
            if child["exit"] != 0 or len(outputs) != len(processes[process]):
                print(f"{workload}/{process} failed: {outputs}",
                      file=sys.stderr)
                return 1
            expected[workload].update(outputs)
            if workload == "cli":
                (task, _), = processes[process]
                expected["cli-stdout"][task] = child["stdout"].decode()
            print(workload, process, outputs)
    with open(os.path.join(run.HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
