"""The oligocat benchmark.

    python3 perfbench/run.py --workload <end-algebra|orbit-census|cli>
        --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a source checkout and needs nothing installed but
Python (numpy for the cli workload).  One interpreter (perfbench/child.py,
OLIGOCAT_THREADS unset) imports what the workload needs; for every pass it
forks each process of the workload in turn, one at a time, so every process
starts with empty module caches, as a fresh CLI process does.  Every task
output is compared exactly with perfbench/expected.json.

--trace 0 measures the end-to-end metrics: warm-up, setup probes, then
closed-loop passes while another pass fits in --seconds (at least one).
Each task runs between two speed probes (probe.py); wall_s and cpu_s add up
over the tasks the median over the passes of a task's time over its probes'
time, times PROBE_REF_S.  setup_s is the median over the interpreters
started.  --trace 1 runs untraced and traced passes for half of --seconds
each and reports per-layer metrics from the first traced pass.  The last
line of stdout is the result as JSON; a report with every task lands in
.bench_build/perfbench.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path.insert(0, HERE)

from probe import PROBE_REF_S  # noqa: E402
from workloads import (CLI_ARGV, FORMULA_CHECKS, RUN_LIMIT_S,  # noqa: E402
                       SETUP_BUDGET_S, WORKLOADS, fields)

# the verify suites the cli workload runs, one per process
CLI_SUITES = [argv[argv.index("--suite") + 1] for argv in CLI_ARGV.values()
              if "--suite" in argv]

SETUP_PROBES = 9


class Setup(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def load_expected() -> dict:
    path = os.path.join(HERE, "expected.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "oligocat", "__init__.py")):
        raise Setup(f"no oligocat sources under {ROOT}/src")
    with open(path) as fh:
        expected = json.load(fh)
    for workload, task, key, value in FORMULA_CHECKS:
        got = fields(expected[workload][task]).get(key)
        if got != value:
            raise Setup(f"recorded {workload}/{task} has {key}={got}, "
                        f"the formula gives {value}")
    return expected


# ---------------------------------------------------------------------------
# the child interpreter


class Interpreter:
    """One child.py interpreter of the run, read event by event.  It runs in
    a session of its own, so that it and its forks can be killed together."""

    def __init__(self, workload, seed, traced=False, setup_only=False):
        read_fd, write_fd = os.pipe()
        argv = [sys.executable, os.path.join(HERE, "child.py"), workload,
                str(seed), str(write_fd), OUT_DIR]
        if traced:
            argv.append("--trace")
        if setup_only:
            argv.append("--setup-only")
        env = {k: v for k, v in os.environ.items() if k != "OLIGOCAT_THREADS"}
        # one thread: numpy's BLAS would start threads at import, and a
        # process that has threads cannot be forked safely
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        with open(os.path.join(OUT_DIR, f"{workload}.stderr"), "ab") as err:
            self.spawned = time.monotonic()
            self.proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
                stderr=err, env=env, cwd=ROOT, pass_fds=(write_fd,),
                start_new_session=True)
        os.close(write_fd)
        self.pipe = os.fdopen(read_fd, "rb")
        self.lines = []
        self.buf = b""

    def next_event(self, deadline):
        """The next event, None when the deadline passed first, or "eof"
        when the interpreter closed its end."""
        while not self.lines:
            wait = deadline - time.monotonic()
            if wait <= 0 or not select.select([self.pipe], [], [], wait)[0]:
                return None
            chunk = os.read(self.pipe.fileno(), 1 << 16)
            if not chunk:
                return "eof"
            *lines, self.buf = (self.buf + chunk).split(b"\n")
            self.lines += lines
        return json.loads(self.lines.pop(0))

    def ready(self, hard_stop):
        """Wait until imports are done; the setup time, or None."""
        ev = self.next_event(min(self.spawned + SETUP_BUDGET_S, hard_stop))
        if isinstance(ev, dict) and ev["ev"] == "ready":
            return ev["t"] - self.spawned
        return None

    def close(self):
        """Stop the interpreter and every fork of it, and wait for them."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=SETUP_BUDGET_S)
        except (OSError, subprocess.TimeoutExpired):
            pass
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.pipe.close()


def judge(workload, process, child, expected) -> list:
    """One row per planned task: time, CPU, caches, and why it failed."""
    by_task = {}
    for ev in child["events"]:
        if "task" in ev:
            by_task.setdefault(ev["task"], {})[ev["ev"]] = ev
    rows = []
    for name, _ in WORKLOADS[workload][process]:
        evs = by_task.get(name, {})
        row = {"task": name, "failure": None}
        stop = evs.get("end") or evs.get("error")
        if "start" in evs and stop:
            row["wall_s"] = stop["t"] - evs["start"]["t"]
            row["cpu_s"] = stop["cpu"] - evs["start"]["cpu"]
        if "probe" in evs:
            pair = evs["probe"]["before"], evs["probe"]["after"]
            row["probe_wall_s"] = (pair[0][0] + pair[1][0]) / 2
            row["probe_cpu_s"] = (pair[0][1] + pair[1][1]) / 2
        elif "start" in evs and child["killed"] == name:
            # killed: the task was computing (one thread) until the kill
            row["wall_s"] = row["cpu_s"] = child["killed_at"] - evs["start"]["t"]
        if "output" in evs:
            row["caches"] = evs["output"]["caches"]
            output = evs["output"]["output"]
            if workload == "cli":
                if output != "exit=0":
                    row["failure"] = f"cli returned {output}"
                elif child["stdout"] != expected["cli-stdout"][name].encode():
                    row["failure"] = "stdout differs from the recorded bytes"
            elif output != expected[workload][name]:
                row["failure"] = f"output {output!r} differs from the record"
        elif "error" in evs:
            row["failure"] = evs["error"]["error"]
        elif child["killed"] == name:
            row["failure"] = "killed: over its time budget"
        else:
            row["failure"] = f"not completed (exit {child['exit']}, " \
                             f"killed in {child['killed']})"
        if (row["failure"] is None and child["exit"] != 0
                and child["killed"] is None):
            row["failure"] = f"process exit {child['exit']}"
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# passes


def fork_pass(interp, workload, run_t0):
    """Every process of the workload once, in order, each forked from the
    interpreter; a task over its budget is killed with its process.
    Returns (one record of events, exit and stdout per process, whether the
    interpreter is still alive)."""
    budget = {name: b for process in WORKLOADS[workload]
              for name, b in process}
    n = len(WORKLOADS[workload])
    children = [{"events": [], "killed": None, "killed_at": None,
                 "exit": None, "maxrss_mb": 0.0} for _ in range(n)]
    hard_stop = run_t0 + RUN_LIMIT_S
    interp.proc.stdin.write(b"pass\n")
    interp.proc.stdin.flush()
    process, current, pid = 0, "fork", None
    deadline = time.monotonic() + SETUP_BUDGET_S
    alive = True
    while process < n:
        ev = interp.next_event(min(deadline, hard_stop))
        if ev == "eof":
            alive = False
            break
        if ev is None:
            child = children[process]
            child["killed"], child["killed_at"] = current, time.monotonic()
            if time.monotonic() >= hard_stop or pid is None:
                os.killpg(interp.proc.pid, signal.SIGKILL)
                alive = False
                break
            os.kill(pid, signal.SIGKILL)   # the fork; the interpreter goes on
            pid, deadline = None, time.monotonic() + SETUP_BUDGET_S
            continue
        if ev["ev"] == "exit":
            children[process].update(exit=ev["status"],
                                     maxrss_mb=ev["maxrss_mb"])
            process, current, pid = process + 1, "fork", None
            deadline = time.monotonic() + SETUP_BUDGET_S
            continue
        children[process]["events"].append(ev)
        if ev["ev"] == "start":
            current, pid = ev["task"], ev["pid"]
            deadline = ev["t"] + budget[current]
        elif ev["ev"] in ("end", "error"):
            current, deadline = "render", ev["t"] + SETUP_BUDGET_S
    if alive:
        ev = interp.next_event(time.monotonic() + SETUP_BUDGET_S)
        alive = isinstance(ev, dict) and ev["ev"] == "pass"
    for process, child in enumerate(children):
        try:
            with open(os.path.join(OUT_DIR, f"{workload}-{process}.stdout"),
                      "rb") as fh:
                child["stdout"] = fh.read()
        except OSError:
            child["stdout"] = b""
    return children, alive


def run_pass(interp, workload, expected, run_t0) -> dict:
    """One pass, judged: task rows, times, peak RSS, caches, trace data."""
    children, alive = fork_pass(interp, workload, run_t0)
    result = {"alive": alive, "peak_rss_mb": 0.0, "parts": {}, "tasks": [],
              "aggregates": [], "caches_total": 0}
    for process, child in enumerate(children):
        rows = judge(workload, process, child, expected)
        result["tasks"] += rows
        for r in rows:
            if "probe_wall_s" in r:
                result["parts"][r["task"]] = (
                    r["wall_s"], r["cpu_s"], r["probe_wall_s"], r["probe_cpu_s"])
        result["peak_rss_mb"] = max(result["peak_rss_mb"], child["maxrss_mb"])
        caches = [r["caches"] for r in rows if "caches" in r]
        if caches:
            result["caches_total"] = max(result["caches_total"],
                                         sum(caches[-1].values()))
        result["aggregates"] += [ev["aggregates"] for ev in child["events"]
                                 if ev["ev"] == "trace"]
    return result


def run_passes(workload, seed, expected, run_t0, seconds, traced=False):
    """Start an interpreter and run passes while another one fits in
    `seconds` (at least one).  Returns (its Interpreter, passes)."""
    interp = Interpreter(workload, seed, traced=traced)
    passes = []
    try:
        interp.setup = interp.ready(run_t0 + RUN_LIMIT_S)
        if interp.setup is None:
            raise Setup(f"the {workload} interpreter did not get ready")
        t0 = time.monotonic()
        while True:
            started = time.monotonic()
            passes.append(run_pass(interp, workload, expected, run_t0))
            now = time.monotonic()
            if (not passes[-1]["alive"]
                    or now - t0 + (now - started) > seconds):
                break
    finally:
        interp.close()
    return interp, passes


def setup_probes(workload, seed, run_t0, n):
    """Start interpreters that stop once ready: the Interpreters."""
    probes = []
    for _ in range(n):
        interp = Interpreter(workload, seed, setup_only=True)
        try:
            interp.setup = interp.ready(run_t0 + RUN_LIMIT_S)
        finally:
            interp.close()
        if interp.setup is not None and interp.proc.returncode == 0:
            probes.append(interp)
    return probes


# ---------------------------------------------------------------------------
# metrics


def at_reference_speed(passes, column) -> float:
    """Seconds the workload's tasks take at the reference speed: for each
    task the median over the passes of its time over the time of the probes
    around it, summed over the tasks, times PROBE_REF_S.  Column 0 is wall
    time, 1 is CPU time."""
    ratios = {}
    for p in passes:
        for name, times in p["parts"].items():
            ratios.setdefault(name, []).append(times[column]
                                               / times[column + 2])
    return PROBE_REF_S * sum(statistics.median(v) for v in ratios.values())


def measured_time(passes) -> float:
    """Seconds the workload's tasks took: the sum over the tasks of each
    task's median wall time over the passes, as the clock read it."""
    times = {}
    for p in passes:
        for name, parts in p["parts"].items():
            times.setdefault(name, []).append(parts[0])
    return sum(statistics.median(v) for v in times.values())


def end_to_end(passes, setups) -> dict:
    return {"wall_s": (at_reference_speed(passes, 0), "s"),
            "cpu_s": (at_reference_speed(passes, 1), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"]
                                              for p in passes), "MB"),
            "setup_s": (statistics.median(setups), "s")}


def per_layer(traced_passes, untraced_passes) -> dict:
    """Layer metrics of the first traced pass; the overhead compares the
    wall time at the reference speed of the traced and untraced passes."""
    traced = traced_passes[0]
    calls, total, self_time, counts = {}, {}, {}, {}
    for agg in traced["aggregates"]:
        for dst, src in ((calls, "calls"), (total, "total"),
                         (self_time, "self"), (counts, "counts")):
            for k, v in agg[src].items():
                dst[k] = dst.get(k, 0) + v

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in ("symcontext", "ordercontext"):
        m[f"{layer}.orbits.self_s"] = (self_time.get(f"{layer}.orbits", 0.0), "s")
        m[f"{layer}.canonicalize.calls"] = (counts.get(f"{layer}.canonicalize", 0), "count")
        m[f"{layer}.enum.kept_ratio"] = (ratio(
            counts.get(f"{layer}.enum.orbits", 0),
            counts.get(f"{layer}.enum.canonicalize", 0)), "ratio")
        m[f"{layer}.measure.self_s"] = (self_time.get(f"{layer}.measure", 0.0), "s")
        m[f"{layer}.image_orbit.calls"] = (counts.get(f"{layer}.image_orbit", 0), "count")
        m[f"{layer}.push_orbit.calls"] = (counts.get(f"{layer}.push_orbit", 0), "count")
    pulled = counts.get("integration.pull_index.orbits", 0)
    pushed = counts.get("integration.pushforward.terms", 0)
    misses = (counts.get("symcontext.push_orbit", 0)
              + counts.get("ordercontext.push_orbit", 0))
    m.update({
        "integration.pullback.self_s": (self_time.get("integration.pullback", 0.0), "s"),
        "integration.pullback.calls": (calls.get("integration.pullback", 0), "count"),
        "integration.pull_index.orbits": (pulled, "count"),
        "integration.pull.useful_ratio": (ratio(
            counts.get("integration.pull.terms", 0), pulled), "ratio"),
        "integration.pushforward.self_s": (self_time.get("integration.pushforward", 0.0), "s"),
        "integration.pushforward.terms": (pushed, "count"),
        "integration.push_cache.hit_ratio": (ratio(pushed - misses, pushed), "ratio"),
        "integration.push_cache.entries": (max(
            [r["caches"]["integration._push_cache"] for r in traced["tasks"]
             if "caches" in r] or [0]), "count"),
        "integration.change_level.self_s": (self_time.get("integration.change_level", 0.0), "s"),
        "matrixalg.matmul.self_s": (self_time.get("matrixalg.matmul", 0.0), "s"),
        "matrixalg.matmul.calls": (calls.get("matrixalg.matmul", 0), "count"),
        "matrixalg.matmul.support_pairs": (counts.get("matrixalg.matmul.support_pairs", 0), "count"),
        "matrixalg.trace.self_s": (self_time.get("matrixalg.trace", 0.0), "s"),
        "matrixalg.structure_constants.s": (total.get("matrixalg.structure_constants", 0.0), "s"),
        "matrixalg.char_series.s": (total.get("matrixalg.char_series", 0.0), "s"),
        "category.tensor.self_s": (self_time.get("category.tensor", 0.0), "s"),
        "category.zigzag.s": (total.get("category.zigzag", 0.0), "s"),
        "category.idempotent_decompose.s": (total.get("category.idempotent_decompose", 0.0), "s"),
        "scalar.poly_mul.calls": (counts.get("scalar.poly_mul", 0), "count"),
        "scalar.poly_add.calls": (counts.get("scalar.poly_add", 0), "count"),
    })
    for suite in CLI_SUITES:
        m[f"verify.{suite}.s"] = (total.get(f"verify.{suite}", 0.0), "s")
    for layer in ("fraisse", "glqmeasure"):
        m[f"{layer}.self_s"] = (sum(v for k, v in self_time.items()
                                    if k.startswith(layer + ".")), "s")
    m["caches.entries.total"] = (traced["caches_total"], "count")
    m["trace.overhead_frac"] = (at_reference_speed(traced_passes, 0)
                                / at_reference_speed(untraced_passes, 0)
                                - 1.0, "ratio")
    return m


def metadata(seed) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=10
                                    ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "oligocat")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "commit": commit, "src_sha256": h.hexdigest(), "seed": seed,
            "loadavg_start": os.getloadavg()}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        expected = load_expected()
    except (Setup, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    meta = metadata(args.seed)
    run_t0 = time.monotonic()
    try:
        # warm-up: byte-compiles the sources and fills the file cache
        setup_probes(args.workload, args.seed, run_t0, 1)
        interps = setup_probes(args.workload, args.seed, run_t0,
                               SETUP_PROBES)
        interp, passes = run_passes(args.workload, args.seed, expected,
                                    run_t0, args.seconds / (1 + args.trace))
        interps.append(interp)
        if args.trace:
            interp, traced = run_passes(args.workload, args.seed, expected,
                                        run_t0, args.seconds / 2, traced=True)
            metrics = per_layer(traced, passes)
            passes += traced
        else:
            metrics = end_to_end(passes, [i.setup for i in interps])
    except Setup as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    meta["loadavg_end"] = os.getloadavg()

    tasks = [row for p in passes for row in p["tasks"]]
    failed = [row for row in tasks if row["failure"]]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} setup_samples={len(interps)}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for name in dict.fromkeys(row["task"] for row in tasks):
        rows = [row for row in tasks if row["task"] == name]
        walls = [row["wall_s"] for row in rows if "wall_s" in row]
        fails = sorted({row["failure"] for row in rows if row["failure"]})
        print(f"task {name!r}: samples={len(walls)} "
              f"best={min(walls, default=0):.4f}s "
              f"median={statistics.median(walls) if walls else 0:.4f}s "
              f"caches={sum(rows[-1].get('caches', {}).values())} "
              + ("FAIL " + "; ".join(fails) if fails else "ok"))
    print(f"failed_frac {len(failed) / len(tasks):.4f} "
          f"({len(failed)} of {len(tasks)} tasks)")
    print(f"wall_s as the clock read it: {measured_time(passes):.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    report = {"meta": meta,
              "setups": [i.setup for i in interps],
              "passes": [{k: v for k, v in p.items() if k != "aggregates"}
                         for p in passes],
              "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"report-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": not failed, "attempted": len(tasks), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
