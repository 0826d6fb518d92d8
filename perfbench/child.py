"""The interpreter of a benchmark run: imports what the workload needs once,
then forks one process per planned process of the workload for each pass
the parent asks for.

    python3 perfbench/child.py <workload> <seed> <events fd> <output dir>
        [--trace] [--setup-only]

A forked process starts from the state right after the imports, so its
module caches are empty, as in a fresh CLI process; the tasks of one process
share them.  The parent writes a line to stdin for each pass and closes
stdin to stop.  Every event is one JSON line on the events fd, with `pid`,
`t` from time.monotonic() (one clock for all processes of the machine) and
`cpu` from time.process_time() of the sending process:

    ready   imports and argument parsing done; passes can start now
    start   a task starts (in a forked process)
    end     a task ended
    probe   (wall, cpu) seconds of the speed probes run just before and
            just after the task (see probe.py)
    output  its rendered output and the cache sizes after it
    error   a task raised, or rendering its result did: the exception text
    trace   per-layer aggregates of a forked process (traced runs only)
    exit    a forked process ended: its exit status and peak RSS
    pass    every process of the pass ended

The stdout of process <p> goes to <output dir>/<workload>-<p>.stdout (the
CLI's own stdout for the cli workload), its spans to spans-<workload>-<p>.json.
"""

import json
import os
import sys
import time

from probe import probe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def cache_sizes() -> dict:
    """Entries held by every module-level cache of oligocat."""
    from oligocat import (fraisse, glqmeasure, integration, matrixalg,
                          ordercontext, symcontext)
    sizes = {
        "integration._push_cache": sum(
            len(v) for v in integration._push_cache.values()),
        "integration._pull_index": sum(
            len(pats) for index in integration._pull_index.values()
            for pats in index.values()),
    }
    for module in (symcontext, ordercontext, glqmeasure, matrixalg, fraisse):
        short = module.__name__.rsplit(".", 1)[1]
        found = list(vars(module).items())
        found += [(f"{cls_name}.{attr}", value)
                  for cls_name, cls in vars(module).items()
                  if isinstance(cls, type) and cls.__module__ == module.__name__
                  for attr, value in vars(cls).items()]
        for name, value in found:
            if callable(getattr(value, "cache_info", None)):
                sizes[f"{short}.{name}"] = value.cache_info().currsize
    for name in ("_emb_cache", "_amalgam_cache", "_aut_cache", "_upto_cache",
                 "_span_cache"):
        sizes[f"fraisse.{name}"] = len(getattr(fraisse, name))
    return sizes


def run_process(plan, tasks, seed, emit, tracer, spans_path):
    """The body of one forked process: its tasks in order, each between two
    speed probes."""
    for name in plan:
        run, render = tasks[name]
        before = probe()
        emit("start", task=name)
        try:
            result = run(seed)
            emit("end", task=name)
            emit("probe", task=name, before=before, after=probe())
            output = render(result, seed)
        except Exception as exc:  # reported to the parent, counted as failed
            emit("error", task=name, error=f"{type(exc).__name__}: {exc}")
            continue
        emit("output", task=name, output=output, caches=cache_sizes())
    if tracer is not None:
        tracer.dump(spans_path)
        emit("trace", aggregates=tracer.aggregates())


def main() -> int:
    workload, seed, fd, out_dir = sys.argv[1:5]
    seed = int(seed)
    flags = sys.argv[5:]
    events = os.fdopen(int(fd), "w", buffering=1)

    def emit(ev, **data):
        data.update(ev=ev, pid=os.getpid(), t=time.monotonic(),
                    cpu=time.process_time())
        events.write(json.dumps(data) + "\n")

    from workloads import WORKLOADS
    if workload == "cli":
        import oligocat.cli  # noqa: F401  (what an oligocat process imports)
    else:
        import oligocat  # noqa: F401
    tracer = None
    if "--trace" in flags:
        import tracer as tracer_module
        tracer = tracer_module.install()
    from tasks import tasks_for
    tasks = tasks_for(workload)
    plans = [[name for name, _ in process] for process in WORKLOADS[workload]]
    emit("ready")
    if "--setup-only" in flags:
        return 0

    for line in sys.stdin:
        for process, plan in enumerate(plans):
            stem = os.path.join(out_dir, f"{workload}-{process}")
            sys.stdout.flush()
            with open(stem + ".stdout", "wb") as out:
                pid = os.fork()
                if pid == 0:
                    code = 0
                    try:
                        os.dup2(out.fileno(), 1)
                        run_process(plan, tasks, seed, emit, tracer,
                                    os.path.join(out_dir, f"spans-{workload}"
                                                          f"-{process}.json"))
                        sys.stdout.flush()
                    except BaseException:
                        code = 1
                    os._exit(code)
            _, status, usage = os.wait4(pid, 0)
            emit("exit", process=process,
                 status=os.waitstatus_to_exitcode(status),
                 maxrss_mb=usage.ru_maxrss / 1024.0)
        emit("pass", line=line.strip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
