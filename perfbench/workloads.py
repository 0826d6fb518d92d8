"""The benchmark's workloads: which tasks run, in which interpreter and in
which order, with each task's time budget.

This module imports nothing from oligocat, so the parent process can plan a
run and account for every task even when a child dies.

A workload is a list of processes; each process is forked from an
interpreter that has only imported oligocat and runs its tasks in order, so
the module caches start empty and are shared by the tasks of that process
only.  A task is (name, budget in seconds).  A task that overruns its budget
is killed with its process and counted as failed, together with the tasks
the process had not reached.  Every task takes well under a second, so that
a run has many passes to take medians over.
"""

WORKLOADS = {
    # Composition-heavy and cold: matmul materialises every orbit of Z x Y x X.
    "end-algebra": [[
        ("sc sym Sub(2)", 10),
        ("sc sym Power(2)", 10),
        ("sc order Sub(2)", 10),
        ("char_series order allones Power(2) 3", 15),
        ("idempotent_decompose sym Inj(2) at 6", 10),
        ("zigzag Power(1)", 10),
        ("random End laws", 15),
    ]],
    # Enumeration-heavy: orbits plus measures, never integration or matmul.
    "orbit-census": [[
        ("sym Sub(3)^2*Power(1)", 10),
        ("sym Sub(3)*Sub(2)^2", 10),
        ("sym Sub(2)^3*Power(1)", 10),
        ("sym Power(7)", 10),
        ("order Sub(2)^2*Power(2)", 10),
        ("order Power(6)", 10),
        ("order Power(4) level 2", 10),
    ]],
    # One CLI process per command, stdout compared byte for byte.
    "cli": [
        [("verify integration-laws", 10)],
        [("verify glq-identities", 10)],
        [("fraisse boron", 10)],
        [("hom", 10)],
        [("decompose", 10)],
        [("charseries", 10)],
        [("frobenius", 10)],
    ],
}

# argv of each cli task; "{seed}" is replaced by the workload seed.
# `--format` is an option of oligocat itself, so it precedes the subcommand.
CLI_ARGV = {
    **{f"verify {suite}": ["--format", "json", "verify", "--suite", suite,
                           "--seed", "{seed}"]
       for suite in ("integration-laws", "glq-identities")},
    "fraisse boron": ["fraisse", "--class", "boron", "--check", "measure",
                      "--measure", "mu"],
    "hom": ["hom", "--ctx", "order:-1,-1", "--x", "Power(2)", "--y",
            "Power(2)"],
    "decompose": ["decompose", "--ctx", "sym", "--x", "Inj(2)", "--at", "6"],
    "charseries": ["charseries", "--ctx", "sym", "--matrix", "allones:Omega",
                   "--order", "8"],
    "frobenius": ["frobenius", "--ctx", "sym", "--x", "Power(1)"],
}

# A run kills what still runs this many seconds after it started, so that it
# ends inside 180 s even when every task overruns.
RUN_LIMIT_S = 165
# Budget of each step that is not a task: from spawning an interpreter until
# it is ready, from asking for a pass until its first task starts, and for
# rendering a task's output.
SETUP_BUDGET_S = 30


def bell(n: int) -> int:
    """Number of set partitions of n items (Bell triangle)."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def fubini(n: int) -> int:
    """Number of weak orders on n items: sum_k C(n, k) a(n - k)."""
    from math import comb
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


def weak_orders(n: int, allowed) -> int:
    """Number of weak orders on points 0..n-1 whose rank tuple satisfies
    `allowed`, by brute force over rank tuples."""
    from itertools import product
    return sum(1 for r in product(range(n), repeat=n)
               if set(r) == set(range(max(r) + 1)) and allowed(r))


# Recorded outputs that an independent formula predicts.  The benchmark
# refuses to run when the recorded expected output disagrees with one.
# Orbit counts: set partitions (Bell) and weak orders (Fubini), the latter
# constrained where a coordinate pair is distinct (Inj) or increasing (Sub
# of the line).  Order measures: with signs (-1, -1) the measure of a
# d-dimensional cell of the line is its compactly supported Euler
# characteristic (-1)^d.
FORMULA_CHECKS = [
    ("orbit-census", "sym Power(7)", "orbits", str(bell(7))),      # 877
    ("orbit-census", "sym Power(7)", "measure", "t^7"),
    ("orbit-census", "order Power(6)", "orbits", str(fubini(6))),  # 4683
    ("orbit-census", "order Power(6)", "measure", str((-1) ** 6)),
    ("orbit-census", "order Power(4) level 2", "measure", str((-1) ** 4)),
    ("orbit-census", "order Sub(2)^2*Power(2)", "orbits", str(weak_orders(
        6, lambda r: r[0] < r[1] and r[2] < r[3]))),                # 919
    ("orbit-census", "order Sub(2)^2*Power(2)", "measure", str((-1) ** 6)),
    ("end-algebra", "sc sym Power(2)", "dim", str(bell(4))),       # 15
    # two 2-subsets meet in 0, 1 or 2 points
    ("end-algebra", "sc sym Sub(2)", "dim", "3"),
    ("end-algebra", "sc order Sub(2)", "dim", str(weak_orders(
        4, lambda r: r[0] < r[1] and r[2] < r[3]))),                # 13
    # rank one idempotent-like A with A^2 = mu(X) A: det(1 + uA) = 1 + mu u
    ("end-algebra", "char_series order allones Power(2) 3", "series",
     "1 + u + O(u^3)"),
    # S_6 on ordered pairs of distinct points: triv + 2 std + S(4,2) +
    # S(4,1,1), isotypic parts of dimension 1, 2 * 5, 9, 10
    ("end-algebra", "idempotent_decompose sym Inj(2) at 6", "dims",
     "1,9,10,10"),
]


def fields(text: str) -> dict:
    """Parse a task output of the form 'key=value; key=value'."""
    out = {}
    for part in text.split("; "):
        key, _, value = part.partition("=")
        out[key] = value
    return out
