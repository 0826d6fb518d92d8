"""Task bodies, run in the processes forked from a benchmark interpreter.

Each task is a pair (run, render).  `run(seed)` is the timed work and calls
only the public oligocat API.  `render(result, seed)` turns its result into
the exact text the parent compares with the recorded expected output; it is
not timed.  Seeded parts never appear in the text as values, only as the
outcome of exact laws, so the expected text holds for every seed.
"""

import hashlib
import random
import sys


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def tasks_for(workload: str) -> dict:
    """Import what the workload needs and return {task name: (run, render)}.
    Only the cli workload imports oligocat.cli (and so numpy)."""
    if workload == "cli":
        return _cli_tasks()
    if workload == "end-algebra":
        return _end_algebra_tasks()
    if workload == "orbit-census":
        return _orbit_census_tasks()
    raise ValueError(f"unknown workload {workload!r}")


def _contexts():
    from oligocat import OrderContext, SymContext
    return {"sym": SymContext(), "order": OrderContext(-1, -1)}


def _end_algebra_tasks() -> dict:
    from oligocat import (EndAlgebra, EvalPoint, InvariantMatrix, PermObject,
                          SetExpr, char_series, identity_morphism,
                          idempotent_decompose, matmul, power, product, trace,
                          zigzag)
    ctxs = _contexts()

    def structure_constants(backend, text):
        def run(seed):
            alg = EndAlgebra(ctxs[backend], SetExpr.from_text(text))
            return alg, alg.structure_constants()

        def render(result, seed):
            alg, sc = result
            xx = product(alg.x, alg.x)
            lines = [alg.ctx.orbit_text(xx, p) for p in alg.orbit_list]
            lines += [f"{i} {j} {k} {c.to_text()}"
                      for i, row in enumerate(sc) for j, vec in enumerate(row)
                      for k, c in enumerate(vec) if not c.is_zero()]
            return f"dim={alg.dim}; sha256={_digest(lines)}"
        return run, render

    def all_ones_series(seed):
        return char_series(InvariantMatrix.all_ones(ctxs["order"], power(2)), 3)

    def decompose(seed):
        return idempotent_decompose(
            PermObject(ctxs["sym"], SetExpr.from_text("Inj(2)")),
            EvalPoint.rational(6))

    def render_decomposition(result, seed):
        lines = []
        for mat, dim in result:
            terms = sorted(f"{mat.ctx.orbit_text(mat.entries.expr, p)}"
                           f" {c.to_text()}" for p, c in mat.entries.terms.items())
            lines.append(f"{dim}: " + ", ".join(terms))
        dims = ",".join(sorted((str(d) for _, d in result), key=int))
        return f"dims={dims}; sha256={_digest(lines)}"

    def line_zigzag(seed):
        """Snake identity of the duality of X = Power(1) in both backends."""
        ok = True
        for ctx in ctxs.values():
            x = PermObject(ctx, power(1))
            ok &= zigzag(x) == identity_morphism(x)
        return ok

    def random_laws(seed):
        """Seeded random End elements: associativity and trace symmetry."""
        rng = random.Random(seed)
        assoc = trsym = True
        for backend, n in (("sym", 2), ("order", 1)):
            alg = EndAlgebra(ctxs[backend], power(n))
            for _ in range(3):
                a, b, c = (alg.vec_to_matrix([rng.randint(-3, 3)
                                              for _ in range(alg.dim)])
                           for _ in range(3))
                assoc &= matmul(matmul(a, b), c) == matmul(a, matmul(b, c))
                trsym &= trace(matmul(a, b)) == trace(matmul(b, a))
        return assoc, trsym

    return {
        "sc sym Sub(2)": structure_constants("sym", "Sub(2)"),
        "sc sym Power(2)": structure_constants("sym", "Power(2)"),
        "sc order Sub(2)": structure_constants("order", "Sub(2)"),
        "char_series order allones Power(2) 3": (
            all_ones_series, lambda s, seed: f"series={s.to_text()}"),
        "idempotent_decompose sym Inj(2) at 6": (
            decompose, render_decomposition),
        "zigzag Power(1)": (
            line_zigzag, lambda ok, seed: f"identity={ok}"),
        "random End laws": (
            random_laws,
            lambda r, seed: f"associativity={r[0]}; trace_symmetry={r[1]}"),
    }

def _orbit_census_tasks() -> dict:
    from oligocat import SetExpr
    ctxs = _contexts()

    def census(backend, text, level=0):
        ctx = ctxs[backend]
        expr = SetExpr.from_text(text)

        def run(seed):
            return ctx.orbits(expr, level), ctx.set_measure(expr, level)

        def render(result, seed):
            orbs, mu = result
            out = (f"orbits={len(orbs)}; measure={mu.to_text()}; "
                   f"sha256={_digest(ctx.orbit_text(expr, p) for p in orbs)}")
            if backend == "sym":
                # interpolation: mu(X) at t = n counts the points of X over an
                # n-element set, which fixed_points counts combinatorially
                n = random.Random(f"{seed}:{text}").randint(0, 12)
                ok = mu(n) == ctx.fixed_points(expr, n)
                out += f"; interpolation={ok}"
            return out
        return run, render

    return {
        "sym Sub(3)^2*Power(1)": census("sym", "Sub(3)*Sub(3)*Power(1)"),
        "sym Sub(3)*Sub(2)^2": census("sym", "Sub(3)*Sub(2)*Sub(2)"),
        "sym Sub(2)^3*Power(1)": census("sym", "Sub(2)*Sub(2)*Sub(2)*Power(1)"),
        "sym Power(7)": census("sym", "Power(7)"),
        "order Sub(2)^2*Power(2)": census("order", "Sub(2)*Sub(2)*Power(2)"),
        "order Power(6)": census("order", "Power(6)"),
        "order Power(4) level 2": census("order", "Power(4)", level=2),
    }


def _cli_tasks() -> dict:
    from oligocat import cli
    from workloads import CLI_ARGV

    def command(name):
        def run(seed):
            argv = [a.replace("{seed}", str(seed)) for a in CLI_ARGV[name]]
            code = cli.main(argv)
            sys.stdout.flush()
            return code
        return run, lambda code, seed: f"exit={code}"

    return {name: command(name) for name in CLI_ARGV}
