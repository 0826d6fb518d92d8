"""Command-line surface: measures, orbit tables, Hom bases, composition,
characteristic series, decompositions and the verification suites.

Exit codes: 0 success / all checks pass, 1 verification failure (witness in
the output) or stdout closed early, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .category import (PermObject, frobenius, hom_basis, idempotent_decompose)
from .fraisse import (KINDS, all_structures, boron_mu, boron_nu,
                      boron_theta_witness, candidate_from_table, embeddings,
                      enumerate_amalgamations, orders_sign,
                      rado_invariant_check, sets_nu_t, structure_text,
                      verify_measure)
from .glqmeasure import QContext
from .integration import GSetMap, SchwartzFunction
from .matrixalg import InvariantMatrix, char_series, matmul, trace
from .ordercontext import OrderContext
from .scalar import EvalPoint, Poly, evaluate
from .setexpr import SetExpr, inj, product
from .symcontext import SymContext
from .verify import SUITE_NAMES, run_suites


def parse_context(text: str):
    if text == "sym":
        return SymContext()
    if text == "order":
        return OrderContext(-1, -1)
    if text.startswith("order:"):
        try:
            eps, delt = (int(v) for v in text[len("order:"):].split(","))
        except ValueError as exc:
            raise ValueError(f"bad order context {text!r}") from exc
        return OrderContext(eps, delt)
    raise ValueError(f"unknown context {text!r}")


def nonnegative_int(text: str) -> int:
    """argparse type of levels, sizes and bounds."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def parse_at(text: str | None) -> EvalPoint:
    if text is None:
        return EvalPoint.generic()
    if text.startswith("p:"):
        try:
            _, p, t0 = text.split(":")
            return EvalPoint.modular(int(t0), int(p))
        except ValueError as exc:
            raise ValueError(f"bad modular point {text!r}") from exc
    try:
        return EvalPoint.rational(Fraction(text))
    except ValueError as exc:
        raise ValueError(f"bad evaluation point {text!r}") from exc


def parse_matrix(ctx, text: str) -> InvariantMatrix:
    """Named matrix constructors: identity:<set>, allones:<set>,
    orbit:<set>:<orbit string>, graph:proj:<set>:<slots>, graph:diag:<set>,
    graph:sym:<k>."""
    kind, _, rest = text.partition(":")
    if kind == "identity":
        return InvariantMatrix.identity(ctx, SetExpr.from_text(rest))
    if kind == "allones":
        return InvariantMatrix.all_ones(ctx, SetExpr.from_text(rest))
    if kind == "orbit":
        set_text, _, orb_text = rest.partition(":")
        x = SetExpr.from_text(set_text)
        xx = product(x, x)
        pat = ctx.parse_orbit(xx, orb_text)
        return InvariantMatrix(ctx, x, x,
                               SchwartzFunction.from_orbit(ctx, xx, pat))
    if kind == "graph":
        sub_kind, _, rest2 = rest.partition(":")
        if sub_kind == "proj":
            set_text, _, slots_text = rest2.partition(":")
            x = SetExpr.from_text(set_text)
            slots = [int(s) - 1 for s in slots_text.split(",")]
            return InvariantMatrix.from_graph(ctx, GSetMap.coordinates(x, slots))
        if sub_kind == "diag":
            x = SetExpr.from_text(rest2)
            return InvariantMatrix.from_graph(ctx, GSetMap.diagonal(x))
        if sub_kind == "sym":
            k = int(rest2)
            return InvariantMatrix.from_graph(ctx, GSetMap.symmetrization(inj(k)))
        raise ValueError(f"unknown graph map {sub_kind!r}")
    raise ValueError(f"unknown matrix constructor {kind!r}")


def _scalar_out(value, at: EvalPoint) -> str:
    v = evaluate(value, at)
    if isinstance(v, Poly):
        return v.to_text()
    return str(v)


def _terms(m: InvariantMatrix) -> list:
    return sorted(
        ({"orbit": m.ctx.orbit_text(m.entries.expr, pat),
          "coeff": c.to_text()} for pat, c in m.entries.terms.items()),
        key=lambda d: d["orbit"])


def matrix_json(m: InvariantMatrix) -> dict:
    return {"domain": m.domain.to_text(), "codomain": m.codomain.to_text(),
            "level": m.level, "terms": _terms(m)}


# Each subcommand, in the order of the help text: name -> (help, argument
# specs, handler).  A handler returns its exit code and its output, a JSON
# object or a list of lines, built in the form --format asks for.
COMMANDS = {}


def command(name: str, help: str, *specs):
    def register(handler):
        COMMANDS[name] = (help, specs, handler)
        return handler
    return register


def _arg(*flags, **kwargs):
    return flags, kwargs


CTX = _arg("--ctx", required=True)
SET = _arg("--set", required=True, dest="set_text")
X = _arg("--x", required=True)
AT = _arg("--at")
MATRIX = _arg("--matrix", required=True)


@command("measure", "measure of a declared set", CTX, SET, AT)
def _measure_cmd(args):
    ctx = parse_context(args.ctx)
    expr = SetExpr.from_text(args.set_text)
    at = parse_at(args.at)
    value = _scalar_out(ctx.set_measure(expr), at)
    if args.format == "json":
        return 0, {"set": expr.to_text(), "measure": value}
    return 0, [value]


@command("orbits", "orbit table of a set at a level", CTX, SET,
         _arg("--level", type=nonnegative_int, default=0), AT)
def _orbits_cmd(args):
    ctx = parse_context(args.ctx)
    expr = SetExpr.from_text(args.set_text)
    at = parse_at(args.at)
    rows = [(ctx.orbit_text(expr, pat),
             _scalar_out(ctx.measure(expr, pat), at))
            for pat in ctx.orbits(expr, args.level)]
    if args.format == "json":
        return 0, {"set": expr.to_text(), "level": args.level,
                   "orbits": [{"orbit": o, "measure": m} for o, m in rows]}
    return 0, [f"{o}\t{m}" for o, m in rows] + [f"# {len(rows)} orbits"]


@command("hom", "Hom basis between permutation objects", CTX, X,
         _arg("--y", required=True))
def _hom_cmd(args):
    ctx = parse_context(args.ctx)
    x = PermObject(ctx, SetExpr.from_text(args.x))
    y = PermObject(ctx, SetExpr.from_text(args.y))
    basis = hom_basis(x, y)
    if args.format == "json":
        return 0, {"x": x.expr.to_text(), "y": y.expr.to_text(),
                   "dim": len(basis), "basis": [matrix_json(b) for b in basis]}
    return 0, [ctx.orbit_text(b.entries.expr, next(iter(b.entries.terms)))
               for b in basis] + [f"# dim Hom = {len(basis)}"]


@command("compose", "compose two named matrices", CTX,
         _arg("--matrix", action="append", required=True))
def _compose_cmd(args):
    ctx = parse_context(args.ctx)
    if len(args.matrix) != 2:
        raise ValueError("compose needs exactly two --matrix arguments")
    c = matmul(parse_matrix(ctx, args.matrix[0]),
               parse_matrix(ctx, args.matrix[1]))
    if args.format == "json":
        return 0, matrix_json(c)
    return 0, [f"{row['orbit']}\t{row['coeff']}" for row in _terms(c)]


@command("trace", "trace of a named matrix", CTX, MATRIX, AT)
def _trace_cmd(args):
    m = parse_matrix(parse_context(args.ctx), args.matrix)
    return 0, [_scalar_out(trace(m), parse_at(args.at))]


@command("charseries", "characteristic series", CTX, MATRIX,
         _arg("--order", type=int, default=8))
def _charseries_cmd(args):
    m = parse_matrix(parse_context(args.ctx), args.matrix)
    return 0, [char_series(m, args.order).to_text()]


@command("decompose", "idempotent decomposition of End", CTX, X,
         _arg("--at", required=True))
def _decompose_cmd(args):
    x = PermObject(parse_context(args.ctx), SetExpr.from_text(args.x))
    at = parse_at(args.at)
    if at.mode != "rational":
        raise ValueError("decompose needs a rational --at point")
    rows = [(_terms(mat), str(dim))
            for mat, dim in idempotent_decompose(x, at)]
    if args.format == "json":
        return 0, {"x": x.expr.to_text(),
                   "idempotents": [{"idempotent": terms, "dimension": dim}
                                   for terms, dim in rows]}
    return 0, [f"dim {dim}: " + " + ".join(f"({t['coeff']})*[{t['orbit']}]"
                                          for t in terms)
               for terms, dim in rows]


@command("frobenius", "Frobenius axiom report", CTX, X)
def _frobenius_cmd(args):
    x = PermObject(parse_context(args.ctx), SetExpr.from_text(args.x))
    _, checks = frobenius(x)
    return (0 if all(ok for _, ok in checks) else 1,
            [f"{name}: {'pass' if ok else 'FAIL'}" for name, ok in checks])


@command("verify", "run named verification suites",
         _arg("--suite", default="all",
              help="one of %s or all" % ", ".join(SUITE_NAMES)),
         _arg("--seed", type=int, default=0))
def _verify_cmd(args):
    rows = run_suites(args.suite, seed=args.seed)
    code = 0 if all(c.ok for c in rows) else 1
    if args.format == "json":
        return code, {"checks": [c.as_dict() for c in rows]}
    return code, [repr(c) for c in rows]


def _load_table_candidate(kind: str, path: str):
    try:
        with open(path) as fh:
            table = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read table: {exc}") from exc
    return candidate_from_table(f"{kind}-table", kind, table)


@command("fraisse", "model-theoretic measures",
         _arg("--class", dest="klass", required=True,
              choices=("sets", "orders", "graphs", "boron")),
         _arg("--check", required=True,
              choices=("measure", "amalgams", "theta", "rado")),
         _arg("--measure", default=None, choices=("mu", "nu"),
              help="mu or nu for the boron class"),
         _arg("--table", default=None,
              help="JSON file {canonical form: value} with a candidate"),
         _arg("--max-size", type=nonnegative_int, default=None))
def _fraisse_cmd(args):
    kind = args.klass.removesuffix("s")
    only = {"theta": "boron", "rado": "graphs"}.get(args.check)
    if only is not None and args.klass != only:
        raise ValueError(f"--check {args.check} needs --class {only}")
    if args.measure is not None and (args.check, kind, args.table) != (
            "measure", "boron", None):
        raise ValueError("--measure picks a built-in boron measure: it needs "
                         "--class boron --check measure and no --table")
    if args.check in ("amalgams", "theta"):
        for option, value in (("--table", args.table),
                              ("--max-size", args.max_size)):
            if value is not None:
                raise ValueError(f"--check {args.check} reads no {option}")
    size = 4 if args.max_size is None else args.max_size
    if size > KINDS[kind].max_size:
        raise ValueError(f"--max-size {size} is above {KINDS[kind].max_size}, "
                         f"the most that --class {args.klass} can enumerate")
    if args.check == "measure":
        builtin = {"set": sets_nu_t, "order": orders_sign,
                   "boron": boron_nu if args.measure == "nu" else boron_mu}
        if args.table is not None:
            cand = _load_table_candidate(kind, args.table)
        elif kind in builtin:
            cand = builtin[kind]()
        else:
            raise ValueError("the graph class has no built-in measure; "
                             "supply a candidate with --table")
        rep = verify_measure(kind, cand, size)
        return 0 if rep.ok else 1, [
            f"{rep.name} up to size {size}: "
            f"{'pass' if rep.ok else 'FAIL ' + str(rep.failures[:1])} "
            f"({rep.counts})"]
    if args.check == "amalgams":
        sizes = {"order": (1, 2), "boron": (2, 3)}
        if kind not in sizes:
            raise ValueError("amalgams demo exists for orders and boron")
        y, x = (all_structures(kind, n)[0] for n in sizes[kind])
        i = embeddings(y, x)[0]
        ams = enumerate_amalgamations(i, i)
        return 0, ([repr(am.structure) for am in ams]
                   + [f"# {len(ams)} amalgamations"])
    if args.check == "theta":
        rep = boron_theta_witness()
        return 0 if rep.ok else 1, [
            "boron theta witness: "
            f"{'pass' if rep.ok else 'FAIL ' + str(rep.failures[:2])}"]
    if args.table is not None:
        cand = _load_table_candidate("graph", args.table)

        def value(g):
            v = cand.of_structure(g)
            if not v.is_constant():
                raise ValueError(f"table entry {structure_text(g)!r} is "
                                 f"{v.to_text()}, not a number")
            return v.constant()

        rep = rado_invariant_check(value, size)
        return 0 if rep.ok else 1, [
            f"graph invariant table: {'pass' if rep.ok else 'FAIL'} "
            f"{rep.failures[:1]} ({rep.counts})"]
    rep = rado_invariant_check(lambda g: 1, size)
    ok = (not rep.ok) and bool(rep.failures)
    return 0 if ok else 1, [
        "constant invariant rejected with witness: "
        f"{'pass' if ok else 'FAIL'} {rep.failures[:1]}"]


@command("glq", "q-binomial measure arithmetic",
         _arg("--q", type=int, required=True),
         _arg("--what", required=True,
              choices=("pascal", "omega", "grassmann")),
         _arg("--bound", type=nonnegative_int, default=4))
def _glq_cmd(args):
    ctx = QContext(args.q)
    if args.what == "pascal":
        rep = ctx.check_q_pascal(args.bound)
        return 0 if rep.ok else 1, [
            f"q-pascal q={args.q} bound={args.bound}: "
            f"{'pass' if rep.ok else 'FAIL ' + str(rep.witnesses[:3])}"]
    if args.what == "omega":
        tbl = ctx.omega_table(args.bound, args.bound, range(args.bound + 2))
        if args.format == "json":
            return 0, tbl
        return 0, [f"omega[{row['m']},{row['d']}] = {row['poly']} | "
                   + " ".join(f"{n}:{v}" for n, v in sorted(
                       row["values"].items(), key=lambda kv: int(kv[0])))
                   for row in tbl["rows"]]
    lines = []
    for i in range(args.bound):
        for j in range(args.bound):
            try:
                ctx.grassmann_structure_constants(i, j)
            except ArithmeticError as exc:
                lines.append(f"FAIL: {exc}")
    return 0 if not lines else 1, lines + [
        f"grassmann products q={args.q} i,j<{args.bound}: "
        f"{'FAIL' if lines else 'pass'}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oligocat",
        description="exact measures, matrices and tensor categories for "
                    "concrete oligomorphic groups")
    parser.add_argument("--format", choices=("table", "json"), default="table")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, specs, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help)
        for flags, kwargs in specs:
            p.add_argument(*flags, **kwargs)
    try:
        args = parser.parse_args(argv)
        code, out = COMMANDS[args.command][2](args)
        if isinstance(out, dict):
            out = [json.dumps(out, sort_keys=True)]
        for line in out:
            print(line)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; send the interpreter's last flush
        # to devnull so that it raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ZeroDivisionError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: too many slots to enumerate", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
