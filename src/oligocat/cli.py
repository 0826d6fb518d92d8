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
from .fraisse import (all_structures, boron_mu, boron_nu, boron_theta_witness,
                      embeddings, enumerate_amalgamations, orders_sign,
                      rado_invariant_check, sets_nu_t, structure_text,
                      verify_measure)
from .glqmeasure import QContext
from .integration import GSetMap, SchwartzFunction
from .matrixalg import InvariantMatrix, char_series, matmul, trace
from .ordercontext import OrderContext
from .scalar import EvalPoint, Poly, evaluate
from .setexpr import SetExpr, inj
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
        from .setexpr import product
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
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else str(v)
    return str(v)


def matrix_json(m: InvariantMatrix) -> dict:
    terms = sorted(
        ({"orbit": m.ctx.orbit_text(m.entries.expr, pat),
          "coeff": c.to_text()} for pat, c in m.entries.terms.items()),
        key=lambda d: d["orbit"])
    return {"domain": m.domain.to_text(), "codomain": m.codomain.to_text(),
            "level": m.level, "terms": terms}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oligocat",
        description="exact measures, matrices and tensor categories for "
                    "concrete oligomorphic groups")
    parser.add_argument("--format", choices=("table", "json"), default="table")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="measure of a declared set")
    p.add_argument("--ctx", required=True)
    p.add_argument("--set", required=True, dest="set_text")
    p.add_argument("--at")

    p = sub.add_parser("orbits", help="orbit table of a set at a level")
    p.add_argument("--ctx", required=True)
    p.add_argument("--set", required=True, dest="set_text")
    p.add_argument("--level", type=nonnegative_int, default=0)
    p.add_argument("--at")

    p = sub.add_parser("hom", help="Hom basis between permutation objects")
    p.add_argument("--ctx", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = sub.add_parser("compose", help="compose two named matrices")
    p.add_argument("--ctx", required=True)
    p.add_argument("--matrix", action="append", required=True)

    p = sub.add_parser("trace", help="trace of a named matrix")
    p.add_argument("--ctx", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--at")

    p = sub.add_parser("charseries", help="characteristic series")
    p.add_argument("--ctx", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--order", type=int, default=8)

    p = sub.add_parser("decompose", help="idempotent decomposition of End")
    p.add_argument("--ctx", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--at", required=True)

    p = sub.add_parser("frobenius", help="Frobenius axiom report")
    p.add_argument("--ctx", required=True)
    p.add_argument("--x", required=True)

    p = sub.add_parser("verify", help="run named verification suites")
    p.add_argument("--suite", default="all",
                   help="one of %s or all" % ", ".join(SUITE_NAMES))
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fraisse", help="model-theoretic measures")
    p.add_argument("--class", dest="klass", required=True,
                   choices=("sets", "orders", "graphs", "boron"))
    p.add_argument("--check", required=True,
                   choices=("measure", "amalgams", "theta", "rado"))
    p.add_argument("--measure", default=None, choices=("mu", "nu"),
                   help="mu or nu for the boron class")
    p.add_argument("--table", default=None,
                   help="JSON file {canonical form: value} with a candidate")
    p.add_argument("--max-size", type=nonnegative_int, default=4)

    p = sub.add_parser("glq", help="q-binomial measure arithmetic")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--what", required=True,
                   choices=("pascal", "omega", "grassmann"))
    p.add_argument("--bound", type=nonnegative_int, default=4)

    try:
        args = parser.parse_args(argv)
        code = _dispatch(args)
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


def _dispatch(args) -> int:
    out = sys.stdout
    if args.command == "measure":
        ctx = parse_context(args.ctx)
        expr = SetExpr.from_text(args.set_text)
        at = parse_at(args.at)
        val = ctx.set_measure(expr)
        if args.format == "json":
            json.dump({"set": expr.to_text(), "measure": _scalar_out(val, at)},
                      out, sort_keys=True)
            out.write("\n")
        else:
            print(_scalar_out(val, at))
        return 0

    if args.command == "orbits":
        ctx = parse_context(args.ctx)
        expr = SetExpr.from_text(args.set_text)
        at = parse_at(args.at)
        rows = [{"orbit": ctx.orbit_text(expr, pat),
                 "measure": _scalar_out(ctx.measure(expr, pat), at)}
                for pat in ctx.orbits(expr, args.level)]
        if args.format == "json":
            json.dump({"set": expr.to_text(), "level": args.level,
                       "orbits": rows}, out, sort_keys=True)
            out.write("\n")
        else:
            for r in rows:
                print(f"{r['orbit']}\t{r['measure']}")
            print(f"# {len(rows)} orbits")
        return 0

    if args.command == "hom":
        ctx = parse_context(args.ctx)
        x = PermObject(ctx, SetExpr.from_text(args.x))
        y = PermObject(ctx, SetExpr.from_text(args.y))
        basis = hom_basis(x, y)
        if args.format == "json":
            json.dump({"x": x.expr.to_text(), "y": y.expr.to_text(),
                       "dim": len(basis),
                       "basis": [matrix_json(b) for b in basis]},
                      out, sort_keys=True)
            out.write("\n")
        else:
            for b in basis:
                pat = next(iter(b.entries.terms))
                print(ctx.orbit_text(b.entries.expr, pat))
            print(f"# dim Hom = {len(basis)}")
        return 0

    if args.command == "compose":
        ctx = parse_context(args.ctx)
        if len(args.matrix) != 2:
            raise ValueError("compose needs exactly two --matrix arguments")
        b = parse_matrix(ctx, args.matrix[0])
        a = parse_matrix(ctx, args.matrix[1])
        c = matmul(b, a)
        if args.format == "json":
            json.dump(matrix_json(c), out, sort_keys=True)
            out.write("\n")
        else:
            for row in matrix_json(c)["terms"]:
                print(f"{row['orbit']}\t{row['coeff']}")
        return 0

    if args.command == "trace":
        ctx = parse_context(args.ctx)
        m = parse_matrix(ctx, args.matrix)
        print(_scalar_out(trace(m), parse_at(args.at)))
        return 0

    if args.command == "charseries":
        ctx = parse_context(args.ctx)
        m = parse_matrix(ctx, args.matrix)
        print(char_series(m, args.order).to_text())
        return 0

    if args.command == "decompose":
        ctx = parse_context(args.ctx)
        x = PermObject(ctx, SetExpr.from_text(args.x))
        at = parse_at(args.at)
        if at.mode != "rational":
            raise ValueError("decompose needs a rational --at point")
        rows = []
        for mat, dim in idempotent_decompose(x, at):
            rows.append({"idempotent": matrix_json(mat)["terms"],
                         "dimension": str(dim)})
        if args.format == "json":
            json.dump({"x": x.expr.to_text(), "idempotents": rows}, out,
                      sort_keys=True)
            out.write("\n")
        else:
            for r in rows:
                body = " + ".join(f"({t['coeff']})*[{t['orbit']}]"
                                  for t in r["idempotent"])
                print(f"dim {r['dimension']}: {body}")
        return 0

    if args.command == "frobenius":
        ctx = parse_context(args.ctx)
        x = PermObject(ctx, SetExpr.from_text(args.x))
        _, checks = frobenius(x)
        ok_all = True
        for name, ok in checks:
            ok_all &= ok
            print(f"{name}: {'pass' if ok else 'FAIL'}")
        return 0 if ok_all else 1

    if args.command == "verify":
        rows = run_suites(args.suite, seed=args.seed)
        if args.format == "json":
            json.dump({"checks": [c.as_dict() for c in rows]}, out,
                      sort_keys=True)
            out.write("\n")
        else:
            for c in rows:
                print(repr(c))
        return 0 if all(c.ok for c in rows) else 1

    if args.command == "fraisse":
        return _fraisse_cmd(args)

    if args.command == "glq":
        ctx = QContext(args.q)
        if args.what == "pascal":
            rep = ctx.check_q_pascal(args.bound)
            print(f"q-pascal q={args.q} bound={args.bound}: "
                  f"{'pass' if rep.ok else 'FAIL ' + str(rep.witnesses[:3])}")
            return 0 if rep.ok else 1
        if args.what == "omega":
            tbl = ctx.omega_table(args.bound, args.bound, range(args.bound + 2))
            if args.format == "json":
                json.dump(tbl, sys.stdout, sort_keys=True)
                sys.stdout.write("\n")
            else:
                for row in tbl["rows"]:
                    vals = " ".join(f"{n}:{v}" for n, v in
                                    sorted(row["values"].items(), key=lambda kv: int(kv[0])))
                    print(f"omega[{row['m']},{row['d']}] = {row['poly']} | {vals}")
            return 0
        ok = True
        for i in range(args.bound):
            for j in range(args.bound):
                try:
                    ctx.grassmann_structure_constants(i, j)
                except ArithmeticError as exc:
                    ok = False
                    print(f"FAIL: {exc}")
        print(f"grassmann products q={args.q} i,j<{args.bound}: "
              f"{'pass' if ok else 'FAIL'}")
        return 0 if ok else 1

    raise ValueError(f"unknown command {args.command!r}")


def _load_table_candidate(kind: str, path: str):
    from .fraisse import candidate_from_table
    try:
        with open(path) as fh:
            table = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read table: {exc}") from exc
    return candidate_from_table(f"{kind}-table", kind, table)


def _fraisse_cmd(args) -> int:
    kind = {"sets": "set", "orders": "order", "graphs": "graph",
            "boron": "boron"}[args.klass]
    if args.check == "measure":
        if args.table is not None:
            cand = _load_table_candidate(kind, args.table)
        elif kind == "set":
            cand = sets_nu_t()
        elif kind == "order":
            cand = orders_sign()
        elif kind == "boron":
            cand = boron_nu() if args.measure == "nu" else boron_mu()
        else:
            raise ValueError("the graph class has no built-in measure; "
                             "supply a candidate with --table")
        rep = verify_measure(kind, cand, args.max_size)
        print(f"{rep.name} up to size {args.max_size}: "
              f"{'pass' if rep.ok else 'FAIL ' + str(rep.failures[:1])} "
              f"({rep.counts})")
        return 0 if rep.ok else 1
    if args.check == "amalgams":
        if kind == "order":
            from .fraisse import TotalOrder, EmbeddingMap
            y, x, yp = TotalOrder(1), TotalOrder(2), TotalOrder(2)
            i = EmbeddingMap(y, x, (0,))
            j = EmbeddingMap(y, yp, (0,))
        elif kind == "boron":
            t2 = all_structures("boron", 2)[0]
            t3 = all_structures("boron", 3)[0]
            i = j = embeddings(t2, t3)[0]
        else:
            raise ValueError("amalgams demo exists for orders and boron")
        ams = enumerate_amalgamations(i, j)
        for am in ams:
            print(repr(am.structure))
        print(f"# {len(ams)} amalgamations")
        return 0
    if args.check == "theta":
        rep = boron_theta_witness()
        print(f"boron theta witness: "
              f"{'pass' if rep.ok else 'FAIL ' + str(rep.failures[:2])}")
        return 0 if rep.ok else 1
    if args.check == "rado":
        if args.table is not None:
            cand = _load_table_candidate("graph", args.table)

            def value(g):
                v = cand.of_structure(g)
                if not v.is_constant():
                    raise ValueError(f"table entry {structure_text(g)!r} is "
                                     f"{v.to_text()}, not a number")
                return v.constant()

            rep = rado_invariant_check(value, args.max_size)
            print(f"graph invariant table: "
                  f"{'pass' if rep.ok else 'FAIL'} {rep.failures[:1]}"
                  f" ({rep.counts})")
            return 0 if rep.ok else 1
        rep = rado_invariant_check(lambda g: 1, args.max_size)
        ok = (not rep.ok) and bool(rep.failures)
        print("constant invariant rejected with witness: "
              f"{'pass' if ok else 'FAIL'} {rep.failures[:1]}")
        return 0 if ok else 1
    raise ValueError(f"unknown check {args.check!r}")


if __name__ == "__main__":
    sys.exit(main())
