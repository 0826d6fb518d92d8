"""Named verification suites aggregating the module invariants, with
machine-readable pass/fail rows.

The finite-group oracle here is the interpolation principle made literal:
structure constants of invariant endomorphism algebras, evaluated at an
integer, must match brute-force computations with honest finite matrices.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import product as iproduct

from . import fraisse
from .category import (PermObject, check_additivity, check_base_change,
                       check_graph_relations, check_mu_adapted, dual_via_zigzag,
                       duality_data, frobenius, hom_basis, identity_morphism, categorical_trace, tensor, zigzag)
from .glqmeasure import QContext, count_subspaces, count_spanning_pairs
from .integration import (GSetMap, SchwartzFunction, change_level, integrate,
                          projection_square, pullback, pushforward)
from .matrixalg import (EndAlgebra, InvariantMatrix, char_series, matmul,
                        trace)
from .ordercontext import OrderContext, single_color_symbols
from .scalar import EvalPoint, Poly, TruncatedSeries, evaluate
from .setexpr import inj, power, product, sub
from .symcontext import SymContext


class Check:
    __slots__ = ("suite", "name", "ok", "witness")

    def __init__(self, suite, name, ok, witness=""):
        self.suite = suite
        self.name = name
        self.ok = bool(ok)
        self.witness = str(witness)

    def as_dict(self):
        return {"suite": self.suite, "name": self.name,
                "ok": self.ok, "witness": self.witness}

    def __repr__(self):
        mark = "pass" if self.ok else "FAIL"
        w = f" [{self.witness}]" if self.witness else ""
        return f"{self.suite}/{self.name}: {mark}{w}"


SUITE_NAMES = ("integration-laws", "matrix-laws", "category-laws",
               "sym-oracle", "order-counts", "glq-identities", "boron",
               "rado-demo")


def run_suites(selector: str = "all", seed: int = 0) -> list[Check]:
    """Run the named suites in order; "all" runs every one.  Results are
    ordered by (suite, name)."""
    names = list(SUITE_NAMES) if selector == "all" else [selector]
    for n in names:
        if n not in SUITE_NAMES:
            raise ValueError(f"unknown suite {n!r}")
    results: list[Check] = []
    for n in names:
        results.extend(globals()["suite_" + n.replace("-", "_")](seed))
    results.sort(key=lambda c: (c.suite, c.name))
    return results


def _random_matrix(ctx, x, basis, rng, lo=-3, hi=3):
    m = basis[0].scale(rng.randint(lo, hi))
    for b in basis[1:]:
        m = m + b.scale(rng.randint(lo, hi))
    return m


def _contexts():
    return [("sym", SymContext(), power(1), inj(2)),
            ("order", OrderContext(-1, -1), power(1), inj(2))]


# ---------------------------------------------------------------------------


def suite_integration_laws(seed: int = 0) -> list[Check]:
    rows = []
    rng = random.Random(seed)
    for tag, ctx, x, y in _contexts():
        xy = product(x, y)
        ok = True
        for _ in range(20):
            lvl = rng.choice([0, 1])
            orbs = ctx.orbits(xy, lvl)
            terms = {o: Poly.const(rng.randint(-3, 3))
                     for o in rng.sample(list(orbs), min(5, len(orbs)))}
            phi = SchwartzFunction(ctx, xy, lvl, terms)
            inner = pushforward(GSetMap.proj_product([x, y], [0]), phi)
            ok &= integrate(inner) == integrate(phi)
        rows.append(Check("integration-laws", f"fubini-{tag}", ok))

        f = GSetMap.coordinates(inj(3), [0, 1], kind="I")
        g = GSetMap.coordinates(inj(2), [0])
        phi = SchwartzFunction.indicator(ctx, inj(3), 0)
        ok = pushforward(g.compose(f), phi) == pushforward(g, pushforward(f, phi))
        rows.append(Check("integration-laws", f"push-transitivity-{tag}", ok))

        sq = projection_square(x, x, x)
        fq, gq, fpq, gpq = sq
        orbs = ctx.orbits(product(x, x), 0)
        phi = SchwartzFunction(ctx, product(x, x), 0,
                               {orbs[0]: Poly.one(), orbs[-1]: Poly.const(2)})
        ok = pullback(gq, pushforward(fq, phi)) == pushforward(fpq, pullback(gpq, phi))
        rows.append(Check("integration-laws", f"base-change-{tag}", ok))

        psi = SchwartzFunction.indicator(ctx, x, 0).scale(3)
        pf = GSetMap.coordinates(inj(2), [0])
        phi = SchwartzFunction.indicator(ctx, inj(2), 0)
        ok = (pushforward(pf, pullback(pf, psi) * phi)
              == psi * pushforward(pf, phi))
        rows.append(Check("integration-laws", f"projection-formula-{tag}", ok))

        phi = SchwartzFunction.indicator(ctx, product(x, y), 0)
        ok = all(integrate(change_level(phi, lvl)) == integrate(phi)
                 for lvl in (1, 2))
        rows.append(Check("integration-laws", f"level-invariance-{tag}", ok))
    # pin relabeling invariance (symmetric backend)
    ctx = SymContext()
    phi = SchwartzFunction.indicator(ctx, power(2), 2)
    sigma = {1: 2, 2: 1}
    terms = {ctx.relabel_pins(power(2), pat, sigma): c
             for pat, c in phi.terms.items()}
    psi = SchwartzFunction(ctx, power(2), 2, terms)
    rows.append(Check("integration-laws", "pin-relabel-invariance",
                      integrate(psi) == integrate(phi)))
    return rows


def suite_matrix_laws(seed: int = 0) -> list[Check]:
    rows = []
    rng = random.Random(seed)
    for tag, ctx, x, y in _contexts():
        basis = hom_basis(PermObject(ctx, x), PermObject(ctx, x))
        alg_ok = True
        trsym_ok = True
        for _ in range(100):
            a = _random_matrix(ctx, x, basis, rng)
            b = _random_matrix(ctx, x, basis, rng)
            c = _random_matrix(ctx, x, basis, rng)
            alg_ok &= matmul(matmul(a, b), c) == matmul(a, matmul(b, c))
            trsym_ok &= trace(matmul(a, b)) == trace(matmul(b, a))
            if not (alg_ok and trsym_ok):
                break
        rows.append(Check("matrix-laws", f"associativity-{tag}", alg_ok))
        rows.append(Check("matrix-laws", f"trace-symmetry-{tag}", trsym_ok))

        # annihilating pairs and nilpotents from the two-component splitting
        u = [x, y]
        i0 = GSetMap.inclusion(u, 0)
        i1 = GSetMap.inclusion(u, 1)
        a0 = InvariantMatrix.from_graph(ctx, i0)
        a1 = InvariantMatrix.from_graph(ctx, i1)
        e0 = matmul(a0, a0.transpose())
        e1 = matmul(a1, a1.transpose())
        ubig = e0.domain
        ub = hom_basis(PermObject(ctx, ubig), PermObject(ctx, ubig))
        chi_ok = True
        nilp_ok = True
        for _ in range(6):
            r = _random_matrix(ctx, ubig, ub, rng, -2, 2)
            s = _random_matrix(ctx, ubig, ub, rng, -2, 2)
            a = matmul(r, e0)
            b = matmul(e1, s)
            if not matmul(a, b).is_zero():
                chi_ok = False
                break
            chi_ok &= (char_series(a + b, 5)
                       == char_series(a, 5) * char_series(b, 5))
            n = matmul(e0, matmul(r, e1))
            nilp_ok &= matmul(n, n).is_zero()
            nilp_ok &= char_series(n, 5) == TruncatedSeries.one(5)
            nilp_ok &= trace(n).is_zero()
        rows.append(Check("matrix-laws", f"char-series-annihilating-{tag}", chi_ok))
        rows.append(Check("matrix-laws", f"nilpotent-char-one-{tag}", nilp_ok))
    return rows


def suite_category_laws(seed: int = 0) -> list[Check]:
    rows = []
    rng = random.Random(seed)
    for tag, ctx, x, y in _contexts():
        ox = PermObject(ctx, x)
        rows.append(Check("category-laws", f"zigzag-{tag}",
                          zigzag(ox) == identity_morphism(ox)))
        ev, cv = duality_data(ox)
        val = list(matmul(ev, cv).entries.terms.values())
        val = val[0] if val else Poly.zero()
        rows.append(Check("category-laws", f"ev-cv-dimension-{tag}",
                          val == ctx.set_measure(x)))
        basis = hom_basis(ox, ox)
        m = _random_matrix(ctx, x, basis, rng)
        rows.append(Check("category-laws", f"dual-is-transpose-{tag}",
                          dual_via_zigzag(m) == m.transpose()))
        rows.append(Check("category-laws", f"cat-trace-{tag}",
                          all(categorical_trace(b) == trace(b) for b in basis)))
        data, checks = frobenius(ox)
        for name, ok in checks:
            rows.append(Check("category-laws", f"frobenius-{name}-{tag}", ok))
        ok, c = check_mu_adapted(ctx, GSetMap.coordinates(inj(2), [0]))
        rows.append(Check("category-laws", f"mu-adapted-inj2-{tag}", ok,
                          f"c = {c.to_text()}"))
        ok, c = check_mu_adapted(ctx, GSetMap.symmetrization(inj(2)))
        rows.append(Check("category-laws", f"mu-adapted-symmetrize-{tag}", ok,
                          f"c = {c.to_text()}"))
        rows.append(Check("category-laws", f"additivity-{tag}",
                          check_additivity(ctx, [x, y])))
        rows.append(Check("category-laws", f"base-change-matrices-{tag}",
                          check_base_change(ctx, projection_square(x, x, x))))
        f3 = GSetMap.coordinates(inj(3), [0, 1], kind="I")
        g3 = GSetMap.coordinates(inj(2), [0])
        for name, ok in check_graph_relations(ctx, f3, g3):
            rows.append(Check("category-laws", f"{name}-{tag}", ok))
        # symmetry swap squares to the identity
        sw = InvariantMatrix.from_graph(ctx, GSetMap.swap(x, x))
        rows.append(Check("category-laws", f"swap-squares-to-id-{tag}",
                          matmul(sw, sw) == identity_morphism(
                              PermObject(ctx, product(x, x)))))
        # tensor functoriality on a random pair
        a1, a2 = (_random_matrix(ctx, x, basis, rng) for _ in range(2))
        b1, b2 = (_random_matrix(ctx, x, basis, rng) for _ in range(2))
        rows.append(Check("category-laws", f"tensor-interchange-{tag}",
                          matmul(tensor(a1, a2), tensor(b1, b2))
                          == tensor(matmul(a1, b1), matmul(a2, b2))))
    return rows


def sym_end_oracle(n: int, big_n: int):
    """Brute-force End of the permutation module on [N]^n over the finite
    symmetric group, in the orbit basis: one 0/1 matrix per orbit, as a
    tuple of int rows indexed by the points of [N]^n."""
    alg = EndAlgebra(SymContext(), power(n))
    pts = list(iproduct(range(1, big_n + 1), repeat=n))
    mats = [tuple(tuple(int(_matches(blocks, r + c)) for c in pts)
                  for r in pts)
            for _, _, blocks in alg.orbit_list]
    return alg, mats


def _matches(blocks, values) -> bool:
    for slots, pin in blocks:
        v0 = values[slots[0]]
        if any(values[s] != v0 for s in slots[1:]):
            return False
        if pin is not None and v0 != pin:
            return False
    # distinct blocks carry distinct values
    reps = [values[slots[0]] for slots, _ in blocks]
    return len(set(reps)) == len(reps)


def _oracle_witness(mats, sc, at: EvalPoint) -> str:
    """The first basis pair (i, j) with B_i B_j != sum_k c_ij^k(at) B_k over
    the finite matrices, or "" when every pair agrees.

    Rows are kept as column lists.  The basis matrices partition the all-ones
    matrix, so each product entry is compared with the constant of the one
    orbit its (row, col) pair lies in."""
    cols = [[[c for c, v in enumerate(row) if v] for row in m] for m in mats]
    size = len(mats[0])
    orbit_of = [[None] * size for _ in range(size)]
    for k, m in enumerate(cols):
        for r, row in enumerate(m):
            for c in row:
                orbit_of[r][c] = k
    if (sum(len(row) for m in cols for row in m) != size * size
            or any(None in row for row in orbit_of)):
        return "basis matrices do not partition the pairs"
    for i, rows_i in enumerate(cols):
        for j, rows_j in enumerate(cols):
            consts = [int(evaluate(c, at)) for c in sc[i][j]]
            for r, row in enumerate(rows_i):
                prod = Counter(c for m in row for c in rows_j[m])
                if any(prod[c] != consts[k] for c, k in enumerate(orbit_of[r])):
                    return f"basis pair ({i}, {j})"
    return ""


def suite_sym_oracle(seed: int = 0) -> list[Check]:
    rows = []
    for n, big_n in ((1, 4), (2, 6), (2, 8)):
        alg, mats = sym_end_oracle(n, big_n)
        witness = _oracle_witness(mats, alg.structure_constants(),
                                  EvalPoint.rational(big_n))
        rows.append(Check("sym-oracle", f"structure-constants-n{n}-N{big_n}",
                          not witness, witness))
    # central idempotent dimensions of the square object at t = 6 agree with
    # the finite decomposition 2 triv + 3 std + 9-dim + 10-dim
    from .category import PermObject, idempotent_decompose
    dec = idempotent_decompose(PermObject(SymContext(), power(2)),
                               EvalPoint.rational(6))
    dims = sorted(d for _, d in dec)
    rows.append(Check("sym-oracle", "central-dims-square-at-6",
                      dims == [2, 9, 10, 15],
                      "dims " + ", ".join(str(d) for d in dims)))
    return rows


def suite_order_counts(seed: int = 0) -> list[Check]:
    rows = []
    ctx = OrderContext(-1, -1)
    fub = {2: 3, 3: 13, 4: 75}
    for n, expect in fub.items():
        rows.append(Check("order-counts", f"weak-orders-{n}",
                          len(ctx.orbits(power(n), 0)) == expect,
                          f"{len(ctx.orbits(power(n), 0))}"))
    rows.append(Check("order-counts", "end-R",
                      len(ctx.orbits(product(power(1), power(1)), 0)) == 3))
    n75 = len(ctx.orbits(power(4), 0))
    rows.append(Check("order-counts", "end-R-tensor-2", n75 == 75, str(n75)))
    n13 = len(ctx.orbits(product(sub(2), sub(2)), 0))
    rows.append(Check("order-counts", "end-R-sub2", n13 == 13, str(n13)))
    # integrals of indicators: sums of orbit measures, not the product rule
    for n in range(5):
        rows.append(Check("order-counts", f"mu-R^{n}", integrate(
            SchwartzFunction.indicator(ctx, power(n), 0))
            == Poly.const((-1) ** n)))
    import math
    for n in range(5):
        rows.append(Check("order-counts", f"mu-inj-{n}", integrate(
            SchwartzFunction.indicator(ctx, inj(n), 0))
            == Poly.const((-1) ** n * math.factorial(n))))
    syms = single_color_symbols(4)
    rows.append(Check("order-counts", "single-color-symbol-census",
                      len(syms) == 4,
                      f"{len(syms)} symbols at word-length bound 4"))
    return rows


def suite_glq_identities(seed: int = 0) -> list[Check]:
    rows = []
    for q in (2, 3):
        ctx = QContext(q)
        rows.append(Check("glq-identities", f"q-pascal-q{q}",
                          ctx.check_q_pascal(4).ok))
        ok = True
        for n in range(5):
            for d in range(n + 1):
                if ctx.omega(0, d)(ctx.q_int(n)) != count_subspaces(q, n, d):
                    ok = False
        rows.append(Check("glq-identities", f"subspace-counts-q{q}", ok))
        ok = True
        try:
            for i in range(4):
                for j in range(4):
                    ctx.grassmann_structure_constants(i, j)
        except ArithmeticError as exc:
            ok = False
            rows.append(Check("glq-identities", f"grassmann-q{q}", ok, str(exc)))
        else:
            rows.append(Check("glq-identities", f"grassmann-q{q}", ok))
    sc = QContext(2).grassmann_structure_constants(1, 1)
    ok = all(count_spanning_pairs(2, 4, 1, 1, d) == v for d, v in sc.items())
    rows.append(Check("glq-identities", "spanning-pair-oracle", ok))
    return rows


def suite_boron(seed: int = 0) -> list[Check]:
    rows = []
    rep = fraisse.verify_measure("boron", fraisse.boron_mu(), 6)
    rows.append(Check("boron", "mu-is-measure", rep.ok, rep.failures[:1]))
    rep = fraisse.verify_measure("boron", fraisse.boron_nu(), 6)
    rows.append(Check("boron", "nu-is-measure", rep.ok, rep.failures[:1]))
    w = fraisse.boron_theta_witness()
    rows.append(Check("boron", "theta-witness", w.ok, w.failures[:1]))
    t2 = fraisse.all_structures("boron", 2)[0]
    t3 = fraisse.all_structures("boron", 3)[0]
    i3 = fraisse.embeddings(t2, t3)[0]
    rows.append(Check("boron", "case-3-amalgam-count",
                      len(fraisse.enumerate_amalgamations(i3, i3)) == 4))
    return rows


def suite_rado_demo(seed: int = 0) -> list[Check]:
    rows = []
    rep = fraisse.rado_invariant_check(lambda g: 1, 3)
    rows.append(Check("rado-demo", "constant-table-fails-with-witness",
                      (not rep.ok) and bool(rep.failures),
                      rep.failures[:1]))
    # the single-edge reduction matches its hand expansion
    k2 = fraisse.Graph(2, [frozenset((0, 1))])
    vals = {fraisse.Graph(1, []).iso_key(): Fraction(2),
            fraisse.Graph(0, []).iso_key(): Fraction(1),
            k2.iso_key(): Fraction(1),
            fraisse.Graph(2, []).iso_key(): Fraction(1)}
    rep = fraisse.rado_invariant_check(lambda g: vals.get(g.iso_key(), 1), 2)
    rows.append(Check("rado-demo", "single-edge-reduction", rep.ok))
    return rows
