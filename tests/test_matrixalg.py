import random
from fractions import Fraction
from itertools import combinations, permutations
from itertools import product as iproduct

import pytest

from oligocat import integration, matrixalg
from oligocat.category import (PermObject, hom_basis, idempotent_decompose,
                               tensor)
from oligocat.integration import (GSetMap, SchwartzFunction, change_level,
                                  pullback, pushforward)
from oligocat.matrixalg import (EndAlgebra, InvariantMatrix, _nullspace,
                                _pairing, _poly_det,
                                char_series, higher_trace, is_semisimple_end,
                                jordan_split, matmul, min_poly, trace,
                                trace_pairing)
from oligocat.ordercontext import LEGAL_SPECS, OrderContext
from oligocat.scalar import (EvalPoint, Poly, TruncatedSeries, binomial_poly,
                             binomial_series, evaluate)
from oligocat.setexpr import inj, power, product, sub, union
from oligocat.symcontext import SymContext, SymPattern, _sort_blocks

sym = SymContext()
order = OrderContext(-1, -1)
t = Poly.var()


def rand_matrix(ctx, x, rng, lo=-3, hi=3):
    basis = hom_basis(PermObject(ctx, x), PermObject(ctx, x))
    m = basis[0].scale(rng.randint(lo, hi))
    for b in basis[1:]:
        m = m + b.scale(rng.randint(lo, hi))
    return m


def order_end_basis():
    rr = product(power(1), power(1))
    pats = {p.classes: p for p in order.orbits(rr, 0)}

    def ind(classes):
        return InvariantMatrix(order, power(1), power(1),
                               SchwartzFunction.from_orbit(order, rr,
                                                           pats[classes]))
    return ind(((0,), (1,))), ind(((1,), (0,)))


def matmul_by_pullback(b, a):
    """The composition path matmul replaced: pull both factors back to
    Z x Y x X, multiply pointwise and push the product to Z x X."""
    x, y, z = a.domain, a.codomain, b.codomain
    lvl = max(a.level, b.level)
    pzy = GSetMap.proj_product([z, y, x], [0, 1])
    pyx = GSetMap.proj_product([z, y, x], [1, 2])
    pzx = GSetMap.proj_product([z, y, x], [0, 2])
    big = (pullback(pzy, change_level(b.entries, lvl))
           * pullback(pyx, change_level(a.entries, lvl)))
    return InvariantMatrix(a.ctx, x, z, pushforward(pzx, big))


def tensor_by_pullback(m, n):
    """The tensor path that composition over the one-point set replaced:
    pull both factors back to (Y1 x Y2) x (X1 x X2) and multiply."""
    x1, y1, x2, y2 = m.domain, m.codomain, n.domain, n.codomain
    p1 = GSetMap.proj_product([y1, y2, x1, x2], [0, 2])
    p2 = GSetMap.proj_product([y1, y2, x1, x2], [1, 3])
    ent = pullback(p1, m.entries) * pullback(p2, n.entries)
    return InvariantMatrix(m.ctx, product(x1, x2), product(y1, y2), ent)


def transpose_by_pullback(a):
    """The transpose path that the push along the swap replaced: pull the
    entries back along the swap X x Y -> Y x X, which enumerates every
    orbit of X x Y."""
    swap = GSetMap.swap(a.domain, a.codomain)
    return InvariantMatrix(a.ctx, a.codomain, a.domain,
                           pullback(swap, a.entries))


def composition_table_by_enumeration(ctx, z, y, x, level):
    """The composition table matmul used to build: every orbit of
    Z x Y x X, grouped by its images on Z x Y and Y x X and pushed to
    Z x X, as rows[o_zy][o_yx] = {R: summed fibre measure}, zero sums and
    empty groups dropped."""
    parts = [z, y, x]
    pzy = GSetMap.proj_product(parts, [0, 1])
    pyx = GSetMap.proj_product(parts, [1, 2])
    pzx = GSetMap.proj_product(parts, [0, 2])
    groups = {}
    for pat in ctx.orbits(pzy.source, level):
        row = groups.setdefault(ctx.image_orbit(pzy, pat), {})
        row.setdefault(ctx.image_orbit(pyx, pat), []).append(pat)
    rows = {}
    for o_zy, row in groups.items():
        for o_yx, group in row.items():
            sums = {}
            for pat in group:
                image, coeff = ctx.push_orbit(pzx, pat)
                sums[image] = sums.get(image, Poly.zero()) + coeff
            sums = {image: c for image, c in sums.items() if not c.is_zero()}
            if sums:
                rows.setdefault(o_zy, {})[o_yx] = sums
    return rows


ORDERS = [OrderContext(e, d) for e, d in LEGAL_SPECS]
MIXED = union(power(1), sub(2))
TABLE_CASES = (
    [(ctx, z, y, x, 0) for ctx in [sym] + ORDERS for z, y, x in [
        (power(2), power(2), power(2)), (MIXED, power(1), sub(2)),
        (sub(2), MIXED, power(1)), (inj(2), sub(2), MIXED),
        (MIXED, MIXED, MIXED), (sub(2), inj(2), sub(2))]]
    + [(ctx, z, y, x, 1) for ctx in [sym] + ORDERS for z, y, x in [
        (power(1), sub(2), power(1)), (power(2), inj(2), power(1)),
        (MIXED, power(1), power(1)), (power(1), sub(2), inj(2))]]
    + [(ctx, z, y, x, 2) for ctx in [sym] + ORDERS for z, y, x in [
        (power(1), power(1), power(1)), (sub(2), power(1), MIXED)]]
    + [(sym, power(2), sub(2), power(1), 2), (sym, sub(3), sub(3), sub(3), 0)])


@pytest.mark.parametrize(
    "ctx,z,y,x,level", TABLE_CASES,
    ids=[f"{ctx!r}-{z.to_text()}|{y.to_text()}|{x.to_text()}@{level}"
         for ctx, z, y, x, level in TABLE_CASES])
def test_composition_table_matches_enumeration(ctx, z, y, x, level):
    """Extending each orbit of Z x Y by the X slots gives the same rows as
    enumerating Z x Y x X and pushing each group to Z x X."""
    got = {}
    for o_zy in ctx.orbits(product(z, y), level):
        row = matrixalg._composition_row(ctx, z, y, x, level, o_zy)
        row = {o_yx: dict(group) for o_yx, group in row.items() if group}
        if row:
            got[o_zy] = row
    assert got == composition_table_by_enumeration(ctx, z, y, x, level)


def test_matmul_enumerates_no_orbit_of_zyx(monkeypatch):
    """matmul and structure_constants work with image_orbit, push_orbit
    and the orbits of Z x Y x X refused: composition extends the orbits of
    Z x Y in the support by the X slots, row by row, and never pushes."""
    rng = random.Random(43)
    cases = [(sym, sub(2), power(1), inj(2)),
             (sym, power(2), power(2), power(2)),
             (order, power(2), power(2), power(2)),
             (OrderContext(0, -1), MIXED, sub(2), MIXED)]
    pairs = []
    for ctx, z, y, x in cases:
        a, b = seeded_matrix(ctx, x, y, rng), seeded_matrix(ctx, y, z, rng)
        pairs.append((a, b, matmul_by_pullback(b, a)))
    algebras = [EndAlgebra(order, sub(2)), EndAlgebra(sym, power(2))]
    sc_expected = [[[alg.matrix_to_vec(matmul_by_pullback(bi, bj))
                     for bj in alg.basis] for bi in alg.basis]
                   for alg in algebras]

    def refuse(*args):
        raise AssertionError("pattern image or push during composition")

    forbidden = {product(z, y, x) for _, z, y, x in cases}
    forbidden.update(product(alg.x, alg.x, alg.x) for alg in algebras)
    matrixalg._composition_row.cache_clear()
    for cls in (SymContext, OrderContext):
        orbits = cls.orbits

        def guarded(self, expr, level, orbits=orbits):
            assert expr not in forbidden, "orbits of Z x Y x X enumerated"
            return orbits(self, expr, level)

        monkeypatch.setattr(cls, "orbits", guarded)
        monkeypatch.setattr(cls, "image_orbit", refuse)
        monkeypatch.setattr(cls, "push_orbit", refuse)
    for a, b, expected in pairs:
        assert matmul(b, a) == expected
    assert [alg.structure_constants() for alg in algebras] == sc_expected


def test_transpose_and_traces_enumerate_no_orbit_of_xx(monkeypatch):
    """transpose pushes only the support along the swap, and trace and
    char_series pair the support with a transpose, so none of them asks
    for the orbits of X x X: matrices on three orbits of X x X, for order
    Power(3) and for Power(2) and Sub(2) in both backends."""
    rng = random.Random(61)
    cases = []
    for ctx, x in [(order, power(3)), (sym, power(2)), (sym, sub(2)),
                   (order, power(2)), (OrderContext(0, -1), sub(2))]:
        xx = product(x, x)
        pats = rng.sample(list(ctx.orbits(xx, 0)), 3)
        m = InvariantMatrix(ctx, x, x, SchwartzFunction(
            ctx, xx, 0, {pat: rng.choice(COEFFS[2:]) for pat in pats}))
        cases.append((m, transpose_by_pullback(m), char_series(m, 5)))
    # an empty pullback index, so that no pullback hides its orbit requests
    monkeypatch.setattr(integration, "_pull_index", {})
    requested = []
    for cls in (SymContext, OrderContext):
        orbits = cls.orbits

        def recording(self, expr, level, orbits=orbits):
            requested.append(expr)
            return orbits(self, expr, level)

        monkeypatch.setattr(cls, "orbits", recording)
    for m, transposed, series in cases:
        xx = product(m.domain, m.domain)
        assert m.transpose() == transposed
        assert requested == []
        assert char_series(m, 5) == series
        assert trace(m) == series.coeffs[1]
        assert m.domain in requested and xx not in requested
        requested.clear()


def test_matmul_builds_one_row_per_support_orbit(monkeypatch):
    """On sparse factors matmul extends only the support orbits of b, one
    composition row each, and enumerates no orbit of any set."""
    rng = random.Random(47)
    cases = [(sym, power(2), power(2), power(2), 0),
             (sym, MIXED, sub(2), inj(2), 1),
             (order, power(2), power(2), power(2), 0),
             (OrderContext(0, 0), MIXED, sub(2), power(1), 1)]
    pairs = []
    for ctx, z, y, x, level in cases:
        a = seeded_matrix(ctx, x, y, rng, level)
        zy = product(z, y)
        support = rng.sample(ctx.orbits(zy, level), 3)
        b = InvariantMatrix(ctx, y, z, SchwartzFunction(
            ctx, zy, level, {pat: rng.choice(COEFFS[2:]) for pat in support}))
        pairs.append((ctx, a, b, matmul_by_pullback(b, a)))

    def refuse(*args):
        raise AssertionError("orbits enumerated during composition")

    extended = []
    for cls in (SymContext, OrderContext):
        row = cls.composition_row

        def recorded(self, z, y, x, level, o_zy, row=row):
            extended.append(o_zy)
            return row(self, z, y, x, level, o_zy)

        monkeypatch.setattr(cls, "composition_row", recorded)
        monkeypatch.setattr(cls, "orbits", refuse)
    matrixalg._composition_row.cache_clear()
    for ctx, a, b, expected in pairs:
        extended.clear()
        assert matmul(b, a) == expected
        assert len(extended) == len(b.entries.terms)
        assert set(extended) == set(b.entries.terms)


def _points(expr, n):
    """The points of a declared set over [n]: (component, slot values),
    a Sub factor's values as an increasing tuple."""
    out = []
    for c, comp in enumerate(expr.comps):
        choices = [list(iproduct(range(1, n + 1), repeat=k)) if kind == "P"
                   else list(permutations(range(1, n + 1), k)) if kind == "I"
                   else list(combinations(range(1, n + 1), k))
                   for kind, k in comp]
        out.extend((c, sum(vals, ())) for vals in iproduct(*choices))
    return out


def _orbit_of(expr, p, q, nq, level):
    """The orbit of the point (p, q) of expr = P x Q, Q with nq components,
    under the stabiliser of 1..level in S_n: equal values share a block,
    and a value up to the level pins its block."""
    blocks = {}
    for slot, v in enumerate(p[1] + q[1]):
        blocks.setdefault(v, []).append(slot)
    pat = SymPattern(p[0] * nq + q[0], level, _sort_blocks(
        (tuple(slots), v if v <= level else None)
        for v, slots in blocks.items()))
    return sym.canonicalize(expr, pat)


def test_matmul_matches_finite_symmetric_group():
    """At t = n, matmul of two orbit-indicator matrices of the sym backend
    is the product of the 0/1 orbit matrices over [n]: entry (z, x) counts
    the y with (z, y) and (y, x) in the two orbits, at levels 0 and 1."""
    n = 4
    at = EvalPoint.rational(n)
    sets = [power(1), inj(2), sub(2), MIXED]
    for level in (0, 1):
        for z, y, x in iproduct(sets, repeat=3):
            pz, py, px = _points(z, n), _points(y, n), _points(x, n)
            zy, yx, zx = product(z, y), product(y, x), product(z, x)
            o_zy = [[_orbit_of(zy, p, q, y.n_comps(), level) for q in py]
                    for p in pz]
            o_yx = [[_orbit_of(yx, p, q, x.n_comps(), level) for q in px]
                    for p in py]
            basis_a = [(oa, InvariantMatrix(
                sym, x, y, SchwartzFunction.from_orbit(sym, yx, oa)))
                for oa in sym.orbits(yx, level)]
            expected = {}
            for ob in sym.orbits(zy, level):
                b = InvariantMatrix(sym, y, z,
                                    SchwartzFunction.from_orbit(sym, zy, ob))
                for oa, a in basis_a:
                    for r, c in matmul(b, a).entries.terms.items():
                        v = evaluate(c, at)
                        if v:
                            expected.setdefault(r, {})[ob, oa] = v
            for i, p in enumerate(pz):
                for k, q in enumerate(px):
                    counts = {}
                    for j in range(len(py)):
                        key = (o_zy[i][j], o_yx[j][k])
                        counts[key] = counts.get(key, 0) + 1
                    r = _orbit_of(zx, p, q, x.n_comps(), level)
                    assert counts == expected.get(r, {}), (z, y, x, level)


def _pair(p, q, y):
    """The point (p, q) of P x Y, Y with y.n_comps() components."""
    return p[0] * y.n_comps() + q[0], p[1] + q[1]


def _orbit_matrix(x, y, pat):
    """B_pat: the 0/1 indicator matrix X -> Y of one orbit of Y x X."""
    return InvariantMatrix(sym, x, y,
                           SchwartzFunction.from_orbit(sym, product(y, x), pat))


def test_transpose_and_trace_match_finite_symmetric_group():
    """Over [5]: transpose(B_p) is the indicator of the swapped points of
    p, the pairing of B_q with B_p at t = 5 counts the (y, x) with (y, x)
    in p and (x, y) in q, and trace(B_p) counts the x with (x, x) in p, at
    levels 0 and 1.  Y x X has at most four slots, so over [5] every orbit
    has a point."""
    n = 5
    at = EvalPoint.rational(n)
    sets = [power(1), inj(2), sub(2), MIXED]
    for level in (0, 1):
        for y, x in iproduct(sets, repeat=2):
            yx, xy = product(y, x), product(x, y)
            swapped, pairs = {}, {}
            for q in _points(y, n):
                for p in _points(x, n):
                    o_yx = _orbit_of(yx, q, p, x.n_comps(), level)
                    o_xy = _orbit_of(xy, p, q, y.n_comps(), level)
                    swapped.setdefault(o_yx, set()).add(o_xy)
                    pairs[o_yx, o_xy] = pairs.get((o_yx, o_xy), 0) + 1
            assert set(swapped) == set(sym.orbits(yx, level))
            for pat, image in swapped.items():
                got = _orbit_matrix(x, y, pat).transpose().entries.terms
                assert got == {r: Poly.one() for r in image}, (y, x, level)
                for q in sym.orbits(xy, level):
                    assert evaluate(_pairing(_orbit_matrix(y, x, q),
                                             _orbit_matrix(x, y, pat)),
                                    at) == pairs.get((pat, q), 0), (y, x)
                if y == x:
                    diagonal = sum(
                        _orbit_of(yx, p, p, x.n_comps(), level) == pat
                        for p in _points(x, n))
                    assert evaluate(trace(_orbit_matrix(x, x, pat)),
                                    at) == diagonal, (x, level)


def test_tensor_matches_finite_symmetric_group():
    """Over [4]: the support of tensor(B_p, B_q) on the orbits with a point
    is the orbits of the points whose restrictions lie in p and q, with
    coefficient 1; and the supports over all (p, q) partition the orbits of
    (Y1 x Y2) x (X1 x X2).  Each of the four sets takes each of the four
    places Y1, X1, Y2, X2 once, at levels 0 and 1."""
    n = 4
    sets = [power(1), inj(2), sub(2), MIXED]
    for level in (0, 1):
        for k in range(4):
            y1, x1, y2, x2 = sets[k:] + sets[:k]
            y1x1, y2x2 = product(y1, x1), product(y2, x2)
            yy, xx = product(y1, y2), product(x1, x2)
            expected, seen = {}, set()
            for py1, py2, px1, px2 in iproduct(*(_points(s, n) for s in
                                                 (y1, y2, x1, x2))):
                r = _orbit_of(product(yy, xx), _pair(py1, py2, y2),
                              _pair(px1, px2, x2), xx.n_comps(), level)
                seen.add(r)
                expected.setdefault(
                    (_orbit_of(y1x1, py1, px1, x1.n_comps(), level),
                     _orbit_of(y2x2, py2, px2, x2.n_comps(), level)),
                    set()).add(r)
            cover = []
            for p in sym.orbits(y1x1, level):
                for q in sym.orbits(y2x2, level):
                    got = tensor(_orbit_matrix(x1, y1, p),
                                 _orbit_matrix(x2, y2, q)).entries.terms
                    assert set(got.values()) <= {Poly.one()}
                    assert seen & set(got) == expected.get((p, q), set())
                    cover.extend(got)
            assert len(cover) == len(set(cover))
            assert set(cover) == set(sym.orbits(product(yy, xx), level))


COEFFS = [0, 0, 1, -1, 3, Fraction(1, 2), t - 2, t * t - 3 * t + 1]


def test_tensor_matches_pullback_product():
    """tensor, a composition over the one-point set pushed to
    (Y1 x Y2) x (X1 x X2), equals the product of the two pullbacks, in sym
    and the four order measures, with unions and levels 0 and 1 mixed."""
    rng = random.Random(53)
    cases = [(power(1), MIXED, sub(2), power(1), 0, 0),
             (inj(2), power(1), power(1), MIXED, 0, 0),
             (MIXED, power(1), power(1), power(1), 1, 0),
             (power(1), power(1), MIXED, power(1), 0, 1)]
    for ctx in [sym] + ORDERS:
        for x1, y1, x2, y2, lm, ln in cases:
            m = seeded_matrix(ctx, x1, y1, rng, lm)
            n = seeded_matrix(ctx, x2, y2, rng, ln)
            got = tensor(m, n)
            assert got.level == max(lm, ln)
            assert got == tensor_by_pullback(m, n), (ctx, lm, ln)


def seeded_matrix(ctx, x, y, rng, level=0, coeffs=COEFFS):
    """A matrix x -> y with seeded coefficients, by default about a quarter
    zero."""
    yx = product(y, x)
    terms = {pat: rng.choice(coeffs) for pat in ctx.orbits(yx, level)}
    return InvariantMatrix(ctx, x, y, SchwartzFunction(ctx, yx, level, terms))


def test_transpose_matches_pullback_along_swap():
    """The push along the swap equals the pullback along the swap it
    replaced, on every orbit of Y x X, in sym and the four order measures,
    at levels 0 to 2."""
    sets = [power(1), inj(2), sub(2), MIXED]
    for ctx in [sym] + ORDERS:
        for level in (0, 1, 2):
            for y, x in iproduct(sets, repeat=2):
                yx = product(y, x)
                for pat in ctx.orbits(yx, level):
                    m = InvariantMatrix(ctx, x, y, SchwartzFunction.from_orbit(
                        ctx, yx, pat))
                    assert m.transpose() == transpose_by_pullback(m), (
                        ctx, y, x, level)


def test_identity_is_its_own_transpose():
    """trace pairs a with the identity without transposing it, which holds
    because the identity is symmetric."""
    for ctx in [sym] + ORDERS:
        for x in [power(1), power(2), inj(2), MIXED]:
            for level in range(3):
                one = InvariantMatrix.identity(ctx, x, level)
                assert one.transpose() == one, (ctx, x, level)


def test_pairing_matches_trace_of_product():
    """_pairing(b, a) is tr(b a), on seeded square and rectangular pairs
    X -> Y -> X, with the levels of a and b mixed."""
    rng = random.Random(59)
    shapes = [(power(1), power(1)), (power(1), sub(2)), (inj(2), MIXED),
              (MIXED, power(2))]
    for ctx in [sym] + ORDERS:
        for x, y in shapes:
            for la, lb in [(0, 0), (1, 0), (0, 1), (1, 1)]:
                a = seeded_matrix(ctx, x, y, rng, la)
                b = seeded_matrix(ctx, y, x, rng, lb)
                assert _pairing(b, a) == trace(matmul(b, a)), (ctx, x, y)
    with pytest.raises(ValueError):
        _pairing(a, a)


def test_matmul_matches_pullback_product_pushforward():
    """Differential test of the composition rows against the old path."""
    sets = [power(1), power(2), inj(2), sub(2), union(power(1), sub(2))]
    rng = random.Random(41)
    for ctx in (sym, order):
        # every set in every position, with a seeded partner pair
        triples = [(s, rng.choice(sets[:4]), rng.choice(sets[:4]))
                   for s in sets]
        triples = [tr for s in triples for tr in (s, s[1:] + s[:1],
                                                  s[2:] + s[:2])]
        for z, y, x in triples:
            a = seeded_matrix(ctx, x, y, rng)
            b = seeded_matrix(ctx, y, z, rng)
            assert matmul(b, a) == matmul_by_pullback(b, a)
            zero = InvariantMatrix.zero(ctx, x, y)
            assert matmul(b, zero).is_zero()
            assert matmul(b, zero) == matmul_by_pullback(b, zero)
        # mixed levels: a at level 0, b at level 1, and the other way
        for z, y, x in [(power(1), power(1), power(1)),
                        (sub(2), power(1), power(1)),
                        (power(1), sub(2), union(power(1), sub(2)))]:
            a = seeded_matrix(ctx, x, y, rng, level=0)
            b = seeded_matrix(ctx, y, z, rng, level=1)
            got = matmul(b, a)
            assert got.level == 1 and got == matmul_by_pullback(b, a)
            b0 = seeded_matrix(ctx, y, z, rng, level=0)
            a1 = seeded_matrix(ctx, x, y, rng, level=1)
            assert matmul(b0, a1) == matmul_by_pullback(b0, a1)


KERNEL_COEFFS = [0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(-1, 6),
                 (t * t + t) / 2, t - 2]


def _fields(m):
    return {pat: (c.num, c.den) for pat, c in m.entries.terms.items()}


def test_matmul_integer_sums_match_pullback_oracle():
    """matmul's sums on integer numerators give the oracle's canonical
    fields on every coefficient: denominators 1/2, 1/3, -1/6 and 2 mixed, a
    pair of terms that cancels on one image, a sum whose top degree
    cancels, at levels 0 and 1 in sym and OrderContext(0, -1); the factors'
    terms are left as they were."""
    alg = EndAlgebra(sym, power(1))
    diag, off = sorted(alg.orbit_list, key=lambda pat: pat not in
                       InvariantMatrix.identity(sym, power(1)).entries.terms)

    def end(ci, cj):
        return alg.vec_to_matrix([ci if pat == diag else cj
                                  for pat in alg.orbit_list])

    # diagonal (1/2)(2/3)(t - 1) + (-1/6)(2)(t - 1) = 0; off-diagonal
    # 1 - (t - 1)/9 - (t - 2)/3 over the denominators 2, 18 and 6
    b, a = end(Fraction(1, 2), Fraction(-1, 6)), end((2 * t - 2) / 3, 2)
    assert matmul(b, a).entries.terms == {off: (16 - 4 * t) / 9}
    # off-diagonal 1/3 + (-t + 1/2) + (t - 2): the t terms cancel
    b, a = end(Fraction(1, 3), 1), end(Fraction(1, 2) - t, 1)
    assert matmul(b, a).entries.terms == {
        diag: t * Fraction(2, 3) - Fraction(5, 6), off: Poly.const(
            Fraction(-7, 6))}

    rng = random.Random(59)
    for ctx in (sym, OrderContext(0, -1)):
        for level in (0, 1):
            for z, y, x in [(power(1), sub(2), power(1)),
                            (sub(2), power(1), MIXED),
                            (power(1), sub(2), inj(2))]:
                a = seeded_matrix(ctx, x, y, rng, level, KERNEL_COEFFS)
                b = seeded_matrix(ctx, y, z, rng, level, KERNEL_COEFFS)
                before = _fields(b), _fields(a)
                got = _fields(matmul(b, a))
                assert got == _fields(matmul_by_pullback(b, a))
                assert (_fields(b), _fields(a)) == before


def test_matmul_sums_without_poly_arithmetic(monkeypatch):
    """On the shapes of the benchmark's random End laws (sym Power(2),
    order Power(1)), with the composition rows cached, matmul adds and
    multiplies no Poly and builds one Poly._reduced per output orbit."""
    rng = random.Random(61)
    cases = []
    for ctx, n in ((sym, 2), (order, 1)):
        alg = EndAlgebra(ctx, power(n))
        for _ in range(3):
            b, a = (alg.vec_to_matrix([rng.randint(-3, 3)
                                       for _ in range(alg.dim)])
                    for _ in range(2))
            cases.append((b, a, matmul(b, a)))
    calls = dict.fromkeys(("__add__", "__radd__", "__mul__", "__rmul__",
                           "_reduced"), 0)

    def counted(name, f):
        def wrapped(*args):
            calls[name] += 1
            return f(*args)
        return wrapped

    for name in calls:
        f = counted(name, Poly.__dict__[name])
        monkeypatch.setattr(Poly, name,
                            staticmethod(f) if name == "_reduced" else f)
    for b, a, expected in cases:
        got = matmul(b, a)
        assert calls["_reduced"] == len(got.entries.terms)
        assert sum(calls.values()) == calls["_reduced"]
        calls.update(dict.fromkeys(calls, 0))
        assert got == expected


def test_allones_square():
    a = InvariantMatrix.all_ones(sym, power(1))
    i = InvariantMatrix.identity(sym, power(1))
    assert matmul(a, a) == a.scale(t)
    assert matmul(i, a) == a and matmul(a, i) == a


def test_graph_composition():
    from oligocat.integration import GSetMap
    from oligocat.setexpr import inj
    f = GSetMap.coordinates(inj(2), [0])
    a_f = InvariantMatrix.from_graph(sym, f)
    b_f = a_f.transpose()
    assert matmul(a_f, b_f) == InvariantMatrix.identity(sym, power(1)).scale(t - 1)


def test_traces():
    i = InvariantMatrix.identity(sym, power(1))
    a = InvariantMatrix.all_ones(sym, power(1))
    assert trace(i) == t and trace(a) == t
    alpha, beta = Fraction(3), Fraction(5)
    m = i.scale(alpha - beta) + a.scale(beta)  # diag alpha, off-diag beta
    assert trace(m) == t * alpha


def test_trace_symmetry_randomized():
    rng = random.Random(23)
    for ctx in (sym, order):
        for _ in range(30):
            a = rand_matrix(ctx, power(1), rng)
            b = rand_matrix(ctx, power(1), rng)
            assert trace(matmul(a, b)) == trace(matmul(b, a))


def test_associativity_randomized():
    rng = random.Random(29)
    for ctx in (sym, order):
        for _ in range(30):
            a, b, c = (rand_matrix(ctx, power(1), rng) for _ in range(3))
            assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))


def test_char_series_composes_half_the_order_minus_one_times(monkeypatch):
    """char_series(a, k) reads tr(a^j) as the pairing of a^ceil(j/2) with
    a^floor(j/2): k // 2 - 1 compositions for the powers up to
    a^ceil((k - 1)/2), not one run of powers per coefficient."""
    a = rand_matrix(sym, power(1), random.Random(3))
    series = {k: char_series(a, k) for k in (1, 2, 3, 4, 5, 8)}
    calls = []
    real = matrixalg.matmul

    def counting(b, a):
        calls.append(1)
        return real(b, a)

    monkeypatch.setattr(matrixalg, "matmul", counting)
    for k, expected in series.items():
        calls.clear()
        assert char_series(a, k) == expected
        assert len(calls) == max(k // 2 - 1, 0)
    assert [higher_trace(a, n) for n in range(8)] == list(series[8].coeffs)


def test_higher_traces():
    i = InvariantMatrix.identity(sym, power(1))
    assert higher_trace(i, 0) == Poly.one()
    assert higher_trace(i, 1) == t
    assert higher_trace(i, 2) == binomial_poly(2)
    assert higher_trace(i, 3) == binomial_poly(3)


def test_char_series_examples():
    i = InvariantMatrix.identity(sym, power(1))
    assert char_series(i, 5) == TruncatedSeries(
        5, [binomial_poly(n) for n in range(5)])
    a = InvariantMatrix.all_ones(sym, power(1))
    assert char_series(a, 4) == TruncatedSeries(4, [Poly.one(), t])


def test_deligne_char_series():
    i = InvariantMatrix.identity(sym, power(1))
    a = InvariantMatrix.all_ones(sym, power(1))
    for alpha, beta in [(2, 3), (1, -1), (Fraction(-1, 2), Fraction(1, 3))]:
        m = i.scale(alpha) + a.scale(beta)
        lhs = char_series(m, 6)
        rhs = (binomial_series(t - 1, alpha, 6)
               * TruncatedSeries(6, [Poly.one(), Poly.const(alpha) + t * beta]))
        assert lhs == rhs


def test_order_end_relations():
    a, b = order_end_basis()
    i = InvariantMatrix.identity(order, power(1))
    assert matmul(a, a) == a.scale(-1)
    assert matmul(b, b) == b.scale(-1)
    ab = matmul(a, b)
    assert ab == matmul(b, a)
    assert ab == i.scale(-1) - a - b
    assert trace(i) == Poly.const(-1)
    assert trace(a) == Poly.zero()
    # indicator of x<y has empty diagonal
    assert trace(b) == Poly.zero()


def test_trace_pairing_omega():
    gram, disc, predicted, r = trace_pairing(sym, power(1))
    assert disc == t * t * (t - 1)
    assert predicted == disc and r == 0


def test_trace_pairing_r():
    gram, disc, predicted, r = trace_pairing(order, power(1))
    assert disc == Poly.one() and predicted == disc and r == 1


def test_trace_pairing_gram_matches_matmul():
    """The Gram matrix of pairings equals the direct tr(B_i B_j) computed
    by composition, and the one read from the structure constants."""
    for ctx, x in [(sym, power(1)), (sym, inj(2)), (order, power(1))]:
        gram, _, _, _ = trace_pairing(ctx, x)
        alg = EndAlgebra(ctx, x)
        assert gram == [[trace(matmul(bi, bj)) for bj in alg.basis]
                        for bi in alg.basis]
        assert gram == _trace_gram(alg)


def test_min_poly_in_corner():
    """With an idempotent e as unit, min_poly works in the corner eAe."""
    alg = EndAlgebra(sym, power(1))
    sp = alg.specialize(EvalPoint.rational(5))
    e = sp.element(InvariantMatrix.all_ones(sym, power(1)).scale(
        Fraction(1, 5)))
    x = Poly.var()
    assert sp.min_poly(e) == x * x - x
    assert sp.min_poly(e, unit=e) == x - 1
    assert sp.min_poly(sp.mul(e, e), unit=e) == x - 1


def test_min_poly_and_jordan():
    a = InvariantMatrix.all_ones(sym, power(1))
    x = Poly.var()
    assert min_poly(a, EvalPoint.rational(5)) == x * x - 5 * x
    s5, n5 = jordan_split(a, EvalPoint.rational(5))
    assert n5.is_zero() and s5 == a
    s0, n0 = jordan_split(a, EvalPoint.rational(0))
    assert s0.is_zero() and n0 == a
    # idempotent splits as itself
    e = a.scale(Fraction(1, 5))
    alg = EndAlgebra(sym, power(1))
    sp = alg.specialize(EvalPoint.rational(5))
    sv, nv = sp.jordan(sp.element(e))
    assert sp.to_matrix(sv) == e
    assert all(c == 0 for c in nv)


def test_is_semisimple():
    assert is_semisimple_end(sym, power(1), EvalPoint.rational(5))
    assert not is_semisimple_end(sym, power(1), EvalPoint.rational(0))
    assert is_semisimple_end(order, power(1), EvalPoint.rational(7))


def _trace_gram(alg: EndAlgebra):
    """The Gram matrix that the pairings replaced: tr(B_i B_j) =
    sum_k c_ij^k tr(B_k), read from the sparse rows of the table (trace is
    linear)."""
    traces = [trace(b) for b in alg.basis]
    return [[sum((c * traces[k] for k, c in pairs), Poly.zero())
             for pairs in plane] for plane in alg.rows()]


def _singular_at(gram, at):
    """Whether det(gram) vanishes at the point: the Gram entries are
    evaluated first and the kernel is found over Q."""
    values = [[evaluate(c, at) for c in row] for row in gram]
    return bool(_nullspace(map(enumerate, values), len(values)))


def nilpotent_trace_probe(ctx, x, at):
    """The semisimplicity test that the radical replaced: the trace pairing
    is nondegenerate at the point and the nilpotent parts of three seeded
    elements have trace zero."""
    alg = EndAlgebra(ctx, x)
    if _singular_at(_trace_gram(alg), at):
        return False
    rng = random.Random(0)
    sp = alg.specialize(at)
    traces = [evaluate(trace(b), at) for b in alg.basis]
    for _ in range(3):
        v = [Fraction(rng.randint(-3, 3)) for _ in range(alg.dim)]
        _, nil = sp.jordan(v)
        if sum(c * t for c, t in zip(nil, traces)) != 0:
            return False
    return True


def test_is_semisimple_matches_nilpotent_trace_probe(monkeypatch):
    """The radical test agrees with the seeded probe on small cases, both
    answers occur, and it makes no Jordan splitting."""
    cases = [(sym, x, t) for x in (power(1), sub(2), power(2))
             for t in (0, 1, 2, 3, 5, 7)]
    cases += [(OrderContext(*spec), x, 7) for spec in LEGAL_SPECS
              for x in (power(1), sub(2))]
    expected = [nilpotent_trace_probe(ctx, x, EvalPoint.rational(t))
                for ctx, x, t in cases]
    assert set(expected) == {True, False}

    def refuse(self, v):
        raise AssertionError("Jordan splitting computed")

    monkeypatch.setattr(matrixalg.SpecializedEnd, "jordan", refuse)
    assert [is_semisimple_end(ctx, x, EvalPoint.rational(t))
            for ctx, x, t in cases] == expected


@pytest.mark.parametrize("ctx,x,points,dims", [
    (sym, power(2), (0, 1, 2, 3), [9, 3, 5, 0]),
    (sym, power(3), (4, 5), [11, 0]),
    (OrderContext(-1, -1), power(1), (7,), [0]),
    (OrderContext(-1, -1), sub(2), (7,), [0]),
    (OrderContext(-1, -1), power(2), (7,), [0]),
    (OrderContext(0, 0), sub(2), (7,), [7]),
    (OrderContext(0, 0), power(2), (7,), [40]),
], ids=lambda v: getattr(v, "to_text", lambda: repr(v))())
def test_radical_dimensions(ctx, x, points, dims):
    """The radical of sym Power(n) at m is nonzero exactly for m <= 2n - 2
    (Martin's theorem for the partition algebra); the Delannoy measure
    (-1, -1) gives semisimple algebras.  Each radical vector r is an ideal
    element: r b and b r lie in the radical's span and are nilpotent."""
    alg = EndAlgebra(ctx, x)
    for m, dim in zip(points, dims):
        sp = alg.specialize(EvalPoint.rational(m))
        rad = sp.radical()
        assert len(rad) == dim
        for r in rad[:3]:
            for b in unit_vectors(sp.dim)[:5]:
                for rb in (sp.mul(r, b), sp.mul(b, r)):
                    assert (len(_nullspace(map(enumerate, rad + [rb]), sp.dim))
                            == sp.dim - dim)
                    power = rb
                    for _ in range(sp.dim):
                        power = sp.mul(power, rb)
                        if not any(power):
                            break
                    assert not any(power)


def test_singular_at_matches_determinant():
    """The kernel test over Q agrees with evaluating the Bareiss
    determinant over Q[t]; both outcomes occur."""
    cases = [(sym, power(1), range(7)), (sym, power(2), [0, 1, 2, 3, 7]),
             (order, power(1), [0, 1, 7])]
    outcomes = set()
    for ctx, x, points in cases:
        gram = _trace_gram(EndAlgebra(ctx, x))
        det = _poly_det(gram)
        for n in points:
            at = EvalPoint.rational(n)
            singular = evaluate(det, at) == 0
            assert _singular_at(gram, at) == singular
            outcomes.add(singular)
    assert outcomes == {True, False}
    with pytest.raises(ValueError):
        is_semisimple_end(sym, power(1), EvalPoint.modular(3, 5))


def test_semisimple_pairing_check_matches_gram(monkeypatch):
    """With the radical check switched off, is_semisimple_end is the
    nonsingularity of the trace pairing, read off the orbit measures; it
    agrees with the Gram matrix eliminated at the point, and both outcomes
    occur."""
    monkeypatch.setattr(matrixalg.SpecializedEnd, "radical", lambda self: [])
    sym_sets = [power(1), power(2), sub(2), inj(2), union(power(1), sub(2))]
    cases = [(sym, x) for x in sym_sets]
    cases += [(ctx, x) for ctx in ORDERS
              for x in (power(1), sub(2), power(2), inj(2))]
    outcomes = []
    for ctx, x in cases:
        gram = _trace_gram(EndAlgebra(ctx, x))
        for t in range(-3, 9):
            at = EvalPoint.rational(t)
            singular = _singular_at(gram, at)
            assert is_semisimple_end(ctx, x, at) == (not singular)
            outcomes.append(singular)
    assert len(outcomes) == 252 and set(outcomes) == {True, False}


def test_idempotent_char_series_factored():
    # semisimple at t0 = 5: product of (1 + c_i u)^{m_i} matches, exponents
    # summing to the measure of the set
    a = InvariantMatrix.all_ones(sym, power(1))
    e1 = a.scale(Fraction(1, 5))
    i = InvariantMatrix.identity(sym, power(1))
    e2 = i - e1
    at = EvalPoint.rational(5)
    m1 = evaluate(trace(e1), at)
    m2 = evaluate(trace(e2), at)
    assert m1 + m2 == evaluate(sym.set_measure(power(1)), at)
    # A = 5 e1 + 0 e2: char series (1 + 5u)^1 (1 + 0u)^4
    lhs = TruncatedSeries(5, [Poly.const(evaluate(c, at))
                              for c in char_series(a, 5).coeffs])
    rhs = binomial_series(Fraction(m1), 5, 5) * binomial_series(Fraction(m2), 0, 5)
    assert lhs == rhs


def test_min_poly_needs_rational_point():
    a = InvariantMatrix.all_ones(sym, power(1))
    with pytest.raises(ValueError):
        min_poly(a, EvalPoint.generic())


def test_trace_requires_square():
    from oligocat.setexpr import inj
    a = InvariantMatrix.from_graph(sym, GSetMap.coordinates(inj(2), [0]))
    with pytest.raises(ValueError):
        trace(a)


def associative(sc) -> bool:
    """(B_i B_j) B_k = B_i (B_j B_k) on a dense table:
    sum_m c_ij^m c_mk^l = sum_m c_jk^m c_im^l for every l."""
    dim = len(sc)

    def combine(coeffs, rows):
        out = [Poly.zero()] * dim
        for a, row in zip(coeffs, rows):
            if not a.is_zero():
                out = [o + a * c for o, c in zip(out, row)]
        return out

    return all(combine(sc[i][j], [plane[k] for plane in sc])
               == combine(sc[j][k], sc[i])
               for i in range(dim) for j in range(dim) for k in range(dim))


def test_end_algebra_associativity():
    for ctx, x in [(sym, power(1)), (order, power(1))]:
        assert associative(EndAlgebra(ctx, x).structure_constants())
    # a perturbed structure constant breaks it
    sc = EndAlgebra(sym, power(1)).structure_constants()
    sc[1][1][0] += Poly.one()
    assert not associative(sc)


def test_matrix_power_and_apply():
    a = InvariantMatrix.all_ones(sym, power(1))
    powers = [InvariantMatrix.identity(sym, power(1))]
    for _ in range(3):
        powers.append(matmul(powers[-1], a))
    assert powers[2] == a.scale(t)
    assert powers[3] == a.scale(t * t)


def test_poly_det_against_sympy():
    """The Bareiss determinant over Q[t] equals sympy's on seeded matrices
    up to 4 x 4 with entries of degree at most 2, including zero leading
    pivots that force a row swap and singular matrices."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("t")
    rng = random.Random(17)

    def entry():
        if rng.random() < 0.3:
            return Poly.zero()
        return Poly([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(rng.randint(1, 3))])

    def to_sympy(p):
        return sum((sympy.Rational(c.numerator, c.denominator) * x ** i
                    for i, c in enumerate(p.coeffs)), sympy.Integer(0))

    def from_sympy(e):
        q = sympy.Poly(e, x, domain="QQ")
        return Poly([Fraction(int(c.p), int(c.q))
                     for c in reversed(q.all_coeffs())])

    mats = [[[entry() for _ in range(n)] for _ in range(n)]
            for n in (1, 2, 3, 4) for _ in range(12)]
    for m in mats[12:]:
        swapped = [row[:] for row in m]
        swapped[0][0] = Poly.zero()
        mats.append(swapped)
        singular = [row[:] for row in m]
        singular[-1] = [p * Poly.var() for p in singular[0]]
        mats.append(singular)
    mats.append([[Poly.zero(), Poly.one()], [Poly.one(), Poly.zero()]])
    swaps = 0
    for m in mats:
        expect = from_sympy(sympy.Matrix(
            [[to_sympy(p) for p in row] for row in m]).det(method="berkowitz"))
        assert _poly_det(m) == expect
        swaps += m[0][0].is_zero() and not expect.is_zero()
    assert swaps > 0


# The SpecializedEnd paths the integer kernel replaced: a dense table of
# Fractions evaluated from the parent's structure constants, a dense mul,
# and commutativity and the center found through mul.

def dense_table(sp):
    return [[[evaluate(c, sp.at) for c in row] for row in plane]
            for plane in sp.parent.structure_constants()]


def mul_dense(sc, u, v):
    out = [Fraction(0)] * len(sc)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                if b:
                    ab = a * b
                    for k, c in enumerate(sc[i][j]):
                        if c:
                            out[k] += ab * c
    return out


def unit_vectors(dim):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(dim)]
            for i in range(dim)]


def nullspace_by_batch(mat, width):
    """The kernel basis from one Gauss-Jordan pass over the whole stacked
    matrix of dense rows: the routine that the row-at-a-time reduction
    replaced."""
    rows = [list(r) for r in mat if any(r)]
    n = len(rows)
    piv_of_col = {}
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv_of_col[c] = r
        r += 1
    out = []
    for fc in range(width):
        if fc in piv_of_col:
            continue
        v = [Fraction(0)] * width
        v[fc] = Fraction(1)
        for c, row in piv_of_col.items():
            v[c] = -rows[row][fc]
        out.append(v)
    return out


def test_nullspace_matches_batch_elimination():
    """The row-at-a-time kernel equals the batch Gauss-Jordan kernel on
    seeded dense, sparse, zero and dependent rows, with the rows given as
    (column, value) pairs in any order."""
    rng = random.Random(29)

    def rand_row(width, density):
        return [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                if rng.random() < density else Fraction(0)
                for _ in range(width)]

    cases = [[], [[Fraction(0)] * 4] * 3]
    for _ in range(40):
        width = rng.randint(1, 9)
        mat = [rand_row(width, rng.choice((1, 0.5, 0.2)))
               for _ in range(rng.randint(1, 12))]
        # dependent rows: combinations of rows already there, and zero rows
        for _ in range(rng.randint(0, 4)):
            a, b = rng.choice(mat), rng.choice(mat)
            f, g = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
            mat.insert(rng.randint(0, len(mat)),
                       [f * x + g * y for x, y in zip(a, b)])
        mat.insert(rng.randint(0, len(mat)), [Fraction(0)] * width)
        cases.append(mat)
    kernels = set()
    for mat in cases:
        width = len(mat[0]) if mat else 3
        expect = nullspace_by_batch(mat, width)
        kernels.add(len(expect) == 0)
        assert _nullspace(map(enumerate, mat), width) == expect
        shuffled = [sorted(enumerate(r), key=lambda _: rng.random())
                    for r in mat]
        assert _nullspace(shuffled, width) == expect
        ints = [[(c, int(v * 12)) for c, v in enumerate(r)] for r in mat]
        assert _nullspace(ints, width) == expect
    assert kernels == {True, False}


def center_basis_by_mul(sc):
    dim = len(sc)
    es = unit_vectors(dim)
    mat = []
    for e in es:
        cols = [[x - y for x, y in zip(mul_dense(sc, b, e),
                                       mul_dense(sc, e, b))]
                for b in es]
        for k in range(dim):
            mat.append([cols[j][k] for j in range(dim)])
    return nullspace_by_batch(mat, dim)


SPECIALIZED_CASES = [(sym, power(1), 5), (sym, inj(2), 6),
                     (sym, power(2), 7), (order, sub(2), 7),
                     (sym, inj(2), Fraction(1, 2))]


@pytest.mark.parametrize("ctx,x,t0", SPECIALIZED_CASES)
def test_specialized_end_matches_dense_fractions(ctx, x, t0):
    sp = EndAlgebra(ctx, x).specialize(EvalPoint.rational(t0))
    sc = dense_table(sp)
    # the table keeps exactly the nonzero constants, sorted by k, over one
    # denominator
    assert (sp.table
            == [[tuple((k, c * sp.den) for k, c in enumerate(row) if c)
                 for row in plane] for plane in sc])
    assert all(type(c) is int for plane in sp.table for row in plane
               for _, c in row)
    if t0 == Fraction(1, 2):
        assert sp.den > 1  # non-integer structure constants occur
    rng = random.Random(f"{ctx!r} {x.to_text()} {t0}")

    def rand_vec():
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                if rng.random() < 0.7 else Fraction(0)
                for _ in range(sp.dim)]

    es = unit_vectors(sp.dim)
    pairs = [(rand_vec(), rand_vec()) for _ in range(12)]
    pairs += [(es[0], rand_vec()), (rand_vec(), es[-1]),
              ([Fraction(0)] * sp.dim, rand_vec()), (list(sp.ident), es[1])]
    for u, v in pairs:
        got = sp.mul(u, v)
        assert got == mul_dense(sc, u, v)
        assert all(type(c) is Fraction for c in got)
    center = center_basis_by_mul(sc)
    assert sp.center_basis() == center
    if all(mul_dense(sc, es[i], es[j]) == mul_dense(sc, es[j], es[i])
           for i in range(sp.dim) for j in range(i + 1, sp.dim)):
        assert center == es  # commutative: the center is the whole algebra


def test_end_at_a_point_reads_no_dense_table(monkeypatch):
    """specialize, the trace Gram matrix and idempotent_decompose read the
    sparse composition rows.  With the dense table refused, sym Power(3)
    at 7 still splits into seven central idempotents whose dimensions sum
    to mu(Power(3)) = 343 there, and the trace pairing and the
    semisimplicity test of Power(2) still run."""
    basis = EndAlgebra(sym, power(2)).basis
    gram_expected = [[trace(matmul(bi, bj)) for bj in basis] for bi in basis]

    def refuse(self):
        raise AssertionError("dense structure-constant table built")

    monkeypatch.setattr(EndAlgebra, "structure_constants", refuse)
    at = EvalPoint.rational(7)
    dims = sorted(d for _, d in
                  idempotent_decompose(PermObject(sym, power(3)), at))
    assert dims == [5, 14, 20, 60, 70, 84, 90]
    assert sum(dims) == evaluate(sym.set_measure(power(3)), at) == 343
    gram, disc, predicted, _ = trace_pairing(sym, power(2))
    assert gram == gram_expected and not disc.is_zero()
    assert is_semisimple_end(sym, power(2), at)


def min_poly_by_nullspace(sp, v, unit=None):
    """The minimal-polynomial search that one elimination pass replaced:
    the kernel of all the powers so far, found afresh for each degree."""
    powers = [list(sp.ident if unit is None else unit)]
    for _ in range(sp.dim + 1):
        kernel = nullspace_by_batch(list(zip(*powers)), len(powers))
        if kernel:
            return Poly(kernel[0]).monic()
        powers.append(sp.mul(powers[-1], v))
    raise ArithmeticError("minimal polynomial not found")


@pytest.mark.parametrize("ctx,x,t0", SPECIALIZED_CASES)
def test_min_poly_matches_nullspace_search(ctx, x, t0):
    """min_poly equals the per-degree kernel search on seeded elements,
    basis elements, 0 and 1, and in the corners of the primitive central
    idempotents where the algebra splits."""
    from oligocat.category import PermObject, idempotent_decompose
    at = EvalPoint.rational(t0)
    sp = EndAlgebra(ctx, x).specialize(at)
    rng = random.Random(f"min_poly {ctx!r} {x.to_text()} {t0}")
    elements = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 if rng.random() < p else Fraction(0)
                 for _ in range(sp.dim)] for p in (1, 0.5, 0.2)]
    elements += unit_vectors(sp.dim) + [[Fraction(0)] * sp.dim,
                                        list(sp.ident)]
    for v in elements:
        assert sp.min_poly(v) == min_poly_by_nullspace(sp, v)
    if t0 == Fraction(1, 2):
        return  # not split semisimple there
    idempotents = [sp.element(e) for e, _ in
                   idempotent_decompose(PermObject(ctx, x), at)]
    assert len(idempotents) > 1
    for e in idempotents:
        for v in elements[:3]:
            corner = sp.mul(sp.mul(e, v), e)
            assert (sp.min_poly(corner, unit=e)
                    == min_poly_by_nullspace(sp, corner, unit=e))
