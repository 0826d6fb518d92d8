"""The acceptance gate: one test per criterion, every check exact
(tolerance zero), with one printed pass/fail line per criterion.

Criterion 9 carries an expected Hom-basis count of 9 for the square of the
two-element-subset object on the line.  The directly computed orbit count is
13: pairs of 2-subsets of a line have sum_k (4-k)!/((2-k)!^2 k!) = 13 order
configurations (the central Delannoy number), confirmed here by brute force
in test_ordercontext.  The criterion is asserted with its stated value and
is therefore expected red on that one sub-check; everything else in it holds.
"""

import random
from fractions import Fraction
from math import comb, factorial

import numpy as np

from oligocat.category import (PermObject, check_additivity, check_base_change,
                               check_graph_relations, check_mu_adapted,
                               categorical_trace,
                               dual_via_zigzag, frobenius,
                               hom_basis, idempotent_decompose,
                               identity_morphism, zigzag)
from oligocat.fraisse import (EmbeddingMap, FiniteSet, TotalOrder,
                              all_structures, boron_mu, boron_nu,
                              boron_theta_witness, embeddings,
                              enumerate_amalgamations, orders_sign, sets_nu_t,
                              verify_measure)
from oligocat.glqmeasure import QContext, count_subspaces
from oligocat.integration import (GSetMap, SchwartzFunction, integrate,
                                  projection_square, pushforward)
from oligocat.matrixalg import (InvariantMatrix, char_series, matmul, trace,
                                trace_pairing)
from oligocat.ordercontext import OrderContext, single_color_symbols
from oligocat.scalar import (EvalPoint, Poly, TruncatedSeries, binomial_poly,
                             binomial_series, evaluate, falling_factorial)
from oligocat.setexpr import inj, power, product, sub
from oligocat.symcontext import SymContext, generic_count
from oligocat.verify import (suite_matrix_laws, sym_end_oracle)

sym = SymContext()
order = OrderContext(-1, -1)
t = Poly.var()


def report(number, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {tag}{suffix}")
    return ok


def test_criterion_01_symmetric_measures():
    ok = True
    for n in range(7):
        ok &= sym.set_measure(power(n)) == t ** n
        ok &= sym.set_measure(inj(n)) == falling_factorial(0, n)
        ok &= sym.set_measure(sub(n)) == binomial_poly(n)
    assert report(1, ok, "mu(Omega^n), mu(Inj n), mu(Sub n) for n <= 6")


def test_criterion_02_fixed_point_interpolation():
    ok = True
    for k in range(5):
        for expr in (power(k), inj(k), sub(k)):
            # the sum of the orbit measures, not the product rule
            mu = integrate(SchwartzFunction.indicator(sym, expr, 0))
            for n in range(9):
                ok &= mu(n) == sym.fixed_points(expr, n)
    assert report(2, ok, "fixed points = evaluated measure, k <= 4, n <= 8")


def test_criterion_03_orbit_counts_and_structure_constants():
    bell = [1, 1, 2, 5, 15, 52, 203]
    ok = all(len(sym.orbits(power(n), 0)) == bell[n] for n in range(7))
    for n in range(1, 4):
        for m in range(1, 4):
            lhs = sym.set_measure(sub(n)) * sym.set_measure(sub(m))
            rhs = Poly.zero()
            for k in range(max(n, m), n + m + 1):
                rhs = rhs + comb(k, n) * comb(n, n + m - k) * binomial_poly(k)
            ok &= lhs == rhs
            # fiber count oracle: pairs of subsets with prescribed union
            from itertools import combinations
            for k in range(max(n, m), n + m + 1):
                count = sum(1 for a in combinations(range(k), n)
                            for b in combinations(range(k), m)
                            if set(a) | set(b) == set(range(k)))
                ok &= count == comb(k, n) * comb(n, n + m - k)
    assert report(3, ok, "Bell numbers and product structure constants")


def test_criterion_04_matrix_laws_randomized():
    rows = suite_matrix_laws(seed=0)
    ok = all(c.ok for c in rows)
    assert report(4, ok, f"{len(rows)} law families, 100 instances each "
                         "(associativity, trace symmetry, annihilating pairs,"
                         " nilpotents)")


def test_criterion_05_deligne_example_series():
    i = InvariantMatrix.identity(sym, power(1))
    a = InvariantMatrix.all_ones(sym, power(1))
    ok = matmul(a, a) == a.scale(t)
    # diag alpha, off-diag beta has trace t*alpha
    for alpha, beta in [(3, 5), (Fraction(1, 2), 2)]:
        m = i.scale(alpha - beta) + a.scale(beta)
        ok &= trace(m) == t * alpha
    # chi_{alpha + beta A} = (1 + alpha u)^(t-1) (1 + (alpha + t beta) u)
    for alpha, beta in [(2, 3), (1, -1), (Fraction(-1, 2), Fraction(1, 3))]:
        m = i.scale(alpha) + a.scale(beta)
        lhs = char_series(m, 6)
        rhs = (binomial_series(t - 1, alpha, 6)
               * TruncatedSeries(6, [Poly.one(), Poly.const(alpha) + t * beta]))
        ok &= lhs == rhs
    assert report(5, ok, "A^2 = tA, tr = t alpha, factored char series to u^5")


def test_criterion_06_finite_group_oracle():
    ok = True
    for n, big_n in ((1, 4), (2, 6), (2, 8)):
        alg, rows = sym_end_oracle(n, big_n)
        mats = [np.array(m) for m in rows]
        at = EvalPoint.rational(big_n)
        sc = alg.structure_constants()
        for i in range(alg.dim):
            for j in range(alg.dim):
                expected = sum((int(evaluate(c, at)) * mats[k]
                                for k, c in enumerate(sc[i][j])),
                               np.zeros_like(mats[0]))
                ok &= np.array_equal(mats[i] @ mats[j], expected)
    assert report(6, ok, "structure constants at t=N match finite matrices, "
                         "(n,N) in {(1,4),(2,6),(2,8)}")


def test_criterion_07_trace_pairing_discriminants():
    gram, disc, predicted, r = trace_pairing(sym, power(1))
    ok = disc == t * t * (t - 1) and predicted == disc and r == 0
    for ctx, x in [(sym, power(2)), (order, power(1)), (order, sub(2))]:
        gram, disc, predicted, r = trace_pairing(ctx, x)
        ok &= disc == predicted
    assert report(7, ok, "discriminant formula vs direct Gram determinants "
                         "on Omega, Omega^2, R, R^(2)")


def test_criterion_08_category_laws():
    ok = True
    rng = random.Random(0)
    for ctx in (sym, order):
        obj = PermObject(ctx, power(1))
        ok &= zigzag(obj) == identity_morphism(obj)
        basis = hom_basis(obj, obj)
        m = basis[0].scale(2)
        for b in basis[1:]:
            m = m + b.scale(rng.randint(-3, 3))
        ok &= dual_via_zigzag(m) == m.transpose()
        ok &= all(categorical_trace(b) == trace(b) for b in basis)
        _, checks = frobenius(obj)
        ok &= all(okk for _, okk in checks)
        mu_ok, c = check_mu_adapted(ctx, GSetMap.coordinates(inj(2), [0]))
        ok &= mu_ok
        ok &= c == (t - 1 if ctx is sym else Poly.const(-2))
        ok &= check_additivity(ctx, [power(1), inj(2)])
        ok &= check_base_change(ctx, projection_square(power(1), power(1),
                                                       power(1)))
        f3 = GSetMap.coordinates(inj(3), [0, 1], kind="I")
        g3 = GSetMap.coordinates(inj(2), [0])
        ok &= all(okk for _, okk in check_graph_relations(ctx, f3, g3))
    ok &= zigzag(PermObject(sym, sub(2))) == identity_morphism(
        PermObject(sym, sub(2)))
    assert report(8, ok, "zigzag, dual = transpose, categorical trace, "
                         "Frobenius, structural-map relations")


def test_criterion_09_order_context():
    ok = True
    for n in range(7):
        ok &= order.set_measure(power(n)) == Poly.const((-1) ** n)
        ok &= order.set_measure(inj(n)) == Poly.const((-1) ** n * factorial(n))
    # End(C(R)) relations
    rr = product(power(1), power(1))
    pats = {p[2]: p for p in order.orbits(rr, 0)}

    def ind(classes):
        return InvariantMatrix(order, power(1), power(1),
                               SchwartzFunction.from_orbit(order, rr,
                                                           pats[classes]))
    a, b = ind(((0,), (1,))), ind(((1,), (0,)))
    i = identity_morphism(PermObject(order, power(1)))
    ok &= matmul(a, a) == a.scale(-1)
    ok &= matmul(b, b) == b.scale(-1)
    ok &= matmul(a, b) == i.scale(-1) - a - b
    # idempotents and dimensions
    dec = idempotent_decompose(PermObject(order, power(1)),
                               EvalPoint.rational(5))
    dims = sorted(d for _, d in dec)
    ok &= dims == [-1, -1, 1] and sum(dims) == -1

    def key(m):
        return repr(sorted((repr(k), v.to_text())
                           for k, v in m.entries.terms.items()))
    ok &= ({key(m) for m, _ in dec}
           == {key(a + i), key(b + i), key(i.scale(-1) - a - b)})
    # Hom basis and orbit counts
    ok &= len(hom_basis(PermObject(order, power(1)),
                        PermObject(order, power(1)))) == 3
    ok &= len(order.orbits(power(4), 0)) == 75  # dim End(Vec_R tensor 2)
    n_sub2 = len(hom_basis(PermObject(order, sub(2)),
                           PermObject(order, sub(2))))
    count_ok = n_sub2 == 9  # expected value; the computed count is 13
    assert report(9, ok and count_ok,
                  f"order measures, End relations, idempotents, counts; "
                  f"End(Vec_(R^(2))) basis size = {n_sub2}, expected 9"), \
        "the expected 9 contradicts the direct orbit count (13, the " \
        "central Delannoy number); see the module docstring"


def test_criterion_10_symbol_census():
    syms = single_color_symbols(4)
    ok = len(syms) == 4
    found = set()
    for s in syms:
        eps = s.table[("-inf", "a", "a")]
        delt = s.table[("a", "+inf", "a")]
        found.add((eps, delt))
        ok &= s.table[("a", "a", "a")] == -1
        ok &= s.table[("-inf", "+inf", "a")] == 1 + eps + delt
    ok &= found == {(-1, -1), (-1, 0), (0, -1), (0, 0)}
    assert report(10, ok, "exactly four single-color symbols at word bound 4, "
                          "matching the four measures")


def test_criterion_11_glq():
    ok = True
    for q in (2, 3):
        ctx = QContext(q)
        for n in range(5):
            for d in range(n + 1):
                ok &= ctx.omega(0, d)(ctx.q_int(n)) == count_subspaces(q, n, d)
        ok &= ctx.check_q_pascal(4).ok
        for i in range(4):
            for j in range(4):
                ctx.grassmann_structure_constants(i, j)  # raises on failure
    assert report(11, ok, "subspace counts q in {2,3} n <= 4, q-Pascal m,d <= 4,"
                          " Grassmannian products i,j <= 3")


def test_criterion_12_fraisse():
    ok = verify_measure("set", sets_nu_t(), 4).ok
    ok &= verify_measure("order", orders_sign(), 5).ok
    ok &= verify_measure("boron", boron_mu(), 6).ok
    ok &= verify_measure("boron", boron_nu(), 6).ok
    ok &= boron_theta_witness().ok
    y, x, yp = TotalOrder(1), TotalOrder(2), TotalOrder(2)
    i = EmbeddingMap(y, x, (0,))
    j = EmbeddingMap(y, yp, (0,))
    ok &= len(enumerate_amalgamations(i, j)) == 3
    t2 = all_structures("boron", 2)[0]
    t3 = all_structures("boron", 3)[0]
    i3 = embeddings(t2, t3)[0]
    ok &= len(enumerate_amalgamations(i3, i3)) == 4
    assert report(12, ok, "set/order/boron measures verified, theta witness, "
                          "amalgam counts 3 and 4")


def test_criterion_13_char_p_pathology():
    ok = True
    f = GSetMap.symmetrization(inj(2))
    for t0 in (0, 1):
        at = EvalPoint.modular(t0, 2)
        for level in range(5):
            src_orbs = sym.orbits(inj(2), level)
            tgt_orbs = list(sym.orbits(sub(2), level))
            generic_idx = [k for k, p in enumerate(tgt_orbs)
                           if generic_count(p[2]) == 2]
            assert len(generic_idx) == 1
            gi = generic_idx[0]
            cols = []
            for o in src_orbs:
                img = pushforward(f, SchwartzFunction.from_orbit(sym, inj(2), o))
                cols.append([evaluate(img.coeff(p), at) for p in tgt_orbs])
            # image lies in the generic-value-0 subspace
            ok &= all(col[gi] == 0 for col in cols)
            # and fills it: rank = dim - 1 over F_2
            ok &= _gf2_rank(cols) == len(tgt_orbs) - 1
    assert report(13, ok, "mod-2 pushforward image = generic-value-0 subspace, "
                          "cokernel of dimension 1, levels <= 4")


def _gf2_rank(cols):
    rows = [list(c) for c in cols]
    rank, width = 0, len(rows[0]) if rows else 0
    for c in range(width):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % 2), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % 2:
                rows[i] = [(x + y) % 2 for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_criterion_14_negative_controls():
    ok = True
    bad = sets_nu_t().perturbed(FiniteSet(3).iso_key(), Poly.const(99))
    rep = verify_measure("set", bad, 4)
    ok &= (not rep.ok) and bool(rep.failures)
    bad = orders_sign().perturbed(TotalOrder(3).iso_key(), Poly.const(2))
    rep = verify_measure("order", bad, 5)
    ok &= (not rep.ok) and bool(rep.failures)
    for builtin in (boron_mu, boron_nu):
        bad = builtin().perturbed(all_structures("boron", 5)[0].iso_key(),
                                  Fraction(5))
        rep = verify_measure("boron", bad, 6)
        ok &= (not rep.ok) and bool(rep.failures)
    rep = QContext(2).check_q_pascal(4, perturb=(2, 2, 1))
    ok &= (not rep.ok) and bool(rep.witnesses)
    assert report(14, ok, "every built-in table, perturbed in one entry, "
                          "fails with a concrete witness")
