"""Dual-route checks: quantities computed twice by genuinely different
algorithms must agree exactly.
"""

import random
from itertools import permutations

from oligocat.category import PermObject, hom_basis
from oligocat.integration import GSetMap, integrate, pullback
from oligocat.matrixalg import InvariantMatrix, higher_trace, matmul, trace
from oligocat.scalar import Poly as _Poly
from oligocat.ordercontext import OrderContext
from oligocat.scalar import Poly
from oligocat.setexpr import inj, power, product, sub
from oligocat.symcontext import SymContext
from oligocat.fraisse import FiniteSet, TotalOrder, orders_sign, sets_nu_t

sym = SymContext()
order = OrderContext(-1, -1)
t = Poly.var()


def _perm_sign(sigma):
    sign = 1
    seen = set()
    for start in range(len(sigma)):
        if start in seen:
            continue
        length = 0
        j = start
        while j not in seen:
            seen.add(j)
            j = sigma[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def higher_trace_by_determinant(a: InvariantMatrix, n: int) -> Poly:
    """Expand det(A(x_i, x_j)) as a Schwartz function on the n-th power and
    integrate, dividing by n! (the unordered-subsets route)."""
    if n == 0:
        return Poly.one()
    x = a.domain
    parts = [x] * n
    total = None
    for sigma in permutations(range(n)):
        term = None
        for i in range(n):
            pick = GSetMap.proj_product(parts, [i, sigma[i]])
            f = pullback(pick, a.entries)
            term = f if term is None else term * f
        term = term.scale(_perm_sign(sigma))
        total = term if total is None else total + term
    out = integrate(total)
    fact = 1
    for i in range(2, n + 1):
        fact *= i
    return out / fact


def rand_matrix(ctx, x, rng):
    basis = hom_basis(PermObject(ctx, x), PermObject(ctx, x))
    m = basis[0].scale(rng.randint(-2, 2))
    for b in basis[1:]:
        m = m + b.scale(rng.randint(-2, 2))
    return m


def test_higher_trace_two_routes_sym():
    rng = random.Random(101)
    for _ in range(5):
        a = rand_matrix(sym, power(1), rng)
        for n in range(4):
            assert higher_trace(a, n) == higher_trace_by_determinant(a, n)
    a = rand_matrix(sym, power(1), rng)
    assert higher_trace(a, 4) == higher_trace_by_determinant(a, 4)


def test_higher_trace_two_routes_order():
    rng = random.Random(103)
    for _ in range(5):
        a = rand_matrix(order, power(1), rng)
        for n in range(4):
            assert higher_trace(a, n) == higher_trace_by_determinant(a, n)


def test_higher_trace_two_routes_inj():
    rng = random.Random(107)
    a = rand_matrix(sym, inj(2), rng)
    for n in range(3):
        assert higher_trace(a, n) == higher_trace_by_determinant(a, n)


def test_measures_match_model_theoretic_backends():
    # embeddings of an n-chain into the line are the increasing n-tuples;
    # embeddings of an n-set into the countable set are the injections
    nu_order = orders_sign()
    nu_sets = sets_nu_t()
    for n in range(6):
        assert (order.set_measure(sub(n))
                == nu_order.of_structure(TotalOrder(n)))
        assert sym.set_measure(inj(n)) == nu_sets.of_structure(FiniteSet(n))


def test_matrix_laws_on_larger_objects():
    rng = random.Random(109)
    for ctx, x in [(sym, inj(2)), (sym, sub(2)), (order, inj(2))]:
        for _ in range(8):
            a, b, c = (rand_matrix(ctx, x, rng) for _ in range(3))
            assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))
            assert trace(matmul(a, b)) == trace(matmul(b, a))


def test_central_decomposition_against_finite_representation_theory():
    # at t = 6 the endomorphism algebra of the square object is the honest
    # End of the S_6-module on pairs: 2 triv + 3 std + one 9-dim + one
    # 10-dim irreducible, so the central idempotents have traces
    # 2*1, 3*5, 1*9, 1*10
    from oligocat.category import idempotent_decompose
    from oligocat.matrixalg import is_semisimple_end
    from oligocat.scalar import EvalPoint
    dec = idempotent_decompose(PermObject(sym, power(2)), EvalPoint.rational(6))
    assert sorted(d for _, d in dec) == [2, 9, 10, 15]
    assert is_semisimple_end(sym, power(2), EvalPoint.rational(6))


def test_jordan_split_mixed_element():
    from fractions import Fraction
    from oligocat.matrixalg import jordan_split, min_poly
    from oligocat.scalar import EvalPoint
    a = InvariantMatrix.all_ones(sym, power(1))
    i = InvariantMatrix.identity(sym, power(1))
    m = a + i.scale(2)
    # at t = 0: minimal polynomial (x-2)^2, semisimple part 2I, nilpotent A
    x = Poly.var()
    assert min_poly(m, EvalPoint.rational(0)) == (x - 2) * (x - 2)
    s, n = jordan_split(m, EvalPoint.rational(0))
    assert s == i.scale(2) and n == a
    # the nilpotency is at the evaluation point: n*n = tA vanishes at t=0
    from oligocat.scalar import evaluate
    sq = matmul(n, n)
    assert all(evaluate(c, EvalPoint.rational(0)) == 0
               for c in sq.entries.terms.values())
