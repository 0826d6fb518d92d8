import random
from fractions import Fraction

import pytest

from oligocat.category import (PermObject, categorical_dimension,
                               categorical_trace, check_additivity,
                               check_base_change, check_graph_relations,
                               check_mu_adapted, dual_via_zigzag, duality_data,
                               frobenius, graph_matrices, hom_basis,
                               idempotent_decompose, identity_morphism, tensor,
                               zigzag)
from oligocat.integration import GSetMap, SchwartzFunction, projection_square
from oligocat.matrixalg import InvariantMatrix, matmul, trace
from oligocat.ordercontext import OrderContext
from oligocat.scalar import EvalPoint, Poly, evaluate
from oligocat.setexpr import empty, inj, power, product, sub
from oligocat.symcontext import SymContext

sym = SymContext()
order = OrderContext(-1, -1)
t = Poly.var()

BELL = {2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def rand_morphism(obj, rng):
    basis = hom_basis(obj, obj)
    m = basis[0].scale(rng.randint(-3, 3))
    for b in basis[1:]:
        m = m + b.scale(rng.randint(-3, 3))
    return m


def test_hom_basis_sizes():
    assert len(hom_basis(PermObject(sym, power(1)), PermObject(sym, power(1)))) == 2
    assert len(hom_basis(PermObject(order, power(1)), PermObject(order, power(1)))) == 3
    for a in range(1, 4):
        for b in range(1, 3):
            x = PermObject(sym, power(a))
            y = PermObject(sym, power(b))
            assert len(hom_basis(x, y)) == BELL[a + b]


PAIRS = [(ctx, x) for ctx in (sym, order) for x in (sub(2), power(2))]


def test_zigzag():
    for obj in [PermObject(sym, power(1)), PermObject(order, power(1))] + [
            PermObject(ctx, x) for ctx, x in PAIRS]:
        assert zigzag(obj) == identity_morphism(obj)


def test_ev_cv_dimension():
    for ctx, x, mu in [(sym, power(1), t), (order, power(1), Poly.const(-1)),
                       (sym, inj(2), t * (t - 1))]:
        obj = PermObject(ctx, x)
        ev, cv = duality_data(obj)
        comp = matmul(ev, cv)
        val = list(comp.entries.terms.values())
        assert (val[0] if val else Poly.zero()) == mu


def test_dual_is_transpose():
    rng = random.Random(31)
    for ctx in (sym, order):
        obj = PermObject(ctx, power(1))
        m = rand_morphism(obj, rng)
        assert dual_via_zigzag(m) == m.transpose()
        assert m.transpose().transpose() == m
    # one seeded basis morphism each; order Power(2) is left out, as its
    # zigzag dual extends about 1.7 million weak orders per basis morphism
    for ctx, x in PAIRS[:3]:
        b = rng.choice(hom_basis(PermObject(ctx, x), PermObject(ctx, x)))
        assert dual_via_zigzag(b) == b.transpose()


def test_categorical_trace_equals_matrix_trace():
    for ctx in (sym, order):
        obj = PermObject(ctx, power(1))
        for b in hom_basis(obj, obj):
            assert categorical_trace(b) == trace(b)
    rng = random.Random(59)
    for ctx, x in PAIRS:
        basis = hom_basis(PermObject(ctx, x), PermObject(ctx, x))
        m = rng.choice(basis) - rng.choice(basis).scale(t)
        assert categorical_trace(m) == trace(m)
    assert categorical_dimension(PermObject(sym, power(1))) == t
    assert categorical_dimension(PermObject(order, power(1))) == Poly.const(-1)


def test_tensor_interchange_and_units():
    rng = random.Random(37)
    for ctx in (sym, order):
        obj = PermObject(ctx, power(1))
        a1, a2, b1, b2 = (rand_morphism(obj, rng) for _ in range(4))
        assert (matmul(tensor(a1, a2), tensor(b1, b2))
                == tensor(matmul(a1, b1), matmul(a2, b2)))
        i = identity_morphism(obj)
        assert tensor(i, i) == identity_morphism(PermObject(ctx, power(2)))


def test_swap_squares_to_identity():
    for ctx in (sym, order):
        sw = InvariantMatrix.from_graph(ctx, GSetMap.swap(power(1), power(1)))
        assert matmul(sw, sw) == identity_morphism(
            PermObject(ctx, product(power(1), power(1))))


def test_graph_matrix_relations():
    for ctx in (sym, order):
        f3 = GSetMap.coordinates(inj(3), [0, 1], kind="I")
        g3 = GSetMap.coordinates(inj(2), [0])
        for name, ok in check_graph_relations(ctx, f3, g3):
            assert ok, (ctx, name)
        fid = GSetMap.identity(power(1))
        a, b = graph_matrices(ctx, fid)
        assert a == identity_morphism(PermObject(ctx, power(1)))
        assert b == a


def test_mu_adapted():
    ok, c = check_mu_adapted(sym, GSetMap.coordinates(inj(2), [0]))
    assert ok and c == t - 1
    ok, c = check_mu_adapted(order, GSetMap.coordinates(inj(2), [0]))
    assert ok and c == Poly.const(-2)
    ok, c = check_mu_adapted(sym, GSetMap.symmetrization(inj(2)))
    assert ok and c == Poly.const(2)
    ok, c = check_mu_adapted(order, GSetMap.symmetrization(inj(2)))
    assert ok and c == Poly.const(2)
    ok, c = check_mu_adapted(sym, GSetMap.coordinates(inj(3), [0, 1], kind="I"))
    assert ok and c == t - 2


def test_additivity_and_base_change():
    assert check_additivity(sym, [power(1), inj(2)])
    assert check_additivity(order, [power(1), power(1)])
    assert check_base_change(sym, projection_square(power(1), inj(2), power(1)))
    for ctx in (sym, order):
        assert check_base_change(ctx, projection_square(power(1), power(1),
                                                        power(1)))


def test_frobenius_axioms():
    for ctx in (sym, order):
        obj = PermObject(ctx, power(1))
        _, checks = frobenius(obj)
        assert len(checks) == 8
        for name, ok in checks:
            assert ok, (ctx, name)


def test_idempotent_decomposition_order():
    obj = PermObject(order, power(1))
    dec = idempotent_decompose(obj, EvalPoint.rational(7))
    dims = sorted(d for _, d in dec)
    assert dims == [-1, -1, 1]
    assert sum(dims) == -1  # = mu(R)
    # the idempotents are A+1, B+1 and -1-A-B
    rr = product(power(1), power(1))
    pats = {p.classes: p for p in order.orbits(rr, 0)}

    def ind(classes):
        return InvariantMatrix(order, power(1), power(1),
                               SchwartzFunction.from_orbit(order, rr,
                                                           pats[classes]))
    a, b = ind(((0,), (1,))), ind(((1,), (0,)))
    i = identity_morphism(obj)

    def key(m):
        return repr(sorted((repr(k), v.to_text())
                           for k, v in m.entries.terms.items()))
    assert ({key(m) for m, _ in dec}
            == {key(a + i), key(b + i), key(i.scale(-1) - a - b)})


def test_idempotent_decomposition_sym():
    obj = PermObject(sym, power(1))
    dec = idempotent_decompose(obj, EvalPoint.rational(5))
    dims = sorted(d for _, d in dec)
    assert dims == [1, 4]
    a = InvariantMatrix.all_ones(sym, power(1))
    i = identity_morphism(obj)

    def key(m):
        return repr(sorted((repr(k), v.to_text())
                           for k, v in m.entries.terms.items()))
    assert ({key(m) for m, _ in dec}
            == {key(a.scale(Fraction(1, 5))),
                key(i - a.scale(Fraction(1, 5)))})


@pytest.mark.parametrize("ctx,x,at", [(sym, inj(2), 6), (order, sub(2), 7)],
                         ids=["sym-Inj(2)", "order-Sub(2)"])
def test_idempotent_dimensions_are_categorical_traces(ctx, x, at):
    """The dimensions come from the matrix trace; the categorical trace
    ev o (e x id) o cv is the oracle."""
    point = EvalPoint.rational(at)
    for e, dim in idempotent_decompose(PermObject(ctx, x), point):
        assert dim == evaluate(categorical_trace(e), point)


@pytest.mark.parametrize("ctx", [sym, order], ids=["sym", "order"])
def test_empty_object_has_no_idempotents(ctx):
    """End of the empty object is the zero algebra: it has no primitive
    idempotent, so the decomposition is empty."""
    assert idempotent_decompose(PermObject(ctx, empty()),
                                EvalPoint.rational(3)) == []


def test_idempotent_decompose_rejects_non_semisimple():
    with pytest.raises(ArithmeticError):
        idempotent_decompose(PermObject(sym, power(1)), EvalPoint.rational(0))


def test_cli_table_round_trip(tmp_path):
    import json
    import subprocess
    import sys
    from oligocat.fraisse import (all_structures, boron_mu, structure_text)
    tbl = {}
    for n in range(6):
        for s in all_structures("boron", n):
            v = boron_mu().of_structure(s).constant()
            tbl[structure_text(s)] = (str(v.numerator) if v.denominator == 1
                                      else f"{v.numerator}/{v.denominator}")
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(tbl))
    out = subprocess.run(
        [sys.executable, "-m", "oligocat.cli", "fraisse", "--class", "boron",
         "--check", "measure", "--table", str(path), "--max-size", "5"],
        capture_output=True, text=True)
    assert out.returncode == 0 and "pass" in out.stdout


def test_balanced_axioms_report():
    """mu-adaptedness, base change and additivity of f -> (A_f, B_f) on a
    coordinate map, a symmetrization, a projection square and a union."""
    ok, c = check_mu_adapted(sym, GSetMap.coordinates(inj(2), [0]))
    assert ok and c == t - 1
    assert check_mu_adapted(sym, GSetMap.symmetrization(inj(2)))[0]
    assert check_base_change(sym, projection_square(power(1), inj(2), power(1)))
    assert check_additivity(sym, [power(1), inj(2)])


def test_composition_is_matmul():
    # composing indicator morphisms through the category agrees with the
    # measure-weighted product by construction; spot-check an interpolation
    obj = PermObject(sym, power(1))
    basis = hom_basis(obj, obj)
    offdiag = next(b for b in basis
                   if len(next(iter(b.entries.terms)).blocks) == 2)
    sq = matmul(offdiag, offdiag)
    allones = InvariantMatrix.all_ones(sym, power(1))
    # offdiag = allones - identity; square it symbolically
    expect = (matmul(allones, allones) - allones.scale(2)
              + identity_morphism(obj))
    assert sq == expect
