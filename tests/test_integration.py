import random
from fractions import Fraction

import pytest

from oligocat.integration import (GSetMap, SchwartzFunction, change_level,
                                  integrate, projection_square, pullback,
                                  pushforward)
from oligocat.ordercontext import OrderContext
from oligocat.scalar import Poly, falling_factorial
from oligocat.setexpr import SetExpr, empty, inj, one, power, product, sub, union
from oligocat.symcontext import SymContext

sym = SymContext()
order = OrderContext(-1, -1)
t = Poly.var()

CONTEXTS = [sym, order]


def rand_fn(ctx, expr, rng, lvl=None):
    lvl = rng.choice([0, 1]) if lvl is None else lvl
    orbs = ctx.orbits(expr, lvl)
    terms = {o: Poly.const(rng.randint(-3, 3))
             for o in rng.sample(list(orbs), min(5, len(orbs)))}
    return SchwartzFunction(ctx, expr, lvl, terms)


def test_functions_of_two_backends_are_unequal():
    """Both backends name the one orbit of the point by the tuple
    (0, 0, ()): a sym and an order function on it still differ, while order
    functions under two measures compare equal, as their terms do."""
    s = SchwartzFunction.indicator(sym, one())
    o = SchwartzFunction.indicator(order, one())
    assert list(s.terms) == list(o.terms) == [(0, 0, ())]
    assert s != o and o != s
    assert o == SchwartzFunction.indicator(OrderContext(0, 0), one())


def test_integrate_examples():
    phi = SchwartzFunction.indicator(sym, power(1), 0)
    assert integrate(phi) == t
    # c on the generic part, explicit values on the pins
    pats = sym.orbits(power(1), 2)
    terms = {}
    for p in pats:
        pin = p[2][0][1]
        terms[p] = Poly.const({None: 7, 1: 4, 2: 5}[pin])
    phi = SchwartzFunction(sym, power(1), 2, terms)
    assert integrate(phi) == 7 * (t - 2) + 4 + 5
    assert integrate(SchwartzFunction.zero(sym, power(1))) == Poly.zero()


def test_pushforward_fibers():
    phi = SchwartzFunction.indicator(sym, inj(2), 0)
    f = GSetMap.coordinates(inj(2), [0])
    assert pushforward(f, phi) == SchwartzFunction.indicator(
        sym, power(1), 0).scale(t - 1)
    assert pushforward(GSetMap.identity(inj(2)), phi) == phi
    s = GSetMap.symmetrization(inj(2))
    assert pushforward(s, phi) == SchwartzFunction.indicator(
        sym, sub(2), 0).scale(2)


def test_pushforward_diagonal_point_fibers():
    # all three coordinates equal -> diagonal indicator, coefficient one
    dg = GSetMap.diagonal(power(1))
    phi = SchwartzFunction.indicator(sym, power(1), 0)
    out = pushforward(dg, phi)
    assert len(out.terms) == 1
    assert list(out.terms.values())[0] == Poly.one()


def test_refine_project_to_point():
    # projecting everything away integrates: measure t - 1 at level 1
    pats = sym.orbits(power(1), 1)
    generic = [p for p in pats if p[2][0][1] is None][0]
    phi = SchwartzFunction.from_orbit(sym, power(1), generic)
    out = pushforward(GSetMap.terminal(power(1)), phi)
    assert list(out.terms.values())[0] == t - 1


def test_pairwise_distinct_fiber():
    # x,y,z pairwise distinct -> fiber over a distinct pair is t - 2
    pats = [p for p in sym.orbits(inj(3), 0)]
    assert len(pats) == 1
    phi = SchwartzFunction.from_orbit(sym, inj(3), pats[0])
    f = GSetMap.coordinates(inj(3), [0, 1], kind="I")
    out = pushforward(f, phi)
    assert out == SchwartzFunction.indicator(sym, inj(2), 0).scale(t - 2)


def test_pullback_examples():
    orb = [p for p in sym.orbits(power(1), 1) if p[2][0][1] == 1][0]
    delta1 = SchwartzFunction.from_orbit(sym, power(1), orb)
    pr = GSetMap.proj_product([power(1), power(1)], [0])
    pb = pullback(pr, delta1)
    assert integrate(pb) == t  # {x1 = pin} x Omega
    assert pullback(GSetMap.identity(power(1)), delta1) == delta1


def test_fubini_randomized():
    rng = random.Random(11)
    for ctx in CONTEXTS:
        xy = product(power(1), inj(2))
        for _ in range(25):
            phi = rand_fn(ctx, xy, rng)
            inner = pushforward(GSetMap.proj_product([power(1), inj(2)], [0]),
                                phi)
            assert integrate(inner) == integrate(phi)


# The route builders the structural-map constructors had before each became
# one proj_product call; the routes must agree, so that maps compare and hash
# equal and the push and pull caches keep their keys.

def identity_routes(expr):
    return [(c, list(range(expr.slot_count(c))))
            for c in range(expr.n_comps())]


def diagonal_routes(expr):
    n = expr.n_comps()
    return [(c * n + c, list(range(expr.slot_count(c))) * 2)
            for c in range(n)]


def swap_routes(a, b):
    routes = []
    for ia in range(a.n_comps()):
        ka = a.slot_count(ia)
        for ib in range(b.n_comps()):
            bslots = [ka + s for s in range(b.slot_count(ib))]
            routes.append((ib * a.n_comps() + ia,
                           bslots + list(range(ka))))
    return routes


def spread(source, target, factor_picks):
    slots = source.factor_slots(0)
    return GSetMap(source, target,
                   [(0, [s for i in factor_picks for s in slots[i]])])


def projection(source, keep):
    target = SetExpr([tuple(source.comps[0][i] for i in keep)])
    return spread(source, target, list(keep))


def test_structural_maps_match_route_builders():
    exprs = [power(1), inj(2), sub(2), product(sub(2), power(1)),
             union(power(1), inj(2)), union(power(2), sub(2), one()), one(),
             empty()]
    for e in exprs:
        for got, expect in [
                (GSetMap.identity(e), GSetMap(e, e, identity_routes(e))),
                (GSetMap.diagonal(e),
                 GSetMap(e, product(e, e), diagonal_routes(e))),
                (GSetMap.terminal(e),
                 GSetMap(e, one(), [(0, [])] * e.n_comps()))]:
            assert got == expect and hash(got) == hash(expect)
        for b in exprs:
            got, expect = (GSetMap.swap(e, b),
                           GSetMap(product(e, b), product(b, e),
                                   swap_routes(e, b)))
            assert got == expect and hash(got) == hash(expect)
    for expr, factor in [(inj(2), 0), (product(inj(2), power(1)), 0),
                         (product(power(1), sub(2), inj(3)), 2)]:
        comps = list(expr.comps[0])
        comps[factor] = ("S", comps[factor][1])
        assert (GSetMap.symmetrization(expr, factor)
                == spread(expr, SetExpr([tuple(comps)]),
                          list(range(len(comps)))))
    parts = [sub(2), power(1), sub(2)]
    for keep in ([1, 2], [0], [2, 0], [], [1, 1]):
        assert (GSetMap.proj_product(parts, keep)
                == projection(product(*parts), keep))


def test_routes_are_flat():
    """A route is (target component, one source slot per target slot), and
    each target factor's slice of the feed is checked against its kind."""
    assert GSetMap.__slots__ == ("source", "target", "routes")
    f = GSetMap.proj_product([union(power(1), inj(2)), sub(2)], [1, 0])
    assert f.routes == ((0, (1, 2, 0)), (1, (2, 3, 0, 1)))
    for feed in ([0, 1, 0],             # one slot short
                 [0, 1, 0, 2],          # slot out of range
                 [0, 0, 0, 1]):         # Inj(2) fed twice by one slot
        with pytest.raises(ValueError):
            GSetMap(inj(2), product(inj(2), sub(2)), [(0, feed)])
    with pytest.raises(ValueError, match="whole factor"):
        GSetMap(sub(2), power(1), [(0, [0])])
    with pytest.raises(ValueError, match="not guaranteed distinct"):
        GSetMap(power(2), inj(2), [(0, [0, 1])])


def test_push_transitivity():
    for ctx in CONTEXTS:
        f = GSetMap.coordinates(inj(3), [0, 1], kind="I")
        g = GSetMap.coordinates(inj(2), [0])
        phi = SchwartzFunction.indicator(ctx, inj(3), 0)
        assert (pushforward(g.compose(f), phi)
                == pushforward(g, pushforward(f, phi)))
        # a symmetrisation, then a projection keeping or dropping its Sub
        f = GSetMap.symmetrization(product(inj(2), power(1)))
        phi = SchwartzFunction.indicator(ctx, f.source, 1)
        for keep in ([0], [1]):
            g = GSetMap.proj_product([sub(2), power(1)], keep)
            assert (pushforward(g.compose(f), phi)
                    == pushforward(g, pushforward(f, phi)))


@pytest.mark.parametrize("ctx", CONTEXTS, ids=["sym", "order"])
def test_symmetrization_feeding_two_sub_factors(ctx):
    """One Inj(2) slot group feeds both Sub(2) factors, so the map has one
    symmetry, not two: Fubini holds and the map agrees with symmetrizing and
    then taking the diagonal."""
    f = GSetMap(inj(2), product(sub(2), sub(2)), [(0, [0, 1, 0, 1])])
    phi = SchwartzFunction.indicator(ctx, inj(2), 0)
    pushed = pushforward(f, phi)
    assert integrate(pushed) == integrate(phi)
    two_steps = pushforward(GSetMap.diagonal(sub(2)),
                            pushforward(GSetMap.symmetrization(inj(2)), phi))
    assert pushed == two_steps


def test_base_change():
    rng = random.Random(13)
    for ctx in CONTEXTS:
        f, g, fp, gp = projection_square(power(1), inj(2), power(1))
        for _ in range(10):
            phi = rand_fn(ctx, product(power(1), power(1)), rng, lvl=0)
            assert (pullback(g, pushforward(f, phi))
                    == pushforward(fp, pullback(gp, phi)))


def test_projection_formula():
    rng = random.Random(17)
    for ctx in CONTEXTS:
        f = GSetMap.coordinates(inj(2), [0])
        for _ in range(10):
            phi = rand_fn(ctx, inj(2), rng, lvl=0)
            psi = rand_fn(ctx, power(1), rng, lvl=0)
            assert (pushforward(f, pullback(f, psi) * phi)
                    == psi * pushforward(f, phi))


def test_change_level():
    f = SchwartzFunction.indicator(sym, power(1), 0)
    f1 = change_level(f, 1)
    assert len(f1.terms) == 2
    assert integrate(f1) == integrate(f) == t
    assert change_level(f1, 1) == f1
    with pytest.raises(ValueError):
        change_level(f1, 0)


@pytest.mark.parametrize("ctx", CONTEXTS)
def test_scalar_products_equal_scale(ctx):
    phi = rand_fn(ctx, product(power(1), sub(2)), random.Random(5), lvl=1)
    for c in (3, Fraction(1, 2), Fraction(-4, 3), t - 1):
        assert phi * c == c * phi == phi.scale(c)


def test_level_invariance_of_integrate():
    rng = random.Random(19)
    for ctx in CONTEXTS:
        for _ in range(10):
            phi = rand_fn(ctx, product(power(1), power(1)), rng)
            assert integrate(change_level(phi, phi.level + 1)) == integrate(phi)


def test_pin_relabel_invariance():
    phi = SchwartzFunction.indicator(sym, power(2), 2)
    sigma = {1: 2, 2: 1}
    terms = {sym.relabel_pins(power(2), pat, sigma): c
             for pat, c in phi.terms.items()}
    psi = SchwartzFunction(sym, power(2), 2, terms)
    assert integrate(psi) == integrate(phi)


def test_function_json_round_trip_data():
    phi = SchwartzFunction.indicator(sym, product(sub(2), power(1)), 1)
    blob = {"level": phi.level,
            "terms": [{"orbit": sym.orbit_text(phi.expr, pat),
                       "coeff": c.to_text()} for pat, c in phi.terms.items()]}
    # rebuild from the JSON data
    expr = product(sub(2), power(1))
    terms = {sym.parse_orbit(expr, row["orbit"]): Poly.from_text(row["coeff"])
             for row in blob["terms"]}
    psi = SchwartzFunction(sym, expr, blob["level"], terms)
    assert psi == phi


def test_matrix_json_round_trip_data():
    from oligocat.cli import matrix_json
    from oligocat.matrixalg import InvariantMatrix, matmul
    from oligocat.setexpr import SetExpr
    a = InvariantMatrix.all_ones(order, power(1))
    m = matmul(a, a)
    blob = matrix_json(m)
    dom = SetExpr.from_text(blob["domain"])
    cod = SetExpr.from_text(blob["codomain"])
    expr = product(cod, dom)
    terms = {order.parse_orbit(expr, row["orbit"]): Poly.from_text(row["coeff"])
             for row in blob["terms"]}
    rebuilt = InvariantMatrix(order, dom, cod,
                              SchwartzFunction(order, expr, blob["level"],
                                               terms))
    assert rebuilt == m


def test_union_components():
    u = union(power(1), inj(2))
    phi = SchwartzFunction.indicator(sym, u, 0)
    assert integrate(phi) == t + falling_factorial(0, 2)
    inc = GSetMap.inclusion([power(1), inj(2)], 0)
    part = pushforward(inc, SchwartzFunction.indicator(sym, power(1), 0))
    assert integrate(part) == t
