import random
from itertools import product as iproduct
from math import comb

from oligocat.scalar import Poly, binomial_poly, falling_factorial
from oligocat.setexpr import inj, one, power, product, sub, union
from oligocat.symcontext import (SymContext, SymPattern, _partitions,
                                 _sort_blocks)

ctx = SymContext()
t = Poly.var()

BELL = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def test_orbit_counts_bell():
    for n in range(7):
        assert len(ctx.orbits(power(n), 0)) == BELL[n]


def test_orbit_counts_brute_force():
    # oracle: enumerate maps {1..n} -> {1..2n} and count equality patterns
    from itertools import product as iproduct
    for n in range(1, 5):
        seen = set()
        for vals in iproduct(range(2 * n), repeat=n):
            key = tuple(vals.index(v) for v in vals)
            seen.add(key)
        assert len(ctx.orbits(power(n), 0)) == len(seen)


def test_sub_product_orbits():
    # |A cap B| in {0, 1, 2}
    assert len(ctx.orbits(product(sub(2), sub(2)), 0)) == 3
    # brute force over 2-subsets of {1..6}
    from itertools import combinations
    seen = set()
    for a in combinations(range(6), 2):
        for b in combinations(range(6), 2):
            seen.add(len(set(a) & set(b)))
    assert len(seen) == 3


def test_measures():
    assert ctx.set_measure(power(1)) == t
    assert ctx.set_measure(one()) == Poly.one()
    for n in range(7):
        assert ctx.set_measure(power(n)) == t ** n
        assert ctx.set_measure(inj(n)) == falling_factorial(0, n)
        assert ctx.set_measure(sub(n)) == binomial_poly(n)


def test_product_rule():
    rng = random.Random(5)
    pool = [power(1), inj(2), sub(2), sub(3), power(2)]
    for _ in range(20):
        a, b = rng.choice(pool), rng.choice(pool)
        assert (ctx.set_measure(product(a, b))
                == ctx.set_measure(a) * ctx.set_measure(b))


def test_fiber_orbit_measure():
    # orbit of Omega at level 1 with one generic block avoiding the pin
    pats = ctx.orbits(power(1), 1)
    generic = [p for p in pats if p.blocks[0][1] is None]
    assert len(generic) == 1
    assert ctx.measure(power(1), generic[0]) == t - 1


def test_fixed_points_oracle():
    for expr in [power(1), power(2), power(3), inj(2), inj(3), sub(2), sub(3)]:
        mu = ctx.set_measure(expr)
        for n in range(9):
            assert mu(n) == ctx.fixed_points(expr, n)


def test_level_refinement_additivity():
    for expr in [power(2), inj(2), sub(2), product(sub(2), power(1))]:
        for pat in ctx.orbits(expr, 0):
            for lvl in (1, 2):
                parts = ctx.refine(expr, pat, lvl)
                total = Poly.zero()
                for q in parts:
                    total = total + ctx.measure(expr, q)
                assert total == ctx.measure(expr, pat), (expr, pat, lvl)


def test_structure_constants():
    for n in range(1, 4):
        for m in range(1, 4):
            lhs = ctx.set_measure(sub(n)) * ctx.set_measure(sub(m))
            rhs = Poly.zero()
            for k in range(max(n, m), n + m + 1):
                rhs = rhs + comb(k, n) * comb(n, n + m - k) * binomial_poly(k)
            assert lhs == rhs


def test_structure_constants_fiber_oracle():
    # pairs of subsets of [k] with union [k], counted directly
    from itertools import combinations
    for n in range(1, 4):
        for m in range(1, 4):
            for k in range(max(n, m), n + m + 1):
                count = sum(
                    1 for a in combinations(range(k), n)
                    for b in combinations(range(k), m)
                    if set(a) | set(b) == set(range(k)))
                assert count == comb(k, n) * comb(n, n + m - k)


def test_orbit_text_round_trip():
    for expr in [power(3), product(sub(2), power(1)), inj(2),
                 union(power(1), sub(2))]:
        for lvl in (0, 1, 2):
            for pat in ctx.orbits(expr, lvl):
                assert ctx.parse_orbit(expr, pat.to_text()) == pat


def test_parse_orbit_accepts_exactly_the_orbits():
    """The structural check of parse_orbit against enumeration: of all
    block texts (any partition, any pins in 0..N+1, repeated or not, and an
    empty block), it accepts exactly those naming an orbit."""
    for expr in [product(power(1), power(1)), product(inj(2), power(1)),
                 sub(2), union(power(1), sub(2))]:
        for lvl in (0, 1, 2):
            orbits = set(ctx.orbits(expr, lvl))
            accepted = set()
            for c in range(expr.n_comps()):
                k = expr.slot_count(c)
                for part in _partitions(k, []):
                    for pins in iproduct([None, *range(lvl + 2)],
                                         repeat=len(part)):
                        for extra in ([], [((), None)]):
                            blocks = list(zip(part, pins)) + extra
                            text = SymPattern(c, lvl,
                                              _sort_blocks(blocks)).to_text()
                            try:
                                pat = ctx.parse_orbit(expr, text)
                            except ValueError:
                                continue
                            assert pat in orbits, text
                            accepted.add(pat)
            assert accepted == orbits


def test_orbit_text_example():
    pat = SymPattern.from_text("[{1|pin=1},{2,3}]@N=1")
    assert pat.level == 1
    assert pat.blocks == (((0,), 1), ((1, 2), None))


def test_empty_set():
    from oligocat.setexpr import empty
    assert len(ctx.orbits(empty(), 0)) == 0
    assert ctx.set_measure(empty()) == Poly.zero()
