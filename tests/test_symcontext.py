import random
from itertools import product as iproduct
from math import comb

import pytest

from oligocat.ordercontext import OrderContext
from oligocat.scalar import Poly, binomial_poly, falling_factorial
from oligocat.setexpr import inj, one, perm_group, power, product, sub, union
from oligocat.symcontext import (SymContext, SymPattern, _blocks_key,
                                 _partitions, _pin_assignments, _sort_blocks)

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


# -- the signature form against the slot-group search it replaces ----------

SUB_HEAVY = [product(sub(2), sub(2), sub(2)),
             product(sub(3), sub(2), sub(2)),
             product(sub(2), inj(2), sub(2)),
             product(sub(4), power(1)),
             union(product(inj(2), sub(2)), sub(3))]


def _slot_group(expr, c):
    return perm_group(expr.sub_groups(c), expr.slot_count(c))


def _labelled_patterns(expr, level):
    """Every labelled partition of the slots with separated slots apart,
    with every injective pinning of its blocks, blocks in partition order."""
    for c in range(expr.n_comps()):
        for part in _partitions(expr.slot_count(c), expr.separated_groups(c)):
            for pins in _pin_assignments(len(part), level):
                yield SymPattern(c, level, tuple(
                    (slots, pins.get(i)) for i, slots in enumerate(part)))


def _lexmin_canonicalize(expr, pat):
    """The least sorted block list over every Sub-factor slot map."""
    return SymPattern(pat.comp, pat.level, min(
        (_sort_blocks([(tuple(w[s] for s in slots), pin)
                       for slots, pin in pat.blocks])
         for w in _slot_group(expr, pat.comp)), key=_blocks_key))


def _fixing(expr, pat):
    """The number of Sub-factor slot maps fixing the pattern."""
    ref = frozenset((frozenset(slots), pin) for slots, pin in pat.blocks)
    return sum(1 for w in _slot_group(expr, pat.comp)
               if frozenset((frozenset(w[s] for s in slots), pin)
                            for slots, pin in pat.blocks) == ref)


@pytest.mark.parametrize("expr", SUB_HEAVY, ids=[e.to_text() for e in SUB_HEAVY])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_signature_form_matches_slot_group_search(expr, level):
    """On every labelled pattern, canonicalize is the lex-min image under
    the slot group and stabilizer_order counts the slot maps fixing it;
    orbits lists exactly the lex-min forms, each once."""
    found = set()
    for pat in _labelled_patterns(expr, level):
        old = _lexmin_canonicalize(expr, pat)
        assert ctx.canonicalize(expr, pat) == old, pat.blocks
        assert ctx.stabilizer_order(expr, pat) == _fixing(expr, pat), pat
        found.add(old)
    orbits = ctx.orbits(expr, level)
    assert len(orbits) == len(set(orbits))
    assert set(orbits) == found


def test_sym_backend_builds_no_slot_group(monkeypatch):
    """With perm_group refusing, enumeration, measures, canonical forms and
    composition of the sym backend work on Sub-heavy sets."""
    from oligocat import matrixalg, setexpr
    from oligocat.matrixalg import EndAlgebra

    def refuse(*args):
        raise AssertionError("slot-permutation group built")

    monkeypatch.setattr(setexpr, "perm_group", refuse)
    monkeypatch.setattr(matrixalg, "_compose_cache", {})
    expr = product(sub(2), power(1), sub(3))
    orbits = ctx.orbits(expr, 1)
    assert ctx.set_measure(expr, 1) == binomial_poly(2) * t * binomial_poly(3)
    for pat in orbits:
        assert ctx.canonicalize(expr, pat) == pat
    raw = SymPattern(0, 0, (((2, 3), None), ((0,), None), ((1,), None)))
    assert ctx.canonicalize(product(sub(3), power(1)), raw).blocks == (
        ((0,), None), ((1,), None), ((2, 3), None))
    assert len(EndAlgebra(ctx, sub(2)).structure_constants()) == 3


@pytest.mark.parametrize("backend", [ctx, OrderContext(-1, -1)],
                         ids=["sym", "order"])
def test_set_measure_is_sum_of_orbit_measures(backend):
    for expr, level in [(product(sub(3), sub(2), sub(2)), 0),
                        (product(sub(2), power(2)), 1),
                        (union(product(inj(2), sub(2)), sub(3)), 2),
                        (power(4), 2), (one(), 1)]:
        total = Poly.zero()
        for pat in backend.orbits(expr, level):
            total = total + backend.measure(expr, pat)
        assert backend.set_measure(expr, level) == total
