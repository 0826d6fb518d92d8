from math import factorial

from oligocat.integration import SchwartzFunction, change_level, integrate
from oligocat.ordercontext import (OrderContext, OrderPattern, Symbol,
                                   _weak_orders, ruffle_product,
                                   single_color_symbols, verify_symbol)
from oligocat.scalar import Poly
from oligocat.setexpr import inj, power, product, sub, union

ctx = OrderContext(-1, -1)

FUBINI = {0: 1, 1: 1, 2: 3, 3: 13, 4: 75}


def test_orbit_counts_weak_orders():
    for n, expect in FUBINI.items():
        assert len(ctx.orbits(power(n), 0)) == expect


def test_orbit_counts_oracle():
    # direct enumeration of weak orders
    from itertools import product as iproduct
    for n in range(1, 5):
        seen = set()
        for vals in iproduct(range(n), repeat=n):
            ranks = sorted(set(vals))
            seen.add(tuple(ranks.index(v) for v in vals))
        assert len(ctx.orbits(power(n), 0)) == len(seen)


def test_parse_orbit_accepts_exactly_the_orbits():
    """The structural check of parse_orbit against enumeration: of all
    weak orders of the slots and constants 1..r (constants in any order
    and class), and of those missing an item, it accepts exactly the texts
    naming an orbit."""
    for expr in [product(power(1), power(1)), product(inj(2), power(1)),
                 sub(2), union(power(1), sub(2))]:
        for lvl in (0, 1, 2):
            orbits = set(ctx.orbits(expr, lvl))
            accepted = set()
            for c in range(expr.n_comps()):
                k = expr.slot_count(c)
                # constant i enumerated as the plain item k + i - 1, so that
                # the constants take every order
                items = list(range(k + lvl))
                for drop in [None] + items:
                    kept = [i for i in items if i != drop]
                    for labelled in _weak_orders(kept, []):
                        classes = tuple(
                            tuple(sorted(i if i < k else k - 1 - i
                                         for i in cls)) for cls in labelled)
                        text = OrderPattern(c, lvl, classes).to_text(expr)
                        try:
                            pat = ctx.parse_orbit(expr, text)
                        except ValueError:
                            continue
                        assert drop is None and pat in orbits, text
                        accepted.add(pat)
            assert accepted == orbits


def test_sub_square_orbits():
    # pairs of 2-subsets of the line: the central Delannoy count
    assert len(ctx.orbits(product(sub(2), sub(2)), 0)) == 13


def test_end_r_orbit_basis():
    pats = ctx.orbits(product(power(1), power(1)), 0)
    assert len(pats) == 3


def test_level_counts():
    assert [len(ctx.orbits(power(1), r)) for r in range(4)] == [1, 3, 5, 7]


def test_measures_standard():
    for n in range(6):
        assert ctx.set_measure(power(n)) == Poly.const((-1) ** n)
        assert ctx.set_measure(sub(n)) == Poly.const((-1) ** n)
        assert ctx.set_measure(inj(n)) == Poly.const((-1) ** n * factorial(n))


def test_four_specs():
    assert OrderContext(0, 0).set_measure(power(1)) == Poly.one()
    assert OrderContext(0, 0).set_measure(power(2)) == Poly.one()
    assert OrderContext(-1, 0).set_measure(power(1)) == Poly.zero()
    assert OrderContext(0, -1).set_measure(power(1)) == Poly.zero()
    # the four specs are pairwise distinct on interval powers
    sigs = set()
    for eps in (-1, 0):
        for delt in (-1, 0):
            c = OrderContext(eps, delt)
            pats = c.orbits(power(1), 1)
            sigs.add(tuple(c.measure(power(1), p).constant() for p in pats))
    assert len(sigs) == 4


def test_refinement_additivity_all_specs():
    for eps in (-1, 0):
        for delt in (-1, 0):
            c = OrderContext(eps, delt)
            for expr in [power(2), sub(2), product(sub(2), power(1))]:
                f = SchwartzFunction.indicator(c, expr, 0)
                for lvl in (1, 2):
                    assert integrate(change_level(f, lvl)) == integrate(f)


def test_orbit_text_round_trip():
    for expr in [power(2), product(sub(2), sub(2)), inj(2)]:
        for lvl in (0, 1):
            for pat in ctx.orbits(expr, lvl):
                text = ctx.orbit_text(expr, pat)
                assert ctx.parse_orbit(expr, text) == pat


def test_orbit_text_bare_tokens():
    # the bare form uses occurrence order per factor letter; unit factors
    # each carry their own letter, multi-slot factors repeat theirs
    expr = product(sub(2), sub(2))
    pat = ctx.parse_orbit(expr, "r<b=r<b")
    assert pat.classes == ((0,), (1, 2), (3,))
    pat2 = ctx.parse_orbit(product(power(1), power(1)), "r<b")
    assert pat2.classes == ((0,), (1,))


def test_ruffles():
    assert ruffle_product("ab", "a") == {"ab": 1, "aab": 2, "aba": 1}
    assert ruffle_product("a", "") == {"a": 1}
    assert ruffle_product("a", "a") == {"a": 1, "aa": 2}
    # commutativity
    assert ruffle_product("ab", "ba") == ruffle_product("ba", "ab")


def test_ruffle_matches_orbit_decomposition():
    # single color: class counts of Sub(n) x Sub(m) orbits match the ruffle
    from collections import Counter
    for n in range(1, 4):
        for m in range(1, 3):
            by_len = Counter()
            for w, mult in ruffle_product("a" * n, "a" * m).items():
                by_len[len(w)] += mult
            by_classes = Counter(len(p.classes)
                                 for p in ctx.orbits(product(sub(n), sub(m)), 0))
            assert dict(by_len) == dict(by_classes)


def test_symbol_census():
    syms = single_color_symbols(4)
    assert len(syms) == 4
    found = set()
    for s in syms:
        assert s.table[("a", "a", "a")] == -1
        eps = s.table[("-inf", "a", "a")]
        delt = s.table[("a", "+inf", "a")]
        found.add((eps, delt))
        assert s.table[("-inf", "+inf", "a")] == 1 + eps + delt
        # cross-check longer words against the measures
        c = OrderContext(eps, delt)
        for n in range(5):
            assert (s.value("-inf", "+inf", "a" * n)
                    == c.set_measure(sub(n)).constant())
    assert found == {(-1, -1), (-1, 0), (0, -1), (0, 0)}


def test_symbol_negative_controls():
    keys = [(s, t, "a") for s in ["-inf", "a"] for t in ["a", "+inf"]]
    all_ones = Symbol("a", dict.fromkeys(keys, 1))
    ok, witness = verify_symbol(all_ones, 2)
    assert not ok and witness[0] == "b"
    all_zero = Symbol("a", dict.fromkeys(keys, 0))
    ok, _ = verify_symbol(all_zero, 2)
    assert not ok
