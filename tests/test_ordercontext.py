from math import factorial

import pytest

from oligocat.integration import (GSetMap, SchwartzFunction, change_level,
                                  integrate)
from oligocat.ordercontext import (LEGAL_SPECS, OrderContext, OrderPattern,
                                   Symbol, _gap_product, _weak_orders,
                                   ruffle_product, single_color_symbols,
                                   verify_symbol)
from oligocat.scalar import Poly
from oligocat.setexpr import inj, perm_group, power, product, sub, union

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


# -- the sort form against the slot-symmetry search it replaces -------------

SUB_HEAVY = [(product(sub(2), sub(2), sub(2)), 1),
             (product(sub(2), inj(2), sub(2)), 1),
             (product(sub(3), sub(2)), 2),
             (union(product(inj(2), sub(2)), sub(3)), 2),
             (product(sub(4), power(1)), 2)]


def _lexmin_canonicalize(expr, pat):
    """The minimum of the classes over every Sub-factor slot permutation."""
    best = min(tuple(tuple(sorted(w[i] if i >= 0 else i for i in cls))
                     for cls in pat.classes)
               for w in perm_group(expr.sub_groups(pat.comp),
                                   expr.slot_count(pat.comp)))
    return OrderPattern(pat.comp, pat.level, best)


def _labelled_weak_orders(expr, level):
    """Every weak order of the slots and constants with separated slots
    apart and the constants 1..r in strictly increasing classes."""
    consts = [-i for i in range(1, level + 1)]
    for c in range(expr.n_comps()):
        seps = list(expr.separated_groups(c)) + [consts]
        for classes in _weak_orders(consts + list(range(expr.slot_count(c))),
                                    seps):
            if [-i for cls in classes for i in cls if i < 0] == list(
                    range(1, level + 1)):
                yield OrderPattern(c, level, classes)


@pytest.mark.parametrize("expr,level", SUB_HEAVY,
                         ids=[e.to_text() for e, _ in SUB_HEAVY])
def test_orbits_match_slot_symmetry_search(expr, level):
    """Generating canonical patterns by chains gives exactly the orbits
    that canonicalising every labelled weak order gives, and the sort form
    equals the lex-min form on each labelled weak order."""
    found = set()
    for pat in _labelled_weak_orders(expr, level):
        old = _lexmin_canonicalize(expr, pat)
        assert ctx.canonicalize(expr, pat) == old
        found.add(old)
    orbits = ctx.orbits(expr, level)
    assert len(orbits) == len(set(orbits))
    assert set(orbits) == found


def test_orbits_do_not_search_slot_symmetries(monkeypatch):
    """Enumeration yields canonical patterns without canonicalising; the
    slot-symmetry search finds the same 14,495 orbits."""
    from oligocat import setexpr

    def refuse(*args):
        raise AssertionError("slot-symmetry search during enumeration")

    monkeypatch.setattr(OrderContext, "canonicalize", refuse)
    monkeypatch.setattr(setexpr, "perm_group", refuse)
    assert len(ctx.orbits(product(sub(3), sub(2), sub(2)), 1)) == 14495


def test_order_backend_builds_no_slot_group(monkeypatch):
    """The Sub-factor permutation group is only the tests' oracle: with
    perm_group refusing, the slot geometry, enumeration and composition of
    the order backend work on Sub-heavy sets."""
    from oligocat import matrixalg, setexpr
    from oligocat.matrixalg import EndAlgebra, InvariantMatrix, matmul

    def refuse(*args):
        raise AssertionError("slot-permutation group built")

    monkeypatch.setattr(setexpr, "perm_group", refuse)
    monkeypatch.setattr(matrixalg, "_compose_cache", {})
    setexpr._geometry.cache_clear()
    big = setexpr.SetExpr.from_text("Sub(5)*Sub(5)*Sub(3)")
    assert big.slot_count(0) == 13
    assert len(ctx.orbits(product(sub(3), sub(3)), 1)) == 705
    # integrating 1 over Y = Sub(2), of measure 1, leaves all ones
    ones = SchwartzFunction.indicator(ctx, product(sub(3), sub(2)), 1)
    b = InvariantMatrix(ctx, sub(2), sub(3), ones)
    assert matmul(b, InvariantMatrix.all_ones(ctx, sub(2), 1)).entries == ones
    assert len(EndAlgebra(ctx, sub(2)).structure_constants()) == 13


def _fixing(groups, k, classes):
    return sum(1 for w in perm_group(groups, k)
               if tuple(tuple(sorted(w[i] if i >= 0 else i for i in cls))
                        for cls in classes) == classes)


def _symmetrized(f, c):
    """Inj slot groups of the source feeding a Sub target factor."""
    tc, assigns = f.routes[c]
    sub_slots = {s for g in f.source.sub_groups(c) for s in g}
    return {tuple(sorted(slots))
            for (kind, _), slots in zip(f.target.comps[tc], assigns)
            if kind == "S" and slots and slots[0] not in sub_slots}


def _composite_symmetrized(outer, inner, c):
    """The symmetrized groups of outer after inner, carried back to the
    source slots of inner."""
    mc, massigns = inner.routes[c]
    mid = [s for slots in massigns for s in slots]
    return _symmetrized(inner, c) | {tuple(sorted(mid[s] for s in g))
                                     for g in _symmetrized(outer, mc)}


def _fixing_push_coeff(spec_ctx, f, pat, sym_groups):
    """The pushforward coefficient with the multiplicities of symmetrized
    Inj factors and of unreferenced Sub factors divided out by counting
    the slot maps that fix the pattern."""
    k = f.source.slot_count(pat.comp)
    groups = tuple(sorted(sym_groups))
    m_sym = _fixing(groups, k, pat.classes) if groups else 1
    referenced = {s for slots in f.routes[pat.comp][1] for s in slots}
    pinned, gaps = [], [0]
    for cls in pat.classes:
        has_pin = any(i < 0 or i in referenced for i in cls)
        pinned.append(has_pin)
        if has_pin:
            gaps.append(0)
        elif any(i >= 0 and i not in referenced for i in cls):
            gaps[-1] += 1
    coeff = _gap_product(spec_ctx.spec, gaps)
    s_res = 1
    res_groups = tuple(g for g in f.source.sub_groups(pat.comp)
                       if not any(s in referenced for s in g))
    if res_groups:
        marked = tuple(
            tuple(sorted([i for i in cls if i >= 0 and i not in referenced]
                         + ([-(ci + 1000)] if pinned[ci] else [])))
            for ci, cls in enumerate(pat.classes))
        s_res = _fixing(res_groups, k, marked)
    return Poly.const(coeff) / s_res * m_sym


def _push_cases():
    """Maps with the symmetrized groups GSetMap used to infer or merge."""
    plain = [GSetMap.symmetrization(inj(3)),
             GSetMap(inj(2), product(sub(2), sub(2)), [(0, [(0, 1), (0, 1)])]),
             GSetMap.projection(product(sub(2), power(1), sub(2)), [1, 2])]
    cases = [(f, lambda c, f=f: _symmetrized(f, c)) for f in plain]
    symm = GSetMap.symmetrization(product(inj(2), power(1)))
    drop_sub = GSetMap.projection(symm.target, [1])
    cases.append((drop_sub.compose(symm),
                  lambda c: _composite_symmetrized(drop_sub, symm, c)))
    s2 = GSetMap.symmetrization(inj(2))
    cases.append((s2.graph_map(), lambda c: _symmetrized(s2, c)))
    return cases


@pytest.mark.parametrize("spec", LEGAL_SPECS)
def test_push_coefficient_matches_fixing_count(spec):
    """The coefficient is the gap product alone: the old division by the
    stabiliser sizes of symmetrized and unreferenced Sub groups was 1."""
    c = OrderContext(*spec)
    for f, groups in _push_cases():
        for level in (0, 1, 2):
            for pat in c.orbits(f.source, level):
                image, coeff = c.push_orbit(f, pat)
                assert coeff == _fixing_push_coeff(c, f, pat,
                                                   groups(pat.comp))
                assert image == _lexmin_canonicalize(
                    f.target, c.image_orbit(f, pat))


def test_orbit_text_past_eight_factors():
    """Factors 9 and later get primed letters, so every orbit text of
    Power(5) x Power(5) names one orbit; built by hand, not enumerated."""
    from oligocat import cli
    xx = product(power(5), power(5))
    slots = list(range(10))
    pats = [OrderPattern(0, 0, tuple((s,) for s in slots)),
            OrderPattern(0, 0, tuple((s,) for s in [8] + slots[1:8]
                                     + [0, 9])),
            OrderPattern(0, 1, ((0, 8), (-1,), tuple(slots[1:8]), (9,))),
            OrderPattern(0, 2, ((9,), (-1, 0), (-2,) + tuple(slots[1:9])))]
    texts = [ctx.orbit_text(xx, p) for p in pats]
    assert len(set(texts)) == len(texts)
    for p, text in zip(pats, texts):
        assert ctx.parse_orbit(xx, text) == p
    assert "r'1" in texts[0] and "b'1" in texts[0]
    assert cli.main(["trace", "--ctx", "order", "--matrix",
                     "orbit:Power(5):" + texts[1]]) == 0
