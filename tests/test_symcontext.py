import random
from itertools import combinations, permutations
from itertools import product as iproduct
from math import comb

import pytest

from oligocat.ordercontext import LEGAL_SPECS, OrderContext, _full_line_value
from oligocat.scalar import Poly, binomial_poly, falling_factorial
from oligocat.setexpr import (SetExpr, inj, measure_polynomial, one,
                              perm_group, power, product, sub, union)
from oligocat.symcontext import (SymContext, SymPattern, _blocks_key,
                                 _partitions, _sort_blocks)

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


def _pin_assignments(n_blocks, level):
    """All injective partial maps {0..n_blocks-1} -> {1..level}: the pin
    enumeration that placed the constants after the slots."""
    out = [{}]
    for r in range(1, min(n_blocks, level) + 1):
        for which in combinations(range(n_blocks), r):
            for perm in permutations(range(1, level + 1), r):
                out.append(dict(zip(which, perm)))
    return out


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


@pytest.mark.parametrize(
    "expr", SUB_HEAVY + [union(power(1), sub(3)),
                         union(one(), product(inj(2), power(1))),
                         union(sub(2), sub(2), power(2))],
    ids=lambda e: e.to_text())
def test_orbits_match_the_pin_assignment_loop(expr):
    """orbits, which places the constants as items of the partition, lists
    the canonical forms of the partitions with every pinning of their
    blocks, in the same order."""
    for level in range(4):
        old = sorted({ctx.canonicalize(expr, pat)
                      for pat in _labelled_patterns(expr, level)},
                     key=lambda p: (p.comp, _blocks_key(p.blocks)))
        assert list(ctx.orbits(expr, level)) == old


@pytest.mark.parametrize("expr", [power(2), sub(2), product(sub(2), inj(2)),
                                  product(sub(2), sub(2), power(1)),
                                  union(power(1), sub(3))],
                         ids=lambda e: e.to_text())
def test_refine_lists_the_orbits_over_the_pattern(expr):
    """refine(pat, level2) lists, each once, the orbits at level2 that
    coarsen to pat: pins above its level made generic, then canonicalized."""
    for level in range(3):
        for level2 in range(level, 4):
            over = {}
            for q in ctx.orbits(expr, level2):
                coarse = ctx.canonicalize(expr, SymPattern(q.comp, level, tuple(
                    (slots, pin if pin is not None and pin <= level else None)
                    for slots, pin in q.blocks)))
                over.setdefault(coarse, set()).add(q)
            for pat in ctx.orbits(expr, level):
                refined = ctx.refine(expr, pat, level2)
                assert len(refined) == len(set(refined))
                assert set(refined) == over[pat]


def _partitions_by_recursion(k, separated, fixed=0):
    """The depth-first enumerator that _partitions replaced, one recursive
    call per item: the oracle for its output and its order."""
    sep_of = [set() for _ in range(k)]
    for g in separated:
        for s in g:
            sep_of[s] = set(g) - {s}
    out = []

    def rec(slot, blocks):
        if slot == k:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            if not sep_of[slot] & set(b):
                b.append(slot)
                rec(slot + 1, blocks)
                b.pop()
        blocks.append([slot])
        rec(slot + 1, blocks)
        blocks.pop()

    rec(0, [[] for _ in range(fixed)])
    return out


def _partition_calls():
    """The arguments of _partitions from orbits, refine (up to level 3)
    and the composition rows (X with given blocks), at levels 0-3."""
    for expr in [power(3), sub(2), product(inj(2), power(1)),
                 product(sub(2), sub(2)), union(sub(3), power(2))]:
        for c in range(expr.n_comps()):
            k, seps = expr.slot_count(c), expr.separated_groups(c)
            for level in range(4):
                yield k + level, seps + (tuple(range(k, k + level)),), 0
                yield k, seps, level + 1
    for new in range(4):
        for generic in range(4):
            yield new, (tuple(range(new)),), generic


def test_partitions_match_the_recursion():
    """The breadth-first builder lists what the recursion lists, in the
    same order, for separated groups and given blocks."""
    for args in _partition_calls():
        assert _partitions(*args) == _partitions_by_recursion(*args)


def test_sym_backend_builds_no_slot_group(monkeypatch):
    """With perm_group refusing, enumeration, measures, canonical forms and
    composition of the sym backend work on Sub-heavy sets."""
    from oligocat import matrixalg, setexpr
    from oligocat.matrixalg import EndAlgebra

    def refuse(*args):
        raise AssertionError("slot-permutation group built")

    monkeypatch.setattr(setexpr, "perm_group", refuse)
    matrixalg._composition_row.cache_clear()
    expr = product(sub(2), power(1), sub(3))
    orbits = ctx.orbits(expr, 1)
    assert ctx.set_measure(expr, 1) == binomial_poly(2) * t * binomial_poly(3)
    for pat in orbits:
        assert ctx.canonicalize(expr, pat) == pat
    raw = SymPattern(0, 0, (((2, 3), None), ((0,), None), ((1,), None)))
    assert ctx.canonicalize(product(sub(3), power(1)), raw).blocks == (
        ((0,), None), ((1,), None), ((2, 3), None))
    assert len(EndAlgebra(ctx, sub(2)).structure_constants()) == 3


MEASURE_SETS = [SetExpr.from_text(s) for s in (
    "0", "1", "Omega", "Power(2)", "Power(4)", "Power(5)", "Power(6)",
    "Inj(2)", "Inj(3)", "Inj(5)", "Inj(6)", "Sub(2)", "Sub(3)", "Sub(5)",
    "Sub(6)", "Sub(2)*Sub(2)", "Sub(2)*Power(2)", "Inj(2)*Sub(2)",
    "Inj(3)*Power(1)", "Sub(3)*Sub(2)*Sub(2)", "1 + Omega",
    "Power(2) + Sub(2) + 1", "Inj(2)*Sub(2) + Sub(3)",
    "Sub(2)*Power(2) + Inj(2)", "Inj(2)*Power(1) + Sub(2)*Sub(2)")]
BACKENDS = [ctx] + [OrderContext(e, d) for e, d in LEGAL_SPECS]
BACKEND_IDS = ["sym"] + [f"order:{e},{d}" for e, d in LEGAL_SPECS]


def _measure_cases(backend):
    """Sets and levels 0..3; an order case keeps at most 8 slots and
    constants, and at most one constant from 6 slots on (Sub(3)*Sub(2)*Sub(2)
    has 401,679 orbits at level 3, Power(6) 249,271 at level 2)."""
    cases = []
    for expr in MEASURE_SETS:
        slots = max(map(expr.slot_count, range(expr.n_comps())), default=0)
        cases += [(expr, level) for level in range(4)
                  if isinstance(backend, SymContext)
                  or (slots + level <= 8 and (slots < 6 or level <= 1))]
    return cases


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
def test_set_measure_is_sum_of_orbit_measures(backend):
    for expr, level in _measure_cases(backend):
        total = Poly.zero()
        for pat in backend.orbits(expr, level):
            total = total + backend.measure(expr, pat)
        assert backend.set_measure(expr, level) == total


def test_set_measure_enumerates_no_orbit(monkeypatch):
    """The product rule needs no orbit of the set at any level; the values
    are those of test_set_measure_is_sum_of_orbit_measures."""
    from oligocat import ordercontext, symcontext

    expected = {(backend, expr, level): backend.set_measure(expr, level)
                for backend in BACKENDS
                for expr, level in _measure_cases(backend)}

    def refuse(*args):
        raise AssertionError("orbits enumerated")

    monkeypatch.setattr(SymContext, "orbits", refuse)
    monkeypatch.setattr(OrderContext, "orbits", refuse)
    monkeypatch.setattr(symcontext, "_sym_orbits", refuse)
    monkeypatch.setattr(ordercontext, "_order_orbits", refuse)
    for (backend, expr, level), value in expected.items():
        assert backend.set_measure(expr, level) == value


@pytest.mark.parametrize("backend", [ctx, OrderContext()],
                         ids=["sym", "order"])
def test_enumeration_past_the_slot_bound_is_refused(backend, monkeypatch):
    """orbits, refine and composition rows refuse a component of more than
    MAX_SLOTS slots and constants with ValueError, before anything is
    enumerated."""
    from oligocat import ordercontext, symcontext
    from oligocat.ordercontext import OrderPattern

    def refuse(*args):
        raise AssertionError("orbits enumerated")

    monkeypatch.setattr(symcontext, "_partitions", refuse)
    monkeypatch.setattr(ordercontext, "_weak_orders", refuse)
    # the one orbit of Sub(999) at level 0, built by hand
    if isinstance(backend, SymContext):
        big = SymPattern(0, 0, tuple(((i,), None) for i in range(999)))
        point = SymPattern(0, 0, (((0,), None),))
    else:
        big = OrderPattern(0, 0, tuple((i,) for i in range(999)))
        point = OrderPattern(0, 0, ((0,),))
    too_many = pytest.raises(ValueError, match="too many to enumerate")
    with too_many:
        backend.orbits(product(sub(600), sub(600)), 0)
    with too_many:
        backend.orbits(union(one(), sub(999)), 2)
    with too_many:
        backend.refine(power(1), point, 1000)
    with too_many:
        next(backend.composition_row(sub(999), one(), power(2), 0, big))


@pytest.mark.parametrize("spec", LEGAL_SPECS)
def test_order_product_rule_on_integers_is_the_polynomial_at_mu_r(spec):
    """The order backend multiplies integers at x = mu(R); the values are
    those of the polynomial in x evaluated there."""
    x = _full_line_value(*spec, 1)
    for expr in MEASURE_SETS + [SetExpr.from_text("Inj(40)*Sub(30)*Power(9)"),
                                SetExpr.from_text("Sub(300) + Inj(200)")]:
        value = measure_polynomial(expr)(x)
        assert measure_polynomial(expr, x) == value
        assert OrderContext(*spec).set_measure(expr) == Poly.const(value)
