"""Backend for the infinite symmetric group acting on {1, 2, ...}.

Orbits of the pointwise stabilizer of {1..N} on a declared set are described
by patterns: a partition of the coordinate slots into blocks (equal values),
with some blocks pinned to constants in {1..N} and the rest generic (pairwise
distinct, avoiding {1..N}).  The level N is the group of definition.
A set partition of the slots and the N constants, no two constants in one
block, is a pattern, with a block's constant as its pin and a block holding
only a constant dropped; refinement and the composition rows place the
constants this way, through the enumerator `_partitions`.  Orbit
enumeration lists the patterns already sorted instead: each constant in
turn takes a block of the remaining slots or none, then each generic block
takes the least remaining slot.

A Sub factor's slots are separated, so each block holds at most one slot of
each Sub(k) factor.  Give each block its signature: its pin, its non-Sub
slots and the set of Sub factors it meets.  Two patterns lie in one orbit of
the Sub-factor slot group exactly when their multisets of signatures agree:
match blocks of equal signature, and the slot map sending each block's Sub
slots to its partner's is in the group, because every slot of a Sub factor
lies in exactly one block.  A slot map fixing a pattern fixes every block
that holds a pin or a non-Sub slot and may permute the other generic blocks
among those meeting the same Sub factors, each permutation by exactly one
slot map; so |Stab| is the product of m! over those classes of m blocks.
The canonical form is the lex-min image under the slot group, built from
the signatures without searching it: pinned blocks in pin order, then
repeatedly the generic block with the least slots, each block taking the
least free slot of every Sub factor it meets.
The orbits are the signature multisets, generated directly: a pattern of
the other slots and the constants, the blocks each Sub factor meets among
its blocks, and generic blocks holding only Sub slots.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache
from itertools import combinations, product as iproduct, repeat
from math import comb, factorial, prod

from .scalar import Poly, falling_factorial
from .setexpr import (SetExpr, check_enumerable, lex_subsets,
                      measure_polynomial, product, separation_bits, unfold)

# An orbit is the tuple (comp, level, blocks), blocks a tuple of (slots, pin)
# with slots a sorted tuple of slot ids and pin either an int in 1..N or None
# (generic), in canonical form (unique under Sub-factor slot symmetries and
# block ordering).
Blocks = tuple[tuple[tuple[int, ...], int | None], ...]
Orbit = tuple[int, int, Blocks]


def generic_count(blocks: Blocks) -> int:
    """The number of generic blocks."""
    return sum(1 for _, pin in blocks if pin is None)


def _block_key(b):
    slots, pin = b
    return (0, pin, slots) if pin is not None else (1, 0, slots)


def _blocks_key(blocks):
    return tuple(_block_key(b) for b in blocks)


def _sort_blocks(blocks) -> Blocks:
    # pinned blocks first by pin value, then generic blocks by least slot
    return tuple(sorted(((tuple(sorted(s)), p) for s, p in blocks),
                        key=_block_key))


class SymContext:
    """Orbit enumeration, measures and fiber projection for the symmetric
    group; measures take values in Q[t]."""

    name = "sym"

    def __repr__(self):
        return "SymContext()"

    def __eq__(self, other):
        return isinstance(other, SymContext)

    def __hash__(self):
        return hash("sym")

    # -- canonical form -------------------------------------------------

    def canonicalize(self, expr: SetExpr, pat) -> Orbit:
        """The orbit of (comp, level, blocks), the blocks in any order and
        each block's slots in any order."""
        comp, level, blocks = pat
        subs = expr.sub_groups(comp)
        if not subs:
            return comp, level, _sort_blocks(blocks)
        return comp, level, _canonical_blocks(
            _signature(blocks, _sub_owner(subs)), subs)

    def stabilizer_order(self, expr: SetExpr, pat: Orbit) -> int:
        """Number of Sub-factor slot symmetries fixing (partition, pins)."""
        comp, _, blocks = pat
        subs = expr.sub_groups(comp)
        if not subs:
            return 1
        return _stabilizer_order(_signature(blocks, _sub_owner(subs)))

    # -- enumeration ----------------------------------------------------

    def orbits(self, expr: SetExpr, level: int) -> tuple[Orbit, ...]:
        return _sym_orbits(expr, level)

    # -- measure ----------------------------------------------------------

    def measure(self, expr: SetExpr, pat: Orbit) -> Poly:
        _, level, blocks = pat
        s = self.stabilizer_order(expr, pat)
        return falling_factorial(level, generic_count(blocks)) / s

    def set_measure(self, expr: SetExpr, level: int = 0) -> Poly:
        """The product rule at mu(Omega) = t; no orbit is enumerated.  The
        level cannot change the value: restriction keeps a measure."""
        return measure_polynomial(expr)

    # -- fixed points -------------------------------------------------

    def fixed_points(self, expr: SetExpr, n: int) -> int:
        """Number of points fixed by the stabilizer of {1..n}, counted
        combinatorially (the independent oracle for interpolation)."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        total = 0
        for comp in expr.comps:
            cnt = 1
            for kind, k in comp:
                if kind == "P":
                    cnt *= n ** k
                elif kind == "I":
                    f = 1
                    for i in range(k):
                        f *= (n - i)
                    cnt *= f  # contains a zero factor whenever k > n
                else:
                    cnt *= comb(n, k)
            total += cnt
        return total

    # -- level refinement ----------------------------------------------

    def refine(self, expr: SetExpr, pat: Orbit, level2: int
               ) -> list[Orbit]:
        """Decompose an orbit at a finer level; new pins live in
        {level+1..level2}."""
        comp, level, blocks = pat
        if level2 < level:
            raise ValueError("refinement level must not decrease")
        check_enumerable(level2, expr.slot_count(comp))
        if level2 == level:
            return [pat]
        new = level2 - level
        gen_idx = [i for i, (_, pin) in enumerate(blocks) if pin is None]
        out = {}  # the refined orbits in order of first appearance
        # the new constants are the items; the generic blocks are given
        for part in _partitions(new, (tuple(range(new)),), len(gen_idx)):
            refined = list(blocks)
            for i, placed in zip(gen_idx, part):
                if placed:
                    refined[i] = (refined[i][0], level + 1 + placed[0])
            out[self.canonicalize(expr, (comp, level2, refined))] = None
        return list(out)

    # -- pushforward primitive -------------------------------------------

    def push_orbit(self, mapdata, pat: Orbit):
        """Image orbit and fiber measure of one orbit under a structural map.

        Returns (image pattern, coefficient in Q[t]): the pushforward of the
        orbit's indicator is coefficient * indicator of the image.  By
        multiplicativity in fibrations the fiber measure is the quotient of
        the orbit measures, which the symmetry orders make exact:
        ff(N + g_det, g_free) * s_image / s_source.
        """
        comp, level, blocks = pat
        image = self.image_orbit(mapdata, pat)
        used = set(mapdata.routes[comp][1])
        # generic source blocks meeting the map are determined by the image
        g_det = sum(1 for slots, pin in blocks
                    if pin is None and used.intersection(slots))
        g_free = generic_count(blocks) - g_det
        s_src = self.stabilizer_order(mapdata.source, pat)
        s_img = self.stabilizer_order(mapdata.target, image)
        coeff = (falling_factorial(level + g_det, g_free) * s_img) / s_src
        return image, coeff

    def image_orbit(self, mapdata, pat: Orbit) -> Orbit:
        """Image orbit only (no fiber measure); the pullback workhorse."""
        comp, level, blocks = pat
        tcomp, feed = mapdata.routes[comp]
        block_of = {}
        for i, (slots, _) in enumerate(blocks):
            for s in slots:
                block_of[s] = i
        tgt_blocks: dict[int, list[int]] = {}
        for tslot, sslot in enumerate(feed):
            tgt_blocks.setdefault(block_of[sslot], []).append(tslot)
        return self.canonicalize(mapdata.target, (tcomp, level, [
            (ts, blocks[i][1]) for i, ts in tgt_blocks.items()]))

    # -- composition primitive -------------------------------------------

    def composition_row(self, z: SetExpr, y: SetExpr, x: SetExpr,
                        level: int, o_zy: Orbit):
        """One row of the fibres of Z x Y x X -> Z x X: the extensions of
        the orbit o_zy of Z x Y by the X slots.

        The given blocks are those of o_zy, then one empty block for each
        constant in 1..N that no block of o_zy uses.  Each X slot of a
        component of X joins a given block, an X-only block opened before
        or a new generic block, and takes the pin of the block it joins;
        two slots of one X Inj or Sub factor never share a block.  Yields
        (o_yx, R, coeff): the canonical restrictions to Y x X and Z x X, and
        coeff the sum over those extensions of
        ff(N + g_R, g_Yonly) s_R / (s_zy |H_X|), with g_R the generic blocks
        of R, g_Yonly the generic blocks holding only Y slots and |H_X| the
        product of k! over X's Sub(k) factors.  The extensions are
        labelled, so an orbit P of Z x Y x X over o_zy comes out
        |H_X| s_zy / s_P times: the weights sum to push_orbit's
        ff(N + g_R, g_Yonly) s_R / s_P."""
        nx, ny = x.n_comps(), y.n_comps()
        yx_expr, zx_expr = product(y, x), product(z, x)
        zc, yc = divmod(o_zy[0], ny)
        kz, ky = z.slot_count(zc), y.slot_count(yc)
        check_enumerable(level, *(kz + ky + x.slot_count(xc)
                                  for xc in range(nx)))
        s_zy = self.stabilizer_order(product(z, y), o_zy)
        used = {pin for _, pin in o_zy[2]}
        given = [(pin, tuple(s for s in slots if s < kz),
                  tuple(s - kz for s in slots if s >= kz))
                 for slots, pin in o_zy[2]]
        given += [(c, (), ()) for c in range(1, level + 1) if c not in used]
        nb = len(given)
        for xc in range(nx):
            denom = s_zy * prod(factorial(len(g)) for g in x.sub_groups(xc))
            counts: dict = {}
            for part in _row_partitions(x.slot_count(xc),
                                        x.separated_groups(xc), nb):
                yx, zx = [], []
                g_yonly = 0
                for i, xs in enumerate(part):
                    pin, zs, ys = given[i] if i < nb else (None, (), ())
                    if ys or xs:
                        yx.append((ys + tuple(ky + j for j in xs), pin))
                    if zs or xs:
                        zx.append((zs + tuple(kz + j for j in xs), pin))
                    elif pin is None:
                        g_yonly += 1
                key = (_canonical(yx_expr, yc * nx + xc, level, tuple(yx)),
                       _canonical(zx_expr, zc * nx + xc, level, tuple(zx)),
                       g_yonly)
                counts[key] = counts.get(key, 0) + 1
            for (o_yx, r, g_yonly), n in counts.items():
                yield o_yx, r, _row_weight(zx_expr, r, g_yonly, denom) * n

    # -- misc -------------------------------------------------------------

    def orbit_text(self, expr: SetExpr | None, pat: Orbit) -> str:
        """The text of an orbit, e.g. "[{1|pin=1},{2,3}]@N=1#c2" (slots
        from 1, the component tag only past component 0); expr is not
        read."""
        comp, level, blocks = pat
        parts = []
        for slots, pin in blocks:
            inner = ",".join(str(s + 1) for s in slots)
            if pin is not None:
                inner += f"|pin={pin}"
            parts.append("{%s}" % inner)
        tag = f"@N={level}"
        if comp:
            tag += f"#c{comp}"
        return "[" + ",".join(parts) + "]" + tag

    def parse_orbit(self, expr: SetExpr, s: str) -> Orbit:
        """The orbit named by s; ValueError unless it is an orbit of expr:
        the blocks partition the slots, no two slots of one Inj or Sub
        factor share a block, and the pins are distinct and in 1..N."""
        m = re.fullmatch(r"\[((\{[^{}]*\})(,\{[^{}]*\})*)?\]@N=(\d+)(#c(\d+))?",
                         s.strip())
        if not m:
            raise ValueError(f"bad orbit text {s!r}")
        level = int(m.group(4))
        comp = int(m.group(6)) if m.group(6) else 0
        blocks = []
        for part in re.findall(r"\{([^{}]*)\}", m.group(1) or ""):
            pin = None
            if "|pin=" in part:
                part, pintext = part.split("|pin=")
                pin = int(pintext)
            blocks.append((tuple(int(x) - 1 for x in part.split(",") if x),
                           pin))
        if (comp >= expr.n_comps()
                or sorted(x for slots, _ in blocks for x in slots)
                != list(range(expr.slot_count(comp)))
                or not all(slots for slots, _ in blocks)):
            raise ValueError(f"{s!r} does not fit the slots of {expr.to_text()}")
        block_of = {x: i for i, (slots, _) in enumerate(blocks)
                    for x in slots}
        pins = [pin for _, pin in blocks if pin is not None]
        if (any(len({block_of[x] for x in g}) < len(g)
                for g in expr.separated_groups(comp))
                or len(set(pins)) < len(pins)
                or not all(1 <= pin <= level for pin in pins)):
            raise ValueError(f"{s!r} is not an orbit of {expr.to_text()}")
        return self.canonicalize(expr, (comp, level, blocks))

    def relabel_pins(self, expr: SetExpr, pat: Orbit, sigma: dict[int, int]
                     ) -> Orbit:
        """Apply a bijective relabeling of pin values (conjugation)."""
        comp, level, blocks = pat
        return self.canonicalize(expr, (comp, level, [
            (slots, sigma[pin] if pin is not None else None)
            for slots, pin in blocks]))


@lru_cache(maxsize=None)
def _sym_orbits(expr: SetExpr, level: int) -> tuple[Orbit, ...]:
    """The canonical patterns of each component in _blocks_key order: as
    _sorted_patterns lists them when no factor is a Sub factor, else one
    per signature of _sub_signatures, sorted."""
    check_enumerable(level, *map(expr.slot_count, range(expr.n_comps())))
    out = []
    for c in range(expr.n_comps()):
        subs = expr.sub_groups(c)
        if subs:
            raw = sorted((_canonical_blocks(sig, subs)
                          for sig in _sub_signatures(expr, c, level)),
                         key=_blocks_key)
        else:
            raw = _sorted_patterns(tuple(range(expr.slot_count(c))),
                                   expr.separated_groups(c), level)
        out.extend(zip(repeat(c), repeat(level), raw))
    return tuple(out)


def _sorted_patterns(slots, separated, level: int) -> list[Blocks]:
    """The patterns on `slots` (increasing) and the constants 1..level,
    no two slots of a separated group in one block, in _blocks_key order:
    each constant in turn takes a nonempty block of the remaining slots, in
    lexicographic order, or none; then each generic block takes the least
    remaining slot.  The patterns are kept for each state: the next
    constant, and the remaining slots as a bitmask."""
    n = len(slots)
    apart = separation_bits(slots, separated)
    generic = level + 1

    def moves(state):
        pin, rest = state
        members = [i for i in range(n) if rest >> i & 1]
        if pin < generic:
            return [(((block, pin),), (pin + 1, rest & ~bits))
                    for block, bits in lex_subsets(members, slots, apart)
                    ] + [((), (pin + 1, rest))]
        # the least slot, then any subset of the slots it may join
        least = members[0]
        head, rest = (slots[least],), rest & ~(1 << least)
        joins = [i for i in members[1:] if not apart[least] >> i & 1]
        return [(((head + block, None),), (pin, rest & ~bits))
                for block, bits in [((), 0),
                                    *lex_subsets(joins, slots, apart)]]

    return unfold((1, (1 << n) - 1), moves, {(generic, 0): [()]})


def _sub_signatures(expr: SetExpr, c: int, level: int):
    """The signature of each orbit of a component with Sub factors, once:
    a core pattern on the other slots and the constants, from
    _sorted_patterns, an absent constant a core block of that constant
    alone; each Sub factor meets a set of the core blocks, and generic
    blocks holding only Sub slots meet the factors left to meet, a
    multiset of factor sets.  Pinned blocks come first, in pin order."""
    subs = expr.sub_groups(c)
    in_sub = {s for g in subs for s in g}
    slots = tuple(s for s in range(expr.slot_count(c)) if s not in in_sub)
    separated = tuple(g for g in expr.separated_groups(c)
                      if g[0] not in in_sub)
    sizes = [len(g) for g in subs]
    multisets = {None: [()]}  # the states of _multiset_moves
    for pattern in _sorted_patterns(slots, separated, level):
        pinned = {pin: block for block, pin in pattern if pin is not None}
        core = [(pinned.get(pin, ()), pin) for pin in range(1, level + 1)]
        core += [b for b in pattern if b[1] is None]
        met_by = [[met for j in range(min(k, len(core)) + 1)
                   for met in combinations(range(len(core)), j)]
                  for k in sizes]
        for choice in iproduct(*met_by):
            meets = [[] for _ in core]
            for f, met in enumerate(choice):
                for i in met:
                    meets[i].append(f)
            sig = [(pin is None, pin or 0, fixed, tuple(m))
                   for (fixed, pin), m in zip(core, meets) if fixed or m]
            left = tuple(k - len(met) for k, met in zip(sizes, choice))
            for extra in unfold((left, ()) if any(left) else None,
                                _multiset_moves, multisets):
                yield sig + [(True, 0, (), m) for m in extra]


def _multiset_moves(state):
    """The moves of unfold for the multisets of nonempty factor sets
    (increasing tuples) that meet each factor f exactly need[f] times, each
    multiset once, as its sorted sequence.  A state is (need, floor): the
    next set holds the least factor still to meet and is no less than
    floor, the set before it; the state None has nothing left to meet."""
    need, floor = state
    todo = [f for f, k in enumerate(need) if k]
    out = []
    for j in range(len(todo)):
        for more in combinations(todo[1:], j):
            m = (todo[0],) + more
            if m >= floor:
                after = list(need)
                for f in m:
                    after[f] -= 1
                out.append(((m,), (tuple(after), m) if any(after) else None))
    return out


@lru_cache(maxsize=None)
def _row_partitions(k: int, separated, given: int):
    """The partitions of the X slots of a composition row with `given`
    blocks given."""
    return _partitions(k, separated, given)


@lru_cache(maxsize=None)
def _canonical(expr: SetExpr, comp: int, level: int, blocks) -> Orbit:
    """The orbit of raw blocks, one tuple per orbit."""
    return SymContext().canonicalize(expr, (comp, level, blocks))


@lru_cache(maxsize=None)
def _row_weight(zx: SetExpr, r: Orbit, g_yonly: int, denom: int) -> Poly:
    """ff(N + g_R, g_Yonly) s_R / denom, the weight of one extension in a
    composition row with restriction R to Z x X."""
    return (falling_factorial(r[1] + generic_count(r[2]), g_yonly)
            * SymContext().stabilizer_order(zx, r) / denom)


@lru_cache(maxsize=None)
def _sub_owner(subs: tuple[tuple[int, ...], ...]) -> dict[int, int]:
    """Slot -> index of the Sub factor holding it."""
    return {s: f for f, g in enumerate(subs) for s in g}


def _signature(blocks, owner: dict[int, int]):
    """Each block as (generic, pin, non-Sub slots, Sub factors met), sorted:
    equal for two patterns exactly when they lie in one orbit."""
    sig = []
    for slots, pin in blocks:
        fixed, meets = [], []
        for s in sorted(slots):
            f = owner.get(s)
            if f is None:
                fixed.append(s)
            else:
                meets.append(f)
        sig.append((pin is None, pin or 0, tuple(fixed), tuple(meets)))
    sig.sort()
    return tuple(sig)


def _canonical_blocks(sig, subs) -> Blocks:
    """The lex-min pattern with signature sig, in sorted block order:
    pinned blocks in pin order, then repeatedly the generic block whose
    slots are least, each taking the least free slot of every Sub factor it
    meets (its slots then dominate those of any other choice)."""
    free = [0] * len(subs)  # position of each Sub factor's least free slot

    def slots_of(fixed, meets):
        return tuple(sorted(fixed + tuple(subs[f][free[f]] for f in meets)))

    out, generic = [], Counter()  # generic blocks by (fixed, meets)
    for is_generic, pin, fixed, meets in sig:
        if is_generic:
            generic[fixed, meets] += 1
            continue
        out.append((slots_of(fixed, meets), pin))
        for f in meets:
            free[f] += 1
    while generic:
        # distinct signatures never take the same slots, so no tie
        slots, key = min((slots_of(*k), k) for k in generic)
        generic[key] -= 1
        if not generic[key]:
            del generic[key]
        for f in key[1]:
            free[f] += 1
        out.append((slots, None))
    return tuple(out)


def _stabilizer_order(sig) -> int:
    """Product of m! over the classes of m generic blocks with no non-Sub
    slot that meet the same Sub factors."""
    classes = Counter(meets for is_generic, _, fixed, meets in sig
                      if is_generic and not fixed)
    return prod(factorial(m) for m in classes.values())


def _partitions(k: int, separated, fixed: int = 0) -> list:
    """All set partitions of items 0..k-1 with each separated group's items
    in pairwise distinct blocks, as tuples of sorted item tuples; the
    separated groups are pairwise disjoint.  The first `fixed` blocks are
    given and may stay empty: an item joins one of them, a block opened
    before or a new block.  Built breadth first, one level per item (the
    callers bound k by setexpr.MAX_SLOTS), each partition extended by
    joining a block, then by a new block, in block order: the order of a
    depth-first search over those choices."""
    sep_of = {s: frozenset(g) for g in separated for s in g}
    parts = [((),) * fixed]
    for item in range(k):
        forbidden = sep_of.get(item)
        single = ((item,),)
        new = []
        for blocks in parts:
            for i, b in enumerate(blocks):
                if forbidden is None or forbidden.isdisjoint(b):
                    new.append(blocks[:i] + (b + (item,),) + blocks[i + 1:])
            new.append(blocks + single)
        parts = new
    return parts
