"""Backend for the infinite symmetric group acting on {1, 2, ...}.

Orbits of the pointwise stabilizer of {1..N} on a declared set are described
by patterns: a partition of the coordinate slots into blocks (equal values),
with some blocks pinned to constants in {1..N} and the rest generic (pairwise
distinct, avoiding {1..N}).  The level N is the group of definition.
The constants are items of the enumeration, like the slots: a set
partition of the slots and the N constants, no two constants in one block,
is a pattern, with a block's constant as its pin and a block holding only a
constant dropped.  Orbits, refinement and the composition rows all place
constants this way, through the one enumerator `_partitions`.

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
"""

from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache
from math import comb, factorial, prod

from .scalar import Poly, falling_factorial
from .setexpr import SetExpr, check_enumerable, measure_polynomial, product

# A pattern's blocks are a tuple of (slots, pin) with slots a sorted tuple of
# slot ids and pin either an int in 1..N or None (generic).
Blocks = tuple[tuple[tuple[int, ...], int | None], ...]


class SymPattern:
    """One stabilizer orbit on a component of a declared set, in canonical
    form (unique under Sub-factor slot symmetries and block ordering)."""

    __slots__ = ("comp", "level", "blocks", "_hash")

    def __init__(self, comp: int, level: int, blocks: Blocks):
        self.comp = comp
        self.level = level
        self.blocks = blocks
        self._hash = None  # computed on the first __hash__

    def __eq__(self, other):
        return (isinstance(other, SymPattern) and
                (self.comp, self.level, self.blocks)
                == (other.comp, other.level, other.blocks))

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.comp, self.level, self.blocks))
        return h

    def __repr__(self):
        return f"SymPattern({self.to_text()!r})"

    def generic_count(self) -> int:
        return sum(1 for _, pin in self.blocks if pin is None)

    def to_text(self) -> str:
        parts = []
        for slots, pin in self.blocks:
            inner = ",".join(str(s + 1) for s in slots)
            if pin is not None:
                inner += f"|pin={pin}"
            parts.append("{%s}" % inner)
        tag = f"@N={self.level}"
        if self.comp:
            tag += f"#c{self.comp}"
        return "[" + ",".join(parts) + "]" + tag

    @staticmethod
    def from_text(s: str) -> "SymPattern":
        m = re.fullmatch(r"\[((\{[^{}]*\})(,\{[^{}]*\})*)?\]@N=(\d+)(#c(\d+))?",
                         s.strip())
        if not m:
            raise ValueError(f"bad orbit text {s!r}")
        level = int(m.group(4))
        comp = int(m.group(6)) if m.group(6) else 0
        blocks = []
        body = m.group(1) or ""
        for part in re.findall(r"\{([^{}]*)\}", body):
            pin = None
            if "|pin=" in part:
                part, pintext = part.split("|pin=")
                pin = int(pintext)
            slots = tuple(sorted(int(x) - 1 for x in part.split(",") if x))
            blocks.append((slots, pin))
        return SymPattern(comp, level, _sort_blocks(blocks))


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

    def canonicalize(self, expr: SetExpr, pat: SymPattern) -> SymPattern:
        subs = expr.sub_groups(pat.comp)
        if not subs:
            return SymPattern(pat.comp, pat.level, _sort_blocks(pat.blocks))
        return SymPattern(pat.comp, pat.level, _canonical_blocks(
            _signature(pat.blocks, _sub_owner(subs)), subs))

    def stabilizer_order(self, expr: SetExpr, pat: SymPattern) -> int:
        """Number of Sub-factor slot symmetries fixing (partition, pins)."""
        subs = expr.sub_groups(pat.comp)
        if not subs:
            return 1
        return _stabilizer_order(_signature(pat.blocks, _sub_owner(subs)))

    # -- enumeration ----------------------------------------------------

    def orbits(self, expr: SetExpr, level: int) -> tuple[SymPattern, ...]:
        return _sym_orbits(expr, level)

    # -- measure ----------------------------------------------------------

    def measure(self, expr: SetExpr, pat: SymPattern) -> Poly:
        g = pat.generic_count()
        s = self.stabilizer_order(expr, pat)
        return falling_factorial(pat.level, g) / s

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

    def refine(self, expr: SetExpr, pat: SymPattern, level2: int
               ) -> list[SymPattern]:
        """Decompose an orbit at a finer level; new pins live in
        {level+1..level2}."""
        if level2 < pat.level:
            raise ValueError("refinement level must not decrease")
        check_enumerable(level2, expr.slot_count(pat.comp))
        if level2 == pat.level:
            return [pat]
        new = level2 - pat.level
        gen_idx = [i for i, (_, pin) in enumerate(pat.blocks) if pin is None]
        out = {}  # the refined orbits in order of first appearance
        # the new constants are the items; the generic blocks are given
        for part in _partitions(new, (tuple(range(new)),), len(gen_idx)):
            blocks = list(pat.blocks)
            for i, placed in zip(gen_idx, part):
                if placed:
                    blocks[i] = (blocks[i][0], pat.level + 1 + placed[0])
            out[self.canonicalize(expr, SymPattern(
                pat.comp, level2, _sort_blocks(blocks)))] = None
        return list(out)

    # -- pushforward primitive -------------------------------------------

    def push_orbit(self, mapdata, pat: SymPattern):
        """Image orbit and fiber measure of one orbit under a structural map.

        Returns (image pattern, coefficient in Q[t]): the pushforward of the
        orbit's indicator is coefficient * indicator of the image.  By
        multiplicativity in fibrations the fiber measure is the quotient of
        the orbit measures, which the symmetry orders make exact:
        ff(N + g_det, g_free) * s_image / s_source.
        """
        image = self.image_orbit(mapdata, pat)
        used = set(mapdata.routes[pat.comp][1])
        # generic source blocks meeting the map are determined by the image
        g_det = sum(1 for slots, pin in pat.blocks
                    if pin is None and used.intersection(slots))
        g_free = pat.generic_count() - g_det
        s_src = self.stabilizer_order(mapdata.source, pat)
        s_img = self.stabilizer_order(mapdata.target, image)
        coeff = (falling_factorial(pat.level + g_det, g_free) * s_img) / s_src
        return image, coeff

    def image_orbit(self, mapdata, pat: SymPattern) -> SymPattern:
        """Image pattern only (no fiber measure); the pullback workhorse."""
        tgt = mapdata.target
        tcomp, feed = mapdata.routes[pat.comp]
        block_of = {}
        for i, (slots, _) in enumerate(pat.blocks):
            for s in slots:
                block_of[s] = i
        tgt_blocks: dict[int, list[int]] = {}
        for tslot, sslot in enumerate(feed):
            tgt_blocks.setdefault(block_of[sslot], []).append(tslot)
        img_blocks = [(tuple(sorted(ts)), pat.blocks[i][1])
                      for i, ts in tgt_blocks.items()]
        return self.canonicalize(tgt, SymPattern(tcomp, pat.level,
                                                 _sort_blocks(img_blocks)))

    # -- composition primitive -------------------------------------------

    def composition_row(self, z: SetExpr, y: SetExpr, x: SetExpr,
                        level: int, o_zy: SymPattern):
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
        zc, yc = divmod(o_zy.comp, ny)
        kz, ky = z.slot_count(zc), y.slot_count(yc)
        check_enumerable(level, *(kz + ky + x.slot_count(xc)
                                  for xc in range(nx)))
        s_zy = self.stabilizer_order(product(z, y), o_zy)
        used = {pin for _, pin in o_zy.blocks}
        given = [(pin, tuple(s for s in slots if s < kz),
                  tuple(s - kz for s in slots if s >= kz))
                 for slots, pin in o_zy.blocks]
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

    def orbit_text(self, expr: SetExpr, pat: SymPattern) -> str:
        return pat.to_text()

    def parse_orbit(self, expr: SetExpr, s: str) -> SymPattern:
        """The orbit named by s; ValueError unless it is an orbit of expr:
        the blocks partition the slots, no two slots of one Inj or Sub
        factor share a block, and the pins are distinct and in 1..N."""
        pat = SymPattern.from_text(s)
        if (pat.comp >= expr.n_comps()
                or sorted(x for slots, _ in pat.blocks for x in slots)
                != list(range(expr.slot_count(pat.comp)))
                or not all(slots for slots, _ in pat.blocks)):
            raise ValueError(f"{s!r} does not fit the slots of {expr.to_text()}")
        block_of = {x: i for i, (slots, _) in enumerate(pat.blocks)
                    for x in slots}
        pins = [pin for _, pin in pat.blocks if pin is not None]
        if (any(len({block_of[x] for x in g}) < len(g)
                for g in expr.separated_groups(pat.comp))
                or len(set(pins)) < len(pins)
                or not all(1 <= pin <= pat.level for pin in pins)):
            raise ValueError(f"{s!r} is not an orbit of {expr.to_text()}")
        return self.canonicalize(expr, pat)

    def relabel_pins(self, expr: SetExpr, pat: SymPattern, sigma: dict[int, int]
                     ) -> SymPattern:
        """Apply a bijective relabeling of pin values (conjugation)."""
        blocks = [(slots, sigma[pin] if pin is not None else None)
                  for slots, pin in pat.blocks]
        return self.canonicalize(expr, SymPattern(pat.comp, pat.level,
                                                  _sort_blocks(blocks)))


@lru_cache(maxsize=None)
def _sym_orbits(expr: SetExpr, level: int) -> tuple[SymPattern, ...]:
    """Every partition of the slots and the constants, one per signature
    multiset."""
    check_enumerable(level, *map(expr.slot_count, range(expr.n_comps())))
    out = []
    for c in range(expr.n_comps()):
        k = expr.slot_count(c)
        subs = expr.sub_groups(c)
        # the constants are items k..k+N-1: a block with item k + i - 1 is
        # pinned to i, and a block of a constant alone is dropped
        labelled = ([(b, None) if b[-1] < k else (b[:-1], b[-1] - k + 1)
                     for b in part if b[0] < k] for part in _partitions(
                        k + level, expr.separated_groups(c)
                        + (tuple(range(k, k + level)),)))
        if subs:
            owner = _sub_owner(subs)
            raw = [_canonical_blocks(sig, subs) for sig in
                   {_signature(blocks, owner) for blocks in labelled}]
        else:  # distinct labelled patterns are distinct orbits, blocks sorted
            raw = [tuple(sorted(blocks, key=_block_key))
                   for blocks in labelled]
        out.extend(SymPattern(c, level, blocks)
                   for blocks in sorted(raw, key=_blocks_key))
    return tuple(out)


@lru_cache(maxsize=None)
def _row_partitions(k: int, separated, given: int):
    """The partitions of the X slots of a composition row with `given`
    blocks given.  Orbit enumeration calls _partitions uncached, so that its
    lists of labelled patterns do not stay in memory."""
    return _partitions(k, separated, given)


@lru_cache(maxsize=None)
def _canonical(expr: SetExpr, comp: int, level: int, blocks) -> SymPattern:
    """The canonical pattern of raw blocks, one object per orbit."""
    return SymContext().canonicalize(expr, SymPattern(comp, level, blocks))


@lru_cache(maxsize=None)
def _row_weight(zx: SetExpr, r: SymPattern, g_yonly: int, denom: int) -> Poly:
    """ff(N + g_R, g_Yonly) s_R / denom, the weight of one extension in a
    composition row with restriction R to Z x X."""
    return (falling_factorial(r.level + r.generic_count(), g_yonly)
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
