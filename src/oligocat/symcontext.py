"""Backend for the infinite symmetric group acting on {1, 2, ...}.

Orbits of the pointwise stabilizer of {1..N} on a declared set are described
by patterns: a partition of the coordinate slots into blocks (equal values),
with some blocks pinned to constants in {1..N} and the rest generic (pairwise
distinct, avoiding {1..N}).  The level N is the group of definition.

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
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial, prod

from .scalar import Poly, falling_factorial
from .setexpr import SetExpr, product

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
        return self._orbits_cached(expr, level)

    @lru_cache(maxsize=None)
    def _orbits_cached(self, expr: SetExpr, level: int) -> tuple[SymPattern, ...]:
        """Every labelled partition with pins, one per signature multiset."""
        out = []
        for c in range(expr.n_comps()):
            subs = expr.sub_groups(c)
            owner = _sub_owner(subs)
            seen = set()
            for part in _partitions(expr.slot_count(c),
                                    expr.separated_groups(c)):
                for pins in _pin_assignments(len(part), level):
                    blocks = [(part[i], pins.get(i)) for i in range(len(part))]
                    if not subs:  # distinct labelled patterns are distinct orbits
                        out.append(SymPattern(c, level, _sort_blocks(blocks)))
                        continue
                    sig = _signature(blocks, owner)
                    if sig not in seen:
                        seen.add(sig)
                        out.append(SymPattern(c, level,
                                              _canonical_blocks(sig, subs)))
        out.sort(key=lambda p: (p.comp, _blocks_key(p.blocks)))
        return tuple(out)

    # -- measure ----------------------------------------------------------

    def measure(self, expr: SetExpr, pat: SymPattern) -> Poly:
        g = pat.generic_count()
        s = self.stabilizer_order(expr, pat)
        return falling_factorial(pat.level, g) / s

    def set_measure(self, expr: SetExpr, level: int = 0) -> Poly:
        """Sum of ff(N, g) / |Stab| over the orbits: the 1/|Stab| are added
        up per generic count g first, then scale one ff(N, g) each."""
        weights: dict[int, Fraction] = {}
        for pat in self.orbits(expr, level):
            g = pat.generic_count()
            weights[g] = (weights.get(g, 0)
                          + Fraction(1, self.stabilizer_order(expr, pat)))
        total = Poly.zero()
        for g, w in sorted(weights.items()):
            total = total + falling_factorial(level, g) * w
        return total

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
        if level2 == pat.level:
            return [pat]
        new_pins = range(pat.level + 1, level2 + 1)
        gen_idx = [i for i, (_, pin) in enumerate(pat.blocks) if pin is None]
        out, seen = [], set()
        for assign in _partial_injections(gen_idx, list(new_pins)):
            blocks = [(slots, assign.get(i, pin))
                      for i, (slots, pin) in enumerate(pat.blocks)]
            q = self.canonicalize(expr, SymPattern(pat.comp, level2,
                                                   _sort_blocks(blocks)))
            if q.blocks not in seen:
                seen.add(q.blocks)
                out.append(q)
        return out

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
        used = {s for slots in mapdata.routes[pat.comp][1] for s in slots}
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
        tcomp, assigns = mapdata.routes[pat.comp]
        block_of = {}
        for i, (slots, _) in enumerate(pat.blocks):
            for s in slots:
                block_of[s] = i
        tgt_blocks: dict[int, list[int]] = {}
        tslot = 0
        for slots in assigns:
            for sslot in slots:
                tgt_blocks.setdefault(block_of[sslot], []).append(tslot)
                tslot += 1
        img_blocks = [(tuple(sorted(ts)), pat.blocks[i][1])
                      for i, ts in tgt_blocks.items()]
        return self.canonicalize(tgt, SymPattern(tcomp, pat.level,
                                                 _sort_blocks(img_blocks)))

    # -- composition primitive -------------------------------------------

    def composition_terms(self, z: SetExpr, y: SetExpr, x: SetExpr,
                          level: int):
        """The fibres of Z x Y x X -> Z x X, orbit by orbit of Z x X.

        Each Y slot of a component of Y goes to a block of R, to a Y-only
        block opened before, to a new generic block, or to a new block
        pinned to a constant in 1..N that no other block uses; two slots of
        one Y Inj or Sub factor never share a block.  Yields (o_zy, o_yx, R,
        coeff): the canonical restrictions to Z x Y and Y x X, and coeff the
        sum over those extensions of ff(N + g_R, g_new) / |H_Y|, with g_R
        the generic blocks of R, g_new the new generic blocks and |H_Y| the
        product of k! over Y's Sub(k) factors.  The extensions of R are
        labelled, so an orbit P of Z x Y x X over R comes out
        |H_Y| s_R / s_P times: the weights sum to push_orbit's
        ff(N + g_R, g_new) s_R / s_P."""
        nx, ny = x.n_comps(), y.n_comps()
        zy_expr, yx_expr = product(z, y), product(y, x)
        zy_canon: dict = {}  # canonical patterns by (component, raw blocks)
        yx_canon: dict = {}
        weights: dict = {}
        partitions: dict = {}

        def canon(memo, expr, comp, blocks):
            pat = memo.get((comp, blocks))
            if pat is None:
                pat = memo[comp, blocks] = self.canonicalize(
                    expr, SymPattern(comp, level, blocks))
            return pat

        for r in self.orbits(product(z, x), level):
            zc, xc = divmod(r.comp, nx)
            kz = z.slot_count(zc)
            g_r = r.generic_count()
            pins = [pin for _, pin in r.blocks]
            free = [c for c in range(1, level + 1) if c not in pins]
            z_part = [tuple(s for s in slots if s < kz)
                      for slots, _ in r.blocks]
            nb = len(r.blocks)
            for yc in range(ny):
                ky = y.slot_count(yc)
                x_part = [tuple(ky + s - kz for s in slots if s >= kz)
                          for slots, _ in r.blocks]
                h_y = 1
                for g in y.sub_groups(yc):
                    h_y *= factorial(len(g))
                if (yc, nb) not in partitions:
                    partitions[yc, nb] = _partitions(
                        ky, y.separated_groups(yc), nb)
                counts: dict = {}
                for part in partitions[yc, nb]:
                    new = list(range(nb, len(part)))
                    for new_pins in _partial_injections(new, free):
                        zy, yx = [], []
                        for i, ys in enumerate(part):
                            if i < nb:
                                pin, zs, xs = pins[i], z_part[i], x_part[i]
                            else:
                                pin, zs, xs = new_pins.get(i), (), ()
                            if zs or ys:
                                zy.append((zs + tuple(kz + j for j in ys),
                                           pin))
                            if ys or xs:
                                yx.append((ys + xs, pin))
                        key = (canon(zy_canon, zy_expr, zc * ny + yc,
                                     tuple(zy)),
                               canon(yx_canon, yx_expr, yc * nx + xc,
                                     tuple(yx)),
                               len(new) - len(new_pins))
                        counts[key] = counts.get(key, 0) + 1
                for (o_zy, o_yx, g_new), n in counts.items():
                    wkey = (level + g_r, g_new, h_y)
                    weight = weights.get(wkey)
                    if weight is None:
                        weight = weights[wkey] = (
                            falling_factorial(level + g_r, g_new) / h_y)
                    yield o_zy, o_yx, r, weight * n

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

    out, generic = [], []
    for is_generic, pin, fixed, meets in sig:
        if is_generic:
            generic.append((fixed, meets))
            continue
        out.append((slots_of(fixed, meets), pin))
        for f in meets:
            free[f] += 1
    while generic:
        slots, i = min((slots_of(*b), i) for i, b in enumerate(generic))
        for f in generic.pop(i)[1]:
            free[f] += 1
        out.append((slots, None))
    return tuple(out)


def _stabilizer_order(sig) -> int:
    """Product of m! over the classes of m generic blocks with no non-Sub
    slot that meet the same Sub factors."""
    classes = Counter(meets for is_generic, _, fixed, meets in sig
                      if is_generic and not fixed)
    return prod(factorial(m) for m in classes.values())


def _partitions(k: int, separated, fixed: int = 0):
    """All set partitions of slots 0..k-1 with each separated group's slots
    in pairwise distinct blocks, as tuples of sorted slot tuples.  The first
    `fixed` blocks are given and may stay empty: a slot joins one of them,
    a block opened before or a new block."""
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


def _pin_assignments(n_blocks: int, level: int):
    """All injective partial maps {0..n_blocks-1} -> {1..level}."""
    return _partial_injections(list(range(n_blocks)), list(range(1, level + 1)))


def _partial_injections(keys: list[int], values: list[int]):
    from itertools import combinations
    out = [{}]
    for r in range(1, min(len(keys), len(values)) + 1):
        for which in combinations(keys, r):
            for perm in permutations(values, r):
                out.append(dict(zip(which, perm)))
    return out
