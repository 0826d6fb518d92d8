"""Backend for the order-preserving self-maps of the real line.

Orbits of the stabilizer of r pinned constants on a declared set are interval
patterns: weak orders (ordered set partitions) on the coordinate slots and the
constants.  The four measures assign a sign to each interval power and extend
multiplicatively; all values are integer constants.

The group preserves the order, so the points of an n-subset come ordered:
the slots of a Sub factor always lie in distinct classes, and the one
relabelling that puts them in increasing classes is the canonical form.  No
slot permutation but the identity fixes a pattern.

Also hosts the colored-order combinatorics: ruffle products of words and the
sign-table symbols that classify the measures.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache
from itertools import repeat

from .scalar import Poly
from .setexpr import (SetExpr, check_enumerable, lex_subsets,
                      measure_polynomial, separation_bits, unfold)

# An orbit is the tuple (comp, level, classes): a weak order on slots and
# constants, with the slots of each Sub factor in increasing classes.  The
# classes are tuples of items; an item is a slot id >= 0 or -i for the i-th
# pinned constant (so constants sort first within a class).
Classes = tuple[tuple[int, ...], ...]
Orbit = tuple[int, int, Classes]

# The four measures as (epsilon, delta): the values on left and right
# interval powers.
LEGAL_SPECS = ((-1, -1), (-1, 0), (0, -1), (0, 0))


class OrderContext:
    """Orbit enumeration and one of the four measures; measures are constant
    elements of Q[t] so that the matrix layer is uniform across backends."""

    name = "order"

    def __init__(self, epsilon: int = -1, delta: int = -1):
        if (epsilon, delta) not in LEGAL_SPECS:
            raise ValueError("epsilon and delta must each be -1 or 0")
        self.spec = (epsilon, delta)

    def __repr__(self):
        return f"OrderContext{self.spec}"

    def __eq__(self, other):
        return isinstance(other, OrderContext) and self.spec == other.spec

    def __hash__(self):
        return hash(("order", *self.spec))

    # -- canonical form -------------------------------------------------

    def canonicalize(self, expr: SetExpr, pat: Orbit) -> Orbit:
        """Relabel each Sub factor's slots, taken in class order, onto the
        factor's slot ids in increasing order."""
        comp, level, classes = pat
        class_of = {i: ci for ci, cls in enumerate(classes) for i in cls}
        relabel = {}
        for g in expr.sub_groups(comp):
            relabel.update(zip(sorted(g, key=class_of.__getitem__), g))
        return comp, level, tuple(
            tuple(sorted(relabel.get(i, i) for i in cls)) for cls in classes)

    # -- enumeration ----------------------------------------------------

    def orbits(self, expr: SetExpr, level: int) -> tuple[Orbit, ...]:
        return _order_orbits(expr, level)

    # -- measure ----------------------------------------------------------

    def measure(self, expr: SetExpr, pat: Orbit) -> Poly:
        """Product over the gaps between constants of the interval-power
        values; the whole line (no constants around) gets the split sum."""
        return Poly.const(_gap_product(self.spec, _gaps(pat[2])))

    def set_measure(self, expr: SetExpr, level: int = 0) -> Poly:
        """The product rule on integers at mu(R) = epsilon + delta + 1; no
        polynomial is built and no orbit is enumerated.
        The level cannot change the value: restriction keeps a measure."""
        return Poly.const(measure_polynomial(
            expr, _full_line_value(*self.spec, 1)))

    # -- level refinement ----------------------------------------------

    def refine(self, expr: SetExpr, pat: Orbit, level2: int
               ) -> list[Orbit]:
        """The new constants form a chain above the existing ones; that
        never reorders Sub slots, so the refined patterns stay canonical."""
        comp, level, classes = pat
        if level2 < level:
            raise ValueError("refinement level must not decrease")
        check_enumerable(level2, expr.slot_count(comp))
        new = tuple(-i for i in range(level + 1, level2 + 1))
        chain = ((-level,) if level else ()) + new
        return [(comp, level2, tuple(tuple(sorted(cls)) for cls in refined))
                for refined in _weak_orders(new, (), (chain,), classes)]

    # -- pushforward primitive -------------------------------------------

    def push_orbit(self, mapdata, pat: Orbit):
        """The fiber is the placements of the unreferenced classes in the
        gaps between the pinned ones (a constant or a referenced slot);
        no slot map but the identity fixes a pattern, so nothing is
        divided out."""
        referenced = set(mapdata.routes[pat[0]][1])
        return (self.image_orbit(mapdata, pat),
                Poly.const(_gap_product(self.spec,
                                        _gaps(pat[2], referenced))))

    def image_orbit(self, mapdata, pat: Orbit) -> Orbit:
        """Image orbit only (no fiber measure); the pullback workhorse."""
        comp, level, classes = pat
        tcomp, feed = mapdata.routes[comp]
        class_of = {}
        for ci, cls in enumerate(classes):
            for item in cls:
                class_of[item] = ci
        img = {}
        for tslot, sslot in enumerate(feed):
            img.setdefault(class_of[sslot], []).append(tslot)
        for ci, cls in enumerate(classes):
            for item in cls:
                if item < 0:
                    img.setdefault(ci, []).append(item)
        img_classes = tuple(tuple(sorted(img[ci])) for ci in sorted(img))
        return self.canonicalize(mapdata.target, (tcomp, level, img_classes))

    # -- composition primitive -------------------------------------------

    def composition_row(self, z: SetExpr, y: SetExpr, x: SetExpr,
                        level: int, o_zy: Orbit):
        """One row of the fibres of Z x Y x X -> Z x X: the extensions of
        the orbit o_zy of Z x Y by the X items.

        Each X item of a component of X goes into a class of o_zy or into
        a new class in any gap; X's separated groups take distinct classes
        and each X Sub group is a chain in strictly increasing classes, so
        every orbit of Z x Y x X over o_zy comes out once.  Yields (o_yx, R,
        coeff): the restrictions to Y x X and Z x X, canonical as they come,
        and coeff the sum over those extensions of the fibre measure
        _gap_product(spec, gaps), the gaps counting the classes of Y items
        only between the pinned classes (a constant or a Z or X item)."""
        nx, ny = x.n_comps(), y.n_comps()
        zc, yc = divmod(o_zy[0], ny)
        kz, ky = z.slot_count(zc), y.slot_count(yc)
        top = kz + ky  # X item j is top + j
        check_enumerable(level, *(top + x.slot_count(xc) for xc in range(nx)))
        for xc in range(nx):
            kx = x.slot_count(xc)
            # class -> (Y items only, its Y x X class, its Z x X class); the
            # classes come sorted, with the X items last in increasing order
            split: dict = {}
            sums: dict = {}
            for classes in _weak_orders(
                    range(top, top + kx),
                    _shifted(x.separated_groups(xc), top),
                    _shifted(x.sub_groups(xc), top), o_zy[2]):
                gaps, yx, zx = [0], [], []
                for cls in classes:
                    parts = split.get(cls)
                    if parts is None:
                        parts = split[cls] = (
                            all(kz <= i < top for i in cls),
                            tuple(i if i < 0 else i - kz for i in cls
                                  if i < 0 or i >= kz),
                            tuple(i if i < top else i - ky for i in cls
                                  if not kz <= i < top))
                    y_only, cyx, czx = parts
                    if y_only:
                        gaps[-1] += 1
                    else:
                        gaps.append(0)
                    if cyx:
                        yx.append(cyx)
                    if czx:
                        zx.append(czx)
                key = (tuple(yx), tuple(zx))
                value = _row_gap_product(self.spec, tuple(gaps))
                sums[key] = sums.get(key, 0) + value
            for (yx, zx), value in sums.items():
                if value:
                    yield (_pattern(yc * nx + xc, level, yx),
                           _pattern(zc * nx + xc, level, zx), _const(value))

    # -- misc -------------------------------------------------------------

    def orbit_text(self, expr: SetExpr | None, pat: Orbit) -> str:
        """Token string, e.g. "r1<#1=b1<b2@r=1": a slot as its factor's
        letter and its index in the factor, a constant as "#i".  With expr
        None every slot is "r" and its slot id from 1."""
        comp, level, classes = pat
        factor_of = {}
        if expr is not None:
            for fi, slots in enumerate(expr.factor_slots(comp)):
                for j, s in enumerate(slots):
                    factor_of[s] = (fi, j)
        names = []
        for cls in classes:
            toks = []
            for item in sorted(cls):
                if item < 0:
                    toks.append(f"#{-item}")
                else:
                    fi, j = factor_of.get(item, (0, item))
                    toks.append(f"{_factor_letter(fi)}{j + 1}")
            names.append("=".join(toks))
        tag = f"@r={level}"
        if comp:
            tag += f"#c{comp}"
        return "<".join(names) + tag if names else "()" + tag

    def parse_orbit(self, expr: SetExpr, s: str) -> Orbit:
        """Parse a token string like "r1<b1=r2<b2" (indexed tokens) or the
        bare form "r<b=r<b" (occurrence order); constants are "#1", "#2",
        ...  Raises ValueError unless the text names one of the orbits of
        expr (checked on the classes, without enumerating the orbits)."""
        m = re.fullmatch(r"(.*?)@r=(\d+)(#c(\d+))?", s.strip())
        if m:
            body, level = m.group(1), int(m.group(2))
            comp = int(m.group(4)) if m.group(4) else 0
        else:
            body, level, comp = s.strip(), 0, 0
        if comp >= expr.n_comps():
            raise ValueError(f"no component {comp} in {expr.to_text()}")
        slot_of = {}
        for fi, slots in enumerate(expr.factor_slots(comp)):
            for j, sl in enumerate(slots):
                slot_of[(_factor_letter(fi), j + 1)] = sl
        occurrence = Counter()
        classes = []
        if body and body != "()":
            for cls_text in body.split("<"):
                cls = []
                for tok in cls_text.split("="):
                    tok = tok.strip()
                    if tok.startswith("#"):
                        const = int(tok[1:])
                        if not 1 <= const <= level:
                            raise ValueError(f"unknown constant {tok!r}")
                        cls.append(-const)
                        continue
                    mt = re.fullmatch(r"([a-z]'*)(\d*)", tok)
                    if not mt:
                        raise ValueError(f"bad token {tok!r}")
                    letter = mt.group(1)
                    if mt.group(2):
                        j = int(mt.group(2))
                    else:
                        occurrence[letter] += 1
                        j = occurrence[letter]
                    if (letter, j) not in slot_of:
                        raise ValueError(f"unknown token {tok!r}")
                    cls.append(slot_of[(letter, j)])
                classes.append(tuple(sorted(cls)))
        if not _is_weak_order(expr, comp, level, classes):
            raise ValueError(f"{s!r} is not an orbit of {expr.to_text()}")
        return self.canonicalize(expr, (comp, level, tuple(classes)))


def _gaps(classes: Classes, referenced=()) -> list[int]:
    """The counts of unpinned classes in the gaps between the pinned ones:
    a class is pinned when it holds a constant or a referenced slot."""
    gaps = [0]
    for cls in classes:
        if any(i < 0 or i in referenced for i in cls):
            gaps.append(0)
        else:
            gaps[-1] += 1
    return gaps


def _gap_product(spec: tuple[int, int], gaps: list[int]) -> int:
    """Product of the interval-power values over the gaps between pinned
    classes, k classes in each: the split sum on the whole line (one gap),
    epsilon^k left of all pins, delta^k right of them, (-1)^k in between."""
    e, d = spec
    if len(gaps) == 1:
        return _full_line_value(e, d, gaps[0])
    total = e ** gaps[0] * d ** gaps[-1]
    for k in gaps[1:-1]:
        total *= (-1) ** k
    return total


@lru_cache(maxsize=None)
def _row_gap_product(spec: tuple[int, int], gaps: tuple[int, ...]) -> int:
    """_gap_product on the gaps of a composition row, as a tuple."""
    return _gap_product(spec, gaps)


@lru_cache(maxsize=None)
def _pattern(comp: int, level: int, classes: Classes) -> Orbit:
    """The one orbit tuple of the composition rows for these classes."""
    return comp, level, classes


@lru_cache(maxsize=None)
def _const(value: int) -> Poly:
    """The constant coefficient of a composition row."""
    return Poly.const(value)


def _full_line_value(e: int, d: int, k: int) -> int:
    """Measure of the set of k increasing points on the whole line: split the
    line at one constant and sum over distributions."""
    total = 0
    for i in range(k + 1):
        total += (e ** i) * (d ** (k - i))          # none at the cut point
    for i in range(k):
        total += (e ** i) * (d ** (k - 1 - i))      # one at the cut point
    return total


@lru_cache(maxsize=None)
def _order_orbits(expr: SetExpr, level: int) -> tuple[Orbit, ...]:
    """Canonical patterns generated directly, in sorted order: the
    constants and each Sub factor's slots are chains, so every orbit comes
    out once."""
    check_enumerable(level, *map(expr.slot_count, range(expr.n_comps())))
    out = []
    consts = tuple(-i for i in range(1, level + 1))
    for c in range(expr.n_comps()):
        items = consts[::-1] + tuple(range(expr.slot_count(c)))
        chains = (consts,) + expr.sub_groups(c)
        out.extend(zip(repeat(c), repeat(level), _sorted_weak_orders(
            items, expr.separated_groups(c), chains)))
    return tuple(out)


def _sorted_weak_orders(items, separated, chains) -> list[Classes]:
    """sorted(_weak_orders(items, separated, chains)) for increasing
    `items`, generated in that order: the least first class, then the
    sorted weak orders of the items that remain, kept for each set of
    remaining items as a bitmask.  A first class is a subset, in
    lexicographic order, of the remaining items whose chain predecessor is
    placed."""
    n = len(items)
    index = {item: i for i, item in enumerate(items)}
    apart = separation_bits(items, separated)
    before = [0] * n  # the bit of each item's chain predecessor
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            before[index[b]] = 1 << index[a]

    def moves(rest):
        eligible = [i for i in range(n)
                    if rest >> i & 1 and not rest & before[i]]
        return [((cls,), rest & ~bits)
                for cls, bits in lex_subsets(eligible, items, apart)]

    return unfold((1 << n) - 1, moves, {0: [()]})


def _shifted(groups, offset: int):
    return tuple(tuple(offset + s for s in g) for g in groups)


def _weak_orders(items, separated, chains=(), classes=()) -> list[Classes]:
    """All ordered set partitions of `items` with each separated group's
    members in pairwise distinct classes and each chain's members, taken
    in chain order, in strictly increasing classes.  The separated groups
    are pairwise disjoint, and a chain's members come in chain order in
    `items`.  Given `classes`, a weak order on other items, lists its
    extensions instead: each item joins one of those classes, which keep
    their order, or a new class in any gap.  Built breadth first, one
    level per item (callers bound the items by setexpr.MAX_SLOTS), each
    weak order extended by joining a class, then by a new class, in
    position order: depth-first order.  A class lists the given items,
    then the added ones in the order of `items`; so it comes out sorted
    when that order is increasing and above the given items, or when, like
    the constants -1, -2, ..., the items out of order never share a class."""
    sep_of = {s: frozenset(g) for g in separated for s in g}
    prev_of = {b: a for chain in chains for a, b in zip(chain, chain[1:])}
    orders = [tuple(classes)]
    for item in items:
        forbidden = sep_of.get(item)
        prev = prev_of.get(item)
        single = ((item,),)
        new = []
        for cs in orders:
            # a chain member goes strictly above its predecessor's class
            start = 0 if prev is None else 1 + next(
                i for i, cls in enumerate(cs) if prev in cls)
            for pos in range(start, len(cs)):
                if forbidden is None or forbidden.isdisjoint(cs[pos]):
                    new.append(cs[:pos] + (cs[pos] + (item,),) + cs[pos + 1:])
            for pos in range(start, len(cs) + 1):
                new.append(cs[:pos] + single + cs[pos:])
        orders = new
    return orders


def _factor_letter(fi: int) -> str:
    """The token letter of factor fi: eight colours, then one prime per
    wrap ("r'" for the 9th factor)."""
    return "rbgycmwk"[fi % 8] + "'" * (fi // 8)


def _is_weak_order(expr: SetExpr, comp: int, level: int, classes) -> bool:
    """Whether classes is an orbit of the component at the level: every
    slot and constant exactly once, no empty class, the constants in
    increasing classes and never two in one, separated slots apart."""
    items = sorted(i for cls in classes for i in cls)
    if (items != list(range(-level, expr.slot_count(comp)))
            or not all(classes)):
        return False
    # a sorted class lists its constants in decreasing order, so constants
    # read in class order are 1..r only if no class holds two
    if [-i for cls in classes for i in cls if i < 0] != list(
            range(1, level + 1)):
        return False
    class_of = {i: ci for ci, cls in enumerate(classes) for i in cls}
    return all(len({class_of[s] for s in g}) == len(g)
               for g in expr.separated_groups(comp))


# ---------------------------------------------------------------------------
# Ruffles of colored words


def ruffle_product(w: str, v: str) -> Counter:
    """All order-preserving joint surjections of two words, injective on each
    word, with collisions only between equal letters; multiplicities count
    the surjections producing each word."""
    out: Counter = Counter()

    def rec(i, j, acc):
        if i == len(w) and j == len(v):
            out[acc] += 1
            return
        if i < len(w):
            rec(i + 1, j, acc + w[i])
        if j < len(v):
            rec(i, j + 1, acc + v[j])
        if i < len(w) and j < len(v) and w[i] == v[j]:
            rec(i + 1, j + 1, acc + w[i])

    rec(0, 0, "")
    return out


class Symbol:
    """A sign table over an alphabet, a candidate for a measure's values on
    interval powers.  Keys are (left type, right type, letter) with types in
    the alphabet extended by the two infinities."""

    LEFT_INF = "-inf"
    RIGHT_INF = "+inf"

    def __init__(self, alphabet: str, table: dict):
        self.alphabet = alphabet
        self.table = dict(table)
        for sigma in self.left_types():
            for tau in self.right_types():
                for rho in alphabet:
                    if (sigma, tau, rho) not in self.table:
                        raise ValueError(f"missing entry {(sigma, tau, rho)}")
                    if self.table[(sigma, tau, rho)] not in (-1, 0, 1):
                        raise ValueError("symbol entries must be -1, 0 or 1")

    def left_types(self):
        return [self.LEFT_INF] + list(self.alphabet)

    def right_types(self):
        return list(self.alphabet) + [self.RIGHT_INF]

    def value(self, sigma: str, tau: str, word: str) -> int:
        """Extension to all words: peel letters from the left."""
        if word == "":
            return 1
        head, rest = word[0], word[1:]
        return self.table[(sigma, tau, head)] * self.value(head, tau, rest)

    def __repr__(self):
        return f"Symbol({self.alphabet!r}, {self.table!r})"


def _words(alphabet: str, max_len: int):
    yield ""
    stack = [""]
    for _ in range(max_len):
        stack = [w + a for w in stack for a in alphabet]
        yield from stack


def verify_symbol(s: Symbol, max_len: int = 4):
    """Check the defining conditions for all words up to max_len.

    (a) empty word has value 1 (holds by construction of the extension);
    (b) splitting at an added point of each color;
    (c) multiplicativity over an internal letter.
    Returns (ok, witness) where witness names the first failing instance.
    """
    for sigma in s.left_types():
        for tau in s.right_types():
            if s.value(sigma, tau, "") != 1:
                return False, ("a", sigma, tau)
    for w in _words(s.alphabet, max_len):
        for sigma in s.left_types():
            for tau in s.right_types():
                lhs = s.value(sigma, tau, w)
                for rho in s.alphabet:
                    total = 0
                    for i in range(len(w) + 1):
                        total += (s.value(sigma, rho, w[:i])
                                  * s.value(rho, tau, w[i:]))
                    for i, wi in enumerate(w):
                        if wi == rho:
                            total += (s.value(sigma, rho, w[:i])
                                      * s.value(rho, tau, w[i + 1:]))
                    if lhs != total:
                        return False, ("b", sigma, tau, rho, w)
    for w in _words(s.alphabet, max_len):
        for i, rho in enumerate(w):
            left, right = w[:i], w[i + 1:]
            for sigma in s.left_types():
                for tau in s.right_types():
                    lhs = s.value(sigma, tau, w)
                    rhs = (s.table[(sigma, tau, rho)]
                           * s.value(sigma, rho, left)
                           * s.value(rho, tau, right))
                    if lhs != rhs:
                        return False, ("c", sigma, tau, rho, w)
    return True, None


def single_color_symbols(max_len: int = 4) -> list[Symbol]:
    """All valid symbols over a one-letter alphabet, by exhaustive search."""
    out = []
    keys = [(s, t, "a") for s in ["-inf", "a"] for t in ["a", "+inf"]]
    from itertools import product as iproduct
    for values in iproduct((-1, 0, 1), repeat=4):
        table = dict(zip(keys, values))
        sym = Symbol("a", table)
        ok, _ = verify_symbol(sym, max_len)
        if ok:
            out.append(sym)
    return out
