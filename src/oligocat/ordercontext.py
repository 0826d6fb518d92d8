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

from .scalar import Poly
from .setexpr import SetExpr, product

# Pattern classes are tuples of items; an item is a slot id >= 0 or -i for
# the i-th pinned constant (so constants sort first within a class).
Classes = tuple[tuple[int, ...], ...]

LEGAL_SPECS = ((-1, -1), (-1, 0), (0, -1), (0, 0))


class OrderMeasureSpec:
    """One of the four measures: values on left/right interval powers."""

    __slots__ = ("epsilon", "delta")

    def __init__(self, epsilon: int, delta: int):
        if (epsilon, delta) not in LEGAL_SPECS:
            raise ValueError("epsilon and delta must each be -1 or 0")
        self.epsilon, self.delta = epsilon, delta

    def __eq__(self, other):
        return (isinstance(other, OrderMeasureSpec)
                and (self.epsilon, self.delta) == (other.epsilon, other.delta))

    def __hash__(self):
        return hash((self.epsilon, self.delta))

    def __repr__(self):
        return f"OrderMeasureSpec({self.epsilon}, {self.delta})"


class OrderPattern:
    """One stabilizer orbit: a weak order on slots and constants, with the
    slots of each Sub factor in increasing classes."""

    __slots__ = ("comp", "level", "classes", "_hash")

    def __init__(self, comp: int, level: int, classes: Classes):
        self.comp = comp
        self.level = level
        self.classes = classes
        self._hash = None  # computed on the first __hash__

    def __eq__(self, other):
        return (isinstance(other, OrderPattern) and
                (self.comp, self.level, self.classes)
                == (other.comp, other.level, other.classes))

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.comp, self.level, self.classes))
        return h

    def __repr__(self):
        return f"OrderPattern({self.to_text(None)!r})"

    def to_text(self, expr: SetExpr | None = None) -> str:
        """Token string, e.g. "r1<b1=r2<b2"; constants appear as "#i"."""
        factor_of = {}
        if expr is not None:
            for fi, slots in enumerate(expr.factor_slots(self.comp)):
                for j, s in enumerate(slots):
                    factor_of[s] = (fi, j)
        names = []
        for cls in self.classes:
            toks = []
            for item in sorted(cls):
                if item < 0:
                    toks.append(f"#{-item}")
                else:
                    fi, j = factor_of.get(item, (0, item))
                    toks.append(f"{_factor_letter(fi)}{j + 1}")
            names.append("=".join(toks))
        tag = f"@r={self.level}"
        if self.comp:
            tag += f"#c{self.comp}"
        return "<".join(names) + tag if names else "()" + tag


class OrderContext:
    """Orbit enumeration and one of the four measures; measures are constant
    elements of Q[t] so that the matrix layer is uniform across backends."""

    name = "order"

    def __init__(self, epsilon: int = -1, delta: int = -1):
        self.spec = OrderMeasureSpec(epsilon, delta)

    def __repr__(self):
        return f"OrderContext({self.spec.epsilon}, {self.spec.delta})"

    def __eq__(self, other):
        return isinstance(other, OrderContext) and self.spec == other.spec

    def __hash__(self):
        return hash(("order", self.spec.epsilon, self.spec.delta))

    # -- canonical form -------------------------------------------------

    def canonicalize(self, expr: SetExpr, pat: OrderPattern) -> OrderPattern:
        """Relabel each Sub factor's slots, taken in class order, onto the
        factor's slot ids in increasing order."""
        class_of = {i: ci for ci, cls in enumerate(pat.classes) for i in cls}
        relabel = {}
        for g in expr.sub_groups(pat.comp):
            relabel.update(zip(sorted(g, key=class_of.__getitem__), g))
        return OrderPattern(pat.comp, pat.level, tuple(
            tuple(sorted(relabel.get(i, i) for i in cls))
            for cls in pat.classes))

    # -- enumeration ----------------------------------------------------

    def orbits(self, expr: SetExpr, level: int) -> tuple[OrderPattern, ...]:
        return _order_orbits(expr, level)

    # -- measure ----------------------------------------------------------

    def measure(self, expr: SetExpr, pat: OrderPattern) -> Poly:
        """Product over the gaps between constants of the interval-power
        values; the whole line (no constants around) gets the split sum."""
        return Poly.const(_gap_product(self.spec, _gaps(pat.classes)))

    def set_measure(self, expr: SetExpr, level: int = 0) -> Poly:
        return Poly.const(sum(_gap_product(self.spec, _gaps(pat.classes))
                              for pat in self.orbits(expr, level)))

    # -- level refinement ----------------------------------------------

    def refine(self, expr: SetExpr, pat: OrderPattern, level2: int
               ) -> list[OrderPattern]:
        """New constants are appended above all existing ones; that never
        reorders Sub slots, so the refined patterns stay canonical."""
        if level2 < pat.level:
            raise ValueError("refinement level must not decrease")
        pats = [pat]
        for newc in range(pat.level + 1, level2 + 1):
            nxt = []
            for p in pats:
                nxt.extend(self._insert_constant(expr, p, newc))
            pats = nxt
        return pats

    def _insert_constant(self, expr, pat, newc):
        """All placements of constant #newc above every existing constant."""
        last_const_pos = -1
        for i, cls in enumerate(pat.classes):
            if any(x < 0 for x in cls):
                last_const_pos = i
        out = []
        ncls = len(pat.classes)
        # joining an existing generic class above the last constant
        for i in range(last_const_pos + 1, ncls):
            classes = list(pat.classes)
            classes[i] = tuple(sorted(classes[i] + (-newc,)))
            out.append(OrderPattern(pat.comp, newc, tuple(classes)))
        # a new singleton class in any gap above the last constant
        for i in range(last_const_pos + 1, ncls + 1):
            classes = list(pat.classes)
            classes.insert(i, (-newc,))
            out.append(OrderPattern(pat.comp, newc, tuple(classes)))
        return out

    # -- pushforward primitive -------------------------------------------

    def push_orbit(self, mapdata, pat: OrderPattern):
        """The fiber is the placements of the unreferenced classes in the
        gaps between the pinned ones (a constant or a referenced slot);
        no slot map but the identity fixes a pattern, so nothing is
        divided out."""
        referenced = {s for slots in mapdata.routes[pat.comp][1] for s in slots}
        return (self.image_orbit(mapdata, pat),
                Poly.const(_gap_product(self.spec,
                                        _gaps(pat.classes, referenced))))

    def image_orbit(self, mapdata, pat: OrderPattern) -> OrderPattern:
        """Image pattern only (no fiber measure); the pullback workhorse."""
        tgt = mapdata.target
        tcomp, assigns = mapdata.routes[pat.comp]
        class_of = {}
        for ci, cls in enumerate(pat.classes):
            for item in cls:
                class_of[item] = ci
        img = {}
        tslot = 0
        for slots in assigns:
            for sslot in slots:
                img.setdefault(class_of[sslot], []).append(tslot)
                tslot += 1
        for ci, cls in enumerate(pat.classes):
            for item in cls:
                if item < 0:
                    img.setdefault(ci, []).append(item)
        img_classes = tuple(tuple(sorted(img[ci])) for ci in sorted(img))
        return self.canonicalize(tgt, OrderPattern(tcomp, pat.level, img_classes))

    # -- composition primitive -------------------------------------------

    def composition_terms(self, z: SetExpr, y: SetExpr, x: SetExpr,
                          level: int):
        """The fibres of Z x Y x X -> Z x X, orbit by orbit of Z x X.

        Each Y item of a component of Y goes into a class of R or into a
        new class in any gap; Y's separated groups take distinct classes and
        each Y Sub group is a chain in strictly increasing classes, so every
        orbit of Z x Y x X over R comes out once.  Yields (o_zy, o_yx, R,
        coeff): the restrictions to Z x Y and Y x X, canonical as they come,
        and coeff the sum over those extensions of the fibre measure
        _gap_product(spec, gaps), the gaps counting the classes of Y items
        only between the pinned classes (a constant or a Z or X item)."""
        nx, ny = x.n_comps(), y.n_comps()
        gap_values: dict = {}
        weights: dict = {}
        for r in self.orbits(product(z, x), level):
            zc, xc = divmod(r.comp, nx)
            kz = z.slot_count(zc)
            top = kz + x.slot_count(xc)  # Y item j is top + j
            for yc in range(ny):
                ky = y.slot_count(yc)
                # item -> its id on Z x Y and on Y x X; constants stay
                zy_of = {i: i for i in range(-level, kz)}
                yx_of = {i: i for i in range(-level, 0)}
                for j in range(ky):
                    zy_of[top + j] = kz + j
                    yx_of[top + j] = j
                for i in range(kz, top):
                    yx_of[i] = ky + i - kz
                # class -> (Y items only, its Z x Y class, its Y x X class)
                split: dict = {}
                sums: dict = {}
                for classes in _weak_orders(
                        range(top, top + ky),
                        _shifted(y.separated_groups(yc), top),
                        _shifted(y.sub_groups(yc), top), r.classes):
                    gaps, zy, yx = [0], [], []
                    for cls in classes:
                        parts = split.get(cls)
                        if parts is None:
                            parts = split[cls] = (
                                cls[0] >= top,
                                tuple(zy_of[i] for i in cls if i in zy_of),
                                tuple(sorted(yx_of[i] for i in cls
                                             if i in yx_of)))
                        y_only, czy, cyx = parts
                        if y_only:
                            gaps[-1] += 1
                        else:
                            gaps.append(0)
                        if czy:
                            zy.append(czy)
                        if cyx:
                            yx.append(cyx)
                    gaps = tuple(gaps)
                    value = gap_values.get(gaps)
                    if value is None:
                        value = gap_values[gaps] = _gap_product(self.spec,
                                                                gaps)
                    key = (tuple(zy), tuple(yx))
                    sums[key] = sums.get(key, 0) + value
                for (zy, yx), value in sums.items():
                    if value:
                        coeff = weights.get(value)
                        if coeff is None:
                            coeff = weights[value] = Poly.const(value)
                        yield (OrderPattern(zc * ny + yc, level, zy),
                               OrderPattern(yc * nx + xc, level, yx),
                               r, coeff)

    # -- misc -------------------------------------------------------------

    def orbit_text(self, expr: SetExpr, pat: OrderPattern) -> str:
        return pat.to_text(expr)

    def parse_orbit(self, expr: SetExpr, s: str) -> OrderPattern:
        return parse_order_pattern(expr, s, self)


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


def _gap_product(spec: OrderMeasureSpec, gaps: list[int]) -> int:
    """Product of the interval-power values over the gaps between pinned
    classes, k classes in each: the split sum on the whole line (one gap),
    epsilon^k left of all pins, delta^k right of them, (-1)^k in between."""
    e, d = spec.epsilon, spec.delta
    if len(gaps) == 1:
        return _full_line_value(e, d, gaps[0])
    total = e ** gaps[0] * d ** gaps[-1]
    for k in gaps[1:-1]:
        total *= (-1) ** k
    return total


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
def _order_orbits(expr: SetExpr, level: int) -> tuple[OrderPattern, ...]:
    """Canonical patterns generated directly: the constants and each Sub
    factor's slots are chains, so every orbit comes out once."""
    out = []
    consts = tuple(-i for i in range(1, level + 1))
    for c in range(expr.n_comps()):
        items = list(consts) + list(range(expr.slot_count(c)))
        chains = (consts,) + expr.sub_groups(c)
        for classes in _weak_orders(items, expr.separated_groups(c), chains):
            out.append(OrderPattern(c, level, classes))
    out.sort(key=lambda p: (p.comp, p.classes))
    return tuple(out)


def _shifted(groups, offset: int):
    return tuple(tuple(offset + s for s in g) for g in groups)


def _weak_orders(items, separated, chains=(), classes=()):
    """All ordered set partitions of `items` with each separated group's
    members in pairwise distinct classes and each chain's members, taken
    in chain order, in strictly increasing classes.  A chain's members
    must come in chain order in `items`.  Given `classes`, a weak order on
    other items, yields its extensions instead: each item joins one of
    those classes, which keep their order, or a new class in any gap.
    A class lists the given items, then the added ones in the order of
    `items`; so it comes out sorted when that order is increasing and
    above the given items, or when, like the constants -1, -2, ..., the
    items out of order never share a class."""
    sep_of = {}
    for g in separated:
        for s in g:
            sep_of[s] = set(g) - {s}
    prev_of = {b: a for chain in chains for a, b in zip(chain, chain[1:])}

    def rec(idx, classes):
        if idx == len(items):
            yield tuple(tuple(c) for c in classes)
            return
        item = items[idx]
        forbidden = sep_of.get(item, ())
        prev = prev_of.get(item)
        # a chain member goes strictly above its predecessor's class
        start = 0 if prev is None else 1 + next(
            i for i, cls in enumerate(classes) if prev in cls)
        for pos in range(start, len(classes)):
            if not any(o in forbidden for o in classes[pos]):
                classes[pos].append(item)
                yield from rec(idx + 1, classes)
                classes[pos].pop()
        for pos in range(start, len(classes) + 1):
            classes.insert(pos, [item])
            yield from rec(idx + 1, classes)
            classes.pop(pos)

    yield from rec(0, [list(cls) for cls in classes])


def parse_order_pattern(expr: SetExpr, s: str, ctx: OrderContext | None = None
                        ) -> OrderPattern:
    """Parse a token string like "r1<b1=r2<b2" (indexed tokens) or the bare
    form "r<b=r<b" (occurrence order); constants are "#1", "#2", ...
    Raises ValueError unless the text names one of the orbits of expr
    (checked on the classes, without enumerating the orbits)."""
    ctx = ctx or OrderContext()
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
    return ctx.canonicalize(expr, OrderPattern(comp, level, tuple(classes)))


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
