"""Set expressions shared by the group backends.

A declared set is a finite disjoint union of finite products of transitive
factors.  Factor kinds: Power(n) = ordered n-tuples, Inj(n) = ordered n-tuples
with distinct entries, Sub(n) = unordered n-element subsets.  The one-point
set is the empty product; the empty set is the empty union.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial, prod
from typing import Iterable, NamedTuple

from .scalar import Poly

# A factor is (kind, arity) with kind in {"P", "I", "S"}.
Factor = tuple[str, int]
Component = tuple[Factor, ...]

_KIND_NAMES = {"P": "Power", "I": "Inj", "S": "Sub"}
_NAME_KINDS = {v: k for k, v in _KIND_NAMES.items()}

# Most slots in one component of a parsed set; beyond it arithmetic only spins.
MAX_SLOTS = 1000


class SetExpr:
    """A finite disjoint union of finite products of transitive factors."""

    __slots__ = ("comps",)

    def __init__(self, comps: Iterable[Component] = ()):
        out = []
        for comp in comps:
            c = []
            for kind, n in comp:
                n = int(n)
                if kind not in _KIND_NAMES or n < 0:
                    raise ValueError(f"bad factor {(kind, n)!r}")
                if kind == "P":
                    # a power factor is a product of points of the domain, so
                    # normalize to unit factors (makes X x Y literal on slots)
                    c.extend([("P", 1)] * n)
                elif n > 0:
                    c.append((kind, n))
                else:
                    pass  # Inj(0) and Sub(0) are the one-point set
            out.append(tuple(c))
        self.comps: tuple[Component, ...] = tuple(out)

    def __eq__(self, other):
        return isinstance(other, SetExpr) and self.comps == other.comps

    def __hash__(self):
        return hash(self.comps)

    def __repr__(self):
        return f"SetExpr({self.to_text()!r})"

    def n_comps(self) -> int:
        return len(self.comps)

    # -- slot geometry of one component --------------------------------

    def slot_count(self, c: int) -> int:
        return _geometry(self.comps[c]).slot_count

    def factor_slots(self, c: int) -> tuple[tuple[int, ...], ...]:
        """Global slot ids of each factor, in order."""
        return _geometry(self.comps[c]).factor_slots

    def separated_groups(self, c: int) -> tuple[tuple[int, ...], ...]:
        """Slot groups whose members must take pairwise distinct values."""
        return _geometry(self.comps[c]).separated_groups

    def sub_groups(self, c: int) -> tuple[tuple[int, ...], ...]:
        """Slot groups that are unordered (Sub factors)."""
        return _geometry(self.comps[c]).sub_groups

    # -- text form ------------------------------------------------------

    def to_text(self) -> str:
        if not self.comps:
            return "0"
        parts = []
        for comp in self.comps:
            if not comp:
                parts.append("1")
                continue
            pieces = []
            run = 0
            for kind, n in comp + (("end", 0),):
                if kind == "P":
                    run += n
                    continue
                if run:
                    pieces.append(f"Power({run})")
                    run = 0
                if kind != "end":
                    pieces.append(f"{_KIND_NAMES[kind]}({n})")
            parts.append("*".join(pieces))
        return " + ".join(parts)

    @staticmethod
    def from_text(s: str) -> "SetExpr":
        s = s.strip()
        if s == "0":
            return SetExpr()
        comps = []
        for part in s.split("+"):
            part = part.strip()
            if part == "1":
                comps.append(())
                continue
            factors, slots = [], 0
            for f in part.split("*"):
                f = f.strip()
                m = re.fullmatch(r"(Power|Inj|Sub)\((\d+)\)|Omega|R", f)
                if not m:
                    raise ValueError(f"bad factor text {f!r}")
                kind, n = (_NAME_KINDS[m[1]], int(m[2])) if m[1] else ("P", 1)
                slots += n
                if slots > MAX_SLOTS:
                    raise ValueError(f"factor {f!r} takes its component past "
                                     f"{MAX_SLOTS} slots")
                factors.append((kind, n))
            comps.append(tuple(factors))
        return SetExpr(comps)


def measure_polynomial(expr: SetExpr, x: int | None = None):
    """mu(X) as a polynomial in x = mu(Omega), on every backend, or its
    value at an integer x, with no polynomial built: a measure is additive,
    multiplies along products and is unchanged by restriction, so mu(X)
    sums over components the products of x^k, (x)_k, binom(x, k)."""
    if x is None:
        x = Poly.var()

    def falling(n):
        return prod((x - i for i in range(n)), start=x ** 0)

    total = 0 * x  # a Poly or a number, as x is
    for comp in expr.comps:
        term = x ** 0
        for kind, n in comp:
            term = term * (x ** n if kind == "P" else
                           falling(n) if kind == "I" else
                           falling(n) * Fraction(1, factorial(n)))
        total = total + term
    return total


def check_enumerable(level: int, *slot_counts: int) -> None:
    """Refuse, with ValueError, more than MAX_SLOTS slots and constants."""
    if level + max(slot_counts, default=0) > MAX_SLOTS:
        raise ValueError(f"{max(slot_counts)} slots and {level} constants "
                         f"are too many to enumerate (at most {MAX_SLOTS})")


class SlotGeometry(NamedTuple):
    """The slot layout of one component, shared by every set containing it."""

    slot_count: int
    factor_slots: tuple[tuple[int, ...], ...]
    separated_groups: tuple[tuple[int, ...], ...]
    sub_groups: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _geometry(comp: Component) -> SlotGeometry:
    slots, base = [], 0
    for _, n in comp:
        slots.append(tuple(range(base, base + n)))
        base += n
    separated = tuple(g for (kind, _), g in zip(comp, slots)
                      if kind in ("I", "S"))
    subs = tuple(g for (kind, _), g in zip(comp, slots) if kind == "S")
    return SlotGeometry(base, tuple(slots), separated, subs)


def separation_bits(items, separated) -> list[int]:
    """For each position i of `items`, the bits of the positions of its
    separated group (0 outside every group): the `apart` of lex_subsets."""
    index = {item: i for i, item in enumerate(items)}
    apart = [0] * len(items)
    for g in separated:
        bits = sum(1 << index[s] for s in g)
        for s in g:
            apart[index[s]] = bits
    return apart


def lex_subsets(members, values, apart) -> list:
    """The nonempty subsets of the bit positions `members` (increasing) with
    no two members in one separated group, as (values, bits) pairs in
    lexicographic order; apart[i] holds the bits of i's separated group.
    Built from the last member back: the subsets starting at a member come
    before those of the members after it."""
    out = []
    for i in reversed(members):
        bit, head, banned = 1 << i, (values[i],), apart[i]
        out = [(head, bit), *[(head + s, bit | m) for s, m in out
                              if not m & banned], *out]
    return out


def unfold(root, moves, done: dict) -> list:
    """The sequences from the state `root`: done[state] where given, else
    the concatenation over moves(state), a list of (head, next state) in
    order, of head + each sequence from the next state.  Every state's
    sequences are kept in `done`; a state waits on a stack for the states
    it leads to, so no recursion bounds the length of a sequence."""
    moves_of = {}
    stack = [root]
    while stack:
        state = stack[-1]
        if state in done:
            stack.pop()
            continue
        out = moves_of.get(state)
        if out is None:
            out = moves_of[state] = moves(state)
            missing = [after for _, after in out if after not in done]
            if missing:
                stack += missing
                continue
        stack.pop()
        done[state] = [head + tail for head, after in out
                       for tail in done[after]]
    return done[root]


def perm_group(groups: tuple[tuple[int, ...], ...], k: int
               ) -> tuple[tuple[int, ...], ...]:
    """Slot maps on 0..k-1 that rearrange each group in turn and fix every
    other slot: the product of the groups' symmetric groups when the groups
    are pairwise disjoint."""
    perms = [tuple(range(k))]
    for g in groups:
        new = []
        for base in perms:
            for p in permutations(g):
                w = list(base)
                for a, b in zip(g, p):
                    w[a] = b
                new.append(tuple(w))
        perms = new
    return tuple(perms)


# -- constructors -------------------------------------------------------


def power(n: int) -> SetExpr:
    return SetExpr([(("P", n),)])


def inj(n: int) -> SetExpr:
    return SetExpr([(("I", n),)])


def sub(n: int) -> SetExpr:
    return SetExpr([(("S", n),)])


def one() -> SetExpr:
    return SetExpr([()])


def empty() -> SetExpr:
    return SetExpr()


def product(*exprs: SetExpr) -> SetExpr:
    """Cartesian product; unions distribute, components concatenate."""
    comps = [()]
    for e in exprs:
        comps = [c1 + c2 for c1 in comps for c2 in e.comps]
    return SetExpr(comps)


def union(*exprs: SetExpr) -> SetExpr:
    comps = []
    for e in exprs:
        comps.extend(e.comps)
    return SetExpr(comps)
