"""Set expressions shared by the group backends.

A declared set is a finite disjoint union of finite products of transitive
factors.  Factor kinds: Power(n) = ordered n-tuples, Inj(n) = ordered n-tuples
with distinct entries, Sub(n) = unordered n-element subsets.  The one-point
set is the empty product; the empty set is the empty union.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import permutations
from typing import Iterable, NamedTuple

# A factor is (kind, arity) with kind in {"P", "I", "S"}.
Factor = tuple[str, int]
Component = tuple[Factor, ...]

_KIND_NAMES = {"P": "Power", "I": "Inj", "S": "Sub"}
_NAME_KINDS = {v: k for k, v in _KIND_NAMES.items()}


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
            factors = []
            for f in part.split("*"):
                f = f.strip()
                if f in ("Omega", "R"):
                    factors.append(("P", 1))
                    continue
                m = re.fullmatch(r"(Power|Inj|Sub)\((\d+)\)", f)
                if not m:
                    raise ValueError(f"bad factor text {f!r}")
                factors.append((_NAME_KINDS[m.group(1)], int(m.group(2))))
            comps.append(tuple(factors))
        return SetExpr(comps)


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
