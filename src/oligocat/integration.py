"""Schwartz functions, integration, pushforward and pullback.

A Schwartz function is a finite weighted sum of orbit indicators on a declared
set at a level.  Structural maps (projections, diagonals, symmetrizations,
component inclusions and their composites) act on them; pushforward integrates
over fibers, so its coefficients live in Q[t].
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, product as cartesian

from .scalar import Poly
from .setexpr import SetExpr, product


class GSetMap:
    """An equivariant structural map between declared sets.

    `routes[c] = (tc, feed)` sends source component c to target component
    tc, and `feed[j]` is the source slot of target slot j.
    Composites stay in this form and are pushed in a single step.
    """

    __slots__ = ("source", "target", "routes")

    def __init__(self, source: SetExpr, target: SetExpr, routes):
        self.source = source
        self.target = target
        self.routes = tuple((tc, tuple(feed)) for tc, feed in routes)
        if len(self.routes) != source.n_comps():
            raise ValueError("every source component needs a route")
        self._validate()

    def _validate(self):
        for c, (tc, feed) in enumerate(self.routes):
            if not (0 <= tc < self.target.n_comps()):
                raise ValueError("bad target component")
            if len(feed) != self.target.slot_count(tc):
                raise ValueError("one source slot per target slot required")
            k = self.source.slot_count(c)
            if any(not (0 <= s < k) for s in feed):
                raise ValueError("slot id out of range")
            sep = {s: set(g) for g in self.source.separated_groups(c)
                   for s in g}
            sub_groups = [set(g) for g in self.source.sub_groups(c)]
            sub_slots = set().union(*sub_groups)
            for (kind, n), tslots in zip(self.target.comps[tc],
                                         self.target.factor_slots(tc)):
                slots = [feed[j] for j in tslots]
                whole_sub = set(slots) in sub_groups
                if not whole_sub and any(s in sub_slots for s in slots):
                    raise ValueError("slots of a Sub factor are unordered and "
                                     "can only be referenced as a whole factor")
                if kind in ("I", "S") and not whole_sub:
                    # target needs guaranteed-distinct values
                    if len(set(slots)) != n:
                        raise ValueError("repeated slot feeding a distinct-entry factor")
                    for s in slots:
                        others = set(slots) - {s}
                        if not others <= sep.get(s, set()):
                            raise ValueError(
                                "distinct-entry target fed by slots that are "
                                "not guaranteed distinct")

    def __repr__(self):
        return (f"GSetMap({self.source.to_text()} -> {self.target.to_text()}, "
                f"{self.routes})")

    def __eq__(self, other):
        return (isinstance(other, GSetMap)
                and (self.source, self.target, self.routes)
                == (other.source, other.target, other.routes))

    def __hash__(self):
        return hash((self.source, self.target, self.routes))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def identity(expr: SetExpr) -> "GSetMap":
        return GSetMap.proj_product([expr], [0])

    @staticmethod
    def proj_product(parts: list[SetExpr], keep) -> "GSetMap":
        """Projection of a product of (possibly union) expressions onto the
        subproduct at the positions in `keep`, handling component routing."""
        source = product(*parts)
        target = product(*[parts[i] for i in keep])
        sizes = [p.n_comps() for p in parts]
        routes = []
        for digits in cartesian(*map(range, sizes)):
            tidx = 0
            for i in keep:
                tidx = tidx * sizes[i] + digits[i]
            bases = list(accumulate((p.slot_count(d)
                                     for p, d in zip(parts, digits)),
                                    initial=0))
            routes.append((tidx, [s for i in keep
                                  for s in range(bases[i], bases[i + 1])]))
        return GSetMap(source, target, routes)

    @staticmethod
    def coordinates(source: SetExpr, slots, kind: str = "P") -> "GSetMap":
        """Pick individual (readable) slots; target is Power(k) by default,
        or Inj(k)/Sub(k) when the picked slots are guaranteed distinct."""
        if source.n_comps() != 1:
            raise ValueError("coordinates wants a product expression")
        if kind == "P":
            target = SetExpr([tuple(("P", 1) for _ in slots)])
        else:
            target = SetExpr([((kind, len(slots)),)])
        return GSetMap(source, target, [(0, slots)])

    @staticmethod
    def diagonal(expr: SetExpr) -> "GSetMap":
        """x -> (x, x); a union component lands in its own square."""
        return GSetMap.proj_product([expr], [0, 0])

    @staticmethod
    def symmetrization(expr: SetExpr, factor: int = 0) -> "GSetMap":
        """Forget the ordering of an Inj factor: Inj(k) -> Sub(k)."""
        if expr.n_comps() != 1:
            raise ValueError("symmetrization wants a product expression")
        comp = list(expr.comps[0])
        if not 0 <= factor < len(comp) or comp[factor][0] != "I":
            raise ValueError("symmetrization applies to an Inj factor")
        comp[factor] = ("S", comp[factor][1])
        return GSetMap(expr, SetExpr([tuple(comp)]),
                       [(0, range(expr.slot_count(0)))])

    @staticmethod
    def inclusion(parts: list[SetExpr], which: int) -> "GSetMap":
        """Include one summand into a disjoint union."""
        from .setexpr import union
        target = union(*parts)
        src = parts[which]
        offset = sum(p.n_comps() for p in parts[:which])
        return GSetMap(src, target,
                       [(offset + c, range(src.slot_count(c)))
                        for c in range(src.n_comps())])

    @staticmethod
    def terminal(expr: SetExpr) -> "GSetMap":
        """The unique map to the one-point set."""
        return GSetMap.proj_product([expr], [])

    @staticmethod
    def swap(a: SetExpr, b: SetExpr) -> "GSetMap":
        """(x, y) -> (y, x) between a x b and b x a, components and all."""
        return GSetMap.proj_product([a, b], [1, 0])

    def compose(self, inner: "GSetMap") -> "GSetMap":
        """self after inner, flattened to a single structural map."""
        if inner.target != self.source:
            raise ValueError("composition type mismatch")
        routes = [(self.routes[mc][0], [mid[s] for s in self.routes[mc][1]])
                  for mc, mid in inner.routes]
        return GSetMap(inner.source, self.target, routes)

    def graph_map(self) -> "GSetMap":
        """x -> (f(x), x), landing in target x source (used for A_f)."""
        source, n = self.source, self.source.n_comps()
        routes = [(tc * n + c, feed + tuple(range(source.slot_count(c))))
                  for c, (tc, feed) in enumerate(self.routes)]
        return GSetMap(source, product(self.target, source), routes)


# ---------------------------------------------------------------------------
# Schwartz functions


class SchwartzFunction:
    """Finite weighted sum of orbit indicators on a declared set at a level."""

    __slots__ = ("ctx", "expr", "level", "terms")

    def __init__(self, ctx, expr: SetExpr, level: int, terms: dict):
        self.ctx = ctx
        self.expr = expr
        self.level = level
        # zeros are dropped; a scalar zero is dropped before Poly.const,
        # which refuses a float, so a float 0.0 is dropped silently
        self.terms = kept = {}
        for pat, c in terms.items():
            if isinstance(c, Poly):
                if not c.is_zero():
                    kept[pat] = c
            elif c != 0:
                kept[pat] = Poly.const(c)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ctx, expr: SetExpr, level: int = 0) -> "SchwartzFunction":
        return SchwartzFunction(ctx, expr, level, {})

    @staticmethod
    def indicator(ctx, expr: SetExpr, level: int = 0) -> "SchwartzFunction":
        """The constant function 1 (indicator of the whole set)."""
        return SchwartzFunction(ctx, expr, level,
                                {pat: Poly.one() for pat in ctx.orbits(expr, level)})

    @staticmethod
    def from_orbit(ctx, expr: SetExpr, pat, coeff=1) -> "SchwartzFunction":
        return SchwartzFunction(ctx, expr, pat.level, {pat: Poly.const(coeff)
                                                       if not isinstance(coeff, Poly)
                                                       else coeff})

    def __repr__(self):
        inside = ", ".join(f"{p.to_text()}: {c.to_text()}"
                           for p, c in sorted(self.terms.items(),
                                              key=lambda kv: kv[0].to_text()))
        return f"SchwartzFunction({self.expr.to_text()}@{self.level} {{{inside}}})"

    def __eq__(self, other):
        if not isinstance(other, SchwartzFunction):
            return NotImplemented
        if self.expr != other.expr:
            return False
        n = max(self.level, other.level)
        return change_level(self, n).terms == change_level(other, n).terms

    def __add__(self, other):
        if self.expr != other.expr:
            raise ValueError("cannot add functions on different sets")
        n = max(self.level, other.level)
        a, b = change_level(self, n), change_level(other, n)
        terms = dict(a.terms)
        for pat, c in b.terms.items():
            terms[pat] = terms.get(pat, Poly.zero()) + c
        return SchwartzFunction(self.ctx, self.expr, n, terms)

    def __neg__(self):
        return SchwartzFunction(self.ctx, self.expr, self.level,
                                {p: -c for p, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "SchwartzFunction":
        c = c if isinstance(c, Poly) else Poly.const(c)
        return SchwartzFunction(self.ctx, self.expr, self.level,
                                {p: c * v for p, v in self.terms.items()})

    def __mul__(self, other):
        """Pointwise product; same-level orbits are disjoint, so this is a
        coefficient-wise product on the common refinement."""
        if isinstance(other, (int, Fraction, Poly)):
            return self.scale(other)
        if self.expr != other.expr:
            raise ValueError("cannot multiply functions on different sets")
        n = max(self.level, other.level)
        a, b = change_level(self, n), change_level(other, n)
        if len(b.terms) < len(a.terms):
            a, b = b, a
        terms = {pat: c * b.terms[pat]
                 for pat, c in a.terms.items() if pat in b.terms}
        return SchwartzFunction(self.ctx, self.expr, n, terms)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, pat) -> Poly:
        return self.terms.get(pat, Poly.zero())


def integrate(phi: SchwartzFunction) -> Poly:
    """Sum of coefficients times orbit measures."""
    total = Poly.zero()
    for pat, c in phi.terms.items():
        total = total + c * phi.ctx.measure(phi.expr, pat)
    return total


def change_level(phi: SchwartzFunction, level2: int) -> SchwartzFunction:
    """Re-express on the finer orbit decomposition of a deeper level."""
    if level2 == phi.level:
        return phi
    if level2 < phi.level:
        raise ValueError("cannot coarsen a Schwartz function's level")
    terms = {}
    for pat, c in phi.terms.items():
        for sub in phi.ctx.refine(phi.expr, pat, level2):
            terms[sub] = terms.get(sub, Poly.zero()) + c
    return SchwartzFunction(phi.ctx, phi.expr, level2, terms)


_push_cache: dict = {}
_pull_index: dict = {}


def pushforward(f: GSetMap, phi: SchwartzFunction) -> SchwartzFunction:
    """(f_* phi)(y) = integral of phi over the fiber of f at y."""
    if f.source != phi.expr:
        raise ValueError("function not defined on the source of the map")
    cache = _push_cache.setdefault((phi.ctx, f), {})
    terms = {}
    for pat, c in phi.terms.items():
        hit = cache.get(pat)
        if hit is None:
            hit = phi.ctx.push_orbit(f, pat)
            cache[pat] = hit
        image, coeff = hit
        if not coeff.is_zero():
            terms[image] = terms.get(image, Poly.zero()) + c * coeff
    return SchwartzFunction(phi.ctx, f.target, phi.level, terms)


def pullback(f: GSetMap, psi: SchwartzFunction) -> SchwartzFunction:
    """(f^* psi)(x) = psi(f(x)), re-expressed in the orbit basis."""
    if f.target != psi.expr:
        raise ValueError("function not defined on the target of the map")
    key = (psi.ctx, f, psi.level)
    index = _pull_index.get(key)
    if index is None:
        index = {}
        for pat in psi.ctx.orbits(f.source, psi.level):
            index.setdefault(psi.ctx.image_orbit(f, pat), []).append(pat)
        _pull_index[key] = index
    terms = {}
    for image, c in psi.terms.items():
        for pat in index.get(image, ()):
            terms[pat] = c
    return SchwartzFunction(psi.ctx, f.source, psi.level, terms)


def projection_square(a: SetExpr, b: SetExpr, y: SetExpr):
    """The cartesian square built from two projections onto a common factor:
    f: a x y -> y, g: b x y -> y, with fiber product a x b x y.

    Returns (f, g, f_prime, g_prime) with g_prime over f and f_prime over g.
    """
    f = GSetMap.proj_product([a, y], [1])
    g = GSetMap.proj_product([b, y], [1])
    fp = GSetMap.proj_product([a, b, y], [1, 2])   # to b x y, base change of f
    gp = GSetMap.proj_product([a, b, y], [0, 2])   # to a x y
    return f, g, fp, gp
