"""Invariant matrix calculus: multiplication, trace, higher traces,
characteristic series, Jordan splitting and the trace pairing.

A matrix from X to Y is a Schwartz function on Y x X; multiplication
integrates over the middle variable, and transpose pushes the entries along
the swap Y x X -> X x Y.  Every trace is a pairing: tr(b a) is the integral
of b times the transpose of a (Fubini), so a trace of a product never needs
the product.  Entries are polynomials in t through their orbit
coefficients, so every identity here is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .scalar import (EvalPoint, Poly, TruncatedSeries, evaluate)
from .setexpr import SetExpr, product
from .integration import (GSetMap, SchwartzFunction, change_level, integrate,
                          pushforward)


class InvariantMatrix:
    """A Schwartz function on codomain x domain viewed as a morphism."""

    __slots__ = ("ctx", "domain", "codomain", "entries")

    def __init__(self, ctx, domain: SetExpr, codomain: SetExpr,
                 entries: SchwartzFunction):
        if entries.expr != product(codomain, domain):
            raise ValueError("entries must live on codomain x domain")
        self.ctx = ctx
        self.domain = domain
        self.codomain = codomain
        self.entries = entries

    @property
    def level(self) -> int:
        return self.entries.level

    def __repr__(self):
        return (f"InvariantMatrix({self.domain.to_text()} -> "
                f"{self.codomain.to_text()}, {self.entries!r})")

    def __eq__(self, other):
        if not isinstance(other, InvariantMatrix):
            return NotImplemented
        return (self.domain == other.domain and self.codomain == other.codomain
                and self.entries == other.entries)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(ctx, domain, codomain, level: int = 0) -> "InvariantMatrix":
        return InvariantMatrix(ctx, domain, codomain,
                               SchwartzFunction.zero(ctx, product(codomain, domain),
                                                     level))

    @staticmethod
    def identity(ctx, x: SetExpr, level: int = 0) -> "InvariantMatrix":
        ent = pushforward(GSetMap.diagonal(x),
                          SchwartzFunction.indicator(ctx, x, level))
        return InvariantMatrix(ctx, x, x, ent)

    @staticmethod
    def all_ones(ctx, x: SetExpr, level: int = 0) -> "InvariantMatrix":
        return InvariantMatrix(ctx, x, x,
                               SchwartzFunction.indicator(ctx, product(x, x), level))

    @staticmethod
    def from_graph(ctx, f: GSetMap) -> "InvariantMatrix":
        """A_f: the indicator of the graph of f, as a matrix source -> target."""
        ent = pushforward(f.graph_map(),
                          SchwartzFunction.indicator(ctx, f.source, 0))
        return InvariantMatrix(ctx, f.source, f.target, ent)

    # -- linear structure ------------------------------------------------

    def __add__(self, other):
        self._same_shape(other)
        return InvariantMatrix(self.ctx, self.domain, self.codomain,
                               self.entries + other.entries)

    def __sub__(self, other):
        self._same_shape(other)
        return InvariantMatrix(self.ctx, self.domain, self.codomain,
                               self.entries - other.entries)

    def scale(self, c) -> "InvariantMatrix":
        return InvariantMatrix(self.ctx, self.domain, self.codomain,
                               self.entries.scale(c))

    def _same_shape(self, other):
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ValueError("matrix shape mismatch")

    def transpose(self) -> "InvariantMatrix":
        """The push along the swap cod x dom -> dom x cod; the swap is a
        bijection, so every fibre measure is 1 and only the support is
        touched."""
        swap = GSetMap.swap(self.codomain, self.domain)
        return InvariantMatrix(self.ctx, self.codomain, self.domain,
                               pushforward(swap, self.entries))

    def is_zero(self) -> bool:
        return self.entries.is_zero()


# Composition integrates over the middle variable, so each coefficient of b
# after a is a fibre measure over one orbit R of Z x X.  The row of an orbit
# o_zy of Z x Y comes from ctx.composition_row, which extends o_zy by the X
# slots; it groups the terms as row[o_yx] = ((R, c), ...), with c the summed
# measure of the extensions whose restriction to Y x X is o_yx, and zero
# sums dropped.  matmul reads the rows of b's support only, and sums the
# products c_b c_a c into one list of integer numerators per R.
@lru_cache(maxsize=None)
def _composition_row(ctx, z: SetExpr, y: SetExpr, x: SetExpr, level: int,
                     o_zy):
    sums: dict = {}
    for o_yx, image, coeff in ctx.composition_row(z, y, x, level, o_zy):
        group = sums.setdefault(o_yx, {})
        group[image] = group[image] + coeff if image in group else coeff
    return {o_yx: tuple((image, c) for image, c in group.items()
                        if not c.is_zero())
            for o_yx, group in sums.items()}


def _convolve(a, b) -> list:
    """The integer numerators of the product of two numerator tuples, as a
    new list."""
    if len(b) == 1:
        c = b[0]
        return [x * c for x in a]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def matmul(b: InvariantMatrix, a: InvariantMatrix) -> InvariantMatrix:
    """Composition b after a: (b a)(z, x) is the integral over y of
    b(z, y) a(y, x).  The coefficient on an orbit R of Z x X is the sum of
    c_b c_a times the fibre measure over R, over the support pairs of b on
    Z x Y and a on Y x X, read from the composition rows of b's support.

    The sum runs on integers: each R keeps a list of numerators over one
    positive denominator, rescaled only when a term's denominator differs,
    and one Poly is built per R at the end, in the order the R are first
    met.  Poly's form is canonical, so the result is the one that summing
    Poly objects gives."""
    if a.codomain != b.domain:
        raise ValueError("inner sets do not match")
    ctx = a.ctx
    x, y, z = a.domain, a.codomain, b.codomain
    lvl = max(a.level, b.level)
    a_terms = change_level(a.entries, lvl).terms
    sums: dict = {}  # R -> [den, numerators]
    for ob, cb in change_level(b.entries, lvl).terms.items():
        row = _composition_row(ctx, z, y, x, lvl, ob)
        for oa, ca in a_terms.items():
            group = row.get(oa)
            if not group:
                continue
            num = _convolve(cb.num, ca.num)
            den_ba = cb.den * ca.den
            for image, coeff in group:
                cn = coeff.num
                den = den_ba * coeff.den
                acc = sums.get(image)
                if acc is None:
                    sums[image] = [den, _convolve(num, cn)]
                    continue
                d, out = acc
                f = 1
                if d != den:  # bring both to the lcm of the denominators
                    g = gcd(d, den)
                    if g != den:
                        k = den // g
                        out[:] = [v * k for v in out]
                        d *= k
                        acc[0] = d
                    f = d // den
                short = len(num) + len(cn) - 1 - len(out)
                if short > 0:
                    out.extend([0] * short)
                for j, c in enumerate(cn):
                    if c:
                        c *= f
                        for i, v in enumerate(num, j):
                            out[i] += v * c
    terms = {}
    for image, (den, num) in sums.items():
        while num and num[-1] == 0:
            num.pop()
        if num:
            terms[image] = Poly._reduced(num, den)
    return InvariantMatrix(ctx, x, z,
                           SchwartzFunction(ctx, product(z, x), lvl, terms))


def _pairing(b: InvariantMatrix, a: InvariantMatrix) -> Poly:
    """tr(b a) for a: X -> Y and b: Y -> X, as the integral of b(x, y)
    a(y, x) over X x Y (Fubini): the product b a is never formed."""
    if b.domain != a.codomain or b.codomain != a.domain:
        raise ValueError("pairing needs matrices X -> Y and Y -> X")
    return integrate(b.entries * a.transpose().entries)


def trace(a: InvariantMatrix) -> Poly:
    """Integral of the diagonal restriction: the pairing with the identity,
    which is its own transpose, so nothing is transposed."""
    if a.domain != a.codomain:
        raise ValueError("trace of a non-square matrix")
    identity = InvariantMatrix.identity(a.ctx, a.domain, a.level)
    return integrate(a.entries * identity.entries)


def _power_traces(a: InvariantMatrix, n: int) -> list[Poly]:
    """tr(a), tr(a^2), ..., tr(a^n): tr(a^j) is the pairing of a^ceil(j/2)
    with a^floor(j/2), so only the powers up to a^ceil(n/2) are composed."""
    powers = [InvariantMatrix.identity(a.ctx, a.domain, a.level), a]
    while len(powers) <= (n + 1) // 2:
        powers.append(matmul(powers[-1], a))
    return [_pairing(powers[(j + 1) // 2], powers[j // 2])
            for j in range(1, n + 1)]


def _elementary(p: list[Poly]) -> list[Poly]:
    """e_0, ..., e_n from the power traces p_1..p_n by Newton's identities:
    n e_n = sum_{j=1..n} (-1)^(j-1) e_(n-j) p_j (valid over Q, uniform
    across backends)."""
    e = [Poly.one()]
    for n in range(1, len(p) + 1):
        total = Poly.zero()
        for j in range(1, n + 1):
            term = e[n - j] * p[j - 1]
            total = total + term if j % 2 else total - term
        e.append(total / n)
    return e


def higher_trace(a: InvariantMatrix, n: int) -> Poly:
    """T_n(a): integral of the n x n minor determinant over n-element
    subsets, the n-th elementary symmetric function of a computed from the
    traces of its powers."""
    if n < 0:
        raise ValueError("higher trace needs n >= 0")
    return _elementary(_power_traces(a, n))[n]


def char_series(a: InvariantMatrix, order: int = TruncatedSeries.DEFAULT_ORDER
                ) -> TruncatedSeries:
    """det(1 + u*a) to the given truncation order: the higher traces of a,
    from one list of power traces."""
    return TruncatedSeries(order, _elementary(_power_traces(a, order - 1)))


# ---------------------------------------------------------------------------
# The invariant endomorphism algebra of an object


class EndAlgebra:
    """End(Vec_X) in the orbit-indicator basis, with exact structure
    constants in Q[t]."""

    def __init__(self, ctx, x: SetExpr):
        self.ctx = ctx
        self.x = x
        self.orbit_list = list(ctx.orbits(product(x, x), 0))
        self.basis = [
            InvariantMatrix(ctx, x, x,
                            SchwartzFunction.from_orbit(ctx, product(x, x), pat))
            for pat in self.orbit_list]
        self.dim = len(self.basis)
        self._rows = None

    def matrix_to_vec(self, a: InvariantMatrix) -> list[Poly]:
        ent = a.entries
        if ent.level != 0:
            raise ValueError("End algebra coordinates need level-0 matrices")
        return [ent.coeff(pat) for pat in self.orbit_list]

    def vec_to_matrix(self, v) -> InvariantMatrix:
        terms = {}
        for pat, c in zip(self.orbit_list, v):
            c = c if isinstance(c, Poly) else Poly.const(c)
            if not c.is_zero():
                terms[pat] = c
        return InvariantMatrix(self.ctx, self.x, self.x,
                               SchwartzFunction(self.ctx, product(self.x, self.x),
                                                0, terms))

    def rows(self):
        """rows[i][j] = ((k, c_ij^k), ...), the nonzero coordinates of
        basis_i * basis_j sorted by k: the composition rows of (X, X, X) at
        level 0, one per basis orbit."""
        if self._rows is None:
            index = {pat: k for k, pat in enumerate(self.orbit_list)}
            self._rows = []
            for oi in self.orbit_list:
                row = _composition_row(self.ctx, self.x, self.x, self.x, 0, oi)
                self._rows.append([
                    tuple(sorted((index[image], c)
                                 for image, c in row.get(oj, ())))
                    for oj in self.orbit_list])
        return self._rows

    def structure_constants(self):
        """The dense table c[i][j][k] = c_ij^k, zeros included."""
        out = []
        for plane in self.rows():
            dense = []
            for pairs in plane:
                vec = [Poly.zero()] * self.dim
                for k, c in pairs:
                    vec[k] = c
                dense.append(vec)
            out.append(dense)
        return out

    def identity_vec(self) -> list[Poly]:
        return self.matrix_to_vec(InvariantMatrix.identity(self.ctx, self.x))

    def specialize(self, at: EvalPoint) -> "SpecializedEnd":
        if at.mode != "rational":
            raise ValueError("specialization needs a rational evaluation point")
        return SpecializedEnd(self, at)


_FRACTION_ZERO = Fraction(0)


class SpecializedEnd:
    """The finite-dimensional algebra End(Vec_X) at a rational point of t,
    with elements as coordinate vectors over Q.

    The structure constants are kept as integers over one denominator:
    table[i][j] lists the nonzero (k, n) with c_ij^k = n / den, so products
    run on Python integers."""

    def __init__(self, parent: EndAlgebra, at: EvalPoint):
        self.parent = parent
        self.at = at
        self.ident = [Fraction(evaluate(c, at)) for c in parent.identity_vec()]
        self.dim = parent.dim
        values = [[[(k, v) for k, c in pairs if (v := evaluate(c, at))]
                   for pairs in plane] for plane in parent.rows()]
        den = lcm(*(v.denominator
                    for plane in values for pairs in plane for _, v in pairs))
        self.den = den
        self.table = [
            [tuple((k, v.numerator * (den // v.denominator)) for k, v in pairs)
             for pairs in plane]
            for plane in values]

    def mul(self, u, v):
        """u * v, on integer numerators over the common denominator of u,
        of v and of the table."""
        du = lcm(*(a.denominator for a in u if a))
        dv = lcm(*(b.denominator for b in v if b))
        us = [(i, a.numerator * (du // a.denominator))
              for i, a in enumerate(u) if a]
        vs = [(j, b.numerator * (dv // b.denominator))
              for j, b in enumerate(v) if b]
        acc = [0] * self.dim
        table = self.table
        for i, a in us:
            row = table[i]
            for j, b in vs:
                ab = a * b
                for k, c in row[j]:
                    acc[k] += ab * c
        den = du * dv * self.den
        return [Fraction(x, den) if x else _FRACTION_ZERO for x in acc]

    def element(self, a: InvariantMatrix):
        return [evaluate(c, self.at) for c in self.parent.matrix_to_vec(a)]

    def to_matrix(self, v) -> InvariantMatrix:
        return self.parent.vec_to_matrix([Poly.const(c) for c in v])

    def poly_of(self, p: Poly, v):
        """p(v) inside the algebra."""
        coeffs = p.coeffs
        out = [c * coeffs[-1] for c in self.ident] if coeffs else \
            [Fraction(0)] * self.dim
        for c in reversed(coeffs[:-1]):
            out = self.mul(out, v)
            out = [a + b * c for a, b in zip(out, self.ident)]
        return out

    def min_poly(self, v, unit=None) -> Poly:
        """Minimal polynomial of v by linear-dependence search on the powers
        unit, unit*v, unit*v^2, ...  The unit is the identity by default; an
        idempotent e with v in eAe gives the minimal polynomial in the corner
        algebra eAe.  Each new power is reduced against the echelon rows of
        the powers before it, with its combination of the powers carried in
        the columns dim, dim + 1, ...; the powers are independent until the
        first one whose first dim columns reduce to zero, and its
        combination, which has leading coefficient 1, is the answer."""
        dim = self.dim
        echelon: dict = {}
        power = list(self.ident if unit is None else unit)
        for k in range(dim + 1):
            row = {i: a for i, a in enumerate(power) if a}
            row[dim + k] = Fraction(1)
            _reduce(echelon, row)
            piv = min(row)
            if piv >= dim:
                return Poly([row.get(dim + i, _FRACTION_ZERO)
                             for i in range(k + 1)])
            _add_pivot(echelon, row, piv)
            power = self.mul(power, v)
        raise ArithmeticError(
            "minimal polynomial not found (dimension bound hit)")

    def jordan(self, v):
        """Semisimple and nilpotent parts (v = s + n), both polynomials in v.

        Newton iteration on the squarefree part of the minimal polynomial;
        exact over Q, no factorization needed."""
        p = self.min_poly(v)
        q = p.squarefree_part()
        if q == p:
            return list(v), [Fraction(0)] * self.dim
        s = list(v)
        # q(s) is nilpotent in Q[v]; iterate s <- s - q(s)/q'(s)
        for _ in range(self.dim.bit_length() + 2):
            qs = self.poly_of(q, s)
            if all(c == 0 for c in qs):
                break
            inv = self.invert(self.poly_of(q.derivative(), s))
            s = [a - b for a, b in zip(s, self.mul(qs, inv))]
        n = [a - b for a, b in zip(v, s)]
        return s, n

    def invert(self, w):
        """Inverse of w, a polynomial in w (from its minimal polynomial)."""
        m = self.min_poly(w)
        c0 = m.coeffs[0]
        if c0 == 0:
            raise ArithmeticError("element is not invertible")
        g = Poly(list(m.coeffs[1:]))  # m(x) = x*g(x) + c0
        return [-c / c0 for c in self.poly_of(g, w)]

    def center_basis(self):
        """Basis of the center as coordinate vectors."""
        # z = sum_i z_i e_i is central iff z e_j - e_j z = 0 for every j:
        # one row per (j, k), with entry c_ij^k - c_ji^k in column i, times
        # den, which leaves the kernel alone
        table = self.table

        def constraints():
            for j in range(self.dim):
                rows: dict = {}
                for i in range(self.dim):
                    if table[i][j] == table[j][i]:
                        continue
                    diff = dict(table[i][j])
                    for k, c in table[j][i]:
                        diff[k] = diff.get(k, 0) - c
                    for k, c in diff.items():
                        if c:
                            rows.setdefault(k, []).append((i, c))
                yield from rows.values()

        return _nullspace(constraints(), self.dim)

    def radical(self):
        """Basis of the Jacobson radical as coordinate vectors: the kernel
        of Dickson's form Tr_reg(B_i B_j), which is the radical over Q.
        The regular trace of B_k is the sum of the diagonal coefficients
        c_kj^j, so the form is sum_k c_ij^k Tr_reg(B_k); both are kept
        as integers, den^2 times the true values, which leaves the kernel
        alone."""
        table = self.table
        treg = [sum(c for j, pairs in enumerate(plane)
                    for k, c in pairs if k == j) for plane in table]
        form = ([(j, sum(c * treg[k] for k, c in pairs))
                 for j, pairs in enumerate(plane)] for plane in table)
        return _nullspace(form, self.dim)


def _subtract(row, f, other):
    """row -= f * other, on dicts {column: value} that keep no zeros."""
    for c, v in other.items():
        x = row.get(c, 0) - f * v
        if x:
            row[c] = x
        else:
            row.pop(c, None)


def _reduce(echelon, row):
    """Clear the pivot columns of row in place.  echelon maps each pivot
    column p to its row without the entry 1 at p; no echelon row has an
    entry in another pivot column, so one pass clears them all."""
    for p in [c for c in row if c in echelon]:
        _subtract(row, row.pop(p), echelon[p])


def _add_pivot(echelon, row, p):
    """Add a reduced row to the echelon with pivot column p, and clear
    column p from the rows already there."""
    f = row.pop(p)
    row = {c: v / f for c, v in row.items()}
    for other in echelon.values():
        g = other.pop(p, None)
        if g:
            _subtract(other, g, row)
    echelon[p] = row


def _nullspace(rows, width):
    """Basis of the kernel of a matrix whose rows, each an iterable of
    (column, value) pairs, are read one at a time.  Each row is reduced
    against the reduced echelon rows found so far, and dropped when it
    reduces to zero; otherwise its first column becomes a pivot.  The basis
    is read from the reduced row echelon form, one vector per free column."""
    echelon: dict = {}
    for pairs in rows:
        row = {c: Fraction(v) for c, v in pairs if v}
        _reduce(echelon, row)
        if row:
            _add_pivot(echelon, row, min(row))
    out = []
    for fc in range(width):
        if fc in echelon:
            continue
        v = [_FRACTION_ZERO] * width
        v[fc] = Fraction(1)
        for p, row in echelon.items():
            v[p] = -row.get(fc, _FRACTION_ZERO)
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# Operations on matrices through the specialized algebra


def min_poly(a: InvariantMatrix, at: EvalPoint) -> Poly:
    alg = EndAlgebra(a.ctx, a.domain)
    sp = alg.specialize(at)
    return sp.min_poly(sp.element(a))


def jordan_split(a: InvariantMatrix, at: EvalPoint
                 ) -> tuple[InvariantMatrix, InvariantMatrix]:
    alg = EndAlgebra(a.ctx, a.domain)
    sp = alg.specialize(at)
    s, n = sp.jordan(sp.element(a))
    return sp.to_matrix(s), sp.to_matrix(n)


def trace_pairing(ctx, x: SetExpr):
    """Gram matrix <B_i,B_j> = tr(B_i B_j) on the orbit basis, its
    determinant, and the predicted value (-1)^r prod mu(Z_i), with r the
    number of pairs of orbits that the transpose swaps."""
    alg = EndAlgebra(ctx, x)
    gram = [[_pairing(bi, bj) for bj in alg.basis] for bi in alg.basis]
    disc = _poly_det(gram)
    index = {pat: k for k, pat in enumerate(alg.orbit_list)}
    r = sum(1 for i, b in enumerate(alg.basis)
            if i < index[next(iter(b.transpose().entries.terms))])
    predicted = Poly.one()
    xx = product(x, x)
    for pat in alg.orbit_list:
        predicted = predicted * ctx.measure(xx, pat)
    if r % 2:
        predicted = -predicted
    return gram, disc, predicted, r


def _poly_det(m) -> Poly:
    """Fraction-free Bareiss determinant over Q[t] (divisions are exact)."""
    n = len(m)
    if n == 0:
        return Poly.one()
    a = [[m[i][j] for j in range(n)] for i in range(n)]
    sign = 1
    prev = Poly.one()
    for k in range(n - 1):
        if a[k][k].is_zero():
            piv = next((i for i in range(k + 1, n) if not a[i][k].is_zero()), None)
            if piv is None:
                return Poly.zero()
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num.exact_div(prev)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def is_semisimple_end(ctx, x: SetExpr, at: EvalPoint) -> bool:
    """Whether the trace pairing of End(X) is nondegenerate at the point and
    End(X) there is a semisimple algebra (its radical is zero).  On the
    orbit basis tr(B_i B_j) is mu(O_i) when O_j is the transpose of O_i and
    0 otherwise (Fubini), so the pairing is nondegenerate exactly when no
    orbit of X x X has measure 0 at the point."""
    if at.mode != "rational":
        raise ValueError("semisimplicity test needs a rational evaluation point")
    alg = EndAlgebra(ctx, x)
    xx = product(x, x)
    if any(evaluate(ctx.measure(xx, pat), at) == 0 for pat in alg.orbit_list):
        return False
    return not alg.specialize(at).radical()
