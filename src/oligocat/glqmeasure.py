"""Measure-level arithmetic for the infinite general linear group over a
finite field: q-integers, q-binomials, the shifted q-binomial coefficient
polynomials and their identities.

q is a concrete integer here, not a formal variable; the polynomials live in
Q[x] with x standing for the q-integer count of points of projective space.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iproduct

from .scalar import Poly


class QContext:
    """Fixed integer q >= 2 (a prime power in the applications; primality of
    the base is not enforced)."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        if q < 2:
            raise ValueError("q must be at least 2")
        self.q = q

    def __repr__(self):
        return f"QContext({self.q})"

    def q_int(self, n: int) -> int:
        """[n]_q = 1 + q + ... + q^(n-1)."""
        if n < 0:
            raise ValueError("q-integer of a negative argument")
        return sum(self.q ** i for i in range(n))

    def q_factorial(self, n: int) -> int:
        out = 1
        for i in range(1, n + 1):
            out *= self.q_int(i)
        return out

    # -- the polynomial calculus ----------------------------------------

    def omega(self, m: int, d: int) -> Poly:
        """The shifted q-binomial coefficient polynomial: evaluating it at
        [n]_q counts d-dimensional subspaces of an (n-m)-dimensional space."""
        if m < 0 or d < 0:
            raise ValueError("omega needs m, d >= 0")
        return _omega(self.q, m, d)

    def check_q_pascal(self, bound: int, perturb=None):
        """omega_{m,d} = q^d omega_{m+1,d} + omega_{m+1,d-1} as exact
        polynomial identities for all m, d <= bound.

        `perturb` = (m, d, delta) injects a deliberate error at one entry, as
        a negative control; the report then carries the witness (m, d)."""
        failures = []

        def w(m, d):
            out = self.omega(m, d)
            if perturb is not None and (m, d) == perturb[:2]:
                out = out + Poly.const(perturb[2])
            return out

        for m in range(bound + 1):
            for d in range(bound + 1):
                lhs = w(m, d)
                rhs = w(m + 1, d) * (self.q ** d)
                if d >= 1:
                    rhs = rhs + w(m + 1, d - 1)
                if lhs != rhs:
                    failures.append((m, d))
        return GlqReport("q-pascal", not failures, failures)

    def grassmann_structure_constants(self, i: int, j: int):
        """Coefficients of the product of two subspace-counting classes,
        verified as an exact polynomial identity."""
        if i < 0 or j < 0:
            raise ValueError("grassmann_structure_constants needs i, j >= 0")
        coeffs = {}
        for d in range(max(i, j), i + j + 1):
            num = self.q_factorial(d) * self.q ** ((d - i) * (d - j))
            den = (self.q_factorial(d - i) * self.q_factorial(d - j)
                   * self.q_factorial(i + j - d))
            assert num % den == 0
            coeffs[d] = num // den
        lhs = self.omega(0, i) * self.omega(0, j)
        rhs = Poly.zero()
        for d, n_d in coeffs.items():
            rhs = rhs + self.omega(0, d) * n_d
        if lhs != rhs:
            raise ArithmeticError(
                f"structure constant identity fails at (i, j) = ({i}, {j})")
        return coeffs

    def omega_table(self, max_m: int, max_d: int, ns) -> dict:
        """Values omega_{m,d}([n]_q) for a JSON-friendly table."""
        rows = []
        for m in range(max_m + 1):
            for d in range(max_d + 1):
                w = self.omega(m, d)
                rows.append({
                    "m": m, "d": d,
                    "poly": w.to_text("x"),
                    "values": {str(n): str(w(self.q_int(n))) for n in ns},
                })
        return {"q": self.q, "rows": rows}


@lru_cache(maxsize=None)
def _omega(q: int, m: int, d: int) -> Poly:
    """The polynomial omega_{m,d} of QContext(q).omega."""
    ctx = QContext(q)
    x = Poly.var()
    out = Poly.one()
    for i in range(d):
        out = out * (x - ctx.q_int(i))
    out = out / (q ** (d * (d - 1) // 2) * ctx.q_factorial(d))
    for _ in range(m):
        out = out.compose((x - 1) / q)  # inverse shift [n] -> [n-1]
    return out


class GlqReport:
    __slots__ = ("name", "ok", "witnesses")

    def __init__(self, name, ok, witnesses):
        self.name = name
        self.ok = ok
        self.witnesses = witnesses

    def __repr__(self):
        return f"GlqReport({self.name}, ok={self.ok}, witnesses={self.witnesses})"


# ---------------------------------------------------------------------------
# Independent oracles (vector enumeration over small prime fields)


def count_subspaces(q: int, n: int, d: int) -> int:
    """Count of d-dimensional subspaces of F_q^n by enumerating the reduced
    row echelon forms one at a time (subspaces biject with full-rank RREFs;
    no q-factorial formula is consulted)."""
    return len(_all_subspaces(q, n, d))


def count_spanning_pairs(q: int, ambient: int, i: int, j: int, d: int) -> int:
    """Number of pairs (V, W) of subspaces of F_q^ambient with dim V = i,
    dim W = j and dim(V + W) = d, for a fixed d-dimensional sum: counted by
    fixing the standard d-dimensional coordinate subspace."""
    if d > ambient:
        raise ValueError("need ambient >= d")
    count = 0
    subs_i = _all_subspaces(q, d, i)
    subs_j = _all_subspaces(q, d, j)
    for v in subs_i:
        for w in subs_j:
            if _span_dim(v, w, q, d) == d:
                count += 1
    return count


@lru_cache(maxsize=None)
def _all_subspaces(q: int, n: int, d: int):
    """All full-rank d x n reduced row echelon matrices over F_q: choose the
    pivot columns, then fill every free entry (entries right of the pivot and
    not in a pivot column) in all possible ways."""
    if d == 0:
        return (tuple(),)
    if d > n:
        return tuple()
    from itertools import combinations
    out = []
    for pivots in combinations(range(n), d):
        free = [(r, c) for r in range(d) for c in range(n)
                if c > pivots[r] and c not in pivots]
        for values in iproduct(range(q), repeat=len(free)):
            mat = [[0] * n for _ in range(d)]
            for r, p in enumerate(pivots):
                mat[r][p] = 1
            for (r, c), v in zip(free, values):
                mat[r][c] = v
            out.append(tuple(tuple(row) for row in mat))
    return tuple(out)


def _span_dim(v, w, q, n):
    rows = [list(r) for r in v] + [list(r) for r in w]
    if not rows:
        return 0
    rank = 0
    ncols = n
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % q), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, q)
        rows[r] = [(x * inv) % q for x in rows[r]]
        for i2 in range(len(rows)):
            if i2 != r and rows[i2][c] % q:
                f = rows[i2][c]
                rows[i2] = [(x - f * y) % q for x, y in zip(rows[i2], rows[r])]
        r += 1
        rank = r
        if r == len(rows):
            break
    return rank
