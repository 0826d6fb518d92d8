"""Exact coefficient arithmetic: rationals, polynomials in the interpolation
parameter t, and truncated power series in u.

Everything here is exact; there is no floating point anywhere in the package.
A polynomial is a tuple of integer numerators over one positive integer
denominator, in canonical form (no trailing zero, no common factor), so
equality is literal equality of those fields and the arithmetic runs on
Python integers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd as _int_gcd, lcm
from typing import Iterable, Union

Rat = Union[int, Fraction]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Poly):
        if x.degree() > 0:
            raise TypeError("non-constant polynomial used as a scalar")
        return x.constant()
    raise TypeError(f"not an exact scalar: {x!r}")


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Poly:
    """Univariate polynomial over Q, stored as integer numerators over one
    positive integer denominator.  Used both for values in Q[t] (measures,
    traces) and for Q[x] in the q-binomial calculus.

    The form is canonical: no trailing zero numerator, gcd(den, *num) == 1,
    and the zero polynomial is ((), 1).  So den is the least common
    denominator of the coefficients, and equality and hashing compare the
    stored fields."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        # the lcm of reduced denominators leaves no common factor with the
        # scaled numerators, so this form is already canonical
        den = lcm(*(c.denominator for c in cs))
        self.num: tuple[int, ...] = tuple(
            c.numerator * (den // c.denominator) for c in cs)
        self.den: int = den

    @staticmethod
    def _of(num, den: int) -> "Poly":
        """The polynomial num/den, which must already be canonical: nothing
        is converted or checked."""
        p = object.__new__(Poly)
        p.num = tuple(num)
        p.den = den
        return p

    @staticmethod
    def _reduced(num: list, den: int) -> "Poly":
        """The polynomial num/den for integer numerators without a trailing
        zero and a positive den: the common factor is divided out."""
        if den != 1:
            g = _int_gcd(den, *num)
            if g != 1:
                num = [c // g for c in num]
                den //= g
        return Poly._of(num, den)

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c: Rat) -> "Poly":
        if isinstance(c, int):
            return Poly._of((c,), 1) if c else _ZERO
        c = _frac(c)
        return Poly._of((c.numerator,), c.denominator) if c else _ZERO

    @staticmethod
    def var() -> "Poly":
        return Poly._of((0, 1), 1)

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def one() -> "Poly":
        return Poly._of((1,), 1)

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    def degree(self) -> int:
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return len(self.num) <= 1

    def constant(self) -> Fraction:
        return Fraction(self.num[0], self.den) if self.num else Fraction(0)

    def __hash__(self):
        return hash((self.num, self.den))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __repr__(self):
        return f"Poly({self.to_text()!r})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, other.num
        if not b:
            return self
        if not a:
            return other
        den, db = self.den, other.den
        if den != db:  # bring both to the lcm of the denominators
            g = _int_gcd(den, db)
            fa, fb = db // g, den // g
            if fa != 1:
                a = [c * fa for c in a]
            if fb != 1:
                b = [c * fb for c in b]
            den *= fa
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for k, c in enumerate(b):
            cs[k] += c
        if len(b) == len(a):  # only equal degrees can cancel the top
            while cs and cs[-1] == 0:
                cs.pop()
        return Poly._reduced(cs, den)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of([-c for c in self.num], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, other.num
        if not a or not b:
            return _ZERO
        if len(a) < len(b):
            a, b = b, a
        den = self.den * other.den
        if len(b) == 1:  # a constant factor
            c = b[0]
            if c == 1 and den == 1:
                return Poly._of(a, 1)
            return Poly._reduced([x * c for x in a], den)
        # over Z the top coefficient a[-1] * b[-1] is never zero
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Poly._reduced(out, den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """By J. C. P. Miller's recurrence: with t^m taken out so that
        a[0] != 0, the numerators c of a^n satisfy k a[0] c[k] = sum_i
        ((n + 1) i - k) a[i] c[k - i], a sum of at most deg(a) products of a
        short and a long integer; squaring would multiply long polynomials."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return Poly.one()
        if not self.num:
            return _ZERO
        m = next(i for i, x in enumerate(self.num) if x)
        a = self.num[m:]
        d, a0 = len(a) - 1, a[0]
        c = [a0 ** n]
        for k in range(1, n * d + 1):
            c.append(sum(((n + 1) * i - k) * a[i] * c[k - i]
                         for i in range(1, min(d, k) + 1)) // (k * a0))
        # canonical: a prime of den divides not all of num, so of num^n
        return Poly._of((0,) * (m * n) + tuple(c), self.den ** n)

    def __truediv__(self, c):
        c = _frac(c)
        if c == 0:
            raise ZeroDivisionError("polynomial divided by zero scalar")
        p, q = c.numerator, c.denominator
        if p < 0:
            p, q = -p, -q
        return Poly._reduced([a * q for a in self.num], self.den * p)

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return NotImplemented

    # -- polynomial algebra --------------------------------------------

    def __call__(self, x: Rat) -> Fraction:
        """Integer Horner on x = p/q: sum num_k p^k q^(d-k) / (den q^d)."""
        x = _frac(x)
        p, q = x.numerator, x.denominator
        num = self.num
        if not num:
            return Fraction(0)
        acc, qk = num[-1], 1
        for c in reversed(num[:-1]):
            qk *= q
            acc = acc * p + c * qk
        return Fraction(acc, self.den * qk)

    def compose(self, inner: "Poly") -> "Poly":
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly.const(c)
        return acc

    def derivative(self) -> "Poly":
        return Poly._reduced([k * c for k, c in enumerate(self.num)][1:],
                             self.den)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        b = other.coeffs
        q = [Fraction(0)] * max(0, len(self.num) - len(b) + 1)
        r = list(self.coeffs)
        d = other.degree()
        lead = b[-1]
        while len(r) - 1 >= d and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < d:
                break
            k = len(r) - 1 - d
            c = r[-1] / lead
            q[k] = c
            for j, bj in enumerate(b):
                r[k + j] -= c * bj
            r.pop()
        return Poly(q), Poly(r)

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ArithmeticError("division is not exact")
        return q

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self / Fraction(self.num[-1], self.den)

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def squarefree_part(self) -> "Poly":
        if self.degree() <= 0:
            return self.monic()
        return self.exact_div(self.gcd(self.derivative())).monic()

    # -- text form -----------------------------------------------------
    #
    # Integer-coefficient-over-common-denominator form, e.g. "(t^2 - t)/2".

    def to_text(self, var: str = "t") -> str:
        if self.is_zero():
            return "0"
        num, den = self.num, self.den
        terms = []
        for k in range(len(num) - 1, -1, -1):
            c = num[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            elif k == 1:
                body = f"{abs(c)}{var}" if abs(c) != 1 else var
            else:
                body = f"{abs(c)}{var}^{k}" if abs(c) != 1 else f"{var}^{k}"
            terms.append((c < 0, body))
        first_neg, first_body = terms[0]
        s = ("-" if first_neg else "") + first_body
        for neg, body in terms[1:]:
            s += (" - " if neg else " + ") + body
        if den == 1:
            return s
        if len(terms) > 1:
            return f"({s})/{den}"
        return f"{s}/{den}"

    @staticmethod
    def from_text(s: str, var: str = "t") -> "Poly":
        return _parse_poly(s, var)


_ZERO = Poly._of((), 1)


_TOKEN = re.compile(r"\s*(\d+|[A-Za-z]\w*|\^|\+|-|\*|/|\(|\))")


def _tokenize(s: str):
    toks, i = [], 0
    while i < len(s):
        m = _TOKEN.match(s, i)
        if not m:
            raise ValueError(f"bad character in polynomial text: {s[i:]!r}")
        toks.append(m.group(1))
        i = m.end()
    return toks


# Polynomial text may build no degree above the slot bound of set
# expressions, and no power whose exponent times the bit length of its base
# passes _MAX_TEXT_POWER_BITS: past those, parsing alone would run for long.
_MAX_TEXT_DEGREE = 1000
_MAX_TEXT_POWER_BITS = 10_000


def _parse_poly(s: str, var: str) -> Poly:
    toks = _tokenize(s)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        if pos == len(toks):
            raise ValueError("unexpected end of polynomial text")
        t = toks[pos]
        pos += 1
        return t

    def check_degree(d: int):
        if d > _MAX_TEXT_DEGREE:
            raise ValueError(f"polynomial text builds degree {d}, past "
                             f"{_MAX_TEXT_DEGREE}")

    def times(a: Poly, b: Poly) -> Poly:
        check_degree(a.degree() + b.degree())
        return a * b

    def power(p: Poly, e: int) -> Poly:
        check_degree(p.degree() * e)
        bits = e * max(x.bit_length() for x in (*p.num, p.den))
        if bits > _MAX_TEXT_POWER_BITS:
            raise ValueError(f"polynomial text builds a power of about {bits} "
                             f"bits, past {_MAX_TEXT_POWER_BITS}")
        return p ** e

    def parse_sum() -> Poly:
        acc = parse_term()
        while peek() in ("+", "-"):
            op = take()
            t = parse_term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def parse_term() -> Poly:
        acc = parse_atom()
        while True:
            nxt = peek()
            if nxt == "*":
                take()
                acc = times(acc, parse_atom())
            elif nxt == "/":
                take()
                d = take()
                if not d.isdigit():
                    raise ValueError("denominator must be an integer")
                acc = acc / int(d)
            elif nxt is not None and (nxt.isdigit() or nxt == var or nxt == "("):
                acc = times(acc, parse_atom())  # juxtaposition, e.g. "3t^2"
            else:
                return acc

    def parse_atom() -> Poly:
        t = take()
        if t == "-":
            return -parse_atom()
        if t == "+":
            return parse_atom()
        if t == "(":
            p = parse_sum()
            if take() != ")":
                raise ValueError("unbalanced parentheses")
        elif t.isdigit():
            p = Poly.const(int(t))
        elif t == var:
            p = Poly.var()
        else:
            raise ValueError(f"unknown symbol {t!r} (variable is {var!r})")
        if peek() == "^":
            take()
            e = take()
            if not e.isdigit():
                raise ValueError("exponent must be an integer")
            p = power(p, int(e))
        return p

    out = parse_sum()
    if pos != len(toks):
        raise ValueError(f"trailing tokens in polynomial text: {toks[pos:]}")
    return out


# ---------------------------------------------------------------------------
# Evaluation points


class EvalPoint:
    """Where to evaluate elements of Q[t]: generically (identity), at a
    rational point, or at an integer point followed by reduction mod p."""

    __slots__ = ("mode", "t0", "p")

    def __init__(self, mode: str, t0=None, p=None):
        if mode not in ("generic", "rational", "modular"):
            raise ValueError(f"bad mode {mode!r}")
        if mode == "rational":
            t0 = _frac(t0)
        if mode == "modular":
            t0 = int(t0)
            if not is_prime(p):
                raise ValueError(f"modulus {p} is not prime")
        self.mode, self.t0, self.p = mode, t0, p

    @staticmethod
    def generic() -> "EvalPoint":
        return EvalPoint("generic")

    @staticmethod
    def rational(t0: Rat) -> "EvalPoint":
        return EvalPoint("rational", t0)

    @staticmethod
    def modular(t0: int, p: int) -> "EvalPoint":
        return EvalPoint("modular", t0, p)

    def __repr__(self):
        if self.mode == "generic":
            return "EvalPoint.generic()"
        if self.mode == "rational":
            return f"EvalPoint.rational({self.t0})"
        return f"EvalPoint.modular({self.t0}, {self.p})"


def evaluate(x: Poly, at: EvalPoint):
    """Evaluate a Q[t] value at a point.  Generic mode is the identity;
    modular mode evaluates exactly over Q first and reduces, which requires
    the value's denominator to be coprime to p."""
    if at.mode == "generic":
        return x
    v = x(at.t0)
    if at.mode == "rational":
        return v
    p = at.p
    if v.denominator % p == 0:
        raise ZeroDivisionError(f"denominator of {v} not invertible mod {p}")
    return (v.numerator * pow(v.denominator, -1, p)) % p


# ---------------------------------------------------------------------------
# Classical polynomial families


@lru_cache(maxsize=None)
def falling_factorial(shift: int, length: int) -> Poly:
    """(t-shift)(t-shift-1)...(t-shift-length+1); the empty product is 1."""
    if shift < 0 or length < 0:
        raise ValueError("falling_factorial needs nonnegative arguments")
    out = Poly.one()
    t = Poly.var()
    for i in range(length):
        out = out * (t - (shift + i))
    return out


def binomial_poly(n: int) -> Poly:
    """binom(t, n) as an element of Q[t]; integer-valued at integers."""
    if n < 0:
        raise ValueError("binomial_poly needs n >= 0")
    return falling_factorial(0, n) / factorial(n)


def binom_of(p: Poly, k: int) -> Poly:
    """binom(p, k) for a polynomial argument: p(p-1)...(p-k+1)/k!."""
    out = Poly.one()
    for i in range(k):
        out = out * (p - i)
    return out / factorial(k)


# ---------------------------------------------------------------------------
# Truncated power series in u over Q[t]


class TruncatedSeries:
    """Power series in u truncated at a declared order; coefficients in Q[t].

    Arithmetic between series requires equal orders so that truncation never
    silently changes meaning.
    """

    __slots__ = ("order", "coeffs")

    DEFAULT_ORDER = 8

    def __init__(self, order: int, coeffs: Iterable = ()):
        if order <= 0:
            raise ValueError("series order must be positive")
        cs = [c if isinstance(c, Poly) else Poly.const(c) for c in coeffs]
        if len(cs) > order:
            raise ValueError("more coefficients than the declared order")
        cs += [Poly.zero()] * (order - len(cs))
        self.order = order
        self.coeffs: tuple[Poly, ...] = tuple(cs)

    @staticmethod
    def one(order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        return TruncatedSeries(order, [Poly.one()])

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self):
        return f"TruncatedSeries({self.to_text()!r})"

    def _check(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise ValueError(f"series order mismatch: {self.order} vs {other.order}")

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return TruncatedSeries(self.order, [c * other for c in self.coeffs])
        self._check(other)
        out = [Poly.zero()] * self.order
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(self.order - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(self.order, out)

    __rmul__ = __mul__

    def to_text(self, var: str = "t") -> str:
        pieces = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            ct = c.to_text(var)
            if k == 0:
                pieces.append(ct)
                continue
            u = "u" if k == 1 else f"u^{k}"
            if c == Poly.one():
                pieces.append(u)
            elif c == -Poly.one():
                pieces.append(f"-{u}")
            else:
                if " " in ct or "/" in ct:
                    ct = f"({ct})"
                pieces.append(f"{ct}*{u}")
        out = ""
        for piece in pieces:
            if not out:
                out = piece
            elif piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        tail = f"O(u^{self.order})"
        return f"{out} + {tail}" if out else tail


def binomial_series(exponent, base, order: int = TruncatedSeries.DEFAULT_ORDER
                    ) -> TruncatedSeries:
    """(1 + base*u)^exponent as a truncated series; the exponent may be a
    polynomial in t (e.g. t-1), the base a scalar or polynomial."""
    e = exponent if isinstance(exponent, Poly) else Poly.const(exponent)
    b = base if isinstance(base, Poly) else Poly.const(base)
    return TruncatedSeries(order, [binom_of(e, k) * (b ** k) for k in range(order)])
