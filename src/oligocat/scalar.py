"""Exact coefficient arithmetic: rationals, polynomials in the interpolation
parameter t, and truncated power series in u.

Everything here is exact; there is no floating point anywhere in the package.
Polynomials are dense over Fraction with trailing zeros stripped, so equality
is literal coefficient equality.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial, gcd as _int_gcd
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
    """Dense univariate polynomial over Q.  Used both for values in Q[t]
    (measures, traces) and for Q[x] in the q-binomial calculus."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @staticmethod
    def _of(cs: list) -> "Poly":
        """The polynomial with coefficients cs, which must already be
        Fractions with no trailing zero: nothing is converted or checked."""
        p = object.__new__(Poly)
        p.coeffs = tuple(cs)
        return p

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c: Rat) -> "Poly":
        return Poly([_frac(c)])

    @staticmethod
    def var() -> "Poly":
        return Poly([0, 1])

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly([1])

    # -- structure ----------------------------------------------------

    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __hash__(self):
        return hash(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"Poly({self.to_text()!r})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for k, c in enumerate(b):
            cs[k] += c
        if len(b) == len(a):  # only equal degrees can cancel the top
            while cs and cs[-1] == 0:
                cs.pop()
        return Poly._of(cs)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of([-c for c in self.coeffs])

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
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly._of(())
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:  # a constant factor
            c = b[0]
            return Poly._of(a) if c == 1 else Poly._of([x * c for x in a])
        # over Q the top coefficient a[-1] * b[-1] is never zero
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Poly._of(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        r = Poly.one()
        for _ in range(n):
            r = r * self
        return r

    def __truediv__(self, c):
        c = _frac(c)
        if c == 0:
            raise ZeroDivisionError("polynomial divided by zero scalar")
        return Poly._of([a / c for a in self.coeffs])

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return NotImplemented

    # -- polynomial algebra --------------------------------------------

    def __call__(self, x: Rat) -> Fraction:
        x = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly.const(c)
        return acc

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        r = list(self.coeffs)
        d = other.degree()
        lead = other.coeffs[-1]
        while len(r) - 1 >= d and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < d:
                break
            k = len(r) - 1 - d
            c = r[-1] / lead
            q[k] = c
            for j, b in enumerate(other.coeffs):
                r[k + j] -= c * b
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
        return self / self.coeffs[-1]

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
        den = reduce(lambda a, b: a * b // _int_gcd(a, b),
                     (c.denominator for c in self.coeffs), 1)
        num = [int(c * den) for c in self.coeffs]
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


ParamScalar = Poly  # the value domain of all measures and traces


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


def _parse_poly(s: str, var: str) -> Poly:
    toks = _tokenize(s)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        t = toks[pos]
        pos += 1
        return t

    def parse_sum() -> Poly:
        nonlocal pos
        acc = parse_term()
        while peek() in ("+", "-"):
            op = take()
            t = parse_term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def parse_term() -> Poly:
        nonlocal pos
        acc = parse_atom()
        while True:
            nxt = peek()
            if nxt == "*":
                take()
                acc = acc * parse_atom()
            elif nxt == "/":
                take()
                d = take()
                if not d.isdigit():
                    raise ValueError("denominator must be an integer")
                acc = acc / int(d)
            elif nxt is not None and (nxt.isdigit() or nxt == var or nxt == "("):
                acc = acc * parse_atom()  # juxtaposition, e.g. "3t^2"
            else:
                return acc

    def parse_atom() -> Poly:
        nonlocal pos
        t = peek()
        if t == "-":
            take()
            return -parse_atom()
        if t == "+":
            take()
            return parse_atom()
        if t == "(":
            take()
            inner = parse_sum()
            if take() != ")":
                raise ValueError("unbalanced parentheses")
            return inner
        if t is None:
            raise ValueError("unexpected end of polynomial text")
        take()
        if t.isdigit():
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
            p = p ** int(e)
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

    def __eq__(self, other):
        return (isinstance(other, EvalPoint)
                and (self.mode, self.t0, self.p) == (other.mode, other.t0, other.p))

    def __hash__(self):
        return hash((self.mode, self.t0, self.p))


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

    @staticmethod
    def from_scalar(c, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        return TruncatedSeries(order, [c])

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"TruncatedSeries({self.to_text()!r})"

    def _check(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise ValueError(f"series order mismatch: {self.order} vs {other.order}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = TruncatedSeries.from_scalar(other, self.order)
        self._check(other)
        return TruncatedSeries(self.order,
                               [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = TruncatedSeries.from_scalar(other, self.order)
        return self + (-other)

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

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative series power")
        r = TruncatedSeries.one(self.order)
        for _ in range(n):
            r = r * self
        return r

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

    @staticmethod
    def from_text(s: str, var: str = "t") -> "TruncatedSeries":
        m = re.search(r"O\(u\^(\d+)\)\s*$", s)
        if not m:
            raise ValueError("series text must end with O(u^N)")
        order = int(m.group(1))
        body = s[: m.start()].rstrip()
        body = body[:-1].rstrip() if body.endswith("+") else body
        coeffs = [Poly.zero()] * order
        if body:
            for piece in _split_top_level(body):
                k, c = _parse_series_term(piece, var)
                if k >= order:
                    raise ValueError("series term beyond the declared order")
                coeffs[k] = coeffs[k] + c
        return TruncatedSeries(order, coeffs)


def _split_top_level(s: str) -> list[str]:
    """Split on ' + ' / ' - ' at paren depth zero; the sign travels with
    the following term."""
    parts, depth, cur = [], 0, ""
    i = 0
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if (depth == 0 and ch in "+-" and i > 0 and i + 1 < len(s)
                and s[i - 1] == " " and s[i + 1] == " "):
            if cur.strip():
                parts.append(cur.strip())
            cur = "-" if ch == "-" else ""
            i += 2
            continue
        cur += ch
        i += 1
    if cur.strip():
        parts.append(cur.strip())
    return parts


def _parse_series_term(piece: str, var: str) -> tuple[int, Poly]:
    neg = False
    p = piece.strip()
    if p.startswith("-"):
        neg, p = True, p[1:].strip()
    m = re.search(r"(?:^|\*)\s*u(?:\^(\d+))?$", p)
    if m is None:
        k, body = 0, p
    else:
        k = int(m.group(1)) if m.group(1) else 1
        body = p[: m.start()].rstrip()
        if body == "":
            body = "1"
    c = Poly.from_text(body, var)
    return k, (-c if neg else c)


def binomial_series(exponent, base, order: int = TruncatedSeries.DEFAULT_ORDER
                    ) -> TruncatedSeries:
    """(1 + base*u)^exponent as a truncated series; the exponent may be a
    polynomial in t (e.g. t-1), the base a scalar or polynomial."""
    e = exponent if isinstance(exponent, Poly) else Poly.const(exponent)
    b = base if isinstance(base, Poly) else Poly.const(base)
    return TruncatedSeries(order, [binom_of(e, k) * (b ** k) for k in range(order)])
