import math
import random
from fractions import Fraction

import pytest

from oligocat.scalar import (EvalPoint, Poly, TruncatedSeries, binom_of,
                             binomial_poly, binomial_series, evaluate,
                             falling_factorial)

t = Poly.var()


def rand_poly(rng, deg=4):
    return Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                 for _ in range(rng.randint(0, deg))])


def test_falling_factorial():
    assert falling_factorial(0, 2) == t * t - t
    assert falling_factorial(3, 0) == Poly.one()
    assert falling_factorial(2, 1) == t - 2


def test_binomial_poly():
    assert binomial_poly(0) == Poly.one()
    assert binomial_poly(2) == (t * t - t) / 2
    assert binomial_poly(2)(4) == 6


def test_binomial_integer_valued():
    for n in range(6):
        p = binomial_poly(n)
        for t0 in range(0, 12):
            assert p(t0).denominator == 1


def test_ring_axioms_randomized():
    rng = random.Random(42)
    for _ in range(200):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_eval_is_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(100):
        a, b = rand_poly(rng), rand_poly(rng)
        pt = EvalPoint.rational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        assert evaluate(a * b, pt) == evaluate(a, pt) * evaluate(b, pt)
        assert evaluate(a + b, pt) == evaluate(a, pt) + evaluate(b, pt)


def test_eval_modes():
    assert evaluate(t * t - t, EvalPoint.rational(3)) == 6
    assert evaluate(binomial_poly(2), EvalPoint.modular(0, 2)) == 0
    assert evaluate(Poly.one(), EvalPoint.modular(4, 5)) == 1
    assert evaluate(t, EvalPoint.generic()) == t


def test_modular_denominator_error():
    half = Poly.const(Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        evaluate(half, EvalPoint.modular(0, 2))
    with pytest.raises(ValueError):
        EvalPoint.modular(0, 4)  # modulus must be prime


def test_series_mul():
    one_plus = TruncatedSeries(3, [1, 1])
    one_minus = TruncatedSeries(3, [1, -1])
    assert one_plus * one_minus == TruncatedSeries(3, [1, 0, -1])
    a = TruncatedSeries(4, [2, t, t * t])
    assert a * TruncatedSeries.one(4) == a
    sq = TruncatedSeries(3, [1, t]) * TruncatedSeries(3, [1, t])
    assert sq == TruncatedSeries(3, [1, 2 * t, t * t])


def test_series_order_mismatch():
    with pytest.raises(ValueError):
        TruncatedSeries(3, [1]) * TruncatedSeries(4, [1])


def test_poly_text_round_trip():
    rng = random.Random(3)
    cases = [Poly.zero(), Poly.one(), -Poly.one(), t, binomial_poly(3),
             falling_factorial(2, 3), Poly.const(Fraction(5, 3))]
    cases += [rand_poly(rng) for _ in range(50)]
    for p in cases:
        assert Poly.from_text(p.to_text()) == p
    assert binomial_poly(3).to_text() == "(t^3 - 3t^2 + 2t)/6"


def test_series_to_text():
    cases = [(TruncatedSeries.one(4), "1 + O(u^4)"),
             (TruncatedSeries(3, [1, 0, -1]), "1 - u^2 + O(u^3)"),
             (TruncatedSeries(4, [0, Poly.const(-1), 2 * t]),
              "-u + 2t*u^2 + O(u^4)"),
             (TruncatedSeries(4, [1, t, (t * t - t) / 2,
                                  Poly.const(Fraction(-1, 3))]),
              "1 + t*u + ((t^2 - t)/2)*u^2 + (-1/3)*u^3 + O(u^4)"),
             (TruncatedSeries(2, [0, 0]), "O(u^2)")]
    for s, text in cases:
        assert s.to_text() == text


def test_binomial_series():
    # (1+u)^t * (1+u)^{-t} = 1
    a = binomial_series(t, 1, 6)
    b = binomial_series(-t, 1, 6)
    assert a * b == TruncatedSeries.one(6)


def test_rational_invariants():
    # coefficients stay in lowest terms with positive denominators
    p = Poly([Fraction(2, 4), Fraction(-3, -6)])
    assert p.coeffs == (Fraction(1, 2), Fraction(1, 2))
    assert all(c.denominator > 0 for c in p.coeffs)


def test_parse_without_spaces():
    assert Poly.from_text("t^2-t") == t * t - t
    assert Poly.from_text("-t+1") == 1 - t
    assert Poly.from_text("(t^2-t)/2") == binomial_poly(2)
    assert Poly.from_text("2*t^2 + 3t") == 2 * t * t + 3 * t
    assert Poly.from_text("-3/4") == Poly.const(Fraction(-3, 4))
    for text in ["", "3/", "t^", "(1", "-"]:
        with pytest.raises(ValueError, match="unexpected end"):
            Poly.from_text(text)


def test_parenthesised_base_takes_a_power():
    assert Poly.from_text("(t-1)^2") == (t - 1) * (t - 1)
    assert Poly.from_text("-(t+1)^2") == -(t + 1) * (t + 1)
    assert Poly.from_text("3(t-1)^2/2") == 3 * (t - 1) * (t - 1) / 2
    assert Poly.from_text("((2)^3)^2") == Poly.const(64)


def test_polynomial_text_is_bounded(monkeypatch):
    """A power or product past degree 1000, or a power of too many bits, is
    refused before it is computed."""
    power = Poly.__pow__

    def bounded(self, n):
        if n > 1000:
            raise AssertionError(f"computed a power with exponent {n}")
        return power(self, n)

    monkeypatch.setattr(Poly, "__pow__", bounded)
    assert Poly.from_text("t^1000").degree() == 1000
    for text in ["t^1001", "(t^100)^11", "((2^999)^999)^999", "t^500*t^501",
                 "t^600 t^600", "2^100000"]:
        with pytest.raises(ValueError, match="polynomial text builds"):
            Poly.from_text(text)


def test_poly_division_helpers():
    p = (t - 1) * (t - 2) * (t - 2)
    assert p.squarefree_part() == ((t - 1) * (t - 2)).monic()
    q, r = p.divmod(t - 2)
    assert r.is_zero() and q == (t - 1) * (t - 2)
    assert binom_of(t - 1, 2) == (t - 1) * (t - 2) / 2


def assert_canonical(p):
    """Integer numerators over one positive denominator, no trailing zero,
    no common factor; so den is the lcm of the coefficient denominators."""
    assert all(type(c) is int for c in p.num) and type(p.den) is int
    assert p.den > 0
    assert not p.num or p.num[-1] != 0
    assert math.gcd(p.den, *p.num) == 1
    assert p.den == math.lcm(*(c.denominator for c in p.coeffs))
    assert p.num or p.den == 1


def horner_over_fractions(p, x):
    """The Fraction Horner evaluation that the integer one replaced."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def test_equal_values_built_differently():
    pairs = [(Poly([Fraction(1, 2)]) * 2, Poly.one()),
             (Poly([Fraction(2, 4), Fraction(-3, -6)]) / Fraction(1, 2),
              1 + t),
             ((t / 3) * 3, t), (t / 6 + t / 3, t / 2),
             (binomial_poly(2) * 2 - t * t, -t),
             (Poly([Fraction(1, 3), 0, 0]), Poly.const(Fraction(1, 3))),
             (t - t, Poly.zero()), (Poly([0, 0]), Poly()),
             (Poly.const(Fraction(6, 3)), Poly([2]))]
    for a, b in pairs:
        assert_canonical(a)
        assert_canonical(b)
        assert a == b and hash(a) == hash(b)
        assert (a.num, a.den) == (b.num, b.den)
    assert Poly.const(Fraction(1, 2)) == Fraction(1, 2)
    assert Poly.zero() == 0 and Poly.one() == 1 and t != 1


def test_poly_against_sympy():
    """+ - * / **, evaluation, derivative, divmod, gcd, squarefree_part and
    the text round trip agree with sympy over QQ on generated polynomials;
    every result is in canonical form, and equal values built in different
    ways are equal and hash alike."""
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    x = sympy.Symbol("x")

    def to_sympy(p):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(p.coeffs)] or [0], x,
                          domain="QQ")

    def from_sympy(q):
        return Poly([Fraction(int(c.p), int(c.q))
                     for c in reversed(q.all_coeffs())])

    coeff = st.fractions(min_value=-20, max_value=20, max_denominator=7)
    # small-degree factors, so that gcds and repeated roots occur
    factor = st.lists(coeff, max_size=3).map(Poly)
    poly = st.lists(factor, min_size=1, max_size=3).map(math.prod)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(poly, poly, coeff)
    def check(a, b, c):
        sa, sb = to_sympy(a), to_sympy(b)
        assert a + b == from_sympy(sa + sb)
        assert a - b == from_sympy(sa - sb)
        assert -a == from_sympy(-sa)
        assert a * b == from_sympy(sa * sb)
        for n in range(13):
            assert a ** n == from_sympy(sa ** n)
        assert a * c == c * a == from_sympy(sa * to_sympy(Poly.const(c)))
        if c:
            assert a / c == from_sympy(sa * to_sympy(Poly.const(1 / c)))
        assert Poly.from_text(a.to_text()) == a
        assert a(c) == horner_over_fractions(a, c) == sa.eval(
            sympy.Rational(c.numerator, c.denominator))
        assert a.derivative() == from_sympy(sa.diff(x))
        if not b.is_zero():
            q, r = a.divmod(b)
            sq, sr = sympy.div(sa, sb)
            assert (q, r) == (from_sympy(sq), from_sympy(sr))
            assert_canonical(q)
            assert_canonical(r)
        g = sympy.gcd(sa, sb)
        assert a.gcd(b) == (from_sympy(g.monic()) if not g.is_zero
                            else Poly.zero())
        if a.degree() > 0:
            assert a.squarefree_part() == from_sympy(sa.sqf_part().monic())
        for p in (a, a + b, a - b, -a, a * b, a * c, a.derivative(),
                  a.gcd(b)):
            assert_canonical(p)
        # equal values reached by different routes
        for p, q in ((a + b - b, a), (b + a, a + b), (a * b, b * a),
                     (Poly(a.coeffs), a), (Poly(list(a.coeffs) + [0]), a)):
            assert p == q and hash(p) == hash(q)
        if c:
            assert_canonical(a / c)
            assert (a / c) * c == a and hash((a / c) * c) == hash(a)

    check()
