from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtsym.coeffring import (
    HookField,
    ParseError,
    PoleError,
    Polynomial,
    RationalFunction,
    _newton_interpolation,
    normalize_fraction,
    poly_gcd,
    rf,
)

q = Polynomial.var("q")
t = Polynomial.var("t")
Z = Polynomial.var("Z")
W = Polynomial.var("W")


def test_constant_and_variable_basics():
    assert Polynomial.const(0).is_zero()
    assert (q - q).is_zero()
    assert (q * q) == Polynomial.var("q", 2)
    assert (q + t) == (t + q)
    assert str(Polynomial.const(Fraction(3, 2)) * q) == "3/2*q"


def test_printing_graded_lex():
    p = -(q**3) * t - q**2 * t**2 + q**2 + q * t + t**2
    assert str(p) == "-q^3*t - q^2*t^2 + q^2 + q*t + t^2"
    assert Polynomial.parse(str(p)) == p


def test_parse_round_trip_misc():
    for text in ["0", "1", "-1", "q + 1", "2*q^2*t - 1/3", "q^10"]:
        assert str(Polynomial.parse(text)) == str(Polynomial.parse(str(Polynomial.parse(text))))
    with pytest.raises(ParseError):
        Polynomial.parse("q +")
    with pytest.raises(ParseError):
        Polynomial.parse("")


def test_normalize_fraction_examples():
    # factor cancellation
    r = normalize_fraction(q**2 - t**2, q - t)
    assert r == rf(q + t)
    # zero numerator
    r = normalize_fraction(Polynomial.const(0), q - 1)
    assert r.is_zero() and r.den == Polynomial.const(1)
    # same in Z
    r = normalize_fraction(Z**2 - 1, Z - 1)
    assert r == rf(Z + 1)
    with pytest.raises(ZeroDivisionError):
        normalize_fraction(q, Polynomial.const(0))


def test_normalize_is_idempotent():
    r = normalize_fraction(q**2 - t**2, (q - t) * (q + 1))
    again = normalize_fraction(r.num, r.den)
    assert again.num == r.num and again.den == r.den


def test_gcd_examples():
    assert poly_gcd(q**2 - t**2, q - t) == q - t
    assert poly_gcd(q, t) == Polynomial.const(1)
    g = poly_gcd((q - 1) ** 2 * (1 - t), (q - 1) * (1 - t) ** 2)
    target = (q - 1) * (1 - t)
    assert g == target or g == -target
    # primitive sign normalization: leading graded-lex coefficient positive
    assert g.leading()[1] > 0
    assert poly_gcd(Polynomial.const(0), -2 * q) == q


def test_specialize_examples():
    one_minus_q = rf(1 - q)
    r = one_minus_q.inverse()  # 1/(1-q)
    assert r.specialize({"q": 0}) == rf(1)
    r = normalize_fraction(Z - W, Z - 1)
    assert r.specialize({"Z": 0}) == rf(W)
    # reduction happens before substitution
    r = normalize_fraction((Z - 1) * W, Z - 1)
    assert r.specialize({"Z": 1}) == rf(W)
    with pytest.raises(PoleError):
        rf(1).__truediv__(rf(1 - q)).specialize({"q": 1})


def test_rf_add_two_ways():
    a = normalize_fraction(q, (q - 1) * (q - t))
    b = normalize_fraction(t, (q - t) ** 2)
    direct = a + b
    common = normalize_fraction(
        q * (q - t) + t * (q - 1), (q - 1) * (q - t) ** 2
    )
    assert direct == common


small_polys = st.builds(
    lambda coeffs: sum(
        (Polynomial.var("q", i) * Polynomial.var("t", j) * c for (i, j), c in coeffs.items()),
        Polynomial.const(0),
    ),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-4, 4),
        max_size=4,
    ),
)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys)
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
    else:
        a.divexact(g)
        b.divexact(g)


def test_hookfield_relations():
    eps = HookField(0, 1)
    zw = rf(Z * W)
    assert eps * eps == HookField(zw)
    x = HookField(rf(Z), rf(1))
    y = HookField(rf(W), rf(W))
    z = HookField(rf(1 + Z), rf(2))
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    # genus-one hook numerator for the single cell: (z-w)^2 = Z + W - 2 eps
    sq = HookField(rf(Z + W), rf(-2))
    assert sq == HookField(rf(Z), rf(1)).__class__(rf(Z + W), rf(-2))


def test_hookfield_adams_and_specialize():
    x = HookField(rf(Z), rf(1))  # Z + eps
    sq = x.raise_exponents(2)  # Z^2 + eps^2 = Z^2 + ZW
    assert sq == HookField(rf(Z**2 + Z * W))
    cube = x.raise_exponents(3)  # Z^3 + (ZW) eps
    assert cube == HookField(rf(Z**3), rf(Z * W))
    v = Polynomial.var("v")
    val = x.specialize({"Z": 1, "W": v**2}, eps_value=rf(-v))
    assert val == rf(1 - v)
    with pytest.raises(ValueError):
        x.specialize({"Z": 1, "W": v**2}, eps_value=rf(v**3))


def test_divexact_raises_on_inexact():
    with pytest.raises(ValueError):
        (q**2 + 1).divexact(q - 1)


def test_rational_function_parse_round_trip():
    samples = [
        normalize_fraction(q + 1, (q - t) * (t + 2)),
        normalize_fraction(q, q - 1),
        rf(q**2 - t),
        rf(Fraction(3, 2)) * rf(q),
        normalize_fraction(Polynomial.const(1), 1 - t),
    ]
    for r in samples:
        assert RationalFunction.parse(str(r)) == r


_NAMES = ["q", "t", "v", "Z", "W"]
_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def _naive_eval(p, assignment):
    """Reference substitution: multiply out every term and add."""
    out = Polynomial.const(0)
    for e, c in p.terms.items():
        term = Polynomial.const(c)
        for name, x in zip(p.vars, e):
            term = term * assignment.get(name, Polynomial.var(name)) ** x
        out = out + term
    return out


def _monomial(coeff, exps):
    out = Polynomial.const(coeff)
    for name, x in exps.items():
        out = out * Polynomial.var(name, x)
    return out


@st.composite
def _sparse_polys(draw, names):
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 4) for _ in names]), _fractions, max_size=6
        )
    )
    return Polynomial(tuple(names), terms)


@st.composite
def _eval_cases(draw):
    names = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=3, unique=True))
    p = draw(_sparse_polys(names))
    substituted = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    assignment = {}
    for name in substituted:
        kind = draw(st.sampled_from(["zero", "const", "term"]))
        if kind == "zero":
            assignment[name] = Polynomial.const(0)
        elif kind == "const":
            assignment[name] = Polynomial.const(draw(_fractions.filter(bool)))
        else:
            exps = draw(st.dictionaries(st.sampled_from(_NAMES), st.integers(1, 3), max_size=2))
            assignment[name] = _monomial(draw(_fractions.filter(bool)), exps)
    return p, assignment


@settings(max_examples=200, deadline=None)
@given(_eval_cases())
def test_eval_poly_matches_naive_substitution(case):
    p, assignment = case
    assert p.eval_poly(assignment) == _naive_eval(p, assignment)


@st.composite
def _interpolation_cases(draw):
    coeffs = draw(st.lists(_fractions, min_size=1, max_size=7))
    n = len(coeffs)
    points = draw(st.lists(_fractions, min_size=n, max_size=n + 2, unique=True))
    return coeffs, points


@settings(max_examples=100, deadline=None)
@given(_interpolation_cases())
def test_newton_interpolation_recovers_the_polynomial(case):
    coeffs, points = case
    values = [sum(c * x**i for i, c in enumerate(coeffs)) for x in points]
    padded = coeffs + [Fraction(0)] * (len(points) - len(coeffs))
    assert _newton_interpolation(points, values) == padded


def test_eval_poly_renaming_and_kept_variables():
    p = 3 * q**2 * t + q - Fraction(1, 2) * t**3
    # a renaming onto a kept variable merges exponents
    assert p.eval_poly({"q": t}) == _naive_eval(p, {"q": t})
    # a simultaneous swap
    assert p.eval_poly({"q": t, "t": q}) == 3 * t**2 * q + t - Fraction(1, 2) * q**3
    # scaled monomial in a fresh variable and in a kept one
    val = Fraction(-2, 3) * Z**2 * t
    assert p.eval_poly({"q": val}) == _naive_eval(p, {"q": val})
    assert p.eval_poly({"t": Polynomial.const(0)}) == q
    with pytest.raises(ValueError):
        p.eval_poly({"q": t + 1})


_small_qt = st.builds(
    lambda terms: Polynomial(("q", "t"), terms),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-3, 3), max_size=3),
)


@settings(max_examples=40, deadline=None)
@given(
    _small_qt,
    _small_qt,
    st.sampled_from(["q", "t"]),
    st.builds(
        lambda a, b, x: Polynomial.const(a) + b * Polynomial.var("t", x),
        _fractions.filter(bool),
        _fractions.filter(bool),
        st.integers(1, 2),
    ),
)
def test_specialize_with_several_term_values(num, den, name, value):
    if den.is_zero():
        den = Polynomial.const(1)
    r = RationalFunction(num, den)
    # the reduced fraction substituted by multiplying out, as before
    sub_num = _naive_eval(r.num, {name: value})
    sub_den = _naive_eval(r.den, {name: value})
    if sub_den.is_zero():
        with pytest.raises(PoleError):
            r.specialize({name: value})
    else:
        assert r.specialize({name: value}) == RationalFunction(sub_num, sub_den)


def test_specialize_several_term_values_examples():
    r = normalize_fraction(q + t, q - 1)
    assert r.specialize({"q": t + 1}) == normalize_fraction(2 * t + 1, t)
    with pytest.raises(PoleError):
        rf(1).__truediv__(rf(q**2 - t**2 - 2 * t - 1)).specialize({"q": t + 1})
    with pytest.raises(PoleError):
        rf(1).__truediv__(rf(1 - q)).specialize({"q": 1})
