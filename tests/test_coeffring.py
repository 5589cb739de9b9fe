import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtsym import coeffring
from qtsym.coeffring import (
    HookField,
    ParseError,
    PoleError,
    Polynomial,
    P_ONE,
    RationalFunction,
    _gcd_prs,
    _interpolate_rows,
    binomial_factors,
    factored_sum,
    gcd_cofactors,
    gcd_path_counts,
    normalize_fraction,
    poly_gcd,
    rf,
    split_factors,
    split_over,
)
from qtsym.kernel import _htilde_splits, _norm_zw
from qtsym.macdonald import build_table, norm_factors, norm_product
from qtsym.partitions import partitions_of

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
    # a dangling caret is not exponent 1, and a zero denominator is a
    # parse error, not a ZeroDivisionError
    for text in ["q +", "", "q^", "2*q^ + t", "1/0*q"]:
        with pytest.raises(ParseError):
            Polynomial.parse(text)


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


def test_hookfield_hash_agrees_with_equality():
    assert HookField(rf(2)) == rf(2)
    assert len({rf(2), HookField(rf(2))}) == 1
    for base in (rf(0), rf(Z), rf(1) / rf(Z - W)):
        assert hash(HookField(base)) == hash(base)
    assert HookField(rf(Z), rf(1)) != rf(Z)


def test_hash_agrees_with_equality_across_coefficient_types():
    # a constant equals its value and a fraction over 1 its numerator
    groups = (
        (rf(2), 2, Fraction(2), Polynomial.const(2), HookField(rf(2))),
        (rf(q), q),
        (rf(Fraction(1, 2)), Fraction(1, 2), Polynomial.const(Fraction(1, 2))),
        (rf(0), 0, Polynomial.const(0), Polynomial(("q",), {})),
        (rf(q * t - 3), q * t - 3, Polynomial(("q", "t", "u"), {(1, 1, 0): 1, (0, 0, 0): -3})),
        (
            rf(2 * t - q) / 3,
            (2 * t - q).scale(Fraction(1, 3)),
            Polynomial(("t", "q"), {(1, 0): Fraction(2, 3), (0, 1): Fraction(-1, 3)}),
        ),
    )
    for group in groups:
        assert all(a == b for a in group for b in group)
        assert len(set(group)) == 1, group
    assert len({rf(q), rf(q) / rf(t), rf(t)}) == 3
    # factors of one support hash apart, so a lookup in a mult dict of
    # factored_sum need not compare them
    assert hash(Z - 1) != hash(Z + 1) and hash(rf(Z - W) / 2) != hash(rf(Z + W) / 2)


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


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_divexact_inverts_multiplication(a, b, r):
    if b.is_zero():
        return
    assert (a * b).divexact(b) == a
    if r and r.total_degree() < b.total_degree():
        # a nonzero remainder of lower degree cannot be a multiple of b
        with pytest.raises(ValueError):
            (a * b + r).divexact(b)


def test_binomial_factors_examples():
    assert binomial_factors("q", 4, "t", 2) == (1, (q**2 - t, q**2 + t))
    unit, factors = binomial_factors("q", 6, "t", 0)
    assert unit == 1 and len(factors) == 4
    assert factors[0] * factors[1] * factors[2] * factors[3] == q**6 - 1
    unit, factors = binomial_factors("q", 0, "t", 3)
    assert unit == -1 and factors == (t - 1, t**2 + t + 1)
    assert binomial_factors("q", 2, "t", 3) == (-1, (t**3 - q**2,))
    with pytest.raises(ValueError):
        binomial_factors("q", 0, "t", 0)


_ETAS = [eta for n in range(1, 5) for eta in partitions_of(n)]


@st.composite
def _reduction_cases(draw):
    eta = draw(st.sampled_from(_ETAS))
    num = draw(small_polys)
    for f, m in norm_factors(eta)[1]:
        num = num * f ** draw(st.integers(0, m))
    return eta, num


@settings(max_examples=80, deadline=None)
@given(_reduction_cases())
def test_split_over_norm_matches_gcd_reduction(case):
    eta, num = case
    norm = norm_factors(eta)
    c = RationalFunction(num)
    got = factored_sum([split_over((c.scalar,) + split_factors(c.prim, norm[1]), norm)])
    want = RationalFunction(num, norm_product(eta))
    assert got == want
    assert repr(got) == repr(want)


def _divexact_split(p, factors):
    """The slow reference for split_factors: repeated Polynomial.divexact."""
    mult = {}
    for f, m in factors:
        k = 0
        while k < m:
            try:
                p = p.divexact(f)
            except ValueError:
                break
            k += 1
        if k:
            mult[f] = k
    return p, mult


# Factors in q and t, and in q or t alone (such as t - 1 named over (q, t)).
_BINOMIAL_FACTORS = sorted(
    {f for a in range(4) for b in range(4) if a or b for f in binomial_factors("q", a, "t", b)[1]},
    key=repr,
)


@st.composite
def _split_cases(draw):
    """p times powers of distinct binomial factors, some above the cap m
    and some 0, in an order that may put a factor in q or in t first, so
    the rows run in either indeterminate."""
    p = draw(small_polys)
    factors = []
    for f in draw(st.permutations(_BINOMIAL_FACTORS))[: draw(st.integers(0, 5))]:
        m = draw(st.integers(1, 3))
        p = p * f ** draw(st.integers(0, m + 1))
        factors.append((f, m))
    return p, factors


@settings(max_examples=150, deadline=None)
@given(_split_cases())
@example((q**2 + 1, [(q - 1, 2), (t - 1, 1), (q - t, 1)]))
@example((q * (t - 1) ** 2 * (q**2 + q * t + t**2), [(t - 1, 1), (q**2 + q * t + t**2, 2), (q - 1, 1)]))
# Fraction coefficients
@example(((q - 1) * (t - 1) * (q.scale(Fraction(1, 2)) + t), [(q - 1, 1), (t - 1, 2)]))
# top coefficients in q of several terms: each row divides by t^2 + t + 1,
# by t + 1 and by 1 - t, whose top coefficient in t is -1
@example(((q**2 + t) * (t**2 + t + 1) ** 2 * (q - t), [(t**2 + t + 1, 3), (q - t, 1)]))
@example(((q * t + 2) * ((t + 1) * q + 1) ** 2, [((t + 1) * q + 1, 3)]))
@example(((q + t**3) * ((1 - t) * q + t) ** 2 * (t**2 + t + 1), [((1 - t) * q + t, 2), (t**2 + t + 1, 2)]))
def test_split_factors_matches_repeated_divexact(case):
    p, factors = case
    cofactor, mult = split_factors(p, factors)
    assert (cofactor, mult) == _divexact_split(p, factors)
    assert list(mult) == [f for f, _ in factors if f in mult]
    product = cofactor
    for f, k in mult.items():
        product = product * f**k
    assert product == p


def test_split_factors_needs_a_plus_minus_one_led_indeterminate():
    f = 2 * q**2 + 3 * q * t + 2 * t**2
    with pytest.raises(ValueError):
        split_factors(q * f, [(f, 1)])
    # the division never looks for a coefficient quotient: the top term of
    # 2q - 1 in q is 2q, and the top coefficient in t of 2t^2 q + 1 is 2
    with pytest.raises(ValueError):
        split_factors(2 * q - 1, [(2 * q - 1, 1)])
    with pytest.raises(ValueError):
        split_factors(q, [(2 * t**2 * q + 1, 1)])
    # p and the factors take at most two indeterminates together
    s = Polynomial.var("s")
    with pytest.raises(ValueError):
        split_factors(s * (q - t) ** 2 * (q * s + 2), [(t - 1, 1), (q - t, 3)])
    with pytest.raises(ValueError):
        split_factors(q - t, [(q - t, 1), (s - 1, 1)])


def _lead_of_top(f, x, y):
    """The top coefficient in y of the coefficient of the top power of x in f."""
    exps = [(dict(zip(f.vars, e)), c) for e, c in f.terms.items()]
    top = max(d.get(x, 0) for d, _ in exps)
    row = {d.get(y, 0): c for d, c in exps if d.get(x, 0) == top}
    return row[max(row)]


@pytest.mark.parametrize("n", range(1, 7))
def test_norm_factors_have_a_unit_led_indeterminate(n):
    # split_factors divides on rows in q (Z) over Z[t] (Z[W]): the top
    # power of every factor in q has a coefficient with top term +-t^s
    for lam in partitions_of(n):
        for f, _ in norm_factors(lam)[1]:
            assert _lead_of_top(f, "q", "t") in (1, -1), f
        for f, _ in _norm_zw(lam)[1]:
            assert _lead_of_top(f, "Z", "W") in (1, -1), f


def _inverse_kostka_numerators(n):
    """(numerator, factors of a_eta) of every nonzero K~^-1[eta, lam] for
    lam, eta of n, the splits MacdonaldTable.kostka_inv makes."""
    table = build_table(n)
    cases = []
    for eta in table.partitions:
        norm = RationalFunction(norm_product(eta))
        for lam in table.partitions:
            entry = table.kostka_inverse_entry(eta, lam)
            if entry:
                cases.append(((entry * norm).prim, norm_factors(eta)[1]))
    return cases


def test_engine_splits_never_reach_the_generic_division(monkeypatch):
    cases = _inverse_kostka_numerators(4)
    _htilde_splits(3)  # fills the memos of the table and the (Z, W) norms

    def generic(self, other):
        raise AssertionError("split_factors reached Polynomial.divexact")

    monkeypatch.setattr(Polynomial, "divexact", generic)
    for prim, factors in cases:
        cofactor, mult = split_factors(prim, factors)
        for f, k in mult.items():
            cofactor = cofactor * f**k
        assert cofactor == prim
    _htilde_splits.cache_clear()
    assert _htilde_splits(3)


def test_engine_splits_turn_p_into_rows_once(monkeypatch):
    # every factor of an engine norm divides in the one orientation, so a
    # split converts p to rows once (the factors' rows are memoized)
    cases = _inverse_kostka_numerators(4)
    for prim, factors in cases:
        split_factors(prim, factors)
    _htilde_splits(3)
    conversions = []
    to_rows, split = coeffring._split_rows, coeffring.split_factors

    def counted_rows(p, x, y):
        conversions[-1] += 1
        return to_rows(p, x, y)

    def counted_split(p, factors):
        conversions.append(0)
        return split(p, factors)

    monkeypatch.setattr(coeffring, "_split_rows", counted_rows)
    monkeypatch.setattr(sys.modules["qtsym.kernel"], "split_factors", counted_split)
    for prim, factors in cases:
        counted_split(prim, factors)
    _htilde_splits.cache_clear()
    _htilde_splits(3)
    assert len(conversions) > len(cases)
    assert conversions == [1] * len(conversions)


_NORM_ZW_FACTORS = sorted(
    {f.rename({"q": "Z", "t": "W"}) for eta in _ETAS for f, _ in norm_factors(eta)[1]},
    key=repr,
)


def _factored_term(rng):
    """A random reduced (scalar, prim, mult) term over the (Z, W) norm
    factors, with a numerator that is a product of other factors, maybe
    plus a small integer polynomial, and the term as a RationalFunction;
    None when the drawn numerator is not prime to the denominator."""
    mult = {f: rng.randint(1, 2) for f in rng.sample(_NORM_ZW_FACTORS, rng.randint(0, 3))}
    num = P_ONE
    for f in rng.sample([f for f in _NORM_ZW_FACTORS if f not in mult], rng.randint(0, 2)):
        num = num * f
    if rng.random() < 0.5:
        num = num + Polynomial(("Z", "W"), {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)})
    if num.is_zero():
        return None
    den = P_ONE
    for f, m in mult.items():
        den = den * f**m
    scalar = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
    want = RationalFunction(num.scale(scalar), den)
    if want.den != den:
        return None
    return (want.scalar, want.prim, mult), want


def _check_factored_sum(terms, parts):
    got = factored_sum(terms)
    want = sum(parts, RationalFunction.const(0))
    assert got == want
    assert repr(got) == repr(want)
    return got


def test_factored_sum_matches_rational_addition():
    rng = random.Random(20240515)
    for _ in range(150):
        drawn = [x for x in (_factored_term(rng) for _ in range(rng.randint(1, 4))) if x]
        _check_factored_sum([term for term, _ in drawn], [part for _, part in drawn])
    f = (Z - W).primitive()
    g = Z**2 + Z * W + W**2
    one_over_f = (1, P_ONE, {f: 1})
    # a factor of g = f that divides the new numerator: 1/f + (f - 1)/f = 1
    assert _check_factored_sum([one_over_f, (1, f - 1, {f: 1})], [rf(1) / rf(f), rf(f - 1) / rf(f)]) == rf(1)
    # one that does not: 1/f^2 + 1/(f g) = (g + f)/(f^2 g)
    got = _check_factored_sum(
        [(1, P_ONE, {f: 2}), (1, P_ONE, {f: 1, g: 1})], [rf(1) / rf(f**2), rf(1) / rf(f * g)]
    )
    assert got.den == f**2 * g
    # a sum that cancels to zero, also before a further term
    minus = (-1, P_ONE, {f: 1})
    assert _check_factored_sum([one_over_f, minus], [rf(1) / rf(f), rf(-1) / rf(f)]).is_zero()
    _check_factored_sum(
        [one_over_f, minus, (Fraction(1, 3), g, {f: 1})],
        [rf(1) / rf(f), rf(-1) / rf(f), rf(g) / rf(f * 3)],
    )
    assert factored_sum([]).is_zero()


def _check_carried(got, want, carried=True):
    """got equals want in value, repr and canonical form, carries its
    factors when carried and it is not a polynomial, and its carried
    factors multiply out to its denominator."""
    assert got == want and repr(got) == repr(want)
    _assert_canonical(got)
    if carried and not got.is_polynomial():
        assert got._mult
    if got._mult is not None:
        assert coeffring._factor_product(got._mult, {}) == got.den


def test_factored_products_and_adams_images_match_rational_arithmetic():
    # a product cross-cancels each prim against the other term's factors,
    # and psi_n takes each factor to its split: factored_sum then makes the
    # reduced RationalFunction, carrying its denominator's factors. The
    # operators of RationalFunction and HookField run on those factors
    # when one operand carries them and the other carries them or is a
    # polynomial, and agree with the same operators on operands that
    # carry none, which reduce by gcds
    rng = random.Random(20261020)
    s = rf(Polynomial.var("s"))
    for _ in range(150):
        x, y = _factored_term(rng), _factored_term(rng)
        if not (x and y):
            continue
        n = rng.randint(2, 4)
        for term, want in (
            (coeffring._factored_product(x[0], y[0]), x[1] * y[1]),
            (coeffring._factored_adams(n, x[0]), x[1].raise_exponents(n)),
        ):
            _check_carried(factored_sum([term]), want)
        a, b = factored_sum([x[0]]), factored_sum([y[0]])
        xr, yr = x[1], y[1]
        assert a._mult is not None and xr._mult is None
        poly = rf(yr.num)
        c = rf(Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3)))
        for got, want in (
            (a + b, xr + yr),
            (a - b, xr - yr),
            (a * b, xr * yr),
            (-a, -xr),
            (a * c, xr * c),
            (c * a, c * xr),
            (a + poly, xr + poly),
            (poly - a, poly - xr),
            (a * poly, xr * poly),
            (poly * a, poly * xr),
            (a.raise_exponents(n), xr.raise_exponents(n)),
        ):
            _check_carried(got, want)
        for got, want in (
            (HookField(a, b) * HookField(b, poly), HookField(xr, yr) * HookField(yr, poly)),
            (HookField(a) * HookField(poly, b), HookField(xr) * HookField(poly, yr)),
        ):
            _check_carried(got.base, want.base)
            _check_carried(got.odd, want.odd)
        # beside a carried denominator in Z and W, a third indeterminate is
        # beyond split_factors: gcds reduce
        for got, want in ((a * (s + poly), xr * (s + poly)), (a + s, xr + s)):
            _check_carried(got, want, carried=False)
            if not a.is_polynomial():
                assert got._mult is None


# Five factors in Z and W, so that drawn denominators often share a
# factor, at equal and at unequal multiplicities.
_SUM_POOL = list(
    dict.fromkeys(f for a, b in ((1, 1), (2, 2), (1, 0), (0, 1), (2, 1)) for f in binomial_factors("Z", a, "W", b)[1])
)


def _pool_term(c):
    """The reduced fraction c, whose denominator is a product of pool
    factors, as a (scalar, prim, mult) term of factored_sum."""
    unit, mult = split_factors(c.den, [(f, 9) for f in _SUM_POOL])
    assert unit == P_ONE
    return c.scalar, c.prim, mult


@st.composite
def _factored_sum_cases(draw):
    """(terms, parts): terms over powers of the pool factors and their
    values as RationalFunctions. A last term, when drawn, is a target over
    fewer factors less the other parts, so the sum cancels factors that
    two denominators share at equal multiplicity."""
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        den = P_ONE
        for f in draw(st.lists(st.sampled_from(_SUM_POOL), unique=True, max_size=3)):
            den = den * f ** draw(st.integers(1, 3))
        parts.append(RationalFunction(draw(_zw_polys(("Z", "W"))).scale(draw(_fractions.filter(bool))), den))
    if draw(st.booleans()):
        den = P_ONE
        for f in draw(st.lists(st.sampled_from(_SUM_POOL), unique=True, max_size=2)):
            den = den * f
        last = RationalFunction(draw(_zw_polys(("Z", "W"))), den) - sum(parts, RationalFunction.const(0))
        if not last.is_zero():
            parts.append(last)
    return [_pool_term(c) for c in parts], parts


@settings(max_examples=150, deadline=None)
@given(_factored_sum_cases())
def test_factored_sum_matches_rational_sums_over_shared_factors(case):
    terms, parts = case
    got = _check_factored_sum(terms, parts)
    _assert_canonical(got)
    if not got.is_zero():
        assert coeffring._factor_product(got._mult, {}) == got.den


@pytest.mark.parametrize("n", range(1, 6))
def test_adams_images_of_norm_factors_split_over_binomial_factors(n):
    # psi_m(f), for every factor f of a norm at n and every m <= 5, is +-1
    # times its memoized split, and split_factors divides by every factor
    # of that split: each is +-1-led, as the norm factors are
    for lam in partitions_of(n):
        for (x, y), (_, factors) in ((("q", "t"), norm_factors(lam)), (("Z", "W"), _norm_zw(lam))):
            for f, _ in factors:
                for m in range(1, 6):
                    unit, split = coeffring._adams_factors(f, m)
                    product = P_ONE
                    for g in split:
                        product = product * g
                        assert _lead_of_top(g, x, y) in (1, -1), g
                        assert split_factors(g, [(g, 1)])[1] == {g: 1}
                    assert unit in (1, -1) and f.raise_exponents(m) == product.scale(unit), (f, m)


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


def _from_rows(rows):
    """sum over i, j of rows[i][j] * Z^i * W^j."""
    return Polynomial(
        ("Z", "W"), {(i, j): c for i, r in enumerate(rows) for j, c in enumerate(r)}
    )


def _horner(r, y0):
    return sum(c * y0**j for j, c in enumerate(r))


@st.composite
def _interpolation_cases(draw):
    rows = [draw(st.lists(st.integers(-5, 5), max_size=5)) for _ in range(draw(st.integers(1, 4)))]
    rows[-1] = rows[-1] + [draw(st.integers(-5, 5).filter(bool))]
    rows[draw(st.integers(0, len(rows) - 1))] = [draw(st.integers(-5, 5).filter(bool))]
    n = max(map(len, rows))
    points = draw(
        st.lists(st.integers(-9, 9).filter(lambda p: _horner(rows[-1], p)),
                 min_size=n, max_size=n + 2, unique=True)
    )
    return rows, points


@settings(max_examples=100, deadline=None)
@given(_interpolation_cases())
def test_interpolate_rows_recovers_the_polynomial(case):
    rows, points = case
    # an image (g0, v) stands for g0 * v / lc(g0); v = lc(g0) makes it g0, the value at p
    images = [([_horner(r, p) for r in rows], _horner(rows[-1], p)) for p in points]
    got = _from_rows(_interpolate_rows(points, images))
    # one row is a nonzero constant, so the rows have no content in W
    assert got.primitive() == _from_rows(rows).primitive()


_ZW_FACTORS = sorted(
    {f for a in range(4) for b in range(4) if a or b for f in binomial_factors("Z", a, "W", b)[1]},
    key=str,
)


@st.composite
def _zw_polys(draw, names):
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 2) for _ in names]),
            st.integers(-4, 4).filter(bool),
            min_size=1,
            max_size=3,
        )
    )
    return Polynomial(names, terms)


@st.composite
def _gcd_cases(draw):
    """a, b with a planted common factor: hook-binomial pieces times a
    small random polynomial; b may lack one of the indeterminates."""
    names_b = draw(st.sampled_from([("Z", "W"), ("Z",), ("W",)]))
    pieces = [f for f in _ZW_FACTORS if set(f.canonical().vars) <= set(names_b)]
    common = draw(_zw_polys(names_b))
    for f in draw(st.lists(st.sampled_from(pieces), min_size=1, max_size=2)):
        common = common * f
    a = common * draw(_zw_polys(("Z", "W"))) * draw(_fractions.filter(bool))
    b = common * draw(_zw_polys(names_b))
    return a, b


@settings(max_examples=150, deadline=None)
@given(_gcd_cases())
# coprime, but the image at Z = 2 is W + 1: the first candidate fails
@example((1 - Z - W, (Z**2 - 1) * (W**2 - 1)))
def test_gcd_matches_prs_route(case):
    a, b = case
    prs = gcd_path_counts()["prs"]
    g, ca, cb = gcd_cofactors(a, b)
    assert gcd_path_counts()["prs"] == prs
    assert g == poly_gcd(a, b) == _gcd_prs(a.canonical(), b.canonical())
    assert g == g.primitive() and g.leading()[1] > 0
    assert g * ca == a and g * cb == b


def test_hook_binomial_gcd_takes_no_prs_fallback():
    # every image at Z = +-1 is W^2 - 1, yet the gcd is 1
    before = gcd_path_counts()
    assert poly_gcd((Z * W) ** 2 - 1, W**2 - 1) == P_ONE
    after = gcd_path_counts()
    assert after["prs"] == before["prs"]
    assert after["bivariate"] == before["bivariate"] + 1


def test_bivariate_gcd_certifies_after_a_run_of_unlucky_points(monkeypatch):
    # W is the interpolation variable here; with c = (W-2)(W-3)(W-5), the
    # images at W = 2, 3, 5 gain the common factor Z, so the first
    # candidate fails and then W = 5 is skipped
    g = Z + W + 1
    a, b = g * Z, g * (Z - (W - 2) * (W - 3) * (W - 5))
    usual = coeffring._sample_points
    monkeypatch.setattr(coeffring, "_sample_points", lambda: itertools.chain((2, 3, 5), usual()))
    before = gcd_path_counts()
    got, ca, cb = gcd_cofactors(a, b)
    assert gcd_path_counts()["prs"] == before["prs"]
    assert got == g == _gcd_prs(a.canonical(), b.canonical())
    assert (ca, cb) == (Z, Z - (W - 2) * (W - 3) * (W - 5))
    # no lucky point: the budget the degrees give is reached, and that raises
    monkeypatch.setattr(coeffring, "_sample_points", lambda: itertools.chain((2, 3), itertools.repeat(5)))
    with pytest.raises(ArithmeticError, match="no gcd certified"):
        gcd_cofactors(a, b)


@st.composite
def _rf_operands(draw):
    """Two reduced fractions x, y built by the constructor, with
    denominators multiplied from hook-binomial pieces so that
    gcd(x.den, y.den) is often not 1; some pairs have equal denominators,
    denominator 1, a zero sum, or a sum whose numerator cancels against
    that gcd."""

    def numerator():
        return draw(_zw_polys(("Z", "W"))) * draw(_fractions.filter(bool))

    def denominator(den_pieces):
        den = Polynomial.const(draw(_fractions.filter(bool)))
        for f in den_pieces:
            den = den * f
        return den

    pieces = st.lists(st.sampled_from(_ZW_FACTORS), max_size=3)
    shared = draw(pieces)
    x = RationalFunction(numerator(), denominator(shared + draw(pieces)))
    kind = draw(st.sampled_from(["shared", "equal", "one", "zero", "cancel"]))
    if kind == "shared":
        y = RationalFunction(numerator(), denominator(shared + draw(pieces)))
    elif kind == "equal":
        y = RationalFunction(numerator(), x.den)
    elif kind == "one":
        y = RationalFunction(numerator())
    elif kind == "zero":
        y = RationalFunction(-x.num, x.den)
    else:
        # y = z - x, so the numerator of x + y cancels against gcd(x.den, y.den)
        z = RationalFunction(numerator(), denominator(shared + draw(pieces)))
        y = RationalFunction(z.num * x.den - x.num * z.den, z.den * x.den)
    return (x, y) if draw(st.booleans()) else (y, x)


@settings(max_examples=150, deadline=None)
@given(_rf_operands())
def test_rf_add_and_mul_match_the_reduced_reference(case):
    x, y = case
    for got, want in (
        (x + y, RationalFunction(x.num * y.den + y.num * x.den, x.den * y.den)),
        (x * y, RationalFunction(x.num * y.num, x.den * y.den)),
    ):
        assert got == want
        assert repr(got) == repr(want)
        # the denominator has content 1 and a positive leading coefficient
        assert got.den.content_signed() == 1


@settings(max_examples=60, deadline=None)
@given(_rf_operands(), _fractions)
def test_scalar_product_agrees_with_the_general_product(case, c):
    # rf(c) is over P_ONE and takes the scalar path; the same constant
    # built by the constructor has its own prim and takes the general one
    x, _ = case
    scalar, general = rf(c), RationalFunction(Polynomial.const(c))
    assert scalar == general and (not c or (scalar.prim is P_ONE and general.prim is not P_ONE))
    for got, want in ((x * scalar, x * general), (scalar * x, general * x)):
        assert got == want and repr(got) == repr(want)
        _assert_canonical(got)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, _fractions, _fractions)
def test_constant_denominator_sum_agrees_with_the_general_sum(a, b, c1, c2):
    # two operands over 1 are added with no gcd; the same sum through
    # operands over q - t takes the general path, and the constructor
    # reduces the plain sum
    x, y = RationalFunction(a.scale(c1)), RationalFunction(b.scale(c2))
    before = gcd_path_counts()
    got = x + y
    assert gcd_path_counts() == before
    w = rf(1) / rf(q - t)
    for want in (((x + w) + y) - w, RationalFunction(a.scale(c1) + b.scale(c2))):
        assert got == want and repr(got) == repr(want)
    assert got.den == P_ONE
    _assert_canonical(got)


def _assert_canonical(x):
    """x is scalar * prim / den with prim and den primitive integer
    polynomials with positive leading coefficient, and num their product."""
    assert type(x.scalar) is int or x.scalar.denominator != 1
    assert x.num == x.prim.scale(x.scalar)
    if x.is_zero():
        assert x.prim.is_zero() and x.den == P_ONE
        return
    for p in (x.prim, x.den):
        assert all(type(c) is int for c in p.terms.values()), x
        assert p.content_signed() == 1, x


def _ref_reduce(num, den):
    """num / den reduced the plain way: Fraction-coefficient polynomials,
    divided by their gcd from the primitive PRS, the denominator made
    primitive with a positive leading coefficient."""
    if num.is_zero():
        return Polynomial.const(0), P_ONE
    if not num.is_constant() and not den.is_constant():
        g = _gcd_prs(num.canonical(), den.canonical())
        num, den = num.divexact(g), den.divexact(g)
    c = den.content_signed()
    return num.scale(Fraction(1) / c), den.scale(Fraction(1) / c)


def _ref_text(num, den):
    if den.is_constant():
        return str(num)
    text = str(num)
    if len(num.terms) > 1:
        text = "(%s)" % text
    return "%s/(%s)" % (text, den)


def _ref_add(a, b):
    if a[1] == b[1]:
        return _ref_reduce(a[0] + b[0], a[1])
    return _ref_reduce(a[0] * b[1] + b[0] * a[1], a[1] * b[1])


def _ref_mul(a, b):
    return _ref_reduce(a[0] * b[0], a[1] * b[1])


_QT_FACTORS = [f.rename({"Z": "q", "W": "t"}) for f in _ZW_FACTORS]


@st.composite
def _rational_polys(draw, names):
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 2) for _ in names]),
            _fractions.filter(bool),
            min_size=1,
            max_size=3,
        )
    )
    return Polynomial(names, terms)


@st.composite
def _plain_fraction_pairs(draw):
    """(names, (n1, d1), (n2, d2)): numerators and denominators over Q in
    (q,t) or (Z,W), the denominators built from hook-binomial pieces, some
    of them shared, a rational constant and maybe a random polynomial.
    The second fraction may be the first scaled or negated, or a constant."""
    names = draw(st.sampled_from([("q", "t"), ("Z", "W")]))
    pieces = _ZW_FACTORS if names == ("Z", "W") else _QT_FACTORS
    shared = draw(st.lists(st.sampled_from(pieces), max_size=2))

    def fraction():
        den = Polynomial.const(draw(_fractions.filter(bool)))
        for f in shared + draw(st.lists(st.sampled_from(pieces), max_size=2)):
            den = den * f
        if draw(st.booleans()):
            den = den * draw(_rational_polys(names))
        return draw(_rational_polys(names)), den

    first = fraction()
    kind = draw(st.sampled_from(["shared", "scaled", "negated", "constant"]))
    if kind == "shared":
        second = fraction()
    elif kind == "scaled":
        second = first[0].scale(draw(_fractions.filter(bool))), first[1]
    elif kind == "negated":
        second = -first[0], first[1]
    else:
        second = Polynomial.const(draw(_fractions)), P_ONE
    return names, first, second


@settings(max_examples=80, deadline=None)
@given(_plain_fraction_pairs(), st.integers(2, 3))
def test_rf_arithmetic_matches_plain_fraction_arithmetic(case, k):
    names, a, b = case
    x, y = RationalFunction(*a), RationalFunction(*b)
    swap = {names[0]: names[1], names[1]: names[0]}
    checks = [
        (x, a),
        (y, b),
        (x + y, _ref_add(a, b)),
        (x * y, _ref_mul(a, b)),
        (-x, (-a[0], a[1])),
        (x.raise_exponents(k), (a[0].raise_exponents(k), a[1].raise_exponents(k))),
        (x.rename(swap), (a[0].rename(swap), a[1].rename(swap))),
    ]
    if x:
        checks.append((x.inverse(), (a[1], a[0])))
    if names == ("Z", "W"):
        # (x + eps/2)(1 + y eps) = (x + y ZW/2) + (xy + 1/2) eps
        h = HookField(x, Fraction(1, 2)) * HookField(1, y)
        half = (Polynomial.const(Fraction(1, 2)), P_ONE)
        checks.append((h.base, _ref_add(a, _ref_mul(_ref_mul(b, (Z * W, P_ONE)), half))))
        checks.append((h.odd, _ref_add(_ref_mul(a, b), half)))
    for got, (num, den) in checks:
        _assert_canonical(got)
        num, den = _ref_reduce(num, den)
        assert got.num == num and got.den == den
        assert repr(got) == "RationalFunction(%s)" % _ref_text(num, den)


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
