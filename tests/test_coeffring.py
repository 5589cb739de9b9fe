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
    binomial_factors,
    factored_sum,
    gcd_cofactors,
    gcd_path_counts,
    normalize_fraction,
    over_norm,
    poly_gcd,
    rf,
    split_factors,
    split_over,
    weighted_sum,
)
from qtsym.kernel import _htilde_splits, _norm_zw
from qtsym.macdonald import build_table, norm_factors, norm_product
from qtsym.partitions import Partition, partitions_of

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


def _split(p, factors):
    """split_factors(p, factors), or _divexact_split beyond the two
    indeterminates split_factors takes."""
    names = set(p.canonical().vars).union(*(f.canonical().vars for f, _ in factors))
    return (split_factors if len(names) <= 2 else _divexact_split)(p, factors)


def _factor_over(p, factors):
    """(c, {f: k}) with p = c * prod f^k, c a constant, by trial division
    by the distinct irreducible factors; p must have no other factor."""
    cofactor, mult = _split(p, [(f, p.total_degree()) for f in factors])
    assert cofactor.is_constant(), (p, cofactor)
    return cofactor.constant_value(), mult


def _power_of(mult):
    """prod f^m over the items of mult."""
    out = P_ONE
    for f, m in mult.items():
        out = out * f**m
    return out


def _reduced(num, mult):
    """num / prod f^m over the items of mult, reduced by trial division
    with no gcd: the f are distinct irreducible polynomials, primitive
    with positive leading coefficient, so once those that divide num are
    divided out, their product is the canonical denominator. The result
    carries no factors, so its operators take the gcd path."""
    if num.is_zero():
        return RationalFunction.const(0)
    num, divided = _split(num, list(mult.items()))
    c = RationalFunction(num)
    return coeffring._make(c.scalar, c.prim, _power_of({f: m - divided.get(f, 0) for f, m in mult.items()}))


def _frac(num, den, factors):
    """RationalFunction(num, den) with no gcd, for den a rational constant
    times powers of the irreducible factors."""
    c, mult = _factor_over(den, factors)
    return _reduced(num.scale(Fraction(1) / c), mult)


def _over_lcm(parts, factors):
    """(num, {f: m}): the sum of the RationalFunctions parts as num over
    prod f^m, the lcm of their denominators, each factored over the
    irreducible factors by trial division; no gcd and no reduction."""
    splits = [(x, _factor_over(x.den, factors)) for x in parts]
    lcm = {}
    for _, (_, mult) in splits:
        for f, m in mult.items():
            lcm[f] = max(m, lcm.get(f, 0))
    num = Polynomial.const(0)
    for x, (c, mult) in splits:
        num = num + x.num.scale(Fraction(1) / c) * _power_of({f: m - mult.get(f, 0) for f, m in lcm.items()})
    return num, lcm


def _assert_value(x, num, den):
    """x equals num / den, by cross-multiplication of integer polynomials:
    the contents of num and den are split off first."""
    if num.is_zero():
        assert x.is_zero(), x
        return
    r = Fraction(x.scalar) * den.content_signed() / num.content_signed()
    assert (x.prim * den.primitive()).scale(r.numerator) == (num.primitive() * x.den).scale(r.denominator), (x, num, den)


def _assert_reduced(x, factors):
    """x is the reduced fraction of its value, checked with no gcd: it is
    in canonical form, its denominator is a product of powers of the
    irreducible factors, and none of those divides its numerator. With
    its value, this fixes x and so its repr."""
    _assert_canonical(x)
    c, mult = _factor_over(x.den, factors)
    assert c == 1, x
    assert not _split(x.prim, [(f, 1) for f in mult])[1], x


def _pair(c):
    """The fraction c as (num, den), both with integer coefficients."""
    s = Fraction(c.scalar)
    return c.prim.scale(s.numerator), c.den.scale(s.denominator)


def _padd(x, y):
    if x[1] == y[1]:
        return x[0] + y[0], x[1]
    return x[0] * y[1] + y[0] * x[1], x[1] * y[1]


def _pmul(x, y):
    return x[0] * y[0], x[1] * y[1]


def _pneg(x):
    return -x[0], x[1]


def _padams(x, n):
    return x[0].raise_exponents(n), x[1].raise_exponents(n)


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
    want = _reduced(num.scale(scalar), mult)
    if want.den != den:
        return None
    return (want.scalar, want.prim, mult), want


def _check_factored_sum(terms, parts):
    """factored_sum(terms) is the sum of parts, reduced: the sum is put
    over the lcm of the denominators, which factor over the factors the
    terms carry, and compared by cross-multiplication."""
    got = factored_sum(terms)
    factors = {f for _, _, mult in terms for f in mult}
    num, lcm = _over_lcm(parts, factors)
    _assert_value(got, num, _power_of(lcm))
    _assert_reduced(got, factors)
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


def _check_carried(got, want, carried=True, factors=()):
    """got has the value num / den of the pair want, carries its factors
    when carried and it is not a polynomial, and its carried factors
    multiply out to its denominator; it is reduced over those, or over
    the given factors when it carries none."""
    _assert_value(got, *want)
    if carried and not got.is_polynomial():
        assert got._mult
    if got._mult is not None:
        assert coeffring._factor_product(got._mult, {}) == got.den
        factors = got._mult
    _assert_reduced(got, factors)


def test_factored_products_and_adams_images_match_rational_arithmetic():
    # a product cross-cancels each prim against the other term's factors,
    # and psi_n takes each factor to its split: factored_sum then makes the
    # reduced RationalFunction, carrying its denominator's factors. The
    # operators of RationalFunction and HookField run on those factors
    # when one operand carries them and the other carries them or is a
    # polynomial. Each result is checked against the textbook fraction
    # arithmetic, unreduced, by cross-multiplication, and certified
    # reduced by trial division, with no gcd
    rng = random.Random(20261020)
    s = rf(Polynomial.var("s"))
    for _ in range(150):
        x, y = _factored_term(rng), _factored_term(rng)
        if not (x and y):
            continue
        n = rng.randint(2, 4)
        xr, yr = x[1], y[1]
        X, Y = _pair(xr), _pair(yr)
        for term, want in (
            (coeffring._factored_product(x[0], y[0]), _pmul(X, Y)),
            (coeffring._factored_adams(n, x[0]), _padams(X, n)),
        ):
            _check_carried(factored_sum([term]), want)
        a, b = factored_sum([x[0]]), factored_sum([y[0]])
        assert a == xr and a._mult is not None and xr._mult is None
        poly = rf(yr.num)
        c = rf(Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3)))
        P, C = _pair(poly), _pair(c)
        for got, want in (
            (a + b, _padd(X, Y)),
            (a - b, _padd(X, _pneg(Y))),
            (a * b, _pmul(X, Y)),
            (-a, _pneg(X)),
            (a * c, _pmul(X, C)),
            (c * a, _pmul(C, X)),
            (a + poly, _padd(X, P)),
            (poly - a, _padd(P, _pneg(X))),
            (a * poly, _pmul(X, P)),
            (poly * a, _pmul(P, X)),
            (a.raise_exponents(n), _padams(X, n)),
        ):
            _check_carried(got, want)
        # (x + y eps)(y + p eps) = (xy + yp ZW) + (xp + y^2) eps
        zw = (Z * W, P_ONE)
        for got, (base, odd) in (
            (HookField(a, b) * HookField(b, poly), (_padd(_pmul(X, Y), _pmul(_pmul(Y, P), zw)), _padd(_pmul(X, P), _pmul(Y, Y)))),
            (HookField(a) * HookField(poly, b), (_pmul(X, P), _pmul(X, Y))),
        ):
            _check_carried(got.base, base)
            _check_carried(got.odd, odd)
        # beside a carried denominator in Z and W, a third indeterminate is
        # beyond split_factors: gcds reduce
        S = _pair(s)
        for got, want in ((a * (s + poly), _pmul(X, _padd(S, P))), (a + s, _padd(X, S))):
            _check_carried(got, want, carried=False, factors=a._mult)
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
        parts.append(_frac(draw(_zw_polys(("Z", "W"))).scale(draw(_fractions.filter(bool))), den, _SUM_POOL))
    if draw(st.booleans()):
        den = P_ONE
        for f in draw(st.lists(st.sampled_from(_SUM_POOL), unique=True, max_size=2)):
            den = den * f
        target = _frac(draw(_zw_polys(("Z", "W"))), den, _SUM_POOL)
        last = _reduced(*_over_lcm([target] + [-x for x in parts], _SUM_POOL))
        if not last.is_zero():
            parts.append(last)
    return [_pool_term(c) for c in parts], parts


@settings(max_examples=150, deadline=None)
@given(_factored_sum_cases())
def test_factored_sum_matches_rational_sums_over_shared_factors(case):
    terms, parts = case
    got = _check_factored_sum(terms, parts)
    if not got.is_zero():
        assert coeffring._factor_product(got._mult, {}) == got.den


def _carried_copy(c):
    """c with its own dict of carried factors: equal, but not the same dict."""
    return coeffring._make(c.scalar, c.prim, c.den, None if c._mult is None else dict(c._mult))


@st.composite
def _weighted_sum_cases(draw):
    """(c, w) pairs for weighted_sum, w a nonzero int. Each c is a
    polynomial or a fraction over the (Z, W) norm of a partition of at
    most 4 (over_norm), carrying its factors, with a Fraction scalar; two
    c over one partition often share their denominator. A drawn case may
    add: the negated copies of one group, so that the group cancels to
    zero; two fractions over the norm of another partition whose sum one
    of its factors divides; or HookField parts."""
    lams = draw(st.lists(st.sampled_from(_ETAS), min_size=1, max_size=2, unique=True))

    def coefficient(lam, num=None):
        if num is None:
            num = draw(_zw_polys(("Z", "W"))).scale(draw(_fractions.filter(bool)))
        return rf(num) if lam is None else over_norm(rf(num), _norm_zw(lam))

    weights = st.integers(-3, 3).filter(bool)
    pairs = [(coefficient(draw(st.sampled_from(lams + [None]))), draw(weights)) for _ in range(draw(st.integers(1, 5)))]
    kind = draw(st.sampled_from(["plain", "cancel", "divide", "hook"]))
    if kind == "cancel":
        den = pairs[0][0].den
        pairs += [(_carried_copy(c), -w) for c, w in pairs if c.den == den]
    elif kind == "divide":
        lam = draw(st.sampled_from([eta for eta in _ETAS if eta not in lams]))
        f = draw(st.sampled_from([f for f, _ in _norm_zw(lam)[1]]))
        a, b = draw(_zw_polys(("Z", "W"))), draw(_zw_polys(("Z", "W")))
        pairs += [(coefficient(lam, a), 1), (coefficient(lam, f * b - a), 1)]
    elif kind == "hook":
        pairs = [(HookField(c, pairs[-1 - i][0]) if i % 2 else c, w) for i, (c, w) in enumerate(pairs)]
    return pairs


@settings(max_examples=100, deadline=None)
@given(_weighted_sum_cases())
def test_weighted_sum_matches_pairwise_rational_addition(pairs):
    # weighted_sum adds each group of one denominator on integers and the
    # groups by factored_sum; the result is == and repr-equal to the sum
    # by + of the w * c, has the value of the unreduced sum over the lcm
    # (cross-multiplication), and is reduced and carries its factors. A
    # HookField sum is checked part by part
    got = weighted_sum(pairs)
    if any(isinstance(c, HookField) for c, _ in pairs):
        hooks = [(c if isinstance(c, HookField) else HookField(c), w) for c, w in pairs]
        checks = ((got.base, [(c.base, w) for c, w in hooks]), (got.odd, [(c.odd, w) for c, w in hooks]))
    else:
        checks = ((got, pairs),)
    for part, part_pairs in checks:
        pairwise = sum((c * w for c, w in part_pairs), coeffring.RF_ZERO)
        assert part == pairwise and repr(part) == repr(pairwise)
        terms = [coeffring._make(c.scalar * w, c.prim, c.den) for c, w in part_pairs]
        num, lcm = _over_lcm(terms, _NORM_ZW_FACTORS)
        _check_carried(part, (num, _power_of(lcm)))


def test_weighted_sum_tries_each_factor_once_per_group():
    # three fractions over the norm (Z-1)^2 (Z+1) (Z-W) (W-1) of (2), each
    # with its own dict of factors, are one group: the sum is one integer
    # combination over the lcm 6 of the scalars' denominators, and each
    # factor is tried at most its multiplicity times. The sum
    # (Z - 1)(Z + 1) / (6 norm) is reduced by the two factors that divide it
    norm = _norm_zw(Partition((2,)))
    nums = ((Z - 2, 2), (W, 3), (Z * Z - 3 * Z + 5 - 2 * W, 6))
    pairs = [(over_norm(rf(n) * Fraction(1, k), norm), 1) for n, k in nums]
    assert len({id(c._mult) for c, _ in pairs}) == 3 and len({c.den for c, _ in pairs}) == 1
    before = coeffring.split_counts()
    got = weighted_sum(pairs)
    after = coeffring.split_counts()
    want = rf(Z * Z - 1) / rf(_power_of(dict(norm[1])).scale(6 * norm[0]))
    assert got == want and repr(got) == repr(want)
    assert after["divided"] - before["divided"] == 2
    assert after["divided"] + after["failed"] - before["divided"] - before["failed"] <= sum(m for _, m in norm[1])
    _check_carried(got, (want.num, want.den))
    # a group that cancels, beside a polynomial
    assert weighted_sum([pairs[0], (_carried_copy(pairs[0][0]), -pairs[0][1]), (rf(Z), 3)]) == rf(Z * 3)


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
    """(a, b, common): a and b with the planted common factor common,
    hook-binomial pieces times a small random polynomial; b may lack one
    of the indeterminates."""
    names_b = draw(st.sampled_from([("Z", "W"), ("Z",), ("W",)]))
    pieces = [f for f in _ZW_FACTORS if set(f.canonical().vars) <= set(names_b)]
    common = draw(_zw_polys(names_b))
    for f in draw(st.lists(st.sampled_from(pieces), min_size=1, max_size=2)):
        common = common * f
    a = common * draw(_zw_polys(("Z", "W"))) * draw(_fractions.filter(bool))
    b = common * draw(_zw_polys(names_b))
    return a, b, common


@settings(max_examples=150, deadline=None)
@given(_gcd_cases())
# coprime, though 1 - Z - W meets Z^2 - 1 and W^2 - 1 at Z or W = +-1
@example((1 - Z - W, (Z**2 - 1) * (W**2 - 1), P_ONE))
def test_gcd_cofactors_keep_a_planted_factor(case):
    a, b, common = case
    g, ca, cb = gcd_cofactors(a, b)
    g.divexact(common.primitive())  # raises unless the planted factor divides g
    assert g * ca == a and g * cb == b
    assert all(type(c) is int for c in g.terms.values())
    assert g == g.primitive() and g.leading()[1] > 0


@st.composite
def _univariate_gcd_cases(draw):
    """a, b in one indeterminate with a planted common factor, as in
    _gcd_cases, each with a leading coefficient of either sign."""
    name = draw(st.sampled_from(["Z", "W"]))
    common = draw(_zw_polys((name,)))
    for f in draw(st.lists(st.sampled_from([f for f in _ZW_FACTORS if f.canonical().vars == (name,)]), min_size=1, max_size=2)):
        common = common * f
    return tuple(common * draw(_zw_polys((name,))) * draw(_fractions.filter(bool)) for _ in "ab")


@settings(max_examples=100, deadline=None)
@given(_univariate_gcd_cases())
@example((Z**2 - 1, -(Z**2) - Z))
def test_univariate_gcd_matches_the_polynomial_prs(case):
    # the univariate gcd runs the primitive PRS on integer lists; the
    # polynomial PRS, called directly, must find the same primitive gcd
    a, b = case
    before = gcd_path_counts()
    g, ca, cb = gcd_cofactors(a, b)
    after = gcd_path_counts()
    if a.is_constant() or b.is_constant() or a == b:
        return
    assert after["univariate"] == before["univariate"] + 1
    assert g == _gcd_prs(a.canonical(), b.canonical())
    assert g.leading()[1] > 0 and g * ca == a and g * cb == b


def test_hook_binomial_gcds_are_one():
    # gcd((ZW)^2 - 1, W^2 - 1) = 1, though both vanish wherever Z = +-1
    # and W = +-1; the path is named by the number of indeterminates
    s = Polynomial.var("s")
    before = gcd_path_counts()
    assert poly_gcd((Z * W) ** 2 - 1, W**2 - 1) == P_ONE
    assert poly_gcd(1 - Z - W, (Z**2 - 1) * (W**2 - 1)) == P_ONE
    assert poly_gcd(Z**4 - 1, -(Z**6) + 1) == Z**2 - 1
    assert poly_gcd(s * (Z - W), s * (Z + W)) == s
    after = gcd_path_counts()
    assert {k: after[k] - before[k] for k in after} == {"trivial": 0, "univariate": 1, "bivariate": 2, "prs": 1}


@st.composite
def _rf_operands(draw):
    """Two reduced fractions x, y, as the constructor makes them but
    reduced by trial division (_frac), with denominators multiplied from hook-binomial pieces so that
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
    x = _frac(numerator(), denominator(shared + draw(pieces)), _ZW_FACTORS)
    kind = draw(st.sampled_from(["shared", "equal", "one", "zero", "cancel"]))
    if kind == "shared":
        y = _frac(numerator(), denominator(shared + draw(pieces)), _ZW_FACTORS)
    elif kind == "equal":
        y = _frac(numerator(), x.den, _ZW_FACTORS)
    elif kind == "one":
        y = RationalFunction(numerator())
    elif kind == "zero":
        y = _frac(-x.num, x.den, _ZW_FACTORS)
    else:
        # y = z - x, so the numerator of x + y cancels against gcd(x.den, y.den)
        z = _frac(numerator(), denominator(shared + draw(pieces)), _ZW_FACTORS)
        y = _frac(z.num * x.den - x.num * z.den, z.den * x.den, _ZW_FACTORS)
    return (x, y) if draw(st.booleans()) else (y, x)


@settings(max_examples=150, deadline=None)
@given(_rf_operands())
def test_rf_add_and_mul_match_the_reduced_reference(case):
    # the operands carry no factors, so + and * reduce by gcds; the
    # results are checked against the unreduced textbook fractions by
    # cross-multiplication and certified reduced by trial division
    x, y = case
    for got, (num, den) in (
        (x + y, (x.num * y.den + y.num * x.den, x.den * y.den)),
        (x * y, (x.num * y.num, x.den * y.den)),
    ):
        _assert_value(got, num, den)
        _assert_reduced(got, _ZW_FACTORS)


def test_the_reducedness_check_rejects_an_unreduced_fraction():
    # (Z - 1)(Z + W) / ((Z - 1)(W - 1)) has canonical parts and the value
    # (Z + W) / (W - 1), so only the trial division can reject it
    f = Z - 1
    x = coeffring._make(1, f * (Z + W), f * (W - 1))
    _assert_value(x, Z + W, W - 1)
    _assert_canonical(x)
    with pytest.raises(AssertionError):
        _assert_reduced(x, _ZW_FACTORS)
    with pytest.raises(AssertionError):
        _check_carried(x, (Z + W, W - 1), carried=False, factors=_ZW_FACTORS)


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


def _ref_text(num, den):
    if den.is_constant():
        return str(num)
    text = str(num)
    if len(num.terms) > 1:
        text = "(%s)" % text
    return "%s/(%s)" % (text, den)


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
        (x + y, _padd(a, b)),
        (x * y, _pmul(a, b)),
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
        checks.append((h.base, _padd(a, _pmul(_pmul(b, (Z * W, P_ONE)), half))))
        checks.append((h.odd, _padd(_pmul(a, b), half)))
    # each result has the value of the unreduced plain fraction, by
    # cross-multiplication, and is reduced: canonical, with a numerator
    # and denominator that the primitive PRS finds coprime
    for got, (num, den) in checks:
        _assert_value(got, num, den)
        _assert_canonical(got)
        if not got.prim.is_constant() and not got.den.is_constant():
            assert _gcd_prs(got.prim.canonical(), got.den.canonical()) == P_ONE, got
        assert repr(got) == "RationalFunction(%s)" % _ref_text(got.num, got.den)


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
