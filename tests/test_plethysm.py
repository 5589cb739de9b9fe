from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtsym import plethysm
from qtsym.coeffring import Polynomial, RationalFunction, factored_sum, gcd_path_counts, rf
from qtsym.kernel import cauchy_series, kernel, log_cauchy_series
from qtsym.partitions import Partition, partitions_of
from qtsym.plethysm import (
    AlphabetExpr,
    Series,
    adams,
    coefficient_of,
    eval_var,
    exp_series,
    log_series,
    orbit_filter,
    sorted_key,
    substitute,
    z_diagonal,
)
from qtsym.symfunc import SymFunc, e_elem, h_elem, hall_scalar, p_elem, s_elem

q = rf(Polynomial.var("q"))
t = rf(Polynomial.var("t"))
u = rf(Polynomial.var("u"))


def P(*parts):
    return Partition(parts)


def test_adams_composition_and_identity():
    F = p_elem(P(3)) * q + p_elem(P(1, 1)) * t
    assert adams(1, F) == F
    assert adams(2, adams(3, F)) == adams(6, F)
    # p2[p3] = p6
    assert adams(2, p_elem(P(3))) == p_elem(P(6))


def test_adams_on_series_scales_degrees():
    s = Series(4, 1)
    s.comps[1] = p_elem(P(1)) * q
    out = adams(2, s)
    assert out.comps[2] == p_elem(P(2)) * (q * q)
    assert out.comps[1].is_zero()


def test_substitute_one_minus_u():
    # p_n[1-u] = 1 - u^n and p_n[1+u] = 1 + u^n
    for n in range(1, 5):
        pn = p_elem(P(n))
        minus = substitute(pn, 0, AlphabetExpr.scalar(1) + AlphabetExpr.scalar(-u))
        plus = substitute(pn, 0, AlphabetExpr.scalar(1) + AlphabetExpr.scalar(u))
        un = rf(Polynomial.var("u", n))
        assert minus.coeff((P(),)) == 1 - un
        assert plus.coeff((P(),)) == 1 + un


def test_substitute_identity_and_morphism():
    X = AlphabetExpr.alphabet(0)
    for n in range(4):
        for lam in partitions_of(n):
            F = s_elem(lam)
            assert substitute(F, 0, X) == F
    F = p_elem(P(2)) + p_elem(P(1)) * q
    G = p_elem(P(1, 1))
    expr = AlphabetExpr.alphabet(0, coef=q) + AlphabetExpr.scalar(1)
    assert substitute(F * G, 0, expr) == substitute(F, 0, expr) * substitute(G, 0, expr)


def test_u_first_order_coefficient_is_h_pairing():
    # F[1+u] coefficient of u equals <h_{(n-1,1)}, F> for degree-3 F
    one_plus_u = AlphabetExpr.scalar(1) + AlphabetExpr.scalar(u)
    for F in (s_elem(P(2, 1)), s_elem(P(3)) + 2 * s_elem(P(1, 1, 1))):
        sub = substitute(F, 0, one_plus_u)
        coeff = coefficient_of(sub, "u", 1).coeff((P(),))
        assert coeff == hall_scalar(h_elem(P(2, 1)), F)


def test_pn_scalar_extraction():
    # F[1-u]/(1-u) at u=1 equals <F, p_n> for homogeneous degree-n F
    one_minus_u = AlphabetExpr.scalar(1) + AlphabetExpr.scalar(-u)
    F = p_elem(P(3))
    sub = substitute(F, 0, one_minus_u).coeff((P(),))
    val = (sub / (1 - u)).specialize({"u": 1})
    assert val == rf(3)
    F = p_elem(P(2, 1))
    sub = substitute(F, 0, one_minus_u).coeff((P(),))
    val = (sub / (1 - u)).specialize({"u": 1})
    assert val.is_zero()


def test_exp_of_single_alphabet_gives_complete():
    G = Series(5, 1)
    G.comps[1] = p_elem(P(1))
    E = exp_series(G)
    for n in range(6):
        assert E.comps[n] == h_elem(Partition((n,)) if n else Partition())


def test_exp_zero_and_errors():
    assert exp_series(Series(3, 1)) == Series.one(3, 1)
    bad = Series.one(3, 1)
    with pytest.raises(ValueError):
        exp_series(bad)
    with pytest.raises(ValueError):
        log_series(Series(3, 1))


def test_exp_additivity():
    G1 = Series(4, 1)
    G1.comps[1] = p_elem(P(1)) * q
    G2 = Series(4, 1)
    G2.comps[2] = p_elem(P(2)) + p_elem(P(1, 1)) * t
    lhs = exp_series(G1 + G2)
    rhs = exp_series(G1) * exp_series(G2)
    assert lhs == rhs


small_coeffs = st.integers(-3, 3)


@st.composite
def random_series(draw, cap=4):
    s = Series(cap, 1)
    for d in range(1, cap + 1):
        terms = {}
        for lam in partitions_of(d):
            c = draw(small_coeffs)
            if c:
                terms[(lam,)] = Fraction(c)
        if terms:
            s.comps[d] = SymFunc(1, terms)
    return s


@st.composite
def random_series_two_alphabets(draw, cap=5):
    s = Series(cap, 2)
    for d in range(1, cap + 1):
        terms = {}
        for a in range(min(d, 2) + 1):
            for lam in partitions_of(a):
                for mu in partitions_of(min(d - a, 2)):
                    c = draw(small_coeffs)
                    if c:
                        terms[(lam, mu)] = Fraction(c)
        if terms:
            s.comps[d] = SymFunc(2, terms)
    return s


@settings(max_examples=10, deadline=None)
@given(random_series())
def test_log_exp_round_trip(G):
    assert log_series(exp_series(G)) == G


@settings(max_examples=5, deadline=None)
@given(random_series_two_alphabets())
def test_log_exp_round_trip_multivariate_cap5(G):
    assert log_series(exp_series(G)) == G


# -- references: exp and log(1 + G) as truncated power series of Series ----


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def reference_exp(G):
    """exp(sum_n psi_n(G) / n) by its power series."""
    cap, k = G.cap, G.k
    arg = Series(cap, k)
    for n in range(1, cap + 1):
        arg = arg + adams(n, G) * Fraction(1, n)
    out = Series.one(cap, k)
    term = Series.one(cap, k)
    for m in range(1, cap + 1):
        term = term * arg * Fraction(1, m)
        out = out + term
    return out


def reference_log(H):
    """sum_n mu(n)/n psi_n(log H), with log(1 + G) by its power series."""
    cap, k = H.cap, H.k
    G = Series(cap, k, {d: H.comps[d] for d in range(1, cap + 1)})
    logh = Series(cap, k)
    power = Series.one(cap, k)
    for m in range(1, cap + 1):
        power = power * G
        logh = logh + power * Fraction((-1) ** (m - 1), m)
    out = Series(cap, k)
    for n in range(1, cap + 1):
        if _mobius(n):
            out = out + adams(n, logh) * Fraction(_mobius(n), n)
    return out


def _check_against_references(G):
    assert exp_series(G) == reference_exp(G)
    one_plus = Series.one(G.cap, G.k) + G
    assert log_series(one_plus) == reference_log(one_plus)


@settings(max_examples=10, deadline=None)
@given(random_series())
def test_log_and_exp_match_the_power_series_references(G):
    _check_against_references(G)


@settings(max_examples=5, deadline=None)
@given(random_series_two_alphabets())
def test_log_and_exp_match_the_power_series_references_multivariate_cap5(G):
    _check_against_references(G)


# the kernel-assembly cases of perfbench, then two larger ones
LOG_CASES = [
    (genus, points, cap)
    for cap in (1, 2, 3)
    for genus in (0, 1)
    for points in (1, 2, 3, 4)
    if not (cap == 3 and genus == 1 and points > 2)
] + [(1, 1, 4), (0, 4, 4), (1, 3, 3)]


@pytest.mark.parametrize("genus,points,cap", LOG_CASES)
def test_log_cauchy_series_and_its_exp_match_the_references(genus, points, cap):
    # the Log, kernel and Exp computed once per orbit, with no gcd, as the
    # coefficients carry their factors, against the dense references, in
    # value and in repr
    H = cauchy_series(genus, points, cap)
    before = gcd_path_counts()
    L = log_cauchy_series(genus, points, cap)
    assert log_series(H) == L
    K = kernel(cap, genus, points)
    E = exp_series(L)
    assert gcd_path_counts() == before
    want = reference_log(H)
    Z, W = Polynomial.var("Z"), Polynomial.var("W")
    want_kernel = want.component(cap) * rf((Z - 1) * (1 - W))
    for got, ref in ((L, want), (K, want_kernel), (E, reference_exp(L))):
        assert got == ref and repr(got) == repr(ref)
    assert E == H


def _two_alphabet_series(comps):
    H = Series.one(len(comps), 2)
    for d, terms in enumerate(comps, 1):
        H.comps[d] = SymFunc(2, {tuple(map(Partition, key)): c for key, c in terms.items()})
    return H


def test_non_symmetric_series_run_on_every_key():
    # a key and its swap with different coefficients, and an orbit with
    # its sorted key only: neither is taken for symmetric
    swapped = _two_alphabet_series([
        {((1,), ()): q, ((), (1,)): t},
        {((1,), (1,)): q * t, ((2,), ()): 1, ((), (2,)): 1, ((1, 1), ()): u},
        {((2,), (1,)): q, ((1,), (2,)): q, ((3,), ()): t},
    ])
    partial = _two_alphabet_series([{((1,), (1,)): q}, {((), (2,)): t, ((1,), (1,)): 1}])
    for H in (swapped, partial):
        assert orbit_filter(H) is None
        L = log_series(H)
        want = reference_log(H)
        assert L == want and repr(L) == repr(want)
        assert exp_series(L) == reference_exp(L) == H


def test_series_without_carried_factors_take_the_rational_path():
    # a denominator made by division carries no factors, so it is reduced
    # by bivariate gcds, and a third indeterminate beside carried (q, t)
    # factors defeats split_factors, so it takes PRS gcds; a series whose
    # coefficients factored_sum made in (q, t) takes no gcd
    f = Polynomial.var("q") - Polynomial.var("t")
    x, y = Polynomial.var("q"), Polynomial.var("u")
    for c, cc, path in (
        (q / rf(f), (q / rf(f)) ** 2, "bivariate"),
        (factored_sum([(1, y, {f: 1})]), factored_sum([(1, y * y, {f: 2})]), "prs"),
        (factored_sum([(1, x, {f: 1})]), factored_sum([(1, x * x, {f: 2})]), None),
    ):
        H = _two_alphabet_series([{((1,), ()): c, ((), (1,)): c}, {((1,), (1,)): cc}])
        before = gcd_path_counts()
        L = log_series(H)
        E = exp_series(L)
        after = gcd_path_counts()
        if path is None:
            assert after == before
        else:
            assert after[path] > before[path]
        want = reference_log(H)
        assert L == want and repr(L) == repr(want)
        assert E == reference_exp(L) == H


def test_log_and_exp_make_one_product_per_newton_term(monkeypatch):
    # Newton's d H_d = sum_j P_j H_{d-j} multiplies d - 1 pairs of
    # components in degree d: cap (cap - 1) / 2 products in all
    count = [0]
    product = SymFunc.product

    def counting(self, other, keep=None):
        count[0] += 1
        return product(self, other, keep)

    H = cauchy_series(1, 1, 4)
    monkeypatch.setattr(SymFunc, "product", counting)
    L = log_series(H)
    assert count[0] == 6
    count[0] = 0
    assert exp_series(L) == H
    assert count[0] == 6


def test_orbit_products_make_fewer_coefficient_products(monkeypatch):
    # four alphabets: computing one key per orbit multiplies fewer
    # coefficients than the loops over every key, for the same Log and Exp
    count = [0]
    mul = RationalFunction.__mul__

    def counting(self, other):
        count[0] += 1
        return mul(self, other)

    H = cauchy_series(0, 4, 3)
    assert orbit_filter(H) is sorted_key
    assert orbit_filter(log_cauchy_series(0, 4, 3)) is sorted_key
    monkeypatch.setattr(RationalFunction, "__mul__", counting)

    def log_and_exp():
        count[0] = 0
        L = log_series(H)
        E = exp_series(L)
        return count[0], L, E

    orbit, L, E = log_and_exp()
    monkeypatch.setattr(plethysm, "orbit_filter", lambda S: None)
    every, L_every, E_every = log_and_exp()
    assert L == L_every and E == E_every == H
    assert 3 * orbit < every


def test_exp_neg_z_x_coefficients():
    # coefficient of z^n in Exp[-zX] is (-1)^n e_n[X]
    z = rf(Polynomial.var("z"))
    G = Series(4, 1)
    G.comps[1] = p_elem(P(1)) * (-z)
    E = exp_series(G)
    for n in range(5):
        comp = E.comps[n]
        extracted = coefficient_of(comp, "z", n)
        assert extracted == e_elem(Partition((n,)) if n else Partition()) * Fraction(
            (-1) ** n
        )


def test_z_diagonal():
    z = rf(Polynomial.var("z"))
    zi = rf(Polynomial.var("zi"))
    F = p_elem(P(1)) * (z * zi) + p_elem(P(2)) * z + SymFunc.one(1) * (q * z * z * zi * zi)
    out = z_diagonal(F)
    assert out == p_elem(P(1)) + SymFunc.one(1) * q


def test_eval_var():
    F = p_elem(P(1)) * (1 + u)
    assert eval_var(F, "u", 1) == p_elem(P(1)) * 2
