from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtsym.coeffring import HookField, Polynomial, rf
from qtsym.partitions import Partition, partitions_of
from qtsym.plethysm import adams
from qtsym.symfunc import (
    SymFunc,
    _merge_parts,
    alphabet_weights,
    basis_element,
    e_elem,
    expand1,
    h_elem,
    hall_scalar,
    mn_character,
    p_elem,
    pair_alphabet,
    qt_pairing_scalar,
    s_elem,
    tensor_hall_scalar,
)

q = rf(Polynomial.var("q"))
t = rf(Polynomial.var("t"))


def _num_syt(shape):
    # standard Young tableaux counted by brute force placement
    shape = tuple(shape)
    if not shape:
        return 1

    def rec(filled):
        total = sum(filled)
        if total == sum(shape):
            return 1
        out = 0
        for i, row in enumerate(shape):
            if filled[i] < row and (i == 0 or filled[i - 1] > filled[i]):
                nxt = list(filled)
                nxt[i] += 1
                out += rec(tuple(nxt))
        return out

    return rec((0,) * len(shape))


def test_mn_character_examples():
    for n in range(1, 7):
        for rho in partitions_of(n):
            assert mn_character(Partition((n,)), rho) == 1
            assert mn_character(Partition((1,) * n), rho) == rho.sign()
    assert mn_character(Partition((2, 1)), Partition((1, 1, 1))) == 2
    # dimension = number of standard Young tableaux
    for n in range(1, 7):
        ones = Partition((1,) * n)
        for lam in partitions_of(n):
            assert mn_character(lam, ones) == _num_syt(lam)
    with pytest.raises(ValueError):
        mn_character(Partition((2, 1)), Partition((2,)))


def test_character_orthogonality():
    # column orthogonality of the character table, n <= 5
    for n in range(1, 6):
        parts = partitions_of(n)
        for rho in parts:
            for sigma in parts:
                s = sum(
                    mn_character(lam, rho) * mn_character(lam, sigma) for lam in parts
                )
                assert s == (rho.z() if rho == sigma else 0)


def test_basis_round_trips():
    for n in range(0, 7):
        for basis in ("schur", "complete", "elementary", "monomial"):
            for mu in partitions_of(n):
                F = basis_element(basis, mu)
                back = expand1(F, basis)
                assert set(back) == {mu}
                assert back[mu] == rf(1)


def test_schur_conversion_examples():
    # s_{1^n} equals e_n
    for n in range(1, 6):
        assert s_elem(Partition((1,) * n)) == e_elem(Partition((n,)))
    # h_2 = (p_{1,1} + p_2)/2
    h2 = h_elem(Partition((2,)))
    assert h2.coeff((Partition((1, 1)),)) == rf(Fraction(1, 2))
    assert h2.coeff((Partition((2,)),)) == rf(Fraction(1, 2))
    # p_2 = s_2 - s_{1,1}
    p2 = p_elem(Partition((2,)))
    exp = expand1(p2, "schur")
    assert exp[Partition((2,))] == rf(1)
    assert exp[Partition((1, 1))] == rf(-1)


def test_hall_pairing_values():
    p21 = p_elem(Partition((2, 1)))
    assert hall_scalar(p21, p21) == rf(2)
    # Schur orthonormality up to degree 5
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                val = hall_scalar(s_elem(lam), s_elem(mu))
                assert val == rf(1 if lam == mu else 0)


def test_h_pairing_extracts_monomial_coefficient():
    # <h_{(n-1,1)}, F> equals the coefficient of m_{(n-1,1)} in F
    for n in (3, 4):
        mu = Partition((n - 1, 1))
        F = s_elem(Partition((n - 1, 1))) + 2 * s_elem(Partition((n,)))
        val = hall_scalar(h_elem(mu), F)
        assert val == expand1(F, "monomial")[mu]


def _zero_one_matrices(rows, cols):
    # number of 0/1 matrices with prescribed row and column sums
    rows, cols = list(rows), list(cols)
    if not rows:
        return 1 if all(c == 0 for c in cols) else 0
    r = rows[0]
    total = 0
    from itertools import combinations

    for chosen in combinations(range(len(cols)), r):
        newcols = list(cols)
        fail = False
        for j in chosen:
            newcols[j] -= 1
            if newcols[j] < 0:
                fail = True
                break
        if not fail:
            total += _zero_one_matrices(rows[1:], newcols)
    return total


def test_e_h_pairing_is_zero_one_matrix_count():
    for n in range(1, 5):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                val = hall_scalar(e_elem(lam), h_elem(mu))
                expected = _zero_one_matrices(lam, mu)
                assert val == rf(expected)


def test_coefficient_of_m_1n_in_en():
    for n in range(1, 6):
        en = e_elem(Partition((n,)))
        assert expand1(en, "monomial")[Partition((1,) * n)] == rf(1)


def test_multiply_and_tensor():
    p2 = p_elem(Partition((2,)))
    p1 = p_elem(Partition((1,)))
    assert p2 * p1 == p_elem(Partition((2, 1)))
    F = s_elem(Partition((2, 1)))
    assert SymFunc.one(1) * F == F
    h1x = h_elem(Partition((1,)), alphabet=0, k=1)
    h1y = h_elem(Partition((1,)), alphabet=0, k=1)
    T = h1x.tensor(h1y)
    P = p_elem(Partition((1,)), 0, 2) * p_elem(Partition((1,)), 1, 2)
    # pairing X1 consumes it and multiplies X2 through
    assert pair_alphabet(T, P, 0) == p_elem(Partition((1, 1)), 1, 2)
    assert hall_scalar(T, P) == rf(1)


def test_zero_sums_drop_their_key_and_equality_crosses_coefficient_types():
    p1, p2 = p_elem(Partition((1,))), p_elem(Partition((2,)))
    # the cross terms of (p1 + p2)(p1 - p2) cancel and leave no zero entry
    assert set(((p1 + p2) * (p1 - p2)).terms) == {(Partition((1, 1)),), (Partition((2, 2)),)}
    assert (SymFunc(1, {((1,),): q, ((2,),): 1}) + SymFunc(1, {((1,),): -q})).terms == p2.terms
    hook = SymFunc(1, {((1,),): HookField(rf(2))})
    plain = SymFunc(1, {((1,),): 2})
    assert hook == plain and plain == hook
    assert hook != SymFunc(1, {((1,),): HookField(rf(2), rf(1))})


def test_convert_multivariate():
    from qtsym.symfunc import convert, SymFunc

    # expanding one alphabet of a two-alphabet tensor leaves the other intact
    F = s_elem(Partition((2,)), 0, 2) * p_elem(Partition((1, 1)), 1, 2)
    out = convert(F, 0, "schur")
    assert set(out) == {Partition((2,))}
    rest = out[Partition((2,))]
    assert rest == p_elem(Partition((1, 1)), 1, 2)


def test_format_basis_expansion():
    from qtsym.symfunc import format_basis_expansion

    F = s_elem(Partition((2,))) + s_elem(Partition((1, 1))) * (q + t)
    text = format_basis_expansion(expand1(F, "schur"), "schur")
    assert text == "s[2] + (q + t)*s[1,1]"
    assert format_basis_expansion({}, "schur") == "0"


def test_qt_pairing_values():
    p1 = p_elem(Partition((1,)))
    val = qt_pairing_scalar(p1, p1)
    assert val == (q - 1) * (1 - t)
    # multi-alphabet pairing reproduces coefficients against dual tensors
    F = p_elem(Partition((2,)), 0, 2) * p_elem(Partition((1, 1)), 1, 2)
    G = p_elem(Partition((2,)), 0, 2) * p_elem(Partition((1, 1)), 1, 2)
    assert hall_scalar(F, G) == rf(2 * 2)  # z_(2) * z_(1,1)


_partitions = st.lists(st.integers(1, 6), max_size=6).map(lambda xs: Partition(sorted(xs, reverse=True)))


@settings(max_examples=200, deadline=None)
@given(_partitions, _partitions)
def test_merged_parts_equal_the_validated_partition(a, b):
    got = _merge_parts(a, b)
    want = Partition(sorted(a + b, reverse=True))
    assert type(got) is Partition
    assert got == want and hash(got) == hash(want)


_ALPHABET_FACTORS = (
    (),
    (("monomial", Partition((2, 1)), 1),),
    (("elementary", Partition((1, 1)), 1), ("schur", Partition((1,)), 2)),
    (("complete", Partition((2,)), 2),),
    (("monomial", Partition((1, 1)), 1), ("powersum", Partition((1,)), 1)),
    (("schur", Partition((2, 1)), 1), ("complete", Partition((1,)), 1)),
)


def _two_alphabet_kernel(coeffs):
    """A dense two-alphabet function up to degree 4 in each alphabet whose
    coefficients repeat: equal values, distinct objects."""
    keys = [kappa for d in range(5) for kappa in partitions_of(d)]
    terms = {}
    for a, b in product(keys, repeat=2):
        terms[(a, b)] = coeffs[(len(a) + 2 * sum(b)) % len(coeffs)]()
    return SymFunc(2, terms)


@pytest.mark.parametrize("field", ["rational", "hook"])
def test_tensor_hall_scalar_matches_the_multiplied_out_product(field):
    q_ = Polynomial.var("q")
    t_ = Polynomial.var("t")
    coeffs = [lambda: rf(q_ + t_), lambda: rf(1) / rf(1 - q_ * t_), lambda: rf(Fraction(-3, 2))]
    if field == "hook":
        coeffs.append(lambda: HookField(rf(q_), rf(t_)))
    G = _two_alphabet_kernel(coeffs)
    for f0, f1 in product(_ALPHABET_FACTORS, repeat=2):
        T = SymFunc.one(2)
        for j, factor in enumerate((f0, f1)):
            for basis, mu, a in factor:
                T = T * adams(a, basis_element(basis, mu, alphabet=j, k=2))
        assert tensor_hall_scalar((f0, f1), G) == hall_scalar(T, G)


def test_alphabet_weights_are_integer_hall_pairings():
    chi = {kappa: mn_character((2, 1), kappa) for kappa in partitions_of(3)}
    assert alphabet_weights((("schur", Partition((2, 1)), 1),)) == {k: c for k, c in chi.items() if c}
    assert alphabet_weights((("complete", Partition((1,)), 3),)) == {Partition((3,)): 3}
    for basis in ("monomial", "elementary", "complete", "powersum", "schur"):
        for mu in partitions_of(4):
            weights = alphabet_weights(((basis, mu, 1), (basis, Partition((1,)), 2)))
            assert weights and all(type(w) is int for w in weights.values())
    assert alphabet_weights.cache_info().currsize >= 20
    with pytest.raises(ValueError):
        tensor_hall_scalar(((), ()), SymFunc.one(3))
