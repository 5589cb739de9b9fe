from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

import pytest

from qtsym.coeffring import Polynomial, _make, rf, split_factors
from qtsym.kostka_algebra import (
    delta_sharp,
    garsia_haiman_sum,
    kostka_product,
    macdonald_expansion,
    nabla,
    nabla_eigenvalue,
    psi,
    qt_catalan,
    structure_coefficient,
    structure_coefficients_all,
)
from qtsym.macdonald import (
    MacdonaldTable,
    build_table,
    clear_tables,
    expansions_from_kostka,
    norm_factors,
    register_table,
)
from qtsym.partitions import Partition, partitions_of
from qtsym.symfunc import SymFunc, e_elem, expand1, hall_scalar, s_elem

q = Polynomial.var("q")
t = Polynomial.var("t")


def P(*parts):
    return Partition(parts)


def test_published_structure_coefficients():
    val = structure_coefficient([P(2, 2), P(2, 1, 1)], P(2, 1, 1))
    expected = rf(
        -(q**3) * t - q**2 * t**2 - q * t**3 - q**2 * t - q * t**2 + q**2 + q * t + t**2
    )
    assert val == expected
    val = structure_coefficient([P(2, 2), P(2, 1, 1)], P(1, 1, 1, 1))
    expected = rf(
        q**3 + q**2 * t + q * t**2 + t**3 + q**2 + 2 * q * t + t**2 + q + t
    )
    assert val == expected


def test_row_identity_element():
    # s_(n) is the identity: c^lam_{mu,(n)} = delta_{lam,mu}
    for n in range(1, 5):
        for mu in partitions_of(n):
            for lam in partitions_of(n):
                val = structure_coefficient([mu, P(n)], lam)
                assert val == rf(1 if lam == mu else 0)


def test_kostka_product_identity_and_symmetry():
    for n in range(1, 5):
        sn = s_elem(P(n))
        for mu in partitions_of(n):
            F = s_elem(mu)
            assert kostka_product(sn, F) == F
    for mu in partitions_of(4):
        for nu in partitions_of(4):
            assert kostka_product(s_elem(mu), s_elem(nu)) == kostka_product(
                s_elem(nu), s_elem(mu)
            )


def test_product_expansion_matches_coefficients():
    # Kostka-matrix route equals the bilinear product route
    for n in range(1, 5):
        for mu in partitions_of(n):
            for nu in partitions_of(n):
                prod = kostka_product(s_elem(mu), s_elem(nu))
                exp = expand1(prod, "schur")
                for lam in partitions_of(n):
                    want = structure_coefficient([mu, nu], lam)
                    got = exp.get(lam, rf(0))
                    assert got == want


def test_associativity_samples_degree_three():
    parts = partitions_of(3)
    for a, b, c in combinations_with_replacement(parts, 3):
        left = kostka_product(kostka_product(s_elem(a), s_elem(b)), s_elem(c))
        right = kostka_product(s_elem(a), kostka_product(s_elem(b), s_elem(c)))
        assert left == right


def test_kostka_pair_identity():
    # K[mu,rho] K[nu,rho] = sum_lam c^lam_{mu,nu} K[lam,rho]
    for n in range(1, 5):
        table = build_table(n)
        for mu in partitions_of(n):
            for nu in partitions_of(n):
                for rho in partitions_of(n):
                    lhs = table.kostka_entry(mu, rho) * table.kostka_entry(nu, rho)
                    rhs = rf(0)
                    for lam in partitions_of(n):
                        rhs = rhs + structure_coefficient([mu, nu], lam) * table.kostka_entry(lam, rho)
                    assert lhs == rhs


def test_kostka_pair_identity_degree_five():
    # sum_lam c^lam_{mu,nu} K[lam,eta] = K[mu,eta] K[nu,eta] for all 28
    # pairs at n=5, in polynomial arithmetic and without K^-1
    table = build_table(5)
    parts = partitions_of(5)
    K = {key: c.as_polynomial() for key, c in table.kostka.items()}
    for mu, nu in combinations_with_replacement(parts, 2):
        c = {lam: v.as_polynomial() for lam, v in structure_coefficients_all([mu, nu]).items()}
        for eta in parts:
            lhs = Polynomial.const(0)
            for lam in parts:
                lhs = lhs + c[lam] * K[(lam, eta)]
            assert lhs == K[(mu, eta)] * K[(nu, eta)], (mu, nu, eta)


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        kostka_product(s_elem(P(2)), s_elem(P(3)))
    with pytest.raises(ValueError):
        structure_coefficient([P(2), P(1, 1)], P(2, 1))


def test_psi_diagonal_and_adjoint():
    for n in range(1, 5):
        table = build_table(n)
        en = e_elem(P(n))
        for lam in partitions_of(n):
            H = table.htilde_sym(lam)
            assert psi(en, H) == H * hall_scalar(en, H)
    # adjointness: exhaustive at n <= 3, sampled triples at n = 4
    for n in range(1, 4):
        for mu in partitions_of(n):
            for nu in partitions_of(n):
                for lam in partitions_of(n):
                    F, G, H = s_elem(mu), s_elem(nu), s_elem(lam)
                    lhs = hall_scalar(kostka_product(F, G), H)
                    rhs = hall_scalar(G, psi(F, H))
                    assert lhs == rhs
    samples = [
        (P(2, 2), P(2, 1, 1), P(3, 1)),
        (P(4), P(2, 2), P(1, 1, 1, 1)),
        (P(3, 1), P(3, 1), P(2, 2)),
    ]
    for mu, nu, lam in samples:
        F, G, H = s_elem(mu), s_elem(nu), s_elem(lam)
        assert hall_scalar(kostka_product(F, G), H) == hall_scalar(G, psi(F, H))


def test_nabla_basics():
    e1 = e_elem(P(1))
    assert nabla(e1) == e1
    table = build_table(2)
    H2 = table.htilde_sym(P(2))
    assert nabla(H2) == H2 * rf(q)
    assert nabla_eigenvalue(P(2)) == rf(q)
    e2 = e_elem(P(2))
    assert hall_scalar(e2, nabla(e2)) == rf(q + t)


def test_catalan_values():
    for m in range(1, 4):
        assert qt_catalan(1, m) == rf(1)
    assert qt_catalan(2, 1) == rf(q + t)
    c3 = qt_catalan(3, 1)
    # specialize q=t=1 gives the third Catalan number 5
    val = c3.num.eval_fraction({"q": Fraction(1), "t": Fraction(1)})
    assert val == 5 and c3.is_polynomial()


def _dyck_paths(n):
    # brute-force Dyck path count (Catalan oracle)
    def rec(up, down):
        if up == n and down == n:
            return 1
        total = 0
        if up < n:
            total += rec(up + 1, down)
        if down < up:
            total += rec(up, down + 1)
        return total

    return rec(0, 0)


def test_catalan_specialization_oracle():
    for n in range(1, 5):
        c = qt_catalan(n, 1)
        val = c.num.eval_fraction({"q": Fraction(1), "t": Fraction(1)})
        assert val == _dyck_paths(n)


def test_garsia_haiman_sum_small():
    assert garsia_haiman_sum(1) == s_elem(P(1))
    assert garsia_haiman_sum(2) == -s_elem(P(1, 1))
    for n in range(3, 5):
        target = s_elem(P(*(1,) * n)) * Fraction((-1) ** (n - 1))
        assert garsia_haiman_sum(n) == target


def test_delta_sharp_on_macdonald():
    table = build_table(2)
    H = table.htilde_sym(P(2))
    square = table.htilde_sym(P(2), 0, 2) * table.htilde_sym(P(2), 1, 2)
    assert delta_sharp(H) == square


def test_macdonald_expansion_round_trip():
    from qtsym.kostka_algebra import from_macdonald_expansion

    for n in range(1, 5):
        for mu in partitions_of(n):
            F = s_elem(mu)
            assert from_macdonald_expansion(macdonald_expansion(F)) == F


def _integer_polynomial(val):
    if not val.is_polynomial():
        return False
    return all(c == int(c) for c in val.as_polynomial().terms.values())


def test_triple_factor_coefficients_are_integer_polynomials():
    # evidence for integrality with three factors, exhaustive through
    # degree 4; degree 5 is in the sweep below
    for n in range(1, 5):
        for factors in combinations_with_replacement(partitions_of(n), 3):
            for val in structure_coefficients_all(list(factors)).values():
                assert _integer_polynomial(val), factors


@pytest.mark.parametrize("n,k", [(6, 2), (5, 3)])
def test_structure_coefficients_are_symmetric_integer_polynomials_of_bounded_degree(n, k):
    # every pair at n=6 and every triple at n=5: the coefficients are traces,
    # so integer polynomials; H~_mu'(q,t) = H~_mu(t,q) makes them symmetric
    # under q <-> t; and the degree in each of q and t is at most
    # (k-1) n(n-1)/2 for k factors (triples at n=5 reach 20, four factors
    # at n=4 reach 18, so the pair bound n(n-1)/2 does not hold for more)
    bound = (k - 1) * n * (n - 1) // 2
    for factors in combinations_with_replacement(partitions_of(n), k):
        for val in structure_coefficients_all(list(factors)).values():
            assert _integer_polynomial(val), factors
            poly = val.as_polynomial()
            assert poly.rename({"q": "t", "t": "q"}) == poly, factors
            assert max(poly.degree_in("q"), poly.degree_in("t")) <= bound, factors


def test_nabla_pairing_is_column_coefficient():
    # <s_mu, nabla(e_n)> equals the column coefficient with factors
    # (1^n, mu), the diagonal-harmonics multiplicity
    from qtsym.symfunc import expand1

    for n in range(1, 6):
        ones = P(*(1,) * n)
        grad = expand1(nabla(e_elem(P(n))), "schur")
        for mu in partitions_of(n):
            want = structure_coefficient([ones, mu], ones)
            got = grad.get(mu, rf(0))
            assert got == want, (n, mu)


def test_structure_coefficients_use_a_passed_table():
    # a table made elsewhere goes in through register_table. Registering
    # a freshly made table equal to the registered one still drops the
    # memo, and so does clearing.
    real = build_table(2)
    factors = [P(1, 1), P(1, 1)]
    memo = structure_coefficients_all(factors)
    assert structure_coefficients_all(factors) is memo
    fresh = MacdonaldTable(2, expansions_from_kostka(2, real.kostka))
    assert fresh is not real and fresh == real
    register_table(fresh)
    again = structure_coefficients_all(factors)
    assert again is not memo and again == memo
    clear_tables()
    assert structure_coefficients_all(factors) is not again
    assert structure_coefficients_all(factors) == memo


# Textbook references for every routine that sums over the Macdonald
# basis, in fraction arithmetic with no gcd and no reduction: a value is
# a triple (s, num, mult) standing for s * num / prod f^m over the items
# of mult, s rational, num an integer polynomial and the f distinct
# irreducible polynomials of a pool, the norm factors at degree n and the
# denominators of the operands' coefficients. Sums go over the lcm of
# the denominators, which the multiplicities give, so no gcd is needed;
# _check compares a result by cross-multiplication and certifies it
# reduced by trial division.


def _pool(n):
    """The irreducible factors the denominators at degree n split over."""
    factors = {f for eta in partitions_of(n) for f, _ in norm_factors(eta)[1]}
    return factors | {q - t, q * t + 1}


def _fr(c, pool):
    """The RationalFunction c as a triple, its denominator split over the pool."""
    unit, mult = split_factors(c.den, [(f, c.den.total_degree()) for f in pool])
    assert unit == 1, c
    return c.scalar, c.prim, mult


def _fpoly(p):
    """The polynomial p (a RationalFunction over 1) as a triple."""
    return _fr(p, ())


_FZERO = (0, Polynomial.const(0), {})


def _fmul(x, y):
    mult = dict(x[2])
    for f, m in y[2].items():
        mult[f] = mult.get(f, 0) + m
    return x[0] * y[0], x[1] * y[1], mult


def _fadd(x, y):
    if not x[0]:
        return y
    if not y[0]:
        return x
    lcm = dict(x[2])
    for f, m in y[2].items():
        lcm[f] = max(m, lcm.get(f, 0))
    s = Fraction(1, x[0].denominator * y[0].denominator)
    num = Polynomial.const(0)
    for c, p, mult in (x, y):
        num = num + (p * _power({f: m - mult.get(f, 0) for f, m in lcm.items()})).scale(int(c / s))
    return (s if num else 0), num, lcm


def _fsum(values):
    out = _FZERO
    for x in values:
        out = _fadd(out, x)
    return out


def _power(mult):
    return _power_product(frozenset((f, m) for f, m in mult.items() if m))


@lru_cache(maxsize=None)
def _power_product(powers):
    out = Polynomial.const(1)
    for f, m in powers:
        out = out * f**m
    return out


def _check(got, want, pool):
    """got has the value of the triple want, by cross-multiplication,
    prim and den are primitive integer polynomials with positive leading
    coefficient, den splits over the pool, and none of its factors
    divides prim: so got is the reduced fraction of that value, and its
    repr is the one plain reduced arithmetic gives."""
    s, num, mult = want
    if not s or not num:
        assert got.is_zero(), got
        return
    r = Fraction(got.scalar) / s
    assert (got.prim * _power(mult)).scale(r.numerator) == (num * got.den).scale(r.denominator), (got, want)
    for p in (got.prim, got.den):
        assert all(type(c) is int for c in p.terms.values()) and p.content_signed() == 1, got
    factors = _fr(got, pool)[2]
    assert not split_factors(got.prim, [(f, 1) for f in factors])[1], got


def _check_any(got, want, pool):
    """_check on a RationalFunction, on each value of a dict, or on each
    coefficient of a SymFunc against a dict of triples by key."""
    if isinstance(got, SymFunc):
        got = got.terms
        want = {key: x for key, x in want.items() if x[0] and x[1]}
    if isinstance(got, dict):
        assert set(got) == set(want)
        for key, c in got.items():
            _check(c, want[key], pool)
    else:
        _check(got, want, pool)


def _ref_macdonald_expansion(G, table, pool):
    out = {}
    for eta in table.partitions:
        acc = _fsum(
            _fmul(_fr(table.kostka_inverse_entry(eta, lam), pool), _fr(g, pool))
            for lam, g in expand1(G, "schur").items()
        )
        if acc[0]:
            out[eta] = acc
    return out


def _ref_from_macdonald_expansion(coeffs, table, pool, k=1):
    out = {}
    for eta, c in coeffs.items():
        term = SymFunc.one(k)
        for j in range(k):
            term = term * table.htilde_sym(eta, j, k)
        for key, v in term.terms.items():
            out[key] = _fadd(out.get(key, _FZERO), _fmul(_fpoly(v), c))
    return out


def _ref_dual_sum(weights, table, pool):
    return {
        lam: _fsum(_fmul(_fr(table.kostka_inverse_entry(eta, lam), pool), w) for eta, w in weights.items())
        for lam in table.partitions
    }


def _ref_structure_coefficients(factors, table, pool):
    weights = {}
    for eta in table.partitions:
        weights[eta] = _fpoly(rf(1))
        for mu in factors:
            weights[eta] = _fmul(weights[eta], _fpoly(table.kostka_entry(mu, eta)))
    return _ref_dual_sum(weights, table, pool)


def _ref_kostka_product(F, G, table, pool):
    weights = {}
    for eta in table.partitions:
        H = table.htilde_sym(eta)
        weights[eta] = _fmul(_fr(hall_scalar(F, H), pool), _fr(hall_scalar(G, H), pool))
    out = {}
    for lam, c in _ref_dual_sum(weights, table, pool).items():
        for key, v in s_elem(lam).terms.items():
            out[key] = _fadd(out.get(key, _FZERO), _fmul(_fpoly(v), c))
    return out


def _ref_psi(F, G, table, pool):
    coeffs = _ref_macdonald_expansion(G, table, pool)
    eig = {eta: _fr(hall_scalar(F, table.htilde_sym(eta)), pool) for eta in coeffs}
    return _ref_from_macdonald_expansion({eta: _fmul(c, eig[eta]) for eta, c in coeffs.items()}, table, pool)


def _ref_garsia_haiman_sum(n, table, pool):
    from qtsym.macdonald import corner_free_product, phi_weight

    weights = {
        lam: _fmul(_fpoly(rf(phi_weight(lam) * corner_free_product(lam))), _fr(table.norm(lam).inverse(), pool))
        for lam in table.partitions
    }
    scale = _fpoly(rf((q - 1) * (1 - t)))
    return {key: _fmul(c, scale) for key, c in _ref_from_macdonald_expansion(weights, table, pool).items()}


_SHARED = rf(1) / rf(q - t)  # q - t divides the norms from degree 2 on
_FOREIGN = rf(1) / rf(q * t + 1)  # divides no norm
_U = Polynomial.var("u")
_THIRD = rf(_U + q) / rf(_U * q + 1)  # outside Q(q,t)


def _operands(n):
    """Every s_mu of degree n, and s_(1^n) with each rational coefficient."""
    ops = [s_elem(mu) for mu in partitions_of(n)]
    return ops + [s_elem(P(*(1,) * n)) * a for a in (_SHARED, _FOREIGN)]


def _differential_cases(n):
    from qtsym.kostka_algebra import from_macdonald_expansion

    table = build_table(n)
    pool = _pool(n)
    en = e_elem(P(n))
    for mu, nu in combinations_with_replacement(partitions_of(n), 2):
        yield ("structure_coefficients_all", structure_coefficients_all([mu, nu]),
               _ref_structure_coefficients([mu, nu], table, pool))
    for F, G in combinations_with_replacement(_operands(n), 2):
        yield "kostka_product", kostka_product(F, G), _ref_kostka_product(F, G, table, pool)
    for F in _operands(n):
        coeffs = _ref_macdonald_expansion(F, table, pool)
        got = macdonald_expansion(F)
        yield "macdonald_expansion", got, coeffs
        # the routines below read got, which equals coeffs by then
        yield ("from_macdonald_expansion", from_macdonald_expansion(got),
               _ref_from_macdonald_expansion(coeffs, table, pool))
        yield "delta_sharp", delta_sharp(F), _ref_from_macdonald_expansion(coeffs, table, pool, 2)
        yield "psi", psi(en, F), _ref_psi(en, F, table, pool)
        yield "psi", psi(F, F), _ref_psi(F, F, table, pool)
        nab = {eta: _fmul(c, _fpoly(nabla_eigenvalue(eta))) for eta, c in coeffs.items()}
        yield "nabla", nabla(F), _ref_from_macdonald_expansion(nab, table, pool)
    weights = {eta: _FOREIGN / table.norm(eta) for eta in table.partitions}
    yield ("from_macdonald_expansion", from_macdonald_expansion(weights),
           _ref_from_macdonald_expansion({eta: _fr(c, pool) for eta, c in weights.items()}, table, pool))
    yield "garsia_haiman_sum", garsia_haiman_sum(n), _ref_garsia_haiman_sum(n, table, pool)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_macdonald_sums_match_plain_rational_arithmetic(n):
    # each result equals its textbook sum by cross-multiplication and is
    # in reduced canonical form, so its repr is the one plain reduced
    # RationalFunction arithmetic gives
    pool = _pool(n)
    for name, got, want in _differential_cases(n):
        try:
            _check_any(got, want, pool)
        except AssertionError as exc:
            raise AssertionError((name, n)) from exc


def test_the_reference_check_rejects_an_unreduced_fraction():
    # (q - t)(q + t) / ((q - t)(qt + 1)) has canonical parts and the value
    # (q + t) / (qt + 1), so only the trial division can reject it
    x = _make(1, (q - t) * (q + t), (q - t) * (q * t + 1))
    pool = _pool(2)
    want = (1, q + t, {q * t + 1: 1})
    _check(_make(1, q + t, q * t + 1), want, pool)
    with pytest.raises(AssertionError):
        _check(x, want, pool)


def test_operands_with_rational_coefficients():
    # a shares a factor with the norms and b shares none, so the sums run
    # through the lcm of the denominators the norms do not account for
    a, b = _SHARED, _FOREIGN
    for n in range(2, 5):
        for mu in partitions_of(n):
            F = s_elem(mu)
            G = s_elem(P(*(1,) * n))
            assert kostka_product(F * a, G * b) == kostka_product(F, G) * a * b
            assert macdonald_expansion(F * a) == {
                eta: c * a for eta, c in macdonald_expansion(F).items()
            }
            assert nabla(F * a) == nabla(F) * a


def test_operands_in_a_third_indeterminate():
    a = _THIRD
    for n in range(2, 5):
        for mu in partitions_of(n):
            F = s_elem(mu)
            G = s_elem(P(*(1,) * n))
            assert macdonald_expansion(F * a) == {
                eta: c * a for eta, c in macdonald_expansion(F).items()
            }
            assert kostka_product(F * a, G) == kostka_product(F, G) * a
            assert nabla(F * a) == nabla(F) * a


def test_tables_algebra_queries_stay_on_the_factored_path(monkeypatch):
    # the benchmark's Kostka-algebra queries: every pair at n <= 4, the
    # q,t-Catalan numbers and nabla(e_n); none may need plain arithmetic
    from qtsym import kostka_algebra

    def plain(terms):
        raise AssertionError("plain RationalFunction path taken")

    monkeypatch.setattr(kostka_algebra, "_plain_sum", plain)
    kostka_algebra._structure_coefficients.cache_clear()
    for n in range(1, 5):
        for mu, nu in combinations_with_replacement(partitions_of(n), 2):
            structure_coefficients_all([mu, nu])
        qt_catalan(n)
        nabla(e_elem(P(n)))
    # an operand with a coefficient foreign to the norms, or outside
    # Q(q,t), takes it
    for a in (_FOREIGN, _THIRD):
        with pytest.raises(AssertionError, match="plain"):
            macdonald_expansion(s_elem(P(2)) * a)


def test_polynomial_coefficients_sharing_norm_factors(monkeypatch):
    # q - t and q + 1 divide norms, so a weight split against a_eta must
    # give them back to the denominators they cancel; every sum stays on
    # the factored path and is reduced as plain arithmetic reduces it
    from qtsym import kostka_algebra

    def plain(terms):
        raise AssertionError("plain RationalFunction path taken")

    monkeypatch.setattr(kostka_algebra, "_plain_sum", plain)
    for a in (rf(q - t), rf((q + 1) * (q - t) ** 2)):
        for n in range(2, 5):
            for mu in partitions_of(n):
                F, G = s_elem(mu), s_elem(P(*(1,) * n))
                assert repr(kostka_product(F * a, G)) == repr(kostka_product(F, G) * a)
                want = {eta: c * a for eta, c in macdonald_expansion(F).items()}
                assert repr(macdonald_expansion(F * a)) == repr(want)
                assert repr(nabla(F * a)) == repr(nabla(F) * a)
