from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from qtsym.coeffring import Polynomial, rf
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


# Plain RationalFunction references for every routine that sums over the
# Macdonald basis: each term is added with its own gcd, as the textbook
# formulas read.


def _ref_macdonald_expansion(G, table):
    out = {}
    for eta in table.partitions:
        acc = rf(0)
        for lam, g in expand1(G, "schur").items():
            acc = acc + table.kostka_inverse_entry(eta, lam) * g
        if not acc.is_zero():
            out[eta] = acc
    return out


def _ref_from_macdonald_expansion(coeffs, table, k=1):
    out = SymFunc.zero(k)
    for eta, c in coeffs.items():
        term = SymFunc.one(k)
        for j in range(k):
            term = term * table.htilde_sym(eta, j, k)
        out = out + term * c
    return out


def _ref_dual_sum(weights, table):
    out = {}
    for lam in table.partitions:
        acc = rf(0)
        for eta, w in weights.items():
            acc = acc + table.kostka_inverse_entry(eta, lam) * w
        out[lam] = acc
    return out


def _ref_structure_coefficients(factors, table):
    weights = {}
    for eta in table.partitions:
        weights[eta] = rf(1)
        for mu in factors:
            weights[eta] = weights[eta] * table.kostka_entry(mu, eta)
    return _ref_dual_sum(weights, table)


def _ref_kostka_product(F, G, table):
    weights = {}
    for eta in table.partitions:
        H = table.htilde_sym(eta)
        weights[eta] = hall_scalar(F, H) * hall_scalar(G, H)
    out = SymFunc.zero(1)
    for lam, c in _ref_dual_sum(weights, table).items():
        out = out + s_elem(lam) * c
    return out


def _ref_psi(F, G, table):
    coeffs = _ref_macdonald_expansion(G, table)
    eig = {eta: hall_scalar(F, table.htilde_sym(eta)) for eta in coeffs}
    return _ref_from_macdonald_expansion({eta: c * eig[eta] for eta, c in coeffs.items()}, table)


def _ref_garsia_haiman_sum(n, table):
    from qtsym.macdonald import corner_free_product, phi_weight

    weights = {
        lam: rf(phi_weight(lam) * corner_free_product(lam)) / table.norm(lam)
        for lam in table.partitions
    }
    return _ref_from_macdonald_expansion(weights, table) * rf((q - 1) * (1 - t))


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
    en = e_elem(P(n))
    for mu, nu in combinations_with_replacement(partitions_of(n), 2):
        yield ("structure_coefficients_all", structure_coefficients_all([mu, nu]),
               _ref_structure_coefficients([mu, nu], table))
    for F, G in combinations_with_replacement(_operands(n), 2):
        yield "kostka_product", kostka_product(F, G), _ref_kostka_product(F, G, table)
    for F in _operands(n):
        coeffs = _ref_macdonald_expansion(F, table)
        yield "macdonald_expansion", macdonald_expansion(F), coeffs
        yield ("from_macdonald_expansion", from_macdonald_expansion(coeffs),
               _ref_from_macdonald_expansion(coeffs, table))
        yield "delta_sharp", delta_sharp(F), _ref_from_macdonald_expansion(coeffs, table, 2)
        yield "psi", psi(en, F), _ref_psi(en, F, table)
        yield "psi", psi(F, F), _ref_psi(F, F, table)
        nab = {eta: c * nabla_eigenvalue(eta) for eta, c in coeffs.items()}
        yield "nabla", nabla(F), _ref_from_macdonald_expansion(nab, table)
    weights = {eta: _FOREIGN / table.norm(eta) for eta in table.partitions}
    yield ("from_macdonald_expansion", from_macdonald_expansion(weights),
           _ref_from_macdonald_expansion(weights, table))
    yield "garsia_haiman_sum", garsia_haiman_sum(n), _ref_garsia_haiman_sum(n, table)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_macdonald_sums_match_plain_rational_arithmetic(n):
    for name, got, want in _differential_cases(n):
        assert got == want, (name, n)
        assert repr(got) == repr(want), (name, n)


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
