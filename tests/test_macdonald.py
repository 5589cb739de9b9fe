import math
from fractions import Fraction
from itertools import permutations

import pytest

from qtsym.coeffring import P_ZERO, Polynomial, RationalFunction, poly_gcd, rf
from qtsym.linalg import SingularSystem, solve_bareiss
from qtsym.partitions import Partition, dominance_leq, partitions_of
from qtsym.plethysm import AlphabetExpr, substitute
from qtsym.macdonald import (
    MacdonaldTable,
    _standard_fillings,
    _verify_solution,
    build_table,
    class_sum,
    delta1,
    delta1_eigenvalue,
    evaluation_product,
    expansions_from_kostka,
    norm_factors,
    norm_product,
    phi_weight,
    qt_norm_pairing,
)
from qtsym.symfunc import expand1, mn_character, qt_factor

q = Polynomial.var("q")
t = Polynomial.var("t")
u = Polynomial.var("u")


def P(*parts):
    return Partition(parts)


def test_solve_bareiss_small():
    rows = [[q, Polynomial.const(1)], [Polynomial.const(1), t]]
    rhs = [Polynomial.const(1), Polynomial.const(0)]
    x, y = solve_bareiss(rows, rhs)
    # x*q + y = 1, x + y*t = 0
    assert x * rf(q) + y == rf(1)
    assert x + y * rf(t) == rf(0)
    with pytest.raises(SingularSystem):
        solve_bareiss([[q, q], [q, q]], [Polynomial.const(1), Polynomial.const(0)])


def test_degree_one_and_two_tables():
    t1 = build_table(1)
    assert t1.htilde_p_dict(P(1)) == {P(1): rf(1)}
    t2 = build_table(2)
    # H_(2) = s_2 + q s_{1,1}, H_(1,1) = s_2 + t s_{1,1}
    assert t2.kostka_entry(P(2), P(2)) == rf(1)
    assert t2.kostka_entry(P(1, 1), P(2)) == rf(q)
    assert t2.kostka_entry(P(2), P(1, 1)) == rf(1)
    assert t2.kostka_entry(P(1, 1), P(1, 1)) == rf(t)
    # p-expansions match the hand solve
    d = t2.htilde_p_dict(P(2))
    assert d[P(1, 1)] == rf(q + 1) * Fraction(1, 2)
    assert d[P(2)] == rf(1 - q) * Fraction(1, 2)


def test_monomial_coefficients_at_q_t_one_are_multinomials():
    # H~_mu[X; 1, 1] = h_1^n, whose m_lam coefficient is n! / prod lam_i!
    ones = {"q": Fraction(1), "t": Fraction(1)}
    for n in range(1, 6):
        table = build_table(n)
        for mu in partitions_of(n):
            coeffs = expand1(table.htilde_sym(mu), "monomial")
            for lam in partitions_of(n):
                value = coeffs[lam].as_polynomial().eval_fraction(ones)
                expected = math.factorial(n)
                for part in lam:
                    expected //= math.factorial(part)
                assert value == expected, (mu, lam)


def _filling_counts(mu, lam):
    # (inv, maj) -> number of fillings of the French diagram of mu with
    # lam_j copies of letter j, from the definitions of Haglund-Haiman-Loehr:
    # cells are read from the top row down, left to right; two cells attack
    # in one row, or in adjacent rows with the upper one strictly right;
    # a descent is a cell with a larger letter than the cell below it
    cells = [(i, j) for i in range(len(mu), 0, -1) for j in range(1, mu[i - 1] + 1)]
    letters = [j for j, part in enumerate(lam) for _ in range(part)]
    out = {}
    for word in set(permutations(letters)):
        letter = dict(zip(cells, word))
        inv = sum(
            1
            for a, (i1, j1) in enumerate(cells)
            for i2, j2 in cells[a + 1 :]
            if (i1 == i2 or (i1 == i2 + 1 and j1 > j2)) and letter[(i1, j1)] > letter[(i2, j2)]
        )
        maj = 0
        for i, j in cells:
            if i > 1 and letter[(i, j)] > letter[(i - 1, j)]:
                inv -= mu.arm(i, j)
                maj += mu.leg(i, j) + 1
        out[(inv, maj)] = out.get((inv, maj), 0) + 1
    return out


def test_standard_filling_buckets_sum_to_the_fillings_of_each_content():
    # standardizing equal letters in reading order keeps inv and maj, so the
    # fillings of content lam are the standard fillings whose inverse descent
    # set lies inside S(lam) = {lam_1, lam_1 + lam_2, ...}
    for n in range(1, 6):
        for mu in partitions_of(n):
            buckets = _standard_fillings(mu)
            for lam in partitions_of(n):
                inside = sum(1 << (sum(lam[: r + 1]) - 1) for r in range(len(lam) - 1))
                total = {}
                for mask, counts in buckets.items():
                    if mask & ~inside == 0:
                        for key, c in counts.items():
                            total[key] = total.get(key, 0) + c
                assert total == _filling_counts(mu, lam), (mu, lam)


def test_kostka_hook_row_is_diagram_generator_minus_one():
    # K~_{(n-1,1), mu} = B_mu - 1 with B_mu = sum over cells of q^{j-1} t^{i-1}
    for n in range(2, 7):
        table = build_table(n)
        for mu in partitions_of(n):
            assert table.kostka_entry(P(n - 1, 1), mu) == rf(phi_weight(mu) - 1), mu


def test_verify_solution_rejects_a_perturbed_expansion():
    n = 3
    table = build_table(n)
    parts = partitions_of(n)
    for rho in parts:
        coeffs = {kappa: table.htilde_p_dict(rho).get(kappa, rf(0)) for kappa in parts}
        _verify_solution(n, rho, coeffs)
        for kappa in parts:
            # one coefficient moved: the normalization breaks
            with pytest.raises(SingularSystem):
                _verify_solution(n, rho, {**coeffs, kappa: coeffs[kappa] + rf(q)})
        # mass moved between two coefficients: the sum holds, triangularity breaks
        first, second = parts[0], parts[-1]
        moved = {**coeffs, first: coeffs[first] + rf(q), second: coeffs[second] - rf(q)}
        with pytest.raises(SingularSystem, match="triangularity"):
            _verify_solution(n, rho, moved)


def test_table_of_identity_kostka_entries_is_rejected():
    # identity K~ makes H~_rho = s_rho, which fails the characterization;
    # the expansions are not checked, the table made of them is, so no
    # such table can be registered
    parts = partitions_of(2)
    ident = {(lam, eta): rf(1 if lam == eta else 0) for lam in parts for eta in parts}
    htilde = expansions_from_kostka(2, ident)
    assert htilde[P(1, 1)] != build_table(2).htilde_p_dict(P(1, 1))
    with pytest.raises(SingularSystem):
        MacdonaldTable(2, htilde)


def test_kostka_top_row_is_one():
    for n in range(1, 6):
        table = build_table(n)
        for rho in partitions_of(n):
            assert table.kostka_entry(P(n), rho) == rf(1)


def test_kostka_inverse():
    for n in range(1, 5):
        table = build_table(n)
        parts = partitions_of(n)
        for mu in parts:
            for lam in parts:
                acc = rf(0)
                for eta in parts:
                    acc = acc + table.kostka_inverse_entry(eta, lam) * table.kostka_entry(mu, eta)
                assert acc == rf(1 if mu == lam else 0)


def test_norms_match_pairing():
    for n in range(1, 5):
        table = build_table(n)
        for lam in partitions_of(n):
            assert qt_norm_pairing(table, lam, lam) == table.norm(lam)
    assert norm_product(P(1)) == (q - 1) * (1 - t)
    assert norm_product(P(2)) == (q**2 - 1) * (q - t) * (q - 1) * (1 - t)


def test_orthogonality_small():
    for n in range(1, 5):
        table = build_table(n)
        parts = partitions_of(n)
        for i, lam in enumerate(parts):
            for mu in parts[i + 1 :]:
                assert qt_norm_pairing(table, lam, mu).is_zero()


def test_triangularity_small():
    for n in range(1, 5):
        table = build_table(n)
        for rho in partitions_of(n):
            H = table.htilde_sym(rho)
            scaled_t = substitute(
                H, 0, AlphabetExpr.alphabet(0, coef=rf(t - 1))
            )
            for mu, c in expand1(scaled_t, "monomial").items():
                if not c.is_zero():
                    assert dominance_leq(mu, rho)
            scaled_q = substitute(
                H, 0, AlphabetExpr.alphabet(0, coef=rf(q - 1))
            )
            for mu, c in expand1(scaled_q, "monomial").items():
                if not c.is_zero():
                    assert dominance_leq(mu, rho.conjugate())


def test_kostka_positivity_small():
    for n in range(1, 5):
        table = build_table(n)
        for rho in partitions_of(n):
            for lam in partitions_of(n):
                entry = table.kostka_entry(lam, rho)
                assert entry.is_polynomial()
                poly = entry.as_polynomial()
                assert all(
                    c == int(c) and c >= 0 for c in poly.terms.values()
                ), (lam, rho, poly)


def test_evaluation_identity_small():
    # H_lam[1-u; q,t] = prod over cells (1 - u q^{j-1} t^{i-1})
    uexpr = AlphabetExpr.scalar(1) + AlphabetExpr.scalar(-rf(u))
    for n in range(1, 5):
        table = build_table(n)
        for lam in partitions_of(n):
            H = table.htilde_sym(lam)
            val = substitute(H, 0, uexpr).coeff((P(),))
            assert val == rf(evaluation_product(lam))


def test_delta1_examples():
    from qtsym.symfunc import SymFunc, p_elem

    assert delta1(SymFunc.one(1)).is_zero()
    p1 = p_elem(P(1))
    assert delta1(p1) == p1 * rf((1 - q) * (1 - t))
    table = build_table(2)
    H2 = table.htilde_sym(P(2))
    expected = H2 * rf((1 - t) * (1 - q) * (1 + q))
    assert delta1(H2) == expected
    assert delta1_eigenvalue(P(2)) == rf((1 - t) * (1 - q) * (1 + q))


def test_delta1_eigen_relation():
    for n in range(1, 4):
        table = build_table(n)
        for lam in partitions_of(n):
            H = table.htilde_sym(lam)
            assert delta1(H) == H * delta1_eigenvalue(lam)


def test_phi_weight():
    assert phi_weight(P(2)) == 1 + q
    assert phi_weight(P(2, 1)) == 1 + q + t


def test_duality_sanity_dimensions():
    # at q = t = 1 the Kostka entries count standard Young tableaux,
    # so each column sums against dimensions to n!
    from qtsym.symfunc import mn_character

    for n in range(1, 4):
        table = build_table(n)
        ones = {"q": Fraction(1), "t": Fraction(1)}
        for rho in partitions_of(n):
            total = 0
            for lam in partitions_of(n):
                entry = table.kostka_entry(lam, rho).as_polynomial()
                value = entry.eval_fraction(ones)
                dim = mn_character(lam, P(*(1,) * n))
                assert value == dim
                total += value * dim
            assert total == math.factorial(n)


def test_norm_factors_multiply_to_the_norm_and_are_coprime():
    for n in range(1, 7):
        for lam in partitions_of(n):
            unit, factors = norm_factors(lam)
            assert unit in (1, -1)
            prod = Polynomial.const(unit)
            for f, m in factors:
                prod = prod * f**m
            assert prod == norm_product(lam), lam
            for i, (f, _) in enumerate(factors):
                for g, _ in factors[i + 1 :]:
                    assert poly_gcd(f, g) == 1, (lam, f, g)


def test_kostka_coefficients_are_stored_as_ints():
    for n in range(1, 6):
        for entry in build_table(n).kostka.values():
            poly = entry.as_polynomial()
            assert all(type(c) is int for c in poly.terms.values()), entry


@pytest.mark.parametrize("n", range(1, 6))
def test_kostka_and_inverse_match_the_rational_function_sums(n):
    # K~[lam,rho] = sum_kappa H~_rho[kappa] chi^lam_kappa and
    # K~^-1[eta,lam] = sum_kappa H~_eta[kappa] qt_factor(kappa) chi^lam_kappa / a_eta,
    # summed in RationalFunction and Fraction arithmetic
    table = build_table(n)
    parts = partitions_of(n)
    for rho in parts:
        for lam in parts:
            ref = rf(0)
            for kappa, c in table.htilde[rho].items():
                ref = ref + c * mn_character(lam, kappa)
            got = table.kostka_entry(lam, rho)
            assert got == ref and repr(got) == repr(ref), (lam, rho)
    for eta in parts:
        for lam in parts:
            num = P_ZERO
            for kappa, c in table.htilde[eta].items():
                num = num + c.as_polynomial() * qt_factor(kappa) * mn_character(lam, kappa)
            ref = RationalFunction(num, norm_product(eta))
            got = table.kostka_inverse_entry(eta, lam)
            assert got == ref and repr(got) == repr(ref), (eta, lam)


def test_class_sum_is_exact_and_rejects_non_integral_terms():
    half = Polynomial(("q", "t"), {(1, 0): Fraction(1, 2), (0, 1): Fraction(3, 4)})
    assert class_sum([(4, half), (-1, q)]) == q + 3 * t
    assert class_sum([(4, half)], 3) == (2 * q + 3 * t) * Fraction(1, 3)
    assert class_sum([(4, half), (-4, half)]).is_zero()
    with pytest.raises(ValueError):
        class_sum([(2, half)])
    with pytest.raises(ValueError):
        class_sum([(Fraction(1, 2), q)])
