from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from qtsym.coeffring import Polynomial, gcd_path_counts, rf
from qtsym.kernel import _kernel, kernel, log_cauchy_series, mixed_hodge_point, poincare_point, q1_point
from qtsym.kostka_algebra import structure_coefficient
from qtsym.macdonald import clear_tables
from qtsym.partitions import Partition, partitions_of
from qtsym.plethysm import adams
from qtsym.quiver import (
    CometSpec,
    OddDimension,
    PunctureSpec,
    TwistSpec,
    c_from_log,
    c_from_trace,
    column_factors,
    levi_block_classes,
    mixed_hodge_rhs,
    orbit_dim,
    poincare,
    q1_rhs,
    schur_factors,
    total_dim,
    trace_configuration,
    twisted_factors,
    twisted_poincare,
)
from qtsym.symfunc import SymFunc, alphabet_weights, basis_element, hall_scalar, tensor_hall_scalar

q = Polynomial.var("q")
t = Polynomial.var("t")
v = Polynomial.var("v")


def P(*parts):
    return Partition(parts)


def test_orbit_dim_examples():
    assert orbit_dim(PunctureSpec.regular_semisimple(4)) == 16 - 4
    central = PunctureSpec.single_eigenvalue(P(1, 1, 1))
    assert orbit_dim(central) == 0
    p = PunctureSpec(P(4, 2), (P(3, 1), P(1, 1)))
    assert orbit_dim(p) == 36 - (4 + 1 + 1) - 4


def _jordan_matrix(puncture, prime):
    """The Jordan matrix of the puncture over F_p with distinct eigenvalues."""
    n = puncture.rank
    mat = [[0] * n for _ in range(n)]
    pos = 0
    for eig, jt in enumerate(puncture.jordan, start=1):
        for block in jt:
            for i in range(block):
                mat[pos + i][pos + i] = eig % prime
                if i + 1 < block:
                    mat[pos + i][pos + i + 1] = 1
            pos += block
    return mat


def _centralizer_dim_mod_p(mat, prime):
    """Nullity of X -> XJ - JX over F_p by Gaussian elimination."""
    n = len(mat)
    rows = []
    for a in range(n):
        for b in range(n):
            # coefficient of X[c][d] in (XJ - JX)[a][b]
            row = [0] * (n * n)
            for d in range(n):
                row[a * n + d] = (row[a * n + d] + mat[d][b]) % prime
            for c in range(n):
                row[c * n + b] = (row[c * n + b] - mat[a][c]) % prime
            rows.append(row)
    rank = 0
    cols = n * n
    r = 0
    for col in range(cols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][col] % prime:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], prime - 2, prime)
        rows[r] = [(x * inv) % prime for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] % prime:
                f = rows[i][col]
                rows[i] = [(x - f * y) % prime for x, y in zip(rows[i], rows[r])]
        r += 1
    rank = r
    return cols - rank


def test_orbit_dim_against_finite_field_centralizer():
    # brute-force oracle: the orbit dimension equals the rank of the
    # commutator map of the Jordan matrix over a small finite field
    prime = 101
    for n in (1, 2, 3):
        specs = [PunctureSpec.regular_semisimple(n)]
        for jt in partitions_of(n):
            specs.append(PunctureSpec.single_eigenvalue(jt))
        if n == 3:
            specs.append(PunctureSpec(P(2, 1), (P(2), P(1))))
            specs.append(PunctureSpec(P(2, 1), (P(1, 1), P(1))))
        for p in specs:
            J = _jordan_matrix(p, prime)
            cent = _centralizer_dim_mod_p(J, prime)
            assert orbit_dim(p) == n * n - cent, p


def test_total_dim_examples():
    for g in range(3):
        spec = CometSpec(g, 1, (PunctureSpec.single_eigenvalue(P(1)),))
        assert total_dim(spec) == 2 * g
    spec = CometSpec(0, 2, (PunctureSpec.regular_semisimple(2),) * 4)
    assert total_dim(spec) == 2
    # trace configuration dimension: n^2 + n - sum mu_i^2 - sum nu_i^2
    spec = trace_configuration(P(1, 1), P(1, 1))
    assert total_dim(spec) == 4 + 2 - 2 - 2


def test_puncture_validation():
    with pytest.raises(ValueError):
        PunctureSpec(P(2, 1), (P(2),))
    with pytest.raises(ValueError):
        PunctureSpec(P(2), (P(1, 1, 1),))
    with pytest.raises(ValueError):
        CometSpec(0, 3, (PunctureSpec.regular_semisimple(2),))


def test_levi_block_classes():
    p = PunctureSpec.semisimple(P(3, 1))  # jordan (1,1,1),(1) -> transposes (3),(1)
    assert levi_block_classes(p) == {3: 1, 1: 1}
    assert levi_block_classes(PunctureSpec.regular_semisimple(3)) == {1: 3}
    assert levi_block_classes(PunctureSpec.single_eigenvalue(P(3))) == {1: 3}


def test_poincare_rank_one():
    for g in range(3):
        spec = CometSpec(g, 1, (PunctureSpec.single_eigenvalue(P(1)),))
        expected = Polynomial.var("v", 4 * g) if g else Polynomial.const(1)
        assert poincare(spec) == expected


def test_poincare_four_regular_semisimple_rank_two():
    # frozen independent-oracle value
    spec = CometSpec(0, 2, (PunctureSpec.regular_semisimple(2),) * 4)
    value = poincare(spec)
    assert value == v**4 + 4 * v**2
    # degree never exceeds twice the dimension
    assert value.degree_in("v") <= 2 * total_dim(spec)


def test_poincare_value_at_one_positive():
    spec = CometSpec(0, 2, (PunctureSpec.regular_semisimple(2),) * 4)
    val = poincare(spec).eval_fraction({"v": Fraction(1)})
    assert val > 0
    spec = CometSpec(1, 2, (PunctureSpec.regular_semisimple(2),))
    val = poincare(spec).eval_fraction({"v": Fraction(1)})
    assert val > 0


def test_evaluation_points_are_built_once():
    # every point is one tuple, so a repeated poincare query finds its
    # specialized kernel in the memo and adds no entry
    for point in (poincare_point, mixed_hodge_point, q1_point):
        assert point() is point()
    spec = CometSpec(0, 2, (PunctureSpec.regular_semisimple(2),) * 4)
    first = poincare(spec)
    entries = _kernel.cache_info().currsize
    for _ in range(3):
        assert poincare(spec) == first
    assert _kernel.cache_info().currsize == entries


def test_twisted_poincare_identity_twist():
    spec = CometSpec(0, 2, (PunctureSpec.regular_semisimple(2),) * 4)
    tw = twisted_poincare(spec, TwistSpec.identity())
    # identity twist gives the resolution formula with plain h-products:
    # for regular semisimple punctures that is the same pairing as the
    # Schur route, frozen by the oracle
    assert tw == v**4 + 4 * v**2


def test_twisted_poincare_two_cycle():
    # frozen oracle value: 2-cycle on the regular semisimple third puncture
    spec = trace_configuration(P(1, 1), P(1, 1))
    twist = TwistSpec({2: {1: P(2)}})
    assert twisted_poincare(spec, twist) == v**4 + 2 * v**2


def test_twist_validation():
    spec = trace_configuration(P(1, 1), P(1, 1))
    with pytest.raises(ValueError):
        twisted_poincare(spec, TwistSpec({2: {1: P(3)}}))
    with pytest.raises(ValueError):
        twisted_poincare(spec, TwistSpec({2: {5: P(1)}}))
    with pytest.raises(ValueError):
        twisted_poincare(spec, TwistSpec({9: {1: P(2)}}))


def test_c_from_trace_values():
    assert c_from_trace(P(1), P(1)) == Polynomial.const(1)
    assert c_from_trace(P(1, 1), P(1, 1)) == t
    assert c_from_trace(P(2), P(1, 1)) == Polynomial.const(1)
    assert c_from_trace(P(2), P(2)) == Polynomial.const(0)
    # frozen oracle values at n=3
    assert c_from_trace(P(1, 1, 1), P(1, 1, 1)) == t**3
    assert c_from_trace(P(2, 1), P(1, 1, 1)) == t**2 + t


def test_c_from_trace_published_pair():
    # the published degree-4 coefficient specialized at q=0
    assert c_from_trace(P(2, 2), P(2, 1, 1)) == t**3 + t**2 + t


def test_c_from_log_values():
    assert c_from_log([P(1)]) == rf(1)
    assert c_from_log([P(1, 1), P(1, 1)]) == rf(q + t)
    assert c_from_log([P(1, 1, 1), P(1, 1, 1)]) == rf(
        q**3 + q**2 * t + q * t**2 + q * t + t**3
    )
    assert c_from_log([P(2, 1), P(1, 1, 1)]) == rf(q**2 + q * t + q + t**2 + t)


def test_c_from_log_matches_structure_coefficients():
    for n in (1, 2, 3):
        ones = P(*(1,) * n)
        for mu in partitions_of(n):
            for nu in partitions_of(n):
                assert c_from_log([mu, nu]) == structure_coefficient([mu, nu], ones)


def test_mixed_hodge_values():
    assert mixed_hodge_rhs(P(1), P(1)) == rf(1)
    assert mixed_hodge_rhs(P(1, 1), P(1, 1)) == rf(q + t)
    assert mixed_hodge_rhs(P(2), P(1, 1)) == rf(1)
    assert mixed_hodge_rhs(P(1, 1, 1), P(1, 1, 1)) == rf(
        q**3 + q**2 * t + q * t**2 + q * t + t**3
    )


def test_q1_values():
    assert q1_rhs(P(1), P(1)) == rf(1)
    assert q1_rhs(P(1, 1), P(1, 1)) == rf(1 + t)
    assert q1_rhs(P(2), P(1, 1)) == rf(1)
    assert q1_rhs(P(1, 1, 1), P(1, 1, 1)) == rf(t**3 + t**2 + 2 * t + 1)
    assert q1_rhs(P(2, 1), P(1, 1, 1)) == rf(t**2 + 2 * t + 2)


def test_three_paths_against_structure_coefficients_n2():
    for mu in partitions_of(2):
        for nu in partitions_of(2):
            c = structure_coefficient([mu, nu], P(1, 1))
            log_val = c_from_log([mu, nu])
            assert log_val == c
            trace_val = c_from_trace(mu, nu)
            c0 = c.specialize({"q": rf(0)})
            assert rf(trace_val) == c0
            q1_val = q1_rhs(mu, nu)
            assert q1_val == c.specialize({"q": rf(1)})
            assert mixed_hodge_rhs(mu, nu) == c


# -- the one-alphabet pairing against the multiplied-out test functions ------


def _multiplied_out(factors):
    """The k-alphabet product of tensor_hall_scalar factors, built with
    SymFunc products: the reference for the one-alphabet pairing."""
    k = len(factors)
    T = SymFunc.one(k)
    for j, factor in enumerate(factors):
        for basis, mu, a in factor:
            T = T * adams(a, basis_element(basis, mu, alphabet=j, k=k))
    return T


def _puncture_specs(n):
    """One PunctureSpec per orbit type of rank n."""
    out = []
    for mults in partitions_of(n):
        seen = set()
        for jordan in product(*(partitions_of(m) for m in mults)):
            key = tuple(sorted(zip(mults, jordan)))
            if key not in seen:
                seen.add(key)
                out.append(PunctureSpec(mults, jordan))
    return out


def _even_specs(n, genus, points):
    out = []
    for combo in combinations_with_replacement(_puncture_specs(n), points):
        spec = CometSpec(genus, n, combo)
        try:
            total_dim(spec)
        except OddDimension:
            continue
        out.append(spec)
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("genus, points", [(0, 4), (1, 2)])
def test_tensor_pairing_matches_multiplied_out_poincare_functions(n, genus, points):
    K = kernel(n, genus, points, poincare_point())
    rs = PunctureSpec.regular_semisimple(n)
    specs = _even_specs(n, genus, points)
    assert specs
    twisted = 0
    for spec in specs:
        factors = schur_factors(spec)
        assert tensor_hall_scalar(factors, K) == hall_scalar(_multiplied_out(factors), K)
        if rs not in spec.punctures:
            continue
        j = spec.punctures.index(rs)
        for eta in partitions_of(n):
            r, factors = twisted_factors(spec, TwistSpec({j: {1: eta}}))
            assert r == n - len(eta)
            assert tensor_hall_scalar(factors, K) == hall_scalar(_multiplied_out(factors), K)
            twisted += 1
    assert twisted


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tensor_pairing_matches_multiplied_out_column_functions(n):
    kernels = (
        kernel(n, 0, 4),
        kernel(n, 0, 4, (rf(0), rf(t), rf(0))),
        log_cauchy_series(0, 4, n).component(n),
    )
    # the pairing adds the kernel's and the Log's coefficients over their
    # factors, and c_from_log scales its pairing as the kernel is scaled,
    # so the column evaluators take no gcd
    before = gcd_path_counts()
    for mu, nu in product(partitions_of(n), repeat=2):
        c_from_log((mu, nu))
        mixed_hodge_rhs(mu, nu)
        q1_rhs(mu, nu)
    assert gcd_path_counts() == before
    for mu, nu in product(partitions_of(n), repeat=2):
        m, factors = column_factors((mu, nu))
        assert m == n
        T = _multiplied_out(factors)
        for K in kernels:
            assert tensor_hall_scalar(factors, K) == hall_scalar(T, K)


def test_evaluators_agree_across_repeats_and_cleared_tables():
    spec = CometSpec(0, 2, (PunctureSpec.regular_semisimple(2),) * 4)
    twist = TwistSpec({0: {1: P(2)}})
    calls = (
        lambda: poincare(spec),
        lambda: twisted_poincare(spec, twist),
        lambda: c_from_trace(P(1, 1), P(2)),
        lambda: c_from_log([P(1, 1), P(1, 1)]),
        lambda: mixed_hodge_rhs(P(1, 1), P(1, 1)),
        lambda: q1_rhs(P(2), P(1, 1)),
    )
    first = [call() for call in calls]
    hits = alphabet_weights.cache_info().hits
    assert [call() for call in calls] == first
    assert alphabet_weights.cache_info().hits > hits
    clear_tables()
    assert [call() for call in calls] == first
