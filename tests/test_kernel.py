from itertools import product

import pytest

from qtsym.coeffring import HookField, Polynomial, RationalFunction, gcd_path_counts, rf
from qtsym.kernel import (
    _log_component,
    cauchy_series,
    hook_factor,
    kernel,
    log_cauchy_series,
    mixed_hodge_point,
    poincare_point,
    q1_point,
    specialize_kernel,
)
from qtsym.kostka_algebra import structure_coefficients_all
from qtsym.macdonald import build_table, clear_tables, norm_product, register_table
from qtsym.partitions import Partition, partitions_of
from qtsym.plethysm import exp_series
from qtsym.symfunc import SymFunc, h_elem, hall_scalar, m_elem, p_elem, s_elem

Z = Polynomial.var("Z")
W = Polynomial.var("W")
v = Polynomial.var("v")
t = Polynomial.var("t")


def P(*parts):
    return Partition(parts)


def _h_product(mus):
    out = SymFunc.one(len(mus))
    for j, mu in enumerate(mus):
        out = out * h_elem(mu, alphabet=j, k=len(mus))
    return out


def test_hook_factor_examples():
    one = hook_factor(P(1), 0)
    assert one == rf(1) / rf((Z - 1) * (1 - W))
    g1 = hook_factor(P(1), 1)
    assert g1 == HookField(rf(Z + W), rf(-2)) * (rf(1) / rf((Z - 1) * (1 - W)))
    two = hook_factor(P(2), 0)
    assert two == rf(1) / rf((Z**2 - 1) * (Z - W) * (Z - 1) * (1 - W))


def test_cauchy_series_basics():
    for k in (1, 2):
        om = cauchy_series(0, k, 2)
        assert om.comps[0] == SymFunc.one(k)
        # degree-1 coefficient
        expect = SymFunc.one(k)
        for j in range(k):
            expect = expect * p_elem(P(1), alphabet=j, k=k)
        expect = expect * (rf(1) / rf((Z - 1) * (1 - W)))
        assert om.comps[1] == expect
    # degree-2, g=0, k=1 is the definition unrolled
    om = cauchy_series(0, 1, 2)
    table = build_table(2)
    ren = {"q": "Z", "t": "W"}
    expect = SymFunc.zero(1)
    for lam in partitions_of(2):
        H = SymFunc.from_p_dict(
            {kap: c.rename(ren) for kap, c in table.htilde_p_dict(lam).items()}
        )
        expect = expect + H * table.norm(lam).rename(ren).inverse()
    assert om.comps[2] == expect


def test_exp_log_round_trip_cap3():
    for genus, points in ((0, 1), (0, 2), (1, 1)):
        om = cauchy_series(genus, points, 3)
        lg = log_cauchy_series(genus, points, 3)
        assert exp_series(lg) == om


def test_kernel_degree_one():
    for genus in (0, 1):
        for points in (1, 2, 3, 4):
            K = kernel(1, genus, points)
            expect = SymFunc.one(points)
            for j in range(points):
                expect = expect * h_elem(P(1), alphabet=j, k=points)
            if genus == 1:
                expect = expect.map_coefficients(
                    lambda c: HookField(rf(Z + W), rf(-2)) * c
                )
            assert K == expect


def test_genus_zero_kernel_has_no_eps_parts():
    for n in (1, 2, 3):
        K = kernel(n, 0, 2)
        for c in K.terms.values():
            assert not isinstance(c, HookField)


def test_specialize_kernel_points():
    K1 = kernel(1, 0, 2)
    spec = specialize_kernel(K1, *poincare_point())
    expect = h_elem(P(1), 0, 2) * h_elem(P(1), 1, 2)
    assert spec == expect
    # genus 1 degree 1 at the Poincare point: (Z+W-2eps) -> v^2
    K1g = kernel(1, 1, 2)
    spec = specialize_kernel(K1g, *poincare_point())
    assert spec == expect * rf(v**2)
    # eps consistency checks
    specialize_kernel(K1g, rf(1), rf(v**2), rf(-v))
    with pytest.raises(ValueError):
        specialize_kernel(K1g, rf(1), rf(v**2), rf(v**3))
    # mixed-hodge point rejects eps parts
    with pytest.raises(ValueError):
        specialize_kernel(K1g, *mixed_hodge_point())


def test_oracle_single_puncture_pairings_vanish_at_poincare():
    # frozen oracle values: every single-alphabet pairing of the degree-2
    # and degree-3 kernels vanishes at (Z, W) = (0, v^2)
    for n, mus in ((2, partitions_of(2)), (3, partitions_of(3))):
        K = specialize_kernel(kernel(n, 0, 1), *poincare_point())
        for mu in mus:
            for build in (h_elem, s_elem):
                val = hall_scalar(build(mu), K)
                assert val.is_zero(), (n, mu, build, val)


def test_h_expansion_coefficients_polynomial_small():
    # expanded in products of complete symmetric functions, the Poincare
    # specialization has polynomial coefficients (duals are monomials)
    for n in (1, 2, 3):
        for k in (1, 2):
            K = specialize_kernel(kernel(n, 0, k), *poincare_point())
            for mus in _tuples_of_partitions(n, k):
                T = SymFunc.one(k)
                for j, mu in enumerate(mus):
                    T = T * m_elem(mu, alphabet=j, k=k)
                val = hall_scalar(T, K)
                assert val.is_polynomial(), (n, mus, val)


def _tuples_of_partitions(n, k):
    from itertools import product

    return product(partitions_of(n), repeat=k)


def test_pair_before_and_after_specialization_agree():
    # both orders must match at the cheap point Z=0
    K = kernel(2, 0, 2)
    T = s_elem(P(1, 1), 0, 2) * s_elem(P(2), 1, 2)
    paired_then_spec = specialize_kernel(hall_scalar(T, K), *poincare_point())
    spec_then_paired = hall_scalar(T, specialize_kernel(K, *poincare_point()))
    assert paired_then_spec == spec_then_paired


def test_q1_point_consistency():
    zv, wv, ev = q1_point()
    assert ev * ev == zv * wv


def test_cached_specialized_kernel_equals_fresh_specialization():
    trace_point = (rf(0), rf(t), rf(0))
    for n in (1, 2, 3):
        for genus in (0, 1):
            for points in (1, 2, 3, 4):
                K = kernel(n, genus, points)
                for point in (poincare_point(), trace_point):
                    assert kernel(n, genus, points, point) == specialize_kernel(K, *point)
    for n in (1, 2):
        fresh = specialize_kernel(kernel(n, 1, 2), *q1_point())
        assert kernel(n, 1, 2, q1_point()) == fresh


def _dense_cauchy_component(genus, points, d):
    # the definition unrolled: hook_factor(lam) * prod_j H[kappa_j] summed
    # over every partition and every one of the k^d alphabet keys
    table = build_table(d)
    ren = {"q": "Z", "t": "W"}
    terms = {}
    for lam in partitions_of(d):
        weight = hook_factor(lam, genus)
        H = {kap: c.rename(ren) for kap, c in table.htilde_p_dict(lam).items()}
        for key in product(H, repeat=points):
            c = weight
            for kap in key:
                c = c * H[kap]
            terms[key] = terms[key] + c if key in terms else c
    return SymFunc(points, terms)


CAUCHY_CASES = [
    (n, genus, points)
    for n in (1, 2, 3)
    for genus in (0, 1)
    for points in (1, 2, 3, 4)
    if not (n == 3 and genus == 1 and points > 2)
] + [(4, 1, 1)]


@pytest.mark.parametrize("n,genus,points", CAUCHY_CASES)
def test_cauchy_series_matches_dense_definition(n, genus, points):
    # lower degrees are the top degree of a smaller case
    expect = _dense_cauchy_component(genus, points, n)
    assert cauchy_series(genus, points, n).component(n) == expect


# the hook numerator raised to a power of two or three
HIGHER_GENUS_CASES = [(2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 3, 1)]


@pytest.mark.parametrize("n,genus,points", HIGHER_GENUS_CASES)
def test_higher_genus_cauchy_series_matches_dense_definition(n, genus, points):
    expect = _dense_cauchy_component(genus, points, n)
    assert cauchy_series(genus, points, n).component(n) == expect


def test_hook_factor_matches_the_cell_product():
    # the weight built in rational and hook-field arithmetic, cell by cell
    ren = {"q": "Z", "t": "W"}
    for d in range(1, 5):
        for lam in partitions_of(d):
            inv_norm = rf(norm_product(lam).rename(ren)).inverse()
            assert hook_factor(lam, 0) == inv_norm
            for genus in (1, 2, 3):
                num = HookField(rf(1))
                for (i, j) in lam.cells():
                    a, l = lam.arm(i, j), lam.leg(i, j)
                    num = num * HookField(rf(Z ** (2 * a + 1) + W ** (2 * l + 1)), rf(-2 * Z**a * W**l)) ** genus
                got = hook_factor(lam, genus)
                want = num * inv_norm
                assert got == want and repr(got) == repr(want), (lam, genus)


def test_cauchy_components_are_shared_across_caps_and_cleared():
    first = cauchy_series(1, 2, 2).component(1)
    assert cauchy_series(1, 2, 3).component(1) is first
    clear_tables()
    fresh = cauchy_series(1, 2, 3).component(1)
    assert fresh is not first
    assert fresh == first
    assert cauchy_series(1, 2, 2).component(1) is fresh


def test_log_components_are_shared_across_caps_and_dropped(monkeypatch):
    register_table(build_table(1))  # drops every derived memo, keeps the tables
    top = log_cauchy_series(1, 2, 3)
    count = [0]
    for cls in (RationalFunction, HookField):

        def counting(self, other, mul=cls.__mul__):
            count[0] += 1
            return mul(self, other)

        monkeypatch.setattr(cls, "__mul__", counting)
    low = log_cauchy_series(1, 2, 2)
    assert count[0] == 0
    assert low.comps[1] is top.comps[1] and low.comps[2] is top.comps[2]
    monkeypatch.undo()
    for drop in (clear_tables, lambda: register_table(build_table(2))):
        drop()
        assert _log_component.cache_info().currsize == 0
        fresh = log_cauchy_series(1, 2, 2)
        assert fresh.comps[2] is not low.comps[2] and fresh == low
        low = fresh


def test_kernel_keeps_one_coefficient_object_per_orbit():
    # 81 keys, one per 4-tuple of partitions of 3, in 15 orbits
    K = kernel(3, 0, 4)
    assert len(K.terms) == 81
    assert len({id(c) for c in K.terms.values()}) == 15


def test_specialized_kernels_are_cached_per_point_and_cleared():
    # runs last in this module: it empties the caches the tests above filled
    trace_point = (rf(0), rf(t), rf(0))
    at_v = kernel(1, 1, 2, poincare_point())
    at_t = kernel(1, 1, 2, trace_point)
    assert at_v != at_t
    assert kernel(1, 1, 2, poincare_point()) is at_v
    assert kernel(1, 1, 2, trace_point) is at_t
    assert kernel(1, 1, 2) is kernel(1, 1, 2, None)
    clear_tables()
    fresh = kernel(1, 1, 2, poincare_point())
    assert fresh is not at_v
    assert fresh == at_v


def test_cauchy_series_takes_no_prs_fallback():
    # the (degree 4, genus 1, one alphabet) series of the kernel-assembly
    # benchmark: no gcd at all, and its Log takes bivariate gcds only
    for d in range(1, 5):
        build_table(d)
    register_table(build_table(4))  # drops every derived memo, keeps the tables
    before = gcd_path_counts()
    cauchy_series(1, 1, 4)
    assert gcd_path_counts() == before
    log_cauchy_series(1, 1, 4)
    after = gcd_path_counts()
    assert after["bivariate"] > before["bivariate"]
    assert after["prs"] == before["prs"]


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda: kernel(0, 0, 1), "n"),
        (lambda: kernel(-1, 0, 1), "n"),
        (lambda: kernel(1, -1, 1), "genus"),
        (lambda: kernel(1, 0, -1), "points"),
        (lambda: cauchy_series(0, 1, -1), "cap"),
        (lambda: cauchy_series(-1, 1, 2), "genus"),
        (lambda: log_cauchy_series(0, -1, 2), "points"),
        (lambda: log_cauchy_series(0, 1, -1), "cap"),
        (lambda: hook_factor(P(1), -1), "genus"),
    ],
)
def test_kernel_arguments_are_validated(call, name):
    with pytest.raises(ValueError, match=r"^%s must be" % name):
        call()


def test_zero_punctures_give_the_weight_sums():
    assert kernel(2, 1, 0).terms == {(): HookField(rf(Z + W), rf(-2))}
    assert cauchy_series(0, 2, 0).comps == [SymFunc.one(2)]


def _rational_coefficients(F):
    for c in F.terms.values():
        if isinstance(c, HookField):
            yield c.base
            yield c.odd
        else:
            yield c


@pytest.mark.parametrize("args", [(3, 1, 2), (3, 0, 4)])
def test_kernel_coefficients_are_scalar_times_primitive_integer_parts(args):
    for c in _rational_coefficients(kernel(*args)):
        assert c.num == c.prim.scale(c.scalar)
        if c:
            for p in (c.prim, c.den):
                assert all(type(k) is int for k in p.terms.values()), c
                assert p.content_signed() == 1, c
        again = RationalFunction(c.num, c.den)
        assert again == c and repr(again) == repr(c)


def test_kernel_leaves_the_kostka_matrices_uncomputed():
    # the kernel reads only H~; K~ and K~^-1 are derived on first use
    clear_tables()
    kernel(3, 0, 2)
    tables = [build_table(d) for d in range(1, 4)]
    for table in tables:
        assert "kostka" not in vars(table) and "kostka_inv" not in vars(table)
    for d, table in enumerate(tables, 1):
        structure_coefficients_all([P(d)])
        assert "kostka" in vars(table) and "kostka_inv" in vars(table)
