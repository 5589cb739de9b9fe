"""The genus-g Cauchy kernel on several alphabets and its specializations.

The generating series attaches to every partition a hook-product weight
and the product of its modified Macdonald polynomials across k alphabets,
graded by partition size. Internally z^2 and w^2 are the indeterminates
Z and W and the cross term zw is eps with eps^2 = Z*W, so every
specialization the evaluators need assigns rational values to Z, W, eps
and never leaves Q.

For genus zero the weight is 1 over the (Z,W) norm product and all
coefficients stay in Q(Z,W); positive genus brings in the squared-hook
numerators with their eps part.

The degree-n kernel is (Z-1)(1-W) times the degree-n component of the
plethystic logarithm of the series. Specializing a single hook term is
unsound (they have poles that only cancel in the logarithm), so
specialization always happens after full assembly and reduction.

Every term prod_j H[X_j] is symmetric under permuting the k alphabets:
permuting a key only permutes the factors of its coefficient, so all
keys of an orbit have the same exact coefficient. Each degree therefore
sums the partition contributions once per sorted orbit representative
and stores the reduced sum, as one shared object, under every key of
the orbit. Storage stays dense over all alphabet keys.

The series components (one memo entry per degree, shared by every cap),
the Log and the kernels, bivariate or specialized at a point, are
memoized as table-derived data (macdonald.derived): each
(n, genus, points, point) is specialized once, and every memo is dropped
whenever the tables are cleared or any table is registered.
"""

from __future__ import annotations

from itertools import product

from .coeffring import (
    HF_ONE,
    HookField,
    Polynomial,
    RationalFunction,
    rf,
)
from .macdonald import build_table, derived, norm_product
from .partitions import Partition, partitions_of
from .plethysm import Series, log_series
from .symfunc import SymFunc

_Z = Polynomial.var("Z")
_W = Polynomial.var("W")
_V = Polynomial.var("v")
_Qv = Polynomial.var("q")
_Tv = Polynomial.var("t")
_QT_TO_ZW = {"q": "Z", "t": "W"}


def hook_factor(lam, genus):
    """Weight of one partition: squared-hook numerators to the power genus
    over the two-parameter hook denominators, in (Z, W, eps). The
    denominator is the norm a_lam with q, t renamed Z, W."""
    lam = Partition(lam)
    weight = rf(norm_product(lam).rename(_QT_TO_ZW)).inverse()
    if genus == 0:
        return weight
    num = HF_ONE
    for (i, j) in lam.cells():
        a = lam.arm(i, j)
        l = lam.leg(i, j)
        cell = HookField(
            rf(_Z ** (2 * a + 1) + _W ** (2 * l + 1)),
            rf((_Z**a * _W**l).scale(-2)),
        )
        num = num * cell**genus
    return num * weight


@derived
def _htilde_zw(n):
    """Power-sum expansions of the degree-n Macdonald elements in (Z, W)."""
    table = build_table(n)
    return {
        lam: {kappa: c.rename(_QT_TO_ZW) for kappa, c in table.htilde_p_dict(lam).items()}
        for lam in table.partitions
    }


def _tensor_power(p_dict, points, weight):
    """Coefficients of weight * prod_j H[X_j] on the non-decreasing keys
    over sorted(p_dict), one per orbit of the alphabet permutations.
    Permuting the alphabets permutes the factors of a term, so every key
    of an orbit has the coefficient of its sorted representative."""
    kappas = sorted(p_dict)
    out = {(): weight}
    for _ in range(points):
        new = {}
        for key, c in out.items():
            for kappa in kappas:
                if not key or key[-1] <= kappa:
                    new[key + (kappa,)] = c * p_dict[kappa]
        out = new
    return out


@derived
def _cauchy_component(genus, points, d):
    """Degree-d component of the series, summed per orbit representative
    and stored densely, one shared coefficient per orbit."""
    reps = {}
    for lam in partitions_of(d):
        weight = hook_factor(lam, genus)
        for rep, c in _tensor_power(_htilde_zw(d)[lam], points, weight).items():
            prev = reps.get(rep)
            reps[rep] = c if prev is None else prev + c
    terms = {}
    for key in product(sorted(partitions_of(d)), repeat=points):
        c = reps.get(tuple(sorted(key)))
        if c is not None and not c.is_zero():
            terms[key] = c
    return SymFunc._raw(points, terms)


@derived
def cauchy_series(genus, points, cap):
    """The truncated generating series; constant term 1."""
    series = Series(cap, points)
    series.comps[0] = SymFunc.one(points)
    for d in range(1, cap + 1):
        series.comps[d] = _cauchy_component(genus, points, d)
    return series


@derived
def log_cauchy_series(genus, points, cap):
    return log_series(cauchy_series(genus, points, cap))


def kernel(n, genus, points, point=None):
    """Degree-n kernel: (Z-1)(1-W) times the degree-n Log component.

    With point a (Z, W, eps) tuple, as accepted by specialize_kernel, the
    kernel specialized there. Both are computed once per
    (n, genus, points, point) and kept until the tables are cleared or
    any table is registered.
    """
    # one memo entry per kernel, whether or not the caller passed point
    return _kernel(n, genus, points, point)


@derived
def _kernel(n, genus, points, point):
    if point is None:
        comp = log_cauchy_series(genus, points, n).component(n)
        return comp * rf((_Z - 1) * (1 - _W))
    return specialize_kernel(kernel(n, genus, points), *point)


def specialize_kernel(F, z_value, w_value, eps_value):
    """Substitute Z, W, eps in every coefficient of a kernel (or paired
    scalar). eps_value None requires all eps parts to vanish; otherwise
    eps_value**2 must equal z_value * w_value. Raises PoleError when a
    reduced denominator vanishes at the point."""
    zv = rf(z_value)
    wv = rf(w_value)
    ev = rf(eps_value) if eps_value is not None else None
    if ev is not None and ev * ev != zv * wv:
        raise ValueError(
            "eps value %s inconsistent with Z*W = %s" % (ev, zv * wv)
        )
    assign = {"Z": zv, "W": wv}

    def spec(c):
        if isinstance(c, HookField):
            return c.specialize(assign, eps_value=ev)
        return c.specialize(assign)

    if isinstance(F, (HookField, RationalFunction)):
        return spec(F)
    return F.map_coefficients(spec)


def poincare_point():
    """(Z, W, eps) for Poincare polynomials: (0, v^2, 0)."""
    return (rf(0), rf(_V**2), rf(0))


def mixed_hodge_point():
    """(Z, W, eps) = (q, t, -sqrt(qt)): valid only when eps parts vanish."""
    return (rf(_Qv), rf(_Tv), None)


def q1_point():
    """(Z, W, eps) = (1, v^2, -v)."""
    return (rf(1), rf(_V**2), rf(-_V))


SPECIALIZATIONS = {
    "poincare": poincare_point,
    "mixed-hodge": mixed_hodge_point,
    "q1": q1_point,
}
