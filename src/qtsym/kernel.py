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
plethystic logarithm of the series. At singular points such as Z=1 a
single hook term has a pole that only cancels in the logarithm, so
specializing term by term is unsound there; specialization always
happens after full assembly and reduction. (At Z=0 the hook
denominators do not vanish.)

Every term prod_j H[X_j] is symmetric under permuting the k alphabets:
permuting a key only permutes the factors of its coefficient, so all
keys of an orbit have the same exact coefficient. Each degree therefore
sums the partition contributions once per sorted orbit representative
and stores the reduced sum, as one shared object, under every key of
the orbit (plethysm.spread). The Log (plethysm.log_step) and the
(Z-1)(1-W) scaling of the kernel are computed once per orbit in the same
way. Storage stays dense over all alphabet keys.

No coefficient of the series, of its Log or Exp or of a kernel takes a
gcd. The denominator of every
weight is the norm a_lam, whose irreducible factors are known in closed
form (macdonald.norm_factors). Each Macdonald coefficient and each part
of the hook numerator is split once per partition into a cofactor times
powers of those factors (coeffring.split_factors). A term multiplies
cofactors and adds multiplicities (coeffring.split_product), keeping in
its denominator only the factors it has fewer times than a_lam
(coeffring.split_over), and the terms of an orbit are added over the
factors by Henrici's rule (coeffring.factored_sum), which leaves the
multiplicities on each coefficient. The Log and Exp read them and run on
coeffring splits (see plethysm), and so does the (Z-1)(1-W) scaling:
every denominator there is a product of Adams images of norm factors.
hook_factor is the term of the empty key, from the same split parts.

The series components and the Log components (one memo entry per
degree, shared by every cap), the Log series and the kernels, bivariate
or specialized at a point, are memoized as table-derived data
(macdonald.derived): each (n, genus, points, point) is specialized once,
and every memo is dropped whenever the tables are cleared or any table
is registered.
"""

from __future__ import annotations

from functools import lru_cache

from .coeffring import (
    P_ONE,
    P_ZERO,
    HookField,
    Polynomial,
    RationalFunction,
    _term_sum,
    _total,
    factored_sum,
    rf,
    split_factors,
    split_over,
    split_product,
)
from .macdonald import build_table, derived, norm_factors
from .partitions import Partition
from .plethysm import Series, _split_path, log_step, orbit_filter, sorted_key, spread
from .symfunc import SymFunc

_Z = Polynomial.var("Z")
_W = Polynomial.var("W")
_V = Polynomial.var("v")
_Qv = Polynomial.var("q")
_Tv = Polynomial.var("t")
_QT_TO_ZW = {"q": "Z", "t": "W"}


def _check_nonnegative(**counts):
    """Raise ValueError naming the first of counts that is negative."""
    for name, value in counts.items():
        if value < 0:
            raise ValueError("%s must be non-negative, got %s" % (name, value))


def hook_factor(lam, genus):
    """Weight of one partition: squared-hook numerators to the power genus
    over the two-parameter hook denominators, in (Z, W, eps). The
    denominator is the norm a_lam with q, t renamed Z, W. The term of
    the empty key in _cauchy_component, from the same split parts."""
    _check_nonnegative(genus=genus)
    norm, parts = _hook_parts(Partition(lam), genus)
    return _orbit_coefficient([split_over(part, norm)] for part in parts)


@lru_cache(maxsize=None)
def _norm_zw(lam):
    """(unit, ((f, m), ...)) of the norm a_lam, with q, t renamed Z, W."""
    unit, factors = norm_factors(lam)
    return unit, tuple((_zw(f), m) for f, m in factors)


@lru_cache(maxsize=None)
def _zw(f):
    """The factor f with q, t renamed Z, W: one object per factor, so the
    mult dicts of coeffring.factored_sum match it by identity."""
    return f.rename(_QT_TO_ZW)


@lru_cache(maxsize=None)
def _hook_parts(lam, genus):
    """(norm, parts) for the weight of lam: the factored norm in (Z, W)
    and the splits of the hook numerator prod over the cells of
    (Z^(2a+1) + W^(2l+1) - 2 Z^a W^l eps)^genus, one for genus 0 (the
    numerator 1) and one each for its base and eps parts otherwise."""
    norm = _norm_zw(lam)
    if genus == 0:
        return norm, ((1, P_ONE, {}),)
    base, odd = P_ONE, P_ZERO
    for (i, j) in lam.cells():
        a = lam.arm(i, j)
        l = lam.leg(i, j)
        cell_base = _Z ** (2 * a + 1) + _W ** (2 * l + 1)
        cell_odd = (_Z**a * _W**l).scale(-2)
        for _ in range(genus):
            # (b + o eps)(b' + o' eps) with eps^2 = Z W
            base, odd = base * cell_base + odd * cell_odd * _Z * _W, base * cell_odd + odd * cell_base
    parts = tuple(map(rf, (base, odd)))
    return norm, tuple((c.scalar,) + split_factors(c.prim, norm[1]) for c in parts)


def _orbit_coefficient(sums):
    """One coefficient from the term lists of its parts (coeffring.factored_sum):
    a RationalFunction for one part, a HookField of base and eps parts for two."""
    out = [factored_sum(terms) for terms in sums]
    return out[0] if len(out) == 1 else HookField(*out)


@derived
def _htilde_splits(d):
    """lam -> kappa -> the split of the p_kappa coefficient of the degree-d
    Macdonald element in (Z, W) against the factored norm of lam."""
    table = build_table(d)
    out = {}
    for lam in table.partitions:
        factors = _norm_zw(lam)[1]
        zw = {kappa: c.rename(_QT_TO_ZW) for kappa, c in table.htilde_p_dict(lam).items()}
        out[lam] = {kappa: (c.scalar,) + split_factors(c.prim, factors) for kappa, c in zw.items()}
    return out


@derived
def _cauchy_component(genus, points, d):
    """Degree-d component of the series, summed per orbit representative
    and stored densely, one shared coefficient per orbit.

    Each partition's term on a non-decreasing key of power sums is its
    hook numerator times the product of its Macdonald coefficients over
    its norm, split against the norm's factors; the terms of an orbit are
    summed over those factors (coeffring.factored_sum), with no gcd.
    Permuting the alphabets permutes the factors of a term, so every key
    of an orbit has the coefficient of its sorted representative."""
    reps = {}
    for lam, splits in _htilde_splits(d).items():
        norm, parts = _hook_parts(lam, genus)
        kappas = sorted(splits)
        prods = {(): (1, P_ONE, {})}
        for _ in range(points):
            prods = {
                key + (kappa,): split_product(x, splits[kappa])
                for key, x in prods.items()
                for kappa in kappas
                if not key or key[-1] <= kappa
            }
        for rep, x in prods.items():
            terms = reps.setdefault(rep, [[] for _ in parts])
            for out, part in zip(terms, parts):
                out.append(split_over(split_product(part, x), norm))
    reps = {rep: _orbit_coefficient(sums) for rep, sums in reps.items()}
    return spread({rep: c for rep, c in reps.items() if not c.is_zero()}, points)


@derived
def cauchy_series(genus, points, cap):
    """The truncated generating series; constant term 1."""
    _check_nonnegative(genus=genus, points=points, cap=cap)
    series = Series(cap, points)
    series.comps[0] = SymFunc.one(points)
    for d in range(1, cap + 1):
        series.comps[d] = _cauchy_component(genus, points, d)
    return series


@derived
def _log_component(genus, points, d):
    """(P_d, G_d) of the Log of the series (plethysm.log_step), one memo
    entry per degree, shared by every cap; computed once per orbit."""
    H = cauchy_series(genus, points, d)
    lower = [(None, SymFunc.zero(points))] + [_log_component(genus, points, j) for j in range(1, d)]
    P, G = zip(*lower)
    return log_step(H.comps, P, G, d, orbit_filter(H), _split_path(H))


@derived
def log_cauchy_series(genus, points, cap):
    _check_nonnegative(genus=genus, points=points, cap=cap)
    return Series(cap, points, {d: _log_component(genus, points, d)[1] for d in range(1, cap + 1)})


def kernel(n, genus, points, point=None):
    """Degree-n kernel: (Z-1)(1-W) times the degree-n Log component.

    With point a (Z, W, eps) tuple, as accepted by specialize_kernel, the
    kernel specialized there. Both are computed once per
    (n, genus, points, point) and kept until the tables are cleared or
    any table is registered.
    """
    if n < 1:
        raise ValueError("n must be at least 1, got %s" % n)
    _check_nonnegative(genus=genus, points=points)
    # one memo entry per kernel, whether or not the caller passed point
    return _kernel(n, genus, points, point)


@derived
def _kernel(n, genus, points, point):
    if point is None:
        # once per orbit: the Log is symmetric under permuting the alphabets
        scale = rf((_Z - 1) * (1 - _W))
        terms = _log_component(genus, points, n)[1].terms
        # the Log's coefficients carry their factors (plethysm._split_path)
        scaled = {rep: _total(_term_sum(c) * scale) for rep, c in terms.items() if sorted_key(rep)}
        return spread(scaled, points)
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
    # the keys of an orbit share one coefficient object (plethysm.spread),
    # so each distinct object is specialized once and the result shared
    done = {}

    def spec(c):
        if id(c) not in done:
            if isinstance(c, HookField):
                done[id(c)] = c.specialize(assign, eps_value=ev)
            else:
                done[id(c)] = c.specialize(assign)
        return done[id(c)]

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
