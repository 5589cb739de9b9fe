"""Orbit bookkeeping and the kernel-pairing evaluators.

A comet-shaped configuration is a genus, a rank n, and one puncture per
leg. A puncture fixes an adjoint orbit through its eigenvalue
multiplicities and per-eigenvalue Jordan types; eigenvalues themselves
never appear (the formulas only see multiplicities, and genericity of
the eigenvalue choice is assumed throughout, not checked).

The evaluators pair test symmetric functions against the degree-n kernel:

  poincare          v^d <prod_j prod_i s_{jordan'}[X_j], K_n(0, v)>
  twisted_poincare  (-1)^r v^d <h-twisted products, K_n(0, v)>
  c_from_trace      (-1)^(n-1) <s_mu s_nu p_(n) h_(n-1,1), K_n(0, sqrt t)>
  c_from_log        (-1)^(n-1) (q-1)(1-t) <..., Log series>   (exact c)
  mixed_hodge_rhs   (-1)^(n-1) <..., K_n at (q, t)>           (conjectural c)
  q1_rhs            (-1)^(n-1) <..., K_n at (1, t)>           (q=1 theorem)

For the trace/log/mixed/q1 family the v^d against t^{-d/2} prefactors
cancel, so the dimension never enters; specialization happens after the
pairing when the point can be singular (Z=1) and before when it is cheap
(Z=0). The Z=0 routes read the specialized kernel from the kernel cache,
so each degree, genus, puncture count and point is specialized once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeffring import PoleError, Polynomial, rf
from .kernel import (
    kernel,
    log_cauchy_series,
    mixed_hodge_point,
    poincare_point,
    specialize_kernel,
)
from .partitions import Partition
from .plethysm import adams
from .symfunc import SymFunc, h_elem, hall_scalar, p_elem, s_elem

_Q = Polynomial.var("q")
_T = Polynomial.var("t")
_V = Polynomial.var("v")


class OddDimension(ValueError):
    """The dimension formula produced an odd integer (bad configuration)."""


class NegativeCoefficient(ValueError):
    """A Poincare polynomial came out with a negative coefficient."""


@dataclass(frozen=True)
class PunctureSpec:
    """Eigenvalue multiplicities with one Jordan type per eigenvalue."""

    multiplicities: Partition
    jordan: tuple

    def __init__(self, multiplicities, jordan):
        mults = Partition(multiplicities)
        types = tuple(Partition(m) for m in jordan)
        if len(types) != len(mults):
            raise ValueError("need one Jordan type per eigenvalue")
        for m, jt in zip(mults, types):
            if jt.size != m:
                raise ValueError("Jordan type %s does not fill multiplicity %d" % (jt, m))
        object.__setattr__(self, "multiplicities", mults)
        object.__setattr__(self, "jordan", types)

    @property
    def rank(self):
        return self.multiplicities.size

    @staticmethod
    def regular_semisimple(n):
        return PunctureSpec((1,) * n, ((1,),) * n)

    @staticmethod
    def single_eigenvalue(jordan_type):
        jt = Partition(jordan_type)
        return PunctureSpec((jt.size,), (jt,))

    @staticmethod
    def semisimple(multiplicities):
        mults = Partition(multiplicities)
        return PunctureSpec(mults, tuple(Partition((1,) * m) for m in mults))


@dataclass(frozen=True)
class CometSpec:
    genus: int
    rank: int
    punctures: tuple

    def __init__(self, genus, rank, punctures):
        punctures = tuple(punctures)
        if genus < 0:
            raise ValueError("genus must be non-negative")
        for p in punctures:
            if p.rank != rank:
                raise ValueError("puncture rank %d != %d" % (p.rank, rank))
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "punctures", punctures)

    @property
    def points(self):
        return len(self.punctures)


def orbit_dim(p):
    """Dimension of the adjoint orbit: n^2 minus the centralizer dimension
    (sum of squared transpose parts over all eigenvalues)."""
    n = p.rank
    cent = 0
    for jt in p.jordan:
        for part in jt.conjugate():
            cent += part * part
    return n * n - cent


def total_dim(spec):
    """Expected dimension of the configuration space; must be even."""
    d = spec.rank**2 * (2 * spec.genus - 2) + 2
    for p in spec.punctures:
        d += orbit_dim(p)
    if d % 2:
        raise OddDimension("dimension %d is odd for %r" % (d, spec))
    return d


def schur_test_function(spec):
    """prod_j prod_i s over the transposed Jordan types, one alphabet per
    puncture."""
    k = spec.points
    out = SymFunc.one(k)
    for j, p in enumerate(spec.punctures):
        for jt in p.jordan:
            out = out * s_elem(jt.conjugate(), alphabet=j, k=k)
    return out


def levi_block_classes(p):
    """Block sizes of the associated Levi subgroup with multiplicities.

    The blocks are the parts of the transposed Jordan types, grouped by
    size: dict size -> multiplicity.
    """
    out = {}
    for jt in p.jordan:
        for part in jt.conjugate():
            out[part] = out.get(part, 0) + 1
    return out


@dataclass(frozen=True)
class TwistSpec:
    """Cycle types per puncture and per Levi block-size class.

    classes maps puncture index -> {block_size: Partition cycle type};
    omitted classes mean the identity twist on them.
    """

    classes: tuple

    def __init__(self, classes):
        items = []
        for j, mapping in sorted(dict(classes).items()):
            inner = tuple(
                (int(c), Partition(eta)) for c, eta in sorted(dict(mapping).items())
            )
            items.append((int(j), inner))
        object.__setattr__(self, "classes", tuple(items))

    @staticmethod
    def identity():
        return TwistSpec({})

    def cycle_type(self, puncture, block_size, multiplicity):
        for j, inner in self.classes:
            if j == puncture:
                for c, eta in inner:
                    if c == block_size:
                        if eta.size != multiplicity:
                            raise ValueError(
                                "cycle type %s does not permute %d blocks of size %d"
                                % (eta, multiplicity, block_size)
                            )
                        return eta
        return Partition((1,) * multiplicity)

    def validate_against(self, spec):
        known = {
            j: levi_block_classes(p) for j, p in enumerate(spec.punctures)
        }
        for j, inner in self.classes:
            if j not in range(spec.points):
                raise ValueError("twist names puncture %d outside the spec" % j)
            for c, eta in inner:
                m = known[j].get(c)
                if m is None:
                    raise ValueError(
                        "puncture %d has no Levi blocks of size %d" % (j, c)
                    )
                if eta.size != m:
                    raise ValueError(
                        "cycle type %s should be a partition of %d" % (eta, m)
                    )


def twisted_test_function(spec, twist):
    """(sign exponent r, h-product with Adams-twisted alphabets)."""
    twist.validate_against(spec)
    k = spec.points
    out = SymFunc.one(k)
    r = 0
    for j, p in enumerate(spec.punctures):
        for c, m in sorted(levi_block_classes(p).items()):
            eta = twist.cycle_type(j, c, m)
            for part in eta:
                factor = h_elem(Partition((c,)), alphabet=j, k=k)
                if part > 1:
                    factor = adams(part, factor)
                out = out * factor
                r += c * (part - 1)
    return r, out


def _as_polynomial_in(value, varname, error=NegativeCoefficient):
    if not value.is_polynomial():
        raise error("value %s is not a polynomial in %s" % (value, varname))
    poly = value.as_polynomial()
    for name in poly.vars:
        if name != varname and poly.degree_in(name):
            raise error("value %s involves %s" % (value, name))
    return poly


def _v_scaled_pairing(T, spec):
    """v^d <T, K_n(0, v)> with d = total_dim(spec); None when the pairing
    is zero."""
    val = hall_scalar(T, kernel(spec.rank, spec.genus, spec.points, poincare_point()))
    d = total_dim(spec)
    if val.is_zero():
        return None
    return val * rf(_V**d) if d >= 0 else val / rf(_V ** (-d))


def poincare(spec):
    """Poincare polynomial (compactly supported intersection cohomology)."""
    val = _v_scaled_pairing(schur_test_function(spec), spec)
    if val is None:
        return Polynomial.const(0)
    poly = _as_polynomial_in(val, "v")
    for c in poly.terms.values():
        if c < 0 or (isinstance(c, Fraction) and c.denominator != 1):
            raise NegativeCoefficient("bad coefficient in %s" % poly)
    return poly


def twisted_poincare(spec, twist):
    """Trace generating polynomial of the twist on compactly supported
    cohomology, through the kernel pairing."""
    r, T = twisted_test_function(spec, twist)
    val = _v_scaled_pairing(T, spec)
    if val is None:
        return Polynomial.const(0)
    return _as_polynomial_in(val * (-1 if r % 2 else 1), "v")


def trace_configuration(mu, nu):
    """The genus-zero four-puncture configuration behind the trace formula:
    two single-eigenvalue punctures with transposed Jordan types, one
    regular semisimple, one semisimple of multiplicities (n-1, 1)."""
    mu = Partition(mu)
    nu = Partition(nu)
    n = mu.size
    if nu.size != n:
        raise ValueError("partitions must have the same size")
    punctures = (
        PunctureSpec.single_eigenvalue(mu.conjugate()),
        PunctureSpec.single_eigenvalue(nu.conjugate()),
        PunctureSpec.regular_semisimple(n),
        PunctureSpec.semisimple((n - 1, 1) if n > 1 else (1,)),
    )
    return CometSpec(0, n, punctures)


def _column_test_function(factors):
    """(n, s_{mu_1}[X_1] ... s_{mu_k}[X_k] p_(n)[X_{k+1}] h_(n-1,1)[X_{k+2}])
    for factors mu_1..mu_k of one size n."""
    factors = [Partition(m) for m in factors]
    if not factors:
        raise ValueError("need at least one factor")
    n = factors[0].size
    if any(m.size != n for m in factors):
        raise ValueError("all factors must have the same size")
    k = len(factors) + 2
    T = s_elem(factors[0], 0, k)
    for j, m in enumerate(factors[1:], 1):
        T = T * s_elem(m, j, k)
    T = T * p_elem(Partition((n,)), k - 2, k)
    T = T * h_elem(Partition((n - 1, 1)) if n > 1 else Partition((1,)), k - 1, k)
    return n, T


def _column_sign(n, val):
    """(-1)^(n-1) val: the sign of the column evaluators."""
    return -val if (n - 1) % 2 else val


def c_from_trace(mu, nu):
    """Column structure coefficient at q=0 via the twisted trace formula,
    as a polynomial in t."""
    n, T = _column_test_function((mu, nu))
    K = kernel(n, 0, 4, (rf(0), rf(_T), rf(0)))
    val = _column_sign(n, hall_scalar(T, K))
    return _as_polynomial_in(val, "t", error=ValueError) if not val.is_zero() else Polynomial.const(0)


def c_from_log(factors):
    """Column structure coefficient through the genus-zero Log series.

    Exact: must agree with the Kostka-matrix computation.
    """
    n, T = _column_test_function(factors)
    comp = log_cauchy_series(0, T.k, n).component(n)
    val = hall_scalar(T, comp)
    val = val.rename({"Z": "q", "W": "t"})
    return _column_sign(n, val * rf((_Q - 1) * (1 - _T)))


def mixed_hodge_rhs(mu, nu):
    """Conjectural column coefficient via the mixed-Hodge specialization."""
    n, T = _column_test_function((mu, nu))
    val = hall_scalar(T, kernel(n, 0, 4))
    return _column_sign(n, specialize_kernel(val, *mixed_hodge_point()))


def q1_rhs(mu, nu):
    """The q=1 value through the (Z, W, eps) = (1, t, -sqrt t) point.

    Pairing happens before specialization because Z=1 can be singular;
    a PoleError propagates to the caller. The alternating sign matches
    the additive twisted-trace convention (the n=2 case fixes it).
    """
    n, T = _column_test_function((mu, nu))
    val = hall_scalar(T, kernel(n, 0, 4))
    return _column_sign(n, val.specialize({"Z": rf(1), "W": rf(_T)}))
