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

Every test function is a tensor product of one-alphabet functions, each a
product of basis elements under Adams operators. The evaluators describe
it by its factors, (basis, partition, Adams index) triples per alphabet,
and pair it with the kernel one alphabet at a time through
symfunc.tensor_hall_scalar; the k-alphabet test function is never built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeffring import Polynomial, rf
from .kernel import (
    kernel,
    log_cauchy_series,
    mixed_hodge_point,
    poincare_point,
    specialize_kernel,
)
from .partitions import Partition
from .symfunc import tensor_hall_scalar

_T = Polynomial.var("t")
_V = Polynomial.var("v")
# the (Z, W, eps) point of c_from_trace and the (Z-1)(1-W) of c_from_log, built once
_TRACE_POINT = (rf(0), rf(_T), rf(0))
_ZW_SCALE = rf((Polynomial.var("Z") - 1) * (1 - Polynomial.var("W")))


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


def schur_factors(spec):
    """prod_j prod_i s over the transposed Jordan types, one alphabet per
    puncture, as tensor_hall_scalar factors."""
    return tuple(
        tuple(("schur", jt.conjugate(), 1) for jt in p.jordan) for p in spec.punctures
    )


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


def twisted_factors(spec, twist):
    """(sign exponent r, tensor_hall_scalar factors of the h-product with
    Adams-twisted alphabets)."""
    twist.validate_against(spec)
    factors = []
    r = 0
    for j, p in enumerate(spec.punctures):
        alphabet = []
        for c, m in sorted(levi_block_classes(p).items()):
            for part in twist.cycle_type(j, c, m):
                alphabet.append(("complete", Partition((c,)), part))
                r += c * (part - 1)
        factors.append(tuple(alphabet))
    return r, tuple(factors)


def _as_polynomial_in(value, varname, error=NegativeCoefficient):
    if not value.is_polynomial():
        raise error("value %s is not a polynomial in %s" % (value, varname))
    poly = value.as_polynomial()
    for name in poly.vars:
        if name != varname and poly.degree_in(name):
            raise error("value %s involves %s" % (value, name))
    return poly


def _v_scaled_pairing(factors, spec):
    """v^d <T, K_n(0, v)> with d = total_dim(spec) and T the product of the
    factors; None when the pairing is zero."""
    K = kernel(spec.rank, spec.genus, spec.points, poincare_point())
    val = tensor_hall_scalar(factors, K)
    d = total_dim(spec)
    if val.is_zero():
        return None
    return val * rf(_V**d) if d >= 0 else val / rf(_V ** (-d))


def poincare(spec):
    """Poincare polynomial (compactly supported intersection cohomology)."""
    val = _v_scaled_pairing(schur_factors(spec), spec)
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
    r, factors = twisted_factors(spec, twist)
    val = _v_scaled_pairing(factors, spec)
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


def column_factors(mus):
    """(n, tensor_hall_scalar factors of
    s_{mu_1}[X_1] ... s_{mu_k}[X_k] p_(n)[X_{k+1}] h_(n-1,1)[X_{k+2}])
    for partitions mu_1..mu_k of one size n."""
    mus = [Partition(m) for m in mus]
    if not mus:
        raise ValueError("need at least one factor")
    n = mus[0].size
    if any(m.size != n for m in mus):
        raise ValueError("all factors must have the same size")
    h = Partition((n - 1, 1)) if n > 1 else Partition((1,))
    return n, tuple((("schur", m, 1),) for m in mus) + (
        (("powersum", Partition((n,)), 1),),
        (("complete", h, 1),),
    )


def _column_sign(n, val):
    """(-1)^(n-1) val: the sign of the column evaluators."""
    return -val if (n - 1) % 2 else val


def c_from_trace(mu, nu):
    """Column structure coefficient at q=0 via the twisted trace formula,
    as a polynomial in t."""
    n, factors = column_factors((mu, nu))
    K = kernel(n, 0, 4, _TRACE_POINT)
    val = _column_sign(n, tensor_hall_scalar(factors, K))
    return _as_polynomial_in(val, "t", error=ValueError) if not val.is_zero() else Polynomial.const(0)


def c_from_log(factors):
    """Column structure coefficient through the genus-zero Log series.

    Exact: must agree with the Kostka-matrix computation.
    """
    n, alphabets = column_factors(factors)
    comp = log_cauchy_series(0, len(alphabets), n).component(n)
    val = tensor_hall_scalar(alphabets, comp) * _ZW_SCALE
    return _column_sign(n, val.rename({"Z": "q", "W": "t"}))


def mixed_hodge_rhs(mu, nu):
    """Conjectural column coefficient via the mixed-Hodge specialization."""
    n, factors = column_factors((mu, nu))
    val = tensor_hall_scalar(factors, kernel(n, 0, 4))
    return _column_sign(n, specialize_kernel(val, *mixed_hodge_point()))


def q1_rhs(mu, nu):
    """The q=1 value through the (Z, W, eps) = (1, t, -sqrt t) point.

    Pairing happens before specialization because Z=1 can be singular;
    a PoleError propagates to the caller. The alternating sign matches
    the additive twisted-trace convention (the n=2 case fixes it).
    """
    n, factors = column_factors((mu, nu))
    val = tensor_hall_scalar(factors, kernel(n, 0, 4))
    return _column_sign(n, val.specialize({"Z": rf(1), "W": rf(_T)}))
