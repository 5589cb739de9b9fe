"""The product algebra spanned by modified Kostka polynomials.

The coproduct sends a modified Macdonald element to its two-alphabet
square; dualizing under the Hall pairing gives a commutative associative
product on degree-n symmetric functions. Its structure coefficients in
the Schur basis come straight out of the Kostka matrix and its inverse:

    c^lambda_(mu1..muk) = sum_eta L[eta,lambda] * prod_j K[mu_j, eta].

Every operation is a sum over eta of terms whose denominators divide
the norm a_eta, whose irreducible factors are known
(macdonald.norm_factors). One routine, _macdonald_sum, takes each such
sum over the per-factor maximum of its denominators and reduces it once
by exact division, with no gcd; a denominator part foreign to a_eta, as
from an operand with rational coefficients, goes into one lcm that is
divided out at the end. Every operation reads the registered table of
its degree (macdonald.build_table); a table built elsewhere goes in
through macdonald.register_table.

The adjoint operators psi_F are diagonal in the Macdonald basis; with
F = e_n this is the nabla operator of Bergeron and Garsia, whose pairing
against e_n produces the higher (q,t)-Catalan numbers.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product
from math import lcm as _int_lcm
from math import prod

from .coeffring import P_ONE, P_ZERO, RF_ONE, Polynomial, divide_out, gcd_cofactors, reduce_by_factors, rf
from .macdonald import (
    build_table,
    corner_free_product,
    derived,
    norm_factors,
    phi_weight,
)
from .partitions import Partition
from .symfunc import (
    SymFunc,
    e_elem,
    expand1,
    hall_scalar,
    s_elem,
)

_Q = Polynomial.var("q")
_T = Polynomial.var("t")


def _require_degree(F):
    degs = {sum(key[0]) for key in F.terms}
    if len(degs) != 1:
        raise ValueError("operand must be homogeneous, got degrees %s" % sorted(degs))
    return next(iter(degs))


def structure_coefficients_all(factors):
    """dict target -> c^target_factors for one tuple of factors."""
    factors = tuple(sorted(Partition(m) for m in factors))
    if not factors:
        raise ValueError("need at least one factor")
    n = factors[0].size
    if any(m.size != n for m in factors):
        raise ValueError("all factors must have equal size")
    return _structure_coefficients(factors)


@derived
def _structure_coefficients(factors):
    table = build_table(factors[0].size)
    weights = {
        eta: prod((table.kostka_entry(mu, eta) for mu in factors), start=RF_ONE)
        for eta in table.partitions
    }
    return _inverse_kostka_sum(weights, table)


def _inverse_kostka_sum(weights, table):
    """lam -> the sum over eta of K~^-1[eta, lam] * weights[eta]."""
    return {
        lam: _macdonald_sum((eta, table.kostka_inverse_entry(eta, lam), w) for eta, w in weights.items())
        for lam in table.partitions
    }


def _macdonald_sum(terms):
    """The sum of x*w over the (eta, x, w) triples of RationalFunctions,
    reduced once: the denominator of x is split against the factors of
    a_eta, and what is left of it joins the denominator of w in one lcm.
    The products of primitive parts are summed on ints, each times its
    scalar over the lcm of the scalars' denominators. One term with a
    constant w is x*w, already reduced."""
    terms = [(eta, x, w) for eta, x, w in terms if x and w]
    if len(terms) == 1 and terms[0][2].is_constant():
        return terms[0][1] * terms[0][2]
    scaled = []
    common = {}
    lcm = P_ONE
    unit = 1
    for eta, x, w in terms:
        mult, rest = _norm_split(x.den, eta)
        den = rest * w.den
        lcm = lcm * gcd_cofactors(lcm, den)[2]
        s = x.scalar * w.scalar
        unit = _int_lcm(unit, s.denominator)
        scaled.append((s, x.prim * w.prim, dict(mult), den))
        for f, m in mult:
            common[f] = max(common.get(f, 0), m)
    num = P_ZERO
    for s, term, mult, den in scaled:
        for f, m in common.items():
            extra = m - mult.get(f, 0)
            if extra:
                term = term * f**extra
        k = s.numerator * (unit // s.denominator)
        num = num + (term * lcm.divexact(den)).scale(k)
    out = reduce_by_factors(num, common.items(), unit)
    return out if lcm == P_ONE else out / lcm


@lru_cache(maxsize=None)
def _norm_split(den, eta):
    """(((f, m), ...), rest) with den = rest * prod f^m over the irreducible
    factors f of the norm a_eta, each m at most the multiplicity of f in
    a_eta; rest is 1 exactly when den divides a_eta."""
    rest = den
    out = []
    for f, m in norm_factors(eta)[1]:
        rest, k = divide_out(rest, f, m)
        if k:
            out.append((f, k))
    return tuple(out), rest


def structure_coefficient(factors, target):
    """c^target_factors: the Schur coefficient of the iterated product."""
    target = Partition(target)
    factors = [Partition(m) for m in factors]
    if factors and target.size != factors[0].size:
        raise ValueError("all partitions must have equal size")
    return structure_coefficients_all(factors)[target]


def macdonald_expansion(G):
    """Coefficients of G on the modified Macdonald basis."""
    table = build_table(_require_degree(G))
    schur = expand1(G, "schur")
    out = {}
    for eta in table.partitions:
        c = _macdonald_sum((eta, table.kostka_inverse_entry(eta, lam), g) for lam, g in schur.items())
        if not c.is_zero():
            out[eta] = c
    return out


def from_macdonald_expansion(coeffs):
    """sum over eta of H~_eta * coeffs[eta]: the inverse of macdonald_expansion."""
    return _htilde_sum(coeffs, 1)


def _htilde_sum(coeffs, k):
    """sum over eta of coeffs[eta] * H~_eta[X_1] ... H~_eta[X_k], through its
    Schur coefficients sum_eta coeffs[eta] * prod_j K~[lam_j, eta]; zero
    when coeffs is empty."""
    if not coeffs:
        return SymFunc.zero(k)
    table = build_table(Partition(next(iter(coeffs))).size)
    return _schur_sum({
        key: _macdonald_sum(
            (eta, rf(c), prod((table.kostka_entry(lam, eta) for lam in key), start=RF_ONE))
            for eta, c in coeffs.items()
        )
        for key in product(table.partitions, repeat=k)
    }, k)


def _schur_sum(coeffs, k):
    """sum of c * s_lam1[X_1] ... s_lamk[X_k] over the (lam1, ..., lamk) -> c items."""
    out = SymFunc.zero(k)
    for key, c in coeffs.items():
        if c:
            out = out + reduce(SymFunc.tensor, map(s_elem, key)) * c
    return out


def kostka_product(F, G):
    """The algebra product; operands must share one homogeneous degree."""
    nf = _require_degree(F)
    ng = _require_degree(G)
    if nf != ng:
        raise ValueError("degree mismatch: %d vs %d" % (nf, ng))
    table = build_table(nf)
    weights = {}
    for eta in table.partitions:
        H = table.htilde_sym(eta)
        weights[eta] = hall_scalar(F, H) * hall_scalar(G, H)
    return _schur_sum({(lam,): c for lam, c in _inverse_kostka_sum(weights, table).items()}, 1)


def delta_sharp(G):
    """The coproduct: the Macdonald basis maps to its two-alphabet square."""
    return _htilde_sum(macdonald_expansion(G), 2)


def psi(F, G):
    """Adjoint of multiplying by F in the product algebra.

    Diagonal in the Macdonald basis: the eigenvalue on the eta component
    is the Hall pairing of F against that Macdonald element.
    """
    n = _require_degree(G)
    if _require_degree(F) != n:
        raise ValueError("degree mismatch")
    table = build_table(n)
    weighted = {}
    for eta, c in macdonald_expansion(G).items():
        eig = hall_scalar(F, table.htilde_sym(eta))
        if not eig.is_zero():
            weighted[eta] = c * eig
    return from_macdonald_expansion(weighted)


def nabla_eigenvalue(lam):
    """q^{n(lam')} t^{n(lam)}."""
    lam = Partition(lam)
    return rf(_Q ** lam.conjugate().nstat() * _T ** lam.nstat())


def nabla(G, power=1):
    """The nabla operator (psi of the top elementary symmetric function)."""
    coeffs = macdonald_expansion(G)
    return from_macdonald_expansion(
        {eta: c * nabla_eigenvalue(eta) ** power for eta, c in coeffs.items()}
    )


def qt_catalan(n, m=1):
    """Higher (q,t)-Catalan number: <e_n, nabla^m e_n>.

    Computed both through the diagonal operator and through the
    (m+1)-fold structure coefficient at the column partition; the two
    routes must agree exactly.
    """
    if n < 1:
        raise ValueError("n must be positive")
    en = e_elem(Partition((n,)))
    via_nabla = hall_scalar(en, nabla(en, power=m))
    ones = Partition((1,) * n)
    via_coeff = structure_coefficient([ones] * (m + 1), ones)
    if via_nabla != via_coeff:
        raise AssertionError(
            "catalan routes disagree at n=%d m=%d: %s vs %s"
            % (n, m, via_nabla, via_coeff)
        )
    return via_nabla


def garsia_haiman_sum(n):
    """The weighted Macdonald expansion that collapses to the alternating
    Schur function: (q-1)(1-t) sum_lam phi_lam Pi'_lam H_lam / a_lam.

    Equals (-1)^(n-1) s_{1^n} exactly.
    """
    table = build_table(n)
    weights = {}
    for lam in table.partitions:
        weight = rf(phi_weight(lam) * corner_free_product(lam)) / table.norm(lam)
        if not weight.is_zero():
            weights[lam] = weight
    return from_macdonald_expansion(weights) * rf((_Q - 1) * (1 - _T))
