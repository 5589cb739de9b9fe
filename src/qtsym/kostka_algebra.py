"""The product algebra spanned by modified Kostka polynomials.

The coproduct sends a modified Macdonald element to its two-alphabet
square; dualizing under the Hall pairing gives a commutative associative
product on degree-n symmetric functions. Its structure coefficients in
the Schur basis come straight out of the Kostka matrix and its inverse:

    c^lambda_(mu1..muk) = sum_eta L[eta,lambda] * prod_j K[mu_j, eta].

The adjoint operators psi_F are diagonal in the Macdonald basis; with
F = e_n this is the nabla operator of Bergeron and Garsia, whose pairing
against e_n produces the higher (q,t)-Catalan numbers.
"""

from __future__ import annotations

from .coeffring import Polynomial, rf
from .macdonald import (
    build_table,
    corner_free_product,
    derived,
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


def structure_coefficients_all(factors, table=None):
    """dict target -> c^target_factors for one tuple of factors.

    Memoized for the registered tables only: a result computed from a
    caller's table is neither cached nor served from the cache.
    """
    factors = tuple(sorted(Partition(m) for m in factors))
    if not factors:
        raise ValueError("need at least one factor")
    n = factors[0].size
    if any(m.size != n for m in factors):
        raise ValueError("all factors must have equal size")
    if table is not None:
        return _structure_coefficients(factors, table)
    return _registered_coefficients(factors)


@derived
def _registered_coefficients(factors):
    return _structure_coefficients(factors, build_table(factors[0].size))


def _structure_coefficients(factors, table):
    products = {}
    for eta in table.partitions:
        term = rf(1)
        for mu in factors:
            term = term * table.kostka_entry(mu, eta)
        products[eta] = term
    out = {}
    for target in table.partitions:
        acc = rf(0)
        for eta in table.partitions:
            entry = table.kostka_inverse_entry(eta, target)
            if not (entry.is_zero() or products[eta].is_zero()):
                acc = acc + entry * products[eta]
        out[target] = acc
    return out


def structure_coefficient(factors, target, table=None):
    """c^target_factors: the Schur coefficient of the iterated product."""
    target = Partition(target)
    factors = [Partition(m) for m in factors]
    if factors and target.size != factors[0].size:
        raise ValueError("all partitions must have equal size")
    return structure_coefficients_all(factors, table)[target]


def macdonald_expansion(G, table=None):
    """Coefficients of G on the modified Macdonald basis."""
    n = _require_degree(G)
    table = table or build_table(n)
    schur = expand1(G, "schur")
    out = {}
    for eta in table.partitions:
        acc = rf(0)
        for lam, c in schur.items():
            entry = table.kostka_inverse_entry(eta, lam)
            if not entry.is_zero():
                acc = acc + entry * c
        if not acc.is_zero():
            out[eta] = acc
    return out


def from_macdonald_expansion(coeffs, table):
    out = SymFunc.zero(1)
    for eta, c in coeffs.items():
        out = out + table.htilde_sym(eta) * c
    return out


def kostka_product(F, G):
    """The algebra product; operands must share one homogeneous degree."""
    nf = _require_degree(F)
    ng = _require_degree(G)
    if nf != ng:
        raise ValueError("degree mismatch: %d vs %d" % (nf, ng))
    table = build_table(nf)
    u = {eta: hall_scalar(F, table.htilde_sym(eta)) for eta in table.partitions}
    v = {eta: hall_scalar(G, table.htilde_sym(eta)) for eta in table.partitions}
    out = SymFunc.zero(1)
    for lam in table.partitions:
        acc = rf(0)
        for eta in table.partitions:
            prod = u[eta] * v[eta]
            if prod.is_zero():
                continue
            entry = table.kostka_inverse_entry(eta, lam)
            if not entry.is_zero():
                acc = acc + prod * entry
        if not acc.is_zero():
            out = out + s_elem(lam) * acc
    return out


def delta_sharp(G, table=None):
    """The coproduct: the Macdonald basis maps to its two-alphabet square."""
    n = _require_degree(G)
    table = table or build_table(n)
    coeffs = macdonald_expansion(G, table)
    out = SymFunc.zero(2)
    for eta, c in coeffs.items():
        out = out + table.htilde_sym(eta, 0, 2) * table.htilde_sym(eta, 1, 2) * c
    return out


def psi(F, G):
    """Adjoint of multiplying by F in the product algebra.

    Diagonal in the Macdonald basis: the eigenvalue on the eta component
    is the Hall pairing of F against that Macdonald element.
    """
    n = _require_degree(G)
    if _require_degree(F) != n:
        raise ValueError("degree mismatch")
    table = build_table(n)
    coeffs = macdonald_expansion(G, table)
    out = SymFunc.zero(1)
    for eta, c in coeffs.items():
        eig = hall_scalar(F, table.htilde_sym(eta))
        if not eig.is_zero():
            out = out + table.htilde_sym(eta) * (c * eig)
    return out


def nabla_eigenvalue(lam):
    """q^{n(lam')} t^{n(lam)}."""
    lam = Partition(lam)
    return rf(_Q ** lam.conjugate().nstat() * _T ** lam.nstat())


def nabla(G, power=1):
    """The nabla operator (psi of the top elementary symmetric function)."""
    n = _require_degree(G)
    table = build_table(n)
    coeffs = macdonald_expansion(G, table)
    out = SymFunc.zero(1)
    for eta, c in coeffs.items():
        out = out + table.htilde_sym(eta) * (c * nabla_eigenvalue(eta) ** power)
    return out


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
    out = SymFunc.zero(1)
    for lam in table.partitions:
        weight = rf(phi_weight(lam) * corner_free_product(lam)) / table.norm(lam)
        if not weight.is_zero():
            out = out + table.htilde_sym(lam) * weight
    return out * rf((_Q - 1) * (1 - _T))
