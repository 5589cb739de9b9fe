"""The product algebra spanned by modified Kostka polynomials.

The coproduct sends a modified Macdonald element to its two-alphabet
square; dualizing under the Hall pairing gives a commutative associative
product on degree-n symmetric functions. Its structure coefficients in
the Schur basis come straight out of the Kostka matrix and its inverse:

    c^lambda_(mu1..muk) = sum_eta L[eta,lambda] * prod_j K[mu_j, eta].

Every denominator of L[eta, .] divides the norm a_eta, whose irreducible
factors are known (macdonald.norm_factors). So each sum is taken over a
common denominator built from those factors and reduced once, by exact
division, with no polynomial gcd; a caller's table whose L denominators
do not divide the norms is rejected with ValueError.

The adjoint operators psi_F are diagonal in the Macdonald basis; with
F = e_n this is the nabla operator of Bergeron and Garsia, whose pairing
against e_n produces the higher (q,t)-Catalan numbers.
"""

from __future__ import annotations

from functools import lru_cache

from .coeffring import P_ONE, P_ZERO, Polynomial, reduce_by_factors, rf
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
        return _structure_coefficients(factors, _table_of_degree(n, table))
    return _registered_coefficients(factors)


@derived
def _registered_coefficients(factors):
    return _structure_coefficients(factors, build_table(factors[0].size))


def _table_of_degree(n, table):
    """table, or the registered degree-n table when table is None;
    ValueError when a caller's table has another degree."""
    if table is None:
        return build_table(n)
    if table.n != n:
        raise ValueError("table has degree %d, operands have degree %d" % (table.n, n))
    return table


def _structure_coefficients(factors, table):
    # Each K~^-1 denominator divides a_eta; every term is brought over the
    # per-factor maximum of its target's denominators and the sum is
    # reduced once by trial division.
    products = {}
    for eta in table.partitions:
        term = P_ONE
        for mu in factors:
            term = term * table.kostka_entry(mu, eta).as_polynomial()
        products[eta] = term
    out = {}
    for target in table.partitions:
        terms = []
        common = {}
        for eta in table.partitions:
            entry = table.kostka_inverse_entry(eta, target)
            if entry.is_zero() or products[eta].is_zero():
                continue
            mult = dict(_den_multiplicities(entry.den, eta))
            terms.append((entry.num * products[eta], mult))
            for f, m in mult.items():
                common[f] = max(common.get(f, 0), m)
        num = P_ZERO
        for term, mult in terms:
            for f, m in common.items():
                extra = m - mult.get(f, 0)
                if extra:
                    term = term * f**extra
            num = num + term
        out[target] = reduce_by_factors(num, common.items())
    return out


@lru_cache(maxsize=None)
def _den_multiplicities(den, eta):
    """((f, m), ...) with den = prod f^m over the irreducible factors f of
    the norm a_eta; ValueError when den does not divide a_eta."""
    rest = den
    out = []
    for f, m in norm_factors(eta)[1]:
        k = 0
        while k < m:
            try:
                rest = rest.divexact(f)
            except ValueError:
                break
            k += 1
        if k:
            out.append((f, k))
    if rest != P_ONE:
        raise ValueError("denominator %s does not divide the norm of %s" % (den, eta))
    return tuple(out)


def structure_coefficient(factors, target, table=None):
    """c^target_factors: the Schur coefficient of the iterated product."""
    target = Partition(target)
    factors = [Partition(m) for m in factors]
    if factors and target.size != factors[0].size:
        raise ValueError("all partitions must have equal size")
    return structure_coefficients_all(factors, table)[target]


def macdonald_expansion(G, table=None):
    """Coefficients of G on the modified Macdonald basis."""
    table = _table_of_degree(_require_degree(G), table)
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
    """sum over eta of H~_eta * coeffs[eta]: the inverse of macdonald_expansion."""
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
    table = _table_of_degree(_require_degree(G), table)
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
    weighted = {}
    for eta, c in macdonald_expansion(G, table).items():
        eig = hall_scalar(F, table.htilde_sym(eta))
        if not eig.is_zero():
            weighted[eta] = c * eig
    return from_macdonald_expansion(weighted, table)


def nabla_eigenvalue(lam):
    """q^{n(lam')} t^{n(lam)}."""
    lam = Partition(lam)
    return rf(_Q ** lam.conjugate().nstat() * _T ** lam.nstat())


def nabla(G, power=1):
    """The nabla operator (psi of the top elementary symmetric function)."""
    n = _require_degree(G)
    table = build_table(n)
    coeffs = macdonald_expansion(G, table)
    return from_macdonald_expansion(
        {eta: c * nabla_eigenvalue(eta) ** power for eta, c in coeffs.items()}, table
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
    return from_macdonald_expansion(weights, table) * rf((_Q - 1) * (1 - _T))
