"""The product algebra spanned by modified Kostka polynomials.

The coproduct sends a modified Macdonald element to its two-alphabet
square; dualizing under the Hall pairing gives a commutative associative
product on degree-n symmetric functions. Its structure coefficients in
the Schur basis come straight out of the Kostka matrix and its inverse:

    c^lambda_(mu1..muk) = sum_eta L[eta,lambda] * prod_j K[mu_j, eta].

Every operation is a sum over eta of terms whose denominators divide
the norm a_eta, whose irreducible factors are known
(macdonald.norm_factors). One routine, _macdonald_sum, adds each such
sum as the Cauchy series is added (kernel._cauchy_component), with no
gcd; a sum with a denominator a_eta does not account for, as from an
operand with rational coefficients, and a sum with an operand outside
Q(q,t) take plain RationalFunction arithmetic. Every operation reads
the registered table of its degree (macdonald.build_table); a table
built elsewhere goes in through macdonald.register_table.

The adjoint operators psi_F are diagonal in the Macdonald basis; with
F = e_n this is the nabla operator of Bergeron and Garsia, whose pairing
against e_n produces the higher (q,t)-Catalan numbers.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product
from math import prod

from .coeffring import (
    P_ONE,
    RF_ZERO,
    Polynomial,
    factored_sum,
    rf,
    split_factors,
    split_over,
    split_product,
)
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
    weights = {eta: [table.kostka_entry(mu, eta) for mu in factors] for eta in table.partitions}
    return _inverse_kostka_sum(weights, table)


def _inverse_kostka_sum(weights, table):
    """lam -> the sum over eta of K~^-1[eta, lam] times the product of the
    weight factors weights[eta]."""
    return {
        lam: _macdonald_sum((eta, table.kostka_inverse_entry(eta, lam), ws) for eta, ws in weights.items())
        for lam in table.partitions
    }


def _macdonald_sum(terms):
    """The sum of x * prod(ws) over the (eta, x, ws) terms of
    RationalFunctions; _plain_sum unless every x and weight factor lies
    in Q(q,t), every x has a denominator that divides a_eta and every
    weight factor is a polynomial.

    With a_eta = unit * prod f^m, such an x = s * prim / prod f^d is the
    split (s * unit, prim, {f: m - d}) times 1 / a_eta, with no trial
    division. A term multiplies it by the split of each weight factor
    and goes over a_eta, and the terms are added by factored_sum."""
    terms = [(eta, x, ws) for eta, x, ws in terms if x and all(ws)]
    out = []
    for eta, x, ws in terms:
        if not all({"q", "t"}.issuperset(c.prim.vars + c.den.vars) for c in (x, *ws)):
            return _plain_sum(terms)
        rest, deficit = _norm_split(x.den, eta)
        if rest != P_ONE or not all(w.is_polynomial() for w in ws):
            return _plain_sum(terms)
        norm = norm_factors(eta)
        term = (x.scalar * norm[0], x.prim, {f: m - deficit.get(f, 0) for f, m in norm[1]})
        for w in ws:
            term = split_product(term, (w.scalar,) + _norm_split(w.prim, eta))
        out.append(split_over(term, norm))
    return factored_sum(out)


def _plain_sum(terms):
    """The sum of x * prod(ws) over the (eta, x, ws) terms in
    RationalFunction arithmetic."""
    return sum((prod(ws, start=x) for _, x, ws in terms), RF_ZERO)


@lru_cache(maxsize=None)
def _norm_split(p, eta):
    """split_factors of p against the factors of a_eta: for a primitive p
    with positive leading coefficient, the cofactor is 1 iff p | a_eta."""
    return split_factors(p, norm_factors(eta)[1])


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
        c = _macdonald_sum((eta, table.kostka_inverse_entry(eta, lam), (g,)) for lam, g in schur.items())
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
            (eta, rf(c), [table.kostka_entry(lam, eta) for lam in key]) for eta, c in coeffs.items()
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
        weights[eta] = (hall_scalar(F, H), hall_scalar(G, H))
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
