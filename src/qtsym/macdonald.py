"""Modified Macdonald polynomials from their linear characterization.

For each partition rho of n, the modified Macdonald polynomial is pinned
down inside the span of degree-n power sums by three families of linear
conditions:

  (a) the monomial expansion of H[X(t-1)] is supported on mu below rho
      in dominance order,
  (b) the monomial expansion of H[X(q-1)] is supported on mu below the
      conjugate of rho,
  (c) H[1; q,t] = 1, i.e. the power-sum coefficients sum to 1.

The resulting (overdetermined, uniquely solvable) system is solved
fraction-free over Q[q,t]; every constraint is re-verified on the
solution and any violation raises SingularSystem. The table bundles the
Schur-basis transition matrix (the modified Kostka polynomials), its
inverse, and the squared norms for the (q,t)-Hall pairing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .coeffring import Polynomial, RationalFunction, rf
from .linalg import SingularSystem, solve_bareiss
from .partitions import Partition, dominance_leq, partitions_of
from .plethysm import AlphabetExpr, substitute, z_diagonal
from .symfunc import (
    SymFunc,
    _check_cap,
    e_elem,
    hprod_to_p,
    mn_character,
    qt_pairing_scalar,
)

_Q = Polynomial.var("q")
_T = Polynomial.var("t")


class MacdonaldTable:
    """Degree-n table: power-sum expansions, Kostka matrix and inverse, norms."""

    __slots__ = ("n", "partitions", "htilde", "kostka", "kostka_inv", "norms")

    def __init__(self, n, partitions, htilde, kostka, kostka_inv, norms):
        self.n = n
        self.partitions = partitions
        self.htilde = htilde
        self.kostka = kostka
        self.kostka_inv = kostka_inv
        self.norms = norms

    def htilde_p_dict(self, rho):
        """Power-sum expansion of the modified Macdonald polynomial."""
        return self.htilde[Partition(rho)]

    def htilde_sym(self, rho, alphabet=0, k=1):
        return SymFunc.from_p_dict(self.htilde[Partition(rho)], alphabet, k)

    def kostka_entry(self, lam, rho):
        return self.kostka[(Partition(lam), Partition(rho))]

    def kostka_inverse_entry(self, eta, lam):
        return self.kostka_inv[(Partition(eta), Partition(lam))]

    def norm(self, lam):
        return self.norms[Partition(lam)]

    def __eq__(self, other):
        if not isinstance(other, MacdonaldTable):
            return NotImplemented
        return (
            self.n == other.n
            and self.partitions == other.partitions
            and self.htilde == other.htilde
            and self.kostka == other.kostka
            and self.kostka_inv == other.kostka_inv
            and self.norms == other.norms
        )


@lru_cache(maxsize=None)
def _pairing_p_h(n):
    """Matrix <p_kappa, h_mu> of integers, as nested dicts."""
    out = {}
    for mu in partitions_of(n):
        row = hprod_to_p(mu)
        for kappa, c in row.items():
            out[(kappa, mu)] = c * kappa.z()
    return out


@lru_cache(maxsize=None)
def _scale_factor(kappa, varname):
    """prod_i (x^{kappa_i} - 1) for the substitution X -> (x-1)X."""
    x = Polynomial.var(varname)
    out = Polynomial.const(1)
    for part in kappa:
        out = out * (x**part - 1)
    return out


def _system_rows(n, rho, t_value=None):
    """Constraint matrix for rho; with t_value the t-family is evaluated
    at an integer, leaving a univariate-in-q system."""
    parts = partitions_of(n)
    pairing = _pairing_p_h(n)
    rows = []
    rhs = []
    for mu in parts:
        if not dominance_leq(mu, rho):
            row = []
            for kappa in parts:
                factor = _scale_factor(kappa, "t")
                if t_value is not None:
                    factor = Polynomial.const(factor.eval_fraction({"t": t_value}))
                row.append(factor.scale(pairing.get((kappa, mu), Fraction(0))))
            rows.append(row)
            rhs.append(Polynomial.const(0))
    rho_c = rho.conjugate()
    for mu in parts:
        if not dominance_leq(mu, rho_c):
            rows.append(
                [
                    _scale_factor(kappa, "q").scale(pairing.get((kappa, mu), Fraction(0)))
                    for kappa in parts
                ]
            )
            rhs.append(Polynomial.const(0))
    rows.append([Polynomial.const(1)] * len(parts))
    rhs.append(Polynomial.const(1))
    return rows, rhs


class _FastPathFailed(Exception):
    pass


def _lagrange_coeffs(points, values):
    """Exact ascending coefficients of the interpolating polynomial,
    via Newton divided differences."""
    m = len(points)
    table = [Fraction(v) for v in values]
    dd = [table[0]]
    for level in range(1, m):
        table = [
            (table[i + 1] - table[i]) / (points[i + level] - points[i])
            for i in range(m - level)
        ]
        dd.append(table[0])
    out = [Fraction(0)] * m
    acc = [Fraction(1)]  # running product (x - p0)...(x - p_{i-1})
    for i in range(m):
        for j, c in enumerate(acc):
            out[j] += dd[i] * c
        if i < m - 1:
            nxt = [Fraction(0)] * (len(acc) + 1)
            for j, c in enumerate(acc):
                nxt[j] -= c * points[i]
                nxt[j + 1] += c
            acc = nxt
    return out


def _solve_interpolated(n, rho):
    """Evaluation-interpolation fast path: sample the t-family at integers,
    solve univariate-in-q systems, and rebuild the bivariate solution.

    The caller re-verifies every constraint exactly, so a failure here is
    harmless (the caller falls back to the direct fraction-free solve).
    """
    parts = partitions_of(n)
    bound = n * (n - 1) // 2 + 1
    samples = []
    points = []
    t0 = 2
    attempts = 0
    while len(points) < bound:
        attempts += 1
        if attempts > bound + 12:
            raise _FastPathFailed("not enough regular sample points")
        rows, rhs = _system_rows(n, rho, t_value=Fraction(t0))
        t0 += 1
        try:
            sol = solve_bareiss(rows, rhs)
        except SingularSystem:
            continue
        if any(not c.is_polynomial() for c in sol):
            raise _FastPathFailed("sample solution not polynomial in q")
        points.append(Fraction(t0 - 1))
        samples.append([c.as_polynomial() for c in sol])
    out = {}
    for idx, kappa in enumerate(parts):
        q_exponents = set()
        for sample in samples:
            poly = sample[idx]
            i_q = poly.vars.index("q") if "q" in poly.vars else None
            for e in poly.terms:
                q_exponents.add(e[i_q] if i_q is not None else 0)
        terms = {}
        for a in sorted(q_exponents):
            values = []
            for sample in samples:
                poly = sample[idx]
                i_q = poly.vars.index("q") if "q" in poly.vars else None
                val = Fraction(0)
                for e, c in poly.terms.items():
                    if (e[i_q] if i_q is not None else 0) == a:
                        val += Fraction(c)
                values.append(val)
            for b, c in enumerate(_lagrange_coeffs(points, values)):
                if c:
                    terms[(a, b)] = c
        out[kappa] = rf(Polynomial(("q", "t"), terms))
    return out


def _solve_one(n, rho):
    try:
        coeffs = _solve_interpolated(n, rho)
        _verify_solution(n, rho, coeffs)
        return {kappa: c for kappa, c in coeffs.items() if not c.is_zero()}
    except (_FastPathFailed, SingularSystem):
        pass
    rows, rhs = _system_rows(n, rho)
    try:
        sol = solve_bareiss(rows, rhs)
    except SingularSystem as exc:
        raise SingularSystem("no unique solution for %s: %s" % (rho, exc)) from exc
    coeffs = dict(zip(partitions_of(n), sol))
    _verify_solution(n, rho, coeffs)
    return {kappa: c for kappa, c in coeffs.items() if not c.is_zero()}


def _verify_solution(n, rho, coeffs):
    parts = partitions_of(n)
    pairing = _pairing_p_h(n)
    total = rf(0)
    for kappa in parts:
        total = total + coeffs[kappa]
    if total != rf(1):
        raise SingularSystem("normalization fails for %s" % (rho,))
    for varname, bound in (("t", rho), ("q", rho.conjugate())):
        for mu in parts:
            if dominance_leq(mu, bound):
                continue
            acc = rf(0)
            for kappa in parts:
                p = pairing.get((kappa, mu))
                if p:
                    acc = acc + coeffs[kappa] * rf(_scale_factor(kappa, varname).scale(p))
            if not acc.is_zero():
                raise SingularSystem(
                    "triangularity in %s fails for %s at %s" % (varname, rho, mu)
                )


_TABLES = {}


def build_table(n):
    """Build (or fetch) the full degree-n Macdonald table."""
    if n in _TABLES:
        return _TABLES[n]
    if n < 1:
        raise ValueError("table degree must be at least 1")
    _check_cap(n)
    parts = partitions_of(n)
    htilde = {rho: _solve_one(n, rho) for rho in parts}
    kostka = {}
    for rho in parts:
        coeffs = htilde[rho]
        for lam in parts:
            acc = rf(0)
            for kappa, c in coeffs.items():
                chi = mn_character(lam, kappa)
                if chi:
                    acc = acc + c * chi
            kostka[(lam, rho)] = acc
    norms = {lam: rf(norm_product(lam)) for lam in parts}
    # Orthogonality turns inversion into pairings: the coefficient of the
    # Macdonald element H_eta in s_lam is (s_lam, H_eta)^{q,t} / a_eta.
    kostka_inv = {}
    from .symfunc import qt_factor

    for eta in parts:
        scaled = {
            kappa: c * rf(qt_factor(kappa)) for kappa, c in htilde[eta].items()
        }
        inv_norm = norms[eta].inverse()
        for lam in parts:
            acc = rf(0)
            for kappa, c in scaled.items():
                chi = mn_character(lam, kappa)
                if chi:
                    acc = acc + c * chi
            kostka_inv[(eta, lam)] = acc * inv_norm
    table = MacdonaldTable(n, parts, htilde, kostka, kostka_inv, norms)
    _TABLES[n] = table
    return table


def register_table(table):
    """Install a table built elsewhere (cache reload) after sanity checks.

    Drops everything derived from the previous tables.
    """
    n = table.n
    if table.partitions != partitions_of(n):
        raise ValueError("table partition order is not canonical")
    _TABLES[n] = table
    _clear_derived()


def clear_tables():
    """Drop the tables and everything derived from them."""
    _TABLES.clear()
    _clear_derived()


def _clear_derived():
    # local imports: both modules import this one
    from .kernel import clear_kernel_caches
    from .kostka_algebra import _C_CACHE

    _C_CACHE.clear()
    clear_kernel_caches()


def norm_product(lam):
    """Cell product formula for the squared (q,t)-norm of H_lam."""
    lam = Partition(lam)
    out = Polynomial.const(1)
    for (i, j) in lam.cells():
        a = lam.arm(i, j)
        l = lam.leg(i, j)
        out = out * (_Q ** (a + 1) - _T**l) * (_Q**a - _T ** (l + 1))
    return out


def phi_weight(lam):
    """Sum of q^{j-1} t^{i-1} over the cells of the diagram."""
    out = Polynomial.const(0)
    for (i, j) in Partition(lam).cells():
        out = out + _Q ** (j - 1) * _T ** (i - 1)
    return out


def corner_free_product(lam):
    """Product of (1 - q^{j-1} t^{i-1}) over cells, omitting the top-left one."""
    out = Polynomial.const(1)
    for (i, j) in Partition(lam).cells():
        if (i, j) == (1, 1):
            continue
        out = out * (1 - _Q ** (j - 1) * _T ** (i - 1))
    return out


def evaluation_product(lam, uvar="u"):
    """prod over cells of (1 - u q^{j-1} t^{i-1})."""
    u = Polynomial.var(uvar)
    out = Polynomial.const(1)
    for (i, j) in Partition(lam).cells():
        out = out * (1 - u * _Q ** (j - 1) * _T ** (i - 1))
    return out


def qt_norm_pairing(table, lam, mu):
    """(H_lam, H_mu)^{q,t} straight from the power-sum expansions."""
    F = table.htilde_sym(lam)
    G = table.htilde_sym(mu)
    return qt_pairing_scalar(F, G)


def delta1(F):
    """The lowering operator F -> F - F[X + (1-q)(1-t)/z] Exp[-zX] |_{z^0}.

    Homogeneous modified Macdonald polynomials are eigenfunctions with
    eigenvalue (1-t)(1-q) * phi_weight.
    """
    if F.k != 1:
        raise ValueError("delta1 acts on single-alphabet functions")
    if F.is_zero():
        return F
    degs = {sum(key[0]) for key in F.terms}
    n = max(degs)
    zi = rf(Polynomial.var("zi"))
    c = rf((1 - _Q) * (1 - _T))
    shifted = substitute(
        F, 0, AlphabetExpr.alphabet(0) + AlphabetExpr.scalar(c * zi)
    )
    z = rf(Polynomial.var("z"))
    expz = SymFunc.zero(1)
    for m in range(n + 1):
        expz = expz + e_elem(Partition((m,)) if m else Partition()) * (
            rf(Fraction((-1) ** m)) * z**m
        )
    product = shifted * expz
    dropped = z_diagonal(product)
    return F - dropped


def delta1_eigenvalue(lam):
    """(1-t)(1-q) * phi_weight(lam) as a RationalFunction."""
    return rf((1 - _T) * (1 - _Q) * phi_weight(lam))
