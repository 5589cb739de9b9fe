"""Modified Macdonald polynomials from the Haglund-Haiman-Loehr formula.

Each H~_rho is summed over the fillings of the diagram of rho, weighted
by q^inv t^maj (J. Amer. Math. Soc. 18 (2005)), and mapped from the
monomial to the power-sum basis. The result is then checked against the
linear characterization that pins H~_rho down uniquely inside the span
of degree-n power sums:

  (a) the monomial expansion of H[X(t-1)] is supported on mu below rho
      in dominance order,
  (b) the monomial expansion of H[X(q-1)] is supported on mu below the
      conjugate of rho,
  (c) H[1; q,t] = 1, i.e. the power-sum coefficients sum to 1.

Any violation raises SingularSystem. The check runs in one place, the
MacdonaldTable constructor, on every expansion a table is made from, be
it built here or reconstructed from a cache file. A table holds only the
expansions; the Schur-basis transition matrix (the modified Kostka
polynomials) and its inverse are derived from them on first use, and
the squared norms for the (q,t)-Hall pairing are a closed-form product
over the cells (norm_product) and are not stored.

The norms a_eta are products of binomials q^A - t^B whose irreducible
factors are known in closed form (norm_factors). Each inverse entry is
a polynomial pairing over a_eta, reduced by dividing out those factors
(coeffring.split_factors), with no polynomial gcd.

Every sum over the conjugacy classes kappa of S_n (the monomial to
power-sum map, the checks of the characterization, the Kostka entries
and the numerators of the inverse) runs on integers (class_sum): z_kappa
times a power-sum coefficient and the class size n!/z_kappa times a
character are integers, so every term is an integer polynomial. The
content of the integer sum over z_kappa or n! becomes the rational
scalar of the result, beside its primitive integer part (see
coeffring.RationalFunction), so no coefficient is ever a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial

from .coeffring import (
    P_ZERO,
    Polynomial,
    RationalFunction,
    binomial_factors,
    factored_sum,
    rf,
    split_factors,
    split_over,
)
from .linalg import SingularSystem
from .partitions import Partition, dominance_leq, partitions_of
from .plethysm import AlphabetExpr, substitute, z_diagonal
from .symfunc import (
    SymFunc,
    _check_cap,
    _pairing_p_h,
    _scale_factor,
    e_elem,
    m_to_p,
    mn_character,
    qt_factor,
    qt_pairing_scalar,
)

_Q = Polynomial.var("q")
_T = Polynomial.var("t")


class MacdonaldTable:
    """Degree-n table of the power-sum expansions H~_rho, certified when
    made: each H~_rho must satisfy the characterization, which has one
    solution, or SingularSystem is raised. The Kostka matrix and its
    inverse are derived from H~ on first use; the norms are recomputed
    from the cell product on each call."""

    def __init__(self, n, htilde):
        self.n = n
        self.partitions = partitions_of(n)
        for rho in self.partitions:
            _verify_solution(n, rho, htilde[rho])
        self.htilde = htilde

    @cached_property
    def kostka(self):
        """(lam, rho) -> K~[lam,rho] = sum_kappa chi^lam_kappa H~_rho[kappa]."""
        size = factorial(self.n)
        kostka = {}
        for rho in self.partitions:
            weighted = _class_weighted(self.n, self.htilde[rho])
            for lam in self.partitions:
                kostka[(lam, rho)] = class_sum(
                    ((w * mn_character(lam, kappa), c) for kappa, w, c in weighted), size
                )
        return kostka

    @cached_property
    def kostka_inv(self):
        """(eta, lam) -> the coefficient of H~_eta in s_lam."""
        size = factorial(self.n)
        # Orthogonality turns inversion into pairings: the coefficient of the
        # Macdonald element H_eta in s_lam is (s_lam, H_eta)^{q,t} / a_eta. The
        # pairing is a polynomial, a class sum over n! of integer terms, and it
        # is split against the known factors of a_eta and put over a_eta.
        kostka_inv = {}
        for eta in self.partitions:
            norm = norm_factors(eta)
            weighted = _class_weighted(self.n, self.htilde[eta])
            scaled = [(kappa, w, c * qt_factor(kappa)) for kappa, w, c in weighted]
            for lam in self.partitions:
                num = class_sum(((w * mn_character(lam, kappa), c) for kappa, w, c in scaled), size)
                if num:
                    num = factored_sum([split_over((num.scalar,) + split_factors(num.prim, norm[1]), norm)])
                kostka_inv[(eta, lam)] = num
        return kostka_inv

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
        return rf(norm_product(lam))

    def __eq__(self, other):
        if not isinstance(other, MacdonaldTable):
            return NotImplemented
        # K~ and K~^-1 are functions of H~, so H~ decides
        return self.n == other.n and self.htilde == other.htilde


def class_sum(pairs, divisor=1):
    """(sum of w * p over the (w, p) pairs) / divisor, summed on ints, as
    a RationalFunction.

    Each w * c, for a weight w and a coefficient c of its polynomial p,
    must be an integer: one that is not raises ValueError, and is never
    truncated. The divisor joins the content of the integer sum, which
    becomes the rational scalar of the result.
    """
    groups = {}
    for w, p in pairs:
        if type(w) is not int:
            if w.denominator != 1:
                raise ValueError("class weight %s is not an integer" % w)
            w = w.numerator
        if not w:
            continue
        acc = groups.setdefault(p.vars, {})
        for e, c in p.terms.items():
            if type(c) is int:
                c *= w
            else:
                # c = a/b in lowest terms, so w*c is an integer iff b | w
                quo, rem = divmod(w, c.denominator)
                if rem:
                    raise ValueError("class-weighted coefficient %s is not an integer" % (c * w))
                c = c.numerator * quo
            acc[e] = acc.get(e, 0) + c
    total = P_ZERO
    for names, acc in groups.items():
        part = Polynomial(names, acc)
        total = part if total is P_ZERO else total + part
    return RationalFunction(total, divisor)


def _class_weighted(n, coeffs):
    """(kappa, n!/z_kappa, z_kappa * c) for the power-sum coefficients c:
    the class size and an integer polynomial, so a character sum
    sum_kappa chi_kappa c_kappa is class_sum over n! of integer terms.

    z_kappa * c is read off the scalar of c, since its primitive part has
    coprime integer coefficients; ValueError unless it is an integer
    polynomial."""
    size = factorial(n)
    out = []
    for kappa, c in coeffs.items():
        z = kappa.z()
        w = z * c.scalar
        if w.denominator != 1 or not c.is_polynomial():
            raise ValueError("class-weighted coefficient %s is not an integer polynomial" % (c * z))
        out.append((kappa, size // z, c.prim.scale(w)))
    return out


def _filling_weights(mu, lam):
    """(inv, maj) -> number of fillings of the diagram of mu whose content
    is lam, i.e. the m_lam coefficient of the Haglund-Haiman-Loehr sum.

    The diagram is French: row i (from 1, the longest, at the bottom) holds
    the cells (i, 1..mu_i), and cells are read from the top row down, left
    to right. Two cells attack when they share a row, or lie in adjacent
    rows with the upper one strictly to the right. A descent is a cell
    above the bottom row whose letter exceeds the letter just below it;
    inv counts attacking pairs whose earlier-read letter is larger, minus
    the arms of the descents, and maj sums leg + 1 over the descents.
    """
    cells = [(i, j) for i in range(len(mu), 0, -1) for j in range(1, mu[i - 1] + 1)]
    pos = {cell: k for k, cell in enumerate(cells)}
    # Everything a cell is compared with is read before it: the cells to
    # its left, the upper-row cells to its right, and the cell above it.
    attacked = []
    above = []
    for i, j in cells:
        upper = mu[i] if i < len(mu) else 0
        attacked.append(
            [pos[(i, c)] for c in range(1, j)]
            + [pos[(i + 1, c)] for c in range(j + 1, upper + 1)]
        )
        if j <= upper:
            above.append((pos[(i + 1, j)], upper - j, mu.leg(i + 1, j) + 1))
        else:
            above.append(None)
    size = len(cells)
    left = list(lam)
    word = [0] * size
    out = {}

    def place(k, inv, maj):
        if k == size:
            out[(inv, maj)] = out.get((inv, maj), 0) + 1
            return
        for letter, count in enumerate(left):
            if not count:
                continue
            left[letter] -= 1
            word[k] = letter
            d_inv = sum(1 for b in attacked[k] if word[b] > letter)
            d_maj = 0
            if above[k] is not None and word[above[k][0]] > letter:
                d_inv -= above[k][1]
                d_maj = above[k][2]
            place(k + 1, inv + d_inv, maj + d_maj)
            left[letter] += 1

    place(0, 0, 0)
    return out


def _htilde_hhl(n, rho):
    """Power-sum coefficients of H~_rho from the combinatorial formula
    H~_rho = sum over fillings sigma of q^inv t^maj x^sigma
    (Haglund-Haiman-Loehr, J. Amer. Math. Soc. 18 (2005)), zeros dropped.
    Unchecked: MacdonaldTable certifies it."""
    parts = partitions_of(n)
    fillings = [(lam, Polynomial(("q", "t"), _filling_weights(rho, lam))) for lam in parts]
    coeffs = {}
    for kappa in parts:
        z = kappa.z()
        coeffs[kappa] = class_sum(
            ((z * m_to_p(lam).get(kappa, 0), w) for lam, w in fillings), z
        )
    return {kappa: c for kappa, c in coeffs.items() if not c.is_zero()}


def _verify_solution(n, rho, coeffs):
    """Raise SingularSystem unless the power-sum coefficients kappa -> c
    (missing ones are zero) satisfy the characterization of H~_rho."""
    parts = partitions_of(n)
    pairing = _pairing_p_h(n)
    weighted = _class_weighted(n, coeffs)
    if class_sum(((w, c) for _, w, c in weighted), factorial(n)) != 1:
        raise SingularSystem("normalization fails for %s" % (rho,))
    for varname, bound in (("t", rho), ("q", rho.conjugate())):
        scaled = [(kappa, w, c * _scale_factor(kappa, varname)) for kappa, w, c in weighted]
        for mu in parts:
            if dominance_leq(mu, bound):
                continue
            acc = class_sum((w * pairing.get((kappa, mu), 0), c) for kappa, w, c in scaled)
            if acc:
                raise SingularSystem(
                    "triangularity in %s fails for %s at %s" % (varname, rho, mu)
                )


_TABLES = {}


def build_table(n):
    """Build (or fetch) the degree-n Macdonald table."""
    if n in _TABLES:
        return _TABLES[n]
    if n < 1:
        raise ValueError("table degree must be at least 1")
    _check_cap(n)
    table = MacdonaldTable(n, {rho: _htilde_hhl(n, rho) for rho in partitions_of(n)})
    _TABLES[n] = table
    return table


def expansions_from_kostka(n, kostka):
    """rho -> {kappa: H~_rho[kappa]} from the Kostka entries, zeros dropped:
    z_kappa H~_rho[kappa] = sum_lam chi^lam_kappa K~[lam,rho]. ValueError
    when a coefficient is not an integer; otherwise unchecked, and
    MacdonaldTable rejects expansions that are not the table's."""
    parts = partitions_of(n)
    htilde = {}
    for rho in parts:
        column = [(lam, kostka[(lam, rho)].as_polynomial()) for lam in parts]
        coeffs = {}
        for kappa in parts:
            c = class_sum(((mn_character(lam, kappa), k) for lam, k in column), kappa.z())
            if c:
                coeffs[kappa] = c
        htilde[rho] = coeffs
    return htilde


def register_table(table):
    """Install a table made elsewhere (a cache reload), which was certified
    when it was made, and drop everything derived from the previous tables."""
    _TABLES[table.n] = table
    _clear_derived()


def clear_tables():
    """Drop the tables and everything derived from them."""
    _TABLES.clear()
    _clear_derived()


_DERIVED_CLEARS = []


def derived(fn):
    """Memoize fn on its arguments as data derived from the registered
    tables: clear_tables() and register_table() drop the memo."""
    cached = lru_cache(maxsize=None)(fn)
    _DERIVED_CLEARS.append(cached.cache_clear)
    return cached


def _clear_derived():
    for cache_clear in _DERIVED_CLEARS:
        cache_clear()


def norm_product(lam):
    """Cell product formula for the squared (q,t)-norm of H_lam."""
    lam = Partition(lam)
    out = Polynomial.const(1)
    for (i, j) in lam.cells():
        a = lam.arm(i, j)
        l = lam.leg(i, j)
        out = out * (_Q ** (a + 1) - _T**l) * (_Q**a - _T ** (l + 1))
    return out


@lru_cache(maxsize=None)
def norm_factors(lam):
    """(unit, ((f, m), ...)) with norm_product(lam) = unit * prod f^m.

    Each cell's two binomials are split into irreducible factors over Q by
    coeffring.binomial_factors; the f are distinct, primitive, with
    positive leading coefficient, and unit is 1 or -1.
    """
    lam = Partition(lam)
    unit = 1
    mult = {}
    for (i, j) in lam.cells():
        a = lam.arm(i, j)
        l = lam.leg(i, j)
        for qexp, texp in ((a + 1, l), (a, l + 1)):
            sign, factors = binomial_factors("q", qexp, "t", texp)
            unit *= sign
            for f in factors:
                mult[f] = mult.get(f, 0) + 1
    return unit, tuple(mult.items())


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
