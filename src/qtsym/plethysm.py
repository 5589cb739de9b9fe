"""Adams operators, plethystic substitution, and plethystic Exp/Log.

Alphabet expressions are formal sums of atoms: a (possibly scaled)
alphabet symbol, or a pure scalar summand whose indeterminates the Adams
operator raises to powers. This covers every substitution the engine
needs: X+Y, X(q-1), X/((q-1)(1-t)), 1-u, 1+u, X + (1-q)(1-t)*zi, and
products of alphabets via scaled atoms.

Degree-truncated series carry the grading variable implicitly: component
d of a Series is the coefficient of s^d.

Exp and Log are one pair of identities between G, H = Exp(G) and the
power sums P of G: (i) P_d = sum over n m = d of m psi_n(G_m), and (ii)
Newton's d H_d = sum_{j=1..d} P_j H_{d-j} (Macdonald, Symmetric Functions
and Hall Polynomials, I.2). exp_series reads them forwards, P_d by (i)
then H_d by (ii); log_series backwards, P_d by (ii) then G_d by (i).
Degree d takes d - 1 component products, and no Moebius function.

A series on two or more alphabets whose components do not change under
permuting them, as the Cauchy series and its Log do, is computed once
per orbit of the permutations. orbit_filter tests that once per call and
gives the key filter sorted_key; every product, Adams image and scalar
step of log_step and exp_series then forms the sorted keys only, and
spread stores each result as one shared object under every key of its
orbit, so storage stays dense. Any other series, such as a test input,
runs the same loops with no filter, on every key.

The coefficients take no gcd when the series allows it. _split_path
decides that once per call from the input series alone, as orbit_filter
does: when every denominator is constant or carries its factors, as
coeffring.factored_sum leaves them, each factor is one of
coeffring.binomial_factors and the series has at most two
indeterminates, the loops run on coeffring splits. Each
coefficient then enters as a coeffring._TermSum (a HookField of two in
genus one), products cross-cancel by trial division, psi_n splits each
factor over the factors of a binomial, and each component is summed into
its RationalFunction once, by factored_sum, whose result carries its
factors into the next degree. Any other series runs the same loops on
RationalFunction arithmetic. _PATHS counts the calls on each path.

Results are built with symfunc's SymFunc._raw and summed with its
_accumulate rule; the Adams operator raises a coefficient through its
own raise_exponents(n), whether a RationalFunction, a HookField or a
coeffring._TermSum.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from .coeffring import (
    HookField,
    Polynomial,
    RationalFunction,
    _splittable,
    _term_sum,
    _total,
    rf,
)
from .partitions import Partition
from .symfunc import SymFunc, _accumulate


class AlphabetExpr:
    """Formal sum of atoms (coef, slot); slot None means a scalar summand."""

    __slots__ = ("atoms",)

    def __init__(self, atoms=()):
        self.atoms = tuple((rf(c), j) for c, j in atoms)

    @staticmethod
    def alphabet(j, coef=1):
        return AlphabetExpr(((coef, j),))

    @staticmethod
    def scalar(c):
        return AlphabetExpr(((c, None),))

    def __add__(self, other):
        return AlphabetExpr(self.atoms + other.atoms)

    def __repr__(self):
        bits = []
        for c, j in self.atoms:
            bits.append("(%s)%s" % (c, "*X%d" % (j + 1) if j is not None else ""))
        return " + ".join(bits) or "0"


def adams(n, obj):
    """The n-th Adams operator: power-sum indices multiply, coefficient
    indeterminates go to n-th powers, series degrees scale by n."""
    if n < 1:
        raise ValueError("Adams index must be positive")
    if isinstance(obj, Series):
        out = Series(obj.cap, obj.k)
        for d, comp in enumerate(obj.comps):
            if n * d > obj.cap:
                break
            if not comp.is_zero():
                out.comps[n * d] = out.comps[n * d] + adams(n, comp)
        return out
    F = obj
    if n == 1:
        return F
    # p_n is an injective ring map, so keys stay distinct and coefficients nonzero
    terms = {}
    for key, c in F.terms.items():
        new_key = tuple(Partition(tuple(part * n for part in p)) for p in key)
        terms[new_key] = c.raise_exponents(n)
    return SymFunc._raw(F.k, terms)


def _pn_of_expr(n, expr, k):
    """p_n evaluated on an alphabet expression, as a SymFunc with k alphabets."""
    empty_key = (Partition(),) * k
    terms = {}
    for coef, j in expr.atoms:
        if coef.is_zero():
            continue
        if j is None:
            key = empty_key
        else:
            key = list(empty_key)
            key[j] = Partition((n,))
            key = tuple(key)
        _accumulate(terms, key, coef.raise_exponents(n))
    return SymFunc._raw(k, terms)


def substitute(F, alphabet, expr):
    """Plethystic substitution of an alphabet expression into one alphabet.

    Replaces p_n[X_j] by p_n[expr] for the slot j and expands; other
    alphabets ride along untouched.
    """
    j = alphabet
    out = SymFunc.zero(F.k)
    pn_cache = {}
    for key, c in F.terms.items():
        lam = key[j]
        rest_key = tuple(Partition() if i == j else p for i, p in enumerate(key))
        acc = SymFunc(F.k, {rest_key: c})
        for part in lam:
            if part not in pn_cache:
                pn_cache[part] = _pn_of_expr(part, expr, F.k)
            acc = acc * pn_cache[part]
        out = out + acc
    return out


# -- coefficient-variable helpers ---------------------------------------------


def _poly_var_coefficient(poly, name, power):
    """Coefficient of name**power in a Polynomial, as a Polynomial without it."""
    if name not in poly.vars:
        return poly if power == 0 else Polynomial.const(0)
    i = poly.vars.index(name)
    rest = poly.vars[:i] + poly.vars[i + 1 :]
    picked = {}
    for e, c in poly.terms.items():
        if e[i] == power:
            picked[e[:i] + e[i + 1 :]] = c
    return Polynomial(rest, picked)


def coefficient_of(F, name, power):
    """Extract the coefficient of name**power from every coefficient of F.

    Denominators must be free of the indeterminate; raises ValueError
    otherwise (a pole in the extraction variable signals a mismatch
    upstream).
    """

    def pick(c):
        if isinstance(c, HookField):
            return HookField(pick(c.base), pick(c.odd))
        if c.den.degree_in(name):
            raise ValueError("denominator involves %s: %s" % (name, c))
        return RationalFunction(_poly_var_coefficient(c.num, name, power), c.den)

    return F.map_coefficients(pick)


def eval_var(F, name, value):
    """Substitute one coefficient indeterminate by a value in every term."""

    def ev(c):
        if isinstance(c, HookField):
            raise TypeError("use HookField.specialize for hook coefficients")
        return c.specialize({name: rf(value)})

    return F.map_coefficients(ev)


def z_diagonal(F, zname="z", ziname="zi"):
    """Keep coefficient terms with equal z and zi exponents, then drop both.

    This is the coefficient of z^0 when zi stands for 1/z; denominators
    must be free of both markers.
    """

    def pick(c):
        if isinstance(c, HookField):
            return HookField(pick(c.base), pick(c.odd))
        if c.den.degree_in(zname) or c.den.degree_in(ziname):
            raise ValueError("denominator involves the z markers: %s" % c)
        poly = c.num
        iz = poly.vars.index(zname) if zname in poly.vars else None
        izi = poly.vars.index(ziname) if ziname in poly.vars else None
        keep = {}
        for e, coeff in poly.terms.items():
            ez = e[iz] if iz is not None else 0
            ezi = e[izi] if izi is not None else 0
            if ez != ezi:
                continue
            reduced = tuple(x for idx, x in enumerate(e) if idx not in (iz, izi))
            keep[reduced] = keep.get(reduced, Fraction(0)) + coeff
        rest = tuple(v for idx, v in enumerate(poly.vars) if idx not in (iz, izi))
        return RationalFunction(Polynomial(rest, keep), c.den)

    return F.map_coefficients(pick)


# -- truncated series -----------------------------------------------------------


class Series:
    """Degree-truncated series of multivariate symmetric functions."""

    __slots__ = ("cap", "k", "comps")

    def __init__(self, cap, k=1, comps=None):
        self.cap = cap
        self.k = k
        self.comps = [SymFunc.zero(k) for _ in range(cap + 1)]
        if comps:
            for d, F in comps.items() if isinstance(comps, dict) else enumerate(comps):
                if d <= cap and not F.is_zero():
                    self.comps[d] = F

    @staticmethod
    def one(cap, k=1):
        s = Series(cap, k)
        s.comps[0] = SymFunc.one(k)
        return s

    def is_zero(self):
        return all(c.is_zero() for c in self.comps)

    def component(self, d):
        return self.comps[d] if 0 <= d <= self.cap else SymFunc.zero(self.k)

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        if other.k != self.k:
            raise ValueError("alphabet count mismatch")
        cap = min(self.cap, other.cap)
        out = Series(cap, self.k)
        for d in range(cap + 1):
            out.comps[d] = self.comps[d] + other.comps[d]
        return out

    def __mul__(self, other):
        if isinstance(other, Series):
            if other.k != self.k:
                raise ValueError("alphabet count mismatch")
            cap = min(self.cap, other.cap)
            out = Series(cap, self.k)
            for da, ca in enumerate(self.comps[: cap + 1]):
                if ca.is_zero():
                    continue
                for db in range(cap + 1 - da):
                    cb = other.comps[db]
                    if cb.is_zero():
                        continue
                    out.comps[da + db] = out.comps[da + db] + ca * cb
            return out
        out = Series(self.cap, self.k)
        out.comps = [c * other for c in self.comps]
        return out

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self.cap == other.cap
            and self.k == other.k
            and all(a == b for a, b in zip(self.comps, other.comps))
        )

    def __repr__(self):
        bits = ["s^%d: %s" % (d, c) for d, c in enumerate(self.comps) if not c.is_zero()]
        return "Series(cap=%d; %s)" % (self.cap, "; ".join(bits) or "0")


def sorted_key(key):
    """The key filter of the orbit products: true on the sorted key that
    represents each orbit of the alphabet permutations."""
    return key == tuple(sorted(key))


@lru_cache(maxsize=None)
def _orbit(rep):
    """The distinct permutations of an alphabet key, in sorted order."""
    return tuple(sorted(set(permutations(rep))))


def spread(reps, k):
    """The SymFunc on k alphabets that stores each coefficient of reps, a
    dict on sorted keys, as one shared object under every key of its orbit."""
    return SymFunc._raw(k, {key: c for rep, c in reps.items() for key in _orbit(rep)})


def orbit_filter(S):
    """sorted_key when the series S has two or more alphabets and no
    component changes under permuting them, else None (every key). A
    shared coefficient settles its key by an identity test."""
    if S.k < 2:
        return None
    for F in S.comps:
        size = 0
        for key, c in F.terms.items():
            rep = tuple(sorted(key))
            r = F.terms.get(rep)
            if r is not c and (r is None or r != c):
                return None
            if rep == key:
                size += len(_orbit(rep))
        if size != len(F.terms):
            return None
    return sorted_key


def _part(F, keep):
    """F on the keys that keep accepts."""
    if keep is None:
        return F
    return SymFunc._raw(F.k, {key: c for key, c in F.terms.items() if keep(key)})


def _whole(F, keep):
    """F, computed on the keys that keep accepts, on every key."""
    return F if keep is None else spread(F.terms, F.k)


def _operands(F, split):
    """F as the loops below take it: on the split path each coefficient as a
    coeffring term sum."""
    return SymFunc._raw(F.k, {key: _term_sum(c) for key, c in F.terms.items()}) if split else F


def _summed(F, split):
    """F with its term sums added up into coefficients, zeros left out."""
    if not split:
        return F
    out = {}
    for key, x in F.terms.items():
        c = _total(x)
        if not c.is_zero():
            out[key] = c
    return SymFunc._raw(F.k, out)


# How many Log and Exp calls ran on each path (_split_path).
_PATHS = dict.fromkeys(("split", "rational"), 0)


def _split_path(S):
    """Whether the Log or Exp of the series S runs on coeffring splits
    (coeffring._splittable of its coefficients); counted in _PATHS."""
    split = _splittable(c for F in S.comps for c in F.terms.values())
    _PATHS["split" if split else "rational"] += 1
    return split


def _adams_part(G, d, keep, split):
    """sum over n | d, n > 1, of (d/n) psi_n(G_{d/n}): what the components
    of G below degree d add to the d-th power sum of Exp(G). psi_n scales
    the parts of a key, so it takes sorted keys to sorted keys."""
    terms = (
        adams(n, _operands(_part(G[d // n], keep), split)) * (d // n)
        for n in range(2, d + 1)
        if d % n == 0
    )
    return sum(terms, SymFunc.zero(G[0].k))


def _newton(P, H, d, keep, split):
    """sum over 0 < j < d of P_j H_{d-j}: Newton's sum without P_d H_0 = P_d."""
    terms = (_operands(P[j], split).product(_operands(H[d - j], split), keep) for j in range(1, d))
    return sum(terms, SymFunc.zero(H[0].k))


def exp_series(G):
    """Plethystic exponential of a series with zero constant term: the
    identities of the module docstring read forwards, P_d then H_d."""
    if not G.comps[0].is_zero():
        raise ValueError("Exp needs a zero constant term")
    keep = orbit_filter(G)
    split = _split_path(G)
    H = Series.one(G.cap, G.k)
    P = [None]
    for d in range(1, G.cap + 1):
        Pd = _operands(_part(G.comps[d], keep), split) * d + _adams_part(G.comps, d, keep, split)
        Pd = _summed(Pd, split)
        Hd = (_operands(Pd, split) + _newton(P, H.comps, d, keep, split)) * Fraction(1, d)
        H.comps[d] = _whole(_summed(Hd, split), keep)
        P.append(_whole(Pd, keep))
    return H


def log_step(H, P, G, d, keep, split):
    """(P_d, G_d): the identities of the module docstring read backwards in
    degree d, from H_1..H_d, P_1..P_{d-1} and G_0..G_{d-1}, each a sequence
    indexed by degree. keep is orbit_filter of the series H, and split
    whether its Log runs on coeffring splits (_split_path)."""
    Pd = _operands(_part(H[d], keep), split) * d - _newton(P, H, d, keep, split)
    Pd = _summed(Pd, split)
    Gd = (_operands(Pd, split) - _adams_part(G, d, keep, split)) * Fraction(1, d)
    return _whole(Pd, keep), _whole(_summed(Gd, split), keep)


def log_series(H):
    """Plethystic logarithm of a series with constant term one: log_step
    in each degree."""
    if not H.comps[0] == SymFunc.one(H.k):
        raise ValueError("Log needs constant term one")
    keep = orbit_filter(H)
    split = _split_path(H)
    G = Series(H.cap, H.k)
    P = [None]
    for d in range(1, H.cap + 1):
        Pd, G.comps[d] = log_step(H.comps, P, G.comps, d, keep, split)
        P.append(Pd)
    return G
