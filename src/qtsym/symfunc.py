"""Symmetric functions in several alphabets over an exact coefficient field.

Everything is stored in the power-sum basis: the Hall pairing is diagonal
there, Adams operators act by index scaling, and plethystic substitution
becomes a ring-morphism extension. The other classical bases (monomial,
elementary, complete, Schur) are views obtained through exact conversion.
The monomial basis is read through the fundamental quasisymmetric
functions F_D (m_to_p): each <F_D, p_kappa> is a sign or zero
(ribbon_sign), so no transition matrix is inverted.

A SymFunc with k alphabets maps keys, which are k-tuples of partitions
(one power-sum index per alphabet), to nonzero coefficients.
Coefficients are RationalFunction or HookField values, and a SymFunc
uses only what both provide: arithmetic, ==, is_zero() and
raise_exponents(n). SymFunc.__init__ is the validating way in for
outside input (ints, Fractions and Polynomials are coerced, keys
checked); inside the package every other SymFunc is built through
SymFunc._raw, and every sum of terms goes through _accumulate, which
drops a key whose sum is zero.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .coeffring import HookField, Polynomial, RationalFunction, _splittable, _term_sum, factored_sum, rf
from .partitions import Partition, partitions_of

_DEGREE_CAP = 8


class DegreeCapError(ValueError):
    """Input degree exceeds the configured exactness cap."""


def degree_cap():
    return _DEGREE_CAP


def set_degree_cap(n):
    global _DEGREE_CAP
    _DEGREE_CAP = int(n)


def _check_cap(n):
    if n > _DEGREE_CAP:
        raise DegreeCapError("degree %d exceeds cap %d" % (n, _DEGREE_CAP))


BASES = ("monomial", "elementary", "complete", "powersum", "schur")


# -- characters of the symmetric group ---------------------------------------


def mn_character(lam, rho):
    """Irreducible character of the symmetric group, chi^lam at cycle type rho.

    Computed by the Murnaghan-Nakayama border-strip recursion on beta
    numbers.
    """
    lam = Partition(lam)
    rho = Partition(rho)
    if lam.size != rho.size:
        raise ValueError("size mismatch: |%s| != |%s|" % (lam, rho))
    return _mn(tuple(lam), tuple(rho))


@lru_cache(maxsize=None)
def _mn(lam, rho):
    if not rho:
        return 1
    r = rho[0]
    rest = rho[1:]
    ell = len(lam)
    betas = [lam[i] + (ell - 1 - i) for i in range(ell)]
    beta_set = set(betas)
    total = 0
    for b in betas:
        nb = b - r
        if nb < 0 or nb in beta_set:
            continue
        crossed = sum(1 for c in betas if nb < c < b)
        new = sorted((beta_set - {b}) | {nb}, reverse=True)
        new_lam = tuple(v - (ell - 1 - i) for i, v in enumerate(new))
        new_lam = tuple(x for x in new_lam if x)
        total += (-1) ** crossed * _mn(new_lam, rest)
    return total


# -- expansions of classical bases in power sums ------------------------------


def _merge_parts(a, b):
    """The partition whose parts are those of the partitions a and b. The
    sorted parts of two valid partitions are valid, so they are not
    validated again."""
    if not b:
        return a
    if not a:
        return b
    return tuple.__new__(Partition, sorted(a + b, reverse=True))


def _convolve(da, db):
    out = {}
    for ka, ca in da.items():
        for kb, cb in db.items():
            key = _merge_parts(ka, kb)
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: c for k, c in out.items() if c}


@lru_cache(maxsize=None)
def h_to_p(n):
    """h_n as dict partition -> coefficient in the power-sum basis."""
    return {kappa: Fraction(1, kappa.z()) for kappa in partitions_of(n)}


@lru_cache(maxsize=None)
def e_to_p(n):
    return {kappa: Fraction(kappa.sign(), kappa.z()) for kappa in partitions_of(n)}


@lru_cache(maxsize=None)
def s_to_p(lam):
    lam = Partition(lam)
    return {
        kappa: Fraction(mn_character(lam, kappa), kappa.z())
        for kappa in partitions_of(lam.size)
        if mn_character(lam, kappa)
    }


@lru_cache(maxsize=None)
def hprod_to_p(mu):
    out = {Partition(): Fraction(1)}
    for part in Partition(mu):
        out = _convolve(out, h_to_p(part))
    return out


@lru_cache(maxsize=None)
def eprod_to_p(mu):
    out = {Partition(): Fraction(1)}
    for part in Partition(mu):
        out = _convolve(out, e_to_p(part))
    return out


@lru_cache(maxsize=None)
def _pairing_p_h(n):
    """The integer matrix <p_kappa, h_mu>, as a dict (kappa, mu) -> value."""
    out = {}
    for mu in partitions_of(n):
        for kappa, c in hprod_to_p(mu).items():
            out[(kappa, mu)] = c * kappa.z()
    return out


def ribbon_sign(kappa, mask):
    """<F_D, p_kappa>, for the fundamental quasisymmetric function F_D whose
    descent set D is held in mask: bit i is set when i+1 is in D.

    p_kappa is the commutative image of Psi_kappa_1 Psi_kappa_2 ..., and
    Psi_m = sum_k (-1)^k R_(1^k, m-k) (Gelfand-Krob-Lascoux-Leclerc-
    Retakh-Thibon, Adv. Math. 112 (1995)). A product of ribbons leaves the
    position between two blocks free, so the pairing is (-1)^k when, inside
    each block of kappa_i consecutive positions, the descents are the
    block's first ones, k descents in all, and 0 otherwise.
    """
    sign = 1
    for part in kappa:
        block = mask & ((1 << (part - 1)) - 1)
        if block & (block + 1):
            return 0
        if bin(block).count("1") % 2:
            sign = -sign
        mask >>= part
    return sign


@lru_cache(maxsize=None)
def m_to_p(mu):
    """m_mu in the power-sum basis, read through the fundamental basis.

    m_mu is the sum of the monomial quasisymmetric M_alpha over the
    compositions alpha that rearrange mu, and M_alpha is the sum over the
    descent sets D containing that of alpha, S, of (-1)^|D - S| F_D
    (Gessel); then z_kappa [p_kappa] m_mu = sum_D [F_D] m_mu <F_D, p_kappa>.
    """
    mu = Partition(mu)
    n = mu.size
    full = (1 << max(n - 1, 0)) - 1
    fundamental = {}
    for s in range(full + 1):
        cuts = [i + 1 for i in range(n - 1) if s >> i & 1]
        if Partition(sorted((b - a for a, b in zip([0] + cuts, cuts + [n])), reverse=True)) != mu:
            continue
        for d in range(full + 1):
            if d & s == s:
                fundamental[d] = fundamental.get(d, 0) + (-1) ** bin(d ^ s).count("1")
    out = {}
    for kappa in partitions_of(n):
        c = sum(f * ribbon_sign(kappa, d) for d, f in fundamental.items())
        if c:
            out[kappa] = Fraction(c, kappa.z())
    return out


def forgotten_to_p(mu):
    """omega(m_mu): the dual basis of the elementary basis."""
    return {kappa: c * kappa.sign() for kappa, c in m_to_p(mu).items()}


def basis_to_p(basis, mu):
    mu = Partition(mu)
    _check_cap(mu.size)
    if basis == "powersum":
        return {mu: Fraction(1)}
    if basis == "schur":
        return s_to_p(mu)
    if basis == "complete":
        return hprod_to_p(mu)
    if basis == "elementary":
        return eprod_to_p(mu)
    if basis == "monomial":
        return m_to_p(mu)
    raise ValueError("unknown basis %r" % basis)


# -- the SymFunc container ----------------------------------------------------


def _cf(value):
    if isinstance(value, (RationalFunction, HookField)):
        return value
    if isinstance(value, (int, Fraction, Polynomial)):
        return rf(value)
    raise TypeError("bad coefficient %r" % (value,))


def _accumulate(out, key, c):
    """Add the nonzero c to out[key]; a zero sum drops the key. A product
    of stored coefficients is never zero: Q(Z,W) and Q(Z,W)[eps]/(eps^2 - ZW)
    are both fields, the second because ZW is not a square in Q(Z,W)."""
    if key in out:
        c = out[key] + c
        if c.is_zero():
            del out[key]
            return
    out[key] = c


class SymFunc:
    """Finite linear combination of power-sum tensors over k alphabets."""

    __slots__ = ("k", "terms")

    def __init__(self, k, terms=None):
        self.k = k
        self.terms = {}
        for key, c in (terms or {}).items():
            c = _cf(c)
            if c.is_zero():
                continue
            key = tuple(Partition(p) for p in key)
            if len(key) != k:
                raise ValueError("key arity %d != %d alphabets" % (len(key), k))
            _accumulate(self.terms, key, c)

    @staticmethod
    def _raw(k, terms):
        """A SymFunc owning terms, whose keys are k-tuples of Partition
        and whose coefficients are nonzero, as _accumulate leaves them."""
        res = SymFunc.__new__(SymFunc)
        res.k = k
        res.terms = terms
        return res

    @staticmethod
    def zero(k=1):
        return SymFunc._raw(k, {})

    @staticmethod
    def one(k=1):
        return SymFunc._raw(k, {(Partition(),) * k: rf(1)})

    @staticmethod
    def from_p_dict(d, alphabet=0, k=1):
        """Lift a single-alphabet dict partition -> coeff into alphabet j of k."""
        empty = Partition()
        terms = {}
        for lam, c in d.items():
            key = [empty] * k
            key[alphabet] = Partition(lam)
            terms[tuple(key)] = c
        return SymFunc(k, terms)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def coeff(self, key):
        key = tuple(Partition(p) for p in key)
        return self.terms.get(key, rf(0))

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self.k == other.k and self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        if self.k != other.k:
            raise ValueError("alphabet count mismatch")
        out = dict(self.terms)
        for key, c in other.terms.items():
            _accumulate(out, key, c)
        return SymFunc._raw(self.k, out)

    def __neg__(self):
        return SymFunc._raw(self.k, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def product(self, other, keep=None):
        """self * other on the keys that keep accepts, or on every key."""
        if self.k != other.k:
            raise ValueError("alphabet count mismatch")
        out = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = tuple(_merge_parts(a, b) for a, b in zip(ka, kb))
                if keep is None or keep(key):
                    _accumulate(out, key, ca * cb)
        return SymFunc._raw(self.k, out)

    def __mul__(self, other):
        if isinstance(other, SymFunc):
            return self.product(other)
        c = _cf(other)
        if c.is_zero():
            return SymFunc.zero(self.k)
        return SymFunc._raw(self.k, {key: v * c for key, v in self.terms.items()})

    __rmul__ = __mul__

    def map_coefficients(self, func):
        out = {}
        for key, c in self.terms.items():
            v = _cf(func(c))
            if not v.is_zero():
                out[key] = v
        return SymFunc._raw(self.k, out)

    def tensor(self, other):
        """Juxtapose alphabets: result has self.k + other.k alphabets."""
        return SymFunc._raw(
            self.k + other.k,
            {ka + kb: ca * cb for ka, ca in self.terms.items() for kb, cb in other.terms.items()},
        )

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms, key=lambda key: ([(-sum(p), tuple(p)) for p in key])):
            c = self.terms[key]
            mono = "*".join(
                "p%s[X%d]" % (list(p), j + 1) for j, p in enumerate(key) if len(p)
            )
            bits.append("(%s)%s" % (c, "*" + mono if mono else ""))
        return " + ".join(bits)

    def __repr__(self):
        return "SymFunc(k=%d, %s)" % (self.k, self)


def basis_element(basis, mu, alphabet=0, k=1):
    """The basis symmetric function b_mu placed in one alphabet."""
    return SymFunc.from_p_dict(basis_to_p(basis, mu), alphabet=alphabet, k=k)


def p_elem(mu, alphabet=0, k=1):
    return basis_element("powersum", mu, alphabet, k)


def h_elem(mu, alphabet=0, k=1):
    return basis_element("complete", mu, alphabet, k)


def e_elem(mu, alphabet=0, k=1):
    return basis_element("elementary", mu, alphabet, k)


def s_elem(mu, alphabet=0, k=1):
    return basis_element("schur", mu, alphabet, k)


def m_elem(mu, alphabet=0, k=1):
    return basis_element("monomial", mu, alphabet, k)


# -- pairings -----------------------------------------------------------------


def pair_alphabet(F, G, alphabet):
    """Hall pairing in one alphabet; that slot is consumed (left empty),
    everything else multiplies through."""
    if F.k != G.k:
        raise ValueError("alphabet count mismatch")
    j = alphabet
    empty = Partition()
    index = {}
    for key, c in G.terms.items():
        index.setdefault(key[j], []).append((key, c))
    acc = {}
    for ka, ca in F.terms.items():
        lam = ka[j]
        z = lam.z()
        for kb, cb in index.get(lam, ()):
            key = tuple(
                empty if i == j else _merge_parts(a, b)
                for i, (a, b) in enumerate(zip(ka, kb))
            )
            _accumulate(acc, key, ca * cb * z)
    return SymFunc._raw(F.k, acc)


def hall_scalar(F, G):
    """Full Hall pairing over every alphabet; returns a coefficient."""
    if F.k != G.k:
        raise ValueError("alphabet count mismatch")
    total = None
    for key, ca in F.terms.items():
        cb = G.terms.get(key)
        if cb is None:
            continue
        z = 1
        for p in key:
            z *= p.z()
        v = ca * cb * z
        total = v if total is None else total + v
    if total is None:
        return rf(0)
    return total


@lru_cache(maxsize=None)
def alphabet_weights(factor):
    """Integer Hall weights of one alphabet's factor of a tensor product.

    factor is a tuple of (basis, partition, Adams index) triples and
    stands for f = prod psi_a(b_mu) in one alphabet. Returns the dict
    kappa -> <p_kappa, f> = z_kappa [p_kappa] f. Each <p_kappa, b_mu> is an
    integer (p_kappa has integer coordinates in every basis of BASES),
    psi_a multiplies a weight by a^len(kappa), and z_kappa / (z_alpha z_beta)
    is a product of binomials, so every weight is an integer; one that is
    not raises ValueError.
    """
    prod = {Partition(): Fraction(1)}
    for basis, mu, a in factor:
        psi = {
            Partition(tuple(x * a for x in kappa)): c
            for kappa, c in basis_to_p(basis, mu).items()
        }
        prod = _convolve(prod, psi)
    weights = {}
    for kappa, c in prod.items():
        w = c * kappa.z()
        if w.denominator != 1:
            raise ValueError("weight %s of %s at %s is not an integer" % (w, factor, kappa))
        weights[kappa] = w.numerator
    return weights


def tensor_hall_scalar(factors, G):
    """<prod_j f_j[X_j], G> without building the product.

    factors holds one alphabet_weights factor per alphabet of G. Each key
    of G weighs the product of its one-alphabet integer weights; the
    weights are summed per distinct coefficient of G (equal coefficients
    merge), so there is one scale-and-add per distinct coefficient.
    When every such coefficient is a RationalFunction that
    coeffring._splittable accepts, as the coefficients of the (Z, W)
    kernels and Log components are, the terms c * w are added over the
    factors of their denominators by coeffring.factored_sum, with no gcd.
    Otherwise, for a HookField among them or a denominator that carries
    no factors (a kernel specialized at a point may have one), they are
    added in RationalFunction arithmetic. hall_scalar of the
    multiplied-out product is the reference.
    """
    if len(factors) != G.k:
        raise ValueError("alphabet count mismatch")
    maps = [alphabet_weights(factor) for factor in factors]
    acc = {}
    for key, c in G.terms.items():
        w = 1
        for weights, kappa in zip(maps, key):
            w *= weights.get(kappa, 0)
            if not w:
                break
        else:
            acc[c] = acc.get(c, 0) + w
    acc = {c: w for c, w in acc.items() if w}
    if not acc:
        return rf(0)
    if all(isinstance(c, RationalFunction) for c in acc) and _splittable(acc):
        return factored_sum((s * w, p, m) for c, w in acc.items() for s, p, m in _term_sum(c).terms)
    total = None
    for c, w in acc.items():
        total = c * w if total is None else total + c * w
    return total


@lru_cache(maxsize=None)
def _scale_factor(kappa, varname):
    """prod_i (x^{kappa_i} - 1), the factor of p_kappa under X -> (x-1)X."""
    x = Polynomial.var(varname)
    out = Polynomial.const(1)
    for part in kappa:
        out = out * (x**part - 1)
    return out


@lru_cache(maxsize=None)
def qt_factor(kappa):
    """prod_i (q^{kappa_i} - 1)(1 - t^{kappa_i}) as a Polynomial."""
    out = _scale_factor(kappa, "q") * _scale_factor(kappa, "t")
    return -out if len(kappa) % 2 else out


def qt_scale(F, alphabet=0):
    """The substitution X -> (q-1)(1-t)X on one alphabet."""
    return SymFunc._raw(
        F.k, {key: c * rf(qt_factor(key[alphabet])) for key, c in F.terms.items()}
    )


def qt_pairing_scalar(F, G):
    if F.k != 1 or G.k != 1:
        raise ValueError("scalar qt pairing wants single-alphabet operands")
    return hall_scalar(F, qt_scale(G))


# -- basis conversion ----------------------------------------------------------


def dual_basis_to_p(basis, mu):
    """Power-sum expansion of the Hall-dual of basis element b_mu."""
    mu = Partition(mu)
    if basis == "powersum":
        return {mu: Fraction(1, mu.z())}
    if basis == "schur":
        return s_to_p(mu)
    if basis == "complete":
        return m_to_p(mu)
    if basis == "monomial":
        return hprod_to_p(mu)
    if basis == "elementary":
        return forgotten_to_p(mu)
    raise ValueError("unknown basis %r" % basis)


def convert(F, alphabet, basis):
    """Expansion coefficients of F in the target basis for one alphabet.

    Returns dict partition -> SymFunc over the remaining alphabets (the
    converted slot is left empty). For single-alphabet F the values are
    plain coefficients; use expand1 for that convenience.
    """
    degs = {sum(key[alphabet]) for key in F.terms}
    out = {}
    for d in sorted(degs):
        for mu in partitions_of(d):
            dual = SymFunc.from_p_dict(dual_basis_to_p(basis, mu), alphabet, F.k)
            val = pair_alphabet(dual, F, alphabet)
            if not val.is_zero():
                out[mu] = val
    return out


def expand1(F, basis):
    """Single-alphabet expansion: dict partition -> coefficient."""
    if F.k != 1:
        raise ValueError("expand1 wants a single-alphabet function")
    return {mu: val.terms[(Partition(),)] for mu, val in convert(F, 0, basis).items()}


_BASIS_TAGS = {
    "schur": "s",
    "complete": "h",
    "elementary": "e",
    "powersum": "p",
    "monomial": "m",
}


def format_basis_expansion(expansion, basis):
    """Basis-tagged text form, e.g. 's[2,1] + (q + t)*s[1,1,1]'."""
    tag = _BASIS_TAGS[basis]
    bits = []
    for mu in sorted(expansion, reverse=True):
        c = _cf(expansion[mu])
        if c.is_zero():
            continue
        body = "%s%s" % (tag, Partition(mu))
        if c == rf(1):
            bits.append(body)
        else:
            bits.append("(%s)*%s" % (c, body))
    return " + ".join(bits) or "0"


def json_terms(F, basis="powersum"):
    """JSON-ready list of (basis, partition key, coefficient) triples.

    HookField coefficients export as {"base": ..., "odd": ...} objects so
    every piece parses back through the polynomial grammar.
    """
    out = []
    for key in sorted(F.terms, key=lambda key: [(sum(p), tuple(p)) for p in key]):
        c = F.terms[key]
        if isinstance(c, HookField):
            coeff = {"base": str(c.base), "odd": str(c.odd)}
        else:
            coeff = str(c)
        listed = [list(p) for p in key] if F.k > 1 else list(key[0])
        out.append([basis, listed, coeff])
    return out
