"""Exact sparse multivariate polynomials and rational functions over Q.

Every coefficient in the package runs through these types; there is no
floating point anywhere. RationalFunction is the universal coefficient
field. HookField adjoins eps with eps^2 = Z*W, which is what the squared
hook numerators of the genus-g kernel live in once z^2, w^2 are renamed
to Z, W.

Polynomial coefficients are ints or Fractions. Construction, sums,
scaling and division store an integral value as an int; a product of
polynomials with Fraction coefficients may keep one as a Fraction, which
compares, hashes and prints as the int.

A RationalFunction is scalar * prim / den: scalar is a nonzero int or
Fraction that carries the sign and the rational content, and prim and
den are primitive integer polynomials (coprime int coefficients) with
positive graded-lex leading coefficient. This form is unique, so ==
compares the three parts, and num = scalar * prim is built only when
asked for. Products and gcds then run on ints: the product of two
primitive polynomials is primitive (Gauss), and so is each cofactor of
one by a gcd, with a positive leading coefficient when both have one.
Sums join the two scalars through their rational gcd s, so the new
numerator is an integer combination of integer polynomials.

RationalFunction adds and multiplies by Henrici's rule (Knuth, TAOCP
vol. 2, 4.5.1). With g = gcd(d1, d2), n1/d1 + n2/d2 is
(n1 d2/g + n2 d1/g) / (d1/g * d2/g * g), and a common factor of that
numerator and denominator can only divide g, because the inputs are
reduced and d1/g, d2/g are coprime; so only g is reduced against, and
two polynomials (d1 = d2 = 1) are added with no gcd. A product
cross-cancels prim1 against d2 and prim2 against d1, and multiplies the
scalars; a constant factor made by const or rf only scales the scalar.

RationalFunction reduces by poly_gcd, through gcd_cofactors. Gcds in two
indeterminates, which is all of the engine's (q,t) and (Z,W) traffic,
take Brown's evaluation-interpolation route on dense integer arrays:
each input becomes rows in x over Z[y] once (an input with Fraction
coefficients is first cleared of its denominators), and the y-content,
the images, the univariate gcds, the interpolation and the certifying
trial division all run on int lists. The sample points start at 2 and
skip 0 and +-1, which are roots of the hook binomials Z^a - W^b and give
images of too high a degree. The certifying division yields a/g and
b/g, which RationalFunction uses instead of dividing again, and the
input degrees bound the points needed, so the route always certifies.
Three or more indeterminates, which no engine call has, take the
subresultant PRS, also the reference the tests hold the bivariate route
to; gcd_path_counts() tells how many gcds took each path.

A fraction over known irreducible factors, such as a Macdonald norm
(macdonald.norm_factors), takes no gcd: split_factors, the one trial
division, splits a polynomial into a cofactor times powers of the
factors, split_product and split_over multiply such splits and put them
over the norm, and factored_sum adds them by Henrici's rule. A factor
shared by two denominators can divide their sum only where its two
multiplicities are equal, so factored_sum trial-divides only those; each
multiplied-out product of factor powers is made once and memoized, and
the numerator's content is split off once per sum. split_factors turns
the polynomial once into sparse integer rows in x
over Z[y], x the first of its at most two indeterminates, the same rows
Brown's gcd uses, and divides every factor there. The top power x^D of
each factor of binomial_factors has a coefficient in y whose top
coefficient is +-1 (one term, or Phi_d(y) for a factor in y alone), so
no step divides a coefficient; a factor without one, or a third
indeterminate, raises ValueError. split_counts() tells how many of its
divisions succeeded and failed, and how many factors factored_sum left
untried.

factored_sum leaves its denominator's multiplicities on the
RationalFunction it makes, so a later sum or product reads them with no
division. The plethystic Log and Exp (plethysm) carry such coefficients
as unreduced sums of (scalar, prim, mult) terms, _TermSum, with no gcd:
a product of two terms divides each prim by the other's factors
(split_factors) and adds the multiplicities (split_product); psi_n of a
factor of binomial_factors(x, a, y, b) divides x^(na) - y^(nb), so it is
split once over binomial_factors(x, na, y, nb) and memoized, and psi_n
keeps coprime polynomials coprime, so an Adams image of a reduced term
stays reduced; factored_sum adds the terms once, at the end. The Hall
pairing (symfunc.tensor_hall_scalar) adds such coefficients, times
integer weights, by factored_sum too.

Values are immutable after construction and safe to share between
threads; the gcd path and split counts are process-wide diagnostics.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd as _int_gcd
from math import lcm as _int_lcm
from operator import add, neg, sub


class PoleError(ArithmeticError):
    """A substitution made a reduced denominator vanish."""


class ParseError(ValueError):
    """Text does not match the canonical polynomial grammar."""


# Fixed display/ordering priority for the indeterminates the engine uses.
# Anything else sorts alphabetically after these.
_VAR_PRIORITY = {"q": 0, "t": 1, "u": 2, "v": 3, "Z": 4, "W": 5, "z": 6, "zi": 7, "s": 8}


def _var_key(name):
    return (_VAR_PRIORITY.get(name, len(_VAR_PRIORITY)), name)


def _normc(value):
    """Coerce to int when integral, Fraction otherwise."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError("polynomial coefficients must be int or Fraction, got %r" % (value,))


def _exact_div(a, b):
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _normc(Fraction(a) / Fraction(b))


class Polynomial:
    """Sparse polynomial over Q in named indeterminates.

    terms maps exponent tuples (aligned with ``vars``) to nonzero
    coefficients. ``vars`` is sorted canonically but may keep names whose
    exponents are all zero; equality and hashing see through that.
    Canonical ordering of printed terms is graded lexicographic.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, variables=(), terms=None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate indeterminate names")
        clean = {}
        if terms:
            for exps, c in terms.items():
                c = _normc(c)
                if not c:
                    continue
                exps = tuple(exps)
                if len(exps) != len(variables):
                    raise ValueError("exponent tuple does not match variables")
                prev = clean.get(exps)
                if prev is not None:
                    c = prev + c
                    if not c:
                        del clean[exps]
                        continue
                clean[exps] = c
        order = sorted(range(len(variables)), key=lambda i: _var_key(variables[i]))
        if order == list(range(len(variables))):
            self.vars = variables
            self.terms = clean
        else:
            self.vars = tuple(variables[i] for i in order)
            self.terms = {tuple(e[i] for i in order): c for e, c in clean.items()}
        self._hash = None

    @staticmethod
    def const(c):
        p = Polynomial.__new__(Polynomial)
        c = _normc(c)
        p.vars = ()
        p.terms = {(): c} if c else {}
        p._hash = None
        return p

    @staticmethod
    def var(name, exp=1):
        if exp < 0:
            raise ValueError("negative exponent")
        return Polynomial((name,), {(exp,): 1})

    @staticmethod
    def _raw(variables, terms):
        # internal: vars already sorted, coefficients normalized and nonzero
        p = Polynomial.__new__(Polynomial)
        p.vars = variables
        p.terms = terms
        p._hash = None
        return p

    # -- basic predicates ------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        if not self.terms:
            return 0
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            if not any(e):
                return c
        raise ValueError("not a constant: %s" % self)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name):
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=0)

    def num_terms(self):
        return len(self.terms)

    def canonical(self):
        """Equivalent polynomial without unused indeterminates."""
        used = [i for i in range(len(self.vars)) if any(e[i] for e in self.terms)]
        if len(used) == len(self.vars):
            return self
        return Polynomial._raw(
            tuple(self.vars[i] for i in used),
            {tuple(e[i] for i in used): c for e, c in self.terms.items()},
        )

    # -- alignment and arithmetic ----------------------------------------

    def _align(self, other):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        union = sorted(set(self.vars) | set(other.vars), key=_var_key)
        union_t = tuple(union)

        def remap(poly):
            if poly.vars == union_t:
                return poly.terms
            idx = [union.index(v) for v in poly.vars]
            width = len(union)
            out = {}
            for e, c in poly.terms.items():
                full = [0] * width
                for pos, ex in zip(idx, e):
                    full[pos] = ex
                out[tuple(full)] = c
            return out

        return union_t, remap(self), remap(other)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        vs, ta, tb = self._align(other)
        out = dict(ta)
        for e, c in tb.items():
            prev = out.get(e)
            if prev is None:
                out[e] = c
            else:
                s = prev + c
                if s:
                    out[e] = s if type(s) is int else _normc(s)
                else:
                    del out[e]
        return Polynomial._raw(vs, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if len(other.terms) <= 1 and other.is_constant():
            return self.scale(other.constant_value())
        if len(self.terms) <= 1 and self.is_constant():
            return other.scale(self.constant_value())
        vs, ta, tb = self._align(other)
        out = {}
        if len(ta) > len(tb):
            ta, tb = tb, ta
        for ea, ca in ta.items():
            for eb, cb in tb.items():
                e = tuple(map(add, ea, eb))
                c = ca * cb
                prev = out.get(e)
                if prev is None:
                    out[e] = c
                else:
                    s = prev + c
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        return Polynomial._raw(vs, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        return _power(self, n, P_ONE)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.vars == other.vars:
            return self.terms == other.terms
        _, ta, tb = self._align(other)
        return ta == tb

    def __hash__(self):
        if self._hash is None:
            self._hash = _hash_scaled(self)
        return self._hash

    # -- graded-lex structure ---------------------------------------------

    def leading(self):
        """(exponent tuple, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        _, e = max(zip(map(sum, self.terms), self.terms))
        return e, self.terms[e]

    def content_signed(self):
        """Rational c with self/c integer, coprime, positive leading coeff;
        an int when integral."""
        return _content(self)[0]

    def scale(self, c):
        if isinstance(c, Fraction) and c.denominator == 1:
            c = c.numerator
        if not c:
            return Polynomial.const(0)
        if c == 1:
            return self
        return Polynomial._raw(
            self.vars, {e: _normc(k * c) for e, k in self.terms.items()}
        )

    def primitive(self):
        """self divided by its signed content."""
        return _split_content(self)[1]

    # -- division ----------------------------------------------------------

    def divexact(self, other):
        """Exact division; raises ValueError when other does not divide self."""
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("polynomial division by zero")
            return self.scale(Fraction(1) / other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if other.is_constant():
            return self.scale(Fraction(1) / other.constant_value())
        vs, ta, tb = self._align(other)
        lead_b = max(tb, key=lambda e: (sum(e), e))
        cb = tb[lead_b]
        tail_b = [(eb, k) for eb, k in tb.items() if eb != lead_b]
        rem = dict(ta)
        # Max-heap on graded-lex order of the remainder's exponents. A term
        # that cancels stays in the heap and is skipped when popped; every
        # exponent in rem has at least one entry.
        heap = [(-sum(e), tuple(map(neg, e)), e) for e in rem]
        heapq.heapify(heap)
        quo = {}
        while rem:
            lead_r = heapq.heappop(heap)[2]
            c = rem.pop(lead_r, None)
            if c is None:
                continue
            diff = tuple(map(sub, lead_r, lead_b))
            if any(d < 0 for d in diff):
                raise ValueError("not an exact polynomial division")
            c = _exact_div(c, cb)
            quo[diff] = c
            for eb, k in tail_b:
                e = tuple(map(add, diff, eb))
                prev = rem.get(e)
                if prev is None:
                    rem[e] = _normc(-c * k)
                    heapq.heappush(heap, (-sum(e), tuple(map(neg, e)), e))
                else:
                    s = prev - c * k
                    if s:
                        rem[e] = _normc(s)
                    else:
                        del rem[e]
        return Polynomial._raw(vs, quo)

    # -- substitution ------------------------------------------------------

    def rename(self, mapping):
        """Rename indeterminates; mapping is name -> new name."""
        new_vars = tuple(mapping.get(v, v) for v in self.vars)
        if len(set(new_vars)) != len(new_vars):
            raise ValueError("variable rename collides")
        return Polynomial(new_vars, self.terms)

    def raise_exponents(self, n):
        """Substitute every indeterminate x by x^n (the Adams action)."""
        if n == 1:
            return self
        return Polynomial._raw(
            self.vars, {tuple(x * n for x in e): c for e, c in self.terms.items()}
        )

    def eval_poly(self, assignment):
        """Simultaneously substitute a subset of variables by Polynomial values.

        Every value must be zero, a constant or a single term a*m with m a
        monomial (a renaming, a power, a scaled monomial); a value with
        several terms raises ValueError. Such values only move exponents
        and scale coefficients, so each term of self maps to one term of
        the result. RationalFunction.specialize sends values with several
        terms to its general path.
        """
        relevant = {v: p for v, p in assignment.items() if v in self.vars}
        if not relevant:
            return self
        names = {v for v in self.vars if v not in relevant}
        subs = {}
        for v, p in relevant.items():
            if len(p.terms) > 1:
                raise ValueError("eval_poly value for %s has several terms: %s" % (v, p))
            if p.terms:
                (e, a), = p.terms.items()
                subs[v] = (a, [(name, x) for name, x in zip(p.vars, e) if x])
                names.update(name for name, _ in subs[v][1])
        out_vars = tuple(sorted(names, key=_var_key))
        pos = {name: j for j, name in enumerate(out_vars)}
        # per input position: None kills every term using it, an int is the
        # output position of a kept variable, a pair is (scale, [(position, exp)])
        actions = []
        for v in self.vars:
            if v not in relevant:
                actions.append(pos[v])
            elif v in subs:
                a, mono = subs[v]
                actions.append((a, [(pos[name], x) for name, x in mono]))
            else:
                actions.append(None)
        width = len(out_vars)
        out = {}
        for e, c in self.terms.items():
            full = [0] * width
            for act, ex in zip(actions, e):
                if not ex:
                    continue
                if act is None:
                    break
                if type(act) is int:
                    full[act] += ex
                    continue
                a, mono = act
                if a != 1:
                    c = c * a**ex
                for j, x in mono:
                    full[j] += x * ex
            else:
                key = tuple(full)
                s = out.get(key, 0) + c
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return Polynomial._raw(out_vars, {e: _normc(c) for e, c in out.items()})

    def eval_fraction(self, assignment):
        """Evaluate fully at Fraction values (all variables must be assigned)."""
        out = Fraction(0)
        for e, c in self.terms.items():
            v = Fraction(c)
            for name, ex in zip(self.vars, e):
                if ex:
                    v *= Fraction(assignment[name]) ** ex
            out += v
        return out

    # -- text form -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
        pieces = []
        for e, c in items:
            factors = []
            for name, ex in zip(self.vars, e):
                if ex == 1:
                    factors.append(name)
                elif ex > 1:
                    factors.append("%s^%d" % (name, ex))
            mono = "*".join(factors)
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = "%s*%s" % (mag, mono)
            else:
                body = str(mag)
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def __repr__(self):
        return "Polynomial(%s)" % self

    @staticmethod
    def parse(text):
        """Parse the canonical text form produced by __str__."""
        s = text.strip()
        if not s:
            raise ParseError("empty polynomial text")
        if s == "0":
            return Polynomial.const(0)
        out = Polynomial.const(0)
        i = 0
        n = len(s)
        while i < n:
            while i < n and s[i] == " ":
                i += 1
            sign = 1
            if i < n and s[i] in "+-":
                if s[i] == "-":
                    sign = -1
                i += 1
                while i < n and s[i] == " ":
                    i += 1
            start = i
            while i < n and s[i] not in "+-":
                i += 1
            piece = s[start:i].strip()
            if not piece:
                raise ParseError("dangling sign in %r" % text)
            out = out + Polynomial._parse_term(piece).scale(sign)
        return out

    @staticmethod
    def _parse_term(piece):
        coeff = Fraction(1)
        varpart = {}
        for factor in piece.split("*"):
            factor = factor.strip()
            if not factor:
                raise ParseError("empty factor in %r" % piece)
            if factor[0].isdigit():
                try:
                    coeff *= Fraction(factor)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ParseError("bad coefficient %r" % factor) from exc
            else:
                name, caret, exp = factor.partition("^")
                if not name.isidentifier():
                    raise ParseError("bad indeterminate %r" % name)
                e = 1
                if caret:
                    try:
                        e = int(exp)
                    except ValueError as exc:
                        raise ParseError("bad exponent %r" % exp) from exc
                    if e < 0:
                        raise ParseError("negative exponent in %r" % piece)
                varpart[name] = varpart.get(name, 0) + e
        names = tuple(varpart)
        return Polynomial(names, {tuple(varpart[v] for v in names): coeff})


P_ZERO = Polynomial.const(0)
P_ONE = Polynomial.const(1)


def _hash_scaled(p, s=1):
    """The hash of the polynomial s * p, read off p: a constant hashes as
    its value, any other polynomial as its support, the reduced
    numerator and denominator of its coefficient at the lexicographically
    largest exponent, and whether the coefficient at the smallest has the
    same sign, so no product and no Fraction is formed. The sign keeps
    apart factors of one support, such as x - 1 and x + 1."""
    c = p.canonical()
    if not c.vars:
        return hash(s * c.terms.get((), 0))
    k = c.terms[max(c.terms)]
    n, d = s.numerator * k.numerator, s.denominator * k.denominator
    g = _int_gcd(n, d)
    return hash((c.vars, frozenset(c.terms), n // g, d // g, (c.terms[min(c.terms)] > 0) == (k > 0)))


def _power(base, n, one):
    """base**n for an int n >= 0 by square-and-multiply, from one."""
    out = one
    while n:
        if n & 1:
            out = out * base
        base = base * base if n > 1 else base
        n >>= 1
    return out


# -- multivariate gcd -------------------------------------------------------


def _split_main(p, main):
    """View p as a polynomial in ``main`` with Polynomial coefficients."""
    if main not in p.vars:
        return {0: p}
    i = p.vars.index(main)
    rest = p.vars[:i] + p.vars[i + 1 :]
    out = {}
    for e, c in p.terms.items():
        d = e[i]
        key = e[:i] + e[i + 1 :]
        bucket = out.setdefault(d, {})
        prev = bucket.get(key)
        bucket[key] = c if prev is None else prev + c
    return {
        d: Polynomial._raw(rest, {k: c for k, c in t.items() if c})
        for d, t in out.items()
        if any(t.values())
    }


def _join_main(coeffs, main):
    out = Polynomial.const(0)
    x = Polynomial.var(main)
    for d, c in coeffs.items():
        out = out + c * (x**d if d else P_ONE)
    return out


def _poly_content_in(p, main):
    parts = _split_main(p, main)
    g = P_ZERO
    for c in parts.values():
        g = _gcd(g, c)[1]
        if not g.is_zero() and g.is_constant():
            return P_ONE
    return g


def _pseudo_rem(a, b, main):
    """lc(b)^(deg a - deg b + 1) * a mod b in main, for deg a >= deg b."""
    r = _split_main(a, main)
    db = _split_main(b, main)
    degb = max(db)
    lcb = db.pop(degb)
    for degr in range(max(r), degb - 1, -1):
        lcr = r.pop(degr, None)
        r = {d: c * lcb for d, c in r.items()}
        if lcr is None:
            continue
        shift = degr - degb
        for d, c in db.items():
            e = d + shift
            val = r.get(e, P_ZERO) - c * lcr
            if val.is_zero():
                r.pop(e, None)
            else:
                r[e] = val
    return _join_main(r, main) if r else P_ZERO


# Integer coefficient lists, lowest degree first; [] is zero. Bivariate
# polynomials are "rows": a list over the x-exponent of lists in y.


def _intlist_normalize(A):
    while A and A[-1] == 0:
        A.pop()
    if not A:
        return A
    g = 0
    for c in A:
        g = _int_gcd(g, c)
    if A[-1] < 0:
        g = -g
    return [c // g for c in A]


def _intlist_gcd(A, B):
    """Primitive gcd of integer coefficient lists (primitive PRS)."""
    A = _intlist_normalize(list(A))
    B = _intlist_normalize(list(B))
    if len(A) < len(B):
        A, B = B, A
    while B:
        # pseudo remainder of A by B
        R = list(A)
        lb = B[-1]
        db = len(B) - 1
        while len(R) - 1 >= db and any(R):
            dr = len(R) - 1
            lr = R[-1]
            shift = dr - db
            R = [c * lb for c in R]
            for i, c in enumerate(B):
                R[i + shift] -= c * lr
            while R and R[-1] == 0:
                R.pop()
            if not R:
                break
        A, B = B, _intlist_normalize(R)
    return A


def _intlist_mul(A, B):
    """Product of integer coefficient lists."""
    if not A or not B:
        return []
    out = [0] * (len(A) + len(B) - 1)
    for i, a in enumerate(A):
        if a:
            for j, b in enumerate(B):
                out[i + j] += a * b
    return out


def _intlist_quo(A, B):
    """A / B for integer lists, B nonzero without trailing zeros; None
    unless the quotient exists and is integral."""
    if B == [1]:
        return list(A)
    db = len(B) - 1
    dq = len(A) - 1 - db
    if dq < 0:
        return [] if not any(A) else None
    lead = B[-1]
    R = list(A)
    Q = [0] * (dq + 1)
    for i in range(dq, -1, -1):
        c = R[i + db]
        if c:
            qc, r = divmod(c, lead)
            if r:
                return None
            Q[i] = qc
            for j, k in enumerate(B):
                R[i + j] -= qc * k
    if any(R[:db]):
        return None
    while Q and not Q[-1]:
        Q.pop()
    return Q


def _horner(A, y0):
    out = 0
    for c in reversed(A):
        out = out * y0 + c
    return out


def _rows_quo(A, G):
    """Rows of A / G in Z[y][x], G's leading row without trailing zeros;
    None unless G divides A."""
    dg = len(G) - 1
    dq = len(A) - 1 - dg
    if dq < 0:
        return None
    lead = G[-1]
    R = [list(r) for r in A]
    Q = [[] for _ in range(dq + 1)]
    for k in range(dq, -1, -1):
        top = R[k + dg]
        while top and not top[-1]:
            top.pop()
        if not top:
            continue
        qk = _intlist_quo(top, lead)
        if qk is None:
            return None
        Q[k] = qk
        for j, gj in enumerate(G):
            row = R[k + j]
            prod = _intlist_mul(qk, gj)
            if len(row) < len(prod):
                row.extend([0] * (len(prod) - len(row)))
            for i, c in enumerate(prod):
                row[i] -= c
    if any(any(r) for r in R[:dg]):
        return None
    return Q


def _split_rows(p, x, y):
    """(c, rows) with p = c * sum of k x^i y^j over the rows {i: {j: k}}:
    the k are nonzero ints, and c is 1 when p has integer coefficients
    and otherwise 1 over the lcm of their denominators. p uses no
    indeterminate but x and y (y None when there is no second one), in
    either order."""
    den = 1
    for k in p.terms.values():
        if type(k) is not int:
            den = _int_lcm(den, k.denominator)
    terms = p.terms if den == 1 else {e: int(k * den) for e, k in p.terms.items()}
    vs = p.vars
    if vs == (x, y):
        pairs = terms.items()
    else:
        ix, iy = (vs.index(v) if v in vs else None for v in (x, y))
        pairs = (
            ((e[ix] if ix is not None else 0, e[iy] if iy is not None else 0), k)
            for e, k in terms.items()
        )
    rows = {}
    for (i, j), k in pairs:
        row = rows.get(i)
        if row is None:
            rows[i] = row = {}
        row[j] = k
    return (1 if den == 1 else Fraction(1, den)), rows


def _rows_poly(rows, x, y, scale=1):
    """scale * the sum of c x^i y^j over the rows {i: {j: c}}, c nonzero,
    in the indeterminates it uses: the inverse of _split_rows."""
    if y is None:
        vs, terms = (x,), {(i,): c for i, row in rows.items() for c in row.values()}
    elif _var_key(x) < _var_key(y):
        vs, terms = (x, y), {(i, j): c for i, row in rows.items() for j, c in row.items()}
    else:
        vs, terms = (y, x), {(j, i): c for i, row in rows.items() for j, c in row.items()}
    if scale != 1:
        terms = {e: _normc(c * scale) for e, c in terms.items()}
    return Polynomial._raw(vs, terms).canonical()


def _dense_rows(rows):
    """Sparse rows {i: {j: k}} as a list over i of integer lists over j."""
    out = [[] for _ in range(max(rows) + 1)]
    for i, row in rows.items():
        r = out[i] = [0] * (max(row) + 1)
        for j, k in row.items():
            r[j] = k
    return out


def _dense_poly(rows, x, y, scale=1):
    """_rows_poly of dense integer rows."""
    sparse = {i: {j: c for j, c in enumerate(r) if c} for i, r in enumerate(rows)}
    return _rows_poly(sparse, x, y, scale)


def _rows_primitive(A):
    """(content, rows / content): the y-content as a primitive integer list."""
    cont = []
    for r in A:
        if r:
            cont = _intlist_gcd(cont, r)
            if len(cont) == 1:
                return [1], A
    return cont, [_intlist_quo(r, cont) if r else r for r in A]


def _brown_gcd(a, b, names):
    """(g, a/g, b/g) for canonical a, b in the one or two indeterminates
    names, by evaluation and interpolation on integer arrays (Brown,
    J. ACM 18, 1971).

    y is the indeterminate of smaller degree, so fewer points are needed;
    with one indeterminate there is no y and every row is a constant.
    Each argument becomes rows in x over Z[y] once, after its
    denominators are cleared, and its y-content is split off. The images at
    y = 2, -2, 3, -3, ... are univariate gcds, scaled to the gcd gamma of
    the leading rows, and interpolated. The points skip 0 and +-1: they
    are roots of the hook binomials Z^a - W^b, so images there have too
    high a degree (gcd((ZW)^2 - 1, W^2 - 1) = 1, but both images at
    Z = +-1 are W^2 - 1). The trial divisions that certify the candidate
    give the cofactors.
    """
    if len(names) == 1:
        x, y = names[0], None
    else:
        y = min(names, key=lambda v: min(a.degree_in(v), b.degree_in(v)))
        x = names[0] if y == names[1] else names[1]
    ka, A = _split_rows(a, x, y)
    kb, B = _split_rows(b, x, y)
    ca, A = _rows_primitive(_dense_rows(A))
    cb, B = _rows_primitive(_dense_rows(B))
    gc = _intlist_gcd(ca, cb)
    if len(A) == 1 or len(B) == 1:
        G, QA, QB = [[1]], A, B
    else:
        G, QA, QB = _interpolated_gcd(A, B)
    if G == [[1]] and gc == [1]:
        return P_ONE, a, b
    g = _dense_poly([_intlist_mul(gc, r) for r in G], x, y)
    if g.leading()[1] < 0:
        g, ka, kb = -g, -ka, -kb
    ca = _intlist_quo(ca, gc)
    cb = _intlist_quo(cb, gc)
    return (
        g,
        _dense_poly([_intlist_mul(ca, r) for r in QA], x, y, ka),
        _dense_poly([_intlist_mul(cb, r) for r in QB], x, y, kb),
    )


def _interpolated_gcd(A, B):
    """(G, A/G, B/G) for rows A, B, each primitive in x of x-degree >= 1,
    with G their gcd.

    Points where a leading row vanishes are skipped. Images of lowest
    degree are kept; one of degree 0 proves the gcd is 1. The candidate
    is gamma * G / lc(G), of y-degree at most min(deg_y A, deg_y B) +
    deg gamma, so that many points plus one give it once every kept image
    has the degree of G. A candidate that does not divide A and B proves
    that its images were all unlucky (their degree is too high), so
    sampling goes on below that degree. No lucky point is dropped, and a
    point is unlucky only at a root of lc(A) lc(B) or of the resultant in
    x of A/G and B/G, of y-degree at most deg_x A deg_y B + deg_x B deg_y A
    (Brown); so past that many points plus n_points there is a bug.
    """
    la, lb = A[-1], B[-1]
    gamma = _intlist_gcd(la, lb)
    dxa, dya = len(A) - 1, max(map(len, A)) - 1
    dxb, dyb = len(B) - 1, max(map(len, B)) - 1
    n_points = min(dya, dyb) + len(gamma)
    budget = n_points + len(la) - 1 + len(lb) - 1 + dxa * dyb + dxb * dya
    points = []
    images = []
    bound = len(A)
    for tried, y0 in enumerate(_sample_points()):
        if tried == budget:
            raise ArithmeticError("no gcd certified after %d sample points" % budget)
        if not _horner(la, y0) or not _horner(lb, y0):
            continue
        g0 = _intlist_gcd([_horner(r, y0) for r in A], [_horner(r, y0) for r in B])
        d = len(g0) - 1
        if d == 0:
            return [[1]], A, B
        if d >= bound:
            continue
        if images and d < len(images[0][0]) - 1:
            points, images = [], []
        elif images and d > len(images[0][0]) - 1:
            continue
        images.append((g0, _horner(gamma, y0)))
        points.append(y0)
        if len(points) == n_points:
            G = _interpolate_rows(points, images)
            QA = _rows_quo(A, G)
            QB = _rows_quo(B, G) if QA is not None else None
            if QB is not None:
                return G, QA, QB
            bound, points, images = d, [], []


def _interpolate_rows(points, images):
    """Primitive integer rows; row i interpolates the images' x^i
    coefficients, each image (g0, v) standing for g0 * v / lc(g0).

    Lagrange form: the basis prod_{j != k} (y - p_j) is shared by every
    row, and one common denominator keeps all sums integral.
    """
    full = [1]
    for p in points:
        full = _intlist_mul(full, [-p, 1])
    m = len(points)
    basis = []
    weights = []
    for (g0, v), p in zip(images, points):
        N = [0] * m
        c = 0
        for j in range(m, 0, -1):
            c = full[j] + c * p
            N[j - 1] = c
        basis.append(N)
        weights.append(Fraction(v, g0[-1] * _horner(N, p)))
    den = 1
    for w in weights:
        den = _int_lcm(den, w.denominator)
    weights = [w.numerator * (den // w.denominator) for w in weights]
    rows = []
    for i in range(len(images[0][0])):
        r = [0] * m
        for (g0, _), w, N in zip(images, weights, basis):
            c = g0[i] * w
            if c:
                for j, k in enumerate(N):
                    r[j] += c * k
        rows.append(r)
    g = 0
    for r in rows:
        for c in r:
            g = _int_gcd(g, c)
    rows = [[c // g for c in r] for r in rows]
    for r in rows:
        while r and not r[-1]:
            r.pop()
    return _rows_primitive(rows)[1]


def _sample_points():
    """2, -2, 3, -3, ..."""
    for k in count(2):
        yield k
        yield -k


def _gcd_prs(a, b):
    """Gcd of canonical, non-constant a and b by the subresultant PRS
    (pseudo-remainder sequence) in one indeterminate, with contents taken
    recursively (Knuth, TAOCP vol. 2, 4.6.1, Algorithm C). It is the route
    for three or more indeterminates and the reference the tests hold the
    bivariate route to. The inputs are made primitive, so the remainders
    have integer coefficients, and dividing each by lc * h^delta bounds
    their growth without a content gcd at every step."""
    a = a.primitive()
    b = b.primitive()
    shared = sorted(set(a.vars) & set(b.vars), key=_var_key)
    if not shared:
        return P_ONE
    main = min(shared, key=lambda v: max(a.degree_in(v), b.degree_in(v)))

    cont_a = _poly_content_in(a, main)
    cont_b = _poly_content_in(b, main)
    pa = a.divexact(cont_a) if not cont_a.is_constant() else a
    pb = b.divexact(cont_b) if not cont_b.is_constant() else b
    g_cont = _gcd(cont_a, cont_b)[1]

    if pa.degree_in(main) < pb.degree_in(main):
        pa, pb = pb, pa
    lc = h = P_ONE
    while True:
        delta = pa.degree_in(main) - pb.degree_in(main)
        r = _pseudo_rem(pa, pb, main)
        if r.is_zero():
            break
        if not r.degree_in(main):
            pb = P_ONE
            break
        pa, pb = pb, r.divexact(lc * h**delta)
        lc = _split_main(pa, main)[pa.degree_in(main)]
        if delta:
            h = (lc**delta).divexact(h ** (delta - 1))
    cont_g = _poly_content_in(pb, main)
    g = pb.divexact(cont_g) if not cont_g.is_constant() else pb
    return (g_cont * g).primitive()


# How many top-level gcds took each path; read through gcd_path_counts().
_GCD_PATHS = dict.fromkeys(("trivial", "univariate", "bivariate", "prs"), 0)


def gcd_path_counts():
    """Snapshot of how many top-level gcds took each path since import.

    'trivial': an argument is zero or constant, or both are equal;
    'univariate': both in one indeterminate; 'bivariate': the integer-array
    evaluation-interpolation route, which always certifies its result;
    'prs': the subresultant PRS, taken only for three or more
    indeterminates. Gcds taken inside the PRS are not counted.
    """
    return dict(_GCD_PATHS)


def poly_gcd(a, b):
    """A gcd of a and b, primitive with positive graded-lex leading coeff."""
    return gcd_cofactors(a, b)[0]


def gcd_cofactors(a, b):
    """(g, a/g, b/g) with g = poly_gcd(a, b); both cofactors are 0 when
    a and b are."""
    path, g, ca, cb = _gcd(a, b)
    _GCD_PATHS[path] += 1
    return g, ca, cb


def _gcd(a, b):
    """(path, g, a/g, b/g) for gcd_cofactors, without counting."""
    if a.is_zero():
        return "trivial", b.primitive(), P_ZERO, Polynomial.const(b.content_signed())
    if b.is_zero():
        return "trivial", a.primitive(), Polynomial.const(a.content_signed()), P_ZERO
    if a.is_constant() or b.is_constant():
        return "trivial", P_ONE, a, b
    if a is b or a == b:
        c = Polynomial.const(a.content_signed())
        return "trivial", a.primitive(), c, c
    a = a.canonical()
    b = b.canonical()
    names = sorted(set(a.vars) | set(b.vars), key=_var_key)
    if len(names) <= 2:
        return ("univariate" if len(names) == 1 else "bivariate",) + _brown_gcd(a, b, names)
    g = _gcd_prs(a, b)
    return "prs", g, a.divexact(g), b.divexact(g)


# -- rational functions -----------------------------------------------------


class RationalFunction:
    """Reduced fraction scalar * prim / den (see the module docstring).

    prim and den are primitive integer polynomials with positive leading
    coefficient, scalar is a nonzero int or Fraction; zero is scalar 0
    over prim 0 and den 1. num = scalar * prim is built on first use.
    """

    __slots__ = ("scalar", "prim", "den", "_num", "_hash", "_mult")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = Polynomial.const(num)
        if den is None:
            den = P_ONE
        elif isinstance(den, (int, Fraction)):
            den = Polynomial.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.scalar, self.prim, self.den = _reduce_fraction(num, den)
        self._num = None
        self._hash = None
        self._mult = None

    @property
    def num(self):
        """The numerator scalar * prim, as a Polynomial over Q."""
        if self._num is None:
            self._num = self.prim.scale(self.scalar)
        return self._num

    @staticmethod
    def const(c):
        c = _normc(c)
        return _make(c, P_ONE if c else P_ZERO, P_ONE)

    @staticmethod
    def var(name):
        return _make(1, Polynomial.var(name), P_ONE)

    def is_zero(self):
        return not self.scalar

    def __bool__(self):
        return bool(self.scalar)

    def is_polynomial(self):
        return self.den.is_constant()

    def as_polynomial(self):
        if not self.is_polynomial():
            raise ValueError("not a polynomial: %s" % self)
        return self.num

    def is_constant(self):
        return self.prim.is_constant() and self.den.is_constant()

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant: %s" % self)
        return Fraction(self.scalar)

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.const(other)
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.scalar:
            return self
        if not self.scalar:
            return other
        # Henrici's rule: with a1 = d1/g and a2 = d2/g, a common factor of
        # num and a1*a2*g can only divide g (see the module docstring).
        s, k1, k2 = _join_scalars(self.scalar, other.scalar)
        if self.den.is_constant() and other.den.is_constant():
            g = a1 = a2 = P_ONE
        else:
            g, a1, a2 = gcd_cofactors(self.den, other.den)
        num = (self.prim * a2).scale(k1) + (other.prim * a1).scale(k2)
        if num.is_zero():
            return RF_ZERO
        c, num = _split_content(num)
        s = _normc(s * c)
        if g.is_constant():
            return _make(s, num, a1 * other.den)
        _, num, g = gcd_cofactors(num, g)
        return _make(s, num, a1 * a2 * g)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.scalar, self.prim, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.scalar or not other.scalar:
            return RF_ZERO
        s = _normc(self.scalar * other.scalar)
        if other.prim is P_ONE and other.den is P_ONE:
            return _make(s, self.prim, self.den)
        if self.den.is_constant() and other.den.is_constant():
            return _make(s, self.prim * other.prim, P_ONE)
        _, n1, d2 = gcd_cofactors(self.prim, other.den)
        _, n2, d1 = gcd_cofactors(other.prim, self.den)
        return _make(s, n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def inverse(self):
        if not self.scalar:
            raise ZeroDivisionError("inverting zero rational function")
        return _make(_quo(1, self.scalar), self.den, self.prim)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, RF_ONE)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.scalar == other.scalar and self.prim == other.prim and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            # a fraction over 1 equals its numerator, so it hashes as one
            if self.den.is_constant():
                self._hash = _hash_scaled(self.prim, self.scalar)
            else:
                self._hash = hash((self.scalar, self.prim, self.den))
        return self._hash

    def rename(self, mapping):
        # a renaming can change which term leads, so signs are fixed up
        s = self.scalar
        prim = self.prim.rename(mapping)
        den = self.den.rename(mapping)
        if prim and prim.leading()[1] < 0:
            prim, s = -prim, -s
        if den.leading()[1] < 0:
            den, s = -den, -s
        return _make(s, prim, den)

    def raise_exponents(self, n):
        # x -> x^n keeps the graded-lex order, so the leading terms stay
        return _make(self.scalar, self.prim.raise_exponents(n), self.den.raise_exponents(n))

    def specialize(self, assignment):
        """Substitute indeterminates by RationalFunction or Polynomial values.

        When every value is zero, a constant or a single term, numerator
        and denominator go through Polynomial.eval_poly; any other value
        takes the general path through rational arithmetic.
        Raises PoleError when the reduced denominator vanishes.
        """
        assign = {}
        for name, value in assignment.items():
            if isinstance(value, RationalFunction):
                assign[name] = value
            elif isinstance(value, (int, Fraction, Polynomial)):
                assign[name] = RationalFunction(
                    value if isinstance(value, Polynomial) else Polynomial.const(value)
                )
            else:
                raise TypeError("bad substitution value for %s" % name)
        if all(v.is_polynomial() and len(v.prim.terms) <= 1 for v in assign.values()):
            polys = {k: v.num for k, v in assign.items()}
            num = self.prim.eval_poly(polys)
            den = self.den.eval_poly(polys)
            if den.is_zero():
                raise PoleError(
                    "denominator %s vanishes under %s" % (self.den, _fmt_assign(assignment))
                )
            s, num, den = _reduce_fraction(num, den)
            return _make(_normc(s * self.scalar), num, den)
        num = _eval_rf(self.num, assign)
        den = _eval_rf(self.den, assign)
        if den.is_zero():
            raise PoleError(
                "denominator %s vanishes under %s" % (self.den, _fmt_assign(assignment))
            )
        return num / den

    def total_degree(self):
        return max(self.prim.total_degree(), self.den.total_degree())

    def __str__(self):
        if self.den.is_constant():
            return str(self.num)
        num = str(self.num)
        if len(self.prim.terms) > 1:
            num = "(%s)" % num
        return "%s/(%s)" % (num, self.den)

    def __repr__(self):
        return "RationalFunction(%s)" % self

    @staticmethod
    def parse(text):
        """Parse the canonical fraction form produced by __str__.

        Accepts a bare polynomial, '(num)/(den)' and 'num/(den)'; the
        polynomial grammar itself never contains parentheses, so the
        split at '/(' is unambiguous.
        """
        s = text.strip()
        if "/(" not in s:
            return RationalFunction(Polynomial.parse(s))
        num_text, den_text = s.split("/(", 1)
        num_text = num_text.strip()
        if num_text.startswith("(") and num_text.endswith(")"):
            num_text = num_text[1:-1]
        den_text = den_text.strip()
        if not den_text.endswith(")"):
            raise ParseError("unterminated denominator in %r" % text)
        den_text = den_text[:-1]
        return RationalFunction(Polynomial.parse(num_text), Polynomial.parse(den_text))


def _make(scalar, prim, den):
    """The RationalFunction scalar * prim / den, its parts already in the
    canonical form of the class."""
    r = RationalFunction.__new__(RationalFunction)
    r.scalar = scalar
    r.prim = prim
    r.den = den
    r._num = None
    r._hash = None
    r._mult = None
    return r


def _quo(a, b):
    """a / b for rationals a and b != 0, an int when integral."""
    if b == 1:
        return a
    return _normc(Fraction(a, b))


def _join_scalars(s1, s2):
    """(s, s1 / s, s2 / s) for nonzero rationals, s > 0 their gcd: the
    gcd of the numerators over the lcm of the denominators, so both
    quotients are ints."""
    n = _int_gcd(s1.numerator, s2.numerator)
    d = _int_lcm(s1.denominator, s2.denominator)
    return _quo(n, d), s1.numerator // n * (d // s1.denominator), s2.numerator // n * (d // s2.denominator)


def _content(p):
    """(p.content_signed(), whether every coefficient of p is an int)."""
    if not p.terms:
        return 1, True
    num = 0
    den = 1
    ints = True
    for c in p.terms.values():
        if type(c) is int:
            num = _int_gcd(num, c)
        else:
            ints = False
            num = _int_gcd(num, c.numerator)
            den = den * c.denominator // _int_gcd(den, c.denominator)
    if p.leading()[1] < 0:
        num = -num
    return (num if den == 1 else Fraction(num, den)), ints


def _split_content(p):
    """(c, p / c) with c = p.content_signed(), an int when integral: p / c
    has coprime int coefficients and a positive leading coefficient."""
    c, ints = _content(p)
    if c == 1 and ints:
        return 1, p
    n, d = c.numerator, c.denominator
    if d == 1:
        return c, Polynomial._raw(p.vars, {e: k // n for e, k in p.terms.items()})
    return c, Polynomial._raw(p.vars, {e: k * d // n for e, k in p.terms.items()})


def _fmt_assign(assignment):
    return "{" + ", ".join("%s=%s" % (k, v) for k, v in assignment.items()) + "}"


def _eval_rf(poly, assign):
    out = RF_ZERO
    powers = {v: {} for v in assign}
    for e, c in poly.terms.items():
        keep_vars = []
        keep_exps = []
        acc = None
        for name, ex in zip(poly.vars, e):
            if not ex:
                continue
            if name in assign:
                cache = powers[name]
                if ex not in cache:
                    cache[ex] = assign[name] ** ex
                acc = cache[ex] if acc is None else acc * cache[ex]
            else:
                keep_vars.append(name)
                keep_exps.append(ex)
        term = RationalFunction(Polynomial(tuple(keep_vars), {tuple(keep_exps): c}))
        if acc is not None:
            term = term * acc
        out = out + term
    return out


def _reduce_fraction(num, den):
    """(scalar, prim, den) of num / den in the form of RationalFunction:
    the contents are split off first, so the gcd sees integer inputs."""
    if num.is_zero():
        return 0, P_ZERO, P_ONE
    cn, num = _split_content(num)
    if den.is_constant():
        return _quo(cn, den.constant_value()), num, P_ONE
    cd, den = _split_content(den)
    _, num, den = gcd_cofactors(num, den)
    if den.is_constant():
        den = P_ONE
    return _quo(cn, cd), num, den


def normalize_fraction(num, den):
    """Reduced, sign-normalized fraction num/den."""
    return RationalFunction(num, den)


RF_ZERO = RationalFunction.const(0)
RF_ONE = RationalFunction.const(1)


def rf(text_or_value):
    """Convenience constructor: parse text or wrap a number/polynomial."""
    if isinstance(text_or_value, str):
        return RationalFunction.parse(text_or_value)
    if isinstance(text_or_value, RationalFunction):
        return text_or_value
    if isinstance(text_or_value, Polynomial):
        return RationalFunction(text_or_value)
    return RationalFunction.const(text_or_value)


# -- denominators with known irreducible factors --------------------------------


@lru_cache(maxsize=None)
def _cyclotomic(d):
    """The d-th cyclotomic polynomial in the indeterminate x."""
    out = Polynomial.var("x", d) - 1
    for e in range(1, d):
        if d % e == 0:
            out = out.divexact(_cyclotomic(e))
    return out


@lru_cache(maxsize=None)
def binomial_factors(x, a, y, b):
    """(unit, factors) with x^a - y^b = unit * prod(factors) over Q.

    With g = gcd(a, b), x^a - y^b = prod over d | g of the homogenized
    cyclotomic polynomial Phi_d(X, Y) = Y^phi(d) Phi_d(X/Y) at
    X = x^(a/g), Y = y^(b/g); each factor is irreducible, and a or b = 0
    gives the univariate cyclotomic factorization. The factors are
    distinct, in the variables (x, y), primitive with positive graded-lex
    leading coefficient, and unit is 1 or -1.
    """
    g = _int_gcd(a, b)
    if not g:
        raise ValueError("x^0 - y^0 is zero")
    unit = 1
    factors = []
    for d in range(1, g + 1):
        if g % d:
            continue
        phi = _cyclotomic(d)
        top = phi.degree_in("x")
        f = Polynomial(
            (x, y), {(a // g * i, b // g * (top - i)): c for (i,), c in phi.terms.items()}
        )
        if f.leading()[1] < 0:
            f = -f
            unit = -unit
        factors.append(f)
    return unit, tuple(factors)


# How many row divisions split_factors made, and how many factors
# factored_sum left untried; read through split_counts().
_SPLITS = dict.fromkeys(("divided", "failed", "skipped"), 0)


def split_counts():
    """Snapshot of split_factors' exact divisions since import: 'divided'
    by a factor that divides, 'failed' where the factor does not, and
    'skipped': the factors common to two denominators that factored_sum
    did not try because their multiplicities differ."""
    return dict(_SPLITS)


def split_factors(p, factors):
    """(cofactor, {f: k}) with p = cofactor * prod f^k over the (f, m)
    pairs of factors: each f is divided out of p for as long as it
    divides, at most m times, so where k < m the cofactor is prime to an
    irreducible f. Zero multiplicities are left out. The f are distinct
    irreducible polynomials, so the order in which they are divided out
    does not change the result.

    p and the f use at most two indeterminates together, x the first of
    them in the package order and y the other; a third raises
    ValueError. p becomes rows in x over Z[y] once, and every f divides
    there (Knuth, TAOCP vol. 2, 4.6.1). Each f must be an integer
    polynomial whose top power x^D has a coefficient c(y) with top
    coefficient +-1, as every factor of binomial_factors has: c(y) is
    one term for a factor in x, and Phi_d(y), with D = 0, for one in y
    alone. Any other f raises ValueError. Each quotient row is the top
    remainder row divided by c(y), a shift when c(y) is one term and
    otherwise a division with no coefficient division, and the other
    rows of f times it are subtracted from the rows below. The division
    fails when a row does not divide or a row below x^D is left
    nonzero."""
    todo = [(f, m) for f, m in factors if m]
    if not todo:
        return p, {}
    p = p.canonical()
    names = set(p.vars).union(*(_indeterminates(f) for f, _ in todo))
    if len(names) > 2:
        raise ValueError("more than two indeterminates: %s" % ", ".join(sorted(names)))
    x, y = (sorted(names, key=_var_key) + [None, None])[:2]
    scale, rows = _split_rows(p, x, y)
    found = {}
    for f, m in todo:
        divisor = _row_divisor(f, x, y)
        if divisor is None:
            raise ValueError("%s is not an integer polynomial +-1-led in %s over %s" % (f, x, y))
        k = 0
        while k < m:
            quo = _rows_divide(rows, *divisor)
            if quo is None:
                _SPLITS["failed"] += 1
                break
            _SPLITS["divided"] += 1
            rows = quo
            k += 1
        if k:
            found[f] = k
    if found:
        p = _rows_poly(rows, x, y, scale)
    return p, found


@lru_cache(maxsize=None)
def _indeterminates(f):
    """The indeterminates the factor f uses."""
    return f.canonical().vars


@lru_cache(maxsize=None)
def _row_divisor(f, x, y):
    """(D, s, u, low, rest) for dividing by f on rows in x over Z[y]: the
    top power of f in x is x^D, its coefficient is u y^s plus c y^j over
    the (j, c) of low, and rest lists each other term c x^i y^j of f as
    (D - i, j, c). None unless f has int coefficients and u = +-1."""
    scale, rows = _split_rows(f.canonical(), x, y)
    top = max(rows)
    low = dict(rows.pop(top))
    s = max(low)
    u = low.pop(s)
    if scale != 1 or u not in (1, -1):
        return None
    rest = tuple((top - i, j, c) for i, row in rows.items() for j, c in row.items())
    return top, s, u, tuple(low.items()), rest


def _rows_divide(rows, top, s, u, low, rest):
    """The rows of p / f, or None when f does not divide p, for the f of
    _row_divisor(f, x, y) = (top, s, u, low, rest). rows is left as it
    is: a row is copied before it is first changed."""
    if not rows:
        return {}
    rem = dict(rows)
    own = set()
    quo = {}
    for i in range(max(rem), top - 1, -1):
        row = rem.pop(i, None)
        if not row:
            continue
        if low:
            row = _row_quo(row, s, u, low)
            if row is None:
                return None
        elif s or u != 1:
            if min(row) < s:
                return None
            row = {key - s: c * u for key, c in row.items()}
        quo[i - top] = row
        for drop, j, c in rest:
            r = i - drop
            if r in own:
                target = rem[r]
            else:
                target = rem[r] = dict(rem.get(r) or ())
                own.add(r)
            for key, v in row.items():
                key += j
                v = target.get(key, 0) - v * c
                if v:
                    target[key] = v
                else:
                    del target[key]
    if any(rem.values()):
        return None
    return quo


def _row_quo(row, s, u, low):
    """The row {j: c} divided by u y^s + sum of c y^j over the (j, c) of
    low, u = +-1, or None when it does not divide."""
    rem = [0] * (max(row) + 1)
    for j, c in row.items():
        rem[j] = c
    quo = {}
    for j in range(len(rem) - 1, s - 1, -1):
        c = rem[j]
        if c:
            quo[j - s] = c = c * u
            for jl, cl in low:
                rem[j - s + jl] -= c * cl
    return None if any(rem[:s]) else quo


def split_product(x, y):
    """The product of two (scalar, cofactor, {f: k}) splits: scalars and
    cofactors multiply, and the multiplicities add."""
    mult = dict(x[2])
    for f, k in y[2].items():
        mult[f] = mult.get(f, 0) + k
    return x[0] * y[0], x[1] * y[1], mult


def split_over(x, norm):
    """The split x over norm = (unit, ((f, m), ...)), unit 1 or -1, as a
    (scalar, prim, mult) term of factored_sum: a multiplicity of x above m
    goes back into the numerator, the deficit below m is the denominator.
    The term is reduced if every cofactor of x is prime to the f left in
    the denominator, as split_factors leaves them."""
    s, prim, mult = x
    unit, factors = norm
    den = {}
    for f, m in factors:
        e = mult.get(f, 0) - m
        if e > 0:
            prim = prim * f**e
        elif e < 0:
            den[f] = -e
    # unit is 1 or -1, its own inverse
    return s * unit, prim, den


def factored_sum(terms):
    """The sum of the fractions scalar * prim / prod f^m over the
    (scalar, prim, mult) triples, mult a dict f -> m > 0, as a reduced
    RationalFunction.

    Each prim is an integer polynomial coprime to every f of its mult,
    and the f are distinct irreducible polynomials, primitive with
    positive leading coefficient; a zero scalar is a zero term. Terms are
    added by Henrici's rule on the multiplicities: g is the per-factor
    minimum, and the cofactors d1/g and d2/g are products of known
    factors, multiplied out once per distinct product (_power_product).
    No gcd is taken. A factor f of g can divide the new numerator
    n1 (d2/g) + n2 (d1/g) only where its multiplicities m1, m2 in d1 and
    d2 are equal: if m1 > m2, f divides d1/g and so n2 (d1/g), while n1
    and d2/g are prime to f, so f does not divide the sum. So only the
    factors of equal multiplicity are divided out (split_factors), at
    most that many times; the others are counted as skipped in
    split_counts(). Every factor has a top coefficient led by +-1, so the
    numerator stays integral, and its content is split off once, at the
    end, as is the denominator multiplied out; its mult stays on the
    result, for _term_sum. A mult dict is never changed once made.
    """
    s, num, den = 0, P_ZERO, {}
    for s2, num2, den2 in terms:
        if not s2:
            continue
        if not s:
            s, num, den = _normc(s2), num2, den2
            continue
        g, equal = {}, []
        for f, m in den.items():
            m2 = den2.get(f)
            if m2:
                g[f] = min(m, m2)
                if m == m2:
                    equal.append((f, m))
        _SPLITS["skipped"] += len(g) - len(equal)
        s, k1, k2 = _join_scalars(s, s2)
        num = (num * _factor_product(den2, g)).scale(k1) + (num2 * _factor_product(den, g)).scale(k2)
        if num.is_zero():
            s, num, den = 0, P_ZERO, {}
            continue
        lcm = dict(den)
        for f, m in den2.items():
            lcm[f] = max(m, lcm.get(f, 0))
        num, divided = split_factors(num, equal)
        for f, k in divided.items():
            lcm[f] -= k
        den = {f: m for f, m in lcm.items() if m}
    if not s:
        return RF_ZERO
    c, num = _split_content(num)
    out = _make(_normc(s * c), num, _factor_product(den, {}))
    out._mult = den
    return out


def _factor_product(mult, minus):
    """prod f^(m - minus[f]) over the items f -> m of mult."""
    return _power_product(frozenset((f, m - minus.get(f, 0)) for f, m in mult.items() if m > minus.get(f, 0)))


@lru_cache(maxsize=None)
def _power_product(powers):
    """prod f^m over the (f, m) pairs of the frozenset powers."""
    out = P_ONE
    for f, m in powers:
        out = out * f**m
    return out


def _factored_product(x, y):
    """The product of two terms of factored_sum, reduced: each prim is
    divided by the other term's factors (split_factors) and split_product
    multiplies what is left. The factors are those of binomial_factors,
    none of them one term, so a prim of one term is left as it is."""
    if not x[0] or not y[0]:
        return 0, P_ZERO, {}
    (s1, p1, m1), (s2, p2, m2) = x, y
    p1, k1 = _cancel(p1, m2)
    p2, k2 = _cancel(p2, m1)
    return split_product((s1, p1, _less(m1, k2)), (s2, p2, _less(m2, k1)))


def _cancel(p, mult):
    """split_factors of p against the factors of mult, p itself when it is one term."""
    return split_factors(p, mult.items()) if mult and len(p.terms) > 1 else (p, {})


def _less(mult, minus):
    """The multiplicities of mult less those of minus, zeros left out."""
    return {f: m - minus.get(f, 0) for f, m in mult.items() if m > minus.get(f, 0)} if minus else mult


@lru_cache(maxsize=None)
def _binomial_of(f, names):
    """(x, a, y, b) with f one of binomial_factors(x, a, y, b), or None, for
    names = f.vars = (x, y). names keys the cache: polynomials that differ
    only by an unused name are equal. Such an f is Phi_e(x^i, y^j)
    homogenized, i and j coprime: its degrees are i phi(e) in x and
    j phi(e) in y, and phi(e) >= sqrt(e / 2)."""
    if len(names) != 2:
        return None
    x, y = names
    dx, dy = f.degree_in(x), f.degree_in(y)
    g = _int_gcd(dx, dy)
    for e in range(1, 2 * g * g + 2):
        if sum(_int_gcd(k, e) == 1 for k in range(1, e + 1)) == g:
            args = (x, dx // g * e, y, dy // g * e)
            if f in binomial_factors(*args)[1]:
                return args
    return None


@lru_cache(maxsize=None)
def _adams_factors(f, n):
    """(unit, factors) with psi_n(f) = unit * prod(factors), unit 1 or -1,
    for f one of binomial_factors(x, a, y, b): psi_n(f) divides
    x^(na) - y^(nb), so its factors are among those of
    binomial_factors(x, na, y, nb), each once."""
    x, a, y, b = _binomial_of(f, f.vars)
    factors = binomial_factors(x, n * a, y, n * b)[1]
    cofactor, found = split_factors(f.raise_exponents(n), [(g, 1) for g in factors])
    return cofactor.constant_value(), tuple(found)


def _factored_adams(n, x):
    """psi_n of a term of factored_sum, reduced: psi_n keeps coprime
    polynomials coprime, and each factor goes to its split."""
    s, p, mult = x
    den = {}
    for f, m in mult.items():
        unit, factors = _adams_factors(f, n)
        s *= unit**m
        for g in factors:
            den[g] = den.get(g, 0) + m
    return s, p.raise_exponents(n), den


class _TermSum:
    """An unreduced sum of terms of factored_sum: a coefficient of the
    plethystic Log and Exp on their split path (plethysm). Sums join the
    terms, a product multiplies every pair of them (_factored_product),
    raise_exponents maps each one (_factored_adams), and _total adds them
    once, by factored_sum. No gcd is taken. A HookField holds two, as its
    base and eps parts, so its own rules multiply and raise them."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    def is_zero(self):
        # known to be zero only without terms; _total drops a zero sum
        return not self.terms

    def __add__(self, other):
        other = _as_term_sum(other)
        return NotImplemented if other is None else _TermSum(self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self):
        return _TermSum(tuple((-s, p, m) for s, p, m in self.terms))

    def __mul__(self, other):
        other = _as_term_sum(other)
        if other is None:
            return NotImplemented
        return _TermSum(tuple(_factored_product(x, y) for x in self.terms for y in other.terms))

    __rmul__ = __mul__

    def raise_exponents(self, n):
        return _TermSum(tuple(_factored_adams(n, x) for x in self.terms))


def _as_term_sum(c):
    """c as a _TermSum when it is one or a RationalFunction that splits, else None."""
    return _term_sum(c) if isinstance(c, RationalFunction) else c if isinstance(c, _TermSum) else None


def _term_sum(c):
    """The coefficient c as a _TermSum, a HookField of two for a HookField,
    or None when a denominator of c is not constant and carries no
    factors, as factored_sum leaves them."""
    if isinstance(c, HookField):
        parts = (_term_sum(c.base), _term_sum(c.odd))
        return None if parts[0] is None or parts[1] is None else HookField(*parts)
    if not c.scalar:
        return _TermSum(())
    if c.den.is_constant():
        return _TermSum(((c.scalar, c.prim, {}),))
    return None if c._mult is None else _TermSum(((c.scalar, c.prim, c._mult),))


def _total(c):
    """The coefficient that c stands for: each _TermSum added up by
    factored_sum, a HookField part by part; a coefficient as it is."""
    if isinstance(c, HookField):
        return HookField(_total(c.base), _total(c.odd))
    return factored_sum(c.terms) if isinstance(c, _TermSum) else c


def _splittable(coefficients):
    """Whether every coefficient has a _term_sum whose products and Adams
    images need no gcd: each carried factor is one of binomial_factors,
    and where any is carried, prims and factors use at most two
    indeterminates together, as split_factors needs."""
    names = set()
    carried = False
    for c in coefficients:
        for r in (c.base, c.odd) if isinstance(c, HookField) else (c,):
            names.update(r.prim.vars, r.den.vars)
            if not r.den.is_constant():
                if r._mult is None or not all(_binomial_of(f, f.vars) for f in r._mult):
                    return False
                carried = True
    return not carried or len(names) <= 2


# -- quadratic extension for the genus-g hook numerators ----------------------


_ZW = RationalFunction.var("Z") * RationalFunction.var("W")


class HookField:
    """Element base + odd*eps of Q(Z,W)[eps]/(eps^2 - Z*W)."""

    __slots__ = ("base", "odd")

    def __init__(self, base, odd=None):
        # a _TermSum part stays unreduced until _total
        self.base = base if isinstance(base, _TermSum) else rf(base)
        self.odd = RF_ZERO if odd is None else odd if isinstance(odd, _TermSum) else rf(odd)

    def is_zero(self):
        return self.base.is_zero() and self.odd.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def _coerce(self, other):
        if isinstance(other, HookField):
            return other
        if isinstance(other, (int, Fraction, Polynomial, RationalFunction, _TermSum)):
            return HookField(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return HookField(self.base + other.base, self.odd + other.odd)

    __radd__ = __add__

    def __neg__(self):
        return HookField(-self.base, -self.odd)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.odd.is_zero() and other.odd.is_zero():
            return HookField(self.base * other.base)
        return HookField(
            self.base * other.base + self.odd * other.odd * _ZW,
            self.base * other.odd + self.odd * other.base,
        )

    __rmul__ = __mul__

    def inverse(self):
        # conjugate trick: (a + b eps)(a - b eps) = a^2 - b^2 Z W
        norm = self.base * self.base - self.odd * self.odd * _ZW
        if norm.is_zero():
            raise ZeroDivisionError("non-invertible hook-field element")
        inv = norm.inverse()
        return HookField(self.base * inv, -(self.odd * inv))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("hook-field powers must be non-negative integers")
        return _power(self, n, HF_ONE)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.base == other.base and self.odd == other.odd

    def __hash__(self):
        # an element with no eps part equals its base, so it hashes as one
        if self.odd.is_zero():
            return hash(self.base)
        return hash((self.base, self.odd))

    def raise_exponents(self, n):
        """Adams action: Z,W -> Z^n,W^n and eps -> eps^n = (ZW)^(n//2) eps^(n%2)."""
        base = self.base.raise_exponents(n)
        odd = self.odd.raise_exponents(n)
        if self.odd.is_zero():
            return HookField(base)
        shift = _ZW ** (n // 2)
        if n % 2:
            return HookField(base, odd * shift)
        return HookField(base + odd * shift, RF_ZERO)

    def specialize(self, assignment, eps_value=None):
        """Substitute Z, W (and anything else) and the value of eps.

        eps_value None asserts the odd part vanishes; otherwise
        eps_value**2 must equal the substituted Z*W.
        """
        base = self.base.specialize(assignment)
        if self.odd.is_zero():
            return base
        if eps_value is None:
            raise ValueError("element has an eps part but no eps value was given")
        eps_value = rf(eps_value)
        zw = _ZW.specialize(assignment)
        if eps_value * eps_value != zw:
            raise ValueError("eps value %s is inconsistent with Z*W = %s" % (eps_value, zw))
        return base + self.odd.specialize(assignment) * eps_value

    def __str__(self):
        if self.odd.is_zero():
            return str(self.base)
        return "(%s) + (%s)*eps" % (self.base, self.odd)

    def __repr__(self):
        return "HookField(%s)" % self


HF_ZERO = HookField(RF_ZERO)
HF_ONE = HookField(RF_ONE)
