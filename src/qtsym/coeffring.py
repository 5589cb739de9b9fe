"""Exact sparse multivariate polynomials and rational functions over Q.

Every coefficient in the package runs through these types; there is no
floating point anywhere. RationalFunction is the universal coefficient
field. HookField adjoins eps with eps^2 = Z*W, which is what the squared
hook numerators of the genus-g kernel live in once z^2, w^2 are renamed
to Z, W.

Coefficients are stored as plain ints whenever the value is integral and
as Fraction otherwise; integer fast paths matter because the table
solves and kernel assembly do millions of coefficient operations.

Values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd


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
        vs, ta, tb = self._align(other)
        if len(vs) == 1 and ta and tb:
            la = _dense_from_terms(ta)
            lb = _dense_from_terms(tb)
            out = [0] * (len(la) + len(lb) - 1)
            for i, a in enumerate(la):
                if a:
                    for j, b in enumerate(lb):
                        if b:
                            out[i + j] += a * b
            return Polynomial._raw(vs, {(i,): _normc(c) for i, c in enumerate(out) if c})
        out = {}
        if len(ta) > len(tb):
            ta, tb = tb, ta
        for ea, ca in ta.items():
            for eb, cb in tb.items():
                e = tuple(x + y for x, y in zip(ea, eb))
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
        for e, c in out.items():
            if type(c) is not int and c.denominator == 1:
                out[e] = c.numerator
        return Polynomial._raw(vs, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Polynomial.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

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
            c = self.canonical()
            self._hash = hash((c.vars, frozenset(c.terms.items())))
        return self._hash

    # -- graded-lex structure ---------------------------------------------

    def leading(self):
        """(exponent tuple, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=lambda e: (sum(e), e))
        return e, self.terms[e]

    def content_signed(self):
        """Rational c with self/c integer, coprime, positive leading coeff."""
        if not self.terms:
            return Fraction(1)
        num = 0
        den = 1
        for c in self.terms.values():
            if type(c) is int:
                num = _int_gcd(num, c)
            else:
                num = _int_gcd(num, c.numerator)
                den = den * c.denominator // _int_gcd(den, c.denominator)
        c = Fraction(num, den)
        _, lead = self.leading()
        return -c if lead < 0 else c

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
        if not self.terms:
            return self
        return self.scale(1 / self.content_signed())

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
        if len(vs) == 1 and ta:
            la = _dense_from_terms(ta)
            lb = _dense_from_terms(tb)
            da, db = len(la) - 1, len(lb) - 1
            if da < db:
                raise ValueError("not an exact polynomial division")
            lead = lb[db]
            quo = [0] * (da - db + 1)
            rem = list(la)
            for i in range(da - db, -1, -1):
                c = rem[db + i]
                if c:
                    qc = _exact_div(c, lead)
                    quo[i] = qc
                    for j in range(db + 1):
                        if lb[j]:
                            rem[i + j] -= qc * lb[j]
            if any(rem):
                raise ValueError("not an exact polynomial division")
            return Polynomial._raw(vs, {(i,): _normc(c) for i, c in enumerate(quo) if c})
        lead_b = max(tb, key=lambda e: (sum(e), e))
        cb = tb[lead_b]
        tail_b = [(eb, k) for eb, k in tb.items() if eb != lead_b]
        rem = dict(ta)
        # Max-heap on graded-lex order of the remainder's exponents. A term
        # that cancels stays in the heap and is skipped when popped; every
        # exponent in rem has at least one entry.
        heap = [(-sum(e), tuple(-x for x in e), e) for e in rem]
        heapq.heapify(heap)
        quo = {}
        while rem:
            lead_r = heapq.heappop(heap)[2]
            c = rem.pop(lead_r, None)
            if c is None:
                continue
            diff = tuple(x - y for x, y in zip(lead_r, lead_b))
            if any(d < 0 for d in diff):
                raise ValueError("not an exact polynomial division")
            c = _exact_div(c, cb)
            quo[diff] = c
            for eb, k in tail_b:
                e = tuple(x + y for x, y in zip(diff, eb))
                prev = rem.get(e)
                if prev is None:
                    rem[e] = _normc(-c * k)
                    heapq.heappush(heap, (-sum(e), tuple(-x for x in e), e))
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
                except ValueError as exc:
                    raise ParseError("bad coefficient %r" % factor) from exc
            else:
                name, _, exp = factor.partition("^")
                if not name.isidentifier():
                    raise ParseError("bad indeterminate %r" % name)
                e = 1
                if exp:
                    try:
                        e = int(exp)
                    except ValueError as exc:
                        raise ParseError("bad exponent %r" % exp) from exc
                    if e < 0:
                        raise ParseError("negative exponent in %r" % piece)
                varpart[name] = varpart.get(name, 0) + e
        names = tuple(varpart)
        return Polynomial(names, {tuple(varpart[v] for v in names): coeff})


def _dense_from_terms(terms):
    """Dense coefficient list for single-variable term dicts."""
    deg = max(e[0] for e in terms)
    out = [0] * (deg + 1)
    for e, c in terms.items():
        out[e[0]] = c
    return out


P_ZERO = Polynomial.const(0)
P_ONE = Polynomial.const(1)


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


def _monomial_content(p):
    """Per-variable minimum exponents over all terms."""
    mins = None
    for e in p.terms:
        mins = e if mins is None else tuple(min(a, b) for a, b in zip(mins, e))
    return mins


def _strip_monomial(p, mins):
    if mins is None or not any(mins):
        return p
    return Polynomial._raw(
        p.vars, {tuple(a - b for a, b in zip(e, mins)): c for e, c in p.terms.items()}
    )


def _poly_content_in(p, main):
    parts = _split_main(p, main)
    g = P_ZERO
    for c in parts.values():
        g = poly_gcd(g, c)
        if not g.is_zero() and g.is_constant():
            return P_ONE
    return g


def _pseudo_rem(a, b, main):
    """Pseudo remainder of a by b in variable main (up to lc powers)."""
    da = _split_main(a, main)
    db = _split_main(b, main)
    degb = max(db)
    lcb = db[degb]
    r = da
    while r and max(r) >= degb:
        degr = max(r)
        lcr = r[degr]
        shift = degr - degb
        new = {}
        for d, c in r.items():
            new[d] = c * lcb
        for d, c in db.items():
            e = d + shift
            val = new.get(e, P_ZERO) - c * lcr
            if val.is_zero():
                new.pop(e, None)
            else:
                new[e] = val
        new.pop(degr, None)
        r = new
    return _join_main(r, main) if r else P_ZERO


def _dense_int_list(p, var):
    """Dense integer coefficient list (low to high) of a univariate p,
    after clearing the rational content."""
    prim = p.primitive()
    i = prim.vars.index(var)
    out = [0] * (prim.degree_in(var) + 1)
    for e, c in prim.terms.items():
        out[e[i]] = _normc(c)
    return out


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


def _newton_interpolation(points, values):
    """Exact ascending coefficients of the interpolating polynomial."""
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
    acc = [Fraction(1)]
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


def _eval_intlist(coeffs_by_y, y0):
    """coeffs_by_y: dict yexp -> int; evaluate at integer y0."""
    out = 0
    for j, c in coeffs_by_y.items():
        out += c * y0**j
    return out


def _gcd_bivariate(a, b, xvar, yvar):
    """Evaluation-interpolation gcd for two truly bivariate polynomials.

    Samples y at integers, takes fast univariate gcds in x, interpolates
    the coefficients, and certifies by trial division. Returns None when
    sampling fails (caller falls back to the subresultant route).
    """
    aligned = tuple(sorted((xvar, yvar), key=_var_key))
    xi = aligned.index(xvar)
    yi = 1 - xi

    def split(p):
        # dict xexp -> {yexp: int}, after clearing rational content
        prim = p.primitive()
        idx = {v: k for k, v in enumerate(prim.vars)}
        out = {}
        for e, c in prim.terms.items():
            ex = e[idx[xvar]] if xvar in idx else 0
            ey = e[idx[yvar]] if yvar in idx else 0
            out.setdefault(ex, {})[ey] = _normc(c)
        return out

    sa = split(a)
    sb = split(b)
    dxa, dxb = max(sa), max(sb)
    dya = max(max(d) for d in sa.values())
    dyb = max(max(d) for d in sb.values())
    la = sa[dxa]
    lb = sb[dxb]
    gamma = _intlist_gcd(
        [la.get(j, 0) for j in range(max(la) + 1)],
        [lb.get(j, 0) for j in range(max(lb) + 1)],
    )
    n_points = min(dya, dyb) + len(gamma) + 1
    samples = []
    points = []
    dmin = None
    y0 = 0
    attempts = 0
    while len(points) < n_points:
        attempts += 1
        if attempts > 4 * n_points + 20:
            return None
        y0 = -y0 + (1 if y0 <= 0 else 0)  # 0, 1, -1, 2, -2, ...
        if _eval_intlist(la, y0) == 0 or _eval_intlist(lb, y0) == 0:
            continue
        fa = [0] * (dxa + 1)
        for ex, cs in sa.items():
            fa[ex] = _eval_intlist(cs, y0)
        fb = [0] * (dxb + 1)
        for ex, cs in sb.items():
            fb[ex] = _eval_intlist(cs, y0)
        g0 = _intlist_gcd(fa, fb)
        deg = len(g0) - 1
        if deg == 0:
            # coprime in x: gcd has no x part; it divides both contents,
            # which were stripped by the caller
            return P_ONE
        if dmin is None or deg < dmin:
            dmin = deg
            samples = []
            points = []
        if deg > dmin:
            continue
        scale = Fraction(_eval_gamma(gamma, y0), g0[-1])
        samples.append([c * scale for c in g0])
        points.append(Fraction(y0))
    terms = {}
    for i in range(dmin + 1):
        coeffs = _newton_interpolation(points, [s[i] for s in samples])
        for j, c in enumerate(coeffs):
            if c:
                e = [0, 0]
                e[xi] = i
                e[yi] = j
                terms[tuple(e)] = c
    candidate = Polynomial(aligned, terms)
    # strip any leftover y-only content before certifying
    ycont = _poly_content_in(candidate, xvar)
    if not ycont.is_constant():
        candidate = candidate.divexact(ycont)
    candidate = candidate.primitive()
    try:
        a.divexact(candidate)
        b.divexact(candidate)
    except ValueError:
        return None
    return candidate


def _eval_gamma(gamma, y0):
    out = 0
    for j, c in enumerate(gamma):
        out += c * y0**j
    return out


def poly_gcd(a, b):
    """A gcd of a and b, primitive with positive graded-lex leading coeff."""
    if a.is_zero():
        return b.primitive()
    if b.is_zero():
        return a.primitive()
    if a.is_constant() or b.is_constant():
        return P_ONE
    if a is b or a == b:
        return a.primitive()

    a = a.canonical()
    b = b.canonical()
    if len(a.vars) == 1 and a.vars == b.vars:
        var = a.vars[0]
        g = _intlist_gcd(_dense_int_list(a, var), _dense_int_list(b, var))
        return Polynomial((var,), {(i,): c for i, c in enumerate(g) if c})
    mina = _monomial_content(a)
    minb = _monomial_content(b)
    av, bv = set(a.vars), set(b.vars)
    mono = {}
    for v in sorted(av | bv, key=_var_key):
        ea = mina[a.vars.index(v)] if v in av else 0
        eb = minb[b.vars.index(v)] if v in bv else 0
        m = min(ea if v in av else 0, eb if v in bv else 0)
        if m:
            mono[v] = m
    a = _strip_monomial(a, mina).canonical()
    b = _strip_monomial(b, minb).canonical()
    mono_poly = (
        Polynomial(tuple(mono), {tuple(mono[v] for v in mono): 1}) if mono else P_ONE
    )

    if a.is_constant() or b.is_constant():
        return mono_poly

    shared = sorted(set(a.vars) & set(b.vars), key=_var_key)
    if not shared:
        return mono_poly
    union = sorted(set(a.vars) | set(b.vars), key=_var_key)
    if len(union) == 2:
        # evaluation-interpolation route; fewer sample points when the
        # interpolated variable has the smaller degree
        yvar = min(union, key=lambda v: min(a.degree_in(v), b.degree_in(v)))
        xvar = union[0] if yvar == union[1] else union[1]
        cont_a = _poly_content_in(a, xvar)
        cont_b = _poly_content_in(b, xvar)
        pa = a.divexact(cont_a) if not cont_a.is_constant() else a
        pb = b.divexact(cont_b) if not cont_b.is_constant() else b
        g_cont = poly_gcd(cont_a, cont_b)
        if pa.is_constant() or pb.is_constant():
            return (mono_poly * g_cont).primitive()
        g2 = _gcd_bivariate(pa, pb, xvar, yvar)
        if g2 is not None:
            return (mono_poly * g_cont * g2).primitive()
    main = min(shared, key=lambda v: max(a.degree_in(v), b.degree_in(v)))

    cont_a = _poly_content_in(a, main)
    cont_b = _poly_content_in(b, main)
    pa = a.divexact(cont_a) if not cont_a.is_constant() else a
    pb = b.divexact(cont_b) if not cont_b.is_constant() else b
    g_cont = poly_gcd(cont_a, cont_b)

    if pa.degree_in(main) < pb.degree_in(main):
        pa, pb = pb, pa
    while not pb.is_zero():
        r = _pseudo_rem(pa, pb, main)
        if r.is_zero():
            pa, pb = pb, r
            break
        cont_r = _poly_content_in(r, main)
        r = r.divexact(cont_r) if not cont_r.is_constant() else r.primitive()
        pa, pb = pb, r
    g = pa
    cont_g = _poly_content_in(g, main)
    if not cont_g.is_constant():
        g = g.divexact(cont_g)
    try:
        a.divexact(g)
        b.divexact(g)
    except ValueError:
        # primitive PRS guarantees divisibility; reaching this is a bug
        raise AssertionError("gcd candidate does not divide inputs")
    return (mono_poly * g_cont * g).primitive()


# -- rational functions -----------------------------------------------------


class RationalFunction:
    """Reduced fraction of polynomials, denominator primitive and positive."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None, _reduced=False):
        if isinstance(num, (int, Fraction)):
            num = Polynomial.const(num)
        if den is None:
            den = P_ONE
        elif isinstance(den, (int, Fraction)):
            den = Polynomial.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _reduced:
            num, den = _reduce_fraction(num, den)
        self.num = num
        self.den = den
        self._hash = None

    @staticmethod
    def const(c):
        return RationalFunction(Polynomial.const(c), P_ONE, _reduced=True)

    @staticmethod
    def var(name):
        return RationalFunction(Polynomial.var(name), P_ONE, _reduced=True)

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def is_polynomial(self):
        return self.den == P_ONE

    def as_polynomial(self):
        if not self.is_polynomial():
            raise ValueError("not a polynomial: %s" % self)
        return self.num

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self):
        return Fraction(self.num.constant_value()) / self.den.constant_value()

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.const(other)
        if isinstance(other, Polynomial):
            return RationalFunction(other, P_ONE, _reduced=True)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        if self.den == P_ONE:
            return RationalFunction(self.num * other.den + other.num, other.den, _reduced=True)
        if other.den == P_ONE:
            return RationalFunction(self.num + other.num * self.den, self.den, _reduced=True)
        g = poly_gcd(self.den, other.den)
        if g.is_constant():
            num = self.num * other.den + other.num * self.den
            den = self.den * other.den
            c = den.content_signed()
            return RationalFunction(num.scale(1 / c), den.scale(1 / c), _reduced=True)
        db = self.den.divexact(g)
        dd = other.den.divexact(g)
        num = self.num * dd + other.num * db
        den = db * other.den
        return RationalFunction(num, den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _reduced=True)

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
        if self.num.is_zero() or other.num.is_zero():
            return RF_ZERO
        if self.den == P_ONE and other.den == P_ONE:
            return RationalFunction(self.num * other.num, P_ONE, _reduced=True)
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        n1 = self.num if g1.is_constant() else self.num.divexact(g1)
        d2 = other.den if g1.is_constant() else other.den.divexact(g1)
        n2 = other.num if g2.is_constant() else other.num.divexact(g2)
        d1 = self.den if g2.is_constant() else self.den.divexact(g2)
        num = n1 * n2
        den = d1 * d2
        c = den.content_signed()
        return RationalFunction(num.scale(1 / c), den.scale(1 / c), _reduced=True)

    __rmul__ = __mul__

    def inverse(self):
        if self.num.is_zero():
            raise ZeroDivisionError("inverting zero rational function")
        c = self.num.content_signed()
        return RationalFunction(self.den.scale(1 / c), self.num.scale(1 / c), _reduced=True)

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
        out = RF_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def rename(self, mapping):
        return RationalFunction(self.num.rename(mapping), self.den.rename(mapping))

    def raise_exponents(self, n):
        return RationalFunction(
            self.num.raise_exponents(n), self.den.raise_exponents(n), _reduced=True
        )

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
        if all(v.is_polynomial() and len(v.num.terms) <= 1 for v in assign.values()):
            polys = {k: v.num for k, v in assign.items()}
            num = self.num.eval_poly(polys)
            den = self.den.eval_poly(polys)
            if den.is_zero():
                raise PoleError(
                    "denominator %s vanishes under %s" % (self.den, _fmt_assign(assignment))
                )
            return RationalFunction(num, den)
        num = _eval_rf(self.num, assign)
        den = _eval_rf(self.den, assign)
        if den.is_zero():
            raise PoleError(
                "denominator %s vanishes under %s" % (self.den, _fmt_assign(assignment))
            )
        return num / den

    def total_degree(self):
        return max(self.num.total_degree(), self.den.total_degree())

    def __str__(self):
        if self.den == P_ONE:
            return str(self.num)
        num = str(self.num)
        if len(self.num.terms) > 1:
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
    if num.is_zero():
        return P_ZERO, P_ONE
    if den.is_constant():
        c = den.constant_value()
        if c == 1:
            return num, P_ONE
        return num.scale(Fraction(1) / c), P_ONE
    g = poly_gcd(num, den)
    if not g.is_constant():
        num = num.divexact(g)
        den = den.divexact(g)
    c = den.content_signed()
    if c != 1:
        num = num.scale(1 / c)
        den = den.scale(1 / c)
    if den.is_constant():
        num = num.scale(Fraction(1) / den.constant_value())
        den = P_ONE
    return num, den


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


def reduce_by_factors(num, factors, unit=1):
    """num / (unit * prod f^m over the pairs (f, m) in factors) as a reduced
    RationalFunction.

    The f must be distinct irreducible polynomials, each primitive
    with positive leading coefficient, and unit a nonzero rational. Each
    factor is divided out of num for as long as it divides; what is left
    of the denominator is coprime to the numerator, so no gcd is needed.
    """
    if num.is_zero():
        return RF_ZERO
    den = P_ONE
    for f, m in factors:
        while m:
            try:
                num = num.divexact(f)
            except ValueError:
                break
            m -= 1
        if m:
            den = den * f**m
    return RationalFunction(num.scale(Fraction(1) / unit), den, _reduced=True)


# -- quadratic extension for the genus-g hook numerators ----------------------


_ZW = Polynomial.var("Z") * Polynomial.var("W")


class HookField:
    """Element base + odd*eps of Q(Z,W)[eps]/(eps^2 - Z*W)."""

    __slots__ = ("base", "odd")

    def __init__(self, base, odd=None):
        self.base = rf(base)
        self.odd = rf(odd) if odd is not None else RF_ZERO

    def is_pure(self):
        return self.odd.is_zero()

    def is_zero(self):
        return self.base.is_zero() and self.odd.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def _coerce(self, other):
        if isinstance(other, HookField):
            return other
        if isinstance(other, (int, Fraction, Polynomial, RationalFunction)):
            return HookField(rf(other))
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
        zw = RationalFunction(_ZW)
        return HookField(
            self.base * other.base + self.odd * other.odd * zw,
            self.base * other.odd + self.odd * other.base,
        )

    __rmul__ = __mul__

    def inverse(self):
        # conjugate trick: (a + b eps)(a - b eps) = a^2 - b^2 Z W
        zw = RationalFunction(_ZW)
        norm = self.base * self.base - self.odd * self.odd * zw
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
        out = HookField(RF_ONE)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.base == other.base and self.odd == other.odd

    def __hash__(self):
        return hash((self.base, self.odd))

    def raise_exponents(self, n):
        """Adams action: Z,W -> Z^n,W^n and eps -> eps^n = (ZW)^(n//2) eps^(n%2)."""
        base = self.base.raise_exponents(n)
        odd = self.odd.raise_exponents(n)
        if self.odd.is_zero():
            return HookField(base)
        shift = RationalFunction(_ZW ** (n // 2)) if n // 2 else RF_ONE
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
        zw = RationalFunction(_ZW).specialize(assignment)
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
