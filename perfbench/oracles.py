"""Reference values that do not come from the routines under test.

Everything here is plain integer arithmetic on tuples and dicts. A
polynomial in q and t is a dict {(q_exponent, t_exponent): coefficient};
comparisons are exact dict equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod


def conjugate(lam):
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0])) if lam else ()


def n_stat(lam):
    """n(lam) = sum (i-1) lam_i."""
    return sum(i * part for i, part in enumerate(lam))


def hook_count(lam):
    """f^lam, the number of standard tableaux, by the hook-length formula."""
    conj = conjugate(lam)
    hooks = prod(
        (lam[i] - j - 1) + (conj[j] - i - 1) + 1
        for i in range(len(lam))
        for j in range(lam[i])
    )
    return factorial(sum(lam)) // hooks


def dyck_paths(n):
    """Every Dyck path of semilength n as a string of 'N' and 'E' steps."""

    def rec(path, ups, rights):
        if ups == n and rights == n:
            yield path
            return
        if ups < n:
            yield from rec(path + "N", ups + 1, rights)
        if rights < ups:
            yield from rec(path + "E", ups, rights + 1)

    return list(rec("", 0, 0))


def _area(path):
    total, ups, rights = 0, 0, 0
    for step in path:
        if step == "N":
            total += ups - rights
            ups += 1
        else:
            rights += 1
    return total


def _bounce(path):
    """Haglund's bounce statistic: the bounce path touches the diagonal at
    j_1 < j_2 < ... < n, with j_{k+1} the height at which the Dyck path
    takes its (j_k + 1)-th east step; bounce = sum (n - j_k)."""
    n = len(path) // 2
    height_of_east = []
    ups = 0
    for step in path:
        if step == "N":
            ups += 1
        else:
            height_of_east.append(ups)
    total, j = 0, height_of_east[0]
    while j < n:
        total += n - j
        j = height_of_east[j]
    return total


def dyck_qt_catalan(n):
    """C_n(q, t) = sum over Dyck paths of q^area t^bounce."""
    out = {}
    for path in dyck_paths(n):
        key = (_area(path), _bounce(path))
        out[key] = out.get(key, 0) + 1
    return out


def qt_monomial(a, b):
    return {(a, b): 1}


def kostka_column_closed_form(mu):
    """K~_{(1^n), mu} = q^{n(mu')} t^{n(mu)}."""
    return qt_monomial(n_stat(conjugate(mu)), n_stat(mu))


# The two published degree-4 structure coefficients c^lam_{(2,2),(2,1,1)}.
PUBLISHED_N4 = {
    (2, 1, 1): {
        (3, 1): -1, (2, 2): -1, (1, 3): -1, (2, 1): -1, (1, 2): -1,
        (2, 0): 1, (1, 1): 1, (0, 2): 1,
    },
    (1, 1, 1, 1): {
        (3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1, (2, 0): 1,
        (1, 1): 2, (0, 2): 1, (1, 0): 1, (0, 1): 1,
    },
}


def dict_add(a, b):
    out = dict(a)
    for key, c in b.items():
        s = out.get(key, 0) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def dict_mul(a, b):
    out = {}
    for (a1, b1), c1 in a.items():
        for (a2, b2), c2 in b.items():
            key = (a1 + a2, b1 + b2)
            s = out.get(key, 0) + c1 * c2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def coefficient_sum(a):
    return sum(Fraction(c) for c in a.values())
