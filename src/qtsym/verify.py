"""Verification suite: the acceptance checks behind `qtsym verify`.

Each check returns a list of (name, ok, detail) triples so the CLI can
print one PASS/FAIL line per item and the test suite can assert on them.
Degree bounds are the contract defaults; `max_n` can lower them for a
quick run but never raises them.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import product

from .coeffring import HookField, PoleError, Polynomial, gcd_path_counts, rf, split_counts
from .kernel import (
    cauchy_series,
    kernel,
    log_cauchy_series,
    poincare_point,
)
from .kostka_algebra import (
    garsia_haiman_sum,
    kostka_product,
    nabla,
    qt_catalan,
    structure_coefficient,
)
from .macdonald import build_table, evaluation_product, qt_norm_pairing
from .partitions import Partition, dominance_leq, partitions_of
from .plethysm import AlphabetExpr, exp_series, substitute
from .quiver import c_from_log, c_from_trace, mixed_hodge_rhs, q1_rhs
from .symfunc import (
    SymFunc,
    e_elem,
    expand1,
    h_elem,
    s_elem,
    tensor_hall_scalar,
)

_Q = Polynomial.var("q")
_T = Polynomial.var("t")


def _ok(name, condition, detail=""):
    return (name, bool(condition), detail)


def _nonneg_int_poly(value):
    if not value.is_polynomial():
        return False
    poly = value.as_polynomial()
    return all(c == int(c) and c >= 0 for c in poly.terms.values())


def _int_poly(value):
    if not value.is_polynomial():
        return False
    poly = value.as_polynomial()
    return all(c == int(c) for c in poly.terms.values())


# -- criterion 1: published structure-coefficient values ------------------


def check_paper_values(max_n=4):
    out = []
    if max_n < 4:
        return [_ok("paper-values", False, "needs max_n >= 4")]
    mu, nu = Partition((2, 2)), Partition((2, 1, 1))
    got1 = structure_coefficient([mu, nu], Partition((2, 1, 1)))
    want1 = rf(
        -(_Q**3) * _T
        - _Q**2 * _T**2
        - _Q * _T**3
        - _Q**2 * _T
        - _Q * _T**2
        + _Q**2
        + _Q * _T
        + _T**2
    )
    out.append(_ok("c[(2,2),(2,1,1)]^(2,1,1)", got1 == want1, str(got1)))
    got2 = structure_coefficient([mu, nu], Partition((1, 1, 1, 1)))
    want2 = rf(
        _Q**3
        + _Q**2 * _T
        + _Q * _T**2
        + _T**3
        + _Q**2
        + 2 * _Q * _T
        + _T**2
        + _Q
        + _T
    )
    out.append(_ok("c[(2,2),(2,1,1)]^(1,1,1,1)", got2 == want2, str(got2)))
    return out


# -- criterion 2: Macdonald characterization -------------------------------


def check_macdonald_characterization(max_n=6):
    out = []
    for n in range(1, max_n + 1):
        table = build_table(n)
        parts = table.partitions
        bad = []
        for i, lam in enumerate(parts):
            for mu in parts[i + 1 :]:
                if not qt_norm_pairing(table, lam, mu).is_zero():
                    bad.append((lam, mu))
        out.append(_ok("orthogonality n=%d" % n, not bad, str(bad)))
        bad = []
        for lam in parts:
            if qt_norm_pairing(table, lam, lam) != table.norm(lam):
                bad.append(lam)
        out.append(_ok("norm=product n=%d" % n, not bad, str(bad)))
        bad = []
        for rho in parts:
            H = table.htilde_sym(rho)
            for varname, bound in (("t", rho), ("q", rho.conjugate())):
                coef = rf(Polynomial.var(varname) - 1)
                scaled = substitute(H, 0, AlphabetExpr.alphabet(0, coef=coef))
                for mu, c in expand1(scaled, "monomial").items():
                    if not c.is_zero() and not dominance_leq(mu, bound):
                        bad.append((rho, varname, mu))
        out.append(_ok("triangularity n=%d" % n, not bad, str(bad)))
        bad = []
        for rho in parts:
            total = rf(0)
            for c in table.htilde_p_dict(rho).values():
                total = total + c
            if total != rf(1):
                bad.append(rho)
        out.append(_ok("normalization n=%d" % n, not bad, str(bad)))
    return out


# -- criterion 3: Kostka positivity ----------------------------------------


def check_kostka_positivity(max_n=6):
    out = []
    for n in range(1, max_n + 1):
        table = build_table(n)
        bad = []
        for rho in table.partitions:
            for lam in table.partitions:
                if not _nonneg_int_poly(table.kostka_entry(lam, rho)):
                    bad.append((lam, rho))
        out.append(_ok("kostka-positivity n=%d" % n, not bad, str(bad)))
    return out


# -- criterion 4: the alternating-Schur collapse ----------------------------


def check_garsia_haiman(max_n=6):
    out = []
    for n in range(1, max_n + 1):
        target = s_elem(Partition((1,) * n)) * Fraction((-1) ** (n - 1))
        got = garsia_haiman_sum(n)
        out.append(_ok("alternating-collapse n=%d" % n, got == target))
    return out


# -- criterion 5: evaluation identity ---------------------------------------


def check_evaluation_identity(max_n=6):
    out = []
    u = rf(Polynomial.var("u"))
    expr = AlphabetExpr.scalar(1) + AlphabetExpr.scalar(-u)
    for n in range(1, max_n + 1):
        table = build_table(n)
        bad = []
        for lam in table.partitions:
            val = substitute(table.htilde_sym(lam), 0, expr).coeff((Partition(),))
            if val != rf(evaluation_product(lam)):
                bad.append(lam)
        out.append(_ok("evaluation-identity n=%d" % n, not bad, str(bad)))
    return out


# -- criterion 6: three-path agreement ---------------------------------------


def check_three_paths(max_n=4):
    out = []
    for n in range(1, max_n + 1):
        ones = Partition((1,) * n)
        bad_log = []
        bad_trace = []
        for mu in partitions_of(n):
            for nu in partitions_of(n):
                c = structure_coefficient([mu, nu], ones)
                if c_from_log([mu, nu]) != c:
                    bad_log.append((mu, nu))
                trace = rf(c_from_trace(mu, nu))
                if trace != c.specialize({"q": rf(0)}):
                    bad_trace.append((mu, nu))
        out.append(_ok("log-path n=%d" % n, not bad_log, str(bad_log)))
        out.append(_ok("trace-path n=%d" % n, not bad_trace, str(bad_trace)))
    return out


# -- criterion 7: nabla and Catalan -------------------------------------------


def _dyck_count(n):
    def rec(up, down):
        if up == n and down == n:
            return 1
        total = 0
        if up < n:
            total += rec(up + 1, down)
        if down < up:
            total += rec(up, down + 1)
        return total

    return rec(0, 0)


def check_nabla_catalan(max_n=5):
    out = []
    for n in range(1, max_n + 1):
        try:
            c = qt_catalan(n, 1)  # both routes compared internally
            routes_ok = True
        except AssertionError as exc:
            out.append(_ok("catalan-routes n=%d" % n, False, str(exc)))
            continue
        out.append(_ok("catalan-routes n=%d" % n, routes_ok))
        val = c.num.eval_fraction({"q": Fraction(1), "t": Fraction(1)})
        out.append(
            _ok(
                "catalan-at-(1,1) n=%d" % n,
                c.is_polynomial() and val == _dyck_count(n),
                "%s vs %s" % (val, _dyck_count(n)),
            )
        )
        grad = nabla(e_elem(Partition((n,))))
        bad = []
        for mu, coeff in expand1(grad, "schur").items():
            if not _nonneg_int_poly(coeff):
                bad.append(mu)
        out.append(_ok("nabla-schur-positive n=%d" % n, not bad, str(bad)))
    return out


# -- criterion 8: algebra axioms ----------------------------------------------


def check_algebra_axioms(max_n=5):
    out = []
    for n in range(1, min(max_n, 4) + 1):
        bad = []
        for mu in partitions_of(n):
            for nu in partitions_of(n):
                if kostka_product(s_elem(mu), s_elem(nu)) != kostka_product(
                    s_elem(nu), s_elem(mu)
                ):
                    bad.append((mu, nu))
        out.append(_ok("commutativity n=%d" % n, not bad, str(bad)))
    if max_n >= 3:
        samples = [
            (Partition((3,)), Partition((2, 1)), Partition((1, 1, 1))),
            (Partition((2, 1)), Partition((2, 1)), Partition((2, 1))),
            (Partition((1, 1, 1)), Partition((3,)), Partition((2, 1))),
            (Partition((3,)), Partition((3,)), Partition((1, 1, 1))),
        ]
        bad = []
        for a, b, c in samples:
            left = kostka_product(kostka_product(s_elem(a), s_elem(b)), s_elem(c))
            right = kostka_product(s_elem(a), kostka_product(s_elem(b), s_elem(c)))
            if left != right:
                bad.append((a, b, c))
        out.append(_ok("associativity n=3 samples", not bad, str(bad)))
    for n in range(1, max_n + 1):
        sn = s_elem(Partition((n,)))
        bad = []
        for mu in partitions_of(n):
            F = s_elem(mu)
            if kostka_product(sn, F) != F or kostka_product(F, sn) != F:
                bad.append(mu)
        out.append(_ok("identity-element n=%d" % n, not bad, str(bad)))
    return out


# -- criterion 9: kernel sanity -------------------------------------------------


def check_kernel_sanity(max_n=3):
    out = []
    Zv = Polynomial.var("Z")
    Wv = Polynomial.var("W")
    for genus in (0, 1):
        for points in (1, 2, 3, 4):
            K = kernel(1, genus, points)
            expect = SymFunc.one(points)
            for j in range(points):
                expect = expect * h_elem(Partition((1,)), alphabet=j, k=points)
            if genus == 1:
                expect = expect.map_coefficients(
                    lambda c: HookField(rf(Zv + Wv), rf(-2)) * c
                )
            out.append(
                _ok("kernel-degree-1 g=%d k=%d" % (genus, points), K == expect)
            )
    for genus, points in ((0, 1), (0, 2), (0, 3), (0, 4), (1, 1), (1, 2)):
        om = cauchy_series(genus, points, min(max_n, 3))
        lg = log_cauchy_series(genus, points, min(max_n, 3))
        out.append(
            _ok(
                "exp-log-round-trip g=%d k=%d" % (genus, points),
                exp_series(lg) == om,
            )
        )
    for n in range(1, min(max_n, 3) + 1):
        for genus in (0, 1):
            for points in (1, 2, 3, 4):
                try:
                    K = kernel(n, genus, points, poincare_point())
                except PoleError as exc:
                    out.append(
                        _ok("poincare-regular n=%d g=%d k=%d" % (n, genus, points), False, str(exc))
                    )
                    continue
                bad = []
                for mus in product(partitions_of(n), repeat=points):
                    val = tensor_hall_scalar(tuple((("monomial", mu, 1),) for mu in mus), K)
                    if not val.is_polynomial():
                        bad.append(mus)
                out.append(
                    _ok(
                        "poincare-regular n=%d g=%d k=%d" % (n, genus, points),
                        not bad,
                        str(bad),
                    )
                )
    return out


# -- criterion 10: the q = 1 theorem ---------------------------------------------


def check_q1_theorem(max_n=3):
    out = []
    for n in range(1, max_n + 1):
        ones = Partition((1,) * n)
        bad = []
        for mu in partitions_of(n):
            for nu in partitions_of(n):
                c1 = structure_coefficient([mu, nu], ones).specialize({"q": rf(1)})
                try:
                    rhs = q1_rhs(mu, nu)
                except PoleError as exc:
                    bad.append((mu, nu, "pole: %s" % exc))
                    continue
                if rhs != c1:
                    bad.append((mu, nu, "%s vs %s" % (rhs, c1)))
        out.append(_ok("q1-theorem n=%d" % n, not bad, str(bad)))
    return out


# -- criterion 11: conjecture evidence (report-only) ------------------------------


def check_conjecture_evidence(max_n=3):
    out = []
    for n in range(1, max_n + 1):
        ones = Partition((1,) * n)
        mismatches = []
        nonpoly = []
        for mu in partitions_of(n):
            for nu in partitions_of(n):
                try:
                    rhs = mixed_hodge_rhs(mu, nu)
                except PoleError as exc:
                    nonpoly.append((mu, nu, "pole: %s" % exc))
                    continue
                if not _int_poly(rhs):
                    nonpoly.append((mu, nu, str(rhs)))
                if rhs != structure_coefficient([mu, nu], ones):
                    mismatches.append((mu, nu))
        detail = ""
        if nonpoly:
            detail += "NOT in Z[q,t]: %s " % nonpoly
        if mismatches:
            detail += "MISMATCHES (conjecture evidence, not a failure): %s" % mismatches
        if not detail:
            detail = "conjecture matches the exact coefficients"
        out.append(("conjecture-evidence n=%d" % n, True, detail))
    return out


CRITERIA = {
    1: ("paper-values", check_paper_values, 4, 4),
    2: ("macdonald-characterization", check_macdonald_characterization, 6, 1),
    3: ("kostka-positivity", check_kostka_positivity, 6, 1),
    4: ("alternating-collapse", check_garsia_haiman, 6, 1),
    5: ("evaluation-identity", check_evaluation_identity, 6, 1),
    6: ("three-path-agreement", check_three_paths, 4, 1),
    7: ("nabla-catalan", check_nabla_catalan, 5, 1),
    8: ("algebra-axioms", check_algebra_axioms, 5, 1),
    9: ("kernel-sanity", check_kernel_sanity, 3, 1),
    10: ("q1-theorem", check_q1_theorem, 3, 1),
    11: ("conjecture-evidence", check_conjecture_evidence, 3, 1),
}

SUITES = {
    "macdonald": (2, 3, 5),
    "hashtag": (1, 4, 7, 8),
    "kernel": (9,),
    "geometry": (6, 10, 11),
    "all": tuple(CRITERIA),
}


def _count_changes(before, after):
    """'name=n ...' with how much each counter rose from before to after."""
    return " ".join("%s=%d" % (k, n - before[k]) for k, n in after.items())


def run_suite(suite, max_n=None, writer=print):
    """Run a named suite; returns True when every check passed.

    After each criterion that runs, writes a line 'TIME  [n:label] x.xs'
    with its wall time, then 'GCD  [n:label] trivial=.. univariate=..
    bivariate=.. prs=..' with the gcds it took, by the number of
    indeterminates (coeffring.gcd_path_counts), then
    'SPLIT  [n:label] divided=.. failed=.. skipped=..' with the trial
    divisions of coeffring.split_factors it made and the factors
    coeffring.factored_sum left untried. Arithmetic on coefficients that
    carry their factors takes no gcd, so a gcd on the GCD line is a
    coefficient that fell back to reducing by gcds."""
    if suite not in SUITES:
        raise ValueError("unknown suite %r (choose from %s)" % (suite, sorted(SUITES)))
    all_ok = True
    for number in SUITES[suite]:
        label, func, bound, min_n = CRITERIA[number]
        cap = bound if max_n is None else min(max_n, bound)
        if cap < min_n:
            writer("SKIP  [%d:%s] needs --max-n >= %d" % (number, label, min_n))
            continue
        start = time.perf_counter()
        before = gcd_path_counts()
        splits_before = split_counts()
        results = func(max_n=cap)
        elapsed = time.perf_counter() - start
        paths = _count_changes(before, gcd_path_counts())
        splits = _count_changes(splits_before, split_counts())
        for name, ok, detail in results:
            status = "PASS" if ok else "FAIL"
            line = "%s  [%d:%s] %s" % (status, number, label, name)
            if detail and (not ok or "conjecture" in name):
                line += "  -- %s" % detail
            writer(line)
            all_ok = all_ok and ok
        writer("TIME  [%d:%s] %.1fs" % (number, label, elapsed))
        writer("GCD  [%d:%s] %s" % (number, label, paths))
        writer("SPLIT  [%d:%s] %s" % (number, label, splits))
    return all_ok
