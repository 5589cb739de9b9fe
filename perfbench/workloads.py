"""The three benchmark workloads.

A workload has set-up steps (timed as set-up only), a list of queries
(the timed phase) and exact counts read off its outputs. Each query is one call of
a public qtsym function; its ``check`` compares the result with a
reference that does not come from the routine under test, and runs after
the timed phase.

Engine functions are always reached through module attributes at call
time (``Q.kernel``, ``_mod("cli").cache_save``), never bound here at
import, so that the tracer's replacements are the ones called.

Why each workload exists, and which layers it stresses, is in README.md.
"""

from __future__ import annotations

import itertools
import os
import sys

import qtsym as Q
import qtsym.cli  # noqa: F401  (the disk cache is not re-exported by the package)

import oracles as O


def _mod(name):
    return sys.modules["qtsym." + name]


class Query:
    __slots__ = ("label", "call", "check")

    def __init__(self, label, call, check=None):
        self.label = label
        self.call = call
        self.check = check


# -- exact helpers -----------------------------------------------------------


def qt_dict(value):
    """A q,t polynomial as {(q_exp, t_exp): coeff}; None if it is not one."""
    if isinstance(value, Q.RationalFunction):
        if not value.is_polynomial():
            return None
        value = value.as_polynomial()
    if not isinstance(value, Q.Polynomial):
        value = Q.Polynomial.const(value)
    names = value.vars
    out = {}
    for exps, c in value.terms.items():
        powers = dict(zip(names, exps))
        if any(e for name, e in powers.items() if name not in ("q", "t")):
            return None
        out[(powers.get("q", 0), powers.get("t", 0))] = c
    return out


def _coefficients(F):
    """The RationalFunction parts of every coefficient of a SymFunc."""
    for c in F.terms.values():
        if isinstance(c, Q.HookField):
            yield c.base
            yield c.odd
        else:
            yield c


def kernel_counts(keys):
    """Kernel terms, and the largest coefficient over each kernel, its
    Cauchy series and the series' Log, for kernels already assembled."""
    terms = den_deg = num_terms = 0
    for n, g, k in keys:
        K = Q.kernel(n, g, k)
        terms += len(K.terms)
        parts = [K]
        for series in (Q.cauchy_series(g, k, n), Q.log_cauchy_series(g, k, n)):
            parts += [series.component(d) for d in range(1, n + 1)]
        for F in parts:
            for c in _coefficients(F):
                if not c.is_zero():
                    den_deg = max(den_deg, c.den.total_degree())
                    num_terms = max(num_terms, len(c.num.terms))
    return {
        "kernel.terms": terms,
        "kernel.coeff_den_max_degree": den_deg,
        "kernel.coeff_num_max_terms": num_terms,
    }


def htilde_terms(max_degree):
    total = 0
    for d in range(1, max_degree + 1):
        table = Q.build_table(d)
        for rho in table.partitions:
            for c in table.htilde_p_dict(rho).values():
                total += len(c.num.terms) + len(c.den.terms)
    return total


# -- tables ------------------------------------------------------------------


def check_kostka(table):
    """Hook-length counts and the two closed-form rows of K~."""
    d = table.n
    P = Q.Partition
    for mu in table.partitions:
        col = {lam: qt_dict(table.kostka_entry(lam, mu)) for lam in table.partitions}
        if any(v is None for v in col.values()):
            return False
        if col[P((d,))] != {(0, 0): 1}:
            return False
        if col[P((1,) * d)] != O.kostka_column_closed_form(tuple(mu)):
            return False
        for lam, entry in col.items():
            if O.coefficient_sum(entry) != O.hook_count(tuple(lam)):
                return False
    return True


def check_structure(pair, coeffs, table):
    """Re-verify the defining constraint sum_lam c^lam K~[lam,eta] =
    K~[mu,eta] K~[nu,eta] for every eta, plus the identity element s_(n)
    and the published degree-4 values."""
    mu, nu = pair
    n = mu.size
    parts = table.partitions
    c = {lam: qt_dict(coeffs[lam]) for lam in parts}
    if any(v is None for v in c.values()):
        return False
    K = {(lam, eta): qt_dict(table.kostka_entry(lam, eta)) for lam in parts for eta in parts}
    for eta in parts:
        lhs = {}
        for lam in parts:
            lhs = O.dict_add(lhs, O.dict_mul(c[lam], K[(lam, eta)]))
        if lhs != O.dict_mul(K[(mu, eta)], K[(nu, eta)]):
            return False
    for unit, other in ((mu, nu), (nu, mu)):
        if unit == (n,):
            if any(c[lam] != ({(0, 0): 1} if lam == other else {}) for lam in parts):
                return False
    if {tuple(mu), tuple(nu)} == {(2, 2), (2, 1, 1)}:
        if any(c[Q.Partition(t)] != want for t, want in O.PUBLISHED_N4.items()):
            return False
    return True


class Tables:
    """Tables d = 1..5 from empty caches, the disk cache's write and read
    paths, then the Kostka algebra on the reloaded tables."""

    def __init__(self, rng, smoke, workdir):
        self.rng = rng
        self.max_d = 3 if smoke else 5
        self.algebra_n = 3 if smoke else 4  # the Kostka algebra up to this size
        self.workdir = workdir
        self.built = {}
        self.loaded = {}
        self.cache_bytes = 0

    def setup_steps(self):
        return [lambda: os.makedirs(self.workdir, exist_ok=True)]

    def _build(self, d):
        self.built[d] = Q.build_table(d)
        return self.built[d]

    def _save(self, d):
        size = os.path.getsize(_mod("cli").cache_save(self.built[d], self.workdir))
        self.cache_bytes += size
        return size

    def _load(self, d):
        table = _mod("cli").cache_load(d, self.workdir)
        _mod("macdonald").register_table(table)
        self.loaded[d] = table
        return table

    def queries(self):
        out = []
        for d in range(1, self.max_d + 1):
            out.append(Query("build_table(%d)" % d, lambda d=d: self._build(d), check_kostka))
        for d in range(1, self.max_d + 1):
            out.append(Query("cache_save(%d)" % d, lambda d=d: self._save(d), lambda size: size > 0))
        for d in range(1, self.max_d + 1):
            out.append(Query(
                "cache_load(%d)" % d,
                lambda d=d: self._load(d),
                lambda table, d=d: table == self.built[d] and check_kostka(table),
            ))
        algebra = []
        pairs = itertools.chain.from_iterable(
            itertools.combinations_with_replacement(Q.partitions_of(n), 2)
            for n in range(1, self.algebra_n + 1)
        )
        for pair in pairs:
            algebra.append(Query(
                "structure_coefficients_all(%s,%s)" % pair,
                lambda pair=pair: Q.structure_coefficients_all(list(pair)),
                lambda coeffs, pair=pair: check_structure(pair, coeffs, self.loaded[pair[0].size]),
            ))
        for n in range(1, self.algebra_n + 1):
            dyck = O.dyck_qt_catalan(n)
            e_n = Q.e_elem(Q.Partition((n,)))
            algebra.append(Query(
                "qt_catalan(%d)" % n,
                lambda n=n: Q.qt_catalan(n),
                lambda c, dyck=dyck: qt_dict(c) == dyck,
            ))
            algebra.append(Query(
                "nabla(e_%d)" % n,
                lambda e_n=e_n: Q.nabla(e_n),
                lambda F, e_n=e_n, dyck=dyck: qt_dict(Q.hall_scalar(e_n, F)) == dyck,
            ))
        self.rng.shuffle(algebra)
        return out + algebra

    def counts(self):
        return {
            "cli.cache_bytes": self.cache_bytes,
            "macdonald.htilde_terms": htilde_terms(self.max_d),
            **kernel_counts([]),
        }


# -- kernel assembly -----------------------------------------------------------


_SWAP = {"Z": "W", "W": "Z"}


def _zw_swap(c):
    if isinstance(c, Q.HookField):
        return Q.HookField(c.base.rename(_SWAP), c.odd.rename(_SWAP))
    return c.rename(_SWAP)


def check_kernel(K, n, genus, points):
    """The kernel is symmetric under permuting the alphabets and under
    Z <-> W (conjugation swaps arm and leg); in degree 1 it is the
    closed form prod_j h_1[X_j], times (Z+W) - 2 eps in genus 1."""
    for key, c in K.terms.items():
        if K.coeff(tuple(sorted(key))) != c or _zw_swap(c) != c:
            return False
    if n == 1:
        expect = Q.SymFunc.one(points)
        for j in range(points):
            expect = expect * Q.h_elem(Q.Partition((1,)), alphabet=j, k=points)
        if genus == 1:
            Zv, Wv = Q.Polynomial.var("Z"), Q.Polynomial.var("W")
            expect = expect.map_coefficients(lambda c: Q.HookField(Q.rf(Zv + Wv), Q.rf(-2)) * c)
        return K == expect
    return True


class KernelAssembly:
    """Every kernel of degree <= 3 on genus 0 and 1 with 1..4 alphabets
    (genus 1 stops at 2 alphabets in degree 3), plus the degree-4 genus-1
    kernel on one alphabet, each through cauchy_series, log_cauchy_series,
    kernel and an Exp of the Log."""

    def __init__(self, rng, smoke, workdir):
        self.rng = rng
        if smoke:
            cases = [(n, g, k) for n in (1, 2) for g in (0, 1) for k in (1, 2)]
        else:
            cases = [
                (n, g, k)
                for n in (1, 2, 3) for g in (0, 1) for k in (1, 2, 3, 4)
                if not (n == 3 and g == 1 and k > 2)
            ] + [(4, 1, 1)]
        self.cases = cases
        self.max_d = max(n for n, _, _ in cases)
        self.series = {}

    def setup_steps(self):
        return [lambda d=d: Q.build_table(d) for d in range(1, self.max_d + 1)]

    def _series(self, case):
        n, g, k = case
        self.series[case] = Q.cauchy_series(g, k, n)
        return self.series[case]

    def queries(self):
        order = list(self.cases)
        self.rng.shuffle(order)
        out = []
        for case in order:
            n, g, k = case
            tag = "(g=%d,k=%d,n=%d)" % (g, k, n)
            out.append(Query("cauchy_series" + tag, lambda c=case: self._series(c)))
            out.append(Query(
                "log_cauchy_series" + tag, lambda g=g, k=k, n=n: Q.log_cauchy_series(g, k, n)
            ))
            out.append(Query(
                "kernel" + tag,
                lambda g=g, k=k, n=n: Q.kernel(n, g, k),
                lambda K, n=n, g=g, k=k: check_kernel(K, n, g, k),
            ))
            out.append(Query(
                "exp_series(log)" + tag,
                lambda g=g, k=k, n=n: Q.exp_series(Q.log_cauchy_series(g, k, n)),
                lambda E, c=case: E == self.series[c],
            ))
        return out

    def counts(self):
        return {
            "cli.cache_bytes": 0,
            "macdonald.htilde_terms": htilde_terms(self.max_d),
            **kernel_counts(self.cases),
        }


# -- geometry queries ----------------------------------------------------------


def puncture_specs(n):
    """One PunctureSpec per adjoint orbit type of rank n (Jordan types of
    equal multiplicities taken up to order)."""
    out = []
    for mults in Q.partitions_of(n):
        seen = set()
        for jordan in itertools.product(*(Q.partitions_of(m) for m in mults)):
            key = tuple(sorted(zip(mults, jordan)))
            if key not in seen:
                seen.add(key)
                out.append(Q.PunctureSpec(mults, jordan))
    return out


def comet_specs(n, genus, points):
    """Every multiset of punctures with an even, non-negative dimension."""
    punctures = puncture_specs(n)
    out = []
    for combo in itertools.combinations_with_replacement(punctures, points):
        spec = Q.CometSpec(genus, n, combo)
        try:
            if Q.total_dim(spec) >= 0:
                out.append(spec)
        except Q.OddDimension:
            continue
    return out


def _is_semisimple(spec):
    return all(jt == (1,) * jt.size for p in spec.punctures for jt in p.jordan)


def _v_poly(terms):
    v = Q.Polynomial.var("v")
    return sum((c * v**e for e, c in terms.items()), Q.Polynomial.const(0))


def _frozen_queries():
    """Values frozen in the engine's own tests from independent oracles."""
    P = Q.Partition
    rs4 = Q.CometSpec(0, 2, (Q.PunctureSpec.regular_semisimple(2),) * 4)
    trace11 = Q.trace_configuration(P((1, 1)), P((1, 1)))
    return [
        Query("frozen poincare(rank 2, 4 regular semisimple)",
              lambda: Q.poincare(rs4), lambda r: r == _v_poly({4: 1, 2: 4})),
        Query("frozen twisted_poincare(rank 2, 4 regular semisimple, identity)",
              lambda: Q.twisted_poincare(rs4, Q.TwistSpec.identity()),
              lambda r: r == _v_poly({4: 1, 2: 4})),
        Query("frozen twisted_poincare(trace (1,1),(1,1), 2-cycle)",
              lambda: Q.twisted_poincare(trace11, Q.TwistSpec({2: {1: P((2,))}})),
              lambda r: r == _v_poly({4: 1, 2: 2})),
    ]


# (function, mu, nu) -> q,t polynomial, frozen in the engine's own tests
FROZEN_COLUMN = {
    ("c_from_trace", (1, 1, 1), (1, 1, 1)): {(0, 3): 1},
    ("c_from_trace", (2, 1), (1, 1, 1)): {(0, 2): 1, (0, 1): 1},
    ("c_from_log", (1, 1), (1, 1)): {(1, 0): 1, (0, 1): 1},
    ("c_from_log", (1, 1, 1), (1, 1, 1)): {(3, 0): 1, (2, 1): 1, (1, 2): 1, (1, 1): 1, (0, 3): 1},
    ("c_from_log", (2, 1), (1, 1, 1)): {(2, 0): 1, (1, 1): 1, (1, 0): 1, (0, 2): 1, (0, 1): 1},
    ("mixed_hodge_rhs", (1, 1, 1), (1, 1, 1)): {(3, 0): 1, (2, 1): 1, (1, 2): 1, (1, 1): 1, (0, 3): 1},
    ("q1_rhs", (1, 1, 1), (1, 1, 1)): {(0, 3): 1, (0, 2): 1, (0, 1): 2, (0, 0): 1},
    ("q1_rhs", (2, 1), (1, 1, 1)): {(0, 2): 1, (0, 1): 2, (0, 0): 2},
}


def check_column(name, mu, nu, value):
    """Three-path agreement with the Kostka-matrix coefficient
    c^{1^n}_{mu,nu}, and the frozen values where there are some."""
    n = mu.size
    c = Q.structure_coefficient([mu, nu], Q.Partition((1,) * n))
    if name == "c_from_trace":
        ok = Q.rf(value) == c.specialize({"q": Q.rf(0)})
    elif name == "q1_rhs":
        ok = value == c.specialize({"q": Q.rf(1)})
    else:
        ok = value == c
    frozen = FROZEN_COLUMN.get((name, tuple(mu), tuple(nu)))
    return ok and (frozen is None or qt_dict(value) == frozen)


class GeometryQueries:
    """Evaluator queries against kernels assembled in set-up: Poincare
    polynomials of rank-3 comet-shaped varieties, twisted Poincare
    polynomials, and the four column-coefficient routes at n <= 3."""

    def __init__(self, rng, smoke, workdir):
        self.rng = rng
        self.rank = 2 if smoke else 3
        self.draw_g0 = 6 if smoke else 60
        self.draw_g1 = 3 if smoke else 12
        self.twisted_specs = 2 if smoke else 10
        self.kernel_keys = [(1, 0, 4), (2, 0, 4), (self.rank, 0, 4), (self.rank, 1, 2)]

    def setup_steps(self):
        return [lambda key=key: Q.kernel(*key) for key in dict.fromkeys(self.kernel_keys)]

    def queries(self):
        rng = self.rng
        g0 = rng.sample(comet_specs(self.rank, 0, 4), self.draw_g0)
        g1 = rng.sample(comet_specs(self.rank, 1, 2), self.draw_g1)
        out = [Query("poincare%r" % (spec,), lambda s=spec: Q.poincare(s)) for spec in g0 + g1]
        with_rs = [s for s in g0 if Q.PunctureSpec.regular_semisimple(self.rank) in s.punctures]
        for spec in with_rs[: self.twisted_specs]:
            j = spec.punctures.index(Q.PunctureSpec.regular_semisimple(self.rank))
            for eta in Q.partitions_of(self.rank):
                twist = Q.TwistSpec({j: {1: eta}})
                check = None
                if eta == (1,) * self.rank and _is_semisimple(spec):
                    check = lambda r, s=spec: r == Q.poincare(s)
                out.append(Query(
                    "twisted_poincare(%r, %s)" % (spec, eta),
                    lambda s=spec, t=twist: Q.twisted_poincare(s, t),
                    check,
                ))
        for n in range(1, self.rank + 1):
            for mu, nu in itertools.product(Q.partitions_of(n), repeat=2):
                for name in ("c_from_trace", "c_from_log", "q1_rhs", "mixed_hodge_rhs"):
                    if name == "c_from_log":
                        call = lambda mu=mu, nu=nu: Q.c_from_log([mu, nu])
                    else:
                        call = lambda f=name, mu=mu, nu=nu: getattr(Q, f)(mu, nu)
                    out.append(Query(
                        "%s(%s,%s)" % (name, mu, nu),
                        call,
                        lambda r, f=name, mu=mu, nu=nu: check_column(f, mu, nu, r),
                    ))
        out += _frozen_queries()
        rng.shuffle(out)
        return out

    def counts(self):
        return {
            "cli.cache_bytes": 0,
            "macdonald.htilde_terms": htilde_terms(self.rank),
            **kernel_counts(dict.fromkeys(self.kernel_keys)),
        }


WORKLOADS = {
    "tables": Tables,
    "kernel-assembly": KernelAssembly,
    "geometry-queries": GeometryQueries,
}
