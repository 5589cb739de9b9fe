"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N [--trace] [--smoke]

Prints one JSON object on its last stdout line: set-up and timed-phase
wall time, raw and scaled by the probe, the mean probe time of each
phase, timed-phase CPU time, peak RSS (VmHWM), per-query scaled
latencies, the outcome of every reference check,
each query's result in an exact canonical form (nested lists of integers
and strings), exact counts read off the outputs, and, with --trace,
per-function call counts and self times of the timed phase.

Between calls into qtsym the repetition runs a probe: a fixed piece of
pure-Python arithmetic in the engine's own style (a sparse bivariate
polynomial product with Fraction coefficients). A probe runs before the
first call of a phase, after the last one, and between two calls
whenever PROBE_EVERY_S has passed since the previous probe. On a shared
host the speed of the machine drifts over minutes, and the probe slows
down with it, so each call's time is also given in units of the probe
time around it. Probes are outside every timing of qtsym calls and
outside every traced span.
"""

from __future__ import annotations

import argparse
import collections
import json
import random
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_EVERY_S = 0.1


def probe():
    """Run the fixed probe once; return its wall time in seconds."""
    t0 = time.perf_counter()
    a = {(i, j): (7 * i + 3 * j) % 11 - 5 for i in range(12) for j in range(12 - i)}
    b = {(i, j): Fraction(i + 1, j + 2) for i in range(7) for j in range(7 - i)}
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return time.perf_counter() - t0


Phase = collections.namedtuple("Phase", "results latencies scaled cpu_s probes")


def run_calls(calls):
    """Call each callable in order, probing between calls; return a Phase.

    A call that raises leaves its exception as its result. ``scaled``
    holds each call's latency divided by its local probe time, the mean
    of the last probe before the call and the first probe after it.
    ``cpu_s`` is the CPU time of the calls.
    """
    results, latencies, cpu_s, probes = [], [], 0.0, [probe()]
    before = []  # index of the last probe before each call
    last = time.perf_counter()
    for call in calls:
        if time.perf_counter() - last > PROBE_EVERY_S:
            probes.append(probe())
            last = time.perf_counter()
        before.append(len(probes) - 1)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            results.append(call())
        except Exception as exc:  # a failed query is counted, not fatal
            results.append(exc)
        latencies.append(time.perf_counter() - t0)
        cpu_s += time.process_time() - cpu0
    probes.append(probe())
    scaled = [2.0 * t / (probes[k] + probes[k + 1]) for t, k in zip(latencies, before)]
    return Phase(results, latencies, scaled, cpu_s, probes)


def raise_failure(phase):
    """A set-up call that failed ends the repetition."""
    for value in phase.results:
        if isinstance(value, Exception):
            raise value


def import_benchmark():
    import tracer  # noqa: F401
    import workloads  # noqa: F401


def canon(x, Q):
    """An exact, process-independent form of an engine value."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Fraction):
        return ["Q", x.numerator, x.denominator]
    if isinstance(x, Q.Polynomial):
        terms = []
        for exps, c in x.terms.items():
            c = Fraction(c)
            terms.append([[[v, e] for v, e in zip(x.vars, exps) if e], c.numerator, c.denominator])
        return ["P", sorted(terms)]
    if isinstance(x, Q.RationalFunction):
        return ["R", canon(x.num, Q), canon(x.den, Q)]
    if isinstance(x, Q.HookField):
        return ["H", canon(x.base, Q), canon(x.odd, Q)]
    if isinstance(x, Q.SymFunc):
        items = [[canon(k, Q), canon(c, Q)] for k, c in x.terms.items()]
        return ["S", x.k, sorted(items, key=lambda kv: kv[0])]
    if isinstance(x, Q.Series):
        return ["L", [canon(x.component(d), Q) for d in range(x.cap + 1)]]
    if isinstance(x, Q.MacdonaldTable):
        parts = x.partitions
        return ["T", x.n,
                [[canon(x.kostka_entry(lam, rho), Q) for rho in parts] for lam in parts],
                [canon(x.norm(lam), Q) for lam in parts]]
    if isinstance(x, dict):
        return ["D", sorted(([canon(k, Q), canon(v, Q)] for k, v in x.items()), key=lambda kv: kv[0])]
    if isinstance(x, (tuple, list)):
        return [canon(v, Q) for v in x]
    raise TypeError("no canonical form for %r" % type(x))


def peak_rss_mib():
    """High-water RSS of this process image.

    ru_maxrss is not used: Linux carries it across execve, so a child
    would report at least the RSS its parent had when it forked.
    """
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    imported = run_calls([import_benchmark])
    raise_failure(imported)
    import qtsym as Q
    from tracer import Tracer
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_tmp" / ("cache-%d-%d" % (args.seed, time.monotonic_ns()))
    workload = WORKLOADS[args.workload](random.Random(args.seed), args.smoke, str(workdir))
    try:
        setup = run_calls(workload.setup_steps())
        raise_failure(setup)

        queries = workload.queries()
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        timed = run_calls([query.call for query in queries])
        if tracer:
            tracer.uninstall()
        rss_mib = peak_rss_mib()

        failures = []
        canonical = {}
        for query, result in zip(queries, timed.results):
            if isinstance(result, Exception):
                failures.append("%s raised %r" % (query.label, result))
                canonical[query.label] = ["E", type(result).__name__]
                continue
            try:
                ok = query.check is None or bool(query.check(result))
            except Exception as exc:  # a check that cannot run is a failed check
                ok = False
                failures.append("%s: check raised %r" % (query.label, exc))
            else:
                if not ok:
                    failures.append("%s disagrees with its reference" % query.label)
            canonical[query.label] = canon(result, Q)
        counts = workload.counts()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    doc = {
        "setup_s": sum(imported.latencies) + sum(setup.latencies),
        "setup_scaled": sum(imported.scaled) + sum(setup.scaled),
        "wall_s": sum(timed.latencies),
        "wall_probe_s": statistics.fmean(timed.probes),
        "wall_scaled": sum(timed.scaled),
        "cpu_s": timed.cpu_s,
        "rss_mib": rss_mib,
        "latencies_scaled": timed.scaled,
        "checked": len(queries),
        "failures": failures,
        "results": canonical,
        "counts": counts,
        "trace": tracer.metrics() if tracer else None,
    }
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
