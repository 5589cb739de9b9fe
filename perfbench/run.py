"""qtsym benchmark runner (stdlib only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload, each in a fresh interpreter
(perfbench/child.py), one after another, for about S seconds, and prints
one JSON object as its last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
each a median over the repetitions. Set-up and timed-phase times are
scaled to a host of reference speed: each call's time is divided by the
probe time around it (see child.py) and multiplied by REFERENCE_PROBE_S.
With --trace 1 untraced and traced repetitions alternate, and the
metrics are the per-layer ones. Every repetition's results must equal the first
one's exactly, traced or not. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tables", "kernel-assembly", "geometry-queries")
MODULES = ("coeffring", "partitions", "symfunc", "plethysm", "linalg", "macdonald",
           "kostka_algebra", "kernel", "quiver", "cli", "verify")
DEADLINE_S = 170  # the whole run must end within 180 s
# The probe's time when the host is not slowed by its neighbours: about
# 7 ms on a 2-vCPU virtual machine with CPython 3.11.
REFERENCE_PROBE_S = 0.007


class BenchError(Exception):
    pass


def run_child(args, traced, deadline):
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed)]
    if traced:
        cmd.append("--trace")
    if args.smoke:
        cmd.append("--smoke")
    # a fixed hash seed makes set iteration order, and so every call count, repeat
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another repetition")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("repetition exceeded the deadline")
    if proc.returncode != 0:
        raise BenchError("repetition failed (exit %d):\n%s" % (proc.returncode, proc.stderr[-4000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, p):
    """The p-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def lines_of_code():
    out = {}
    total = 0
    for path in sorted((ROOT / "src" / "qtsym").glob("*.py")):
        with open(path) as handle:
            n = sum(1 for line in handle if line.strip() and not line.strip().startswith("#"))
        total += n
        if path.stem in MODULES:
            out[path.stem + ".loc"] = n
    out["package.loc"] = total
    return out


def run(args):
    start = time.monotonic()
    deadline = start + DEADLINE_S
    reps = []  # (traced, doc); only the first keeps its results
    durations = []
    first_results = None
    failed = 0
    attempted = 0
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        t0 = time.monotonic()
        doc = run_child(args, traced, deadline)
        durations.append(time.monotonic() - t0)
        attempted += doc["checked"]
        failed += len(doc["failures"])
        for line in doc["failures"]:
            print("FAILED: %s" % line, file=sys.stderr)
        results = doc.pop("results")
        if first_results is None:
            first_results = results
        elif results != first_results:
            differing = [k for k in first_results.keys() | results.keys()
                         if first_results.get(k) != results.get(k)]
            failed += len(differing)
            for label in differing:
                print("FAILED: %s differs between repetitions" % label, file=sys.stderr)
        reps.append((traced, doc))
        enough = len(reps) >= (2 if args.trace else 1)
        if enough and time.monotonic() - start + statistics.median(durations) > args.seconds:
            break

    first = reps[0][1]
    plain = [doc for traced, doc in reps if not traced]
    traced_docs = [doc for traced, doc in reps if traced]
    samples = len(first["latencies_scaled"])
    print("%s seed %d: %d repetitions (%d traced), %d queries each, %.1f s"
          % (args.workload, args.seed, len(reps), len(traced_docs), samples,
             time.monotonic() - start))
    print("timed phase per repetition (s / mean probe ms): %s" % " ".join(
        "%.3f/%.2f%s" % (doc["wall_s"], 1000.0 * doc["wall_probe_s"], "T" if traced else "")
        for traced, doc in reps))

    def median(key, docs=plain):
        return statistics.median(doc[key] for doc in docs)

    def scaled(phase, docs=plain):
        """The phase's time at reference host speed, median over docs."""
        return REFERENCE_PROBE_S * median(phase + "_scaled", docs)

    if not args.trace:
        metrics = {
            "setup_s": (scaled("setup"), "s"),
            "wall_s": (scaled("wall"), "s"),
            "peak_rss_mib": (median("rss_mib"), "MiB"),
            "pass_frac": (1.0 - failed / attempted, "ratio"),
        }
    else:
        metrics = {}
        for name in traced_docs[0]["trace"]:
            unit = "count" if name.endswith(".calls") else "s"
            values = [doc["trace"][name] for doc in traced_docs]
            if unit == "count" and len(set(values)) != 1:
                failed += 1
                print("FAILED: %s differs between traced repetitions" % name, file=sys.stderr)
            metrics[name] = (values[0] if unit == "count" else statistics.median(values), unit)
        for name, value in first["counts"].items():
            metrics[name] = (value, "bytes" if name.endswith("_bytes") else "count")
        for name, value in lines_of_code().items():
            metrics[name] = (value, "lines")
        metrics.update({
            "process.cpu_s": (median("cpu_s"), "s"),
            "wall.raw_s": (median("wall_s"), "s"),
            "probe.ms": (1000.0 * median("wall_probe_s"), "ms"),
            "trace.wall_s": (median("wall_s", traced_docs), "s"),
            "trace.overhead_s": (scaled("wall", traced_docs) - scaled("wall"), "s"),
            "trace.named_self_s": (statistics.median(
                sum(v for k, v in doc["trace"].items() if k.endswith(".self_s"))
                for doc in traced_docs), "s"),
            "query.samples": (samples, "count"),
        })
        latencies_ms = [1000.0 * REFERENCE_PROBE_S * x
                        for doc in plain for x in doc["latencies_scaled"]]
        metrics["query.p50_ms"] = (percentile(latencies_ms, 50), "ms")
        metrics["query.p90_ms"] = (percentile(latencies_ms, 90), "ms")
        print("latency percentiles over %d untraced queries" % len(latencies_ms))

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="qtsym benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qtsym" / "__init__.py").is_file():
        print("perfbench: no qtsym sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
