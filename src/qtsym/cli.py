"""Command-line frontend and the Macdonald table disk cache.

Table cache files are plain JSON with string-encoded polynomials so they
can be inspected and diffed. A file holds only the Kostka entries K~;
reloading one reproduces the in-memory table bit for bit. The power-sum
expansions are reconstructed exactly from the Kostka entries through the
character table, and the MacdonaldTable made from them checks each
against the characterization of H~, which has one solution: a file whose
entries differ from the built table's, that has another format version,
or whose JSON has the wrong shape, is a CacheMiss, and load_or_build
rebuilds the table and rewrites the file. A reloaded table goes in
through macdonald.register_table, the one way in for a table made
elsewhere.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .coeffring import ParseError, PoleError, Polynomial, rf
from .kernel import SPECIALIZATIONS, kernel
from .kostka_algebra import nabla, qt_catalan, structure_coefficient
from .linalg import SingularSystem
from .macdonald import MacdonaldTable, build_table, expansions_from_kostka, register_table
from .partitions import Partition, parse_partition, partitions_of
from .quiver import (
    CometSpec,
    NegativeCoefficient,
    OddDimension,
    PunctureSpec,
    TwistSpec,
    c_from_trace,
    mixed_hodge_rhs,
    poincare,
    twisted_poincare,
)
from .symfunc import (
    DegreeCapError,
    degree_cap,
    e_elem,
    expand1,
    format_basis_expansion,
    h_elem,
    json_terms,
    p_elem,
    set_degree_cap,
)
from .verify import SUITES, run_suite

CACHE_FORMAT_VERSION = 2
CACHE_ENV_VAR = "MACDONALD_CACHE_DIR"


# -- cache ------------------------------------------------------------------


def _cache_path(cache_dir, n):
    return os.path.join(cache_dir, "macdonald-%d.json" % n)


def cache_save(table, cache_dir):
    """Atomically persist one degree's table."""
    os.makedirs(cache_dir, exist_ok=True)
    parts = table.partitions
    doc = {
        "format_version": CACHE_FORMAT_VERSION,
        "degree": table.n,
        "partitions": [list(p) for p in parts],
        "kostka": [
            [str(table.kostka_entry(lam, rho).as_polynomial()) for rho in parts]
            for lam in parts
        ],
    }
    path = _cache_path(cache_dir, table.n)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(doc, handle, indent=1)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


class CacheMiss(Exception):
    pass


def cache_load(n, cache_dir):
    """Rebuild a table from its cache file; raises CacheMiss when absent,
    stale, or corrupt."""
    path = _cache_path(cache_dir, n)
    if not os.path.exists(path):
        raise CacheMiss("no cache file %s" % path)
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CacheMiss("unreadable cache %s: %s" % (path, exc))
    parts = partitions_of(n)
    # a document of the wrong shape (not an object, a number where a list
    # or a string belongs) fails here with AttributeError or TypeError
    try:
        if doc.get("format_version") != CACHE_FORMAT_VERSION:
            raise CacheMiss("cache version %r != %d" % (doc.get("format_version"), CACHE_FORMAT_VERSION))
        if doc.get("degree") != n:
            raise CacheMiss("cache degree mismatch")
        listed = tuple(Partition(p) for p in doc["partitions"])
        if listed != parts:
            raise CacheMiss("cache partition order is not canonical")
        kostka = {}
        for i, lam in enumerate(parts):
            for j, rho in enumerate(parts):
                kostka[(lam, rho)] = rf(Polynomial.parse(doc["kostka"][i][j]))
    except (AttributeError, KeyError, IndexError, TypeError, ParseError, ValueError) as exc:
        raise CacheMiss("corrupt cache %s: %s" % (path, exc))
    try:
        return MacdonaldTable(n, expansions_from_kostka(n, kostka))
    except (SingularSystem, ValueError) as exc:
        raise CacheMiss("cache Kostka entries rejected: %s" % exc)


def load_or_build(n, cache_dir=None):
    """Fetch a table through the disk cache when one is configured."""
    if cache_dir:
        try:
            table = cache_load(n, cache_dir)
            register_table(table)
            return table
        except CacheMiss as exc:
            if os.path.exists(_cache_path(cache_dir, n)):
                print("cache ignored: %s" % exc, file=sys.stderr)
    table = build_table(n)
    if cache_dir:
        cache_save(table, cache_dir)
    return table


def _load_tables(n, cache_dir):
    """load_or_build every degree from 1 to n, as the kernels of degree n use."""
    for d in range(1, n + 1):
        load_or_build(d, cache_dir)


# -- output helpers ------------------------------------------------------------


def _schur_expansion_doc(F):
    exp = expand1(F, "schur")
    return [
        ["schur", list(mu), str(c)]
        for mu, c in sorted(exp.items(), key=lambda kv: kv[0], reverse=True)
    ]


def _symfunc_doc(F):
    return {"alphabets": F.k, "terms": json_terms(F, "powersum")}


# -- subcommands -----------------------------------------------------------------


def _cmd_macdonald(args, emit):
    table = load_or_build(args.n, args.cache_dir)
    show = [parse_partition(args.show)] if args.show else list(table.partitions)
    doc = {}
    for rho in show:
        entries = {
            str(lam): str(table.kostka_entry(lam, rho))
            for lam in table.partitions
            if not table.kostka_entry(lam, rho).is_zero()
        }
        doc[str(rho)] = entries
    if args.json:
        emit(json.dumps({"degree": args.n, "schur_expansions": doc}, indent=1))
    else:
        for rho, entries in doc.items():
            emit("H%s:" % rho)
            for lam, c in entries.items():
                emit("  s%s: %s" % (lam, c))
    return 0


def _cmd_kostka(args, emit):
    table = load_or_build(args.n, args.cache_dir)
    parts = table.partitions
    entry = table.kostka_inverse_entry if args.inverse else table.kostka_entry
    rows = [[str(entry(lam, rho)) for rho in parts] for lam in parts]
    if args.json:
        emit(
            json.dumps(
                {
                    "degree": args.n,
                    "inverse": bool(args.inverse),
                    "partitions": [list(p) for p in parts],
                    "entries": rows,
                },
                indent=1,
            )
        )
    else:
        emit("columns: " + " ".join(str(list(p)) for p in parts))
        for lam, row in zip(parts, rows):
            emit("%s: %s" % (list(lam), " | ".join(row)))
    return 0


def _cmd_ccoef(args, emit):
    factors = [parse_partition(x) for x in args.factors.split(";") if x.strip()]
    target = parse_partition(args.target)
    if factors and args.cache_dir:
        load_or_build(factors[0].size, args.cache_dir)
    val = structure_coefficient(factors, target)
    if args.json:
        emit(json.dumps({"factors": [list(f) for f in factors], "target": list(target), "value": str(val)}))
    else:
        emit(str(val))
    return 0


def _cmd_catalan(args, emit):
    if args.cache_dir:
        load_or_build(args.n, args.cache_dir)
    val = qt_catalan(args.n, args.m)
    if args.json:
        emit(json.dumps({"n": args.n, "m": args.m, "value": str(val)}))
    else:
        emit(str(val))
    return 0


def _cmd_nabla(args, emit):
    builders = {"e": e_elem, "h": h_elem, "p": p_elem}
    if args.on not in builders:
        raise ValueError("--on takes one of e, h, p")
    if args.cache_dir:
        load_or_build(args.n, args.cache_dir)
    F = builders[args.on](Partition((args.n,)))
    result = nabla(F)
    if args.json:
        emit(json.dumps({"n": args.n, "on": args.on, "terms": _schur_expansion_doc(result)}))
    else:
        emit(format_basis_expansion(expand1(result, "schur"), "schur"))
    return 0


def _cmd_kernel(args, emit):
    _load_tables(args.n, args.cache_dir)
    point = SPECIALIZATIONS[args.specialize]() if args.specialize else None
    K = kernel(args.n, args.genus, args.points, point)
    doc = _symfunc_doc(K)
    doc.update({"degree": args.n, "genus": args.genus, "points": args.points})
    if args.json:
        emit(json.dumps(doc, indent=1))
    else:
        for basis, key, coeff in doc["terms"]:
            if args.points > 1:
                mono = "*".join(
                    "%s%s[X%d]" % (basis[0], Partition(p), j + 1)
                    for j, p in enumerate(key)
                    if p
                )
            else:
                mono = "%s%s" % (basis[0], Partition(key)) if key else ""
            text = coeff if isinstance(coeff, str) else "(%s) + (%s)*eps" % (coeff["base"], coeff["odd"])
            emit("%s: %s" % (mono or "1", text))
    return 0


def _read_spec(path, read):
    """read(doc) of the JSON document in path; a document of the wrong
    shape (a number or a list where an object belongs, a number where a
    list belongs) is a ValueError."""
    with open(path) as handle:
        doc = json.load(handle)
    try:
        return read(doc)
    except TypeError as exc:
        raise ValueError("malformed spec %s: %s" % (path, exc))


def _comet_spec(doc):
    punctures = tuple(
        PunctureSpec(
            Partition(p["multiplicities"]),
            tuple(Partition(j) for j in p["jordan"]),
        )
        for p in doc["punctures"]
    )
    return CometSpec(int(doc["genus"]), int(doc["n"]), punctures)


def _twist_spec(doc):
    if isinstance(doc, dict):
        doc = [doc]
    classes = {}
    for item in doc:
        j = int(item["puncture"])
        classes[j] = {
            int(cl["block_size"]): Partition(cl["cycle_type"])
            for cl in item["classes"]
        }
    return TwistSpec(classes)


def _cmd_poincare(args, emit):
    spec = _read_spec(args.spec, _comet_spec)
    _load_tables(spec.rank, args.cache_dir)
    if args.twist:
        twist = _read_spec(args.twist, _twist_spec)
        value = twisted_poincare(spec, twist)
    else:
        value = poincare(spec)
    if args.json:
        emit(json.dumps({"value": str(value)}))
    else:
        emit(str(value))
    return 0


def _cmd_column(args, emit):
    """ctrace and mixed-hodge: one column coefficient from args.evaluate."""
    mu = parse_partition(args.mu)
    nu = parse_partition(args.nu)
    _load_tables(mu.size, args.cache_dir)
    val = args.evaluate(mu, nu)
    if args.json:
        emit(json.dumps({"mu": list(mu), "nu": list(nu), "value": str(val)}))
    else:
        emit(str(val))
    return 0


def _cmd_verify(args, emit):
    ok = run_suite(args.suite, max_n=getattr(args, "max_n", None), writer=emit)
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qtsym",
        description="Exact Macdonald/Kostka tables, the Kostka product algebra, "
        "and kernel-pairing evaluators for comet-shaped quiver varieties.",
    )
    parser.add_argument("--cache-dir", default=os.environ.get(CACHE_ENV_VAR))
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.add_argument("--max-n", type=int, default=None, help="degree cap override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("macdonald", help="print modified Macdonald polynomials")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--show", help="partition like [3,1]")
    p.set_defaults(func=_cmd_macdonald)

    p = sub.add_parser("kostka", help="print the Kostka matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(func=_cmd_kostka)

    p = sub.add_parser("ccoef", help="structure coefficient of the Kostka algebra")
    p.add_argument("--factors", required=True, help='like "[2,2];[2,1,1]"')
    p.add_argument("--target", required=True, help='like "[1,1,1,1]"')
    p.set_defaults(func=_cmd_ccoef)

    p = sub.add_parser("catalan", help="higher (q,t)-Catalan number")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.set_defaults(func=_cmd_catalan)

    p = sub.add_parser("nabla", help="apply nabla to e_n, h_n or p_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--on", default="e")
    p.set_defaults(func=_cmd_nabla)

    p = sub.add_parser("kernel", help="degree-n kernel, optionally specialized")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--genus", type=int, default=0)
    p.add_argument("--points", type=int, default=1)
    p.add_argument("--specialize", choices=sorted(SPECIALIZATIONS))
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("poincare", help="Poincare polynomial of a configuration")
    p.add_argument("--spec", required=True, help="JSON file")
    p.add_argument("--twist", help="JSON file")
    p.set_defaults(func=_cmd_poincare)

    p = sub.add_parser("ctrace", help="column coefficient at q=0 via the trace formula")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.set_defaults(func=_cmd_column, evaluate=c_from_trace)

    p = sub.add_parser("mixed-hodge", help="conjectural column coefficient")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.set_defaults(func=_cmd_column, evaluate=mixed_hodge_rhs)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all", choices=sorted(SUITES))
    p.add_argument("--max-n", type=int, default=argparse.SUPPRESS, dest="max_n")
    p.set_defaults(func=_cmd_verify)

    return parser


_ERRORS = (
    PoleError,
    SingularSystem,
    OddDimension,
    NegativeCoefficient,
    DegreeCapError,
    ParseError,
    ValueError,
    ZeroDivisionError,
    OSError,
    KeyError,
)


def main(argv=None):
    """Run one command; a --max-n cap holds for that command only."""
    parser = build_parser()
    args = parser.parse_args(argv)
    cap = degree_cap()
    if getattr(args, "max_n", None) is not None and args.command != "verify":
        set_degree_cap(args.max_n)
    try:
        return args.func(args, print)
    except _ERRORS as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    finally:
        set_degree_cap(cap)


if __name__ == "__main__":
    sys.exit(main())
