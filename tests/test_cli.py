import json
import os
import re

import pytest

from qtsym.cli import CacheMiss, cache_load, cache_save, load_or_build, main
from qtsym.coeffring import Polynomial
from qtsym.macdonald import build_table, clear_tables, norm_product
from qtsym.partitions import Partition
from qtsym.symfunc import degree_cap


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


def test_ccoef_prints_published_polynomial(capsys):
    code = main(["ccoef", "--factors", "[2,2];[2,1,1]", "--target", "[2,1,1]"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "-q^3*t - q^2*t^2 - q*t^3 - q^2*t - q*t^2 + q^2 + q*t + t^2"
    code = main(["ccoef", "--factors", "[2,2];[2,1,1]", "--target", "[1,1,1,1]"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "q^3 + q^2*t + q*t^2 + t^3 + q^2 + 2*q*t + t^2 + q + t"


def test_catalan_command(capsys):
    code = main(["catalan", "--n", "2", "--m", "1"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "q + t"


def test_json_round_trip(capsys):
    code = main(["--json", "ccoef", "--factors", "[1,1];[1,1]", "--target", "[1,1]"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert Polynomial.parse(doc["value"]) == Polynomial.parse("q + t")
    code = main(["--json", "kostka", "--n", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    for row in doc["entries"]:
        for entry in row:
            Polynomial.parse(entry)


def test_macdonald_show(capsys):
    code = main(["macdonald", "--n", "2", "--show", "[2]"])
    out = capsys.readouterr().out
    assert code == 0
    assert "s[2]: 1" in out and "s[1,1]: q" in out


def test_nabla_command(capsys):
    code = main(["nabla", "--n", "2", "--on", "e"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "s[2] + (q + t)*s[1,1]"


def test_kernel_command(capsys):
    code = main(["--json", "kernel", "--n", "1", "--points", "2", "--specialize", "poincare"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["terms"] == [["powersum", [[1], [1]], "1"]]


def test_kernel_json_round_trips_through_parsers(capsys):
    from qtsym.coeffring import RationalFunction

    code = main(["--json", "kernel", "--n", "2", "--points", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    for basis, key, coeff in doc["terms"]:
        assert basis == "powersum"
        parsed = RationalFunction.parse(coeff)
        assert str(parsed) == coeff
    # genus one: hook-field coefficients export base and odd parts
    code = main(["--json", "kernel", "--n", "1", "--points", "1", "--genus", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    for basis, key, coeff in doc["terms"]:
        assert set(coeff) == {"base", "odd"}
        RationalFunction.parse(coeff["base"])
        RationalFunction.parse(coeff["odd"])


@pytest.mark.parametrize(
    "args,name",
    [
        (["--n", "-1"], "n"),
        (["--n", "0"], "n"),
        (["--n", "1", "--genus", "-1"], "genus"),
        (["--n", "1", "--points", "-1"], "points"),
    ],
)
def test_kernel_rejects_bad_arguments(capsys, args, name):
    code = main(["kernel", *args])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert re.fullmatch(r"ValueError: %s must be [^\n]*\n" % name, captured.err)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["ccoef", "--factors", "[2,2]"])
    assert err.value.code == 2


def test_computation_error_exit_code(capsys):
    code = main(["ccoef", "--factors", "[2,2];[2,1]", "--target", "[1,1,1,1]"])
    assert code == 1
    assert "ValueError" in capsys.readouterr().err


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cache_round_trip(tmp_path, n):
    table = build_table(n)
    cache_save(table, str(tmp_path))
    loaded = cache_load(n, str(tmp_path))
    assert loaded == table
    # bit-identical reuse through load_or_build
    clear_tables()
    again = load_or_build(n, str(tmp_path))
    assert again == table
    # == compares H~ only; the derived K~ and K~^-1 entries agree as well
    for other in (loaded, again):
        for lam in table.partitions:
            for rho in table.partitions:
                for entry in ("kostka_entry", "kostka_inverse_entry"):
                    want = getattr(table, entry)(lam, rho)
                    got = getattr(other, entry)(lam, rho)
                    assert got == want and repr(got) == repr(want), (entry, lam, rho)
    build_table(n)  # repopulate the in-process cache for other tests


def test_cache_version_and_corruption(tmp_path):
    table = build_table(2)
    path = cache_save(table, str(tmp_path))
    doc = json.loads(open(path).read())
    doc["format_version"] = 999
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(CacheMiss):
        cache_load(2, str(tmp_path))
    open(path, "w").write("{not json")
    with pytest.raises(CacheMiss):
        cache_load(2, str(tmp_path))
    # load_or_build falls back to a rebuild and rewrites the file
    clear_tables()
    rebuilt = load_or_build(2, str(tmp_path))
    assert rebuilt == build_table(2)
    fresh = cache_load(2, str(tmp_path))
    assert fresh == rebuilt


def test_format_one_cache_with_norms_is_rewritten(tmp_path):
    # format 1 also stored the norms; such a file is stale, and is
    # replaced by a format-2 file that holds only the Kostka entries
    table = build_table(3)
    path = cache_save(table, str(tmp_path))
    doc = json.loads(open(path).read())
    doc["format_version"] = 1
    doc["norms"] = [str(norm_product(lam)) for lam in table.partitions]
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(CacheMiss, match="version 1"):
        cache_load(3, str(tmp_path))
    clear_tables()
    assert load_or_build(3, str(tmp_path)) == table
    doc = json.loads(open(path).read())
    assert doc["format_version"] == 2
    assert sorted(doc) == ["degree", "format_version", "kostka", "partitions"]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_tampered_kostka_entry_is_a_cache_miss(tmp_path, n):
    table = build_table(n)
    path = cache_save(table, str(tmp_path))
    doc = json.loads(open(path).read())
    parts = list(table.partitions)
    i, j = parts.index(Partition((n - 1, 1))), parts.index(Partition((n,)))
    doc["kostka"][i][j] += " + q*t"
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(CacheMiss, match="Kostka"):
        cache_load(n, str(tmp_path))
    # load_or_build rebuilds, and rewrites the file with the built table
    clear_tables()
    rebuilt = load_or_build(n, str(tmp_path))
    assert rebuilt == build_table(n) == table
    assert cache_load(n, str(tmp_path)) == table


@pytest.mark.parametrize(
    "reshape",
    [
        lambda doc: [doc],
        lambda doc: {**doc, "kostka": [[5] * len(row) for row in doc["kostka"]]},
        lambda doc: {**doc, "partitions": 5},
        lambda doc: {**doc, "kostka": [["1/0*q"] + row[1:] for row in doc["kostka"]]},
    ],
    ids=["top-level-list", "numeric-kostka-entry", "numeric-partitions", "zero-denominator-entry"],
)
def test_cache_of_the_wrong_shape_is_a_cache_miss(tmp_path, capsys, reshape):
    path = cache_save(build_table(2), str(tmp_path))
    doc = json.loads(open(path).read())
    open(path, "w").write(json.dumps(reshape(doc)))
    with pytest.raises(CacheMiss, match="corrupt"):
        cache_load(2, str(tmp_path))
    clear_tables()
    assert main(["--cache-dir", str(tmp_path), "macdonald", "--n", "2"]) == 0
    assert "cache ignored" in capsys.readouterr().err
    assert cache_load(2, str(tmp_path)) == build_table(2)


RANK_ONE_SPEC = {"genus": 0, "n": 1, "punctures": [{"multiplicities": [1], "jordan": [[1]]}]}


@pytest.mark.parametrize(
    "spec,twist",
    [
        ({"genus": 0, "n": 2, "punctures": 5}, None),
        ([RANK_ONE_SPEC], None),
        (RANK_ONE_SPEC, {"puncture": 1, "classes": 3}),
    ],
    ids=["numeric-punctures", "top-level-list", "numeric-classes"],
)
def test_spec_of_the_wrong_shape_is_a_value_error(tmp_path, capsys, spec, twist):
    argv = ["poincare", "--spec", str(tmp_path / "spec.json")]
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    if twist is not None:
        (tmp_path / "twist.json").write_text(json.dumps(twist))
        argv += ["--twist", str(tmp_path / "twist.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("ValueError: malformed spec")


def test_cache_missing_silent_rebuild(tmp_path):
    clear_tables()
    table = load_or_build(2, str(tmp_path))
    assert table.n == 2
    assert os.path.exists(os.path.join(str(tmp_path), "macdonald-2.json"))


def test_poincare_command(tmp_path, capsys):
    spec = {
        "genus": 0,
        "n": 2,
        "punctures": [
            {"multiplicities": [1, 1], "jordan": [[1], [1]]} for _ in range(4)
        ],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code = main(["poincare", "--spec", str(spec_path)])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "v^4 + 4*v^2"
    twist = {"puncture": 2, "classes": [{"block_size": 1, "cycle_type": [2]}]}
    twist_path = tmp_path / "twist.json"
    twist_path.write_text(json.dumps(twist))
    code = main(["poincare", "--spec", str(spec_path), "--twist", str(twist_path)])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "v^4 + 2*v^2"


def test_ctrace_and_mixed_hodge(capsys):
    code = main(["ctrace", "--mu", "[1,1]", "--nu", "[1,1]"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "t"
    code = main(["mixed-hodge", "--mu", "[1,1]", "--nu", "[1,1]"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "q + t"


@pytest.mark.parametrize("command", ["ctrace", "mixed-hodge"])
def test_column_commands_use_the_cache_dir(tmp_path, capsys, command):
    code = main(["--cache-dir", str(tmp_path), command, "--mu", "[1,1]", "--nu", "[1,1]"])
    assert code == 0
    assert sorted(os.listdir(tmp_path)) == ["macdonald-1.json", "macdonald-2.json"]


def test_max_n_caps_only_its_own_command(capsys):
    cap = degree_cap()
    clear_tables()
    assert main(["--max-n", "3", "catalan", "--n", "4"]) == 1
    assert "DegreeCapError" in capsys.readouterr().err
    assert degree_cap() == cap
    assert main(["--max-n", "3", "catalan", "--n", "2"]) == 0
    assert degree_cap() == cap
    build_table(4)  # the cap of the last command no longer applies


def test_verify_subcommand(capsys):
    code = main(["verify", "--suite", "macdonald", "--max-n", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    # one timing line per criterion that ran, after its results
    lines = out.splitlines()
    ran = [re.match(r"PASS  \[(\d+):", line).group(1) for line in lines if line.startswith("PASS")]
    timed = [re.fullmatch(r"TIME  \[(\d+):[^\]]+\] \d+\.\ds", line).group(1)
             for line in lines if line.startswith("TIME")]
    assert timed == list(dict.fromkeys(ran)) == ["2", "3", "5"]
    # each followed by the counts of the paths its gcds took
    counted = [
        re.fullmatch(r"GCD  \[(\d+):[^\]]+\] trivial=\d+ univariate=\d+ bivariate=\d+ prs=\d+",
                     lines[i + 1]).group(1)
        for i, line in enumerate(lines) if line.startswith("TIME")
    ]
    assert counted == timed
    # and by the counts of the trial divisions of coeffring.split_factors,
    # and of the factors coeffring.factored_sum left untried
    split = [
        re.fullmatch(r"SPLIT  \[(\d+):[^\]]+\] divided=\d+ failed=\d+ skipped=\d+", lines[i + 2]).group(1)
        for i, line in enumerate(lines) if line.startswith("TIME")
    ]
    assert split == timed
    # and by the plethystic Log and Exp calls on each coefficient path
    log_exp = [
        re.fullmatch(r"LOGEXP  \[(\d+):[^\]]+\] split=\d+ rational=\d+", lines[i + 3]).group(1)
        for i, line in enumerate(lines) if line.startswith("TIME")
    ]
    assert log_exp == timed
