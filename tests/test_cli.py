import io
import json
import os

import pytest

from qtsym.cli import CacheMiss, cache_load, cache_save, load_or_build, main
from qtsym.coeffring import Polynomial
from qtsym.macdonald import build_table, clear_tables
from qtsym.partitions import Partition


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
    doc = json.loads(out)
    assert Polynomial.parse(doc["value"]) == Polynomial.parse("q + t")
    code = main(["--json", "kostka", "--n", "2"])
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
    assert rebuilt == build_table(2) or rebuilt.n == 2
    fresh = cache_load(2, str(tmp_path))
    assert fresh == rebuilt


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


def test_verify_subcommand(capsys):
    code = main(["verify", "--suite", "macdonald", "--max-n", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
