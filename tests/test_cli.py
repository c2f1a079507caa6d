import json
import math
import pathlib
import shlex

import pytest

from relagg import alpha_for, cli, drivers
from relagg.cli import build_parser, main

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def db1_dir(tmp_path):
    (tmp_path / "t1.csv").write_text("a,b\n1,1\n1,2\n")
    (tmp_path / "t2.csv").write_text("b,c\n1,5\n2,6\n2,7\n")
    return tmp_path


def write_query(tmp_path, obj, name="query.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


COUNT_LEQ9 = {
    "kind": "count",
    "inequality": {
        "g": {f: {"kind": "identity"} for f in ("a", "b", "c")},
        "L": 9,
    },
}


def test_decompose(db1_dir, capsys):
    assert main(["decompose", "--tables", str(db1_dir)]) == 0
    assert capsys.readouterr().out.strip() == "1 2"


def test_decompose_json(db1_dir, capsys):
    assert main(["decompose", "--tables", str(db1_dir), "--output", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"edges": [[1, 2]], "root": 2, "depth": 0, "status": "ok"}


def test_decompose_cyclic_exit_3(tmp_path, capsys):
    (tmp_path / "t1.csv").write_text("a,b\n1,1\n")
    (tmp_path / "t2.csv").write_text("b,c\n1,1\n")
    (tmp_path / "t3.csv").write_text("a,c\n1,1\n")
    assert main(["decompose", "--tables", str(tmp_path)]) == 3
    assert "cyclic" in capsys.readouterr().err


def test_count_exact(db1_dir, capsys):
    q = write_query(db1_dir, COUNT_LEQ9)
    assert main(["count", "--tables", str(db1_dir), "--query", q]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_count_json_report_is_deterministic(db1_dir, capsys):
    q = write_query(db1_dir, COUNT_LEQ9)
    outs = []
    for _ in range(2):
        assert main([
            "count", "--tables", str(db1_dir), "--query", q,
            "--epsilon", "0.1", "--output", "json",
        ]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["status"] == "ok"
    assert report["mode"] == "approx"
    assert report["alpha"] == alpha_for(0.1, 1)
    assert 0.9 * 2 <= report["result"] <= 1.1 * 2


def test_epsilon_and_exact_overrides(db1_dir, capsys):
    q = write_query(db1_dir, dict(COUNT_LEQ9, mode="approx", epsilon=0.5))
    assert main([
        "count", "--tables", str(db1_dir), "--query", q,
        "--exact", "--output", "json",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "exact"
    assert report["result"] == 2


@pytest.mark.parametrize("query, reason", [
    (dict(COUNT_LEQ9, epsilon="abc"), "epsilon must be a number"),
    ({"kind": "count", "inequality": {"L": "x"}}, "L must be a number"),
    ({"kind": "count", "inequality": {"L": None}}, "L must be a number"),
    ({"kind": "count", "inequality": {
        "g": {"a": {"kind": "scale", "factor": "x"}}}},
     "'factor' must be a number"),
    ({"kind": "count", "inequality": {"g": [1]}}, "g must be a JSON object"),
    ({"kind": "count", "F": []}, "F must be a JSON object"),
    ({"kind": "count", "inequalities": {"L": 1}},
     "inequalities must be a JSON list"),
    ({"preset": ["x"]}, "preset must be a JSON object"),
    ({"kind": "count", "inequality": {"g": {"a": 3}}}, "bad function spec: 3"),
] + [({"preset": dict(p, features=["a", "b", "c"])}, reason) for p, reason in [
    ({"name": "halfspace_count", "beta": [1, 1, 1], "L": True},
     "L must be a number"),
    ({"name": "sphere_count", "y": [1, 1, 5], "r": True}, "r must be a number"),
    ({"name": "halfspace_count", "beta": "111", "L": 9},
     "beta must be a JSON list"),
    ({"name": "halfspace_count", "beta": [1, 1], "L": 9,
      "label_feature": ["c"]}, "label_feature must be a string"),
    ({"name": "sphere_count", "y": [1, 1, 5]},
     "preset 'sphere_count' needs parameters ['r']"),
    ({"name": "sphere_count", "y": [1, 1, 5], "r": 1, "color": "red"},
     "preset 'sphere_count' takes no parameters ['color']"),
    ({"name": "sphere_count", "y": [1, 1, 5], "r": 1, "label_feature": "c"},
     "preset 'sphere_count' takes no parameters ['label_feature']"),
    ({"name": ["sphere_count"]}, "unknown preset ['sphere_count']"),
    ({"name": "halfspace_count", "beta": [1, 1, 1], "L": "9"},
     "L must be a number, got '9'"),
]] + [
    # a string that float() would parse is still not a JSON number
    ({"kind": "count", "inequality": {"L": "1.5"}},
     "L must be a number, got '1.5'"),
    (dict(COUNT_LEQ9, epsilon="0.1"), "epsilon must be a number, got '0.1'"),
    ({"kind": "count", "inequality": {
        "g": {"a": {"kind": "scale", "factor": " 2 "}}}},
     "scale field 'factor' must be a number, got ' 2 '"),
    ({"kind": "count", "inequality": {
        "g": {"a": {"kind": "scale", "factor": "nan"}}}},
     "scale field 'factor' must be a number, got 'nan'"),
])
def test_malformed_query_file_exit_2(db1_dir, capsys, query, reason):
    q = write_query(db1_dir, query)
    assert main(["count", "--tables", str(db1_dir), "--query", q]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rejected: ") and err.count("\n") == 1
    assert reason in err


HUGE = 10**400  # a JSON integer too large for a float


@pytest.mark.parametrize("query, field", [
    ({"kind": "count", "inequality": {"L": HUGE}}, "L"),
    (dict(COUNT_LEQ9, epsilon=HUGE), "epsilon"),
    ({"kind": "count", "inequality": {
        "g": {"a": {"kind": "scale", "factor": HUGE}}}},
     "scale field 'factor'"),
    ({"preset": {"name": "sphere_count", "features": ["a", "b", "c"],
                 "y": [1.0, HUGE, 1.0], "r": 1.0}}, "y[1]"),
    ({"preset": {"name": "halfspace_count", "features": ["a", "b", "c"],
                 "beta": [1.0, 1.0, 1.0], "L": HUGE}}, "L"),
    ({"preset": {"name": "sphere_count", "features": ["a", "b", "c"],
                 "y": [1.0, 1.0, 5.0], "r": HUGE}}, "r"),
], ids=["L", "epsilon", "function-field", "preset-vector", "preset-L",
        "preset-r"])
def test_number_past_the_float_range_exit_2(db1_dir, capsys, query, field):
    q = write_query(db1_dir, query)
    assert main(["count", "--tables", str(db1_dir), "--query", q]) == 2
    assert capsys.readouterr().err == (
        f"rejected: {field} lies outside the float range\n")


def test_query_file_not_json_exit_2(db1_dir, capsys):
    q = db1_dir / "query.json"
    q.write_text('{"kind": ')
    assert main(["count", "--tables", str(db1_dir), "--query", str(q)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rejected: query file is not JSON")
    assert err.count("\n") == 1


def test_kind_mismatch_exit_2(db1_dir, capsys):
    q = write_query(db1_dir, COUNT_LEQ9)
    assert main(["sumsum", "--tables", str(db1_dir), "--query", q]) == 2
    assert "rejected" in capsys.readouterr().err


def test_two_inequalities_exit_2(db1_dir, capsys):
    q = write_query(db1_dir, {
        "kind": "count",
        "inequalities": [{"L": 9}, {"L": 10}],
    })
    assert main(["count", "--tables", str(db1_dir), "--query", q]) == 2
    assert "NP-hard" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["0", "-1", "nan"])
def test_bad_epsilon_exit_2(db1_dir, capsys, eps):
    q = write_query(db1_dir, COUNT_LEQ9)
    assert main([
        "count", "--tables", str(db1_dir), "--query", q, "--epsilon", eps,
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rejected: epsilon") and err.count("\n") == 1


@pytest.fixture
def knapsack8(tmp_path):
    """The knapsack over weights 1..8 at capacity 18: 8 tables, 135 subsets."""
    out = tmp_path / "k8"
    assert main(["gen", "knapsack", "--weights", "1,2,3,4,5,6,7,8",
                 "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("eps, code", [("1e-310", 0), ("5e-324", 2)])
def test_tiny_epsilon_is_exact_or_exit_2(knapsack8, capsys, eps, code):
    """1e-310 bounds no sketch's size, so the count comes back exact;
    5e-324 leaves a per-sketch alpha of 0 and is refused in one line."""
    capsys.readouterr()
    assert main(["count", "--tables", str(knapsack8), "--query",
                 str(knapsack8 / "query.json"), "--epsilon", eps,
                 "--output", "json"]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert json.loads(out)["result"] == 135 and err == ""
    else:
        assert err.startswith(f"rejected: epsilon {eps} is too small")
        assert err.count("\n") == 1


SKETCHED = [("count", None), ("sumsum", "sum"), ("sumprod", "max-plus")]


def knapsack8_query(knapsack8, kind, algebra):
    """The knapsack's query file as a `kind` query over `algebra`, F = g."""
    spec = json.loads((knapsack8 / "query.json").read_text())
    if algebra:
        spec.update(kind=kind, algebra=algebra, F=spec["inequality"]["g"])
    return write_query(knapsack8, spec, name=f"{kind}.json")


@pytest.mark.parametrize("kind, algebra", SKETCHED)
def test_reported_alpha_is_the_sketches_alpha(knapsack8, monkeypatch, capsys,
                                              kind, algebra):
    """Every sketch an approx query runs gets the alpha its report shows."""
    alphas = []

    def spying(sketch):
        def spy(value, alpha):
            alphas.append(alpha)
            return sketch(value, alpha)
        return spy
    for name in ("ms_sketch", "ws_sketch"):
        monkeypatch.setattr(drivers, name, spying(getattr(drivers, name)))
    q = knapsack8_query(knapsack8, kind, algebra)
    capsys.readouterr()
    assert main([kind, "--tables", str(knapsack8), "--query", q,
                 "--epsilon", "0.1", "--output", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert alphas and set(alphas) == {report["alpha"]}


@pytest.mark.parametrize("mode, flags", [
    ("exact", ["--exact"]), ("approx", ["--epsilon", "0.1"])])
@pytest.mark.parametrize("kind, algebra", SKETCHED)
def test_one_plan_per_query(knapsack8, monkeypatch, capsys, kind, algebra,
                            mode, flags):
    """A query builds its join tree's plan once, in the run; the report
    reads the run's mode and alpha rather than building the plan again."""
    builds = []
    for owner in (drivers, cli):
        build = owner.build_decomposition
        monkeypatch.setattr(owner, "build_decomposition",
                            lambda db, build=build: builds.append(db) or build(db))
    q = knapsack8_query(knapsack8, kind, algebra)
    capsys.readouterr()
    assert main([kind, "--tables", str(knapsack8), "--query", q, *flags,
                 "--output", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["mode"] == mode
    assert len(builds) == 1


def test_exact_query_with_bad_epsilon_exit_2(db1_dir, capsys):
    q = write_query(db1_dir, dict(COUNT_LEQ9, mode="exact", epsilon=-1))
    assert main(["count", "--tables", str(db1_dir), "--query", q]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rejected: epsilon") and err.count("\n") == 1


def test_missing_query_file_exit_2(db1_dir, capsys):
    missing = str(db1_dir / "missing.json")
    assert main(["count", "--tables", str(db1_dir), "--query", missing]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rejected: cannot read query file")
    assert err.count("\n") == 1
    assert "missing.json" in err


def test_missing_tables_path_exit_2(tmp_path, capsys):
    q = write_query(tmp_path, COUNT_LEQ9)
    missing = str(tmp_path / "nothere.csv")
    assert main(["count", "--tables", missing, "--query", q]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: cannot read table")
    assert err.count("\n") == 1
    assert "nothere.csv" in err


@pytest.mark.parametrize("flag", [
    ["--alpha", "0.1"], ["--dump-sketch"], ["--epsilon", "0.1"], ["--exact"],
])
def test_oracle_has_no_sketch_flags(db1_dir, capsys, flag):
    """The oracle is exact and runs no sketch: a mode flag is refused,
    not ignored."""
    q = write_query(db1_dir, COUNT_LEQ9)
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--tables", str(db1_dir), "--query", q, *flag])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["count", "sumsum", "sumprod"])
def test_exact_and_epsilon_together_exit_2(db1_dir, capsys, command):
    """--exact with --epsilon asks for both modes; neither wins silently."""
    q = write_query(db1_dir, COUNT_LEQ9)
    with pytest.raises(SystemExit) as exc:
        main([command, "--tables", str(db1_dir), "--query", q,
              "--exact", "--epsilon", "0.5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "not allowed with" in err and err.count("\n") == 1


def test_count_has_no_alpha_flag(db1_dir, capsys):
    q = write_query(db1_dir, COUNT_LEQ9)
    with pytest.raises(SystemExit) as exc:
        main(["count", "--tables", str(db1_dir), "--query", q,
              "--epsilon", "0.1", "--alpha", "0.1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("algebra", ["min-plus", "max-plus"])
def test_tropical_overflow_exit_4(tmp_path, capsys, algebra):
    (tmp_path / "t1.csv").write_text("a,b\n1e308,0\n")
    (tmp_path / "t2.csv").write_text("b,c\n0,1e308\n")
    q = write_query(tmp_path, {
        "kind": "sumprod", "algebra": algebra,
        "F": {"a": {"kind": "identity"}, "c": {"kind": "identity"}},
    })
    assert main(["sumprod", "--tables", str(tmp_path), "--query", q]) == 4
    err = capsys.readouterr().err
    assert "overflow" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["count", "oracle"])
def test_non_finite_term_exit_4(tmp_path, capsys, command):
    (tmp_path / "t1.csv").write_text("a\n-2\n2\n")
    (tmp_path / "t2.csv").write_text("b\n-2\n2\n")
    q = write_query(tmp_path, {
        "kind": "count",
        "inequality": {
            "g": {f: {"kind": "scale", "factor": 1e308} for f in ("a", "b")},
            "L": 0,
        },
    })
    assert main([command, "--tables", str(tmp_path), "--query", q]) == 4
    err = capsys.readouterr().err
    assert "finite or +inf" in err and err.count("\n") == 1


OVERFLOW_TABLES = {"t1.csv": "a\n1e300\n2.0\n", "t2.csv": "b\n1.0\n"}
OVERFLOW_INEQ = {"g": {"b": {"kind": "identity"}}, "L": 5}


@pytest.mark.parametrize("query, reason", [
    ({"kind": "sumsum", "algebra": "sum",
      "F": {"a": {"kind": "scale", "factor": 1e308}}}, "the sum is inf"),
    ({"kind": "sumprod", "algebra": "counting", "F": {"a": {"kind": "square"}}},
     "F term of feature 'a' at 1e+300 is inf"),
    ({"kind": "sumsum", "algebra": "max", "F": {"a": {"kind": "square"}}},
     "F term of feature 'a' at 1e+300 is inf"),
    ({"kind": "sumsum", "algebra": "min",
      "F": {"a": {"kind": "scale", "factor": -1e10}}},
     "F term of feature 'a' at 1e+300 is -inf"),
], ids=["sumsum-sum", "sumprod-counting", "sumsum-max", "sumsum-min"])
@pytest.mark.parametrize("engine", [True, False], ids=["engine", "oracle"])
def test_overflowing_f_term_exit_4(tmp_path, capsys, query, reason, engine):
    """Finite cells whose F term overflows: a sum that comes out inf, a
    counting weight of inf, and a max or min term of +/-inf exit 4 in the
    engine and the oracle alike (they used to print Infinity, or exit 2
    blaming negative terms)."""
    for name, text in OVERFLOW_TABLES.items():
        (tmp_path / name).write_text(text)
    q = write_query(tmp_path, dict(query, inequality=OVERFLOW_INEQ))
    command = query["kind"] if engine else "oracle"
    assert main([command, "--tables", str(tmp_path), "--query", q]) == 4
    err = capsys.readouterr().err
    assert reason in err and "overflowed" in err and err.count("\n") == 1


@pytest.mark.parametrize("engine", [True, False], ids=["engine", "oracle"])
def test_min_sumsum_over_no_qualifying_row_is_inf(tmp_path, capsys, engine):
    """The term check does not touch the total: a `min` fold over no
    qualifying row is its identity, +inf, and exits 0."""
    for name, text in OVERFLOW_TABLES.items():
        (tmp_path / name).write_text(text)
    q = write_query(tmp_path, {
        "kind": "sumsum", "algebra": "min", "F": {"a": {"kind": "identity"}},
        "inequality": {"g": {"b": {"kind": "identity"}}, "L": 0},
    })
    command = "sumsum" if engine else "oracle"
    assert main([command, "--tables", str(tmp_path), "--query", q,
                 "--output", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == math.inf


def test_readme_command_lines_parse():
    """Every `relagg ...` line of README's command-line block parses."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [
        line.split(" #", 1)[0] for line in block.splitlines()
        if line.startswith("relagg ")
    ]
    assert lines
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")


def test_nan_threshold_exit_2(db1_dir, capsys):
    """A NaN threshold, written as the `NaN` literal that Python's json
    reads (the string "nan" is refused as not a number)."""
    q = write_query(db1_dir, dict(COUNT_LEQ9, inequality={"L": math.nan}))
    assert main(["count", "--tables", str(db1_dir), "--query", q]) == 2
    err = capsys.readouterr().err
    assert "NaN" in err and err.count("\n") == 1


def test_approx_on_empty_tables_is_zero(tmp_path, capsys):
    (tmp_path / "t1.csv").write_text("a,b\n")
    (tmp_path / "t2.csv").write_text("b,c\n")
    q = write_query(tmp_path, COUNT_LEQ9)
    assert main([
        "count", "--tables", str(tmp_path), "--query", q,
        "--epsilon", "0.1", "--output", "json",
    ]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == 0


def test_sumsum_and_sumprod(db1_dir, capsys):
    q = write_query(db1_dir, {
        "kind": "sumsum", "algebra": "sum",
        "F": {"c": {"kind": "identity"}},
        "inequality": COUNT_LEQ9["inequality"],
    }, name="ss.json")
    assert main(["sumsum", "--tables", str(db1_dir), "--query", q]) == 0
    assert capsys.readouterr().out.strip() == "11.0"

    q = write_query(db1_dir, {
        "kind": "sumprod", "algebra": "min-plus",
        "F": {f: {"kind": "identity"} for f in ("a", "b", "c")},
    }, name="sp.json")
    assert main(["sumprod", "--tables", str(db1_dir), "--query", q]) == 0
    assert capsys.readouterr().out.strip() == "7.0"


def test_oracle_matches_engine(db1_dir, capsys):
    q = write_query(db1_dir, COUNT_LEQ9)
    assert main(["oracle", "--tables", str(db1_dir), "--query", q]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_oracle_cap_exit_4(tmp_path, capsys):
    (tmp_path / "t1.csv").write_text(
        "a\n" + "\n".join(str(i) for i in range(50)) + "\n"
    )
    (tmp_path / "t2.csv").write_text(
        "b\n" + "\n".join(str(i) for i in range(50)) + "\n"
    )
    q = write_query(tmp_path, {"kind": "count"})
    assert main([
        "oracle", "--tables", str(tmp_path), "--query", q,
        "--max-materialize", "100",
    ]) == 4
    assert "cap" in capsys.readouterr().err


def test_oracle_negative_cap_is_a_usage_error(db1_dir, capsys):
    """A cap below 0 rows is a bad argument, not a cap the join exceeds."""
    q = write_query(db1_dir, COUNT_LEQ9)
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--tables", str(db1_dir), "--query", q,
              "--max-materialize", "-1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == ("relagg oracle: error: argument "
                                       "--max-materialize: must be >= 0, got -1\n")


def test_oracle_zero_cap_refuses_any_row(db1_dir, capsys):
    q = write_query(db1_dir, COUNT_LEQ9)
    assert main(["oracle", "--tables", str(db1_dir), "--query", q,
                 "--max-materialize", "0"]) == 4
    assert "cap of 0 rows" in capsys.readouterr().err


@pytest.mark.parametrize("files, reason", [
    ({}, "input error: no .csv tables found under "),
    ({"empty.csv": ""}, "input error: table 'empty': missing header row"),
])
def test_no_table_exit_2(tmp_path, capsys, files, reason):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(["decompose", "--tables", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(reason) and err.count("\n") == 1


def test_bad_csv_exit_2(tmp_path, capsys):
    (tmp_path / "t1.csv").write_text("a,b\n1,x\n")
    assert main(["decompose", "--tables", str(tmp_path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_table_past_csv_field_limit_exit_2(tmp_path, capsys):
    """A field past the csv module's size limit is an input error, not a
    `_csv.Error` traceback."""
    (tmp_path / "t1.csv").write_text("a,b\n1," + "0" * 140_000 + "\n")
    q = write_query(tmp_path, COUNT_LEQ9)
    assert main(["count", "--tables", str(tmp_path / "t1.csv"), "--query", q]) == 2
    err = capsys.readouterr().err
    assert err == ("input error: table 't1': line 2: "
                   "field larger than field limit (131072)\n")


def test_table_not_utf8_exit_2(tmp_path, capsys):
    (tmp_path / "t1.csv").write_bytes(b"\xff\xfe")
    assert main(["decompose", "--tables", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: cannot read table")
    assert err.count("\n") == 1
    assert "t1.csv" in err and "UTF-8" in err


def test_table_byte_order_mark_is_not_part_of_a_feature_name(db1_dir, capsys):
    """Read into the header, the mark would rename `a`, which would then
    have no inequality term: the count would be 3, not 2."""
    t1 = db1_dir / "t1.csv"
    t1.write_bytes(b"\xef\xbb\xbf" + t1.read_bytes())
    q = write_query(db1_dir, COUNT_LEQ9)
    assert main(["count", "--tables", str(db1_dir), "--query", q]) == 0
    assert capsys.readouterr().out.strip() == "2"


@pytest.mark.parametrize("algebra, want", [("max", 1.0), ("min", -6.0)])
def test_approx_max_min_sumsum_reports_exact(db1_dir, capsys, algebra, want):
    """An approx `max` or `min` sumsum runs exactly and sketches nothing,
    so its report claims no error budget; its terms may mix signs."""
    q = write_query(db1_dir, dict(COUNT_LEQ9, kind="sumsum", algebra=algebra, F={
        "a": {"kind": "identity"}, "c": {"kind": "scale", "factor": -1}}))
    assert main(["sumsum", "--tables", str(db1_dir), "--query", q,
                 "--epsilon", "0.1", "--output", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["mode"], report["epsilon"], report["alpha"]) == (
        "exact", None, None)
    assert report["result"] == want


def test_text_mode_prints_mode_epsilon_and_alpha(db1_dir, capsys):
    q = write_query(db1_dir, COUNT_LEQ9)
    assert main(["count", "--tables", str(db1_dir), "--query", q,
                 "--epsilon", "0.1"]) == 0
    err = capsys.readouterr().err
    assert f"# mode=approx epsilon=0.1 alpha={alpha_for(0.1, 1)} time=" in err


def test_text_mode_prints_sketch_sizes(db1_dir, capsys):
    q = write_query(db1_dir, COUNT_LEQ9)
    assert main(["count", "--tables", str(db1_dir), "--query", q]) == 0
    err = capsys.readouterr().err
    assert "# sketch sizes: {'max_value_size': " in err


@pytest.mark.parametrize("instance", ["knapsack", "partition"])
@pytest.mark.parametrize("weights", ["1,x", "1.5,2"])
def test_gen_non_integer_weight_exit_2(tmp_path, capsys, instance, weights):
    out = tmp_path / "inst"
    assert main(["gen", instance, "--weights", weights, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rejected: --weights must be comma-separated integers")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("instance, rule", [("knapsack", "nonnegative"),
                                            ("partition", "positive")])
@pytest.mark.parametrize("spelling", [["--weights", "-1,2"],
                                      ["--weights=-1,2"]])
def test_gen_negative_first_weight_exit_2(tmp_path, capsys, instance, rule,
                                          spelling):
    """A list that begins with a negative weight is the value of --weights
    in either spelling, so the refusal names the weights, not the
    option's argument."""
    out = tmp_path / "inst"
    assert main(["gen", instance, *spelling, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"rejected: weights must be {rule} integers\n")
    assert not out.exists()


def test_gen_partition_refuses_capacity(tmp_path, capsys):
    """A partition instance has no capacity: the flag is refused, not
    ignored, and nothing is written."""
    out = tmp_path / "inst"
    assert main(["gen", "partition", "--weights", "1,2", "--capacity", "5",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "rejected: --capacity applies to knapsack only\n")
    assert not out.exists()


@pytest.mark.parametrize("out", ["file", "file/inst"])
def test_gen_unwritable_out_exit_2(tmp_path, capsys, out):
    """--out naming an existing file, or a directory that cannot be made
    under one, exits 2 with one line."""
    (tmp_path / "file").write_text("")
    path = tmp_path / out
    assert main(["gen", "knapsack", "--weights", "3,5", "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot write {path}: ")
    assert err.count("\n") == 1


BIG = "1" + "0" * 400  # too large for a float


@pytest.mark.parametrize("args, reason", [
    (["knapsack", "--weights", "9007199254740992,1,1",
      "--capacity", "9007199254740993"], "the weight sum"),
    (["knapsack", "--weights", "1,2", "--capacity", "9007199254740993"],
     "the capacity"),
    (["knapsack", "--weights", f"{BIG},2"], "the weight sum"),
    (["knapsack", "--weights", "1,2", "--capacity", BIG], "the capacity"),
    (["partition", "--weights", "9007199254740992,1"], "the weight sum"),
    (["partition", "--weights", f"{BIG},2"], "the weight sum"),
])
def test_gen_sums_floats_cannot_hold_exit_2(tmp_path, capsys, args, reason):
    """Above 2^53, float sums round: 2^53 + 1 + 1 <= 2^53 + 1 holds in
    floats, so the engine and the oracle would both count 8 subsets of
    three weights where 7 qualify."""
    out = tmp_path / "inst"
    assert main(["gen", *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"rejected: {reason} exceeds 2^53")
    assert err.count("\n") == 1
    assert not out.exists()


def test_gen_sums_up_to_2_pow_53_are_exact(tmp_path, capsys):
    """Weights 2^53 - 1 and 1 sum to 2^53 exactly, above the capacity."""
    out = tmp_path / "inst"
    assert main(["gen", "knapsack", "--weights", "9007199254740991,1",
                 "--capacity", "9007199254740991", "--out", str(out)]) == 0
    capsys.readouterr()
    q = str(out / "query.json")
    for command in ("count", "oracle"):
        assert main([command, "--tables", str(out), "--query", q]) == 0
        assert capsys.readouterr().out.strip() == "3"


def test_gen_knapsack_end_to_end(tmp_path, capsys):
    out = tmp_path / "inst"
    assert main(["gen", "knapsack", "--weights", "1,2,3", "--out", str(out)]) == 0
    capsys.readouterr()
    q = str(out / "query.json")
    assert main(["count", "--tables", str(out), "--query", q]) == 0
    engine = capsys.readouterr().out.strip()
    assert main(["oracle", "--tables", str(out), "--query", q]) == 0
    oracle = capsys.readouterr().out.strip()
    assert engine == oracle == "5"


def test_gen_partition_engine_rejects_oracle_counts(tmp_path, capsys):
    out = tmp_path / "inst"
    assert main(["gen", "partition", "--weights", "1,2,3", "--out", str(out)]) == 0
    capsys.readouterr()
    q = str(out / "query.json")
    assert main(["count", "--tables", str(out), "--query", q]) == 2
    assert "NP-hard" in capsys.readouterr().err
    assert main(["oracle", "--tables", str(out), "--query", q]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_labeled_halfspace_preset(tmp_path, capsys):
    """A row labeled other than -1 gets a +inf term, which takes it out:
    the engine and the oracle both count the two rows labeled -1 with
    x <= 1, and exit 0."""
    (tmp_path / "t1.csv").write_text("k,x\n0,-1\n0,2\n1,0.5\n")
    (tmp_path / "t2.csv").write_text("k,lbl\n0,-1\n0,1\n1,-1\n1,1\n")
    q = write_query(tmp_path, {"preset": {
        "name": "halfspace_count", "features": ["x", "lbl"], "beta": [1.0],
        "L": 1.0, "label_feature": "lbl",
    }})
    for command in ("count", "oracle"):
        assert main([command, "--tables", str(tmp_path), "--query", q]) == 0
        assert capsys.readouterr().out.strip() == "2"


def test_preset_query_file(db1_dir, capsys):
    q = write_query(db1_dir, {"preset": {
        "name": "sphere_count",
        "features": ["a", "b", "c"],
        "y": [1.0, 1.0, 5.0],
        "r": 1.0,
    }}, name="preset.json")
    assert main(["count", "--tables", str(db1_dir), "--query", q]) == 0
    # only (1,1,5) lies within distance 1 of (1,1,5)
    assert capsys.readouterr().out.strip() == "1"


@pytest.mark.parametrize("command", ["count", "oracle"])
@pytest.mark.parametrize("preset, reason", [
    ({"name": "halfspace_count", "beta": ["a", 1, 1], "L": 3.0},
     "beta[0] must be a number"),
    ({"name": "sphere_count", "y": [None, 1, 1], "r": 1.0},
     "y[0] must be a number"),
    ({"name": "halfspace_count", "beta": [1, "1", 1], "L": 3.0},
     "beta[1] must be a number, got '1'"),
])
def test_non_numeric_preset_vector_exit_2(db1_dir, capsys, command, preset,
                                          reason):
    q = write_query(db1_dir, {"preset": dict(preset, features=["a", "b", "c"])})
    assert main([command, "--tables", str(db1_dir), "--query", q]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rejected: ") and err.count("\n") == 1
    assert reason in err


XY_UNKNOWN = {"g": {"X": {"kind": "identity"}}, "L": 0}


@pytest.mark.parametrize("command, query", [
    ("count", {"kind": "count", "inequality": XY_UNKNOWN}),
    ("sumsum", {"kind": "sumsum", "algebra": "sum",
                "F": {"X": {"kind": "identity"}}}),
    ("sumsum", {"kind": "sumsum", "algebra": "sum",
                "F": {"x": {"kind": "identity"}}, "inequality": XY_UNKNOWN}),
    ("sumprod", {"kind": "sumprod", "algebra": "max-plus",
                 "F": {"X": {"kind": "identity"}}}),
    ("sumprod", {"kind": "sumprod", "algebra": "max-plus",
                 "F": {"x": {"kind": "identity"}}, "inequality": XY_UNKNOWN}),
])
@pytest.mark.parametrize("oracle", [False, True], ids=["engine", "oracle"])
def test_term_on_unknown_feature_exit_2(tmp_path, capsys, command, query, oracle):
    """`X` is not `x`: left out of every row, the term x <= 0 would count
    both rows, not none."""
    (tmp_path / "t.csv").write_text("x,y\n1,2\n3,4\n")
    q = write_query(tmp_path, query)
    command = "oracle" if oracle else command
    assert main([command, "--tables", str(tmp_path), "--query", q]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rejected: ") and err.count("\n") == 1
    assert "'X', a feature no table has" in err


@pytest.mark.parametrize("command", ["count", "oracle"])
@pytest.mark.parametrize("query", [
    {"kind": "count", "inequality": {
        "g": {"a": {"kind": "scaled_square", "alpha": alpha}}, "L": 1}}
    for alpha in (0.0, 1e-170)
] + [{"preset": {"name": "ellipsoid_count", "features": ["a", "b", "c"],
                 "alpha": [0.0, 1.0, 1.0]}}], ids=["zero", "tiny", "preset"])
def test_scaled_square_alpha_squaring_to_0_exit_2(db1_dir, capsys, command,
                                                  query):
    """scaled_square divides by alpha * alpha, which is 0 for alpha = 0 and
    for |alpha| below about 1.5e-162: refused, not a ZeroDivisionError."""
    q = write_query(db1_dir, query)
    assert main([command, "--tables", str(db1_dir), "--query", q]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rejected: scaled_square alpha ")
    assert "squares to 0" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["count", "oracle"])
@pytest.mark.parametrize("features", ["abc", ["a", 2, "c"], [], None])
def test_preset_features_must_be_a_list_of_strings(db1_dir, capsys, command,
                                                   features):
    """A string is not split into one-letter features."""
    q = write_query(db1_dir, {"preset": {
        "name": "sphere_count", "features": features, "y": [1.0, 1.0, 5.0],
        "r": 1.0,
    }})
    assert main([command, "--tables", str(db1_dir), "--query", q]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rejected: ") and err.count("\n") == 1
    assert "a nonempty list of strings" in err


@pytest.mark.parametrize("command", ["count", "oracle"])
def test_preset_repeated_feature_exit_2(db1_dir, capsys, command):
    """A repeated feature is refused, not read as the halfspace of its
    last term (5a <= 1 instead of 6a <= 1)."""
    q = write_query(db1_dir, {"preset": {
        "name": "halfspace_count", "features": ["a", "a"], "beta": [1.0, 5.0],
        "L": 1,
    }})
    assert main([command, "--tables", str(db1_dir), "--query", q]) == 2
    assert capsys.readouterr().err == (
        "rejected: preset 'halfspace_count' lists feature 'a' twice\n")
