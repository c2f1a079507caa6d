import json

import pytest

from relagg.cli import main


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
    assert report == {"edges": [[1, 2]], "status": "ok"}


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


def test_alpha_override(db1_dir, capsys):
    q = write_query(db1_dir, COUNT_LEQ9)
    assert main([
        "count", "--tables", str(db1_dir), "--query", q,
        "--epsilon", "0.1", "--alpha", "0.001", "--output", "json",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["alpha"] == 0.001


@pytest.mark.parametrize("alpha", ["nan", "-1", "0", "inf"])
def test_bad_alpha_exit_2(db1_dir, capsys, alpha):
    q = write_query(db1_dir, COUNT_LEQ9)
    assert main([
        "count", "--tables", str(db1_dir), "--query", q,
        "--epsilon", "0.1", "--alpha", alpha,
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rejected: alpha") and err.count("\n") == 1


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
])
def test_malformed_query_file_exit_2(db1_dir, capsys, query, reason):
    q = write_query(db1_dir, query)
    assert main(["count", "--tables", str(db1_dir), "--query", q]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rejected: ") and err.count("\n") == 1
    assert reason in err


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


def test_nan_threshold_exit_2(db1_dir, capsys):
    q = write_query(db1_dir, dict(COUNT_LEQ9, inequality={"L": "nan"}))
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


def test_bad_csv_exit_2(tmp_path, capsys):
    (tmp_path / "t1.csv").write_text("a,b\n1,x\n")
    assert main(["decompose", "--tables", str(tmp_path)]) == 2
    assert "input error" in capsys.readouterr().err


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
