"""Command-line front end.

Subcommands: decompose, count, sumsum, sumprod, oracle, gen. Exit codes:
0 success, 2 validation rejection, 3 cyclic join, 4 cap or overflow.
JSON reports are deterministic for fixed inputs (timing is text-mode only).
"""

import argparse
import json
import pathlib
import sys
import time
from dataclasses import replace

from . import bruteforce, drivers
from .engine import Instrumentation
from .errors import CapExceeded, CyclicJoinError, QueryRejected, TableError
from .jointree import build_decomposition
from .queryspec import spec_from_json
from .tables import Database, dump_table, load_table

EXIT_OK = 0
EXIT_REJECTED = 2
EXIT_CYCLIC = 3
EXIT_CAP = 4


def _load_database(paths):
    files = []
    for p in paths:
        path = pathlib.Path(p)
        if path.is_dir():
            files.extend(sorted(path.glob("*.csv")))
        else:
            files.append(path)
    if not files:
        raise TableError(f"no .csv tables found under {', '.join(paths)}")
    tables = []
    for f in files:
        with open(f, newline="") as fh:
            tables.append(load_table(fh, name=f.stem, header=True))
    return Database(tables=tuple(tables))


def _load_spec(args):
    with open(args.query) as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise QueryRejected(f"query file is not JSON: {exc}") from None
    spec = spec_from_json(obj)
    overrides = {}
    if getattr(args, "exact", False):
        overrides["mode"] = "exact"
    elif getattr(args, "epsilon", None) is not None:
        overrides["mode"] = "approx"
        overrides["epsilon"] = args.epsilon
    if overrides:
        spec = replace(spec, **overrides)
    return spec


def _emit(report, args, elapsed):
    if getattr(args, "output", "text") == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        print(report["result"])
        if report.get("mode"):
            detail = f"mode={report['mode']}"
            if report.get("epsilon") is not None:
                detail += f" epsilon={report['epsilon']}"
            if report.get("alpha") is not None:
                detail += f" alpha={report['alpha']}"
            print(f"# {detail} time={elapsed:.3f}s", file=sys.stderr)
        if report.get("sketch") and getattr(args, "dump_sketch", False):
            print(f"# sketch sizes: {report['sketch']}", file=sys.stderr)


def _run_engine(args, kind):
    db = _load_database(args.tables)
    spec = _load_spec(args)
    if spec.kind != kind:
        raise QueryRejected(
            f"query file declares kind {spec.kind!r}, subcommand is {kind!r}"
        )
    params = drivers.ApproxParams(spec.epsilon, alpha=args.alpha)
    instr = Instrumentation()
    start = time.perf_counter()
    result = drivers.run_query(db, spec, instr=instr, params=params)
    elapsed = time.perf_counter() - start
    approx = spec.mode == "approx"
    report = {
        "result": result,
        "mode": spec.mode,
        "epsilon": spec.epsilon if approx else None,
        "alpha": params.resolve_alpha(db.m, db.n) if approx else None,
        "sketch": {
            "max_value_size": instr.max_value_size,
            "max_fold_depth": instr.max_fold_depth,
        },
        "status": "ok",
    }
    _emit(report, args, elapsed)
    return EXIT_OK


def _cmd_decompose(args):
    db = _load_database(args.tables)
    decomp = build_decomposition(db)
    text = decomp.as_text()
    if args.output == "json":
        print(json.dumps({"edges": list(decomp.edges), "status": "ok"},
                         sort_keys=True))
    elif text:
        print(text)
    return EXIT_OK


def _cmd_oracle(args):
    db = _load_database(args.tables)
    spec = _load_spec(args)
    start = time.perf_counter()
    result = bruteforce.oracle_eval(db, spec, cap=args.max_materialize)
    elapsed = time.perf_counter() - start
    report = {"result": result, "mode": "oracle", "status": "ok"}
    _emit(report, args, elapsed)
    return EXIT_OK


def _cmd_gen(args):
    weights = [int(w) for w in args.weights.split(",") if w]
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.instance == "knapsack":
        capacity = args.capacity if args.capacity is not None else sum(weights) // 2
        db, ineq = bruteforce.gen_knapsack(weights, capacity)
        query = {
            "kind": "count",
            "inequality": {
                "g": {f: {"kind": "identity"} for f in sorted(db.feature_tables)},
                "L": float(capacity),
            },
        }
    else:
        db, (ineq1, ineq2) = bruteforce.gen_partition(weights)
        query = {
            "kind": "count",
            "inequalities": [
                {
                    "g": {f: {"kind": "identity"} for f in sorted(db.feature_tables)},
                    "L": 0.0,
                },
                {
                    "g": {
                        f: {"kind": "scale", "factor": -1.0}
                        for f in sorted(db.feature_tables)
                    },
                    "L": 0.0,
                },
            ],
        }
    for t in db.tables:
        (out / f"{t.name}.csv").write_text(dump_table(t))
    (out / "query.json").write_text(json.dumps(query, indent=2, sort_keys=True))
    print(f"wrote {db.m} tables and query.json to {out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="relagg",
        description="Aggregate queries under one additive inequality over "
        "acyclic joins, exact or with relative-error guarantees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, query=True):
        p.add_argument("--tables", nargs="+", required=True,
                       help="CSV files or directories of .csv tables")
        p.add_argument("--output", choices=("text", "json"), default="text")
        if query:
            p.add_argument("--query", required=True, help="query spec JSON file")
            p.add_argument("--epsilon", type=float, default=None)
            p.add_argument("--exact", action="store_true")
            p.add_argument("--alpha", type=float, default=None,
                           help="override the per-operation sketch parameter "
                           "(finite, > 0); the error bound then no longer "
                           "follows from epsilon")
            p.add_argument("--dump-sketch", action="store_true")

    p = sub.add_parser("decompose", help="print the join tree edge list")
    add_common(p, query=False)

    for kind in ("count", "sumsum", "sumprod"):
        p = sub.add_parser(kind, help=f"run a {kind} query")
        add_common(p)

    p = sub.add_parser("oracle", help="brute-force evaluation by materialization")
    add_common(p)
    p.add_argument("--max-materialize", type=int, default=bruteforce.DEFAULT_CAP)

    p = sub.add_parser("gen", help="write a generated fixture instance")
    p.add_argument("instance", choices=("knapsack", "partition"))
    p.add_argument("--weights", required=True, help="comma-separated integers")
    p.add_argument("--capacity", type=int, default=None)
    p.add_argument("--out", required=True)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "decompose":
            return _cmd_decompose(args)
        if args.command in ("count", "sumsum", "sumprod"):
            return _run_engine(args, args.command)
        if args.command == "oracle":
            return _cmd_oracle(args)
        return _cmd_gen(args)
    except QueryRejected as exc:
        print(f"rejected: {exc.reason}", file=sys.stderr)
        return EXIT_REJECTED
    except TableError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except CyclicJoinError as exc:
        print(f"cyclic join: {exc}", file=sys.stderr)
        return EXIT_CYCLIC
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
