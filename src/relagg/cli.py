"""Command-line front end.

Subcommands: decompose, count, sumsum, sumprod, oracle, gen. Exit codes:
0 success, 2 rejected query, unreadable input or unwritable output,
3 cyclic join, 4 cap or overflow.
JSON reports are deterministic for fixed inputs (timing is text-mode only).
"""

import argparse
import json
import pathlib
import re
import sys
import time
from dataclasses import replace

from . import bruteforce, drivers
from .engine import Instrumentation
from .errors import CapExceeded, CyclicJoinError, QueryRejected, TableError
from .jointree import build_decomposition
from .queryspec import inequality_to_json, spec_from_json
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
        try:
            with open(f, newline="", encoding="utf-8-sig") as fh:
                tables.append(load_table(fh, name=f.stem))
        except OSError as exc:
            raise TableError(f"cannot read table {f}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise TableError(f"cannot read table {f}: not UTF-8 text") from None
    return Database(tables=tuple(tables))


def _load_spec(args):
    try:
        fh = open(args.query)
    except OSError as exc:
        raise QueryRejected(
            f"cannot read query file {args.query}: {exc.strerror}"
        ) from None
    with fh:
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
        if report.get("sketch"):
            print(f"# sketch sizes: {report['sketch']}", file=sys.stderr)


def _cmd_query(args):
    """count, sumsum, sumprod and oracle: the answer and what the run was,
    its mode and, for the engine, the alpha its sketches got."""
    db = _load_database(args.tables)
    spec = _load_spec(args)
    engine = args.command != "oracle"
    if engine and spec.kind != args.command:
        raise QueryRejected(f"query file declares kind {spec.kind!r}, "
                            f"subcommand is {args.command!r}")
    instr = Instrumentation()
    start = time.perf_counter()
    result = (drivers.run_query(db, spec, instr=instr) if engine
              else bruteforce.oracle_eval(db, spec, cap=args.max_materialize))
    elapsed = time.perf_counter() - start
    report = {"result": result, "mode": "oracle", "status": "ok"}
    if engine:
        report.update(
            mode=instr.mode, alpha=instr.alpha,
            epsilon=None if instr.alpha is None else spec.epsilon,
            sketch={"max_value_size": instr.max_value_size,
                    "max_fold_depth": instr.max_fold_depth})
    _emit(report, args, elapsed)
    return EXIT_OK


def _cmd_decompose(args):
    db = _load_database(args.tables)
    plan = build_decomposition(db)
    text = plan.as_text()
    if args.output == "json":
        print(json.dumps({"edges": list(plan.edges), "root": plan.root,
                          "depth": plan.depth, "status": "ok"},
                         sort_keys=True))
    elif text:
        print(text)
    return EXIT_OK


def _cmd_gen(args):
    try:
        weights = [int(w) for w in args.weights.split(",") if w]
    except ValueError:
        raise QueryRejected(f"--weights must be comma-separated integers, "
                            f"got {args.weights!r}") from None
    if args.instance == "partition" and args.capacity is not None:
        raise QueryRejected("--capacity applies to knapsack only")
    if args.instance == "knapsack":
        capacity = args.capacity if args.capacity is not None else sum(weights) // 2
        db, ineq = bruteforce.gen_knapsack(weights, capacity)
        query = {"kind": "count", "inequality": inequality_to_json(ineq)}
    else:
        db, ineqs = bruteforce.gen_partition(weights)
        query = {"kind": "count",
                 "inequalities": [inequality_to_json(i) for i in ineqs]}
    out = pathlib.Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for t in db.tables:
            (out / f"{t.name}.csv").write_text(dump_table(t))
        (out / "query.json").write_text(json.dumps(query, indent=2, sort_keys=True))
    except OSError as exc:
        raise TableError(f"cannot write {exc.filename or out}: {exc.strerror}") from None
    print(f"wrote {db.m} tables and query.json to {out}")
    return EXIT_OK


def _row_cap(text):
    """--max-materialize: a number of rows, so an int >= 0."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {cap}")
    return cap


class _Parser(argparse.ArgumentParser):
    """A usage error exits 2 with one stderr line, as every rejection does."""

    def error(self, message):
        self.exit(EXIT_REJECTED, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="relagg",
        description="Aggregate queries under one additive inequality over "
        "acyclic joins, exact or with relative-error guarantees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run, query=True):
        p.set_defaults(run=run)
        p.add_argument("--tables", nargs="+", required=True,
                       help="CSV files or directories of .csv tables")
        p.add_argument("--output", choices=("text", "json"), default="text")
        if query:
            p.add_argument("--query", required=True, help="query spec JSON file")

    p = sub.add_parser("decompose", help="print the join tree edge list "
                       "(JSON: also its root and depth)")
    add_common(p, _cmd_decompose, query=False)

    for kind in ("count", "sumsum", "sumprod"):
        p = sub.add_parser(kind, help=f"run a {kind} query")
        add_common(p, _cmd_query)
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--epsilon", type=float, default=None)
        mode.add_argument("--exact", action="store_true")

    p = sub.add_parser("oracle", help="brute-force evaluation by materialization")
    add_common(p, _cmd_query)
    p.add_argument("--max-materialize", type=_row_cap,
                   default=bruteforce.DEFAULT_CAP)

    p = sub.add_parser("gen", help="write a generated fixture instance")
    # a weight list that begins with a negative weight, -1,2, is a value,
    # so the weights' own check names the fault
    p._negative_number_matcher = re.compile(r"-\d[\d,-]*$")
    p.add_argument("instance", choices=("knapsack", "partition"))
    p.add_argument("--weights", required=True, help="comma-separated integers")
    p.add_argument("--capacity", type=int, default=None, help="knapsack only")
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_gen)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
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
