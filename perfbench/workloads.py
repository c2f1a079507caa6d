"""Seeded workload generation.

Each workload is a set of CSV tables plus the JSON query specs run against
them. relagg sees only these files: `setup_s` reads them back through
`relagg.load_table`, so the seed never reaches the program directly.
"""

import json
import random
from dataclasses import dataclass

EPSILON = 0.1

# Query name -> JSON spec fields besides the inequality. The inequality is
# the same for every query of a workload: sum of the x features <= L.
QUERY_KINDS = {
    "count.exact": {"kind": "count"},
    "count.approx": {"kind": "count", "mode": "approx", "epsilon": EPSILON},
    "sumsum.exact": {"kind": "sumsum", "algebra": "sum"},
    "sumprod.exact": {"kind": "sumprod", "algebra": "max-plus"},
    "sumprod.approx": {
        "kind": "sumprod", "algebra": "max-plus",
        "mode": "approx", "epsilon": EPSILON,
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    tables: int
    rows: int
    keys: int        # distinct values of the shared key k; 0 = cross product
    integers: bool   # x uniform over 0..50, else uniform reals in [0, 1)
    threshold: float
    queries: tuple   # names from QUERY_KINDS
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "star-m2m", tables=3, rows=800, keys=20, integers=True,
            threshold=60, queries=tuple(QUERY_KINDS),
            why="large groups whose values stay small: approx sketches "
                "compress almost nothing, so it pays only overhead",
        ),
        Workload(
            "cross-real", tables=3, rows=80, keys=0, integers=False,
            threshold=1.5, queries=tuple(QUERY_KINDS),
            why="a real-valued cross product: exact values reach 512 000 "
                "entries and approx compresses them about 100x",
        ),
        Workload(
            "star-large", tables=3, rows=10_000, keys=1000, integers=True,
            threshold=60,
            queries=("count.exact", "sumsum.exact", "sumprod.exact"),
            why="thousands of tiny groups, so per-call overhead dominates; "
                "no sketch calls; a 30 000-row load makes setup measurable",
        ),
    )
}


def features(workload):
    return [f"x{i}" for i in range(1, workload.tables + 1)]


def make_tables(workload, seed):
    """Table name -> CSV text, a pure function of (workload, seed)."""
    rng = random.Random(f"{workload.name}/{seed}")
    out = {}
    for i, x in enumerate(features(workload), start=1):
        # Every key value gets the same number of rows, so the join size,
        # and with it the work per query, is the same for every seed.
        keys = ([j % workload.keys for j in range(workload.rows)]
                if workload.keys else [])
        rng.shuffle(keys)
        lines = ["k," + x if workload.keys else x]
        for j in range(workload.rows):
            v = rng.randint(0, 50) if workload.integers else rng.random()
            cells = [keys[j], v] if workload.keys else [v]
            lines.append(",".join(repr(float(c)) for c in cells))
        out[f"t{i}"] = "\n".join(lines) + "\n"
    return out


def make_specs(workload):
    """Query name -> JSON spec object, in the workload's round-robin order."""
    identity = {x: {"kind": "identity"} for x in features(workload)}
    inequality = {"g": identity, "L": workload.threshold}
    specs = {}
    for name in workload.queries:
        spec = dict(QUERY_KINDS[name], inequality=inequality)
        if spec["kind"] != "count":
            spec["F"] = identity
        specs[name] = spec
    return specs


def write_inputs(workload, seed, directory):
    """Write the tables and specs under `directory`; return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    csvs = []
    for name, text in make_tables(workload, seed).items():
        path = directory / f"{name}.csv"
        path.write_text(text)
        csvs.append(path)
    specs = directory / "queries.json"
    specs.write_text(json.dumps(make_specs(workload), indent=1, sort_keys=True))
    return csvs, specs
