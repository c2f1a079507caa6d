import math

import pytest

from relagg import (
    AdditiveInequality,
    FunctionSpec,
    QueryRejected,
    QuerySpec,
    preset,
    spec_from_json,
    validate,
)
from relagg.queryspec import (
    FUNCTION_KINDS,
    constant,
    function_from_json,
    identity,
    inequality_from_json,
    scale,
)


def test_function_kinds():
    assert constant(3.0)(99.0) == 3.0
    assert identity()(4.5) == 4.5
    assert scale(2.0)(3.0) == 6.0
    assert FunctionSpec("affine", (2.0, 1.0))(3.0) == 7.0
    assert FunctionSpec("square")(-3.0) == 9.0
    assert FunctionSpec("abs_offset", (5.0,))(2.0) == 3.0
    assert FunctionSpec("sq_offset", (1.0,))(4.0) == 9.0
    assert FunctionSpec("scaled_square", (2.0,))(4.0) == 4.0
    ind = FunctionSpec("indicator_eq", (-1.0, 0.0, math.inf))
    assert ind(-1.0) == 0.0
    assert ind(1.0) == math.inf
    nz = FunctionSpec("indicator_nonzero")
    assert nz(0.0) == 0.0
    assert nz(7.0) == 1.0


def test_function_arity_checked():
    with pytest.raises(QueryRejected):
        FunctionSpec("scale", ())
    with pytest.raises(QueryRejected):
        FunctionSpec("no_such_kind")


def test_inequality_defaults():
    ineq = AdditiveInequality()
    assert ineq.threshold == math.inf
    assert ineq.term("anything")(5.0) == 0.0
    assert ineq.row_sum(("a", "b"), (1.0, 2.0)) == 0.0


def test_inequality_row_sum():
    ineq = AdditiveInequality(g={"a": identity(), "b": scale(2.0)}, threshold=9.0)
    assert ineq.row_sum(("a", "b", "c"), (1.0, 3.0, 99.0)) == 7.0


def test_queryspec_rejects_bad_kind_and_mode():
    with pytest.raises(QueryRejected):
        QuerySpec(kind="median")
    with pytest.raises(QueryRejected):
        QuerySpec(kind="count", mode="guess")


def test_validate_two_inequalities_rejected(db1):
    spec = QuerySpec(
        kind="count",
        inequalities=(AdditiveInequality(), AdditiveInequality()),
    )
    rej = validate(spec, db1)
    assert rej is not None
    assert "NP-hard" in rej.reason


def test_validate_count_accepted(db1):
    assert validate(QuerySpec(kind="count"), db1) is None


def test_validate_sumsum_monoid_required(db1):
    spec = QuerySpec(kind="sumsum", algebra="min-plus")
    assert validate(spec, db1) is not None


def test_validate_sumsum_mixed_sign_approx_rejected(db1):
    F = {"a": scale(1.0), "c": scale(-1.0)}
    exact = QuerySpec(kind="sumsum", algebra="sum", F=F, mode="exact")
    assert validate(exact, db1) is None
    approx = QuerySpec(kind="sumsum", algebra="sum", F=F, mode="approx")
    rej = validate(approx, db1)
    assert rej is not None
    assert "subtraction" in rej.reason


def test_validate_sumprod_negative_factor_rejected(db1):
    spec = QuerySpec(kind="sumprod", algebra="counting", F={"a": scale(-1.0)})
    rej = validate(spec, db1)
    assert rej is not None
    assert "nonnegative" in rej.reason


def test_validate_sumprod_tropical_accepted(db1):
    spec = QuerySpec(kind="sumprod", algebra="min-plus", F={"a": identity()})
    assert validate(spec, db1) is None


def test_validate_unknown_algebra(db1):
    spec = QuerySpec(kind="sumprod", algebra="quaternion")
    assert validate(spec, db1) is not None


# ---------------------------------------------------------------------------
# Presets


def test_halfspace_count_preset():
    spec = preset("halfspace_count", {
        "features": ["x", "y"], "beta": [1.0, 2.0], "L": 5.0,
    })
    assert spec.kind == "count"
    ineq = spec.inequality
    assert ineq.threshold == 5.0
    assert ineq.row_sum(("x", "y"), (1.0, 1.0)) == 3.0


def test_halfspace_count_with_label():
    spec = preset("halfspace_count", {
        "features": ["x", "lbl"], "beta": [1.0], "L": 0.0,
        "label_feature": "lbl",
    })
    ineq = spec.inequality
    assert ineq.term("lbl")(-1.0) == 0.0
    assert ineq.term("lbl")(1.0) == math.inf


def test_sphere_count_preset():
    spec = preset("sphere_count", {
        "features": ["x", "y"], "y": [1.0, 1.0], "r": 2.0,
    })
    assert spec.inequality.threshold == 4.0
    assert spec.inequality.row_sum(("x", "y"), (2.0, 0.0)) == 2.0


def test_ellipsoid_count_preset():
    spec = preset("ellipsoid_count", {"features": ["x"], "alpha": [2.0]})
    assert spec.inequality.threshold == 1.0
    assert spec.inequality.term("x")(2.0) == 1.0


def test_sumsum_presets():
    spec = preset("sum_abs_halfspace", {
        "features": ["x"], "y": [3.0], "beta": [1.0], "L": 10.0,
    })
    assert (spec.kind, spec.algebra) == ("sumsum", "sum")
    assert spec.F["x"](1.0) == 2.0

    spec = preset("sum_squares_ellipsoid", {"features": ["x"], "alpha": [1.0]})
    assert spec.F["x"](3.0) == 9.0

    spec = preset("nnz_halfspace", {"features": ["x"], "beta": [1.0], "L": 0.0})
    assert spec.F["x"](0.0) == 0.0
    assert spec.F["x"](5.0) == 1.0


def test_sumprod_presets():
    spec = preset("min_1norm_sphere", {
        "features": ["x"], "y": [0.0], "r": 1.0,
    })
    assert (spec.kind, spec.algebra) == ("sumprod", "min-plus")
    assert spec.F["x"](-2.0) == 2.0

    spec = preset("max_sqdist_halfspace", {
        "features": ["x"], "y": [1.0], "beta": [1.0], "L": 5.0,
    })
    assert (spec.kind, spec.algebra) == ("sumprod", "max-plus")
    assert spec.F["x"](3.0) == 4.0


def test_preset_dimension_mismatch():
    with pytest.raises(QueryRejected):
        preset("sphere_count", {"features": ["x", "y"], "y": [0.0], "r": 1.0})


def test_preset_unknown_name_and_missing_features():
    with pytest.raises(QueryRejected):
        preset("torus_count", {"features": ["x"]})
    with pytest.raises(QueryRejected):
        preset("sphere_count", {"y": [0.0], "r": 1.0})


def test_preset_unknown_parameter():
    with pytest.raises(QueryRejected):
        preset("sphere_count", {
            "features": ["x"], "y": [0.0], "r": 1.0, "color": "red",
        })


# ---------------------------------------------------------------------------
# JSON wire format


def test_function_from_json():
    fn = function_from_json({"kind": "affine", "a": 2, "b": 1})
    assert fn(3.0) == 7.0
    with pytest.raises(QueryRejected, match="missing"):
        function_from_json({"kind": "scale"})
    with pytest.raises(QueryRejected, match="unknown fields"):
        function_from_json({"kind": "identity", "bogus": 1})
    with pytest.raises(QueryRejected):
        function_from_json({"kind": "wat"})


# One JSON spec per function kind (two for the piecewise ones), a point,
# and the function's value there.
KIND_CASES = [
    ({"kind": "constant", "c": 4}, 2.0, 4.0),
    ({"kind": "identity"}, 2.0, 2.0),
    ({"kind": "scale", "factor": -3}, 2.0, -6.0),
    ({"kind": "affine", "a": 2, "b": 1}, 3.0, 7.0),
    ({"kind": "square"}, -3.0, 9.0),
    ({"kind": "abs_offset", "y": 5}, 2.0, 3.0),
    ({"kind": "sq_offset", "y": 5}, 2.0, 9.0),
    ({"kind": "scaled_square", "alpha": 2}, 3.0, 2.25),
    ({"kind": "indicator_eq", "value": 1, "then": 7, "else": 8}, 1.0, 7.0),
    ({"kind": "indicator_eq", "value": 1, "then": 7, "else": 8}, 2.0, 8.0),
    ({"kind": "indicator_nonzero"}, 0.0, 0.0),
    ({"kind": "indicator_nonzero"}, -2.0, 1.0),
]


def test_kind_cases_cover_every_function_kind():
    assert {obj["kind"] for obj, _, _ in KIND_CASES} == set(FUNCTION_KINDS)


@pytest.mark.parametrize("obj, x, expected", KIND_CASES,
                         ids=lambda v: v["kind"] if isinstance(v, dict) else None)
def test_every_function_kind_from_json(obj, x, expected):
    params = tuple(float(v) for k, v in obj.items() if k != "kind")
    direct = FunctionSpec(obj["kind"], params)
    parsed = function_from_json(obj)
    assert parsed == direct
    assert parsed(x) == direct(x) == expected


def test_inequality_from_json():
    ineq = inequality_from_json({
        "g": {"a": {"kind": "identity"}}, "L": 3,
    })
    assert ineq.threshold == 3.0
    assert ineq.term("a")(2.0) == 2.0
    assert inequality_from_json({}).threshold == math.inf
    with pytest.raises(QueryRejected):
        inequality_from_json({"g": {}, "cap": 1})


def test_spec_from_json_full():
    spec = spec_from_json({
        "kind": "sumprod",
        "algebra": "min-plus",
        "F": {"a": {"kind": "identity"}},
        "inequality": {"g": {"a": {"kind": "identity"}}, "L": 4},
        "epsilon": 0.25,
        "mode": "approx",
    })
    assert spec.kind == "sumprod"
    assert spec.epsilon == 0.25
    assert spec.mode == "approx"
    assert len(spec.inequalities) == 1


def test_spec_from_json_defaults():
    spec = spec_from_json({})
    assert spec.kind == "count"
    assert spec.inequality is None
    assert spec.mode == "exact"


def test_spec_from_json_preset():
    spec = spec_from_json({"preset": {
        "name": "sphere_count", "features": ["x"], "y": [0.0], "r": 1.0,
    }})
    assert spec.kind == "count"
    with pytest.raises(QueryRejected):
        spec_from_json({"preset": {"features": ["x"]}})
    with pytest.raises(QueryRejected):
        spec_from_json({"preset": {"name": "sphere_count"}, "kind": "count"})


def test_spec_from_json_rejects_unknown_or_conflicting_fields():
    with pytest.raises(QueryRejected):
        spec_from_json({"kind": "count", "frobnicate": True})
    with pytest.raises(QueryRejected):
        spec_from_json({"inequality": {}, "inequalities": []})
    with pytest.raises(QueryRejected):
        spec_from_json([1, 2])
