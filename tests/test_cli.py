import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import strata_limits
from strata_limits import cli, multicurves, orbifolds
from strata_limits.groups import closure
from strata_limits.cli import main
from strata_limits.files import (
    SpecFormatError,
    action_from_spec,
    action_to_spec,
    group_from_spec,
    multicurve_from_spec,
    multicurve_to_spec,
)
from strata_limits.limit_graphs import build_stratum_graph
from strata_limits.oracle import audit_graph
from strata_limits.pyramids import (
    PyramidMulticurveParams,
    enumerate_parameters,
    make_multicurve,
    pyramid_action,
)
from strata_limits.stable_graphs import StableGraph

PYRAMID_5 = {
    "group": {"type": "dihedral", "n": 5},
    "signature": {"genus": 0, "cone_orders": [2, 2, 2, 2, 5]},
    "images": ["s", "r s", "r s", "r s", "r"],
}

ONE_ARC_5 = {
    "pieces": [
        {
            "id": 1,
            "signature": {"genus": 0, "boundary": 1, "cone_orders": [2, 2, 5]},
            "cone_points": [1, 2, 5],
            "generators": ["x1", "x2", "x5"],
        }
    ],
    "curves": [
        {
            "id": "g",
            "kind": "arc",
            "endpoints": [3, 4],
            "gamma_a": "x3",
            "gamma_b": "x4",
            "sides": [{"piece": 1, "attach": ""}, {"piece": 1, "attach": "x4"}],
        }
    ],
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_group_from_spec_table_round_trip():
    action = action_from_spec(PYRAMID_5)
    again = action_from_spec(action_to_spec(action))
    assert again.images == action.images
    assert again.group.names == action.group.names
    assert again.group.table == action.group.table


def test_group_spec_rejects_silly_input():
    with pytest.raises(SpecFormatError):
        group_from_spec({"type": "dihedral", "n": 0})
    with pytest.raises(SpecFormatError):
        group_from_spec({"type": "sporadic"})
    with pytest.raises(SpecFormatError):
        group_from_spec({"type": "table", "order": 2, "table": [[0, 0], [1, 1]]})


def test_multicurve_spec_round_trip():
    action = action_from_spec(PYRAMID_5)
    mc = multicurve_from_spec(ONE_ARC_5, action)
    again = multicurve_from_spec(multicurve_to_spec(mc, action.signature), action)
    assert again == mc


def test_pyramid_generated_spec_round_trips():
    fam = pyramid_action(6)
    mc = make_multicurve(fam, PyramidMulticurveParams("arc-plus-closed", "bottom-left", 1))
    payload = multicurve_to_spec(mc, fam.action.signature)
    assert multicurve_from_spec(payload, fam.action) == mc


def test_validate_ok(tmp_path):
    action = write(tmp_path, "action.json", PYRAMID_5)
    mc = write(tmp_path, "mc.json", ONE_ARC_5)
    code, out, err = run(["validate", "--action", action, "--multicurve", mc])
    assert code == 0
    assert out == "action: ok\nmulticurve: ok\n"
    assert err == ""


def test_validate_order_violation(tmp_path):
    bad = dict(PYRAMID_5, images=["s", "r s", "r s", "r s", "s"])
    action = write(tmp_path, "action.json", bad)
    code, out, err = run(["validate", "--action", action])
    assert code == 2
    assert "x5" in err and "order" in err


def test_validate_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, err = run(["validate", "--action", str(path)])
    assert code == 1
    assert "invalid JSON" in err


@pytest.mark.parametrize("opening", ["[", '{"a": '])
@pytest.mark.parametrize("command", ["validate", "build"])
def test_deeply_nested_json_exits_1_with_one_line(tmp_path, command, opening):
    nested = tmp_path / "nested.json"
    nested.write_text(opening * 100_000, encoding="utf-8")
    if command == "validate":
        argv = ["validate", "--action", str(nested)]
    else:
        action = write(tmp_path, "action.json", PYRAMID_5)
        argv = ["build", "--action", action, "--multicurve", str(nested)]
    code, out, err = run(argv)
    assert (code, out) == (1, "")
    assert err == f"error: {nested}: invalid JSON: nested too deeply\n"


@pytest.mark.parametrize(
    ("content", "reason"),
    [
        (b"\xff{}", "not UTF-8: "),
        (
            b'{"group": ' + b"9" * 5000 + b"}",
            "invalid JSON: integer of 5000 digits is over the limit of 4300\n",
        ),
    ],
    ids=["not-utf-8", "5000-digit-integer"],
)
@pytest.mark.parametrize("command", ["validate", "build"])
def test_unparsable_json_exits_1_naming_the_file(tmp_path, command, content, reason):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    if command == "validate":
        argv = ["validate", "--action", str(bad)]
    else:
        action = write(tmp_path, "action.json", PYRAMID_5)
        argv = ["build", "--action", action, "--multicurve", str(bad)]
    code, out, err = run(argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert err.startswith(f"error: {bad}: {reason}")


def test_build_text_output(tmp_path):
    action = write(tmp_path, "action.json", PYRAMID_5)
    mc = write(tmp_path, "mc.json", ONE_ARC_5)
    code, out, err = run(
        ["build", "--action", action, "--multicurve", mc, "--format", "text", "--no-audit"]
    )
    assert code == 0
    lines = out.splitlines()
    assert "V 1 w=0" in lines
    assert lines.count("E 1 1") == 5
    assert any(line.startswith("piece 1: image subgroup of order 10") for line in lines)
    assert any(line.startswith("curve g: image subgroup of order 2") for line in lines)


def test_build_with_audit_appends_report(tmp_path):
    action = write(tmp_path, "action.json", PYRAMID_5)
    mc = write(tmp_path, "mc.json", ONE_ARC_5)
    code, out, _ = run(["build", "--action", action, "--multicurve", mc])
    assert code == 0
    assert "[PASS] genus conservation: expected 5, got 5" in out


def test_build_dot_output(tmp_path):
    action = write(tmp_path, "action.json", PYRAMID_5)
    mc = write(tmp_path, "mc.json", ONE_ARC_5)
    code, out, _ = run(
        ["build", "--action", action, "--multicurve", mc, "--format", "dot", "--no-audit"]
    )
    assert code == 0
    assert out.startswith("graph stable {")
    assert out.count('"v1" -- "v1";') == 5


def test_build_json_output(tmp_path):
    action = write(tmp_path, "action.json", PYRAMID_5)
    mc = write(tmp_path, "mc.json", ONE_ARC_5)
    code, out, _ = run(
        ["build", "--action", action, "--multicurve", mc, "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["graph"]["vertex_count"] == 1
    assert payload["graph"]["edge_count"] == 5
    assert payload["graph"]["genus"] == 5
    assert payload["graph"]["vertices"] == [
        {"id": 1, "piece": 1, "coset": "e", "degree": 10, "weight": 0}
    ]
    assert payload["audit"]["ok"] is True
    assert payload["subgroups"]["curves"]["g"] == ["e", "r s"]


def test_build_validation_failure(tmp_path):
    action = write(tmp_path, "action.json", PYRAMID_5)
    broken = json.loads(json.dumps(ONE_ARC_5))
    broken["curves"][0]["endpoints"] = [3, 5]
    broken["curves"][0]["gamma_b"] = "x5"
    mc = write(tmp_path, "mc.json", broken)
    code, _, err = run(["build", "--action", action, "--multicurve", mc])
    assert code == 2
    assert "endpoint P5" in err


def test_build_validates_each_input_once(tmp_path, monkeypatch):
    calls = Counter()
    # _check_multicurve is what validates a multicurve for a build.
    for original in (orbifolds.validate_action, multicurves._check_multicurve):
        def counted(*args, _original=original):
            calls[_original.__name__] += 1
            return _original(*args)

        # Patch every module attribute that holds the validator, so a call
        # from any layer is counted.
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "strata_limits":
                if getattr(module, original.__name__, None) is original:
                    monkeypatch.setattr(module, original.__name__, counted)
    action = write(tmp_path, "action.json", PYRAMID_5)
    mc = write(tmp_path, "mc.json", ONE_ARC_5)
    code, _, _ = run(["build", "--action", action, "--multicurve", mc, "--format", "json"])
    assert code == 0
    assert calls == {"validate_action": 1, "_check_multicurve": 1}


# D4 over the genus-1 orbifold with one order-2 cone point, cut into two
# closed pieces that no curve joins.
TORUS_D4 = {
    "group": {"type": "dihedral", "n": 4},
    "signature": {"genus": 1, "cone_orders": [2]},
    "images": ["r^2", "r", "s"],
}
UNJOINED_PIECES = {
    "pieces": [
        {"id": 1, "signature": {"genus": 1, "boundary": 0, "cone_orders": []},
         "cone_points": [], "generators": ["a1", "b1"]},
        {"id": 2, "signature": {"genus": 1, "boundary": 0, "cone_orders": [2]},
         "cone_points": [1], "generators": ["x1", "a1", "b1"]},
    ],
    "curves": [],
}


@pytest.mark.parametrize("command", ["validate", "build"])
def test_pieces_no_curve_joins_are_a_validation_error(tmp_path, command):
    action = write(tmp_path, "action.json", TORUS_D4)
    mc = write(tmp_path, "mc.json", UNJOINED_PIECES)
    code, out, err = run([command, "--action", action, "--multicurve", mc])
    assert (code, out) == (2, "")
    assert err == "pieces not joined to piece 1 by any curve: 2\n"


BAD_TABLE_ACTION = dict(PYRAMID_5, group={"type": "table", "order": 2, "table": [0, 1]})
FLOAT_ORDER_ACTION = action_to_spec(action_from_spec(PYRAMID_5))
FLOAT_ORDER_ACTION["group"]["order"] = 10.0
# With 0 and 1 in place of false and true this is a valid Z2 action and arc.
BOOL_TABLE_ACTION = {
    "group": {"type": "table", "order": 2, "table": [[False, True], [True, False]]},
    "signature": {"genus": 0, "cone_orders": [2] * 6},
    "images": ["g1"] * 6,
}
ONE_ARC_Z2 = {
    "pieces": [
        {
            "id": 1,
            "signature": {"genus": 0, "boundary": 1, "cone_orders": [2] * 4},
            "cone_points": [1, 2, 3, 4],
            "generators": ["x1", "x2", "x3", "x4"],
        }
    ],
    "curves": [
        dict(ONE_ARC_5["curves"][0], endpoints=[5, 6], gamma_a="x5", gamma_b="x6",
             sides=[{"piece": 1, "attach": ""}, {"piece": 1, "attach": "x6"}])
    ],
}


def _with_piece(**fields):
    broken = json.loads(json.dumps(ONE_ARC_5))
    broken["pieces"][0].update(fields)
    return broken


def _with_curve(**fields):
    broken = json.loads(json.dumps(ONE_ARC_5))
    broken["curves"][0].update(fields)
    return broken


@pytest.mark.parametrize(
    "action_spec, mc_spec, message",
    [
        (PYRAMID_5, dict(ONE_ARC_5, pieces=[1]), "piece: expected an object"),
        (PYRAMID_5, dict(ONE_ARC_5, curves=[5]), "curve: expected an object"),
        (PYRAMID_5, _with_curve(sides=[1, 2]), "side: expected an object"),
        (PYRAMID_5, dict(ONE_ARC_5, pieces=3), "pieces must be a list"),
        (BAD_TABLE_ACTION, ONE_ARC_5, "table must be an order x order array"),
        (PYRAMID_5, _with_piece(cone_points="125"), "cone_points must be a list"),
        (PYRAMID_5, _with_piece(generators="x1"), "generators must be a list"),
        (
            PYRAMID_5,
            _with_piece(signature={"genus": 0.9, "boundary": 1, "cone_orders": [2, 2, 5]}),
            "signature: genus must be an integer, got 0.9",
        ),
        (PYRAMID_5, _with_piece(cone_points=[1.5, 2, 5]), "cone point must be an integer, got 1.5"),
        (PYRAMID_5, _with_curve(endpoints=["3", 4]), "endpoint must be an integer, got '3'"),
        (PYRAMID_5, _with_piece(id=1.7), "id must be an integer, got 1.7"),
        (
            PYRAMID_5,
            _with_curve(sides=[{"piece": "1", "attach": ""}, {"piece": 1, "attach": "x4"}]),
            "side: piece must be an integer, got '1'",
        ),
        (
            dict(PYRAMID_5, signature={"genus": 0, "cone_orders": [2, 2, 2, 2, 5.9]}),
            ONE_ARC_5,
            "cone order must be an integer, got 5.9",
        ),
        (
            dict(PYRAMID_5, group={"type": "dihedral", "n": True}),
            ONE_ARC_5,
            "dihedral parameter n must be an integer, got True",
        ),
        (FLOAT_ORDER_ACTION, ONE_ARC_5, "group: order must be an integer, got 10.0"),
        (BOOL_TABLE_ACTION, ONE_ARC_Z2, "group: table entry must be an integer, got False"),
        # Value checks that only the constructors make.
        (
            dict(PYRAMID_5, group={"type": "dihedral", "n": 0}),
            ONE_ARC_5,
            "error: group: dihedral group requires n >= 1",
        ),
        (
            dict(PYRAMID_5, group={"type": "dihedral", "n": -3}),
            ONE_ARC_5,
            "error: group: dihedral group requires n >= 1",
        ),
        (
            PYRAMID_5,
            _with_piece(signature={"genus": 0, "boundary": 0.5, "cone_orders": [2, 2, 5]}),
            "error: piece 1: signature: boundary count must be an integer, got 0.5",
        ),
        (
            dict(PYRAMID_5, signature={"genus": -1, "cone_orders": [2, 2, 2, 2, 5]}),
            ONE_ARC_5,
            "error: signature: genus must be non-negative",
        ),
        (
            dict(PYRAMID_5, signature={"genus": 0, "cone_orders": [2, 2, 2, 2, 1]}),
            ONE_ARC_5,
            "error: signature: cone orders must be at least 2, got 1",
        ),
        (
            PYRAMID_5,
            _with_curve(endpoints=[3.0, 4]),
            "error: curve 'g': endpoint must be an integer, got 3.0",
        ),
        (
            dict(PYRAMID_5, group={"type": "table", "order": 0, "table": []}),
            ONE_ARC_5,
            "error: group: multiplication table is empty",
        ),
        (
            dict(PYRAMID_5, images="s"),
            ONE_ARC_5,
            "error: action: images must be a list of element names",
        ),
        (
            PYRAMID_5,
            _with_curve(sides=[{"piece": 1, "attach": ""}]),
            "error: curve 'g': exactly two sides are required",
        ),
        (
            PYRAMID_5,
            _with_piece(signature={"genus": 0, "boundary": -1, "cone_orders": [2, 2, 5]}),
            "error: piece 1: signature: boundary count must be non-negative",
        ),
        (
            PYRAMID_5,
            _with_curve(endpoints=[3, 4, 5]),
            "error: curve 'g': exactly two endpoints are required\n",
        ),
        (
            PYRAMID_5,
            _with_curve(endpoints=[3]),
            "error: curve 'g': exactly two endpoints are required\n",
        ),
    ],
    ids=["piece-int", "curve-int", "side-int", "pieces-int", "table-row-int",
         "cone-points-str", "generators-str", "piece-genus-float", "cone-point-float",
         "endpoint-str", "piece-id-float", "side-piece-str", "cone-order-float",
         "dihedral-n-bool", "table-order-float", "table-entry-bool",
         "dihedral-n-zero", "dihedral-n-negative", "piece-boundary-float",
         "action-genus-negative", "cone-order-one", "endpoint-float",
         "table-empty", "images-str", "one-side", "piece-boundary-negative",
         "three-endpoints", "one-endpoint"],
)
def test_build_rejects_wrongly_typed_fields(tmp_path, action_spec, mc_spec, message):
    action = write(tmp_path, "action.json", action_spec)
    mc = write(tmp_path, "mc.json", mc_spec)
    code, out, err = run(["build", "--action", action, "--multicurve", mc])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert message in err


@pytest.mark.parametrize(
    "mc_spec, message",
    [
        (dict(ONE_ARC_5, pieces=ONE_ARC_5["pieces"] * 2), "piece ids are not distinct"),
        (dict(ONE_ARC_5, curves=ONE_ARC_5["curves"] * 2), "curve ids are not distinct"),
        (
            _with_curve(sides=[{"piece": 7, "attach": ""}, {"piece": 1, "attach": "x4"}]),
            "curve g: side references unknown piece 7",
        ),
        (_with_curve(endpoints=[3, 3]), "curve g: arc endpoints must be distinct"),
        (_with_curve(endpoints=[3, 9]), "curve g: unknown cone point 9"),
        (_with_piece(cone_points=[1, 2, 9]), "piece 1: unknown cone point 9"),
    ],
    ids=["piece-ids", "curve-ids", "unknown-piece", "endpoints-equal",
         "unknown-endpoint", "unknown-cone-point"],
)
def test_validate_reports_each_reference_violation(tmp_path, mc_spec, message):
    # Other violations follow from the same fault, so the message is one
    # line of several.
    action = write(tmp_path, "action.json", PYRAMID_5)
    mc = write(tmp_path, "mc.json", mc_spec)
    code, out, err = run(["validate", "--action", action, "--multicurve", mc])
    assert (code, out) == (2, "")
    assert message in err.splitlines()


# Cone orders of 4300 and 4299 digits, each within CPython's integer
# conversion limit, on the README's n = 5 action: their Euler
# characteristics sum to a fraction of about 8600 digits a side.
HUGE_ORDERS_MC = {
    "pieces": [
        {
            "id": 1,
            "signature": {"genus": 0, "boundary": 1, "cone_orders": [2, 2, 10**4299]},
            "cone_points": [1, 2],
            "generators": ["x1", "x2"],
        },
        {
            "id": 2,
            "signature": {"genus": 0, "boundary": 1, "cone_orders": [10**4299 - 1]},
            "cone_points": [5],
            "generators": ["x5"],
        },
    ],
    "curves": [
        {
            "id": "g",
            "kind": "closed",
            "gamma": "x3",
            "sides": [{"piece": 1, "attach": ""}, {"piece": 2, "attach": ""}],
        }
    ],
}


@pytest.mark.parametrize("command", ["validate", "build"])
def test_violations_show_a_huge_euler_characteristic_cut_short(tmp_path, command):
    action = write(tmp_path, "action.json", PYRAMID_5)
    mc = write(tmp_path, "mc.json", HUGE_ORDERS_MC)
    code, out, err = run([command, "--action", action, "--multicurve", mc])
    assert (code, out) == (2, "")
    assert "set_int_max_str_digits" not in err and "Traceback" not in err
    (line,) = [line for line in err.splitlines() if line.startswith("piece Euler")]
    assert line == (
        "piece Euler characteristics sum to -<integer of 8598 digits>/"
        "<integer of 8598 digits>, ambient orbifold has -4/5"
    )
    assert (
        "piece 2: signature cone orders [<integer of 4299 digits>] do not match "
        "the referenced cone points [5]"
    ) in err.splitlines()
    assert max(map(len, err.splitlines())) < 200


def test_build_rejects_non_integer_table_entry(tmp_path):
    spec = action_to_spec(action_from_spec(PYRAMID_5))
    spec["group"]["table"][2][3] += 0.5
    action = write(tmp_path, "action.json", spec)
    mc = write(tmp_path, "mc.json", ONE_ARC_5)
    code, out, err = run(["build", "--action", action, "--multicurve", mc])
    assert (code, out) == (1, "")
    assert err == "error: group: table entry must be an integer, got 0.5\n"


def test_build_rejects_a_word_past_the_letter_limit(tmp_path):
    # Expanded, the exponent would ask for about a billion letters.
    action = write(tmp_path, "action.json", PYRAMID_5)
    mc = write(tmp_path, "mc.json", _with_curve(gamma_b="x4^999999999"))
    start = time.perf_counter()
    code, out, err = run(["build", "--action", action, "--multicurve", mc])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "word token 'x4^999999999' exceeds the limit of 100000 letters" in err


def test_build_rejects_a_long_exponent_at_the_letter_limit(tmp_path):
    # 5000 digits: past CPython's int() digit limit, which must not be hit.
    action = write(tmp_path, "action.json", PYRAMID_5)
    mc = write(tmp_path, "mc.json", _with_curve(gamma_b="x4^" + "9" * 5000))
    code, out, err = run(["build", "--action", action, "--multicurve", mc])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "exceeds the limit of 100000 letters" in err
    assert "digits" not in err
    assert len(err) < 200


def test_validate_refuses_a_generator_number_past_the_signature(tmp_path):
    # A number of 5000 digits is past CPython's integer conversion limit.
    mc = json.loads(json.dumps(ONE_ARC_5))
    mc["pieces"][0]["generators"][2] = "x" + "1" * 5000
    action = write(tmp_path, "action.json", PYRAMID_5)
    path = write(tmp_path, "mc.json", mc)
    code, out, err = run(["validate", "--action", action, "--multicurve", path])
    assert (code, out) == (1, "")
    assert err == (
        "error: piece 1: generator: generator "
        f"'x{'1' * 39}'... (5001 characters) exceeds the 5 cone generators\n"
    )


# 4300 digits: JSON reads it, and str() still could.
HUGE = int("9" * 4300)
HUGE_SHOWN = "<integer of 4300 digits>"


def _with_group(**fields):
    return {**PYRAMID_5, "group": {**PYRAMID_5["group"], **fields}}


@pytest.mark.parametrize(
    "action_spec, mc_spec, message",
    [
        (
            PYRAMID_5,
            _with_piece(id=HUGE, generators=["x1", "x2", "x9"]),
            f"piece {HUGE_SHOWN}: generator: generator 'x9' exceeds the 5 cone generators",
        ),
        (PYRAMID_5, _with_curve(id=HUGE, kind=HUGE), f"curve {HUGE_SHOWN}: unknown kind {HUGE_SHOWN}"),
        (PYRAMID_5, _with_piece(generators=HUGE), f"piece 1: generators must be a list, got {HUGE_SHOWN}"),
        (PYRAMID_5, _with_curve(gamma_a=HUGE), f"curve 'g': expected a word string, got {HUGE_SHOWN}"),
        (_with_group(type=HUGE), ONE_ARC_5, f"group: unknown type {HUGE_SHOWN}"),
        (
            {**PYRAMID_5, "images": ["s", HUGE, "r s", "r s", "r"]},
            ONE_ARC_5,
            f"action: image {HUGE_SHOWN} is not an element name",
        ),
    ],
    ids=["piece-id", "curve-id-and-kind", "list", "word", "group-type", "image"],
)
def test_file_values_of_4300_digits_are_shown_cut_short(tmp_path, action_spec, mc_spec, message):
    action = write(tmp_path, "action.json", action_spec)
    mc = write(tmp_path, "mc.json", mc_spec)
    code, out, err = run(["validate", "--action", action, "--multicurve", mc])
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert len(err) <= 200


@pytest.mark.parametrize(
    "curve_id, shown",
    [(None, "None"), (True, "True"), (3, "3"), ([], "[]"), ({}, "{}")],
    ids=["null", "true", "number", "list", "object"],
)
def test_a_curve_id_that_is_not_a_string_is_refused(tmp_path, curve_id, shown):
    action = write(tmp_path, "action.json", PYRAMID_5)
    mc = write(tmp_path, "mc.json", _with_curve(id=curve_id))
    for command in ("validate", "build"):
        code, out, err = run([command, "--action", action, "--multicurve", mc])
        assert (code, out) == (1, "")
        assert err == f"error: curve {shown}: id must be a string, got {shown}\n"


@functools.cache
def _valid_pyramid_6_files():
    """(action spec, multicurve spec) for every n = 6 job, with the action in
    table and in dihedral encoding."""
    fam = pyramid_action(6)
    table = action_to_spec(fam.action)
    dihedral = dict(table, group={"type": "dihedral", "n": 6})
    multicurves = [
        multicurve_to_spec(make_multicurve(fam, params), fam.action.signature)
        for params, _ in enumerate_parameters(6, include_unproven=True)
    ]
    return [(action, mc) for action in (table, dihedral) for mc in multicurves]


def _mutation_sites(node, path=()):
    """("replace", path) for every leaf and ("delete", path) for every key."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield ("delete", path + (key,))
            yield from _mutation_sites(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _mutation_sites(value, path + (i,))
    else:
        yield ("replace", path)


# Integers stay small: a well-formed file may ask for a dihedral group of
# order 2n, and its table has (2n)^2 entries.
_LEAF_VALUES = st.one_of(
    st.integers(min_value=-1, max_value=40),
    st.floats(min_value=-50, max_value=50),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.sampled_from(["s", "r s", "x1", "x1^-1", "3"]),
    st.just([]),
    st.just({}),
)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_mutated_files_exit_cleanly(tmp_path, data):
    files = json.loads(json.dumps(data.draw(st.sampled_from(_valid_pyramid_6_files()))))
    which = data.draw(st.sampled_from([0, 1]))
    kind, path = data.draw(st.sampled_from(list(_mutation_sites(files[which]))))
    parent = files[which]
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_LEAF_VALUES)
    action = write(tmp_path, "action.json", files[0])
    mc = write(tmp_path, "mc.json", files[1])
    for argv in (["build", "--format", "json"], ["validate"]):
        code, _, err = run(argv + ["--action", action, "--multicurve", mc])
        assert code in (0, 1, 2, 3)
        if code == 1:
            assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_build_audit_failure_exit_code(tmp_path):
    # A corrupted attachment word on a two-piece family trips the internal
    # degree audit, which cannot be disabled.
    fam = pyramid_action(6)
    mc = make_multicurve(fam, PyramidMulticurveParams("two-arcs", "even", 1))
    payload = multicurve_to_spec(mc, fam.action.signature)
    payload["curves"][0]["sides"][1]["attach"] = "x5"
    action = write(
        tmp_path,
        "action.json",
        {
            "group": {"type": "dihedral", "n": 6},
            "signature": {"genus": 0, "cone_orders": [2, 2, 2, 2, 6]},
            "images": ["s", "r s", "r s", "r s", "r"],
        },
    )
    mc_path = write(tmp_path, "mc.json", payload)
    code, _, err = run(["build", "--action", action, "--multicurve", mc_path, "--no-audit"])
    assert code == 3
    assert "attachment gives degree" in err


def planted_two_arcs_6(tmp_path, monkeypatch):
    """The argv of a ``build`` whose action, returned by a patched
    ``cli.load_action``, holds the whole group as curve g1's image
    subgroup: the build's own audits pass it and ``audit_graph`` fails it."""
    fam = pyramid_action(6)
    mc = make_multicurve(fam, PyramidMulticurveParams("two-arcs", "odd", 1))
    action = orbifolds.SurfaceKernelAction(
        fam.action.group, fam.action.signature, fam.action.images
    )
    key = frozenset(orbifolds.evaluate_word(action, w) for w in mc.curves[0].words)
    action._image_subgroups[key] = closure(action.group, range(action.group.order))
    monkeypatch.setattr(cli, "load_action", lambda path: action)
    mc_path = write(tmp_path, "mc.json", multicurve_to_spec(mc, action.signature))
    return ["build", "--action", "unread.json", "--multicurve", mc_path]


FAILED_EDGES = (
    "[FAIL] edges over curve g1: expected 3, got 1, "
    "but the printed subgroup is not the generated one"
)


@pytest.mark.parametrize(
    "fmt, shows",
    [
        ("text", lambda out: FAILED_EDGES in out.splitlines()),
        ("json", lambda out: json.loads(out)["audit"]["ok"] is False),
        ("dot", lambda out: f"// {FAILED_EDGES}" in out.splitlines()),
    ],
)
def test_build_exits_3_when_the_oracle_audit_fails(tmp_path, monkeypatch, fmt, shows):
    code, out, err = run(planted_two_arcs_6(tmp_path, monkeypatch) + ["--format", fmt])
    assert (code, err) == (3, "")
    assert shows(out)


def _plant_in_underlying(graph, plant):
    """``graph`` with its underlying graph replaced by a planted one.  The
    build of ``one-closed left`` at n = 6 has vertices 1 (weight 0), 2 and
    3 (weight 1), three edges 1-2 and three edges 1-3."""
    underlying = graph.underlying
    vertices, edges = list(underlying.vertices), list(underlying.edges)
    assert vertices == [(1, 0), (2, 1), (3, 1)] and edges[-1] == (1, 3)
    if plant == "moved-edge-end":
        # The degree sum, the genus and stability are unchanged.
        edges[-1] = (2, 3)
    elif plant == "changed-weight":
        vertices[0] = (1, 1)
    else:
        # One unit of weight moved from leaf 3 to leaf 2: the weight sum,
        # the degrees and stability are unchanged.
        vertices[1:] = [(2, 2), (3, 0)]
    graph.underlying = StableGraph(vertices, edges)
    return graph


NOT_THE_IMAGE = (
    "[FAIL] handshake (degree sum): expected 12, got 12, "
    "from an underlying graph that is not the labels' image"
)


def _not_its_piece(parts_chi):
    return (
        f"[FAIL] Euler characteristic balance: expected -10, got {parts_chi}, "
        "but a part is not its piece's times its sheet count"
    )


# The audit lines each plant fails.
PLANTED_FAILURES = {
    "moved-edge-end": [NOT_THE_IMAGE, _not_its_piece(-10)],
    "changed-weight": ["[FAIL] genus conservation: expected 6, got 7", _not_its_piece(-12)],
    "moved-weight": [_not_its_piece(-10)],
}


@pytest.mark.parametrize("plant", PLANTED_FAILURES)
def test_underlying_graph_is_audited_against_the_labels(monkeypatch, plant):
    failed = PLANTED_FAILURES[plant]
    argv = ["pyramid", "build", "--n", "6", "--family", "one-closed", "--variant", "left"]
    argv += ["--param", "1"]
    code, clean, _ = run(argv)
    assert code == 0
    assert "[PASS] handshake (degree sum): expected 12, got 12" in clean.splitlines()
    assert "[PASS] Euler characteristic balance: expected -10, got -10" in clean.splitlines()

    fam = pyramid_action(6)
    mc = make_multicurve(fam, PyramidMulticurveParams("one-closed", "left", 1))
    report = audit_graph(_plant_in_underlying(build_stratum_graph(fam.action, mc), plant))
    assert [c.to_line() for c in report.checks if not c.passed] == failed

    build = cli.build_stratum_graph
    monkeypatch.setattr(
        cli, "build_stratum_graph", lambda *args: _plant_in_underlying(build(*args), plant)
    )
    code, out, err = run(argv)
    assert (code, err) == (3, "")
    assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == failed


@pytest.mark.parametrize("command", ["validate", "build"])
def test_a_multicurve_with_no_pieces_is_a_validation_error(tmp_path, command):
    # The torus covered by the one-element group, cut into no pieces.
    torus = {
        "group": {"type": "table", "order": 1, "table": [[0]], "names": ["e"]},
        "signature": {"genus": 1, "cone_orders": []},
        "images": ["e", "e"],
    }
    action = write(tmp_path, "torus.json", torus)
    mc = write(tmp_path, "no-pieces.json", {"pieces": []})
    code, out, err = run([command, "--action", action, "--multicurve", mc])
    assert (code, out, err) == (2, "", "multicurve has no pieces\n")


def _pyramid_build_with(monkeypatch, argv, plant):
    """``pyramid build`` with ``argv``, its graph passed through ``plant``."""
    build = cli.build_stratum_graph
    monkeypatch.setattr(cli, "build_stratum_graph", lambda *args: plant(*args, build))
    return run(["pyramid", "build", "--n", "6", *argv])


def test_a_printed_conjugate_subgroup_fails_the_audit(monkeypatch):
    # A conjugate of curve g's image subgroup, held in the action's record,
    # builds the same labels and prints another subgroup.
    argv = ["--family", "one-arc", "--variant", "bottom-left", "--param", "2"]
    code, clean, _ = run(["pyramid", "build", "--n", "6", *argv])
    assert code == 0
    assert "curve g: image subgroup of order 2 = {e, r s}" in clean.splitlines()

    def plant(action, mc, build):
        action = orbifolds.SurfaceKernelAction(action.group, action.signature, action.images)
        key = frozenset(orbifolds.evaluate_word(action, w) for w in mc.curves[0].words)
        conjugate = closure(action.group, [action.group.names.index("r^3 s")])
        action._image_subgroups[key] = conjugate
        return build(action, mc)

    code, out, err = _pyramid_build_with(monkeypatch, argv, plant)
    assert (code, err) == (3, "")
    lines = out.splitlines()
    assert "curve g: image subgroup of order 2 = {e, r^3 s}" in lines
    assert [line for line in lines if line.startswith("V ") or line.startswith("E ")] == [
        line for line in clean.splitlines() if line.startswith("V ") or line.startswith("E ")
    ]
    failed = [line for line in lines if line.startswith("[FAIL]")]
    assert failed == [
        "[FAIL] edges over curve g: expected 6, got 6, "
        "but the printed subgroup is not the generated one"
    ]


def _plant_extra_keys(graph):
    """``graph``, the n = 6 ``one-arc direct`` build, with one more vertex
    key and one more edge key, neither a class minimum: piece 1's subgroup
    is the whole group, and curve g's is {e, r s}.  The new vertex key
    takes the number of vertex (1, e)."""
    assert list(graph.vertices) == [(1, 0)]
    names = graph.action.group.names
    extra_vertex, extra_edge = (1, names.index("r^5")), ("g", names.index("r s"))
    assert extra_edge not in graph.edges
    graph.vertices[extra_vertex] = graph.vertices[(1, 0)]
    graph.edges[extra_edge] = ((1, 0), (1, 0))
    return graph


def test_extra_keys_fail_the_vertex_and_edge_counts(monkeypatch):
    fam = pyramid_action(6)
    mc = make_multicurve(fam, PyramidMulticurveParams("one-arc", "direct"))
    report = audit_graph(_plant_extra_keys(build_stratum_graph(fam.action, mc)))
    lines = report.to_text().splitlines()
    assert lines[:3] == [
        "[FAIL] vertices over piece 1: expected 1, got 2, but a key is not a class minimum",
        "[FAIL] edges over curve g: expected 6, got 7, but a key is not a class minimum",
        "[FAIL] handshake (degree sum): expected 12, got 12, "
        "from an underlying graph that is not the labels' image",
    ]
    assert all(line.startswith("[PASS]") for line in lines[3:])

    argv = ["--family", "one-arc", "--variant", "direct"]
    code, out, err = _pyramid_build_with(
        monkeypatch, argv, lambda action, mc, build: _plant_extra_keys(build(action, mc))
    )
    assert (code, err) == (3, "")
    assert out.splitlines()[-6:] == lines


@pytest.mark.parametrize("stray", ["vertex", "edge"])
def test_a_key_over_an_id_the_multicurve_lacks_fails_the_handshake(monkeypatch, stray):
    # No piece 99 and no curve zz: no vertices or edges line counts the
    # key, and the handshake line sees numbers or edges that `underlying`
    # does not have.
    def plant(graph):
        assert list(graph.vertices) == [(1, 0)]
        if stray == "vertex":
            graph.vertices[(99, 0)] = 2
        else:
            graph.edges[("zz", 0)] = ((1, 0), (1, 0))
        return graph

    fam = pyramid_action(6)
    mc = make_multicurve(fam, PyramidMulticurveParams("one-arc", "direct"))
    report = audit_graph(plant(build_stratum_graph(fam.action, mc)))
    lines = report.to_text().splitlines()
    assert [line for line in lines if line.startswith("[FAIL]")] == [NOT_THE_IMAGE]

    argv = ["--family", "one-arc", "--variant", "direct"]
    code, out, err = _pyramid_build_with(
        monkeypatch, argv, lambda action, mc, build: plant(build(action, mc))
    )
    assert (code, err) == (3, "")
    assert out.splitlines()[-len(lines):] == lines


def test_build_unstable_graph_is_an_audit_failure(tmp_path):
    # D1 over (0; 2, 2), left uncut: it validates, and its limit graph is
    # one vertex of weight 0 with no edges.
    action = write(
        tmp_path,
        "action.json",
        {
            "group": {"type": "dihedral", "n": 1},
            "signature": {"genus": 0, "cone_orders": [2, 2]},
            "images": ["s", "s"],
        },
    )
    piece = {
        "id": 1,
        "signature": {"genus": 0, "boundary": 0, "cone_orders": [2, 2]},
        "cone_points": [1, 2],
        "generators": ["x1"],
    }
    mc = write(tmp_path, "mc.json", {"pieces": [piece], "curves": []})
    code, out, err = run(["build", "--action", action, "--multicurve", mc])
    assert (code, out) == (3, "")
    assert err == "audit failure: underlying graph is not stable\n"


def test_build_deterministic(tmp_path):
    action = write(tmp_path, "action.json", PYRAMID_5)
    mc = write(tmp_path, "mc.json", ONE_ARC_5)
    argv = ["build", "--action", action, "--multicurve", mc, "--format", "json"]
    assert run(argv) == run(argv)


def test_pyramid_classify_n3(tmp_path):
    code, out, _ = run(["pyramid", "classify", "--n", "3"])
    assert code == 0
    assert out.startswith("n=3: 9 distinct stable graphs\n")


def test_pyramid_classify_n4_json():
    code, out, _ = run(["pyramid", "classify", "--n", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == 14
    assert all(c["genus"] == 4 for c in payload["classes"])


def test_pyramid_classify_deterministic():
    first = run(["pyramid", "classify", "--n", "5"])
    second = run(["pyramid", "classify", "--n", "5"])
    assert first == second


def test_pyramid_build_reports_image_subgroup():
    code, out, _ = run(
        [
            "pyramid", "build", "--n", "5",
            "--family", "one-arc", "--variant", "bottom-left", "--param", "0",
        ]
    )
    assert code == 0
    # Image subgroup generated by r s and r^2 in the dihedral group of
    # order 10: the full rotation-by-r^2 dihedral subgroup.
    assert "curve g: image subgroup of order 4" not in out
    assert any(
        line.startswith("curve g: image subgroup of order 10")
        for line in out.splitlines()
    )


def test_pyramid_build_smaller_subgroup():
    code, out, _ = run(
        [
            "pyramid", "build", "--n", "8",
            "--family", "one-arc", "--variant", "bottom-left", "--param", "0",
        ]
    )
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("curve g:"))
    assert "order 8" in line
    assert "r^2" in line and "r s" in line


def test_pyramid_build_unknown_variant():
    code, _, err = run(
        ["pyramid", "build", "--n", "5", "--family", "one-arc", "--variant", "sideways"]
    )
    assert code == 1
    assert "unknown variant" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--family", "one-arc", "--cycle-length", "3"],
            "cycle_length applies only to the arc-plus-closed general variant, "
            "not to one-arc/direct",
        ),
        (
            ["--family", "arc-plus-closed", "--variant", "paired", "--param", "1",
             "--cycle-length", "2"],
            "cycle_length applies only to the arc-plus-closed general variant, "
            "not to arc-plus-closed/paired",
        ),
        (
            ["--family", "arc-plus-closed", "--variant", "general", "--param", "6"],
            "the general variant needs cycle_length",
        ),
    ],
    ids=["one-arc-with-length", "paired-with-length", "general-without-length"],
)
def test_pyramid_build_cycle_length_only_for_general(argv, message):
    code, out, err = run(["pyramid", "build", "--n", "6", *argv])
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["pyramid", "build", "--n", "5", "--family", "one-arc", "--variant", "bottom-left",
             "--param", "-1"],
            "winding parameter must be non-negative",
        ),
        (
            ["dim", "--signature", "0;2,2,2,2,5", "--pinched", "-1"],
            "pinched curve count must be non-negative",
        ),
    ],
    ids=["winding", "pinched"],
)
def test_negative_counts_exit_1(argv, message):
    assert run(argv) == (1, "", f"error: {message}\n")


def test_pyramid_build_refuses_a_winding_the_variant_ignores():
    code, out, err = run(
        ["pyramid", "build", "--n", "12", "--family", "one-arc", "--variant", "direct",
         "--param", "7"]
    )
    assert (code, out) == (1, "")
    assert err == "error: one-arc/direct does not wind: its winding must be 0, got 7\n"


def _bottom_left_5(winding: int):
    return run(
        [
            "pyramid", "build", "--n", "5", "--family", "one-arc",
            "--variant", "bottom-left", "--param", str(winding),
        ]
    )


def test_pyramid_build_winds_up_to_the_letter_limit():
    # bottom-left's longest word, its second boundary loop, has 4k + 3
    # letters: 99 999 at k = 24 999.
    code, out, err = _bottom_left_5(24_999)
    assert (code, err) == (0, "")
    assert out.startswith("n=5 one-arc/bottom-left winding=24999\n")


def test_pyramid_build_refuses_a_winding_past_the_letter_limit():
    # Just past the limit first: were it not checked, 10**9 would ask for
    # four billion letters.
    for winding, letters in ((25_000, 100_003), (10**9, 4 * 10**9 + 3)):
        start = time.perf_counter()
        code, out, err = _bottom_left_5(winding)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == (
            f"error: winding {winding} gives a word of {letters} letters, "
            "over the limit of 100000 letters\n"
        )


def _top_left_5(winding: int):
    return run(
        [
            "pyramid", "build", "--n", "5", "--family", "arc-plus-closed",
            "--variant", "top-left", "--param", str(winding), "--format", "json",
        ]
    )


def test_arc_plus_closed_joins_words_up_to_the_letter_limit():
    # The closed curve's gamma, the longest word of top-left, has 4k + 5
    # letters: 99 997 at k = 24 998.
    fam = pyramid_action(5)
    mc = make_multicurve(fam, PyramidMulticurveParams("arc-plus-closed", "top-left", 24_998))
    words = [w for piece in mc.pieces for w in piece.generators]
    words += [w for c in mc.curves for w in (c.gamma_a, c.gamma_b, c.gamma) if w is not None]
    assert max(map(len, words)) == 99_997
    payload = multicurve_to_spec(mc, fam.action.signature)
    assert multicurve_from_spec(payload, fam.action) == mc
    code, out, err = _top_left_5(24_998)
    assert (code, err) == (0, "")
    assert json.loads(out)["audit"]["ok"] is True


def test_arc_plus_closed_refuses_a_joined_word_past_the_letter_limit():
    # At k = 24 999 the arc's two gammas join to exactly 100 000 letters,
    # and the closed curve's gamma would have 100 001.
    code, out, err = _top_left_5(24_999)
    assert (code, out) == (1, "")
    assert err == (
        "error: joining two words gives 100001 letters, over the limit of 100000 letters\n"
    )


def test_build_refuses_a_dihedral_group_past_the_order_limit(tmp_path):
    # Built, the table would hold 4 * 10**18 entries.
    spec = dict(PYRAMID_5, group={"type": "dihedral", "n": 10**9})
    action = write(tmp_path, "action.json", spec)
    mc = write(tmp_path, "mc.json", ONE_ARC_5)
    start = time.perf_counter()
    code, out, err = run(["build", "--action", action, "--multicurve", mc])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == (
        "error: group: dihedral group of order 2000000000 is over the limit of 4096 elements\n"
    )


def test_pyramid_classify_refuses_a_group_past_the_order_limit():
    for n, order in ((10**9, 2000000000), (2049, 4098)):
        start = time.perf_counter()
        code, out, err = run(["pyramid", "classify", "--n", str(n)])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == f"error: dihedral group of order {order} is over the limit of 4096 elements\n"


def test_pyramid_classify_deeper_than_the_recursion_limit_matches(recursion_headroom):
    # Canonicalizing the paired graph at n = 300 searches about 150 levels.
    with recursion_headroom(100):
        code, out, err = run(["pyramid", "classify", "--n", "300"])
    assert (code, err) == (0, "")
    assert out == run(["pyramid", "classify", "--n", "300"])[1]


def test_pyramid_build_general_variant():
    code, out, _ = run(
        [
            "pyramid", "build", "--n", "12", "--family", "arc-plus-closed",
            "--variant", "general", "--param", "12", "--cycle-length", "3",
            "--format", "json",
        ]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["graph"]["vertex_count"] == 13
    assert payload["audit"]["ok"] is True


def test_dim_command():
    assert run(["dim", "--signature", "0;2,2,2,2,5", "--pinched", "0"]) == (0, "2\n", "")
    assert run(["dim", "--signature", "(0;2,2,2,2,5)", "--pinched", "1"])[1] == "1\n"
    code, out, _ = run(["dim", "--signature", "0;2,2,2,2,5", "--pinched", "6"])
    assert code == 0
    assert out == "no such stratum\n"
    assert run(["dim", "--signature", "0;2,x", "--pinched", "1"]) == (
        1, "", "error: bad signature '0;2,x': invalid literal for int() with base 10: 'x'\n"
    )
    # An empty cone entry is refused, not dropped; a blank cone part is none.
    for signature in ("0;2,,3", "0;2,3,", "0;,2"):
        assert run(["dim", "--signature", signature, "--pinched", "0"]) == (
            1,
            "",
            f"error: bad signature '{signature}': "
            "invalid literal for int() with base 10: ''\n",
        )
    for signature in ("0", "0;"):
        assert run(["dim", "--signature", signature, "--pinched", "0"]) == (
            0, "no such stratum\n", ""
        )


@pytest.mark.parametrize(
    "signature, shown",
    [
        ("0;2,2," + "9" * 5000, "'0;2,2," + "9" * 34 + "'... (5006 characters)"),
        ("9" * 5000 + ";2,2,2,2,5", "'" + "9" * 40 + "'... (5010 characters)"),
    ],
    ids=["cone-order", "genus"],
)
def test_dim_refuses_a_signature_integer_past_the_digit_limit(signature, shown):
    code, out, err = run(["dim", "--signature", signature, "--pinched", "1"])
    assert (code, out) == (1, "")
    assert err == (
        f"error: bad signature {shown}: integer of 5000 digits is over the limit of 4300\n"
    )
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("command", ["validate", "build"])
def test_an_action_genus_of_4300_digits_is_refused_in_one_short_line(tmp_path, command):
    # 4300 nines parse; the generator count they give has 4301 digits.
    signature = {"genus": int("9" * 4300), "cone_orders": [2, 2, 2, 2, 5]}
    action = write(tmp_path, "action.json", {**PYRAMID_5, "signature": signature})
    mc = write(tmp_path, "mc.json", ONE_ARC_5)
    assert run([command, "--action", action, "--multicurve", mc]) == (
        1, "", "error: action: expected <integer of 4301 digits> generator images, got 5\n"
    )


def test_dim_refuses_a_result_past_the_digit_limit():
    assert run(["dim", "--signature", "9" * 4300 + ";", "--pinched", "0"]) == (
        1, "", "error: dimension <integer of 4301 digits> is over the limit of 4300 digits\n"
    )
    # A dimension of 4300 digits still prints in full.
    assert run(["dim", "--signature", "3" * 4300 + ";", "--pinched", "0"]) == (
        0, "9" * 4299 + "6\n", ""
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["pyramid", "classify", "--n"],
        ["pyramid", "build", "--family", "one-arc", "--n"],
        ["pyramid", "build", "--n", "5", "--family", "one-arc", "--param"],
        ["pyramid", "build", "--n", "5", "--family", "arc-plus-closed", "--cycle-length"],
        ["dim", "--signature", "0;2,2,2,2,5", "--pinched"],
    ],
    ids=["classify-n", "build-n", "param", "cycle-length", "pinched"],
)
def test_integer_options_refuse_a_long_value_in_one_short_line(argv):
    code, out, err = run([*argv, "9" * 5000])
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert len(err.rstrip("\n")) <= 200
    assert "Traceback" not in err
    assert err.endswith(
        "'... (5000 characters): integer of 5000 digits is over the limit of 4300\n"
    )


@pytest.mark.parametrize("digits", [4000, 4300])
@pytest.mark.parametrize(
    "argv",
    [
        ["pyramid", "classify", "--n"],
        ["pyramid", "build", "--family", "one-arc", "--n"],
        ["pyramid", "build", "--n", "5", "--family", "one-arc", "--variant", "direct", "--param"],
        ["pyramid", "build", "--n", "5", "--family", "one-arc", "--variant", "bottom-left",
         "--param"],
        ["pyramid", "build", "--n", "5", "--family", "two-arcs", "--param"],
        ["pyramid", "build", "--n", "5", "--family", "one-closed", "--param"],
        ["pyramid", "build", "--n", "5", "--family", "arc-plus-closed", "--param"],
        ["pyramid", "build", "--n", "5", "--family", "arc-plus-closed", "--variant", "general",
         "--cycle-length", "1", "--param"],
        ["pyramid", "build", "--n", "5", "--family", "arc-plus-closed", "--variant", "general",
         "--param", "5", "--cycle-length"],
    ],
    ids=[
        "classify-n", "build-n", "unwound-param", "one-arc-param", "two-arcs-param",
        "one-closed-param", "arc-plus-closed-param", "general-param", "cycle-length",
    ],
)
def test_library_refusals_show_a_long_value_in_one_short_line(argv, digits):
    # Under the digit limit the option parses, and the library's own
    # refusal must not print the value, or a number derived from it, in full.
    code, out, err = run([*argv, "9" * digits])
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert len(err.rstrip("\n")) <= 200
    assert "set_int_max_str_digits" not in err
    assert "Traceback" not in err
    assert f"<integer of {digits} digits>" in err or f"<integer of {digits + 1} digits>" in err


def test_integer_options_keep_the_short_refusal():
    assert run(["pyramid", "classify", "--n", "12abc"]) == (
        1, "", "error: argument --n: invalid int value: '12abc'\n"
    )
    assert run(["dim", "--signature", "0;2,2,2,2,5", "--pinched", "x"]) == (
        1, "", "error: argument --pinched: invalid int value: 'x'\n"
    )


def test_dim_and_json_digits_without_get_int_max_str_digits(tmp_path, monkeypatch):
    # CPython 3.10.0-3.10.6 have no sys.get_int_max_str_digits, and no limit.
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert run(["dim", "--signature", "0;2,2,2,2,5", "--pinched", "1"]) == (0, "1\n", "")
    bad = tmp_path / "digits.json"
    bad.write_text('{"group": ' + "9" * 5000 + "}", encoding="utf-8")
    code, out, err = run(["validate", "--action", str(bad)])
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith(f"error: {bad}: ")
    assert "Traceback" not in err


def _module_env():
    """The environment for running ``python -m strata_limits.cli`` on the
    package under test."""
    src = str(Path(strata_limits.__file__).resolve().parent.parent)
    path = [src, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def test_module_entry_point_exits_with_the_command_status():
    # `python -m strata_limits.cli` runs cli.entry, which passes main's
    # return value to sys.exit.
    command = [sys.executable, "-m", "strata_limits.cli", "dim"]
    ok = subprocess.run(
        command + ["--signature", "0;2,2,2,2,5", "--pinched", "1"],
        capture_output=True, text=True, env=_module_env(), timeout=60,
    )
    assert (ok.returncode, ok.stdout, ok.stderr) == (0, "1\n", "")
    bad = subprocess.run(
        command + ["--signature", "0;2,x", "--pinched", "1"],
        capture_output=True, text=True, env=_module_env(), timeout=60,
    )
    assert bad.returncode == 1 and bad.stdout == ""
    assert len(bad.stderr.splitlines()) == 1 and bad.stderr.startswith("error:")


def test_a_closed_pipe_exits_1_without_a_traceback():
    # The output is about 164 kB, more than a pipe holds, so the command
    # is still writing when the reader closes its end, and exit status 1
    # shows that a write failed.
    command = [sys.executable, "-m", "strata_limits.cli", "pyramid", "classify"]
    with subprocess.Popen(
        command + ["--n", "96", "--include-unproven"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env(),
    ) as proc:
        assert proc.stdout.readline() == b"n=96: 100 distinct stable graphs\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert stderr == b""


def test_usage_error_exit_code():
    code, _, err = run(["build", "--action"])
    assert code == 1
    code, _, err = run(["frobnicate"])
    assert code == 1


# sha256 of the stdout of `pyramid classify --n N`, in text and in JSON, for
# n = 3..40 and 96, and of `build --format json` on table- and
# dihedral-encoded exports of every classify job, unproven cycle lengths
# included, for n = 5, 6 and 12.  Recorded before the build was tuned, so a
# speed-up that changes one byte of output fails here.
STDOUT_DIGEST = "a284fb59313a528a7d2a7569479152d9b7352fe4900b24f48e21be70ed234278"


def test_stdout_matches_the_committed_digest(tmp_path):
    digest = hashlib.sha256()
    for n in [*range(3, 41), 96]:
        for fmt in ("text", "json"):
            code, out, _ = run(["pyramid", "classify", "--n", str(n), "--format", fmt])
            assert code == 0
            digest.update(out.encode())
    builds = 0
    for n in (5, 6, 12):
        family = pyramid_action(n)
        table_spec = action_to_spec(family.action)
        dihedral_spec = dict(table_spec, group={"type": "dihedral", "n": n})
        encodings = [
            write(tmp_path, f"action-{n}-table.json", table_spec),
            write(tmp_path, f"action-{n}-dihedral.json", dihedral_spec),
        ]
        for params, _ in enumerate_parameters(n, include_unproven=True):
            mc_spec = multicurve_to_spec(make_multicurve(family, params), family.action.signature)
            mc = write(tmp_path, "mc.json", mc_spec)
            for action in encodings:
                code, out, _ = run(
                    ["build", "--action", action, "--multicurve", mc, "--format", "json"]
                )
                assert code == 0
                digest.update(out.encode())
                builds += 1
    assert builds == 2 * sum(len(enumerate_parameters(n, True)) for n in (5, 6, 12))
    assert digest.hexdigest() == STDOUT_DIGEST


# sha256 of the stdout of `build` in text, DOT, and JSON without the audit,
# on the table-encoded export of every classify job, unproven cycle lengths
# included, for n = 5, 6 and 12, and of `pyramid build` on the same jobs in
# all three formats: the output formats that STDOUT_DIGEST does not see.
BUILD_FORMATS_DIGEST = "b15dffbede7e6b25b1894097a46d11e70bf7cf4dec6fd1d06a180e7c2e70604b"


def _pyramid_build_argv(n, params):
    argv = ["pyramid", "build", "--n", str(n), "--family", params.family,
            "--variant", params.variant, "--param", str(params.winding)]
    if params.cycle_length is not None:
        argv += ["--cycle-length", str(params.cycle_length)]
    return argv


def test_build_formats_match_the_committed_digest(tmp_path):
    digest = hashlib.sha256()
    for n in (5, 6, 12):
        family = pyramid_action(n)
        action = write(tmp_path, f"action-{n}.json", action_to_spec(family.action))
        for params, _ in enumerate_parameters(n, include_unproven=True):
            mc_spec = multicurve_to_spec(make_multicurve(family, params), family.action.signature)
            files = ["build", "--action", action,
                     "--multicurve", write(tmp_path, "mc.json", mc_spec)]
            runs = [files + ["--format", "text"], files + ["--format", "dot"],
                    files + ["--format", "json", "--no-audit"]]
            runs += [_pyramid_build_argv(n, params) + ["--format", fmt]
                     for fmt in ("text", "dot", "json")]
            for argv in runs:
                code, out, _ = run(argv)
                assert code == 0, argv
                digest.update(out.encode())
    assert digest.hexdigest() == BUILD_FORMATS_DIGEST
