"""JSON wire formats for groups, actions and multicurves.

Action file::

    {"group": {"type": "dihedral", "n": 5},
     "signature": {"genus": 0, "cone_orders": [2, 2, 2, 2, 5]},
     "images": ["s", "r s", "r s", "r s", "r"]}

A group may also be given as an explicit table:
``{"type": "table", "order": 4, "table": [[...], ...], "names": [...]}``
with 0-based indices and row-major products.  Image names are resolved
against the group's name table.

Multicurve file::

    {"pieces": [{"id": 1,
                 "signature": {"genus": 0, "boundary": 1, "cone_orders": [2, 2, 5]},
                 "cone_points": [1, 2, 5],
                 "generators": ["x1", "x2", "x5"]}],
     "curves": [{"id": "g", "kind": "arc", "endpoints": [3, 4],
                 "gamma_a": "x3", "gamma_b": "x4",
                 "sides": [{"piece": 1, "attach": ""},
                           {"piece": 1, "attach": "x4"}]}]}

Closed curves carry a single ``gamma`` word instead of ``endpoints`` /
``gamma_a`` / ``gamma_b``.  Words use whitespace-separated tokens such as
``x3``, ``x3^-1``, ``a1``, ``b2^-1``.

The loaders check JSON shape only: objects, lists, strings (a curve id
must be one), missing fields, the two ``sides`` of a curve, the two
``endpoints`` of an arc and a table's ``order x order`` shape.  The
constructors check the values, the one integer rule included.  Each error
is a :class:`SpecFormatError` prefixed with its place in the file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from . import groups
from .groups import GroupTable, _shown, dihedral
from .multicurves import ARC, CLOSED, CurveSide, CurveSpec, MulticurveSpec, PieceSpec
from .orbifolds import OrbifoldSignature, SurfaceKernelAction, Word

__all__ = [
    "SpecFormatError",
    "group_from_spec",
    "signature_from_spec",
    "action_from_spec",
    "multicurve_from_spec",
    "load_action",
    "load_multicurve",
    "action_to_spec",
    "multicurve_to_spec",
]


class SpecFormatError(ValueError):
    """An input file does not follow the documented schema."""


def _need(obj: dict, key: str, context: str):
    if key not in obj:
        raise SpecFormatError(f"{context}: missing field {key!r}")
    return obj[key]


def _object(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise SpecFormatError(f"{context}: expected an object")
    return value


def _list(value, context: str, field: str) -> list:
    if not isinstance(value, list):
        raise SpecFormatError(f"{context}: {field} must be a list, got {_shown(value)}")
    return value


def _build(context: str, constructor, *args, **kwargs):
    """``constructor(*args, **kwargs)``, with its ``TypeError`` or
    ``ValueError`` re-raised as a ``SpecFormatError`` prefixed with
    ``context``.  The caller reads the arguments first, so a
    ``SpecFormatError`` raised while reading them passes through unchanged."""
    try:
        return constructor(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise SpecFormatError(f"{context}: {exc}") from exc


def group_from_spec(obj) -> GroupTable:
    _object(obj, "group")
    kind = _need(obj, "type", "group")
    if kind == "dihedral":
        return _build("group", dihedral, _need(obj, "n", "group"))
    if kind == "table":
        order = _build("group", groups._integer, _need(obj, "order", "group"), "order")
        table = _need(obj, "table", "group")
        if (
            not isinstance(table, list)
            or len(table) != order
            or not all(isinstance(row, list) for row in table)
        ):
            raise SpecFormatError("group: table must be an order x order array")
        names = obj.get("names")
        if names is not None:
            _list(names, "group", "names")
        return _build("group", GroupTable, table, names)
    raise SpecFormatError(f"group: unknown type {_shown(kind)}")


def signature_from_spec(obj, context: str = "signature") -> OrbifoldSignature:
    _object(obj, context)
    cone_orders = _list(obj.get("cone_orders", []), context, "cone_orders")
    genus = _need(obj, "genus", context)
    return _build(
        context, OrbifoldSignature, genus, obj.get("boundary", 0), tuple(cone_orders)
    )


def action_from_spec(obj) -> SurfaceKernelAction:
    _object(obj, "action")
    group = group_from_spec(_need(obj, "group", "action"))
    signature = signature_from_spec(_need(obj, "signature", "action"))
    raw_images = _need(obj, "images", "action")
    if not isinstance(raw_images, list):
        raise SpecFormatError("action: images must be a list of element names")
    images = []
    for name in raw_images:
        if not isinstance(name, str):
            raise SpecFormatError(f"action: image {_shown(name)} is not an element name")
        images.append(_build("action", group.by_name, name))
    return _build("action", SurfaceKernelAction, group, signature, tuple(images))


def _word_from_spec(text, signature: OrbifoldSignature, context: str) -> Word:
    if not isinstance(text, str):
        raise SpecFormatError(f"{context}: expected a word string, got {_shown(text)}")
    return _build(context, Word.parse, text, signature)


def multicurve_from_spec(obj, action: SurfaceKernelAction) -> MulticurveSpec:
    _object(obj, "multicurve")
    ambient = action.signature
    pieces = []
    for raw in _list(_need(obj, "pieces", "multicurve"), "multicurve", "pieces"):
        context = f"piece {_shown(_object(raw, 'multicurve: piece').get('id'))}"
        cone_points = _list(raw.get("cone_points", []), context, "cone_points")
        generators = _list(raw.get("generators", []), context, "generators")
        piece_id = _need(raw, "id", context)
        signature = signature_from_spec(_need(raw, "signature", context), f"{context}: signature")
        words = tuple(_word_from_spec(w, ambient, f"{context}: generator") for w in generators)
        pieces.append(_build(context, PieceSpec, piece_id, signature, tuple(cone_points), words))
    curves = []
    for raw in _list(obj.get("curves", []), "multicurve", "curves"):
        context = f"curve {_shown(_object(raw, 'multicurve: curve').get('id'))}"
        kind = _need(raw, "kind", context)
        sides_raw = _need(raw, "sides", context)
        if not isinstance(sides_raw, list) or len(sides_raw) != 2:
            raise SpecFormatError(f"{context}: exactly two sides are required")
        side_context = f"{context}: side"
        sides = []
        for s in sides_raw:
            piece = _need(_object(s, side_context), "piece", side_context)
            attach = _word_from_spec(s.get("attach", ""), ambient, f"{context}: attach")
            sides.append(_build(side_context, CurveSide, piece, attach))
        if kind == ARC:
            endpoints = _list(_need(raw, "endpoints", context), context, "endpoints")
            if len(endpoints) != 2:
                raise SpecFormatError(f"{context}: exactly two endpoints are required")
            fields = {
                "endpoints": tuple(endpoints),
                "gamma_a": _word_from_spec(_need(raw, "gamma_a", context), ambient, context),
                "gamma_b": _word_from_spec(_need(raw, "gamma_b", context), ambient, context),
            }
        elif kind == CLOSED:
            fields = {"gamma": _word_from_spec(_need(raw, "gamma", context), ambient, context)}
        else:
            raise SpecFormatError(f"{context}: unknown kind {_shown(kind)}")
        curve_id = _need(raw, "id", context)
        if not isinstance(curve_id, str):
            raise SpecFormatError(f"{context}: id must be a string, got {_shown(curve_id)}")
        curves.append(_build(context, CurveSpec, curve_id, kind, tuple(sides), **fields))
    return MulticurveSpec(pieces=tuple(pieces), curves=tuple(curves))


def load_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecFormatError(f"{path}: not UTF-8: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"{path}: invalid JSON: {exc}") from exc
    except ValueError as exc:
        # Only an integer past CPython's digit limit raises a plain
        # ValueError; a second parse, on this path alone, counts its digits.
        try:
            json.loads(text, parse_int=_check_digit_limit)
        except ValueError as over_limit:
            exc = over_limit
        raise SpecFormatError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise SpecFormatError(f"{path}: invalid JSON: nested too deeply") from None


def _check_digit_limit(literal: str) -> None:
    """``ValueError`` if the integer ``literal`` has more digits than
    Python's int conversion limit allows, before ``int()`` raises its own
    longer error; a limit of 0, or none (Python 3.10.0-3.10.6), lets all pass."""
    digits = len(literal.strip().lstrip("+-"))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < limit < digits:
        raise ValueError(f"integer of {digits} digits is over the limit of {limit}")


def load_action(path) -> SurfaceKernelAction:
    return action_from_spec(load_json(path))


def load_multicurve(path, action: SurfaceKernelAction) -> MulticurveSpec:
    return multicurve_from_spec(load_json(path), action)


def action_to_spec(action: SurfaceKernelAction) -> dict:
    group = action.group
    return {
        "group": {
            "type": "table",
            "order": group.order,
            "table": [list(row) for row in group.table],
            "names": list(group.names),
        },
        "signature": {
            "genus": action.signature.genus,
            "cone_orders": list(action.signature.cone_orders),
        },
        "images": [group.names[i] for i in action.images],
    }


def multicurve_to_spec(mc: MulticurveSpec, signature: OrbifoldSignature) -> dict:
    pieces = [
        {
            "id": p.id,
            "signature": {
                "genus": p.signature.genus,
                "boundary": p.signature.boundary,
                "cone_orders": list(p.signature.cone_orders),
            },
            "cone_points": list(p.cone_points),
            "generators": [w.to_text(signature) for w in p.generators],
        }
        for p in mc.pieces
    ]
    curves = []
    for c in mc.curves:
        entry = {
            "id": c.id,
            "kind": c.kind,
            "sides": [
                {"piece": s.piece, "attach": s.attach.to_text(signature)}
                for s in c.sides
            ],
        }
        if c.kind == ARC:
            entry["endpoints"] = list(c.endpoints)
            entry["gamma_a"] = c.gamma_a.to_text(signature)
            entry["gamma_b"] = c.gamma_b.to_text(signature)
        else:
            entry["gamma"] = c.gamma.to_text(signature)
        curves.append(entry)
    return {"pieces": pieces, "curves": curves}
