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
"""

from __future__ import annotations

import json
from pathlib import Path

from . import groups
from .groups import GroupTable, dihedral
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
        raise SpecFormatError(f"{context}: {field} must be a list, got {value!r}")
    return value


def _integer(value, context: str, field: str) -> int:
    try:
        return groups._integer(value, field)
    except TypeError as exc:
        raise SpecFormatError(f"{context}: {exc}") from exc


def group_from_spec(obj) -> GroupTable:
    _object(obj, "group")
    kind = _need(obj, "type", "group")
    if kind == "dihedral":
        n = _integer(_need(obj, "n", "group"), "group", "dihedral parameter n")
        if n < 1:
            raise SpecFormatError(f"group: dihedral parameter n must be a positive integer, got {n!r}")
        return dihedral(n)
    if kind == "table":
        order = _integer(_need(obj, "order", "group"), "group", "order")
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
        try:
            return GroupTable(table, names)
        except (TypeError, ValueError) as exc:
            raise SpecFormatError(f"group: {exc}") from exc
    raise SpecFormatError(f"group: unknown type {kind!r}")


def signature_from_spec(obj, context: str = "signature") -> OrbifoldSignature:
    _object(obj, context)
    cone_orders = _list(obj.get("cone_orders", []), context, "cone_orders")
    genus = _integer(_need(obj, "genus", context), context, "genus")
    boundary = _integer(obj.get("boundary", 0), context, "boundary")
    cone_orders = tuple(_integer(m, context, "cone order") for m in cone_orders)
    try:
        return OrbifoldSignature(genus=genus, boundary=boundary, cone_orders=cone_orders)
    except ValueError as exc:
        raise SpecFormatError(f"{context}: {exc}") from exc


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
            raise SpecFormatError(f"action: image {name!r} is not an element name")
        try:
            images.append(group.by_name(name).index)
        except ValueError as exc:
            raise SpecFormatError(f"action: {exc}") from exc
    try:
        return SurfaceKernelAction(group, signature, tuple(images))
    except ValueError as exc:
        raise SpecFormatError(f"action: {exc}") from exc


def _word_from_spec(text, signature: OrbifoldSignature, context: str) -> Word:
    if not isinstance(text, str):
        raise SpecFormatError(f"{context}: expected a word string, got {text!r}")
    try:
        return Word.parse(text, signature)
    except ValueError as exc:
        raise SpecFormatError(f"{context}: {exc}") from exc


def multicurve_from_spec(obj, action: SurfaceKernelAction) -> MulticurveSpec:
    _object(obj, "multicurve")
    ambient = action.signature
    pieces = []
    for raw in _list(_need(obj, "pieces", "multicurve"), "multicurve", "pieces"):
        context = f"piece {_object(raw, 'multicurve: piece').get('id')!r}"
        cone_points = _list(raw.get("cone_points", []), context, "cone_points")
        generators = _list(raw.get("generators", []), context, "generators")
        try:
            pieces.append(
                PieceSpec(
                    id=_integer(_need(raw, "id", context), context, "id"),
                    signature=signature_from_spec(
                        _need(raw, "signature", context), f"{context}: signature"
                    ),
                    cone_points=tuple(
                        _integer(c, context, "cone point") for c in cone_points
                    ),
                    generators=tuple(
                        _word_from_spec(w, ambient, f"{context}: generator")
                        for w in generators
                    ),
                )
            )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, SpecFormatError):
                raise
            raise SpecFormatError(f"{context}: {exc}") from exc
    curves = []
    for raw in _list(obj.get("curves", []), "multicurve", "curves"):
        context = f"curve {_object(raw, 'multicurve: curve').get('id')!r}"
        kind = _need(raw, "kind", context)
        sides_raw = _need(raw, "sides", context)
        if not isinstance(sides_raw, list) or len(sides_raw) != 2:
            raise SpecFormatError(f"{context}: exactly two sides are required")
        side_context = f"{context}: side"
        try:
            sides = tuple(
                CurveSide(
                    piece=_integer(
                        _need(_object(s, side_context), "piece", side_context), side_context, "piece"
                    ),
                    attach=_word_from_spec(s.get("attach", ""), ambient, f"{context}: attach"),
                )
                for s in sides_raw
            )
            if kind == ARC:
                endpoints = _list(_need(raw, "endpoints", context), context, "endpoints")
                curves.append(
                    CurveSpec(
                        id=str(_need(raw, "id", context)),
                        kind=ARC,
                        endpoints=tuple(_integer(e, context, "endpoint") for e in endpoints),
                        gamma_a=_word_from_spec(_need(raw, "gamma_a", context), ambient, context),
                        gamma_b=_word_from_spec(_need(raw, "gamma_b", context), ambient, context),
                        sides=sides,
                    )
                )
            elif kind == CLOSED:
                curves.append(
                    CurveSpec(
                        id=str(_need(raw, "id", context)),
                        kind=CLOSED,
                        gamma=_word_from_spec(_need(raw, "gamma", context), ambient, context),
                        sides=sides,
                    )
                )
            else:
                raise SpecFormatError(f"{context}: unknown kind {kind!r}")
        except (TypeError, ValueError) as exc:
            if isinstance(exc, SpecFormatError):
                raise
            raise SpecFormatError(f"{context}: {exc}") from exc
    return MulticurveSpec(pieces=tuple(pieces), curves=tuple(curves))


def load_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecFormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"{path}: invalid JSON: {exc}") from exc


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
