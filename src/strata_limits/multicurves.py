"""Combinatorial multicurve specifications on a quotient orbifold.

A multicurve cuts the orbifold into pieces.  Each piece records its own
signature, which of the ambient cone points it contains, and words that
generate the image of its fundamental group.  Each curve is either a simple
closed curve or an arc joining two cone points of order 2, and carries two
*sides*: (piece id, attachment word) pairs that say how coset labels
translate across the matching edge of the limit graph.  By convention at
least one side's attachment word is empty.

Attachment words are taken as input and validated for combinatorial
consistency; whether a consistent specification is realizable by an actual
embedded multicurve is not decided here (no algorithm for that is known to
this package).

Interpretation note: a closed curve whose two sides lie on the same piece
is treated exactly like an arc when edges are attached (empty side plus a
translated side).  The attachment rule is stated uniformly for one-piece
curves, but its standard derivation is written for arcs; the uniform
reading is what this package implements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .groups import _integer, _shown
from .orbifolds import (
    OrbifoldSignature,
    SurfaceKernelAction,
    Word,
    euler_characteristic,
    evaluate_word,
    is_hyperbolic,
)

__all__ = [
    "PieceSpec",
    "CurveSide",
    "CurveSpec",
    "MulticurveSpec",
    "validate_multicurve",
]

ARC = "arc"
CLOSED = "closed"


@dataclass(frozen=True)
class PieceSpec:
    """One complementary piece of the cut orbifold.

    ``cone_points`` are 1-based indices into the ambient signature's cone
    list; order-2 points absorbed by arcs do not appear in any piece.
    ``generators`` are words in the ambient fundamental group whose images
    generate the piece's image subgroup.
    """

    id: int
    signature: OrbifoldSignature
    cone_points: tuple[int, ...] = ()
    generators: tuple[Word, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "id", _integer(self.id, "piece id"))
        cone_points = tuple(_integer(c, "cone point") for c in self.cone_points)
        object.__setattr__(self, "cone_points", cone_points)
        object.__setattr__(self, "generators", tuple(self.generators))


@dataclass(frozen=True)
class CurveSide:
    piece: int
    attach: Word = field(default_factory=Word)

    def __post_init__(self):
        object.__setattr__(self, "piece", _integer(self.piece, "piece"))


@dataclass(frozen=True)
class CurveSpec:
    """A closed curve or an arc of the multicurve.

    Arcs carry the ids of the two order-2 cone points they join and two
    generator words (the images of the two boundary loops of the arc,
    pushed to the basepoint); closed curves carry a single generator word.
    """

    id: str
    kind: str
    sides: tuple[CurveSide, CurveSide]
    endpoints: tuple[int, int] | None = None
    gamma_a: Word | None = None
    gamma_b: Word | None = None
    gamma: Word | None = None

    def __post_init__(self):
        object.__setattr__(self, "sides", tuple(self.sides))
        if self.kind not in (ARC, CLOSED):
            raise ValueError(f"curve {self.id}: kind must be 'arc' or 'closed'")
        if len(self.sides) != 2:
            raise ValueError(f"curve {self.id}: exactly two sides are required")
        if self.kind == ARC:
            if self.endpoints is None or self.gamma_a is None or self.gamma_b is None:
                raise ValueError(
                    f"curve {self.id}: an arc needs endpoints, gamma_a and gamma_b"
                )
            endpoints = tuple(_integer(e, "endpoint") for e in self.endpoints)
            if len(endpoints) != 2:
                raise ValueError(f"curve {self.id}: exactly two endpoints are required")
            object.__setattr__(self, "endpoints", endpoints)
        else:
            if self.gamma is None:
                raise ValueError(f"curve {self.id}: a closed curve needs a gamma word")

    @property
    def words(self) -> tuple[Word, ...]:
        """Generator words: ``(gamma_a, gamma_b)`` for an arc, ``(gamma,)``
        for a closed curve."""
        return (self.gamma_a, self.gamma_b) if self.kind == ARC else (self.gamma,)

    def spans_two_pieces(self) -> bool:
        return self.sides[0].piece != self.sides[1].piece


@dataclass(frozen=True)
class MulticurveSpec:
    pieces: tuple[PieceSpec, ...]
    curves: tuple[CurveSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        object.__setattr__(self, "curves", tuple(self.curves))


def validate_multicurve(action: SurfaceKernelAction, mc: MulticurveSpec) -> list[str]:
    """Check all consistency conditions; return the list of violations.

    An empty list means every check passed: distinct ids, resolvable side
    references, exactly one use of each ambient cone point, hyperbolic
    pieces with matching cone orders, exact Euler characteristic
    bookkeeping, boundary counts, order-2 arc data, evaluable words, and
    pieces joined by the curves' side references.
    """
    return _check_multicurve(action, mc)[0]


def _piece_name(piece_id: int) -> str:
    """``piece <id>`` for an error message, the id shown by
    :func:`~strata_limits.groups._shown`."""
    return f"piece {_shown(piece_id)}"


def _check_multicurve(
    action: SurfaceKernelAction, mc: MulticurveSpec
) -> tuple[list[str], dict[Word, int]]:
    """The checks of :func:`validate_multicurve`, plus the image of every
    word that evaluated, keyed by word; a build reads its images there."""
    out: list[str] = []
    images: dict[Word, int] = {}
    group = action.group
    ambient = action.signature
    cone_orders = ambient.cone_orders

    piece_ids = [p.id for p in mc.pieces]
    if len(set(piece_ids)) != len(piece_ids):
        out.append("piece ids are not distinct")
    curve_ids = [c.id for c in mc.curves]
    if len(set(curve_ids)) != len(curve_ids):
        out.append("curve ids are not distinct")
    known_pieces = set(piece_ids)

    def try_evaluate(word: Word, label: str):
        # An unevaluable word is not stored, so each place it occurs is
        # reported under its own label.
        image = images.get(word)
        if image is None:
            try:
                image = images[word] = evaluate_word(action, word)
            except ValueError as exc:
                out.append(f"{label}: {exc}")
        return image

    # Curve-level checks.
    for curve in mc.curves:
        for side in curve.sides:
            if side.piece not in known_pieces:
                out.append(
                    f"curve {curve.id}: side references unknown piece "
                    f"{_shown(side.piece)}"
                )
            try_evaluate(side.attach, f"curve {curve.id}: attachment word")
        if all(side.attach for side in curve.sides):
            out.append(f"curve {curve.id}: at least one attachment word must be empty")
        if curve.kind == ARC:
            if curve.spans_two_pieces():
                out.append(f"curve {curve.id}: arc sides must reference a single piece")
            e1, e2 = curve.endpoints
            if e1 == e2:
                out.append(f"curve {curve.id}: arc endpoints must be distinct")
            for e in curve.endpoints:
                if not 1 <= e <= len(cone_orders):
                    out.append(f"curve {curve.id}: unknown cone point {_shown(e)}")
                elif cone_orders[e - 1] != 2:
                    out.append(
                        f"curve {curve.id}: endpoint P{e} has order "
                        f"{_shown(cone_orders[e - 1])}, arcs must join order-2 "
                        "cone points"
                    )
            for label, word in (("gamma_a", curve.gamma_a), ("gamma_b", curve.gamma_b)):
                image = try_evaluate(word, f"curve {curve.id}: {label}")
                if image is not None and group.element_order(image) != 2:
                    out.append(
                        f"curve {curve.id}: {label} image {group.names[image]} has order "
                        f"{group.element_order(image)}, expected 2"
                    )
        else:
            try_evaluate(curve.gamma, f"curve {curve.id}: gamma")

    # Cone point accounting: every ambient cone point is used exactly once.
    usage: dict[int, list[str]] = {i: [] for i in range(1, len(cone_orders) + 1)}
    for piece in mc.pieces:
        for c in piece.cone_points:
            if c in usage:
                usage[c].append(_piece_name(piece.id))
            else:
                out.append(f"{_piece_name(piece.id)}: unknown cone point {_shown(c)}")
    for curve in mc.curves:
        if curve.kind == ARC:
            for e in curve.endpoints:
                if e in usage:
                    usage[e].append(f"curve {curve.id}")
    for c, reasons in usage.items():
        if len(reasons) == 0:
            out.append(f"cone point P{c} is not accounted for")
        elif len(reasons) > 1:
            out.append(f"cone point P{c} is used more than once: {', '.join(reasons)}")

    # Piece-level checks.
    for piece in mc.pieces:
        if not piece.generators:
            out.append(f"{_piece_name(piece.id)}: no generator words")
        for i, word in enumerate(piece.generators):
            try_evaluate(word, f"{_piece_name(piece.id)}: generator {i}")
        if not is_hyperbolic(piece.signature) and mc.curves:
            out.append(
                f"{_piece_name(piece.id)}: signature is not hyperbolic "
                f"(chi = {_shown(euler_characteristic(piece.signature))})"
            )
        referenced = sorted(
            cone_orders[c - 1] for c in piece.cone_points if 1 <= c <= len(cone_orders)
        )
        own = sorted(piece.signature.cone_orders)
        if referenced != own:
            out.append(
                f"{_piece_name(piece.id)}: signature cone orders {_shown(own)} do not "
                f"match the referenced cone points {_shown(referenced)}"
            )

    # Euler characteristic conservation: cutting along circles preserves chi
    # and arcs absorb two order-2 points, which contribute zero.
    total = sum((euler_characteristic(p.signature) for p in mc.pieces), Fraction(0))
    ambient_chi = euler_characteristic(ambient)
    if total != ambient_chi:
        out.append(
            f"piece Euler characteristics sum to {_shown(total)}, "
            f"ambient orbifold has {_shown(ambient_chi)}"
        )

    # Boundary bookkeeping: a closed curve gives a piece one boundary circle
    # per side on it, and an arc gives the piece it touches one.
    for piece in mc.pieces:
        expected = 0
        for curve in mc.curves:
            sides = sum(side.piece == piece.id for side in curve.sides)
            expected += min(sides, 1) if curve.kind == ARC else sides
        if piece.signature.boundary != expected:
            out.append(
                f"{_piece_name(piece.id)}: signature has "
                f"{_shown(piece.signature.boundary)} boundary components, "
                f"incident curves require {_shown(expected)}"
            )

    # Connectivity: the quotient orbifold is connected, so every piece must
    # be reached from the first through the curves' side references.
    if mc.pieces:
        first = mc.pieces[0].id
        joined = [{side.piece for side in c.sides} & known_pieces for c in mc.curves]
        reached = {first}
        while new := [ends for ends in joined if ends & reached and not ends <= reached]:
            reached.update(*new)
        unreached = [_shown(p) for p in piece_ids if p not in reached]
        if unreached:
            out.append(
                f"pieces not joined to {_piece_name(first)} by any curve: "
                f"{', '.join(unreached)}"
            )

    return out, images
