"""Construction of the labeled stable graph attached to an action and a
multicurve.

Vertices of the limit graph are pairs (piece, left coset of the piece's
image subgroup); edges are pairs (curve, left coset of the curve's image
subgroup).  The edge labeled by a coset with representative g joins the
vertices labeled by the cosets of g times the image of each side's
attachment word.  Each word is evaluated once per build, by the multicurve's
validation, which hands its images on; each image subgroup is computed
once per action, which records it, and keeps its own left cosets.
Degrees and weights come from exact index and Euler characteristic
formulas; the construction re-checks itself (degree coherence,
connectivity, stability, genus conservation) on every build, because
attachment words are the least verifiable input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groups import Subgroup, closure
from .multicurves import MulticurveSpec, PieceSpec, _check_multicurve, _piece_name
from .orbifolds import SurfaceKernelAction, Word, euler_characteristic, riemann_hurwitz_genus
from .stable_graphs import StableGraph

__all__ = [
    "AuditError",
    "InvalidInputError",
    "StratumVertex",
    "LabeledStratumGraph",
    "build_stratum_graph",
]


class AuditError(RuntimeError):
    """An internal consistency check of the construction failed."""


class InvalidInputError(ValueError):
    """The action or multicurve failed validation.

    ``violations`` lists every violation found, one message each.
    """

    def __init__(self, violations: list[str]):
        super().__init__("invalid input:\n" + "\n".join(f"  - {v}" for v in violations))
        self.violations = violations


@dataclass(frozen=True)
class StratumVertex:
    """A vertex record: the degree and weight of the corresponding part of
    the limit surface.  Which piece it covers and its coset label are the
    key ``(piece id, coset representative)`` it is stored under."""

    degree: int
    weight: int


def _piece_degree_weight(
    mc: MulticurveSpec,
    piece: PieceSpec,
    piece_subgroup: Subgroup,
    curve_subgroups: dict[str, Subgroup],
) -> tuple[int, int]:
    """Exact degree and weight of every vertex over a piece.

    The degree counts boundary circles of the covering part: each incident
    curve side contributes the reciprocal of the curve subgroup's order
    (one-piece curves and arcs have both sides on the piece), scaled by the
    piece subgroup's order.  The weight then follows from the exact Euler
    characteristic of the part.
    """
    total = Fraction(0)
    for curve in mc.curves:
        for side in curve.sides:
            if side.piece == piece.id:
                total += Fraction(1, curve_subgroups[curve.id].order)
    degree = Fraction(piece_subgroup.order) * total
    if degree.denominator != 1:
        raise AuditError(f"{_piece_name(piece.id)}: degree {degree} is not an integer")
    chi = euler_characteristic(piece.signature)
    weight = 1 - Fraction(1, 2) * (piece_subgroup.order * chi + degree)
    if weight.denominator != 1:
        raise AuditError(f"{_piece_name(piece.id)}: weight {weight} is not an integer")
    if weight < 0:
        raise AuditError(f"{_piece_name(piece.id)}: weight {weight} is negative")
    return int(degree), int(weight)


@dataclass(eq=False, repr=False, slots=True)
class LabeledStratumGraph:
    """The labeled output of the construction plus its underlying graph.

    ``vertices`` maps (piece id, coset representative) to a
    :class:`StratumVertex`; ``edges`` maps (curve id, coset representative)
    to an unordered pair of vertex keys.  ``vertex_number`` gives the
    compact integer id used for the same vertex in ``underlying``.
    ``piece_subgroups`` and ``curve_subgroups`` map piece and curve ids to
    the image subgroups the construction used.
    """

    action: SurfaceKernelAction
    multicurve: MulticurveSpec
    vertices: dict[tuple[int, int], StratumVertex]
    edges: dict[tuple[str, int], tuple[tuple[int, int], tuple[int, int]]]
    underlying: StableGraph
    vertex_number: dict[tuple[int, int], int]
    piece_subgroups: dict[int, Subgroup]
    curve_subgroups: dict[str, Subgroup]

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return (
            f"LabeledStratumGraph(v={self.vertex_count}, e={self.edge_count}, "
            f"genus={self.underlying.genus()})"
        )


def _image_subgroup(
    action: SurfaceKernelAction, images: dict[Word, int], words: tuple[Word, ...]
) -> Subgroup:
    """The subgroup generated by the images of ``words``, from the action's
    record (:attr:`SurfaceKernelAction._image_subgroups`).

    A generator set not seen before costs a :func:`closure`; its result is
    then looked up by its elements, so each distinct subgroup is held as
    one object, which keeps its own left cosets.
    """
    held = action._image_subgroups
    key = frozenset(images[w] for w in words)
    if key not in held:
        subgroup = closure(action.group, key)
        held[key] = held.setdefault(subgroup.elements, subgroup)
    return held[key]


def build_stratum_graph(
    action: SurfaceKernelAction, mc: MulticurveSpec
) -> LabeledStratumGraph:
    """Construct the labeled stable graph for an action and a multicurve.

    This is the one place that validates the pair.  The multicurve is
    validated on every call; the action's validation is recorded on the
    action object (:attr:`SurfaceKernelAction.violations`), so a run that
    builds many multicurves over one action validates it once.  Word images
    are read from the multicurve's validation, not evaluated again.  Each
    image subgroup is likewise recorded on the action the first time a
    build needs it, and keeps its left cosets, so a run that builds many
    multicurves over one action computes each once.  Raises
    :class:`InvalidInputError` when the inputs fail validation and
    :class:`AuditError` when the construction's own consistency checks fail
    (which indicates combinatorially consistent but inconsistent attachment
    data).  The validation and the audits cannot be disabled.
    """
    problems, images = _check_multicurve(action, mc)
    violations = [*action.violations, *problems]
    if violations:
        raise InvalidInputError(violations)

    group = action.group
    piece_subgroups = {p.id: _image_subgroup(action, images, p.generators) for p in mc.pieces}
    curve_subgroups = {c.id: _image_subgroup(action, images, c.words) for c in mc.curves}

    vertices: dict[tuple[int, int], StratumVertex] = {}
    for piece in mc.pieces:
        # One frozen record per piece, shared by all of the piece's cosets.
        record = StratumVertex(
            *_piece_degree_weight(mc, piece, piece_subgroups[piece.id], curve_subgroups)
        )
        for rep in piece_subgroups[piece.id]._coset_representatives:
            vertices[(piece.id, rep)] = record

    # An edge end is a table product of validated indices: it needs no check.
    edges: dict[tuple[str, int], tuple[tuple[int, int], tuple[int, int]]] = {}
    for curve in mc.curves:
        (p1, a1), (p2, a2) = [(side.piece, images[side.attach]) for side in curve.sides]
        rep_of1, rep_of2 = piece_subgroups[p1]._coset_labels, piece_subgroups[p2]._coset_labels
        for rep in curve_subgroups[curve.id]._coset_representatives:
            row = group.table[rep]
            edges[(curve.id, rep)] = ((p1, rep_of1[row[a1]]), (p2, rep_of2[row[a2]]))

    # Degree coherence: the attachment data must reproduce the degree
    # formula at every vertex.  Every edge end is a piece validated above
    # and a coset representative of that piece's subgroup, so it is a key
    # of ``vertices``; the counts then sum to 2 * len(edges), and coherence
    # implies the handshake lemma for the formula degrees.
    incident: dict[tuple[int, int], int] = {key: 0 for key in vertices}
    for v1, v2 in edges.values():
        incident[v1] += 1
        incident[v2] += 1
    for key, record in vertices.items():
        if incident[key] != record.degree:
            raise AuditError(
                f"{_piece_name(key[0])}, coset {group.names[key[1]]}: attachment gives "
                f"degree {incident[key]}, formula gives {record.degree}"
            )

    vertex_number = {key: i + 1 for i, key in enumerate(sorted(vertices))}
    try:
        underlying = StableGraph(
            [(vertex_number[key], record.weight) for key, record in vertices.items()],
            [(vertex_number[v1], vertex_number[v2]) for v1, v2 in edges.values()],
        )
    except ValueError as exc:
        raise AuditError(f"underlying graph rejected: {exc}") from exc

    if not underlying.is_stable():
        raise AuditError("underlying graph is not stable")

    graph_genus = underlying.genus()
    surface_genus = riemann_hurwitz_genus(action)
    if graph_genus != surface_genus:
        raise AuditError(
            f"genus mismatch: graph has genus {graph_genus}, "
            f"covering surface has genus {surface_genus}"
        )
    return LabeledStratumGraph(
        action, mc, vertices, edges, underlying, vertex_number, piece_subgroups, curve_subgroups
    )
