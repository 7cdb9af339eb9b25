"""Construction of the labeled stable graph attached to an action and a
multicurve.

Vertices of the limit graph are pairs (piece, left coset of the piece's
image subgroup); edges are pairs (curve, left coset of the curve's image
subgroup).  The edge labeled by a coset with representative g joins the
vertices labeled by the cosets of g times the image of each side's
attachment word.  Degrees and weights come from exact index and Euler
characteristic formulas; the construction re-checks itself (degree
coherence, connectivity, stability, genus conservation) on every build,
because attachment words are the least verifiable input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groups import CosetPartition, Subgroup, left_cosets
from .multicurves import (
    MulticurveSpec,
    PieceSpec,
    curve_image_subgroup,
    piece_image_subgroup,
    validate_multicurve,
)
from .orbifolds import (
    SurfaceKernelAction,
    euler_characteristic,
    evaluate_word,
    riemann_hurwitz_genus,
    validate_action,
)
from .stable_graphs import StableGraph

__all__ = [
    "AuditError",
    "InvalidInputError",
    "StratumVertex",
    "GenusAudit",
    "LabeledStratumGraph",
    "component_count",
    "vertex_degree",
    "vertex_weight",
    "build_stratum_graph",
    "genus_audit",
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
    """A vertex record: which piece it covers, its coset label, and the
    degree and weight of the corresponding part of the limit surface."""

    piece: int
    coset: int
    degree: int
    weight: int


@dataclass(frozen=True)
class GenusAudit:
    graph_genus: int
    surface_genus: int

    @property
    def ok(self) -> bool:
        return self.graph_genus == self.surface_genus


def component_count(action: SurfaceKernelAction, subgroup: Subgroup) -> int:
    """Number of preimage components for a subset with this image subgroup:
    the subgroup's index in the whole group."""
    order = action.group.order
    if order % subgroup.order != 0:
        raise AuditError("subgroup order does not divide the group order")
    return order // subgroup.order


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
        raise AuditError(f"piece {piece.id}: degree {degree} is not an integer")
    chi = euler_characteristic(piece.signature)
    weight = 1 - Fraction(1, 2) * (piece_subgroup.order * chi + degree)
    if weight.denominator != 1:
        raise AuditError(f"piece {piece.id}: weight {weight} is not an integer")
    if weight < 0:
        raise AuditError(f"piece {piece.id}: weight {weight} is negative")
    return int(degree), int(weight)


def _vertex_degree_weight(
    action: SurfaceKernelAction, mc: MulticurveSpec, piece: PieceSpec
) -> tuple[int, int]:
    """Degree and weight over one piece, building only the subgroups of the
    piece and of the curves incident to it."""
    curve_subgroups = {
        curve.id: curve_image_subgroup(action, curve)
        for curve in mc.curves
        if any(side.piece == piece.id for side in curve.sides)
    }
    return _piece_degree_weight(
        mc, piece, piece_image_subgroup(action, piece), curve_subgroups
    )


def vertex_degree(action: SurfaceKernelAction, mc: MulticurveSpec, piece: PieceSpec) -> int:
    return _vertex_degree_weight(action, mc, piece)[0]


def vertex_weight(action: SurfaceKernelAction, mc: MulticurveSpec, piece: PieceSpec) -> int:
    return _vertex_degree_weight(action, mc, piece)[1]


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


def build_stratum_graph(
    action: SurfaceKernelAction, mc: MulticurveSpec
) -> LabeledStratumGraph:
    """Construct the labeled stable graph for an action and a multicurve.

    This is the one place that validates the pair.  Raises
    :class:`InvalidInputError` when the inputs fail validation and
    :class:`AuditError` when the construction's own consistency checks fail
    (which indicates combinatorially consistent but inconsistent attachment
    data).  The validation and the audits cannot be disabled.
    """
    violations = validate_action(action) + validate_multicurve(action, mc)
    if violations:
        raise InvalidInputError(violations)

    group = action.group
    piece_subgroups: dict[int, Subgroup] = {}
    piece_cosets: dict[int, CosetPartition] = {}
    curve_subgroups: dict[str, Subgroup] = {}
    curve_cosets: dict[str, CosetPartition] = {}
    for piece in mc.pieces:
        piece_subgroups[piece.id] = piece_image_subgroup(action, piece)
        piece_cosets[piece.id] = left_cosets(piece_subgroups[piece.id])
    for curve in mc.curves:
        curve_subgroups[curve.id] = curve_image_subgroup(action, curve)
        curve_cosets[curve.id] = left_cosets(curve_subgroups[curve.id])

    vertices: dict[tuple[int, int], StratumVertex] = {}
    for piece in mc.pieces:
        degree, weight = _piece_degree_weight(
            mc, piece, piece_subgroups[piece.id], curve_subgroups
        )
        for rep in piece_cosets[piece.id].representatives:
            vertices[(piece.id, rep)] = StratumVertex(piece.id, rep, degree, weight)

    edges: dict[tuple[str, int], tuple[tuple[int, int], tuple[int, int]]] = {}
    for curve in mc.curves:
        side_images = [evaluate_word(action, side.attach) for side in curve.sides]
        side_pieces = [side.piece for side in curve.sides]
        for rep in curve_cosets[curve.id].representatives:
            ends = []
            for piece_id, image in zip(side_pieces, side_images):
                translated = group.table[rep][image]
                ends.append((piece_id, piece_cosets[piece_id].representative_of(translated)))
            edges[(curve.id, rep)] = (ends[0], ends[1])

    # Degree coherence: the attachment data must reproduce the degree
    # formula at every vertex.  Every edge end is counted at a known vertex,
    # so the counts sum to 2 * len(edges), and coherence then implies the
    # handshake lemma for the formula degrees.
    incident: dict[tuple[int, int], int] = {key: 0 for key in vertices}
    for (curve_id, rep), (v1, v2) in edges.items():
        for v in (v1, v2):
            if v not in incident:
                raise AuditError(f"curve {curve_id}: edge at {rep} touches unknown vertex {v}")
            incident[v] += 1
    for key, record in vertices.items():
        if incident[key] != record.degree:
            raise AuditError(
                f"piece {key[0]}, coset {group.names[key[1]]}: attachment gives "
                f"degree {incident[key]}, formula gives {record.degree}"
            )

    vertex_number = {key: i + 1 for i, key in enumerate(sorted(vertices))}
    try:
        underlying = StableGraph(
            [(vertex_number[key], record.weight) for key, record in vertices.items()],
            [
                (vertex_number[v1], vertex_number[v2])
                for (_, _), (v1, v2) in sorted(edges.items())
            ],
        )
    except ValueError as exc:
        raise AuditError(f"underlying graph rejected: {exc}") from exc

    if not underlying.is_stable():
        raise AuditError("underlying graph is not stable")

    graph = LabeledStratumGraph(
        action, mc, vertices, edges, underlying, vertex_number, piece_subgroups, curve_subgroups
    )
    audit = genus_audit(action, graph)
    if not audit.ok:
        raise AuditError(
            f"genus mismatch: graph has genus {audit.graph_genus}, "
            f"covering surface has genus {audit.surface_genus}"
        )
    return graph


def genus_audit(action: SurfaceKernelAction, graph: LabeledStratumGraph) -> GenusAudit:
    """Compare the stable graph genus with the covering surface genus."""
    return GenusAudit(
        graph_genus=graph.underlying.genus(),
        surface_genus=riemann_hurwitz_genus(action),
    )
