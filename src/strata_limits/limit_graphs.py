"""Construction of the labeled stable graph attached to an action and a
multicurve.

Vertices of the limit graph are pairs (piece, left coset of the piece's
image subgroup); edges are pairs (curve, left coset of the curve's image
subgroup).  The edge labeled by a coset with representative g joins the
vertices labeled by the cosets of g times the image of each side's
attachment word.  Each word object is evaluated once per build, by the
multicurve's validation, which hands its images on by ``id(word)``; the
action closes each generator set once, its validation's set of all images
included, and records each image subgroup, which keeps its own left cosets.
Degrees and weights come from exact index and Euler characteristic
formulas, in integers, once per piece: each signature keeps its Euler
characteristic, and each action its letter images and its covering
genus, so a build over a held action recomputes none of them.  They are held
once, in the underlying graph.  The construction re-checks itself (degree
coherence, connectivity, stability, genus conservation against the action's
covering genus) on every build, because attachment words are the least
verifiable input.  Its underlying graph comes from the public
:class:`~strata_limits.stable_graphs.StableGraph` constructor, so every
check of that constructor runs on it, connectivity included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .groups import Subgroup, _named
from .multicurves import MulticurveSpec, _check_multicurve, _piece_name
from .orbifolds import SurfaceKernelAction, euler_characteristic
from .stable_graphs import StableGraph

__all__ = [
    "AuditError",
    "InvalidInputError",
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


def _piece_degree_weight(
    piece_id: int, order: int, chi: Fraction, side_orders: list[int]
) -> tuple[int, int]:
    """Exact degree and weight of every vertex over a piece whose image
    subgroup has ``order`` elements and whose signature has Euler
    characteristic ``chi``.

    The degree counts boundary circles of the covering part: each incident
    curve side contributes the reciprocal of its curve subgroup's order,
    listed in ``side_orders`` (one-piece curves and arcs have both sides on
    the piece), scaled by the piece subgroup's order.  The weight then
    follows from the exact Euler characteristic of the part,
    ``1 - (order * chi + degree) / 2``.  Both are computed in integers:
    the degree over the least common multiple of ``side_orders``, the weight
    over twice ``chi``'s denominator.  A ``Fraction`` is made only to name
    a value that is not an integer.
    """
    common = math.lcm(*side_orders)
    numerator = order * sum(common // m for m in side_orders)
    degree, rest = divmod(numerator, common)
    if rest:
        raise AuditError(
            f"{_piece_name(piece_id)}: degree {Fraction(numerator, common)} is not an integer"
        )
    twice = 2 * chi.denominator
    numerator = twice - order * chi.numerator - degree * chi.denominator
    weight, rest = divmod(numerator, twice)
    if rest:
        raise AuditError(
            f"{_piece_name(piece_id)}: weight {Fraction(numerator, twice)} is not an integer"
        )
    if weight < 0:
        raise AuditError(f"{_piece_name(piece_id)}: weight {weight} is negative")
    return degree, weight


@dataclass(eq=False, repr=False, slots=True)
class LabeledStratumGraph:
    """The labeled output of the construction plus its underlying graph.

    ``vertices`` maps (piece id, coset representative), in piece order and
    representatives ascending, to the vertex's number in ``underlying``,
    which alone holds its degree and weight; the numbers count the sorted
    keys from 1.  ``edges`` maps (curve id, coset representative) to an
    unordered pair of vertex keys.  ``piece_subgroups`` and
    ``curve_subgroups`` map piece and curve ids to the image subgroups the
    construction used.
    """

    action: SurfaceKernelAction
    multicurve: MulticurveSpec
    vertices: dict[tuple[int, int], int]
    edges: dict[tuple[str, int], tuple[tuple[int, int], tuple[int, int]]]
    underlying: StableGraph
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

    This is the one place that validates the pair.  The multicurve is
    validated on every call; the action's validation is recorded on the
    action object (:attr:`SurfaceKernelAction.violations`), so a run that
    builds many multicurves over one action validates it once.  Word images
    are read from the multicurve's validation by ``id(word)``, not hashed or
    evaluated again.  Each image subgroup is asked of the action, which
    records it with its left cosets, so a run that builds many multicurves
    over one action computes each once, and the subgroup of all the images
    is the one validation closed; so is the covering genus the genus audit
    compares with.  Raises :class:`InvalidInputError` when the inputs fail
    validation and :class:`AuditError` when the construction's own
    consistency checks fail (which indicates combinatorially consistent but
    inconsistent attachment data).  The validation and the audits cannot be
    disabled.
    """
    problems, images = _check_multicurve(action, mc)
    violations = [*action.violations, *problems]
    if violations:
        raise InvalidInputError(violations)

    def subgroup(words):
        return action._subgroup(frozenset(images[id(w)] for w in words))

    group = action.group
    piece_subgroups = {p.id: subgroup(p.generators) for p in mc.pieces}
    curve_subgroups = {c.id: subgroup(c.words) for c in mc.curves}

    # The curve subgroup order of every curve side, by piece.
    side_orders: dict[int, list[int]] = {p.id: [] for p in mc.pieces}
    for curve in mc.curves:
        for side in curve.sides:
            side_orders[side.piece].append(curve_subgroups[curve.id].order)

    # One (degree, weight) per piece, shared by all of the piece's cosets.
    degree_weight = {
        piece.id: _piece_degree_weight(
            piece.id,
            piece_subgroups[piece.id].order,
            euler_characteristic(piece.signature),
            side_orders[piece.id],
        )
        for piece in mc.pieces
    }
    # Vertex keys in piece order, representatives ascending, numbered in key order.
    keys = [(p.id, rep) for p in mc.pieces for rep in piece_subgroups[p.id]._coset_representatives]
    number = {key: i for i, key in enumerate(sorted(keys), 1)}
    vertices = {key: number[key] for key in keys}

    # An edge end is a table product of validated indices: it needs no check.
    edges: dict[tuple[str, int], tuple[tuple[int, int], tuple[int, int]]] = {}
    for curve in mc.curves:
        (p1, a1), (p2, a2) = [(side.piece, images[id(side.attach)]) for side in curve.sides]
        rep_of1, rep_of2 = piece_subgroups[p1]._coset_labels, piece_subgroups[p2]._coset_labels
        for rep in curve_subgroups[curve.id]._coset_representatives:
            row = group.table[rep]
            edges[(curve.id, rep)] = ((p1, rep_of1[row[a1]]), (p2, rep_of2[row[a2]]))

    # Degree coherence: the attachment data must reproduce the degree
    # formula at every vertex.  Every edge end is a piece validated above
    # and a coset representative of that piece's subgroup, so it is a key
    # of ``vertices``; the counts then sum to 2 * len(edges), and coherence
    # implies the handshake lemma for the formula degrees.
    incident = dict.fromkeys(vertices, 0)
    for v1, v2 in edges.values():
        incident[v1] += 1
        incident[v2] += 1
    for (piece_id, rep), count in incident.items():
        degree = degree_weight[piece_id][0]
        if count != degree:
            raise AuditError(
                f"{_piece_name(piece_id)}, coset {_named(group.names[rep])}: attachment gives "
                f"degree {count}, formula gives {degree}"
            )

    try:
        underlying = StableGraph(
            [(number, degree_weight[piece_id][1]) for (piece_id, _), number in vertices.items()],
            [(vertices[v1], vertices[v2]) for v1, v2 in edges.values()],
        )
    except ValueError as exc:
        raise AuditError(f"underlying graph rejected: {exc}") from exc

    if not underlying.is_stable():
        raise AuditError("underlying graph is not stable")

    graph_genus = underlying.genus()
    surface_genus = action._covering_genus
    if graph_genus != surface_genus:
        raise AuditError(
            f"genus mismatch: graph has genus {graph_genus}, "
            f"covering surface has genus {surface_genus}"
        )
    return LabeledStratumGraph(
        action, mc, vertices, edges, underlying, piece_subgroups, curve_subgroups
    )
