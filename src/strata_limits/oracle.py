"""Brute-force verification paths that avoid the index formulas.

``_class_minima`` labels each group element by the least member of its
orbit under right multiplication by a generated subgroup, with union-find
over all group elements and no subgroup-order division anywhere, so it
can cross-check the coset route; ``components_by_bfs`` counts those
orbits.  ``audit_graph`` re-derives the vertex and edge counts of a built
limit graph this way, from the words, never from the action's record of
image subgroups.  It counts a vertex only under its orbit's minimum and an
edge only under its orbit's minimum with the ends its attachment words
give, so a graph built from the wrong cosets fails a count even when their
number is right.  It then checks the graph's degree sum against twice the
derived edge count, failing that line too when the underlying graph is not
the labeled graph's image through ``vertex_number``, and re-checks genus
conservation, stability, and the exact Euler characteristic balance of
the parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .groups import GroupTable
from .limit_graphs import LabeledStratumGraph
from .multicurves import _piece_name
from .orbifolds import euler_characteristic, evaluate_word, riemann_hurwitz_genus

__all__ = ["components_by_bfs", "audit_graph", "AuditCheck", "AuditReport"]


def components_by_bfs(group: GroupTable, generators: Sequence[int]) -> int:
    """Number of orbits of right multiplication by the generated subgroup:
    the classes of :func:`_class_minima`, counted."""
    return len(set(_class_minima(group, generators)))


def _class_minima(group: GroupTable, generators: Sequence[int]) -> list[int]:
    """Each element's least class member under right multiplication by the
    generated subgroup, entry x for element x.

    Unions x with x*s for every element x and generator s, in deterministic
    order, with a union-find whose roots are class minima.
    """
    if not generators:
        raise ValueError("at least one generator is required")
    parent = list(range(group.order))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    gen_indices = sorted({group.check_index(g, "generator") for g in generators})
    for x in range(group.order):
        for s in gen_indices:
            rx, ry = find(x), find(group.table[x][s])
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
    return [find(x) for x in range(group.order)]


@dataclass(frozen=True)
class AuditCheck:
    name: str
    expected: object
    actual: object

    @property
    def passed(self) -> bool:
        return self.expected == self.actual

    def to_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: expected {self.expected}, got {self.actual}"


@dataclass(frozen=True)
class AuditReport:
    checks: tuple[AuditCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        return "\n".join(c.to_line() for c in self.checks) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {
                    "name": c.name,
                    "expected": str(c.expected),
                    "actual": str(c.actual),
                    "pass": c.passed,
                }
                for c in self.checks
            ],
        }


def _labels_image(graph: LabeledStratumGraph) -> tuple | None:
    """The labeled vertices and edges numbered through ``vertex_number``,
    sorted as a :class:`~strata_limits.stable_graphs.StableGraph` holds
    them: ``(vertices, edges)`` with weights and the edge multiset, or
    ``None`` when a label has no number."""
    number = graph.vertex_number
    try:
        vertices = sorted((number[key], record.weight) for key, record in graph.vertices.items())
        ends = [(number[v1], number[v2]) for v1, v2 in graph.edges.values()]
    except KeyError:
        return None
    edges = sorted((a, b) if a <= b else (b, a) for a, b in ends)
    return tuple(vertices), tuple(edges)


def audit_graph(graph: LabeledStratumGraph) -> AuditReport:
    """Re-verify a built graph against the action and multicurve it was
    built from, along independent paths."""
    action, mc = graph.action, graph.multicurve
    group = action.group
    checks: list[AuditCheck] = []

    def minima(words) -> list[int]:
        return _class_minima(group, [evaluate_word(action, w) for w in words])

    piece_minima = {}
    for piece in mc.pieces:
        roots = piece_minima[piece.id] = minima(piece.generators)
        expected = len(set(roots))
        actual = sum(
            1 for (pid, rep) in graph.vertices if pid == piece.id and roots[rep] == rep
        )
        checks.append(AuditCheck(f"vertices over {_piece_name(piece.id)}", expected, actual))

    oracle_edges = 0
    for curve in mc.curves:
        roots = minima(curve.words)
        expected = len(set(roots))
        oracle_edges += expected
        sides = [
            (side.piece, piece_minima[side.piece], evaluate_word(action, side.attach))
            for side in curve.sides
        ]
        actual = sum(
            1
            for (cid, rep), ends in graph.edges.items()
            if cid == curve.id
            and roots[rep] == rep
            and ends == tuple((pid, of[group.table[rep][a]]) for pid, of, a in sides)
        )
        checks.append(AuditCheck(f"edges over curve {curve.id}", expected, actual))

    # Two ends per edge: the union-find edge counts give the degree sum.
    # The line also fails, saying why, when ``underlying`` is not the
    # labeled graph's image: other weights, or another edge multiset.
    underlying = graph.underlying
    degrees = underlying.degrees()
    degree_sum = sum(degrees.values())
    if _labels_image(graph) != (underlying.vertices, underlying.edges):
        degree_sum = f"{degree_sum}, from an underlying graph that is not the labels' image"
    checks.append(AuditCheck("handshake (degree sum)", 2 * oracle_edges, degree_sum))

    checks.append(
        AuditCheck(
            "genus conservation",
            riemann_hurwitz_genus(action),
            underlying.genus(),
        )
    )

    # Exact Euler characteristic balance: each part contributes
    # 2 - 2*weight - degree, and the parts tile the covering surface.
    parts_chi = sum(
        Fraction(2 - 2 * w - degrees[v]) for v, w in underlying.vertices
    )
    surface_chi = group.order * euler_characteristic(action.signature)
    checks.append(AuditCheck("Euler characteristic balance", surface_chi, parts_chi))

    checks.append(AuditCheck("stability", True, underlying.is_stable()))

    return AuditReport(tuple(checks))
