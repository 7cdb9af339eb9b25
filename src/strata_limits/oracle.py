"""Brute-force verification paths that avoid the index formulas.

``_class_minima`` labels each group element by the least member of its
orbit under right multiplication by a generated subgroup, with union-find
over all group elements and no subgroup-order division anywhere, so it
can cross-check the coset route; ``components_by_bfs`` counts those
orbits.  ``audit_graph`` re-derives the vertex and edge counts of a built
limit graph this way, from the words, never from the action's record of
image subgroups.  Its ``vertices over`` and ``edges over`` lines count
every key over a piece or curve and require each to be its orbit's
minimum, and an edge's ends to be those its attachment words give, so an
extra key or a graph built from the wrong cosets fails a line even when
the number of keys is right.  The same lines check the printed image
subgroups: the identity's class is the generated subgroup, and it must
equal the elements of ``piece_subgroups`` or ``curve_subgroups``.  A
failing line says which of these went wrong.  It then checks the graph's
degree sum against twice the derived edge count, failing that line too
when an edge end has no vertex number or the underlying graph is not the
labels' image through ``graph.vertices``, and re-checks genus
conservation, stability, and the exact Euler characteristic balance of
the parts, and of each part against its piece's times its sheet count.
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
    """The labeled vertices and edges numbered through ``graph.vertices``,
    sorted as a :class:`~strata_limits.stable_graphs.StableGraph` holds
    them: ``(vertex numbers, edges)`` with the edge multiset, or ``None``
    when an edge end has no number."""
    number = graph.vertices
    try:
        ends = [(number[v1], number[v2]) for v1, v2 in graph.edges.values()]
    except KeyError:
        return None
    edges = sorted((a, b) if a <= b else (b, a) for a, b in ends)
    return tuple(sorted(number.values())), tuple(edges)


def audit_graph(graph: LabeledStratumGraph) -> AuditReport:
    """Re-verify a built graph against the action and multicurve it was
    built from, along independent paths."""
    action, mc = graph.action, graph.multicurve
    group = action.group
    checks: list[AuditCheck] = []

    def minima(words) -> list[int]:
        return _class_minima(group, [evaluate_word(action, w) for w in words])

    def counted(keys: list[int], roots: list[int], printed, other_ends: bool):
        """The number of ``keys``, or, when a key is not its class's
        minimum, an edge has other ends than its words give, or the printed
        subgroup is not the identity's class, that number and why."""
        identity_root = roots[group.identity]
        generated = tuple(x for x in range(group.order) if roots[x] == identity_root)
        reasons = []
        if any(roots[rep] != rep for rep in keys):
            reasons.append("a key is not a class minimum")
        if other_ends:
            reasons.append("an edge has other ends than its words give")
        if printed.elements != generated:
            reasons.append("the printed subgroup is not the generated one")
        return f"{len(keys)}, but {' and '.join(reasons)}" if reasons else len(keys)

    piece_minima, part_chi = {}, {}
    for piece in mc.pieces:
        roots = piece_minima[piece.id] = minima(piece.generators)
        # A part over the piece has one sheet per element of the identity's class.
        sheets = roots.count(roots[group.identity])
        part_chi[piece.id] = sheets * euler_characteristic(piece.signature)
        keys = [rep for pid, rep in graph.vertices if pid == piece.id]
        actual = counted(keys, roots, graph.piece_subgroups[piece.id], False)
        checks.append(
            AuditCheck(f"vertices over {_piece_name(piece.id)}", len(set(roots)), actual)
        )

    oracle_edges = 0
    for curve in mc.curves:
        roots = minima(curve.words)
        expected = len(set(roots))
        oracle_edges += expected
        sides = [
            (side.piece, piece_minima[side.piece], evaluate_word(action, side.attach))
            for side in curve.sides
        ]
        keys, other_ends = [], False
        for (cid, rep), ends in graph.edges.items():
            if cid == curve.id:
                keys.append(rep)
                row = group.table[rep]
                other_ends |= ends != tuple((pid, of[row[a]]) for pid, of, a in sides)
        actual = counted(keys, roots, graph.curve_subgroups[curve.id], other_ends)
        checks.append(AuditCheck(f"edges over curve {curve.id}", expected, actual))

    # Two ends per edge: the union-find edge counts give the degree sum.
    # The line also fails, saying why, when an edge end has no vertex
    # number, or when ``underlying`` is not the labeled graph's image:
    # other vertex numbers, or another edge multiset.
    underlying = graph.underlying
    degrees = underlying.degrees()
    degree_sum = sum(degrees.values())
    image = _labels_image(graph)
    if image is None:
        degree_sum = f"{degree_sum}, but a label has no vertex number"
    elif image != (tuple(v for v, _ in underlying.vertices), underlying.edges):
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
    # 2 - 2*weight - degree, its piece's Euler characteristic times its
    # sheet count, and the parts tile the covering surface.
    piece_of = {number: piece_id for (piece_id, _), number in graph.vertices.items()}
    parts = [(piece_of.get(v), 2 - 2 * w - degrees[v]) for v, w in underlying.vertices]
    parts_chi = sum(Fraction(chi) for _, chi in parts)
    if any(part_chi.get(piece_id) != chi for piece_id, chi in parts):
        parts_chi = f"{parts_chi}, but a part is not its piece's times its sheet count"
    surface_chi = group.order * euler_characteristic(action.signature)
    checks.append(AuditCheck("Euler characteristic balance", surface_chi, parts_chi))

    checks.append(AuditCheck("stability", True, underlying.is_stable()))

    return AuditReport(tuple(checks))
