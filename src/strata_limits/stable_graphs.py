"""Weighted multigraphs with loops: genus, stability, canonical forms.

A stable graph is a connected weighted multigraph in which every vertex of
weight zero has degree at least three; a loop contributes two to the degree
of its vertex but counts as a single edge.  The genus is
``sum(weights) + edges - vertices + 1``.

Canonical forms are computed by ordered-partition refinement followed by a
search for the lexicographically minimal weighted adjacency matrix, pruned
by the automorphisms that the search finds as it goes and by automorphisms
seeded from the graph's twin blocks (vertices, or equal groups of them,
whose exchange preserves every edge), found once by hashing rows.
The graphs handled here are tiny, so no external canonical-labeling
dependency is used; a vertex budget and a search budget make the limits of
the brute force explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .groups import _integer

__all__ = [
    "StableGraph",
    "CanonicalForm",
    "BudgetExceededError",
    "canonical_form",
    "is_isomorphic",
]

DEFAULT_VERTEX_BUDGET = 12
_LEAF_LIMIT = 200_000
# Graphs with at most this many vertices key refinement by dense vectors.
_DENSE_KEY_VERTICES = 32


class BudgetExceededError(ValueError):
    """Canonicalization was asked to exceed its declared search budget."""


class StableGraph:
    """A connected weighted multigraph with loops and parallel edges.

    ``vertices`` is a sequence of ``(id, weight)`` pairs with distinct
    integer ids and non-negative integer weights; ``edges`` is a sequence of
    unordered id pairs, repeated according to multiplicity.  Stability
    itself is a queryable property, not a construction invariant, so that
    almost-stable graphs can be built and rejected with a useful diagnostic.
    """

    __slots__ = ("vertices", "edges")

    def __init__(
        self,
        vertices: Iterable[tuple[int, int]],
        edges: Iterable[tuple[int, int]] = (),
    ):
        vertex_list = [
            (_integer(v, "vertex id"), _integer(w, "vertex weight")) for v, w in vertices
        ]
        id_set = {v for v, _ in vertex_list}
        if not vertex_list:
            raise ValueError("a graph needs at least one vertex")
        if len(id_set) != len(vertex_list):
            raise ValueError("vertex ids must be distinct")
        for v, w in vertex_list:
            if w < 0:
                raise ValueError(f"vertex {v!r} has negative weight")
        vertex_list.sort()

        edge_list = []
        for a, b in edges:
            a, b = _integer(a, "edge end"), _integer(b, "edge end")
            if a not in id_set or b not in id_set:
                raise ValueError(f"edge ({a!r}, {b!r}) references a missing vertex")
            edge_list.append((a, b) if a <= b else (b, a))
        edge_list.sort()

        self.vertices: tuple[tuple[int, int], ...] = tuple(vertex_list)
        self.edges: tuple[tuple[int, int], ...] = tuple(edge_list)

        if not self._is_connected():
            raise ValueError("graph is not connected")

    def _is_connected(self) -> bool:
        n = len(self.vertices)
        adjacency: dict[int, set[int]] = {v: set() for v, _ in self.vertices}
        for a, b in self.edges:
            adjacency[a].add(b)
            adjacency[b].add(a)
        start = self.vertices[0][0]
        seen = {start}
        stack = [start]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == n

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def weight(self, vertex) -> int:
        return dict(self.vertices)[vertex]

    def degrees(self) -> dict:
        """``{vertex: degree}`` in vertex order, from one pass over the edges.

        The degree is the number of edge ends at the vertex; a loop
        contributes two.  Computed on each call rather than stored, which
        keeps the many graphs a classification holds small.
        """
        counts = {v: 0 for v, _ in self.vertices}
        for a, b in self.edges:
            counts[a] += 1
            counts[b] += 1
        return counts

    def degree(self, vertex) -> int:
        """Number of edge ends at the vertex; a loop contributes two."""
        return self.degrees()[vertex]

    def genus(self) -> int:
        weights = sum(w for _, w in self.vertices)
        return weights + self.edge_count - self.vertex_count + 1

    def is_stable(self) -> bool:
        degrees = self.degrees()
        return all(w > 0 or degrees[v] >= 3 for v, w in self.vertices)

    def to_text(self) -> str:
        lines = [f"V {v} w={w}" for v, w in self.vertices]
        lines += [f"E {a} {b}" for a, b in self.edges]
        return "\n".join(lines) + "\n"

    def to_dot(self) -> str:
        lines = ["graph stable {"]
        for v, w in self.vertices:
            lines.append(f'  "v{v}" [label="w={w}"];')
        for a, b in self.edges:
            lines.append(f'  "v{a}" -- "v{b}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def relabeled(self, mapping: dict) -> "StableGraph":
        """The same graph with vertex ids replaced through ``mapping``."""
        return StableGraph(
            [(mapping[v], w) for v, w in self.vertices],
            [(mapping[a], mapping[b]) for a, b in self.edges],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, StableGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return (
            f"StableGraph(v={self.vertex_count}, e={self.edge_count}, "
            f"weights={tuple(sorted(w for _, w in self.vertices))})"
        )


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """A total-order key that is equal exactly for isomorphic graphs."""

    vertex_count: int
    edge_count: int
    weight_multiset: tuple[int, ...]
    certificate: tuple


class _CanonicalSearch:
    """Minimal-adjacency-matrix search with refinement and pruning.

    The search tree individualizes one vertex of the first non-singleton
    cell at a time, refining after each choice; a cell in which every
    transposition is an automorphism (see ``_interchangeable``) is fixed in
    one step instead of branching.  Every cell lists its members in
    ascending order: the initial cells are filled in index order, each
    fragment that refinement splits off a cell keeps the cell's member
    order, and splitting a cell or fixing an interchangeable one keeps the
    order.  So no cell is sorted.

    Every node skips each candidate that is not the smallest of its orbit
    under the automorphisms it may use, which come from two sources.

    Found automorphisms.  A leaf whose certificate equals the best so far
    gives an automorphism that maps the best leaf onto it.  The search then
    resumes at the deepest node on both leaves' paths, by truncating its
    stack of nodes there, and goes on with that node's next candidate.  A
    node uses the automorphisms found below it, with no check: partitions
    are only ever refined in place, so two leaves below a node both refine
    its ordered partition, and the automorphism between them maps each of
    the node's cells onto itself and fixes every singleton.  At the deepest
    shared node it thus maps the subtree of the new leaf's child onto that
    of the best leaf's child, which was searched first; at every node on
    the way its orbits stay inside the target cell.

    Seeded automorphisms.  The first node whose target cell branches finds
    the graph's twin blocks once (see ``_twin_seeds``): transpositions of
    twins and swaps of equal twin classes, each an automorphism of the
    whole graph, kept as ``(sources, images)`` supports.  They were not
    found below the node, so a node uses only those whose support holds no
    vertex of a singleton cell.  Such a seed fixes the node's ordered
    partition: the initial cells are invariants of the graph, refinement
    is label-invariant, and every vertex that was individualized, or fixed
    with an interchangeable cell, is a singleton and so is fixed.  So do
    the twin transpositions in its support, which therefore lies in one
    cell.  It maps the target cell onto itself and each child's subtree
    onto another child's, with the same certificates (where the two
    subtrees fix an interchangeable cell in different orders, they differ
    by a permutation of that cell, which is an automorphism).

    In both cases a skipped subtree is the image of a searched one and
    holds the same certificates, so the minimum is unchanged (McKay and
    Piperno, "Practical graph isomorphism, II", 2014).
    """

    def __init__(self, graph: StableGraph):
        n = graph.vertex_count
        index_of = {v: i for i, (v, _) in enumerate(graph.vertices)}
        loops = [0] * n
        adjacency: list[dict[int, int]] = [dict() for _ in range(n)]
        for a, b in graph.edges:
            ia, ib = index_of[a], index_of[b]
            if ia == ib:
                loops[ia] += 1
            else:
                adjacency[ia][ib] = adjacency[ia].get(ib, 0) + 1
                adjacency[ib][ia] = adjacency[ib].get(ia, 0) + 1
        self.n = n
        self.weights = [w for _, w in graph.vertices]
        self.loops = loops
        self.adjacency = adjacency  # list of dicts: vertex -> multiplicity
        self.best: tuple | None = None
        self.best_order: list[int] | None = None
        self.best_path: list[int] = []
        self.automorphisms: list[tuple[int, ...]] = []
        self.seeds: list[tuple[tuple[int, ...], tuple[int, ...]]] | None = None
        self.leaves = 0

    def run(self) -> tuple:
        # One frame per branching node on the current path: its cells, target
        # cell index, candidate generator and the candidate now searched.
        stack: list[list] = []
        cells = self._initial_cells()
        touched: Iterable[int] = range(self.n)
        while True:
            cells = self._refine(cells, touched)
            target_index = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
            if target_index is not None and self._interchangeable(cells[target_index]):
                # Any ordering of the cell yields the same matrix: fix it and
                # keep refining, since the new singletons may split later cells.
                cell = cells[target_index]
                cells = cells[:target_index] + [[v] for v in cell] + cells[target_index + 1 :]
                touched = cell[1:]
                continue
            if target_index is None:
                del stack[self._leaf(cells, [frame[3] for frame in stack]) + 1 :]
            else:
                stack.append([cells, target_index, self._candidates(cells, target_index), None])
            while stack and (v := next(stack[-1][2], None)) is None:
                stack.pop()
            if not stack:
                assert self.best is not None
                return self.best
            stack[-1][3] = v
            cells = self._split(stack[-1][0], stack[-1][1], v)
            touched = [v]

    def _initial_cells(self) -> list[list[int]]:
        keys = {}
        degree = [
            sum(self.adjacency[v].values()) + 2 * self.loops[v] for v in range(self.n)
        ]
        for v in range(self.n):
            keys.setdefault((self.weights[v], degree[v], self.loops[v]), []).append(v)
        return [keys[k] for k in sorted(keys)]

    def _refine(self, cells: list[list[int]], touched: Iterable[int]) -> list[list[int]]:
        """Refine the ordered partition ``cells`` until it is equitable, that
        is, until the members of each cell have equal multiplicities into
        every cell.

        A pass gives each member of a non-singleton cell its signature, the
        list of its multiplicities into the cells of the partition the pass
        starts from, in cell order.  It splits the cell into fragments of
        equal signature, in ascending signature order, and each fragment
        keeps the cell's member order.  Passes repeat until one splits no
        cell.  ``touched`` holds the vertices that the caller's own split set
        apart from an equitable partition: every vertex at the root, the
        individualized vertex, or every member but the first of a fixed
        interchangeable cell.

        Touched cells only.  A pass examines only the cells that hold a
        neighbour of a touched vertex.  The next pass touches every new
        fragment except the largest of each split cell (Hopcroft's rule).
        This skips no split.  Before each pass, the members of a cell have
        equal multiplicities into every cell of the partition the previous
        pass started from, or of the equitable one the caller split: either
        their cell did not split, or they formed one fragment of equal
        signatures.  Take a cell none of whose members has a neighbour in a
        touched fragment.  Each member has multiplicity 0 into each touched
        fragment, and into the untouched fragment of each split cell its
        multiplicity into the whole cell minus those zeros.  So their
        signatures are still equal, and the cell cannot split.

        Start positions.  A cell is named by its start position, the
        position of its first member when the cells are laid end to end.
        ``cell_of`` maps each vertex to its cell's start, and is built once
        per call; ``members`` maps each start to the cell's members.  Start
        positions order the cells as their indices do, and a cell's start
        does not move when another cell splits.  So a split renames only
        the vertices of its moved fragments; the first fragment keeps the
        cell's name.

        Keys.  A graph of at most ``_DENSE_KEY_VERTICES`` vertices keys a
        vertex by its multiplicities indexed by start position; the entries
        at other positions are always 0, so these keys order like the
        signatures.  A larger graph keys it by its ``(-start, multiplicity)``
        pairs in descending order, which order the same way.  At the first
        cell where two signatures differ, a missing pair is a 0: the key
        goes on with a later cell, whose negated start sorts first, or it
        ends, and a shorter key sorts first.  So, since every signature is
        taken against the partition the pass starts from, each pass makes
        the same fragments in the same order as keying every non-singleton
        cell by its full signature.
        """
        n = self.n
        if len(cells) == n:  # every cell is a singleton
            return cells
        adjacency = self.adjacency
        cell_of = [0] * n
        members: dict[int, list[int]] = {}
        start = 0
        for cell in cells:
            members[start] = cell
            for v in cell:
                cell_of[v] = start
            start += len(cell)
        dense = n <= _DENSE_KEY_VERTICES
        changed = False
        while True:
            splits = []
            for start in {cell_of[u] for t in touched for u in adjacency[t]}:
                cell = members[start]
                if len(cell) == 1:
                    continue
                buckets: dict[tuple, list[int]] = {}
                for v in cell:
                    if dense:
                        counts = [0] * n
                        for u, mult in adjacency[v].items():
                            counts[cell_of[u]] += mult
                        key = tuple(counts)
                    else:
                        sparse: dict[int, int] = {}
                        for u, mult in adjacency[v].items():
                            c = -cell_of[u]
                            sparse[c] = sparse.get(c, 0) + mult
                        key = tuple(sorted(sparse.items(), reverse=True))
                    buckets.setdefault(key, []).append(v)
                if len(buckets) > 1:
                    splits.append((start, [buckets[key] for key in sorted(buckets)]))
            if not splits:
                break
            changed = True
            touched = []
            for start, fragments in splits:
                largest = max(fragments, key=len)
                members[start] = fragments[0]
                for fragment in fragments[1:]:
                    start += len(members[start])
                    members[start] = fragment
                    for v in fragment:
                        cell_of[v] = start
                for fragment in fragments:
                    if fragment is not largest:
                        touched += fragment
        return [members[start] for start in sorted(members)] if changed else cells

    def _certificate(self, order: list[int]) -> tuple:
        flat = []
        for i in range(self.n):
            vi = order[i]
            row = self.adjacency[vi]
            flat.append(self.loops[vi])
            for j in range(i + 1, self.n):
                flat.append(row.get(order[j], 0))
        return (tuple(self.weights[v] for v in order), tuple(flat))

    def _interchangeable(self, cell: list[int]) -> bool:
        # True when every transposition inside the cell is an automorphism.
        # Those compose, (x z) = (x y)(y z)(x y), so it is enough that each
        # member v can swap with the first member f: v's row must be f's
        # row with f and v exchanged.  Weights and loop counts are already
        # uniform within a refined cell.
        f = cell[0]
        row_f = self.adjacency[f]
        return all(
            self.adjacency[v] == {f if u == v else u: m for u, m in row_f.items()}
            for v in cell[1:]
        )

    def _twin_seeds(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Automorphisms from twin blocks, as ``(sources, images)`` supports.

        Twins are vertices whose transposition is an automorphism; twin
        classes are the classes of that equivalence.  Two equal-size
        classes are swappable when exchanging them member by member is an
        automorphism, which makes them twins of the quotient graph whose
        vertices are the classes.  The seeds are the consecutive
        transpositions in each twin class and the consecutive swaps in each
        group of swappable classes, O(n) in all, which generate every
        permutation within the classes and of the classes of a group.
        """
        classes = _twin_groups(
            range(self.n),
            lambda v: (self.weights[v], self.loops[v]),
            lambda v: self.adjacency[v],
        )
        seeds = [
            ((a, b), (b, a))
            for members in classes
            for a, b in zip(members, members[1:])
        ]
        class_of = {v: members[0] for members in classes for v in members}
        members_of = {members[0]: members for members in classes}

        def quotient_row(rep: int) -> dict[int, int]:
            # Twins share their row away from the pair, so one member's
            # row gives the class's multiplicity to every other class.
            return {
                class_of.get(u, u): m
                for u, m in self.adjacency[rep].items()
                if class_of.get(u, u) != rep
            }

        def label(rep: int) -> tuple:
            members = members_of[rep]
            inner = self.adjacency[rep].get(members[1], 0)
            return (len(members), self.weights[rep], self.loops[rep], inner)

        for group in _twin_groups(members_of, label, quotient_row):
            for a, b in zip(group, group[1:]):
                block_a, block_b = members_of[a], members_of[b]
                seeds.append((tuple(block_a + block_b), tuple(block_b + block_a)))
        return seeds

    def _leaf(self, cells: list[list[int]], path: list[int]) -> int:
        """Score the leaf that ``path`` reaches; return the depth of the node
        to go on at: its parent (-1 at a root leaf), or, after an automorphism,
        the deepest node on both its path and the best leaf's."""
        self.leaves += 1
        if self.leaves > _LEAF_LIMIT:
            raise BudgetExceededError(
                f"canonicalization exceeded {_LEAF_LIMIT} search leaves"
            )
        order = [cell[0] for cell in cells]
        cert = self._certificate(order)
        if cert == self.best:
            assert self.best_order is not None
            perm = [0] * self.n
            for pos in range(self.n):
                perm[self.best_order[pos]] = order[pos]
            self.automorphisms.append(tuple(perm))
            # The paths differ before either ends: a leaf's path extends
            # no other leaf's.
            return next(d for d, (u, v) in enumerate(zip(path, self.best_path)) if u != v)
        if self.best is None or cert < self.best:
            self.best, self.best_order, self.best_path = cert, order, path
        return len(path) - 1

    def _candidates(self, cells: list[list[int]], target_index: int):
        """Yield each member of the target cell that is the least of its
        orbit under the seeds and the automorphisms found since the node began."""
        target = cells[target_index]
        # Union-find whose roots are orbit minima; it needs only the target
        # cell, which every automorphism this node uses preserves.
        parent = {v: v for v in target}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def fold(pairs) -> None:
            for x, y in pairs:
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[max(rx, ry)] = min(rx, ry)

        if self.seeds is None:
            self.seeds = self._twin_seeds()
        if self.seeds:
            singletons = {cell[0] for cell in cells if len(cell) == 1}
            # A seed that fixes every singleton has its support in one cell,
            # so its first source tells whether it acts on the target.
            for sources, images in self.seeds:
                if sources[0] in parent and singletons.isdisjoint(sources):
                    fold(zip(sources, images))
        folded = len(self.automorphisms)
        for v in target:
            for a in self.automorphisms[folded:]:
                fold((x, a[x]) for x in target)
            folded = len(self.automorphisms)
            if find(v) == v:
                yield v

    @staticmethod
    def _split(cells: list[list[int]], index: int, v: int) -> list[list[int]]:
        cell = cells[index]
        rest = [u for u in cell if u != v]
        return cells[:index] + [[v], rest] + cells[index + 1 :]


def canonical_form(graph: StableGraph, budget: int = DEFAULT_VERTEX_BUDGET) -> CanonicalForm:
    """Canonical key of a graph, equal exactly for isomorphic graphs.

    Raises :class:`BudgetExceededError` when the graph has more vertices
    than ``budget``, or the underlying search grows past its leaf limit,
    and ``TypeError`` when ``budget`` is not an integer.
    """
    budget = _integer(budget, "budget")
    n = graph.vertex_count
    if n > budget:
        raise BudgetExceededError(
            f"graph has {n} vertices, canonicalization budget is {budget}"
        )
    search = _CanonicalSearch(graph)
    certificate = search.run()
    return CanonicalForm(
        vertex_count=n,
        edge_count=graph.edge_count,
        weight_multiset=tuple(sorted(search.weights)),
        certificate=certificate,
    )


def is_isomorphic(
    g1: StableGraph, g2: StableGraph, budget: int = DEFAULT_VERTEX_BUDGET
) -> bool:
    """Weight-preserving graph isomorphism, via canonical form equality;
    graphs of different sizes differ without meeting the budget, which
    must still be an integer."""
    budget = _integer(budget, "budget")
    if g1.vertex_count != g2.vertex_count or g1.edge_count != g2.edge_count:
        return False
    return canonical_form(g1, budget) == canonical_form(g2, budget)


def _twin_groups(items, label, row) -> list[list[int]]:
    """The classes of size two or more of the twin relation on ``items``.

    ``label(x)`` and ``row(x)`` give an item's label and its symmetric
    ``{other item: multiplicity}`` row, which never holds ``x`` itself.
    Items ``x`` and ``y`` are twins when their labels are equal and
    exchanging them preserves every row: non-adjacent twins have equal
    rows, and twins joined with multiplicity ``c`` have equal rows once
    each holds itself at ``c``.  Each item is keyed once per way it could
    be a twin, so the classes come from hashing, in time linear in the
    rows' total size times their number of distinct multiplicities.  Two
    items with one adjacent key are joined with multiplicity ``c``, since
    each key holds the other at ``c``.  No item has twins of two kinds,
    because rows are symmetric, so the classes are disjoint.
    """
    by_key: dict[tuple, list[int]] = {}
    for x in items:
        lab, r = label(x), row(x)
        keys = [(lab, 0, frozenset(r.items()))]
        keys += [(lab, c, frozenset(r.items() | {(x, c)})) for c in set(r.values())]
        for key in keys:
            by_key.setdefault(key, []).append(x)
    return [sorted(group) for group in by_key.values() if len(group) > 1]
