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
No external canonical-labeling dependency is used.  The pyramid
classifier canonicalizes graphs of up to n + 1 vertices, 2049 at the
largest admitted n; a vertex budget and a limit of 200 000 search leaves
make the limits of the search explicit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .groups import _integer, _shown

__all__ = [
    "StableGraph",
    "CanonicalForm",
    "BudgetExceededError",
    "canonical_form",
    "is_isomorphic",
]

DEFAULT_VERTEX_BUDGET = 12
_LEAF_LIMIT = 200_000


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
        # A plain int is taken as it is, and only any other value pays for
        # ``_integer``, the integer rule of every value type.
        vertex_list = [
            (
                v if type(v) is int else _integer(v, "vertex id"),
                w if type(w) is int else _integer(w, "vertex weight"),
            )
            for v, w in vertices
        ]
        id_set = {v for v, _ in vertex_list}
        if not vertex_list:
            raise ValueError("a graph needs at least one vertex")
        if len(id_set) != len(vertex_list):
            raise ValueError("vertex ids must be distinct")
        for v, w in vertex_list:
            if w < 0:
                raise ValueError(f"vertex {_shown(v)} has negative weight")
        vertex_list.sort()

        edge_list = []
        for a, b in edges:
            a = a if type(a) is int else _integer(a, "edge end")
            b = b if type(b) is int else _integer(b, "edge end")
            if a not in id_set or b not in id_set:
                raise ValueError(f"edge ({_shown(a)}, {_shown(b)}) references a missing vertex")
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
    """A total-order key that is equal exactly for isomorphic graphs.

    ``weight_multiset`` holds the sorted weights and ``certificate`` the
    upper triangle of the adjacency matrix in the order of the search's
    minimal leaf.  The weights are held once: every leaf lists them in
    ascending order, since the initial cells are laid in ascending order of
    a key that weight leads, and every split lays its fragments inside the
    cell's own range.  So the weights in leaf order are
    ``weight_multiset``.  Two graphs with equal sorted weights and equal
    triangles are isomorphic with their weights preserved: the map that
    sends each one's i-th leaf vertex to the other's keeps every
    multiplicity, and both vertices carry the i-th smallest weight.
    """

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

    The ordered partition has one form throughout.  A cell is named by its
    start, the position of its first member when the cells are laid end to
    end: ``cell_of`` maps each vertex to its cell's start, and ``members``
    maps each start to the cell's members.  ``_split`` is the one rule that
    turns a cell into fragments.  At a leaf every cell is a singleton, so
    each vertex's start is its position in the leaf's order.

    Every node skips each candidate that is not the smallest of its orbit
    under the automorphisms it may use, which come from two sources.

    Found automorphisms.  A leaf whose certificate equals the best so far
    gives an automorphism that maps the best leaf onto it.  The search then
    resumes at the deepest node on both leaves' paths, by truncating its
    stack of nodes there, and goes on with that node's next candidate.  A
    node uses the automorphisms found below it, with no check: a cell is
    only ever split into fragments laid where it stood, so two leaves below
    a node both refine its ordered partition, and the automorphism between
    them maps each of the node's cells onto itself and fixes every
    singleton.  At the deepest shared node it thus maps the subtree of the
    new leaf's child onto that of the best leaf's child, which was searched
    first; at every node on the way its orbits stay inside the target cell.

    Seeded automorphisms.  The first node whose target cell branches finds
    the graph's twin blocks once (see ``_twin_seeds``): transpositions of
    twins and swaps of equal twin classes, each an automorphism of the
    whole graph, kept as the exchange of two equal blocks, a pair
    ``(block_a, block_b)`` whose support is both blocks.  They were not
    found below the node, so a node uses only those that move no vertex of
    a singleton cell.  Such a seed fixes the node's ordered partition: the
    initial cells are invariants of the graph, refinement is
    label-invariant, and every vertex that was individualized, or fixed
    with an interchangeable cell, is a singleton and so is fixed.  So do
    the twin transpositions in its support, which therefore lies in one
    cell, and that cell is not a singleton.  Conversely a seed whose
    support lies in the target cell moves no singleton.  So the seeds that
    act on the target cell are exactly those whose support lies in it,
    which is the test the node makes.  Such a seed maps the target cell
    onto itself and each child's subtree onto another child's, with the
    same certificates (where the two subtrees fix an interchangeable cell
    in different orders, they differ by a permutation of that cell, which
    is an automorphism).

    A target cell that is the union of whole swappable twin classes at
    consecutive positions of one group (see ``_whole_classes``) is one
    orbit, and its node folds no seed.  Every twin transposition inside
    those classes, and every swap of two consecutive ones, has its support
    in the cell, so each acts at the node, and together they join the whole
    cell.  The fold would leave one root, the cell's least member, which is
    its first, since every cell is ascending; automorphisms found below the
    node can only merge orbits, so the node yields that member alone.

    In both cases a skipped subtree is the image of a searched one and
    holds the same certificates, so the minimum is unchanged (McKay and
    Piperno, "Practical graph isomorphism, II", 2014).
    """

    def __init__(self, graph: StableGraph):
        n = graph.vertex_count
        index_of = {v: i for i, (v, _) in enumerate(graph.vertices)}
        # The graph is held once, by vertex index: its loop counts and its
        # neighbour lists, with an m-fold edge listed m times at each end.
        loops = [0] * n
        neighbours: list[list[int]] = [[] for _ in range(n)]
        for a, b in graph.edges:
            ia, ib = index_of[a], index_of[b]
            if ia == ib:
                loops[ia] += 1
            else:
                neighbours[ia].append(ib)
                neighbours[ib].append(ia)
        self.n = n
        self.weights = [w for _, w in graph.vertices]
        self.loops = loops
        self.neighbours = neighbours
        self.best: tuple | None = None
        self.best_order: list[int] | None = None
        self.best_path: list[int] = []
        self.automorphisms: list[tuple[int, ...]] = []
        # Each seed exchanges two equal blocks: (block_a, block_b).
        self.seeds: list[tuple[tuple[int, ...], tuple[int, ...]]] | None = None
        # Set with the seeds: each vertex of a swappable class has its
        # class's slot, and each slot its group's first slot and class size.
        self.slot_of: dict[int, int] = {}
        self.slot_group: list[tuple[int, int]] = []
        self.leaves = 0
        self.seed_folds = 0

    def run(self) -> tuple:
        # One frame per branching node on the current path: its cell_of and
        # members, target cell's start, candidate generator and the
        # candidate now searched.  A child refines copies of the first two.
        n = self.n
        stack: list[list] = []
        cell_of, members = self._initial_cells()
        touched: Iterable[int] = range(n)
        while True:
            self._refine(cell_of, members, touched)
            target = 0
            while target < n and len(members[target]) == 1:
                target += 1
            if target < n and self._interchangeable(members[target]):
                # Any ordering of the cell yields the same matrix: fix it and
                # keep refining, since the new singletons may split later cells.
                cell = members[target]
                self._split(cell_of, members, target, [[v] for v in cell])
                touched = cell[1:]
                continue
            if target == n:
                del stack[self._leaf(cell_of, [frame[4] for frame in stack]) + 1 :]
            else:
                candidates = self._candidates(cell_of, members, target)
                stack.append([cell_of, members, target, candidates, None])
            while stack and (v := next(stack[-1][3], None)) is None:
                stack.pop()
            if not stack:
                assert self.best is not None
                return self.best
            stack[-1][4] = v
            cell_of, members, target = stack[-1][0][:], dict(stack[-1][1]), stack[-1][2]
            rest = [u for u in members[target] if u != v]
            self._split(cell_of, members, target, [[v], rest])
            touched = [v]

    def _initial_cells(self) -> tuple[list[int], dict[int, list[int]]]:
        # Weight leads the key, so every leaf lists the weights in
        # ascending order; the certificate relies on it and holds none.
        keys = {}
        for v in range(self.n):
            degree = len(self.neighbours[v]) + 2 * self.loops[v]
            keys.setdefault((self.weights[v], degree, self.loops[v]), []).append(v)
        cell_of, members = [0] * self.n, {}
        self._split(cell_of, members, 0, [keys[k] for k in sorted(keys)])
        return cell_of, members

    def _refine(self, cell_of: list[int], members: dict, touched: Iterable[int]) -> None:
        """Refine the ordered partition ``cell_of``, ``members`` in place
        until it is equitable, that is, until the members of each cell have
        equal multiplicities into every cell.

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

        Start positions.  The search holds its partition as this pair from
        the root to the leaves, and a child refines copies of its parent's
        pair, so a call builds neither.  Start positions order the cells as
        their indices do, and a cell's start does not move when another cell
        splits.  So a split renames only the vertices of its moved
        fragments; the first fragment keeps the cell's name (see
        ``_split``).

        Keys.  A member is keyed by the starts of its neighbours' cells,
        sorted, one entry per edge end, and fragments are laid in descending
        key order.  The members of a cell share their initial key (weight,
        degree, loops), so their keys have equal length.  Let p be the first
        start at which two members' signatures differ.  Their keys agree on
        every entry before p; the member with more neighbours in the cell at
        p then holds p where the other holds a later start.  So the larger
        signature has the smaller key, and equal keys mean equal signatures.
        Since every signature is taken against the partition the pass starts
        from, descending key order is ascending signature order, and each
        pass makes the same fragments in the same order as keying every
        non-singleton cell by its full signature.
        """
        if len(members) == self.n:  # every cell is a singleton
            return
        neighbours = self.neighbours
        start_of = cell_of.__getitem__
        while True:
            splits = []
            for start in {cell_of[u] for t in touched for u in neighbours[t]}:
                cell = members[start]
                if len(cell) == 1:
                    continue
                buckets: dict[tuple, list[int]] = {}
                for v in cell:
                    key = tuple(sorted(map(start_of, neighbours[v])))
                    buckets.setdefault(key, []).append(v)
                if len(buckets) > 1:
                    splits.append((start, [buckets[k] for k in sorted(buckets, reverse=True)]))
            if not splits:
                return
            touched = []
            for start, fragments in splits:
                self._split(cell_of, members, start, fragments)
                largest = max(fragments, key=len)
                for fragment in fragments:
                    if fragment is not largest:
                        touched += fragment

    @staticmethod
    def _split(cell_of: list[int], members: dict, start: int, fragments: list) -> None:
        """Replace the cell at ``start`` by ``fragments``, laid end to end
        from ``start`` in their order.  The first fragment keeps the cell's
        name, so only the other fragments' members are renamed.  A member
        list is replaced, never changed: a frame's partition shares its
        lists with its children's copies."""
        members[start] = fragments[0]
        for fragment in fragments[1:]:
            start += len(members[start])
            members[start] = fragment
            for v in fragment:
                cell_of[v] = start

    def _certificate(self, order: list[int], position: list[int]) -> tuple:
        """The leaf's key: the upper triangle of its adjacency matrix row
        by row, each row from the diagonal, which holds the loop count, to
        the end.

        ``position`` is the inverse of ``order``.  Row i holds n - i entries,
        so it starts at ``i * n - i * (i - 1) // 2``, and entry (i, j) for
        j > i, the multiplicity between ``order[i]`` and ``order[j]``, sits
        j - i places after the diagonal.  Every pair without an edge reads
        0, so the triangle starts as zeros and row i writes its loop count
        and adds 1 for each u in its neighbour list with ``position[u] > i``.
        An m-fold edge is listed m times at each end, so each of its m ends
        at the earlier vertex adds 1 and its entry reads m, while its ends
        at the later vertex add nothing.  That is the same tuple as reading
        all n² entries, with Python work linear in n plus the edges.
        """
        n, loops, neighbours = self.n, self.loops, self.neighbours
        flat = [0] * (n * (n + 1) // 2)
        for i, v in enumerate(order):
            row = i * n - i * (i - 1) // 2
            flat[row] = loops[v]
            for u in neighbours[v]:
                if (j := position[u]) > i:
                    flat[row + j - i] += 1
        return tuple(flat)

    def _interchangeable(self, cell: list[int]) -> bool:
        # True when every transposition inside the cell is an automorphism.
        # Those compose, (x z) = (x y)(y z)(x y), so it is enough that each
        # member v can swap with the first member f: v's neighbour multiset
        # must be f's with f and v exchanged.  Neither list holds its own
        # vertex, so only v becomes f.  Weights and loop counts are already
        # uniform within a refined cell.
        f = cell[0]
        neighbours = self.neighbours
        return all(
            sorted(neighbours[v]) == sorted([f if u == v else u for u in neighbours[f]])
            for v in cell[1:]
        )

    def _twin_seeds(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Automorphisms from twin blocks, each the exchange of two equal
        blocks ``(block_a, block_b)``: disjoint vertex tuples of one length
        whose member-by-member exchange is an automorphism.

        Twins are vertices whose transposition is an automorphism; twin
        classes are the classes of that equivalence.  Two equal-size
        classes are swappable when exchanging them member by member is an
        automorphism, which makes them twins of the quotient graph whose
        vertices are the classes.  The seeds are the consecutive
        transpositions in each twin class and the consecutive swaps in each
        group of swappable classes, O(n) in all, which generate every
        permutation within the classes and of the classes of a group.  One
        rule serves both levels: consecutive members of each group, a twin
        as the block ``(a,)`` and a class as its members.

        It also sets ``slot_of`` and ``slot_group``: the classes of a group
        take consecutive slots in the group's order, so two classes are
        consecutive in their group when their slots are.
        """
        rows = [Counter(neighbours) for neighbours in self.neighbours]
        classes = _twin_groups(
            range(self.n), lambda v: (self.weights[v], self.loops[v]), rows.__getitem__
        )
        seeds = [((a,), (b,)) for members in classes for a, b in zip(members, members[1:])]
        class_of = {v: members[0] for members in classes for v in members}
        members_of = {members[0]: tuple(members) for members in classes}

        def quotient_row(rep: int) -> dict[int, int]:
            # Twins share their row away from the pair, so one member's
            # row gives the class's multiplicity to every other class.
            return {
                class_of.get(u, u): m
                for u, m in rows[rep].items()
                if class_of.get(u, u) != rep
            }

        def label(rep: int) -> tuple:
            members = members_of[rep]
            inner = rows[rep][members[1]]
            return (len(members), self.weights[rep], self.loops[rep], inner)

        slot_of: dict[int, int] = {}
        slot_group: list[tuple[int, int]] = []
        for group in _twin_groups(members_of, label, quotient_row):
            seeds += [(members_of[a], members_of[b]) for a, b in zip(group, group[1:])]
            place = (len(slot_group), len(members_of[group[0]]))
            for rep in group:
                slot_of.update(dict.fromkeys(members_of[rep], len(slot_group)))
                slot_group.append(place)
        self.slot_of, self.slot_group = slot_of, slot_group
        return seeds

    def _whole_classes(self, cell: list[int]) -> bool:
        """True when ``cell`` is the union of whole swappable classes at
        consecutive positions of one group.  A cell whose first member is
        in no swappable class costs one lookup.  Otherwise every member
        must have a slot, the slots must run without a gap inside one group,
        and the cell must hold as many members as those classes, which holds
        only when each is whole."""
        slot_of = self.slot_of
        if cell[0] not in slot_of:
            return False
        slots = set(map(slot_of.get, cell))
        if None in slots:
            return False
        lo, hi = min(slots), max(slots)
        group, size = self.slot_group[lo]
        return (
            hi - lo + 1 == len(slots)
            and self.slot_group[hi][0] == group
            and len(cell) == size * len(slots)
        )

    def _leaf(self, cell_of: list[int], path: list[int]) -> int:
        """Score the leaf that ``path`` reaches; return the depth of the node
        to go on at: its parent (-1 at a root leaf), or, after an automorphism,
        the deepest node on both its path and the best leaf's."""
        self.leaves += 1
        if self.leaves > _LEAF_LIMIT:
            raise BudgetExceededError(
                f"canonicalization exceeded {_LEAF_LIMIT} search leaves"
            )
        order = [0] * self.n
        for v, position in enumerate(cell_of):
            order[position] = v
        cert = self._certificate(order, cell_of)
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

    def _candidates(self, cell_of: list[int], members: dict, start: int):
        """Yield each member of the cell at ``start`` that is the least of its
        orbit under the seeds and the automorphisms found since the node began:
        the first member alone when the cell is whole swappable classes."""
        target = members[start]
        if self.seeds is None:
            self.seeds = self._twin_seeds()
        if self._whole_classes(target):
            yield target[0]
            return
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

        start_of = cell_of.__getitem__
        for block_a, block_b in self.seeds:
            # Both blocks must lie in the target cell; the first vertex
            # rules out most seeds before the rest is read.
            if cell_of[block_a[0]] == start and all(
                map(start.__eq__, map(start_of, block_a + block_b))
            ):
                fold(zip(block_a, block_b))
                self.seed_folds += 1
        folded = len(self.automorphisms)
        for v in target:
            for a in self.automorphisms[folded:]:
                fold(zip(target, map(a.__getitem__, target)))
            folded = len(self.automorphisms)
            if find(v) == v:
                yield v


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
            f"graph has {n} vertices, canonicalization budget is {_shown(budget)}"
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
