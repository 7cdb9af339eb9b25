import hashlib
import importlib.util
import itertools
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from strata_limits import stable_graphs
from strata_limits.groups import _integer, _shown
from strata_limits.pyramids import expected_graph
from strata_limits.stable_graphs import (
    BudgetExceededError,
    StableGraph,
    canonical_form,
    is_isomorphic,
)


def loops_graph(weight: int, loops: int) -> StableGraph:
    return StableGraph([(1, weight)], [(1, 1)] * loops)


def star_graph(hub_weight: int, leaf_weight: int, leaves: int, multiplicity: int) -> StableGraph:
    vertices = [(0, hub_weight)] + [(i, leaf_weight) for i in range(1, leaves + 1)]
    edges = [(0, i) for i in range(1, leaves + 1) for _ in range(multiplicity)]
    return StableGraph(vertices, edges)


def satellite_graph(n: int, m: int, d: int) -> StableGraph:
    # Hub plus n//m weight-0 satellites with m parallel hub edges each and
    # satellite cycles of length d (loop when d=1, double edge when d=2).
    count = n // m
    vertices = [(0, 0)] + [(i, 0) for i in range(1, count + 1)]
    edges = [(0, i) for i in range(1, count + 1) for _ in range(m)]
    for start in range(1, count + 1, d):
        cycle = list(range(start, start + d))
        if d == 1:
            edges.append((cycle[0], cycle[0]))
        elif d == 2:
            edges += [(cycle[0], cycle[1])] * 2
        else:
            edges += [(cycle[i], cycle[(i + 1) % d]) for i in range(d)]
    return StableGraph(vertices, edges)


def shuffled(graph: StableGraph, seed: int) -> StableGraph:
    rng = random.Random(seed)
    ids = [v for v, _ in graph.vertices]
    new_ids = list(range(100, 100 + len(ids)))
    rng.shuffle(new_ids)
    return graph.relabeled(dict(zip(ids, new_ids)))


def test_genus_of_loop_graphs():
    for n in (1, 3, 7):
        assert loops_graph(0, n).genus() == n


def test_genus_of_isolated_weighted_vertex():
    assert loops_graph(2, 0).genus() == 2


def test_genus_two_vertices_two_edges():
    g = StableGraph([(1, 1), (2, 1)], [(1, 2), (1, 2)])
    assert g.genus() == 3


def test_stability():
    assert not loops_graph(0, 1).is_stable()  # degree 2 at weight 0
    assert loops_graph(0, 2).is_stable()  # degree 4
    assert StableGraph([(1, 1), (2, 2)], [(1, 2)]).is_stable()
    hub_and_leaves = star_graph(0, 1, 4, 1)
    assert hub_and_leaves.is_stable()
    assert not star_graph(0, 0, 3, 1).is_stable()  # weight-0 leaves of degree 1


def test_degrees_count_loops_twice_and_parallel_edges_each():
    # Vertex 1 has weight 0 and is stable only through its loop, which
    # lifts its degree from 1 to 3.
    g = StableGraph([(1, 0), (2, 1), (3, 1)], [(1, 1), (1, 2), (2, 3), (2, 3)])
    assert g.degrees() == {1: 3, 2: 3, 3: 2}
    assert list(g.degrees()) == [1, 2, 3]
    assert [g.degree(v) for v in (1, 2, 3)] == [3, 3, 2]
    assert g.is_stable()
    assert not StableGraph([(1, 0), (2, 1)], [(1, 2)]).is_stable()  # no loop
    assert loops_graph(0, 3).degrees() == {1: 6}
    assert loops_graph(2, 0).degrees() == {1: 0}


def test_degrees_agree_with_edge_end_counts_on_random_stable_graphs():
    checked = 0
    for seed in itertools.count():
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        edges += [
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))
        ]
        g = StableGraph([(v, rng.randint(0, 2)) for v in range(n)], edges)
        if not g.is_stable():
            continue
        ends = Counter(end for edge in g.edges for end in edge)
        assert g.degrees() == {v: ends[v] for v, _ in g.vertices}
        checked += 1
        if checked == 200:
            break


def test_disconnected_graph_rejected():
    with pytest.raises(ValueError, match="connected"):
        StableGraph([(1, 1), (2, 1)], [])


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError, match="distinct"):
        StableGraph([(1, 0), (1, 1)], [])


def test_edges_must_reference_vertices():
    with pytest.raises(ValueError, match="missing"):
        StableGraph([(1, 0)], [(1, 2)])


def _reference_graph(vertices, edges):
    """The public constructor's checks with every value read through
    ``groups._integer``, plain ints included, as they were written before
    plain ints skipped it: ``(vertices, edges)`` as a graph holds them, or
    the constructor's exception."""
    vertex_list = [(_integer(v, "vertex id"), _integer(w, "vertex weight")) for v, w in vertices]
    id_set = {v for v, _ in vertex_list}
    if not vertex_list:
        raise ValueError("a graph needs at least one vertex")
    if len(id_set) != len(vertex_list):
        raise ValueError("vertex ids must be distinct")
    for v, w in vertex_list:
        if w < 0:
            raise ValueError(f"vertex {_shown(v)} has negative weight")
    edge_list = []
    for a, b in edges:
        a, b = _integer(a, "edge end"), _integer(b, "edge end")
        if a not in id_set or b not in id_set:
            raise ValueError(f"edge ({_shown(a)}, {_shown(b)}) references a missing vertex")
        edge_list.append((a, b) if a <= b else (b, a))
    reached, stack = {vertex_list[0][0]}, [vertex_list[0][0]]
    while stack:
        v = stack.pop()
        for a, b in edge_list:
            for here, there in ((a, b), (b, a)):
                if here == v and there not in reached:
                    reached.add(there)
                    stack.append(there)
    if reached != id_set:
        raise ValueError("graph is not connected")
    return tuple(sorted(vertex_list)), tuple(sorted(edge_list))


class _Index:
    """An integer-like value that only ``__index__`` makes an int."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"_Index({self.value})"


class _IntSubclass(int):
    pass


@st.composite
def constructor_inputs(draw):
    """Vertex and edge lists for the constructor: a path on the ids
    0 .. k-1 with weights 0 .. 2 and a few more edges, in which every value
    is kept or, at random, replaced by another small int (which can repeat
    an id, make a weight negative, miss a vertex or disconnect the graph),
    a bool, a float, a text, an ``__index__`` object or an int subclass."""
    k = draw(st.integers(0, 5))
    ids = st.integers(0, max(k - 1, 0))
    edges = [(v - 1, v) for v in range(1, k)] + draw(st.lists(st.tuples(ids, ids), max_size=3))
    vertices = [(v, draw(st.integers(0, 2))) for v in range(k)]
    kinds = st.sampled_from(["kept"] * 10 + ["int", "bool", "float", "text", "index", "subclass"])

    def perturbed(x: int):
        kind = draw(kinds)
        if kind == "int":
            return draw(st.integers(-1, k))
        if kind == "bool":
            return draw(st.booleans())
        if kind == "float":
            return draw(st.sampled_from([float(x), x + 0.5]))
        if kind == "text":
            return str(x)
        if kind == "index":
            return _Index(x)
        if kind == "subclass":
            return _IntSubclass(x)
        return x

    vertices = [(perturbed(v), perturbed(w)) for v, w in vertices]
    edges = [(perturbed(a), perturbed(b)) for a, b in draw(st.permutations(edges))]
    return vertices, edges


@settings(max_examples=300)
@given(constructor_inputs())
@example(([], []))
@example(([(0, 0), (1, 1)], [(0, True)]))
@example(([(0, 0), (1, 1)], [(0, _IntSubclass(1))]))
def test_the_int_fast_path_agrees_with_the_integer_rule(inputs):
    vertices, edges = inputs
    try:
        expected = _reference_graph(vertices, edges)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as raised:
            StableGraph(vertices, edges)
        assert str(raised.value) == str(exc)
    else:
        graph = StableGraph(vertices, edges)
        assert (graph.vertices, graph.edges) == expected
        assert all(type(x) is int for pair in graph.vertices + graph.edges for x in pair)


def test_isomorphic_loop_graphs():
    assert is_isomorphic(loops_graph(2, 3), loops_graph(2, 3))
    assert not is_isomorphic(loops_graph(2, 1), loops_graph(1, 2))


def test_isomorphic_after_relabeling():
    star = star_graph(0, 1, 5, 2)
    assert is_isomorphic(star, shuffled(star, seed=7))


def test_weight_sequences_distinguish():
    g1 = StableGraph([(1, 2)], [(1, 1)])
    g2 = StableGraph([(1, 1)], [(1, 1), (1, 1)])
    assert not is_isomorphic(g1, g2)


def test_cycle_structure_distinguishes_satellite_graphs():
    # Same vertex count, edge count, weights and degrees; different cycles.
    g_two_cycles = satellite_graph(6, 1, 3)
    g_three_cycles = satellite_graph(6, 1, 2)
    assert g_two_cycles.vertex_count == g_three_cycles.vertex_count
    assert g_two_cycles.edge_count == g_three_cycles.edge_count
    assert not is_isomorphic(g_two_cycles, g_three_cycles)
    assert is_isomorphic(g_two_cycles, shuffled(g_two_cycles, seed=3))


@pytest.mark.parametrize("budget", [2.5, True, "5"], ids=["float", "bool", "str"])
def test_budget_is_read_by_the_integer_rule(budget):
    # Graphs of different sizes, so is_isomorphic reads the budget before
    # it compares sizes.
    message = f"budget must be an integer, got {budget!r}"
    with pytest.raises(TypeError) as info:
        canonical_form(loops_graph(0, 2), budget)
    assert str(info.value) == message
    with pytest.raises(TypeError) as info:
        is_isomorphic(loops_graph(0, 2), star_graph(0, 1, 3, 1), budget)
    assert str(info.value) == message


def test_budget_is_reported():
    big = star_graph(0, 1, 14, 1)
    with pytest.raises(BudgetExceededError, match="budget"):
        canonical_form(big)
    assert canonical_form(big, budget=20) == canonical_form(shuffled(big, 1), budget=20)


def test_leaf_limit_is_reported(monkeypatch):
    # The Petersen graph is vertex-transitive, so refinement alone cannot
    # decide it and the search reaches four leaves.
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    petersen = StableGraph([(i, 0) for i in range(10)], outer + inner + spokes)
    monkeypatch.setattr(stable_graphs, "_LEAF_LIMIT", 1)
    with pytest.raises(BudgetExceededError, match="search leaves"):
        canonical_form(petersen)


def test_a_search_deeper_than_the_recursion_limit_succeeds(recursion_headroom):
    # The paired graph's search has about one level per satellite pair, some
    # 150 here; it walks them in one loop, so the stack does not grow with them.
    paired = expected_graph("arc-plus-closed", 300, m=1, d=2)
    with recursion_headroom(100):
        form = canonical_form(paired, budget=302)
    assert form == canonical_form(shuffled(paired, 1), budget=302)


@pytest.mark.parametrize("n, classes", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112)])
def test_canonical_form_counts_connected_simple_graphs(n, classes):
    # Every connected labeled simple graph on n vertices; the number of
    # isomorphism classes is OEIS A001349.
    pairs = list(itertools.combinations(range(n), 2))
    forms = set()
    for mask in range(1 << len(pairs)):
        edges = [pair for bit, pair in enumerate(pairs) if mask >> bit & 1]
        try:
            graph = StableGraph([(v, 0) for v in range(n)], edges)
        except ValueError as exc:
            assert str(exc) == "graph is not connected"
            continue
        forms.add(canonical_form(graph))
    assert len(forms) == classes


def _connected(n, pairs, multiplicities):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for (a, b), k in zip(pairs, multiplicities):
        if k:
            parent[find(a)] = find(b)
    return len({find(v) for v in range(n)}) == 1


# (vertex count, weights, loops per vertex, multiplicity per vertex pair).
# The full family is taken up to 3 vertices; at 4 vertices it has about
# 160k connected graphs, too many for a quick test, so each slice there
# keeps two of its three ranges whole.
DIFFERENTIAL_FAMILY = [
    (1, (0, 1), (0, 1), (0, 1, 2)),
    (2, (0, 1), (0, 1), (0, 1, 2)),
    (3, (0, 1), (0, 1), (0, 1, 2)),
    (4, (0, 1), (0, 1), (0, 1)),
    (4, (0, 1), (0,), (0, 1, 2)),
    (4, (0,), (0, 1), (0, 1, 2)),
    (5, (0,), (0,), (0, 1)),
]


@pytest.mark.parametrize(
    "n, weights, loops, multiplicities",
    DIFFERENTIAL_FAMILY,
    ids=[f"n{n}-w{max(w)}-l{max(l)}-m{max(m)}" for n, w, l, m in DIFFERENTIAL_FAMILY],
)
def test_canonical_form_agrees_with_brute_force_isomorphism(n, weights, loops, multiplicities):
    # Every connected labeled graph of the slice.  Two graphs are isomorphic
    # exactly when their minimum over all vertex permutations of (weights,
    # loops, pair multiplicities) agree; canonical form equality must be
    # that same relation.
    pairs = list(itertools.combinations(range(n), 2))
    permutations = list(itertools.permutations(range(n)))
    forms_by_key = {}
    for pair_mults in itertools.product(multiplicities, repeat=len(pairs)):
        if not _connected(n, pairs, pair_mults):
            continue
        mult = [[0] * n for _ in range(n)]
        for (a, b), k in zip(pairs, pair_mults):
            mult[a][b] = mult[b][a] = k
        edges = [pair for pair, k in zip(pairs, pair_mults) for _ in range(k)]
        for ws in itertools.product(weights, repeat=n):
            for ls in itertools.product(loops, repeat=n):
                key = min(
                    tuple((ws[p[i]], ls[p[i]]) for i in range(n))
                    + tuple(mult[p[i]][p[j]] for i, j in pairs)
                    for p in permutations
                )
                graph = StableGraph(
                    list(enumerate(ws)), edges + [(v, v) for v in range(n) if ls[v]]
                )
                forms_by_key.setdefault(key, set()).add(canonical_form(graph))
    assert all(len(forms) == 1 for forms in forms_by_key.values())
    assert len(set().union(*forms_by_key.values())) == len(forms_by_key)


def _benchmark_workloads():
    """``benchmark/workloads.py``, loaded by path: the benchmark is not a
    package, and its graph generators are the inputs digested below."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# sha256 of the forms of both graphs of every op of the benchmark's
# canon-generic workload for seed 1 (2200 random stable graphs with planted
# twin blocks, 3-24 vertices, each with a relabeling), in generation order.
CANON_GENERIC_DIGEST = "9fe87a50e668d9e7a851bd68fed1100de58a3732054a73732768cfc9bf8ec31b"

# sha256 of the repr of the list of (leaves, automorphisms found) of those
# 4400 searches, in call order: 4416 leaves and 16 automorphisms in all.
CANON_GENERIC_SHAPE_DIGEST = "8162e53db0b4c1e9a5216ac3336c6a634fafe2255bb181e8887e03bb05a4c20f"


def test_canon_generic_forms_match_the_committed_digest(search_shapes, form_line):
    workloads = _benchmark_workloads()
    rng = random.Random(1)
    budget = max(workloads.CANON_SIZES)
    digest = hashlib.sha256()
    calls = 0
    for n in workloads.CANON_SIZES:
        for _ in range(workloads.CANON_PAIRS_PER_SIZE):
            graph = workloads.random_stable_graph(rng, n)
            for g in (graph, workloads.relabeled(rng, graph)):
                digest.update(form_line(canonical_form(g, budget)))
                calls += 1
    assert calls == 4400
    assert digest.hexdigest() == CANON_GENERIC_DIGEST
    assert len(search_shapes) == calls
    assert [sum(counts) for counts in zip(*search_shapes)] == [4416, 16]
    assert hashlib.sha256(repr(search_shapes).encode()).hexdigest() == CANON_GENERIC_SHAPE_DIGEST


def test_large_symmetric_graphs_canonicalize_quickly():
    for d in (1, 2, 5, 25, 50):
        g = satellite_graph(50, 1, d)
        h = shuffled(g, seed=d)
        assert is_isomorphic(g, h, budget=60)
    assert not is_isomorphic(
        satellite_graph(50, 1, 2), satellite_graph(50, 1, 1), budget=60
    )


def test_star_with_multiplicities():
    g = star_graph(0, 1, 25, 2)
    assert is_isomorphic(g, shuffled(g, seed=11), budget=60)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_canonical_form_is_relabeling_invariant(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    weights = data.draw(
        st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n)
    )
    # Random connected multigraph: a random spanning tree plus extras.
    edges = []
    for v in range(1, n):
        edges.append((data.draw(st.integers(min_value=0, max_value=v - 1)), v))
    extra = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=6,
        )
    )
    edges += extra
    g = StableGraph(list(enumerate(weights)), edges)
    seed = data.draw(st.integers(min_value=0, max_value=2**16))
    assert canonical_form(g) == canonical_form(shuffled(g, seed))
    assert g.genus() == shuffled(g, seed).genus()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_canonical_form_separates_non_isomorphic_small_graphs(data):
    # Brute-force isomorphism on tiny graphs as an independent oracle.
    def build(data, tag):
        n = data.draw(st.integers(min_value=1, max_value=5), label=f"n{tag}")
        weights = data.draw(
            st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n),
            label=f"w{tag}",
        )
        edges = []
        for v in range(1, n):
            edges.append((data.draw(st.integers(min_value=0, max_value=v - 1)), v))
        extra = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                max_size=4,
            ),
            label=f"e{tag}",
        )
        return StableGraph(list(enumerate(weights)), edges + extra)

    g1 = build(data, 1)
    g2 = build(data, 2)
    assert is_isomorphic(g1, g2) == brute_isomorphic(g1, g2)


def brute_isomorphic(g1: StableGraph, g2: StableGraph) -> bool:
    """Weight-preserving isomorphism by trying every vertex bijection."""
    if g1.vertex_count != g2.vertex_count or g1.edge_count != g2.edge_count:
        return False
    ids1 = [v for v, _ in g1.vertices]
    target = Counter(tuple(sorted(e)) for e in g2.edges)
    for perm in itertools.permutations([v for v, _ in g2.vertices]):
        mapping = dict(zip(ids1, perm))
        if any(g1.weight(v) != g2.weight(mapping[v]) for v in ids1):
            continue
        if Counter(tuple(sorted((mapping[a], mapping[b]))) for a, b in g1.edges) == target:
            return True
    return False


@pytest.mark.parametrize("n", [96, 240])
def test_twin_seeds_decide_the_paired_graph_in_one_leaf(n):
    # A hub plus n/2 satellite pairs: the automorphism group is S2 wr S(n/2),
    # and the seeded transpositions and pair swaps hold all of it, so the
    # search goes straight down one path.  Every node's target cell is whole
    # satellite pairs at consecutive positions, so no node folds a seed.
    search = stable_graphs._CanonicalSearch(expected_graph("arc-plus-closed", n, m=1, d=2))
    search.run()
    assert search.leaves == 1
    assert search.automorphisms == []
    assert search.seed_folds == 0


@st.composite
def planted_twin_graphs(draw, max_vertices: int):
    """A connected core plus copies of blocks of 2-4 twins.  Each block has
    one weight, one loop count, one multiplicity between members (0 for
    non-adjacent twins) and the same edges to its 1-2 anchors in the core,
    so copies of one block are swappable."""
    core = draw(st.integers(min_value=1, max_value=3))
    weights = [draw(st.integers(min_value=0, max_value=1)) for _ in range(core)]
    edges = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, core)]
    edges += draw(
        st.lists(st.tuples(st.integers(0, core - 1), st.integers(0, core - 1)), max_size=2)
    )
    v = core
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if v + 2 > max_vertices:
            break
        size = draw(st.integers(min_value=2, max_value=min(4, max_vertices - v)))
        anchors = draw(st.lists(st.integers(0, core - 1), min_size=1, max_size=2, unique=True))
        anchor_edges = [a for a in anchors for _ in range(draw(st.integers(1, 2)))]
        inner, loops = draw(st.integers(0, 2)), draw(st.integers(0, 1))
        weight = draw(st.integers(0, 1))
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            if v + size > max_vertices:
                break
            members = range(v, v + size)
            for b in members:
                weights.append(weight)
                edges += [(anchor, b) for anchor in anchor_edges]
                edges += [(b, b)] * loops
            edges += [pair for pair in itertools.combinations(members, 2) for _ in range(inner)]
            v += size
    return StableGraph(list(enumerate(weights)), edges)


@settings(max_examples=150, deadline=None)
@given(planted_twin_graphs(12), st.integers(min_value=0, max_value=2**16))
def test_planted_twin_blocks_are_relabeling_invariant(graph, seed):
    assert canonical_form(graph) == canonical_form(shuffled(graph, seed))


@settings(max_examples=150, deadline=None)
@given(planted_twin_graphs(6), st.data())
def test_planted_twin_blocks_agree_with_brute_force_isomorphism(graph, data):
    # The other graph has the same weights and degrees: two edge ends are
    # exchanged, which may or may not give an isomorphic graph.
    assume(graph.edge_count >= 2)
    edges = list(graph.edges)
    i, j = data.draw(st.lists(st.integers(0, len(edges) - 1), min_size=2, max_size=2, unique=True))
    (a, b), (c, d) = edges[i], edges[j]
    edges[i], edges[j] = (a, d), (c, b)
    try:
        other = StableGraph(graph.vertices, edges)
    except ValueError:  # the exchange disconnected the graph
        assume(False)
    assert (canonical_form(graph) == canonical_form(other)) == brute_isomorphic(graph, other)


@st.composite
def random_graphs(draw, max_vertices: int):
    """A random spanning tree plus random edges and loops, weights 0-1."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    weights = [draw(st.integers(min_value=0, max_value=1)) for _ in range(n)]
    edges = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges += draw(st.lists(pairs, max_size=2 * n))
    return StableGraph(list(enumerate(weights)), edges)


@st.composite
def reweighted_pairs(draw, max_vertices: int):
    """A graph and the same graph with its weights moved onto other
    vertices: the edges and the weight multiset are kept."""
    graph = draw(random_graphs(max_vertices))
    weights = draw(st.permutations([w for _, w in graph.vertices]))
    return graph, StableGraph(zip((v for v, _ in graph.vertices), weights), graph.edges)


@settings(max_examples=150, deadline=None)
@given(reweighted_pairs(6))
# A path 1-2-3 with a loop at 1: every vertex has its own degree, so only
# the weights on 2 and 3 tell the graphs apart.
@example(
    (
        StableGraph([(1, 0), (2, 1), (3, 2)], [(1, 1), (1, 2), (2, 3)]),
        StableGraph([(1, 0), (2, 2), (3, 1)], [(1, 1), (1, 2), (2, 3)]),
    )
)
def test_weight_placement_alone_decides_isomorphism(pair):
    # The certificate holds no weights, so this rests on weight leading the
    # key of the initial cells.
    assert is_isomorphic(*pair) == brute_isomorphic(*pair)


def multiplicities(graph):
    """The graph's multiplicities read from its own edge list, by vertex
    index as the search numbers vertices: ``table[i][j]`` counts the edges
    between the i-th and j-th vertices, with the loops on the diagonal."""
    index_of = {v: i for i, (v, _) in enumerate(graph.vertices)}
    table = [[0] * graph.vertex_count for _ in graph.vertices]
    for a, b in graph.edges:
        i, j = index_of[a], index_of[b]
        table[i][j] += 1
        if i != j:
            table[j][i] += 1
    return table


# Closed-form graphs whose edges have multiplicity 3 or more, which drawn
# graphs rarely hold: a hub with four triple edges, seven parallel edges,
# twelve loops, and triple spokes to pairs joined by double edges.
HIGH_MULTIPLICITY_GRAPHS = [
    expected_graph("one-closed", 12, m=3),
    expected_graph("two-arcs", 12, k=5),
    expected_graph("one-arc", 12, m=1),
    expected_graph("arc-plus-closed", 12, m=3, d=2),
]


def brute_interchangeable(graph, cell) -> bool:
    """Every transposition inside the cell preserves weights and every
    multiplicity, loops included."""
    table = multiplicities(graph)
    vertices = range(graph.vertex_count)
    for x, y in itertools.combinations(cell, 2):
        swap = {x: y, y: x}
        if graph.vertices[x][1] != graph.vertices[y][1]:
            return False
        if any(
            table[swap.get(a, a)][swap.get(b, b)] != table[a][b]
            for a in vertices
            for b in vertices
        ):
            return False
    return True


def as_cells(cell_of, members):
    """The search's partition pair as a list of cells in order, after
    checking that each cell's start is its position and every vertex's
    ``cell_of`` entry names its cell."""
    cells = [members[start] for start in sorted(members)]
    starts = itertools.accumulate([0] + [len(cell) for cell in cells[:-1]])
    assert list(starts) == sorted(members)
    assert all(cell_of[v] == start for start, cell in members.items() for v in cell)
    return cells


def as_pair(cells):
    """A list of cells as the search's ``(cell_of, members)`` pair."""
    cell_of, members, start = [0] * sum(map(len, cells)), {}, 0
    for cell in cells:
        members[start] = list(cell)
        for v in cell:
            cell_of[v] = start
        start += len(cell)
    return cell_of, members


def split(cells, index, fragments):
    """``cells`` with cell ``index`` replaced by ``fragments``, through the
    search's own ``_split``."""
    cell_of, members = as_pair(cells)
    stable_graphs._CanonicalSearch._split(cell_of, members, cell_of[cells[index][0]], fragments)
    return as_cells(cell_of, members)


def refined(search, cells, touched):
    """``cells`` refined by the search's ``_refine`` from ``touched``."""
    cell_of, members = as_pair(cells)
    assert search._refine(cell_of, members, touched) is None
    return as_cells(cell_of, members)


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_graphs(8), planted_twin_graphs(8)))
@example(HIGH_MULTIPLICITY_GRAPHS[0])
@example(HIGH_MULTIPLICITY_GRAPHS[1])
@example(HIGH_MULTIPLICITY_GRAPHS[2])
@example(HIGH_MULTIPLICITY_GRAPHS[3])
# 0 and 1 have the neighbour set {2, 3} but with multiplicities 2, 1 and
# 1, 2, in an equitable partition: only a multiset comparison refuses them.
@example(
    StableGraph([(0, 0), (1, 0), (2, 1), (3, 1)], [(0, 2), (0, 2), (0, 3), (1, 2), (1, 3), (1, 3)])
)
def test_interchangeable_cells_agree_with_brute_force(graph):
    # On the refined root and on one child that individualizes the first
    # member of the root's first non-singleton cell.
    search = stable_graphs._CanonicalSearch(graph)
    root = refined(search, as_cells(*search._initial_cells()), range(search.n))
    partitions = [root]
    target = next((i for i, cell in enumerate(root) if len(cell) > 1), None)
    if target is not None:
        first = root[target][0]
        child = split(root, target, [[first], root[target][1:]])
        partitions.append(refined(search, child, [first]))
    for cells in partitions:
        # The search sorts no cell: refinement keeps every cell ascending.
        assert sorted(v for cell in cells for v in cell) == list(range(search.n))
        assert all(cell == sorted(cell) for cell in cells)
        for cell in cells:
            if len(cell) > 1:
                assert search._interchangeable(cell) == brute_interchangeable(graph, cell)


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_graphs(12), planted_twin_graphs(12)))
@example(HIGH_MULTIPLICITY_GRAPHS[0])
@example(HIGH_MULTIPLICITY_GRAPHS[1])
@example(HIGH_MULTIPLICITY_GRAPHS[2])
@example(HIGH_MULTIPLICITY_GRAPHS[3])
@example(expected_graph("arc-plus-closed", 96, m=1, d=2))
# Twin pairs {1, 2} and {3, 4} on one hub have equal quotient rows, but only
# the first pair is joined: the two classes are not swappable.
@example(StableGraph([(v, 0) for v in range(5)], [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]))
def test_every_seed_exchanges_two_equal_blocks_as_an_automorphism(graph):
    table = multiplicities(graph)
    vertices = range(graph.vertex_count)
    for block_a, block_b in stable_graphs._CanonicalSearch(graph)._twin_seeds():
        assert len(block_a) == len(block_b) > 0
        assert len(set(block_a + block_b)) == 2 * len(block_a)
        image = list(vertices)
        for x, y in zip(block_a, block_b):
            image[x], image[y] = y, x
        assert all(graph.vertices[image[v]][1] == graph.vertices[v][1] for v in vertices)
        # The table holds the loops on its diagonal.
        assert all(table[image[a]][image[b]] == table[a][b] for a in vertices for b in vertices)


def reference_candidates(search, cell_of, members, start):
    """The node's candidates by the seed fold alone, with no shortcut: each
    member of the target cell that is the least of its orbit under every
    seed whose blocks lie in the cell and every automorphism found since
    the node began.  Reads ``search.seeds``, so it starts after the search's
    own candidates have."""
    target = members[start]
    parent = {v: v for v in target}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def fold(pairs):
        for x, y in pairs:
            rx, ry = find(x), find(y)
            parent[max(rx, ry)] = min(rx, ry)

    for block_a, block_b in search.seeds:
        if all(cell_of[v] == start for v in block_a + block_b):
            fold(zip(block_a, block_b))
    folded = len(search.automorphisms)
    for v in target:
        for a in search.automorphisms[folded:]:
            fold(zip(target, map(a.__getitem__, target)))
        folded = len(search.automorphisms)
        if find(v) == v:
            yield v


def assert_candidates_match_the_fold(graph):
    """Run the search and check, at every branching node, that its
    candidate sequence is the reference's.  The reference advances in step
    with the search's own candidates, so both see the same automorphisms.
    Returns the search."""
    search = stable_graphs._CanonicalSearch(graph)
    candidates = search._candidates

    def checked(cell_of, members, start):
        reference = reference_candidates(search, cell_of, members, start)
        for v in candidates(cell_of, members, start):
            assert next(reference, None) == v
            yield v
        assert next(reference, None) is None

    search._candidates = checked
    search.run()
    return search


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_graphs(12), planted_twin_graphs(12)))
def test_candidates_match_the_seed_fold(graph):
    assert_candidates_match_the_fold(graph)


@pytest.mark.parametrize("m, d", [(1, 2), (2, 2), (1, 96)])
def test_candidates_match_the_seed_fold_on_cycle_graphs(m, d):
    assert_candidates_match_the_fold(expected_graph("arc-plus-closed", 96, m=m, d=d))


@st.composite
def target_cells(draw):
    """A planted twin graph and a cell of it: the union of some of its
    swappable classes with up to two vertices toggled, so that the cell is
    whole classes, at consecutive positions or not, or holds a part of one."""
    graph = draw(planted_twin_graphs(12))
    search = stable_graphs._CanonicalSearch(graph)
    search._twin_seeds()
    slots = draw(st.sets(st.sampled_from(sorted(set(search.slot_of.values())) or [None])))
    cell = {v for v, slot in search.slot_of.items() if slot in slots}
    cell ^= draw(st.sets(st.integers(0, search.n - 1), max_size=2))
    assume(cell)
    return graph, sorted(cell)


# A hub and three pairs {1, 2}, {3, 4}, {5, 6}, the classes of one group.
PAIRS = expected_graph("arc-plus-closed", 6, m=1, d=2)
# A hub and four pairs: {1, 2} and {3, 4} joined twice, {5, 6} and {7, 8}
# once, so the classes form two groups of two, at slots 0-1 and 2-3.
TWO_GROUPS = StableGraph(
    [(v, 0) for v in range(9)],
    [(0, v) for v in range(1, 9)] + [(1, 2), (1, 2), (3, 4), (3, 4), (5, 6), (7, 8)],
)


@settings(max_examples=200, deadline=None)
@given(target_cells())
@example((PAIRS, [1, 2, 3, 4, 5, 6]))
@example((PAIRS, [3, 4, 5, 6]))
# Whole classes at positions 0 and 2: the swaps that would join them move 3
# and 4, which lie outside the cell, so the cell holds two orbits.
@example((PAIRS, [1, 2, 5, 6]))
# Part of a class: 1 is outside, so 2 is its own orbit.
@example((PAIRS, [2, 3, 4]))
@example((PAIRS, [0, 1, 2, 3, 4]))
# Whole classes at consecutive slots, but of two groups: no seed swaps them.
@example((TWO_GROUPS, [3, 4, 5, 6]))
@example((TWO_GROUPS, [5, 6, 7, 8]))
def test_candidates_match_the_seed_fold_on_any_target_cell(pair):
    # The target cell leads and every other vertex is a singleton after it.
    graph, cell = pair
    search = stable_graphs._CanonicalSearch(graph)
    cell_of, members = as_pair([cell] + [[v] for v in range(search.n) if v not in cell])
    ours = list(search._candidates(cell_of, members, 0))
    assert ours == list(reference_candidates(search, cell_of, members, 0))


def every_cell_refine(graph, cells):
    """The reference refinement: each pass keys every member of every
    non-singleton cell by its multiplicities to other vertices into all
    cells, indexed by cell, until a pass splits no cell."""
    table = multiplicities(graph)
    while True:
        cell_of = {v: ci for ci, cell in enumerate(cells) for v in cell}
        new_cells = []
        for cell in cells:
            buckets = {}
            for v in cell:
                counts = [0] * len(cells)
                for u, mult in enumerate(table[v]):
                    if u != v:
                        counts[cell_of[u]] += mult
                buckets.setdefault(tuple(counts), []).append(v)
            new_cells += [buckets[key] for key in sorted(buckets)]
        if len(new_cells) == len(cells):
            return cells
        cells = new_cells


def assert_refine_matches_reference(graph):
    """Along the search's first path, compare ``_refine`` with the reference:
    at the root, after fixing an interchangeable cell, and after each
    individualization.  Each node's target cell is also fixed whole, which
    gives a child whose touched vertices are a cell's members but the first,
    whether or not the cell is interchangeable.  Every refined cell's members
    have neighbour lists of one length, which the keys' soundness needs."""
    search = stable_graphs._CanonicalSearch(graph)

    def checked(cells, touched):
        result = refined(search, cells, touched)
        for cell in result:
            assert len({len(search.neighbours[v]) for v in cell}) == 1
        return result

    cells, touched = as_cells(*search._initial_cells()), range(search.n)
    while True:
        expected = every_cell_refine(graph, [list(cell) for cell in cells])
        assert checked(cells, touched) == expected
        target = next((i for i, cell in enumerate(expected) if len(cell) > 1), None)
        if target is None:
            return
        cell = expected[target]
        fixed = split(expected, target, [[v] for v in cell])
        assert checked(fixed, cell[1:]) == every_cell_refine(graph, fixed)
        if search._interchangeable(cell):
            cells, touched = fixed, cell[1:]
        else:
            cells, touched = split(expected, target, [[cell[0]], cell[1:]]), [cell[0]]


@settings(max_examples=120, deadline=None)
@given(st.one_of(random_graphs(40), planted_twin_graphs(40)))
def test_refine_matches_the_every_cell_reference(graph):
    assert_refine_matches_reference(graph)


@pytest.mark.parametrize("n, d", [(24, 1), (24, 2), (24, 3), (24, 24), (60, 2), (60, 5), (60, 60)])
def test_refine_matches_the_every_cell_reference_on_cycle_graphs(n, d):
    # A hub and n satellites in cycles of length d: 25 and 61 vertices.
    assert_refine_matches_reference(expected_graph("arc-plus-closed", n, m=1, d=d))


def assert_frames_survive_their_subtrees(graph) -> int:
    """Run the search and check that each branching node's partition pair
    still equals its snapshot, member lists as tuples, once the whole tree
    is searched: a child's copies share member lists with the frame, so a
    list changed in place below a node would show here.  Returns the number
    of branching nodes."""
    search = stable_graphs._CanonicalSearch(graph)
    recorded = []
    candidates = search._candidates

    def recording_candidates(cell_of, members, start):
        snapshot = (list(cell_of), {s: tuple(cell) for s, cell in members.items()})
        recorded.append((cell_of, members, snapshot))
        return candidates(cell_of, members, start)

    search._candidates = recording_candidates
    search.run()
    for cell_of, members, (cell_of_then, members_then) in recorded:
        assert cell_of == cell_of_then
        assert {s: tuple(cell) for s, cell in members.items()} == members_then
    return len(recorded)


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_graphs(12), planted_twin_graphs(12)))
def test_a_frames_partition_survives_its_subtree(graph):
    assert_frames_survive_their_subtrees(graph)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 10, 60])
def test_a_frames_partition_survives_its_subtree_on_cycle_graphs(d):
    # d = 1 is left out: its satellites are interchangeable, so no node
    # branches.
    graph = expected_graph("arc-plus-closed", 60, m=1, d=d)
    assert assert_frames_survive_their_subtrees(graph) > 0


@pytest.mark.parametrize("d, leaves", [(2, 1), (720, 3)])
def test_large_cycle_graphs_canonicalize(d, leaves, search_shapes):
    # 721 vertices: the paired graph (d=2) and the full cycle (d=720).
    graph = expected_graph("arc-plus-closed", 720, m=1, d=d)
    assert canonical_form(graph, 721) == canonical_form(shuffled(graph, d), 721)
    assert [shape[0] for shape in search_shapes] == [leaves, leaves]
    search = stable_graphs._CanonicalSearch(graph)
    assert search.run() == reference_certificate(graph, search.best_order)


def reference_certificate(graph, order):
    """The certificate read entry by entry: every entry of the upper
    triangle row by row, loop counts on the diagonal."""
    table = multiplicities(graph)
    flat = []
    for i, vi in enumerate(order):
        flat += (table[vi][vj] for vj in order[i:])
    return tuple(flat)


def assert_weights_ascend(search, order):
    """The certificate holds no weights: it relies on every leaf listing
    them in ascending order."""
    weights = [search.weights[v] for v in order]
    assert weights == sorted(weights)


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_graphs(10), planted_twin_graphs(10)), st.randoms(use_true_random=False))
@example(HIGH_MULTIPLICITY_GRAPHS[0], random.Random(1))
@example(HIGH_MULTIPLICITY_GRAPHS[1], random.Random(1))
@example(HIGH_MULTIPLICITY_GRAPHS[2], random.Random(1))
@example(HIGH_MULTIPLICITY_GRAPHS[3], random.Random(1))
@example(HIGH_MULTIPLICITY_GRAPHS[3], random.Random(2))
def test_certificate_matches_the_entry_by_entry_reading(graph, rng):
    search = stable_graphs._CanonicalSearch(graph)
    order = list(range(search.n))
    rng.shuffle(order)
    position = [0] * search.n
    for i, v in enumerate(order):
        position[v] = i
    assert search._certificate(order, position) == reference_certificate(graph, order)


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_graphs(12), planted_twin_graphs(12)))
def test_every_leaf_lists_the_weights_in_ascending_order(graph):
    search = stable_graphs._CanonicalSearch(graph)
    certificate = search._certificate
    leaves = 0

    def checked(order, position):
        nonlocal leaves
        leaves += 1
        assert_weights_ascend(search, order)
        return certificate(order, position)

    search._certificate = checked
    search.run()
    assert leaves == search.leaves


def test_every_leaf_certificate_of_small_canon_generic_graphs(monkeypatch):
    # Every leaf of the canon-generic seed-1 searches on 3-8 vertices.
    certificate = stable_graphs._CanonicalSearch._certificate
    leaves = 0

    def checked(search, order, position):
        nonlocal leaves
        leaves += 1
        # The search passes the leaf's cell_of as the positions: the fill
        # is right only if cell_of is the inverse of the leaf's order.
        assert [position[v] for v in order] == list(range(search.n))
        assert_weights_ascend(search, order)
        result = certificate(search, order, position)
        assert result == reference_certificate(graph, order)
        return result

    monkeypatch.setattr(stable_graphs._CanonicalSearch, "_certificate", checked)
    workloads = _benchmark_workloads()
    rng = random.Random(1)
    for n in workloads.CANON_SIZES:
        if n > 8:
            break
        for _ in range(workloads.CANON_PAIRS_PER_SIZE):
            drawn = workloads.random_stable_graph(rng, n)
            # ``checked`` reads the graph being canonicalized.
            for graph in (drawn, workloads.relabeled(rng, drawn)):
                canonical_form(graph)
    assert leaves == 1206  # over 1200 searches


def test_canonical_invariance_on_adversarial_structures():
    # Graphs whose minimum-certificate leaf is easy to miss with unsound
    # pruning: cycles, pendant mixes, and multiedge pairs.
    cycle6 = StableGraph(
        [(i, 1) for i in range(6)], [(i, (i + 1) % 6) for i in range(6)]
    )
    two_triangles = StableGraph(
        [(0, 0)] + [(i, 1) for i in range(1, 7)],
        [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (0, 1), (0, 4), (0, 2)],
    )
    mixed = StableGraph(
        [(0, 0), (1, 0), (2, 0), (3, 0)],
        [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (2, 3), (1, 1), (0, 0), (2, 2), (3, 3)],
    )
    pendant = StableGraph(
        [(0, 2), (1, 1), (2, 1), (3, 1), (4, 1)],
        [(0, 1), (0, 2), (0, 3), (3, 4), (1, 2)],
    )
    for graph in (cycle6, two_triangles, mixed, pendant):
        reference = canonical_form(graph)
        for seed in range(30):
            assert canonical_form(shuffled(graph, seed)) == reference


def test_to_text_format():
    g = StableGraph([(1, 0)], [(1, 1), (1, 1)])
    assert g.to_text() == "V 1 w=0\nE 1 1\nE 1 1\n"


def test_to_text_single_vertex():
    assert StableGraph([(1, 5)]).to_text() == "V 1 w=5\n"


def test_to_dot_loops():
    g = StableGraph([(1, 0)], [(1, 1), (1, 1)])
    dot = g.to_dot()
    assert dot.startswith("graph stable {")
    assert dot.count('"v1" -- "v1";') == 2
    assert '"v1" [label="w=0"];' in dot


def test_dot_smoke_for_family_sized_graphs():
    for n in range(3, 13):
        for graph in (loops_graph(0, n), star_graph(0, 1, n, 1), satellite_graph(n, 1, n)):
            text = graph.to_dot()
            assert text.startswith("graph stable {") and text.endswith("}\n")


def test_deterministic_output():
    g1 = StableGraph([(2, 1), (1, 0)], [(2, 1), (1, 1), (1, 2)])
    g2 = StableGraph([(1, 0), (2, 1)], [(1, 2), (2, 1), (1, 1)])
    assert g1.to_text() == g2.to_text()
    assert g1.to_dot() == g2.to_dot()


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        ([], [], "a graph needs at least one vertex"),
        ([(1, 0), (2, -1)], [(1, 2)], "vertex 2 has negative weight"),
    ],
    ids=["no-vertices", "negative-weight"],
)
def test_stable_graph_refusals_give_their_exact_message(vertices, edges, message):
    with pytest.raises(ValueError) as info:
        StableGraph(vertices, edges)
    assert str(info.value) == message
