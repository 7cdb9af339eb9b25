import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strata_limits.groups import closure, dihedral, left_cosets
from strata_limits.limit_graphs import build_stratum_graph
from strata_limits.oracle import _class_minima, audit_graph, components_by_bfs
from strata_limits.pyramids import (
    PyramidMulticurveParams,
    make_multicurve,
    pyramid_action,
)
from strata_limits.stable_graphs import StableGraph


def test_identity_generators_give_singleton_orbits():
    g = dihedral(7)
    assert components_by_bfs(g, [g.identity]) == g.order


def test_reflection_generator_gives_n_orbits():
    for n in (3, 5, 10):
        g = dihedral(n)
        assert components_by_bfs(g, [g.by_name("r s")]) == n


@settings(max_examples=80)
@given(st.data())
def test_orbit_count_times_subgroup_order_is_group_order(data):
    n = data.draw(st.integers(min_value=1, max_value=20))
    g = dihedral(n)
    gens = data.draw(
        st.lists(st.integers(min_value=0, max_value=2 * n - 1), min_size=1, max_size=4)
    )
    assert components_by_bfs(g, gens) * closure(g, gens).order == g.order


def test_out_of_range_generator_rejected():
    g = dihedral(3)
    for bad in (-1, 6):
        with pytest.raises(ValueError, match=f"generator {bad} out of range"):
            components_by_bfs(g, [0, bad])


def test_no_generators_rejected():
    with pytest.raises(ValueError, match="^at least one generator is required$"):
        components_by_bfs(dihedral(3), [])


@settings(max_examples=80)
@given(st.data())
def test_class_minima_are_the_left_coset_labels(data):
    # The union-find route and the coset route label every element alike.
    n = data.draw(st.integers(min_value=1, max_value=20))
    g = dihedral(n)
    gens = data.draw(
        st.lists(st.integers(min_value=0, max_value=2 * n - 1), min_size=1, max_size=4)
    )
    assert _class_minima(g, gens) == list(left_cosets(closure(g, gens)))


def test_audit_report_passes_for_clean_build():
    fam = pyramid_action(5)
    mc = make_multicurve(fam, PyramidMulticurveParams("one-arc", "direct"))
    graph = build_stratum_graph(fam.action, mc)
    report = audit_graph(graph)
    assert report.ok
    names = [c.name for c in report.checks]
    assert "genus conservation" in names
    assert "handshake (degree sum)" in names
    assert any("vertices over piece" in n for n in names)
    text = report.to_text()
    assert "[PASS] genus conservation: expected 5, got 5" in text
    assert "FAIL" not in text


def test_audit_counts_for_one_closed_family():
    fam = pyramid_action(6)
    # Image of index 2m = 4 yields n/m + 1 = 4 vertices and n = 6 edges.
    mc = make_multicurve(fam, PyramidMulticurveParams("one-closed", "right", 1))
    graph = build_stratum_graph(fam.action, mc)
    assert graph.vertex_count == 4
    assert graph.edge_count == 6
    report = audit_graph(graph)
    assert report.ok


def test_handshake_counts_edges_on_the_union_find_route():
    # A duplicated edge in the underlying graph keeps its degree sum equal
    # to twice its own edge count; only the union-find edge counts see it.
    fam = pyramid_action(6)
    mc = make_multicurve(fam, PyramidMulticurveParams("one-closed", "left", 1))
    graph = build_stratum_graph(fam.action, mc)
    underlying = graph.underlying
    graph.underlying = StableGraph(underlying.vertices, underlying.edges + underlying.edges[:1])
    report = audit_graph(graph)
    assert "[FAIL] handshake (degree sum): expected 14, got 12" in report.to_text()


def test_audit_json_shape():
    fam = pyramid_action(4)
    mc = make_multicurve(fam, PyramidMulticurveParams("one-arc", "twisted"))
    graph = build_stratum_graph(fam.action, mc)
    payload = audit_graph(graph).to_json_dict()
    assert payload["ok"] is True
    assert all(set(c) == {"name", "expected", "actual", "pass"} for c in payload["checks"])


def test_audit_passes_for_every_generated_spec():
    for n in (3, 7, 12):
        fam = pyramid_action(n)
        from strata_limits.pyramids import enumerate_parameters

        for params, _ in enumerate_parameters(n):
            mc = make_multicurve(fam, params)
            graph = build_stratum_graph(fam.action, mc)
            assert audit_graph(graph).ok, params.label()


def test_random_table_groups_orbit_identity():
    # Random permutation-generated groups of order <= 48, exercised through
    # a plain multiplication table.
    from strata_limits.groups import GroupTable

    rng = random.Random(20240817)
    built = 0
    while built < 8:
        degree = rng.randrange(3, 6)
        perms = []
        for _ in range(2):
            p = list(range(degree))
            rng.shuffle(p)
            perms.append(tuple(p))
        identity = tuple(range(degree))
        elements = {identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for x in frontier:
                for p in perms:
                    y = tuple(x[p[i]] for i in range(degree))
                    if y not in elements:
                        elements.add(y)
                        nxt.append(y)
            frontier = nxt
        if not 2 <= len(elements) <= 48:
            continue
        ordered = sorted(elements)
        index = {p: i for i, p in enumerate(ordered)}
        table = [
            [index[tuple(a[b[i]] for i in range(degree))] for b in ordered]
            for a in ordered
        ]
        group = GroupTable(table)
        built += 1
        for _ in range(5):
            gens = [rng.randrange(group.order) for _ in range(rng.randrange(1, 3))]
            assert components_by_bfs(group, gens) * closure(group, gens).order == group.order
