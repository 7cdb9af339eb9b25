import hashlib
from collections import Counter
from math import gcd

import pytest

from strata_limits.groups import closure
from strata_limits.limit_graphs import build_stratum_graph
from strata_limits.multicurves import curve_image_subgroup, piece_image_subgroup
from strata_limits.orbifolds import evaluate_word, riemann_hurwitz_genus, validate_action
from strata_limits.pyramids import (
    PyramidMulticurveParams,
    classify,
    enumerate_parameters,
    expected_graph,
    make_multicurve,
    proven_cycle_lengths,
    pyramid_action,
)
from strata_limits.stable_graphs import canonical_form, is_isomorphic


def rot_sym(group, rot_power, with_s):
    n = group.order // 2
    index = rot_power % n + (n if with_s else 0)
    return index


def dihedral_subgroup(group, *elements):
    return closure(group, elements)


def satellite_cycle_sizes(graph):
    """Component size multiset of the satellite subgraph (hub removed)."""
    hub = max((graph.degree(v), v) for v, _ in graph.vertices)[1]
    satellites = [v for v, _ in graph.vertices if v != hub]
    parent = {v: v for v in satellites}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in graph.edges:
        if a != hub and b != hub:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    return sorted(Counter(find(v) for v in satellites).values())


def test_pyramid_action_small_cases():
    for n in range(3, 61):
        action = pyramid_action(n).action
        assert validate_action(action) == []
        assert riemann_hurwitz_genus(action) == n


def test_pyramid_action_rejects_small_n():
    with pytest.raises(ValueError):
        pyramid_action(2)


def test_one_arc_bottom_left_image_subgroup():
    # The arc image subgroup is generated by r s and r^(2(k+1)).
    for n in (5, 8, 12):
        fam = pyramid_action(n)
        group = fam.action.group
        for k in range(0, n):
            mc = make_multicurve(fam, PyramidMulticurveParams("one-arc", "bottom-left", k))
            got = curve_image_subgroup(fam.action, mc.curves[0])
            expected = dihedral_subgroup(
                group, rot_sym(group, 1, True), rot_sym(group, 2 * (k + 1), False)
            )
            assert got.elements == expected.elements


def test_one_arc_bottom_left_second_loop_image():
    # The wound boundary loop evaluates to s r^(2k+1).
    for n, k in ((7, 0), (7, 2), (10, 3)):
        fam = pyramid_action(n)
        group = fam.action.group
        mc = make_multicurve(fam, PyramidMulticurveParams("one-arc", "bottom-left", k))
        image = evaluate_word(fam.action, mc.curves[0].gamma_b)
        s = group.by_name("s")
        expected = group.table[s][rot_sym(group, 2 * k + 1, False)]
        assert image == expected


def test_one_arc_top_right_is_order_two():
    for n in (3, 6):
        fam = pyramid_action(n)
        mc = make_multicurve(fam, PyramidMulticurveParams("one-arc", "top-right"))
        h = curve_image_subgroup(fam.action, mc.curves[0])
        assert set(h.element_names()) == {"e", "r s"}


def test_one_arc_bottom_right_image_subgroup():
    for n in (6, 9):
        fam = pyramid_action(n)
        group = fam.action.group
        for k in range(0, n):
            mc = make_multicurve(fam, PyramidMulticurveParams("one-arc", "bottom-right", k))
            got = curve_image_subgroup(fam.action, mc.curves[0])
            expected = dihedral_subgroup(
                group, group.by_name("s"), rot_sym(group, 2 * k + 1, False)
            )
            assert got.elements == expected.elements


def test_two_arcs_boundary_products_are_consecutive_rotations():
    for n in (5, 8):
        fam = pyramid_action(n)
        group = fam.action.group
        for k in range(1, n + 1):
            from strata_limits.pyramids import _two_arcs_params

            mc = make_multicurve(fam, _two_arcs_params(n, k))
            c1, c2 = mc.curves
            (a1, b1), (a2, b2) = (
                (evaluate_word(fam.action, c.gamma_a), evaluate_word(fam.action, c.gamma_b))
                for c in (c1, c2)
            )
            assert group.table[a1][b1] == rot_sym(group, k, False)
            assert group.table[a2][b2] == rot_sym(group, k + 1, False)


def test_one_closed_leaf_subgroups():
    # Leaf piece subgroup generated by r s and r^(2t) (left family) or
    # r s and r^(2t+1) (right family).
    for n in (6, 9):
        fam = pyramid_action(n)
        group = fam.action.group
        for t in range(0, n // 2 + 1):
            mc = make_multicurve(fam, PyramidMulticurveParams("one-closed", "left", t))
            got = piece_image_subgroup(fam.action, mc.pieces[1])
            expected = dihedral_subgroup(
                group, rot_sym(group, 1, True), rot_sym(group, 2 * t, False)
            )
            assert got.elements == expected.elements
            mc = make_multicurve(fam, PyramidMulticurveParams("one-closed", "right", t))
            got = piece_image_subgroup(fam.action, mc.pieces[1])
            expected = dihedral_subgroup(
                group, rot_sym(group, 1, True), rot_sym(group, 2 * t + 1, False)
            )
            assert got.elements == expected.elements


def test_arc_plus_closed_cycle_lengths_by_variant():
    # top: one full cycle; middle: loops; bottom: the half-length split
    # when the satellite count is even; paired: double edges.
    n = 12
    fam = pyramid_action(n)

    graph = build_stratum_graph(
        fam.action, make_multicurve(fam, PyramidMulticurveParams("arc-plus-closed", "top-left", 0))
    ).underlying
    count = graph.vertex_count - 1
    assert satellite_cycle_sizes(graph) == [count]

    graph = build_stratum_graph(
        fam.action,
        make_multicurve(fam, PyramidMulticurveParams("arc-plus-closed", "middle-left", 3)),
    ).underlying
    assert satellite_cycle_sizes(graph) == [1] * (graph.vertex_count - 1)

    graph = build_stratum_graph(
        fam.action,
        make_multicurve(fam, PyramidMulticurveParams("arc-plus-closed", "bottom-left", 6)),
    ).underlying
    count = graph.vertex_count - 1
    assert count == 12
    assert satellite_cycle_sizes(graph) == [6, 6]

    graph = build_stratum_graph(
        fam.action,
        make_multicurve(fam, PyramidMulticurveParams("arc-plus-closed", "paired", 6)),
    ).underlying
    assert satellite_cycle_sizes(graph) == [2] * 6


def test_paired_variant_both_parity_routes():
    # Satellite count 6 (half odd) and 8 (half even) both pair up.
    for n, t in ((6, 3), (8, 4)):
        fam = pyramid_action(n)
        graph = build_stratum_graph(
            fam.action,
            make_multicurve(fam, PyramidMulticurveParams("arc-plus-closed", "paired", t)),
        ).underlying
        assert satellite_cycle_sizes(graph) == [2] * (n // 2)


def test_paired_variant_rejects_odd_satellite_count():
    fam = pyramid_action(9)
    with pytest.raises(ValueError, match="even satellite count"):
        make_multicurve(fam, PyramidMulticurveParams("arc-plus-closed", "paired", 9))


def test_general_variant_dials_any_divisor():
    fam = pyramid_action(12)
    for count, d in ((12, 3), (12, 4), (12, 6), (6, 3), (3, 3)):
        params = PyramidMulticurveParams(
            "arc-plus-closed", "general", count, cycle_length=d
        )
        graph = build_stratum_graph(fam.action, make_multicurve(fam, params)).underlying
        assert graph.vertex_count == count + 1
        assert satellite_cycle_sizes(graph) == [d] * (count // d)


def test_general_variant_odd_satellite_count():
    fam = pyramid_action(18)
    params = PyramidMulticurveParams("arc-plus-closed", "general", 9, cycle_length=3)
    graph = build_stratum_graph(fam.action, make_multicurve(fam, params)).underlying
    assert graph.vertex_count == 10
    assert satellite_cycle_sizes(graph) == [3, 3, 3]


def test_cycle_length_divides_satellite_count_everywhere():
    for n in (6, 8, 12):
        fam = pyramid_action(n)
        for params, label in enumerate_parameters(n, include_unproven=True):
            if params.family != "arc-plus-closed":
                continue
            graph = build_stratum_graph(
                fam.action, make_multicurve(fam, params)
            ).underlying
            sizes = satellite_cycle_sizes(graph)
            count = graph.vertex_count - 1
            assert len(set(sizes)) == 1
            assert count % sizes[0] == 0


def test_classify_counts_for_small_n():
    assert len(classify(3)) == 9
    assert len(classify(4)) == 14


def test_classify_one_arc_for_primes():
    for p in (5, 7, 11):
        one_arc = [
            e for e in classify(p) if e.witness.family == "one-arc"
        ]
        assert len(one_arc) == 2  # m = 1 and m = p


def test_classify_matches_expected_enumeration():
    for n in (3, 4, 6):
        got = {e.form for e in classify(n)}
        from strata_limits.stable_graphs import canonical_form
        from strata_limits.pyramids import _divisors

        expected = set()
        budget = n + 2
        for m in _divisors(n):
            expected.add(canonical_form(expected_graph("one-arc", n, m=m), budget))
            expected.add(canonical_form(expected_graph("one-closed", n, m=m), budget))
            for d in proven_cycle_lengths(n // m):
                expected.add(
                    canonical_form(expected_graph("arc-plus-closed", n, m=m, d=d), budget)
                )
        for k in range(1, n + 1):
            expected.add(canonical_form(expected_graph("two-arcs", n, k=k), budget))
        assert got == expected


def independent_class_count(n, include_unproven=False):
    # Counting argument: within each family the graphs are determined by
    # (loop count), (parallel edge count), (leaf count), (satellite count,
    # cycle length) respectively, and no graph can belong to two families
    # (vertex counts, weight patterns and loop placement separate them).
    divisors = [m for m in range(1, n + 1) if n % m == 0]
    one_arc = len(divisors)
    two_arcs = len({gcd(n, k) + gcd(n, k + 1) for k in range(1, n + 1)})
    one_closed = len(divisors)
    if include_unproven:
        apc = sum(len([d for d in range(1, n // m + 1) if (n // m) % d == 0]) for m in divisors)
    else:
        apc = sum(len(proven_cycle_lengths(n // m)) for m in divisors)
    return one_arc + two_arcs + one_closed + apc


def test_classify_count_matches_counting_argument():
    for n in range(3, 15):
        assert len(classify(n)) == independent_class_count(n)
    assert len(classify(12, include_unproven=True)) == independent_class_count(
        12, include_unproven=True
    )


def test_classify_deterministic_and_parallel_agree():
    sequential = classify(6)
    again = classify(6)
    assert [e.form for e in sequential] == [e.form for e in again]
    assert [e.description for e in sequential] == [e.description for e in again]


def test_expected_graph_one_closed_extreme():
    g = expected_graph("one-closed", 5, m=5)
    assert g.vertex_count == 2 and g.edge_count == 5
    hub, leaf = sorted(g.vertices, key=lambda vw: vw[1])
    assert g.degree(hub[0]) == 5 and hub[1] == 0
    assert g.degree(leaf[0]) == 5 and leaf[1] == 1


def test_expected_graph_arc_plus_closed_vertex_count():
    for n, m in ((6, 1), (6, 2), (12, 3)):
        g = expected_graph("arc-plus-closed", n, m=m, d=1)
        assert g.vertex_count == n // m + 1


def test_expected_graph_two_arcs_values():
    g = expected_graph("two-arcs", 6, k=3)
    assert g.edge_count == gcd(6, 3) + gcd(6, 4) == 5
    assert sorted(w for _, w in g.vertices) == [1, 1]


def test_expected_graph_rejects_bad_params():
    with pytest.raises(ValueError):
        expected_graph("one-arc", 6, m=4)
    with pytest.raises(ValueError):
        expected_graph("arc-plus-closed", 6, m=1, d=4)
    with pytest.raises(ValueError):
        expected_graph("no-such-family", 6, m=1)


def test_one_arc_edge_counts_are_exactly_the_divisors():
    for n in (6, 9, 12):
        fam = pyramid_action(n)
        from strata_limits.pyramids import _divisors, _one_arc_params

        counts = set()
        for m in _divisors(n):
            mc = make_multicurve(fam, _one_arc_params(n, m))
            counts.add(build_stratum_graph(fam.action, mc).edge_count)
        assert counts == {n // m for m in _divisors(n)}


def test_builds_match_expected_sampled():
    for n in (5, 9, 16):
        fam = pyramid_action(n)
        from strata_limits.pyramids import (
            _divisors,
            _one_arc_params,
            _one_closed_params,
            _arc_plus_closed_params,
            _two_arcs_params,
        )

        budget = n + 2
        for m in _divisors(n):
            built = build_stratum_graph(
                fam.action, make_multicurve(fam, _one_arc_params(n, m))
            ).underlying
            assert is_isomorphic(built, expected_graph("one-arc", n, m=m), budget)
            built = build_stratum_graph(
                fam.action, make_multicurve(fam, _one_closed_params(n, m))
            ).underlying
            assert is_isomorphic(built, expected_graph("one-closed", n, m=m), budget)
            for d in proven_cycle_lengths(n // m):
                built = build_stratum_graph(
                    fam.action, make_multicurve(fam, _arc_plus_closed_params(n, m, d))
                ).underlying
                assert is_isomorphic(
                    built, expected_graph("arc-plus-closed", n, m=m, d=d), budget
                )
        for k in (1, n // 2, n):
            built = build_stratum_graph(
                fam.action, make_multicurve(fam, _two_arcs_params(n, k))
            ).underlying
            assert is_isomorphic(built, expected_graph("two-arcs", n, k=k), budget)


# sha256 of the canonical forms of every classify job, unproven cycle
# lengths included, for n = 3..40 and 96 (1720 jobs).  classify orders its
# classes by these forms, so a search change that returns other
# certificates, even canonical ones, can reorder `pyramid classify` output.
CERTIFICATE_DIGEST = "4e0d88e5f1c098ecd75644596a28d398cec14bebbaed547dfca2f39445eee62a"


def test_certificates_match_the_committed_digest():
    digest = hashlib.sha256()
    jobs = 0
    for n in [*range(3, 41), 96]:
        fam = pyramid_action(n)
        for params, _ in enumerate_parameters(n, include_unproven=True):
            graph = build_stratum_graph(fam.action, make_multicurve(fam, params)).underlying
            digest.update(repr(canonical_form(graph, n + 2)).encode() + b"\n")
            jobs += 1
    assert jobs == 1720
    assert digest.hexdigest() == CERTIFICATE_DIGEST
