import random

import pytest

from strata_limits.groups import closure, left_cosets
from strata_limits.limit_graphs import (
    AuditError,
    build_stratum_graph,
    component_count,
    genus_audit,
    vertex_degree,
    vertex_weight,
)
from strata_limits.multicurves import (
    CurveSide,
    CurveSpec,
    MulticurveSpec,
    PieceSpec,
    curve_image_subgroup,
    piece_image_subgroup,
    validate_multicurve,
)
from strata_limits.orbifolds import Word
from strata_limits.pyramids import (
    PyramidMulticurveParams,
    make_multicurve,
    pyramid_action,
)


def build(n, family, variant, winding=0, cycle_length=None):
    fam = pyramid_action(n)
    params = PyramidMulticurveParams(family, variant, winding, cycle_length)
    mc = make_multicurve(fam, params)
    return fam, mc, build_stratum_graph(fam.action, mc)


def replace_attach(mc, curve_id, new_attach, sig):
    curves = []
    for c in mc.curves:
        if c.id == curve_id:
            curves.append(
                CurveSpec(
                    id=c.id,
                    kind=c.kind,
                    endpoints=c.endpoints,
                    gamma_a=c.gamma_a,
                    gamma_b=c.gamma_b,
                    gamma=c.gamma,
                    sides=(
                        c.sides[0],
                        CurveSide(c.sides[1].piece, Word.parse(new_attach, sig)),
                    ),
                )
            )
        else:
            curves.append(c)
    return MulticurveSpec(mc.pieces, tuple(curves))


def test_component_count():
    fam = pyramid_action(6)
    group = fam.action.group
    assert component_count(fam.action, closure(group, range(group.order))) == 1
    assert component_count(fam.action, closure(group, [group.by_name("r s")])) == 6


def test_component_count_matches_edge_counts():
    # Index-2 arc subgroup for even n gives exactly two edges.
    for n in (4, 6, 8):
        fam, mc, graph = build(n, "one-arc", "twisted")
        h = curve_image_subgroup(fam.action, mc.curves[0])
        assert component_count(fam.action, h) == 2
        assert graph.edge_count == 2


def test_vertex_degree_one_arc():
    for n in (3, 5, 8):
        fam, mc, _ = build(n, "one-arc", "direct")
        assert vertex_degree(fam.action, mc, mc.pieces[0]) == 2 * n


def test_vertex_degree_one_closed_hub():
    for n in (4, 9):
        fam, mc, _ = build(n, "one-closed", "left", 1)
        assert vertex_degree(fam.action, mc, mc.pieces[0]) == n


def test_vertex_degree_arc_plus_closed_annulus():
    for n, t in ((6, 1), (8, 2)):
        fam, mc, _ = build(n, "arc-plus-closed", "middle-left", t)
        h = piece_image_subgroup(fam.action, mc.pieces[0])
        m = h.order // 2
        assert vertex_degree(fam.action, mc, mc.pieces[0]) == m + 2


def test_vertex_weight_examples():
    fam, mc, _ = build(5, "one-arc", "direct")
    assert vertex_weight(fam.action, mc, mc.pieces[0]) == 0
    for n in (5, 7):
        fam, mc, _ = build(n, "one-arc", "twisted")
        assert vertex_weight(fam.action, mc, mc.pieces[0]) == n - 1
    for n in (4, 6):
        fam, mc, _ = build(n, "one-closed", "left", n // 2)
        assert vertex_weight(fam.action, mc, mc.pieces[1]) == 1


def test_build_one_arc_direct_graph():
    for n in (3, 7):
        _, _, graph = build(n, "one-arc", "direct")
        g = graph.underlying
        assert g.vertex_count == 1
        assert g.edge_count == n
        assert all(a == b for a, b in g.edges)  # all loops
        assert [w for _, w in g.vertices] == [0]


def test_build_one_arc_twisted_graph():
    _, _, graph = build(4, "one-arc", "twisted")
    g = graph.underlying
    assert g.vertex_count == 1 and g.edge_count == 2
    assert [w for _, w in g.vertices] == [2]


def test_build_two_arcs_full_wrap():
    # The top parameter value yields two weight-0 vertices and n+1 edges.
    for n in (3, 5):
        _, _, graph = build(n, "two-arcs", "even", 0)
        g = graph.underlying
        assert g.vertex_count == 2
        assert g.edge_count == n + 1
        assert sorted(w for _, w in g.vertices) == [0, 0]
        assert all(a != b for a, b in g.edges)


def test_genus_audit_across_families():
    for n in (6, 9):
        for family, variant, winding in (
            ("one-arc", "bottom-left", 1),
            ("one-arc", "bottom-right", 2),
            ("two-arcs", "odd", 1),
            ("one-closed", "right", 1),
            ("arc-plus-closed", "top-left", 0),
            ("arc-plus-closed", "middle-right", 1),
            ("arc-plus-closed", "bottom-left", 1),
        ):
            fam, mc, graph = build(n, family, variant, winding)
            audit = genus_audit(fam.action, graph)
            assert audit.ok and audit.graph_genus == n


def test_empty_multicurve_gives_one_heavy_vertex():
    fam = pyramid_action(5)
    act = fam.action
    whole = PieceSpec(
        id=1,
        signature=act.signature,
        cone_points=(1, 2, 3, 4, 5),
        generators=tuple(Word.parse(f"x{i}", act.signature) for i in range(1, 6)),
    )
    graph = build_stratum_graph(act, MulticurveSpec((whole,), ()))
    g = graph.underlying
    assert g.vertex_count == 1 and g.edge_count == 0
    assert g.weight(g.vertices[0][0]) == 5
    assert genus_audit(act, graph).ok


def test_handshake_everywhere():
    for n in (4, 7):
        for family, variant in (
            ("one-arc", "direct"),
            ("two-arcs", "even"),
            ("one-closed", "left"),
            ("arc-plus-closed", "middle-left"),
        ):
            _, _, graph = build(n, family, variant, 1)
            g = graph.underlying
            assert sum(g.degree(v) for v, _ in g.vertices) == 2 * g.edge_count


def test_recorded_degrees_match_underlying_graph():
    for n in (5, 6):
        _, _, graph = build(n, "arc-plus-closed", "top-left", 0)
        for key, record in graph.vertices.items():
            vid = graph.vertex_number[key]
            assert graph.underlying.degree(vid) == record.degree
            assert graph.underlying.weight(vid) == record.weight


def test_vertex_and_edge_counts_match_subgroup_indices():
    for n in (6, 10):
        fam, mc, graph = build(n, "one-closed", "left", n // 2)
        order = fam.action.group.order
        expected_v = sum(
            order // piece_image_subgroup(fam.action, p).order for p in mc.pieces
        )
        expected_e = sum(
            order // curve_image_subgroup(fam.action, c).order for c in mc.curves
        )
        assert graph.vertex_count == expected_v
        assert graph.edge_count == expected_e


def test_label_equivariance_under_left_translation():
    # Translating every coset label on the left by a fixed element carries
    # edges to edges with translated endpoints.
    rng = random.Random(7)
    for n, family, variant, winding in (
        (6, "two-arcs", "even", 1),
        (8, "one-closed", "left", 2),
        (6, "arc-plus-closed", "top-left", 0),
        (9, "arc-plus-closed", "middle-right", 1),
    ):
        fam, mc, graph = build(n, family, variant, winding)
        act = fam.action
        group = act.group
        piece_parts = {
            p.id: left_cosets(piece_image_subgroup(act, p)) for p in mc.pieces
        }
        curve_parts = {
            c.id: left_cosets(curve_image_subgroup(act, c)) for c in mc.curves
        }
        for _ in range(4):
            h = rng.randrange(group.order)

            def translate_vertex(key):
                piece_id, rep = key
                return piece_id, piece_parts[piece_id].representative_of(
                    group.table[h][rep]
                )

            for (curve_id, rep), (v1, v2) in graph.edges.items():
                translated_rep = curve_parts[curve_id].representative_of(
                    group.table[h][rep]
                )
                expected = {translate_vertex(v1), translate_vertex(v2)}
                got = set(graph.edges[(curve_id, translated_rep)])
                assert got == expected


def test_corrupted_attachment_word_detected():
    fam = pyramid_action(6)
    mc = make_multicurve(fam, PyramidMulticurveParams("two-arcs", "even", 1))
    bad = replace_attach(mc, "g1", "x5", fam.action.signature)
    with pytest.raises(AuditError, match="attachment gives degree"):
        build_stratum_graph(fam.action, bad)


def test_invalid_input_rejected_before_building():
    fam = pyramid_action(5)
    mc = make_multicurve(fam, PyramidMulticurveParams("one-arc", "direct"))
    chopped = MulticurveSpec(
        (
            PieceSpec(
                id=1,
                signature=mc.pieces[0].signature,
                cone_points=(1, 5),
                generators=mc.pieces[0].generators,
            ),
        ),
        mc.curves,
    )
    with pytest.raises(ValueError, match="invalid input"):
        build_stratum_graph(fam.action, chopped)


def test_builds_never_fail_after_validation():
    # Validation is sufficient: every generated multicurve builds cleanly.
    for n in range(3, 13):
        fam = pyramid_action(n)
        from strata_limits.pyramids import enumerate_parameters

        for params, _ in enumerate_parameters(n, include_unproven=True):
            mc = make_multicurve(fam, params)
            assert validate_multicurve(fam.action, mc) == []
            graph = build_stratum_graph(fam.action, mc)
            assert graph.underlying.is_stable()
            assert genus_audit(fam.action, graph).ok
