import random
import sys

import pytest

from strata_limits import orbifolds
from strata_limits.groups import closure, dihedral, left_cosets
from strata_limits.limit_graphs import AuditError, InvalidInputError, build_stratum_graph
from strata_limits.multicurves import (
    CurveSide,
    CurveSpec,
    MulticurveSpec,
    PieceSpec,
    validate_multicurve,
)
from strata_limits.oracle import audit_graph
from strata_limits.orbifolds import (
    OrbifoldSignature,
    SurfaceKernelAction,
    Word,
    riemann_hurwitz_genus,
)
from strata_limits.pyramids import (
    PyramidMulticurveParams,
    classify,
    enumerate_parameters,
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


def vertex_record(graph, piece):
    """The build's record of the vertex over ``piece`` labelled by the
    subgroup itself, whose representative is the identity (index 0 in a
    dihedral table); every vertex over a piece has the same degree and
    weight."""
    return graph.vertices[(piece.id, graph.action.group.identity)]


def test_component_count():
    fam = pyramid_action(6)
    group = fam.action.group
    assert len(set(left_cosets(closure(group, range(group.order))))) == 1
    assert len(set(left_cosets(closure(group, [group.by_name("r s")])))) == 6


def test_component_count_matches_edge_counts():
    # Index-2 arc subgroup for even n gives exactly two edges.
    for n in (4, 6, 8):
        _, mc, graph = build(n, "one-arc", "twisted")
        h = graph.curve_subgroups[mc.curves[0].id]
        assert len(set(left_cosets(h))) == 2
        assert graph.edge_count == 2


def test_vertex_degree_one_arc():
    for n in (3, 5, 8):
        _, mc, graph = build(n, "one-arc", "direct")
        assert vertex_record(graph, mc.pieces[0]).degree == 2 * n


def test_vertex_degree_one_closed_hub():
    for n in (4, 9):
        _, mc, graph = build(n, "one-closed", "left", 1)
        assert vertex_record(graph, mc.pieces[0]).degree == n


def test_vertex_degree_arc_plus_closed_annulus():
    for n, t in ((6, 1), (8, 2)):
        _, mc, graph = build(n, "arc-plus-closed", "middle-left", t)
        h = graph.piece_subgroups[mc.pieces[0].id]
        m = h.order // 2
        assert vertex_record(graph, mc.pieces[0]).degree == m + 2


def test_vertex_weight_examples():
    _, mc, graph = build(5, "one-arc", "direct")
    assert vertex_record(graph, mc.pieces[0]).weight == 0
    for n in (5, 7):
        _, mc, graph = build(n, "one-arc", "twisted")
        assert vertex_record(graph, mc.pieces[0]).weight == n - 1
    for n in (4, 6):
        _, mc, graph = build(n, "one-closed", "left", n // 2)
        assert vertex_record(graph, mc.pieces[1]).weight == 1


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
            genus = graph.underlying.genus()
            assert genus == riemann_hurwitz_genus(fam.action) and genus == n


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
    assert g.genus() == riemann_hurwitz_genus(act)


def test_positive_genus_quotient_without_curves_gives_one_vertex():
    group = dihedral(4)
    sig = OrbifoldSignature(genus=1, cone_orders=(2,))
    act = SurfaceKernelAction(group, sig, tuple(group.by_name(x) for x in ("r^2", "r", "s")))
    whole = PieceSpec(
        id=1,
        signature=sig,
        cone_points=(1,),
        generators=tuple(Word.parse(w, sig) for w in ("x1", "a1", "b1")),
    )
    graph = build_stratum_graph(act, MulticurveSpec((whole,), ()))
    g = graph.underlying
    assert g.vertex_count == 1 and g.edge_count == 0
    assert [w for _, w in g.vertices] == [3]
    assert g.genus() == riemann_hurwitz_genus(act) == 3
    assert audit_graph(graph).ok


def test_handshake_everywhere():
    for n in (4, 7):
        for family, variant, winding in (
            ("one-arc", "direct", 0),
            ("two-arcs", "even", 1),
            ("one-closed", "left", 1),
            ("arc-plus-closed", "middle-left", 1),
        ):
            _, _, graph = build(n, family, variant, winding)
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
        expected_v = sum(order // graph.piece_subgroups[p.id].order for p in mc.pieces)
        expected_e = sum(order // graph.curve_subgroups[c.id].order for c in mc.curves)
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
        piece_parts = {p.id: left_cosets(graph.piece_subgroups[p.id]) for p in mc.pieces}
        curve_parts = {c.id: left_cosets(graph.curve_subgroups[c.id]) for c in mc.curves}
        for _ in range(4):
            h = rng.randrange(group.order)

            def translate_vertex(key):
                piece_id, rep = key
                return piece_id, piece_parts[piece_id][group.table[h][rep]]

            for (curve_id, rep), (v1, v2) in graph.edges.items():
                translated_rep = curve_parts[curve_id][group.table[h][rep]]
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
        for params, _ in enumerate_parameters(n, include_unproven=True):
            mc = make_multicurve(fam, params)
            assert validate_multicurve(fam.action, mc) == []
            graph = build_stratum_graph(fam.action, mc)
            assert graph.underlying.is_stable()
            assert graph.underlying.genus() == riemann_hurwitz_genus(fam.action)


def record_calls(monkeypatch, function: str) -> list:
    """Patch every module attribute that holds ``orbifolds.<function>``, so
    a call from any layer is seen; returns the list of the last argument of
    each call (the action validated, or the word evaluated)."""
    calls = []
    original = getattr(orbifolds, function)

    def counted(*args):
        calls.append(args[-1])
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "strata_limits":
            if getattr(module, function, None) is original:
                monkeypatch.setattr(module, function, counted)
    return calls


def test_a_build_evaluates_each_distinct_word_once(monkeypatch):
    evaluated = record_calls(monkeypatch, "evaluate_word")
    fam = pyramid_action(12)
    last_job = {params.family: params for params, _ in enumerate_parameters(12)}
    assert len(last_job) == 4
    for params in last_job.values():
        mc = make_multicurve(fam, params)
        words = {w for piece in mc.pieces for w in piece.generators}
        for curve in mc.curves:
            words.update(curve.words, (side.attach for side in curve.sides))
        evaluated.clear()
        build_stratum_graph(fam.action, mc)
        assert len(evaluated) == len(words)
        assert set(evaluated) == words


def test_classify_validates_its_action_once(monkeypatch):
    pyramid_action.cache_clear()
    validated = record_calls(monkeypatch, "validate_action")
    classes = classify(24)
    action = pyramid_action(24).action
    assert sum(entry.count for entry in classes) == len(enumerate_parameters(24)) > 1
    assert len(validated) == 1 and validated[0] is action
    # The record sits on that one object: an equal action has none.
    assert vars(action)["violations"] == ()
    twin = SurfaceKernelAction(action.group, action.signature, action.images)
    assert twin == action and "violations" not in vars(twin)


def test_an_equal_action_object_is_validated_on_its_own(monkeypatch):
    validated = record_calls(monkeypatch, "validate_action")
    fam = pyramid_action(5)
    mc = make_multicurve(fam, PyramidMulticurveParams("one-arc", "direct"))
    first = SurfaceKernelAction(fam.action.group, fam.action.signature, fam.action.images)
    second = SurfaceKernelAction(first.group, first.signature, first.images)
    for action in (first, first, second, second):
        build_stratum_graph(action, mc)
    assert validated == [first, second]
    assert validated[0] is first and validated[1] is second


def test_an_invalid_action_fails_every_build(monkeypatch):
    validated = record_calls(monkeypatch, "validate_action")
    fam = pyramid_action(6)
    mc = make_multicurve(fam, PyramidMulticurveParams("one-arc", "direct"))
    group = fam.action.group
    # x5 maps to r^2, of order 3 instead of 6.
    images = fam.action.images[:4] + (group.by_name("r^2"),)
    bad = SurfaceKernelAction(group, fam.action.signature, images)
    for _ in range(3):
        with pytest.raises(InvalidInputError) as caught:
            build_stratum_graph(bad, mc)
        assert any("generator x5" in v for v in caught.value.violations)
    assert validated == [bad]
