import dataclasses
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strata_limits import files, groups, limit_graphs, orbifolds
from strata_limits.groups import closure, dihedral, left_cosets
from strata_limits.limit_graphs import AuditError, InvalidInputError, build_stratum_graph
from strata_limits.multicurves import (
    CurveSide,
    CurveSpec,
    MulticurveSpec,
    PieceSpec,
    _piece_name,
    validate_multicurve,
)
from strata_limits.oracle import audit_graph
from strata_limits.orbifolds import (
    OrbifoldSignature,
    SurfaceKernelAction,
    Word,
    euler_characteristic,
    evaluate_word,
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


def identity_vertex(graph, piece):
    """The number in ``graph.underlying`` of the vertex over ``piece``
    labelled by the subgroup itself, whose representative is the identity
    (index 0 in a dihedral table); every vertex over a piece has the same
    degree and weight."""
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
        assert graph.underlying.degree(identity_vertex(graph, mc.pieces[0])) == 2 * n


def test_vertex_degree_one_closed_hub():
    for n in (4, 9):
        _, mc, graph = build(n, "one-closed", "left", 1)
        assert graph.underlying.degree(identity_vertex(graph, mc.pieces[0])) == n


def test_vertex_degree_arc_plus_closed_annulus():
    for n, t in ((6, 1), (8, 2)):
        _, mc, graph = build(n, "arc-plus-closed", "middle-left", t)
        h = graph.piece_subgroups[mc.pieces[0].id]
        m = h.order // 2
        assert graph.underlying.degree(identity_vertex(graph, mc.pieces[0])) == m + 2


def test_vertex_weight_examples():
    _, mc, graph = build(5, "one-arc", "direct")
    assert graph.underlying.weight(identity_vertex(graph, mc.pieces[0])) == 0
    for n in (5, 7):
        _, mc, graph = build(n, "one-arc", "twisted")
        assert graph.underlying.weight(identity_vertex(graph, mc.pieces[0])) == n - 1
    for n in (4, 6):
        _, mc, graph = build(n, "one-closed", "left", n // 2)
        assert graph.underlying.weight(identity_vertex(graph, mc.pieces[1])) == 1


def _fraction_degree_weight(piece_id, order, chi, side_orders):
    """The degree and weight of a piece's vertices in ``Fraction``
    arithmetic: the reference for the build's integer route."""
    degree = Fraction(order) * sum((Fraction(1, m) for m in side_orders), Fraction(0))
    if degree.denominator != 1:
        raise AuditError(f"{_piece_name(piece_id)}: degree {degree} is not an integer")
    weight = 1 - Fraction(1, 2) * (order * chi + degree)
    if weight.denominator != 1:
        raise AuditError(f"{_piece_name(piece_id)}: weight {weight} is not an integer")
    if weight < 0:
        raise AuditError(f"{_piece_name(piece_id)}: weight {weight} is negative")
    return int(degree), int(weight)


@settings(max_examples=300)
@given(
    order=st.integers(min_value=1, max_value=48),
    signature=st.builds(
        OrbifoldSignature,
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=4),
        st.lists(st.integers(min_value=2, max_value=12), max_size=4).map(tuple),
    ),
    side_orders=st.lists(st.integers(min_value=1, max_value=24), max_size=5),
)
@example(order=3, signature=OrbifoldSignature(0, 1, (2, 2)), side_orders=[2])
@example(order=1, signature=OrbifoldSignature(0, 1, (2,)), side_orders=[])
@example(order=2, signature=OrbifoldSignature(0), side_orders=[])
def test_integer_degree_and_weight_match_the_fraction_formulas(order, signature, side_orders):
    # The examples give a degree of 3/2, a weight of 3/4 and a weight of -1.
    chi = euler_characteristic(signature)
    try:
        expected = _fraction_degree_weight(7, order, chi, side_orders)
    except AuditError as exc:
        with pytest.raises(AuditError) as raised:
            limit_graphs._piece_degree_weight(7, order, chi, side_orders)
        assert str(raised.value) == str(exc)
    else:
        assert limit_graphs._piece_degree_weight(7, order, chi, side_orders) == expected


def test_build_refuses_a_multicurve_without_pieces():
    # A torus covered by the trivial group, cut into no pieces: validation
    # refuses it, so the build never reaches a graph with no vertex.
    action = SurfaceKernelAction(groups.GroupTable([[0]]), OrbifoldSignature(1), (0, 0))
    empty = MulticurveSpec(())
    assert validate_multicurve(action, empty) == ["multicurve has no pieces"]
    with pytest.raises(InvalidInputError) as raised:
        build_stratum_graph(action, empty)
    assert raised.value.violations == ["multicurve has no pieces"]


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


def _one_arc_5(gamma_b: str, generator: str):
    # Pyramid n = 5 cut by the arc (3, 4) into one piece on cone points
    # 1, 2 and 5, with the given second boundary loop and one generator.
    fam = pyramid_action(5)
    sig = fam.action.signature
    curve = CurveSpec(
        id="g",
        kind="arc",
        endpoints=(3, 4),
        gamma_a=Word.parse("x3", sig),
        gamma_b=Word.parse(gamma_b, sig),
        sides=(CurveSide(1), CurveSide(1, Word.parse("x4", sig))),
    )
    piece = PieceSpec(
        1, OrbifoldSignature(0, 1, (2, 2, 5)), (1, 2, 5), (Word.parse(generator, sig),)
    )
    return fam.action, MulticurveSpec((piece,), (curve,))


def _closed_curve_without_gamma():
    fam = pyramid_action(6)
    mc = make_multicurve(fam, PyramidMulticurveParams("one-closed", "left", 1))
    curve = dataclasses.replace(mc.curves[0], gamma=Word())
    return fam.action, MulticurveSpec(mc.pieces, (curve,))


def _whole_orbifold_without_curves():
    fam = pyramid_action(5)
    sig = fam.action.signature
    piece = PieceSpec(1, sig, (1, 2, 3, 4, 5), (Word.parse("x5", sig),))
    return fam.action, MulticurveSpec((piece,))


def _unstable_sphere():
    """D1 over (0; 2, 2) with both cone generators sent to s, left uncut:
    one vertex of weight 0 and no edges."""
    group = dihedral(1)
    sig = OrbifoldSignature(0, 0, (2, 2))
    action = SurfaceKernelAction(group, sig, (group.by_name("s"),) * 2)
    piece = PieceSpec(1, sig, (1, 2), (Word.parse("x1", sig),))
    return action, MulticurveSpec((piece,))


# Inputs that pass validation yet fail one audit of the build each.
@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: _one_arc_5("x1", "x1"), "piece 1: degree 2/5 is not an integer"),
        (lambda: _one_arc_5("x4", "x5"), "piece 1: weight 1/2 is not an integer"),
        (_closed_curve_without_gamma, "piece 1: weight -3 is negative"),
        (_whole_orbifold_without_curves, "underlying graph rejected: graph is not connected"),
        (_unstable_sphere, "underlying graph is not stable"),
    ],
    ids=["degree-fraction", "weight-fraction", "weight-negative", "disconnected", "unstable"],
)
def test_each_build_audit_is_reached(make, message):
    action, mc = make()
    assert validate_multicurve(action, mc) == []
    with pytest.raises(AuditError) as raised:
        build_stratum_graph(action, mc)
    assert str(raised.value) == message


def test_genus_audit_compares_with_the_riemann_hurwitz_genus(monkeypatch):
    # Validation fixes the sum of the Euler characteristics and degree
    # coherence the degree sum, which together force the graph genus to be
    # the Riemann-Hurwitz genus: only a wrong reference can trip the audit.
    # The build reads the action's covering genus, which an action computes
    # once, by orbifolds.riemann_hurwitz_genus: the wrong reference is
    # planted there, and read by a fresh action.
    fam, mc, graph = build(6, "two-arcs", "even", 1)
    genus = graph.underlying.genus()
    monkeypatch.setattr(
        orbifolds, "riemann_hurwitz_genus", lambda action: riemann_hurwitz_genus(action) + 1
    )
    fresh = SurfaceKernelAction(fam.action.group, fam.action.signature, fam.action.images)
    with pytest.raises(AuditError) as raised:
        build_stratum_graph(fresh, mc)
    assert str(raised.value) == (
        f"genus mismatch: graph has genus {genus}, covering surface has genus {genus + 1}"
    )


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


def record_calls(monkeypatch, function: str, module=orbifolds) -> list:
    """Patch every module attribute that holds ``<module>.<function>``, so
    a call from any layer is seen; returns the list of the last argument of
    each call (the action validated, the word evaluated, the generators
    closed or the subgroup whose cosets were taken)."""
    calls = []
    original = getattr(module, function)

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


def image_words(mc):
    """The word tuples whose images generate each piece's and each curve's
    image subgroup."""
    return [piece.generators for piece in mc.pieces] + [curve.words for curve in mc.curves]


def test_classify_closes_each_generator_set_once_and_takes_each_cosets_once(monkeypatch):
    pyramid_action.cache_clear()
    action = pyramid_action(96).action
    group = action.group
    generator_sets = {
        frozenset(evaluate_word(action, w) for w in words)
        for params, _ in enumerate_parameters(96)
        for words in image_words(make_multicurve(pyramid_action(96), params))
    }
    subgroups = {closure(group, generators).elements for generators in generator_sets}
    assert (len(generator_sets), len(subgroups)) == (252, 56)

    closed = record_calls(monkeypatch, "closure", groups)
    cosets = record_calls(monkeypatch, "left_cosets", groups)
    classify(96)
    # One closure more than the builds need: validate_action's, of the images.
    assert len(closed) == len(generator_sets) + 1
    assert {frozenset(g) for g in closed} == generator_sets | {frozenset(action.images)}
    assert len(cosets) == len(subgroups)
    assert {h.elements for h in cosets} == subgroups


def reference_build(action, mc):
    """The image subgroups, vertex keys and edges of a build, each subgroup
    from a fresh :func:`closure` and its cosets from a fresh
    :func:`left_cosets`, in the build's key order."""
    group = action.group

    def fresh(words):
        subgroup = closure(group, [evaluate_word(action, w) for w in words])
        return subgroup, left_cosets(subgroup)

    pieces = {piece.id: fresh(piece.generators) for piece in mc.pieces}
    curves = {curve.id: fresh(curve.words) for curve in mc.curves}
    vertex_keys = [
        (piece_id, rep)
        for piece_id, (_, labels) in pieces.items()
        for rep, label in enumerate(labels)
        if rep == label
    ]
    edges = {}
    for curve in mc.curves:
        ends = [(side.piece, evaluate_word(action, side.attach)) for side in curve.sides]
        for rep, label in enumerate(curves[curve.id][1]):
            if rep == label:
                edges[(curve.id, rep)] = tuple(
                    (piece_id, pieces[piece_id][1][group.table[rep][attach]])
                    for piece_id, attach in ends
                )
    piece_subgroups = {key: subgroup for key, (subgroup, _) in pieces.items()}
    curve_subgroups = {key: subgroup for key, (subgroup, _) in curves.items()}
    return piece_subgroups, curve_subgroups, vertex_keys, edges


def assert_matches_reference(graph):
    piece_subgroups, curve_subgroups, vertex_keys, edges = reference_build(
        graph.action, graph.multicurve
    )
    assert graph.piece_subgroups == piece_subgroups
    assert graph.curve_subgroups == curve_subgroups
    assert list(graph.vertices) == vertex_keys
    assert list(graph.edges.items()) == list(edges.items())


def held_subgroups(action) -> dict:
    """The distinct subgroups in ``action``'s record, keyed by elements;
    every generator set's entry is the one object held for its subgroup."""
    held = action._image_subgroups
    by_elements = {key: h for key, h in held.items() if isinstance(key, tuple)}
    assert all(by_elements[h.elements] is h for h in held.values())
    return by_elements


def test_every_classify_job_builds_what_fresh_subgroups_and_cosets_give():
    pyramid_action.cache_clear()
    fam = pyramid_action(96)
    for params, _ in enumerate_parameters(96):
        assert_matches_reference(build_stratum_graph(fam.action, make_multicurve(fam, params)))
    assert len(held_subgroups(fam.action)) == 56


def test_a_table_encoded_action_builds_what_fresh_subgroups_and_cosets_give():
    fam = pyramid_action(12)
    table_action = files.action_from_spec(files.action_to_spec(fam.action))
    assert table_action.group is not fam.action.group
    signature = table_action.signature
    for params, _ in enumerate_parameters(12, include_unproven=True):
        spec = files.multicurve_to_spec(make_multicurve(fam, params), signature)
        mc = files.multicurve_from_spec(spec, table_action)
        assert_matches_reference(build_stratum_graph(table_action, mc))


def test_an_equal_action_object_keeps_its_own_subgroup_record(monkeypatch):
    closed = record_calls(monkeypatch, "closure", groups)
    fam = pyramid_action(5)
    mc = make_multicurve(fam, PyramidMulticurveParams("one-arc", "direct"))
    first = SurfaceKernelAction(fam.action.group, fam.action.signature, fam.action.images)
    second = SurfaceKernelAction(first.group, first.signature, first.images)
    assert "_image_subgroups" not in vars(first)
    graphs = [build_stratum_graph(action, mc) for action in (first, first, second, second)]
    # Per action object: validate_action's closure, then one per generator set.
    generator_sets = {frozenset(evaluate_word(first, w) for w in ws) for ws in image_words(mc)}
    assert len(closed) == 2 * (1 + len(generator_sets))
    assert vars(first)["_image_subgroups"] is not vars(second)["_image_subgroups"]
    (piece_id,) = graphs[0].piece_subgroups
    held = [graph.piece_subgroups[piece_id] for graph in graphs]
    assert held[0] is held[1] and held[2] is held[3]
    assert held[0] == held[2] and held[0] is not held[2]


def plant_cosets(action, words, subgroup, labels):
    """Plant in ``action``'s record, under the images of ``words``, a copy
    of ``subgroup`` that holds the given coset labels."""
    key = frozenset(evaluate_word(action, w) for w in words)
    planted = groups._trusted_subgroup(action.group, subgroup.elements)
    vars(planted)["_coset_labels"] = labels
    action._image_subgroups[key] = planted


def fresh_action(n):
    action = pyramid_action(n).action
    return SurfaceKernelAction(action.group, action.signature, action.images)


def test_a_planted_record_with_wrong_cosets_fails_a_build_audit():
    action = fresh_action(6)
    group = action.group
    mc = make_multicurve(pyramid_action(6), PyramidMulticurveParams("one-arc", "bottom-left", 2))
    (piece,) = mc.pieces
    subgroup = closure(group, [evaluate_word(action, w) for w in piece.generators])
    # The piece's own subgroup, labelled by the cosets of the trivial one.
    plant_cosets(action, piece.generators, subgroup, tuple(range(group.order)))
    with pytest.raises(AuditError) as raised:
        build_stratum_graph(action, mc)
    assert str(raised.value) == (
        f"piece {piece.id}, coset e: attachment gives degree 1, formula gives 12"
    )


def test_a_planted_record_that_passes_the_build_audits_fails_the_oracle():
    # The oracle reads the words, not the record, so a wrong record that the
    # build's own audits miss still fails audit_graph.
    action = fresh_action(6)
    group = action.group
    mc = make_multicurve(pyramid_action(6), PyramidMulticurveParams("two-arcs", "odd", 1))
    curve = mc.curves[0]
    whole = closure(group, range(group.order))
    assert closure(group, [evaluate_word(action, w) for w in curve.words]) != whole
    plant_cosets(action, curve.words, whole, left_cosets(whole))
    graph = build_stratum_graph(action, mc)
    failed = [check for check in audit_graph(graph).checks if not check.passed]
    assert [check.name for check in failed][0] == f"edges over curve {curve.id}"
    assert failed[0].actual == "1, but the printed subgroup is not the generated one"
    assert failed[0].expected == 3
    assert_matches_reference(build_stratum_graph(fresh_action(6), mc))


def conjugate_plants(n):
    """For every job at ``n``, each piece's and each curve's subgroup
    planted in turn as each of its other conjugates: same order, other
    cosets.  Yields the graph each plant builds and the job's own graph."""
    fam = pyramid_action(n)
    group = fam.action.group
    for params, _ in enumerate_parameters(n, include_unproven=True):
        mc = make_multicurve(fam, params)
        correct = build_stratum_graph(fresh_action(n), mc)
        for words in image_words(mc):
            subgroup = closure(group, [evaluate_word(fam.action, w) for w in words])
            conjugates = set()
            for g in range(group.order):
                row, g_inverse = group.table[g], group.inverse[g]
                elements = tuple(sorted(group.table[row[h]][g_inverse] for h in subgroup.elements))
                conjugates.add(elements)
            for elements in sorted(conjugates - {subgroup.elements}):
                action = fresh_action(n)
                conjugate = groups._trusted_subgroup(group, elements)
                plant_cosets(action, words, conjugate, left_cosets(conjugate))
                yield build_stratum_graph(action, mc), correct


def printed_facts(graph):
    """What ``build`` prints of a labeled graph besides ``underlying``: the
    labeled vertices and edges and the elements of every image subgroup."""
    return (
        graph.vertices,
        graph.edges,
        {key: subgroup.elements for key, subgroup in graph.piece_subgroups.items()},
        {key: subgroup.elements for key, subgroup in graph.curve_subgroups.items()},
    )


def test_the_oracle_fails_exactly_the_plants_that_build_a_wrong_graph():
    # Every plant prints a conjugate of a generated subgroup, and 12 of them
    # also build other labels.
    same_labels = []
    for planted, correct in conjugate_plants(6):
        assert printed_facts(planted) != printed_facts(correct)
        report = audit_graph(planted)
        assert not report.ok
        failed = [check for check in report.checks if not check.passed]
        assert {check.name.split(" over ")[0] for check in failed} <= {"vertices", "edges"}
        reasons = [str(check.actual) for check in failed]
        assert any(r.endswith("the printed subgroup is not the generated one") for r in reasons)
        labels = (planted.vertices, planted.edges) == (correct.vertices, correct.edges)
        same_labels.append(labels)
        if not labels:
            # Every count is right, so only the labels show the wrong graph.
            assert (planted.vertex_count, planted.edge_count) == (
                correct.vertex_count,
                correct.edge_count,
            )
            assert any("not a class minimum" in r or "other ends" in r for r in reasons)
    assert (same_labels.count(True), same_labels.count(False)) == (54, 12)


def test_a_key_with_other_ends_fails_the_edge_count():
    fam = pyramid_action(6)
    mc = make_multicurve(fam, PyramidMulticurveParams("one-closed", "left", 1))
    graph = build_stratum_graph(fam.action, mc)
    (key, (v1, v2)), *_ = graph.edges.items()
    other = next(v for v in graph.vertices if v not in (v1, v2))
    graph.edges[key] = (v1, other)
    failed = [check.to_line() for check in audit_graph(graph).checks if not check.passed]
    assert failed[0].endswith(", but an edge has other ends than its words give")
    assert failed[0].startswith("[FAIL] edges over curve ")


def test_audits_show_a_huge_piece_id_cut_short():
    action = fresh_action(6)
    group = action.group
    mc = make_multicurve(pyramid_action(6), PyramidMulticurveParams("one-arc", "bottom-left", 2))
    (piece,) = mc.pieces
    huge = 10**5000
    curves = [
        dataclasses.replace(curve, sides=[CurveSide(huge, side.attach) for side in curve.sides])
        for curve in mc.curves
    ]
    mc = MulticurveSpec([dataclasses.replace(piece, id=huge)], curves)
    checks = audit_graph(build_stratum_graph(fresh_action(6), mc)).checks
    assert checks[0].name == "vertices over piece <integer of 5001 digits>"
    subgroup = closure(group, [evaluate_word(action, w) for w in piece.generators])
    plant_cosets(action, piece.generators, subgroup, tuple(range(group.order)))
    with pytest.raises(AuditError) as raised:
        build_stratum_graph(action, mc)
    assert str(raised.value) == (
        "piece <integer of 5001 digits>, coset e: attachment gives degree 1, formula gives 12"
    )
