from strata_limits.multicurves import (
    CurveSide,
    CurveSpec,
    MulticurveSpec,
    PieceSpec,
    curve_image_subgroup,
    piece_image_subgroup,
    validate_multicurve,
)
from strata_limits.orbifolds import OrbifoldSignature, Word, evaluate_word
from strata_limits.pyramids import (
    PyramidMulticurveParams,
    make_multicurve,
    pyramid_action,
)


def action(n):
    return pyramid_action(n).action


def word(text, act):
    return Word.parse(text, act.signature)


def simple_arc_spec(act, endpoints=(3, 4), gamma_a="x3", gamma_b="x4"):
    sig = act.signature
    piece = PieceSpec(
        id=1,
        signature=OrbifoldSignature(0, 1, (2, 2, sig.cone_orders[4])),
        cone_points=(1, 2, 5),
        generators=(word("x1", act), word("x2", act), word("x5", act)),
    )
    curve = CurveSpec(
        id="g",
        kind="arc",
        endpoints=endpoints,
        gamma_a=word(gamma_a, act),
        gamma_b=word(gamma_b, act),
        sides=(CurveSide(1, Word()), CurveSide(1, word(gamma_b, act))),
    )
    return MulticurveSpec(pieces=(piece,), curves=(curve,))


def test_simple_arc_spec_validates():
    act = action(5)
    assert validate_multicurve(act, simple_arc_spec(act)) == []


def test_arc_endpoint_of_wrong_order_rejected():
    act = action(5)
    sig = act.signature
    piece = PieceSpec(
        id=1,
        signature=OrbifoldSignature(0, 1, (2, 2, 2)),
        cone_points=(1, 2, 4),
        generators=(word("x1", act), word("x2", act), word("x4", act)),
    )
    curve = CurveSpec(
        id="g",
        kind="arc",
        endpoints=(3, 5),
        gamma_a=word("x3", act),
        gamma_b=word("x5", act),
        sides=(CurveSide(1, Word()), CurveSide(1, word("x3", act))),
    )
    violations = validate_multicurve(act, MulticurveSpec((piece,), (curve,)))
    assert any("endpoint P5 has order 5" in v for v in violations)


def test_chi_mismatch_rejected():
    act = action(5)
    mc = simple_arc_spec(act)
    wrong_piece = PieceSpec(
        id=1,
        signature=OrbifoldSignature(0, 1, (2, 2)),  # drops the order-n point
        cone_points=mc.pieces[0].cone_points,
        generators=mc.pieces[0].generators,
    )
    violations = validate_multicurve(act, MulticurveSpec((wrong_piece,), mc.curves))
    assert any("Euler characteristics" in v for v in violations)
    assert any("do not match" in v for v in violations)


def test_unaccounted_cone_point_rejected():
    act = action(5)
    mc = simple_arc_spec(act)
    short_piece = PieceSpec(
        id=1,
        signature=mc.pieces[0].signature,
        cone_points=(1, 5),  # P2 went missing
        generators=mc.pieces[0].generators,
    )
    violations = validate_multicurve(act, MulticurveSpec((short_piece,), mc.curves))
    assert any("P2 is not accounted for" in v for v in violations)


def test_boundary_bookkeeping_rejected():
    act = action(5)
    mc = simple_arc_spec(act)
    two_boundary = PieceSpec(
        id=1,
        signature=OrbifoldSignature(0, 2, (2, 2, 5)),
        cone_points=mc.pieces[0].cone_points,
        generators=mc.pieces[0].generators,
    )
    violations = validate_multicurve(act, MulticurveSpec((two_boundary,), mc.curves))
    assert any("boundary" in v for v in violations)


def test_arc_word_of_wrong_order_rejected():
    act = action(5)
    mc = simple_arc_spec(act, gamma_b="x5")  # rotation image, order 5
    violations = validate_multicurve(act, mc)
    assert any("gamma_b" in v and "order 5" in v for v in violations)


def test_arc_sides_must_share_a_piece():
    act = action(5)
    mc = make_multicurve(pyramid_action(5), PyramidMulticurveParams("one-closed", "left"))
    arc = CurveSpec(
        id="bad",
        kind="arc",
        endpoints=(2, 3),
        gamma_a=word("x2", act),
        gamma_b=word("x3", act),
        sides=(CurveSide(1, Word()), CurveSide(2, word("x2", act))),
    )
    violations = validate_multicurve(act, MulticurveSpec(mc.pieces, mc.curves + (arc,)))
    assert any("single piece" in v for v in violations)


def test_attachment_convention_enforced():
    act = action(5)
    mc = simple_arc_spec(act)
    curve = mc.curves[0]
    both_sides = CurveSpec(
        id=curve.id,
        kind=curve.kind,
        endpoints=curve.endpoints,
        gamma_a=curve.gamma_a,
        gamma_b=curve.gamma_b,
        sides=(CurveSide(1, word("x3", act)), CurveSide(1, word("x4", act))),
    )
    violations = validate_multicurve(act, MulticurveSpec(mc.pieces, (both_sides,)))
    assert any("must be empty" in v for v in violations)


def test_curve_image_subgroup_of_simple_arc():
    act = action(7)
    mc = simple_arc_spec(act)
    h = curve_image_subgroup(act, mc.curves[0])
    assert h.order == 2
    assert set(h.element_names()) == {"e", "r s"}


def test_curve_image_subgroup_of_twisted_arc_by_parity():
    for n, expected_index in ((6, 2), (8, 2), (5, 1), (7, 1)):
        fam = pyramid_action(n)
        mc = make_multicurve(fam, PyramidMulticurveParams("one-arc", "twisted"))
        h = curve_image_subgroup(fam.action, mc.curves[0])
        assert fam.action.group.order // h.order == expected_index


def test_closed_curve_image_is_an_involution():
    for n in (4, 9):
        fam = pyramid_action(n)
        mc = make_multicurve(fam, PyramidMulticurveParams("one-closed", "left", 1))
        h = curve_image_subgroup(fam.action, mc.curves[0])
        assert h.order == 2


def test_piece_image_subgroup_full_group_for_one_arc():
    for n in (3, 6):
        fam = pyramid_action(n)
        mc = make_multicurve(fam, PyramidMulticurveParams("one-arc", "direct"))
        assert piece_image_subgroup(fam.action, mc.pieces[0]).order == 2 * n


def test_piece_image_subgroup_rotations_for_two_arcs():
    for n in (4, 9):
        fam = pyramid_action(n)
        mc = make_multicurve(fam, PyramidMulticurveParams("two-arcs", "even", 1))
        h = piece_image_subgroup(fam.action, mc.pieces[0])
        assert h.order == n
        assert h.elements == tuple(range(n))  # the rotation subgroup


def test_piece_generators_with_s_and_r_give_full_group():
    act = action(5)
    piece = PieceSpec(
        id=1,
        signature=OrbifoldSignature(0, 1, (2, 5)),
        cone_points=(1, 5),
        generators=(word("x1", act), word("x5", act)),
    )
    assert piece_image_subgroup(act, piece).order == act.group.order


def test_arc_subgroups_are_generated_by_two_involutions():
    # Image subgroups of arcs are dihedral: order twice the rotation part.
    for n in (5, 6, 12):
        fam = pyramid_action(n)
        for variant, windings in (
            ("bottom-left", range(0, n)),
            ("bottom-right", range(0, n)),
        ):
            for k in windings:
                mc = make_multicurve(fam, PyramidMulticurveParams("one-arc", variant, k))
                curve = mc.curves[0]
                group = fam.action.group
                a = evaluate_word(fam.action, curve.gamma_a)
                b = evaluate_word(fam.action, curve.gamma_b)
                assert group.element_order(a) == 2 and group.element_order(b) == 2
                h = curve_image_subgroup(fam.action, curve)
                assert h.order == 2 * group.element_order(group.table[a][b])


def test_empty_multicurve_accepted():
    act = action(5)
    whole = PieceSpec(
        id=1,
        signature=act.signature,
        cone_points=(1, 2, 3, 4, 5),
        generators=tuple(word(f"x{i}", act) for i in range(1, 6)),
    )
    assert validate_multicurve(act, MulticurveSpec((whole,), ())) == []


def test_piece_without_generators_rejected():
    act = action(5)
    whole = PieceSpec(
        id=1,
        signature=act.signature,
        cone_points=(1, 2, 3, 4, 5),
        generators=(),
    )
    violations = validate_multicurve(act, MulticurveSpec((whole,), ()))
    assert any("no generator words" in v for v in violations)
