import dataclasses

import pytest

from strata_limits.groups import GroupTable, closure, dihedral
from strata_limits.limit_graphs import InvalidInputError, build_stratum_graph
from strata_limits.multicurves import (
    CurveSide,
    CurveSpec,
    MulticurveSpec,
    PieceSpec,
    validate_multicurve,
)
from strata_limits.orbifolds import (
    OrbifoldSignature,
    SurfaceKernelAction,
    Word,
    evaluate_word,
    validate_action,
)
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


def _with_boundary(piece, boundary):
    sig = piece.signature
    return PieceSpec(
        piece.id, OrbifoldSignature(sig.genus, boundary, sig.cone_orders),
        piece.cone_points, piece.generators,
    )


def test_boundary_bookkeeping_rejected():
    act = action(5)
    mc = simple_arc_spec(act)
    two_boundary = _with_boundary(mc.pieces[0], 2)
    violations = validate_multicurve(act, MulticurveSpec((two_boundary,), mc.curves))
    assert "piece 1: signature has 2 boundary components, incident curves require 1" in violations


def test_boundary_count_of_a_one_piece_closed_curve():
    # Both sides of the curve lie on the piece: two boundary circles.
    act = action(5)
    whole = PieceSpec(
        1,
        OrbifoldSignature(0, 1, act.signature.cone_orders),
        (1, 2, 3, 4, 5),
        tuple(word(f"x{i}", act) for i in range(1, 6)),
    )
    curve = CurveSpec(
        "g", "closed", (CurveSide(1), CurveSide(1, word("x1", act))), gamma=word("x1 x2", act)
    )
    violations = validate_multicurve(act, MulticurveSpec((whole,), (curve,)))
    assert "piece 1: signature has 1 boundary components, incident curves require 2" in violations


def test_boundary_count_of_a_two_piece_closed_curve():
    # One side on each piece: one boundary circle each.
    act = action(5)
    mc = make_multicurve(pyramid_action(5), PyramidMulticurveParams("one-closed", "left"))
    pieces = tuple(_with_boundary(p, 2) for p in mc.pieces)
    violations = validate_multicurve(act, MulticurveSpec(pieces, mc.curves))
    for piece in (1, 2):
        assert (
            f"piece {piece}: signature has 2 boundary components, incident curves require 1"
            in violations
        )


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
    h = build_stratum_graph(act, mc).curve_subgroups["g"]
    assert h.order == 2
    assert set(h.element_names()) == {"e", "r s"}


def test_curve_image_subgroup_of_twisted_arc_by_parity():
    for n, expected_index in ((6, 2), (8, 2), (5, 1), (7, 1)):
        fam = pyramid_action(n)
        mc = make_multicurve(fam, PyramidMulticurveParams("one-arc", "twisted"))
        h = build_stratum_graph(fam.action, mc).curve_subgroups[mc.curves[0].id]
        assert fam.action.group.order // h.order == expected_index


def test_closed_curve_image_is_an_involution():
    for n in (4, 9):
        fam = pyramid_action(n)
        mc = make_multicurve(fam, PyramidMulticurveParams("one-closed", "left", 1))
        h = build_stratum_graph(fam.action, mc).curve_subgroups[mc.curves[0].id]
        assert h.order == 2


def test_piece_image_subgroup_full_group_for_one_arc():
    for n in (3, 6):
        fam = pyramid_action(n)
        mc = make_multicurve(fam, PyramidMulticurveParams("one-arc", "direct"))
        graph = build_stratum_graph(fam.action, mc)
        assert graph.piece_subgroups[mc.pieces[0].id].order == 2 * n


def test_piece_image_subgroup_rotations_for_two_arcs():
    for n in (4, 9):
        fam = pyramid_action(n)
        mc = make_multicurve(fam, PyramidMulticurveParams("two-arcs", "even", 1))
        h = build_stratum_graph(fam.action, mc).piece_subgroups[mc.pieces[0].id]
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
    h = closure(act.group, [evaluate_word(act, w) for w in piece.generators])
    assert h.order == act.group.order


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
                h = build_stratum_graph(fam.action, mc).curve_subgroups[curve.id]
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


def test_pieces_no_curve_joins_rejected():
    # D4 over the genus-1 orbifold with one order-2 cone point, cut into
    # two closed pieces that no curve joins.
    group = dihedral(4)
    act = SurfaceKernelAction(
        group,
        OrbifoldSignature(1, 0, (2,)),
        tuple(group.by_name(name) for name in ("r^2", "r", "s")),
    )
    torus = PieceSpec(1, OrbifoldSignature(1), (), (word("a1", act), word("b1", act)))
    rest = PieceSpec(
        2, OrbifoldSignature(1, 0, (2,)), (1,), tuple(word(w, act) for w in ("x1", "a1", "b1"))
    )
    mc = MulticurveSpec((torus, rest), ())
    assert validate_action(act) == []
    assert validate_multicurve(act, mc) == ["pieces not joined to piece 1 by any curve: 2"]
    with pytest.raises(InvalidInputError, match="not joined"):
        build_stratum_graph(act, mc)


def test_unevaluable_words_reported_where_they_occur():
    act = action(5)
    mc = simple_arc_spec(act)
    seven, eight = Word(((7, 1),)), Word(((8, -1),))
    piece = PieceSpec(
        1, mc.pieces[0].signature, mc.pieces[0].cone_points, mc.pieces[0].generators[:2] + (seven,)
    )
    arc = mc.curves[0]
    curve = CurveSpec(
        arc.id,
        arc.kind,
        (arc.sides[0], CurveSide(1, eight)),
        endpoints=arc.endpoints,
        gamma_a=seven,
        gamma_b=arc.gamma_b,
    )
    bad = MulticurveSpec((piece,), (curve,))
    assert validate_multicurve(act, bad) == [
        "curve g: attachment word: word uses generator index 8, presentation has 5",
        "curve g: gamma_a: word uses generator index 7, presentation has 5",
        "piece 1: generator 2: word uses generator index 7, presentation has 5",
    ]
    with pytest.raises(InvalidInputError):
        build_stratum_graph(act, bad)


@pytest.mark.parametrize("endpoints", [(3, 4, 5), (3,)])
def test_an_arc_needs_exactly_two_endpoints(endpoints):
    with pytest.raises(ValueError, match="^curve g: exactly two endpoints are required$"):
        simple_arc_spec(action(5), endpoints=endpoints)


# Coprime cone orders of 4300 and 4299 digits, each within CPython's integer
# conversion limit: their Euler characteristic terms sum to a fraction
# whose denominator has 8598 digits.
BIG = 10**4299


def test_a_huge_piece_euler_characteristic_is_shown_cut_short():
    act = action(5)
    mc = simple_arc_spec(act)
    signature = OrbifoldSignature(0, 0, (BIG, BIG - 1))
    sphere = PieceSpec(1, signature, (1, 2, 5), mc.pieces[0].generators)
    violations = validate_multicurve(act, MulticurveSpec((sphere,), mc.curves))
    assert (
        "piece 1: signature is not hyperbolic "
        "(chi = <integer of 4300 digits>/<integer of 8598 digits>)"
    ) in violations
    assert (
        "piece Euler characteristics sum to <integer of 4300 digits>/"
        "<integer of 8598 digits>, ambient orbifold has -4/5"
    ) in violations


def test_a_huge_ambient_euler_characteristic_is_shown_cut_short():
    five = action(5)
    signature = OrbifoldSignature(0, 0, (2, 2, 2, 2, BIG, BIG - 1))
    act = SurfaceKernelAction(five.group, signature, five.images + five.images[-1:])
    (line,) = [v for v in validate_multicurve(act, simple_arc_spec(act)) if "ambient" in v]
    assert line.endswith(
        "ambient orbifold has -<integer of 8599 digits>/<integer of 8598 digits>"
    )
    assert len(line) < 200


# Past CPython's integer conversion limit: str() refuses it.
HUGE = 10**5000


def test_a_huge_piece_cone_order_is_shown_cut_short():
    act = action(5)
    mc = simple_arc_spec(act)
    signature = OrbifoldSignature(0, 1, (2, 2, HUGE))
    piece = PieceSpec(1, signature, (1, 2, 5), mc.pieces[0].generators)
    violations = validate_multicurve(act, MulticurveSpec((piece,), mc.curves))
    assert (
        "piece 1: signature cone orders [2, 2, <integer of 5001 digits>] do not match "
        "the referenced cone points [2, 2, 5]"
    ) in violations
    assert max(map(len, violations)) < 200


def test_a_huge_piece_cone_point_is_shown_cut_short():
    act = action(5)
    mc = simple_arc_spec(act)
    piece = PieceSpec(1, mc.pieces[0].signature, (1, 2, HUGE), mc.pieces[0].generators)
    violations = validate_multicurve(act, MulticurveSpec((piece,), mc.curves))
    assert violations == [
        "piece 1: unknown cone point <integer of 5001 digits>",
        "cone point P5 is not accounted for",
        "piece 1: signature cone orders [2, 2, 5] do not match the referenced cone points [2, 2]",
    ]


def test_a_huge_arc_endpoint_is_shown_cut_short():
    act = action(5)
    violations = validate_multicurve(act, simple_arc_spec(act, endpoints=(3, HUGE)))
    assert violations == [
        "curve g: unknown cone point <integer of 5001 digits>",
        "cone point P4 is not accounted for",
    ]


def test_a_huge_arc_endpoint_order_is_shown_cut_short():
    five = action(5)
    signature = OrbifoldSignature(0, 0, (2, 2, 2, HUGE, 5))
    act = SurfaceKernelAction(five.group, signature, five.images)
    violations = validate_multicurve(act, simple_arc_spec(act))
    assert (
        "curve g: endpoint P4 has order <integer of 5001 digits>, "
        "arcs must join order-2 cone points"
    ) in violations
    assert max(map(len, violations)) < 200


def with_huge_piece_id(mc):
    (piece,) = mc.pieces
    return MulticurveSpec(
        (PieceSpec(HUGE, piece.signature, piece.cone_points, piece.generators),), mc.curves
    )


def with_huge_boundary(mc):
    (piece,) = mc.pieces
    signature = OrbifoldSignature(0, HUGE, piece.signature.cone_orders)
    return MulticurveSpec(
        (PieceSpec(1, signature, piece.cone_points, piece.generators),), mc.curves
    )


def with_huge_side_piece(mc):
    (curve,) = mc.curves
    first, second = curve.sides
    sides = (first, CurveSide(HUGE, second.attach))
    return MulticurveSpec(
        mc.pieces,
        (CurveSpec("g", "arc", sides, curve.endpoints, curve.gamma_a, curve.gamma_b),),
    )


def with_huge_unreached_piece(mc):
    (piece,) = mc.pieces
    other = PieceSpec(HUGE, piece.signature, (), piece.generators)
    return MulticurveSpec((piece, other), mc.curves)


@pytest.mark.parametrize(
    "change, violations",
    [
        (
            with_huge_piece_id,
            [
                "curve g: side references unknown piece 1",
                "curve g: side references unknown piece 1",
                "piece <integer of 5001 digits>: signature has 1 boundary components, "
                "incident curves require 0",
            ],
        ),
        (
            with_huge_boundary,
            [
                "piece Euler characteristics sum to -<integer of 5001 digits>/5, "
                "ambient orbifold has -4/5",
                "piece 1: signature has <integer of 5001 digits> boundary components, "
                "incident curves require 1",
            ],
        ),
        (
            with_huge_side_piece,
            [
                "curve g: side references unknown piece <integer of 5001 digits>",
                "curve g: arc sides must reference a single piece",
            ],
        ),
        (
            with_huge_unreached_piece,
            [
                "piece <integer of 5001 digits>: signature cone orders [2, 2, 5] do not "
                "match the referenced cone points []",
                "piece Euler characteristics sum to -8/5, ambient orbifold has -4/5",
                "piece <integer of 5001 digits>: signature has 1 boundary components, "
                "incident curves require 0",
                "pieces not joined to piece 1 by any curve: <integer of 5001 digits>",
            ],
        ),
    ],
    ids=["piece-id", "boundary", "side-piece", "unreached"],
)
def test_a_huge_piece_reference_is_shown_cut_short(change, violations):
    act = action(5)
    assert validate_multicurve(act, change(simple_arc_spec(act))) == violations


def arc_fields(act):
    return {
        "endpoints": (3, 4),
        "gamma_a": word("x3", act),
        "gamma_b": word("x4", act),
    }


@pytest.mark.parametrize(
    "kind, sides, fields, message",
    [
        ("loop", 2, {}, "curve g: kind must be 'arc' or 'closed'"),
        ("arc", 1, arc_fields, "curve g: exactly two sides are required"),
        ("arc", 3, arc_fields, "curve g: exactly two sides are required"),
        ("arc", 2, {"endpoints": (3, 4)}, "curve g: an arc needs endpoints, gamma_a and gamma_b"),
        ("closed", 2, {}, "curve g: a closed curve needs a gamma word"),
    ],
    ids=["unknown-kind", "one-side", "three-sides", "arc-missing-words", "closed-no-gamma"],
)
def test_curve_spec_refusals_give_their_exact_message(kind, sides, fields, message):
    act = action(5)
    fields = fields(act) if callable(fields) else fields
    with pytest.raises(ValueError) as info:
        CurveSpec("g", kind, (CurveSide(1),) * sides, **fields)
    assert str(info.value) == message


LONG_ID = "c" * 5000
CUT_ID = f"curve {'c' * 40!r}... (5000 characters)"


@pytest.mark.parametrize(
    "curve_id, name",
    [(LONG_ID, CUT_ID), ("c" * 40, "curve " + "c" * 40), (7, "curve 7")],
    ids=["5000-characters", "40-characters", "integer"],
)
def test_curve_spec_refusals_cut_a_long_id_short(curve_id, name):
    with pytest.raises(ValueError) as info:
        CurveSpec(curve_id, "loop", (CurveSide(1),) * 2)
    assert str(info.value) == f"{name}: kind must be 'arc' or 'closed'"


def test_validation_cuts_a_long_curve_id_and_element_name_short():
    act = action(5)
    group = act.group
    names = ["r" * 3000 if name == "r" else name for name in group.names]
    act = SurfaceKernelAction(GroupTable(group.table, names), act.signature, act.images)
    mc = simple_arc_spec(act, gamma_b="x5")  # rotation image, order 5
    (curve,) = mc.curves
    sides = (CurveSide(7), curve.sides[1])
    mc = MulticurveSpec(mc.pieces, (dataclasses.replace(curve, id=LONG_ID, sides=sides),))
    assert validate_multicurve(act, mc) == [
        f"{CUT_ID}: side references unknown piece 7",
        f"{CUT_ID}: arc sides must reference a single piece",
        f"{CUT_ID}: gamma_b image {'r' * 40!r}... (3000 characters) has order 5, expected 2",
    ]
