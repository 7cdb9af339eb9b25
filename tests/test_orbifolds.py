import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strata_limits.groups import dihedral, GroupTable, closure
from strata_limits.orbifolds import (
    MAX_WORD_LETTERS,
    NoSuchStratumError,
    OrbifoldSignature,
    SurfaceKernelAction,
    Word,
    euler_characteristic,
    evaluate_word,
    is_hyperbolic,
    riemann_hurwitz_genus,
    stratum_dimension,
    validate_action,
)


def pyramidal_action(n: int) -> SurfaceKernelAction:
    group = dihedral(n)
    signature = OrbifoldSignature(genus=0, cone_orders=(2, 2, 2, 2, n))
    images = (
        group.by_name("s"),
        group.by_name("r s"),
        group.by_name("r s"),
        group.by_name("r s"),
        group.by_name("r"),
    )
    return SurfaceKernelAction(group, signature, images)


def test_euler_characteristic_disc_with_three_cone_points():
    for n in (3, 5, 12):
        sig = OrbifoldSignature(genus=0, boundary=1, cone_orders=(2, 2, n))
        assert euler_characteristic(sig) == -1 + Fraction(1, n)


def test_euler_characteristic_torus_is_zero():
    assert euler_characteristic(OrbifoldSignature(genus=1)) == 0


def test_euler_characteristic_closed_pyramid_base():
    # Direct evaluation of 2 - sum(1 - 1/m) for (0; 2,2,2,2,n).
    for n in (3, 4, 9):
        sig = OrbifoldSignature(genus=0, cone_orders=(2, 2, 2, 2, n))
        expected = Fraction(2) - 4 * Fraction(1, 2) - (1 - Fraction(1, n))
        assert euler_characteristic(sig) == expected
        assert expected == -1 + Fraction(1, n)


def test_is_hyperbolic():
    assert is_hyperbolic(OrbifoldSignature(0, 0, (2, 2, 2, 2, 3)))
    assert not is_hyperbolic(OrbifoldSignature(0, 0, (2, 2, 2)))
    assert not is_hyperbolic(OrbifoldSignature(1))


def test_signature_rejects_bad_cone_orders():
    with pytest.raises(ValueError):
        OrbifoldSignature(0, 0, (1, 2))


@pytest.mark.parametrize(
    "genus, boundary, cone_orders, message",
    [
        (0, 0, (2.5, 5), "cone order must be an integer, got 2.5"),
        (0, 0, (2.0, 5), "cone order must be an integer, got 2.0"),
        (0, 0, (True, 5), "cone order must be an integer, got True"),
        (1.5, 0, (), "genus must be an integer, got 1.5"),
        (False, 0, (2, 2, 2), "genus must be an integer, got False"),
        (0, 1.5, (2, 5), "boundary count must be an integer, got 1.5"),
        (0, True, (2, 5), "boundary count must be an integer, got True"),
        (0, 0, ("3", 5), "cone order must be an integer, got '3'"),
    ],
    ids=["cone-float", "cone-integral-float", "cone-bool", "genus-float", "genus-bool",
         "boundary-float", "boundary-bool", "cone-str"],
)
def test_signature_rejects_non_integer_fields(genus, boundary, cone_orders, message):
    with pytest.raises(TypeError, match=re.escape(message)):
        OrbifoldSignature(genus, boundary, cone_orders)


def test_word_parse_and_render_round_trip():
    sig = OrbifoldSignature(genus=2, cone_orders=(2, 3, 7))
    for text in ("x1 x2^-1 x3", "a1 b1^-1 a2 b2", "x3^4 x1^-2", ""):
        word = Word.parse(text, sig)
        assert Word.parse(word.to_text(sig), sig) == word


def test_word_parse_rejects_unknown_generators():
    sig = OrbifoldSignature(genus=0, cone_orders=(2, 2))
    with pytest.raises(ValueError):
        Word.parse("x3", sig)
    with pytest.raises(ValueError):
        Word.parse("a1", sig)
    with pytest.raises(ValueError):
        Word.parse("y1", sig)


def test_word_parse_stops_at_the_letter_limit():
    sig = OrbifoldSignature(genus=0, cone_orders=(2, 2, 5))
    half = MAX_WORD_LETTERS // 2
    assert len(Word.parse(f"x1^{half} x2^-{half}", sig)) == MAX_WORD_LETTERS
    message = f"word token 'x3' exceeds the limit of {MAX_WORD_LETTERS} letters"
    with pytest.raises(ValueError, match=message):
        Word.parse(f"x1^{half} x2^-{half} x3", sig)


def test_validate_pyramidal_action_ok():
    for n in range(3, 13):
        assert validate_action(pyramidal_action(n)) == []


def test_validate_rejects_wrong_order_image():
    n = 5
    group = dihedral(n)
    sig = OrbifoldSignature(genus=0, cone_orders=(2, 2, 2, 2, n))
    images = list(pyramidal_action(n).images)
    images[4] = group.by_name("s")
    violations = validate_action(SurfaceKernelAction(group, sig, tuple(images)))
    assert any("x5" in v and "order 2" in v for v in violations)


def test_pyramidal_long_relation_evaluates_to_identity():
    n = 6
    action = pyramidal_action(n)
    word = Word.parse("x1 x2 x3 x4 x5", action.signature)
    assert evaluate_word(action, word) == action.group.identity


def test_validate_matches_brute_force_over_single_image_changes():
    # Exhaustively perturb one image at a time and compare the validator
    # against a direct check of the three defining conditions.
    for n in range(3, 13):
        base = pyramidal_action(n)
        group = base.group
        sig = base.signature
        for position in range(5):
            for replacement in range(group.order):
                images = list(base.images)
                images[position] = replacement
                action = SurfaceKernelAction(group, sig, tuple(images))
                orders_ok = all(
                    group.element_order(images[i]) == sig.cone_orders[i]
                    for i in range(5)
                )
                product = group.identity
                for i in range(5):
                    product = group.table[product][images[i]]
                relation_ok = product == group.identity
                surjective = closure(group, images).order == group.order
                expected_ok = orders_ok and relation_ok and surjective
                assert (validate_action(action) == []) == expected_ok


def test_evaluate_empty_word_is_identity():
    action = pyramidal_action(4)
    assert evaluate_word(action, Word()) == action.group.identity


def test_evaluate_single_generator():
    action = pyramidal_action(7)
    word = Word.parse("x5", action.signature)
    assert action.group.names[evaluate_word(action, word)] == "r"


def test_evaluate_conjugated_generator_in_d4():
    action = pyramidal_action(4)
    group = action.group
    word = Word.parse("x1 x4 x1^-1", action.signature)
    s, rs = group.by_name("s"), group.by_name("r s")
    expected = group.table[group.table[s][rs]][group.inverse[s]]
    got = evaluate_word(action, word)
    assert got == expected
    # s * r = r^-1 s, so conjugating r s by s gives r^3 s in D4.
    assert group.names[got] == "r^3 s"


@settings(max_examples=60)
@given(st.data())
def test_evaluate_word_is_a_homomorphism(data):
    n = data.draw(st.integers(min_value=3, max_value=9))
    action = pyramidal_action(n)
    letters = st.tuples(st.integers(min_value=0, max_value=4), st.sampled_from((-1, 1)))
    u = Word(tuple(data.draw(st.lists(letters, max_size=6))))
    v = Word(tuple(data.draw(st.lists(letters, max_size=6))))
    group = action.group
    eu = evaluate_word(action, u)
    ev = evaluate_word(action, v)
    assert evaluate_word(action, u.concat(v)) == group.table[eu][ev]
    assert evaluate_word(action, u.inverse()) == group.inverse[eu]


def test_riemann_hurwitz_genus_of_pyramidal_actions():
    assert riemann_hurwitz_genus(pyramidal_action(3)) == 3
    assert riemann_hurwitz_genus(pyramidal_action(4)) == 4
    for n in range(3, 101):
        assert riemann_hurwitz_genus(pyramidal_action(n)) == n


def test_riemann_hurwitz_trivial_group():
    trivial = GroupTable([[0]], names=("e",))
    for tau in (2, 3, 5):
        action = SurfaceKernelAction(trivial, OrbifoldSignature(genus=tau), (0,) * (2 * tau))
        assert riemann_hurwitz_genus(action) == tau


def test_riemann_hurwitz_rejects_inconsistent_input():
    group = dihedral(3)
    sig = OrbifoldSignature(genus=0, cone_orders=(2, 2, 2))
    action = SurfaceKernelAction(group, sig, (3, 4, 5))
    with pytest.raises(ValueError, match="genus"):
        riemann_hurwitz_genus(action)


def test_stratum_dimension():
    sig = OrbifoldSignature(genus=0, cone_orders=(2, 2, 2, 2, 5))
    assert stratum_dimension(sig, 0) == 2
    assert stratum_dimension(sig, 1) == 1
    assert stratum_dimension(sig, 2) == 0
    with pytest.raises(NoSuchStratumError):
        stratum_dimension(sig, 3)


def test_action_requires_closed_signature():
    group = dihedral(3)
    sig = OrbifoldSignature(genus=0, boundary=1, cone_orders=(2, 2, 3))
    with pytest.raises(ValueError, match="closed"):
        SurfaceKernelAction(group, sig, (3, 4, 1))
