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
from strata_limits.pyramids import _conjugate


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
        (Fraction(10**5000, 3), 0, (), "genus must be an integer, got <integer of 5001 digits>/3"),
    ],
    ids=["cone-float", "cone-integral-float", "cone-bool", "genus-float", "genus-bool",
         "boundary-float", "boundary-bool", "cone-str", "genus-huge-fraction"],
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
    with pytest.raises(ValueError, match=r"^generator 'x3' exceeds the 2 cone generators$"):
        Word.parse("x3", sig)
    with pytest.raises(ValueError, match=r"^generator 'a1' exceeds the genus 0$"):
        Word.parse("x1 a1", sig)
    with pytest.raises(ValueError, match=r"^generator 'a2' exceeds the genus 1$"):
        Word.parse("b1 a2^-1", OrbifoldSignature(genus=1, cone_orders=(2,)))
    with pytest.raises(ValueError):
        Word.parse("y1", sig)


def test_word_to_text_writes_runs_of_equal_letters():
    sig = OrbifoldSignature(genus=1, cone_orders=(2, 3))
    word = Word.parse("x1 x1 x1^-1 a1^3 x2^-1 x2^-1 b1", sig)
    assert word.to_text(sig) == "x1^2 x1^-1 a1^3 x2^-2 b1"
    assert Word().to_text(sig) == ""


def test_word_parse_stops_at_the_letter_limit():
    sig = OrbifoldSignature(genus=0, cone_orders=(2, 2, 5))
    half = MAX_WORD_LETTERS // 2
    assert len(Word.parse(f"x1^{half} x2^-{half}", sig)) == MAX_WORD_LETTERS
    message = f"word token 'x3' exceeds the limit of {MAX_WORD_LETTERS} letters"
    with pytest.raises(ValueError, match=message):
        Word.parse(f"x1^{half} x2^-{half} x3", sig)


def test_word_parse_refuses_a_long_exponent_before_converting():
    # int() on more than 4300 digits raises its own error on CPython 3.11+;
    # the letter limit must be reported first.
    sig = OrbifoldSignature(genus=0, cone_orders=(2, 2, 5))
    message = f"exceeds the limit of {MAX_WORD_LETTERS} letters"
    for exponent in ("9" * 5000, "-" + "9" * 5000, "1000000", str(MAX_WORD_LETTERS + 1)):
        with pytest.raises(ValueError, match=message):
            Word.parse(f"x1^{exponent}", sig)
    assert len(Word.parse(f"x1^-{MAX_WORD_LETTERS}", sig)) == MAX_WORD_LETTERS


def test_word_parse_errors_cut_long_tokens_short():
    sig = OrbifoldSignature(genus=0, cone_orders=(2, 2, 5))
    shown = "'" + "x1^" + "9" * 37 + "'... (5003 characters)"
    with pytest.raises(ValueError) as exc:
        Word.parse("x1^" + "9" * 5000, sig)
    assert str(exc.value) == f"word token {shown} exceeds the limit of {MAX_WORD_LETTERS} letters"
    with pytest.raises(ValueError) as exc:
        Word.parse("y" * 5000, sig)
    assert str(exc.value) == "bad word token '" + "y" * 40 + "'... (5000 characters)"
    # A token of 40 characters is shown whole.
    with pytest.raises(ValueError, match="bad word token '" + "y" * 40 + "'$"):
        Word.parse("y" * 40, sig)


def test_word_parse_refuses_a_long_generator_number_before_converting():
    # int() on more than 4300 digits raises its own error on CPython 3.11+.
    sig = OrbifoldSignature(genus=1, cone_orders=(2, 2, 2, 2, 5))
    for kind, bound in (("x", "5 cone generators"), ("b", "genus 1")):
        with pytest.raises(ValueError) as exc:
            Word.parse("x1 " + kind + "1" * 5000, sig)
        shown = f"'{kind}{'1' * 39}'... (5001 characters)"
        assert str(exc.value) == f"generator {shown} exceeds the {bound}"
    # A number with as many digits as the bound is compared with it.
    twelve = OrbifoldSignature(genus=0, cone_orders=(2,) * 12)
    assert Word.parse("x12", twelve) == Word(((11, 1),))
    with pytest.raises(ValueError, match=r"^generator 'x13' exceeds the 12 cone generators$"):
        Word.parse("x13", twelve)


def test_word_parse_reads_a_genus_past_the_digit_limit():
    # A genus of 5001 digits: neither it nor a generator number as long as
    # it reaches str() or int() whole.
    sig = OrbifoldSignature(10**5000)
    assert Word.parse("a1", sig) == Word(((0, 1),))
    assert Word.parse("b1" + "0" * 5000, sig) == Word(((2 * 10**5000 - 1, 1),))
    for number in ("9" * 5001, "1" + "0" * 4999 + "1"):
        with pytest.raises(ValueError) as exc:
            Word.parse("a" + number, sig)
        shown = f"'a{number[:39]}'... (5002 characters)"
        assert str(exc.value) == f"generator {shown} exceeds the genus <integer of 5001 digits>"


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
    # A cone order past the digit limit is shown cut short.
    huge = OrbifoldSignature(genus=0, cone_orders=(2, 2, 2, 2, 10**5000))
    violations = validate_action(SurfaceKernelAction(group, huge, pyramidal_action(n).images))
    assert "generator x5: image r has order 5, expected <integer of 5001 digits>" in violations


def test_validate_multiplies_handle_commutators_into_the_long_relation():
    # Over (1; 2): x1 [a1, b1] = 1 with [a, b] = a b a^-1 b^-1.
    group = dihedral(4)
    sig = OrbifoldSignature(genus=1, cone_orders=(2,))
    r2, r, s = (group.by_name(name) for name in ("r^2", "r", "s"))
    action = SurfaceKernelAction(group, sig, (r2, r, s))
    assert validate_action(action) == []
    assert riemann_hurwitz_genus(action) == 3
    wrong = SurfaceKernelAction(group, sig, (s, r, s))
    assert validate_action(wrong) == ["long relation maps to r^2 s, not the identity"]


def test_validate_rejects_images_generating_a_proper_subgroup():
    group = dihedral(5)
    sig = OrbifoldSignature(genus=0, cone_orders=(5, 5))
    action = SurfaceKernelAction(group, sig, (group.by_name("r"), group.by_name("r^4")))
    assert validate_action(action) == [
        "images generate a proper subgroup of order 5 (group has order 10)"
    ]


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


def _evaluate_letter_by_letter(action, word):
    """The image of a word read from ``action.images`` letter by letter,
    an inverse taken for each negative sign: the reference for the
    action's letter-image table."""
    group = action.group
    count = action.signature.generator_count
    result = group.identity
    for gen, sign in word.letters:
        if gen >= count:
            raise ValueError(f"word uses generator index {gen}, presentation has {count}")
        image = action.images[gen]
        if sign < 0:
            image = group.inverse[image]
        result = group.table[result][image]
    return result


def _handle_action():
    """D4 over (1; 2): x1 -> r^2, a1 -> r, b1 -> s, a genus-1 action with
    handle generators."""
    group = dihedral(4)
    images = tuple(group.by_name(name) for name in ("r^2", "r", "s"))
    return SurfaceKernelAction(group, OrbifoldSignature(genus=1, cone_orders=(2,)), images)


@settings(max_examples=150)
@given(st.data())
def test_evaluate_word_matches_letter_by_letter_evaluation(data):
    # Generators up to two past the presentation: the first such letter is
    # the one the refusal names, on both routes.
    action = data.draw(st.sampled_from((pyramidal_action(5), _handle_action())))
    count = action.signature.generator_count
    letters = st.tuples(st.integers(min_value=0, max_value=count + 1), st.sampled_from((-1, 1)))
    word = Word(tuple(data.draw(st.lists(letters, max_size=12))))
    try:
        expected = _evaluate_letter_by_letter(action, word)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            evaluate_word(action, word)
        assert str(raised.value) == str(exc)
    else:
        assert evaluate_word(action, word) == expected


def test_evaluate_word_names_the_first_generator_past_the_presentation():
    action = _handle_action()
    word = Word(((1, 1), (4, -1), (2, 1), (3, 1)))
    with pytest.raises(ValueError) as raised:
        evaluate_word(action, word)
    assert str(raised.value) == "word uses generator index 4, presentation has 3"


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


def _euler_characteristic_by_fractions(signature):
    """The Fraction loop ``euler_characteristic`` used before it summed in
    integers, kept as a reference."""
    chi = Fraction(2 - 2 * signature.genus - signature.boundary)
    for m in signature.cone_orders:
        chi -= 1 - Fraction(1, m)
    return chi


@given(
    genus=st.integers(0, 5),
    boundary=st.integers(0, 4),
    cone_orders=st.lists(st.integers(2, 720), max_size=8),
)
def test_euler_characteristic_matches_the_fraction_loop(genus, boundary, cone_orders):
    signature = OrbifoldSignature(genus, boundary, tuple(cone_orders))
    got = euler_characteristic(signature)
    assert type(got) is Fraction
    assert got == _euler_characteristic_by_fractions(signature)


# Genus 2 with three cone points: generators x1..x3, a1, b1, a2, b2.
WORD_SIGNATURE = OrbifoldSignature(2, 0, (2, 3, 5))
LETTERS = st.lists(
    st.tuples(
        st.integers(0, WORD_SIGNATURE.generator_count - 1), st.sampled_from([1, -1])
    ),
    max_size=12,
).map(tuple)


def _assert_checked_word(word, letters):
    assert word == Word(letters)
    assert type(word.letters) is tuple
    assert all(type(g) is int and type(s) is int for g, s in word.letters)


@given(first=LETTERS, second=LETTERS, times=st.integers(0, 3))
def test_word_fast_paths_match_the_public_constructor(first, second, times):
    a, b = Word(first), Word(second)
    inverse = tuple((g, -s) for g, s in reversed(first))
    _assert_checked_word(a.concat(b), first + second)
    _assert_checked_word(a.inverse(), inverse)
    _assert_checked_word(Word.parse(a.to_text(WORD_SIGNATURE), WORD_SIGNATURE), first)
    _assert_checked_word(_conjugate(b, a, times), first * times + second + inverse * times)


CLOSED_GENUS_ONE = OrbifoldSignature(genus=1, cone_orders=(2,))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Word(((0, 2),)), "letter sign must be +1 or -1, got 2"),
        (lambda: Word(((-1, 1),)), "negative generator index -1"),
        (lambda: CLOSED_GENUS_ONE.generator_name(3), "generator index 3 out of range"),
        (lambda: CLOSED_GENUS_ONE.generator_name(-1), "generator index -1 out of range"),
        (
            lambda: stratum_dimension(OrbifoldSignature(0, 1, (2, 2, 3)), 0),
            "stratum dimension is defined for closed signatures",
        ),
    ],
    ids=["word-sign", "word-index", "name-past-end", "name-negative", "dimension-not-closed"],
)
def test_refusals_give_their_exact_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_validate_cuts_a_long_element_name_short():
    # A name of up to 40 characters prints as it is, a longer one quoted
    # and cut short.
    long_name, short_name = "a" * 3000, "a" * 40
    cut = f"{'a' * 40!r}... (3000 characters)"
    for name, shown in [(long_name, cut), (short_name, short_name)]:
        group = GroupTable([[0, 1], [1, 0]], ["e", name])
        action = SurfaceKernelAction(group, OrbifoldSignature(0, 0, (3, 3, 3)), (1, 1, 1))
        assert validate_action(action) == [
            *(f"generator x{i}: image {shown} has order 2, expected 3" for i in (1, 2, 3)),
            f"long relation maps to {shown}, not the identity",
        ]
