"""Orbifold signatures, words in the orbifold fundamental group, and
surface-kernel actions of a finite group.

A closed orientable 2-orbifold with signature ``(genus, boundary;
m_1, ..., m_k)`` has the standard presentation with one generator ``x_i``
per cone point (of order ``m_i``) and handle generators ``a_i, b_i`` when
the genus is positive, subject to the long relation
``x_1 ... x_k [a_1, b_1] ... [a_g, b_g] = 1``.  A group action on a covering
surface is encoded by the images of these generators, and
:func:`validate_action` checks the long relation by evaluating it as a word.

A word is written as whitespace-separated tokens: a generator ``x``, ``a``
or ``b`` with its 1-based number, then optionally ``^e`` or ``^-e`` with
``e >= 1``, which repeats the letter or its inverse ``e`` times (``x3``,
``x3^-1``, ``a1``, ``b2^-2``).  A number past the signature's cone count
or genus is refused.

All Euler characteristic arithmetic is exact (``fractions.Fraction``).  A
signature computes its Euler characteristic once, and an action its letter
images, its covering genus and each subgroup that validation or a build asks
of it once; each keeps them.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .groups import GroupTable, Subgroup, _digits, _integer, _named, _shown, closure

__all__ = [
    "OrbifoldSignature",
    "Word",
    "SurfaceKernelAction",
    "NoSuchStratumError",
    "euler_characteristic",
    "is_hyperbolic",
    "validate_action",
    "evaluate_word",
    "riemann_hurwitz_genus",
    "stratum_dimension",
]

# Letters one word may expand to.  Exponents repeat a letter, so a short
# token can ask for any number of letters; the longest word the pyramid
# families write has about 2n letters (4098 at the top n, 2048).
MAX_WORD_LETTERS = 100_000

# int() reads a string of this many digits under any digit limit CPython
# can be set to.
_DECIMAL_PIECE = 640


def _decimal(digits: str) -> int:
    """The integer a string of decimal digits spells, read by int() in
    pieces of at most ``_DECIMAL_PIECE`` digits, so a number as long as a
    signature's genus is read past CPython's digit limit."""
    if len(digits) <= _DECIMAL_PIECE:
        return int(digits)
    value = 0
    for i in range(0, len(digits), _DECIMAL_PIECE):
        piece = digits[i : i + _DECIMAL_PIECE]
        value = value * 10 ** len(piece) + int(piece)
    return value


@dataclass(frozen=True)
class OrbifoldSignature:
    """Signature (genus, boundary; cone orders) of a 2-orbifold.

    ``cone_orders`` keeps its input order: cone points are referred to by
    their 1-based position elsewhere in the package.  Every field must be an
    integer; floats and bools raise ``TypeError`` instead of being truncated.
    """

    genus: int
    boundary: int = 0
    cone_orders: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "genus", _integer(self.genus, "genus"))
        object.__setattr__(self, "boundary", _integer(self.boundary, "boundary count"))
        object.__setattr__(
            self, "cone_orders", tuple(_integer(m, "cone order") for m in self.cone_orders)
        )
        if self.genus < 0:
            raise ValueError("genus must be non-negative")
        if self.boundary < 0:
            raise ValueError("boundary count must be non-negative")
        for m in self.cone_orders:
            if m < 2:
                raise ValueError(f"cone orders must be at least 2, got {_shown(m)}")

    @property
    def cone_count(self) -> int:
        return len(self.cone_orders)

    @property
    def generator_count(self) -> int:
        """Cone generators plus two handle generators per unit of genus."""
        return self.cone_count + 2 * self.genus

    @functools.cached_property
    def _euler_characteristic(self) -> Fraction:
        """:func:`euler_characteristic` of this signature, computed on first
        use and kept; the fields are frozen, so it cannot go stale."""
        orders = self.cone_orders
        denominator = math.lcm(*orders)
        numerator = (2 - 2 * self.genus - self.boundary - len(orders)) * denominator
        numerator += sum(denominator // m for m in orders)
        return Fraction(numerator, denominator)

    def generator_name(self, index: int) -> str:
        k = self.cone_count
        if 0 <= index < k:
            return f"x{index + 1}"
        h = index - k
        if 0 <= h < 2 * self.genus:
            return f"{'ab'[h % 2]}{h // 2 + 1}"
        raise ValueError(f"generator index {_shown(index)} out of range")


def euler_characteristic(signature: OrbifoldSignature) -> Fraction:
    """Exact orbifold Euler characteristic of a signature:
    ``2 - 2g - b - sum(1 - 1/m_i)``, summed in integers over the least
    common multiple of the cone orders and made one ``Fraction`` at the end.
    Each signature object computes it once and keeps it.
    """
    return signature._euler_characteristic


def is_hyperbolic(signature: OrbifoldSignature) -> bool:
    return euler_characteristic(signature) < 0


_TOKEN_RE = re.compile(r"([xab])([1-9][0-9]*)(?:\^(-?)([1-9][0-9]*))?")


@dataclass(frozen=True)
class Word:
    """A word in the generators of an orbifold fundamental group.

    Letters are pairs ``(generator index, sign)`` with sign +1 or -1.  The
    generator indexing is that of :class:`OrbifoldSignature`.  The text form
    is the token grammar of this module, up to :data:`MAX_WORD_LETTERS`
    letters per word.
    """

    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        letters = tuple(
            (_integer(g, "generator index"), _integer(s, "letter sign")) for g, s in self.letters
        )
        object.__setattr__(self, "letters", letters)
        for g, s in self.letters:
            if s not in (-1, 1):
                raise ValueError(f"letter sign must be +1 or -1, got {_shown(s)}")
            if g < 0:
                raise ValueError(f"negative generator index {_shown(g)}")

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def concat(self, other: "Word") -> "Word":
        """This word followed by ``other``; ``ValueError`` if together they
        have more than :data:`MAX_WORD_LETTERS` letters, checked before the
        word is built."""
        _check_word_length(len(self.letters) + len(other.letters), "joining two words gives")
        return _trusted_word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return _trusted_word(tuple((g, -s) for g, s in reversed(self.letters)))

    @staticmethod
    def parse(text: str, signature: OrbifoldSignature) -> "Word":
        letters: list[tuple[int, int]] = []
        k, genus = signature.cone_count, signature.genus
        # Each kind's bound and its digit count, counted once per word.
        bounds = {"x": (k, _digits(k)), "a": (genus, _digits(genus))}
        bounds["b"] = bounds["a"]
        for token in text.split():
            match = _TOKEN_RE.fullmatch(token)
            if not match:
                raise ValueError(f"bad word token {_shown(token)}")
            kind, number, minus, digits = match.groups()
            # A generator number or an exponent with more digits than its
            # bound is past it, so it is refused before it is read.
            count, width = bounds[kind]
            if len(number) > width or (value := _decimal(number)) > count:
                bound = f"{k} cone generators" if kind == "x" else f"genus {_shown(count)}"
                raise ValueError(f"generator {_shown(kind + number)} exceeds the {bound}")
            index = value - 1
            if kind != "x":
                index = k + 2 * index + (kind == "b")
            digits = digits or "1"
            if (
                len(digits) > len(str(MAX_WORD_LETTERS))
                or len(letters) + int(digits) > MAX_WORD_LETTERS
            ):
                raise ValueError(
                    f"word token {_shown(token)} exceeds the limit of {MAX_WORD_LETTERS} letters"
                )
            letters.extend([(index, -1 if minus else 1)] * int(digits))
        return _trusted_word(tuple(letters))

    def to_text(self, signature: OrbifoldSignature) -> str:
        tokens: list[str] = []
        for (gen, sign), run in itertools.groupby(self.letters):
            exponent = sign * len(list(run))
            name = signature.generator_name(gen)
            tokens.append(name if exponent == 1 else f"{name}^{exponent}")
        return " ".join(tokens)


def _check_word_length(length: int, what: str) -> None:
    """``ValueError`` if a word of ``length`` letters would be over
    :data:`MAX_WORD_LETTERS`; the message starts with ``what``."""
    if length > MAX_WORD_LETTERS:
        raise ValueError(
            f"{what} {_shown(length)} letters, over the limit of {MAX_WORD_LETTERS} letters"
        )


def _trusted_word(letters: tuple[tuple[int, int], ...]) -> Word:
    """A :class:`Word` from letters known to be valid (letters of other
    words, or read by :meth:`Word.parse`), without the public constructor's
    per-letter checks."""
    word = object.__new__(Word)
    object.__setattr__(word, "letters", letters)
    return word


@dataclass(frozen=True)
class SurfaceKernelAction:
    """A finite group action on a surface, encoded over the quotient orbifold.

    ``images`` lists one group element index per presentation generator of
    the closed signature (cone generators first, then handle generators).
    Structural well-formedness is enforced here; the epimorphism conditions
    themselves are checked by :func:`validate_action`; :attr:`violations`
    holds its result, computed once per action object.
    """

    group: GroupTable
    signature: OrbifoldSignature
    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.group.check_index(i, "image index") for i in self.images)
        object.__setattr__(self, "images", images)
        if self.signature.boundary != 0:
            raise ValueError("an action is defined over a closed signature")
        expected = self.signature.generator_count
        if len(self.images) != expected:
            raise ValueError(
                f"expected {_shown(expected)} generator images, got {len(self.images)}"
            )

    @functools.cached_property
    def violations(self) -> tuple[str, ...]:
        """``validate_action(self)``, computed on first use and kept.

        The fields are frozen and the group table is immutable, so the
        result cannot go stale; an equal action built separately is
        validated on its own.
        """
        return tuple(validate_action(self))

    def _subgroup(self, generators: frozenset[int]) -> Subgroup:
        """The subgroup ``generators`` generate, from the action's record,
        which this method alone reads and writes.  A set not seen before
        costs a :func:`closure`, whose result is then looked up by its
        elements, so each distinct subgroup is one object, which keeps its
        own left cosets.  :func:`validate_action` asks first, for the images.

        The record is a dict made in the instance ``__dict__`` on first use;
        a frozenset never equals a tuple, so its two kinds of key cannot
        collide.  Like :attr:`violations`, it cannot go stale, and an equal
        action built separately keeps its own.  It is not kept on the group
        table: a ``Subgroup`` holds its table, so the record would make a
        cycle, and each table would be freed only by the cyclic collector.
        """
        held = self.__dict__.setdefault("_subgroups", {})
        if generators not in held:
            subgroup = closure(self.group, generators)
            held[generators] = held.setdefault(subgroup.elements, subgroup)
        return held[generators]

    @functools.cached_property
    def _letter_images(self) -> dict[tuple[int, int], int]:
        """The image of every letter ``(generator, sign)`` of the
        presentation, ``images[generator]`` for sign +1 and its inverse for
        -1: one lookup per letter for :func:`evaluate_word`.  Computed on
        first use and kept; like :attr:`violations`, it cannot go stale."""
        inverse = self.group.inverse
        letters = {}
        for gen, image in enumerate(self.images):
            letters[(gen, 1)] = image
            letters[(gen, -1)] = inverse[image]
        return letters

    @functools.cached_property
    def _covering_genus(self) -> int:
        """``riemann_hurwitz_genus(self)``, computed on first use and kept:
        the genus a build's graph must have.  Like :attr:`violations`, it
        cannot go stale."""
        return riemann_hurwitz_genus(self)


def evaluate_word(action: SurfaceKernelAction, word: Word) -> int:
    """Index of the image of a word under the action's homomorphism
    (left-to-right), one table product per letter with the letter's image
    read from the action's :attr:`SurfaceKernelAction._letter_images`.
    A letter past the presentation raises ``ValueError`` naming the first
    such generator."""
    letters = action._letter_images
    table = action.group.table
    result = action.group.identity
    try:
        for letter in word.letters:
            result = table[result][letters[letter]]
    except KeyError:
        count = action.signature.generator_count
        raise ValueError(
            f"word uses generator index {_shown(letter[0])}, presentation has {count}"
        ) from None
    return result


def validate_action(action: SurfaceKernelAction) -> list[str]:
    """Check the surface-kernel conditions; return all violations.

    An empty list means the action is valid: every cone generator maps to an
    element of exactly its cone order, the long relation maps to the
    identity, and the images generate the whole group.
    """
    violations: list[str] = []
    group = action.group
    signature = action.signature
    k = signature.cone_count

    for i, m in enumerate(signature.cone_orders):
        got = group.element_order(action.images[i])
        if got != m:
            violations.append(
                f"generator x{i + 1}: image {_named(group.names[action.images[i]])} "
                f"has order {got}, expected {_shown(m)}"
            )

    relation = [(i, 1) for i in range(k)]
    for a in range(k, signature.generator_count, 2):
        relation += [(a, 1), (a + 1, 1), (a, -1), (a + 1, -1)]
    product = evaluate_word(action, _trusted_word(tuple(relation)))
    if product != group.identity:
        violations.append(
            f"long relation maps to {_named(group.names[product])}, not the identity"
        )

    generated = action._subgroup(frozenset(action.images))
    if generated.order != group.order:
        violations.append(
            f"images generate a proper subgroup of order {generated.order} "
            f"(group has order {group.order})"
        )
    return violations


def riemann_hurwitz_genus(action: SurfaceKernelAction) -> int:
    """Genus of the covering surface: 1 - |G| * chi(quotient) / 2.

    A fractional or negative result means the input data is inconsistent.
    """
    chi = euler_characteristic(action.signature)
    genus = 1 - Fraction(action.group.order) * chi / 2
    if genus.denominator != 1 or genus < 0:
        raise ValueError(f"covering genus {_shown(genus)} is not a non-negative integer")
    return int(genus)


class NoSuchStratumError(ValueError):
    """Raised when the requested boundary stratum has negative dimension."""


def stratum_dimension(signature: OrbifoldSignature, pinched: int) -> int:
    """Dimension of the stratum reached by pinching ``pinched`` curves.

    For a closed signature of genus t with r cone points this is
    ``3t - 3 + r - pinched``.
    """
    if signature.boundary != 0:
        raise ValueError("stratum dimension is defined for closed signatures")
    pinched = _integer(pinched, "pinched curve count")
    if pinched < 0:
        raise ValueError("pinched curve count must be non-negative")
    dim = 3 * signature.genus - 3 + signature.cone_count - pinched
    if dim < 0:
        raise NoSuchStratumError(f"no such stratum: dimension would be {_shown(dim)}")
    return dim
