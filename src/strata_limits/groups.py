"""Exact arithmetic in small finite groups.

A group is stored as a dense ``order x order`` multiplication table of
element indices, together with display names.  All group axioms are checked
at construction time, so downstream code never has to re-verify them.  The
groups this package deals with have order at most a few thousand
(:data:`MAX_GROUP_ORDER` bounds :func:`dihedral`), which makes the dense
representation both the simplest and the fastest option.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = [
    "GroupTable",
    "Subgroup",
    "dihedral",
    "closure",
    "left_cosets",
]

# Largest order :func:`dihedral` builds a table for.  The table holds
# order^2 entries, so a parameter read from a file or the command line
# could otherwise ask for any amount of memory.  The pyramid family shares
# the bound through :func:`_check_dihedral_order`, and CI classifies its
# top n, 2048, at this order.
MAX_GROUP_ORDER = 4096


class GroupTable:
    """A finite group given by its multiplication table.

    Elements are the indices ``0 .. order-1``; ``table[a][b]`` is the index
    of the product ``a * b``.  Entries are integers under :func:`_integer`;
    instances are immutable after construction.  An element is its
    index everywhere in the package; :meth:`check_index` is the one rule
    for an index handed in from outside.

    The table is checked exactly: it must be square, every row must be a
    permutation of the indices, and :func:`_group_axioms` must find a
    two-sided identity, two-sided inverses and associativity.  Columns are
    scanned only when those axioms fail, and this loses nothing: an
    associative table with a two-sided identity and two-sided inverses is a
    group, and in a group right multiplication by b is a bijection, undone
    by right multiplication by b^-1, so every column is a permutation.  A
    table with a bad column therefore fails one of the axioms, and the scan
    then names the first bad column, the error an eager column scan would
    have raised.  Light's test stays exact on any table, since the elements
    that pass it are closed under products in any magma; the row check
    before it keeps its cost bound (see :func:`_check_associativity`).
    """

    __slots__ = ("order", "table", "names", "identity", "inverse", "_index_of_name")

    def __init__(self, table: Sequence[Sequence[int]], names: Sequence[str] | None = None):
        rows = tuple(map(_index_row, table))
        order = len(rows)
        if order == 0:
            raise ValueError("multiplication table is empty")
        all_indices = frozenset(range(order))
        for i, row in enumerate(rows):
            if len(row) != order:
                raise ValueError(f"multiplication table is not square (row {i})")
            if set(row) != all_indices:
                raise ValueError(f"row {i} is not a permutation of the element indices")
        try:
            identity, inverse = _group_axioms(rows)
        except ValueError:
            # A table that passes the axioms has permutation columns, so
            # they are scanned only here, to report a bad one first.
            for j, column in enumerate(zip(*rows)):
                if set(column) != all_indices:
                    raise ValueError(
                        f"column {j} is not a permutation of the element indices"
                    ) from None
            raise

        if names is None:
            names = tuple(f"g{i}" for i in range(order))
        else:
            names = tuple(str(s) for s in names)
            if len(names) != order:
                raise ValueError("one name per element is required")
            if len(set(names)) != order:
                raise ValueError("element names must be distinct")

        self.order = order
        self.table = rows
        self.names = names
        self.identity = identity
        self.inverse = inverse
        self._index_of_name = {name: i for i, name in enumerate(names)}

    def check_index(self, value, field: str = "element index") -> int:
        """``value`` as an element index: an integer under :func:`_integer`,
        and ``ValueError`` unless ``0 <= value < order``.  Negative indices
        are refused rather than counted from the end."""
        index = _integer(value, field)
        if not 0 <= index < self.order:
            raise ValueError(f"{field} {_shown(index)} out of range")
        return index

    def by_name(self, name: str) -> int:
        try:
            return self._index_of_name[name]
        except KeyError:
            raise ValueError(f"unknown element name {_shown(name)}") from None

    def element_order(self, element) -> int:
        """Smallest t >= 1 with element**t equal to the identity."""
        element = x = self.check_index(element)
        t = 1
        while x != self.identity:
            x = self.table[x][element]
            t += 1
        return t

    def __repr__(self) -> str:
        return f"GroupTable(order={self.order})"


def _integer(value, field: str) -> int:
    """``value`` as an int, or ``TypeError``: the integer rule of every value
    type.  ``int()`` would truncate 2.5 and parse "3", and ``operator.index``
    would take ``True`` as 1."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{field} must be an integer, got {_shown(value)}")


# The most characters of a text, or digits of an integer, a refusal shows.
_SHOWN = 40


def _shown(value) -> str:
    """``value`` as a refusal prints it, the one rule for an outside value
    in an error message: a text is quoted and cut at ``_SHOWN`` characters,
    an integer is shown in full up to ``_SHOWN`` digits and past that as
    ``<integer of N digits>``, a ``Fraction`` as its shown numerator and
    denominator (an integer shows as one), and a list or a dict entry by
    entry.  Any other value shows its ``repr()`` cut at ``_SHOWN``
    characters, which leaves a float, ``inf`` and ``nan`` included, and
    ``None`` whole.  A longer integer never reaches ``str()`` or ``repr()``,
    which CPython refuses past its digit limit."""
    if isinstance(value, str):
        if len(value) <= _SHOWN:
            return repr(value)
        return f"{value[:_SHOWN]!r}... ({len(value)} characters)"
    if isinstance(value, int):
        if abs(value) < 10**_SHOWN:
            return str(value)
        return f"{'-' if value < 0 else ''}<integer of {_digits(value)} digits>"
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return _shown(value.numerator)
        return f"{_shown(value.numerator)}/{_shown(value.denominator)}"
    if isinstance(value, list):
        return f"[{', '.join(map(_shown, value))}]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_shown(k)}: {_shown(v)}" for k, v in value.items()) + "}"
    try:
        text = repr(value)
    except ValueError:  # it holds an integer past the digit limit
        text = f"<{type(value).__name__}>"
    return text if len(text) <= _SHOWN else f"{text[:_SHOWN]}..."


def _named(name) -> str:
    """A name, an element's or a curve's, as a message prints it: a text of
    up to ``_SHOWN`` characters as it is, and any other value by
    :func:`_shown`, so a long name is quoted and cut short."""
    if isinstance(name, str) and len(name) <= _SHOWN:
        return name
    return _shown(name)


def _digits(value: int) -> int:
    """The number of decimal digits of ``abs(value)``, counted without
    ``str()``."""
    size = abs(value)
    # log10(2) per bit counts the digits exactly or one too many.
    digits = int(size.bit_length() * 0.30102999566398120) + 1
    if digits > 1 and size < 10 ** (digits - 1):
        digits -= 1
    return digits


def _index_row(row: Sequence[int]) -> tuple[int, ...]:
    """A table row as a tuple of ints: rows of plain ints, the usual case,
    are taken as they are, and any other row goes through :func:`_integer`."""
    row = tuple(row)
    if set(map(type, row)) <= {int}:
        return row
    return tuple(_integer(x, "table entry") for x in row)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup, stored as the sorted tuple of its element indices.

    Construction verifies membership of the identity and closure under
    inverse and product.  Lagrange divisibility needs no check: a set with
    the identity that is closed under products, inside a finite group, is a
    subgroup.  :func:`closure` skips the check, because its result is a
    subgroup by construction.

    Its left cosets are computed by :func:`left_cosets` on first use and
    kept, with their representatives; the group table is immutable, so
    they cannot go stale.
    """

    group: GroupTable
    elements: tuple[int, ...]

    def __post_init__(self):
        check = self.group.check_index
        elems = tuple(sorted(set(check(x, "subgroup element") for x in self.elements)))
        object.__setattr__(self, "elements", elems)
        member = set(elems)
        if self.group.identity not in member:
            raise ValueError("subgroup does not contain the identity")
        table = self.group.table
        for a in elems:
            if self.group.inverse[a] not in member:
                raise ValueError(f"subgroup is not closed under inverses (element {a})")
            for b in elems:
                if table[a][b] not in member:
                    raise ValueError(f"subgroup is not closed under products ({a}, {b})")

    @property
    def order(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def _coset_labels(self) -> tuple[int, ...]:
        """``left_cosets(self)``, computed on first use and kept."""
        return left_cosets(self)

    @functools.cached_property
    def _coset_representatives(self) -> tuple[int, ...]:
        """The fixed points of :attr:`_coset_labels`, in ascending order:
        one representative per left coset."""
        return tuple(x for x, label in enumerate(self._coset_labels) if x == label)

    def element_names(self) -> tuple[str, ...]:
        return tuple(self.group.names[i] for i in self.elements)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, elements={{{', '.join(self.element_names())}}})"


def closure(group: GroupTable, generators: Sequence[int]) -> Subgroup:
    """Smallest subgroup of ``group`` containing the given element indices.

    Dimino's algorithm (G. Butler, *Fundamental Algorithms for Permutation
    Groups*, LNCS 559, 1991): the generators are added one at a time, and
    each one grows the subgroup by whole left cosets of the subgroup before
    it.  See :func:`_add_generator`.
    """
    if not generators:
        raise ValueError("closure requires at least one generator")
    generators = {group.check_index(g, "generator") for g in generators}
    span = {group.identity}
    added: list[int] = []
    for g in generators:
        if g not in span:
            _add_generator(group.table, span, added, g)
    return _trusted_subgroup(group, tuple(sorted(span)))


def _add_generator(table, span: set[int], added: list[int], g: int) -> None:
    """One step of Dimino's algorithm, in place: ``span``, the subgroup H
    generated by ``added``, becomes the subgroup generated by ``added`` and
    ``g``, which must lie outside H; ``g`` is appended to ``added``.

    The new subgroup is a union of left cosets r*H.  Each coset is read in
    one call, as H's columns of row r.  Starting from g*H, every known
    representative r is left-multiplied by every generator s: an s*r
    outside the span starts a new coset.  The union is then closed under
    left multiplication by the generators (s*(r*h) = (s*r)*h lies in the
    coset of s*r), and a finite set with that property is the subgroup
    they generate.  The first step, from the trivial H, lists the powers of
    g instead: its cosets are single elements.
    """
    added.append(g)
    if len(span) == 1:
        x = g
        while x not in span:
            span.add(x)
            x = table[x][g]
        return
    coset = operator.itemgetter(*span)
    rows = [table[s] for s in added]
    span.update(coset(table[g]))
    representatives = [g]
    for r in representatives:
        for row_s in rows:
            y = row_s[r]
            if y not in span:
                span.update(coset(table[y]))
                representatives.append(y)


def _group_axioms(rows) -> tuple[int, tuple[int, ...]]:
    """The identity and the inverses of a table whose rows are permutations
    of the element indices, or ``ValueError`` at the first failing axiom:
    a two-sided identity, two-sided inverses, then associativity by
    :func:`_check_associativity`."""
    order = len(rows)
    identity = None
    for e in range(order):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(order)):
            identity = e
            break
    if identity is None:
        raise ValueError("table has no identity element")

    inverse = [0] * order
    for a in range(order):
        b = rows[a].index(identity)
        if rows[b][a] != identity:
            raise ValueError(f"element {a} has no two-sided inverse")
        inverse[a] = b

    _check_associativity(rows, identity)
    return identity, tuple(inverse)


def _check_associativity(rows, identity: int) -> None:
    """Light's associativity test over a greedy generating set.

    The elements g with ``(x*g)*y == x*(g*y)`` for all x, y are closed under
    products, so the table is associative once every element of a
    generating set passes.  Generators are taken greedily, each outside the
    span of those before it; the span grows by one step of Dimino's
    algorithm per passing generator (:func:`_add_generator`).  The rows
    are permutations, which is left cancellation: with the identity, the
    span of passing generators is then a finite associative monoid in which
    left multiplication by each element is injective, hence a group, and a
    generator that passes adds a disjoint coset of it, at least doubling
    it.  So at most log2(order) generators pass on any such table, and the
    cost is O(order^2 log order).
    """
    generators: list[int] = []
    span = {identity}
    for g in range(len(rows)):
        if g in span:
            continue
        row_g = rows[g]
        # Maps row x to the products x*(g*y) over all y.
        x_times_gy = operator.itemgetter(*row_g)
        for x, row_x in enumerate(rows):
            xg_times_y = rows[row_x[g]]
            if xg_times_y != x_times_gy(row_x):
                y = next(y for y, xgy in enumerate(xg_times_y) if xgy != row_x[row_g[y]])
                raise ValueError(f"table is not associative at ({x}, {g}, {y})")
        _add_generator(rows, span, generators, g)


def _trusted_subgroup(group: GroupTable, elements: tuple[int, ...]) -> Subgroup:
    """A :class:`Subgroup` from a sorted tuple of indices that is known to
    form one, without the O(|H|^2) check of the public constructor."""
    subgroup = object.__new__(Subgroup)
    object.__setattr__(subgroup, "group", group)
    object.__setattr__(subgroup, "elements", elements)
    return subgroup


def left_cosets(subgroup: Subgroup) -> tuple[int, ...]:
    """The left cosets x*H of ``subgroup``: entry x is the least element
    index of the coset of x.  That least index labels the coset, which makes
    labels reproducible across runs; the labels are the fixed points, in
    ascending order."""
    group = subgroup.group
    table = group.table
    rep_of = [-1] * group.order
    for g in range(group.order):
        if rep_of[g] != -1:
            continue
        # g is minimal in its coset: smaller members would already be assigned.
        for h in subgroup.elements:
            rep_of[table[g][h]] = g
    return tuple(rep_of)


def _check_dihedral_order(n: int) -> None:
    """``ValueError`` when the dihedral group of order 2n is over
    :data:`MAX_GROUP_ORDER`: the one bound of :func:`dihedral` and of every
    entry point of the pyramid family."""
    if 2 * n > MAX_GROUP_ORDER:
        raise ValueError(
            f"dihedral group of order {_shown(2 * n)} is over the limit "
            f"of {MAX_GROUP_ORDER} elements"
        )


def dihedral(n: int) -> GroupTable:
    """Dihedral group of order 2n.

    Indices 0..n-1 are the rotations r^0..r^(n-1), indices n..2n-1 are the
    reflections r^k*s.  Index n is s itself; n=1 gives the two-element group
    generated by a single reflection.  An order 2n over
    :data:`MAX_GROUP_ORDER` raises ``ValueError`` before anything is built.
    """
    n = _integer(n, "dihedral parameter n")
    if n < 1:
        raise ValueError("dihedral group requires n >= 1")
    _check_dihedral_order(n)
    # r^a * r^b = r^(a+b) and r^a * r^b s = r^(a+b) s: row r^a is both
    # halves shifted left by a.  r^a s * r^b = r^(a-b) s and
    # r^a s * r^b s = r^(a-b): row r^a s is both halves reversed and shifted,
    # reflections first.
    rotations = tuple(range(n))
    reflections = tuple(range(n, 2 * n))
    table = [rotations[a:] + rotations[:a] + reflections[a:] + reflections[:a] for a in range(n)]
    table += [
        reflections[a::-1] + reflections[:a:-1] + rotations[a::-1] + rotations[:a:-1]
        for a in range(n)
    ]

    def rot_name(k: int) -> str:
        if k == 0:
            return "e"
        if k == 1:
            return "r"
        return f"r^{k}"

    names = [rot_name(k) for k in range(n)]
    names += ["s" if k == 0 else f"{rot_name(k)} s" for k in range(n)]
    return GroupTable(table, names)
