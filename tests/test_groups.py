import functools
import re
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strata_limits import groups
from strata_limits.groups import (
    MAX_GROUP_ORDER,
    GroupTable,
    Subgroup,
    _check_associativity,
    _shown_integer,
    closure,
    dihedral,
    left_cosets,
)

# Latin square with identity 0 and two-sided inverses that is not a group.
NON_ASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_dihedral_order_is_2n():
    for n in range(1, 9):
        assert dihedral(n).order == 2 * n


def test_dihedral_rejects_zero():
    with pytest.raises(ValueError):
        dihedral(0)


def test_dihedral_refuses_an_order_past_the_limit():
    # Built, 10**9 would ask for a table of 4 * 10**18 entries.
    for n in (MAX_GROUP_ORDER // 2 + 1, 10**9):
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            dihedral(n)
        assert time.perf_counter() - start < 0.1
        assert str(info.value) == (
            f"dihedral group of order {2 * n} is over the limit of {MAX_GROUP_ORDER} elements"
        )


def test_shown_integer_cuts_a_long_value_to_its_digit_count():
    assert _shown_integer(10**40 - 1) == "9" * 40
    assert _shown_integer(-(10**40) + 1) == "-" + "9" * 40
    # The bit-length estimate is exact or one too many, on either side of
    # each power of ten.
    for digits in (41, 42, 100, 1000, 4300, 4301, 10_000):
        assert _shown_integer(10 ** (digits - 1)) == f"<integer of {digits} digits>"
        assert _shown_integer(10**digits - 1) == f"<integer of {digits} digits>"
        assert _shown_integer(-(10**digits) + 1) == f"-<integer of {digits} digits>"
    assert str(pytest.raises(ValueError, dihedral, 10**4300).value) == (
        "dihedral group of order <integer of 4301 digits> is over the limit "
        f"of {MAX_GROUP_ORDER} elements"
    )


def test_dihedral_one_is_generated_by_a_reflection():
    g = dihedral(1)
    assert g.order == 2
    s = g.by_name("s")
    assert g.element_order(s) == 2
    assert g.table[s][s] == g.identity


def test_dihedral_names():
    g = dihedral(3)
    assert g.names == ("e", "r", "r^2", "s", "r s", "r^2 s")


def _reference_dihedral(n):
    """Table, names, identity and inverses of D_n, entry by entry."""

    def mul(a, b):
        ra, fa = (a % n, a // n)
        rb, fb = (b % n, b // n)
        rot = (ra - rb) % n if fa else (ra + rb) % n
        return rot + n * (fa ^ fb)

    table = tuple(tuple(mul(a, b) for b in range(2 * n)) for a in range(2 * n))
    rotations = ["e", "r"] + [f"r^{k}" for k in range(2, n)]
    names = tuple(rotations[:n]) + ("s",) + tuple(f"{name} s" for name in rotations[1:n])
    return table, names, 0, tuple(row.index(0) for row in table)


@pytest.mark.parametrize("n", [*range(1, 65), 512])
def test_dihedral_matches_entrywise_formula(n):
    g = dihedral(n)
    assert (g.table, g.names, g.identity, g.inverse) == _reference_dihedral(n)


def test_reflection_relation_in_d4():
    g = dihedral(4)
    s = g.by_name("s")
    r = g.by_name("r")
    sr = g.table[s][r]
    assert g.table[sr][sr] == g.identity


def test_group_axioms_hold_for_dihedral_tables():
    # Latin square and identity/inverse axioms, checked from the outside.
    for n in (1, 2, 3, 5, 8):
        g = dihedral(n)
        full = set(range(g.order))
        for i in range(g.order):
            assert set(g.table[i]) == full
            assert {g.table[j][i] for j in range(g.order)} == full
            assert g.table[g.identity][i] == i
            assert g.table[i][g.identity] == i
            assert g.table[g.inverse[i]][i] == g.identity


def test_non_latin_table_rejected():
    with pytest.raises(ValueError, match="not a permutation"):
        GroupTable([[0, 0], [1, 1]])


def test_table_without_identity_rejected():
    # Subtraction mod 3 is a Latin square with only a right identity.
    table = [[(a - b) % 3 for b in range(3)] for a in range(3)]
    with pytest.raises(ValueError, match="identity"):
        GroupTable(table)


def test_non_associative_loop_rejected():
    with pytest.raises(ValueError, match="associative"):
        GroupTable(NON_ASSOCIATIVE_LOOP)


def _reference_checks(table):
    """(identity, inverses) of ``table``, or the ``ValueError`` of its first
    failing check, with every check run in turn as ``GroupTable`` ran them
    when it scanned columns on every table: rows, columns, identity,
    inverses, associativity.  Kept as the reference for the error messages;
    the last step is the module's Light's test, whose verdicts
    ``test_group_table_agrees_with_brute_force_on_small_latin_squares``
    checks."""
    rows = tuple(tuple(row) for row in table)
    order = len(rows)
    if order == 0:
        raise ValueError("multiplication table is empty")
    all_indices = frozenset(range(order))
    for i, row in enumerate(rows):
        if len(row) != order:
            raise ValueError(f"multiplication table is not square (row {i})")
        if set(row) != all_indices:
            raise ValueError(f"row {i} is not a permutation of the element indices")
    for j, column in enumerate(zip(*rows)):
        if set(column) != all_indices:
            raise ValueError(f"column {j} is not a permutation of the element indices")

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


def _outcome(check, table):
    try:
        return check(table)
    except ValueError as exc:
        return str(exc)


def _group_table_outcome(table):
    group = GroupTable(table)
    return group.identity, group.inverse


@st.composite
def ragged_tables(draw):
    """``order`` rows of ``order - 1`` to ``order + 1`` entries, or of
    ``order`` entries in half the draws, each entry in ``-1 .. order``."""
    order = draw(st.integers(min_value=1, max_value=6))
    entry = st.integers(min_value=-1, max_value=order)
    shortest, longest = (order, order) if draw(st.booleans()) else (order - 1, order + 1)
    row = st.lists(entry, min_size=shortest, max_size=longest)
    return draw(st.lists(row, min_size=order, max_size=order))


@st.composite
def permutation_row_tables(draw):
    order = draw(st.integers(min_value=1, max_value=6))
    row = st.permutations(range(order))
    return draw(st.lists(row, min_size=order, max_size=order))


@functools.cache
def _reduced_latin_squares_by_kind():
    """The reduced Latin squares of order at most 6 in three lists: groups
    (93), non-groups with two-sided inverses (2 + 1728, so associativity is
    what fails) and non-groups without them (48 + 7600)."""
    group_tables, with_inverses, without = [], [], []
    for n in range(1, 7):
        for square in _reduced_latin_squares(n):
            if _associative_by_brute_force(square):
                group_tables.append(square)
            elif all(square[square[a].index(0)][a] == 0 for a in range(n)):
                with_inverses.append(square)
            else:
                without.append(square)
    return group_tables, with_inverses, without


@st.composite
def latin_squares(draw):
    """A reduced Latin square, drawn from the groups and the two kinds of
    non-group alike, either relabeled by one permutation of its elements
    (an isomorphic copy: only the indices of its first failure move) or
    with its rows and its columns permuted apart (which usually loses the
    identity)."""
    square = draw(st.one_of(*map(st.sampled_from, _reduced_latin_squares_by_kind())))
    order = len(square)
    p = draw(st.permutations(range(order)))
    if draw(st.booleans()):
        image = [[0] * order for _ in range(order)]
        for a in range(order):
            for b in range(order):
                image[p[a]][p[b]] = p[square[a][b]]
        return image
    q = draw(st.permutations(range(order)))
    return [[square[p[a]][q[b]] for b in range(order)] for a in range(order)]


TABLE_KINDS = {
    "ragged": ragged_tables(),
    "permutation-rows": permutation_row_tables(),
    "latin": latin_squares(),
}


@pytest.mark.parametrize("kind", TABLE_KINDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_group_table_matches_the_eager_column_scan(kind, data):
    # Accepted exactly when the reference accepts, with the same identity
    # and inverses, and otherwise refused with the same first message.
    table = data.draw(TABLE_KINDS[kind])
    assert _outcome(_group_table_outcome, table) == _outcome(_reference_checks, table)


@pytest.mark.parametrize(
    "table, message",
    [
        # Both rows are permutations and there is no identity either, but
        # the column is what is reported.
        ([[0, 1], [0, 1]], "column 0 is not a permutation of the element indices"),
        (NON_ASSOCIATIVE_LOOP, "table is not associative at ("),
    ],
    ids=["bad-column", "non-associative-loop"],
)
def test_first_message_is_kept(table, message):
    with pytest.raises(ValueError) as info:
        GroupTable(table)
    assert str(info.value).startswith(message)
    assert str(info.value) == _outcome(_reference_checks, table)


def test_accepted_tables_never_scan_columns(monkeypatch):
    # The column scan is the module's one use of zip; a rejected table with
    # a bad column still reaches it.
    calls = []

    def recording_zip(*args):
        calls.append(len(args))
        return zip(*args)

    monkeypatch.setattr(groups, "zip", recording_zip, raising=False)
    dihedral(7)
    GroupTable([[a ^ b for b in range(8)] for a in range(8)])
    assert calls == []
    with pytest.raises(ValueError, match="column 0 is not a permutation"):
        GroupTable([[0, 1], [0, 1]])
    assert calls == [2]


def test_element_order_of_identity_is_one():
    g = dihedral(5)
    assert g.element_order(g.identity) == 1


def test_element_order_r2_in_d6():
    g = dihedral(6)
    assert g.element_order(g.by_name("r^2")) == 3


def test_element_order_rs_in_d5():
    g = dihedral(5)
    rs = g.by_name("r s")
    # Independent check by repeated multiplication.
    t, x = 1, rs
    while x != g.identity:
        x = g.table[x][rs]
        t += 1
    assert t == 2
    assert g.element_order(rs) == t


def test_element_orders_match_repeated_multiplication_everywhere():
    g = dihedral(7)
    for x in range(g.order):
        t, y = 1, x
        while y != g.identity:
            y = g.table[y][x]
            t += 1
        assert g.element_order(x) == t


def test_element_order_out_of_range_rejected():
    g = dihedral(3)
    for bad in (6, -1):
        with pytest.raises(ValueError, match=f"element index {bad} out of range"):
            g.element_order(bad)


def test_closure_of_single_reflection():
    for n in (3, 4, 7):
        g = dihedral(n)
        h = closure(g, [g.by_name("r s")])
        assert h.elements == (g.identity, g.by_name("r s"))
        assert h.order == 2


def test_closure_rs_r2_in_d4():
    g = dihedral(4)
    h = closure(g, [g.by_name("r s"), g.by_name("r^2")])
    assert h.order == 4
    assert set(h.element_names()) == {"e", "r^2", "r s", "r^3 s"}


def test_closure_of_presentation_generators_is_whole_group():
    for n in (1, 2, 3, 6):
        g = dihedral(n)
        h = closure(g, [g.by_name("s"), g.by_name("r")]) if n > 1 else closure(g, [g.by_name("s")])
        assert h.order == 2 * n


@settings(max_examples=60)
@given(st.data())
def test_closure_is_idempotent(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    g = dihedral(n)
    gens = data.draw(
        st.lists(st.integers(min_value=0, max_value=2 * n - 1), min_size=1, max_size=3)
    )
    h = closure(g, gens)
    again = closure(g, h.elements)
    assert again.elements == h.elements
    assert h == Subgroup(g, h.elements)


def _saturate(group, generators):
    """Sorted elements of the subgroup generated by ``generators``, by
    breadth-first saturation under right multiplication: the route
    ``closure`` took before Dimino's algorithm, kept as a reference."""
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        next_frontier = []
        for x in frontier:
            row = group.table[x]
            for s in generators:
                y = row[s]
                if y not in seen:
                    seen.add(y)
                    next_frontier.append(y)
        frontier = next_frontier
    return tuple(sorted(seen))


def test_closure_matches_saturation_on_every_dihedral_pair():
    for n in range(1, 17):
        g = dihedral(n)
        for a in range(g.order):
            for b in range(g.order):
                assert closure(g, [a, b]).elements == _saturate(g, [a, b])


@functools.cache
def _xor_512():
    return GroupTable([[a ^ b for b in range(512)] for a in range(512)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_closure_matches_saturation_on_drawn_generators(data):
    g = data.draw(st.sampled_from([_xor_512(), dihedral(60)]))
    gens = data.draw(
        st.lists(st.integers(min_value=0, max_value=g.order - 1), min_size=1, max_size=4)
    )
    assert closure(g, gens).elements == _saturate(g, gens)


def test_product_of_reflections_is_a_rotation():
    for n in (2, 3, 8):
        g = dihedral(n)
        for i in range(n, 2 * n):
            for j in range(n, 2 * n):
                assert g.table[i][j] < n


def test_negative_subgroup_element_rejected():
    # Counted from the end, -1 would alias 5 and pass the closure check.
    with pytest.raises(ValueError, match="subgroup element -1 out of range"):
        Subgroup(dihedral(3), (-1, 0, 5))


def test_subgroup_validation_rejects_non_closed_sets():
    g = dihedral(4)
    with pytest.raises(ValueError, match="closed"):
        Subgroup(g, (0, 1))  # {e, r} is not closed in D4
    with pytest.raises(ValueError, match="identity"):
        Subgroup(g, (1, 2))


def _labels(rep_of):
    """The coset labels of a ``left_cosets`` tuple: its fixed points."""
    return tuple(g for g, rep in enumerate(rep_of) if rep == g)


def test_cosets_of_whole_group():
    g = dihedral(5)
    h = closure(g, range(g.order))
    assert left_cosets(h) == (0,) * g.order


def test_cosets_of_rotation_subgroup():
    for n in (3, 4, 6):
        g = dihedral(n)
        rep_of = left_cosets(closure(g, [g.by_name("r")]))
        # Canonical representatives: the identity and the first reflection s.
        assert _labels(rep_of) == (0, n)
        assert rep_of == (0,) * n + (n,) * n


def test_cosets_partition_properties_in_d4():
    g = dihedral(4)
    h = closure(g, [g.by_name("r s")])
    rep_of = left_cosets(h)
    assert len(_labels(rep_of)) == 4
    for rep in _labels(rep_of):
        members = [x for x in range(g.order) if rep_of[x] == rep]
        assert len(members) == h.order
        assert min(members) == rep
        assert sorted(g.table[rep][y] for y in h.elements) == members


def test_lagrange_over_all_small_subgroups_of_d6():
    g = dihedral(6)
    subgroups = {closure(g, [i, j]).elements
                 for i, j in combinations(range(g.order), 2)}
    for elems in subgroups:
        h = Subgroup(g, elems)
        assert h.order * len(_labels(left_cosets(h))) == g.order


def _assert_cosets_match_reference(g, h):
    """``left_cosets`` against its definition: entry x is the least element
    of x*H, and the labels times |H| count the group."""
    rep_of = left_cosets(h)
    assert rep_of == tuple(min(g.table[x][y] for y in h.elements) for x in range(g.order))
    assert len(_labels(rep_of)) * h.order == g.order


def test_left_cosets_match_reference_on_every_subgroup_of_d6():
    g = dihedral(6)
    for i, j in combinations(range(g.order), 2):
        _assert_cosets_match_reference(g, closure(g, [i, j]))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=511), min_size=1, max_size=4))
def test_left_cosets_match_reference_on_drawn_subgroups_of_xor_512(gens):
    g = _xor_512()
    _assert_cosets_match_reference(g, closure(g, gens))


def test_non_associative_table_of_order_800_rejected():
    # Z_800 with the intercalate at rows and columns 1 and 401 swapped: still a
    # Latin square with identity 0 and two-sided inverses, but not a group.
    n = 800
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    table[1][1], table[1][401] = table[1][401], table[1][1]
    table[401][1], table[401][401] = table[401][401], table[401][1]
    with pytest.raises(ValueError, match="associative") as info:
        GroupTable(table)
    _assert_reported_triple_fails(table, info.value)


def _assert_reported_triple_fails(table, exc):
    a, b, c = map(int, re.search(r"at \((\d+), (\d+), (\d+)\)", str(exc)).groups())
    assert table[table[a][b]][c] != table[a][table[b][c]]


def test_elementary_abelian_group_of_order_512_accepted():
    # Z_2^9 needs log2(512) = 9 greedy generators, the most any group of
    # this order can.
    g = GroupTable([[a ^ b for b in range(512)] for a in range(512)])
    assert g.identity == 0
    assert g.inverse == tuple(range(512))


def _reduced_latin_squares(n):
    """Every n x n Latin square on 0..n-1 whose first row and column are
    0, 1, ..., n-1."""
    square = [[r] + [None] * (n - 1) for r in range(n)]
    square[0] = list(range(n))
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield [row[:] for row in square]
            return
        r, c = cells[k]
        used = set(square[r][:c]) | {square[i][c] for i in range(r)}
        for v in range(n):
            if v not in used:
                square[r][c] = v
                yield from fill(k + 1)
        square[r][c] = None

    return fill(0)


def _associative_by_brute_force(table):
    rng = range(len(table))
    return all(
        table[table[a][b]][c] == table[a][table[b][c]] for a in rng for b in rng for c in rng
    )


def test_group_table_agrees_with_brute_force_on_small_latin_squares():
    # Every reduced Latin square has identity 0, so it is a group exactly
    # when a full triple scan finds no failure.
    counts = {}
    for n in range(1, 7):
        counts[n] = 0
        for square in _reduced_latin_squares(n):
            counts[n] += 1
            try:
                GroupTable(square)
                accepted = True
            except ValueError as exc:
                accepted = False
                if "associative" in str(exc):
                    _assert_reported_triple_fails(square, exc)
            assert accepted == _associative_by_brute_force(square), square
    assert counts == {1: 1, 2: 1, 3: 1, 4: 4, 5: 56, 6: 9408}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: closure(dihedral(4), []), "closure requires at least one generator"),
        # {e, s, r s} in D4 holds its inverses, but s * r s = r^3.
        (lambda: Subgroup(dihedral(4), (0, 4, 5)), "subgroup is not closed under products (4, 5)"),
        (lambda: GroupTable([[0, 1], [1, 0]], ["e"]), "one name per element is required"),
        (lambda: GroupTable([[0, 1], [1, 0]], ["e", "e"]), "element names must be distinct"),
    ],
    ids=["closure-no-generators", "subgroup-products", "names-count", "names-distinct"],
)
def test_refusals_give_their_exact_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
