import hashlib
import json
import time
from collections import Counter
from math import gcd

import pytest

from strata_limits import pyramids
from strata_limits.files import multicurve_to_spec
from strata_limits.groups import closure, dihedral
from strata_limits.limit_graphs import build_stratum_graph
from strata_limits.orbifolds import evaluate_word, riemann_hurwitz_genus, validate_action
from strata_limits.pyramids import (
    VARIANTS,
    PyramidMulticurveParams,
    _divisors,
    _job_params,
    classify,
    enumerate_parameters,
    expected_graph,
    make_multicurve,
    proven_cycle_lengths,
    pyramid_action,
)
from strata_limits.stable_graphs import canonical_form, is_isomorphic


def rot_sym(group, rot_power, with_s):
    n = group.order // 2
    index = rot_power % n + (n if with_s else 0)
    return index


def dihedral_subgroup(group, *elements):
    return closure(group, elements)


def satellite_cycle_sizes(graph):
    """Component size multiset of the satellite subgraph (hub removed)."""
    hub = max((graph.degree(v), v) for v, _ in graph.vertices)[1]
    satellites = [v for v, _ in graph.vertices if v != hub]
    parent = {v: v for v in satellites}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in graph.edges:
        if a != hub and b != hub:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    return sorted(Counter(find(v) for v in satellites).values())


def test_pyramid_action_small_cases():
    for n in range(3, 61):
        action = pyramid_action(n).action
        assert validate_action(action) == []
        assert riemann_hurwitz_genus(action) == n


def test_pyramid_action_keeps_only_the_latest_action():
    pyramid_action.cache_clear()
    for n in (3, 4, 5, 6, 5):
        family = pyramid_action(n)
        assert pyramid_action.cache_info().currsize == 1
    assert pyramid_action(5) is family


@pytest.mark.parametrize("entry", [pyramid_action, enumerate_parameters])
@pytest.mark.parametrize(
    ("n", "error", "message"),
    [
        (2, ValueError, "the pyramid family requires n >= 3"),
        (2.5, TypeError, "n must be an integer, got 2.5"),
        ("5", TypeError, "n must be an integer, got '5'"),
        (True, TypeError, "n must be an integer, got True"),
    ],
    ids=["small", "float", "str", "bool"],
)
def test_family_entry_points_read_n_by_one_rule(entry, n, error, message):
    with pytest.raises(error) as info:
        entry(n)
    assert str(info.value) == message


def test_one_arc_bottom_left_image_subgroup():
    # The arc image subgroup is generated by r s and r^(2(k+1)).
    for n in (5, 8, 12):
        fam = pyramid_action(n)
        group = fam.action.group
        for k in range(0, n):
            mc = make_multicurve(fam, PyramidMulticurveParams("one-arc", "bottom-left", k))
            got = build_stratum_graph(fam.action, mc).curve_subgroups[mc.curves[0].id]
            expected = dihedral_subgroup(
                group, rot_sym(group, 1, True), rot_sym(group, 2 * (k + 1), False)
            )
            assert got.elements == expected.elements


def test_one_arc_bottom_left_second_loop_image():
    # The wound boundary loop evaluates to s r^(2k+1).
    for n, k in ((7, 0), (7, 2), (10, 3)):
        fam = pyramid_action(n)
        group = fam.action.group
        mc = make_multicurve(fam, PyramidMulticurveParams("one-arc", "bottom-left", k))
        image = evaluate_word(fam.action, mc.curves[0].gamma_b)
        s = group.by_name("s")
        expected = group.table[s][rot_sym(group, 2 * k + 1, False)]
        assert image == expected


def test_one_arc_top_right_is_order_two():
    for n in (3, 6):
        fam = pyramid_action(n)
        mc = make_multicurve(fam, PyramidMulticurveParams("one-arc", "top-right"))
        h = build_stratum_graph(fam.action, mc).curve_subgroups[mc.curves[0].id]
        assert set(h.element_names()) == {"e", "r s"}


def test_one_arc_bottom_right_image_subgroup():
    for n in (6, 9):
        fam = pyramid_action(n)
        group = fam.action.group
        for k in range(0, n):
            mc = make_multicurve(fam, PyramidMulticurveParams("one-arc", "bottom-right", k))
            got = build_stratum_graph(fam.action, mc).curve_subgroups[mc.curves[0].id]
            expected = dihedral_subgroup(
                group, group.by_name("s"), rot_sym(group, 2 * k + 1, False)
            )
            assert got.elements == expected.elements


def test_two_arcs_boundary_products_are_consecutive_rotations():
    for n in (5, 8):
        fam = pyramid_action(n)
        group = fam.action.group
        for k in range(1, n + 1):
            mc = make_multicurve(fam, _job_params("two-arcs", n, k=k))
            c1, c2 = mc.curves
            (a1, b1), (a2, b2) = (
                (evaluate_word(fam.action, c.gamma_a), evaluate_word(fam.action, c.gamma_b))
                for c in (c1, c2)
            )
            assert group.table[a1][b1] == rot_sym(group, k, False)
            assert group.table[a2][b2] == rot_sym(group, k + 1, False)


def test_one_closed_leaf_subgroups():
    # Leaf piece subgroup generated by r s and r^(2t) (left family) or
    # r s and r^(2t+1) (right family).
    for n in (6, 9):
        fam = pyramid_action(n)
        group = fam.action.group
        for t in range(0, n // 2 + 1):
            mc = make_multicurve(fam, PyramidMulticurveParams("one-closed", "left", t))
            got = build_stratum_graph(fam.action, mc).piece_subgroups[mc.pieces[1].id]
            expected = dihedral_subgroup(
                group, rot_sym(group, 1, True), rot_sym(group, 2 * t, False)
            )
            assert got.elements == expected.elements
            mc = make_multicurve(fam, PyramidMulticurveParams("one-closed", "right", t))
            got = build_stratum_graph(fam.action, mc).piece_subgroups[mc.pieces[1].id]
            expected = dihedral_subgroup(
                group, rot_sym(group, 1, True), rot_sym(group, 2 * t + 1, False)
            )
            assert got.elements == expected.elements


def test_arc_plus_closed_cycle_lengths_by_variant():
    # top: one full cycle; middle: loops; bottom: the half-length split
    # when the satellite count is even; paired: double edges.
    n = 12
    fam = pyramid_action(n)

    graph = build_stratum_graph(
        fam.action, make_multicurve(fam, PyramidMulticurveParams("arc-plus-closed", "top-left", 0))
    ).underlying
    count = graph.vertex_count - 1
    assert satellite_cycle_sizes(graph) == [count]

    graph = build_stratum_graph(
        fam.action,
        make_multicurve(fam, PyramidMulticurveParams("arc-plus-closed", "middle-left", 3)),
    ).underlying
    assert satellite_cycle_sizes(graph) == [1] * (graph.vertex_count - 1)

    graph = build_stratum_graph(
        fam.action,
        make_multicurve(fam, PyramidMulticurveParams("arc-plus-closed", "bottom-left", 6)),
    ).underlying
    count = graph.vertex_count - 1
    assert count == 12
    assert satellite_cycle_sizes(graph) == [6, 6]

    graph = build_stratum_graph(
        fam.action,
        make_multicurve(fam, PyramidMulticurveParams("arc-plus-closed", "paired", 6)),
    ).underlying
    assert satellite_cycle_sizes(graph) == [2] * 6


def test_arc_plus_closed_bottom_variants_match_the_closed_form():
    # With c satellites, bottom-left splits them into two cycles of length
    # c/2 when c is even and one full cycle when c is odd; bottom-right
    # always has an odd c and one full cycle.
    for n in range(3, 25):
        fam = pyramid_action(n)
        for winding in range(n + 1):
            for variant in ("bottom-left", "bottom-right"):
                params = PyramidMulticurveParams("arc-plus-closed", variant, winding)
                graph = build_stratum_graph(fam.action, make_multicurve(fam, params)).underlying
                c = graph.vertex_count - 1
                if variant == "bottom-right":
                    assert c % 2 == 1, (n, winding)
                d = c // 2 if c % 2 == 0 else c
                expected = expected_graph("arc-plus-closed", n, m=n // c, d=d)
                assert is_isomorphic(graph, expected, budget=n + 2), (n, winding, variant)


def test_paired_variant_both_parity_routes():
    # Satellite count 6 (half odd) and 8 (half even) both pair up.
    for n, t in ((6, 3), (8, 4)):
        fam = pyramid_action(n)
        graph = build_stratum_graph(
            fam.action,
            make_multicurve(fam, PyramidMulticurveParams("arc-plus-closed", "paired", t)),
        ).underlying
        assert satellite_cycle_sizes(graph) == [2] * (n // 2)


def test_paired_variant_rejects_odd_satellite_count():
    fam = pyramid_action(9)
    with pytest.raises(ValueError, match="even satellite count"):
        make_multicurve(fam, PyramidMulticurveParams("arc-plus-closed", "paired", 9))


def test_params_name_the_variants_to_choose_from():
    with pytest.raises(
        ValueError,
        match=r"^unknown variant 'sideways' for family 'one-arc' "
        r"\(choose from direct, twisted, top-right, bottom-left, bottom-right\)$",
    ):
        PyramidMulticurveParams("one-arc", "sideways")


def test_params_take_cycle_length_only_for_the_general_variant():
    with pytest.raises(ValueError, match="the general variant needs cycle_length"):
        PyramidMulticurveParams("arc-plus-closed", "general", 12)
    for family, variants in VARIANTS.items():
        for variant in variants:
            if variant == "general":
                continue
            with pytest.raises(ValueError, match=f"not to {family}/{variant}$"):
                PyramidMulticurveParams(family, variant, 1, cycle_length=3)


def test_params_refuse_a_winding_the_variant_ignores():
    for variant in ("direct", "twisted", "top-right"):
        assert PyramidMulticurveParams("one-arc", variant).winding == 0
        with pytest.raises(
            ValueError, match=f"^one-arc/{variant} does not wind: its winding must be 0, got 7$"
        ):
            PyramidMulticurveParams("one-arc", variant, 7)
    assert PyramidMulticurveParams("one-arc", "bottom-left", 7).winding == 7


def test_params_read_winding_and_cycle_length_as_integers():
    with pytest.raises(TypeError, match=r"^winding must be an integer, got True$"):
        PyramidMulticurveParams("one-arc", "bottom-left", True)
    with pytest.raises(TypeError, match=r"^cycle_length must be an integer, got 2\.0$"):
        PyramidMulticurveParams("arc-plus-closed", "general", 4, cycle_length=2.0)
    # The family and variant are checked first.
    with pytest.raises(ValueError, match="^unknown variant 'sideways'"):
        PyramidMulticurveParams("one-arc", "sideways", 2.5)


def test_general_variant_dials_any_divisor():
    fam = pyramid_action(12)
    for count, d in ((12, 3), (12, 4), (12, 6), (6, 3), (3, 3)):
        params = PyramidMulticurveParams(
            "arc-plus-closed", "general", count, cycle_length=d
        )
        graph = build_stratum_graph(fam.action, make_multicurve(fam, params)).underlying
        assert graph.vertex_count == count + 1
        assert satellite_cycle_sizes(graph) == [d] * (count // d)


def test_general_variant_odd_satellite_count():
    fam = pyramid_action(18)
    params = PyramidMulticurveParams("arc-plus-closed", "general", 9, cycle_length=3)
    graph = build_stratum_graph(fam.action, make_multicurve(fam, params)).underlying
    assert graph.vertex_count == 10
    assert satellite_cycle_sizes(graph) == [3, 3, 3]


def test_cycle_length_divides_satellite_count_everywhere():
    for n in (6, 8, 12):
        fam = pyramid_action(n)
        for params, label in enumerate_parameters(n, include_unproven=True):
            if params.family != "arc-plus-closed":
                continue
            graph = build_stratum_graph(
                fam.action, make_multicurve(fam, params)
            ).underlying
            sizes = satellite_cycle_sizes(graph)
            count = graph.vertex_count - 1
            assert len(set(sizes)) == 1
            assert count % sizes[0] == 0


# sha256 of the `multicurve_to_spec` JSON, or the ValueError text, of every
# family, variant and winding 0-5 at n = 3..12 and 96, with cycle lengths
# 1-6 for the general variant (1 452 cases).  It pins the words each
# builder writes, where the certificate digests see only their images.
MULTICURVE_DIGEST = "5495e513482032a6ea38d7bb0c4a86a6d2fdc524c99d3d643268fadecb7bb9b0"


def test_multicurve_exports_match_the_committed_digest():
    digest = hashlib.sha256()
    cases = 0
    for n in [*range(3, 13), 96]:
        fam = pyramid_action(n)
        for family, variants in VARIANTS.items():
            for variant in variants:
                lengths = range(1, 7) if variant == "general" else [None]
                for winding in range(6):
                    for d in lengths:
                        try:
                            params = PyramidMulticurveParams(family, variant, winding, d)
                            spec = multicurve_to_spec(
                                make_multicurve(fam, params), fam.action.signature
                            )
                            text = json.dumps(spec)
                        except ValueError as exc:
                            text = f"ValueError: {exc}"
                        digest.update(text.encode() + b"\n")
                        cases += 1
    assert cases == 1452
    assert digest.hexdigest() == MULTICURVE_DIGEST


def test_classify_counts_for_small_n():
    assert len(classify(3)) == 9
    assert len(classify(4)) == 14


def test_classify_one_arc_for_primes():
    for p in (5, 7, 11):
        one_arc = [
            e for e in classify(p) if e.witness.family == "one-arc"
        ]
        assert len(one_arc) == 2  # m = 1 and m = p


def test_classify_matches_expected_enumeration():
    for n in (3, 4, 6):
        got = {e.form for e in classify(n)}
        from strata_limits.stable_graphs import canonical_form

        expected = set()
        budget = n + 2
        for m in _divisors(n):
            expected.add(canonical_form(expected_graph("one-arc", n, m=m), budget))
            expected.add(canonical_form(expected_graph("one-closed", n, m=m), budget))
            for d in proven_cycle_lengths(n // m):
                expected.add(
                    canonical_form(expected_graph("arc-plus-closed", n, m=m, d=d), budget)
                )
        for k in range(1, n + 1):
            expected.add(canonical_form(expected_graph("two-arcs", n, k=k), budget))
        assert got == expected


def independent_class_count(n, include_unproven=False):
    # Counting argument: within each family the graphs are determined by
    # (loop count), (parallel edge count), (leaf count), (satellite count,
    # cycle length) respectively, and no graph can belong to two families
    # (vertex counts, weight patterns and loop placement separate them).
    divisors = [m for m in range(1, n + 1) if n % m == 0]
    one_arc = len(divisors)
    two_arcs = len({gcd(n, k) + gcd(n, k + 1) for k in range(1, n + 1)})
    one_closed = len(divisors)
    if include_unproven:
        apc = sum(len([d for d in range(1, n // m + 1) if (n // m) % d == 0]) for m in divisors)
    else:
        apc = sum(len(proven_cycle_lengths(n // m)) for m in divisors)
    return one_arc + two_arcs + one_closed + apc


def test_classify_count_matches_counting_argument():
    for n in range(3, 15):
        assert len(classify(n)) == independent_class_count(n)
    assert len(classify(12, include_unproven=True)) == independent_class_count(
        12, include_unproven=True
    )


def test_classify_is_deterministic():
    sequential = classify(6)
    again = classify(6)
    assert [e.form for e in sequential] == [e.form for e in again]
    assert [e.description for e in sequential] == [e.description for e in again]


def test_expected_graph_one_closed_extreme():
    g = expected_graph("one-closed", 5, m=5)
    assert g.vertex_count == 2 and g.edge_count == 5
    hub, leaf = sorted(g.vertices, key=lambda vw: vw[1])
    assert g.degree(hub[0]) == 5 and hub[1] == 0
    assert g.degree(leaf[0]) == 5 and leaf[1] == 1


def test_expected_graph_arc_plus_closed_vertex_count():
    for n, m in ((6, 1), (6, 2), (12, 3)):
        g = expected_graph("arc-plus-closed", n, m=m, d=1)
        assert g.vertex_count == n // m + 1


def test_expected_graph_two_arcs_values():
    g = expected_graph("two-arcs", 6, k=3)
    assert g.edge_count == gcd(6, 3) + gcd(6, 4) == 5
    assert sorted(w for _, w in g.vertices) == [1, 1]


def test_expected_graph_rejects_bad_params():
    with pytest.raises(ValueError):
        expected_graph("one-arc", 6, m=4)
    with pytest.raises(ValueError):
        expected_graph("arc-plus-closed", 6, m=1, d=4)
    with pytest.raises(ValueError):
        expected_graph("no-such-family", 6, m=1)
    # Unchecked, these divide by zero or give a graph of the wrong genus, an
    # unstable graph, or a graph for no pyramid at all.
    for args, params, message in (
        (("one-arc", 6), {"m": 0}, "m must divide n, got m=0, n=6"),
        (("one-arc", 6), {"m": -2}, "m must divide n, got m=-2, n=6"),
        (("arc-plus-closed", 6), {"m": 1, "d": 0}, "cycle length 0 does not divide 6"),
        (("arc-plus-closed", 6), {"m": 1, "d": -3}, "cycle length -3 does not divide 6"),
        (
            ("arc-plus-closed", 6),
            {"m": 1, "d": 10**4300},
            "cycle length <integer of 4301 digits> does not divide 6",
        ),
        (("one-arc", 0), {"m": 1}, "the pyramid family requires n >= 3"),
        (("two-arcs", 2), {"k": 1}, "the pyramid family requires n >= 3"),
        # Integers past 40 digits are shown by their digit count, also past
        # CPython's limit on converting them to text.
        (("one-arc", 6), {}, "m must divide n, got m=None, n=6"),
        (("one-arc", 6), {"m": 10**50}, "m must divide n, got m=<integer of 51 digits>, n=6"),
        (
            ("one-arc", 6),
            {"m": 10**4300},
            "m must divide n, got m=<integer of 4301 digits>, n=6",
        ),
        # An n past the family's top is refused before any other parameter
        # is read.
        (
            ("one-arc", 10**4301),
            {"m": 3},
            "dihedral group of order <integer of 4302 digits> is over the limit of 4096 elements",
        ),
        (
            ("arc-plus-closed", 10**4301),
            {"m": 1, "d": 3},
            "dihedral group of order <integer of 4302 digits> is over the limit of 4096 elements",
        ),
        (
            ("two-arcs", 10**4301),
            {"k": 1, "m": 2},
            "dihedral group of order <integer of 4302 digits> is over the limit of 4096 elements",
        ),
    ):
        with pytest.raises(ValueError) as info:
            expected_graph(*args, **params)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "family, key, foreign",
    [
        ("one-arc", {"m": 2, "d": 3}, "d"),
        ("two-arcs", {"k": 2, "m": 5}, "m"),
        ("one-closed", {"d": 0, "k": 1, "m": 2}, "k"),
        ("arc-plus-closed", {"d": 1, "k": 0, "m": 1}, "k"),
    ],
)
def test_expected_graph_refuses_a_key_its_family_does_not_take(family, key, foreign):
    # Unchecked, the foreign key was ignored and the graph of the rest
    # returned.  Several foreign keys name the first of m, k, d.
    with pytest.raises(ValueError) as info:
        expected_graph(family, 6, **key)
    assert str(info.value) == f"{family} does not take the parameter {foreign}"


def test_variants_are_pinned_in_order():
    # The CLI's default variant is each family's first, and refusals list
    # a family's variants in this order.
    assert list(VARIANTS.items()) == [
        ("one-arc", ("direct", "twisted", "top-right", "bottom-left", "bottom-right")),
        ("two-arcs", ("even", "odd")),
        ("one-closed", ("left", "right")),
        (
            "arc-plus-closed",
            (
                "top-left",
                "top-right",
                "middle-left",
                "middle-right",
                "bottom-left",
                "bottom-right",
                "paired",
                "general",
            ),
        ),
    ]


def test_each_job_label_names_its_key():
    # A label is its family and the key expected_graph takes, as the
    # benchmark's witness_invariants parses it, tagged when its cycle
    # length has no known construction; the key alone gives the job.
    takes = {"one-arc": ["m"], "two-arcs": ["k"], "one-closed": ["m"], "arc-plus-closed": ["m", "d"]}
    jobs = 0
    for n in range(3, 121):
        for params, label in enumerate_parameters(n, include_unproven=True):
            family, *words = label.split(" (")[0].split()
            key = {name: int(value) for name, value in (word.split("=") for word in words)}
            assert family == params.family and list(key) == takes[family]
            assert words == [f"{name}={value}" for name, value in key.items()]
            unproven = "d" in key and key["d"] not in proven_cycle_lengths(n // key["m"])
            assert label == " ".join([family, *words]) + " (unproven)" * unproven
            assert _job_params(family, n, **key) == params
            jobs += 1
    assert jobs == 10351


@pytest.mark.parametrize(
    "n, order",
    [(2049, "4098"), (4096, "8192"), (10**4300, "<integer of 4301 digits>")],
    ids=["2049", "4096", "10**4300"],
)
def test_every_entry_point_of_the_family_refuses_n_past_the_top(n, order):
    # Unbounded, expected_graph built 10**4300 parallel edges or raised
    # CPython's OverflowError, and returned a graph for n = 4096, which no
    # action exists for.
    message = f"dihedral group of order {order} is over the limit of 4096 elements"
    assert str(pytest.raises(ValueError, dihedral, n).value) == message
    for refused in (
        pyramid_action,
        enumerate_parameters,
        lambda n: expected_graph("one-arc", n, m=1),
        lambda n: expected_graph("two-arcs", n, k=0),
        lambda n: expected_graph("one-closed", n, m=n),
        lambda n: expected_graph("arc-plus-closed", n, m=n, d=1),
    ):
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            refused(n)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == message


def test_the_top_n_of_the_family_is_admitted():
    assert expected_graph("one-arc", 2048, m=1).edge_count == 2048
    assert len(enumerate_parameters(2048)) == 2105


def test_two_arcs_parity_refusal_shows_its_count_short(monkeypatch):
    # gcd(n, k) + gcd(n, k + 1) always has the parity of n + 1, so only a
    # substituted gcd reaches this refusal.
    monkeypatch.setattr(pyramids, "gcd", lambda a, b: 10**4300)
    with pytest.raises(ValueError) as info:
        expected_graph("two-arcs", 6, k=1)
    assert str(info.value) == (
        "parallel edge count <integer of 4301 digits> gives a fractional weight"
    )


def test_one_arc_edge_counts_are_exactly_the_divisors():
    for n in (6, 9, 12):
        fam = pyramid_action(n)
        counts = set()
        for m in _divisors(n):
            mc = make_multicurve(fam, _job_params("one-arc", n, m=m))
            counts.add(build_stratum_graph(fam.action, mc).edge_count)
        assert counts == {n // m for m in _divisors(n)}


def test_builds_match_expected_sampled():
    for n in (5, 9, 16):
        fam = pyramid_action(n)
        budget = n + 2
        keys = [("two-arcs", {"k": k}) for k in (1, n // 2, n)]
        for m in _divisors(n):
            keys += [("one-arc", {"m": m}), ("one-closed", {"m": m})]
            keys += [("arc-plus-closed", {"m": m, "d": d}) for d in proven_cycle_lengths(n // m)]
        for family, key in keys:
            mc = make_multicurve(fam, _job_params(family, n, **key))
            built = build_stratum_graph(fam.action, mc).underlying
            assert is_isomorphic(built, expected_graph(family, n, **key), budget)


def closed_form_key(n, params):
    """The class of a classify job read from its parameters alone, tagged
    with its family: one-arc n/m, two-arcs gcd(n, k) + gcd(n, k + 1),
    one-closed m, arc-plus-closed (m, d).  It inverts the enumeration's
    windings and reads no build and no canonical form."""
    w = params.winding
    if params.family == "two-arcs":
        k = 2 * w if params.variant == "even" else 2 * w + 1
        return params.family, gcd(n, k) + gcd(n, k + 1)
    # count = n/m: the loops, leaves or satellites of the job.
    if params.variant in ("bottom-left", "top-left"):
        count = 2 * (w + 1)
    elif params.variant in ("bottom-right", "top-right", "middle-right", "right"):
        count = 2 * w + 1
    elif params.variant == "general":
        count = w
    else:
        count = 2 * w
    if params.family == "one-arc":
        return params.family, count
    if params.family == "one-closed":
        return params.family, n // count
    fixed = {"top-left": count, "top-right": count, "paired": 2, "general": params.cycle_length}
    return params.family, n // count, fixed.get(params.variant, 1)


def check_forms_against_keys(pairs):
    """Equal forms exactly when equal closed-form keys: the (form, key)
    pairs are a bijection between the forms and the keys of one n."""
    forms, keys = zip(*pairs)
    assert len(set(forms)) == len(set(keys)) == len(set(pairs))
    return len(set(forms))


# sha256 of the canonical forms of every classify job, unproven cycle
# lengths included, for n = 3..40 and 96 (1720 jobs).  classify orders its
# classes by these forms, so a search change that returns other
# certificates, even canonical ones, can reorder `pyramid classify` output.
CERTIFICATE_DIGEST = "4e0d88e5f1c098ecd75644596a28d398cec14bebbaed547dfca2f39445eee62a"

# sha256 of the repr of the list of (leaves, automorphisms found) of each of
# those jobs' searches, in job order: 2500 leaves and 780 automorphisms in
# all.  A change that keeps every certificate but walks another tree shows
# here.
SEARCH_SHAPE_DIGEST = "a7ee17045be7c672862fdd30ac911e7f44c67a3a80f538abfd88721443a393fb"


def test_certificates_match_the_committed_digest(search_shapes, form_line):
    digest = hashlib.sha256()
    jobs = 0
    for n in [*range(3, 41), 96]:
        fam = pyramid_action(n)
        pairs = []
        for params, _ in enumerate_parameters(n, include_unproven=True):
            graph = build_stratum_graph(fam.action, make_multicurve(fam, params)).underlying
            form = canonical_form(graph, n + 2)
            digest.update(form_line(form))
            pairs.append((form, closed_form_key(n, params)))
            jobs += 1
        check_forms_against_keys(pairs)
    assert jobs == 1720
    assert digest.hexdigest() == CERTIFICATE_DIGEST
    assert len(search_shapes) == jobs
    assert [sum(counts) for counts in zip(*search_shapes)] == [2500, 780]
    assert hashlib.sha256(repr(search_shapes).encode()).hexdigest() == SEARCH_SHAPE_DIGEST


# sha256 of the canonical forms of every proven classify job for n = 180 and
# 240 (596 jobs), where the paired graph has 90 and 120 satellite pairs.
LARGE_CERTIFICATE_DIGEST = "811559b5ab025a980135052bd44bdb9e5f98f0209c0ec059c490430177deeb72"

# sha256 of the repr of the list of (leaves, automorphisms found) of those
# 596 searches, in job order: 656 leaves and 60 automorphisms in all.
LARGE_SEARCH_SHAPE_DIGEST = "3bafc18ea4d1b9d92505f575b1e432f244e481d2f5798ee8c5263331ae57f3ed"


def test_large_certificates_match_the_committed_digest(search_shapes, form_line):
    digest = hashlib.sha256()
    jobs = 0
    for n in (180, 240):
        fam = pyramid_action(n)
        pairs = []
        for params, _ in enumerate_parameters(n):
            graph = build_stratum_graph(fam.action, make_multicurve(fam, params)).underlying
            form = canonical_form(graph, n + 2)
            digest.update(form_line(form))
            pairs.append((form, closed_form_key(n, params)))
            jobs += 1
        check_forms_against_keys(pairs)
    assert jobs == 596
    assert digest.hexdigest() == LARGE_CERTIFICATE_DIGEST
    assert len(search_shapes) == jobs
    assert [sum(counts) for counts in zip(*search_shapes)] == [656, 60]
    assert hashlib.sha256(repr(search_shapes).encode()).hexdigest() == LARGE_SEARCH_SHAPE_DIGEST


# sha256 of the repr of the list of (leaves, automorphisms found) of every
# classify job at n = 120, unproven cycle lengths included (242 jobs): 746
# leaves and 504 automorphisms in all.  These jobs hold cycles of odd length
# d = 5, which the n = 96 jobs above do not, so this pins their search trees.
UNPROVEN_SEARCH_SHAPE_DIGEST = "a6d639d9f8640b93f518a1adf424d2224f5906a627fc7c75a88e82c140b7f614"


def test_closed_form_keys_partition_the_unproven_jobs_at_120(search_shapes):
    fam = pyramid_action(120)
    pairs = []
    for params, _ in enumerate_parameters(120, include_unproven=True):
        graph = build_stratum_graph(fam.action, make_multicurve(fam, params)).underlying
        pairs.append((canonical_form(graph, 122), closed_form_key(120, params)))
    assert len(pairs) == 242
    assert check_forms_against_keys(pairs) == 139
    assert len(search_shapes) == 242
    assert [sum(counts) for counts in zip(*search_shapes)] == [746, 504]
    assert hashlib.sha256(repr(search_shapes).encode()).hexdigest() == UNPROVEN_SEARCH_SHAPE_DIGEST


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PyramidMulticurveParams("three-arcs", "direct"), "unknown family 'three-arcs'"),
        (lambda: expected_graph("two-arcs", 6), "two-arcs needs the parameter k"),
        (
            lambda: expected_graph("arc-plus-closed", 6, m=1),
            "arc-plus-closed needs the cycle length d",
        ),
        (
            lambda: PyramidMulticurveParams("f" * 300, "direct"),
            f"unknown family {'f' * 40!r}... (300 characters)",
        ),
        (
            lambda: PyramidMulticurveParams("one-arc", "v" * 300),
            f"unknown variant {'v' * 40!r}... (300 characters) for family 'one-arc' "
            "(choose from direct, twisted, top-right, bottom-left, bottom-right)",
        ),
        (
            lambda: PyramidMulticurveParams("one-arc", "v" * 40),
            f"unknown variant {'v' * 40!r} for family 'one-arc' "
            "(choose from direct, twisted, top-right, bottom-left, bottom-right)",
        ),
        (lambda: expected_graph("f" * 300, 6), f"unknown family {'f' * 40!r}... (300 characters)"),
    ],
    ids=[
        "params-family",
        "expected-without-k",
        "expected-without-d",
        "params-long-family",
        "params-long-variant",
        "params-variant-of-40",
        "expected-long-family",
    ],
)
def test_family_refusals_give_their_exact_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
