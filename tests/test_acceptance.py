"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Builds are shared across criteria through a memoized registry so the whole
suite stays fast; every assertion is exact (integer or canonical-form
equality), with no numeric tolerances anywhere.
"""

import random
from collections import Counter
from math import gcd

from strata_limits.groups import GroupTable, closure, dihedral
from strata_limits.limit_graphs import build_stratum_graph
from strata_limits.oracle import audit_graph, components_by_bfs
from strata_limits.orbifolds import riemann_hurwitz_genus
from strata_limits.pyramids import (
    PyramidMulticurveParams,
    _arc_plus_closed_params,
    _divisors,
    _one_arc_params,
    _one_closed_params,
    _two_arcs_params,
    classify,
    expected_graph,
    make_multicurve,
    proven_cycle_lengths,
    pyramid_action,
)
from strata_limits.stable_graphs import canonical_form, is_isomorphic

N_MAX = 50

_BUILDS: dict = {}


def built(n, kind, **kw):
    """Memoized build of one pyramid multicurve's labeled graph."""
    key = (n, kind, tuple(sorted(kw.items())))
    if key not in _BUILDS:
        fam = pyramid_action(n)
        if kind == "one-arc":
            params = _one_arc_params(n, kw["m"])
        elif kind == "one-arc-direct":
            params = PyramidMulticurveParams("one-arc", "direct")
        elif kind == "one-arc-twisted":
            params = PyramidMulticurveParams("one-arc", "twisted")
        elif kind == "two-arcs":
            params = _two_arcs_params(n, kw["k"])
        elif kind == "one-closed":
            params = _one_closed_params(n, kw["m"])
        else:
            params = _arc_plus_closed_params(n, kw["m"], kw["d"])
        mc = make_multicurve(fam, params)
        _BUILDS[key] = (fam, mc, build_stratum_graph(fam.action, mc))
    return _BUILDS[key]


def all_criterion_builds():
    """Everything criteria 1 through 7 construct, for the property suite."""
    items = []
    for n in range(3, 13):
        items.append(built(n, "one-arc-direct"))
    for n in (4, 5, 6, 7, 8, 9):
        items.append(built(n, "one-arc-twisted"))
    for n in range(3, N_MAX + 1):
        for m in _divisors(n):
            items.append(built(n, "one-arc", m=m))
            items.append(built(n, "one-closed", m=m))
            for d in proven_cycle_lengths(n // m):
                items.append(built(n, "arc-plus-closed", m=m, d=d))
        for k in range(1, n + 1):
            items.append(built(n, "two-arcs", k=k))
    return items


def report(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number:2d}] {status}: {description}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def satellite_cycle_sizes(graph, hub):
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


def test_criterion_01_single_arc_examples():
    failures = []
    for n in range(3, 13):
        _, _, graph = built(n, "one-arc-direct")
        g = graph.underlying
        loops = sum(1 for a, b in g.edges if a == b)
        if not (g.vertex_count == 1 and loops == n and g.edge_count == n):
            failures.append((n, "shape"))
        elif [w for _, w in g.vertices] != [0]:
            failures.append((n, "weight"))
    report(1, "single arc gives one weight-0 vertex with n loops (n=3..12)", failures)


def test_criterion_02_twisted_arc_examples():
    failures = []
    for n in (5, 7, 9):
        _, _, graph = built(n, "one-arc-twisted")
        g = graph.underlying
        if not (g.vertex_count == 1 and g.edge_count == 1):
            failures.append((n, "odd shape"))
        elif [w for _, w in g.vertices] != [n - 1]:
            failures.append((n, "odd weight"))
    for n in (4, 6, 8):
        _, _, graph = built(n, "one-arc-twisted")
        g = graph.underlying
        if not (g.vertex_count == 1 and g.edge_count == 2):
            failures.append((n, "even shape"))
        elif [w for _, w in g.vertices] != [n - 2]:
            failures.append((n, "even weight"))
    report(2, "twisted arc gives weight n-1 (odd n) or n-2 with 2 loops (even n)", failures)


def test_criterion_03_one_arc_round_trip():
    failures = []
    for n in range(3, N_MAX + 1):
        for m in _divisors(n):
            _, _, graph = built(n, "one-arc", m=m)
            expected = expected_graph("one-arc", n, m=m)
            if not is_isomorphic(graph.underlying, expected, budget=n + 2):
                failures.append((n, m))
    report(3, f"one-arc builds match the closed form for all n<={N_MAX}, m|n", failures)


def test_criterion_04_two_arcs():
    failures = []
    for n in range(3, N_MAX + 1):
        fam = pyramid_action(n)
        for k in range(1, n + 1):
            _, _, graph = built(n, "two-arcs", k=k)
            g = graph.underlying
            edges = gcd(n, k) + gcd(n, k + 1)
            weights = [w for _, w in g.vertices]
            parallel = all(a != b for a, b in g.edges)
            genus = g.genus()
            if not (
                g.vertex_count == 2
                and g.edge_count == edges
                and weights[0] == weights[1]
                and parallel
                and genus == riemann_hurwitz_genus(fam.action)
                and genus == n
                and is_isomorphic(g, expected_graph("two-arcs", n, k=k), budget=4)
            ):
                failures.append((n, k))
    report(4, f"two-arc builds give gcd(n,k)+gcd(n,k+1) parallel edges, genus n", failures)


def test_criterion_05_one_closed():
    failures = []
    for n in range(3, N_MAX + 1):
        for m in _divisors(n):
            _, _, graph = built(n, "one-closed", m=m)
            g = graph.underlying
            count = n // m
            hub = [v for v, w in g.vertices if w == 0]
            leaves = [v for v, w in g.vertices if w == 1]
            ok = (
                g.vertex_count == count + 1
                and g.edge_count == n
                and len(hub) == 1
                and len(leaves) == count
                and g.degree(hub[0]) == n
                and all(g.degree(v) == m for v in leaves)
                and all(
                    sum(1 for e in g.edges if set(e) == {hub[0], v}) == m for v in leaves
                )
                and is_isomorphic(g, expected_graph("one-closed", n, m=m), budget=n + 2)
            )
            if not ok:
                failures.append((n, m))
    report(5, f"one-closed builds give the hub-and-leaves graph for all n<={N_MAX}, m|n", failures)


def test_criterion_06_arc_plus_closed():
    failures = []
    for n in range(3, N_MAX + 1):
        for m in _divisors(n):
            count = n // m
            for d in proven_cycle_lengths(count):
                _, _, graph = built(n, "arc-plus-closed", m=m, d=d)
                g = graph.underlying
                # The hub is the unique vertex over the disc piece (id 2).
                hub_keys = [key for key in graph.vertices if key[0] == 2]
                assert len(hub_keys) == 1
                hub = graph.vertex_number[hub_keys[0]]
                satellites = [v for v, _ in g.vertices if v != hub]
                ok = (
                    g.vertex_count == count + 1
                    and g.edge_count == n + count
                    and g.degree(hub) == n
                    and all(g.weight(v) == 0 for v, _ in g.vertices)
                    and all(g.degree(v) == m + 2 for v in satellites)
                    and satellite_cycle_sizes(g, hub) == [d] * (count // d)
                    and is_isomorphic(
                        g, expected_graph("arc-plus-closed", n, m=m, d=d), budget=n + 2
                    )
                )
                if not ok:
                    failures.append((n, m, d))
    report(6, f"arc-plus-closed builds match the closed form for all n<={N_MAX}, m|n, proven d", failures)


def test_criterion_07_classification_counts():
    failures = []
    expected_counts = {3: 9, 4: 14}
    for n in range(3, 61):
        entries = classify(n)
        if n in expected_counts and len(entries) != expected_counts[n]:
            failures.append((n, len(entries)))
        budget = n + 2
        expected_forms = set()
        for m in _divisors(n):
            expected_forms.add(canonical_form(expected_graph("one-arc", n, m=m), budget))
            expected_forms.add(canonical_form(expected_graph("one-closed", n, m=m), budget))
            for d in proven_cycle_lengths(n // m):
                expected_forms.add(
                    canonical_form(expected_graph("arc-plus-closed", n, m=m, d=d), budget)
                )
        for k in range(1, n + 1):
            expected_forms.add(canonical_form(expected_graph("two-arcs", n, k=k), budget))
        if {e.form for e in entries} != expected_forms:
            failures.append((n, "set mismatch"))
    report(
        7,
        "classification yields 9 graphs for n=3 and 14 for n=4, and matches the closed forms "
        "for all n<=60",
        failures,
    )


def test_criterion_08_property_suite():
    failures = []
    for fam, mc, graph in all_criterion_builds():
        g = graph.underlying
        degree_sum = sum(g.degree(v) for v, _ in g.vertices)
        if degree_sum != 2 * g.edge_count:
            failures.append((fam.n, "handshake"))
            continue
        if not g.is_stable():
            failures.append((fam.n, "stability"))
            continue
        genus = g.genus()
        if not (genus == riemann_hurwitz_genus(fam.action) and genus == fam.n):
            failures.append((fam.n, "genus"))
            continue
        oracle = audit_graph(graph)
        if not oracle.ok:
            failures.append((fam.n, "oracle"))
    report(8, "handshake, stability, genus conservation and oracle audit hold for every build", failures)


def test_criterion_09_oracle_equivalence():
    failures = []
    rng = random.Random(987654321)
    for _ in range(1000):
        n = rng.randrange(1, N_MAX + 1)
        group = dihedral(n)
        gens = [rng.randrange(group.order) for _ in range(rng.randrange(1, 4))]
        if components_by_bfs(group, gens) * closure(group, gens).order != group.order:
            failures.append(("dihedral", n, gens))

    tables = 0
    while tables < 20:
        degree = rng.randrange(3, 6)
        perms = []
        for _ in range(rng.randrange(1, 3)):
            p = list(range(degree))
            rng.shuffle(p)
            perms.append(tuple(p))
        identity = tuple(range(degree))
        elements = {identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for x in frontier:
                for p in perms:
                    y = tuple(x[p[i]] for i in range(degree))
                    if y not in elements:
                        elements.add(y)
                        nxt.append(y)
            frontier = nxt
        if len(elements) > 48:
            continue
        ordered = sorted(elements)
        index = {p: i for i, p in enumerate(ordered)}
        table = [
            [index[tuple(a[b[i]] for i in range(degree))] for b in ordered]
            for a in ordered
        ]
        group = GroupTable(table)
        tables += 1
        for _ in range(3):
            gens = [rng.randrange(group.order) for _ in range(rng.randrange(1, 3))]
            if components_by_bfs(group, gens) * closure(group, gens).order != group.order:
                failures.append(("table", group.order, gens))
    report(9, "orbit count times closure order equals the group order (1000 dihedral + 20 table groups)", failures)


def test_criterion_10_out_of_scope_honesty():
    import importlib
    from pathlib import Path

    import strata_limits as pkg

    failures = []
    modules = [pkg] + [
        importlib.import_module(f"strata_limits.{name}")
        for name in (
            "groups",
            "orbifolds",
            "multicurves",
            "stable_graphs",
            "limit_graphs",
            "oracle",
            "pyramids",
            "files",
            "cli",
        )
    ]
    # No public name offers a multicurve-equivalence decision or a
    # connectedness/surjectivity statement about boundary strata.
    banned_fragments = ("equivalen", "connected_strat", "stratum_closure", "surject")
    for module in modules:
        for name in dir(module):
            if name.startswith("_"):
                continue
            lowered = name.lower()
            if any(fragment in lowered for fragment in banned_fragments):
                failures.append(f"{module.__name__}.{name}")

    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    if "Deliberate omissions" not in text:
        failures.append("README lacks the deliberate-omissions section")
    for phrase in ("equivalence of multicurves", "connectedness"):
        if phrase not in text:
            failures.append(f"README does not document the missing {phrase}")
    report(10, "equivalence decisions and connectedness claims are absent and documented as such", failures)
