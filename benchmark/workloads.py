"""The benchmark's three workloads: inputs from a seed, one op per input,
and the checks on each op's output.

Every check here takes a route that does not go through the code being
timed: graphs are compared with ``expected_graph``'s closed forms through
invariants the benchmark computes itself, and canonical forms of small
graphs are compared with a brute-force isomorphism test.

``run.py`` calls ``make_build_files`` in a child process, so that the
memory of exporting the ``build-files`` inputs does not count in the
workload's ``peak_rss_mb``.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
from collections import Counter, defaultdict
from pathlib import Path

from strata_limits import cli, pyramids, stable_graphs
from strata_limits.files import action_to_spec, multicurve_to_spec
from strata_limits.pyramids import enumerate_parameters, expected_graph, make_multicurve
from strata_limits.stable_graphs import StableGraph

# Taken before any tracer wraps ``pyramid_action``.
clear_pyramid_cache = pyramids.pyramid_action.cache_clear

# ---------------------------------------------------------------------------
# shared checks


def graph_invariants(vertex_weights, edges) -> tuple:
    """(vertices, edges, genus, sorted weights, sorted degrees) of a weighted
    multigraph given as {vertex: weight} and a list of (a, b) edge ends."""
    degree = Counter()
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    weights = sorted(vertex_weights.values())
    genus = sum(weights) + len(edges) - len(vertex_weights) + 1
    return (
        len(vertex_weights),
        len(edges),
        genus,
        tuple(weights),
        tuple(sorted(degree[v] for v in vertex_weights)),
    )


def stable_graph_invariants(graph) -> tuple:
    return graph_invariants(dict(graph.vertices), list(graph.edges))


def witness_invariants(n: int, description: str) -> tuple:
    """Invariants of ``expected_graph`` for a classify/enumerate label such
    as ``"arc-plus-closed m=1 d=2"``."""
    family, *params = description.split(" (")[0].split()
    kwargs = {key: int(value) for key, value in (p.split("=") for p in params)}
    return stable_graph_invariants(expected_graph(family, n, **kwargs))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Op:
    """One input of a workload; ``size`` ranks it for ``top_rung_s``."""

    __slots__ = ("size", "data")

    def __init__(self, size, data):
        self.size = size
        self.data = data


class Workload:
    """What ``run.py`` asks of a workload.  Subclasses set ``name`` and
    ``ops`` and define ``run``, ``check`` and ``digest``."""

    name: str
    ops: list[Op]

    def before_op(self) -> None:
        """Untimed work before each op."""

    def classes(self, result) -> int:
        """Isomorphism classes an op's result holds."""
        return 0

    def stdout_bytes(self, result) -> int:
        return 0

    def check_pass(self, ops, results) -> list[tuple[int, str]]:
        """Checks across a whole pass, as (op index, problem) pairs."""
        return []


# ---------------------------------------------------------------------------
# classify


class Classify(Workload):
    """``pyramids.classify(n)`` over a ladder of ``n``.

    The cost of ``classify(n)`` follows the divisors of ``n``, not its size:
    even ``n`` carry the paired graph and cost about three times their odd
    neighbours.  A ladder drawn at random would make ``wall_s`` and
    ``op_p50_ms`` measure the draw (rebuilt from measured per-``n`` times,
    their quartile spread over ten seeds was 4-26 % of the median), so the
    rungs are fixed and the seed sets the order they run in.
    """

    name = "classify"
    rungs = (48, 56, 64, 72, 96)
    smoke_rungs = (4, 6, 8)

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        rungs = list(self.smoke_rungs if smoke else self.rungs)
        random.Random(seed).shuffle(rungs)
        self.ops = [Op(n, n) for n in rungs]

    def before_op(self) -> None:
        # A fresh CLI call builds the pyramid action again.
        clear_pyramid_cache()

    def run(self, op):
        return pyramids.classify(op.data)

    def check(self, op, classes, guards) -> list[str]:
        problems = []
        n = op.data
        for entry in classes:
            got = stable_graph_invariants(entry.graph)
            want = witness_invariants(n, entry.description)
            if got != want:
                problems.append(f"n={n} {entry.description}: graph {got}, closed form {want}")
        jobs = guards["pyramids.jobs"]
        if sum(entry.count for entry in classes) != jobs:
            problems.append(f"n={n}: class counts sum to {sum(e.count for e in classes)}, not {jobs} jobs")
        if jobs == 0 or guards["limit_graphs.build_stratum_graph"] != jobs:
            problems.append(
                f"n={n}: {guards['limit_graphs.build_stratum_graph']} builds "
                f"for {guards['pyramids.jobs']} jobs"
            )
        return problems

    def digest(self, op, classes) -> str:
        lines = []
        for entry in classes:
            lines.append(f"{entry.description} {entry.witness.label()} count={entry.count}")
            lines.append(entry.graph.to_text())
        return digest("\n".join(lines))

    def classes(self, classes) -> int:
        return len(classes)


# ---------------------------------------------------------------------------
# build-files

BUILD_N_RANGE = (128, 512)
BUILD_DRAWS = 98
# The draws follow the density proportional to n**-BUILD_DENSITY_POWER.  An
# op's time grows about as n**1.6, so this power keeps a 100-op pass near 8 s
# at the nominal speed of ``speed.py`` while every op still builds a group of
# order 256 or more.
BUILD_DENSITY_POWER = 5
SMOKE_BUILD_N_RANGE = (6, 10)
SMOKE_BUILD_DRAWS = 3
ENCODINGS = ("table", "dihedral")
FAMILY_ORDER = ("one-arc", "two-arcs", "one-closed", "arc-plus-closed")


def build_file_sizes(seed: int, smoke: bool) -> list[int]:
    """The ``n`` of each op: one draw from each of ``BUILD_DRAWS``
    equal-probability strata of the size density, then the top of the range
    twice, once per encoding.  Stratifying keeps the pass time, the median
    and the 90th percentile nearly independent of the seed; more ops at the
    top would push the 90th percentile into the sparse tail of the draws."""
    lo, hi = SMOKE_BUILD_N_RANGE if smoke else BUILD_N_RANGE
    draws = SMOKE_BUILD_DRAWS if smoke else BUILD_DRAWS
    rng = random.Random(seed)
    a, b = lo ** (1 - BUILD_DENSITY_POWER), hi ** (1 - BUILD_DENSITY_POWER)
    sizes = []
    for i in range(draws):
        u = (i + rng.random()) / draws
        sizes.append(round((a + u * (b - a)) ** (1 / (1 - BUILD_DENSITY_POWER))))
    return sizes + [hi, hi]


def make_build_files(seed: int, smoke: bool, out_dir: Path) -> None:
    """Export one action file and one multicurve file per op and write
    ``manifest.json``.

    Encodings alternate between ops, so both appear across the size range, and the
    multicurve families cycle, so every pass builds each family equally
    often; the multicurve is a seeded pick among the family's parameters
    in ``enumerate_parameters(n)``.
    """
    rng = random.Random(seed + 1)
    family_offset = rng.randrange(len(FAMILY_ORDER))
    manifest = []
    for index, n in enumerate(build_file_sizes(seed, smoke)):
        family = pyramids.pyramid_action(n)
        encoding = ENCODINGS[index % len(ENCODINGS)]
        spec = action_to_spec(family.action)
        if encoding == "dihedral":
            spec["group"] = {"type": "dihedral", "n": n}
        kind = FAMILY_ORDER[(family_offset + index) % len(FAMILY_ORDER)]
        params, label = rng.choice([job for job in enumerate_parameters(n) if job[0].family == kind])
        mc = make_multicurve(family, params)
        stem = f"{index:03d}-n{n}-{encoding}"
        action_path = out_dir / f"{stem}-action.json"
        multicurve_path = out_dir / f"{stem}-multicurve.json"
        action_path.write_text(json.dumps(spec), encoding="utf-8")
        multicurve_path.write_text(
            json.dumps(multicurve_to_spec(mc, family.action.signature)), encoding="utf-8"
        )
        manifest.append(
            {
                "n": n,
                "encoding": encoding,
                "witness": label,
                "action": str(action_path),
                "multicurve": str(multicurve_path),
            }
        )
        clear_pyramid_cache()
    (out_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


class BuildFiles(Workload):
    """In-process ``cli.main(["build", ...])`` on exported files, audit on."""

    name = "build-files"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        manifest = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
        self.ops = [Op(entry["n"], entry) for entry in manifest]

    def before_op(self) -> None:
        clear_pyramid_cache()

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        argv = [
            "build",
            "--action", op.data["action"],
            "--multicurve", op.data["multicurve"],
            "--format", "json",
        ]
        code = cli.main(argv, out, err)
        return code, out.getvalue(), err.getvalue()

    def check(self, op, result, guards) -> list[str]:
        code, stdout, stderr = result
        label = f"n={op.data['n']} {op.data['encoding']} {op.data['witness']}"
        if code != 0:
            return [f"{label}: exit {code}: {stderr.strip()}"]
        payload = json.loads(stdout)
        problems = []
        graph = payload["graph"]
        weights = {v["id"]: v["weight"] for v in graph["vertices"]}
        got = graph_invariants(weights, [tuple(e["ends"]) for e in graph["edges"]])
        want = witness_invariants(op.data["n"], op.data["witness"])
        if got != want or graph["genus"] != want[2]:
            problems.append(f"{label}: graph {got} genus {graph['genus']}, closed form {want}")
        if payload.get("audit", {}).get("ok") is not True:
            problems.append(f"{label}: printed audit is not ok")
        for guard in ("oracle.audit_graph", "orbifolds.validate_action"):
            if guards[guard] < 1:
                problems.append(f"{label}: {guard} was not called")
        return problems

    def digest(self, op, result) -> str:
        return digest(f"{result[0]}\n{result[1]}")

    def stdout_bytes(self, result) -> int:
        return len(result[1].encode())


# ---------------------------------------------------------------------------
# canon-generic

CANON_SIZES = range(3, 25)
CANON_PAIRS_PER_SIZE = 100
SMOKE_CANON_SIZES = range(3, 9)
BRUTE_FORCE_MAX_VERTICES = 7


def random_stable_graph(rng: random.Random, n: int):
    """A connected stable graph on ``n`` vertices with planted twin blocks.

    A block is a set of vertices with one weight, one loop count, the same
    edges to the rest of the graph and one multiplicity between each pair
    of members, so every permutation of a block is an automorphism.
    """
    twins = rng.randrange(0, n // 2 + 1) if n >= 3 else 0
    core = n - twins
    weights = {v: rng.choice((0, 0, 1, 2)) for v in range(core)}
    edges = []
    for v in range(1, core):
        edges += [(rng.randrange(v), v)] * rng.choice((1, 1, 2))
    for _ in range(rng.randrange(core + 1)):
        edges.append((rng.randrange(core), rng.randrange(core)))
    v = core
    while v < n:
        size = min(rng.choice((2, 3, 4)), n - v)
        block = range(v, v + size)
        anchors = rng.sample(range(core), min(core, rng.choice((1, 2))))
        multiplicity = [rng.choice((1, 2)) for _ in anchors]
        inner, loops, weight = rng.choice((0, 1, 2)), rng.choice((0, 0, 1)), rng.choice((0, 1))
        for b in block:
            weights[b] = weight
            for anchor, mult in zip(anchors, multiplicity):
                edges += [(anchor, b)] * mult
            edges += [(b, b)] * loops
        for a, b in itertools.combinations(block, 2):
            edges += [(a, b)] * inner
        v += size
    degree = Counter()
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    for v in range(n):
        if weights[v] == 0 and degree[v] < 3:
            weights[v] = 1
    return StableGraph(list(weights.items()), edges)


def relabeled(rng: random.Random, graph):
    ids = rng.sample(range(10 * graph.vertex_count), graph.vertex_count)
    return graph.relabeled({v: ids[i] for i, (v, _) in enumerate(graph.vertices)})


def swapped(rng: random.Random, graph):
    """``graph`` after one degree-preserving exchange of two edge ends, or
    None: same vertices, weights and degree sequence, isomorphic or not."""
    edges = list(graph.edges)
    candidates = [
        (i, j)
        for i, j in itertools.combinations(range(len(edges)), 2)
        if len({*edges[i], *edges[j]}) == 4
    ]
    if not candidates:
        return None
    i, j = rng.choice(candidates)
    (a, b), (c, d) = edges[i], edges[j]
    edges[i], edges[j] = (a, d), (c, b)
    try:
        return StableGraph(graph.vertices, edges)
    except ValueError:  # the exchange disconnected the graph
        return None


def brute_force_isomorphic(g1, g2) -> bool:
    """Weight-preserving isomorphism by trying every vertex bijection."""
    if stable_graph_invariants(g1) != stable_graph_invariants(g2):
        return False
    v1 = [v for v, _ in g1.vertices]
    v2 = [v for v, _ in g2.vertices]
    w1, w2 = dict(g1.vertices), dict(g2.vertices)
    target = Counter(frozenset(e) if e[0] != e[1] else (e[0],) for e in g2.edges)
    for image in itertools.permutations(v2):
        mapping = dict(zip(v1, image))
        if any(w1[v] != w2[mapping[v]] for v in v1):
            continue
        mapped = Counter(
            frozenset((mapping[a], mapping[b])) if a != b else (mapping[a],) for a, b in g1.edges
        )
        if mapped == target:
            return True
    return False


class CanonGeneric(Workload):
    """``canonical_form`` on a random stable graph and on a relabeling of it."""

    name = "canon-generic"
    budget = max(CANON_SIZES)

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        rng = random.Random(seed)
        sizes = SMOKE_CANON_SIZES if smoke else CANON_SIZES
        per_size = 2 if smoke else CANON_PAIRS_PER_SIZE
        self.ops = []
        for n in sizes:
            for _ in range(per_size):
                graph = random_stable_graph(rng, n)
                self.ops.append(Op(n, (graph, relabeled(rng, graph))))
        rng.shuffle(self.ops)
        # Graphs with the invariants of a small input but possibly another
        # isomorphism type, for the brute-force comparison.
        self.variants = [
            (index, variant)
            for index, op in enumerate(self.ops)
            if op.size <= BRUTE_FORCE_MAX_VERTICES
            for variant in [swapped(rng, op.data[0])]
            if variant is not None
        ]

    def run(self, op):
        graph, image = op.data
        return (
            stable_graphs.canonical_form(graph, self.budget),
            stable_graphs.canonical_form(image, self.budget),
        )

    def check(self, op, forms, guards) -> list[str]:
        if forms[0] != forms[1]:
            return [f"{op.size} vertices: a graph and its relabeling got different forms"]
        return []

    def digest(self, op, forms) -> str:
        return digest(repr(forms[0]))

    def classes(self, forms) -> int:
        return len(set(forms))

    def check_pass(self, ops, results) -> list[tuple[int, str]]:
        """Equal forms must coincide with brute-force isomorphism on every
        group of small graphs that share their invariants.  Returns (op
        index, problem) pairs."""
        graphs = []
        for index, (op, forms) in enumerate(zip(ops, results)):
            if op.size <= BRUTE_FORCE_MAX_VERTICES and not isinstance(forms, Exception):
                graphs += [(index, op.data[0], forms[0]), (index, op.data[1], forms[1])]
        for index, graph in self.variants:
            graphs.append((index, graph, stable_graphs.canonical_form(graph, self.budget)))
        by_invariants = defaultdict(lambda: defaultdict(list))
        for index, graph, form in graphs:
            by_invariants[stable_graph_invariants(graph)][form].append((index, graph))
        problems = []
        for by_form in by_invariants.values():
            representatives = []
            for members in by_form.values():
                index, first = members[0]
                for other_index, other in members[1:]:
                    if not brute_force_isomorphic(first, other):
                        problems.append((other_index, "equal forms on non-isomorphic graphs"))
                representatives.append(members[0])
            for (_, a), (index, b) in itertools.combinations(representatives, 2):
                if brute_force_isomorphic(a, b):
                    problems.append((index, "different forms on isomorphic graphs"))
        return problems


WORKLOADS = {w.name: w for w in (Classify, BuildFiles, CanonGeneric)}

