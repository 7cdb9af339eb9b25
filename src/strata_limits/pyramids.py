"""The dihedral pyramid family and its boundary classification.

The pyramidal action of the dihedral group of order 2n on a genus-n surface
has quotient signature (0; 2,2,2,2,n): the four order-2 cone generators map
to reflections (x1 to s, x2..x4 to r s) and the order-n generator maps to
the rotation r.  This module builds that action, provides parametric
multicurve constructors for the four admissible multicurve types on the
quotient (one arc, two arcs, one closed curve, arc plus closed curve), and
enumerates all distinct limit stable graphs for a given n.

Each multicurve constructor transcribes one drawable family of curves: the
curve words below are fixed word families in x1..x5 whose images realize
every achievable image subgroup.  ``expected_graph`` builds the resulting
stable graphs directly from their closed-form descriptions, independently
of the construction in :mod:`strata_limits.limit_graphs`, so the two routes
can be checked against each other.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd

from .groups import dihedral
from .limit_graphs import build_stratum_graph
from .multicurves import CurveSide, CurveSpec, MulticurveSpec, PieceSpec
from .orbifolds import OrbifoldSignature, SurfaceKernelAction, Word
from .stable_graphs import CanonicalForm, StableGraph, canonical_form

__all__ = [
    "PyramidFamily",
    "PyramidMulticurveParams",
    "StratumGraphClass",
    "pyramid_action",
    "make_multicurve",
    "classify",
    "expected_graph",
    "FAMILIES",
    "VARIANTS",
]

ONE_ARC = "one-arc"
TWO_ARCS = "two-arcs"
ONE_CLOSED = "one-closed"
ARC_PLUS_CLOSED = "arc-plus-closed"

FAMILIES = (ONE_ARC, TWO_ARCS, ONE_CLOSED, ARC_PLUS_CLOSED)

VARIANTS = {
    ONE_ARC: ("direct", "twisted", "top-right", "bottom-left", "bottom-right"),
    TWO_ARCS: ("even", "odd"),
    ONE_CLOSED: ("left", "right"),
    ARC_PLUS_CLOSED: (
        "top-left",
        "top-right",
        "middle-left",
        "middle-right",
        "bottom-left",
        "bottom-right",
        "paired",
        "general",
    ),
}


@dataclass(frozen=True)
class PyramidFamily:
    n: int
    action: SurfaceKernelAction


@dataclass(frozen=True)
class PyramidMulticurveParams:
    """Which multicurve to build: family, figure variant, winding parameter.

    ``cycle_length`` is only used by the arc-plus-closed ``general``
    variant, which dials the satellite cycle length directly.
    """

    family: str
    variant: str
    winding: int = 0
    cycle_length: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.variant not in VARIANTS[self.family]:
            raise ValueError(
                f"unknown variant {self.variant!r} for family {self.family!r}"
            )
        if self.winding < 0:
            raise ValueError("winding parameter must be non-negative")

    def label(self) -> str:
        extra = f" d={self.cycle_length}" if self.cycle_length is not None else ""
        return f"{self.family}/{self.variant} winding={self.winding}{extra}"


@functools.lru_cache(maxsize=None)
def pyramid_action(n: int) -> PyramidFamily:
    """The dihedral pyramid action for n >= 3.

    The action is not validated here: :func:`build_stratum_graph` validates
    it on every build.
    """
    if n < 3:
        raise ValueError("the pyramid family requires n >= 3")
    group = dihedral(n)
    signature = OrbifoldSignature(genus=0, cone_orders=(2, 2, 2, 2, n))
    images = (
        group.by_name("s"),
        group.by_name("r s"),
        group.by_name("r s"),
        group.by_name("r s"),
        group.by_name("r"),
    )
    return PyramidFamily(n=n, action=SurfaceKernelAction(group, signature, images))


def _conjugate(core: Word, by: Word, times: int) -> Word:
    """The word by^times core by^-times, built in one construction."""
    return Word(by.letters * times + core.letters + by.inverse().letters * times)


def _arc(curve_id: str, endpoints, gamma_a: Word, gamma_b: Word, piece: int) -> CurveSpec:
    # Arc sides: the empty side first; the attachment image is the first
    # boundary-loop image (a reflection).
    return CurveSpec(
        id=curve_id,
        kind="arc",
        endpoints=tuple(endpoints),
        gamma_a=gamma_a,
        gamma_b=gamma_b,
        sides=(CurveSide(piece, Word()), CurveSide(piece, gamma_a)),
    )


def _one_arc_spec(n: int, variant: str, k: int, word) -> MulticurveSpec:
    if variant == "direct":
        endpoints, gamma_a, gamma_b = (3, 4), word("x3"), word("x4")
        cones, gens = (1, 2, 5), ("x1", "x2", "x5")
    elif variant == "twisted":
        endpoints, gamma_a, gamma_b = (3, 4), word("x3"), word("x1^-1 x4 x1")
        cones, gens = (1, 2, 5), ("x1", "x3^-1 x2 x3", "x4 x5 x4^-1")
    elif variant == "top-right":
        endpoints, gamma_a, gamma_b = (3, 4), word("x3"), word("x4^-1")
        cones, gens = (1, 2, 5), ("x1", "x2", "x5")
    elif variant == "bottom-left":
        # The second boundary loop picks up an odd rotation twist 2k+1.
        endpoints = (4, 3)
        gamma_a = word("x4")
        gamma_b = _conjugate(word("x1 x3 x1^-1"), word("x1 x4"), k)
        cones, gens = (1, 2, 5), ("x1", "x2", "x5")
    elif variant == "bottom-right":
        endpoints = (1, 3)
        gamma_a = word("x1")
        gamma_b = _conjugate(word("x3"), word("x4 x1"), k)
        cones, gens = (2, 4, 5), ("x2", "x4", "x5")
    else:  # pragma: no cover - guarded by PyramidMulticurveParams
        raise ValueError(variant)
    piece = PieceSpec(
        id=1,
        signature=OrbifoldSignature(0, 1, (2, 2, n)),
        cone_points=cones,
        generators=tuple(word(g) for g in gens),
    )
    curve = _arc("g", endpoints, gamma_a, gamma_b, 1)
    return MulticurveSpec(pieces=(piece,), curves=(curve,))


def _two_arcs_spec(n: int, variant: str, t: int, word) -> MulticurveSpec:
    # The two boundary-loop products evaluate to consecutive rotation
    # powers r^k, r^(k+1); the variant selects the parity of k.
    twist = word("x1 x4")
    if variant == "even":
        g1 = ("g1", (2, 3), word("x2"), _conjugate(word("x3"), twist, t))
        g2 = ("g2", (4, 1), word("x4"), _conjugate(word("x1"), twist, t))
    elif variant == "odd":
        g1 = ("g1", (4, 1), word("x4"), _conjugate(word("x1"), twist, t))
        g2 = ("g2", (2, 3), word("x2"), _conjugate(word("x3"), twist, t + 1))
    else:  # pragma: no cover
        raise ValueError(variant)
    curves = tuple(_arc(cid, ends, ga, gb, 1) for cid, ends, ga, gb in (g1, g2))
    loop_around_first_arc = g1[2].concat(g1[3])
    piece = PieceSpec(
        id=1,
        signature=OrbifoldSignature(0, 2, (n,)),
        cone_points=(5,),
        generators=(word("x5"), loop_around_first_arc),
    )
    return MulticurveSpec(pieces=(piece,), curves=curves)


def _one_closed_spec(n: int, variant: str, t: int, word) -> MulticurveSpec:
    if variant == "left":
        hub_cones, hub_gens = (1, 5), ("x1", "x5")
        third = _conjugate(word("x4"), word("x5"), t)
        leaf_cones = (2, 3, 4)
    elif variant == "right":
        hub_cones, hub_gens = (4, 5), ("x4", "x5")
        third = _conjugate(word("x1"), word("x5"), t + 1)
        leaf_cones = (1, 2, 3)
    else:  # pragma: no cover
        raise ValueError(variant)
    hub = PieceSpec(
        id=1,
        signature=OrbifoldSignature(0, 1, (2, n)),
        cone_points=hub_cones,
        generators=tuple(word(g) for g in hub_gens),
    )
    leaf = PieceSpec(
        id=2,
        signature=OrbifoldSignature(0, 1, (2, 2, 2)),
        cone_points=leaf_cones,
        generators=(word("x2"), word("x3"), third),
    )
    curve = CurveSpec(
        id="g",
        kind="closed",
        gamma=word("x2 x3").concat(third),
        sides=(CurveSide(1, Word()), CurveSide(2, Word())),
    )
    return MulticurveSpec(pieces=(hub, leaf), curves=(curve,))


def _arc_plus_closed_parts(n: int, variant: str, w: int, cycle_length: int | None, word):
    """Arc data, annulus cone point, z word and disc data for each variant."""
    x5 = word("x5")
    if variant == "top-left":
        arc = ((4, 3), word("x4"), _conjugate(word("x1 x3 x1^-1"), word("x1 x4"), w))
        z, z_cone = word("x1"), 1
        disc_cones, disc_gens = (2, 5), ("x2", "x5")
    elif variant == "top-right":
        arc = ((1, 3), word("x1"), _conjugate(word("x3"), word("x4 x1"), w))
        z, z_cone = word("x4"), 4
        disc_cones, disc_gens = (2, 5), ("x2", "x5")
    elif variant == "middle-left":
        arc = ((3, 4), word("x3"), _conjugate(word("x4"), x5, w))
        z, z_cone = word("x2"), 2
        disc_cones, disc_gens = (1, 5), ("x1", "x5")
    elif variant == "middle-right":
        arc = ((3, 1), word("x3"), _conjugate(word("x1"), x5, w + 1))
        z, z_cone = word("x2"), 2
        disc_cones, disc_gens = (4, 5), ("x4", "x5")
    elif variant == "bottom-left":
        arc = ((3, 4), word("x3"), _conjugate(word("x4"), x5, w))
        z, z_cone = word("x5 x2 x5^-1"), 2
        disc_cones, disc_gens = (1, 5), ("x1", "x5")
    elif variant == "bottom-right":
        arc = ((3, 1), word("x3"), _conjugate(word("x1"), x5, w + 1))
        z, z_cone = word("x5 x2 x5^-1"), 2
        disc_cones, disc_gens = (4, 5), ("x4", "x5")
    elif variant == "paired":
        # Arc as in middle-left; the z loop is wound so that the product of
        # the attachment image and the z image has coset order 2 in the
        # rotation quotient, splitting the satellites into double edges.
        satellite_count = gcd(n, 2 * w) if w > 0 else n
        if satellite_count % 2 != 0:
            raise ValueError(
                f"paired cycles need an even satellite count, got {satellite_count}"
            )
        arc = ((3, 4), word("x3"), _conjugate(word("x4"), x5, w))
        z, z_cone, disc_cones, disc_gens = _cycle_tuning_z(satellite_count // 2, word)
    elif variant == "general":
        # Here the winding parameter is the satellite count itself; the z
        # loop dials the cycle length to any divisor.  No geometric
        # realization is claimed for lengths outside {1, 2, count}.
        satellite_count = w
        if satellite_count < 1 or n % satellite_count != 0:
            raise ValueError(
                f"satellite count {satellite_count} must divide n = {n}"
            )
        if cycle_length is None:
            raise ValueError("the general variant needs cycle_length")
        if cycle_length < 1 or satellite_count % cycle_length != 0:
            raise ValueError(
                f"cycle length {cycle_length} does not divide {satellite_count}"
            )
        j = satellite_count // cycle_length
        if satellite_count % 2 == 0:
            arc = ((3, 4), word("x3"), _conjugate(word("x4"), x5, satellite_count // 2))
            z, z_cone, disc_cones, disc_gens = _cycle_tuning_z(j, word)
        else:
            twist = word("x4 x1")
            arc = ((1, 3), word("x1"), _conjugate(word("x3"), twist, (satellite_count - 1) // 2))
            z, z_cone = _conjugate(word("x2"), x5, (j - 1) // 2), 2
            disc_cones, disc_gens = (4, 5), ("x4", "x5")
    else:  # pragma: no cover
        raise ValueError(variant)
    return arc, z, z_cone, disc_cones, disc_gens


def _cycle_tuning_z(j: int, word):
    """z data making the attachment-times-z image the rotation r^-j, for an
    arc whose attachment image is r s."""
    if j % 2 == 0:
        return _conjugate(word("x2"), word("x5"), j // 2), 2, (1, 5), ("x1", "x5")
    return _conjugate(word("x1"), word("x5"), (j + 1) // 2), 1, (2, 5), ("x2", "x5")


def _arc_plus_closed_spec(
    n: int, variant: str, w: int, cycle_length: int | None, word
) -> MulticurveSpec:
    arc, z, z_cone, disc_cones, disc_gens = _arc_plus_closed_parts(
        n, variant, w, cycle_length, word
    )
    endpoints, gamma_a, gamma_b = arc
    around_arc = gamma_a.concat(gamma_b)
    annulus = PieceSpec(
        id=1,
        signature=OrbifoldSignature(0, 2, (2,)),
        cone_points=(z_cone,),
        generators=(around_arc, z),
    )
    disc = PieceSpec(
        id=2,
        signature=OrbifoldSignature(0, 1, (2, n)),
        cone_points=disc_cones,
        generators=tuple(word(g) for g in disc_gens),
    )
    arc_curve = _arc("g1", endpoints, gamma_a, gamma_b, 1)
    closed_curve = CurveSpec(
        id="g2",
        kind="closed",
        gamma=z.concat(around_arc),
        sides=(CurveSide(2, Word()), CurveSide(1, Word())),
    )
    return MulticurveSpec(pieces=(annulus, disc), curves=(arc_curve, closed_curve))


def make_multicurve(
    family: PyramidFamily, params: PyramidMulticurveParams
) -> MulticurveSpec:
    """Build the multicurve specification for one parameter choice.

    The result is not validated here: :func:`build_stratum_graph` validates
    it on every build.
    """
    word = functools.partial(Word.parse, signature=family.action.signature)
    n = family.n
    if params.family == ONE_ARC:
        return _one_arc_spec(n, params.variant, params.winding, word)
    if params.family == TWO_ARCS:
        return _two_arcs_spec(n, params.variant, params.winding, word)
    if params.family == ONE_CLOSED:
        return _one_closed_spec(n, params.variant, params.winding, word)
    return _arc_plus_closed_spec(n, params.variant, params.winding, params.cycle_length, word)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _one_arc_params(n: int, m: int) -> PyramidMulticurveParams:
    edges = n // m
    if edges % 2 == 0:
        return PyramidMulticurveParams(ONE_ARC, "bottom-left", edges // 2 - 1)
    return PyramidMulticurveParams(ONE_ARC, "bottom-right", (edges - 1) // 2)


def _two_arcs_params(n: int, k: int) -> PyramidMulticurveParams:
    if k % 2 == 0:
        return PyramidMulticurveParams(TWO_ARCS, "even", k // 2)
    return PyramidMulticurveParams(TWO_ARCS, "odd", (k - 1) // 2)


def _one_closed_params(n: int, m: int) -> PyramidMulticurveParams:
    count = n // m
    if count % 2 == 0:
        return PyramidMulticurveParams(ONE_CLOSED, "left", n // (2 * m))
    return PyramidMulticurveParams(ONE_CLOSED, "right", (count - 1) // 2)


def _arc_plus_closed_params(n: int, m: int, d: int) -> PyramidMulticurveParams:
    count = n // m
    if d == count:
        if count % 2 == 0:
            return PyramidMulticurveParams(ARC_PLUS_CLOSED, "top-left", count // 2 - 1)
        return PyramidMulticurveParams(ARC_PLUS_CLOSED, "top-right", (count - 1) // 2)
    if d == 1:
        if count % 2 == 0:
            return PyramidMulticurveParams(ARC_PLUS_CLOSED, "middle-left", n // (2 * m))
        return PyramidMulticurveParams(ARC_PLUS_CLOSED, "middle-right", (count - 1) // 2)
    if d == 2:
        return PyramidMulticurveParams(ARC_PLUS_CLOSED, "paired", n // (2 * m))
    return PyramidMulticurveParams(ARC_PLUS_CLOSED, "general", count, cycle_length=d)


def proven_cycle_lengths(count: int) -> list[int]:
    """Satellite cycle lengths with a known construction: 1, the full cycle,
    and 2 when the satellite count is even."""
    values = {1, count}
    if count % 2 == 0:
        values.add(2)
    return sorted(values)


def enumerate_parameters(
    n: int, include_unproven: bool = False
) -> list[tuple[PyramidMulticurveParams, str]]:
    """All parameter tuples classify builds, with human-readable labels."""
    jobs: list[tuple[PyramidMulticurveParams, str]] = []
    for m in _divisors(n):
        jobs.append((_one_arc_params(n, m), f"{ONE_ARC} m={m}"))
    for k in range(1, n + 1):
        jobs.append((_two_arcs_params(n, k), f"{TWO_ARCS} k={k}"))
    for m in _divisors(n):
        jobs.append((_one_closed_params(n, m), f"{ONE_CLOSED} m={m}"))
    for m in _divisors(n):
        count = n // m
        lengths = proven_cycle_lengths(count)
        if include_unproven:
            lengths = sorted(set(lengths) | {d for d in _divisors(count)})
        for d in lengths:
            proven = d in proven_cycle_lengths(count)
            tag = "" if proven else " (unproven)"
            params = _arc_plus_closed_params(n, m, d)
            jobs.append((params, f"{ARC_PLUS_CLOSED} m={m} d={d}{tag}"))
    return jobs


@dataclass(frozen=True)
class StratumGraphClass:
    """One isomorphism class in the classification, with a witness."""

    form: CanonicalForm
    graph: StableGraph
    witness: PyramidMulticurveParams
    description: str
    count: int


def classify(n: int, include_unproven: bool = False) -> tuple[StratumGraphClass, ...]:
    """All distinct limit stable graphs of the pyramid family for this n.

    Enumerates every parameter choice of the four multicurve families,
    builds each limit graph, and deduplicates by canonical form.  With
    ``include_unproven`` the arc-plus-closed enumeration also emits cycle
    lengths whose realizability is not settled; they are labelled as such
    in the description.
    """
    family = pyramid_action(n)
    budget = n + 2
    by_form: dict[CanonicalForm, StratumGraphClass] = {}
    for params, label in enumerate_parameters(n, include_unproven):
        mc = make_multicurve(family, params)
        graph = build_stratum_graph(family.action, mc).underlying
        form = canonical_form(graph, budget)
        entry = by_form.get(form)
        if entry is None:
            by_form[form] = StratumGraphClass(form, graph, params, label, 1)
        else:
            by_form[form] = StratumGraphClass(
                form, entry.graph, entry.witness, entry.description, entry.count + 1
            )
    return tuple(by_form[f] for f in sorted(by_form))


def _expected_one_arc(n: int, m: int) -> StableGraph:
    loops = n // m
    return StableGraph([(1, n - loops)], [(1, 1)] * loops)


def _expected_two_arcs(n: int, k: int) -> StableGraph:
    edges = gcd(n, k) + gcd(n, k + 1)
    if (n + 1 - edges) % 2 != 0:
        raise ValueError(f"parallel edge count {edges} gives a fractional weight")
    weight = (n + 1 - edges) // 2
    return StableGraph([(1, weight), (2, weight)], [(1, 2)] * edges)


def _expected_one_closed(n: int, m: int) -> StableGraph:
    leaves = n // m
    vertices = [(0, 0)] + [(i, 1) for i in range(1, leaves + 1)]
    edges = [(0, i) for i in range(1, leaves + 1) for _ in range(m)]
    return StableGraph(vertices, edges)


def _expected_arc_plus_closed(n: int, m: int, d: int) -> StableGraph:
    count = n // m
    if count % d != 0:
        raise ValueError(f"cycle length {d} does not divide {count}")
    vertices = [(0, 0)] + [(i, 0) for i in range(1, count + 1)]
    edges = [(0, i) for i in range(1, count + 1) for _ in range(m)]
    for start in range(1, count + 1, d):
        block = list(range(start, start + d))
        if d == 1:
            edges.append((block[0], block[0]))
        elif d == 2:
            edges += [(block[0], block[1])] * 2
        else:
            edges += [(block[i], block[(i + 1) % d]) for i in range(d)]
    return StableGraph(vertices, edges)


def expected_graph(
    family: str, n: int, *, m: int | None = None, k: int | None = None, d: int | None = None
) -> StableGraph:
    """The limit stable graph as described in closed form, per family.

    This construction is independent of the labeled-graph engine: one-arc
    gives one vertex of weight n - n/m with n/m loops; two-arcs gives two
    vertices of equal weight joined by gcd(n,k) + gcd(n,k+1) parallel
    edges; one-closed gives a weight-0 hub of degree n with n/m weight-1
    leaves of degree m; arc-plus-closed gives the hub plus n/m weight-0
    satellites of degree m+2 arranged in cycles of length d.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family == TWO_ARCS:
        if k is None:
            raise ValueError("two-arcs needs the parameter k")
        return _expected_two_arcs(n, k)
    if m is None or n % m != 0:
        raise ValueError(f"m must divide n, got m={m}, n={n}")
    if family == ONE_ARC:
        return _expected_one_arc(n, m)
    if family == ONE_CLOSED:
        return _expected_one_closed(n, m)
    if d is None:
        raise ValueError("arc-plus-closed needs the cycle length d")
    return _expected_arc_plus_closed(n, m, d)
