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
every achievable image subgroup.  The constructors share six wound arcs,
(4,3), (1,3), (3,4), (3,1), (2,3) and (4,1): an arc's first boundary loop
is the cone generator of its first endpoint, and its second winds as the
variant's winding parameter says.  Each piece takes the ambient orders of
its cone points, and its own cone generators unless it names others; the
piece that completes a multicurve takes the cone points its other parts
leave unused, since each cone point lies in exactly one part.

``expected_graph`` builds the resulting stable graphs directly from their
closed-form descriptions, independently of the construction in
:mod:`strata_limits.limit_graphs`, so the two routes can be checked against
each other.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

from .groups import _check_dihedral_order, _integer, _shown, dihedral
from .limit_graphs import build_stratum_graph
from .multicurves import CurveSide, CurveSpec, MulticurveSpec, PieceSpec
from .orbifolds import (
    OrbifoldSignature,
    SurfaceKernelAction,
    Word,
    _check_word_length,
    _trusted_word,
)
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


_UNWOUND_ONE_ARCS = ("direct", "twisted", "top-right")


@dataclass(frozen=True)
class PyramidMulticurveParams:
    """Which multicurve to build: family, figure variant, winding parameter.

    A non-zero winding is refused by the one-arc variants that do not wind
    (``direct``, ``twisted`` and ``top-right``).  ``cycle_length`` is
    required by the arc-plus-closed ``general`` variant, which dials the
    satellite cycle length directly, and refused by every other variant.
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
                f"unknown variant {self.variant!r} for family {self.family!r} "
                f"(choose from {', '.join(VARIANTS[self.family])})"
            )
        object.__setattr__(self, "winding", _integer(self.winding, "winding"))
        if self.cycle_length is not None:
            object.__setattr__(self, "cycle_length", _integer(self.cycle_length, "cycle_length"))
        if self.winding < 0:
            raise ValueError("winding parameter must be non-negative")
        general = (self.family, self.variant) == (ARC_PLUS_CLOSED, "general")
        if general and self.cycle_length is None:
            raise ValueError("the general variant needs cycle_length")
        if not general and self.cycle_length is not None:
            raise ValueError(
                f"cycle_length applies only to the {ARC_PLUS_CLOSED} general variant, "
                f"not to {self.family}/{self.variant}"
            )
        if self.winding and self.family == ONE_ARC and self.variant in _UNWOUND_ONE_ARCS:
            raise ValueError(
                f"{self.family}/{self.variant} does not wind: "
                f"its winding must be 0, got {_shown(self.winding)}"
            )

    def label(self) -> str:
        extra = f" d={self.cycle_length}" if self.cycle_length is not None else ""
        return f"{self.family}/{self.variant} winding={self.winding}{extra}"


def _family_n(n) -> int:
    """``n`` under the one integer rule, or ``ValueError`` below 3 or where
    :func:`dihedral` would refuse it, so that every entry point of the
    family has one top n."""
    n = _integer(n, "n")
    if n < 3:
        raise ValueError("the pyramid family requires n >= 3")
    _check_dihedral_order(n)
    return n


@functools.lru_cache(maxsize=1)
def pyramid_action(n: int) -> PyramidFamily:
    """The dihedral pyramid action for 3 <= n <= ``MAX_GROUP_ORDER // 2``.

    The action is not validated here: its first :func:`build_stratum_graph`
    validates it and records the result on it.  Only the latest action is
    cached, since its group table grows with n squared and a loop over n
    would otherwise keep every one.
    """
    n = _family_n(n)
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
    """The word by^times core by^-times, built in one construction once
    :func:`_check_word_length` has passed its length."""
    length = len(core.letters) + 2 * len(by.letters) * times
    _check_word_length(length, f"winding {_shown(times)} gives a word of")
    return _trusted_word(by.letters * times + core.letters + by.inverse().letters * times)


class _WoundArc(NamedTuple):
    """An arc whose second boundary loop is ``core`` conjugated by ``twist``
    ``winding + extra`` times, for the winding a variant gives it."""

    endpoints: tuple[int, int]
    core: str
    twist: str
    extra: int = 0


_ARC_43 = _WoundArc((4, 3), "x1 x3 x1^-1", "x1 x4")
_ARC_13 = _WoundArc((1, 3), "x3", "x4 x1")
_ARC_34 = _WoundArc((3, 4), "x4", "x5")
_ARC_31 = _WoundArc((3, 1), "x1", "x5", extra=1)
_ARC_23 = _WoundArc((2, 3), "x3", "x1 x4")
_ARC_41 = _WoundArc((4, 1), "x1", "x1 x4")


# Five cone points, as in every pyramid signature: parsing reads only their
# count, so one parse of a literal word serves every n.
_FIVE_CONES = OrbifoldSignature(0, 0, (2,) * 5)


@functools.cache
def _word(text: str) -> Word:
    return Word.parse(text, _FIVE_CONES)


def _cone_generator(cone_point: int) -> Word:
    # Cone generators come first in the generator indexing, x1 at index 0.
    return _trusted_word(((cone_point - 1, 1),))


def _unused(*used: int) -> tuple[int, ...]:
    """The cone points of (0; 2,2,2,2,n) outside ``used``: every cone point
    lies in exactly one part of a multicurve."""
    return tuple(c for c in range(1, 6) if c not in used)


def _arc(curve_id: str, endpoints: tuple[int, int], gamma_b: Word) -> CurveSpec:
    # Every arc lies on piece 1 and its first boundary loop is the cone
    # generator of its first endpoint.  Arc sides: the empty side first; the
    # attachment image is the first boundary-loop image (a reflection).
    gamma_a = _cone_generator(endpoints[0])
    return CurveSpec(
        id=curve_id,
        kind="arc",
        endpoints=endpoints,
        gamma_a=gamma_a,
        gamma_b=gamma_b,
        sides=(CurveSide(1), CurveSide(1, gamma_a)),
    )


def _wound_arc(curve_id: str, arc: _WoundArc, winding: int) -> CurveSpec:
    gamma_b = _conjugate(_word(arc.core), _word(arc.twist), winding + arc.extra)
    return _arc(curve_id, arc.endpoints, gamma_b)


def _one_arc_spec(variant: str, k: int, piece) -> MulticurveSpec:
    # direct, twisted and top-right do not wind: their k is 0.
    generators = ()
    if variant == "direct":
        curve = _wound_arc("g", _ARC_34, 0)
    elif variant == "twisted":
        curve = _arc("g", (3, 4), _word("x1^-1 x4 x1"))
        generators = (_word("x1"), _word("x3^-1 x2 x3"), _word("x4 x5 x4^-1"))
    elif variant == "top-right":
        curve = _arc("g", (3, 4), _word("x4^-1"))
    else:
        # bottom-left's second boundary loop picks up an odd rotation twist 2k+1.
        arc = _ARC_43 if variant == "bottom-left" else _ARC_13
        curve = _wound_arc("g", arc, k)
    sole = piece(1, 1, _unused(*curve.endpoints), generators)
    return MulticurveSpec(pieces=(sole,), curves=(curve,))


def _two_arcs_spec(variant: str, t: int, piece) -> MulticurveSpec:
    # The two boundary-loop products evaluate to consecutive rotation
    # powers r^k, r^(k+1); the variant selects the parity of k.
    if variant == "even":
        curves = (_wound_arc("g1", _ARC_23, t), _wound_arc("g2", _ARC_41, t))
    else:
        curves = (_wound_arc("g1", _ARC_41, t), _wound_arc("g2", _ARC_23, t + 1))
    loop_around_first_arc = curves[0].gamma_a.concat(curves[0].gamma_b)
    sole = piece(1, 2, (5,), (_word("x5"), loop_around_first_arc))
    return MulticurveSpec(pieces=(sole,), curves=curves)


def _one_closed_spec(variant: str, t: int, piece) -> MulticurveSpec:
    if variant == "left":
        hub_cones, third = (1, 5), _conjugate(_word("x4"), _word("x5"), t)
    else:
        hub_cones, third = (4, 5), _conjugate(_word("x1"), _word("x5"), t + 1)
    leaf = piece(2, 1, _unused(*hub_cones), (_word("x2"), _word("x3"), third))
    gamma = _word("x2 x3").concat(third)
    curve = CurveSpec("g", "closed", (CurveSide(1), CurveSide(2)), gamma=gamma)
    return MulticurveSpec(pieces=(piece(1, 1, hub_cones), leaf), curves=(curve,))


# The wound arc and the z loop of each arc-plus-closed variant whose
# satellite cycle length is fixed.
_FIXED_CYCLE_PARTS = {
    "top-left": (_ARC_43, "x1"),
    "top-right": (_ARC_13, "x4"),
    "middle-left": (_ARC_34, "x2"),
    "middle-right": (_ARC_31, "x2"),
    "bottom-left": (_ARC_34, "x5 x2 x5^-1"),
    "bottom-right": (_ARC_31, "x5 x2 x5^-1"),
}


def _cycle_tuning_z(j: int) -> Word:
    """The z loop making the attachment-times-z image the rotation r^-j, for
    an arc whose attachment image is r s."""
    return _conjugate(_word("x1" if j % 2 else "x2"), _word("x5"), (j + 1) // 2)


def _arc_plus_closed_spec(
    n: int, variant: str, w: int, cycle_length: int | None, piece
) -> MulticurveSpec:
    if variant == "paired":
        # Arc as in middle-left; the z loop is wound so that the product of
        # the attachment image and the z image has coset order 2 in the
        # rotation quotient, splitting the satellites into double edges.
        satellite_count = gcd(n, 2 * w) if w > 0 else n
        if satellite_count % 2 != 0:
            raise ValueError(
                f"paired cycles need an even satellite count, got {satellite_count}"
            )
        arc, z = _ARC_34, _cycle_tuning_z(satellite_count // 2)
    elif variant == "general":
        # Here the winding parameter is the satellite count itself; the z
        # loop dials the cycle length to any divisor.  No geometric
        # realization is claimed for lengths outside {1, 2, count}.
        satellite_count = w
        if satellite_count < 1 or n % satellite_count != 0:
            raise ValueError(
                f"satellite count {_shown(satellite_count)} must divide n = {n}"
            )
        if cycle_length < 1 or satellite_count % cycle_length != 0:
            raise ValueError(
                f"cycle length {_shown(cycle_length)} does not divide {satellite_count}"
            )
        j = satellite_count // cycle_length
        if satellite_count % 2 == 0:
            arc, w, z = _ARC_34, satellite_count // 2, _cycle_tuning_z(j)
        else:
            # This arc's attachment image is s = r^-1 (r s): z tunes for j - 1.
            arc, w, z = _ARC_13, (satellite_count - 1) // 2, _cycle_tuning_z(j - 1)
    else:
        arc, z_text = _FIXED_CYCLE_PARTS[variant]
        z = _word(z_text)
    arc_curve = _wound_arc("g1", arc, w)
    # z conjugates one cone generator, so its middle letter names its cone point.
    z_cone = z.letters[len(z.letters) // 2][0] + 1
    around_arc = arc_curve.gamma_a.concat(arc_curve.gamma_b)
    annulus = piece(1, 2, (z_cone,), (around_arc, z))
    disc = piece(2, 1, _unused(*arc.endpoints, z_cone))
    gamma = z.concat(around_arc)
    closed_curve = CurveSpec("g2", "closed", (CurveSide(2), CurveSide(1)), gamma=gamma)
    return MulticurveSpec(pieces=(annulus, disc), curves=(arc_curve, closed_curve))


def make_multicurve(
    family: PyramidFamily, params: PyramidMulticurveParams
) -> MulticurveSpec:
    """Build the multicurve specification for one parameter choice.

    The result is not validated here: :func:`build_stratum_graph` validates
    it on every build.
    """
    signature = family.action.signature

    def piece(piece_id, boundary, cone_points, generators=()) -> PieceSpec:
        # A genus-0 piece with the ambient orders of its cone points; by
        # default its generators are its own cone generators.
        orders = tuple(signature.cone_orders[c - 1] for c in cone_points)
        return PieceSpec(
            id=piece_id,
            signature=OrbifoldSignature(0, boundary, orders),
            cone_points=cone_points,
            generators=generators or tuple(map(_cone_generator, cone_points)),
        )

    variant, winding = params.variant, params.winding
    if params.family == ONE_ARC:
        return _one_arc_spec(variant, winding, piece)
    if params.family == TWO_ARCS:
        return _two_arcs_spec(variant, winding, piece)
    if params.family == ONE_CLOSED:
        return _one_closed_spec(variant, winding, piece)
    return _arc_plus_closed_spec(family.n, variant, winding, params.cycle_length, piece)


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
    n = _family_n(n)
    jobs: list[tuple[PyramidMulticurveParams, str]] = []
    for m in _divisors(n):
        jobs.append((_one_arc_params(n, m), f"{ONE_ARC} m={m}"))
    for k in range(1, n + 1):
        jobs.append((_two_arcs_params(n, k), f"{TWO_ARCS} k={k}"))
    for m in _divisors(n):
        jobs.append((_one_closed_params(n, m), f"{ONE_CLOSED} m={m}"))
    for m in _divisors(n):
        count = n // m
        proven = proven_cycle_lengths(count)
        for d in _divisors(count) if include_unproven else proven:
            tag = "" if d in proven else " (unproven)"
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
    first: dict[CanonicalForm, tuple[StableGraph, PyramidMulticurveParams, str]] = {}
    counts: Counter[CanonicalForm] = Counter()
    for params, label in enumerate_parameters(n, include_unproven):
        mc = make_multicurve(family, params)
        graph = build_stratum_graph(family.action, mc).underlying
        form = canonical_form(graph, budget)
        first.setdefault(form, (graph, params, label))
        counts[form] += 1
    return tuple(StratumGraphClass(f, *first[f], counts[f]) for f in sorted(first))


def _expected_one_arc(n: int, m: int) -> StableGraph:
    loops = n // m
    return StableGraph([(1, n - loops)], [(1, 1)] * loops)


def _expected_two_arcs(n: int, k: int) -> StableGraph:
    edges = gcd(n, k) + gcd(n, k + 1)
    if (n + 1 - edges) % 2 != 0:
        raise ValueError(f"parallel edge count {_shown(edges)} gives a fractional weight")
    weight = (n + 1 - edges) // 2
    return StableGraph([(1, weight), (2, weight)], [(1, 2)] * edges)


def _expected_one_closed(n: int, m: int) -> StableGraph:
    leaves = n // m
    vertices = [(0, 0)] + [(i, 1) for i in range(1, leaves + 1)]
    edges = [(0, i) for i in range(1, leaves + 1) for _ in range(m)]
    return StableGraph(vertices, edges)


def _expected_arc_plus_closed(n: int, m: int, d: int) -> StableGraph:
    count = n // m
    if d < 1 or count % d:
        raise ValueError(f"cycle length {_shown(d)} does not divide {count}")
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
    n = _family_n(n)
    if family == TWO_ARCS:
        if k is None:
            raise ValueError("two-arcs needs the parameter k")
        return _expected_two_arcs(n, _integer(k, "k"))
    if m is None or (m := _integer(m, "m")) < 1 or n % m:
        shown_m = "None" if m is None else _shown(m)
        raise ValueError(f"m must divide n, got m={shown_m}, n={n}")
    if family == ONE_ARC:
        return _expected_one_arc(n, m)
    if family == ONE_CLOSED:
        return _expected_one_closed(n, m)
    if d is None:
        raise ValueError("arc-plus-closed needs the cycle length d")
    return _expected_arc_plus_closed(n, m, _integer(d, "d"))
