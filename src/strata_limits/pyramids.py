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
every achievable image subgroup.  Each variant is one row of words, and one
rule winds them: a wound loop is a core word conjugated by a twist word.
The winding parameter turns every wound loop of its variant exactly that
many times, save arc-plus-closed's z loop, whose turns its row fixes or its
cycle tuning computes, and the ``general`` variant, which reads the
parameter as its satellite count.  The rows share seven wound arcs, (4,3),
(1,3), (3,4), (3,1), (2,3) twice and (4,1): an arc's first boundary loop is
the cone generator of its first endpoint, and its second is the wound loop.
The arcs of one-arc direct, twisted and top-right have no twist, so they do
not wind.  Each piece takes the ambient orders of its cone points, and its
own cone generators unless it names others; the piece that completes a
multicurve takes the cone points its other parts leave unused, since each
cone point lies in exactly one part.

``expected_graph`` builds the resulting stable graphs directly from their
closed-form descriptions, independently of the construction in
:mod:`strata_limits.limit_graphs`, so the two routes can be checked against
each other.  ``classify`` names each job by the key ``expected_graph``
takes (m, k, or m and d), printed as the job's description, and one parity
rule picks the job's variant and winding: x is k for two-arcs and n // m
otherwise, and ``_job_params`` gives an even x its pair's even variant at
winding x // 2 - shift and an odd x the odd variant at x // 2.
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

@dataclass(frozen=True)
class PyramidFamily:
    n: int
    action: SurfaceKernelAction


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
            raise ValueError(f"unknown family {_shown(self.family)}")
        if self.variant not in VARIANTS[self.family]:
            raise ValueError(
                f"unknown variant {_shown(self.variant)} for family {_shown(self.family)} "
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
        if self.winding and self.family == ONE_ARC and not _ONE_ARCS[self.variant][0].twist:
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
    exactly the variant's winding; an arc with no twist does not wind."""

    endpoints: tuple[int, int]
    core: str
    twist: str = ""


_ARC_43 = _WoundArc((4, 3), "x1 x3 x1^-1", "x1 x4")
_ARC_13 = _WoundArc((1, 3), "x3", "x4 x1")
_ARC_34 = _WoundArc((3, 4), "x4", "x5")
_ARC_31 = _WoundArc((3, 1), "x5 x1 x5^-1", "x5")
_ARC_23 = _WoundArc((2, 3), "x3", "x1 x4")
_ARC_41 = _WoundArc((4, 1), "x1", "x1 x4")
# _ARC_23 turned once more: two-arcs odd's second arc.
_ARC_23_ODD = _WoundArc((2, 3), "x1 x4 x3 x4^-1 x1^-1", "x1 x4")


# Five cone points, as in every pyramid signature: parsing reads only their
# count, so one parse of a literal word serves every n.
_FIVE_CONES = OrbifoldSignature(0, 0, (2,) * 5)


@functools.cache
def _word(text: str) -> Word:
    return Word.parse(text, _FIVE_CONES)


def _unused(*used: int) -> tuple[int, ...]:
    """The cone points of (0; 2,2,2,2,n) outside ``used``: every cone point
    lies in exactly one part of a multicurve."""
    return tuple(c for c in range(1, 6) if c not in used)


def _wound_arc(curve_id: str, arc: _WoundArc, winding: int) -> CurveSpec:
    # Every arc lies on piece 1 and its first boundary loop is the cone
    # generator of its first endpoint.  Arc sides: the empty side first; the
    # attachment image is the first boundary-loop image (a reflection).
    gamma_a = _word(f"x{arc.endpoints[0]}")
    return CurveSpec(
        id=curve_id,
        kind="arc",
        endpoints=arc.endpoints,
        gamma_a=gamma_a,
        gamma_b=_conjugate(_word(arc.core), _word(arc.twist), winding),
        sides=(CurveSide(1), CurveSide(1, gamma_a)),
    )


# Each one-arc variant's arc and the texts of its piece's generators (none:
# its cone generators).  bottom-left's second boundary loop picks up an odd
# rotation twist 2k+1.
_ONE_ARCS = {
    "direct": (_WoundArc((3, 4), "x4"), ()),
    "twisted": (_WoundArc((3, 4), "x1^-1 x4 x1"), ("x1", "x3^-1 x2 x3", "x4 x5 x4^-1")),
    "top-right": (_WoundArc((3, 4), "x4^-1"), ()),
    "bottom-left": (_ARC_43, ()),
    "bottom-right": (_ARC_13, ()),
}

# Each two-arcs variant's arcs: the two boundary-loop products evaluate to
# consecutive rotation powers r^k, r^(k+1), and the variant selects the
# parity of k.
_TWO_ARCS = {"even": (_ARC_23, _ARC_41), "odd": (_ARC_41, _ARC_23_ODD)}

# Each one-closed variant's hub cone points and the core of the leaf's third
# generator, which x5 twists.
_ONE_CLOSED = {"left": ((1, 5), "x4"), "right": ((4, 5), "x5 x1 x5^-1")}

# The wound arc, and the z loop's cone point and turns about x5, of each
# arc-plus-closed variant whose satellite cycle length is fixed.
_FIXED_CYCLE_PARTS = {
    "top-left": (_ARC_43, 1, 0),
    "top-right": (_ARC_13, 4, 0),
    "middle-left": (_ARC_34, 2, 0),
    "middle-right": (_ARC_31, 2, 0),
    "bottom-left": (_ARC_34, 2, 1),
    "bottom-right": (_ARC_31, 2, 1),
}

VARIANTS = {
    ONE_ARC: tuple(_ONE_ARCS),
    TWO_ARCS: tuple(_TWO_ARCS),
    ONE_CLOSED: tuple(_ONE_CLOSED),
    ARC_PLUS_CLOSED: (*_FIXED_CYCLE_PARTS, "paired", "general"),
}


def _one_arc_spec(variant: str, k: int, piece) -> MulticurveSpec:
    arc, generators = _ONE_ARCS[variant]
    curve = _wound_arc("g", arc, k)
    sole = piece(1, 1, _unused(*arc.endpoints), tuple(map(_word, generators)))
    return MulticurveSpec(pieces=(sole,), curves=(curve,))


def _two_arcs_spec(variant: str, t: int, piece) -> MulticurveSpec:
    first, second = _TWO_ARCS[variant]
    curves = (_wound_arc("g1", first, t), _wound_arc("g2", second, t))
    loop_around_first_arc = curves[0].gamma_a.concat(curves[0].gamma_b)
    sole = piece(1, 2, (5,), (_word("x5"), loop_around_first_arc))
    return MulticurveSpec(pieces=(sole,), curves=curves)


def _one_closed_spec(variant: str, t: int, piece) -> MulticurveSpec:
    hub_cones, core = _ONE_CLOSED[variant]
    third = _conjugate(_word(core), _word("x5"), t)
    leaf = piece(2, 1, _unused(*hub_cones), (_word("x2"), _word("x3"), third))
    gamma = _word("x2 x3").concat(third)
    curve = CurveSpec("g", "closed", (CurveSide(1), CurveSide(2)), gamma=gamma)
    return MulticurveSpec(pieces=(piece(1, 1, hub_cones), leaf), curves=(curve,))


def _cycle_tuning_z(j: int) -> tuple[int, int]:
    """The cone point and the turns about x5 of the z loop making the
    attachment-times-z image the rotation r^-j, for an arc whose attachment
    image is r s."""
    return (1 if j % 2 else 2), (j + 1) // 2


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
        arc, (z_cone, z_turns) = _ARC_34, _cycle_tuning_z(satellite_count // 2)
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
            arc, w, (z_cone, z_turns) = _ARC_34, satellite_count // 2, _cycle_tuning_z(j)
        else:
            # This arc's attachment image is s = r^-1 (r s): z tunes for j - 1.
            arc, w = _ARC_13, (satellite_count - 1) // 2
            z_cone, z_turns = _cycle_tuning_z(j - 1)
    else:
        arc, z_cone, z_turns = _FIXED_CYCLE_PARTS[variant]
    arc_curve = _wound_arc("g1", arc, w)
    z = _conjugate(_word(f"x{z_cone}"), _word("x5"), z_turns)
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
            generators=generators or tuple(_word(f"x{c}") for c in cone_points),
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


# (even variant, odd variant, the even one's winding shift) of each pair.
_PARITY_PAIRS = {
    ONE_ARC: ("bottom-left", "bottom-right", 1),
    TWO_ARCS: ("even", "odd", 0),
    ONE_CLOSED: ("left", "right", 0),
}


def _job_params(family: str, n: int, *, m=None, k=None, d=None) -> PyramidMulticurveParams:
    """The classify job whose graph is ``expected_graph(family, n, m=m,
    k=k, d=d)``, by the parity rule of this module's docstring."""
    x = k if family == TWO_ARCS else n // m
    if family != ARC_PLUS_CLOSED:
        even, odd, shift = _PARITY_PAIRS[family]
    elif d == x:
        even, odd, shift = "top-left", "top-right", 1
    elif d == 1:
        even, odd, shift = "middle-left", "middle-right", 0
    elif d == 2:
        return PyramidMulticurveParams(family, "paired", x // 2)
    else:
        return PyramidMulticurveParams(family, "general", x, cycle_length=d)
    if x % 2:
        return PyramidMulticurveParams(family, odd, x // 2)
    return PyramidMulticurveParams(family, even, x // 2 - shift)


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
    """All parameter tuples classify builds, each labelled by its family and
    the ``name=value`` pairs of the key that :func:`expected_graph` takes."""
    n = _family_n(n)
    jobs: list[tuple[PyramidMulticurveParams, str]] = []

    def job(family: str, tag: str = "", **key: int) -> None:
        words = " ".join(f"{name}={value}" for name, value in key.items())
        jobs.append((_job_params(family, n, **key), f"{family} {words}{tag}"))

    divisors = _divisors(n)
    for m in divisors:
        job(ONE_ARC, m=m)
    for k in range(1, n + 1):
        job(TWO_ARCS, k=k)
    for m in divisors:
        job(ONE_CLOSED, m=m)
    for m in divisors:
        proven = proven_cycle_lengths(n // m)
        for d in _divisors(n // m) if include_unproven else proven:
            job(ARC_PLUS_CLOSED, "" if d in proven else " (unproven)", m=m, d=d)
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
    satellites of degree m+2 arranged in cycles of length d.  Each family
    takes only its own key, m, k, or m and d, and refuses any other.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {_shown(family)}")
    n = _family_n(n)
    takes = {TWO_ARCS: "k", ARC_PLUS_CLOSED: "md"}.get(family, "m")
    for name, value in zip("mkd", (m, k, d)):
        if value is not None and name not in takes:
            raise ValueError(f"{family} does not take the parameter {name}")
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
