"""Rules that hold across the whole package: every library constructor
reads integers the same way, and the package imports only the standard
library."""

import ast
import re
import sys
from pathlib import Path

import pytest

import strata_limits
from strata_limits.groups import GroupElement, Subgroup, closure, dihedral, left_cosets
from strata_limits.multicurves import ARC, CurveSide, CurveSpec, PieceSpec
from strata_limits.orbifolds import OrbifoldSignature, SurfaceKernelAction, Word
from strata_limits.pyramids import pyramid_action
from strata_limits.stable_graphs import StableGraph

D3 = dihedral(3)
ACTION_5 = pyramid_action(5).action


def _arc(endpoint):
    sides = (CurveSide(1), CurveSide(1))
    return CurveSpec("g", ARC, sides, endpoints=(endpoint, 4), gamma_a=Word(), gamma_b=Word())


# name -> (constructor of one integer slot, an int that the slot accepts)
CONSTRUCTORS = {
    "Subgroup-element": (lambda x: Subgroup(D3, (0, x)), 3),
    "representative_of": (lambda x: left_cosets(closure([D3.element(3)])).representative_of(x), 4),
    "GroupElement-index": (lambda x: GroupElement(D3, x), 2),
    "Word-generator": (lambda x: Word(((x, 1),)), 0),
    "Word-sign": (lambda x: Word(((0, x),)), -1),
    "SurfaceKernelAction-image": (
        lambda x: SurfaceKernelAction(
            ACTION_5.group, ACTION_5.signature, (x,) + ACTION_5.images[1:]
        ),
        ACTION_5.images[0],
    ),
    "PieceSpec-id": (lambda x: PieceSpec(x, OrbifoldSignature(0, 1, (2, 5))), 1),
    "PieceSpec-cone-point": (
        lambda x: PieceSpec(1, OrbifoldSignature(0, 1, (2, 5)), cone_points=(x, 5)),
        1,
    ),
    "CurveSide-piece": (lambda x: CurveSide(x), 1),
    "CurveSpec-endpoint": (_arc, 3),
    "StableGraph-id": (lambda x: StableGraph([(x, 0)]), 1),
    "StableGraph-weight": (lambda x: StableGraph([(1, x)]), 2),
    "StableGraph-edge-end": (lambda x: StableGraph([(1, 1), (2, 1)], [(1, x)]), 2),
    "dihedral-n": (dihedral, 3),
    "OrbifoldSignature-genus": (lambda x: OrbifoldSignature(x), 0),
}


@pytest.mark.parametrize("name", CONSTRUCTORS)
@pytest.mark.parametrize("value", [2.5, "3", True], ids=["float", "str", "bool"])
def test_constructors_refuse_non_integers(name, value):
    build, _ = CONSTRUCTORS[name]
    with pytest.raises(TypeError, match=re.escape(f"must be an integer, got {value!r}")):
        build(value)


@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_constructors_accept_integers(name):
    build, good = CONSTRUCTORS[name]
    build(good)


def test_package_imports_only_the_standard_library():
    package = Path(strata_limits.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "__future__", (path.name, name)
