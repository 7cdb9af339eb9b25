"""Rules that hold across the whole package: it exports its layers' public
names, every library constructor reads integers the same way, every element
index is checked against its group, every refusal shows a huge integer cut
short, the README's library example runs, and the package imports only the
standard library."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import strata_limits
from strata_limits.groups import GroupTable, Subgroup, closure, dihedral
from strata_limits.multicurves import ARC, CurveSide, CurveSpec, PieceSpec
from strata_limits.oracle import components_by_bfs
from strata_limits.orbifolds import (
    OrbifoldSignature,
    SurfaceKernelAction,
    Word,
    evaluate_word,
    riemann_hurwitz_genus,
    stratum_dimension,
)
from strata_limits.pyramids import (
    PyramidMulticurveParams,
    enumerate_parameters,
    expected_graph,
    pyramid_action,
)
from strata_limits.stable_graphs import StableGraph, canonical_form, is_isomorphic

LAYERS = ["groups", "orbifolds", "multicurves", "stable_graphs",
          "limit_graphs", "oracle", "pyramids", "files"]

# The package's exports before it re-exported its layers' lists, less
# CosetPartition, which a coset tuple from left_cosets replaced.
EXPORTED_BEFORE = """
AuditCheck AuditError AuditReport BudgetExceededError CanonicalForm
CurveSide CurveSpec GroupTable InvalidInputError
LabeledStratumGraph MulticurveSpec NoSuchStratumError OrbifoldSignature
PieceSpec PyramidFamily PyramidMulticurveParams SpecFormatError StableGraph
StratumGraphClass Subgroup SurfaceKernelAction Word
action_from_spec action_to_spec audit_graph build_stratum_graph
canonical_form classify closure components_by_bfs dihedral
euler_characteristic evaluate_word expected_graph group_from_spec
is_hyperbolic is_isomorphic left_cosets load_action load_multicurve
make_multicurve multicurve_from_spec multicurve_to_spec pyramid_action
riemann_hurwitz_genus stratum_dimension validate_action validate_multicurve
""".split()


def test_package_exports_its_layers_public_names():
    layers = [importlib.import_module(f"strata_limits.{name}") for name in LAYERS]
    exported = strata_limits.__all__
    assert exported == [name for layer in layers for name in layer.__all__]
    assert len(set(exported)) == len(exported)
    for layer in layers:
        for name in layer.__all__:
            assert getattr(strata_limits, name) is getattr(layer, name), name
    assert len(EXPORTED_BEFORE) == 48
    assert len(exported) == 51
    assert set(EXPORTED_BEFORE) <= set(exported)


D3 = dihedral(3)
ACTION_5 = pyramid_action(5).action


def _arc(endpoint):
    sides = (CurveSide(1), CurveSide(1))
    return CurveSpec("g", ARC, sides, endpoints=(endpoint, 4), gamma_a=Word(), gamma_b=Word())


# name -> (constructor of one integer slot, an int that the slot accepts)
CONSTRUCTORS = {
    "Subgroup-element": (lambda x: Subgroup(D3, (0, x)), 3),
    "closure-generator": (lambda x: closure(D3, [x]), 2),
    "components_by_bfs-generator": (lambda x: components_by_bfs(D3, [x]), 2),
    "element_order": (D3.element_order, 2),
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
    "GroupTable-entry": (lambda x: GroupTable([[0, 1], [1, x]]), 0),
    "OrbifoldSignature-genus": (lambda x: OrbifoldSignature(x), 0),
    "stratum_dimension-pinched": (
        lambda x: stratum_dimension(OrbifoldSignature(0, 0, (2, 2, 2, 2, 5)), x),
        1,
    ),
    "PyramidMulticurveParams-winding": (
        lambda x: PyramidMulticurveParams("one-arc", "bottom-left", x),
        1,
    ),
    "PyramidMulticurveParams-cycle-length": (
        lambda x: PyramidMulticurveParams("arc-plus-closed", "general", 4, cycle_length=x),
        2,
    ),
    "expected_graph-n": (lambda x: expected_graph("one-arc", x, m=1), 6),
    "expected_graph-m": (lambda x: expected_graph("one-arc", 6, m=x), 2),
    "expected_graph-k": (lambda x: expected_graph("two-arcs", 6, k=x), 1),
    "expected_graph-d": (lambda x: expected_graph("arc-plus-closed", 6, m=1, d=x), 2),
    "pyramid_action-n": (pyramid_action, 5),
    "enumerate_parameters-n": (enumerate_parameters, 3),
    "canonical_form-budget": (lambda x: canonical_form(StableGraph([(1, 1)]), x), 1),
    "is_isomorphic-budget": (
        lambda x: is_isomorphic(
            StableGraph([(1, 1)]), StableGraph([(1, 1), (2, 1)], [(1, 2)]), x
        ),
        1,
    ),
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


# The rows whose integer is an element index of D3, a group of order 6.
D3_INDEX_SLOTS = [
    "Subgroup-element",
    "closure-generator",
    "components_by_bfs-generator",
    "element_order",
]


@pytest.mark.parametrize("name", D3_INDEX_SLOTS)
@pytest.mark.parametrize("value", [-1, 6])
def test_element_indices_refuse_out_of_range(name, value):
    build, _ = CONSTRUCTORS[name]
    with pytest.raises(ValueError, match=re.escape(f" {value} out of range")):
        build(value)


HUGE = 10**5000

# name -> (a refusal given HUGE or a value built from it, its message).
# str() of an integer past 4300 digits raises, so each site must show it
# cut short.
HUGE_REFUSALS = {
    "GroupTable.check_index": (
        lambda: D3.check_index(HUGE),
        "element index <integer of 5001 digits> out of range",
    ),
    "OrbifoldSignature-cone-order": (
        lambda: OrbifoldSignature(0, 0, (2, -HUGE)),
        "cone orders must be at least 2, got -<integer of 5001 digits>",
    ),
    "generator_name": (
        lambda: OrbifoldSignature(0, 0, (2, 3, 7)).generator_name(HUGE),
        "generator index <integer of 5001 digits> out of range",
    ),
    "Word-sign": (
        lambda: Word(((0, HUGE),)),
        "letter sign must be +1 or -1, got <integer of 5001 digits>",
    ),
    "Word-index": (
        lambda: Word(((-HUGE, 1),)),
        "negative generator index -<integer of 5001 digits>",
    ),
    "SurfaceKernelAction-image-count": (
        lambda: SurfaceKernelAction(D3, OrbifoldSignature(HUGE), ()),
        "expected <integer of 5001 digits> generator images, got 0",
    ),
    "evaluate_word": (
        lambda: evaluate_word(ACTION_5, Word(((HUGE, 1),))),
        "word uses generator index <integer of 5001 digits>, presentation has 5",
    ),
    "stratum_dimension": (
        lambda: stratum_dimension(OrbifoldSignature(0, 0, (2, 2, 2, 2, 5)), HUGE),
        "no such stratum: dimension would be -<integer of 5000 digits>",
    ),
    # Over the trivial group, the covering genus is (HUGE - 1) / (2 HUGE).
    "riemann_hurwitz_genus": (
        lambda: riemann_hurwitz_genus(
            SurfaceKernelAction(GroupTable([[0]]), OrbifoldSignature(0, 0, (HUGE,)), (0,))
        ),
        "covering genus <integer of 5000 digits>/<integer of 5001 digits> "
        "is not a non-negative integer",
    ),
    "StableGraph-weight": (
        lambda: StableGraph([(HUGE, -1)]),
        "vertex <integer of 5001 digits> has negative weight",
    ),
    "StableGraph-edge-end": (
        lambda: StableGraph([(1, 1)], [(1, HUGE)]),
        "edge (1, <integer of 5001 digits>) references a missing vertex",
    ),
    "canonical_form-budget": (
        lambda: canonical_form(StableGraph([(1, 1)]), -HUGE),
        "graph has 1 vertices, canonicalization budget is -<integer of 5001 digits>",
    ),
}


@pytest.mark.parametrize("name", HUGE_REFUSALS)
def test_refusals_show_a_huge_integer_cut_short(name):
    refuse, message = HUGE_REFUSALS[name]
    with pytest.raises(ValueError) as info:
        refuse()
    assert str(info.value) == message


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert "[PASS] genus conservation" in capsys.readouterr().out


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
