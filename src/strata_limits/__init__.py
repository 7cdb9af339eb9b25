"""Exact limit stable graphs of finite group actions pinched along
multicurves, with brute-force verification and a dihedral pyramid
classifier.

The deliberately absent pieces: this package does not decide when two
multicurves are equivalent under a covering action (that would need mapping
class group machinery), and it does not prove connectedness or surjectivity
statements about boundary strata; it computes the combinatorial type of the
limit, verifies it along independent routes, and nothing more.
"""

from .groups import (
    CosetPartition,
    GroupTable,
    Subgroup,
    closure,
    dihedral,
    left_cosets,
)
from .orbifolds import (
    NoSuchStratumError,
    OrbifoldSignature,
    SurfaceKernelAction,
    Word,
    euler_characteristic,
    evaluate_word,
    is_hyperbolic,
    riemann_hurwitz_genus,
    stratum_dimension,
    validate_action,
)
from .multicurves import (
    CurveSide,
    CurveSpec,
    MulticurveSpec,
    PieceSpec,
    validate_multicurve,
)
from .stable_graphs import (
    BudgetExceededError,
    CanonicalForm,
    StableGraph,
    canonical_form,
    is_isomorphic,
)
from .limit_graphs import (
    AuditError,
    InvalidInputError,
    LabeledStratumGraph,
    StratumVertex,
    build_stratum_graph,
)
from .oracle import AuditCheck, AuditReport, audit_graph, components_by_bfs
from .pyramids import (
    PyramidFamily,
    PyramidMulticurveParams,
    StratumGraphClass,
    classify,
    expected_graph,
    make_multicurve,
    pyramid_action,
)
from .files import (
    SpecFormatError,
    action_from_spec,
    action_to_spec,
    group_from_spec,
    load_action,
    load_multicurve,
    multicurve_from_spec,
    multicurve_to_spec,
)

__version__ = "0.1.0"

__all__ = [
    "AuditCheck",
    "AuditError",
    "AuditReport",
    "BudgetExceededError",
    "CanonicalForm",
    "CosetPartition",
    "CurveSide",
    "CurveSpec",
    "GroupTable",
    "InvalidInputError",
    "LabeledStratumGraph",
    "MulticurveSpec",
    "NoSuchStratumError",
    "OrbifoldSignature",
    "PieceSpec",
    "PyramidFamily",
    "PyramidMulticurveParams",
    "SpecFormatError",
    "StableGraph",
    "StratumGraphClass",
    "StratumVertex",
    "Subgroup",
    "SurfaceKernelAction",
    "Word",
    "action_from_spec",
    "action_to_spec",
    "audit_graph",
    "build_stratum_graph",
    "canonical_form",
    "classify",
    "closure",
    "components_by_bfs",
    "dihedral",
    "euler_characteristic",
    "evaluate_word",
    "expected_graph",
    "group_from_spec",
    "is_hyperbolic",
    "is_isomorphic",
    "left_cosets",
    "load_action",
    "load_multicurve",
    "make_multicurve",
    "multicurve_from_spec",
    "multicurve_to_spec",
    "pyramid_action",
    "riemann_hurwitz_genus",
    "stratum_dimension",
    "validate_action",
    "validate_multicurve",
]
