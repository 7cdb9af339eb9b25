"""Exact limit stable graphs of finite group actions pinched along
multicurves, with brute-force verification and a dihedral pyramid
classifier.

The deliberately absent pieces: this package does not decide when two
multicurves are equivalent under a covering action (that would need mapping
class group machinery), and it does not prove connectedness or surjectivity
statements about boundary strata; it computes the combinatorial type of the
limit, verifies it along independent routes, and nothing more.

The package re-exports every name in each layer's ``__all__``, and that
list is the one place a layer states its public names.
"""

from . import files, groups, limit_graphs, multicurves, oracle, orbifolds, pyramids, stable_graphs
from .groups import *
from .orbifolds import *
from .multicurves import *
from .stable_graphs import *
from .limit_graphs import *
from .oracle import *
from .pyramids import *
from .files import *

__version__ = "0.1.0"

__all__ = []
__all__ += groups.__all__
__all__ += orbifolds.__all__
__all__ += multicurves.__all__
__all__ += stable_graphs.__all__
__all__ += limit_graphs.__all__
__all__ += oracle.__all__
__all__ += pyramids.__all__
__all__ += files.__all__
