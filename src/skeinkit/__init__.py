"""skeinkit: HOMFLYPT polynomials of braid closures and their doubles.

Three independent evaluation routes (memoized skein recursion, Hecke-quotient
Markov trace, Kauffman-bracket Jones oracle) plus satellite constructors for
doubled links and Whitehead doubles, diagram statistics (Seifert circles,
writhe, Morton bound, canonical genus), and a verification harness exposed
through the ``skeinkit`` command-line tool.
"""

from .braid import BraidWord, quasitoric_beta, toric
from .diagram import Crossing, DiagramStats, LinkDiagram, from_braid_closure
from .errors import (
    BudgetExceededError,
    CacheCorruptionError,
    DiagramError,
    SelfCheckError,
    SkeinKitError,
    ZeroPolynomialError,
)
from .hecke import homfly_closed_braid
from .jones import jones_via_bracket, specialize_homfly_to_jones
from .laurent import DELTA, LaurentPoly1, LaurentPoly2, delta_power
from .satellite import (
    PUSHOFF_LINKING_SIGN,
    blackboard_double,
    build_K_A,
    canonical_double,
    canonical_whitehead,
    quasitoric_closure,
    replace_crossing_with_half_twists,
)
from .skein import SkeinEngine

__version__ = "0.1.0"

__all__ = [
    "BraidWord",
    "BudgetExceededError",
    "CacheCorruptionError",
    "Crossing",
    "DELTA",
    "DiagramError",
    "DiagramStats",
    "LaurentPoly1",
    "LaurentPoly2",
    "LinkDiagram",
    "PUSHOFF_LINKING_SIGN",
    "SelfCheckError",
    "SkeinEngine",
    "SkeinKitError",
    "ZeroPolynomialError",
    "blackboard_double",
    "build_K_A",
    "canonical_double",
    "canonical_whitehead",
    "delta_power",
    "from_braid_closure",
    "homfly_closed_braid",
    "jones_via_bracket",
    "quasitoric_beta",
    "quasitoric_closure",
    "replace_crossing_with_half_twists",
    "specialize_homfly_to_jones",
    "toric",
]
