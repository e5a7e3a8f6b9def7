"""Symbolic calculator for Gottlieb groups of based mapping spaces.

The package rewrites mapping-space expressions (free loop spaces, bouquet
mapping spaces, products, wedges, suspensions) into formal direct sums of
Gottlieb, homotopy, and relative terms, evaluates those sums against
user-supplied group tables, computes rational ranks, propagates G-space
and T-space flags, and cross-checks itself with independent oracles.
No group values are built in; users assert them in profile documents.
"""

from .abelian import TRIVIAL, AbelianGroup, canonicalize, direct_sum, parse_group
from .decompose import DecomposeError, closed_form_bouquet, decompose
from .formal import (
    FormalSum,
    GenGottliebTerm,
    GottliebTerm,
    PiTerm,
    RelTerm,
    term_text,
)
from .fox import fox_gottlieb, iterated_loop_homotopy
from .oracle import (
    CrosscheckReport,
    crosscheck,
    random_splittable_expr,
    randomized_decompose,
    recursive_bouquet_coefficients,
    tuple_enumeration_shifts,
    uncurry,
)
from .profiles import (
    Flags,
    GradedGroup,
    Incomplete,
    MapProfile,
    ProfileDb,
    ProfileError,
    SpaceProfile,
    evaluate,
    gottlieb_table_of_map_space,
    load,
    save,
)
from .ranks import (
    HypothesisError,
    LoopCheckVerdict,
    PropagatedFlags,
    TopDegreeReport,
    free_loop_necessary_condition,
    gamma_of_map_space,
    hypotheses_met,
    propagate_flags,
    top_degree_report,
)
from .relative import RelativeResult, Structure, relative_decompose
from .spaces import (
    Atom,
    Bouquet,
    BouquetSpace,
    Loop,
    MapSpace,
    Point,
    Product,
    SpaceExpr,
    SpaceParseError,
    Sphere,
    Susp,
    Torus,
    Wedge,
    desugar,
    format_space,
    parse_space,
)
from .splitting import (
    NotSplittableError,
    ShiftPolynomial,
    SphereSplitting,
    shift_polynomial,
    sphere_splitting,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "Atom",
    "Bouquet",
    "BouquetSpace",
    "CrosscheckReport",
    "DecomposeError",
    "Flags",
    "FormalSum",
    "GenGottliebTerm",
    "GottliebTerm",
    "GradedGroup",
    "HypothesisError",
    "Incomplete",
    "Loop",
    "LoopCheckVerdict",
    "MapProfile",
    "MapSpace",
    "NotSplittableError",
    "PiTerm",
    "Point",
    "Product",
    "ProfileDb",
    "ProfileError",
    "PropagatedFlags",
    "RelTerm",
    "RelativeResult",
    "ShiftPolynomial",
    "SpaceExpr",
    "SpaceParseError",
    "SpaceProfile",
    "Sphere",
    "SphereSplitting",
    "Structure",
    "Susp",
    "TRIVIAL",
    "TopDegreeReport",
    "Torus",
    "Wedge",
    "canonicalize",
    "closed_form_bouquet",
    "crosscheck",
    "decompose",
    "desugar",
    "direct_sum",
    "evaluate",
    "format_space",
    "fox_gottlieb",
    "free_loop_necessary_condition",
    "gamma_of_map_space",
    "gottlieb_table_of_map_space",
    "hypotheses_met",
    "iterated_loop_homotopy",
    "load",
    "parse_group",
    "parse_space",
    "propagate_flags",
    "random_splittable_expr",
    "randomized_decompose",
    "recursive_bouquet_coefficients",
    "relative_decompose",
    "save",
    "shift_polynomial",
    "sphere_splitting",
    "term_text",
    "top_degree_report",
    "tuple_enumeration_shifts",
    "uncurry",
]
