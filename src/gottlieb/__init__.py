"""Symbolic calculator for Gottlieb groups of free mapping spaces.

The package rewrites mapping-space expressions (free loop spaces, bouquet
mapping spaces, products, wedges, suspensions) into formal direct sums of
Gottlieb, homotopy, and relative terms, evaluates those sums against
user-supplied group tables, computes rational ranks, propagates G-space
and T-space flags, and cross-checks itself with independent oracles.
No group values are built in; users assert them in profile documents.

``import gottlieb`` loads no submodule.  Every public name is imported
from its submodule on first access (PEP 562) and then kept in the package
namespace, so a process compiles only the layers it uses: ``load`` of a
document of atoms, shifts and flags compiles ``profiles``, ``records``
and ``names``, and the group layer (``abelian``, ``numtheory``) follows
with the first table that holds a group (see ``profiles``).  With
CPython 3.11.7 on a 2-CPU x86-64 host, without a bytecode cache, a fresh
``import gottlieb`` plus ``load`` of rewrite-ladder's set-up document
(gbench's ``setup_s``, medians of 10 paired runs in ``BENCH_42.json``)
fell from 53.5 to 46.9 ms; a first 10-pair run read 49.7 to 43.3 ms.

``decompose`` is both a submodule and the function it defines, and the
import system binds a submodule on its package when it first loads it.
Without a guard, any first import of ``gottlieb.decompose`` (``import
gottlieb.cli`` does one) would leave ``gottlieb.decompose`` naming the
module.  The package's module class therefore keeps the function bound.
"""

import importlib
import sys
import types


class _Package(types.ModuleType):
    """The package module, keeping the ``decompose`` function bound.

    Importing a submodule sets it as an attribute of its package, and
    ``gottlieb.decompose`` names both a submodule and its function.
    """

    def __setattr__(self, name: str, value) -> None:
        if name == "decompose" and isinstance(value, types.ModuleType):
            value = value.decompose
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

_SUBMODULE_NAMES = {
    "abelian": ("TRIVIAL", "AbelianGroup", "canonicalize", "direct_sum", "parse_group"),
    "decompose": ("DecomposeError", "closed_form_bouquet", "decompose"),
    "formal": ("FormalSum", "GenGottliebTerm", "GottliebTerm", "PiTerm", "RelTerm", "term_text"),
    "fox": ("fox_gottlieb", "iterated_loop_homotopy"),
    "oracle": (
        "CrosscheckReport",
        "crosscheck",
        "random_splittable_expr",
        "randomized_decompose",
        "recursive_bouquet_coefficients",
        "tuple_enumeration_shifts",
        "uncurry",
    ),
    "profiles": (
        "Flags",
        "GradedGroup",
        "Incomplete",
        "MapProfile",
        "ProfileDb",
        "SpaceProfile",
        "evaluate",
        "gottlieb_table_of_map_space",
        "load",
        "save",
    ),
    "ranks": (
        "HypothesisError",
        "LoopCheckVerdict",
        "PropagatedFlags",
        "TopDegreeReport",
        "free_loop_necessary_condition",
        "gamma_of_map_space",
        "hypotheses_met",
        "propagate_flags",
        "top_degree_report",
    ),
    "records": ("ProfileError",),
    "relative": ("RelativeResult", "Structure", "relative_decompose"),
    "spaces": (
        "Atom",
        "Bouquet",
        "BouquetSpace",
        "Loop",
        "MapSpace",
        "Point",
        "Product",
        "SpaceExpr",
        "SpaceParseError",
        "Sphere",
        "Susp",
        "Torus",
        "Wedge",
        "desugar",
        "format_space",
        "parse_space",
    ),
    "splitting": (
        "NotSplittableError",
        "ShiftPolynomial",
        "SphereSplitting",
        "shift_polynomial",
        "sphere_splitting",
    ),
}
# Public name -> the submodule that defines it, for names loaded on first use.
_LAZY = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
