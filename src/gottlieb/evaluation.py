"""Evaluation of formal sums against the tables of a profile database.

``evaluate`` resolves each term of a formal sum in its table and sums
what resolved in one merge; ``gottlieb_table_of_map_space`` derives the
Gottlieb table of map(X, Y) from the shift polynomial of X and the table
of Y.  Both are names of ``profiles`` too, which compiles this module on
their first access: loading a document needs none of it, nor the term
classes of ``formal`` or the ``splitting`` it imports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .abelian import _weighted_sum
from .formal import GenGottliebTerm, GottliebTerm, PiTerm, RelTerm, term_text
from .profiles import GradedGroup, Incomplete
from .spaces import _nat
from .splitting import shift_polynomial

if TYPE_CHECKING:
    from typing import Iterable

    from .abelian import AbelianGroup
    from .formal import FormalSum
    from .profiles import ProfileDb
    from .spaces import SpaceExpr
    from .splitting import ShiftPolynomial

__all__ = ["evaluate", "gottlieb_table_of_map_space"]


def evaluate(formal_sum: FormalSum, db: ProfileDb) -> AbelianGroup | Incomplete:
    """Resolve every term of ``formal_sum`` against the tables in ``db``.

    Returns the direct sum when everything resolves.  Unknown table values
    and symbolic residuals produce an ``Incomplete`` carrying the partial
    sum; referencing a space or map with no profile at all is an error.
    The resolved terms are summed in one merge, O(terms x summands per
    term) plus one sort of the answer's distinct summands.
    """
    resolved: list[tuple[AbelianGroup, int]] = []
    missing: list[str] = []
    residuals: list[str] = []
    for term, multiplicity in formal_sum:
        if isinstance(term, GottliebTerm):
            value = db.space(term.space).gottlieb.lookup(term.degree)
        elif isinstance(term, PiTerm):
            table = db.space(term.space).homotopy
            value = None if table is None else table.lookup(term.degree)
        elif isinstance(term, RelTerm):
            value = db.map(term.map_name).relative_gottlieb.lookup(term.degree)
        elif isinstance(term, GenGottliebTerm):
            residuals.append(term_text(term))
            continue
        else:  # pragma: no cover - FormalSum already rejects foreign terms
            raise TypeError(f"cannot evaluate term {term!r}")
        if value is None:
            missing.append(term_text(term))
        else:
            resolved.append((value, multiplicity))
    total = _weighted_sum(resolved)
    if missing or residuals:
        return Incomplete(tuple(missing), tuple(residuals), total)
    return total


def gottlieb_table_of_map_space(
    source: SpaceExpr, target: str, degrees: Iterable[int], db: ProfileDb
) -> GradedGroup | Incomplete:
    """Derived Gottlieb table of map(source, target) on the given degrees.

    The source must split into spheres (its shift polynomial drives the
    degree shifts); the entry at degree d is the direct sum of c_i copies
    of G_{d+i}(target), formed in one merge per degree.  The triviality
    bound of the target is inherited, since shifting only raises degrees.
    Unknown target degrees make the result Incomplete.
    """
    table = db.space(target).gottlieb
    return _fold_table(table, shift_polynomial(source, db.atom_shifts()), degrees, target)


def _fold_table(
    table: GradedGroup, poly: ShiftPolynomial, degrees: Iterable[int], target: str
) -> GradedGroup | Incomplete:
    """The table whose entry at degree d sums c_i copies of ``table`` at d + i.

    ``poly`` is the source's shift polynomial and ``target`` names the
    table's space in the ``Incomplete`` report.  The entries are sums of
    valid groups and the bound is ``table``'s own, so the result is built
    unchecked.
    """
    bound = table.zero_above
    entries: dict[int, AbelianGroup] = {}
    missing: list[str] = []
    for degree in sorted(set(degrees)):
        _nat(degree, "degree")
        if bound is not None and degree > bound:
            continue  # implied trivial by the inherited bound
        parts = []
        for shift, count in poly.coeffs:
            value = table.lookup(degree + shift)
            if value is None:
                missing.append(f"G[{degree + shift}]({target})")
            else:
                parts.append((value, count))
        if len(parts) == len(poly.coeffs):
            entries[degree] = _weighted_sum(parts)
    if missing:
        return Incomplete(tuple(dict.fromkeys(missing)), ())
    return GradedGroup._trusted(entries, bound)
