"""Relative decompositions for mapping spaces under a fixed map f: X -> Y.

The evaluation fibration of the m-circle bouquet mapping cylinder of f
produces, in each degree n >= 1, a short exact sequence of Gottlieb-type
groups that splits; for n >= 2 the middle term is the direct sum of the
factors, while for n = 1 only the factors themselves are asserted (the
extension need not be abelian).  Supported shapes:

* one iteration, any bouquet width m:  G_n(X) + m copies of the relative
  group in degree n + 1;
* two iterations, width 1:  G_n(X) + 2 G_{n+1}(X) + the relative group in
  degree n + 2.

Deeper iterations, and double iterations of width > 1, are refused: their
closed forms mix relative and absolute terms in a way this calculator
does not model.  When f is the identity the relative groups coincide with
the absolute ones, so RelTerms collapse to Gottlieb terms of X and the
result matches the free bouquet decomposition.
"""

from dataclasses import dataclass
from enum import Enum

from .formal import FormalSum, GottliebTerm, RelTerm
from .profiles import MapProfile

__all__ = ["RelativeResult", "Structure", "relative_decompose"]


class Structure(str, Enum):
    """Whether the factors are asserted to assemble into a direct sum."""

    DIRECT_SUM = "direct-sum"
    SPLIT_EXTENSION = "split-extension"


@dataclass(frozen=True)
class RelativeResult:
    degree: int
    summands: FormalSum
    structure: Structure

    def __str__(self) -> str:
        return f"{self.summands} [{self.structure.value}]"


def relative_decompose(
    map_profile: MapProfile, degree: int, circles: int = 1, iterations: int = 1
) -> RelativeResult:
    """Factors of the degree-``degree`` group of the iterated bouquet space of f.

    ``circles`` is the bouquet width m, ``iterations`` the number N of
    iterated applications; only N = 1 (any m) and N = 2 with m = 1 are
    supported.  In degree 1 the factors are reported with a
    split-extension marker and their sum is not asserted.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if circles < 1:
        raise ValueError(f"bouquet width must be >= 1, got {circles}")
    if iterations not in (1, 2):
        raise ValueError(
            f"unsupported iteration count {iterations}: only one or two iterations "
            "have a modeled relative decomposition"
        )
    if iterations == 2 and circles != 1:
        raise ValueError(
            "two iterations are only modeled for bouquet width 1; wider bouquets "
            "mix relative and absolute terms beyond this decomposition"
        )
    source = map_profile.source
    if iterations == 1:
        if not isinstance(circles, int):  # it is a multiplicity below
            raise ValueError(f"bouquet width must be an integer, got {circles!r}")
        pairs = [
            (GottliebTerm(source, degree), 1),
            (RelTerm(map_profile.name, degree + 1), circles),
        ]
    else:
        pairs = [
            (GottliebTerm(source, degree), 1),
            (GottliebTerm(source, degree + 1), 2),
            (RelTerm(map_profile.name, degree + 2), 1),
        ]
    if map_profile.is_identity:
        # Relative groups of the identity are the absolute ones.
        pairs = [
            (GottliebTerm(source, term.degree), mult) if isinstance(term, RelTerm) else (term, mult)
            for term, mult in pairs
        ]
    structure = Structure.DIRECT_SUM if degree >= 2 else Structure.SPLIT_EXTENSION
    # The terms are distinct and already in canonical order: Gottlieb terms
    # by degree, then the relative one; the identity rewrite keeps that.
    return RelativeResult(degree, FormalSum._trusted(pairs, ordered=True), structure)
