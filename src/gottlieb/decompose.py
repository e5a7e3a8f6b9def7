"""Rewrite engine turning mapping-space expressions into formal sums.

``decompose(expr, n)`` computes a symbolic direct-sum decomposition of the
degree-n Gottlieb group of ``expr``.  Rules, applied deterministically:

* an atom Y is already a leaf and yields ``G[n](Y)``;
* a point yields the empty sum (all of its Gottlieb groups are trivial);
* ``map(prod(X1, ..., Xk), Y)`` curries into ``map(X1, map(prod(X2, ...), Y))``,
  peeling factors left to right (exponential law);
* ``map(X, Y)`` with X non-product contributes ``decompose(Y, n)`` plus one
  ``decompose(Y, n + i)`` per shift i in the sphere splitting of X; when X
  does not split, the leftover is a single symbolic generalized term
  ``Gen[Σ^n X -> Y]`` whose target is decomposed no further.  A suspension
  source folds its suspension count into the residual's exponent, so
  ``map(susp(B), Y)`` leaves ``Gen[Σ^{n+1} B -> Y]``.

The engine makes one pass down the curried chain of mapping spaces,
carrying the product of the shift polynomials split so far: the live
degrees are n + i with multiplicity c_i.  A splitting level multiplies
that polynomial by its own; a residual level emits one ``Gen`` term per
live degree and passes the polynomial on unchanged; the core atom emits
``G[n + i](Y)`` with multiplicity c_i.  The pass needs no recursion, so
the depth of an iterated loop space is not bounded by the interpreter's
recursion limit.
"""

from math import comb

from .formal import FormalSum, GenGottliebTerm, GottliebTerm, Term
from .spaces import (
    Atom,
    MapSpace,
    Point,
    Product,
    SpaceExpr,
    Susp,
    atom_name,
    desugar,
    format_space,
)
from .splitting import ShiftPolynomial, sphere_splitting

__all__ = ["DecomposeError", "closed_form_bouquet", "decompose"]


class DecomposeError(ValueError):
    """The expression has no decomposition rule (e.g. a bare sphere target)."""


def decompose(expr: SpaceExpr, degree: int, atom_shifts=None) -> FormalSum:
    """Canonical formal sum for the degree-``degree`` Gottlieb group of ``expr``.

    ``atom_shifts`` maps atom names to declared suspension shift multisets
    and is consulted when mapping-space sources must be split.
    """
    if isinstance(degree, bool) or not isinstance(degree, int):
        raise TypeError(f"degree must be an integer, got {degree!r}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    counts: dict[Term, int] = {}
    acc = ShiftPolynomial.one()
    e = desugar(expr)
    while isinstance(e, MapSpace):
        source, target = e.source, e.target
        if isinstance(source, Product):
            factors = source.children
            if len(factors) > 1:
                rest = factors[1] if len(factors) == 2 else Product(factors[1:])
                target = MapSpace(rest, target)
            e = MapSpace(factors[0], target)
            continue
        splitting = sphere_splitting(source, atom_shifts)
        if splitting.splittable:
            acc = acc * splitting.poly
        else:
            # Residual: the target is kept verbatim inside the symbolic term,
            # and the walk goes on into it with the polynomial unchanged.
            residual_source, suspensions = source, 0
            if isinstance(source, Susp):
                residual_source, suspensions = source.child, source.count
            for shift, count in acc.coeffs:
                term = GenGottliebTerm(residual_source, degree + shift + suspensions, target)
                counts[term] = count
        e = target
    if isinstance(e, Atom):
        for shift, count in acc.coeffs:
            counts[GottliebTerm(e.name, degree + shift)] = count
    elif not isinstance(e, Point):
        raise DecomposeError(
            f"no decomposition rule for target {format_space(e)!r}; "
            "targets must be atoms, points, or mapping spaces"
        )
    return FormalSum.from_pairs(counts.items())


def closed_form_bouquet(circles: int, iterations: int, degree: int, target) -> FormalSum:
    """Closed form for the iterated bouquet mapping space on an atom target.

    The degree-n group of bloop(Y, m, N) is the direct sum over j = 0..N of
    m^j * C(N, j) copies of G_{n+j}(Y); m = 1 is the iterated free loop
    space.  ``target`` may be an atom name or an Atom node.
    """
    if circles < 1:
        raise ValueError(f"circle count must be >= 1, got {circles}")
    if iterations < 1:
        raise ValueError(f"iteration count must be >= 1, got {iterations}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    name = atom_name(target)
    pairs = [
        (GottliebTerm(name, degree + j), (circles**j) * comb(iterations, j))
        for j in range(iterations + 1)
    ]
    return FormalSum.from_pairs(pairs)
