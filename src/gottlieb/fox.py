"""Homotopy of iterated free loop spaces and Fox torus-Gottlieb groups.

For an iterated free loop space, the degree-i homotopy group (i >= 2)
splits as the binomially weighted sum of the target's homotopy groups:
pi_i of loop(Y, N) is the direct sum over r = 0..N of C(N, r) copies of
pi_{i+r}(Y).  Degree 1 is refused: the fundamental group is only a split
extension (a semidirect product of pi_2 by pi_1 data), and extension data
is not computed here.

The degree-n Fox torus-Gottlieb group of Y is the degree-1 Gottlieb group
of loop(Y, n-1).  Decomposing that loop space gives the direct sum over
j = 0..n-1 of C(n-1, j) copies of G_{1+j}(Y); the indexing is forced by
consistency with iterated looping (the degree-1 instance of the bouquet
closed form), which pins the summands at G_{1+j} rather than any shifted
variant.
"""

from .formal import FormalSum, GottliebTerm, PiTerm
from .spaces import atom_name
from .splitting import ShiftPolynomial

__all__ = ["fox_gottlieb", "iterated_loop_homotopy"]


def _binomial_sum(term, name: str, start: int, iterations: int) -> FormalSum:
    """C(iterations, j) copies of term(name, start + j), off the budgeted (1 + t)^iterations."""
    power = ShiftPolynomial.from_shifts([1]) ** iterations
    return FormalSum.from_pairs((term(name, start + j), c) for j, c in power.coeffs)


def iterated_loop_homotopy(degree: int, iterations: int, target) -> FormalSum:
    """Formal sum for pi_degree of loop(target, iterations), degree >= 2."""
    if degree < 2:
        raise ValueError(
            "degree must be >= 2: the fundamental group of an iterated free "
            "loop space is a split extension and its extension data is not computed"
        )
    if iterations < 1:
        raise ValueError(f"iteration count must be >= 1, got {iterations}")
    return _binomial_sum(PiTerm, atom_name(target), degree, iterations)


def fox_gottlieb(degree: int, target) -> FormalSum:
    """Formal sum for the degree-n Fox torus-Gottlieb group of the target.

    Degree 1 is the plain Gottlieb group G_1; degree n >= 2 decomposes as
    the direct sum of C(n-1, j) copies of G_{1+j}(target) for j = 0..n-1.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    return _binomial_sum(GottliebTerm, atom_name(target), 1, degree - 1)
