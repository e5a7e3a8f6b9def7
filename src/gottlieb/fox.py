"""Fox torus-Gottlieb groups and homotopy of iterated free loop spaces.

Both run the engine's walk over loop(E, N), for any chain E that
``decompose`` takes; a string target is an atom name.  The degree-n Fox
group of E is G_1 of loop(E, n-1) = map(T^{n-1}, E; 0), and G_1(E) at n = 1.

pi_i of loop(E, N) is the same walk with pi in place of G.  For i >= 2, a
finite X with Sigma X a wedge of spheres (shift polynomial 1 + sum c_s t^s)
and any T, the constant maps are a section of the evaluation fibration of
map(X, T; 0), so pi_i(map(X, T; 0)) = pi_i(T) + sum_s c_s pi_{i+s}(T).
Every source must split, or ``NotSplittableError`` names the outermost
blocked level once the walk has ended, and degree 1 is refused: pi_1 is
only a split extension, not computed here.
"""

from .decompose import _walk_chain, decompose
from .formal import FormalSum, PiTerm
from .spaces import Atom, Loop, _nat
from .splitting import shift_polynomial

__all__ = ["fox_gottlieb", "iterated_loop_homotopy"]


def iterated_loop_homotopy(degree: int, iterations: int, target, atom_shifts=None) -> FormalSum:
    """Formal sum for pi_degree of loop(target, iterations), degree >= 2."""
    if isinstance(degree, int) and degree < 2:
        raise ValueError(
            "degree must be >= 2: the fundamental group of an iterated free "
            "loop space is a split extension and its extension data is not computed"
        )
    _nat(degree, "homotopy degree")
    _nat(iterations, "iteration count")
    target = Atom(target) if isinstance(target, str) else target
    walk = _walk_chain(Loop(target, iterations), atom_shifts)
    if walk.families:
        # Families come outermost first, and each source is blocked, so this raises.
        shift_polynomial(walk.families[0][0], atom_shifts)
    return walk.at(degree, PiTerm)


def fox_gottlieb(degree: int, target, atom_shifts=None) -> FormalSum:
    """Formal sum for the degree-n Fox torus-Gottlieb group of the target."""
    _nat(degree, "degree")
    target = Atom(target) if isinstance(target, str) else target
    return decompose(Loop(target, degree - 1) if degree > 1 else target, 1, atom_shifts)
