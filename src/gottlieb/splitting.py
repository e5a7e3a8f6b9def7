"""Stable wedge decompositions of suspensions into spheres.

A space X "splits" when its suspension is homotopy equivalent to a wedge
of spheres.  The splitting is recorded as its shift polynomial
1 + sum of c_i t^i: susp(X) is the wedge of c_i spheres of dimension
i + 1 for each i, so a single Gottlieb-group evaluation against X moves
the target degree up by i with multiplicity c_i, plus the unshifted copy
(the constant term).

Rules, computed directly on polynomials:

* a p-sphere gives 1 + t^p;
* a point gives 1;
* a wedge of A_1, ..., A_k gives 1 + sum of (p_i - 1);
* suspending by k multiplies every non-constant term by t^k;
* a product of A and B gives p_A * p_B (the suspended product is the
  suspended factors plus one smash summand per pair of sphere cells,
  whose shifts add);
* an atom gives 1 + sum of t^s over its declared shifts s, if any;
* the N-torus gives (1 + t)^N and the m-circle bouquet 1 + m t, read
  off the sugar nodes without building N factors or m wedge summands.

Mapping spaces and undeclared atoms block the splitting:
``sphere_splitting`` reports the blocking subterm, ``shift_polynomial``
raises ``NotSplittableError`` naming it.

Every product the engine forms, a power included, is one call of
``charged_product`` on (polynomial, count) runs: J. C. P. Miller's
recurrence for several factors (Knuth, TAOCP Vol. 2, 4.7), run only
after the whole product is charged to the size budget.  Two functions
read an expression, and both raise ``NotSplittableError`` at a blocker:
``_degree`` reads its polynomial's degree, forming nothing but an atom's
declared shifts, and ``_form`` forms the polynomial, charging each
product's degree before any of its factors is formed.  So a caller can
charge the levels of a chain before any is formed.  Past ``MAX_DEGREE``
or ``MAX_DIGITS`` a ``DecomposeError`` names the estimate and the
ceiling instead of computing an answer that could not be printed.
"""

from dataclasses import dataclass
from itertools import chain
from math import ceil, gcd, log10
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .spaces import (
    Atom,
    Bouquet,
    BouquetSpace,
    Loop,
    MapSpace,
    Point,
    Product,
    SpaceExpr,
    Sphere,
    Susp,
    Torus,
    Wedge,
    _count_text,
    format_space,
)

__all__ = [
    "MAX_DEGREE",
    "MAX_DIGITS",
    "DecomposeError",
    "NotSplittableError",
    "ShiftPolynomial",
    "SphereSplitting",
    "charge_degree",
    "charged_product",
    "shift_polynomial",
    "sphere_splitting",
]

# Ceilings of the size budget.  An answer's largest coefficient is at most
# the product of the values p(1) of its levels, so MAX_DIGITS keeps every
# admitted multiplicity under the interpreter's 4300-digit printing limit
# (loop(Y, 2000) needs about 602 digits).  The degree bounds the number of
# terms, and with it the time and memory of the dense recurrence.
MAX_DEGREE = 10_000
MAX_DIGITS = 4_000


class DecomposeError(ValueError):
    """No decomposition: no rule applies (e.g. a bare sphere target), or the
    answer would exceed the size budget."""


class NotSplittableError(ValueError):
    """Raised where a sphere splitting is a hard precondition."""

    def __init__(self, blocker: SpaceExpr, reason: str):
        super().__init__(blocker, reason)
        self.blocker = blocker
        self.reason = reason

    def __str__(self) -> str:
        # Formatted when read: the walk catches one per blocked source.
        return f"{format_space(self.blocker)} does not split: {self.reason}"


@dataclass(frozen=True)
class ShiftPolynomial:
    """1 + sum of c_i t^i with c_i the multiplicity of degree shift i.

    Stored as sorted (shift, coefficient) pairs with zero coefficients
    dropped; the constant coefficient is always 1.  Multiplication is
    polynomial multiplication, matching products of spaces.
    """

    coeffs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pairs = tuple(sorted((int(i), int(c)) for i, c in self.coeffs if c != 0))
        if not pairs or pairs[0] != (0, 1):
            raise ValueError("shift polynomial must have constant coefficient 1")
        degrees = [i for i, _ in pairs]
        if len(set(degrees)) != len(degrees):
            raise ValueError("duplicate shift degree in coefficient list")
        if any(i < 0 or c < 0 for i, c in pairs):
            raise ValueError("shifts and coefficients must be non-negative")
        object.__setattr__(self, "coeffs", pairs)

    @classmethod
    def _trusted(cls, pairs: tuple[tuple[int, int], ...]) -> "ShiftPolynomial":
        # Results of arithmetic on valid polynomials are sorted, positive
        # and start at (0, 1) already; only the public constructor checks.
        poly = object.__new__(cls)
        object.__setattr__(poly, "coeffs", pairs)
        return poly

    @classmethod
    def one(cls) -> "ShiftPolynomial":
        return _ONE

    @classmethod
    def from_shifts(cls, shifts: Sequence[int]) -> "ShiftPolynomial":
        counts: dict[int, int] = {0: 1}
        for s in shifts:
            if s < 1:
                raise ValueError(f"shift must be >= 1, got {s}")
            counts[s] = counts.get(s, 0) + 1
        return cls.from_dict(counts)

    @classmethod
    def from_dict(cls, counts: Mapping[int, int]) -> "ShiftPolynomial":
        return cls(tuple(counts.items()))

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    def coefficient(self, shift: int) -> int:
        return dict(self.coeffs).get(shift, 0)

    @property
    def max_shift(self) -> int:
        return self.coeffs[-1][0]

    def total(self) -> int:
        """Value at t = 1, i.e. the number of wedge summands plus one."""
        return sum(map(itemgetter(1), self.coeffs))

    def __mul__(self, other: "ShiftPolynomial") -> "ShiftPolynomial":
        if not isinstance(other, ShiftPolynomial):
            return NotImplemented
        counts: dict[int, int] = {}
        for i, a in self.coeffs:
            for j, b in other.coeffs:
                counts[i + j] = counts.get(i + j, 0) + a * b
        return ShiftPolynomial._trusted(tuple(sorted(counts.items())))

    def __pow__(self, exponent: int) -> "ShiftPolynomial":
        """p^k, the one-run case of ``charged_product``."""
        if isinstance(exponent, bool) or not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        return charged_product(((self, exponent),))

    def __str__(self) -> str:
        parts = []
        for i, c in self.coeffs:
            if i == 0:
                parts.append("1")
            else:
                parts.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
        return " + ".join(parts)


@dataclass(frozen=True)
class SphereSplitting:
    """Either the shift polynomial of the splitting or the blocking subterm."""

    poly: ShiftPolynomial | None
    blocker: SpaceExpr | None = None
    reason: str = ""

    @property
    def splittable(self) -> bool:
        return self.poly is not None

    @property
    def shifts(self) -> tuple[int, ...] | None:
        """The shift multiset as a sorted tuple, expanded from ``poly``."""
        if self.poly is None:
            return None
        return tuple(shift for shift, count in self.poly.coeffs[1:] for _ in range(count))

    def __str__(self) -> str:
        if self.splittable:
            return "{" + ", ".join(str(s) for s in self.shifts) + "}"
        return f"not splittable: {format_space(self.blocker)} ({self.reason})"


def charged_product(runs: Iterable[tuple[ShiftPolynomial, int]]) -> ShiftPolynomial:
    """The product of p^k over ``runs`` of (p, k), charged to the size budget.

    The answer's degree, the sum of k * max_shift(p), may be at most
    ``MAX_DEGREE``, then its digits, the sum of k * log10 p(1), at most
    ``MAX_DIGITS``: totals over all runs, checked before anything is formed.
    Equal p are merged and shifts divided by their gcd.  With q the
    product, P that of the distinct p and R = sum of k p' P / p, P q' = R q
    gives n q_n = sum over d >= 1 of (R_{d-1} - (n - d) P_d) q_{n-d}, an
    exact division costing one step per term of P and R.  Where every k
    is 1, q is P and R is not formed; a single run of a binomial
    1 + c t^s is the recurrence's one step, its binomial row.
    """
    counts: dict[ShiftPolynomial, int] = {}
    degree = 0
    for poly, k in runs:
        if k and len(poly.coeffs) > 1:  # every power of the constant 1 is 1
            counts[poly] = counts.get(poly, 0) + k
            degree += k * poly.max_shift
    charge_degree(degree)
    # The degree check bounds every k, so this float sum is small.
    digits = sum(k * log10(poly.total()) for poly, k in counts.items())
    if digits > MAX_DIGITS:
        raise DecomposeError(
            f"answer too large: multiplicities of up to {ceil(digits)} digits "
            f"exceed the size budget of {MAX_DIGITS} digits"
        )
    if list(counts.values()) in ([], [1]):
        return next(iter(counts), _ONE)
    [(poly, k), *others] = counts.items()
    if not others and len(poly.coeffs) == 2:
        # P = 1 + c t^s: the recurrence has one step, never past n, and
        # n q_n = c (k - n + 1) q_{n-1} is the binomial row.
        shift, c = poly.coeffs[1]
        pairs, q = [(0, 1)], 1
        for n in range(1, k + 1):
            q = q * (c * (k - n + 1)) // n
            pairs.append((shift * n, q))
        return ShiftPolynomial._trusted(tuple(pairs))
    g = gcd(*map(itemgetter(0), chain.from_iterable(poly.coeffs for poly in counts)))
    powers = len(counts) < sum(counts.values())  # some k > 1
    # P and R as dense lists over shift / g: each p makes P into P p and,
    # where R is needed, R into R p + k p' P.
    big_p, big_r = [1], [0]
    for poly, k in sorted(counts.items(), key=lambda run: len(run[0].coeffs)):
        terms = [(shift // g, c) for shift, c in poly.coeffs]
        size = len(big_p) + terms[-1][0]
        next_p, next_r = [0] * size, [0] * size
        for i, (a, b) in enumerate(zip(big_p, big_r)):
            for j, c in terms:
                next_p[i + j] += c * a
                if powers:
                    next_r[i + j - 1] += k * j * c * a  # nothing where j = 0
                    next_r[i + j] += c * b
        big_p, big_r = next_p, next_r
    q = big_p  # the product, if every k is 1
    if powers:
        # Step d of coefficient n is (R_{d-1} + d P_d - n P_d) q_{n-d}.
        steps = [(d, big_r[d - 1] + d * big_p[d], big_p[d]) for d in range(1, len(big_p))
                 if big_r[d - 1] or big_p[d]]
        q = [1] + [0] * (degree // g)
        for n in range(1, len(q)):
            total = 0
            for d, r, p in steps:
                if d > n:
                    break
                total += (r - n * p) * q[n - d]
            q[n] = total // n
    return ShiftPolynomial._trusted(tuple([(g * i, c) for i, c in enumerate(q) if c]))


def charge_degree(degree: int) -> None:
    """Refuse an answer whose degree shift is past ``MAX_DEGREE``."""
    if degree > MAX_DEGREE:
        raise DecomposeError(
            f"answer too large: degree shift {_count_text(degree)} exceeds the size "
            f"budget of {MAX_DEGREE}"
        )


_ONE = ShiftPolynomial._trusted(((0, 1),))
_CIRCLE = ShiftPolynomial._trusted(((0, 1), (1, 1)))


def _degree(expr: SpaceExpr, atom_shifts: Mapping[str, Sequence[int]]) -> int:
    """The degree of ``_form(expr)``, forming no polynomial but a bouquet's
    or a point's; raises ``NotSplittableError`` where ``expr`` is blocked."""
    # Here and in _form, class patterns capture nothing: a positional
    # capture costs about as much again per node as the match itself.
    match expr:
        case Sphere():
            return expr.dim
        case Wedge():
            return max([_degree(child, atom_shifts) for child in expr.children])
        case Product():
            return sum([_degree(child, atom_shifts) for child in expr.children])
        case Torus():
            return expr.factors
        case Susp():
            return (inner := _degree(expr.child, atom_shifts)) and inner + expr.count
        case Atom():
            return max(_declared_shifts(expr, atom_shifts), default=0)
    return _form(expr, atom_shifts).max_shift  # a bouquet, a point or a blocker


def _form(expr: SpaceExpr, atom_shifts: Mapping[str, Sequence[int]]) -> ShiftPolynomial:
    """The shift polynomial of ``expr``; a product charges its degree to the
    size budget before any factor is formed."""
    match expr:
        case Sphere():
            return ShiftPolynomial._trusted(((0, 1), (expr.dim, 1)))
        case Wedge():
            counts = {0: 1}
            for child in expr.children:
                for shift, c in _form(child, atom_shifts).coeffs[1:]:
                    counts[shift] = counts.get(shift, 0) + c
            return ShiftPolynomial._trusted(tuple(sorted(counts.items())))
        case Product():
            charge_degree(_degree(expr, atom_shifts))
            # A torus factor is a run of circles: as one dense factor it
            # would make the recurrence's P dense.
            return charged_product([
                (_CIRCLE, child.factors) if isinstance(child, Torus)
                else (_form(child, atom_shifts), 1)
                for child in expr.children
            ])
        case Susp():
            shifted = [(i + expr.count, c) for i, c in _form(expr.child, atom_shifts).coeffs[1:]]
            return ShiftPolynomial._trusted(((0, 1), *shifted))
        case Torus():
            return charged_product(((_CIRCLE, expr.factors),))
        case Bouquet():
            return ShiftPolynomial._trusted(((0, 1), (1, expr.circles)))
        case Point():
            return _ONE
        case Atom():
            counts = {}
            for s in _declared_shifts(expr, atom_shifts):
                counts[s] = counts.get(s, 0) + 1
            return ShiftPolynomial._trusted(((0, 1), *sorted(counts.items())))
        case MapSpace() | Loop() | BouquetSpace():
            raise NotSplittableError(expr, "mapping spaces do not split into spheres")
    raise TypeError(f"not a space expression: {expr!r}")


def _declared_shifts(atom, atom_shifts: Mapping[str, Sequence[int]]) -> list[int]:
    """The atom's declared shifts as integers, each checked to be >= 1."""
    declared = atom_shifts.get(atom.name)
    if declared is None:
        raise NotSplittableError(atom, "atom has no declared suspension shifts")
    shifts = list(map(int, declared))
    if shifts and min(shifts) < 1:
        raise ValueError(f"declared shifts for {atom.name!r} must all be >= 1")
    return shifts


def sphere_splitting(
    expr: SpaceExpr, atom_shifts: Mapping[str, Sequence[int]] | None = None
) -> SphereSplitting:
    """Shift polynomial of the sphere splitting of susp(expr), if one exists.

    ``atom_shifts`` maps atom names to their declared shift multisets.
    Sugar nodes are read directly, so the polynomial is invariant under
    ``desugar``; a blocker is reported as written.
    """
    try:
        poly = _form(expr, atom_shifts or {})
    except NotSplittableError as blocked:
        return SphereSplitting(None, blocked.blocker, blocked.reason)
    return SphereSplitting(poly)


def shift_polynomial(
    expr: SpaceExpr, atom_shifts: Mapping[str, Sequence[int]] | None = None
) -> ShiftPolynomial:
    """Shift polynomial of a splittable expression; raises ``NotSplittableError``
    if it is blocked.

    Multiplicative over products: the polynomial of prod(A, B) is the
    product of the polynomials of A and B.
    """
    return _form(expr, atom_shifts or {})
