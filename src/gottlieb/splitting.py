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

Mapping spaces and undeclared atoms block the splitting, and the blocking
subterm is reported rather than raised.

Powers use J. C. P. Miller's recurrence (Knuth, TAOCP Vol. 2, 4.7), not
repeated products, and every power is charged to a ``SizeBudget`` before
it is formed: past ``MAX_DEGREE`` or ``MAX_DIGITS`` a ``DecomposeError``
names the estimate and the ceiling instead of computing an answer that
could not be printed.
"""

from dataclasses import dataclass
from math import ceil, gcd, log10
from typing import Mapping, Sequence

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
    format_space,
)

__all__ = [
    "MAX_DEGREE",
    "MAX_DIGITS",
    "DecomposeError",
    "NotSplittableError",
    "ShiftPolynomial",
    "SizeBudget",
    "SphereSplitting",
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


class SizeBudget:
    """Running size estimate of an answer, charged before any power is formed.

    A run of k copies of a level with polynomial p adds k * max_shift(p)
    to the answer's degree and k * log10 p(1) to the digits of its largest
    coefficient.  Both sums are exact for the product of the runs.
    """

    __slots__ = ("degree", "digits")

    def __init__(self) -> None:
        self.degree = 0
        self.digits = 0.0

    def charge(self, poly: "ShiftPolynomial", run: int) -> None:
        if len(poly.coeffs) == 1:
            return  # the constant 1: every power of it is 1
        # max_shift >= 1 here, so the degree check bounds run before the
        # float product below is formed.
        degree = self.degree + run * poly.max_shift
        if degree > MAX_DEGREE:
            raise DecomposeError(
                f"answer too large: degree shift {degree} exceeds the size "
                f"budget of {MAX_DEGREE}"
            )
        digits = self.digits + run * log10(poly.total())
        if digits > MAX_DIGITS:
            raise DecomposeError(
                f"answer too large: multiplicities of up to {ceil(digits)} digits "
                f"exceed the size budget of {MAX_DIGITS} digits"
            )
        self.degree, self.digits = degree, digits


class NotSplittableError(ValueError):
    """Raised where a sphere splitting is a hard precondition."""

    def __init__(self, blocker: SpaceExpr, reason: str):
        self.blocker = blocker
        self.reason = reason
        super().__init__(f"{format_space(blocker)} does not split: {reason}")


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
        return cls._trusted(((0, 1),))

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
        return sum(c for _, c in self.coeffs)

    def __mul__(self, other: "ShiftPolynomial") -> "ShiftPolynomial":
        if not isinstance(other, ShiftPolynomial):
            return NotImplemented
        if len(other.coeffs) == 1:
            return self
        if len(self.coeffs) == 1:
            return other
        counts: dict[int, int] = {}
        for i, a in self.coeffs:
            for j, b in other.coeffs:
                counts[i + j] = counts.get(i + j, 0) + a * b
        return ShiftPolynomial._trusted(tuple(sorted(counts.items())))

    def __pow__(self, exponent: int) -> "ShiftPolynomial":
        """p^k by J. C. P. Miller's recurrence, charged to a fresh budget.

        With q = p^k and p_0 = q_0 = 1, n q_n = sum over j of
        ((k + 1) j - n) p_j q_{n-j}, and the division is exact.  Shifts are
        first divided by their gcd g, so a sparse p such as 1 + t^g costs
        one step per term of the answer.
        """
        if isinstance(exponent, bool) or not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        if exponent == 0 or len(self.coeffs) == 1:
            return ShiftPolynomial.one()
        if exponent == 1:
            return self
        SizeBudget().charge(self, exponent)
        g = 0
        for i, _ in self.coeffs:
            g = gcd(g, i)
        terms = [(i // g, c) for i, c in self.coeffs[1:]]
        k1 = exponent + 1
        q = [1] + [0] * (exponent * terms[-1][0])
        for n in range(1, len(q)):
            total = 0
            for j, c in terms:
                if j > n:
                    break
                if q[n - j]:
                    total += (k1 * j - n) * c * q[n - j]
            q[n] = total // n
        return ShiftPolynomial._trusted(tuple((n * g, c) for n, c in enumerate(q) if c))

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


class _Blocked(Exception):
    def __init__(self, blocker: SpaceExpr, reason: str):
        self.blocker = blocker
        self.reason = reason


_CIRCLE = ShiftPolynomial._trusted(((0, 1), (1, 1)))


def _poly_of(expr: SpaceExpr, atom_shifts: Mapping[str, Sequence[int]]) -> ShiftPolynomial:
    match expr:
        case Sphere(dim):
            return ShiftPolynomial._trusted(((0, 1), (dim, 1)))
        case Torus(factors):
            return _CIRCLE**factors
        case Bouquet(circles):
            return ShiftPolynomial._trusted(((0, 1), (1, circles)))
        case Point():
            return ShiftPolynomial.one()
        case Atom(name):
            declared = atom_shifts.get(name)
            if declared is None:
                raise _Blocked(expr, "atom has no declared suspension shifts")
            shifts = [int(s) for s in declared]
            if any(s < 1 for s in shifts):
                raise ValueError(f"declared shifts for {name!r} must all be >= 1")
            return ShiftPolynomial.from_shifts(shifts)
        case Wedge(children):
            counts = {0: 1}
            for child in children:
                for shift, count in _poly_of(child, atom_shifts).coeffs[1:]:
                    counts[shift] = counts.get(shift, 0) + count
            return ShiftPolynomial._trusted(tuple(sorted(counts.items())))
        case Susp(child, count):
            inner = _poly_of(child, atom_shifts)
            return ShiftPolynomial._trusted(
                ((0, 1),) + tuple((i + count, c) for i, c in inner.coeffs[1:])
            )
        case Product(children):
            budget = SizeBudget()
            out = ShiftPolynomial.one()
            for child in children:
                poly = _poly_of(child, atom_shifts)
                budget.charge(poly, 1)
                out = out * poly
            return out
        case MapSpace() | Loop() | BouquetSpace():
            raise _Blocked(expr, "mapping spaces do not split into spheres")
    raise TypeError(f"not a space expression: {expr!r}")


def sphere_splitting(
    expr: SpaceExpr, atom_shifts: Mapping[str, Sequence[int]] | None = None
) -> SphereSplitting:
    """Shift polynomial of the sphere splitting of susp(expr), if one exists.

    ``atom_shifts`` maps atom names to their declared shift multisets.
    Sugar nodes are read directly, so the polynomial is invariant under
    ``desugar``; a blocker is reported as written.
    """
    try:
        poly = _poly_of(expr, atom_shifts or {})
    except _Blocked as blocked:
        return SphereSplitting(None, blocked.blocker, blocked.reason)
    return SphereSplitting(poly)


def shift_polynomial(
    expr: SpaceExpr, atom_shifts: Mapping[str, Sequence[int]] | None = None
) -> ShiftPolynomial:
    """Shift polynomial of a splittable expression; raises if it is blocked.

    Multiplicative over products: the polynomial of prod(A, B) is the
    product of the polynomials of A and B.
    """
    splitting = sphere_splitting(expr, atom_shifts)
    if not splitting.splittable:
        raise NotSplittableError(splitting.blocker, splitting.reason)
    return splitting.poly
