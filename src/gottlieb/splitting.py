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
* an atom gives 1 + sum of t^s over its declared shifts s, if any.

Mapping spaces and undeclared atoms block the splitting, and the blocking
subterm is reported rather than raised.
"""

from dataclasses import dataclass
from typing import Mapping, Sequence

from .spaces import (
    Atom,
    MapSpace,
    Point,
    Product,
    SpaceExpr,
    Sphere,
    Susp,
    Wedge,
    desugar,
    format_space,
)

__all__ = [
    "NotSplittableError",
    "ShiftPolynomial",
    "SphereSplitting",
    "shift_polynomial",
    "sphere_splitting",
]


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
    def one(cls) -> "ShiftPolynomial":
        return cls(((0, 1),))

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
        counts: dict[int, int] = {}
        for i, a in self.coeffs:
            for j, b in other.coeffs:
                counts[i + j] = counts.get(i + j, 0) + a * b
        return ShiftPolynomial.from_dict(counts)

    def __pow__(self, exponent: int) -> "ShiftPolynomial":
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        out = ShiftPolynomial.one()
        for _ in range(exponent):
            out = out * self
        return out

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


def _poly_of(expr: SpaceExpr, atom_shifts: Mapping[str, Sequence[int]]) -> ShiftPolynomial:
    match expr:
        case Sphere(dim):
            return ShiftPolynomial(((0, 1), (dim, 1)))
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
            return ShiftPolynomial.from_dict(counts)
        case Susp(child, count):
            inner = _poly_of(child, atom_shifts)
            return ShiftPolynomial(((0, 1),) + tuple((i + count, c) for i, c in inner.coeffs[1:]))
        case Product(children):
            out = ShiftPolynomial.one()
            for child in children:
                out = out * _poly_of(child, atom_shifts)
            return out
        case MapSpace():
            raise _Blocked(expr, "mapping spaces do not split into spheres")
    raise TypeError(f"not a desugared space expression: {expr!r}")


def sphere_splitting(
    expr: SpaceExpr, atom_shifts: Mapping[str, Sequence[int]] | None = None
) -> SphereSplitting:
    """Shift polynomial of the sphere splitting of susp(expr), if one exists.

    ``atom_shifts`` maps atom names to their declared shift multisets.
    Sugar is expanded first, so the result is invariant under ``desugar``.
    """
    try:
        poly = _poly_of(desugar(expr), atom_shifts or {})
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
