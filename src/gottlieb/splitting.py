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
``charged_product`` on (polynomial, count) runs, after the whole product
is charged to the size budget: J. C. P. Miller's recurrence (Knuth,
TAOCP Vol. 2, 4.7) powers the runs that repeat, and each factor met
once is then multiplied in.  ``ShiftPolynomial`` has no arithmetic of
its own.  Two functions
read an expression, each one loop over ``spaces._postorder``, and both
raise ``NotSplittableError`` at the first blocker: ``_degree`` reads its
polynomial's degree and forms no polynomial, and ``_form`` forms the
polynomial, charging the degree of the outermost product of a subtree
before any node in it is formed.  So a caller can charge the levels of
a chain before any is formed.  Past ``MAX_DEGREE`` or ``MAX_DIGITS`` (see
``limits``) a ``DecomposeError`` names the estimate and the ceiling
instead of computing an answer that could not be printed.
"""

from dataclasses import dataclass
from itertools import chain
from math import ceil, gcd, log10
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .limits import MAX_DEGREE, MAX_DIGITS, over
from .spaces import (
    Atom,
    Bouquet,
    Point,
    Product,
    SpaceExpr,
    Sphere,
    Susp,
    Torus,
    Wedge,
    _MAPPING,
    _postorder,
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
    dropped; the constant coefficient is always 1.  Products of spaces are
    formed by ``charged_product``.
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
        # The polynomial, one (shift, count) term each: the size of the answer,
        # where ``shifts`` has one entry per sphere.
        if self.splittable:
            return str(self.poly)
        return f"not splittable: {format_space(self.blocker)} ({self.reason})"


def charged_product(runs: Iterable[tuple[ShiftPolynomial, int]]) -> ShiftPolynomial:
    """The product of p^k over ``runs`` of (p, k), charged to the size budget.

    The answer's degree, the sum of k * max_shift(p), may be at most
    ``MAX_DEGREE``, then its digits, the sum of k * log10 p(1), at most
    ``MAX_DIGITS``: totals over all runs, checked before anything is formed.
    Equal p are merged and shifts divided by their gcd.  With q the
    product of the runs with k > 1, P that of their p and R = sum of
    k p' P / p, P q' = R q gives n q_n = sum over d >= 1 of
    (R_{d-1} - (n - d) P_d) q_{n-d}, an exact division costing one step
    per term of P and R.  Each p with k = 1 is then multiplied into q,
    fewest terms first: in P it would cost a step per term for every
    coefficient of q.  A single run of a binomial 1 + c t^s is the
    recurrence's one step, its binomial row.
    """
    counts = _charged(runs)
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
    runs = [([(shift // g, c) for shift, c in poly.coeffs], k) for poly, k in counts.items()]
    runs.sort(key=lambda run: len(run[0]))
    # P and R as dense lists over shift / g, from the runs with k > 1: each
    # p makes P into P p and R into R p + k p' P.  q's degree is ``top``.
    big_p, big_r, top = [1], [0], 0
    for terms, k in (run for run in runs if run[1] > 1):
        top += k * terms[-1][0]
        size = len(big_p) + terms[-1][0]
        next_p, next_r = [0] * size, [0] * size
        for i, (a, b) in enumerate(zip(big_p, big_r)):
            for j, c in terms:
                next_p[i + j] += c * a
                next_r[i + j - 1] += k * j * c * a  # nothing where j = 0
                next_r[i + j] += c * b
        big_p, big_r = next_p, next_r
    # Step d of coefficient n is (R_{d-1} + d P_d - n P_d) q_{n-d}.
    steps = [(d, big_r[d - 1] + d * big_p[d], big_p[d]) for d in range(1, len(big_p))
             if big_r[d - 1] or big_p[d]]
    q = [1] + [0] * top
    for n in range(1, len(q)):
        total = 0
        for d, r, p in steps:
            if d > n:
                break
            total += (r - n * p) * q[n - d]
        q[n] = total // n
    for terms, _ in (run for run in runs if run[1] == 1):
        product = [0] * (len(q) + terms[-1][0])
        for i, a in enumerate(q):
            for j, c in terms:
                product[i + j] += c * a
        q = product
    return ShiftPolynomial._trusted(tuple([(g * i, c) for i, c in enumerate(q) if c]))


def _charged(runs: Iterable[tuple[ShiftPolynomial, int]]) -> dict:
    """The runs merged into counts by polynomial, once their product's
    degree and then its digits are checked against the size budget."""
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
        raise DecomposeError(over("MAX_DIGITS", ceil(digits)))
    return counts


def charge_degree(degree: int) -> None:
    """Refuse an answer whose degree shift is past ``MAX_DEGREE``."""
    if degree > MAX_DEGREE:
        raise DecomposeError(over("MAX_DEGREE", degree))


_ONE = ShiftPolynomial._trusted(((0, 1),))
_CIRCLE = ShiftPolynomial._trusted(((0, 1), (1, 1)))


def _degree(expr: SpaceExpr, atom_shifts: Mapping[str, Sequence[int]]) -> int:
    """The degree of ``_form(expr)``, forming no polynomial; raises
    ``NotSplittableError`` at the first blocker in ``expr``."""
    degrees = []
    for e in _postorder(expr, _MAPPING):
        kind = type(e)
        if kind is Sphere:
            degrees.append(e.dim)
        elif kind is Wedge or kind is Product:
            k = len(e.children)
            degrees[-k:] = [(max if kind is Wedge else sum)(degrees[-k:])]
        elif kind is Susp:
            if degrees[-1]:  # a suspended point is still a point
                degrees[-1] += e.count
        elif kind is Torus:
            degrees.append(e.factors)
        elif kind is Bouquet or kind is Point:
            degrees.append(1 if kind is Bouquet else 0)
        elif kind is Atom:
            degrees.append(max(_declared_shifts(e, atom_shifts), default=0))
        elif kind in _MAPPING:
            raise NotSplittableError(e, "mapping spaces do not split into spheres")
        else:
            raise TypeError(f"not a space expression: {e!r}")
    return degrees[0]


def _form(expr: SpaceExpr, atom_shifts: Mapping[str, Sequence[int]]) -> ShiftPolynomial:
    """The shift polynomial of ``expr``.

    The outermost product of a subtree charges its degree to the size
    budget before any node in it is formed, and a torus its own.  A torus
    or a product stays unformed, as the counts of its factors, until a
    wedge, a suspension or the answer reads it (``_formed``): a product
    of products is formed once, and each product's digits are checked
    where it stands.
    """
    polys: list = []  # a ShiftPolynomial, or the counts of an unformed product
    todo = _postorder(expr, (*_MAPPING, Product))
    todo.reverse()
    charged = 0  # nodes of a charged product still to form
    while todo:
        e = todo.pop()
        kind = type(e)
        if charged:
            charged -= 1
        elif kind is Product:
            charge_degree(_degree(e, atom_shifts))
            nodes = _postorder(e, _MAPPING)
            charged = len(nodes)
            todo += reversed(nodes)
            continue
        if kind is Sphere:
            polys.append(ShiftPolynomial._trusted(((0, 1), (e.dim, 1))))
        elif kind is Wedge:
            k = len(e.children)
            counts = {0: 1}
            for poly in polys[-k:]:
                for shift, c in _formed(poly).coeffs[1:]:
                    counts[shift] = counts.get(shift, 0) + c
            polys[-k:] = [ShiftPolynomial._trusted(tuple(sorted(counts.items())))]
        elif kind is Product:
            runs = []
            for poly in polys[-len(e.children):]:
                runs += poly.items() if type(poly) is dict else [(poly, 1)]
            polys[-len(e.children):] = [_charged(runs)]
        elif kind is Susp:
            shifted = [(i + e.count, c) for i, c in _formed(polys[-1]).coeffs[1:]]
            polys[-1] = ShiftPolynomial._trusted(((0, 1), *shifted))
        elif kind is Torus:
            # A run of circles: as one dense factor of a product it would
            # make the recurrence's P dense.
            charge_degree(e.factors)
            polys.append({_CIRCLE: e.factors})
        elif kind is Bouquet:
            polys.append(ShiftPolynomial._trusted(((0, 1), (1, e.circles))))
        elif kind is Point:
            polys.append(_ONE)
        elif kind is Atom:
            counts = {}
            for s in _declared_shifts(e, atom_shifts):
                counts[s] = counts.get(s, 0) + 1
            polys.append(ShiftPolynomial._trusted(((0, 1), *sorted(counts.items()))))
        elif kind in _MAPPING:
            raise NotSplittableError(e, "mapping spaces do not split into spheres")
        else:
            raise TypeError(f"not a space expression: {e!r}")
    return _formed(polys[0])


def _formed(poly) -> ShiftPolynomial:
    """``poly``, or the product its counts stand for."""
    return charged_product(poly.items()) if type(poly) is dict else poly


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
