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

The engine makes one pass down the curried chain of mapping spaces, with
no degree: it carries the product of the shift polynomials split so far,
and each residual level keeps the polynomial it was reached with.  The
pass (``_walk_chain``) returns that state, and ``at(n)`` reads degree n
off it as an offset: the core atom gives ``G[n + i](Y)`` (``pi[n + i](Y)``
for ``fox``) with multiplicity c_i, a residual ``Gen`` terms at n + s + i
for a source suspended s times.  So a window of degrees costs one pass.
The pass needs no recursion, so the depth of an iterated loop space is
not bounded by the interpreter's recursion limit.  Its terms are distinct
by construction and the core's come out in degree order, so the answer
is built without a second merge, and sorted only when residuals were
emitted.

Splitting levels are taken in runs.  Consecutive sources with the same
shift polynomial p, whether they come from a ``map(S1, map(S1, ...))``
chain, from the factors of a product, from ``loop``/``bloop`` (N copies
of S1 or of the m-circle bouquet, whose polynomial is 1 + m t) or from
``T<N>`` (N copies of S1), fold into one step ``acc * p**run``; the power
uses Miller's recurrence (see ``ShiftPolynomial.__pow__``).  The sugar is
read where it stands and never expanded on the way, and each distinct
source is split once per call.  Product factors are walked by index: the
curried target ``map(prod(rest), Y)`` is built only when a nested product
or a residual needs it.  A residual keeps its source and target as
written; ``at`` expands them, so they print in desugared form, and only
after the pass has charged every level to the size budget.

Before any power is formed, its run is charged to a ``SizeBudget``: the
answer's degree (sum of run * max_shift) and the digits of its largest
multiplicity (sum of run * log10 p(1)).  Past ``MAX_DEGREE`` or
``MAX_DIGITS`` the call raises ``DecomposeError`` naming the estimate and
the ceiling, so ``bloop(Y, 10, 5000)`` or ``map(T200000, Y)`` fail at once
instead of computing numbers too long to print.
"""

from math import comb

from .formal import FormalSum, GottliebTerm, Term, _trusted_gen, _trusted_term
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
    _nat,
    atom_name,
    desugar,
    format_space,
)
from .splitting import (
    DecomposeError,
    ShiftPolynomial,
    SizeBudget,
    sphere_splitting,
)

__all__ = ["DecomposeError", "closed_form_bouquet", "decompose"]

_CIRCLE = Sphere(1)


class _Walk:
    """One degree-free pass: the core atom, its polynomial and the residuals.

    ``core`` is the atom's name (None for a point), ``acc`` the core
    polynomial, ``families`` one (source, target, polynomial) per blocked
    level, in the order met, with source and target as written.
    """

    def __init__(self, atom_shifts) -> None:
        self.atom_shifts = atom_shifts
        self.core: str | None = None
        self.families: list[tuple[SpaceExpr, SpaceExpr, ShiftPolynomial]] = []
        self.acc = ShiftPolynomial.one()
        self.budget = SizeBudget()
        self.splits: dict[SpaceExpr, ShiftPolynomial | None] = {}
        self.source: SpaceExpr | None = None  # last splittable source seen
        self.poly = self.acc  # its polynomial, the one the open run repeats
        self.run = 0

    def take(self, source: SpaceExpr, count: int = 1) -> bool:
        """Add ``count`` levels of ``source`` to the open run; False if it is blocked."""
        if source is not self.source:
            if isinstance(source, Torus):
                return self.take(_CIRCLE, count * source.factors)
            if source in self.splits:
                poly = self.splits[source]
            else:
                poly = self.splits[source] = sphere_splitting(source, self.atom_shifts).poly
            if poly is None:
                return False
            if poly != self.poly:
                self.flush()
                self.poly = poly
            self.source = source
        self.run += count
        return True

    def flush(self) -> None:
        if self.run:
            self.budget.charge(self.poly, self.run)
            self.acc = self.acc * self.poly**self.run
            self.run = 0

    def residual(self, source: SpaceExpr, target: SpaceExpr) -> None:
        # The walk goes on into the target with the polynomial unchanged.
        self.flush()
        self.families.append((source, target, self.acc))

    def at(self, degree: int, kind: type = GottliebTerm) -> FormalSum:
        """The sum at ``degree``, with ``kind`` terms at the core.

        ``degree`` must be an integer >= 1, since the terms are built unchecked.
        """
        counts: dict[Term, int] = {}
        for source, target, poly in self.families:
            source, target, suspensions = desugar(source), desugar(target), 0
            if isinstance(source, Susp):
                source, suspensions = source.child, source.count
            base = degree + suspensions
            for shift, count in poly.coeffs:
                counts[_trusted_gen(source, base + shift, target)] = count
        # The core terms come in degree order, which is canonical, since the
        # coefficients are sorted by shift; only residuals make a sort needed.
        terms = list(counts.items())
        if self.core is not None:
            terms += [
                (_trusted_term(kind, self.core, degree + shift), count)
                for shift, count in self.acc.coeffs
            ]
        return FormalSum._trusted(terms, ordered=not counts)


def _rest(factors: tuple[SpaceExpr, ...], i: int, target: SpaceExpr) -> SpaceExpr:
    """The curried target map(prod(factors[i + 1:]), target) of factor i."""
    rest = factors[i + 1:]
    if not rest:
        return target
    return MapSpace(rest[0] if len(rest) == 1 else Product(rest), target)


def decompose(expr: SpaceExpr, degree: int, atom_shifts=None) -> FormalSum:
    """Canonical formal sum for the degree-``degree`` Gottlieb group of ``expr``.

    ``atom_shifts`` maps atom names to declared suspension shift multisets
    and is consulted when mapping-space sources must be split.
    """
    _nat(degree, "degree")
    return _walk_chain(expr, atom_shifts).at(degree)


def _walk_chain(e: SpaceExpr, atom_shifts) -> _Walk:
    """The pass behind ``decompose``, read at any degree through ``at``."""
    walk = _Walk(atom_shifts)
    while True:
        if isinstance(e, MapSpace):
            source, target = e.source, e.target
            e = target
            if not isinstance(source, Product):
                if not walk.take(source):
                    walk.residual(source, target)
                continue
            factors = source.children
            for i, factor in enumerate(factors):
                if isinstance(factor, Product):
                    # Curry the nested product off; the later factors wait
                    # in its target.
                    e = MapSpace(factor, _rest(factors, i, target))
                    break
                if not walk.take(factor):
                    walk.residual(factor, _rest(factors, i, target))
        elif isinstance(e, Loop):
            walk.take(_CIRCLE, e.iterations)
            e = e.target
        elif isinstance(e, BouquetSpace):
            walk.take(Bouquet(e.circles), e.iterations)
            e = e.target
        else:
            break
    walk.flush()
    if isinstance(e, Atom):
        walk.core = e.name
    elif not isinstance(e, Point):
        raise DecomposeError(
            f"no decomposition rule for target {format_space(e)!r}; "
            "targets must be atoms, points, or mapping spaces"
        )
    return walk


def closed_form_bouquet(circles: int, iterations: int, degree: int, target) -> FormalSum:
    """Closed form for the iterated bouquet mapping space on an atom target.

    The degree-n group of bloop(Y, m, N) is the direct sum over j = 0..N of
    m^j * C(N, j) copies of G_{n+j}(Y); m = 1 is the iterated free loop
    space.  ``target`` may be an atom name or an Atom node.
    """
    _nat(circles, "circle count")
    _nat(iterations, "iteration count")
    _nat(degree, "degree")
    name = atom_name(target)
    # Distinct degrees >= 1 in increasing order, with positive multiplicities.
    pairs = [
        (_trusted_term(GottliebTerm, name, degree + j), (circles**j) * comb(iterations, j))
        for j in range(iterations + 1)
    ]
    return FormalSum._trusted(pairs, ordered=True)
