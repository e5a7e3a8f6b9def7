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
no degree and no recursion, so the depth of an iterated loop space is
not bounded by the interpreter's recursion limit.  Each splitting level
adds a run (source, count): a ``map(S1, ...)`` level or a product factor
one, ``loop``/``bloop`` N copies of S1 or of the m-circle bouquet
(1 + m t), ``T<N>`` N circles, all read where the sugar stands; equal
levels in a row are one run.  The walk reads each distinct source's
degree once (``splitting._degree``), forming no polynomial.  A residual
records how many runs came before it and keeps its source and target as
written.  Product factors are walked by index: the curried target
``map(prod(rest), Y)`` is built only when a nested product or a residual
needs it.

At the end the chain's degree is charged to the size budget, and only
then is each distinct splittable source's polynomial formed, once
(``splitting._form``).  ``splitting.charged_product`` forms the core
polynomial from all runs, which charges their digits, and each
residual's from running totals of the runs before it:
``bloop(Y, 10, 5000)`` or ``map(T200000, Y)`` fail at once with a
``DecomposeError`` naming the estimate and the ceiling, and so do a
hundred distinct ``susp(T9000)`` levels, none of which is formed.  The
pass (``_walk_chain``) returns these polynomials, and ``at(n)`` reads
degree n off them as an offset: the core atom gives ``G[n + i](Y)``
(``pi[n + i](Y)`` for ``fox``) with multiplicity c_i, a residual
``Gen`` terms at n + s + i for a source suspended s times.  So a window
of degrees costs one pass.  The first ``at`` desugars each
residual's source and target, and formats them where there are several
families to order; later degrees reuse both.  The terms are distinct by
construction, the core's come out in degree order and ahead of the
residuals, and the residuals are put in order by their (source text,
suspensions, target text) keys: the answer is built with no merge, and
no term is hashed or formatted.
"""

from operator import itemgetter

from .formal import FormalSum, GottliebTerm, _trusted_gen, _trusted_term
from .limits import PRINT_DIGITS, digits, over
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
    NotSplittableError,
    ShiftPolynomial,
    _charged,
    _degree,
    _form,
    charge_degree,
    charged_product,
)

__all__ = ["DecomposeError", "closed_form_bouquet", "decompose"]

_CIRCLE = Sphere(1)
_PRINT_BOUND = 10**PRINT_DIGITS  # the least number of PRINT_DIGITS + 1 digits
_UNREAD = object()  # a source not yet in ``_Walk.levels``


class _Walk:
    """One degree-free pass: the runs, the core atom and the residuals.

    ``levels`` maps each distinct source to a [degree, polynomial] record
    (None where it is blocked); the polynomial is formed only after the
    core's degree is charged.
    ``runs`` holds one [record, count, source] per run of equal levels
    and ``families`` one (source, target, before) per blocked level, in
    the order met, with source and target as written and ``before`` the
    number of runs ahead of it.  ``core`` is the atom's name (None for a
    point).  ``prefixes`` maps each ``before`` and ``len(runs)``, the
    core's, to the product of the runs ahead.  ``views`` holds each
    family's desugared source and target and their texts, made by the
    first ``at``.
    """

    def __init__(self, atom_shifts) -> None:
        self.atom_shifts = atom_shifts or {}
        self.core: str | None = None
        self.families: list[tuple[SpaceExpr, SpaceExpr, int]] = []
        self.levels: dict[SpaceExpr, list | None] = {}
        self.runs: list[list] = []
        self.open: list | None = None  # the last run, while no residual follows it
        self.prefixes: dict[int, ShiftPolynomial] = {}
        self.views: list | None = None

    def take(self, source: SpaceExpr, count: int = 1) -> bool:
        """Add ``count`` levels of ``source`` to the runs; False if it is blocked."""
        if type(source) is Torus:
            source, count = _CIRCLE, count * source.factors
        run = self.open
        if run is None or source is not run[2]:  # a lookup where the source changes
            level = self.levels.get(source, _UNREAD)
            if level is _UNREAD:
                try:
                    level = [_degree(source, self.atom_shifts), None]
                except NotSplittableError:
                    level = None
                self.levels[source] = level
            if level is None:
                return False
            if run is None or level is not run[0]:
                run = self.open = [level, 0, source]
                self.runs.append(run)
        run[1] += count
        return True

    def residual(self, source: SpaceExpr, target: SpaceExpr) -> None:
        # The walk goes on into the target with the polynomial unchanged.
        self.families.append((source, target, len(self.runs)))
        self.open = None

    def at(self, degree: int, kind: type = GottliebTerm) -> FormalSum:
        """The sum at ``degree``, with ``kind`` terms at the core.

        ``degree`` must be an integer >= 1, since the terms are built unchecked.
        """
        if self.views is None:
            # Each family desugared once per walk, and its texts formatted
            # once where there are families to put in order.
            ordering = len(self.families) > 1
            self.views = []
            for source, target, before in self.families:
                source, target, suspensions = desugar(source), desugar(target), 0
                if type(source) is Susp:
                    source, suspensions = source.child, source.count
                texts = (format_space(source), format_space(target)) if ordering else (None, None)
                self.views.append((source, suspensions, target, *texts,
                                   self.prefixes[before].coeffs))
        core = self.prefixes[len(self.runs)].coeffs if self.core is not None else ()
        # The largest term degree, before any term is built: the core's top
        # shift, or a family's suspensions and its top shift.
        top = core[-1][0] if core else None
        for _, suspensions, _, _, _, coeffs in self.views:
            if top is None or suspensions + coeffs[-1][0] > top:
                top = suspensions + coeffs[-1][0]
        if top is not None:
            _printable(degree + top)
        # The coefficients are sorted by shift, so the core terms come in
        # degree order, which is canonical, and ahead of every residual.
        terms = [(_trusted_term(kind, self.core, degree + shift), count) for shift, count in core]
        # Residual terms sort by (source text, suspensions, target text); no
        # term is hashed or formatted here.
        residuals = []
        for source, suspensions, target, source_text, target_text, coeffs in self.views:
            base = degree + suspensions
            residuals += [
                ((source_text, base + shift, target_text),
                 (_trusted_gen(source, base + shift, target), count))
                for shift, count in coeffs
            ]
        residuals.sort(key=itemgetter(0))
        terms += map(itemgetter(1), residuals)
        return FormalSum._trusted(terms, ordered=True)


def _printable(degree: int) -> None:
    """Refuse an answer whose largest term degree (the n of ``G[n]`` or the
    k of ``Σ^k``) has more than ``PRINT_DIGITS`` digits."""
    if degree >= _PRINT_BOUND:
        raise DecomposeError(over("PRINT_DIGITS", f"{digits(degree)} (a term's degree)"))


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
    charge_degree(sum(level[0] * k for level, k, _ in walk.runs))  # before any product is formed
    for source, level in walk.levels.items():
        if level is not None:
            level[1] = _form(source, walk.atom_shifts)
    runs = [(level[1], k) for level, k, _ in walk.runs]
    prefixes = walk.prefixes
    prefixes[len(runs)] = charged_product(runs)
    if isinstance(e, Atom):
        walk.core = e.name
    elif not isinstance(e, Point):
        raise DecomposeError(
            f"no decomposition rule for target {format_space(e)!r}; "
            "targets must be atoms, points, or mapping spaces"
        )
    # The core's charge bounds every prefix.  Each distinct prefix is one
    # charged product of running totals of the runs before it: no run is
    # read twice.
    totals: dict[ShiftPolynomial, int] = {}
    done = 0
    for _, _, before in walk.families:
        if before not in prefixes:
            for poly, k in runs[done:before]:
                totals[poly] = totals.get(poly, 0) + k
            prefixes[before] = charged_product(totals.items())
            done = before
    return walk


def closed_form_bouquet(circles: int, iterations: int, degree: int, target) -> FormalSum:
    """Closed form for the iterated bouquet mapping space on an atom target.

    The degree-n group of bloop(Y, m, N) is the direct sum over j = 0..N of
    m^j * C(N, j) copies of G_{n+j}(Y); m = 1 is the iterated free loop
    space.  ``target`` may be an atom name or an Atom node.  (1 + m t)^N
    is charged to the engine's size budget before any term is formed.
    """
    _nat(circles, "circle count")
    _nat(iterations, "iteration count")
    _nat(degree, "degree")
    name = atom_name(target)
    _charged(((ShiftPolynomial._trusted(((0, 1), (1, circles))), iterations),))
    # Distinct degrees >= 1 in increasing order; c_j = m^j C(N, j) along the row.
    pairs, c = [], 1
    for j in range(iterations + 1):
        pairs.append((_trusted_term(GottliebTerm, name, degree + j), c))
        c = c * circles * (iterations - j) // (j + 1)
    return FormalSum._trusted(pairs, ordered=True)
