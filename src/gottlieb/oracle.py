"""Independent cross-checks for the decomposition engine.

Every function here recomputes something the main engine also computes,
by a deliberately different route, so that drift in either one surfaces
as a reported mismatch rather than a silent error:

* ``recursive_bouquet_coefficients`` builds bouquet multiplicities purely
  by repeated one-step polynomial multiplication (no binomial function);
* ``randomized_decompose`` makes one pass down the curried chain, applying
  the rewrite rules in a random admissible order (random currying splits,
  direct product splitting, each splitting's ``(shift, count)`` pairs in
  random order), so its cost follows the answer, not the multiset.  The
  pass is degree-free: it carries offsets from the degree asked;
* ``tuple_enumeration_shifts`` counts degree shifts of a product by brute
  enumeration of factor subsets and sphere choices;
* ``crosscheck`` runs all applicable strategies and reports every pairwise
  comparison, made at the window's first degree.  It walks the engine's
  chain once, before any other strategy is set up.  A failure is data in
  the report, not an exception.  Its derived-profile check folds a
  synthetic table of the core atom outward through each level's shift
  polynomial, one ``evaluation._fold_table`` per level, and compares the
  result with the evaluated ``decompose`` at every degree of the window.

Two strategies are brute force by design and run only under a budget:
``tuple-enumeration`` enumerates prod p_i(1) tuples (``TUPLE_BUDGET``),
and the derived-profile fold makes, per level, one table lookup per
degree the level needs and term of its polynomial (``DERIVED_BUDGET``;
its real cost is the big-integer sums behind those lookups).  A strategy
over its budget is skipped, and the reason is listed in
``CrosscheckReport.skipped``; a skip is not a failure.

Beyond the shared FormalSum vocabulary and sphere splittings, nothing
here reuses code from the decomposition engine; its walk and
``closed_form_bouquet`` are only ever invoked as subjects under test.
"""

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .abelian import AbelianGroup, canonicalize
from .decompose import _walk_chain, closed_form_bouquet
from .evaluation import _fold_table, evaluate
from .formal import FormalSum, GottliebTerm, Term, _trusted_gen, _trusted_term
from .profiles import GradedGroup, ProfileDb, SpaceProfile
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
    _nat,
    desugar,
    format_space,
    parse_space,
)
from .splitting import ShiftPolynomial, sphere_splitting

__all__ = [
    "DERIVED_BUDGET",
    "TUPLE_BUDGET",
    "CheckEntry",
    "CrosscheckReport",
    "crosscheck",
    "random_splittable_expr",
    "randomized_decompose",
    "recursive_bouquet_coefficients",
    "tuple_enumeration_shifts",
    "uncurry",
]

# Brute force runs only under these budgets (see the module docstring).
TUPLE_BUDGET = 10**5  # tuples tuple-enumeration may enumerate, prod p_i(1)
DERIVED_BUDGET = 2 * 10**5  # table lookups the derived-profile fold may make


def recursive_bouquet_coefficients(circles: int, iterations: int) -> ShiftPolynomial:
    """Shift polynomial (1 + m t)^N computed by N-fold one-step products.

    Starts from 1 and multiplies by (1 + m t) once per iteration with
    explicit coefficient bookkeeping; deliberately free of any binomial
    coefficient function so it can confirm the closed form independently.
    """
    _nat(circles, "circle count")
    if iterations < 0:
        raise ValueError(f"iteration count must be >= 0, got {iterations}")
    coeffs = {0: 1}
    for _ in range(iterations):
        step: dict[int, int] = {}
        for shift, count in coeffs.items():
            step[shift] = step.get(shift, 0) + count
            step[shift + 1] = step.get(shift + 1, 0) + circles * count
        coeffs = step
    return ShiftPolynomial.from_dict(coeffs)


def randomized_decompose(
    expr: SpaceExpr,
    degree: int,
    atom_shifts: Mapping[str, Sequence[int]] | None = None,
    rng: random.Random | None = None,
) -> FormalSum:
    """Decompose in one pass down the curried chain, with rules chosen at random.

    The pass carries a dict of offset -> multiplicity, the live degrees
    less ``degree``.  A product source that splits either curries off a
    random sub-block (in random factor order) or splits in one step.  A
    product with a blocked factor curries off its splittable prefix, or
    its blocked first factor: the residual's target keeps the later
    factors in order.  A splitting applies its ``(shift, count)`` pairs in
    random order; a blocked level adds the live offsets to its residual
    family ``(source, suspensions, target)`` and passes them on.  Any such
    order must agree with the deterministic engine.  Only the terms are
    built at ``degree``.
    """
    _nat(degree, "degree")
    rng = rng if rng is not None else random.Random(0)
    live = {0: 1}
    families: dict[tuple[SpaceExpr, int, SpaceExpr], dict[int, int]] = {}
    e = desugar(expr)
    while isinstance(e, MapSpace):
        source, target = e.source, e.target
        splitting = sphere_splitting(source, atom_shifts)
        if isinstance(source, Product):
            factors = list(source.children)
            cut = None
            if not splitting.splittable:
                cut = max(1, next(i for i, f in enumerate(factors)
                                  if not sphere_splitting(f, atom_shifts).splittable))
            elif len(factors) > 1 and rng.random() < 0.5:
                rng.shuffle(factors)
                cut = rng.randrange(1, len(factors))
            if cut is not None:
                if cut < len(factors):
                    target = MapSpace(_block(factors[cut:]), target)
                e = MapSpace(_block(factors[:cut]), target)
                continue
        if splitting.splittable:
            pairs = list(splitting.poly.coeffs)
            rng.shuffle(pairs)
            step: dict[int, int] = {}
            for shift, count in pairs:
                for offset, mult in live.items():
                    step[offset + shift] = step.get(offset + shift, 0) + count * mult
            live = step
        else:
            residual_source, suspensions = source, 0
            if isinstance(source, Susp):
                residual_source, suspensions = source.child, source.count
            family = families.setdefault((residual_source, suspensions, target), {})
            for offset, mult in live.items():
                family[offset] = family.get(offset, 0) + mult
        e = target
    if isinstance(e, Atom):
        core = sorted(live.items())
    elif isinstance(e, Point):
        core = []
    else:
        raise ValueError(f"no rule for target {format_space(e)!r}")
    # Two families may meet in one term (suspensions + offset agree).
    residuals: dict[Term, int] = {}
    for (source, suspensions, target), family in families.items():
        for offset, mult in family.items():
            term = _trusted_gen(source, degree + suspensions + offset, target)
            residuals[term] = residuals.get(term, 0) + mult
    terms = [(_trusted_term(GottliebTerm, e.name, degree + offset), mult) for offset, mult in core]
    terms += residuals.items()
    # Core terms come in degree order; only residuals need a sort.
    return FormalSum._trusted(terms, ordered=not residuals)


def _block(factors: Sequence[SpaceExpr]) -> SpaceExpr:
    return factors[0] if len(factors) == 1 else Product(tuple(factors))


def tuple_enumeration_shifts(factors: Sequence[Sequence[int]]) -> dict[int, int]:
    """Degree-shift multiplicities of a product, by brute enumeration.

    ``factors[i]`` lists the sphere shifts of the i-th factor.  Every
    choice of a nonempty subset of factors together with one shift from
    each chosen factor contributes its total once.  The zero shift (empty
    subset) is excluded.
    """
    counts: dict[int, int] = {}
    indices = range(len(factors))
    for size in range(1, len(factors) + 1):
        for chosen in itertools.combinations(indices, size):
            for picks in itertools.product(*(factors[i] for i in chosen)):
                total = sum(picks)
                counts[total] = counts.get(total, 0) + 1
    return counts


def uncurry(expr: SpaceExpr) -> tuple[tuple[SpaceExpr, ...], SpaceExpr]:
    """Flatten nested mapping spaces into (source factors, core target).

    Product sources contribute their factors individually, so
    ``map(prod(A, B), map(C, Y))`` flattens to ((A, B, C), Y).
    """
    e = desugar(expr)
    sources: list[SpaceExpr] = []
    while isinstance(e, MapSpace):
        if isinstance(e.source, Product):
            sources.extend(e.source.children)
        else:
            sources.append(e.source)
        e = e.target
    return tuple(sources), e


def random_splittable_expr(rng: random.Random, max_depth: int = 3, max_dim: int = 4) -> SpaceExpr:
    """Random sphere/wedge/product/suspension tree; always splittable."""
    if max_depth <= 0 or rng.random() < 0.3:
        return Sphere(rng.randint(1, max_dim))
    kind = rng.choice(("wedge", "prod", "susp"))
    if kind == "susp":
        return Susp(random_splittable_expr(rng, max_depth - 1, max_dim), rng.randint(1, 2))
    width = rng.randint(2, 3)
    children = tuple(random_splittable_expr(rng, max_depth - 1, max_dim) for _ in range(width))
    return Wedge(children) if kind == "wedge" else Product(children)


Window = range | tuple[int, ...]  # a step-1 range, or sorted distinct degrees


@dataclass(frozen=True)
class CheckEntry:
    left: str
    right: str
    degrees: Window
    passed: bool
    counterexample: str | None = None

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        first, last = self.degrees[0], self.degrees[-1]
        text = f"{verdict} {self.left} == {self.right} on degrees {first}..{last}"
        if self.counterexample:
            text += f": {self.counterexample}"
        return text


@dataclass(frozen=True)
class CrosscheckReport:
    """The comparisons made, and (strategy, reason) for each one skipped."""

    expr: str
    entries: tuple[CheckEntry, ...]
    skipped: tuple[tuple[str, str], ...] = ()

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def lines(self) -> list[str]:
        return (
            [f"crosscheck {self.expr}"]
            + ["  " + entry.line() for entry in self.entries]
            + [f"  SKIP {name}: {reason}" for name, reason in self.skipped]
        )


def _bouquet_shape(expr: SpaceExpr) -> tuple[int, int, str] | None:
    """(circles, iterations, target name) when the expression is an
    iterated circle-bouquet mapping space over an atom."""
    match expr:
        case Loop(Atom(name), iterations):
            return (1, iterations, name)
        case BouquetSpace(Atom(name), circles, iterations):
            return (circles, iterations, name)
        case MapSpace(Sphere(1), Atom(name)):
            return (1, 1, name)
        case MapSpace(Torus(factors), Atom(name)):
            # An N-torus mapping space is the N-fold iterated free loop space.
            return (1, factors, name)
        case MapSpace(Bouquet(circles), Atom(name)):
            return (circles, 1, name)
    return None


def _sum_from_poly(poly: ShiftPolynomial, name: str, degree: int) -> FormalSum:
    # Distinct degrees >= 1 in increasing order: a canonical sum as it stands.
    return FormalSum._trusted(
        ((_trusted_term(GottliebTerm, name, degree + shift), count) for shift, count in poly.coeffs),
        ordered=True,
    )


@functools.cache
def _small_group(rank: int, orders: tuple[int, ...]) -> AbelianGroup:
    return canonicalize(rank, orders)


def _synthetic_profile(name: str, degrees: Iterable[int], seed: int) -> SpaceProfile:
    rng = random.Random(f"{name}:{seed}")
    entries = {}
    for d in sorted(set(degrees)):
        orders = [rng.choice((2, 3, 4, 5, 8, 9, 12)) for _ in range(rng.randint(0, 2))]
        entries[d] = _small_group(rng.randint(0, 2), tuple(sorted(orders)))
    return SpaceProfile(name, gottlieb=GradedGroup(entries))


def _power_text(counts: Iterable[int]) -> str:
    """The product of ``counts`` as powers, e.g. ``2^30`` or ``3 * 4^2``."""
    bases: dict[int, int] = {}
    for count in counts:
        bases[count] = bases.get(count, 0) + 1
    return " * ".join(f"{b}^{e}" if e > 1 else str(b) for b, e in sorted(bases.items()))


def _tuple_budget_skip(polys: Sequence[ShiftPolynomial]) -> str | None:
    """Why tuple-enumeration may not run: prod p_i(1) tuples over ``TUPLE_BUDGET``."""
    totals = [poly.total() for poly in polys]
    count = 1
    for total in totals:
        count *= total
        if count > TUPLE_BUDGET:
            return f"{_power_text(totals)} tuples over the budget of {_budget_text(TUPLE_BUDGET)}"
    return None


def _derived_budget_skip(polys: Sequence[ShiftPolynomial], degrees: Window) -> str | None:
    """Why the derived-profile fold may not run: lookups over ``DERIVED_BUDGET``.

    Level i needs at most min(its outer level's degrees x its terms, the
    span of degrees they reach) degrees; it makes one lookup per degree
    and term of its polynomial.  On a chain of circles the bound is exact.
    A range's size is read off its ends: ``len`` overflows past 2^63.
    """
    span, lookups = degrees[-1] - degrees[0] + 1, 0
    size = span if isinstance(degrees, range) else len(degrees)
    for poly in polys:
        terms = len(poly.coeffs)
        lookups += size * terms
        span += poly.max_shift
        size = min(size * terms, span)
    if lookups > DERIVED_BUDGET:
        return f"{lookups} table lookups over the budget of {_budget_text(DERIVED_BUDGET)}"
    return None


def _budget_text(budget: int) -> str:
    digits = str(budget)
    return f"10^{len(digits) - 1}" if digits == "1" + "0" * (len(digits) - 1) else digits


Strategy = Callable[[int], FormalSum]


def _derived_profile_counterexample(
    decomposed: Strategy,
    core_name: str,
    polys: Sequence[ShiftPolynomial],
    degrees: Window,
    atom_shifts: Mapping[str, Sequence[int]],
    seed: int,
) -> str | None:
    level_degrees: list[set[int]] = [set(degrees)]
    for poly in polys:
        prev = level_degrees[-1]
        level_degrees.append({d + shift for d in prev for shift, _ in poly.coeffs})
    shift_profiles = [
        SpaceProfile(name, suspension_shifts=tuple(shifts))
        for name, shifts in atom_shifts.items()
        if name != core_name
    ]
    core_profile = _synthetic_profile(core_name, level_degrees[-1], seed)
    if core_name in atom_shifts:
        core_profile = SpaceProfile(
            core_name,
            gottlieb=core_profile.gottlieb,
            suspension_shifts=tuple(atom_shifts[core_name]),
        )
    db = ProfileDb.of([core_profile] + shift_profiles)
    # Fold tables from the innermost mapping space outward.
    table = core_profile.gottlieb
    for poly, needed in zip(reversed(polys), reversed(level_degrees[:-1])):
        table = _fold_table(table, poly, needed, core_name)
        if not isinstance(table, GradedGroup):
            # The synthetic tables cover every degree the fold needs, so a
            # gap here is a fault in the derivation, reported as a failure.
            return f"derived table incomplete: missing {', '.join(table.missing)}"
    for n in degrees:
        direct = evaluate(decomposed(n), db)
        derived = table.lookup(n)
        if direct != derived:
            return f"degree {n}: direct={direct} derived={derived}"
    return None


def crosscheck(
    expr: SpaceExpr | str,
    degrees: Iterable[int],
    strategies: Sequence | None = None,
    atom_shifts: Mapping[str, Sequence[int]] | None = None,
    seed: int = 0,
) -> CrosscheckReport:
    """Compare every applicable strategy pairwise over a degree window.

    ``strategies`` selects by name from {"deterministic", "randomized",
    "closed-form", "recursion", "polynomial", "tuple-enumeration",
    "derived-profile"}; entries may also be (name, callable) pairs mapping
    a degree to a FormalSum, which lets tests inject faulty evaluators.
    None selects everything applicable.  Mismatches are reported, never
    raised; a strategy over its budget is reported in ``skipped``.  A
    selection that would compare nothing raises ``ValueError``.

    Each pair is compared once, at the window's first degree: every named
    strategy reads degree n as the offset n + i of one degree-free answer,
    so two that agree at one degree agree at all of them, and a custom
    callable must read degrees so too.  Only derived-profile reads every
    degree.  A step-1 ``range`` is used as given; any other iterable is
    sorted and deduplicated.
    """
    if isinstance(expr, str):
        expr = parse_space(expr)
    if isinstance(degrees, range) and degrees.step == 1:
        checked = degrees[:1]  # its later degrees are integers above the first
    else:
        degrees = checked = tuple(sorted(set(degrees)))
    if not degrees:
        raise ValueError("degree window must be non-empty with degrees >= 1")
    for n in checked:
        _nat(n, "degree")
    shifts = dict(atom_shifts or {})

    known = (
        "deterministic",
        "randomized",
        "closed-form",
        "recursion",
        "polynomial",
        "tuple-enumeration",
        "derived-profile",
    )
    selected: list[str] = []
    custom: list[tuple[str, Strategy]] = []
    if strategies is None:
        selected = list(known)
    else:
        for item in strategies:
            if isinstance(item, str):
                if item not in known:
                    raise ValueError(f"unknown strategy {item!r}")
                selected.append(item)
            else:
                name, fn = item
                custom.append((str(name), fn))

    # The engine walks the chain once, first, so its size budget guards a
    # check as it guards decompose; each degree is read off that walk.
    if "deterministic" in selected or "derived-profile" in selected:
        decomposed = _walk_chain(expr, shifts).at

    available: dict[str, Strategy] = {}
    skipped: list[tuple[str, str]] = []
    if "deterministic" in selected:
        available["deterministic"] = decomposed
    if "randomized" in selected:
        available["randomized"] = lambda n: randomized_decompose(
            expr, n, shifts, random.Random(seed)
        )
    shape = _bouquet_shape(expr)
    if shape is not None:
        circles, iterations, target_name = shape
        if "closed-form" in selected:
            available["closed-form"] = lambda n: closed_form_bouquet(
                circles, iterations, n, target_name
            )
        if "recursion" in selected:
            recursion_poly = recursive_bouquet_coefficients(circles, iterations)
            available["recursion"] = lambda n: _sum_from_poly(recursion_poly, target_name, n)
    sources, core = uncurry(expr)
    splittings = [sphere_splitting(s, shifts) for s in sources]
    fully_split = isinstance(core, Atom) and all(s.splittable for s in splittings)
    polys = [s.poly for s in splittings]
    derived = False
    if fully_split:
        if "polynomial" in selected:
            poly = ShiftPolynomial.one()
            for factor in polys:
                poly = poly * factor
            available["polynomial"] = lambda n: _sum_from_poly(poly, core.name, n)
        if "tuple-enumeration" in selected and sources:
            reason = _tuple_budget_skip(polys)
            if reason is not None:
                skipped.append(("tuple-enumeration", reason))
            else:
                counts = tuple_enumeration_shifts([s.shifts for s in splittings])
                enum_poly = ShiftPolynomial.from_dict({0: 1, **counts})
                available["tuple-enumeration"] = lambda n: _sum_from_poly(enum_poly, core.name, n)
        if "derived-profile" in selected and sources:
            reason = _derived_budget_skip(polys, degrees)
            if reason is not None:
                skipped.append(("derived-profile", reason))
            derived = reason is None
    for name, fn in custom:
        available[name] = fn
    if len(available) < 2 and not derived and not skipped:
        raise ValueError(
            f"nothing to compare on {format_space(expr)}: "
            f"the strategies selected give {len(available)} result(s)"
        )

    entries: list[CheckEntry] = []
    first = degrees[0]
    results = {name: fn(first) for name, fn in available.items()}
    for left, right in itertools.combinations(results, 2):
        a, b = results[left], results[right]
        counterexample = None if a == b else f"degree {first}: {left} gives {a}, {right} gives {b}"
        entries.append(CheckEntry(left, right, degrees, a == b, counterexample))
    if derived:
        counterexample = _derived_profile_counterexample(
            decomposed, core.name, polys, degrees, shifts, seed
        )
        entries.append(CheckEntry("evaluated decompose", "derived-profile recursion",
                                  degrees, counterexample is None, counterexample))
    return CrosscheckReport(format_space(expr), tuple(entries), tuple(skipped))
