"""Independent cross-checks for the decomposition engine.

Every function here recomputes something the main engine also computes,
by a deliberately different route, so that drift in either one surfaces
as a reported mismatch rather than a silent error:

* ``recursive_bouquet_coefficients`` builds bouquet multiplicities purely
  by repeated one-step polynomial multiplication (no binomial function);
* ``randomized_decompose`` makes one pass down the curried chain, applying
  the rewrite rules in a random admissible order (random currying splits,
  direct product splitting, each splitting's ``(shift, count)`` pairs in
  random order), so its cost follows the answer, not the multiset;
* ``tuple_enumeration_shifts`` counts degree shifts of a product by brute
  enumeration of factor subsets and sphere choices;
* ``crosscheck`` runs all applicable strategies over a degree window and
  reports every pairwise comparison.  A failure is data in the report,
  not an exception.

Beyond the shared FormalSum vocabulary and sphere splittings, nothing
here reuses code from the decomposition engine; ``decompose`` and
``closed_form_bouquet`` are only ever invoked as subjects under test.
"""

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .abelian import canonicalize
from .decompose import closed_form_bouquet, decompose
from .formal import FormalSum, GenGottliebTerm, GottliebTerm, Term
from .profiles import GradedGroup, ProfileDb, SpaceProfile, evaluate, gottlieb_table_of_map_space
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
    desugar,
    format_space,
    parse_space,
)
from .splitting import ShiftPolynomial, sphere_splitting

__all__ = [
    "CheckEntry",
    "CrosscheckReport",
    "crosscheck",
    "random_splittable_expr",
    "randomized_decompose",
    "recursive_bouquet_coefficients",
    "tuple_enumeration_shifts",
    "uncurry",
]


def recursive_bouquet_coefficients(circles: int, iterations: int) -> ShiftPolynomial:
    """Shift polynomial (1 + m t)^N computed by N-fold one-step products.

    Starts from 1 and multiplies by (1 + m t) once per iteration with
    explicit coefficient bookkeeping; deliberately free of any binomial
    coefficient function so it can confirm the closed form independently.
    """
    if circles < 1:
        raise ValueError(f"circle count must be >= 1, got {circles}")
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

    The pass carries a dict of live degree -> multiplicity.  A product
    source that splits either curries off a random sub-block (in random
    factor order) or splits in one step.  A product with a blocked factor
    curries off its splittable prefix, or its blocked first factor: the
    residual's target keeps the later factors in order.  A splitting
    applies its ``(shift, count)`` pairs in random order; a blocked level
    adds one ``Gen`` term per live degree and passes the degrees on.  Any
    such order must agree with the deterministic engine.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    rng = rng if rng is not None else random.Random(0)
    live = {degree: 1}
    counts: dict[Term, int] = {}
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
                for n, mult in live.items():
                    step[n + shift] = step.get(n + shift, 0) + count * mult
            live = step
        else:
            residual_source, suspensions = source, 0
            if isinstance(source, Susp):
                residual_source, suspensions = source.child, source.count
            for n, mult in live.items():
                term = GenGottliebTerm(residual_source, n + suspensions, target)
                counts[term] = counts.get(term, 0) + mult
        e = target
    if isinstance(e, Atom):
        for n, mult in live.items():
            counts[GottliebTerm(e.name, n)] = mult
    elif not isinstance(e, Point):
        raise ValueError(f"no rule for target {format_space(e)!r}")
    return FormalSum.from_pairs(counts.items())


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


@dataclass(frozen=True)
class CheckEntry:
    left: str
    right: str
    degrees: tuple[int, ...]
    passed: bool
    counterexample: str | None = None

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        window = f"{self.degrees[0]}..{self.degrees[-1]}" if self.degrees else "-"
        text = f"{verdict} {self.left} == {self.right} on degrees {window}"
        if self.counterexample:
            text += f": {self.counterexample}"
        return text


@dataclass(frozen=True)
class CrosscheckReport:
    expr: str
    entries: tuple[CheckEntry, ...]

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def lines(self) -> list[str]:
        return [f"crosscheck {self.expr}"] + ["  " + entry.line() for entry in self.entries]


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
    return FormalSum.from_pairs(
        (GottliebTerm(name, degree + shift), count) for shift, count in poly.coeffs
    )


def _synthetic_profile(name: str, degrees: Iterable[int], seed: int) -> SpaceProfile:
    rng = random.Random(f"{name}:{seed}")
    entries = {}
    for d in sorted(set(degrees)):
        orders = [rng.choice((2, 3, 4, 5, 8, 9, 12)) for _ in range(rng.randint(0, 2))]
        entries[d] = canonicalize(rng.randint(0, 2), orders)
    return SpaceProfile(name, gottlieb=GradedGroup(entries))


Strategy = Callable[[int], FormalSum]


def _derived_profile_counterexample(
    decomposed: Strategy,
    sources: tuple[SpaceExpr, ...],
    core_name: str,
    polys: Sequence[ShiftPolynomial],
    degrees: tuple[int, ...],
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
    for source, needed in zip(reversed(sources), reversed(level_degrees[:-1])):
        step_profile = SpaceProfile(core_name, gottlieb=table,
                                    suspension_shifts=core_profile.suspension_shifts)
        step_db = ProfileDb.of([step_profile] + shift_profiles)
        table = gottlieb_table_of_map_space(source, core_name, sorted(needed), step_db)
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
    raised.
    """
    if isinstance(expr, str):
        expr = parse_space(expr)
    degrees = tuple(sorted(set(degrees)))
    if not degrees or degrees[0] < 1:
        raise ValueError("degree window must be non-empty with degrees >= 1")
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

    # The engine's answer per degree, computed on first use: the
    # deterministic strategy and the derived-profile check both read it.
    decomposed = functools.cache(lambda n: decompose(expr, n, shifts))

    available: dict[str, Strategy] = {}
    if "deterministic" in selected:
        available["deterministic"] = decomposed
    if "randomized" in selected:
        available["randomized"] = lambda n: randomized_decompose(
            expr, n, shifts, random.Random(f"{seed}:{n}")
        )
    shape = _bouquet_shape(expr)
    if shape is not None:
        circles, iterations, target_name = shape
        if "closed-form" in selected:
            available["closed-form"] = lambda n, c=circles, i=iterations, t=target_name: (
                closed_form_bouquet(c, i, n, t)
            )
        if "recursion" in selected:
            recursion_poly = recursive_bouquet_coefficients(circles, iterations)
            available["recursion"] = lambda n, p=recursion_poly, t=target_name: (
                _sum_from_poly(p, t, n)
            )
    sources, core = uncurry(expr)
    splittings = [sphere_splitting(s, shifts) for s in sources]
    fully_split = isinstance(core, Atom) and all(s.splittable for s in splittings)
    polys = [s.poly for s in splittings]
    if fully_split:
        if "polynomial" in selected:
            poly = ShiftPolynomial.one()
            for factor in polys:
                poly = poly * factor
            available["polynomial"] = lambda n, p=poly: _sum_from_poly(p, core.name, n)
        if "tuple-enumeration" in selected and sources:
            counts = tuple_enumeration_shifts([s.shifts for s in splittings])
            enum_poly = ShiftPolynomial.from_dict({0: 1, **counts})
            available["tuple-enumeration"] = lambda n, p=enum_poly: _sum_from_poly(
                p, core.name, n
            )
    for name, fn in custom:
        available[name] = fn

    entries: list[CheckEntry] = []
    results: dict[str, dict[int, FormalSum]] = {
        name: {n: fn(n) for n in degrees} for name, fn in available.items()
    }
    names = list(results)
    for left, right in itertools.combinations(names, 2):
        counterexample = None
        for n in degrees:
            a, b = results[left][n], results[right][n]
            if a != b:
                counterexample = f"degree {n}: {left} gives {a}, {right} gives {b}"
                break
        entries.append(CheckEntry(left, right, degrees, counterexample is None, counterexample))
    if "derived-profile" in selected and fully_split and sources:
        counterexample = _derived_profile_counterexample(
            decomposed, sources, core.name, polys, degrees, shifts, seed
        )
        entries.append(CheckEntry("evaluated decompose", "derived-profile recursion",
                                  degrees, counterexample is None, counterexample))
    return CrosscheckReport(format_space(expr), tuple(entries))
