"""Independent recomputation strategies and the crosscheck harness."""

import importlib
import os
import random
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gottlieb
from gottlieb.decompose import _walk_chain, closed_form_bouquet, decompose
from gottlieb.formal import FormalSum, GenGottliebTerm, GottliebTerm
from gottlieb.oracle import (
    DERIVED_BUDGET,
    TUPLE_BUDGET,
    _tuple_budget_skip,
    crosscheck,
    random_splittable_expr,
    randomized_decompose,
    recursive_bouquet_coefficients,
    tuple_enumeration_shifts,
    uncurry,
)
from gottlieb.spaces import (
    Atom,
    Bouquet,
    MapSpace,
    Point,
    Product,
    Sphere,
    Susp,
    Torus,
    Wedge,
    parse_space,
)
from gottlieb.splitting import ShiftPolynomial, shift_polynomial, sphere_splitting

from conftest import run_capped, splittable_exprs

REPO = Path(__file__).resolve().parents[1]


def test_recursion_examples():
    assert recursive_bouquet_coefficients(1, 2).as_dict() == {0: 1, 1: 2, 2: 1}
    assert recursive_bouquet_coefficients(3, 1).as_dict() == {0: 1, 1: 3}
    assert recursive_bouquet_coefficients(2, 3).as_dict() == {0: 1, 1: 6, 2: 12, 3: 8}


def test_recursion_matches_binomial_closed_form():
    for m in range(1, 6):
        for n_iter in range(1, 13):
            poly = recursive_bouquet_coefficients(m, n_iter)
            assert poly.as_dict() == {
                j: (m**j) * comb(n_iter, j) for j in range(n_iter + 1)
            }, (m, n_iter)
            assert poly.total() == (1 + m) ** n_iter


def test_recursion_validation():
    with pytest.raises(ValueError):
        recursive_bouquet_coefficients(0, 1)
    with pytest.raises(ValueError):
        recursive_bouquet_coefficients(1, -1)
    # Zero iterations is the empty product.
    assert recursive_bouquet_coefficients(4, 0).as_dict() == {0: 1}


def test_recursion_refuses_a_fractional_circle_count():
    with pytest.raises(TypeError, match="circle count must be an integer, got 1.5"):
        recursive_bouquet_coefficients(1.5, 2)


def test_randomized_decompose_agrees_with_deterministic():
    rng = random.Random(2024)
    for trial in range(150):
        source = random_splittable_expr(rng)
        expr = MapSpace(source, Atom("Y"))
        degree = rng.randint(1, 4)
        randomized = randomized_decompose(expr, degree, rng=rng)
        assert randomized == decompose(expr, degree), (trial, source, degree)


def test_randomized_decompose_handles_residuals():
    expr = parse_space("map(B, Y)")
    assert randomized_decompose(expr, 2, rng=random.Random(1)) == decompose(expr, 2)
    deep = parse_space("map(susp(B, 2), map(S1, Y))")
    for seed in range(5):
        assert randomized_decompose(deep, 1, rng=random.Random(seed)) == decompose(deep, 1)


# Sources for random chains.  B is a residual atom and X has declared
# shifts.  The sources stay small because the recursive oracle that this
# walk replaced cost (total multiplicity per level)^levels.
_SHIFTS = {"X": (1, 2)}
_SPLITTABLE = st.one_of(splittable_exprs(0), st.just(Atom("X")))
_RESIDUAL = st.one_of(
    st.just(Atom("B")), st.integers(1, 3).map(lambda k: Susp(Atom("B"), k))
)
_MIXED_PRODUCT = st.tuples(
    st.lists(_SPLITTABLE, max_size=2), _RESIDUAL, st.lists(_SPLITTABLE, max_size=2)
).map(lambda t: Product((*t[0], t[1], *t[2])))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.one_of(_SPLITTABLE, _RESIDUAL, _MIXED_PRODUCT), min_size=1, max_size=6),
    st.sampled_from([Atom("Y"), Point()]),
    st.integers(1, 3),
)
def test_randomized_decompose_agrees_on_residual_chains(sources, core, degree):
    expr = core
    for source in reversed(sources):
        expr = MapSpace(source, expr)
    # One engine walk, read at several degrees in any order, is each
    # degree's decomposition.
    walk = _walk_chain(expr, _SHIFTS)
    for n in (degree, 1, degree + 2):
        expected = walk.at(n)
        assert expected == decompose(expr, n, _SHIFTS)
        for seed in range(3):
            assert randomized_decompose(expr, n, _SHIFTS, random.Random(seed)) == expected


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.sampled_from([Sphere(1), Torus(2), Bouquet(2), Atom("X"), Atom("B"), Susp(Atom("B"))]),
        min_size=2, max_size=10,
    ),
    st.integers(0, 2**32),
)
def test_equal_runs_across_residuals_agree_with_one_level_at_a_time(sources, seed):
    # Equal polynomials on both sides of a residual are one merged run in
    # the core's product and apart in the residual's prefix product; the
    # randomized walk multiplies one level at a time.
    expr = Atom("Y")
    for source in reversed(sources):
        expr = MapSpace(source, expr)
    expected = randomized_decompose(expr, 1, _SHIFTS, random.Random(seed))
    assert decompose(expr, 1, _SHIFTS) == expected


def _raised(formal_sum: FormalSum, k: int) -> FormalSum:
    """``formal_sum`` with every G degree and every Gen suspension count raised by k."""
    pairs = []
    for term, mult in formal_sum:
        if isinstance(term, GottliebTerm):
            term = GottliebTerm(term.space, term.degree + k)
        else:
            term = GenGottliebTerm(term.source, term.suspensions + k, term.target)
        pairs.append((term, mult))
    return FormalSum.from_pairs(pairs)


_LEVEL = st.one_of(
    _SPLITTABLE,
    st.integers(1, 3).map(Torus),
    st.integers(1, 3).map(Bouquet),
    _RESIDUAL,
    _MIXED_PRODUCT,
)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.lists(_LEVEL, max_size=3), _RESIDUAL, st.lists(_LEVEL, max_size=3)),
    st.sampled_from([Atom("Y"), Point()]),
    st.sampled_from([2, 3, 10**20]),
    st.integers(0, 2**32),
)
def test_a_degree_is_an_offset_of_the_degree_one_answer(chain, core, n, seed):
    # The premise of comparing strategies at one degree: degree n is
    # degree 1 with every G degree and Gen suspension count raised by
    # n - 1.  Every chain has a residual level.
    outer, residual, inner = chain
    expr = core
    for source in reversed([*outer, residual, *inner]):
        expr = MapSpace(source, expr)
    expected = _raised(decompose(expr, 1, _SHIFTS), n - 1)
    assert decompose(expr, n, _SHIFTS) == expected
    assert randomized_decompose(expr, n, _SHIFTS, random.Random(seed)) == expected


@given(st.integers(1, 5), st.integers(1, 8), st.sampled_from([2, 3, 10**20]))
def test_the_closed_form_reads_a_degree_as_an_offset(circles, iterations, n):
    expected = _raised(closed_form_bouquet(circles, iterations, 1, "Y"), n - 1)
    assert closed_form_bouquet(circles, iterations, n, "Y") == expected


def test_wrong_power_is_caught_by_the_oracles(monkeypatch):
    # The engine forms its product of runs in one call; the oracles
    # multiply one level at a time or use binomials, so a faulty product
    # cannot agree with them.
    engine = importlib.import_module("gottlieb.decompose")

    assert crosscheck("loop(Y, 4)", [1, 2, 3]).passed
    right = engine.charged_product

    def wrong(runs):
        power = right(runs)
        return ShiftPolynomial(power.coeffs + ((power.max_shift + 1, 1),))

    monkeypatch.setattr(engine, "charged_product", wrong)
    report = crosscheck("loop(Y, 4)", [1, 2, 3])
    assert not report.passed
    failed = {(e.left, e.right) for e in report.entries if not e.passed}
    others = {"randomized", "closed-form", "recursion", "polynomial", "tuple-enumeration"}
    assert failed >= {("deterministic", name) for name in others}
    assert all(e.passed for e in report.entries if "deterministic" not in e.left
               and e.left != "evaluated decompose")


def _counted_walk(monkeypatch, extra=None):
    """Wrap the engine's walk as crosscheck sees it; returns (walks, degrees read)."""
    import gottlieb.oracle as oracle

    walks: list = []
    degrees: list[int] = []
    walk_chain = oracle._walk_chain

    def counted(expr, atom_shifts=None):
        walk = walk_chain(expr, atom_shifts)
        walks.append(expr)
        at = walk.at

        def read(n, kind=GottliebTerm):
            degrees.append(n)
            result = at(n, kind)
            return result if extra is None else result + extra(n)

        walk.at = read
        return walk

    monkeypatch.setattr(oracle, "_walk_chain", counted)
    return walks, degrees


def test_crosscheck_walks_the_engine_once(monkeypatch):
    # Patch the engine module's walk, which decompose calls, and the
    # walk crosscheck imports: either way the chain is walked once per
    # call, not once per degree of the window.
    import gottlieb.oracle as oracle

    engine = importlib.import_module("gottlieb.decompose")
    walk_chain = engine._walk_chain
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return walk_chain(*args, **kwargs)

    monkeypatch.setattr(engine, "_walk_chain", counted)
    monkeypatch.setattr(oracle, "_walk_chain", counted, raising=False)
    assert crosscheck("loop(Y, 4)", [1, 2, 3]).passed
    assert len(calls) == 1


def test_crosscheck_reads_each_degree_off_one_walk(monkeypatch):
    walks, degrees = _counted_walk(monkeypatch)
    report = crosscheck("loop(Y, 4)", [1, 2, 3])
    assert report.passed
    assert len(report.entries) == 16
    assert len(walks) == 1
    assert set(degrees) == {1, 2, 3}


def test_wrong_decompose_fails_the_engine_comparisons_and_the_derived_profile(monkeypatch):
    # The extra term asks for a degree the synthetic table of Y leaves
    # unknown, so the evaluated answer is incomplete at every degree.
    walks, degrees = _counted_walk(
        monkeypatch, extra=lambda n: FormalSum.single(GottliebTerm("Y", n + 50))
    )
    report = crosscheck("loop(Y, 4)", [1, 2, 3])
    failed = {(e.left, e.right) for e in report.entries if not e.passed}
    others = {"randomized", "closed-form", "recursion", "polynomial", "tuple-enumeration"}
    assert failed == {("deterministic", name) for name in others} | {
        ("evaluated decompose", "derived-profile recursion")
    }
    assert len(walks) == 1
    # Once for the pairs, and once by derived-profile, which stops at its
    # first mismatch.
    assert degrees == [1, 1]


_ALL = [
    "deterministic", "randomized", "closed-form", "recursion", "polynomial",
    "tuple-enumeration", "derived-profile",
]


def test_each_strategy_is_called_at_the_window_first_degree(monkeypatch):
    import gottlieb.oracle as oracle

    called: dict[str, list[int]] = {}

    def wrapped(name, fn, degree_at):
        def call(*args, **kwargs):
            called.setdefault(name, []).append(args[degree_at])
            return fn(*args, **kwargs)
        return call

    for name, degree_at in (("randomized_decompose", 1), ("closed_form_bouquet", 2),
                            ("_sum_from_poly", 2)):
        monkeypatch.setattr(oracle, name, wrapped(name, getattr(oracle, name), degree_at))
    _, degrees = _counted_walk(monkeypatch)
    custom = wrapped("custom", lambda n: closed_form_bouquet(2, 3, n, "Y"), 0)
    report = crosscheck("bloop(Y, 2, 3)", [3, 1, 2], strategies=[*_ALL, ("custom", custom)])
    assert report.passed
    assert called == {
        "randomized_decompose": [1],
        "closed_form_bouquet": [1],
        "_sum_from_poly": [1, 1, 1],  # recursion, polynomial, tuple-enumeration
        "custom": [1],
    }
    # The engine once for the pairs; derived-profile reads every degree.
    assert degrees == [1, 1, 2, 3]
    assert {e.degrees for e in report.entries} == {(1, 2, 3)}


def test_a_step_one_range_is_used_as_given():
    window = range(2, 6)
    report = crosscheck("map(S1, Y)", window)
    assert report.passed
    assert all(e.degrees is window for e in report.entries)
    assert report.lines()[1] == "  PASS deterministic == randomized on degrees 2..5"
    # Any other window is sorted and deduplicated.
    for other, degrees in (([5, 2, 5, 3], (2, 3, 5)), (range(5, 1, -1), (2, 3, 4, 5)),
                           (iter([3, 2]), (2, 3))):
        assert {e.degrees for e in crosscheck("map(S1, Y)", other).entries} == {degrees}
    with pytest.raises(ValueError, match="non-empty"):
        crosscheck("map(S1, Y)", range(3, 3))
    with pytest.raises(ValueError, match="degree must be >= 1"):
        crosscheck("map(S1, Y)", range(0, 10**20))


def test_a_huge_range_is_checked_at_its_first_degree():
    start = time.perf_counter()
    report = crosscheck("map(T40, Y)", range(1, 10**20 + 1))
    elapsed = time.perf_counter() - start
    assert report.passed
    assert [name for name, _ in report.skipped] == ["tuple-enumeration", "derived-profile"]
    assert len(report.entries) == 10
    assert report.lines()[1] == (
        "  PASS deterministic == randomized on degrees 1..100000000000000000000"
    )
    assert elapsed < 1, elapsed


def test_derived_profile_alone_walks_the_engine_once(monkeypatch):
    walks, degrees = _counted_walk(monkeypatch)
    report = crosscheck("map(T2, Y)", [1, 2], strategies=["derived-profile"])
    assert report.passed
    assert [(e.left, e.right) for e in report.entries] == [
        ("evaluated decompose", "derived-profile recursion")
    ]
    assert len(walks) == 1
    assert sorted(degrees) == [1, 2]


def test_randomized_decompose_walks_deep_loops():
    # The walk carries a dict down the chain, so depth is not bounded by
    # the recursion limit.
    assert randomized_decompose(parse_space("loop(Y, 2000)"), 1) == closed_form_bouquet(
        1, 2000, 1, "Y"
    )


@pytest.mark.parametrize(
    "expr",
    ["bloop(Y, 3, 8)", "map(susp(prod(" + ", ".join(["wedge(S1, S2, S3)"] * 8) + ")), Y)"],
)
def test_randomized_strategy_follows_the_answer_not_the_multiset(expr):
    # The answer has at most 25 terms; the multiset it stands for has 4^8.
    start = time.perf_counter()
    report = crosscheck(expr, [1], strategies=["deterministic", "randomized"])
    elapsed = time.perf_counter() - start
    assert report.passed
    assert elapsed < 0.5, elapsed


def test_derived_profile_follows_the_answer_not_the_multiset():
    # bloop(Y, 3, 10) at degree 1 is (1 + 3t)^10: 4^10 table lookups
    # summed, in 11 distinct degrees.
    start = time.perf_counter()
    report = crosscheck("bloop(Y, 3, 10)", [1], strategies=["derived-profile"])
    elapsed = time.perf_counter() - start
    assert report.passed
    assert [e.right for e in report.entries] == ["derived-profile recursion"]
    assert elapsed < 2, elapsed


def test_randomized_decompose_rejects_bad_targets():
    with pytest.raises(ValueError):
        randomized_decompose(Sphere(2), 1)
    with pytest.raises(ValueError):
        randomized_decompose(Atom("Y"), 0)


def test_tuple_enumeration_examples():
    # Factors {1} and {2}: singletons and the one cross pair.
    assert tuple_enumeration_shifts([(1,), (2,)]) == {1: 1, 2: 1, 3: 1}
    # Torus of dimension three.
    assert tuple_enumeration_shifts([(1,), (1,), (1,)]) == {1: 3, 2: 3, 3: 1}
    assert tuple_enumeration_shifts([]) == {}


def test_tuple_enumeration_matches_polynomial():
    rng = random.Random(9)
    for _ in range(50):
        factors = [
            tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))
        ]
        counts = tuple_enumeration_shifts(factors)
        poly = shift_polynomial(Product(tuple(Wedge(tuple(Sphere(d) for d in f)) for f in factors)))
        assert {0: 1, **counts} == poly.as_dict(), factors


def test_uncurry():
    expr = parse_space("map(prod(S1, S2), map(S3, Y))")
    sources, core = uncurry(expr)
    assert sources == (Sphere(1), Sphere(2), Sphere(3))
    assert core == Atom("Y")
    assert uncurry(Atom("Y")) == ((), Atom("Y"))
    # Sugar is expanded before flattening.
    assert uncurry(parse_space("loop(Y, 2)"))[0] == (Sphere(1), Sphere(1))


def test_random_splittable_expr_always_splits():
    rng = random.Random(0)
    for _ in range(200):
        assert sphere_splitting(random_splittable_expr(rng)).splittable


def test_crosscheck_passes_on_bouquet_towers():
    report = crosscheck("bloop(Y, 2, 3)", degrees=range(1, 4))
    assert report.passed
    names = {(e.left, e.right) for e in report.entries}
    # All four sum-level strategies apply here, plus the profile check.
    flattened = {n for pair in names for n in pair}
    assert {
        "deterministic",
        "randomized",
        "closed-form",
        "recursion",
        "polynomial",
        "tuple-enumeration",
        "evaluated decompose",
    } <= flattened
    assert report.lines()[0] == "crosscheck bloop(Y, 2, 3)"
    assert all(line.startswith("  PASS") for line in report.lines()[1:])


def test_crosscheck_on_torus_mapping_space():
    report = crosscheck("map(T3, Y)", degrees=[1, 2, 3, 4])
    assert report.passed
    used = {n for e in report.entries for n in (e.left, e.right)}
    assert "closed-form" in used  # recognized as an iterated free loop space


def test_crosscheck_strategy_filtering():
    report = crosscheck("map(T2, Y)", [1, 2], strategies=["deterministic", "polynomial"])
    assert report.passed
    assert len(report.entries) == 1
    assert {report.entries[0].left, report.entries[0].right} == {
        "deterministic",
        "polynomial",
    }
    with pytest.raises(ValueError):
        crosscheck("map(T2, Y)", [1], strategies=["no-such-strategy"])
    with pytest.raises(ValueError):
        crosscheck("map(T2, Y)", [])


def test_crosscheck_uses_atom_shifts():
    report = crosscheck("map(X, Y)", [1, 2], atom_shifts={"X": (5, 10)})
    assert report.passed
    used = {n for e in report.entries for n in (e.left, e.right)}
    assert "polynomial" in used


def test_fault_injection_is_reported_not_raised():
    def broken(n: int) -> FormalSum:
        # Drops the shifted term the free loop space must carry.
        return FormalSum.single(GottliebTerm("Y", n))

    report = crosscheck(
        "map(S1, Y)",
        degrees=[1, 2],
        strategies=["deterministic", ("broken", broken)],
    )
    assert not report.passed
    entry = report.entries[0]
    assert {entry.left, entry.right} == {"deterministic", "broken"}
    assert entry.counterexample is not None
    assert "degree 1" in entry.counterexample
    assert any("FAIL" in line for line in report.lines())


def test_crosscheck_seed_determinism():
    a = crosscheck("map(T2, Y)", [1, 2, 3], seed=5)
    b = crosscheck("map(T2, Y)", [1, 2, 3], seed=5)
    assert a == b


def test_residual_expressions_skip_polynomial_strategies():
    report = crosscheck("map(B2x, Y)", degrees=[1, 2])
    assert report.passed
    used = {n for e in report.entries for n in (e.left, e.right)}
    assert "polynomial" not in used
    assert "tuple-enumeration" not in used
    assert {"deterministic", "randomized"} <= used


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.one_of(_SPLITTABLE, _RESIDUAL, _MIXED_PRODUCT), max_size=6),
    st.sampled_from([Atom("Y"), Point()]),
    st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True),
    st.integers(0, 2**32),
)
def test_randomized_decompose_agrees_with_decompose_at_every_degree(sources, core, window, seed):
    expr = core
    for source in reversed(sources):
        expr = MapSpace(source, expr)
    for n in window:
        assert randomized_decompose(expr, n, _SHIFTS, random.Random(seed)) == decompose(
            expr, n, _SHIFTS
        )


def test_randomized_decompose_merges_residual_families_that_meet():
    # Gen[Σ^2 B -> Y] comes from susp(B) at offset 0 and from B at offset 1.
    expr = parse_space("map(prod(susp(B), S1, B), Y)")
    for seed in range(5):
        for n in (1, 2):
            assert randomized_decompose(expr, n, rng=random.Random(seed)) == decompose(expr, n)


@pytest.mark.parametrize(
    ("expr", "entries"),
    [("bloop(Y, 2, 3)", 16), ("loop(Y, 4)", 16), ("map(prod(S2, wedge(S1, S3)), Y)", 7)],
)
def test_small_checks_run_every_strategy(expr, entries):
    report = crosscheck(expr, [1, 2, 3], seed=12)
    assert report.passed
    assert len(report.entries) == entries
    assert report.skipped == ()
    assert report.lines()[-1].startswith("  PASS")


def _counted_inits(monkeypatch, cls):
    calls = []
    init = cls.__init__

    def counted(self, *args, **kw):
        calls.append(cls.__name__)
        init(self, *args, **kw)

    monkeypatch.setattr(cls, "__init__", counted)
    return calls


def test_derived_profile_builds_no_records_per_level(monkeypatch):
    from gottlieb.profiles import ProfileDb, SpaceProfile

    spaces = _counted_inits(monkeypatch, SpaceProfile)
    dbs = _counted_inits(monkeypatch, ProfileDb)
    counts = []
    for expr in ("loop(Y, 4)", "loop(Y, 40)"):
        spaces.clear()
        dbs.clear()
        report = crosscheck(expr, [1, 2], strategies=["derived-profile"])
        assert [e.right for e in report.entries] == ["derived-profile recursion"]
        assert report.passed
        counts.append((len(spaces), len(dbs)))
    assert counts[0] == counts[1], counts


def test_a_fold_that_drops_a_coefficient_fails_the_derived_profile(monkeypatch):
    import gottlieb.oracle as oracle

    fold = oracle._fold_table

    def dropping(table, poly, degrees, target):
        return fold(table, ShiftPolynomial(poly.coeffs[:-1]), degrees, target)

    monkeypatch.setattr(oracle, "_fold_table", dropping)
    report = crosscheck("map(T2, Y)", [1, 2, 3], seed=4)
    failed = [e for e in report.entries if not e.passed]
    assert [(e.left, e.right) for e in failed] == [
        ("evaluated decompose", "derived-profile recursion")
    ]
    assert failed[0].counterexample.startswith("degree 1: direct=")


@pytest.mark.parametrize(("expr", "circles"), [("loop(Y, 30)", 30), ("map(T40, Y)", 40)])
def test_tuple_enumeration_is_skipped_over_its_budget(expr, circles):
    start = time.perf_counter()
    report = crosscheck(expr, [1])
    elapsed = time.perf_counter() - start
    assert report.passed
    reason = (f"the number of tuples tuple-enumeration enumerates is 2^{circles}, "
              "over the ceiling TUPLE_BUDGET = 100000")
    assert report.skipped == (("tuple-enumeration", reason),)
    assert report.lines()[-1] == f"  SKIP tuple-enumeration: {reason}"
    assert "tuple-enumeration" not in {n for e in report.entries for n in (e.left, e.right)}
    assert elapsed < 1, elapsed


def test_tuple_budget_reads_the_polynomials_not_the_shifts():
    # B<10^20> has 10^20 shifts; refusing it must not expand them.
    polys = [shift_polynomial(parse_space(s)) for s in ("B100000000000000000000", "S1", "T2")]
    assert _tuple_budget_skip(polys) == (
        "the number of tuples tuple-enumeration enumerates is 2 * 4 * 100000000000000000001, "
        "over the ceiling TUPLE_BUDGET = 100000"
    )
    # At the budget it still runs: 4^8 tuples.
    width8 = "map(prod(" + ", ".join(["wedge(S1, S2, S3)"] * 8) + "), Y)"
    assert 4**8 <= TUPLE_BUDGET
    report = crosscheck(width8, [1], strategies=["polynomial", "tuple-enumeration"])
    assert report.passed and len(report.entries) == 1 and report.skipped == ()


def test_derived_profile_runs_at_loop_400_and_is_skipped_past_its_budget():
    report = crosscheck("loop(Y, 400)", [1, 2, 3, 4], strategies=["derived-profile"])
    assert report.passed and report.skipped == ()
    assert [e.right for e in report.entries] == ["derived-profile recursion"]
    # At degree 1, level k of a chain of N circles needs k + 1 degrees, 2
    # lookups each: N (N + 1) in all.
    assert 400 * 401 <= DERIVED_BUDGET < 448 * 449
    report = crosscheck("loop(Y, 448)", [1], strategies=["derived-profile"])
    assert report.entries == ()
    assert report.skipped == (
        ("derived-profile", f"the number of table lookups the derived-profile fold makes is "
                            f"{448 * 449}, over the ceiling DERIVED_BUDGET = 200000"),
    )


def test_crosscheck_of_a_long_loop_ends():
    start = time.perf_counter()
    report = crosscheck("loop(Y, 2000)", [1])
    elapsed = time.perf_counter() - start
    assert report.passed
    assert [name for name, _ in report.skipped] == ["tuple-enumeration", "derived-profile"]
    assert len(report.entries) == 10
    assert elapsed < 10, elapsed


@pytest.mark.parametrize(
    ("expr", "strategies"),
    [
        ("loop(Y, 2)", []),
        ("loop(Y, 2)", ["deterministic"]),
        ("map(B, Y)", ["deterministic", "polynomial", "derived-profile"]),
    ],
)
def test_a_crosscheck_that_compares_nothing_raises(expr, strategies):
    with pytest.raises(ValueError, match="nothing to compare"):
        crosscheck(expr, [1], strategies=strategies)


def test_crosscheck_rejects_non_integer_degrees():
    with pytest.raises(TypeError):
        crosscheck("loop(Y, 2)", [1.5])
    with pytest.raises(TypeError):
        randomized_decompose(parse_space("loop(Y, 2)"), 1.5)


def test_run_crosschecks_corpus_passes_on_a_huge_window():
    # The script's fixed cases, residual ones included, and the range path.
    env = dict(os.environ, PYTHONPATH=str(Path(gottlieb.__file__).parents[1]))
    result, elapsed = run_capped(
        [sys.executable, str(REPO / "scripts" / "run_crosschecks.py"), "--count", "20",
         "--seed", "3", "--degrees", f"1..{10**20}"], env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith(" 0 failing\n"), result.stdout
    assert elapsed < 5, elapsed


@pytest.mark.parametrize("window", ["a..b", "0..3", "3..1"])
def test_run_crosschecks_rejects_bad_degree_windows(window):
    env = dict(os.environ, PYTHONPATH=str(Path(gottlieb.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_crosschecks.py"), "--degrees", window],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 2
    assert "usage:" in result.stderr
    assert "--degrees" in result.stderr
    assert "Traceback" not in result.stderr
