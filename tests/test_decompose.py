"""The decomposition rewrite engine and its closed bouquet form."""

import importlib
import os
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gottlieb
from conftest import run_capped, space_exprs, splittable_exprs
from gottlieb.decompose import DecomposeError, _walk_chain, closed_form_bouquet, decompose
from gottlieb.formal import FormalSum, GenGottliebTerm, GottliebTerm, PiTerm, term_text
from gottlieb.oracle import crosscheck
from gottlieb.spaces import (
    Atom,
    MapSpace,
    Point,
    Product,
    Sphere,
    Susp,
    desugar,
    parse_space,
)
from gottlieb.splitting import ShiftPolynomial


def _g(degree, space="Y"):
    return GottliebTerm(space, degree)


def test_free_loop_prototype():
    for n in range(1, 11):
        expected = FormalSum.from_pairs([(_g(n), 1), (_g(n + 1), 1)])
        assert decompose(parse_space("map(S1, Y)"), n) == expected
        assert decompose(parse_space("loop(Y)"), n) == expected


def test_torus_example():
    result = decompose(parse_space("map(T2, Y)"), 1)
    assert str(result) == "G[1](Y) + 2*G[2](Y) + G[3](Y)"


def test_a_residual_family_reaches_shift_two():
    # The blocked level of A is reached with 1 + 2t + t^2, so its family
    # has a term past shift 1.
    result = decompose(parse_space("map(T2, map(A, Y))"), 1)
    assert str(result) == (
        "G[1](Y) + 2*G[2](Y) + G[3](Y) + "
        "Gen[Σ^1 A -> Y] + 2*Gen[Σ^2 A -> Y] + Gen[Σ^3 A -> Y]"
    )


def test_point_rules():
    assert decompose(parse_space("map(pt, Y)"), 3) == FormalSum.single(_g(3))
    assert decompose(Point(), 5) == FormalSum.zero()
    assert decompose(parse_space("map(S1, pt)"), 2) == FormalSum.zero()
    assert decompose(Atom("Y"), 2) == FormalSum.single(_g(2))


def test_atom_shifts_feed_the_splitting():
    result = decompose(parse_space("map(X, Y)"), 1, atom_shifts={"X": (5, 10)})
    assert str(result) == "G[1](Y) + G[6](Y) + G[11](Y)"


def test_residual_terms():
    result = decompose(parse_space("map(susp(B), Y)"), 3)
    assert str(result) == "G[3](Y) + Gen[Σ^4 B -> Y]"
    assert result.multiplicity(GenGottliebTerm(Atom("B"), 4, Atom("Y"))) == 1

    bare = decompose(parse_space("map(B, Y)"), 2)
    assert str(bare) == "G[2](Y) + Gen[Σ^2 B -> Y]"

    # The residual keeps the target verbatim while the target still
    # contributes its own decomposition.
    nested = decompose(parse_space("map(B, map(S1, Y))"), 1)
    assert str(nested) == "G[1](Y) + G[2](Y) + Gen[Σ^1 B -> map(S1, Y)]"


def test_engine_terms_equal_checked_terms():
    # The walk builds its terms without the constructors' checks; each must
    # still be the value, hash and repr the public constructor makes.
    for text in ("map(B, map(S1, loop(Y, 3)))", "map(prod(susp(B), T2), Y)", "bloop(Y, 2, 4)"):
        for term, _ in decompose(parse_space(text), 2):
            fields = [getattr(term, name) for name in term.__match_args__]
            checked = type(term)(*fields)
            assert (term, hash(term), repr(term)) == (checked, hash(checked), repr(checked))


def test_residual_targets_keep_the_remaining_curried_factors():
    # Multi-factor products curry left to right, and each residual keeps the
    # rest of the chain as its target, printed verbatim.
    three = decompose(parse_space("map(prod(A, B, C), Y)"), 1)
    assert str(three) == (
        "G[1](Y) + Gen[Σ^1 A -> map(prod(B, C), Y)] + Gen[Σ^1 B -> map(C, Y)] "
        "+ Gen[Σ^1 C -> Y]"
    )
    mixed = decompose(parse_space("map(prod(A, S1, susp(B, 2)), Y)"), 1)
    assert str(mixed) == (
        "G[1](Y) + G[2](Y) + Gen[Σ^1 A -> map(prod(S1, susp(B, 2)), Y)] "
        "+ Gen[Σ^3 B -> Y] + Gen[Σ^4 B -> Y]"
    )


def test_families_sharing_a_source_text_interleave_by_suspension():
    result = decompose(parse_space("map(A, map(S1, map(A, Y)))"), 2)
    assert str(result) == (
        "G[2](Y) + G[3](Y) + Gen[Σ^2 A -> Y] + Gen[Σ^2 A -> map(S1, map(A, Y))] "
        "+ Gen[Σ^3 A -> Y]"
    )


_SOURCES = st.one_of(
    space_exprs(), st.sampled_from([Atom("A"), Sphere(1), Susp(Atom("A")), Susp(Atom("A"), 2)])
)


@settings(max_examples=150)
@given(st.lists(_SOURCES, min_size=1, max_size=4), st.sampled_from([Atom("Y"), Point()]),
       st.integers(1, 3), st.sampled_from([GottliebTerm, PiTerm]))
def test_the_walk_puts_its_answer_in_canonical_order_and_renders_each_term(
    sources, core, n, kind
):
    # The walk orders its terms by precomputed texts and __str__ renders the
    # common kinds itself; both must agree with the checked constructor and
    # with term_text.  Repeated sources make families that share a text.
    expr = core
    for source in reversed(sources):
        expr = MapSpace(source, expr)
    result = _walk_chain(expr, {"B": (1, 2)}).at(n, kind)
    assert FormalSum(result.terms).terms == result.terms
    parts = [term_text(term) if mult == 1 else f"{mult}*{term_text(term)}"
             for term, mult in result]
    assert str(result) == (" + ".join(parts) or "0")


def test_suspension_folds_into_residual_exponent():
    deep = decompose(parse_space("map(susp(susp(B, 2)), Y)"), 1)
    assert deep.multiplicity(GenGottliebTerm(Atom("B"), 4, Atom("Y"))) == 1


def test_degree_validation():
    with pytest.raises(ValueError):
        decompose(Atom("Y"), 0)
    with pytest.raises(ValueError):
        decompose(Atom("Y"), -3)
    with pytest.raises(TypeError):
        decompose(Atom("Y"), 1.5)
    with pytest.raises(TypeError):
        decompose(Atom("Y"), True)


def test_unreducible_targets_are_rejected():
    with pytest.raises(DecomposeError):
        decompose(Sphere(2), 1)
    with pytest.raises(DecomposeError):
        decompose(parse_space("wedge(S1, S2)"), 1)
    with pytest.raises(DecomposeError):
        decompose(parse_space("T2"), 1)
    with pytest.raises(DecomposeError):
        decompose(parse_space("map(S1, prod(S1, S1))"), 1)


def test_output_is_deterministic():
    expr = parse_space("map(prod(T2, wedge(S2, S3)), Y)")
    assert str(decompose(expr, 2)) == str(decompose(expr, 2))
    assert decompose(expr, 2) == decompose(expr, 2)


def test_closed_form_bouquet_examples():
    result = closed_form_bouquet(2, 3, 1, "Y")
    assert [result.multiplicity(_g(1 + j)) for j in range(4)] == [1, 6, 12, 8]
    single = closed_form_bouquet(1, 1, 4, Atom("Y"))
    assert str(single) == "G[4](Y) + G[5](Y)"


def test_closed_form_bouquet_validation():
    with pytest.raises(ValueError):
        closed_form_bouquet(0, 1, 1, "Y")
    with pytest.raises(ValueError):
        closed_form_bouquet(1, 0, 1, "Y")
    with pytest.raises(ValueError):
        closed_form_bouquet(1, 1, 0, "Y")
    with pytest.raises(TypeError):
        closed_form_bouquet(1, 1, 1, Sphere(1))


def test_closed_form_matches_engine_on_deep_towers():
    # Ten-level towers: the engine's single pass must match the closed form.
    for m, n in ((1, 1), (2, 3), (4, 5)):
        expr = parse_space(f"bloop(Y, {m}, 10)")
        assert decompose(expr, n) == closed_form_bouquet(m, 10, n, "Y")


def test_loop_depth_is_not_bounded_by_the_recursion_limit():
    expr = parse_space("loop(Y, 2000)")
    assert decompose(expr, 1) == closed_form_bouquet(1, 2000, 1, "Y")


@pytest.mark.parametrize(
    "text", ["loop(Y, 2000)", "bloop(Y, 2, 1500)", "loop(map(susp(A, 2), Y), 2000)"]
)
def test_desugared_deep_chains_decompose(text):
    # desugar walks target chains in a loop: the desugared tree, and
    # desugaring it again, decompose like the sugared one.
    expected = decompose(parse_space(text), 1)
    once = desugar(parse_space(text))
    assert desugar(once) == once
    assert decompose(once, 1) == expected


@pytest.mark.parametrize("text, terms", [("loop(Y, 2000)", 2001), ("map(T1000, Y)", 1001)])
def test_deep_chains_are_fast(text, terms):
    # One power per run: 3.0 s and 0.55 s when each level was a product.
    expr = parse_space(text)
    start = time.perf_counter()
    result = decompose(expr, 1)
    assert time.perf_counter() - start < 0.5
    assert len(result) == terms


@pytest.mark.parametrize(
    "text, message",
    [
        ("bloop(Y, 10, 5000)", "5207 digits exceed the size budget of 4000 digits"),
        ("map(T200000, Y)", "200000 exceeds the size budget of 10000"),
        ("loop(loop(Y, 6000), 6000)", "12000 exceeds the size budget of 10000"),
        ("map(prod(S1, S2), loop(Y, 9999))", "10002 exceeds the size budget of 10000"),
        # Totals over every run of the chain, the degree before the digits.
        ("map(T6000, map(T6000, loop(Y, 6000)))", "18000 exceeds the size budget of 10000"),
        ("bloop(map(T20000, Y), 10, 5000)", "25000 exceeds the size budget of 10000"),
    ],
)
def test_size_budget_is_checked_before_any_power(text, message):
    start = time.perf_counter()
    with pytest.raises(DecomposeError) as err:
        decompose(parse_space(text), 1)
    assert time.perf_counter() - start < 1
    assert message in str(err.value)


_ROWS = """
import sys, time
from gottlieb import decompose, parse_space
for text in sys.argv[1:]:
    start = time.perf_counter()
    result = decompose(parse_space(text), 1)
    print(time.perf_counter() - start, len(result), sum(count for _, count in result))
"""


_ENV = dict(os.environ, PYTHONPATH=str(Path(gottlieb.__file__).parents[1]))


def test_dense_runs_of_distinct_levels_cost_their_answer():
    # All runs go through one recurrence.  Multiplying the two dense
    # powers term by term took minutes on each of these rows.
    rows = {
        "map(T5000, bloop(Y, 2, 4999))": 2**5000 * 3**4999,
        "map(susp(prod(T5000, T4999)), Y)": 2**9999,
    }
    result, _ = run_capped([sys.executable, "-c", _ROWS, *rows], _ENV, timeout=30)
    assert result.returncode == 0, result.stderr
    for line, total in zip(result.stdout.splitlines(), rows.values(), strict=True):
        seconds, terms, multiplicities = line.split()
        assert float(seconds) < 1, line
        assert (int(terms), int(multiplicities)) == (10000, total)


_PREFIXES = """
import sys, time
from gottlieb import parse_space
from gottlieb.decompose import _walk_chain
start = time.perf_counter()
walk = _walk_chain(parse_space(sys.argv[1]), None)
print(time.perf_counter() - start, *(walk.prefixes[n].total() for n in sorted(walk.prefixes)))
"""


def test_residual_prefixes_multiply_no_dense_polynomials():
    # 6000 circles, a residual, 3000 more and another residual.  The second
    # prefix as the first times (1 + t)^3000 is a dense product of minutes;
    # from running totals it is one power of the circle.
    chain = "loop(map(A, map(T3000, map(B, loop(Y, 3)))), 6000)"
    result, _ = run_capped([sys.executable, "-c", _PREFIXES, chain], _ENV, timeout=30)
    assert result.returncode == 0, result.stderr
    seconds, *totals = result.stdout.split()
    assert float(seconds) < 1, seconds
    assert [int(total) for total in totals] == [2**6000, 2**9000, 2**9003]


def test_residual_terms_are_ordered_without_formatting_each_target():
    # Two residual families of 6001 and 9001 terms over targets of about
    # 3000 nodes.  Formatting the target of every term to sort them took
    # 15 s; each family's texts are now formatted once.
    chain = "loop(map(A, map(T3000, map(B, loop(Y, 3)))), 6000)"
    result, _ = run_capped([sys.executable, "-c", _ROWS, chain], _ENV, timeout=60)
    assert result.returncode == 0, result.stderr
    seconds, terms, _ = result.stdout.split()
    assert int(terms) == 24006
    assert float(seconds) < 2, seconds


_REFUSED = """
import sys
from gottlieb import DecomposeError, decompose, parse_space
from gottlieb.splitting import sphere_splitting
for call, text in ((lambda e: decompose(e, 1), sys.argv[1]), (sphere_splitting, sys.argv[2])):
    try:
        call(parse_space(text))
    except DecomposeError as err:
        print(err)
"""


def test_distinct_levels_and_factors_are_charged_before_any_is_formed():
    # Each susp(T<N>) is in budget alone, about 9000 coefficients of up to
    # 2700 digits; a hundred of them, as levels of a chain or as factors of
    # a product, are refused by their total degree with none formed.
    levels = [f"susp(T{9000 + i})" for i in range(100)]
    chain = "Y"
    for level in levels:
        chain = f"map({level}, {chain})"
    product = f"prod({', '.join(levels)})"
    result, elapsed = run_capped([sys.executable, "-c", _REFUSED, chain, product], _ENV)
    message = "answer too large: degree shift 905050 exceeds the size budget of 10000\n"
    assert (result.returncode, result.stdout) == (0, message * 2), result.stderr
    assert elapsed < 1, elapsed


_SHIFTS = {"X": (1, 2)}
_SAMPLE = [
    "map(T6, Y)",
    "loop(Y, 5)",
    "bloop(Y, 3, 4)",
    "map(B4, map(S2, map(B4, Y)))",
    "map(prod(S2, wedge(S1, S3), X, S2), Y)",
    "map(susp(prod(T3, X, T2, wedge(S1, S2))), Y)",
    "map(prod(T3, A), map(S1, map(susp(A, 2), loop(map(prod(A, X), Y), 2))))",
    "map(S1, map(A, map(T2, map(B, pt))))",
]


def test_the_engine_multiplies_no_two_polynomials(monkeypatch):
    # Every product the engine forms is one charged_product call, so the
    # polynomial oracle's one-at-a-time products check it independently.
    expected = [decompose(parse_space(text), 2, _SHIFTS) for text in _SAMPLE]

    def refused(self, other):
        raise AssertionError("two polynomials were multiplied")

    monkeypatch.setattr(ShiftPolynomial, "__mul__", refused)
    assert [decompose(parse_space(text), 2, _SHIFTS) for text in _SAMPLE] == expected
    others = ["deterministic", "randomized", "closed-form", "recursion",
              "tuple-enumeration", "derived-profile"]
    for text in ("map(prod(S2, wedge(S1, S3)), Y)", "loop(Y, 4)"):
        assert crosscheck(text, [1, 2], others).passed
        with pytest.raises(AssertionError, match="two polynomials were multiplied"):
            crosscheck(text, [1, 2], ["deterministic", "polynomial"])


def test_runs_split_each_distinct_source_once(monkeypatch):
    # The package root re-exports the function under the module's name.
    # The walk reads each distinct source's degree once; after the chain
    # is charged, each splittable distinct source is formed once.
    engine = importlib.import_module("gottlieb.decompose")
    calls = {"_degree": [], "_form": []}

    def counting(name):
        function = getattr(engine, name)

        def counted(source, atom_shifts):
            calls[name].append(str(source))
            return function(source, atom_shifts)

        monkeypatch.setattr(engine, name, counted)

    counting("_degree")
    counting("_form")
    expr = parse_space("map(prod(S1, S2, S1, T3), map(A, map(S2, loop(map(S1, Y), 5))))")
    result = decompose(expr, 1)
    assert sorted(calls["_degree"]) == ["A", "S1", "S2"]
    assert sorted(calls["_form"]) == ["S1", "S2"]
    assert result == decompose(desugar(expr), 1)
    assert str(result).startswith("G[1](Y) + 11*G[2](Y) + ")

    calls["_degree"].clear()
    calls["_form"].clear()
    expr = parse_space("map(susp(prod(S1, S2)), map(S1, map(susp(prod(S1, S2)), map(B2, Y))))")
    result = decompose(expr, 1)
    assert sorted(calls["_degree"]) == ["B2", "S1", "susp(prod(S1, S2))"]
    assert sorted(calls["_form"]) == ["B2", "S1", "susp(prod(S1, S2))"]
    assert result == decompose(desugar(expr), 1)


def test_a_blocked_source_is_refused_by_the_sum_of_its_copies_unbuilt(monkeypatch):
    # Each T9999 is under the expansion ceiling and their sum is over it.
    # The walk keeps the blocked source as written, and reading the
    # residual refuses it before a single product is built.
    def built(self):
        raise AssertionError("a product was built")

    expr = parse_space("map(wedge(A" + ", T9999" * 20 + "), Y)")
    monkeypatch.setattr(Product, "__post_init__", built)
    with pytest.raises(ValueError, match="^expansion of 199980 copies is over the ceiling"):
        decompose(expr, 1)


def test_residual_targets_print_desugared():
    result = decompose(parse_space("map(prod(A, T2, B2), bloop(Y, 2, 2))"), 1)
    assert str(result).endswith(
        "Gen[Σ^1 A -> map(prod(prod(S1, S1), wedge(S1, S1)), "
        "map(wedge(S1, S1), map(wedge(S1, S1), Y)))]"
    )


@settings(max_examples=60)
@given(splittable_exprs(), splittable_exprs(), st.integers(1, 3))
def test_currying_invariance(a, b, n):
    grouped = decompose(MapSpace(Product((a, b)), Atom("Y")), n)
    curried = decompose(MapSpace(a, MapSpace(b, Atom("Y"))), n)
    assert grouped == curried


@settings(max_examples=60)
@given(splittable_exprs(), st.integers(1, 3))
def test_multiplicities_match_shift_polynomial(expr, n):
    from gottlieb.splitting import shift_polynomial

    poly = shift_polynomial(expr)
    result = decompose(MapSpace(expr, Atom("Y")), n)
    for shift, count in poly.as_dict().items():
        assert result.multiplicity(_g(n + shift)) == count
    assert sum(m for _, m in result) == poly.total()


@settings(max_examples=40)
@given(splittable_exprs(), st.integers(1, 2), st.integers(1, 2))
def test_suspended_source_shifts_every_contribution(expr, k, n):
    from gottlieb.splitting import shift_polynomial

    # map(susp(A, k), Y): each positive shift of A moves up by k.
    lifted = decompose(MapSpace(Susp(expr, k), Atom("Y")), n)
    poly = shift_polynomial(expr)
    for shift, count in poly.as_dict().items():
        if shift == 0:
            assert lifted.multiplicity(_g(n)) == 1
        else:
            assert lifted.multiplicity(_g(n + shift + k)) == count
