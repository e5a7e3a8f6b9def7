"""Sphere splittings and shift polynomials."""

import time
from functools import reduce
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gottlieb.splitting as splitting
from conftest import space_exprs, splittable_exprs
from gottlieb.oracle import _times, tuple_enumeration_shifts
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
    desugar,
    parse_space,
)
from gottlieb.splitting import (
    MAX_DEGREE,
    MAX_DIGITS,
    DecomposeError,
    NotSplittableError,
    ShiftPolynomial,
    _degree,
    _form,
    charged_product,
    sphere_splitting,
    shift_polynomial,
)


def test_splitting_examples():
    assert sphere_splitting(Sphere(5)).shifts == (5,)
    assert sphere_splitting(Point()).shifts == ()
    assert sphere_splitting(Torus(3)).shifts == (1, 1, 1, 2, 2, 2, 3)
    assert sphere_splitting(Wedge((Sphere(1), Point(), Sphere(2)))).shifts == (1, 2)
    assert sphere_splitting(Bouquet(3)).shifts == (1, 1, 1)


def test_a_wedge_keeps_every_shift_of_each_child():
    # T2 splits as S1 v S1 v S2: a wedge child with two non-constant shifts.
    splitting = sphere_splitting(parse_space("wedge(T2, S1)"))
    assert splitting.shifts == (1, 1, 1, 2)
    assert splitting.poly.as_dict() == {0: 1, 1: 3, 2: 1}
    assert sphere_splitting(Susp(Sphere(2), 3)).shifts == (5,)
    assert sphere_splitting(parse_space("prod(S2, wedge(S1, S3))")).shifts == (
        1, 2, 3, 3, 5,
    )


def test_product_rule_is_pairwise_sums():
    # prod(S1, S2): each factor alone plus the cross term.
    assert sphere_splitting(Product((Sphere(1), Sphere(2)))).shifts == (1, 2, 3)
    assert sphere_splitting(Torus(2)).shifts == (1, 1, 2)


def test_atom_shifts():
    attached = sphere_splitting(Atom("X"), {"X": (5, 10)})
    assert attached.shifts == (5, 10)
    blocked = sphere_splitting(Atom("X"))
    assert not blocked.splittable
    assert blocked.blocker == Atom("X")
    assert blocked.reason == "atom has no declared suspension shifts"


def test_blocked_cases():
    result = sphere_splitting(MapSpace(Sphere(1), Atom("Y")))
    assert not result.splittable
    assert isinstance(result.blocker, MapSpace)

    # One blocked leaf poisons the whole expression.
    nested = sphere_splitting(Product((Sphere(2), Susp(Atom("B"), 2))))
    assert not nested.splittable
    assert nested.blocker == Atom("B")


def test_splitting_is_a_value_not_an_error():
    result = sphere_splitting(Atom("B"))
    assert result.shifts is None
    assert "not splittable" in str(result)
    assert str(sphere_splitting(Torus(2))) == "1 + 2*t^1 + t^2"


def test_a_splitting_prints_its_polynomial_not_its_spheres():
    # T100 splits into 2^100 - 1 spheres; its text has 101 terms.
    start = time.perf_counter()
    text = str(sphere_splitting(parse_space("T100")))
    assert time.perf_counter() - start < 0.5
    assert text.startswith("1 + 100*t^1 + 4950*t^2 + ")
    assert text.endswith(" + 100*t^99 + t^100")
    assert text.count("+") == 100


def test_shift_polynomial_examples():
    poly = shift_polynomial(parse_space("prod(S2, wedge(S1, S3))"))
    assert poly.as_dict() == {0: 1, 1: 1, 2: 1, 3: 2, 5: 1}
    assert poly.coefficient(3) == 2
    assert poly.coefficient(4) == 0
    assert poly.max_shift == 5
    assert poly.total() == 6
    assert str(poly) == "1 + t^1 + t^2 + 2*t^3 + t^5"


def test_shift_polynomial_requires_splitting():
    with pytest.raises(NotSplittableError) as err:
        shift_polynomial(MapSpace(Sphere(1), Atom("Y")))
    assert isinstance(err.value.blocker, MapSpace)
    assert err.value.reason


def test_polynomial_constant_term_is_pinned():
    assert ShiftPolynomial.one().as_dict() == {0: 1}
    with pytest.raises(ValueError):
        ShiftPolynomial(((0, 2),))
    with pytest.raises(ValueError):
        ShiftPolynomial(((1, 1),))  # missing constant term
    with pytest.raises(ValueError):
        ShiftPolynomial.from_shifts([0, 1])  # shifts start at 1


def test_polynomial_algebra():
    p = ShiftPolynomial.from_shifts([1])
    q = ShiftPolynomial.from_shifts([2])
    assert charged_product([(p, 1), (q, 1)]).as_dict() == {0: 1, 1: 1, 2: 1, 3: 1}
    assert charged_product([(p, 3)]).as_dict() == {0: 1, 1: 3, 2: 3, 3: 1}
    assert charged_product([(p, 2), (q, 1)]).as_dict() == {0: 1, 1: 2, 2: 2, 3: 2, 4: 1}
    assert charged_product([(p, 0)]) == charged_product([]) == ShiftPolynomial.one()


def _reference(runs) -> dict[int, int]:
    """The product of p^k over ``runs``, one oracle product per factor."""
    return reduce(_times, (poly.coeffs for poly, k in runs for _ in range(k)), {0: 1})


_SPARSE_POLYS = st.dictionaries(st.integers(1, 40), st.integers(1, 5), max_size=4).map(
    lambda counts: ShiftPolynomial.from_dict({0: 1, **counts})
)


@given(_SPARSE_POLYS, st.integers(0, 12))
def test_power_matches_repeated_products(p, k):
    power = charged_product([(p, k)])
    assert power.as_dict() == _reference([(p, k)])
    # The unchecked internal result is what the checking constructor builds.
    assert ShiftPolynomial(power.coeffs) == power


def test_power_of_sparse_polynomial_follows_the_answer():
    # Shifts are divided by their gcd first: 1 + t^5000 squared is 3 terms.
    sparse = ShiftPolynomial.from_shifts([5000])
    assert charged_product([(sparse, 2)]).as_dict() == {0: 1, 5000: 2, 10000: 1}
    # A factor met once is multiplied into the power over the same gcd.
    runs = [(ShiftPolynomial.from_shifts([3000]), 2), (ShiftPolynomial.from_shifts([3000] * 2), 1)]
    assert charged_product(runs).as_dict() == {0: 1, 3000: 4, 6000: 5, 9000: 2}
    even = ShiftPolynomial.from_shifts([2, 4])
    assert charged_product([(even, 3)]).as_dict() == _reference([(even, 3)])


def _over_degree(shift: int) -> str:
    return f"the answer's degree shift is {shift}, over the ceiling MAX_DEGREE = {MAX_DEGREE}"


def _over_digits(digits: int) -> str:
    return (f"the digit count of the answer's largest multiplicity is {digits}, "
            f"over the ceiling MAX_DIGITS = {MAX_DIGITS}")


def test_power_is_charged_to_the_size_budget():
    circle = ShiftPolynomial.from_shifts([1])
    assert charged_product([(circle, MAX_DEGREE)]).coefficient(1) == MAX_DEGREE
    with pytest.raises(DecomposeError) as err:
        charged_product([(circle, MAX_DEGREE + 1)])
    assert str(err.value) == _over_degree(MAX_DEGREE + 1)
    with pytest.raises(DecomposeError) as err:
        charged_product([(ShiftPolynomial.from_dict({0: 1, 1: 10}), 5000)])
    assert str(err.value) == _over_digits(5207)
    with pytest.raises(DecomposeError):
        charged_product([(circle, 10**30)])
    assert charged_product([(ShiftPolynomial.one(), 10**30)]) == ShiftPolynomial.one()
    # A factor met once is charged too: (p, 1) is a one-run product.
    wide = ShiftPolynomial.from_dict({0: 1, MAX_DEGREE + 1: 1})
    assert charged_product([(wide, 0)]) == ShiftPolynomial.one()
    for runs in ([(wide, 1)], [(circle, 2), (wide, 1)]):
        with pytest.raises(DecomposeError) as err:
            charged_product(runs)
        assert str(err.value) == _over_degree(sum(k * p.max_shift for p, k in runs))


_DENSE_POLYS = st.lists(st.integers(0, 4), min_size=1, max_size=6).map(
    lambda coeffs: ShiftPolynomial.from_dict({0: 1, **dict(enumerate(coeffs, 1))})
)


_WIDE_POLYS = st.lists(st.integers(1, 3), min_size=49, max_size=199).map(
    lambda coeffs: ShiftPolynomial.from_dict({0: 1, **dict(enumerate(coeffs, 1))})
)


@st.composite
def _run_lists(draw):
    """Runs over a small pool of polynomials, so some repeat, and dense
    factors of 50 to 200 terms met once among them; every shift is a
    multiple of one common gcd."""
    g = draw(st.integers(1, 4))
    factors = st.one_of(_SPARSE_POLYS, _DENSE_POLYS, st.just(ShiftPolynomial.one()))
    pool = draw(st.lists(factors, min_size=1, max_size=3))
    runs = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(0, 6)), max_size=6))
    runs += [(poly, 1) for poly in draw(st.lists(_WIDE_POLYS, max_size=2))]
    scaled = [(ShiftPolynomial(tuple((shift * g, c) for shift, c in poly.coeffs)), k)
              for poly, k in runs]
    return draw(st.permutations(scaled))


@given(_run_lists())
def test_charged_product_matches_one_product_at_a_time(runs):
    product = charged_product(runs)
    assert product.as_dict() == _reference(runs)
    assert ShiftPolynomial(product.coeffs) == product


def test_charged_product_charges_the_total_of_its_runs():
    circle = ShiftPolynomial.from_shifts([1])
    ten = ShiftPolynomial.from_dict({0: 1, 1: 10})
    assert charged_product([(circle, 5000), (circle, 5000)]).coefficient(1) == MAX_DEGREE
    with pytest.raises(DecomposeError) as err:
        charged_product([(circle, 6000), (ShiftPolynomial.one(), 10**30), (circle, 6000)])
    assert str(err.value) == _over_degree(12000)
    # The degree is checked first, over all runs: the digits of the first
    # run alone are over their budget, but the message names the degree.
    with pytest.raises(DecomposeError) as err:
        charged_product([(ten, 5000), (circle, 20000)])
    assert str(err.value) == _over_degree(25000)
    with pytest.raises(DecomposeError) as err:
        charged_product([(ten, 2500), (circle, 0), (ten, 2500)])
    assert str(err.value) == _over_digits(5207)


@given(space_exprs())
def test_degree_and_form_read_the_polynomial_of_the_splitting(expr):
    # The walk charges these degrees before it forms any polynomial.
    shifts = {"B": (1, 3), "s9": (2,)}
    poly = sphere_splitting(expr, shifts).poly
    if poly is None:
        with pytest.raises(NotSplittableError):
            _degree(expr, shifts)
        with pytest.raises(NotSplittableError):
            _form(expr, shifts)
        return
    assert _degree(expr, shifts) == poly.max_shift
    assert _form(expr, shifts) == poly


_SHIFTS = {"X": (10, 5, 10)}
_NODE_KINDS = [
    # (expression, degree, polynomial), one case per kind of node.
    ("S5", 5, {0: 1, 5: 1}),
    ("T3", 3, {0: 1, 1: 3, 2: 3, 3: 1}),
    ("B4", 1, {0: 1, 1: 4}),
    ("pt", 0, {0: 1}),
    ("X", 10, {0: 1, 5: 1, 10: 2}),
    ("wedge(S2, T2, S1)", 2, {0: 1, 1: 3, 2: 2}),
    ("prod(S2, wedge(S1, S3))", 5, {0: 1, 1: 1, 2: 1, 3: 2, 5: 1}),
    ("susp(pt, 3)", 0, {0: 1}),
    ("susp(susp(wedge(S2, pt), 2), 3)", 7, {0: 1, 7: 1}),
    ("susp(prod(B2, T2), 4)", 7, {0: 1, 5: 4, 6: 5, 7: 2}),
]


@pytest.mark.parametrize(("text", "degree", "poly"), _NODE_KINDS)
def test_degree_and_form_of_each_node_kind(text, degree, poly):
    expr = parse_space(text)
    assert _degree(expr, _SHIFTS) == degree
    assert _form(expr, _SHIFTS).as_dict() == poly


@pytest.mark.parametrize(("text", "blocker"), [
    ("A", "A"),
    ("map(S1, Y)", "map(S1, Y)"),
    ("wedge(S1, susp(loop(Y, 2)))", "loop(Y, 2)"),
    ("prod(T2, bloop(Y, 2, 3), A)", "bloop(Y, 2, 3)"),
])
def test_degree_and_form_raise_at_a_blocker(text, blocker):
    for reader in (_degree, _form):
        with pytest.raises(NotSplittableError) as err:
            reader(parse_space(text), _SHIFTS)
        assert str(err.value.blocker) == blocker


@pytest.mark.parametrize("declared", [
    (10, 5, 10), (3, 1, 2), (7,), (), [4, 4, 4], (True, 2), ("3", 1), (2.0, 5), (2.9,),
])
def test_degree_of_an_atom_is_the_largest_shift_of_its_polynomial(declared):
    atom = Atom("X")
    assert _degree(atom, {"X": declared}) == _form(atom, {"X": declared}).max_shift


@pytest.mark.parametrize("declared", [(0,), (3, -1), ("x",), (None,), (1, "0"), 5])
def test_degree_and_form_refuse_bad_shifts_alike(declared):
    atom = Atom("X")
    errors = []
    for reader in (_degree, _form):
        with pytest.raises((TypeError, ValueError)) as err:
            reader(atom, {"X": declared})
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1]


def test_only_a_product_charges_its_own_degree():
    # A product's degree is charged before its factors are formed; neither
    # a suspension nor a wedge is charged, and a torus only as its one run.
    assert sphere_splitting(parse_space("susp(T10000)")).poly.max_shift == 10001
    assert sphere_splitting(parse_space("wedge(T3, S20000)")).poly.max_shift == 20000
    for text, degree in [
        ("wedge(prod(S6000, S6000), S1)", 12000),
        ("wedge(prod(S3000, S3000), prod(S7000, S7000), prod(S6000, S6000))", 14000),
        ("prod(susp(T9000), susp(T9001))", 18003),
    ]:
        with pytest.raises(DecomposeError) as err:
            sphere_splitting(parse_space(text))
        assert str(err.value) == _over_degree(degree)


@pytest.mark.parametrize(("text", "degree"), [
    ("prod(susp(T9000), susp(T9001))", 18003),
    ("prod(S1, susp(T20000))", 20002),
])
def test_a_product_is_charged_before_any_factor_is_formed(monkeypatch, text, degree):
    def formed(runs):
        raise AssertionError("a polynomial was formed")

    monkeypatch.setattr(splitting, "charged_product", formed)
    with pytest.raises(DecomposeError) as err:
        sphere_splitting(parse_space(text))
    assert str(err.value) == _over_degree(degree)


def test_sugar_splits_without_expansion():
    # B<m> is 1 + m t and T<N> is (1 + t)^N, with no wedge or product built.
    assert sphere_splitting(Bouquet(10**20)).poly.as_dict() == {0: 1, 1: 10**20}
    assert shift_polynomial(Torus(2000)).coefficient(1000) == comb(2000, 1000)
    with pytest.raises(DecomposeError):
        sphere_splitting(Susp(Torus(200_000)))
    with pytest.raises(DecomposeError):
        sphere_splitting(Product((Sphere(6000), Sphere(6000))))


def test_torus_power_matches_binomials():
    for n in range(1, 13):
        poly = shift_polynomial(Torus(n))
        assert poly.as_dict() == {i: comb(n, i) for i in range(n + 1)}


@given(splittable_exprs(), splittable_exprs())
def test_polynomial_is_multiplicative_over_products(a, b):
    product = shift_polynomial(Product((a, b)))
    assert product.as_dict() == _times(shift_polynomial(a).as_dict(), shift_polynomial(b).coeffs)


@given(st.lists(splittable_exprs(max_depth=1), min_size=1, max_size=3))
def test_product_shifts_match_tuple_enumeration(children):
    # Independent of the polynomial product: brute enumeration over factor
    # subsets and one sphere choice per chosen factor.
    shifts = sphere_splitting(Product(tuple(children))).shifts
    counted: dict[int, int] = {}
    for s in shifts:
        counted[s] = counted.get(s, 0) + 1
    factors = [sphere_splitting(child).shifts for child in children]
    assert counted == tuple_enumeration_shifts(factors)


@given(splittable_exprs())
def test_splitting_invariant_under_desugar(expr):
    assert sphere_splitting(expr) == sphere_splitting(desugar(expr))


@given(splittable_exprs())
def test_polynomial_agrees_with_splitting_multiset(expr):
    shifts = sphere_splitting(expr).shifts
    poly = shift_polynomial(expr)
    counted: dict[int, int] = {0: 1}
    for s in shifts:
        counted[s] = counted.get(s, 0) + 1
    assert poly.as_dict() == counted


@given(splittable_exprs(), st.integers(1, 3))
def test_suspension_adds_to_every_shift(expr, k):
    base = sphere_splitting(expr).shifts
    lifted = sphere_splitting(Susp(expr, k)).shifts
    assert lifted == tuple(sorted(s + k for s in base))


def test_nested_products_are_read_in_linear_work(monkeypatch):
    # Only the outermost product reads its degree, and a product inside it
    # is not formed on its own: the polynomial is formed once, from the
    # counts of all the factors below it.
    walked, formed = [], []
    walk, product = splitting._postorder, splitting.charged_product

    def counting_walk(expr, leaves=()):
        nodes = walk(expr, leaves)
        walked.append(len(nodes))
        return nodes

    def counting_product(runs):
        formed.append(1)
        return product(runs)

    monkeypatch.setattr(splitting, "_postorder", counting_walk)
    monkeypatch.setattr(splitting, "charged_product", counting_product)
    for depth in (100, 400, 3000):
        walked.clear()
        formed.clear()
        poly = sphere_splitting(parse_space("prod(S1, " * depth + "S1" + ")" * depth)).poly
        assert poly.as_dict() == {i: comb(depth + 1, i) for i in range(depth + 2)}
        assert sum(walked) <= 2 * (2 * depth + 1) + 1
        assert len(formed) == 1
