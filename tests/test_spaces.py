"""Expression grammar: parsing, printing, validation, and desugaring."""

import time
from dataclasses import dataclass

import pytest
from hypothesis import given

import gottlieb.spaces as spaces
from conftest import space_exprs
from gottlieb.cli import main
from gottlieb.decompose import decompose
from gottlieb.splitting import DecomposeError, sphere_splitting
from gottlieb.spaces import (
    Atom,
    Bouquet,
    BouquetSpace,
    Loop,
    MapSpace,
    Point,
    Product,
    Sphere,
    SpaceParseError,
    Susp,
    Torus,
    Wedge,
    desugar,
    format_space,
    is_valid_atom_name,
    parse_space,
)


def test_parse_examples():
    assert parse_space("S3") == Sphere(3)
    assert parse_space("pt") == Point()
    assert parse_space("T3") == Torus(3)
    assert parse_space("B2") == Bouquet(2)
    assert parse_space("Y") == Atom("Y")
    assert parse_space("map(T3, Y)") == MapSpace(Torus(3), Atom("Y"))
    assert parse_space("loop(Y)") == Loop(Atom("Y"), 1)
    assert parse_space("loop(Y, 2)") == Loop(Atom("Y"), 2)
    assert parse_space("bloop(Y, 3)") == BouquetSpace(Atom("Y"), 3, 1)
    assert parse_space("bloop(Y, 3, 2)") == BouquetSpace(Atom("Y"), 3, 2)
    assert parse_space("susp(X)") == Susp(Atom("X"), 1)
    assert parse_space("susp(X, 4)") == Susp(Atom("X"), 4)
    assert parse_space("wedge(S1, S2, pt)") == Wedge((Sphere(1), Sphere(2), Point()))
    assert parse_space("prod(S2, wedge(S1, S3))") == Product(
        (Sphere(2), Wedge((Sphere(1), Sphere(3))))
    )


def test_whitespace_is_insignificant():
    spaced = parse_space("  map(  prod( S2 ,wedge(S1,S3) ) ,Y )  ")
    assert spaced == parse_space("map(prod(S2, wedge(S1, S3)), Y)")


def test_print_examples():
    assert format_space(MapSpace(Torus(3), Atom("Y"))) == "map(T3, Y)"
    assert format_space(Susp(Atom("X"), 1)) == "susp(X)"
    assert format_space(Susp(Atom("X"), 2)) == "susp(X, 2)"
    assert format_space(Loop(Atom("Y"), 1)) == "loop(Y)"
    assert format_space(BouquetSpace(Atom("Y"), 2, 1)) == "bloop(Y, 2)"
    assert format_space(BouquetSpace(Atom("Y"), 2, 3)) == "bloop(Y, 2, 3)"
    assert format_space(Wedge((Sphere(1), Point()))) == "wedge(S1, pt)"


def test_reserved_names_do_not_parse_as_atoms():
    assert parse_space("S10") == Sphere(10)
    with pytest.raises(SpaceParseError):
        parse_space("S0")  # sphere index must be >= 1
    with pytest.raises(SpaceParseError):
        parse_space("T0")
    with pytest.raises(SpaceParseError):
        parse_space("B0")
    with pytest.raises(SpaceParseError):
        parse_space("S01")  # leading zero
    with pytest.raises(SpaceParseError):
        parse_space("wedge")  # keyword needs arguments


def test_atom_constructor_rejects_reserved_names():
    for bad in ("S2", "T1", "B9", "pt", "wedge", "prod", "susp", "map", "loop", "bloop", "", "2x", "a-b"):
        with pytest.raises(ValueError):
            Atom(bad)
    # Lowercase variants and embedded digits are ordinary atoms.
    for good in ("s2", "t1", "ptx", "Y", "aX_1", "S", "T", "B"):
        assert Atom(good).name == good


def test_is_valid_atom_name():
    assert is_valid_atom_name("Y")
    assert is_valid_atom_name("s9")
    assert not is_valid_atom_name("S9")
    assert not is_valid_atom_name("pt")
    assert not is_valid_atom_name("map")
    assert not is_valid_atom_name("9Y")
    assert not is_valid_atom_name("")


def test_parse_errors_carry_position_and_expectation():
    with pytest.raises(SpaceParseError) as err:
        parse_space("map(S1 Y)")
    assert err.value.position == 7
    assert err.value.expected

    with pytest.raises(SpaceParseError) as err:
        parse_space("wedge()")
    assert err.value.position == 6

    with pytest.raises(SpaceParseError):
        parse_space("map(S1)")
    with pytest.raises(SpaceParseError):
        parse_space("")
    with pytest.raises(SpaceParseError):
        parse_space("susp(X, 0)")  # counts are >= 1

    with pytest.raises(SpaceParseError) as err:
        parse_space("S1 x")  # trailing input
    assert err.value.position == 3


def test_non_ascii_digits_are_unexpected_characters(capsys):
    # str.isdigit() accepts them; an integer literal is ASCII digits only.
    for text, position in (("²", 0), ("S1 ²", 3), ("susp(S1, ٣)", 9)):
        with pytest.raises(SpaceParseError, match="^unexpected character") as err:
            parse_space(text)
        assert err.value.position == position
    assert main(["decompose", "--expr", "²", "--degree", "1"]) == 2
    assert capsys.readouterr().err == "error: unexpected character '²' at position 0\n"


def test_lexing_is_linear_in_the_integer_literals():
    # Each literal is matched in place, with no copy of the rest of the input.
    text = "wedge(" + ", ".join(["susp(S1, 2)"] * 100_000) + ")"
    start = time.perf_counter()
    tokens = spaces._lex(text)
    assert time.perf_counter() - start < 1
    assert sum(kind == "INT" for kind, _, _ in tokens) == 100_000


def test_node_validation():
    with pytest.raises(ValueError):
        Sphere(0)
    with pytest.raises(ValueError):
        Torus(0)
    with pytest.raises(ValueError):
        Susp(Sphere(1), 0)
    with pytest.raises(ValueError):
        Wedge(())
    with pytest.raises(ValueError):
        Product(())
    with pytest.raises(ValueError):
        Loop(Atom("Y"), 0)
    with pytest.raises(ValueError):
        BouquetSpace(Atom("Y"), 0, 1)


def test_desugar_examples():
    assert desugar(Torus(3)) == Product((Sphere(1), Sphere(1), Sphere(1)))
    assert desugar(Torus(1)) == Sphere(1)
    assert desugar(Bouquet(2)) == Wedge((Sphere(1), Sphere(1)))
    assert desugar(Bouquet(1)) == Sphere(1)
    assert desugar(Loop(Atom("Y"), 2)) == MapSpace(
        Sphere(1), MapSpace(Sphere(1), Atom("Y"))
    )
    assert desugar(BouquetSpace(Atom("Y"), 2, 1)) == MapSpace(
        Wedge((Sphere(1), Sphere(1))), Atom("Y")
    )
    assert desugar(Susp(Susp(Atom("X"), 1), 2)) == Susp(Atom("X"), 3)
    # Sugar nested inside ordinary nodes is expanded too.
    assert desugar(Wedge((Torus(2), Point()))) == Wedge(
        (Product((Sphere(1), Sphere(1))), Point())
    )
    assert desugar(MapSpace(Bouquet(2), Atom("Y"))) == MapSpace(
        Wedge((Sphere(1), Sphere(1))), Atom("Y")
    )


@given(space_exprs())
def test_parse_print_round_trip(expr):
    assert parse_space(format_space(expr)) == expr


@given(space_exprs())
def test_desugar_is_idempotent(expr):
    once = desugar(expr)
    assert desugar(once) == once


@given(space_exprs())
def test_desugar_returns_a_fixed_point_as_is(expr):
    once = desugar(expr)
    assert desugar(once) is once
    # New nodes are built exactly where there is sugar or a nested suspension.
    assert (once is expr) == (once == expr)


def test_desugar_builds_where_there_is_sugar_or_a_nested_suspension():
    plain = parse_space("map(prod(S1, susp(wedge(A, S2), 2)), map(pt, Y))")
    assert desugar(plain) is plain
    for text, expanded in [
        ("susp(susp(A), 2)", Susp(Atom("A"), 3)),
        ("map(S1, map(susp(susp(S2)), Y))", parse_space("map(S1, map(susp(S2, 2), Y))")),
        ("prod(S2, T1)", Product((Sphere(2), Sphere(1)))),
        ("map(S2, loop(Y))", parse_space("map(S2, map(S1, Y))")),
    ]:
        expr = parse_space(text)
        assert desugar(expr) == expanded and desugar(expr) is not expr


@given(space_exprs())
def test_desugar_removes_sugar_nodes(expr):
    def has_sugar(e):
        if isinstance(e, (Torus, Bouquet, Loop, BouquetSpace)):
            return True
        if isinstance(e, (Wedge, Product)):
            return any(has_sugar(c) for c in e.children)
        if isinstance(e, Susp):
            return has_sugar(e.child)
        if isinstance(e, MapSpace):
            return has_sugar(e.source) or has_sugar(e.target)
        return False

    plain = desugar(expr)
    assert not has_sugar(plain)
    # Nested suspensions are always folded into one node.
    def has_nested_susp(e):
        if isinstance(e, Susp):
            return isinstance(e.child, Susp) or has_nested_susp(e.child)
        if isinstance(e, (Wedge, Product)):
            return any(has_nested_susp(c) for c in e.children)
        if isinstance(e, MapSpace):
            return has_nested_susp(e.source) or has_nested_susp(e.target)
        return False

    assert not has_nested_susp(plain)


def _chain(depth: int, core=Atom("Y")):
    for _ in range(depth):
        core = MapSpace(Sphere(1), core)
    return core


def test_deep_chains_compare_hash_and_print_without_recursion():
    depth = 100_000  # far past the interpreter's recursion limit
    chain = _chain(depth)
    assert chain == _chain(depth)
    assert hash(chain) == hash(_chain(depth))
    assert chain != _chain(depth, Atom("Z"))
    assert chain != _chain(depth - 1)
    assert format_space(chain) == "map(S1, " * depth + "Y" + ")" * depth
    assert desugar(Loop(Atom("Y"), depth)) == chain  # exactly at the expansion ceiling


_KINDS = (Atom, Sphere, Point, Wedge, Product, Susp, MapSpace, Torus, Bouquet, Loop, BouquetSpace)


def _generated_repr(kind):
    """The recursive ``__repr__`` that ``dataclass`` generates for ``kind``'s fields."""
    twin = type(kind.__name__, (spaces.SpaceExpr,), {
        "__annotations__": kind.__dict__.get("__annotations__", {}),
    })
    return dataclass(frozen=True)(twin).__repr__


_GENERATED = {kind: _generated_repr(kind) for kind in _KINDS}


def test_repr_examples():
    assert repr(Wedge((Sphere(1), Susp(Point(), 2)))) == (
        "Wedge(children=(Sphere(dim=1), Susp(child=Point(), count=2)))"
    )
    assert repr(Product((Atom("X"),))) == "Product(children=(Atom(name='X'),))"
    assert repr(BouquetSpace(Torus(2), 3)) == (
        "BouquetSpace(target=Torus(factors=2), circles=3, iterations=1)"
    )


@given(space_exprs())
def test_repr_is_the_generated_text(expr):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spaces.SpaceExpr, "__repr__", lambda e: _GENERATED[type(e)](e))
        expected = repr(expr), repr(desugar(expr))
    assert (repr(expr), repr(desugar(expr))) == expected
    assert eval(expected[0], vars(spaces)) == expr


def test_deep_chains_repr_without_recursion():
    assert not any("__repr__" in kind.__dict__ for kind in _KINDS)
    for depth in (3000, 10_000):
        text = repr(desugar(parse_space(f"loop(Y, {depth})")))
        assert text == ("MapSpace(source=Sphere(dim=1), target=" * depth + "Atom(name='Y')"
                        + ")" * depth)
    nested = MapSpace(_chain(10_000), Loop(_chain(10_000, Point()), 2))
    assert repr(nested) == (
        "MapSpace(source=" + repr(_chain(10_000)) + ", target=Loop(target="
        + repr(_chain(10_000, Point())) + ", iterations=2))"
    )


@pytest.mark.parametrize(
    "text, copies",
    [
        ("prod(T60000, T60000)", 120000),
        ("bloop(Y, 50000, 50001)", 100001),
        ("loop(map(wedge(B99999, S2), Y), 2)", 100001),
        ("susp(T100000000000000000000)", 10**20),
    ],
)
def test_desugar_refuses_a_sum_of_copies_over_the_ceiling_unbuilt(monkeypatch, text, copies):
    # Every count here is under the ceiling or far past it; the check reads
    # their sum over the whole expression before any node is built.
    expr = parse_space(text)
    monkeypatch.setattr(spaces, "_expand", None)
    with pytest.raises(ValueError) as err:
        desugar(expr)
    assert str(err.value) == (
        f"the number of copies desugar builds is {copies}, "
        "over the ceiling EXPANSION_CEILING = 100000"
    )
    assert spaces.EXPANSION_CEILING == 100_000


_DEEP = 100_000  # levels, far past the interpreter's recursion limit


def _nested(head: str, core: str = "S1", depth: int = _DEEP) -> str:
    return head * depth + core + ")" * depth


def _within_a_second(read):
    start = time.perf_counter()
    try:
        result = read()
    except DecomposeError as exc:
        result = exc
    assert time.perf_counter() - start < 1
    return result


_REFUSED = "the answer's degree shift is 100001, over the ceiling MAX_DEGREE = 10000"


@pytest.mark.parametrize(("head", "poly", "answer", "text_of"), [
    ("susp(", {0: 1, _DEEP + 1: 1}, _REFUSED, ("Susp(child=", ", count=1)")),
    ("wedge(S1, ", {0: 1, 1: _DEEP + 1}, "G[1](Y) + 100001*G[2](Y)",
     ("Wedge(children=(Sphere(dim=1), ", "))")),
    ("prod(S1, ", _REFUSED, _REFUSED, ("Product(children=(Sphere(dim=1), ", "))")),
], ids=["susp", "wedge", "prod"])
def test_deep_nestings_are_read_without_recursion(head, poly, answer, text_of):
    # Every reader walks with a stack of its own, so each one ends with an
    # answer or a size-budget error; main catches no RecursionError.
    text = _nested(head)
    expr = _within_a_second(lambda: parse_space(text))
    twin, other = parse_space(text), parse_space(_nested(head, "S2"))
    assert _within_a_second(lambda: format_space(expr)) == text
    head_text, tail_text = text_of
    assert _within_a_second(lambda: repr(expr)) == (
        head_text * _DEEP + "Sphere(dim=1)" + tail_text * _DEEP)
    assert _within_a_second(lambda: expr == twin) and expr != other
    assert _within_a_second(lambda: hash(expr)) == hash(twin)
    plain = _within_a_second(lambda: desugar(expr))
    assert plain == (Susp(Sphere(1), _DEEP) if head == "susp(" else expr)
    split = _within_a_second(lambda: sphere_splitting(expr))
    if isinstance(split, DecomposeError):
        assert str(split) == poly
    else:
        assert split.poly.as_dict() == poly
    result = _within_a_second(lambda: decompose(MapSpace(expr, Atom("Y")), 1))
    assert str(result) == answer


def test_a_deep_spelled_out_chain_parses_and_prints():
    text = _nested("map(S1, ", "Y")
    expr = _within_a_second(lambda: parse_space(text))
    assert expr == desugar(Loop(Atom("Y"), _DEEP))
    assert _within_a_second(lambda: format_space(expr)) == text
    assert _within_a_second(lambda: repr(expr)) == (
        "MapSpace(source=Sphere(dim=1), target=" * _DEEP + "Atom(name='Y')" + ")" * _DEEP)
