"""The ceilings table: each row refuses one past its value, and the README lists it."""

import importlib
from pathlib import Path

import pytest

from conftest import unsieved
from gottlieb import limits
from gottlieb.abelian import canonicalize
from gottlieb.cli import _window
from gottlieb.decompose import decompose
from gottlieb.numtheory import isprime
from gottlieb.oracle import _derived_budget_skip, _tuple_budget_skip
from gottlieb.spaces import Atom, Bouquet, desugar
from gottlieb.splitting import ShiftPolynomial, _charged, charge_degree

README = Path(__file__).resolve().parents[1] / "README.md"
HEADER = "| Name | Value | What it counts | Exit code |"


def _readme_rows() -> list[tuple]:
    lines = README.read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[lines.index(HEADER) + 2:]:
        if not line.startswith("|"):
            break
        name, value, what, code = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((name.strip("`"), int(value), what, code if code == "skip" else int(code)))
    return rows


def test_the_readme_table_lists_every_row():
    assert _readme_rows() == list(limits.ROWS)


def test_each_name_is_bound_to_its_row_value():
    assert [getattr(limits, name) for name, *_ in limits.ROWS] == [row[1] for row in limits.ROWS]


def _raised(call) -> str | None:
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


def _bouquet(m: int) -> ShiftPolynomial:
    return ShiftPolynomial.from_dict({0: 1, 1: m})


# For each row, the refusal text or skip reason of its check at estimate
# n, or None where the check admits n.
PROBES = {
    "EXPANSION_CEILING": lambda n: _raised(lambda: desugar(Bouquet(n))),
    "MAX_DEGREE": lambda n: _raised(lambda: charge_degree(n)),
    # (1 + 9t)^n: degree n, and n * log10(10) = n digits exactly.
    "MAX_DIGITS": lambda n: _raised(lambda: _charged([(_bouquet(9), n)])),
    # G[10^(n-1)](Y): a term degree of n digits.
    "PRINT_DIGITS": lambda n: _raised(lambda: decompose(Atom("Y"), 10 ** (n - 1))),
    "WINDOW_CEILING": lambda n: _raised(lambda: _window(1, n)),
    "ORDER_DIGITS": lambda n: _raised(lambda: canonicalize(0, [10 ** (n - 1)])),
    "CERTIFY_DIGITS": lambda n: _raised(lambda: isprime(unsieved(10 ** (n - 1)))),
    "TUPLE_BUDGET": lambda n: _tuple_budget_skip([_bouquet(n - 1)]),
    # One lookup per degree of the window and term of the constant 1.
    "DERIVED_BUDGET": lambda n: _derived_budget_skip([ShiftPolynomial.one()], range(1, n + 1)),
}

# Rows with no estimate to set at a boundary, each with the test that covers it.
COVERED_BY = {
    "RHO_WORK": ("test_numtheory", "test_unsplittable_orders_exhaust_the_budget_quickly",
                 "rho's work on a number follows its factors, so no input costs exactly the value"),
    "JSON_DEPTH": ("test_cli", "test_deeply_nested_profile_document_exits_three",
                   "json.loads meets the recursion limit less the stack already in use"),
}


@pytest.mark.parametrize("name", [row[0] for row in limits.ROWS])
def test_each_ceiling_refuses_one_past_its_value_and_admits_the_value(name):
    assert (name in PROBES) != (name in COVERED_BY)
    if name in COVERED_BY:
        module, test, _ = COVERED_BY[name]
        assert callable(getattr(importlib.import_module(module), test))
        return
    value = getattr(limits, name)
    assert PROBES[name](value) is None
    refusal = PROBES[name](value + 1)
    assert refusal is not None and refusal.endswith(f", over the ceiling {name} = {value}")


def test_an_estimate_too_long_to_print_is_named_by_its_digits():
    assert limits.over("MAX_DEGREE", 10**4300) == (
        "the answer's degree shift is <4301-digit number>, over the ceiling MAX_DEGREE = 10000"
    )
    assert [limits.digits(n) for n in (1, 9, 10, 10**4300 - 1, 10**4300)] == [1, 1, 2, 4300, 4301]
