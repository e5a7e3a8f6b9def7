"""Every resource ceiling of the package, stated once.

``ROWS`` holds one (name, value, what it counts, exit code) row per
ceiling: the CLI's exit code where the ceiling refuses, or ``"skip"``
where a ``check`` strategy is skipped instead.  Each value is bound here
as a module-level name, once, from its row.  A module compares against
that name and raises its own exception with the text of ``over``, so no
hot path reads the table.  ``JSON_DEPTH`` documents the guard of
``profiles.load``, which catches the ``RecursionError`` of ``json.loads``
itself and so reads nothing from here.  The README's table of ceilings
lists the same rows, and a test compares the two.  This module imports
nothing of the package.
"""

ROWS = (
    ("EXPANSION_CEILING", 100_000, "the number of copies desugar builds", 2),
    ("MAX_DEGREE", 10_000, "the answer's degree shift", 2),
    ("MAX_DIGITS", 4_000, "the digit count of the answer's largest multiplicity", 2),
    ("PRINT_DIGITS", 4_300, "the digit count of a number to print", 2),
    ("WINDOW_CEILING", 10_000, "the number of degrees a command lists", 2),
    ("ORDER_DIGITS", 4_300, "the digit count of a torsion order", 3),
    ("CERTIFY_DIGITS", 1_500, "the digit count of a number to test for primality", 3),
    ("RHO_WORK", 1 << 20, "Pollard-Brent rho's work on one order in one-word steps", 3),
    ("JSON_DEPTH", 1_000, "the nesting depth of a profile document", 3),
    ("TUPLE_BUDGET", 100_000, "the number of tuples tuple-enumeration enumerates", "skip"),
    ("DERIVED_BUDGET", 200_000, "the number of table lookups the derived-profile fold makes",
     "skip"),
)

(EXPANSION_CEILING, MAX_DEGREE, MAX_DIGITS, PRINT_DIGITS, WINDOW_CEILING, ORDER_DIGITS,
 CERTIFY_DIGITS, RHO_WORK, JSON_DEPTH, TUPLE_BUDGET, DERIVED_BUDGET) = [row[1] for row in ROWS]

_ROW = {row[0]: row for row in ROWS}


def over(name: str, estimate) -> str:
    """The refusal text, or skip reason, of ceiling ``name`` for ``estimate``.

    An integer estimate past the interpreter's printing limit is given by
    its digit count, as ``<4301-digit number>``.
    """
    _, value, what, _ = _ROW[name]
    try:
        text = str(estimate)
    except ValueError:
        text = f"<{digits(estimate)}-digit number>"
    return f"{what} is {text}, over the ceiling {name} = {value}"


def digits(n: int) -> int:
    """The number of decimal digits of ``n`` >= 1, without converting it."""
    estimate = int((n.bit_length() - 1) * 0.30102999566398120) + 1  # log10(2)
    return estimate + (n >= 10**estimate)
