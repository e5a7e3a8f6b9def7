"""Command-line interface: every subcommand and every exit code."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import run_capped
from gottlieb.cli import _COMMANDS, main
from gottlieb.decompose import decompose
from gottlieb.profiles import Incomplete
from gottlieb.spaces import Atom, MapSpace, Sphere


DOC = {
    "spaces": {
        "Y": {
            "betti": [1, 0, 1],
            "flags": {"simply_connected": True, "finite": True, "g_space": False},
            "gottlieb": {
                "entries": {"1": "Z/4", "2": "Z", "3": "Z/2", "4": "0", "5": "Z", "6": "0"},
                "zero_above": 6,
            },
            "homotopy": {"entries": {"2": "Z", "3": "Z/2"}},
        },
        # Free-loop table over Y: entry d is G_d(Y) + G_{d+1}(Y).
        "LY": {
            "gottlieb": {
                "entries": {"1": "Z + Z/4", "2": "Z + Z/2", "3": "Z/2", "4": "Z"}
            }
        },
        "X": {"suspension_shifts": [5, 10], "flags": {"finite": True}},
        "C": {
            "betti": [1, 1],
            "flags": {"finite": True},
            "gottlieb": {"entries": {"1": "Z", "2": "Z/2", "3": "Z", "4": "0", "5": "Z/3"}},
        },
        "B": {"flags": {"finite": True}},
        "N": {"betti": [1]},
        "P": {},
    },
    "maps": {
        "f": {
            "source": "C",
            "target": "Y",
            "relative_gottlieb": {
                "entries": {"1": "Z/2", "2": "Z", "3": "Z/8", "4": "0", "5": "Z"}
            },
        },
        "idY": {"source": "Y", "target": "Y", "is_identity": True},
    },
}


REPO = Path(__file__).resolve().parents[1]


@pytest.fixture()
def profile_path(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(DOC))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_text(capsys):
    code, out, _ = run(capsys, "decompose", "--expr", "map(T2, Y)", "--degree", "1")
    assert code == 0
    assert out.strip() == "G[1](Y) + 2*G[2](Y) + G[3](Y)"


def test_decompose_json_is_byte_deterministic(capsys):
    args = ("decompose", "--expr", "map(T2, Y)", "--degree", "1", "--format", "json")
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    obj = json.loads(out_a)
    assert out_a == json.dumps(obj, sort_keys=True) + "\n"
    assert obj["text"] == "G[1](Y) + 2*G[2](Y) + G[3](Y)"
    assert obj["terms"][1] == {
        "kind": "gottlieb", "space": "Y", "degree": 2, "multiplicity": 2,
    }


def test_decompose_uses_profile_shifts(capsys, profile_path):
    code, out, _ = run(
        capsys, "decompose", "--expr", "map(X, Y)", "--degree", "1",
        "--profiles", profile_path,
    )
    assert code == 0
    assert out.strip() == "G[1](Y) + G[6](Y) + G[11](Y)"


def test_eval_complete(capsys, profile_path):
    code, out, _ = run(
        capsys, "eval", "--expr", "loop(Y)", "--degree", "2", "--profiles", profile_path
    )
    assert code == 0
    assert out.strip() == "Z + Z/2"


def test_eval_applies_triviality_bound(capsys, profile_path):
    code, out, _ = run(
        capsys, "eval", "--expr", "map(X, Y)", "--degree", "1", "--profiles", profile_path
    )
    assert code == 0
    assert out.strip() == "Z/4"


def test_eval_incomplete_exits_one(capsys, profile_path):
    code, out, _ = run(
        capsys, "eval", "--expr", "map(B, Y)", "--degree", "2", "--profiles", profile_path
    )
    assert code == 1
    assert "incomplete" in out
    assert "residual: Gen[Σ^2 B -> Y]" in out
    assert "partial: Z" in out


def test_eval_incomplete_json(capsys, profile_path):
    code, out, _ = run(
        capsys, "eval", "--expr", "map(B, Y)", "--degree", "2",
        "--profiles", profile_path, "--format", "json",
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["status"] == "incomplete"
    assert obj["residuals"] == ["Gen[Σ^2 B -> Y]"]
    assert obj["partial"]["rank"] == 1


def test_parse_error_exits_two(capsys):
    code, _, err = run(capsys, "decompose", "--expr", "map(S1", "--degree", "1")
    assert code == 2
    assert "error:" in err


def test_decompose_error_exits_two(capsys):
    code, _, err = run(capsys, "decompose", "--expr", "wedge(S1, S2)", "--degree", "1")
    assert code == 2
    assert "no decomposition rule" in err


@pytest.mark.parametrize("template", ["S{}", "loop(Y, {})"])
def test_overlong_integer_literal_exits_two(capsys, template):
    expr = template.format("1" * 4400)
    code, _, err = run(capsys, "decompose", "--expr", expr, "--degree", "1")
    assert code == 2
    assert "position" in err
    assert "set_int_max_str_digits" not in err


def test_pathologically_deep_expression_exits_two(capsys):
    # No reader recurses: a 5000-deep wedge is read to the end, and a bare
    # wedge target has no rule, while the same wedge as a source splits.
    wedge = "wedge(S1, " * 5000 + "S1" + ")" * 5000
    code, _, err = run(capsys, "decompose", "--expr", wedge, "--degree", "1")
    assert code == 2
    assert err.startswith("error: no decomposition rule for target 'wedge(S1, wedge(S1, ")
    code, out, _ = run(capsys, "decompose", "--expr", f"map({wedge}, Y)", "--degree", "1")
    assert (code, out) == (0, "G[1](Y) + 5001*G[2](Y)\n")


def test_deep_loop_decomposes(capsys):
    code, out, _ = run(capsys, "decompose", "--expr", "loop(Y, 2000)", "--degree", "1")
    assert code == 0
    assert out.startswith("G[1](Y) + 2000*G[2](Y) + 1999000*G[3](Y) + ")


def _over_degree(shift) -> str:
    return f"the answer's degree shift is {shift}, over the ceiling MAX_DEGREE = 10000"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("decompose", "--expr", "bloop(Y, 10, 5000)", "--degree", "1"),
         "the digit count of the answer's largest multiplicity is 5207, "
         "over the ceiling MAX_DIGITS = 4000"),
        (("decompose", "--expr", "map(T200000, Y)", "--degree", "1"), _over_degree(200000)),
        (("fox", "--expr", "Y", "--degree", "20000"), _over_degree(19999)),
        (("loop-homotopy", "--expr", "Y", "--degree", "2", "--iterations", "20000"),
         _over_degree(20000)),
    ],
)
def test_oversized_answers_exit_two_at_once(capsys, argv, message):
    # The size budget is checked before any power is formed.
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "expr, message",
    [
        # One past 10^4300 circles, and 11 times 10^4300 - 1 copies.
        ("map(S1, map(T{n}, Y))", _over_degree("<4301-digit number>")),
        ("map(wedge(A" + ", T{n}" * 11 + "), Y)",
         "the number of copies desugar builds is <4302-digit number>, "
         "over the ceiling EXPANSION_CEILING = 100000"),
    ],
)
def test_estimates_past_the_printing_limit_are_named_by_their_digits(capsys, expr, message):
    expr = expr.format(n="9" * 4300)
    code, out, err = run(capsys, "decompose", "--expr", expr, "--degree", "1")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(("expr", "degree"), [
    ("map(susp(A, {n}), Y)", "1"),
    ("map(susp(susp(A, {n}), {n}), Y)", "1"),
    ("map(S1, Y)", "{n}"),
])
def test_a_term_degree_past_the_printing_limit_exits_two(capsys, fmt, expr, degree):
    # Σ^{1 + s} of a residual, or G[n + 1] of the core, would have 4301
    # digits; the walk refuses the answer before any term is built.
    n = "9" * 4300
    argv = ["decompose", "--expr", expr.format(n=n), "--degree", degree.format(n=n)]
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out) == (2, "")
    assert err == (
        "error: the digit count of a number to print is 4301 (a term's degree), "
        "over the ceiling PRINT_DIGITS = 4300\n"
    )


def test_a_term_degree_at_the_printing_limit_prints(capsys):
    code, out, _ = run(capsys, "decompose", "--expr", f"map(susp(A, {'9' * 4299}), Y)",
                       "--degree", "1")
    assert code == 0
    assert out == f"G[1](Y) + Gen[Σ^1{'0' * 4299} A -> Y]\n"


def test_a_spelled_out_chain_of_9000_levels_decomposes(capsys):
    expr = "map(S1, " * 9000 + "Y" + ")" * 9000
    code, out, _ = run(capsys, "decompose", "--expr", expr, "--degree", "1")
    assert code == 0
    assert out.startswith("G[1](Y) + 9000*G[2](Y) + 40495500*G[3](Y) + ")
    assert out.endswith(" + 9000*G[9000](Y) + G[9001](Y)\n")


@pytest.mark.parametrize(
    "expr, shift",
    [("loop(Y, 100000000000000000000)", 10**20), ("map(T100000000000000000000, Y)", 10**20),
     ("loop(Y, 20000)", 20000)],
)
def test_oversized_check_exits_two_before_any_strategy_runs(capsys, expr, shift):
    # check walks the engine first, so decompose's size budget refuses the
    # answer before the closed forms or the randomized walk are set up.
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "--expr", expr, "--degree", "1")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: {_over_degree(shift)}\n")
    assert (code, out, err) == run(capsys, "decompose", "--expr", expr, "--degree", "1")


@pytest.mark.parametrize("circles", [10**20, 10**9])
def test_wide_bouquet_evaluates_without_building_the_wedge(capsys, circles):
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "eval", "--expr", f"bloop(Y, {circles}, 1)", "--degree", "2",
        "--profiles", str(REPO / "profiles" / "synthetic_demo.json"),
    )
    assert time.perf_counter() - start < 5
    assert code == 0
    assert f"(Z/2)^{circles}" in out


def test_deeply_nested_profile_document_exits_three(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run(capsys, "eval", "--expr", "Y", "--degree", "1", "--profiles", str(path))
    assert code == 3
    assert "nested too deeply" in err


def _unsieved_1501_digits() -> int:
    """A 1501-digit number that no prime below 1000 divides."""
    n = 10**1500 + 1
    while any(n % p == 0 for p in range(2, 1000)):
        n += 1
    return n


@pytest.mark.parametrize(
    "group",
    [lambda n: {"torsion": [[n, 1]]}, lambda n: f"Z/{n}"],
    ids=["structured", "text"],
)
def test_a_prime_candidate_past_the_cap_exits_three_at_once(capsys, tmp_path, group):
    path = tmp_path / "big.json"
    doc = {"spaces": {"Y": {"gottlieb": {"entries": {"1": group(_unsieved_1501_digits())}}}}}
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, _, err = run(capsys, "eval", "--expr", "Y", "--degree", "1", "--profiles", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert err == ("error: spaces.Y.gottlieb.entries.1: the digit count of a number to test "
                   "for primality is 1501, over the ceiling CERTIFY_DIGITS = 1500\n")


def test_a_4300_digit_power_of_two_still_loads(capsys, tmp_path):
    path = tmp_path / "power.json"
    doc = {"spaces": {"Y": {"gottlieb": {"entries": {"1": f"Z/{2**14284}"}}}}}
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "eval", "--expr", "Y", "--degree", "1", "--profiles", str(path))
    assert code == 0
    assert out == f"Z/{2**14284}\n"


def test_bad_degree_exits_two(capsys):
    code, _, err = run(capsys, "decompose", "--expr", "Y", "--degree", "0")
    assert code == 2


def test_missing_profile_file_exits_three(capsys, tmp_path):
    code, _, err = run(
        capsys, "eval", "--expr", "Y", "--degree", "1",
        "--profiles", str(tmp_path / "nope.json"),
    )
    assert code == 3
    assert "cannot read profile document" in err


def test_profile_file_that_is_not_utf8_exits_three(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"spaces": {"Y\xff": {}}}')
    code, _, err = run(
        capsys, "eval", "--expr", "loop(Y,1)", "--degree", "1", "--profiles", str(path)
    )
    assert code == 3
    assert "not UTF-8" in err


def _eval_entry(capsys, tmp_path, group):
    doc = {"spaces": {"Y": {"gottlieb": {"entries": {"1": group}}}}}
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(doc))
    return run(capsys, "eval", "--expr", "Y", "--degree", "1", "--profiles", str(path))


ENTRY = "spaces.Y.gottlieb.entries.1"


@pytest.mark.parametrize("pair", [[2, True], [True, 1]])
def test_boolean_torsion_entries_exit_three(capsys, tmp_path, pair):
    code, _, err = _eval_entry(capsys, tmp_path, {"torsion": [pair]})
    assert code == 3
    assert ENTRY in err
    assert "two integers" in err


@pytest.mark.parametrize("text", ["Z/" + "3" * 5000, "Z^" + "3" * 5000])
def test_overlong_group_integers_exit_three(capsys, tmp_path, text):
    code, _, err = _eval_entry(capsys, tmp_path, text)
    assert code == 3
    assert ENTRY in err
    assert "5000 digits is too long" in err
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize(
    "graded",
    [
        '{"entries": {"1": {"torsion": [[' + "7" * 5000 + ", 1]]}}}",
        '{"entries": {}, "zero_above": ' + "9" * 4400 + "}",
    ],
    ids=["torsion", "zero_above"],
)
def test_overlong_json_integers_exit_three(capsys, tmp_path, graded):
    # json.loads itself refuses these integers, with CPython's advice to
    # raise the digit limit; the loader reports a schema error instead.
    path = tmp_path / "long.json"
    path.write_text('{"spaces": {"Y": {"gottlieb": ' + graded + "}}}")
    code, _, err = run(capsys, "eval", "--expr", "Y", "--degree", "1", "--profiles", str(path))
    assert code == 3
    assert "too many digits" in err
    assert "set_int_max_str_digits" not in err


def test_overlong_degree_key_exits_three(capsys, tmp_path):
    path = tmp_path / "key.json"
    path.write_text(json.dumps({"spaces": {"Y": {"gottlieb": {"entries": {"1" * 5000: "Z"}}}}}))
    code, _, err = run(capsys, "eval", "--expr", "Y", "--degree", "1", "--profiles", str(path))
    assert code == 3
    assert "5000 digits is too long" in err
    assert "set_int_max_str_digits" not in err


def _over_order(digits: int) -> str:
    return (f"error: {ENTRY}: the digit count of a torsion order is {digits}, "
            "over the ceiling ORDER_DIGITS = 4300\n")


@pytest.mark.parametrize(
    "exponent, digits", [(10**30 - 1, 301029995663981202120128856065), (100_000_000, 30103000)]
)
def test_structured_exponent_past_the_digit_cap_exits_three(capsys, tmp_path, exponent, digits):
    # 2^k would take unbounded time to form and could not be printed; its
    # digit count is estimated from k * log10(2).
    start = time.perf_counter()
    code, _, err = _eval_entry(capsys, tmp_path, {"torsion": [[2, exponent]]})
    assert time.perf_counter() - start < 10
    assert (code, err) == (3, _over_order(digits))


def test_structured_items_at_the_digit_cap(capsys, tmp_path):
    # 2^14284 has 4300 digits and prints; 2^14285 has 4301.
    code, out, _ = _eval_entry(capsys, tmp_path, {"torsion": [[2, 14284, 3]]})
    assert code == 0
    assert out.strip() == f"(Z/{2**14284})^3"
    code, _, err = _eval_entry(capsys, tmp_path, {"torsion": [[2, 14285]]})
    assert (code, err) == (3, _over_order(4301))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_answer_with_a_factor_past_the_digit_limit_exits_two(capsys, tmp_path, fmt):
    # Both summands are admitted, but the invariant factor of their sum,
    # 2^10000 * 3^6000, has 5874 digits and cannot be printed.
    path = tmp_path / "wide.json"
    graded = {"entries": {"1": {"rank": 0, "torsion": [[2, 10000]]},
                          "2": {"rank": 0, "torsion": [[3, 6000]]}},
              "zero_above": 2}
    path.write_text(json.dumps({"spaces": {"Y": {"gottlieb": graded}}}))
    code, out, err = run(capsys, "eval", "--expr", "loop(Y, 1)", "--degree", "1",
                         "--profiles", str(path), "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == (
        "error: the digit count of a number to print is 5874 (the group's invariant factor), "
        "over the ceiling PRINT_DIGITS = 4300\n"
    )


# Two admitted summands whose sum, 2^10000 * 3^6000, has an invariant
# factor of 5874 digits.
WIDE = {"rank": 0, "torsion": [[2, 10000], [3, 6000]]}
# Keyed by the text that names the degree in each mismatch message: the
# g_space check and the identity-map check.
MISMATCHED_WIDE_DOCS = {
    "G[1] =": {"spaces": {"Y": {"flags": {"g_space": True},
                                "gottlieb": {"entries": {"1": WIDE}},
                                "homotopy": {"entries": {"1": "Z"}}}}},
    "at degree 1": {"spaces": {"Y": {"gottlieb": {"entries": {"1": WIDE}}}},
                    "maps": {"f": {"source": "Y", "target": "Y", "is_identity": True,
                                   "relative_gottlieb": {"entries": {"1": "Z"}}}}},
}


@pytest.mark.parametrize("degree_text", sorted(MISMATCHED_WIDE_DOCS))
def test_mismatch_naming_an_unprintable_group_exits_three(capsys, tmp_path, degree_text):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(MISMATCHED_WIDE_DOCS[degree_text]))
    code, out, err = run(capsys, "eval", "--expr", "Y", "--degree", "1",
                         "--profiles", str(path))
    assert code == 3
    assert out == ""
    assert degree_text in err
    assert "a group whose invariant factor has 5874 digits" in err
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize(
    "order, work, bits",
    [
        # 30- and 31-digit factors: more than 30 s of factoring with sympy.
        ((5 * 10**29 + 9) * (3 * 10**30 + 91), 1520198, 200),
        # A 1000-digit product of two primes.
        ((10**499 + 153) * (10**500 + 961), 1780120, 3319),
    ],
    ids=["61-digit", "1000-digit"],
)
def test_unfactorable_orders_exit_three_quickly(capsys, tmp_path, order, work, bits):
    start = time.perf_counter()
    code, _, err = _eval_entry(capsys, tmp_path, f"Z/{order}")
    assert time.perf_counter() - start < 10
    assert (code, err) == (3, f"error: {ENTRY}: Pollard-Brent rho's work on one order in "
                              f"one-word steps is {work} (on a {bits}-bit factor), over the "
                              "ceiling RHO_WORK = 1048576\n")


@pytest.mark.parametrize(
    "p, q",
    [
        (10**29 + 319, 10**29 + 379),  # close factors: the Fermat step
        (1000000007, 10**19 + 51),  # 10 by 20 digits: Pollard-Brent rho
    ],
    ids=["close", "10x20"],
)
def test_semiprime_orders_load(capsys, tmp_path, p, q):
    code, out, _ = _eval_entry(capsys, tmp_path, f"Z/{p * q}")
    assert code == 0
    assert out.strip() == f"Z/{p * q}"


def test_schema_error_exits_three(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"spaces": {"Y": {"color": "red"}}}')
    code, _, err = run(capsys, "eval", "--expr", "Y", "--degree", "1", "--profiles", str(path))
    assert code == 3


def test_unknown_space_exits_three(capsys, profile_path):
    code, _, err = run(
        capsys, "eval", "--expr", "Zz9", "--degree", "1", "--profiles", profile_path
    )
    assert code == 3
    assert "error:" in err


def test_usage_errors_exit_two(capsys, profile_path):
    # argparse's own failure mode: missing required argument.
    code, _, _ = run(capsys, "decompose", "--degree", "1")
    assert code == 2
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2
    # Post-parse usage validation.
    code, _, err = run(
        capsys, "rank", "--expr", "wedge(S1, S2)", "--profiles", profile_path
    )
    assert code == 2
    assert "map(X, Y)" in err


def test_rank_with_degree(capsys, profile_path):
    code, out, _ = run(
        capsys, "rank", "--expr", "map(C, Y)", "--degree", "2", "--profiles", profile_path
    )
    assert code == 0
    assert out.strip() == "gamma[2](map(C, Y)) = 1"


def test_rank_top_degree_report(capsys, profile_path):
    code, out, _ = run(capsys, "rank", "--expr", "map(C, Y)", "--profiles", profile_path)
    assert code == 0
    assert out.strip() == "top degree 5: gamma = 1"


def test_rank_top_degree_invariant_exits_three(capsys, profile_path, monkeypatch):
    # A rank that does not survive to the top degree is an explicit error,
    # so the check still runs under python -O.
    monkeypatch.setattr("gottlieb.ranks.gamma_of_map_space", lambda *args, **kw: 7)
    code, _, err = run(capsys, "rank", "--expr", "map(C, Y)", "--profiles", profile_path)
    assert code == 3
    assert "rank at the top degree must survive" in err


def test_rank_json(capsys, profile_path):
    code, out, _ = run(
        capsys, "rank", "--expr", "map(C, Y)", "--degree", "2",
        "--profiles", profile_path, "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["gamma"] == 1
    assert obj["hypotheses_verified"] is True


def test_rank_hypothesis_failure_exits_two(capsys, profile_path):
    code, _, err = run(
        capsys, "rank", "--expr", "map(C, B)", "--degree", "1", "--profiles", profile_path
    )
    assert code == 2
    assert "hypotheses" in err


def test_rank_unchecked_watermarks_output(capsys, profile_path):
    code, out, _ = run(
        capsys, "rank", "--expr", "map(N, Y)", "--degree", "2",
        "--profiles", profile_path, "--unchecked-hypotheses",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "gamma[2](map(N, Y)) = 1"
    assert lines[1] == "warning: hypotheses not verified"


def test_rank_unchecked_incomplete_exits_one(capsys, profile_path):
    code, out, _ = run(
        capsys, "rank", "--expr", "map(C, B)", "--degree", "1",
        "--profiles", profile_path, "--unchecked-hypotheses",
    )
    assert code == 1
    assert "unknown: gamma[1](B)" in out


def test_fox_symbolic_and_evaluated(capsys, profile_path):
    code, out, _ = run(capsys, "fox", "--expr", "Y", "--degree", "3")
    assert code == 0
    assert out.strip() == "G[1](Y) + 2*G[2](Y) + G[3](Y)"
    code, out, _ = run(
        capsys, "fox", "--expr", "Y", "--degree", "3", "--profiles", profile_path
    )
    assert code == 0
    assert out.strip().splitlines() == ["G[1](Y) + 2*G[2](Y) + G[3](Y)", "Z^2 + Z/2 + Z/4"]


def test_fox_of_a_chain_is_the_decomposition_of_its_loop_space(capsys):
    fox = run(capsys, "fox", "--expr", "map(S2, Y)", "--degree", "3")
    loop = run(capsys, "decompose", "--expr", "loop(map(S2, Y), 2)", "--degree", "1")
    assert fox == loop
    assert fox[0] == 0


def test_loop_homotopy_of_a_chain(capsys):
    code, out, _ = run(capsys, "loop-homotopy", "--expr", "map(S2, Y)", "--degree", "2")
    assert code == 0
    assert out == "pi[2](Y) + pi[3](Y) + pi[4](Y) + pi[5](Y)\n"


def test_loop_homotopy_of_a_blocked_chain_names_the_blocker(capsys):
    code, out, err = run(capsys, "loop-homotopy", "--expr", "map(B, Y)", "--degree", "2")
    assert code == 2
    assert out == ""
    assert err == "error: B does not split: atom has no declared suspension shifts\n"


def test_loop_homotopy_names_the_outermost_blocked_level(capsys):
    code, out, err = run(capsys, "loop-homotopy", "--expr", "map(B, map(A, Y))", "--degree", "2")
    assert code == 2
    assert out == ""
    assert err == "error: B does not split: atom has no declared suspension shifts\n"


def test_loop_homotopy(capsys, profile_path):
    code, out, _ = run(
        capsys, "loop-homotopy", "--expr", "Y", "--degree", "2", "--iterations", "2"
    )
    assert code == 0
    assert out.strip() == "pi[2](Y) + 2*pi[3](Y) + pi[4](Y)"
    code, out, _ = run(
        capsys, "loop-homotopy", "--expr", "Y", "--degree", "2", "--iterations", "1",
        "--profiles", profile_path,
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "Z + Z/2"


def test_loop_homotopy_degree_one_exits_two(capsys):
    code, _, err = run(capsys, "loop-homotopy", "--expr", "Y", "--degree", "1")
    assert code == 2
    assert "split extension" in err


def test_relative(capsys, profile_path):
    code, out, _ = run(
        capsys, "relative", "--map", "f", "--degree", "2", "--m", "2",
        "--profiles", profile_path,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "factors: G[2](C) + 2*Grel[3](f)"
    assert lines[1] == "structure: direct-sum"
    assert lines[2] == "Z/2 + (Z/8)^2"


def test_relative_with_a_huge_bouquet_width(capsys):
    # More circles than sys.maxsize: the multiplicity stays a count.
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "relative", "--map", "f", "--degree", "3", "--m", str(10**23),
        "--profiles", str(REPO / "profiles" / "synthetic_demo.json"),
    )
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out.splitlines()[0] == f"factors: G[3](X) + {10**23}*Grel[4](f)"


def test_eval_deep_loop_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "eval", "--expr", "loop(Y, 40)", "--degree", "2",
        "--profiles", str(REPO / "profiles" / "synthetic_demo.json"),
    )
    assert time.perf_counter() - start < 1
    assert code == 0
    assert "(Z/3)^" in out


def test_relative_degree_one_marks_split_extension(capsys, profile_path):
    code, out, _ = run(
        capsys, "relative", "--map", "f", "--degree", "1", "--profiles", profile_path
    )
    assert code == 0
    assert "structure: split-extension" in out
    assert "note: degree-1 factors only" in out


def test_relative_identity_reduces(capsys, profile_path):
    code, out, _ = run(
        capsys, "relative", "--map", "idY", "--degree", "2", "--m", "3",
        "--profiles", profile_path,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "factors: G[2](Y) + 3*G[3](Y)"
    assert lines[2] == "Z + (Z/2)^3"


def test_relative_unsupported_iterations_exit_two(capsys, profile_path):
    code, _, err = run(
        capsys, "relative", "--map", "f", "--degree", "2", "--iterations", "3",
        "--profiles", profile_path,
    )
    assert code == 2
    code, _, err = run(
        capsys, "relative", "--map", "f", "--degree", "2", "--m", "2",
        "--iterations", "2", "--profiles", profile_path,
    )
    assert code == 2


def test_flags_text(capsys, profile_path):
    code, out, _ = run(
        capsys, "flags", "--expr", "map(S2, Y)", "--profiles", profile_path
    )
    assert code == 0
    assert out.strip().splitlines() == ["g_space: false", "t_space: unknown"]


def test_flags_json_uses_null_for_unknown(capsys, profile_path):
    code, out, _ = run(
        capsys, "flags", "--expr", "map(B, Y)", "--profiles", profile_path,
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["g_space"] is False  # false propagates even without a splitting
    assert obj["t_space"] is None


def test_loop_check_pass(capsys, profile_path):
    code, out, _ = run(
        capsys, "loop-check", "--expr", "Y", "--candidate", "LY",
        "--degrees", "1..4", "--profiles", profile_path,
    )
    assert code == 0
    assert out.strip() == "pass"


def test_loop_check_fail_exits_four(capsys, profile_path):
    code, out, _ = run(
        capsys, "loop-check", "--expr", "Y", "--candidate", "Y",
        "--degrees", "1..2", "--profiles", profile_path,
    )
    assert code == 4
    lines = out.strip().splitlines()
    assert lines[0] == "fail"
    assert "degree 1" in lines[1]


def test_loop_check_incomplete_exits_one(capsys, profile_path):
    code, out, _ = run(
        capsys, "loop-check", "--expr", "Y", "--candidate", "P",
        "--degrees", "1", "--profiles", profile_path,
    )
    assert code == 1
    assert out.strip().splitlines()[0] == "incomplete"


def test_loop_check_bad_window_exits_two(capsys, profile_path):
    code, _, err = run(
        capsys, "loop-check", "--expr", "Y", "--candidate", "LY",
        "--degrees", "4..1", "--profiles", profile_path,
    )
    assert code == 2
    code, _, err = run(
        capsys, "loop-check", "--expr", "Y", "--candidate", "LY",
        "--degrees", "a..b", "--profiles", profile_path,
    )
    assert code == 2


def test_check_single_expression(capsys):
    code, out, _ = run(capsys, "check", "--expr", "map(T2, Y)", "--degree", "3")
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_check_incomplete_derived_table_exits_four(capsys, monkeypatch):
    monkeypatch.setattr(
        "gottlieb.oracle._fold_table",
        lambda *args, **kw: Incomplete(("G[9](Y)",), ()),
    )
    code, out, _ = run(capsys, "check", "--expr", "map(T2, Y)", "--degree", "3")
    assert code == 4
    assert "FAIL evaluated decompose == derived-profile recursion" in out
    assert "derived table incomplete: missing G[9](Y)" in out


def test_check_degree_without_expr_exits_two(capsys):
    # The default suite has its own windows; a --degree it would ignore is refused.
    code, out, err = run(capsys, "check", "--degree", "2")
    assert code == 2
    assert out == ""
    assert err == "error: check --degree needs --expr; the default suite has fixed windows\n"


def test_check_json(capsys):
    code, out, _ = run(
        capsys, "check", "--expr", "bloop(Y, 2, 2)", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert obj["reports"][0]["expr"] == "bloop(Y, 2, 2)"
    assert all(e["passed"] for e in obj["reports"][0]["entries"])
    assert "skipped" not in obj["reports"][0]


def test_check_json_lists_skips_without_failing(capsys):
    code, out, _ = run(capsys, "check", "--expr", "loop(Y, 30)", "--degree", "1",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert report["skipped"] == [
        {"strategy": "tuple-enumeration",
         "reason": "the number of tuples tuple-enumeration enumerates is 2^30, "
                   "over the ceiling TUPLE_BUDGET = 100000"}
    ]
    assert len(report["entries"]) == 11


def test_check_default_suite(capsys):
    code, out, _ = run(capsys, "check", "--seed", "1")
    assert code == 0
    assert "all checks passed" in out
    # Six fixed cases plus the randomized corpus.
    assert out.count("crosscheck ") == 31


CLI_ENV = dict(os.environ, PYTHONPATH=str(REPO / "src"), COLUMNS="80")


@pytest.mark.parametrize(("expr", "circles"), [("loop(Y, 30)", 30), ("map(T40, Y)", 40)])
def test_check_of_a_long_circle_chain_skips_tuple_enumeration(expr, circles):
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "gottlieb.cli", "check", "--expr", expr, "--degree", "1"],
        capture_output=True, text=True, env=CLI_ENV, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-2:] == [
        f"  SKIP tuple-enumeration: the number of tuples tuple-enumeration enumerates is "
        f"2^{circles}, over the ceiling TUPLE_BUDGET = 100000",
        "all checks passed",
    ]
    assert elapsed < 1, elapsed


@pytest.mark.parametrize(
    ("argv", "length"),
    [
        (("check", "--expr", "T40", "--degree", str(10**20)), 10**20),
        (("check", "--expr", "map(T40, Y)", "--degree", str(10**20)), 10**20),
        (("check", "--expr", "map(S1, Y)", "--degree", "100000"), 100000),
        (("loop-check", "--expr", "Y", "--candidate", "LY", "--degrees", f"1..{10**20}",
          "--profiles", str(REPO / "profiles" / "synthetic_demo.json")), 10**20),
    ],
)
def test_a_window_over_the_ceiling_exits_two_at_once(argv, length):
    # Under the cap an unbounded allocation ends in MemoryError, not in an
    # exhausted machine.
    result, elapsed = run_capped([sys.executable, "-m", "gottlieb.cli", *argv], CLI_ENV)
    assert (result.returncode, result.stdout) == (2, ""), result.stderr
    assert result.stderr == (
        f"error: the number of degrees a command lists is {length}, "
        "over the ceiling WINDOW_CEILING = 10000\n"
    )
    assert elapsed < 1, elapsed


def test_a_window_at_the_ceiling_is_checked():
    result, elapsed = run_capped(
        [sys.executable, "-m", "gottlieb.cli", "check", "--expr", "map(S1, Y)",
         "--degree", "10000"], CLI_ENV,
    )
    assert result.returncode == 0, result.stderr
    assert "PASS deterministic == randomized on degrees 1..10000" in result.stdout
    assert result.stdout.endswith("all checks passed\n")
    assert elapsed < 1, elapsed


_BIG = str(10**20)
_DEMO = str(REPO / "profiles" / "synthetic_demo.json")
_BIG_EXPANSION = (f"error: the number of copies desugar builds is {_BIG}, "
                  "over the ceiling EXPANSION_CEILING = 100000\n")


@pytest.mark.parametrize(
    ("argv", "codes", "fragment"),
    [
        (("decompose", "--expr", f"map(map(T{_BIG}, Y), Y)"), {2}, _BIG_EXPANSION),
        (("decompose", "--expr", f"wedge(loop(Y, {_BIG}), S2)"), {2},
         f"no decomposition rule for target 'wedge(loop(Y, {_BIG}), S2)'"),
        (("eval", "--expr", f"T{_BIG}", "--profiles", _DEMO), {2},
         f"no decomposition rule for target 'T{_BIG}'"),
        (("check", "--expr", f"map(B{_BIG}, Y)"), {0, 2}, _BIG_EXPANSION),
        (("decompose", "--expr", "map(A, loop(Y, 1000000000))"), {2},
         f"error: {_over_degree(1000000000)}\n"),
        (("decompose", "--expr", f"map(wedge(A, T{_BIG}), Y)"), {2}, _BIG_EXPANSION),
        (("loop-homotopy", "--expr", f"map(map(T{_BIG}, Y), Y)", "--degree", "2"), {2},
         f"error: map(T{_BIG}, Y) does not split"),
    ],
)
def test_a_huge_count_is_never_expanded(argv, codes, fragment):
    # Each case used to expand its count: an OverflowError traceback, or no end.
    if "--degree" not in argv:
        argv += ("--degree", "1")
    result, _ = run_capped([sys.executable, "-m", "gottlieb.cli", *argv], CLI_ENV, timeout=5)
    assert result.returncode in codes, result.stderr
    assert "Traceback" not in result.stderr
    assert fragment in result.stdout + result.stderr


def test_a_residual_over_a_deep_loop_prints_its_desugared_target():
    result, elapsed = run_capped(
        [sys.executable, "-m", "gottlieb.cli", "decompose", "--expr", "map(A, loop(Y, 2000))",
         "--degree", "1"], CLI_ENV,
    )
    assert result.returncode == 0, result.stderr
    spelled = Atom("Y")
    for _ in range(2000):
        spelled = MapSpace(Sphere(1), spelled)
    assert result.stdout == f"{decompose(MapSpace(Atom('A'), spelled), 1)}\n"
    assert result.stdout.endswith("Gen[Σ^1 A -> " + "map(S1, " * 2000 + "Y" + ")" * 2000 + "]\n")
    assert elapsed < 1, elapsed


def test_check_compares_residuals_over_a_deep_loop():
    result, elapsed = run_capped(
        [sys.executable, "-m", "gottlieb.cli", "check", "--expr", "map(B, loop(Y, 400))",
         "--degree", "1"], CLI_ENV,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith("all checks passed\n")
    assert elapsed < 1, elapsed


def test_parser_is_built_once_per_process():
    code = """
import argparse, json
from gottlieb.cli import main
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
counts = []
for _ in range(2):
    before = len(built)
    main(["decompose", "--expr", "map(T10, Y)", "--degree", "3", "--format", "json"])
    counts.append(len(built) - before)
print(json.dumps(counts))
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=CLI_ENV, timeout=60)
    assert result.returncode == 0, result.stderr
    first, second = json.loads(result.stdout.splitlines()[-1])
    # The top-level parser and one per subcommand, then none.
    assert first == 1 + len(_COMMANDS)
    assert second == 0


def test_reused_parser_gives_the_output_of_a_fresh_process(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    sequence = [
        ["decompose", "--expr", "map(T2, Y)"],
        ["no-such-command"],
        ["--help"],
        ["check", "--help"],
        [],
        ["decompose", "--expr", "map(T10, Y)", "--degree", "3", "--format", "json"],
    ]
    in_process = [run(capsys, *argv) for argv in sequence]
    for argv, got in zip(sequence, in_process):
        fresh = subprocess.run([sys.executable, "-m", "gottlieb.cli", *argv],
                               capture_output=True, text=True, env=CLI_ENV, timeout=60)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert [code for code, _, _ in in_process] == [2, 2, 0, 0, 2, 0]



def test_a_closed_stdout_exits_141_without_a_traceback():
    # The answer is about 2 MB, far more than a pipe holds, so the CLI is
    # still printing when its reader closes the pipe after 10 bytes.
    proc = subprocess.Popen(
        [sys.executable, "-m", "gottlieb.cli", "decompose", "--expr", "loop(Y, 3000)",
         "--degree", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CLI_ENV,
    )
    assert proc.stdout.read(10) == b"G[1](Y) + "
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 141, stderr
    assert "Traceback" not in stderr and "Exception ignored" not in stderr
