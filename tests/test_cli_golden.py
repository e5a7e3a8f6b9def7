"""Golden corpus: the exact stdout, stderr and exit code of every subcommand.

Each argv in ``CORPUS`` runs twice, in text and in JSON, through
``gottlieb.cli.main`` against the small profile ``DOC`` written to a
temporary directory.  ``cli_golden.json`` holds the expected bytes, with
the temporary directory written as ``{tmp}``.  The corpus covers the
complete, incomplete, failure, usage-error and profile-error paths.

After a deliberate output change, regenerate the goldens with
``PYTHONPATH=src python tests/test_cli_golden.py`` and list every changed
case in CHANGES.md.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from gottlieb.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

DOC = {
    "spaces": {
        "Y": {
            "betti": [1, 0, 1],
            "flags": {"simply_connected": True, "finite": True, "g_space": False,
                      "t_space": True},
            "gottlieb": {
                "entries": {"1": "Z/2", "2": "Z", "3": "Z + Z/3", "4": "0"},
                "zero_above": 4,
            },
            "homotopy": {"entries": {"2": "Z", "3": "Z/2", "4": "Z"}},
        },
        # Ranks are known only up to degree 2, so ranks above it are unknown.
        "U": {
            "flags": {"simply_connected": True, "finite": True},
            "gottlieb": {"entries": {"1": "0", "2": "Z"}},
        },
        "E": {
            "flags": {"simply_connected": True, "finite": True},
            "gottlieb": {"entries": {"1": "Z/2"}, "zero_above": 2},
        },
        "G": {
            "flags": {"g_space": True},
            "gottlieb": {"entries": {"2": "Z"}},
            "homotopy": {"entries": {"2": "Z"}},
        },
        # Every rank up to the bound is zero.
        "T": {
            "flags": {"simply_connected": True, "finite": True},
            "gottlieb": {"entries": {"1": "Z/2"}, "zero_above": 1},
        },
        "X": {"betti": [1, 1], "suspension_shifts": [2], "flags": {"finite": True}},
        "N": {"betti": [1, 1]},
        "Q": {"flags": {"finite": False}},
        # Free-loop candidates over Y: one that passes, one that fails, one unknown.
        "LY": {"gottlieb": {"entries": {"1": "Z + Z/2", "2": "Z^2 + Z/3", "3": "Z + Z/3"}}},
        "LF": {"gottlieb": {"entries": {"1": "Z/2", "2": "Z"}}},
        "LU": {"gottlieb": {"entries": {"2": "Z^2 + Z/3"}}},
    },
    "maps": {
        # The relative table lacks degree 2, so degree-1 factors are unknown.
        "f": {"source": "X", "target": "Y",
              "relative_gottlieb": {"entries": {"3": "Z/4"}}},
        "idY": {"source": "Y", "target": "Y", "is_identity": True},
    },
}

P = "{profiles}"

CORPUS = [
    # decompose
    ["decompose", "--expr", "map(T2, Y)", "--degree", "1"],
    ["decompose", "--expr", "map(prod(S2, wedge(S1, A)), Y)", "--degree", "2"],
    ["decompose", "--expr", "map(X, Y)", "--degree", "1", "--profiles", P],
    ["decompose", "--expr", "map(T2, Y", "--degree", "1"],
    ["decompose", "--expr", "map(S1, Y)", "--degree", "0"],
    # eval
    ["eval", "--expr", "loop(Y, 2)", "--degree", "1", "--profiles", P],
    ["eval", "--expr", "map(S1, U)", "--degree", "2", "--profiles", P],
    ["eval", "--expr", "map(wedge(S1, A), Y)", "--degree", "1", "--profiles", P],
    ["eval", "--expr", "map(S1, Z)", "--degree", "1", "--profiles", P],
    ["eval", "--expr", "Y", "--degree", "1", "--profiles", "{tmp}/missing.json"],
    ["eval", "--expr", "Y", "--degree", "1"],
    # rank
    ["rank", "--expr", "map(X, Y)", "--degree", "2", "--profiles", P],
    ["rank", "--expr", "map(X, Y)", "--profiles", P],
    ["rank", "--expr", "map(X, E)", "--profiles", P],
    ["rank", "--expr", "map(X, U)", "--degree", "2", "--profiles", P],
    ["rank", "--expr", "map(X, U)", "--profiles", P, "--unchecked-hypotheses"],
    ["rank", "--expr", "map(X, T)", "--profiles", P],
    ["rank", "--expr", "map(N, Y)", "--degree", "1", "--profiles", P, "--unchecked-hypotheses"],
    ["rank", "--expr", "map(N, Y)", "--profiles", P, "--unchecked-hypotheses"],
    ["rank", "--expr", "map(Q, Y)", "--degree", "1", "--profiles", P],
    ["rank", "--expr", "map(Q, Y)", "--degree", "1", "--profiles", P,
     "--unchecked-hypotheses"],
    ["rank", "--expr", "map(T3, Y)", "--degree", "2", "--profiles", P],
    # fox
    ["fox", "--expr", "Y", "--degree", "3"],
    ["fox", "--expr", "Y", "--degree", "3", "--profiles", P],
    ["fox", "--expr", "U", "--degree", "3", "--profiles", P],
    ["fox", "--expr", "map(S1, Y)", "--degree", "2"],
    # loop-homotopy
    ["loop-homotopy", "--expr", "Y", "--degree", "2", "--iterations", "2"],
    ["loop-homotopy", "--expr", "Y", "--degree", "2", "--profiles", P],
    ["loop-homotopy", "--expr", "Y", "--degree", "3", "--iterations", "2", "--profiles", P],
    ["loop-homotopy", "--expr", "Y", "--degree", "1"],
    # relative
    ["relative", "--map", "f", "--degree", "2", "--profiles", P],
    ["relative", "--map", "f", "--degree", "1", "--m", "2", "--profiles", P],
    ["relative", "--map", "idY", "--degree", "1", "--iterations", "2", "--profiles", P],
    ["relative", "--map", "g", "--degree", "2", "--profiles", P],
    ["relative", "--map", "f", "--degree", "2", "--iterations", "3", "--profiles", P],
    # flags
    ["flags", "--expr", "map(S2, Y)", "--profiles", P],
    ["flags", "--expr", "map(A, Y)", "--profiles", P],
    ["flags", "--expr", "map(S2, G)", "--profiles", P],
    ["flags", "--expr", "map(A, G)", "--profiles", P],
    ["flags", "--expr", "Y", "--profiles", P],
    # loop-check
    ["loop-check", "--expr", "Y", "--candidate", "LY", "--degrees", "1..3", "--profiles", P],
    ["loop-check", "--expr", "Y", "--candidate", "LF", "--degrees", "1..2", "--profiles", P],
    ["loop-check", "--expr", "Y", "--candidate", "LU", "--degrees", "1..3", "--profiles", P],
    ["loop-check", "--expr", "Y", "--candidate", "LY", "--degrees", "3..1", "--profiles", P],
    # check
    ["check", "--expr", "map(T2, Y)", "--degree", "2"],
    ["check", "--expr", "bloop(Y, 2, 2)", "--profiles", P],
    ["check", "--degree", "2"],
    # parse errors
    ["no-such-command"],
    ["decompose", "--expr", "map(T2, Y)"],
]


def _run(argv: list[str], tmp: str, read) -> dict:
    """Run ``main`` on ``argv``; ``read()`` returns what it wrote to stdout and stderr."""
    argv = [arg.replace(P, f"{tmp}/demo.json").replace("{tmp}", tmp) for arg in argv]
    code = main(argv)
    out, err = read()
    return {"code": code, "stdout": out.replace(tmp, "{tmp}"),
            "stderr": err.replace(tmp, "{tmp}")}


def _cases() -> list[list[str]]:
    return [argv + fmt for argv in CORPUS for fmt in ([], ["--format", "json"])]


@pytest.fixture(scope="module")
def expected() -> dict:
    return {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text(encoding="utf-8"))}


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_cli_output_matches_golden(argv, expected, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    (tmp_path / "demo.json").write_text(json.dumps(DOC), encoding="utf-8")
    got = _run(argv, str(tmp_path), lambda: tuple(capsys.readouterr()))
    assert {"argv": argv, **got} == expected[tuple(argv)]


def test_golden_file_covers_the_corpus_exactly(expected):
    assert sorted(expected) == sorted(tuple(argv) for argv in _cases())


def _regenerate() -> None:
    os.environ["COLUMNS"] = "80"
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "demo.json").write_text(json.dumps(DOC), encoding="utf-8")
        for argv in _cases():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                got = _run(argv, tmp, lambda: (out.getvalue(), err.getvalue()))
            cases.append({"argv": argv, **got})
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
