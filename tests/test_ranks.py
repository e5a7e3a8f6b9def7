"""Rank computations, hypothesis gating, flags, and the free-loop check."""

import json
import os
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gottlieb
from conftest import db_of, run_capped, synthetic_space
from gottlieb.cli import main
from gottlieb.abelian import canonicalize, parse_group
from gottlieb.decompose import decompose
from gottlieb.profiles import Flags, GradedGroup, Incomplete, SpaceProfile, evaluate
from gottlieb.ranks import (
    HypothesisError,
    LoopCheckVerdict,
    PropagatedFlags,
    TopDegreeReport,
    free_loop_necessary_condition,
    gamma_of_map_space,
    hypotheses_met,
    propagate_flags,
    top_degree_report,
)
from gottlieb.spaces import Atom, MapSpace, Sphere, parse_space


def _ranked(name, ranks, bound=None, **flag_kw):
    table = GradedGroup({d: canonicalize(r) for d, r in ranks.items()}, zero_above=bound)
    flags = Flags(**({"simply_connected": True, "finite": True} | flag_kw))
    return SpaceProfile(name, gottlieb=table, flags=flags)


GOOD_X = SpaceProfile("X", betti=(1, 0, 3), flags=Flags(finite=True))


def test_gamma_examples():
    y = _ranked("Y", {3: 2, 4: 0, 5: 1})
    assert gamma_of_map_space(GOOD_X, y, 3) == 2 + 0 * 0 + 3 * 1
    point = SpaceProfile("P", betti=(1,), flags=Flags(finite=True))
    assert gamma_of_map_space(point, y, 4) == 0
    assert gamma_of_map_space(point, y, 5) == 1
    circle = SpaceProfile("C", betti=(1, 1), flags=Flags(finite=True))
    assert gamma_of_map_space(circle, y, 3) == 2
    assert gamma_of_map_space(circle, y, 4) == 1


def test_torsion_contributes_no_rank():
    table = GradedGroup({3: parse_group("Z^2 + Z/8"), 4: parse_group("Z/3"), 5: parse_group("Z")})
    y = SpaceProfile("Y", gottlieb=table, flags=Flags(simply_connected=True, finite=True))
    assert gamma_of_map_space(GOOD_X, y, 3) == 2 + 3 * 1


def test_hypotheses_are_enforced():
    y = _ranked("Y", {1: 1})
    bad_y = SpaceProfile("Y", gottlieb=GradedGroup({1: canonicalize(1)}))
    assert hypotheses_met(GOOD_X, y)
    assert not hypotheses_met(GOOD_X, bad_y)
    with pytest.raises(HypothesisError) as err:
        gamma_of_map_space(GOOD_X, bad_y, 1)
    assert "simply connected" in str(err.value)

    infinite_x = SpaceProfile("X", betti=(1,), flags=Flags(finite=False))
    with pytest.raises(HypothesisError):
        gamma_of_map_space(infinite_x, y, 1)

    unknown_x = SpaceProfile("X", betti=(1,))
    with pytest.raises(HypothesisError):
        gamma_of_map_space(unknown_x, y, 1)


def test_unchecked_override_skips_the_gate():
    bad_y = SpaceProfile("Y", gottlieb=GradedGroup({1: canonicalize(2)}))
    x = SpaceProfile("X", betti=(1,))
    assert gamma_of_map_space(x, bad_y, 1, unchecked=True) == 2


def test_missing_betti_is_a_hypothesis_failure():
    y = _ranked("Y", {1: 1})
    x = SpaceProfile("X", flags=Flags(finite=True))
    with pytest.raises(HypothesisError) as err:
        gamma_of_map_space(x, y, 1)
    assert "Betti" in str(err.value)


def test_missing_ranks_give_incomplete():
    # Window for betti (1, 0, 3) at degree 3 is degrees 3..5; only 4 is absent.
    y = _ranked("Y", {3: 2, 5: 1})
    result = gamma_of_map_space(GOOD_X, y, 3)
    assert isinstance(result, Incomplete)
    assert result.missing == ("gamma[4](Y)",)


def test_degree_validation():
    y = _ranked("Y", {1: 0})
    with pytest.raises(ValueError):
        gamma_of_map_space(GOOD_X, y, 0)


def test_gamma_matches_decompose_rank():
    rng = random.Random(5)
    for trial in range(20):
        dims = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        betti = [1] + [0] * max(dims)
        for d in dims:
            betti[d] += 1
        shifts = tuple(sorted(dims))
        x = SpaceProfile(
            "X", betti=tuple(betti), suspension_shifts=shifts, flags=Flags(finite=True)
        )
        y = synthetic_space("Y", rng, range(1, 10), zero_above=9)
        db = db_of(x, y)
        degree = rng.randint(1, 5)
        group = evaluate(decompose(parse_space("map(X, Y)"), degree, db.atom_shifts()), db)
        gamma = gamma_of_map_space(x, y, degree)
        assert gamma == group.rank, (trial, degree)


def test_top_degree_report():
    y = _ranked("Y", {1: 0, 2: 1, 3: 0, 4: 2, 5: 0}, bound=5)
    report = top_degree_report(GOOD_X, y)
    assert report == TopDegreeReport(degree=4, gamma_top=2)
    assert not report.all_zero


def test_top_degree_all_zero():
    y = _ranked("Y", {1: 0, 2: 0}, bound=2)
    report = top_degree_report(GOOD_X, y)
    assert report.all_zero
    assert report.degree is None and report.gamma_top is None


def test_top_degree_needs_a_bound():
    y = _ranked("Y", {1: 1})
    with pytest.raises(HypothesisError) as err:
        top_degree_report(GOOD_X, y)
    assert "zero_above" in str(err.value)


def test_top_degree_reports_gaps():
    y = _ranked("Y", {1: 1, 3: 1}, bound=3)
    result = top_degree_report(GOOD_X, y)
    assert isinstance(result, Incomplete)
    assert result.missing == ("gamma[2](Y)",)


def _scanned_top_degree(y):
    """The top-degree report by its definition: every degree 1..bound read in turn."""
    missing, top = [], None
    for d in range(1, y.gottlieb.zero_above + 1):
        group = y.gottlieb.lookup(d)
        if group is None:
            missing.append(f"gamma[{d}]({y.name})")
        elif group.rank > 0:
            top = d
    if missing:
        return Incomplete(tuple(missing), ())
    return TopDegreeReport(top, None if top is None else y.gottlieb.lookup(top).rank)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8), st.dictionaries(st.integers(1, 8), st.integers(0, 2)))
def test_top_degree_report_agrees_with_a_scan_of_every_degree(bound, ranks):
    # Complete tables, tables with gaps, all-zero and empty ones.
    y = _ranked("Y", {d: r for d, r in ranks.items() if d <= bound}, bound=bound)
    x = SpaceProfile("X", betti=(1,), flags=Flags(finite=True))
    assert top_degree_report(x, y) == _scanned_top_degree(y)


def _bounded_doc(tmp_path, entries, bound):
    doc = {"spaces": {
        "X": {"betti": [1, 1], "flags": {"finite": True}},
        "Y": {"flags": {"finite": True, "simply_connected": True},
              "gottlieb": {"entries": entries, "zero_above": bound}},
    }}
    path = tmp_path / "bounded.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_rank_report_refuses_more_unknown_degrees_than_the_ceiling(tmp_path):
    # Two entries under a bound of 10^12: listing the unknown degrees would
    # never end, so the CLI refuses before reading any of them.
    path = _bounded_doc(tmp_path, {"1": "Z", "2": "Z/2"}, 10**12)
    env = dict(os.environ, PYTHONPATH=str(Path(gottlieb.__file__).parents[1]))
    argv = [sys.executable, "-m", "gottlieb.cli", "rank", "--expr", "map(X, Y)",
            "--profiles", path]
    result, elapsed = run_capped(argv, env)
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert result.stderr == ("error: rank report of 999999999998 unknown degrees "
                             "is over the ceiling of 10000\n")
    assert elapsed < 1, elapsed


def test_rank_report_at_the_ceiling_lists_its_unknown_degrees(tmp_path, capsys):
    path = _bounded_doc(tmp_path, {"1": "Z"}, 10_001)
    assert main(["rank", "--expr", "map(X, Y)", "--profiles", path, "--format", "json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["missing"] == [f"gamma[{d}](Y)" for d in range(2, 10_002)]


def test_rank_report_of_a_complete_table_reads_its_entries(tmp_path, capsys):
    path = _bounded_doc(tmp_path, {str(d): "Z" if d in (3, 40) else "Z/2" for d in range(1, 41)},
                        40)
    assert main(["rank", "--expr", "map(X, Y)", "--profiles", path]) == 0
    assert capsys.readouterr().out == "top degree 40: gamma = 1\n"


def test_flag_propagation_truth_table():
    cases = [
        # (g_space of Y, t_space of Y, splittable source?, expected g, expected t)
        (True, True, True, True, True),
        (True, True, False, None, True),
        (False, True, True, False, True),
        (False, None, False, False, None),
        (None, False, True, None, False),
        (None, True, False, None, True),
        (True, None, True, True, None),
        (None, None, False, None, None),
        (False, False, True, False, False),
    ]
    for g, t, splittable, want_g, want_t in cases:
        y = SpaceProfile("Y", flags=Flags(g_space=g, t_space=t))
        source = Sphere(2) if splittable else Atom("B")
        got = propagate_flags(source, y)
        assert got == PropagatedFlags(g_space=want_g, t_space=want_t), (g, t, splittable)


def test_flag_propagation_uses_atom_shifts():
    y = SpaceProfile("Y", flags=Flags(g_space=True))
    assert propagate_flags(Atom("X"), y).g_space is None
    assert propagate_flags(Atom("X"), y, {"X": (5,)}).g_space is True


_DEMO = str(Path(__file__).resolve().parents[1] / "profiles" / "synthetic_demo.json")


def test_flags_read_splittability_without_forming_the_polynomial(capsys):
    # A splitting's polynomial may be over the size budget; whether the
    # source splits is read off its degree, which costs its digits.
    def flags(text):
        code = main(["flags", "--expr", text, "--profiles", _DEMO])
        return code, capsys.readouterr()

    expected = flags("map(S2, GY)")
    assert expected[0] == 0 and expected[1].out == "g_space: true\nt_space: true\n"
    for text in ("map(T20000, GY)", "map(prod(S6000, S6000), GY)",
                 "map(T100000000000000000000, GY)", "map(S20000, GY)"):
        assert flags(text) == expected, text
    assert flags("map(prod(T20000, B), GY)")[1].out == "g_space: unknown\nt_space: true\n"
    y = SpaceProfile("Y", flags=Flags(g_space=False))
    assert propagate_flags(parse_space("prod(T20000, map(S1, Y))"), y).g_space is False


def _graded(ranks_or_groups, bound=None):
    entries = {
        d: g if not isinstance(g, str) else parse_group(g)
        for d, g in ranks_or_groups.items()
    }
    return GradedGroup(entries, zero_above=bound)


def test_free_loop_check_passes_on_a_true_loop_table():
    base = _graded({1: "Z", 2: "Z/2", 3: "Z", 4: "0", 5: "Z/3"})
    candidate = _graded(
        {d: parse_group(a).direct_sum(parse_group(b)) for d, (a, b) in
         {1: ("Z", "Z/2"), 2: ("Z/2", "Z"), 3: ("Z", "0"), 4: ("0", "Z/3")}.items()}
    )
    verdict = free_loop_necessary_condition(candidate, base, range(1, 5))
    assert verdict.passed
    assert verdict.status == "pass"


def test_free_loop_check_fails_with_first_degree():
    base = _graded({1: "Z", 2: "Z/2", 3: "Z"})
    candidate = _graded({1: "Z + Z/2", 2: "Z"})  # degree 2 should be Z/2 + Z
    verdict = free_loop_necessary_condition(candidate, base, [1, 2])
    assert verdict.status == "fail"
    assert verdict.failing_degree == 2
    assert "degree 2" in verdict.detail


def test_free_loop_check_incomplete():
    base = _graded({1: "Z"})
    candidate = _graded({1: "Z"})
    verdict = free_loop_necessary_condition(candidate, base, [1])
    assert verdict.status == "incomplete"
    assert "base G[2]" in verdict.missing
    assert not verdict.passed


def test_free_loop_check_respects_bounds():
    base = _graded({1: "Z"}, bound=1)
    candidate = _graded({1: "Z", 2: "0"}, bound=2)
    verdict = free_loop_necessary_condition(candidate, base, [1, 2])
    assert verdict.passed


@pytest.mark.parametrize("degree", [1.5, True])
def test_gamma_refuses_a_degree_that_is_not_a_positive_integer(degree):
    y = _ranked("Y", {1: 1, 2: 1, 3: 1})
    with pytest.raises(TypeError, match="degree must be an integer"):
        gamma_of_map_space(GOOD_X, y, degree)


def test_free_loop_check_refuses_a_fractional_degree():
    base = _graded({1: "Z", 2: "Z"})
    with pytest.raises(TypeError, match="degree must be an integer, got 1.5"):
        free_loop_necessary_condition(base, base, [1.5])


def test_free_loop_check_reads_a_huge_range_as_given():
    # Sorting the window would allocate until the address-space cap.
    code = (
        "from gottlieb.abelian import parse_group\n"
        "from gottlieb.profiles import GradedGroup\n"
        "from gottlieb.ranks import free_loop_necessary_condition\n"
        "base = GradedGroup({1: parse_group('Z'), 2: parse_group('Z/2')})\n"
        "candidate = GradedGroup({1: parse_group('Z')})\n"
        "verdict = free_loop_necessary_condition(candidate, base, range(1, 10**20 + 1))\n"
        "print(verdict.status, verdict.failing_degree)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(gottlieb.__file__).parents[1]))
    result, elapsed = run_capped([sys.executable, "-c", code], env)
    assert (result.returncode, result.stdout) == (0, "fail 1\n"), result.stderr
    assert elapsed < 1, elapsed


def test_free_loop_check_stops_at_the_bounds_of_a_huge_range():
    # Above both bounds every read is the trivial group, so the check ends
    # at the larger bound instead of walking 10^20 passing degrees.
    code = (
        "from gottlieb.abelian import parse_group\n"
        "from gottlieb.profiles import GradedGroup\n"
        "from gottlieb.ranks import free_loop_necessary_condition\n"
        "base = GradedGroup({1: parse_group('Z'), 2: parse_group('Z/2')}, zero_above=2)\n"
        "candidate = GradedGroup({1: parse_group('Z + Z/2'), 2: parse_group('Z/2'),"
        " 3: parse_group('0')}, zero_above=3)\n"
        "verdict = free_loop_necessary_condition(candidate, base, range(1, 10**20 + 1))\n"
        "print(verdict.status, verdict.failing_degree)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(gottlieb.__file__).parents[1]))
    result, elapsed = run_capped([sys.executable, "-c", code], env)
    assert (result.returncode, result.stdout) == (0, "pass None\n"), result.stderr
    assert elapsed < 1, elapsed


def _read(table, degree):
    """A table's group at ``degree`` by its definition, without ``lookup``."""
    if degree in table.entries:
        return table.entries[degree]
    if table.zero_above is not None and degree > table.zero_above:
        return canonicalize(0)
    return None


def _reference_verdict(candidate, base, degrees):
    """The loop check written from G_d(candidate) == G_d(base) + G_{d+1}(base)."""
    missing = []
    for d in sorted(set(degrees)):
        reads = {f"candidate G[{d}]": _read(candidate, d), f"base G[{d}]": _read(base, d),
                 f"base G[{d + 1}]": _read(base, d + 1)}
        unknown = [name for name, group in reads.items() if group is None]
        if unknown:
            missing += unknown
            continue
        left, lower, upper = reads.values()
        if left != lower.direct_sum(upper):
            return LoopCheckVerdict(
                "fail", d, f"degree {d}: candidate has {left}, "
                f"a free loop space needs {lower.direct_sum(upper)}")
    if missing:
        return LoopCheckVerdict("incomplete", missing=tuple(dict.fromkeys(missing)))
    return LoopCheckVerdict("pass")


_SMALL_GROUPS = st.builds(
    canonicalize, st.integers(0, 2), st.lists(st.sampled_from([2, 3, 4, 6, 8]), max_size=3)
)


@st.composite
def _loop_check_cases(draw):
    top = draw(st.integers(1, 6))
    known = st.booleans() if draw(st.booleans()) else st.just(True)  # gaps or none
    base_entries = {d: draw(_SMALL_GROUPS) for d in range(1, top + 2) if draw(known)}
    base = GradedGroup(base_entries, zero_above=draw(st.sampled_from([None, top + 1])))
    candidate_entries = {}
    for d in range(1, top + 1):
        lower, upper = _read(base, d), _read(base, d + 1)
        if draw(known) and lower is not None and upper is not None:
            candidate_entries[d] = lower.direct_sum(upper)
    window = draw(st.one_of(
        st.builds(range, st.integers(1, top + 1), st.integers(1, top + 4)),
        st.lists(st.integers(1, top + 3), max_size=6),
    ))
    checked = sorted(set(window) & set(candidate_entries))
    where = draw(st.sampled_from([None, 0, len(checked) // 2, -1]))
    if where is not None and checked:
        bad = checked[where]
        candidate_entries[bad] = candidate_entries[bad].direct_sum(draw(st.sampled_from(
            [canonicalize(1), canonicalize(0, [2]), canonicalize(0, [3, 3])])))
    candidate = GradedGroup(candidate_entries, zero_above=draw(st.sampled_from([None, top])))
    return candidate, base, window


@settings(max_examples=300, deadline=None)
@given(_loop_check_cases())
def test_free_loop_check_agrees_with_its_definition(case):
    candidate, base, window = case
    assert free_loop_necessary_condition(candidate, base, window) == _reference_verdict(
        candidate, base, window)


def test_rank_reads_go_through_lookup(monkeypatch):
    # Every table read is a lookup call, three per checked degree and one per
    # Betti number, so a count of lookups measures the work done.
    calls = []
    read = GradedGroup.lookup
    monkeypatch.setattr(GradedGroup, "lookup", lambda table, d: calls.append(d) or read(table, d))
    base = _graded({d: "Z + Z/2" for d in range(1, 9)}, bound=8)
    candidate = _graded({d: "Z^2 + (Z/2)^2" for d in range(1, 8)} | {8: "Z + Z/2"}, bound=8)
    assert free_loop_necessary_condition(candidate, base, range(1, 8)).passed
    assert len(calls) == 3 * 7
    calls.clear()
    assert free_loop_necessary_condition(candidate, base, [3, 1, 3]).passed
    assert calls == [1, 1, 2, 3, 3, 4]
    calls.clear()
    y = _ranked("Y", {d: 1 for d in range(1, 9)}, bound=8)
    assert gamma_of_map_space(GOOD_X, y, 2) == 1 + 0 + 3
    assert calls == [2, 3, 4]
