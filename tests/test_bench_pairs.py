"""The summary of ``scripts/bench_pairs.py`` on hand-made result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
END_TO_END = [
    {"name": "query_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "queries_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def line(p50, qps, correct=True, attempted=100, failed=0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"query_p50_ms": {"value": p50, "unit": "ms"},
                        "queries_per_s": {"value": qps, "unit": "1/s"}}}


def runs_of(workload, parent, change, first_seed=1):
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        first = "parent" if pair % 2 == 0 else "change"
        for side, result in (("parent", p), ("change", c)):
            runs.append({"pair": pair, "seed": first_seed + pair, "workload": workload,
                         "side": side, "first": first, "result": result})
    return runs


def test_summary_of_a_gain(bench_pairs):
    parent = [line(p50, qps) for p50, qps in
              ((0.20, 1000), (0.22, 900), (0.24, 1100), (0.26, 1000), (0.28, 950))]
    change = [line(p50, qps) for p50, qps in
              ((0.15, 1200), (0.16, 880), (0.17, 1300), (0.30, 1250), (0.14, 1240))]
    summary = bench_pairs.summarize(runs_of("w", parent, change), END_TO_END)
    p50 = summary["w"]["query_p50_ms"]
    assert p50["parent_q1_median_q3"] == [0.22, 0.24, 0.26]
    assert p50["change_q1_median_q3"] == [0.15, 0.16, 0.17]
    assert p50["change_wins"] == "4/5"
    assert p50["change_worse_by"] == round((0.16 - 0.24) / 0.24, 4)
    assert p50["within_bound"] is True
    qps = summary["w"]["queries_per_s"]
    assert qps["parent_q1_median_q3"] == [950, 1000, 1000]
    assert qps["change_wins"] == "4/5"
    assert qps["change_worse_by"] == round((1000 - 1240) / 1000, 4)
    assert summary["w"]["parent"] == {"correct": True, "attempted": 500, "failed": 0}


def test_summary_of_a_loss_past_the_bound(bench_pairs):
    parent = [line(1.0, 100), line(1.0, 100), line(1.0, 100)]
    change = [line(1.3, 70), line(1.2, 90, failed=2), line(1.3, 70, correct=False)]
    entry = bench_pairs.summarize(runs_of("w", parent, change), END_TO_END)["w"]
    assert entry["query_p50_ms"]["change_wins"] == "0/3"
    assert entry["query_p50_ms"]["change_worse_by"] == 0.3
    assert entry["query_p50_ms"]["within_bound"] is False
    assert entry["queries_per_s"]["change_worse_by"] == 0.3
    assert entry["queries_per_s"]["within_bound"] is False
    assert entry["change"] == {"correct": False, "attempted": 300, "failed": 2}


def test_workloads_are_summarized_apart_whatever_the_run_order(bench_pairs):
    a = runs_of("a", [line(1.0, 10)] * 2, [line(0.5, 20)] * 2)
    b = runs_of("b", [line(2.0, 10)] * 2, [line(4.0, 5)] * 2)
    summary = bench_pairs.summarize(list(reversed(a + b)), END_TO_END)
    assert list(summary) == ["b", "a"]
    assert summary["a"]["query_p50_ms"]["change_worse_by"] == -0.5
    assert summary["b"]["query_p50_ms"]["change_worse_by"] == 1.0
    assert summary["b"]["queries_per_s"]["change_wins"] == "0/2"


def test_workloads_are_selected_in_benchmark_order_with_their_indices(bench_pairs):
    names = ["a", "b", "c"]
    assert bench_pairs.select_workloads(names, None) == [(0, "a"), (1, "b"), (2, "c")]
    assert bench_pairs.select_workloads(names, ["c", "a"]) == [(0, "a"), (2, "c")]
    assert bench_pairs.select_workloads(names, ["b", "b"]) == [(1, "b")]
    with pytest.raises(ValueError, match="unknown workload 'd'"):
        bench_pairs.select_workloads(names, ["a", "d"])


def _fake_runs(bench_pairs, monkeypatch):
    """Stub out git, the checkouts and gbench; returns the (workload, seed, side) runs."""
    calls = []

    bench = json.loads((SCRIPT.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {metric["name"]: {"value": 1.0} for metric in bench["end_to_end"]}}

    def run_once(tree, command, workload, seed, seconds, trace=0):
        calls.append((workload, seed, tree.name))
        return result

    def git(root, *args):
        return f"{SCRIPT.parents[1]}\n".encode() if "--show-toplevel" in args else b"abc1234\n"

    monkeypatch.setattr(bench_pairs, "_git", git)
    monkeypatch.setattr(bench_pairs, "extract_revision", lambda root, revision, dest: None)
    monkeypatch.setattr(bench_pairs, "copy_working_tree", lambda root, dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return calls


def test_the_workload_option_runs_only_the_named_workloads(bench_pairs, monkeypatch, tmp_path):
    calls = _fake_runs(bench_pairs, monkeypatch)
    out = tmp_path / "bench.json"
    argv = ["--parent", "HEAD", "--pairs", "2", "--first-seed", "500", "--out", str(out)]
    assert bench_pairs.main([*argv, "--workload", "profile-ingest"]) == 0
    # profile-ingest is the third workload, so its seeds are those of a full run.
    assert calls == [("profile-ingest", 700, "parent"), ("profile-ingest", 700, "change"),
                     ("profile-ingest", 701, "change"), ("profile-ingest", 701, "parent")]
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert list(doc["summary"]) == ["profile-ingest"]
    assert "700-701 (profile-ingest)" in doc["protocol"]

    calls.clear()
    assert bench_pairs.main(argv) == 0
    assert [call[:2] for call in calls[:6:2]] == [
        ("rewrite-ladder", 500), ("eval-multiplicity", 600), ("profile-ingest", 700)]
    assert len(calls) == 12


def test_an_unknown_workload_is_a_usage_error(bench_pairs, monkeypatch, tmp_path, capsys):
    calls = _fake_runs(bench_pairs, monkeypatch)
    out = tmp_path / "bench.json"
    argv = ["--parent", "HEAD", "--pairs", "2", "--first-seed", "1", "--out", str(out),
            "--workload", "rewrite-ladder", "--workload", "no-such-load"]
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(argv)
    assert exit_.value.code == 2
    assert "unknown workload 'no-such-load'" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def _gain(bench_pairs, parent_p50, change_p50):
    parent = [line(p50, 1000) for p50 in parent_p50]
    change = [line(p50, 1000) for p50 in change_p50]
    return bench_pairs.summarize(runs_of("w", parent, change), END_TO_END)["w"]


def test_a_gain_is_shown_by_nine_wins_in_ten_past_the_parents_spread(bench_pairs):
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    entry = _gain(bench_pairs, parent, [p * 0.77 for p in parent])
    assert entry["query_p50_ms"]["change_wins"] == "10/10"
    assert entry["query_p50_ms"]["gain_shown"] is True
    # Equal throughput on every pair: ties count for neither side.
    assert entry["queries_per_s"]["change_wins"] == "0/10"
    assert entry["queries_per_s"]["gain_shown"] is False


def test_a_gain_inside_the_parents_spread_is_not_shown(bench_pairs):
    # A 23% median gain, every pair won, but the parent's q3 - q1 is 37.5% of its median.
    parent = [0.70, 0.75, 0.80, 0.85, 1.00, 1.00, 1.15, 1.20, 1.25, 1.30]
    entry = _gain(bench_pairs, parent, [p * 0.77 for p in parent])["query_p50_ms"]
    assert entry["change_wins"] == "10/10"
    assert entry["change_worse_by"] == -0.23
    assert entry["gain_shown"] is False


def test_a_gain_won_on_eight_pairs_in_ten_is_not_shown(bench_pairs):
    parent = [1.00] * 10
    change = [0.5] * 8 + [1.5] * 2
    entry = _gain(bench_pairs, parent, change)["query_p50_ms"]
    assert entry["change_wins"] == "8/10"
    assert entry["gain_shown"] is False
