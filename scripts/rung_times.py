"""In-process query times per rung, parent against change, in alternating processes.

Usage, from anywhere inside a checkout::

    python scripts/rung_times.py --parent HEAD~1 --workload profile-ingest \\
        --seed 381 --seconds 20 --pairs 4

The parent revision is extracted with ``git archive`` and the change is a
copy of the working tree, as ``bench_pairs.py`` makes them.  Each run is a
fresh child process of one side: it builds the workload's passes for the
seed with that side's ``gbench/workloads.py``, warms up as the benchmark's
worker does, and replays every query through ``gbench/worker.py``'s
``Ops``, with ``gc.collect()`` before each and only the library call
timed.  Pair i runs the parent first when i is even and the change first
when it is odd.

Printed per side: each rung's median time (the median over the runs of
each run's median), and the medians over the runs of the query p50, the
tail (the 11th-largest query time, as ``gbench/run.py`` picks it) and
queries per second (queries over the sum of their times).  Answers are
checked as the benchmark checks them; a wrong one is counted and shown.
Neither ``gbench/`` nor ``BENCHMARK.json`` is changed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# One run in a fresh interpreter, from the root of one side's tree: the
# timings as JSON lines of [rung, seconds], then the number of wrong answers.
CHILD_CODE = """import gc, json, sys, time
sys.path[:0] = ["gbench", "src"]
import workloads, worker
workload = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
passes = workloads.build_passes(workload, int(sys.argv[2]), float(sys.argv[3]))
ops = worker.Ops(workload.worker_doc)
for query in workload.warmup:
    getattr(ops, query.op)(**query.args)
timings, wrong = [], 0
for queries in passes:
    for query in queries:
        gc.collect()
        method = getattr(ops, query.op)
        start = time.perf_counter()
        result = method(**query.args)
        timings.append([query.name, time.perf_counter() - start])
        wrong += query.check(result) is not None
print(json.dumps({"timings": timings, "wrong": wrong}))
"""


def run_metrics(timings: list) -> dict:
    """p50 and tail in ms and queries per second of one run's (rung, seconds) list."""
    times = sorted(seconds * 1000.0 for _, seconds in timings)
    return {
        "p50_ms": statistics.median(times),
        "tail_ms": times[max(0, len(times) - 11)],
        "queries_per_s": len(times) / (sum(times) / 1000.0),
    }


def summarize(runs: dict) -> dict:
    """Per side of ``runs`` ({side: [run, ...]}, a run a list of (rung, seconds)):
    each rung's median of per-run medians in ms, and the medians of ``run_metrics``."""
    summary = {}
    for side, side_runs in runs.items():
        medians: dict = {}
        for run in side_runs:
            by_rung: dict = {}
            for rung, seconds in run:
                by_rung.setdefault(rung, []).append(seconds * 1000.0)
            for rung, times in by_rung.items():
                medians.setdefault(rung, []).append(statistics.median(times))
        metrics = [run_metrics(run) for run in side_runs]
        summary[side] = {
            "rungs_ms": {rung: statistics.median(values) for rung, values in medians.items()},
            **{key: statistics.median(m[key] for m in metrics) for key in metrics[0]},
        }
    return summary


def run_child(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", CHILD_CODE, workload, str(seed), f"{seconds:g}"],
        cwd=tree, env=dict(os.environ, PYTHONHASHSEED="0"), capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree.name} run exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    from bench_pairs import _git, copy_working_tree, extract_revision

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="as gbench's --seconds")
    parser.add_argument("--pairs", type=int, default=4)
    args = parser.parse_args(argv)

    root = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    runs: dict = {"parent": [], "change": []}
    wrong = dict.fromkeys(runs, 0)
    with tempfile.TemporaryDirectory(prefix="rung_times-") as scratch:
        trees = {side: Path(scratch) / side for side in runs}
        extract_revision(root, args.parent, trees["parent"])
        copy_working_tree(root, trees["change"])
        for pair in range(args.pairs):
            for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                out = run_child(trees[side], args.workload, args.seed, args.seconds)
                runs[side].append(out["timings"])
                wrong[side] += out["wrong"]
                print(f"pair {pair} {side}: {run_metrics(out['timings'])}", file=sys.stderr)
    summary = summarize(runs)
    rungs = dict.fromkeys(rung for side in summary.values() for rung in side["rungs_ms"])
    print(f"{'rung (median ms)':42} {'parent':>10} {'change':>10} {'change/parent':>14}")
    for rung in rungs:
        parent, change = (summary[side]["rungs_ms"].get(rung) for side in ("parent", "change"))
        ratio = f"{change / parent:14.3f}" if parent and change else ""
        print(f"{rung:42} {parent or float('nan'):10.4f} {change or float('nan'):10.4f} {ratio}")
    for key in ("p50_ms", "tail_ms", "queries_per_s"):
        parent, change = summary["parent"][key], summary["change"][key]
        print(f"{key:42} {parent:10.4f} {change:10.4f} {change / parent:14.3f}")
    print(f"wrong answers: parent {wrong['parent']}, change {wrong['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
