"""Run the benchmark in alternating parent/change pairs and write BENCH_<n>.json.

Usage, from anywhere inside a checkout::

    python scripts/bench_pairs.py --parent HEAD~1 --pairs 10 --first-seed 22401 \\
        --out BENCH_22.json [--what TEXT] \\
        [--claim "query_p50_ms on eval-multiplicity falls"] [--trace-seed 22901] \\
        [--workload rewrite-ladder ...]

The parent revision is extracted with ``git archive`` into a temporary
directory, and the change is a copy of the working tree's files (tracked
and untracked, not ignored) in another.  Each side runs the command of
``BENCHMARK.json`` from its own copy, with ``--seconds`` from
``run_seconds``.  Pair i runs every workload of ``BENCHMARK.json`` in
turn, interleaved, on seed ``first_seed + 100 * w + i`` for the w-th
workload; the parent goes first on even pairs and the change on odd ones.
``--trace-seed`` adds one ``--trace 1`` pair per workload at the end.
``--workload NAME``, repeatable, runs only the named workloads, each on
the seeds it has in a full run.  It is for quick iteration: a BENCH file
to be kept covers every workload, as a run without it does.

The output keeps the layout of the earlier BENCH files: ``what``,
``parent_commit``, ``command``, ``host``, ``protocol``, ``claim``,
``summary`` and ``runs`` (plus ``trace_runs``).  It is rewritten after
every run, so an interrupted batch keeps what it measured.  The summary
gives per metric the quartiles of each side
(``statistics.quantiles(method="inclusive")``), how many pairs the change
won, ``change_worse_by`` (the relative median difference in the metric's
bad direction; negative when the change reads better), whether that is
``within_bound`` of ``BENCHMARK.json``'s bound, and whether a gain is
shown (``gain_shown``): the change wins at least nine pairs in ten, ties
counting for neither side, and its median beats the parent's by more than
the parent's q3 - q1.  Neither ``gbench/`` nor ``BENCHMARK.json`` is
changed.
"""

import argparse
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SEED_STRIDE = 100  # seeds of the w-th workload start at first_seed + 100 * w
GAIN_WINS = 0.9  # the share of pairs a shown gain must win


def _git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True).stdout


def extract_revision(root: Path, revision: str, dest: Path) -> None:
    """The tree of ``revision`` under ``dest``, by ``git archive``."""
    archive = io.BytesIO(_git(root, "archive", "--format=tar", revision))
    with tarfile.open(fileobj=archive) as tar:
        tar.extractall(dest, filter="data")


def copy_working_tree(root: Path, dest: Path) -> None:
    """The working tree's tracked and untracked, not ignored, files under ``dest``."""
    listed = _git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        source = root / name
        if source.is_file():  # a deleted tracked file is still listed
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_once(tree: Path, command: list, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One benchmark run from ``tree``: its last stdout line, parsed."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    if argv[0] in ("python", "python3"):
        argv[0] = sys.executable
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def select_workloads(names: list, chosen: list | None) -> list:
    """(w, name) for each workload of ``names`` that ``chosen`` names, w its
    index in ``names``, so its seeds are those of a run of every workload;
    all of them when ``chosen`` is None.  ValueError for an unknown name."""
    unknown = [name for name in chosen or () if name not in names]
    if unknown:
        raise ValueError(f"unknown workload {unknown[0]!r}; choose from {', '.join(names)}")
    return [(w, name) for w, name in enumerate(names) if chosen is None or name in chosen]


def _quartiles(values: list) -> list:
    return [round(q, 4) for q in statistics.quantiles(values, n=4, method="inclusive")]


def summarize(runs: list, end_to_end: list) -> dict:
    """Per workload: both sides' totals, and per metric the pair comparison.

    ``runs`` are the result lines of the layout above; ``end_to_end`` is
    BENCHMARK.json's list of {name, better, bound}.  Every pair must have
    one run of each side.
    """
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs: dict = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
        sides = {side: [pairs[i][side] for i in sorted(pairs)] for side in ("parent", "change")}
        entry = {
            side: {
                "correct": all(result["correct"] for result in results),
                "attempted": sum(result["attempted"] for result in results),
                "failed": sum(result["failed"] for result in results),
            }
            for side, results in sides.items()
        }
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            parent = [result["metrics"][name]["value"] for result in sides["parent"]]
            change = [result["metrics"][name]["value"] for result in sides["change"]]
            wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
            base, new = statistics.median(parent), statistics.median(change)
            gain = (base - new) if lower else (new - base)
            worse_by = -gain / base
            q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
            entry[name] = {
                "parent_q1_median_q3": _quartiles(parent),
                "change_q1_median_q3": _quartiles(change),
                "change_wins": f"{wins}/{len(parent)}",
                "change_worse_by": round(worse_by, 4),
                "within_bound": worse_by <= metric["bound"],
                "gain_shown": wins >= math.ceil(GAIN_WINS * len(parent)) and gain > q3 - q1,
            }
        summary[workload] = entry
    return summary


def _host() -> str:
    bytecode = os.environ.get("PYTHONDONTWRITEBYTECODE")
    return (f"Python {platform.python_version()}, {os.cpu_count()} CPUs, {platform.machine()}, "
            f"PYTHONDONTWRITEBYTECODE={bytecode or 'unset'}")


def _protocol(workloads: list, pairs: int, first_seed: int) -> str:
    seeds = ", ".join(
        f"{first_seed + SEED_STRIDE * w}-{first_seed + SEED_STRIDE * w + pairs - 1} ({name})"
        for w, name in workloads
    )
    return (f"{pairs} pairs per workload, seeds {seeds}, one per pair; pairs interleaved "
            "across workloads; run order alternating: parent first on even pairs, change first "
            "on odd pairs; the parent runs from its git archive and the change from a copy of "
            "the working tree; quartiles by statistics.quantiles(method='inclusive'); "
            "change_worse_by is the relative median difference in the metric's bad direction "
            "(negative: the change reads better)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="output file, e.g. BENCH_22.json")
    parser.add_argument("--what", default="gbench end-to-end result lines, parent vs change")
    parser.add_argument("--claim", help='e.g. "query_p50_ms on eval-multiplicity falls"')
    parser.add_argument("--trace-seed", type=int, help="add one --trace 1 pair per workload")
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run only this workload (repeatable); default: all")
    args = parser.parse_args(argv)
    if not 2 <= args.pairs <= SEED_STRIDE:
        parser.error(f"--pairs must be in 2..{SEED_STRIDE}")

    root = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        workloads = select_workloads([workload["name"] for workload in bench["workloads"]],
                                     args.workload)
    except ValueError as err:
        parser.error(str(err))
    command, seconds = bench["command"], bench["run_seconds"]
    out = Path(args.out)
    doc = {
        "what": args.what,
        "parent_commit": _git(root, "rev-parse", "--short", args.parent).decode().strip(),
        "command": " ".join(command) + f" --workload W --seed S --seconds {seconds:g}",
        "host": _host(),
        "protocol": _protocol(workloads, args.pairs, args.first_seed),
        "claim": args.claim,
        "summary": {},
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as scratch:
        trees = {"parent": Path(scratch) / "parent", "change": Path(scratch) / "change"}
        extract_revision(root, args.parent, trees["parent"])
        copy_working_tree(root, trees["change"])

        def save() -> None:
            out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for w, workload in workloads:
                seed = args.first_seed + SEED_STRIDE * w + pair
                for side in order:
                    result = run_once(trees[side], command, workload, seed, seconds)
                    doc["runs"].append({"pair": pair, "seed": seed, "workload": workload,
                                        "side": side, "first": order[0], "result": result})
                    print(f"pair {pair} {workload} {side}: {json.dumps(result['metrics'])}",
                          file=sys.stderr)
                save()
            if pair:
                doc["summary"] = summarize(doc["runs"], bench["end_to_end"])
                save()
        if args.trace_seed is not None:
            doc["trace_runs"] = []
            for w, workload in workloads:
                seed = args.trace_seed + SEED_STRIDE * w
                traced = {"command": " ".join(command) + f" --workload {workload} --seed {seed}"
                          f" --seconds {seconds:g} --trace 1", "first": "parent"}
                for side in ("parent", "change"):
                    traced[side] = run_once(trees[side], command, workload, seed, seconds, 1)
                doc["trace_runs"].append(traced)
                save()
    for workload, entry in doc["summary"].items():
        for name in (metric["name"] for metric in bench["end_to_end"]):
            row = entry[name]
            print(f"{workload:18} {name:14} parent {row['parent_q1_median_q3']} change "
                  f"{row['change_q1_median_q3']} wins {row['change_wins']} worse_by "
                  f"{row['change_worse_by']:+.4f} within_bound {row['within_bound']} "
                  f"gain_shown {row['gain_shown']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
