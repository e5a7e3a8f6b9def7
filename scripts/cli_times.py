"""Wall time of fresh CLI processes, parent against change, in alternating pairs.

Usage, from anywhere inside a checkout::

    python scripts/cli_times.py --parent HEAD~1 --pairs 10

The parent revision is extracted with ``git archive`` and the change is a
copy of the working tree, as ``bench_pairs.py`` makes them.  Each sample
is one fresh interpreter running the CLI as the ``gottlieb`` entry point
does (``from gottlieb.cli import main``), from the root of one side's tree
with its ``src/`` on the path, timed from start to exit.  The commands
are ``COMMANDS``: a ``decompose`` that reads no profile, an ``eval``
against the demo profile, and the default ``check`` suite.  Pair i runs
every command in turn, the parent first when i is even and the change
first when it is odd.  A command that exits non-zero stops the run.

Printed per command: each side's quartiles in ms
(``statistics.quantiles(method="inclusive")``), the pairs the change won
(ties count for neither side), the relative median difference (negative:
the change is faster), and whether every run printed the same bytes.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMANDS = {
    "decompose": ["decompose", "--expr", "map(T2, Y)", "--degree", "1"],
    "eval": ["eval", "--profiles", "profiles/synthetic_demo.json", "--expr", "loop(Y)",
             "--degree", "2"],
    "check": ["check"],
}
# The entry point of the ``gottlieb`` console script.
ENTRY = "import sys; from gottlieb.cli import main; sys.exit(main())"


def run_cli(tree: Path, argv: list) -> tuple[float, str]:
    """Seconds from start to exit of one fresh CLI process in ``tree``, and its stdout."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=tree, env=env,
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{tree.name} {' '.join(argv)} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return elapsed, done.stdout


def summarize(samples: dict) -> dict:
    """Per command of ``samples`` ({command: {side: [ms, ...]}}, one entry per
    pair on each side): both sides' quartiles, the change's wins and the
    relative median difference."""
    summary = {}
    for command, sides in samples.items():
        parent, change = sides["parent"], sides["change"]
        wins = sum(c < p for p, c in zip(parent, change))
        base = statistics.median(parent)
        summary[command] = {
            side: [round(q, 2) for q in statistics.quantiles(values, n=4, method="inclusive")]
            for side, values in sides.items()
        }
        summary[command]["change_wins"] = f"{wins}/{len(parent)}"
        summary[command]["change_minus_parent"] = round(
            (statistics.median(change) - base) / base, 4)
    return summary


def main(argv=None) -> int:
    from bench_pairs import _git, copy_working_tree, extract_revision

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    root = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    samples = {command: {"parent": [], "change": []} for command in COMMANDS}
    outputs = {command: set() for command in COMMANDS}
    with tempfile.TemporaryDirectory(prefix="cli_times-") as scratch:
        trees = {side: Path(scratch) / side for side in ("parent", "change")}
        extract_revision(root, args.parent, trees["parent"])
        copy_working_tree(root, trees["change"])
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for command, command_argv in COMMANDS.items():
                for side in order:
                    seconds, out = run_cli(trees[side], command_argv)
                    samples[command][side].append(seconds * 1000.0)
                    outputs[command].add(out)
    summary = summarize(samples)
    print(f"{'command':10} {'parent q1/median/q3 ms':>26} {'change q1/median/q3 ms':>26} "
          f"{'wins':>6} {'change/parent-1':>16} same output")
    for command, row in summary.items():
        print(f"{command:10} {str(row['parent']):>26} {str(row['change']):>26} "
              f"{row['change_wins']:>6} {row['change_minus_parent']:+16.4f} "
              f"{len(outputs[command]) == 1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
