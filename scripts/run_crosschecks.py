#!/usr/bin/env python3
"""Run the oracle cross-checks over a randomized expression corpus.

Every expression is decomposed by each applicable strategy (deterministic
engine, randomized rule order, closed forms, polynomial semantics, tuple
enumeration, derived-profile recursion) and the results are compared
pairwise.  Any disagreement is printed with its counterexample and makes
the script exit nonzero.

    python3 scripts/run_crosschecks.py --count 100 --seed 3 --degrees 1..5
"""

import argparse
import random
import sys
from dataclasses import dataclass

from gottlieb.oracle import crosscheck, random_splittable_expr
from gottlieb.spaces import format_space


@dataclass(frozen=True)
class RunConfig:
    count: int
    seed: int
    degrees: range
    verbose: bool

    @classmethod
    def from_args(cls, argv=None) -> "RunConfig":
        parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
        parser.add_argument("--count", type=int, default=50,
                            help="number of random mapping spaces (default 50)")
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--degrees", default="1..4",
                            help="degree window A..B (default 1..4)")
        parser.add_argument("--verbose", action="store_true",
                            help="print every comparison, not just failures")
        args = parser.parse_args(argv)
        start, _, stop = args.degrees.partition("..")
        try:
            low, high = int(start), int(stop or start)
        except ValueError:
            parser.error(f"--degrees must be A..B of integers, got {args.degrees!r}")
        if not 1 <= low <= high:
            parser.error(f"--degrees needs 1 <= A <= B, got {args.degrees!r}")
        window = range(low, high + 1)
        return cls(args.count, args.seed, window, args.verbose)


FIXED_CASES = (
    "map(S1, Y)",
    "map(T3, Y)",
    "loop(Y, 4)",
    "bloop(Y, 2, 3)",
    "bloop(Y, 3, 5)",
    "map(prod(S2, wedge(S1, S3)), Y)",
    "map(susp(wedge(S1, S2), 2), Y)",
    "map(B, Y)",
    "map(susp(B, 2), map(S1, Y))",
)


def main(argv=None) -> int:
    config = RunConfig.from_args(argv)
    rng = random.Random(config.seed)
    cases = list(FIXED_CASES)
    for _ in range(config.count):
        source = format_space(random_splittable_expr(rng))
        cases.append(f"map({source}, Y)")

    failures = 0
    comparisons = 0
    for expr in cases:
        report = crosscheck(expr, config.degrees, seed=config.seed)
        comparisons += len(report.entries)
        if config.verbose or not report.passed:
            print("\n".join(report.lines()))
        if not report.passed:
            failures += 1
    print(f"{len(cases)} expressions, {comparisons} strategy comparisons, "
          f"{failures} failing")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
