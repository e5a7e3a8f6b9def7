"""Command-line interface.

Subcommands: decompose, eval, rank, fox, loop-homotopy, relative, flags,
loop-check, check.  Exit codes: 0 success, 1 incomplete evaluation
(partial output is still printed), 2 parse or usage error, 3 profile or
schema error, 4 cross-check failure, 141 stdout closed by its reader
(128 + SIGPIPE, as a shell reports a writer killed by a closed pipe).
``--format json`` prints a single sorted-key JSON object, byte-identical
across runs.

Every ``_cmd_*(args, db)`` gets the parsed arguments and the loaded
profile (None without ``--profiles``) and returns ``(code, obj, lines)``:
the exit code, the JSON object less its ``"command"`` key, and the text
lines.  ``main`` alone prints: the object with the command name added, or
the lines.  ``_incomplete`` alone renders an incomplete result.
``main(argv)`` returns the exit code instead of exiting, so a script may
call it repeatedly in one process; the argument parser is built on the
first call and reused by every later one.
"""

import argparse
import functools
import json
import os
import random
import sys

from .decompose import decompose
from .formal import FormalSum, GenGottliebTerm, GottliebTerm, PiTerm, RelTerm
from .profiles import Incomplete, ProfileDb, ProfileError, evaluate, group_to_json, load
from .spaces import Atom, MapSpace, format_space, parse_space

__all__ = ["main"]

# Degrees one window may hold: the JSON output lists every one of them.
WINDOW_CEILING = 10_000


class _UsageError(ValueError):
    pass


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing never mutates the parser, and help
    # text reads the terminal width when it is formatted, not here.
    parser = argparse.ArgumentParser(
        prog="gottlieb",
        description="Symbolic Gottlieb group calculator for mapping spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, **need) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        if need.get("expr"):
            p.add_argument("--expr", required=need["expr"] == "required",
                           help="space expression")
        if need.get("degree"):
            p.add_argument("--degree", type=int,
                           required=need["degree"] == "required", help="degree n >= 1")
        if need.get("profiles"):
            p.add_argument("--profiles", required=need["profiles"] == "required",
                           help="path to a profile document")
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    add("decompose", "rewrite an expression into a formal sum",
        expr="required", degree="required", profiles="optional")
    add("eval", "decompose and evaluate against profile tables",
        expr="required", degree="required", profiles="required")
    p = add("rank", "rank of a mapping space group, or its top-degree report",
            expr="required", degree="optional", profiles="required")
    p.add_argument("--unchecked-hypotheses", action="store_true",
                   help="compute even when finiteness hypotheses are not declared")
    add("fox", "torus-Gottlieb group of a target space",
        expr="required", degree="required", profiles="optional")
    p = add("loop-homotopy", "homotopy of an iterated free loop space",
            expr="required", degree="required", profiles="optional")
    p.add_argument("--iterations", type=int, default=1, help="loop iterations N >= 1")
    p = add("relative", "relative decomposition under a named map",
            degree="required", profiles="required")
    p.add_argument("--map", required=True, dest="map_name", help="map profile name")
    p.add_argument("--m", type=int, default=1, help="bouquet width m >= 1")
    p.add_argument("--iterations", type=int, default=1, help="iterations (1 or 2)")
    add("flags", "propagate G-space and T-space flags to a mapping space",
        expr="required", profiles="required")
    p = add("loop-check", "necessary condition for being a free loop space",
            expr="required", profiles="required")
    p.add_argument("--candidate", required=True, help="candidate space name")
    p.add_argument("--degrees", default="1..4", help="degree window, e.g. 2..6")
    p = add("check", "run oracle cross-checks",
            expr="optional", degree="optional", profiles="optional")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _load_db(args) -> ProfileDb | None:
    path = getattr(args, "profiles", None)
    if path is None:
        return None
    try:
        with open(path, encoding="utf-8") as handle:
            return load(handle.read())
    except OSError as exc:
        raise ProfileError(f"cannot read profile document: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ProfileError(f"profile document is not UTF-8: {exc}") from exc


def _shifts(db: ProfileDb | None) -> dict:
    return db.atom_shifts() if db is not None else {}


def _term_obj(term, multiplicity: int) -> dict:
    if isinstance(term, (GottliebTerm, PiTerm)):
        kind = "gottlieb" if isinstance(term, GottliebTerm) else "pi"
        fields = {"kind": kind, "space": term.space, "degree": term.degree}
    elif isinstance(term, RelTerm):
        fields = {"kind": "relative", "map": term.map_name, "degree": term.degree}
    elif isinstance(term, GenGottliebTerm):
        fields = {"kind": "generalized", "source": format_space(term.source),
                  "suspensions": term.suspensions, "target": format_space(term.target)}
    else:  # pragma: no cover
        raise TypeError(f"unknown term {term!r}")
    return {**fields, "multiplicity": multiplicity}


def _sum_obj(formal_sum: FormalSum) -> list[dict]:
    return [_term_obj(term, mult) for term, mult in formal_sum]


def _group_obj(group) -> dict:
    return {**group_to_json(group), "text": str(group)}


def _atom_name(args_expr: str, what: str) -> str:
    expr = parse_space(args_expr)
    if not isinstance(expr, Atom):
        raise _UsageError(f"{what} must be a bare atom name, got {args_expr!r}")
    return expr.name


def _incomplete(obj: dict, lines: list[str], result: Incomplete) -> int:
    """Render an incomplete result into the output; returns its exit code.

    Only an evaluation has a partial group, and residuals, to report.
    """
    obj["status"] = "incomplete"
    obj["missing"] = list(result.missing)
    if result.partial is not None:
        obj["residuals"] = list(result.residuals)
        obj["partial"] = _group_obj(result.partial)
        lines.append(f"partial: {result.partial}")
    lines.append("incomplete")
    lines.extend(f"  unknown: {item}" for item in result.missing)
    lines.extend(f"  residual: {item}" for item in result.residuals)
    return 1


def _evaluation(obj: dict, lines: list[str], result) -> int:
    """Fold an evaluation result into the output; returns the exit code."""
    if isinstance(result, Incomplete):
        return _incomplete(obj, lines, result)
    obj["status"] = "complete"
    obj["group"] = _group_obj(result)
    lines.append(str(result))
    return 0


def _cmd_decompose(args, db):
    """``decompose`` prints the formal sum; ``eval`` evaluates it against the profile."""
    expr = parse_space(args.expr)
    formal_sum = decompose(expr, args.degree, _shifts(db))
    obj = {"expr": format_space(expr), "degree": args.degree, "terms": _sum_obj(formal_sum)}
    if args.command == "eval":
        lines: list[str] = []
        return _evaluation(obj, lines, evaluate(formal_sum, db)), obj, lines
    obj["text"] = str(formal_sum)
    return 0, obj, [obj["text"]]


def _cmd_rank(args, db):
    from .ranks import gamma_of_map_space, hypotheses_met, top_degree_report

    expr = parse_space(args.expr)
    if not (isinstance(expr, MapSpace) and isinstance(expr.source, Atom)
            and isinstance(expr.target, Atom)):
        raise _UsageError("rank needs --expr of the form map(X, Y) with X and Y profiled atoms")
    x = db.space(expr.source.name)
    y = db.space(expr.target.name)
    unchecked = args.unchecked_hypotheses
    verified = hypotheses_met(x, y)
    obj = {"expr": format_space(expr), "hypotheses_verified": verified}
    lines: list[str] = []
    if args.degree is None:
        bound, known = y.gottlieb.zero_above, len(y.gottlieb.entries)
        if bound is not None and bound - known > WINDOW_CEILING and (unchecked or verified):
            raise _UsageError(f"rank report of {bound - known} unknown degrees "
                              f"is over the ceiling of {WINDOW_CEILING}")
        result = top_degree_report(x, y, unchecked=unchecked)
    else:
        obj["degree"] = args.degree
        result = gamma_of_map_space(x, y, args.degree, unchecked=unchecked)
    if isinstance(result, Incomplete):
        return _incomplete(obj, lines, result), obj, lines
    obj["status"] = "complete"
    if args.degree is not None:
        obj["gamma"] = result
        lines.append(f"gamma[{args.degree}]({format_space(expr)}) = {result}")
    elif result.all_zero:
        obj["all_zero"] = True
        lines.append("all ranks zero")
    else:
        obj["top_degree"] = result.degree
        obj["gamma_top"] = result.gamma_top
        lines.append(f"top degree {result.degree}: gamma = {result.gamma_top}")
    if unchecked and not verified:
        lines.append("warning: hypotheses not verified")
    return 0, obj, lines


def _cmd_fox(args, db):
    """``fox`` and ``loop-homotopy``: the engine's walk over loop(E, N), evaluated with a profile."""
    from .fox import fox_gottlieb, iterated_loop_homotopy

    expr = parse_space(args.expr)
    obj = {"target": format_space(expr), "degree": args.degree}
    if args.command == "fox":
        formal_sum = fox_gottlieb(args.degree, expr, _shifts(db))
    else:
        formal_sum = iterated_loop_homotopy(args.degree, args.iterations, expr, _shifts(db))
        obj["iterations"] = args.iterations
    obj.update(terms=_sum_obj(formal_sum), text=str(formal_sum))
    lines = [str(formal_sum)]
    code = 0 if db is None else _evaluation(obj, lines, evaluate(formal_sum, db))
    return code, obj, lines


def _cmd_relative(args, db):
    from .relative import relative_decompose

    result = relative_decompose(db.map(args.map_name), args.degree,
                                circles=args.m, iterations=args.iterations)
    obj = {"map": args.map_name, "degree": args.degree,
           "structure": result.structure.value, "terms": _sum_obj(result.summands),
           "text": str(result.summands)}
    lines = [f"factors: {result.summands}", f"structure: {result.structure.value}"]
    code = _evaluation(obj, lines, evaluate(result.summands, db))
    if result.structure.value == "split-extension":
        lines.append("note: degree-1 factors only; the extension is not asserted to be a direct sum")
    return code, obj, lines


def _cmd_flags(args, db):
    from .ranks import propagate_flags

    expr = parse_space(args.expr)
    if not isinstance(expr, MapSpace) or not isinstance(expr.target, Atom):
        raise _UsageError("flags needs --expr of the form map(X, Y) with Y a profiled atom")
    result = propagate_flags(expr.source, db.space(expr.target.name), _shifts(db))
    flags = {"g_space": result.g_space, "t_space": result.t_space}
    lines = [f"{key}: {'unknown' if value is None else str(value).lower()}"
             for key, value in flags.items()]
    return 0, {"expr": format_space(expr), **flags}, lines


def _parse_window(text: str) -> range:
    parts = text.split("..")
    try:
        if len(parts) > 2:
            raise ValueError
        start, stop = int(parts[0]), int(parts[-1])
    except ValueError:
        raise _UsageError(f"--degrees expects N or A..B, got {text!r}") from None
    if start < 1 or stop < start:
        raise _UsageError(f"bad degree window {text!r}")
    return _window(start, stop)


def _window(start: int, stop: int) -> range:
    """The degrees ``start..stop``, refused past ``WINDOW_CEILING`` before any is listed."""
    if stop - start + 1 > WINDOW_CEILING:
        raise _UsageError(f"degree window of {stop - start + 1} degrees "
                          f"is over the ceiling of {WINDOW_CEILING}")
    return range(start, stop + 1)


def _cmd_loop_check(args, db):
    from .ranks import free_loop_necessary_condition

    window = _parse_window(args.degrees)
    candidate = db.space(_atom_name(args.candidate, "candidate"))
    base = db.space(_atom_name(args.expr, "base space"))
    verdict = free_loop_necessary_condition(candidate.gottlieb, base.gottlieb, window)
    obj = {"candidate": candidate.name, "base": base.name, "degrees": list(window)}
    lines: list[str] = []
    if verdict.status == "incomplete":
        return _incomplete(obj, lines, Incomplete(verdict.missing)), obj, lines
    obj["status"] = verdict.status
    lines.append(verdict.status)
    if verdict.passed:
        return 0, obj, lines
    obj.update(failing_degree=verdict.failing_degree, detail=verdict.detail)
    lines.append(verdict.detail)
    return 4, obj, lines


def _default_check_cases(seed: int) -> list[tuple[str, range]]:
    from .oracle import random_splittable_expr

    cases = [
        ("map(S1, Y)", range(1, 5)),
        ("map(T3, Y)", range(1, 5)),
        ("loop(Y, 4)", range(1, 4)),
        ("bloop(Y, 2, 3)", range(1, 4)),
        ("map(prod(S2, wedge(S1, S3)), Y)", range(1, 4)),
        ("map(susp(wedge(S1, S2), 2), Y)", range(1, 4)),
    ]
    rng = random.Random(seed)
    for _ in range(25):
        source = random_splittable_expr(rng, max_depth=3)
        cases.append((f"map({format_space(source)}, Y)", range(1, 4)))
    return cases


def _cmd_check(args, db):
    from .oracle import crosscheck

    if args.expr is not None:
        cases = [(args.expr, _window(1, args.degree if args.degree is not None else 4))]
    elif args.degree is not None:
        raise _UsageError("check --degree needs --expr; the default suite has fixed windows")
    else:
        cases = _default_check_cases(args.seed)
    reports = [crosscheck(expr, window, atom_shifts=_shifts(db), seed=args.seed)
               for expr, window in cases]
    passed = all(report.passed for report in reports)
    lines = [line for report in reports for line in report.lines()]
    lines.append("all checks passed" if passed else "CHECK FAILURES FOUND")
    obj = {"passed": passed, "reports": [_report_json(report) for report in reports]}
    return (0 if passed else 4), obj, lines


def _report_json(report) -> dict:
    obj = {"expr": report.expr,
           "entries": [{"left": e.left, "right": e.right,
                        "degrees": list(e.degrees), "passed": e.passed,
                        "counterexample": e.counterexample}
                       for e in report.entries]}
    if report.skipped:
        obj["skipped"] = [{"strategy": name, "reason": reason}
                          for name, reason in report.skipped]
    return obj


_COMMANDS = {
    "decompose": _cmd_decompose,
    "eval": _cmd_decompose,
    "rank": _cmd_rank,
    "fox": _cmd_fox,
    "loop-homotopy": _cmd_fox,
    "relative": _cmd_relative,
    "flags": _cmd_flags,
    "loop-check": _cmd_loop_check,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, obj, lines = _COMMANDS[args.command](args, _load_db(args))
        try:
            if args.format == "json":
                print(json.dumps({**obj, "command": args.command}, sort_keys=True))
            else:
                for line in lines:
                    print(line)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader of stdout has gone.  Point stdout at the null
            # device, so that the interpreter's flush at exit cannot fail
            # again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 141
        return code
    except ProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # Parse, decompose, splitting, hypothesis and usage errors are all
        # ValueErrors, so this needs none of the modules a command defers.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: expression nested too deeply to process", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
