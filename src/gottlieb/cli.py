"""Command-line interface.

Subcommands: decompose, eval, rank, fox, loop-homotopy, relative, flags,
loop-check, check.  Exit codes: 0 success, 1 incomplete evaluation
(partial output is still printed), 2 parse or usage error, 3 profile or
schema error, 4 cross-check failure.  ``--format json`` prints a single
sorted-key JSON object, byte-identical across runs.

``main(argv)`` returns the exit code instead of exiting, so a script may
call it repeatedly in one process; the argument parser is built on the
first call and reused by every later one.
"""

import argparse
import functools
import json
import random
import sys

from .decompose import decompose
from .formal import FormalSum, GenGottliebTerm, GottliebTerm, PiTerm, RelTerm
from .profiles import Incomplete, ProfileDb, ProfileError, evaluate, group_to_json, load
from .spaces import Atom, MapSpace, format_space, parse_space

__all__ = ["main"]


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
    p = add("fox", "torus-Gottlieb group of a target space",
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


def _emit(args, human_lines: list[str], obj: dict) -> None:
    if args.format == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


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
    if isinstance(term, GottliebTerm):
        return {"kind": "gottlieb", "space": term.space, "degree": term.degree,
                "multiplicity": multiplicity}
    if isinstance(term, PiTerm):
        return {"kind": "pi", "space": term.space, "degree": term.degree,
                "multiplicity": multiplicity}
    if isinstance(term, RelTerm):
        return {"kind": "relative", "map": term.map_name, "degree": term.degree,
                "multiplicity": multiplicity}
    if isinstance(term, GenGottliebTerm):
        return {"kind": "generalized", "source": format_space(term.source),
                "suspensions": term.suspensions, "target": format_space(term.target),
                "multiplicity": multiplicity}
    raise TypeError(f"unknown term {term!r}")  # pragma: no cover


def _sum_obj(formal_sum: FormalSum) -> list[dict]:
    return [_term_obj(term, mult) for term, mult in formal_sum]


def _group_obj(group) -> dict:
    return {**group_to_json(group), "text": str(group)}


def _atom_name(args_expr: str, what: str) -> str:
    expr = parse_space(args_expr)
    if not isinstance(expr, Atom):
        raise _UsageError(f"{what} must be a bare atom name, got {args_expr!r}")
    return expr.name


def _evaluation(obj: dict, lines: list[str], result) -> int:
    """Fold an evaluation result into the output; returns the exit code."""
    if isinstance(result, Incomplete):
        obj["status"] = "incomplete"
        obj["missing"] = list(result.missing)
        obj["residuals"] = list(result.residuals)
        if result.partial is not None:
            obj["partial"] = _group_obj(result.partial)
            lines.append(f"partial: {result.partial}")
        lines.append("incomplete")
        for item in result.missing:
            lines.append(f"  unknown: {item}")
        for item in result.residuals:
            lines.append(f"  residual: {item}")
        return 1
    obj["status"] = "complete"
    obj["group"] = _group_obj(result)
    lines.append(str(result))
    return 0


def _cmd_decompose(args) -> int:
    db = _load_db(args)
    expr = parse_space(args.expr)
    formal_sum = decompose(expr, args.degree, _shifts(db))
    obj = {"command": "decompose", "expr": format_space(expr), "degree": args.degree,
           "terms": _sum_obj(formal_sum), "text": str(formal_sum)}
    _emit(args, [str(formal_sum)], obj)
    return 0


def _cmd_eval(args) -> int:
    db = _load_db(args)
    expr = parse_space(args.expr)
    formal_sum = decompose(expr, args.degree, _shifts(db))
    obj = {"command": "eval", "expr": format_space(expr), "degree": args.degree,
           "terms": _sum_obj(formal_sum)}
    lines: list[str] = []
    code = _evaluation(obj, lines, evaluate(formal_sum, db))
    _emit(args, lines, obj)
    return code


def _cmd_rank(args) -> int:
    from .ranks import gamma_of_map_space, hypotheses_met, top_degree_report

    db = _load_db(args)
    expr = parse_space(args.expr)
    if not isinstance(expr, MapSpace) or not isinstance(expr.source, Atom) \
            or not isinstance(expr.target, Atom):
        raise _UsageError(
            "rank needs --expr of the form map(X, Y) with X and Y profiled atoms"
        )
    x = db.space(expr.source.name)
    y = db.space(expr.target.name)
    unchecked = args.unchecked_hypotheses
    verified = hypotheses_met(x, y)
    obj = {"command": "rank", "expr": format_space(expr),
           "hypotheses_verified": verified}
    lines: list[str] = []
    if args.degree is None:
        report = top_degree_report(x, y, unchecked=unchecked)
        if isinstance(report, Incomplete):
            obj["status"] = "incomplete"
            obj["missing"] = list(report.missing)
            lines.append("incomplete")
            lines.extend(f"  unknown: {item}" for item in report.missing)
            _emit(args, lines, obj)
            return 1
        obj["status"] = "complete"
        if report.all_zero:
            obj["all_zero"] = True
            lines.append("all ranks zero")
        else:
            obj["top_degree"] = report.degree
            obj["gamma_top"] = report.gamma_top
            lines.append(f"top degree {report.degree}: gamma = {report.gamma_top}")
    else:
        value = gamma_of_map_space(x, y, args.degree, unchecked=unchecked)
        obj["degree"] = args.degree
        if isinstance(value, Incomplete):
            obj["status"] = "incomplete"
            obj["missing"] = list(value.missing)
            lines.append("incomplete")
            lines.extend(f"  unknown: {item}" for item in value.missing)
            _emit(args, lines, obj)
            return 1
        obj["status"] = "complete"
        obj["gamma"] = value
        lines.append(f"gamma[{args.degree}]({format_space(expr)}) = {value}")
    if unchecked and not verified:
        lines.append("warning: hypotheses not verified")
    _emit(args, lines, obj)
    return 0


def _cmd_fox(args) -> int:
    from .fox import fox_gottlieb

    db = _load_db(args)
    name = _atom_name(args.expr, "fox target")
    formal_sum = fox_gottlieb(args.degree, name)
    obj = {"command": "fox", "target": name, "degree": args.degree,
           "terms": _sum_obj(formal_sum), "text": str(formal_sum)}
    lines = [str(formal_sum)]
    code = 0
    if db is not None:
        code = _evaluation(obj, lines, evaluate(formal_sum, db))
    _emit(args, lines, obj)
    return code


def _cmd_loop_homotopy(args) -> int:
    from .fox import iterated_loop_homotopy

    db = _load_db(args)
    name = _atom_name(args.expr, "loop-homotopy target")
    formal_sum = iterated_loop_homotopy(args.degree, args.iterations, name)
    obj = {"command": "loop-homotopy", "target": name, "degree": args.degree,
           "iterations": args.iterations, "terms": _sum_obj(formal_sum),
           "text": str(formal_sum)}
    lines = [str(formal_sum)]
    code = 0
    if db is not None:
        code = _evaluation(obj, lines, evaluate(formal_sum, db))
    _emit(args, lines, obj)
    return code


def _cmd_relative(args) -> int:
    from .relative import relative_decompose

    db = _load_db(args)
    result = relative_decompose(db.map(args.map_name), args.degree,
                                circles=args.m, iterations=args.iterations)
    obj = {"command": "relative", "map": args.map_name, "degree": args.degree,
           "structure": result.structure.value, "terms": _sum_obj(result.summands),
           "text": str(result.summands)}
    lines = [f"factors: {result.summands}", f"structure: {result.structure.value}"]
    code = _evaluation(obj, lines, evaluate(result.summands, db))
    if result.structure.value == "split-extension":
        lines.append("note: degree-1 factors only; the extension is not asserted to be a direct sum")
    _emit(args, lines, obj)
    return code


def _cmd_flags(args) -> int:
    from .ranks import propagate_flags

    db = _load_db(args)
    expr = parse_space(args.expr)
    if not isinstance(expr, MapSpace) or not isinstance(expr.target, Atom):
        raise _UsageError(
            "flags needs --expr of the form map(X, Y) with Y a profiled atom"
        )
    result = propagate_flags(expr.source, db.space(expr.target.name), _shifts(db))

    def show(value) -> str:
        return "unknown" if value is None else ("true" if value else "false")

    obj = {"command": "flags", "expr": format_space(expr),
           "g_space": result.g_space, "t_space": result.t_space}
    _emit(args, [f"g_space: {show(result.g_space)}",
                 f"t_space: {show(result.t_space)}"], obj)
    return 0


def _parse_window(text: str) -> range:
    parts = text.split("..")
    try:
        if len(parts) == 1:
            start = stop = int(parts[0])
        elif len(parts) == 2:
            start, stop = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise _UsageError(f"--degrees expects N or A..B, got {text!r}") from None
    if start < 1 or stop < start:
        raise _UsageError(f"bad degree window {text!r}")
    return range(start, stop + 1)


def _cmd_loop_check(args) -> int:
    from .ranks import free_loop_necessary_condition

    db = _load_db(args)
    candidate = db.space(_atom_name(args.candidate, "candidate"))
    base = db.space(_atom_name(args.expr, "base space"))
    window = _parse_window(args.degrees)
    verdict = free_loop_necessary_condition(candidate.gottlieb, base.gottlieb, window)
    obj = {"command": "loop-check", "candidate": candidate.name, "base": base.name,
           "degrees": list(window), "status": verdict.status}
    lines = [verdict.status]
    if verdict.status == "fail":
        obj["failing_degree"] = verdict.failing_degree
        obj["detail"] = verdict.detail
        lines.append(verdict.detail)
        code = 4
    elif verdict.status == "incomplete":
        obj["missing"] = list(verdict.missing)
        lines.extend(f"  unknown: {item}" for item in verdict.missing)
        code = 1
    else:
        code = 0
    _emit(args, lines, obj)
    return code


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


def _cmd_check(args) -> int:
    from .oracle import crosscheck

    db = _load_db(args)
    shifts = _shifts(db)
    if args.expr is not None:
        top = args.degree if args.degree is not None else 4
        cases = [(args.expr, range(1, top + 1))]
    else:
        cases = _default_check_cases(args.seed)
    reports = [crosscheck(expr, window, atom_shifts=shifts, seed=args.seed)
               for expr, window in cases]
    passed = all(report.passed for report in reports)
    lines: list[str] = []
    for report in reports:
        lines.extend(report.lines())
    lines.append("all checks passed" if passed else "CHECK FAILURES FOUND")
    obj = {"command": "check", "passed": passed,
           "reports": [{"expr": report.expr,
                        "entries": [{"left": e.left, "right": e.right,
                                     "degrees": list(e.degrees), "passed": e.passed,
                                     "counterexample": e.counterexample}
                                    for e in report.entries]}
                       for report in reports]}
    _emit(args, lines, obj)
    return 0 if passed else 4


_COMMANDS = {
    "decompose": _cmd_decompose,
    "eval": _cmd_eval,
    "rank": _cmd_rank,
    "fox": _cmd_fox,
    "loop-homotopy": _cmd_loop_homotopy,
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
        return _COMMANDS[args.command](args)
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
