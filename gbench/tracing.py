"""Span recorder wrapped around the package's public functions.

``install`` replaces each traced function with a wrapper that records a
span (name, start, end, parent span, query id) and, at some boundaries,
counts of the work done.  The package binds functions by name at import
(``gottlieb.cli.decompose``, ``gottlieb.oracle.decompose``, the package
root re-exports), so every module attribute holding the original object
is replaced, not only the defining one.  A traced function that calls
itself through its patched global (``desugar``, ``format_space``) records
one span for the outermost call only.

Spans stay in memory; ``take`` hands over those of the current query.
Nothing here runs unless the benchmark is started with ``--trace 1``.
"""

import dataclasses
import functools
import sys
from collections import Counter
from time import perf_counter

# Span names; the part before the first dot is the package module.
FUNCTIONS = (
    ("gottlieb.spaces", "parse_space", "spaces.parse"),
    ("gottlieb.spaces", "desugar", "spaces.desugar"),
    ("gottlieb.spaces", "format_space", "spaces.format"),
    ("gottlieb.splitting", "sphere_splitting", "splitting.split"),
    ("gottlieb.decompose", "decompose", "decompose"),
    ("gottlieb.formal", "term_text", "formal.render"),
    ("gottlieb.abelian", "canonicalize", "abelian.canonicalize"),
    ("gottlieb.abelian", "direct_sum", "abelian.sum"),
    ("gottlieb.profiles", "load", "profiles.load"),
    ("gottlieb.profiles", "save", "profiles.save"),
    ("gottlieb.profiles", "evaluate", "profiles.evaluate"),
    ("gottlieb.profiles", "gottlieb_table_of_map_space", "profiles.table"),
    ("gottlieb.ranks", "gamma_of_map_space", "ranks.rank"),
    ("gottlieb.ranks", "top_degree_report", "ranks.rank"),
    ("gottlieb.ranks", "propagate_flags", "ranks.flags"),
    ("gottlieb.ranks", "free_loop_necessary_condition", "ranks.loop_check"),
    ("gottlieb.fox", "fox_gottlieb", "fox.fox"),
    ("gottlieb.fox", "iterated_loop_homotopy", "fox.loop_homotopy"),
    ("gottlieb.relative", "relative_decompose", "relative.relative"),
    ("gottlieb.oracle", "crosscheck", "oracle.crosscheck"),
    ("gottlieb.cli", "main", "cli.main"),
)
METHODS = (
    ("gottlieb.abelian", "AbelianGroup", "direct_sum", "abelian.sum"),
    ("gottlieb.abelian", "AbelianGroup", "scaled", "abelian.sum"),
    ("gottlieb.formal", "FormalSum", "__str__", "formal.render"),
)
# Calls counted without a span: one per table lookup.
COUNTED = (("gottlieb.profiles", "GradedGroup", "lookup", "profiles.lookups"),)

MODULES = ("cli", "spaces", "splitting", "decompose", "formal", "abelian",
           "profiles", "ranks", "fox", "relative", "oracle")


def module_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def count_nodes(expr) -> int:
    count, stack = 0, [expr]
    while stack:
        node = stack.pop()
        count += 1
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            if isinstance(value, tuple):
                stack.extend(value)
            elif dataclasses.is_dataclass(value):
                stack.append(value)
    return count


def _count_desugar(counts, result) -> None:
    counts["spaces.nodes"] += count_nodes(result)


def _count_split(counts, result) -> None:
    if result.shifts is not None:
        counts["splitting.shift_entries"] += len(result.shifts)
        counts["splitting.distinct_shifts"] += len(set(result.shifts))


def _count_decompose(counts, result) -> None:
    counts["decompose.terms"] += len(result)
    counts["decompose.multiplicity"] += sum(mult for _, mult in result)


def _count_sum(counts, result) -> None:
    counts["abelian.torsion_pairs"] += len(result.torsion)
    counts["abelian.distinct_factors"] += len(set(result.torsion))


def _count_crosscheck(counts, result) -> None:
    counts["oracle.entries"] += len(result.entries)
    names = {entry.left for entry in result.entries} | {entry.right for entry in result.entries}
    counts["oracle.strategies_run"] += len(names)


COUNTERS = {
    "spaces.desugar": _count_desugar,
    "splitting.split": _count_split,
    "decompose": _count_decompose,
    "abelian.sum": _count_sum,
    "oracle.crosscheck": _count_crosscheck,
}


class Recorder:
    """Spans, counts and documented errors of the current query."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.stack: list = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()

    def take(self) -> dict:
        out = {"spans": self.spans, "counts": dict(self.counts), "errors": dict(self.errors)}
        self.spans, self.stack = [], []
        self.counts, self.errors = Counter(), Counter()
        return out

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        module = module_of(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack
            if stack and self.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except ValueError as exc:
                # Documented errors all derive from ValueError; count each
                # once, in the innermost traced call it left.
                if not getattr(exc, "_gbench_counted", False):
                    self.errors[module] += 1
                    exc._gbench_counted = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self.counts, result)
            return result

        return traced

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counting


def install(recorder: Recorder) -> None:
    """Patch every traced function, method and counter in loaded modules."""
    import importlib

    import gottlieb.cli  # noqa: F401  (loads every package module)

    replacements = []
    for module_name, attr, span in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        replacements.append((original, recorder.wrap(span, original)))
    package_modules = [
        module for name, module in list(sys.modules.items())
        if name == "gottlieb" or name.startswith("gottlieb.")
    ]
    for module in package_modules:
        for key, value in list(vars(module).items()):
            for original, wrapper in replacements:
                if value is original:
                    setattr(module, key, wrapper)
    for module_name, cls_name, attr, span in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, attr, recorder.wrap(span, getattr(cls, attr)))
    for module_name, cls_name, attr, counter in COUNTED:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, attr, recorder.counted(counter, getattr(cls, attr)))


class Totals:
    """Per-layer self time, calls, counts and errors over many queries."""

    def __init__(self):
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.queries = 0
        self.spans: list = []  # (rung name, spans) per traced query

    def add(self, rung: str, record: dict) -> None:
        spans = record["spans"]
        self.spans.append((rung, spans))
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for index, (name, start, end, _) in enumerate(spans):
            self.self_s[name] += (end - start) - child[index]
            self.calls[module_of(name)] += 1
        self.counts.update(record["counts"])
        self.errors.update(record["errors"])
        self.queries += 1

    def ms(self, name: str) -> float:
        return self.self_s[name] * 1000.0
