"""Per-layer metrics of the traced run and what each one should move.

Each entry is (metric, unit, better, the end-to-end metric and workload
it should move).  Times are self time (span minus child spans) summed
over the traced queries; counts are summed over the same queries.
"""

from tracing import MODULES

E2E = (
    # (metric, unit, better)
    ("setup_s", "s", "lower"),
    ("query_p50_ms", "ms", "lower"),
    ("query_tail_ms", "ms", "lower"),
    ("queries_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

LAYERS = [
    ("cli.import_ms", "ms", "lower", "setup_s on every workload"),
    ("cli.main_self_ms", "ms", "lower",
     "queries_per_s on rewrite-ladder (in-process CLI queries)"),
    ("spaces.parse_ms", "ms", "lower", "queries_per_s on rewrite-ladder"),
    ("spaces.desugar_ms", "ms", "lower", "queries_per_s on rewrite-ladder"),
    ("spaces.format_ms", "ms", "lower", "queries_per_s on rewrite-ladder"),
    ("spaces.nodes", "count", "lower", "queries_per_s on rewrite-ladder"),
    ("splitting.split_ms", "ms", "lower", "query_tail_ms on rewrite-ladder"),
    ("splitting.shift_entries", "count", "lower", "query_tail_ms on rewrite-ladder"),
    ("splitting.shifts_per_distinct", "ratio", "lower", "query_tail_ms on rewrite-ladder"),
    ("decompose.self_ms", "ms", "lower",
     "query_tail_ms and queries_per_s on rewrite-ladder; a small share of eval-multiplicity"),
    ("decompose.terms", "count", "lower", "query_tail_ms and queries_per_s on rewrite-ladder"),
    ("decompose.multiplicity", "count", "lower",
     "query_tail_ms and queries_per_s on rewrite-ladder"),
    ("formal.render_ms", "ms", "lower", "query_p50_ms on rewrite-ladder"),
    ("abelian.sum_ms", "ms", "lower", "query_tail_ms and queries_per_s on eval-multiplicity"),
    ("abelian.torsion_pairs", "count", "lower",
     "query_tail_ms, queries_per_s and peak_rss_mb on eval-multiplicity"),
    ("abelian.pairs_per_factor", "ratio", "lower",
     "query_tail_ms, queries_per_s and peak_rss_mb on eval-multiplicity"),
    ("abelian.canonicalize_ms", "ms", "lower", "query_tail_ms on profile-ingest"),
    ("profiles.load_ms", "ms", "lower",
     "queries_per_s on profile-ingest; setup_s on eval-multiplicity"),
    ("profiles.save_ms", "ms", "lower", "queries_per_s on profile-ingest"),
    ("profiles.evaluate_self_ms", "ms", "lower", "queries_per_s on eval-multiplicity"),
    ("profiles.table_ms", "ms", "lower", "queries_per_s on eval-multiplicity"),
    ("profiles.lookups", "count", "lower", "queries_per_s on eval-multiplicity"),
    ("ranks.rank_ms", "ms", "lower", "queries_per_s on eval-multiplicity"),
    ("ranks.flags_ms", "ms", "lower", "queries_per_s on eval-multiplicity"),
    ("ranks.loop_check_ms", "ms", "lower", "queries_per_s on eval-multiplicity"),
    ("fox.fox_ms", "ms", "lower", "queries_per_s on eval-multiplicity"),
    ("fox.loop_homotopy_ms", "ms", "lower", "queries_per_s on eval-multiplicity"),
    ("relative.relative_ms", "ms", "lower", "queries_per_s on eval-multiplicity"),
    ("oracle.crosscheck_ms", "ms", "lower", "queries_per_s on rewrite-ladder"),
    ("oracle.strategies_run", "count", "higher", "queries_per_s on rewrite-ladder"),
    ("oracle.entries", "count", "higher", "queries_per_s on rewrite-ladder"),
]
for _module in MODULES:
    LAYERS.append((f"{_module}.calls", "count", "lower",
                   "calls into the layer, the base of .errors"))
    LAYERS.append((f"{_module}.errors", "count", "lower", "documented errors raised by the layer"))
LAYERS += [
    ("trace.untraced_qps", "1/s", "higher", "queries_per_s of the untraced half of this run"),
    ("trace.traced_qps", "1/s", "higher", "queries_per_s of the traced half of this run"),
    ("trace.overhead_pct", "%", "lower", "tracing overhead: untraced minus traced, in percent"),
]

# Span names behind each timed metric.
_SPANS = {
    "cli.main_self_ms": "cli.main",
    "spaces.parse_ms": "spaces.parse",
    "spaces.desugar_ms": "spaces.desugar",
    "spaces.format_ms": "spaces.format",
    "splitting.split_ms": "splitting.split",
    "decompose.self_ms": "decompose",
    "formal.render_ms": "formal.render",
    "abelian.sum_ms": "abelian.sum",
    "abelian.canonicalize_ms": "abelian.canonicalize",
    "profiles.load_ms": "profiles.load",
    "profiles.save_ms": "profiles.save",
    "profiles.evaluate_self_ms": "profiles.evaluate",
    "profiles.table_ms": "profiles.table",
    "ranks.rank_ms": "ranks.rank",
    "ranks.flags_ms": "ranks.flags",
    "ranks.loop_check_ms": "ranks.loop_check",
    "fox.fox_ms": "fox.fox",
    "fox.loop_homotopy_ms": "fox.loop_homotopy",
    "relative.relative_ms": "relative.relative",
    "oracle.crosscheck_ms": "oracle.crosscheck",
}
_RATIOS = {
    "splitting.shifts_per_distinct": ("splitting.shift_entries", "splitting.distinct_shifts"),
    "abelian.pairs_per_factor": ("abelian.torsion_pairs", "abelian.distinct_factors"),
}


def layer_values(totals, import_ms: float, untraced_qps: float, traced_qps: float) -> dict:
    values = {"cli.import_ms": import_ms,
              "trace.untraced_qps": untraced_qps,
              "trace.traced_qps": traced_qps,
              "trace.overhead_pct": 100.0 * (untraced_qps - traced_qps) / untraced_qps}
    for name, unit, _, _ in LAYERS:
        if name in values:
            continue
        if name in _SPANS:
            values[name] = totals.ms(_SPANS[name])
        elif name in _RATIOS:
            top, base = _RATIOS[name]
            values[name] = totals.counts[top] / totals.counts[base] if totals.counts[base] else 0.0
        elif name.endswith(".calls"):
            values[name] = totals.calls[name[: -len(".calls")]]
        elif name.endswith(".errors"):
            values[name] = totals.errors[name[: -len(".errors")]]
        else:
            values[name] = totals.counts[name]
    return values
