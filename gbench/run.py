"""Benchmark of the gottlieb calculator.

Usage, from the root of a checkout::

    python3 gbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: rewrite-ladder, eval-multiplicity and profile-ingest (see
``workloads.py``).  The package is driven only through its public
functions and ``gottlieb.cli.main``, imported from ``src/``.  Load is
closed-loop with one client: this process, plus at most one worker child
computing at a time.  Every query has a deadline and is checked against
an answer computed here (``reference.py``).  A query fails on a wrong
answer, an exception, a dead child, a missed deadline or running out of
its capped address space.  The first three are wrong outputs and make
the run's ``correct`` false; the last two are counted in ``failed``.

With ``--trace 0`` the last stdout line is one JSON object with the
end-to-end metrics.  With ``--trace 1`` the first half of the passes runs
untraced and the second half under the span recorder (``tracing.py``);
the last line then holds the per-layer metrics of ``layers.py``, including
the tracing overhead.  Spans are written to ``gbench/traces/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import layers
import workloads
from tracing import Totals
from worker import LineReader, write_all

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_STARTS = 9  # fresh interpreters per run; setup_s is their median
WORKER_ADDRESS_CAP = 1 << 30
# Exceptions that mean a query ran out of its capped memory or stack: a
# failed query, but not a wrong answer.
RESOURCE_ERRORS = ("MemoryError", "RecursionError")
# A fixed hash seed gives every child the same dict and set layouts, which
# removes one source of run-to-run spread.
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")

# A fresh interpreter: import the package, load the workload's document,
# report the monotonic clock (system-wide on Linux) and the import time.
SETUP_CODE = """import sys, time
start = time.perf_counter()
import gottlieb
imported = time.perf_counter()
gottlieb.load(sys.stdin.read())
print(time.monotonic(), imported - start, flush=True)
"""


@dataclass
class Outcome:
    query: workloads.Query
    status: str  # "ok", "deadline", "resource", "error" or "wrong"
    elapsed: float  # seconds
    rss_kb: int = 0
    detail: str = ""


class FreshStarts:
    """Fresh-interpreter set-up samples, taken between passes of the run.

    The samples are spread over the whole run rather than taken in a row,
    so that a few seconds in which the host runs slow touch only some of
    them.  ``setup_s`` is the median time to ready.
    """

    def __init__(self, src: str, doc: str, passes: int):
        self.src, self.doc = src, doc.encode()
        # Samples due before each pass index; SETUP_STARTS in all.
        self.due = Counter(passes * i // SETUP_STARTS for i in range(SETUP_STARTS))
        self.passes_seen = 0
        self.ready, self.imports = [], []
        self.seconds = 0.0  # wall time spent on samples

    def before_pass(self) -> None:
        for _ in range(self.due[self.passes_seen]):
            self.sample()
        self.passes_seen += 1

    def sample(self) -> None:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=self.src, env=CHILD_ENV,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        out, _ = proc.communicate(self.doc, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"fresh start exited {proc.returncode}")
        at, imported = out.split()
        self.ready.append(float(at) - start)
        self.imports.append(float(imported))
        self.seconds += time.monotonic() - start


def judge(query: workloads.Query, reply: dict, deadline: float) -> Outcome:
    if reply.get("killed"):
        return Outcome(query, "deadline", deadline, detail="killed at the deadline")
    if reply.get("died"):
        return Outcome(query, "error", deadline, detail="query child died")
    if "error" in reply:
        status = "resource" if reply["error"].startswith(RESOURCE_ERRORS) else "error"
        return Outcome(query, status, reply["elapsed"], detail=reply["error"])
    if reply["elapsed"] > deadline:
        return Outcome(query, "deadline", reply["elapsed"], detail="finished after the deadline")
    try:
        reason = query.check(reply["result"])
    except Exception as exc:  # a malformed answer is a wrong answer
        reason = f"unreadable answer: {type(exc).__name__}: {exc}"
    status = "wrong" if reason else "ok"
    return Outcome(query, status, reply["elapsed"], reply.get("rss_kb", 0), reason or "")


class WarmWorker:
    """The worker process of ``worker.py`` and its pipes."""

    def __init__(self, root: str, workload: workloads.Workload, trace: bool):
        self.proc = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "worker.py"), root],
                                     cwd=root, env=CHILD_ENV, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self.replies = LineReader(self.proc.stdout.fileno())
        setup = {"doc": workload.worker_doc, "trace": trace,
                 "address_cap": WORKER_ADDRESS_CAP,
                 "warmup": [{"op": q.op, "args": q.args} for q in workload.warmup]}
        self.send(setup)
        if self.replies.readline(300) is None:
            raise RuntimeError("worker did not become ready")

    def send(self, obj: dict) -> None:
        write_all(self.proc.stdin.fileno(), (json.dumps(obj) + "\n").encode())

    def ask(self, query: workloads.Query, deadline: float) -> dict:
        self.send({"op": query.op, "args": query.args, "deadline": deadline})
        line = self.replies.readline(deadline + 60)
        if line is None:
            raise RuntimeError("worker stopped answering")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_warm(root: str, workload: workloads.Workload, passes: list, totals,
             starts: FreshStarts) -> list:
    outcomes = []
    worker = WarmWorker(root, workload, totals is not None)
    try:
        for queries in passes:
            starts.before_pass()
            for query in queries:
                reply = worker.ask(query, workload.deadline)
                outcome = judge(query, reply, workload.deadline)
                outcomes.append(outcome)
                if totals is not None and outcome.status == "ok":
                    totals.add(query.name, reply["trace"])
    finally:
        worker.close()
    return outcomes


def tail(samples: list) -> tuple:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten completed samples beyond it."""
    ordered = sorted(samples)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def wall_seconds(outcomes: list, deadline: float) -> float:
    """Time of completed queries, plus the deadline for each failed one."""
    return sum(o.elapsed if o.status == "ok" else deadline for o in outcomes)


def end_to_end(outcomes: list, deadline: float, setup_s: float) -> tuple:
    done = [o for o in outcomes if o.status == "ok"]
    times = [o.elapsed * 1000.0 for o in done] or [deadline * 1000.0]
    value, pct, beyond = tail(times)
    metrics = {
        "setup_s": setup_s,
        "query_p50_ms": statistics.median(times),
        "query_tail_ms": value,
        "queries_per_s": len(outcomes) / wall_seconds(outcomes, deadline),
        "peak_rss_mb": max((o.rss_kb for o in done), default=0) / 1024.0,
    }
    return metrics, f"p{pct:.1f} of {len(done)} completed, {beyond} samples beyond"


def report_queries(outcomes: list, deadline: float) -> None:
    by_rung = defaultdict(list)
    for outcome in outcomes:
        by_rung[outcome.query.name].append(outcome)
    print(f"rungs (deadline {deadline * 1000:.0f} ms):")
    for name, runs in by_rung.items():
        times = [o.elapsed * 1000.0 for o in runs if o.status == "ok"]
        failed = len(runs) - len(times)
        shown = f"median {statistics.median(times):9.2f} ms  max {max(times):9.2f} ms" \
            if times else "no completed runs"
        print(f"  {name:42s} {len(runs):4d} runs  {shown}  failed {failed}")
    failures = [o for o in outcomes if o.status != "ok"]
    print(f"failed queries ({len(failures)}):")
    for (name, status), count in sorted(Counter((o.query.name, o.status)
                                                for o in failures).items()):
        first = next(o for o in failures if (o.query.name, o.status) == (name, status))
        args = first.query.args
        shown = args.get("expr") or " ".join(args.get("argv", [])) or first.query.op
        print(f"  {name} [{status}] x{count}: {_short(shown)} -- {first.detail}")


def _short(text: str, limit: int = 100) -> str:
    return text if len(text) <= limit else text[:limit] + "..."


def write_spans(totals, workload: str, seed: int) -> str:
    out_dir = os.path.join(BENCH_DIR, "traces")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for query_id, (rung, spans) in enumerate(totals.spans):
            for index, (name, start, end, parent) in enumerate(spans):
                handle.write(json.dumps({"query": query_id, "rung": rung, "span": index,
                                         "name": name, "start": start, "end": end,
                                         "parent": parent}) + "\n")
    return os.path.relpath(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gottlieb", "cli.py")):
        print("error: run from the root of a checkout holding src/gottlieb", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed)
    passes = workloads.build_passes(workload, args.seed, args.seconds)
    starts = FreshStarts(src, workload.setup_doc, len(passes))

    started = time.perf_counter()
    if args.trace:
        half = len(passes) // 2
        plain = run_warm(root, workload, passes[:half], None, starts)
        totals = Totals()
        traced = run_warm(root, workload, passes[half:], totals, starts)
        outcomes = plain + traced
    else:
        outcomes = run_warm(root, workload, passes, None, starts)
    measured = time.perf_counter() - started - starts.seconds
    setup_s = statistics.median(starts.ready)

    failed = sum(o.status != "ok" for o in outcomes)
    wrong = sum(o.status in ("wrong", "error") for o in outcomes)
    print(f"workload {workload.name} seed {args.seed}: {len(passes)} passes, "
          f"{len(outcomes)} queries, {failed} failed (failed_share "
          f"{failed / len(outcomes):.4f}), {wrong} wrong outputs, "
          f"{measured:.1f} s measured, setup_s {setup_s:.4f} "
          f"(median of {SETUP_STARTS} fresh starts spread over the run)")
    report_queries(outcomes, workload.deadline)

    if args.trace:
        plain_qps = len(plain) / wall_seconds(plain, workload.deadline)
        traced_qps = len(traced) / wall_seconds(traced, workload.deadline)
        import_ms = statistics.median(starts.imports) * 1000.0
        values = layers.layer_values(totals, import_ms, plain_qps, traced_qps)
        print(f"tracing overhead: {plain_qps:.3f} 1/s untraced, {traced_qps:.3f} 1/s traced, "
              f"{values['trace.overhead_pct']:.1f}% ({totals.queries} traced queries)")
        print(f"spans written to {write_spans(totals, workload.name, args.seed)}")
        print("per-layer metrics (what each should move):")
        for name, unit, _, moves in layers.LAYERS:
            print(f"  {name:32s} {values[name]:14.4f} {unit:6s} -> {moves}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _ in layers.LAYERS}
    else:
        values, tail_note = end_to_end(outcomes, workload.deadline, setup_s)
        for name, unit, _ in layers.E2E:
            note = f"  ({tail_note})" if name == "query_tail_ms" else ""
            print(f"  {name:16s} {values[name]:14.6f} {unit}{note}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.E2E}
    result = {"correct": wrong == 0, "attempted": len(outcomes), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
