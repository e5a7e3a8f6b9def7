"""Warm worker for the library workloads.

Run as ``python gbench/worker.py <checkout root>``.  The process reads one
set-up line from stdin (the workload's profile document, its warm-up
queries, the address-space cap and whether to trace), imports the
package from ``src/``, loads the document and runs the warm-up.  It then
serves one query per stdin line, answering one JSON line on stdout.

Each query runs in a child forked from this warm process, so lazy set-up
is already done when timing starts and a query past its deadline can be
killed without paying a fresh import.  Only the child has its address
space capped with ``RLIMIT_AS``.  While the child works, this process
waits; at most one process computes at a time.  After a kill, or a query
that raised, the child is replaced at once: the new one is forked and
warmed, and says it is ready, before it is sent the next query.  So the
deadline clock, like the query's own timing, covers only the query.

Timing covers the library calls and rendering of one query, measured in
the child.  The module imports the package only inside ``main``, so
``run.py`` can import ``LineReader`` from here.
"""

import contextlib
import gc
import io
import itertools
import json
import os
import resource
import select
import signal
import sys
import time


class LineReader:
    """Newline-framed reads from a pipe, with an optional deadline."""

    def __init__(self, fd: int):
        self.fd = fd
        self.buffer = bytearray()

    def readline(self, timeout: float | None = None) -> bytes | None:
        """The next line, or None when ``timeout`` seconds pass first.

        Raises EOFError when the writer closed the pipe.
        """
        end = None if timeout is None else time.monotonic() + timeout
        while True:
            cut = self.buffer.find(b"\n")
            if cut >= 0:
                line = bytes(self.buffer[:cut])
                del self.buffer[: cut + 1]
                return line
            if end is not None:
                left = end - time.monotonic()
                if left <= 0 or not select.select([self.fd], [], [], left)[0]:
                    return None
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                raise EOFError
            self.buffer += chunk


def write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class Ops:
    """One method per query kind; each returns a JSON-ready result."""

    def __init__(self, doc: str | None):
        import gottlieb
        import gottlieb.cli

        self.g = gottlieb
        self.db = gottlieb.load(doc) if doc is not None else None
        self.shifts = self.db.atom_shifts() if self.db is not None else {}

    def _value(self, result) -> str:
        if isinstance(result, self.g.Incomplete):
            return f"incomplete: missing {list(result.missing)} residuals {list(result.residuals)}"
        return str(result)

    def _terms(self, formal_sum) -> str:
        g = self.g
        objs = []
        for term, mult in formal_sum:
            if isinstance(term, g.GottliebTerm):
                obj = {"kind": "gottlieb", "space": term.space, "degree": term.degree}
            elif isinstance(term, g.GenGottliebTerm):
                obj = {"kind": "generalized", "source": g.format_space(term.source),
                       "suspensions": term.suspensions, "target": g.format_space(term.target)}
            else:
                obj = {"kind": type(term).__name__, "text": g.term_text(term)}
            obj["multiplicity"] = mult
            objs.append(obj)
        return json.dumps(objs, sort_keys=True)

    def crosscheck(self, expr: str, degrees: list, seed: int) -> dict:
        report = self.g.crosscheck(expr, degrees, atom_shifts=self.shifts, seed=seed)
        return {"passed": report.passed, "entries": len(report.entries)}

    def cli(self, argv: list) -> dict:
        """``gottlieb.cli.main`` in this process, as a script calling it would."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.g.cli.main(argv)
        return {"code": code, "stdout": out.getvalue()}

    def rewrite(self, expr: str, degree: int) -> dict:
        g = self.g
        tree = g.desugar(g.parse_space(expr))
        formal_sum = g.decompose(tree, degree, self.shifts)
        return {"text": str(formal_sum), "json": self._terms(formal_sum)}

    def eval(self, expr: str, degree: int) -> str:
        g = self.g
        formal_sum = g.decompose(g.parse_space(expr), degree, self.shifts)
        return self._value(g.evaluate(formal_sum, self.db))

    def fox(self, target: str, degree: int) -> str:
        return self._value(self.g.evaluate(self.g.fox_gottlieb(degree, target), self.db))

    def loop_homotopy(self, target: str, degree: int, iterations: int) -> str:
        formal_sum = self.g.iterated_loop_homotopy(degree, iterations, target)
        return self._value(self.g.evaluate(formal_sum, self.db))

    def table(self, source: str, target: str, degrees: list) -> dict | str:
        g = self.g
        table = g.gottlieb_table_of_map_space(g.parse_space(source), target, degrees, self.db)
        if isinstance(table, g.Incomplete):
            return self._value(table)
        return {"entries": {str(d): str(group) for d, group in sorted(table.entries.items())},
                "zero_above": table.zero_above}

    def ranks(self, sources: list, targets: list, degrees: list, flag_sources: list,
              window: list) -> list:
        """Rank report of map(x, y) for each source x and each
        [y, loop-check candidate]."""
        g = self.g
        flag_exprs = [g.parse_space(s) for s in flag_sources]
        out = []
        for x, (y, candidate) in itertools.product(sources, targets):
            xp, yp = self.db.space(x), self.db.space(y)
            gammas = [g.gamma_of_map_space(xp, yp, d) for d in degrees]
            top = g.top_degree_report(xp, yp)
            flags = [g.propagate_flags(s, yp, self.shifts) for s in flag_exprs]
            verdict = g.free_loop_necessary_condition(
                self.db.space(candidate).gottlieb, yp.gottlieb, range(window[0], window[1] + 1))
            out.append({"gammas": [v if isinstance(v, int) else self._value(v) for v in gammas],
                        "top": [top.degree, top.gamma_top],
                        "flags": [[f.g_space, f.t_space] for f in flags],
                        "loop_check": [verdict.status, verdict.failing_degree]})
        return out

    def relative(self, map_name: str, degrees: list, circles: int, iterations: int) -> list:
        g = self.g
        out = []
        for degree in degrees:
            result = g.relative_decompose(self.db.map(map_name), degree, circles, iterations)
            out.append({"summands": str(result.summands), "structure": result.structure.value,
                        "value": self._value(g.evaluate(result.summands, self.db))})
        return out

    def ingest(self, doc: str) -> dict:
        g = self.g
        first = g.load(doc)
        saved = g.save(first)
        return {"saved": saved, "equal": g.load(saved) == first}


def _serve(request_fd: int, reply_fd: int, ops: Ops, recorder) -> None:
    reader = LineReader(request_fd)
    while True:
        # Start each query with empty young generations, so the collections
        # it pays for depend on its own allocations, not on earlier queries.
        gc.collect()
        try:
            line = reader.readline()
        except EOFError:
            return
        query = json.loads(line)
        method = getattr(ops, query["op"])
        start = time.perf_counter()
        try:
            result = method(**query["args"])
        except Exception as exc:  # report the failure; the parent replaces this child
            reply = {"error": f"{type(exc).__name__}: {exc}"[:400],
                     "elapsed": time.perf_counter() - start}
        else:
            reply = {"result": result, "elapsed": time.perf_counter() - start,
                     "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if recorder is not None:
            reply["trace"] = recorder.take()
        write_all(reply_fd, (json.dumps(reply) + "\n").encode())


def _warm_up(ops: Ops, queries: list, recorder) -> None:
    for query in queries:
        getattr(ops, query["op"])(**query["args"])
    if recorder is not None:
        recorder.take()


class Child:
    """A forked query process and its two pipes."""

    def __init__(self, ops: Ops, warmup: list, recorder, address_cap: int):
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 0
            try:
                os.close(request_w)
                os.close(reply_r)
                null = os.open(os.devnull, os.O_RDWR)
                os.dup2(null, 0)
                os.dup2(null, 1)
                resource.setrlimit(resource.RLIMIT_AS, (address_cap, address_cap))
                # Touch the inherited state again so copy-on-write faults
                # land here and not in the first timed query.
                _warm_up(ops, warmup, recorder)
                write_all(reply_w, b"ready\n")
                _serve(request_r, reply_w, ops, recorder)
            except BaseException:  # nothing may unwind into the parent's loop
                code = 1
            finally:
                os._exit(code)
        os.close(request_r)
        os.close(reply_w)
        self.pid = pid
        self.request_fd = request_w
        self.replies = LineReader(reply_r)
        try:
            ready = self.replies.readline(300)
        except EOFError:
            ready = None
        if ready != b"ready":
            self.stop()
            raise RuntimeError("query child did not become ready")

    def ask(self, line: bytes, deadline: float) -> bytes:
        """The child's reply line, or a killed or died marker."""
        write_all(self.request_fd, line + b"\n")
        try:
            reply = self.replies.readline(deadline)
        except EOFError:
            return b'{"died": true}'
        return b'{"killed": true}' if reply is None else reply

    def stop(self) -> None:
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.waitpid(self.pid, 0)
        os.close(self.request_fd)
        os.close(self.replies.fd)


def main() -> int:
    root = sys.argv[1]
    sys.path.insert(0, os.path.join(root, "src"))
    requests = LineReader(0)
    setup = json.loads(requests.readline())
    recorder = None
    if setup["trace"]:
        from tracing import Recorder, install

        recorder = Recorder()
        install(recorder)
    ops = Ops(setup["doc"])
    _warm_up(ops, setup["warmup"], recorder)
    gc.collect()
    gc.freeze()

    def fork() -> Child:
        return Child(ops, setup["warmup"], recorder, setup["address_cap"])

    child = fork()
    write_all(1, b'{"ready": true}\n')
    try:
        while True:
            try:
                line = requests.readline()
            except EOFError:
                return 0
            query = json.loads(line)
            reply = child.ask(line, query["deadline"])
            if not reply.startswith(b'{"result"'):
                child.stop()
                child = None
                child = fork()
            write_all(1, reply + b"\n")
    finally:
        if child is not None:
            child.stop()


if __name__ == "__main__":
    sys.exit(main())
