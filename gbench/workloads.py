"""Seeded inputs and expected answers for the three workloads.

A run is a fixed number of passes, set by ``--seconds`` and never by the
clock, so the same seed and length give the same queries.  Every pass
runs the same rungs; the seed draws target names, degrees and table
contents afresh for each pass, so no two timed queries are identical
while the work per pass stays the same.

Every rung finishes within a third of the workload's deadline, so no
query is expected to fail.  The ROADMAP's known blow-ups (``loop(Y, 80)``,
``map(T200, Y)``, the width-10 product, evaluating ``loop(Y, 40)`` or
``bloop(Y, 3, 12)``, and a 61-digit semiprime) are left out: each ladder
stops below them.  The deadline only guards against a change that makes
a rung hang.
"""

import json
import random
import string
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable

import reference as ref


@dataclass
class Query:
    name: str  # rung name, the same for every seed
    op: str  # worker method
    args: dict
    check: Callable  # result -> None when right, else a reason


@dataclass
class Workload:
    name: str
    deadline: float  # seconds per query
    pass_seconds: float  # nominal cost of one pass, used only to size runs
    setup_doc: str  # profile document a fresh start loads
    worker_doc: str | None  # profile document the warm worker loads
    warmup: list
    make_pass: Callable  # rng -> list of Query


def fresh_name(rng: random.Random, prefix: str) -> str:
    return prefix + "".join(rng.choice(string.ascii_lowercase) for _ in range(5))


def pass_count(seconds: float, pass_seconds: float) -> int:
    """An even number of passes, so a traced run can split them in half."""
    return 2 * max(1, round(seconds / (2 * pass_seconds)))


def build_passes(workload: Workload, seed: int, seconds: float) -> list:
    rng = random.Random(f"{workload.name}:{seed}:passes")
    return [workload.make_pass(rng) for _ in range(pass_count(seconds, workload.pass_seconds))]


# ---------------------------------------------------------------------------
# rewrite-ladder


def _check_rewrite(objs: list, result) -> str | None:
    expected = ref.canonical_order(objs)
    text = ref.sum_text(expected)
    if result["text"] != text:
        return f"text {ref.abbreviate(result['text'])!r} != {ref.abbreviate(text)!r}"
    if json.loads(result["json"]) != expected:
        return "term objects differ from the reference"
    return None


def _rewrite_rungs(rng: random.Random, shift_atoms: dict, small: bool) -> list:
    """(name, expression, degree, expected term objects) for one pass."""
    out = []

    def binomial_target(name, expr_of, poly):
        y = fresh_name(rng, "Y")
        n = rng.randint(1, 9)
        out.append((name, expr_of(y), n, ref.gottlieb_sum_objs(y, n, poly)))

    loops = (3,) if small else (10, 15, 20, 30)
    for big in loops:
        binomial_target(f"loop(Y,{big})", lambda y, b=big: f"loop({y}, {b})",
                        ref.bouquet_poly(1, big))
    bouquets = ((2, 2),) if small else ((2, 10), (3, 10), (2, 15), (3, 15))
    for m, big in bouquets:
        binomial_target(f"bloop(Y,{m},{big})", lambda y, m=m, b=big: f"bloop({y}, {m}, {b})",
                        ref.bouquet_poly(m, big))
    tori = (3,) if small else (10, 15, 20)
    for k in tori:
        binomial_target(f"map(T{k},Y)", lambda y, k=k: f"map(T{k}, {y})",
                        ref.bouquet_poly(1, k))
    wedge = "wedge(S1, S2, S3)"
    widths = (1,) if small else (4, 5)
    for k in widths:
        # susp adds one to every shift of the product (1 + t + t^2 + t^3)^k - 1.
        product = ref.poly_pow({0: 1, 1: 1, 2: 1, 3: 1}, k)
        poly = {0: 1, **{i + 1: c for i, c in product.items() if i > 0}}
        binomial_target(f"map(susp(prod^{k} wedge(S1,S2,S3)),Y)",
                        lambda y, k=k: f"map(susp(prod({', '.join([wedge] * k)})), {y})",
                        poly)

    # Non-splitting sources leave generalized residual terms.
    for k in ((2,) if small else (8, 12)):
        y, a, n = fresh_name(rng, "Y"), fresh_name(rng, "A"), rng.randint(1, 9)
        row = ref.bouquet_poly(1, k)
        objs = ref.gottlieb_sum_objs(y, n, row) + ref.generalized_objs(
            a, y, {n + j: c for j, c in row.items()})
        out.append((f"residual map(prod(T{k},A),Y)", f"map(prod(T{k}, {a}), {y})", n, objs))
    for k in ((2,) if small else (10, 20)):
        y, a, n = fresh_name(rng, "Y"), fresh_name(rng, "A"), rng.randint(1, 9)
        inner = f"map(prod({', '.join(['S1'] * k)}), {y})"
        objs = ref.gottlieb_sum_objs(y, n, ref.bouquet_poly(1, k)) + ref.generalized_objs(
            a, inner, {n: 1})
        out.append((f"residual map(prod(A,T{k}),Y)", f"map(prod({a}, T{k}), {y})", n, objs))
    for big in ((2,) if small else (10, 20)):
        y, a, n = fresh_name(rng, "Y"), fresh_name(rng, "A"), rng.randint(1, 9)
        s = rng.randint(1, 3)
        target = "map(S1, " * big + y + ")" * big
        objs = ref.gottlieb_sum_objs(y, n, ref.bouquet_poly(1, big)) + ref.generalized_objs(
            a, target, {n + s: 1})
        out.append((f"residual map(susp(A),loop(Y,{big}))",
                    f"map(susp({a}, {s}), loop({y}, {big}))", n, objs))
    # Atoms with declared suspension shifts split like spheres.
    for k in ((2,) if small else (10, 15)):
        x = rng.choice(sorted(shift_atoms))
        poly = ref.poly_mul(ref.shifts_poly(shift_atoms[x]), ref.bouquet_poly(1, k))
        binomial_target(f"map(prod(X,T{k}),Y)", lambda y, x=x, k=k: f"map(prod({x}, T{k}), {y})",
                        poly)
    return out


def _check_oracle(entries: int, result) -> str | None:
    if result != {"passed": True, "entries": entries}:
        return f"cross-check report {result} is not a pass over {entries} comparisons"
    return None


def _check_cli_decompose(objs: list, result) -> str | None:
    if result["code"] != 0:
        return f"exit {result['code']} != 0"
    obj = json.loads(result["stdout"])
    expected = ref.canonical_order(objs)
    if obj["text"] != ref.sum_text(expected) or obj["terms"] != expected:
        return f"CLI output {ref.abbreviate(result['stdout'])} differs from the reference"
    return None


def _rewrite_queries(rng, shift_atoms, small) -> list:
    queries = [
        Query(name, "rewrite", {"expr": expr, "degree": n}, partial(_check_rewrite, objs))
        for name, expr, n, objs in _rewrite_rungs(rng, shift_atoms, small)
    ]
    # The oracle layer: every applicable strategy must agree.  Bouquet shapes
    # run all six pairwise strategies (15 comparisons) plus the derived-profile
    # recursion; other splittable products run four (6) plus that recursion.
    for template, entries in (("bloop({}, 2, 3)", 16), ("loop({}, 4)", 16),
                              ("map(prod(S2, wedge(S1, S3)), {})", 7)):
        expr = template.format(fresh_name(rng, "Y"))
        queries.append(Query(f"crosscheck {template.format('Y')}", "crosscheck",
                             {"expr": expr, "degrees": [1, 2, 3], "seed": rng.randrange(10**6)},
                             partial(_check_oracle, entries)))
    # The command-line layer, called in-process as a script would.
    y, n, k = fresh_name(rng, "Y"), rng.randint(1, 9), 3 if small else 10
    argv = ["decompose", "--expr", f"map(T{k}, {y})", "--degree", str(n), "--format", "json"]
    queries.append(Query(f"cli main decompose map(T{k},Y)", "cli", {"argv": argv},
                         partial(_check_cli_decompose,
                                 ref.gottlieb_sum_objs(y, n, ref.bouquet_poly(1, k)))))
    rng.shuffle(queries)
    return queries


def rewrite_ladder(seed: int) -> Workload:
    rng = random.Random(f"rewrite-ladder:{seed}:profile")
    shift_atoms = {}
    for _ in range(3):
        shifts = sorted(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        shift_atoms[fresh_name(rng, "X")] = shifts
    doc = json.dumps({"spaces": {x: {"suspension_shifts": s, "flags": {"finite": True}}
                                 for x, s in shift_atoms.items()}, "maps": {}})
    warm = _rewrite_queries(random.Random(f"rewrite-ladder:{seed}:warmup"), shift_atoms, True)
    return Workload("rewrite-ladder", 0.15, 0.14, doc, doc, warm,
                    partial(_rewrite_queries, shift_atoms=shift_atoms, small=False))


# ---------------------------------------------------------------------------
# eval-multiplicity

TOP = 24  # every synthetic table is explicit up to zero_above = TOP


def _table_group(rng: random.Random) -> ref.Group:
    """Free rank 0..2 plus two 2-primary, one 3-primary and one 5-primary
    summand, so every degree costs the same number of torsion pairs."""
    torsion = Counter()
    torsion[(2, rng.randint(1, 3))] += 1
    torsion[(2, rng.randint(1, 3))] += 1
    torsion[(3, rng.randint(1, 2))] += 1
    torsion[(5, rng.randint(1, 2))] += 1
    return ref.Group(rng.randint(0, 2), torsion)


def _table_doc(table: dict) -> dict:
    return {"entries": {str(d): g.text() for d, g in sorted(table.items())}, "zero_above": TOP}


class EvalProfile:
    """The seeded profile of eval-multiplicity and the tables behind it."""

    def __init__(self, seed: int):
        rng = random.Random(f"eval-multiplicity:{seed}:profile")
        self.targets = [fresh_name(rng, "Y") for _ in range(3)]
        self.gottlieb, self.homotopy, self.flags = {}, {}, {}
        spaces = {}
        for i, y in enumerate(self.targets):
            table = {d: _table_group(rng) for d in range(1, TOP + 1)}
            g_space = i == 0  # a G-space has pi = G
            homotopy = table if g_space else {d: _table_group(rng) for d in range(1, TOP + 1)}
            flags = {"simply_connected": True, "finite": True, "t_space": rng.random() < 0.5}
            if g_space:
                flags["g_space"] = True
            self.gottlieb[y], self.homotopy[y], self.flags[y] = table, homotopy, flags
            spaces[y] = {"betti": [1, 0, 1], "flags": flags,
                         "gottlieb": _table_doc(table), "homotopy": _table_doc(homotopy)}
        # Loop-check candidates: G_d(L) = G_d(Y) + G_{d+1}(Y), one of them
        # broken at a seeded degree.
        self.candidates, self.broken = {}, {}
        for i, y in enumerate(self.targets):
            name = fresh_name(rng, "L")
            table = {d: self.g(y, d).plus(self.g(y, d + 1)) for d in range(1, TOP + 1)}
            if i == len(self.targets) - 1:
                bad = rng.randint(2, TOP - 2)
                table[bad] = table[bad].plus(ref.Group(1))
                self.broken[y] = bad
            self.candidates[y] = name
            spaces[name] = {"gottlieb": _table_doc(table)}
        self.sources = {}
        for _ in range(2):
            x = fresh_name(rng, "X")
            betti = [1] + [rng.randint(0, 2) for _ in range(rng.randint(2, 4))]
            shifts = sorted(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
            self.sources[x] = (betti, shifts)
            spaces[x] = {"betti": betti, "flags": {"finite": True}, "suspension_shifts": shifts}
        self.residual = fresh_name(rng, "A")
        spaces[self.residual] = {"flags": {"finite": True}}
        self.maps = {}
        maps = {}
        for _ in range(2):
            f = fresh_name(rng, "f")
            source, target = rng.sample(self.targets, 2)
            table = {d: _table_group(rng) for d in range(1, TOP + 1)}
            self.maps[f] = (source, table)
            maps[f] = {"source": source, "target": target,
                       "relative_gottlieb": _table_doc(table)}
        self.doc = json.dumps({"spaces": spaces, "maps": maps})

    def g(self, y: str, d: int) -> ref.Group:
        return self.gottlieb[y].get(d, ref.Group())

    def pi(self, y: str, d: int) -> ref.Group:
        return self.homotopy[y].get(d, ref.Group())


def _check_value(expected: ref.Group, result) -> str | None:
    return ref.check_group(result, expected)


def _check_table(expected: dict, result) -> str | None:
    if not isinstance(result, dict):
        return f"table incomplete: {result}"
    if result["zero_above"] != TOP or sorted(map(int, result["entries"])) != sorted(expected):
        return "table degrees differ from the reference"
    for d, group in expected.items():
        reason = ref.check_group(result["entries"][str(d)], group)
        if reason:
            return f"degree {d}: {reason}"
    return None


def _check_ranks(expected: list, result) -> str | None:
    for want, got in zip(expected, result, strict=True):
        for key, value in want.items():
            if got[key] != value:
                return f"{key} {got[key]} != {value}"
    return None


def _check_relative(expected: list, result) -> str | None:
    for (summands, structure, value), got in zip(expected, result, strict=True):
        if got["summands"] != summands or got["structure"] != structure:
            return f"{got['summands']} [{got['structure']}] != {summands} [{structure}]"
        reason = ref.check_group(got["value"], value)
        if reason:
            return reason
    return None


def _eval_queries(profile: EvalProfile, rng: random.Random, small: bool) -> list:
    p = profile
    out = []

    def target():
        return rng.choice(p.targets)

    def shifted_sum(y, n, poly, table=None):
        table = table or p.g
        return ref.weighted_sum((table(y, n + j), c) for j, c in poly.items())

    # loop(Y, 8) runs six times a pass, on fresh targets and degrees: a block
    # of equal-cost queries in the middle of the ladder, so the median lands
    # inside it rather than in a gap between rungs.
    for big in ((2,) if small else (7,) + (8,) * 6 + (9, 10, 11)):
        y, n = target(), rng.randint(1, TOP - big)
        out.append(Query(f"eval loop(Y,{big})", "eval", {"expr": f"loop({y}, {big})", "degree": n},
                         partial(_check_value, shifted_sum(y, n, ref.bouquet_poly(1, big)))))
    for m, big in (((2, 2),) if small else ((2, 5), (2, 6), (2, 7), (3, 4), (3, 5),
                                               (3, 6))):
        y, n = target(), rng.randint(1, TOP - big)
        out.append(Query(f"eval bloop(Y,{m},{big})", "eval",
                         {"expr": f"bloop({y}, {m}, {big})", "degree": n},
                         partial(_check_value, shifted_sum(y, n, ref.bouquet_poly(m, big)))))
    for n in ((3,) if small else (9, 10, 11)):
        y = target()
        out.append(Query(f"fox degree {n}", "fox", {"target": y, "degree": n},
                         partial(_check_value, shifted_sum(y, 1, ref.bouquet_poly(1, n - 1)))))
    for big in ((2,) if small else (7, 8)):
        y, n = target(), rng.randint(2, TOP - big)
        out.append(Query(f"loop-homotopy N={big}", "loop_homotopy",
                         {"target": y, "degree": n, "iterations": big},
                         partial(_check_value, shifted_sum(y, n, ref.bouquet_poly(1, big), p.pi))))
    x_names = sorted(p.sources)
    for source in (("T2",) if small else ("T3", "T4", "prod(X, T2)")):
        y = target()
        name = f"table map({source},Y)"
        if source == "prod(X, T2)":
            x = rng.choice(x_names)
            source = f"prod({x}, T2)"
            poly = ref.poly_mul(ref.shifts_poly(p.sources[x][1]), ref.bouquet_poly(1, 2))
        else:
            poly = ref.bouquet_poly(1, int(source[1:]))
        expected = {d: shifted_sum(y, d, poly) for d in range(1, TOP + 1)}
        out.append(Query(name, "table",
                         {"source": source, "target": y, "degrees": list(range(1, TOP + 1))},
                         partial(_check_table, expected)))
    # One rank report per pass for every source and target: ranks on a
    # degree window, the top degree, flag transfer for three sources and the
    # free-loop test.
    reports = []
    for x in x_names:
        for y in p.targets:
            betti = p.sources[x][0]
            gammas = [sum(b * p.g(y, d + i).rank for i, b in enumerate(betti))
                      for d in range(1, 21)]
            ranked = [d for d in range(1, TOP + 1) if p.g(y, d).rank > 0]
            top = [ranked[-1], p.g(y, ranked[-1]).rank] if ranked else [None, None]
            g_flag, t_flag = p.flags[y].get("g_space"), p.flags[y]["t_space"]
            residual_g = False if g_flag is False else None
            verdict = ["fail", p.broken[y]] if y in p.broken else ["pass", None]
            reports.append({"gammas": gammas, "top": top, "loop_check": verdict,
                            "flags": [[g_flag, t_flag], [residual_g, t_flag], [g_flag, t_flag]]})
    out.append(Query("rank report", "ranks",
                     {"sources": x_names, "targets": [[y, p.candidates[y]] for y in p.targets],
                      "degrees": list(range(1, 21)),
                      "flag_sources": ["T2", p.residual, rng.choice(x_names)],
                      "window": [1, TOP - 1]},
                     partial(_check_ranks, reports)))
    # Relative decompositions on a window of sixteen degrees.
    for circles, iterations in (((2, 1),) if small else ((25, 1), (50, 1), (200, 1), (1, 2))):
        f = rng.choice(sorted(p.maps))
        source, rel = p.maps[f]
        start = rng.randint(1, TOP - 17)
        expected = []
        for n in range(start, start + 16):
            if iterations == 1:
                summands = f"G[{n}]({source}) + {circles}*Grel[{n + 1}]({f})"
                value = p.g(source, n).plus(rel[n + 1], circles)
            else:
                summands = f"G[{n}]({source}) + 2*G[{n + 1}]({source}) + Grel[{n + 2}]({f})"
                value = p.g(source, n).plus(p.g(source, n + 1), 2).plus(rel[n + 2])
            expected.append((summands, "direct-sum" if n >= 2 else "split-extension", value))
        out.append(Query(f"relative m={circles} N={iterations}", "relative",
                         {"map_name": f, "degrees": list(range(start, start + 16)),
                          "circles": circles, "iterations": iterations},
                         partial(_check_relative, expected)))
    rng.shuffle(out)
    return out


def eval_multiplicity(seed: int) -> Workload:
    profile = EvalProfile(seed)
    warm = _eval_queries(profile, random.Random(f"eval-multiplicity:{seed}:warmup"), True)
    return Workload("eval-multiplicity", 0.25, 0.32, profile.doc, profile.doc, warm,
                    partial(_eval_queries, profile, small=False))


# ---------------------------------------------------------------------------
# profile-ingest


class OrderPools:
    """Primes the ingest documents build their cyclic orders from.

    Digit counts are fixed by position and small primes are drawn afresh
    for every order, so the seed changes values but not the factoring
    work a pass asks for.
    """

    def __init__(self, rng: random.Random):
        self.large = [ref.random_prime(rng, 20 + i % 21) for i in range(210)]
        self.cofactor = [ref.random_prime(rng, 15) for _ in range(100)]

    def order(self, rng: random.Random, category: str, digits: int = 0) -> tuple:
        """(order, Counter{(p, k): 1}) for one cyclic summand."""
        if category == "smooth":
            exps = {p: rng.randint(0, 6) for p in (2, 3, 5, 7)}
            if not any(exps.values()):
                exps[2] = 1
            order = 1
            for p, k in exps.items():
                order *= p**k
            return order, Counter({(p, k): 1 for p, k in exps.items() if k})
        if category == "prime-power":
            p, k = ref.random_prime(rng, rng.randint(2, 4)), rng.randint(1, 4)
            return p**k, Counter({(p, k): 1})
        if category == "large-prime":
            p = rng.choice(self.large)
            return p, Counter({(p, 1): 1})
        p, q = ref.random_prime(rng, digits), rng.choice(self.cofactor)
        return p * q, Counter({(p, 1): 1, (q, 1): 1})


MIXED_KINDS = ("smooth", "prime-power", "large-prime", "semiprime")


def _ingest_doc(rng, pools: OrderPools, spaces: int, degrees: int, category: str,
                digits: int = 0) -> tuple:
    """A document and, per space and degree, the group it must load as."""
    doc_spaces, expected = {}, {}
    for _ in range(spaces):
        name = fresh_name(rng, "Y")
        entries, groups = {}, {}
        for d in range(1, degrees + 1):
            kind = "prime-power" if category == "structural" else category
            if category == "mixed":
                # A fixed rotation, so every mixed document asks for the
                # same factoring work.
                kind = MIXED_KINDS[d % len(MIXED_KINDS)]
            rank, torsion, orders = rng.randint(0, 2), Counter(), []
            for _ in range(rng.randint(2, 3)):
                order, factors = pools.order(rng, kind, digits or 4)
                orders.append(order)
                torsion.update(factors)
            if category == "structural" or (category != "semiprime" and d % 3 == 0):
                # Structural form: prime powers given directly, no factoring.
                entries[str(d)] = {"rank": rank,
                                   "torsion": [[p, k] for (p, k), c in sorted(torsion.items())
                                               for _ in range(c)]}
            else:
                parts = [f"Z^{rank}"] if rank else []
                entries[str(d)] = " + ".join(parts + [f"Z/{o}" for o in orders]) or "0"
            groups[d] = ref.Group(rank, torsion)
        doc_spaces[name] = {"betti": [1] + [rng.randint(0, 2) for _ in range(3)],
                            "flags": {"finite": True, "simply_connected": rng.random() < 0.5},
                            "gottlieb": {"entries": entries, "zero_above": degrees}}
        expected[name] = groups
    source, target = rng.sample(sorted(doc_spaces), 2) if spaces > 1 else (name, name)
    doc = {"spaces": doc_spaces,
           "maps": {fresh_name(rng, "f"): {"source": source, "target": target}}}
    return json.dumps(doc), expected


def _torsion_counter(items: list) -> Counter:
    out = Counter()
    for item in items:
        out[(item[0], item[1])] += item[2] if len(item) > 2 else 1
    return out


def _check_ingest(expected: dict, result) -> str | None:
    if result["equal"] is not True:
        return "load(save(db)) != db"
    saved = json.loads(result["saved"])["spaces"]
    if sorted(saved) != sorted(expected):
        return "saved spaces differ from the document"
    for name, groups in expected.items():
        entries = saved[name]["gottlieb"]["entries"]
        if sorted(map(int, entries)) != sorted(groups):
            return f"{name}: saved degrees differ"
        for d, group in groups.items():
            entry = entries[str(d)]
            if entry["rank"] != group.rank or _torsion_counter(entry["torsion"]) != group.torsion:
                return f"{name} degree {d}: saved {entry} is not the known factorisation"
    return None


INGEST_RUNGS = (
    # (name, spaces, degrees, category, smaller-factor digits)
    ("ingest structural 6x8", 6, 8, "structural", 0),
    ("ingest smooth 3x8", 3, 8, "smooth", 0),
    ("ingest smooth 6x16", 6, 16, "smooth", 0),
    ("ingest smooth 8x16", 8, 16, "smooth", 0),
    ("ingest smooth 12x20", 12, 20, "smooth", 0),
    ("ingest prime-power 3x8", 3, 8, "prime-power", 0),
    ("ingest prime-power 6x16", 6, 16, "prime-power", 0),
    ("ingest prime-power 8x20", 8, 20, "prime-power", 0),
    ("ingest large-prime 3x8", 3, 8, "large-prime", 0),
    # Ten a pass: a block of equal-cost queries at the median (see eval).
    *[("ingest large-prime 3x10", 3, 10, "large-prime", 0)] * 10,
    ("ingest large-prime 6x8", 6, 8, "large-prime", 0),
    ("ingest large-prime 6x12", 6, 12, "large-prime", 0),
    ("ingest semiprime p4 3x6", 3, 6, "semiprime", 4),
    ("ingest semiprime p5 2x4", 2, 4, "semiprime", 5),
    ("ingest mixed 6x16", 6, 16, "mixed", 0),
    # Two a pass, so the tail sits inside this rung's samples.
    *[("ingest mixed 8x20", 8, 20, "mixed", 0)] * 2,
)


def _ingest_queries(pools: OrderPools, rng: random.Random, small: bool) -> list:
    rungs = (("ingest warm-up 2x4", 2, 4, "mixed", 0),) if small else INGEST_RUNGS
    out = []
    for name, spaces, degrees, category, digits in rungs:
        doc, expected = _ingest_doc(rng, pools, spaces, degrees, category, digits)
        out.append(Query(name, "ingest", {"doc": doc}, partial(_check_ingest, expected)))
    rng.shuffle(out)
    return out


def profile_ingest(seed: int) -> Workload:
    pools = OrderPools(random.Random(f"profile-ingest:{seed}:pools"))
    warm = _ingest_queries(pools, random.Random(f"profile-ingest:{seed}:warmup"), True)
    setup_doc, _ = _ingest_doc(random.Random(f"profile-ingest:{seed}:setup"), pools, 6, 16,
                               "mixed")
    return Workload("profile-ingest", 0.6, 0.6, setup_doc, None, warm,
                    partial(_ingest_queries, pools, small=False))


WORKLOADS = {
    "rewrite-ladder": rewrite_ladder,
    "eval-multiplicity": eval_multiplicity,
    "profile-ingest": profile_ingest,
}
