"""Expected answers computed without the package under test.

Nothing here imports ``gottlieb``.  Decomposition rungs are checked
against binomial and polynomial coefficients, evaluations against
multiplicity-weighted sums of the generated tables reduced to invariant
factors, and profile ingest against the factorisation each generated
order was built from.
"""

import random
from collections import Counter
from math import comb

# Fixed Miller-Rabin bases: the first 20 primes.  Deterministic below
# 3.3e24; above that a composite passes with probability below 4^-20.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, digits: int) -> int:
    """A prime with exactly ``digits`` decimal digits."""
    low, high = 10 ** (digits - 1), 10**digits - 1
    n = rng.randrange(low, high) | 1
    while not is_probable_prime(n):
        n += 2
        if n > high:
            n = low + 1
    return n


# ---------------------------------------------------------------------------
# Shift polynomials as {shift: coefficient} dictionaries.


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


def poly_pow(base: dict, exponent: int) -> dict:
    out = {0: 1}
    for _ in range(exponent):
        out = poly_mul(out, base)
    return out


def bouquet_poly(circles: int, iterations: int) -> dict:
    """(1 + m t)^N by the binomial theorem."""
    return {j: circles**j * comb(iterations, j) for j in range(iterations + 1)}


def shifts_poly(shifts) -> dict:
    """1 + sum of t^s over a shift multiset."""
    out = {0: 1}
    for s in shifts:
        out[s] = out.get(s, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Formal sums, kept as the text the package prints.


def gottlieb_sum_objs(space: str, degree: int, poly: dict) -> list:
    return [
        {"kind": "gottlieb", "space": space, "degree": degree + shift, "multiplicity": count}
        for shift, count in sorted(poly.items())
        if count
    ]


def generalized_objs(source: str, target: str, exponents: dict) -> list:
    """Generalized terms Gen[Σ^k source -> target] with multiplicities."""
    return [
        {"kind": "generalized", "source": source, "suspensions": k, "target": target,
         "multiplicity": count}
        for k, count in sorted(exponents.items())
        if count
    ]


def term_text(obj: dict) -> str:
    if obj["kind"] == "gottlieb":
        text = f"G[{obj['degree']}]({obj['space']})"
    else:
        text = f"Gen[Σ^{obj['suspensions']} {obj['source']} -> {obj['target']}]"
    return text if obj["multiplicity"] == 1 else f"{obj['multiplicity']}*{text}"


def canonical_order(objs: list) -> list:
    """Gottlieb terms by (space, degree), then generalized terms by
    (source, suspensions, target)."""
    gottlieb = sorted((o for o in objs if o["kind"] == "gottlieb"),
                      key=lambda o: (o["space"], o["degree"]))
    general = sorted((o for o in objs if o["kind"] == "generalized"),
                     key=lambda o: (o["source"], o["suspensions"], o["target"]))
    return gottlieb + general


def sum_text(objs: list) -> str:
    ordered = canonical_order(objs)
    return " + ".join(term_text(o) for o in ordered) if ordered else "0"


# ---------------------------------------------------------------------------
# Finitely generated abelian groups as (rank, Counter{(p, k): copies}).


class Group:
    """Z^rank plus ``torsion[(p, k)]`` copies of Z/p^k."""

    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int = 0, torsion=None):
        self.rank = rank
        self.torsion = Counter(torsion or {})

    def plus(self, other: "Group", copies: int = 1) -> "Group":
        torsion = Counter(self.torsion)
        for key, count in other.torsion.items():
            torsion[key] += count * copies
        return Group(self.rank + other.rank * copies, torsion)

    def factor_runs(self) -> list:
        """Invariant factors as (d, repeat) runs, largest d first."""
        per_prime: dict = {}
        for (p, k), count in self.torsion.items():
            if count:
                per_prime.setdefault(p, []).append([k, count])
        for runs in per_prime.values():
            runs.sort(reverse=True)
        out = []
        while per_prime:
            step = min(runs[0][1] for runs in per_prime.values())
            d = 1
            for p, runs in per_prime.items():
                d *= p ** runs[0][0]
            out.append((d, step))
            for p in list(per_prime):
                runs = per_prime[p]
                runs[0][1] -= step
                if runs[0][1] == 0:
                    runs.pop(0)
                    if not runs:
                        del per_prime[p]
        return out

    def value(self) -> tuple:
        """Isomorphism invariant: (rank, Counter{invariant factor: copies})."""
        factors: Counter = Counter()
        for d, repeat in self.factor_runs():
            factors[d] += repeat
        return self.rank, factors

    def text(self) -> str:
        """Input codec text listing every prime-power summand."""
        parts = ["Z"] * min(self.rank, 1)
        if self.rank > 1:
            parts = [f"Z^{self.rank}"]
        for (p, k), count in sorted(self.torsion.items()):
            parts.extend([f"Z/{p ** k}"] * count)
        return " + ".join(parts) if parts else "0"


def weighted_sum(terms) -> Group:
    """Direct sum of ``copies`` copies of each group in (group, copies) pairs."""
    total = Group()
    for group, copies in terms:
        total = total.plus(group, copies)
    return total


def parse_group_value(text: str) -> tuple:
    """(rank, Counter{d: copies}) from printed group text.

    Accepts ``0``, ``Z``, ``Z^r``, ``Z/d`` and the run form ``(Z/d)^k``, so
    a printer that groups repeated factors still compares equal.
    """
    rank, factors = 0, Counter()
    text = text.strip()
    if text == "0":
        return rank, factors
    for part in text.split(" + "):
        if part == "Z":
            rank += 1
        elif part.startswith("Z^"):
            rank += int(part[2:])
        elif part.startswith("Z/"):
            factors[int(part[2:])] += 1
        elif part.startswith("(Z/") and ")^" in part:
            d, k = part[3:].split(")^")
            factors[int(d)] += int(k)
        else:
            raise ValueError(f"unreadable group summand {part!r}")
    return rank, factors


def check_group(text: str, expected: Group) -> str | None:
    try:
        got = parse_group_value(text)
    except ValueError as exc:
        return str(exc)
    want = expected.value()
    if got != want:
        return f"group {abbreviate(text)} != expected rank {want[0]} factors {dict(want[1])}"
    return None


def abbreviate(text: str, limit: int = 160) -> str:
    return text if len(text) <= limit else text[:limit] + f"... ({len(text)} chars)"
