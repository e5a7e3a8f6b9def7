"""Finitely generated abelian groups in canonical form.

A group is stored as a free rank together with the multiset of prime-power
orders of its cyclic torsion summands, kept sorted by (prime, exponent).
The primary decomposition is unique per isomorphism class, so equality of
values is isomorphism of groups and direct sum is a multiset merge.  The
invariant-factor chain d_1 | d_2 | ... | d_s is a derived view computed on
demand.  All arithmetic is exact integer arithmetic; orders are factored
and primes certified by ``gottlieb.numtheory`` (standard library only).  An
order that Pollard-Brent rho cannot split within its work budget raises
``ValueError``, which profile loading reports as a schema error.

>>> g = canonicalize(1, [6, 4])
>>> g.torsion
((2, 1), (2, 2), (3, 1))
>>> g.invariant_factors()
[2, 12]
>>> str(g)
'Z + Z/2 + Z/12'
>>> str(g.direct_sum(canonicalize(0, [5])))
'Z + Z/2 + Z/60'
>>> canonicalize(0, [6, 35]) == canonicalize(0, [10, 21])
True
"""

import re
from dataclasses import dataclass
from math import prod

from .numtheory import factorint, isprime

__all__ = [
    "AbelianGroup",
    "TRIVIAL",
    "canonicalize",
    "direct_sum",
    "parse_group",
]

_FREE_RE = re.compile(r"Z\^([0-9]+)\Z")
_CYCLIC_RE = re.compile(r"Z/([0-9]+)\Z")


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group Z^rank + sum of Z/p^k factors.

    ``torsion`` holds one (p, k) pair per cyclic summand of order p^k.
    The constructor sorts the pairs, so two values compare equal exactly
    when the groups are isomorphic.
    """

    rank: int = 0
    torsion: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.rank, bool) or not isinstance(self.rank, int):
            raise TypeError(f"rank must be an integer, got {self.rank!r}")
        if self.rank < 0:
            raise ValueError(f"rank must be non-negative, got {self.rank}")
        pairs = []
        for pair in self.torsion:
            p, k = pair
            if (isinstance(p, bool) or not isinstance(p, int)
                    or isinstance(k, bool) or not isinstance(k, int)):
                raise TypeError(f"torsion pair must be two integers, got {pair!r}")
            if not isprime(p):
                raise ValueError(f"torsion base must be prime, got {p}")
            if k < 1:
                raise ValueError(f"torsion exponent must be >= 1, got {k}")
            pairs.append((p, k))
        object.__setattr__(self, "torsion", tuple(sorted(pairs)))

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def direct_sum(self, *others: "AbelianGroup") -> "AbelianGroup":
        """Direct sum, i.e. rank addition and torsion multiset merge."""
        rank = self.rank
        torsion = list(self.torsion)
        for other in others:
            rank += other.rank
            torsion.extend(other.torsion)
        return AbelianGroup(rank, tuple(torsion))

    def scaled(self, copies: int) -> "AbelianGroup":
        """Direct sum of ``copies`` copies of this group."""
        if not isinstance(copies, int) or copies < 0:
            raise ValueError(f"copy count must be a non-negative integer, got {copies!r}")
        return AbelianGroup(self.rank * copies, self.torsion * copies)

    def invariant_factors(self) -> list[int]:
        """The chain d_1 | d_2 | ... | d_s with the group = Z^rank + sum Z/d_i.

        The largest factor collects the highest exponent of every prime, the
        next factor the second highest, and so on; the chain is returned in
        ascending (divisibility) order.
        """
        per_prime: dict[int, list[int]] = {}
        for p, k in self.torsion:
            per_prime.setdefault(p, []).append(k)
        for exponents in per_prime.values():
            exponents.sort(reverse=True)
        depth = max((len(v) for v in per_prime.values()), default=0)
        factors = [
            prod(p ** exps[j] for p, exps in per_prime.items() if j < len(exps))
            for j in range(depth)
        ]
        return factors[::-1]

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors())
        return " + ".join(parts) if parts else "0"

    @classmethod
    def from_text(cls, text: str) -> "AbelianGroup":
        """Parse the ``"Z^r + Z/d + ..."`` codec; ``"0"`` is the trivial group.

        Summand order does not matter and ``Z`` may repeat; the result is
        canonicalized, so ``from_text("Z/4 + Z/3")`` equals ``from_text("Z/12")``.
        """
        if not isinstance(text, str):
            raise TypeError(f"group text expected, got {text!r}")
        stripped = text.strip()
        if stripped == "0":
            return cls()
        rank = 0
        orders: list[int] = []
        for part in stripped.split("+"):
            part = part.strip()
            if part == "Z":
                rank += 1
            elif m := _FREE_RE.fullmatch(part):
                r = _summand_int(m.group(1), "free exponent")
                if r < 1:
                    raise ValueError(f"free exponent must be >= 1 in {part!r}")
                rank += r
            elif m := _CYCLIC_RE.fullmatch(part):
                d = _summand_int(m.group(1), "cyclic order")
                if d < 2:
                    raise ValueError(f"cyclic order must be >= 2 in {part!r}")
                orders.append(d)
            else:
                raise ValueError(f"cannot parse group summand {part!r} in {text!r}")
        return canonicalize(rank, orders)


def _summand_int(digits: str, what: str) -> int:
    # int() refuses strings past the interpreter's digit limit (4300 by
    # default); report that without echoing the digits.
    try:
        return int(digits)
    except ValueError:
        raise ValueError(f"{what} of {len(digits)} digits is too long") from None


TRIVIAL = AbelianGroup()


def canonicalize(rank: int, cyclic_orders=()) -> AbelianGroup:
    """Build the canonical form of Z^rank + sum of Z/order summands.

    Each order is factored into prime powers, e.g. orders [6, 4] become
    torsion ((2, 1), (2, 2), (3, 1)).  Orders must be integers >= 2; the
    free part is passed separately as ``rank``.
    """
    torsion: list[tuple[int, int]] = []
    for order in cyclic_orders:
        if isinstance(order, bool) or not isinstance(order, int):
            raise TypeError(f"cyclic order must be an integer, got {order!r}")
        if order <= 1:
            raise ValueError(f"cyclic order must be >= 2, got {order}")
        torsion.extend(factorint(order).items())
    return AbelianGroup(rank, tuple(torsion))


def direct_sum(*groups: AbelianGroup) -> AbelianGroup:
    """Direct sum of any number of groups (empty sum is the trivial group)."""
    return TRIVIAL.direct_sum(*groups)


def parse_group(text: str) -> AbelianGroup:
    return AbelianGroup.from_text(text)
