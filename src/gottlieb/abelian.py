"""Finitely generated abelian groups in canonical form.

A group is stored as a free rank together with its primary torsion by
multiplicity: one (prime, exponent, count) triple per distinct cyclic
summand Z/p^k, kept sorted by (prime, exponent).  The primary decomposition
is unique per isomorphism class, so equality of values is isomorphism of
groups, and direct sum adds counts.  ``direct_sum`` and ``scaled`` cost
O(distinct summands) whatever the multiplicities, which is what a mapping
space answer needs: a few distinct groups, each repeated C(N, j) times.

Validation happens once, where outside input enters: the constructor and
the profile reader read torsion items through ``_canonical_torsion``, one
loop that checks every item (integers, p prime, k >= 1, count >= 1, p^k of
at most ``ORDER_DIGITS`` decimal digits, so every admitted summand prints
under ``PRINT_DIGITS``; see ``limits``) and takes items already in
canonical order, as ``save`` writes them, as they stand; ``canonicalize``
checks its orders and factors them.  Sums and multiples of valid groups are valid, so
they skip the checks.  A weighted sum m_1 g_1 + ... + m_t g_t, which is
what evaluating a formal sum makes, merges once: every summand's count
times its weight goes into one map keyed by (p, k), which costs O(terms x
summands per term), and the distinct keys are sorted once.  The
invariant-factor chain d_1 | d_2 | ... | d_s is computed on demand as runs
of equal factors, by exponent drops: the largest factor takes every
prime's highest power, and each distinct summand ends one run of its
prime, where the factor is divided once.  So printing costs one division
per distinct summand, whatever the counts; text output prints a run of
n >= 2 equal factors d as ``(Z/d)^n``.  A sum can still have a factor,
count or rank past ``PRINT_DIGITS``; ``str`` then raises ``ValueError``
naming that number's size.  All arithmetic is exact integer arithmetic;
orders are factored and primes certified by ``gottlieb.numtheory``
(standard library only).  An order that Pollard-Brent rho cannot split
within its work budget raises ``ValueError``, as does a number past
``CERTIFY_DIGITS`` that would need a strong primality test; profile
loading reports either as a schema error.

>>> g = canonicalize(1, [6, 4])
>>> g.torsion
((2, 1, 1), (2, 2, 1), (3, 1, 1))
>>> g.invariant_factors()
[2, 12]
>>> str(g)
'Z + Z/2 + Z/12'
>>> str(g.direct_sum(canonicalize(0, [5])))
'Z + Z/2 + Z/60'
>>> str(canonicalize(0, [2, 8, 8]).scaled(10**20))
'(Z/2)^100000000000000000000 + (Z/8)^200000000000000000000'
>>> canonicalize(0, [6, 35]) == canonicalize(0, [10, 21])
True
"""

import re
from collections.abc import Iterable
from math import floor, log10

from .limits import ORDER_DIGITS, PRINT_DIGITS, digits, over
from .numtheory import factorint, isprime
from .records import _Record, _set

__all__ = [
    "AbelianGroup",
    "TRIVIAL",
    "canonicalize",
    "direct_sum",
    "group_to_json",
    "parse_group",
]

# One summand of the text codec: Z, Z^r, Z/d or (Z/d)^n.
_SUMMAND_RE = re.compile(r"Z(?:\^([0-9]+))?|Z/([0-9]+)|\(Z/([0-9]+)\)\^([0-9]+)")

_DIGIT_BOUND = 10**ORDER_DIGITS
_SAFE_BITS = _DIGIT_BOUND.bit_length() - 1  # 2^_SAFE_BITS < 10^ORDER_DIGITS


def _too_long(p: int, k: int) -> bool:
    """True when p^k has more than ``ORDER_DIGITS`` digits.

    p^k lies between 2^(k(b-1)) and 2^(kb) for b = p.bit_length(), which
    settles nearly every case; only a power within a factor 2^k of the
    bound is formed, and it has at most twice its bits.
    """
    bits = p.bit_length()
    if k * bits <= _SAFE_BITS:
        return False
    if k * (bits - 1) > _SAFE_BITS:
        return True
    return p**k >= _DIGIT_BOUND


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_rank(rank) -> None:
    if not _is_int(rank):
        raise TypeError(f"rank must be an integer, got {rank!r}")
    if rank < 0:
        raise ValueError(f"rank must be non-negative, got {rank}")


def _canonical_torsion(items) -> tuple[tuple[int, int, int], ...]:
    """Canonical (p, k, count) triples from (p, k) pairs and (p, k, count) triples.

    Raises ``TypeError`` for an item that is not two or three integers and
    ``ValueError`` for k < 1, count < 1, p^k past ``ORDER_DIGITS`` or p not prime.
    Items already in strictly increasing (p, k) order, as ``save`` writes
    them, are taken as they stand; any others are sorted and merged.
    """
    triples = []
    last_p = last_k = 0  # no summand has exponent 0
    ordered = True
    for item in items:
        # This loop is the cost of every load, so the common case (plain
        # ints, a short prime power) takes the cheapest tests first.
        size = len(item) if isinstance(item, (tuple, list)) else 0
        if size == 2:
            p, k = item
            count = 1
            plain = type(p) is int and type(k) is int
        elif size == 3:
            p, k, count = item
            plain = type(p) is int and type(k) is int and type(count) is int
        else:
            p = k = count = None
            plain = False
        if not plain and not (_is_int(p) and _is_int(k) and _is_int(count)):
            raise TypeError(
                f"torsion item must be two integers (p, k) or three (p, k, count), "
                f"got {item!r}"
            )
        if k < 1:
            raise ValueError(f"torsion exponent must be >= 1, got {k}")
        if count < 1:
            raise ValueError(f"torsion count must be >= 1, got {count}")
        if k * p.bit_length() > _SAFE_BITS and _too_long(p, k):
            raise ValueError(over("ORDER_DIGITS", floor(k * log10(p)) + 1))
        if not isprime(p):
            raise ValueError(f"torsion base must be prime, got {p}")
        if ordered:
            ordered = p > last_p or p == last_p and k > last_k
            last_p, last_k = p, k
        triples.append((p, k, count))
    return tuple(triples) if ordered else _merged(triples)


class AbelianGroup(_Record):
    """A finitely generated abelian group Z^rank + sum of Z/p^k factors.

    ``torsion`` holds one (p, k, count) triple per distinct cyclic summand
    of order p^k, sorted by (p, k).  The constructor also accepts (p, k)
    pairs, meaning count 1, validates every item, and merges equal (p, k),
    so two values compare equal exactly when the groups are isomorphic.
    """

    __slots__ = ("rank", "torsion")
    rank: int
    torsion: tuple[tuple[int, int, int], ...]

    def __init__(self, rank: int = 0, torsion=()) -> None:
        _check_rank(rank)
        _set(self, "rank", rank)
        _set(self, "torsion", _canonical_torsion(torsion))

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def direct_sum(self, *others: "AbelianGroup") -> "AbelianGroup":
        """Direct sum: ranks add and the counts of equal summands add.

        Unit weights need no scaling, so the triples are concatenated and
        sorted once: for the few small groups such sums take, that is
        cheaper than the count map of ``_weighted_sum``.
        """
        rank = self.rank
        triples = list(self.torsion)
        for other in others:
            rank += other.rank
            triples += other.torsion
        return _trusted(rank, _merged(triples))

    def scaled(self, copies: int) -> "AbelianGroup":
        """Direct sum of ``copies`` copies of this group."""
        if not isinstance(copies, int) or copies < 0:
            raise ValueError(f"copy count must be a non-negative integer, got {copies!r}")
        if copies == 0:
            return TRIVIAL
        return _trusted(
            self.rank * copies,
            tuple((p, k, count * copies) for p, k, count in self.torsion),
        )

    def _factor_runs(self) -> list[tuple[int, int]]:
        """The invariant factors as runs (d, n) of n equal factors d, ascending.

        Factors are counted from the largest down.  The largest collects
        the highest exponent of every prime, the next the second highest,
        and so on, so a prime's part of the factor only drops where one of
        its runs of equal exponents ends: by p^(k - k') into its next
        exponent k', or by p^k past its last.  Each distinct summand gives
        one such drop, and the factor changes only at their positions: one
        exact division per distinct summand, whatever the counts.
        """
        d = 1
        drops = []  # (position from the top, divisor)
        prime = exponent = position = 0
        for p, k, count in reversed(self.torsion):  # primes, then exponents, descending
            if p == prime:
                drops.append((position, p ** (exponent - k)))
                position += count
            else:
                if prime:
                    drops.append((position, prime**exponent))
                d *= p**k
                position = count
            prime, exponent = p, k
        if prime:
            drops.append((position, prime**exponent))
        drops.sort()
        runs = []
        start = 0
        for position, drop in drops:
            if position != start:
                runs.append((d, position - start))
                start = position
            d //= drop
        runs.reverse()
        return runs

    def invariant_factors(self) -> list[int]:
        """The chain d_1 | d_2 | ... | d_s with the group = Z^rank + sum Z/d_i.

        The chain is returned expanded and in ascending (divisibility)
        order, one entry per factor, so its length is the total count.
        """
        return [d for d, n in self._factor_runs() for _ in range(n)]

    def __str__(self) -> str:
        runs = self._factor_runs()
        try:
            parts = []
            if self.rank == 1:
                parts.append("Z")
            elif self.rank > 1:
                parts.append(f"Z^{self.rank}")
            parts.extend(f"Z/{d}" if n == 1 else f"(Z/{d})^{n}" for d, n in runs)
        except ValueError:
            # A sum of admitted groups can hold a number past the digit
            # limit; say which one instead of the interpreter's advice.
            raise ValueError(_unprintable(self.rank, runs)) from None
        return " + ".join(parts) if parts else "0"

    def describe(self) -> str:
        """``str(self)``, or a phrase naming the group's size when it cannot print.

        For messages that must not fail: a sum of admitted groups can hold a
        number past the digit limit, e.g. "a group whose invariant factor
        has 5874 digits".
        """
        try:
            return str(self)
        except ValueError:
            oversized = _oversized(self.rank, self._factor_runs())
        if oversized is None:
            return "a group too large to print"
        what, count = oversized
        return f"a group whose {what} has {count} digits"

    @classmethod
    def from_text(cls, text: str) -> "AbelianGroup":
        """Parse the ``"Z^r + Z/d + (Z/e)^n + ..."`` codec; ``"0"`` is trivial.

        Summand order does not matter and ``Z`` may repeat; the result is
        canonicalized, so ``from_text("Z/4 + Z/3")`` equals ``from_text("Z/12")``
        and ``from_text("(Z/2)^2")`` equals ``from_text("Z/2 + Z/2")``.
        """
        if not isinstance(text, str):
            raise TypeError(f"group text expected, got {text!r}")
        stripped = text.strip()
        if stripped == "0":
            return TRIVIAL
        rank = 0
        orders: dict[int, int] = {}
        for part in stripped.split("+"):
            part = part.strip()
            m = _SUMMAND_RE.fullmatch(part)
            if m is None:
                raise ValueError(f"cannot parse group summand {part!r} in {text!r}")
            free, order, run_order, run_length = m.groups()
            if order is not None:
                copies = 1
            elif run_order is not None:
                order = run_order
                copies = _summand_int(run_length, "run length")
                if copies < 1:
                    raise ValueError(f"run length must be >= 1 in {part!r}")
            else:
                r = 1 if free is None else _summand_int(free, "free exponent")
                if r < 1:
                    raise ValueError(f"free exponent must be >= 1 in {part!r}")
                rank += r
                continue
            d = _summand_int(order, "cyclic order")
            if d < 2:
                raise ValueError(f"cyclic order must be >= 2 in {part!r}")
            orders[d] = orders.get(d, 0) + copies
        return _from_orders(rank, orders)


def _oversized(rank: int, runs: list[tuple[int, int]]) -> tuple[str, int] | None:
    """(what, digit count) of the first number past ``PRINT_DIGITS``."""
    numbers = [("rank", rank)]
    for d, n in runs:
        numbers += [("invariant factor", d), ("summand count", n)]
    bound = 10**PRINT_DIGITS
    for what, value in numbers:
        if value >= bound:
            return what, digits(value)
    return None


def _unprintable(rank: int, runs: list[tuple[int, int]]) -> str:
    oversized = _oversized(rank, runs)
    if oversized is None:
        return "group too large to print under the interpreter's digit limit"
    what, count = oversized
    return over("PRINT_DIGITS", f"{count} (the group's {what})")


def _summand_int(text: str, what: str) -> int:
    # int() refuses strings past the interpreter's digit limit; report that
    # without echoing the digits.
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} of {len(text)} digits is too long") from None


def _merged(triples: list[tuple[int, int, int]]) -> tuple[tuple[int, int, int], ...]:
    """Sort (p, k, count) triples and add up the counts of equal (p, k)."""
    triples.sort()
    merged: list[tuple[int, int, int]] = []
    last_p = last_k = 0  # no summand has exponent 0
    for triple in triples:  # equal (p, k) are now adjacent
        p, k, count = triple
        if k == last_k and p == last_p:
            merged[-1] = (p, k, merged[-1][2] + count)
        else:
            merged.append(triple)
            last_p, last_k = p, k
    return tuple(merged)


def _weighted_sum(parts: Iterable[tuple[AbelianGroup, int]]) -> AbelianGroup:
    """The direct sum of ``copies >= 1`` copies of each valid group, in one merge.

    Every summand's count times its copies goes into one map keyed by
    (p, k), and the distinct keys are sorted once, so a sum of many groups
    that share a few summands never re-sorts what it has already merged.
    """
    rank = 0
    counts: dict[tuple[int, int], int] = {}
    get = counts.get
    for group, copies in parts:
        rank += group.rank * copies
        for p, k, count in group.torsion:
            key = p, k
            counts[key] = get(key, 0) + count * copies
    # Keys are distinct, so sorting the triples never compares counts.
    return _trusted(rank, tuple(sorted([(p, k, c) for (p, k), c in counts.items()])))


def _trusted(rank: int, torsion: tuple[tuple[int, int, int], ...]) -> AbelianGroup:
    """An AbelianGroup from parts already known to be valid and canonical."""
    group = object.__new__(AbelianGroup)
    _set(group, "rank", rank)
    _set(group, "torsion", torsion)
    return group


def _from_orders(rank: int, orders: dict[int, int]) -> AbelianGroup:
    """Z^rank plus ``orders[d]`` copies of Z/d, for checked orders d >= 2."""
    _check_rank(rank)
    # factorint returns certified primes, so the result needs no check.
    triples = [
        (p, k, copies)
        for order, copies in orders.items()
        for p, k in factorint(order).items()
    ]
    return _trusted(rank, _merged(triples))


TRIVIAL = _trusted(0, ())


def canonicalize(rank: int, cyclic_orders=()) -> AbelianGroup:
    """Build the canonical form of Z^rank + sum of Z/order summands.

    Each order is factored into prime powers, e.g. orders [6, 4] become
    torsion ((2, 1, 1), (2, 2, 1), (3, 1, 1)).  Orders must be integers
    >= 2 of at most ``ORDER_DIGITS`` digits; the free part is passed
    separately as ``rank``.
    """
    orders: dict[int, int] = {}
    for order in cyclic_orders:
        if not _is_int(order):
            raise TypeError(f"cyclic order must be an integer, got {order!r}")
        if order <= 1:
            raise ValueError(f"cyclic order must be >= 2, got {order}")
        if _too_long(order, 1):
            raise ValueError(over("ORDER_DIGITS", digits(order)))
        orders[order] = orders.get(order, 0) + 1
    return _from_orders(rank, orders)


def group_to_json(group: AbelianGroup) -> dict:
    """The structured form: [p, k] for one summand Z/p^k, [p, k, count] for more."""
    return {
        "rank": group.rank,
        "torsion": [[p, k] if count == 1 else [p, k, count] for p, k, count in group.torsion],
    }


def direct_sum(*groups: AbelianGroup) -> AbelianGroup:
    """Direct sum of any number of groups (empty sum is the trivial group)."""
    return TRIVIAL.direct_sum(*groups)


def parse_group(text: str) -> AbelianGroup:
    return AbelianGroup.from_text(text)
