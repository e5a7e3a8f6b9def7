"""Primality and integer factorization with the standard library alone.

``isprime`` is exact.  Below 3317044064679887385961981 it runs the strong
Miller-Rabin test to the first 13 prime bases, which no composite passes
there (Sorenson and Webster, Math. Comp. 86, 2017).  Above that it runs the
strong Baillie-PSW test: base 2, then a strong Lucas test with Selfridge's
parameters (Baillie and Wagstaff, Math. Comp. 35, 1980), to which no
counterexample is known.  This is the rule ``sympy.isprime`` applies.
For n >= 10^6 the verdict is memoized, 1024 verdicts per process, and the
memo is looked up before any arithmetic, trial division included.

``factorint`` returns ``{prime: exponent}``, cheap stages first.  One gcd
with the product of the primes below 1000 names those dividing n; a lone
one is divided out directly.  A cofactor below 10^6 is then prime; a
larger one takes a primality test and a perfect-power check.  The first
composite that is not a perfect power takes a gcd with the product of
the primes in [1000, 10^4), which finds all of its factors there, or when
it has none, gcds with products of 256 primes of [10^4, 10^5), built on
first need, up to the first that shares one (Bernstein, "How to find
smooth parts of integers", 2004).  Fermat steps and Brent's variant of
Pollard's rho (BIT 20, 1980) split the rest.  Rho runs on a work budget
that scales with the size of the number, so every call ends in bounded
time; when the budget runs out it raises ``ValueError``.  Factors found
before rho do not use up its budget: prime factors below 10^5 cost it
nothing, but where n has factors in both bands rho finds those above 10^4.

>>> factorint(2**5 * 3 * 1000003**2)
{2: 5, 3: 1, 1000003: 2}
>>> factorint(1237**2 * 100000000000031)
{1237: 2, 100000000000031: 1}
>>> isprime(3317044064679887385961981)
False
"""

from collections.abc import Iterator
from functools import cache, lru_cache
from itertools import compress, islice
from math import gcd, isqrt, prod

__all__ = ["factorint", "isprime"]


def _primes_below(limit: int) -> Iterator[int]:
    """The primes below ``limit`` in ascending order, by the sieve of Eratosthenes."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for i in range(2, isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return compress(range(limit), flags)


_TRIAL_BOUND = 1000
_SMALL_PRIMES = list(_primes_below(_TRIAL_BOUND))
_SMALL_SET = frozenset(_SMALL_PRIMES)
_PRIMORIAL = prod(_SMALL_PRIMES)
_MR_BASES = _SMALL_PRIMES[:13]
_MR_LIMIT = 3317044064679887385961981
# One gcd with the product of the primes in [_TRIAL_BOUND, _GCD_BOUND)
# finds all of a cofactor's 4-digit prime factors at once (7-11 us on a
# 30-130-bit cofactor with CPython 3.11 on x86-64, where rho took 50-300 us
# for each factor).  Past 10^4 one product grows and its gcd stops paying.
_GCD_BOUND = 10_000
# The next band, in blocks: 50-60 us for a factor there on that host, where
# rho took about 200 us.  Blocks of 256 primes found a factor in 60 us,
# blocks of 128 in 67 us, and missed in 124 against 151 us.
_BAND_BOUND = 100_000
_BLOCK = 256
_FERMAT_STEPS = 8
# Rho's budget, counted in steps on a number of one machine word.  A step
# on a b-bit number costs about 1 + (b / 320)^1.7 of those (measured with
# CPython 3.11 on x86-64: 0.8 us at 64 bits, 1.1 us at 200, 55 us at 4000,
# 560 us at 14300), so the budget caps wall time rather than the step
# count: about half a second on that host at any size.
_RHO_WORK = 1 << 20


def isprime(n: int) -> bool:
    """True exactly when the integer ``n`` is prime."""
    if n < _TRIAL_BOUND:
        return n in _SMALL_SET
    if n < _TRIAL_BOUND**2:
        # No prime factor below 1000 makes n prime.
        return gcd(n, _PRIMORIAL) == 1
    return _isprime_large(n)


@lru_cache(maxsize=1024)
def _isprime_large(n: int) -> bool:
    # Profiles validate the same large primes again and again (a text order
    # and a structured item may share a prime, a save and load checks them
    # once more), so the verdicts are memoized, a bounded number per process.
    # The memo comes first: a hit costs a lookup, not a gcd with the
    # 1400-bit primorial.
    if gcd(n, _PRIMORIAL) != 1:
        return False
    if n < _MR_LIMIT:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, a: int) -> bool:
    d = n - 1
    s = (d & -d).bit_length() - 1
    x = pow(a, d >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    # Selfridge's method A: the first D in 5, -7, 9, -11, ... with
    # (D/n) = -1; none exists when n is a square.
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else -D + 2
    if j == 0:
        return False
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # U_k, V_k of the sequence with P = 1, and Q^k, climbing the bits of d.
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = _half(U + V, n), _half(D * U + V, n), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _half(x: int, n: int) -> int:
    x %= n
    return (x + n if x & 1 else x) >> 1


def factorint(n: int) -> dict[int, int]:
    """The prime factorization of the integer ``n >= 1`` as ``{p: k}``.

    A gcd with the product of the primes below 1000 names the ones that
    divide n.  What is left goes through a primality test and a
    perfect-power check; the first composite that is not a perfect power
    sheds its primes below 10^4 in one gcd, or when it has none, those of
    the first block of [10^4, 10^5) that shares one.  Fermat steps and
    Pollard-Brent rho split the rest.  So prime cofactors and powers of a
    prime never pay for the gcd.

    Raises ``ValueError`` when rho exhausts its work budget on a cofactor,
    which happens when ``n`` has two prime factors of more than about ten
    digits that are not close together.  Prime factors below 10^5 found by
    the gcds cost that budget nothing.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"cannot factor {n!r}: expected an integer >= 1")
    factors: dict[int, int] = {}
    rest = n
    small = gcd(n, _PRIMORIAL)  # the product of the primes below 1000 dividing n
    if small > 1:
        for p in (small,) if small in _SMALL_SET else _SMALL_PRIMES:
            if small % p == 0:
                small //= p
                k = 0
                while rest % p == 0:
                    rest //= p
                    k += 1
                factors[p] = k
                if small == 1:
                    break
    work = _RHO_WORK
    least = _TRIAL_BOUND  # every pending number has no prime factor below this
    pending = [(rest, 1)] if rest > 1 else []
    while pending:
        m, e = pending.pop()
        # Below 1000^2, a number with no prime factor below 1000 is prime.
        if m < _TRIAL_BOUND**2 or isprime(m):
            factors[m] = factors.get(m, 0) + e
            continue
        root, k = _perfect_power(m, least)
        if k > 1:
            pending.append((root, e * k))
            continue
        if least < _GCD_BOUND:
            # Until now each step left one number, so m is all that is left
            # of n, and after this gcd no factor of it is below _GCD_BOUND.
            least = _GCD_BOUND
            rest = _divide_gcd_primes(m, e, factors)
            if rest < m:
                if rest > 1:
                    pending.append((rest, e))
                continue
        f = _fermat(m)
        if f is None:
            f, work = _brent(m, work)
        pending += [(f, e), (m // f, e)]
    return factors


@cache
def _gcd_primes() -> tuple[list[int], int]:
    """The 1061 primes in [_TRIAL_BOUND, _GCD_BOUND) and their product."""
    primes = list(_primes_below(_GCD_BOUND))[len(_SMALL_PRIMES) :]
    return primes, prod(primes)


@cache
def _band_blocks() -> list[tuple[int, int]]:
    """(least prime, product) of each block of _BLOCK primes in [_GCD_BOUND,
    _BAND_BOUND): 33 products of about 4300 bits, built on first need."""
    primes = islice(_primes_below(_BAND_BOUND), len(_SMALL_PRIMES) + len(_gcd_primes()[0]), None)
    blocks = []
    while block := list(islice(primes, _BLOCK)):
        blocks.append((block[0], prod(block)))
    return blocks


def _divide_gcd_primes(m: int, e: int, factors: dict[int, int]) -> int:
    """m without its prime factors in [_TRIAL_BOUND, _GCD_BOUND), or when it
    has none, without those of the first block of [_GCD_BOUND, _BAND_BOUND)
    that shares one.

    Those primes go into ``factors`` with their exponents in m^e; m has no
    prime factor below _TRIAL_BOUND.
    """
    primes, product = _gcd_primes()
    g = gcd(m, product % m)
    if g == 1:
        for least, product in _band_blocks():
            g = gcd(m, product % m)
            if g > 1:
                primes = range(least, _BAND_BOUND)  # from here g's least divisor is prime
                break
        else:
            return m
    candidates = iter(primes)
    while g > 1:
        # g is a product of distinct primes of at least _TRIAL_BOUND, so it
        # is prime exactly when it is below _TRIAL_BOUND^2 > _BAND_BOUND;
        # otherwise walk on to its next prime factor.
        p = g if g < _BAND_BOUND else next(q for q in candidates if g % q == 0)
        g //= p
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        factors[p] = k * e
    return m


def _fermat(m: int) -> int | None:
    """A factor of m found near its square root, if the two are close."""
    a = isqrt(m - 1) + 1
    for _ in range(_FERMAT_STEPS):
        b2 = a * a - m
        b = isqrt(b2)
        if b * b == b2:
            return a - b
        a += 1
    return None


def _perfect_power(m: int, least: int) -> tuple[int, int]:
    """(r, k) with m = r^k for the least prime k that has a root, else (m, 1).

    m has no prime factor below ``least``, so a k-th root r >= least >= 2^b,
    for b = least.bit_length() - 1 (9 for 1000, 13 for 10^4), makes
    m >= 2^(k b): only k with k * b < m.bit_length() can have a root.
    """
    bits = least.bit_length() - 1
    for k in _SMALL_PRIMES:
        if k * bits >= m.bit_length():
            break
        r = _iroot(m, k)
        if r**k == m:
            return r, k
    return m, 1


def _iroot(m: int, k: int) -> int:
    """The integer part of the k-th root of m, by Newton's method.

    Newton's steps fall to the root from any start above it.  Below 2^1000
    a float estimate, raised past its rounding error, is such a start one
    or two steps away; above, the start is a power of two.
    """
    if k == 2:
        return isqrt(m)
    if m.bit_length() <= 1000:
        x = int(m ** (1.0 / k) * (1 + 2.0**-40)) + 1
    else:
        x = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _brent(m: int, work: int) -> tuple[int, int]:
    """A proper factor of the odd composite m, and the work left over."""
    step_cost = 1 + (m.bit_length() / 320) ** 1.7
    batch, c = 128, 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            work -= 2 * r * step_cost
            if work < 0:
                raise ValueError(
                    f"cannot split a {m.bit_length()}-bit composite factor "
                    "within the work budget"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % m
                    q = q * (x - y) % m
                g = gcd(q, m)
                k += batch
            r *= 2
        if g == m:
            # The batch overshot: redo it one step at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(x - ys, m)
        if g != m:
            return g, work
