"""Primality and factorization against independent references."""

import random
import time
from math import gcd, prod

import pytest

from conftest import unsieved
from gottlieb.numtheory import factorint, isprime

# Composites that fool strong Miller-Rabin tests to many small prime bases:
# the least strong pseudoprimes to the first 4, 9, 12 and 13 prime bases,
# smaller ones to bases 2 and 2, 3, and strong Lucas pseudoprimes.
STRONG_PSEUDOPRIMES = [
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
    5459,
    5777,
    10877,
    16109,
    18971,
]
# The least Carmichael numbers with 3, 4, ..., 10 prime factors.
CARMICHAEL = [
    561,
    41041,
    825265,
    321197185,
    5394826801,
    232250619601,
    9746347772161,
    1436697831295441,
]
# Primes on both sides of the Miller-Rabin limit, so BPSW runs too.
PRIMES = [
    2**61 - 1,
    2**89 - 1,
    3317044064679887385961813,  # the largest prime below the limit
    2**107 - 1,
    2**127 - 1,
    2**521 - 1,
    10**29 + 319,
    10**499 + 153,
]
P20 = 10**19 + 51  # a 20-digit prime


def trial_isprime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def trial_factorint(n):
    factors, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def test_isprime_matches_trial_division_up_to_1e5():
    sieve = bytearray([1]) * 100_001
    sieve[:2] = b"\0\0"
    for i in range(2, 317):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, 100_001, i)))
    assert [n for n in range(100_001) if isprime(n)] == [
        n for n in range(100_001) if sieve[n]
    ]
    assert all(isprime(n) == trial_isprime(n) for n in range(-5, 2000))


def test_factorint_matches_trial_division_up_to_3e4():
    for n in range(1, 30_001):
        assert factorint(n) == trial_factorint(n), n


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES + CARMICHAEL)
def test_pseudoprimes_are_composite(n):
    assert not isprime(n)


@pytest.mark.parametrize("p", PRIMES, ids=lambda p: f"{p.bit_length()}-bit")
def test_known_primes(p):
    assert isprime(p)
    assert not isprime(p * P20)
    assert not isprime(p * p)


@pytest.mark.parametrize(
    "n",
    [
        P20**2,
        P20**3,
        P20**5,
        2**10 * 3 * P20**2,
        P20**2 * 1000003**3,
        (10**29 + 319) ** 2,
        (10**29 + 319) * (10**29 + 379),  # close factors: the Fermat step
        1000000007 * P20,  # a 10-digit factor: Pollard-Brent rho
        997**4 * 1009**2 * 65537,
    ],
)
def test_factorization_multiplies_back_to_primes(n):
    factors = factorint(n)
    assert prod(p**k for p, k in factors.items()) == n
    assert all(isprime(p) and k >= 1 for p, k in factors.items())


def test_seeded_random_factorizations_multiply_back():
    rng = random.Random(20170101)
    for _ in range(300):
        n = rng.randrange(1, 10 ** rng.randint(1, 22))
        try:
            factors = factorint(n)
        except ValueError:
            continue  # two factors beyond the rho budget
        assert prod(p**k for p, k in factors.items()) == n
        assert all(isprime(p) for p in factors)


def test_factorint_rejects_non_positive_and_non_integers():
    for bad in (0, -6, True, 2.0, "6"):
        with pytest.raises(ValueError):
            factorint(bad)


@pytest.mark.parametrize(
    "n, work, bits",
    [
        # 30- and 31-digit factors: a 61-digit semiprime.
        ((5 * 10**29 + 9) * (3 * 10**30 + 91), 1520198, 200),
        # A 1000-digit product of two primes.
        ((10**499 + 153) * (10**500 + 961), 1780120, 3319),
    ],
    ids=["61-digit", "1000-digit"],
)
def test_unsplittable_orders_exhaust_the_budget_quickly(n, work, bits):
    start = time.perf_counter()
    with pytest.raises(ValueError) as err:
        factorint(n)
    assert time.perf_counter() - start < 10
    assert str(err.value) == (
        f"Pollard-Brent rho's work on one order in one-word steps is {work} "
        f"(on a {bits}-bit factor), over the ceiling RHO_WORK = 1048576"
    )


def test_agrees_with_sympy_on_random_integers():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(40)
    for _ in range(2000):
        n = rng.randrange(1, 10 ** rng.randint(1, 40))
        assert isprime(n) == sympy.isprime(n), n
    exhausted = 0
    for _ in range(100):
        n = rng.randrange(1, 10 ** rng.randint(1, 40))
        try:
            factors = factorint(n)
        except ValueError:
            exhausted += 1  # two prime factors past the rho budget
            continue
        # Unique factorization: this is equality with sympy.factorint(n),
        # without sympy's slow factoring.
        assert prod(p**k for p, k in factors.items()) == n
        assert all(sympy.isprime(p) for p in factors), n
    assert exhausted < 15


# Above 10^6 the verdict memo is looked up before trial division, so these
# composites with a factor below 1000 reach the memo first: check the
# verdict on a miss and on the hit that follows, against the factors the
# number was built from.
@pytest.mark.parametrize("p", [1000003, P20] + PRIMES[:6], ids=lambda p: f"{p.bit_length()}-bit")
def test_large_multiples_of_small_primes_are_composite(p):
    for small in ({2: 1}, {997: 1}, {3: 1, 7: 1}, {2: 3, 991: 1}):
        n = p * prod(q**k for q, k in small.items())
        for _ in range(2):
            assert not isprime(n)
        assert factorint(n) == {**small, p: 1}


def test_isprime_matches_trial_division_above_the_memo_bound():
    rng = random.Random(15)
    numbers = list(range(10**6 - 50, 10**6 + 50))
    numbers += [rng.randrange(10**6, 10**9) for _ in range(200)]
    for n in numbers:
        assert isprime(n) == trial_isprime(n) == isprime(n), n


def test_a_memoized_verdict_costs_no_gcd(monkeypatch):
    calls = []

    def counting_gcd(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr("gottlieb.numtheory.gcd", counting_gcd)
    for n in (2**127 - 1, 10**29 + 319, 2 * (2**89 - 1)):
        first = isprime(n)
        calls.clear()
        assert isprime(n) is first
        assert calls == []


# The primes the gcd stage finds, [1000, 10^4), and 15-digit cofactors.
GCD_PRIMES = [p for p in range(1000, 10_000) if trial_isprime(p)]
Q15 = [100000000000031, 100000000000067, 100000000000097, 999999999999989]


def no_rho(m, work):
    pytest.fail(f"rho called on {m}")


def test_gcd_stage_finds_every_prime_between_1000_and_1e4():
    rng = random.Random(18)
    assert len(GCD_PRIMES) == 1061
    for case in range(400):
        mid = rng.sample(GCD_PRIMES, rng.randint(0, 4))
        expected = {p: rng.randint(1, 4) for p in mid}
        if case % 3 == 1:
            expected.update({q: rng.randint(1, 3) for q in rng.sample([2, 3, 5, 997], 2)})
        if case % 3 == 2:
            expected[rng.choice(Q15)] = 1
        n = prod(p**k for p, k in expected.items())
        assert factorint(n) == expected, n
    # Built only from such primes, with a composite gcd: every tenth of
    # them at once (all 1061 would spend seconds in the primality test of
    # the 12898-bit product), the smallest and largest pair, and squares.
    assert factorint(prod(GCD_PRIMES[::10])) == dict.fromkeys(GCD_PRIMES[::10], 1)
    assert factorint(1009 * 9973) == {1009: 1, 9973: 1}
    assert factorint(1009**2 * 9973**2 * Q15[0]) == {1009: 2, 9973: 2, Q15[0]: 1}


def test_primes_below_1e4_never_reach_rho(monkeypatch):
    monkeypatch.setattr("gottlieb.numtheory._brent", no_rho)
    for p, q in [(1009, Q15[0]), (1237, Q15[1]), (4999, Q15[2]), (9973, Q15[3])]:
        assert factorint(p * q) == {p: 1, q: 1}
        assert factorint(p**3 * q) == {p: 3, q: 1}
    for p in (1009, 1237, 9973):
        for k in (2, 3, 4):
            assert factorint(p**k) == {p: k}
            assert factorint(2 * 3 * p**k * P20) == {2: 1, 3: 1, p: k, P20: 1}


def test_perfect_powers_of_primes_just_above_1e4(monkeypatch):
    # 10007 is the first prime past the gcd stage, so its powers sit at
    # the perfect-power check's bound.
    assert factorint(10007**2 * P20) == {10007: 2, P20: 1}
    monkeypatch.setattr("gottlieb.numtheory._brent", no_rho)
    assert factorint(10007**3) == {10007: 3}
    assert factorint(10009**5) == {10009: 5}
    for k in range(2, 12):
        assert factorint(10007**k) == {10007: k}


def _over_certify(digits: int) -> str:
    return (f"the digit count of a number to test for primality is {digits}, "
            "over the ceiling CERTIFY_DIGITS = 1500")


def test_a_candidate_past_1500_digits_is_refused_at_once():
    n = unsieved(10**1500)  # 1501 digits, no prime factor below 1000
    for test in (isprime, factorint):
        start = time.perf_counter()
        with pytest.raises(ValueError) as err:
            test(n)
        assert time.perf_counter() - start < 0.5
        assert str(err.value) == _over_certify(1501)


def test_a_candidate_of_1500_digits_is_still_tested():
    # The strong tests of one 1500-digit candidate, about half a second at most.
    n = unsieved(10**1499 * 3)
    assert isprime(n) in (True, False)


MERSENNE_2203 = 2**2203 - 1  # a prime of 664 digits


@pytest.mark.parametrize(
    "n",
    [2**14284, 3 * 10**4299, 997**500, MERSENNE_2203**3, 10007 * MERSENNE_2203**3],
    ids=["2^14284", "3e4299", "997^500", "p^3", "band-prime-times-p^3"],
)
def test_numbers_past_the_cap_that_a_cheaper_stage_splits_still_factor(n):
    # Only a number past the cap that no gcd, root or Fermat step splits
    # needs a strong test, and only that one is refused.
    factors = factorint(n)
    assert prod(p**k for p, k in factors.items()) == n
    assert all(isprime(p) for p in factors)


def test_a_composite_past_the_cap_that_nothing_cheap_splits_is_refused():
    n = MERSENNE_2203 * (2**4423 - 1)  # 1995 digits, two primes far apart
    with pytest.raises(ValueError) as err:
        factorint(n)
    assert str(err.value) == _over_certify(1995)
