"""Which stage of ``factorint`` splits which cofactor."""

import pytest

from gottlieb import numtheory
from gottlieb.numtheory import factorint


@pytest.fixture
def gcd_calls(monkeypatch):
    calls = []
    divide = numtheory._divide_gcd_primes

    def counting(*args):
        calls.append(args[0])
        return divide(*args)

    monkeypatch.setattr(numtheory, "_divide_gcd_primes", counting)
    return calls


@pytest.mark.parametrize(
    "n, factors",
    [
        ((10**19 + 51) ** 2, {10**19 + 51: 2}),
        (1237**3, {1237: 3}),
        (1237**4, {1237: 4}),
        (2**5 * 1237**3, {2: 5, 1237: 3}),
        (10007**2, {10007: 2}),
    ],
)
def test_prime_powers_skip_the_gcd(gcd_calls, n, factors):
    assert factorint(n) == factors
    assert gcd_calls == []


@pytest.mark.parametrize(
    "n, factors",
    [
        (1237**2 * 100000000000031, {1237: 2, 100000000000031: 1}),
        (1009 * 10007 * 100000000000031, {1009: 1, 10007: 1, 100000000000031: 1}),
        ((1237 * 100000000000031) ** 2, {1237: 2, 100000000000031: 2}),
        (1009 * 9973, {1009: 1, 9973: 1}),
    ],
)
def test_other_composites_take_the_gcd_once(gcd_calls, n, factors):
    assert factorint(n) == factors
    assert len(gcd_calls) == 1


@pytest.mark.parametrize("least", [1000, 10_000])
def test_perfect_power_finds_every_root_not_below_its_bound(least):
    # Roots below ``least`` may be missed; factorint never passes them.
    for root in (least, least + 1, 3 * least + 7, 10**20 + 39):
        for k in (2, 3, 5, 7, 11):
            r, j = numtheory._perfect_power(root**k, least)
            assert j > 1 and r**j == root**k, (root, k)
    assert numtheory._perfect_power(10**20 + 39, least) == (10**20 + 39, 1)


def test_integer_roots_are_exact_near_powers():
    for k in (2, 3, 5, 7, 13):
        for r in (2, 3, 1000, 10**5 + 3, 2**60 - 1, 2**60, 10**40 + 7, 3**400):
            for m in (r**k - 1, r**k, r**k + 1):
                x = numtheory._iroot(m, k)
                assert x**k <= m < (x + 1) ** k, (k, r)
