"""Which stage of ``factorint`` splits which cofactor."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gottlieb
from gottlieb import numtheory
from gottlieb.numtheory import factorint

DEMO = Path(__file__).resolve().parents[1] / "profiles" / "synthetic_demo.json"


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
        (10007 * 100000000000031, {10007: 1, 100000000000031: 1}),
        ((10007 * 100000000000031) ** 2, {10007: 2, 100000000000031: 2}),
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
    cases = [(k, r) for k in (2, 3, 5, 7, 13)
             for r in (2, 3, 1000, 10**5 + 3, 2**60 - 1, 2**60, 10**40 + 7, 3**400, 7**2000)]
    cases += [(k, r) for k in (601, 839, 997) for r in (2**17 + 3, 10**6 + 3)]
    for k, r in cases:
        for m in (r**k - 1, r**k, r**k + 1):
            x = numtheory._iroot(m, k)
            assert x**k <= m < (x + 1) ** k, (k, r)


# The primes of the second band, [10^4, 10^5), and 15-digit cofactors.
BAND_PRIMES = [p for p in range(10_001, 100_000, 2) if all(p % q for q in range(3, 317, 2))]
Q15 = [100000000000031, 100000000000067, 100000000000097, 999999999999989]


def test_second_band_finds_a_five_digit_factor_without_rho(monkeypatch):
    def no_rho(m, work):
        pytest.fail(f"rho called on {m}")

    monkeypatch.setattr(numtheory, "_brent", no_rho)
    rng = random.Random(39)
    assert len(BAND_PRIMES) == 8363
    for p in rng.sample(BAND_PRIMES, 40):
        q = rng.choice(Q15)
        assert factorint(p * q) == {p: 1, q: 1}
        assert factorint(p**3 * q**2) == {p: 3, q: 2}
    # Two primes of one block: the block's gcd is their product.
    assert factorint(10007 * 10009 * Q15[0]) == {10007: 1, 10009: 1, Q15[0]: 1}
    assert factorint(99989 * 99991 * Q15[1] ** 2) == {99989: 1, 99991: 1, Q15[1]: 2}


def test_second_band_leaves_a_later_block_and_a_first_band_mix_to_rho():
    # Only the first block that shares a factor is divided out, and only
    # when the first band found nothing: the rest is rho's, and still exact.
    for n, factors in [
        (10007 * 99991 * Q15[2], {10007: 1, 99991: 1, Q15[2]: 1}),
        (1009 * 10007 * Q15[3], {1009: 1, 10007: 1, Q15[3]: 1}),
    ]:
        assert factorint(n) == factors


def test_loading_the_demo_profile_never_builds_the_second_band():
    code = (
        "import gottlieb\n"
        "from gottlieb import numtheory\n"
        f"gottlieb.load(open({str(DEMO)!r}, encoding='utf-8').read())\n"
        "print(numtheory._band_blocks.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(gottlieb.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=60)
    assert (result.returncode, result.stdout) == (0, "0\n"), result.stderr
