"""Canonical forms, direct sums, invariant factors, and the text codec."""

import pytest
from hypothesis import given, strategies as st

from conftest import census, groups_strategy, torsion_orders
from gottlieb.abelian import (
    TRIVIAL,
    AbelianGroup,
    canonicalize,
    direct_sum,
    parse_group,
)


def test_canonicalize_examples():
    assert canonicalize(0) == TRIVIAL
    assert canonicalize(1).rank == 1
    assert canonicalize(1).torsion == ()
    # Frozen form of Z/6 + Z/4: primary parts 2, 4, 3, one of each.
    assert canonicalize(0, [6, 4]).torsion == ((2, 1, 1), (2, 2, 1), (3, 1, 1))
    assert canonicalize(0, [12]).torsion == ((2, 2, 1), (3, 1, 1))
    assert canonicalize(2, [2, 2]).torsion == ((2, 1, 2),)


def test_census_oracle_confirms_primary_decomposition():
    # Same multiset of element orders <=> isomorphic finite abelian groups.
    group = canonicalize(0, [6, 4])
    assert census([6, 4]) == census(torsion_orders(group))
    assert census([6, 4]) == census(group.invariant_factors())
    assert census([8, 9, 2]) == census(torsion_orders(canonicalize(0, [8, 9, 2])))


def test_canonicalize_rejects_bad_input():
    with pytest.raises(ValueError):
        canonicalize(-1)
    with pytest.raises(ValueError):
        canonicalize(0, [1])
    with pytest.raises(ValueError):
        canonicalize(0, [0])
    with pytest.raises(ValueError):
        canonicalize(0, [-6])
    with pytest.raises(TypeError):
        canonicalize(0, [2.5])
    with pytest.raises(TypeError):
        canonicalize(1.0)
    # Every admitted order prints under the interpreter's 4300-digit limit.
    assert len(str(canonicalize(0, [2**14284]))) == len("Z/") + 4300
    with pytest.raises(ValueError, match="exceeds 4300 digits"):
        canonicalize(0, [2**14285])


def test_direct_sum_examples():
    z6 = canonicalize(0, [6])
    z4 = canonicalize(0, [4])
    assert z6.direct_sum(z4) == canonicalize(0, [6, 4])
    assert z6.direct_sum(TRIVIAL) == z6
    assert direct_sum() == TRIVIAL
    assert direct_sum(canonicalize(2), z6, z6) == canonicalize(2, [6, 6])


def test_scaled():
    g = canonicalize(1, [2])
    assert g.scaled(3) == canonicalize(3, [2, 2, 2])
    assert g.scaled(0) == TRIVIAL
    with pytest.raises(ValueError):
        g.scaled(-1)
    # Past sys.maxsize copies: the counts grow, nothing is expanded.
    big = canonicalize(1, [2, 4]).scaled(10**30)
    assert big.torsion == ((2, 1, 10**30), (2, 2, 10**30))
    n = "1" + "0" * 30
    assert str(big) == f"Z^{n} + (Z/2)^{n} + (Z/4)^{n}"


def test_invariant_factors_examples():
    assert TRIVIAL.invariant_factors() == []
    assert canonicalize(0, [6, 4]).invariant_factors() == [2, 12]
    assert canonicalize(0, [2, 3, 5]).invariant_factors() == [30]
    assert canonicalize(0, [2, 2, 2]).invariant_factors() == [2, 2, 2]
    assert canonicalize(0, [8, 9, 2, 3]).invariant_factors() == [6, 72]


def test_text_codec_examples():
    assert str(TRIVIAL) == "0"
    assert str(canonicalize(1)) == "Z"
    # Output uses the invariant-factor view of the torsion part.
    assert str(canonicalize(2, [2, 12])) == "Z^2 + Z/2 + Z/12"
    assert str(canonicalize(0, [4, 3])) == "Z/12"
    # A run of equal invariant factors prints once, with its length.
    assert str(canonicalize(0, [2, 8, 8])) == "Z/2 + (Z/8)^2"
    assert str(canonicalize(1, [6, 6, 2, 3, 4])) == "Z + Z/2 + (Z/6)^2 + Z/12"
    assert parse_group("0") == TRIVIAL
    assert parse_group("Z") == canonicalize(1)
    assert parse_group("Z + Z") == canonicalize(2)
    assert parse_group("Z^3 + Z/2 + Z/2") == canonicalize(3, [2, 2])
    # Arbitrary cyclic orders are folded into primary form on the way in.
    assert parse_group("Z/12") == parse_group("Z/4 + Z/3")
    assert parse_group("(Z/8)^2 + Z/2") == canonicalize(0, [2, 8, 8])
    assert parse_group("(Z/6)^1 + (Z/6)^2") == canonicalize(0, [6, 6, 6])


def test_text_codec_rejects_garbage():
    for bad in ("", "Z^0", "Z/1", "Z/0", "Q", "Z +", "Z^-2", "2Z", "Z / 4x",
                "(Z/2)^0", "(Z/1)^2", "(Z/2)", "(Z/2)^", "(Z)^2", "Z/2^2"):
        with pytest.raises(ValueError):
            parse_group(bad)


@pytest.mark.parametrize("summand", ["Z/", "Z^", "(Z/2)^", "(Z/"])
def test_text_codec_bounds_overlong_integers(summand):
    # Past the interpreter's 4300-digit limit for int(); the message is
    # our own and does not echo the digits.
    text = summand + "7" * 5000 + (")^2" if summand == "(Z/" else "")
    with pytest.raises(ValueError, match="of 5000 digits is too long") as err:
        parse_group(text)
    assert "set_int_max_str_digits" not in str(err.value)
    assert len(str(err.value)) < 100


@pytest.mark.parametrize(
    "group, what, digits",
    [
        # Each summand is admitted; the sum is not printable.
        (AbelianGroup(0, ((2, 10000), (3, 6000))), "invariant factor", 5874),
        (AbelianGroup(0, ((2, 1),)).scaled(10**4300), "summand count", 4301),
        (AbelianGroup(10**4299).scaled(10**10), "rank", 4310),
        (AbelianGroup(2).scaled(10**4300 - 1).direct_sum(AbelianGroup(0, ((5, 1),))),
         "rank", 4301),
    ],
    ids=["factor", "count", "rank", "rank-after-sum"],
)
def test_text_of_a_group_past_the_digit_limit_names_the_number(group, what, digits):
    with pytest.raises(ValueError) as err:
        str(group)
    assert str(err.value) == (
        f"group too large to print: its {what} has {digits} digits, past the 4300-digit limit"
    )
    assert group.describe() == f"a group whose {what} has {digits} digits"


def test_describe_is_the_text_of_a_printable_group():
    group = AbelianGroup(1, ((2, 14284, 3),))
    assert group.describe() == str(group)


@pytest.mark.parametrize("pair", [(2, True), (True, 1), (False, 1), (3, False)])
def test_torsion_pairs_reject_booleans(pair):
    with pytest.raises(TypeError, match="two integers"):
        AbelianGroup(0, (pair,))


def test_large_prime_orders():
    p20 = 10**19 + 51
    assert canonicalize(0, [p20**2 * 12]).torsion == ((2, 2, 1), (3, 1, 1), (p20, 2, 1))
    assert AbelianGroup(0, ((p20, 3),)) == canonicalize(0, [p20**3])
    with pytest.raises(ValueError, match="must be prime"):
        AbelianGroup(0, ((p20 * 3, 1),))


def test_from_text_is_classmethod_alias():
    assert AbelianGroup.from_text("Z^2 + Z/9") == canonicalize(2, [9])


@given(groups_strategy(), st.sampled_from([1, 2, 10**30]))
def test_codec_round_trip(group, copies):
    assert parse_group(str(group)) == group
    assert parse_group(str(group.scaled(copies))) == group.scaled(copies)


@given(groups_strategy())
def test_invariant_factor_round_trip(group):
    assert canonicalize(group.rank, group.invariant_factors()) == group


@given(groups_strategy())
def test_divisibility_chain(group):
    factors = group.invariant_factors()
    assert all(d >= 2 for d in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


@given(groups_strategy(), groups_strategy())
def test_direct_sum_commutes(a, b):
    assert a.direct_sum(b) == b.direct_sum(a)


@given(groups_strategy(), groups_strategy(), groups_strategy())
def test_direct_sum_associates(a, b, c):
    assert a.direct_sum(b).direct_sum(c) == a.direct_sum(b.direct_sum(c))


@given(groups_strategy(), groups_strategy(), st.integers(0, 4))
def test_rank_and_torsion_are_additive(a, b, n):
    total = a.direct_sum(b)
    assert total.rank == a.rank + b.rank
    assert sorted(torsion_orders(total)) == sorted(torsion_orders(a) + torsion_orders(b))
    assert a.scaled(n) == direct_sum(*[a] * n)


@given(st.integers(2, 300), st.integers(2, 300))
def test_coprime_orders_merge(m, n):
    from math import gcd

    if gcd(m, n) == 1:
        assert canonicalize(0, [m * n]) == canonicalize(0, [m, n])


def test_is_trivial():
    assert TRIVIAL.is_trivial
    assert not canonicalize(1).is_trivial
    assert not canonicalize(0, [2]).is_trivial


def _multi_exponent_groups(max_count):
    """Up to four primes, each with up to four exponents, and counts up to ``max_count``."""
    prime_part = st.tuples(
        st.sampled_from([2, 3, 5, 7, 10**9 + 7]),
        st.dictionaries(st.integers(1, 9), st.integers(1, max_count), min_size=1, max_size=4),
    )
    return st.builds(
        lambda rank, parts: AbelianGroup(
            rank, [(p, k, count) for p, counts in parts for k, count in counts.items()]),
        st.integers(0, 3),
        st.lists(prime_part, max_size=4, unique_by=lambda part: part[0]),
    )


def _reference_factors(group):
    """Per prime, its exponents one per summand in descending order; the
    factors are their prime powers multiplied position by position."""
    columns = {}
    for p, k, count in group.torsion:
        columns.setdefault(p, []).extend([k] * count)
    factors = []
    for p, exponents in columns.items():
        exponents.sort(reverse=True)
        factors += [1] * (len(exponents) - len(factors))
        for i, k in enumerate(exponents):
            factors[i] *= p**k
    return factors[::-1]


@given(_multi_exponent_groups(5))
def test_factor_runs_multiply_exponents_position_by_position(group):
    runs = group._factor_runs()
    assert [d for d, n in runs for _ in range(n)] == _reference_factors(group)
    assert all(n >= 1 for d, n in runs)
    assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))  # runs are maximal


@given(_multi_exponent_groups(10**30), st.integers(1, 10**30))
def test_factor_runs_scale_with_the_counts(group, copies):
    runs = group._factor_runs()
    assert group.scaled(copies)._factor_runs() == [(d, n * copies) for d, n in runs]
    assert parse_group(str(group)) == group
