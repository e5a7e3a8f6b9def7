"""The one-pass torsion reader against the two-pass one it replaced."""

import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import db_of, synthetic_space
from gottlieb import abelian
from gottlieb.abelian import _MAX_DIGITS, _SAFE_BITS, _canonical_torsion, _is_int, _too_long
from gottlieb.numtheory import isprime
from gottlieb.profiles import load, save

PROFILES = Path(__file__).resolve().parents[1] / "profiles"


# --- the reference reader ---------------------------------------------------
#
# The two passes ``_canonical_torsion`` does in one, as the package had
# them: validate every item, then sort the triples and add the counts of
# equal (p, k).

def _reference_checked(items) -> list:
    triples = []
    for item in items:
        size = len(item) if isinstance(item, (tuple, list)) else 0
        if size == 2:
            p, k = item
            count = 1
        elif size == 3:
            p, k, count = item
        else:
            p = k = count = None
        if not (type(p) is int and type(k) is int and type(count) is int) and not (
            _is_int(p) and _is_int(k) and _is_int(count)
        ):
            raise TypeError(
                f"torsion item must be two integers (p, k) or three (p, k, count), "
                f"got {item!r}"
            )
        if k < 1:
            raise ValueError(f"torsion exponent must be >= 1, got {k}")
        if count < 1:
            raise ValueError(f"torsion count must be >= 1, got {count}")
        if k * p.bit_length() > _SAFE_BITS and _too_long(p, k):
            raise ValueError(f"torsion order p^k exceeds {_MAX_DIGITS} digits")
        if not isprime(p):
            raise ValueError(f"torsion base must be prime, got {p}")
        triples.append((p, k, count))
    return triples


def _reference_merged(triples: list) -> tuple:
    triples = sorted(triples)
    merged: list = []
    last_p = last_k = 0  # no summand has exponent 0
    for p, k, count in triples:  # equal (p, k) are now adjacent
        if k == last_k and p == last_p:
            merged[-1] = (p, k, merged[-1][2] + count)
        else:
            merged.append((p, k, count))
            last_p, last_k = p, k
    return tuple(merged)


def _outcome(read, items):
    try:
        return read(items)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


_PRIMES = [2, 3, 5, 7, 997, 1009, 1000003, 100000000000031, 2**61 - 1]
_NOT_PRIMES = [0, 1, 4, -3, 1000, 1000001]
_bases = st.one_of(st.sampled_from(_PRIMES), st.sampled_from(_PRIMES),
                   st.sampled_from(_NOT_PRIMES))
_exponents = st.one_of(st.integers(1, 4), st.integers(1, 4), st.sampled_from([0, -1, 15000]))
_counts = st.one_of(st.integers(1, 3), st.sampled_from([0, -2, 10**30]))


def _odd(values):
    """``values``, or now and then a bool or a float in their place."""
    return st.one_of(values, values, values, values, values, values, values, values,
                     st.booleans(), st.floats(allow_nan=False, allow_infinity=False))


_items = st.one_of(
    st.tuples(_odd(_bases), _odd(_exponents)),
    st.tuples(_odd(_bases), _odd(_exponents)).map(list),
    st.tuples(_odd(_bases), _odd(_exponents), _odd(_counts)).map(list),
    st.tuples(_odd(_bases), _odd(_exponents), _odd(_counts)),
    st.sampled_from([[2], [2, 1, 1, 1], (), 6, None, "21", {2: 1}]),
)


def _valid(items):
    return all(isinstance(item, (list, tuple)) and len(item) in (2, 3) for item in items)


@settings(max_examples=600, deadline=None)
@given(st.lists(_items, max_size=8), st.booleans())
def test_the_reader_agrees_with_check_then_merge(items, ordered):
    if ordered and _valid(items):
        # Also the order ``save`` writes: sorted by (p, k), as far as the
        # values compare.
        try:
            items = sorted(items, key=lambda item: tuple(item[:2]))
        except TypeError:
            pass
    expected = _outcome(lambda xs: _reference_merged(_reference_checked(xs)), items)
    assert _outcome(_canonical_torsion, items) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_PRIMES), st.integers(1, 4),
                          st.integers(1, 10**30)), max_size=10))
def test_valid_items_in_any_order_read_as_their_merge(triples):
    assert _canonical_torsion(triples) == _reference_merged(triples)


def test_a_saved_document_reads_back_without_a_merge(monkeypatch):
    # save writes every group's items in strictly increasing (p, k) order,
    # which the reader takes as it stands.
    rng = random.Random(39)
    demo = load((PROFILES / "synthetic_demo.json").read_text(encoding="utf-8"))
    spaces = [synthetic_space(f"W{i}", rng, range(1, 13), zero_above=12) for i in range(4)]
    merges = []
    merged = abelian._merged

    def counting(triples):
        merges.append(list(triples))
        return merged(triples)

    for db in (demo, db_of(*spaces)):
        text = save(db)
        monkeypatch.setattr(abelian, "_merged", counting)
        assert load(text) == db
        assert merges == []
        monkeypatch.undo()
    monkeypatch.setattr(abelian, "_merged", counting)
    # Items in any other order are still merged.
    unordered = '{"spaces": {"Y": {"gottlieb": {"entries": {"1": {"torsion": [[3, 1], [2, 1]]}}}}}}'
    assert str(load(unordered).space("Y").gottlieb.lookup(1)) == "Z/6"
    assert merges == [[(3, 1, 1), (2, 1, 1)]]
