"""Bouquet mapping spaces of a map: relative decompositions."""

import random

import pytest

from conftest import db_of, random_group
from gottlieb.decompose import closed_form_bouquet
from gottlieb.formal import FormalSum, GottliebTerm, RelTerm
from gottlieb.profiles import GradedGroup, MapProfile, SpaceProfile, evaluate
from gottlieb.relative import RelativeResult, Structure, relative_decompose


F = MapProfile("f", "X", "Y")
IDY = MapProfile("idY", "Y", "Y", is_identity=True)


def test_single_iteration_shape():
    result = relative_decompose(F, 3, circles=2)
    assert result.summands == FormalSum.from_pairs(
        [(GottliebTerm("X", 3), 1), (RelTerm("f", 4), 2)]
    )
    assert result.structure is Structure.DIRECT_SUM
    assert result.degree == 3


def test_double_iteration_shape():
    result = relative_decompose(F, 2, circles=1, iterations=2)
    assert result.summands == FormalSum.from_pairs(
        [
            (GottliebTerm("X", 2), 1),
            (GottliebTerm("X", 3), 2),
            (RelTerm("f", 4), 1),
        ]
    )
    assert result.structure is Structure.DIRECT_SUM


def test_degree_one_is_a_split_extension():
    result = relative_decompose(F, 1, circles=3)
    assert result.structure is Structure.SPLIT_EXTENSION
    assert str(result).endswith("[split-extension]")
    assert relative_decompose(F, 2, circles=3).structure is Structure.DIRECT_SUM


def test_unsupported_shapes_are_rejected():
    with pytest.raises(ValueError):
        relative_decompose(F, 2, circles=1, iterations=3)
    with pytest.raises(ValueError):
        relative_decompose(F, 2, circles=2, iterations=2)
    with pytest.raises(ValueError):
        relative_decompose(F, 0)
    with pytest.raises(ValueError):
        relative_decompose(F, 2, circles=0)


def test_identity_map_reduces_to_absolute_groups():
    for n in range(2, 7):
        for m in range(1, 5):
            reduced = relative_decompose(IDY, n, circles=m).summands
            assert reduced == closed_form_bouquet(m, 1, n, "Y"), (n, m)
    for n in range(2, 7):
        reduced = relative_decompose(IDY, n, circles=1, iterations=2).summands
        assert reduced == closed_form_bouquet(1, 2, n, "Y"), n


def test_identity_reduction_at_degree_one_keeps_split_marker():
    result = relative_decompose(IDY, 1, circles=2)
    assert result.summands == closed_form_bouquet(2, 1, 1, "Y")
    assert result.structure is Structure.SPLIT_EXTENSION


def test_evaluation_against_tables():
    rng = random.Random(42)
    gx = {d: random_group(rng) for d in range(1, 7)}
    rel = {d: random_group(rng) for d in range(1, 7)}
    x = SpaceProfile("X", gottlieb=GradedGroup(gx))
    y = SpaceProfile("Y")
    f = MapProfile("f", "X", "Y", relative_gottlieb=GradedGroup(rel))
    db = db_of(x, y, maps=[f])

    for n in range(2, 5):
        value = evaluate(relative_decompose(f, n, circles=3).summands, db)
        assert value == gx[n].direct_sum(rel[n + 1].scaled(3))

        double = evaluate(relative_decompose(f, n, iterations=2).summands, db)
        assert double == gx[n].direct_sum(gx[n + 1].scaled(2), rel[n + 2])


@pytest.mark.parametrize("profile", [F, IDY], ids=["map", "identity"])
@pytest.mark.parametrize("iterations, circles", [(1, 1), (1, 3), (2, 1)])
@pytest.mark.parametrize("degree", [1, 2, 5])
def test_result_is_the_canonical_sum_of_its_pairs(profile, iterations, circles, degree):
    # The result is built without a re-merge; it must be what from_pairs
    # makes of the same pairs, term order included.
    source = profile.source

    def rel(d):
        return GottliebTerm(source, d) if profile.is_identity else RelTerm(profile.name, d)

    if iterations == 1:
        pairs = [(GottliebTerm(source, degree), 1), (rel(degree + 1), circles)]
    else:
        pairs = [
            (GottliebTerm(source, degree), 1),
            (GottliebTerm(source, degree + 1), 2),
            (rel(degree + 2), 1),
        ]
    result = relative_decompose(profile, degree, circles, iterations)
    expected = FormalSum.from_pairs(reversed(pairs))
    assert result.summands.terms == expected.terms
    assert str(result.summands) == str(expected)


def test_bouquet_width_must_be_an_integer():
    with pytest.raises(ValueError, match="bouquet width must be an integer, got 2.0"):
        relative_decompose(F, 2, circles=2.0)
