"""Profile documents: schema validation, lookup semantics, evaluation."""

import json

import pytest

from conftest import db_of, random_group, synthetic_space
from gottlieb.abelian import TRIVIAL, AbelianGroup, canonicalize, direct_sum, parse_group
from gottlieb.decompose import decompose
from gottlieb.formal import FormalSum, GenGottliebTerm, GottliebTerm, PiTerm, RelTerm
from gottlieb.profiles import (
    _NO_DEFAULT,
    _SCHEMA,
    Flags,
    GradedGroup,
    Incomplete,
    MapProfile,
    ProfileDb,
    ProfileError,
    SpaceProfile,
    evaluate,
    gottlieb_table_of_map_space,
    load,
    save,
)
from gottlieb.spaces import Atom, Sphere, parse_space

import random
import time
from pathlib import Path

DEMO = Path(__file__).resolve().parents[1] / "profiles" / "synthetic_demo.json"


def _table(**entries):
    return GradedGroup({int(k): parse_group(v) for k, v in entries.items()})


def test_minimal_document():
    db = load('{"spaces": {"Y": {}}}')
    assert db.space("Y").gottlieb.is_empty
    result = evaluate(FormalSum.single(GottliebTerm("Y", 3)), db)
    assert isinstance(result, Incomplete)
    assert result.missing == ("G[3](Y)",)
    assert result.partial == TRIVIAL


def test_zero_above_semantics():
    table = GradedGroup({3: parse_group("Z")}, zero_above=5)
    assert table.lookup(3) == parse_group("Z")
    assert table.lookup(4) is None  # below the bound, not declared
    assert table.lookup(6) == TRIVIAL  # above the bound, implied trivial
    with pytest.raises(ProfileError):
        GradedGroup({6: parse_group("Z")}, zero_above=5)
    with pytest.raises(ValueError):
        table.lookup(0)


def test_graded_validation():
    with pytest.raises(ProfileError):
        GradedGroup({0: TRIVIAL})
    with pytest.raises(ProfileError):
        GradedGroup({1: "Z"})
    with pytest.raises(ProfileError):
        GradedGroup({}, zero_above=-1)


@pytest.mark.parametrize(
    "table, path, message",
    [
        ({"zero_above": -1}, "spaces.Y.gottlieb", "zero_above must be an integer >= 0, got -1"),
        (
            {"entries": {"5": "Z", "4": "Z"}, "zero_above": 3},
            "spaces.Y.gottlieb",
            "explicit entry at degree 4 exceeds zero_above=3",
        ),
        (
            {"entries": {"2": {"torsion": [[4, 1], [2, 1], "x", [3]]}}},
            "spaces.Y.gottlieb.entries.2",
            "torsion item 'x' is not a [prime, exponent] pair or a [prime, exponent, count] triple",
        ),
        (
            {"entries": {"2": {"rank": -1, "torsion": [[2, 1], [3, 1, 2, 4]]}}},
            "spaces.Y.gottlieb.entries.2",
            "torsion item [3, 1, 2, 4] is not a [prime, exponent] pair "
            "or a [prime, exponent, count] triple",
        ),
        (
            {"entries": {"2": {"rank": -1, "torsion": [[4, 1]]}}},
            "spaces.Y.gottlieb.entries.2",
            "rank must be non-negative, got -1",
        ),
        (
            {"entries": {"2": {"torsion": [[2, 1], [4, 1], [2, 0]]}}},
            "spaces.Y.gottlieb.entries.2",
            "torsion base must be prime, got 4",
        ),
    ],
)
def test_document_tables_report_their_first_failing_check(table, path, message):
    # The reader checks item shapes before values, and a table's bound
    # after its entries, whatever order the checks run in.
    with pytest.raises(ProfileError) as err:
        load(json.dumps({"spaces": {"Y": {"gottlieb": table}}}))
    assert (err.value.path, str(err.value)) == (path, f"{path}: {message}")


def test_group_codecs_in_documents():
    doc = {
        "spaces": {
            "Y": {
                "gottlieb": {
                    "entries": {"1": "Z + Z/2", "2": {"rank": 1, "torsion": [[2, 1]]}}
                }
            }
        }
    }
    db = load(json.dumps(doc))
    table = db.space("Y").gottlieb
    assert table.lookup(1) == table.lookup(2) == canonicalize(1, [2])


def test_structured_items_carry_counts():
    def group(torsion):
        doc = {"spaces": {"Y": {"gottlieb": {"entries": {"1": {"torsion": torsion}}}}}}
        return load(json.dumps(doc)).space("Y").gottlieb.lookup(1)

    assert group([[2, 1, 3], [3, 1]]) == parse_group("Z/2 + Z/2 + Z/6")
    # Equal pairs merge, so both spellings load as the same group.
    assert group([[2, 1], [2, 1], [2, 1, 2]]) == group([[2, 1, 4]])
    assert group([[2, 1, 4]]).torsion == ((2, 1, 4),)
    for bad in ([[2, 1, 0]], [[2, 1, True]], [[2, 1, 1.5]], [[2]], [[2, 1, 1, 1]]):
        with pytest.raises(ProfileError) as err:
            group(bad)
        assert err.value.path == "spaces.Y.gottlieb.entries.1"


def test_degree_keys_must_be_canonical_decimals():
    for bad in ("0", "03", "-1", "x", "1.5", ""):
        doc = {"spaces": {"Y": {"gottlieb": {"entries": {bad: "Z"}}}}}
        with pytest.raises(ProfileError):
            load(json.dumps(doc))


def test_unknown_keys_are_rejected_everywhere():
    cases = [
        {"spaces": {}, "mapz": {}},
        {"spaces": {"Y": {"color": "red"}}},
        {"spaces": {"Y": {"gottlieb": {"entries": {}, "bound": 3}}}},
        {"spaces": {"Y": {"flags": {"smooth": True}}}},
        {"spaces": {"Y": {"gottlieb": {"entries": {"1": {"rank": 0, "torsionz": []}}}}}},
        {"spaces": {"Y": {}}, "maps": {"f": {"source": "Y", "target": "Y", "arrows": 2}}},
    ]
    for doc in cases:
        with pytest.raises(ProfileError) as err:
            load(json.dumps(doc))
        assert err.value.path  # every schema error names its location


def _space_doc(space):
    return {"spaces": {"Y": space}}


def _map_doc(map_):
    return {"spaces": {"Y": {}}, "maps": {"f": map_}}


@pytest.mark.parametrize(
    "doc, path, message",
    [
        ([], "document", "expected an object"),
        ({"spaces": {}, "mapz": {}}, "document", "unknown key 'mapz'"),
        ({"spaces": 3}, "spaces", "expected an object"),
        ({"maps": []}, "maps", "expected an object"),
        (_space_doc(3), "spaces.Y", "expected an object"),
        (_space_doc({"color": 1}), "spaces.Y", "unknown key 'color'"),
        (_space_doc({"betti": 3}), "spaces.Y.betti", "betti must be a list"),
        (
            _space_doc({"suspension_shifts": "a"}),
            "spaces.Y.suspension_shifts",
            "suspension_shifts must be a list",
        ),
        (_space_doc({"gottlieb": None}), "spaces.Y.gottlieb", "expected an object"),
        (_space_doc({"flags": None}), "spaces.Y.flags", "expected an object"),
        (_space_doc({"flags": {"smooth": True}}), "spaces.Y.flags", "unknown key 'smooth'"),
        (_space_doc({"homotopy": {"bound": 3}}), "spaces.Y.homotopy", "unknown key 'bound'"),
        (
            _space_doc({"gottlieb": {"entries": {"1" * 5000: "Z"}}}),
            "spaces.Y.gottlieb.entries",
            "degree key of 5000 digits is too long",
        ),
        (
            _space_doc({"gottlieb": {"zero_above": 1.5}}),
            "spaces.Y.gottlieb.zero_above",
            "zero_above must be an integer",
        ),
        (_map_doc({"target": "Y"}), "maps.f", "map needs a string 'source'"),
        (
            _map_doc({"source": "Y", "target": "Y", "is_identity": None}),
            "maps.f.is_identity",
            "is_identity must be a boolean",
        ),
        (
            _map_doc({"source": "Y", "target": "Y", "relative_gottlieb": 1}),
            "maps.f.relative_gottlieb",
            "expected an object",
        ),
        # Documents with two errors: which one is reported.  A space's keys
        # are checked in a fixed order, whatever the document's order; its
        # flags in document order; unknown keys by the least one.
        (_space_doc({"betti": 3, "gottlieb": 5}), "spaces.Y.betti", "betti must be a list"),
        (_space_doc({"gottlieb": 5, "betti": 3}), "spaces.Y.betti", "betti must be a list"),
        (
            _space_doc({"flags": None, "suspension_shifts": 1}),
            "spaces.Y.suspension_shifts",
            "suspension_shifts must be a list",
        ),
        (
            _space_doc({"flags": {"t_space": 1, "finite": 2}}),
            "spaces.Y.flags",
            "flag 't_space' must be true, false, or null",
        ),
        (
            {"maps": {"f": {"source": 1}}, "spaces": {"Y": {"betti": 3}}},
            "spaces.Y.betti",
            "betti must be a list",
        ),
        ({"spaces": {"Y": {"betti": 3}}, "maps": 3}, "maps", "expected an object"),
        (
            {"spaces": {"S1": {"gottlieb": None}}},
            "spaces.S1.gottlieb",
            "expected an object",
        ),
        (_map_doc({"source": 1, "target": 2}), "maps.f", "map needs a string 'source'"),
        (
            _map_doc({"is_identity": 1, "relative_gottlieb": 1, "target": 2, "source": "Y"}),
            "maps.f",
            "map needs a string 'target'",
        ),
        (
            _map_doc({"zz": 1, "source": "Y", "target": "Y", "arrows": 2}),
            "maps.f",
            "unknown key 'arrows'",
        ),
    ],
)
def test_reader_errors_name_their_text_and_path(doc, path, message):
    with pytest.raises(ProfileError) as err:
        load(json.dumps(doc))
    assert (err.value.path, str(err.value)) == (path, f"{path}: {message}")


def test_document_must_be_an_object():
    with pytest.raises(ProfileError):
        load("[]")
    with pytest.raises(ProfileError):
        load("not json at all")


def test_betti_validation():
    with pytest.raises(ProfileError):
        SpaceProfile("Y", betti=(2, 1))
    with pytest.raises(ProfileError):
        SpaceProfile("Y", betti=())
    with pytest.raises(ProfileError):
        SpaceProfile("Y", betti=(1, -2))
    assert SpaceProfile("Y", betti=(1, 0, 3)).dim == 2
    assert SpaceProfile("Y").dim is None


def test_suspension_shifts_are_sorted_and_positive():
    profile = SpaceProfile("X", suspension_shifts=(10, 5))
    assert profile.suspension_shifts == (5, 10)
    with pytest.raises(ProfileError):
        SpaceProfile("X", suspension_shifts=(0,))


@pytest.mark.parametrize("shifts", [[None, None], [2, "a"], [1.5, 2]])
def test_unorderable_suspension_shifts_are_schema_errors(shifts):
    # Checked before they are sorted, which would raise TypeError.
    document = json.dumps({"spaces": {"Y": {"suspension_shifts": shifts}}})
    with pytest.raises(ProfileError, match="suspension shifts of 'Y' must be integers"):
        load(document)


def test_space_name_must_be_a_usable_atom():
    with pytest.raises(ProfileError):
        SpaceProfile("S3")
    with pytest.raises(ProfileError):
        SpaceProfile("pt")


def test_g_space_tables_must_agree():
    table = _table(**{"2": "Z"})
    other = _table(**{"2": "Z/2"})
    with pytest.raises(ProfileError):
        SpaceProfile("Y", gottlieb=table, homotopy=other, flags=Flags(g_space=True))
    # Agreement, or the flag left off, is fine.
    SpaceProfile("Y", gottlieb=table, homotopy=table, flags=Flags(g_space=True))
    SpaceProfile("Y", gottlieb=table, homotopy=other)


def test_identity_map_invariants():
    with pytest.raises(ProfileError):
        MapProfile("f", "X", "Y", is_identity=True)
    rel = _table(**{"2": "Z/2"})
    table = _table(**{"2": "Z"})
    space = SpaceProfile("Y", gottlieb=table)
    with pytest.raises(ProfileError):
        db_of(space, maps=[MapProfile("i", "Y", "Y", rel, is_identity=True)])
    # Matching tables pass.
    db_of(space, maps=[MapProfile("i", "Y", "Y", table, is_identity=True)])


def test_maps_must_reference_declared_spaces():
    with pytest.raises(ProfileError):
        db_of(maps=[MapProfile("f", "X", "Y")])


def test_db_keys_must_match_names():
    with pytest.raises(ProfileError):
        ProfileDb({"Z1": SpaceProfile("Y")}, {})
    with pytest.raises(ProfileError):
        db = db_of(SpaceProfile("Y"))
        ProfileDb(db.spaces, {"g": MapProfile("f", "Y", "Y")})


def test_unknown_space_or_map_is_an_error_not_incomplete():
    db = db_of(SpaceProfile("Y"))
    with pytest.raises(ProfileError):
        evaluate(FormalSum.single(GottliebTerm("Z9y", 1)), db)
    with pytest.raises(ProfileError):
        evaluate(FormalSum.single(RelTerm("f", 1)), db)


def test_evaluate_resolves_each_term_kind():
    y = SpaceProfile(
        "Y",
        gottlieb=_table(**{"2": "Z", "3": "Z/2"}),
        homotopy=_table(**{"2": "Z/4"}),
    )
    f = MapProfile("f", "Y", "Y", _table(**{"3": "Z/8"}))
    db = db_of(y, maps=[f])
    total = evaluate(
        FormalSum.from_pairs(
            [(GottliebTerm("Y", 2), 2), (PiTerm("Y", 2), 1), (RelTerm("f", 3), 1)]
        ),
        db,
    )
    assert total == parse_group("Z^2 + Z/4 + Z/8")


def test_evaluate_reports_residuals():
    db = db_of(SpaceProfile("Y", gottlieb=_table(**{"1": "Z"})))
    result = evaluate(decompose(parse_space("map(B, Y)"), 1), db)
    assert isinstance(result, Incomplete)
    assert result.residuals == ("Gen[Σ^1 B -> Y]",)
    assert result.partial == parse_group("Z")
    assert result.missing == ()


def test_evaluate_missing_pi_table():
    db = db_of(SpaceProfile("Y"))
    result = evaluate(FormalSum.single(PiTerm("Y", 4)), db)
    assert isinstance(result, Incomplete)
    assert result.missing == ("pi[4](Y)",)


def test_evaluate_is_additive_when_complete():
    rng = random.Random(7)
    space = synthetic_space("Y", rng, range(1, 8))
    db = db_of(space)
    a = FormalSum.from_pairs([(GottliebTerm("Y", 1), 2), (GottliebTerm("Y", 3), 1)])
    b = FormalSum.from_pairs([(GottliebTerm("Y", 3), 1), (GottliebTerm("Y", 5), 4)])
    va, vb, vab = evaluate(a, db), evaluate(b, db), evaluate(a + b, db)
    assert vab == va.direct_sum(vb)


def test_save_load_round_trip_is_field_exact():
    rng = random.Random(11)
    entries = {d: random_group(rng) for d in range(1, 6)}
    entries[7] = random_group(rng).scaled(3).direct_sum(canonicalize(0, [4]).scaled(10**30))
    y = SpaceProfile(
        "Y",
        gottlieb=GradedGroup(entries, zero_above=8),
        homotopy=GradedGroup({2: canonicalize(1)}),
        betti=(1, 0, 2),
        flags=Flags(simply_connected=True, finite=True, g_space=False, t_space=None),
    )
    x = SpaceProfile("X", suspension_shifts=(5, 10), flags=Flags(finite=True))
    f = MapProfile("f", "X", "Y", GradedGroup({3: canonicalize(0, [4])}, zero_above=6))
    idy = MapProfile("idY", "Y", "Y", is_identity=True)
    db = db_of(y, x, maps=[f, idy])
    assert load(save(db)) == db


def test_save_emits_structured_groups():
    db = db_of(SpaceProfile("Y", gottlieb=_table(**{"1": "Z + Z/4"})))
    document = json.loads(save(db))
    assert document["spaces"]["Y"]["gottlieb"]["entries"]["1"] == {
        "rank": 1,
        "torsion": [[2, 2]],
    }
    # A count above 1 is the third element of its item.
    db = db_of(SpaceProfile("Y", gottlieb=_table(**{"1": "Z/2 + (Z/12)^3"})))
    document = json.loads(save(db))
    assert document["spaces"]["Y"]["gottlieb"]["entries"]["1"] == {
        "rank": 0,
        "torsion": [[2, 1], [2, 2, 3], [3, 1, 3]],
    }


def test_atom_shifts_view():
    db = db_of(
        SpaceProfile("X", suspension_shifts=(5, 10)),
        SpaceProfile("Y"),
    )
    assert db.atom_shifts() == {"X": (5, 10)}


def test_derived_map_space_table():
    y = SpaceProfile(
        "Y",
        gottlieb=GradedGroup(
            {d: parse_group(g) for d, g in enumerate(["Z", "Z/2", "Z", "0", "Z/3"], start=1)},
            zero_above=5,
        ),
    )
    db = db_of(y)
    derived = gottlieb_table_of_map_space(Sphere(1), "Y", range(1, 5), db)
    assert isinstance(derived, GradedGroup)
    # Each entry is G_d + G_{d+1}; the bound is inherited.
    assert derived.lookup(1) == parse_group("Z + Z/2")
    assert derived.lookup(2) == parse_group("Z + Z/2")
    assert derived.lookup(4) == parse_group("Z/3")
    assert derived.zero_above == 5
    assert derived.lookup(6) == TRIVIAL


def test_derived_table_skips_degrees_above_bound():
    y = SpaceProfile("Y", gottlieb=GradedGroup({1: canonicalize(1)}, zero_above=1))
    db = db_of(y)
    derived = gottlieb_table_of_map_space(Sphere(2), "Y", [1, 2, 3], db)
    assert derived.lookup(1) == canonicalize(1)  # G_1 + G_3 = Z + 0
    assert derived.known_degrees() == (1,)
    assert derived.lookup(2) == TRIVIAL
    # The table is built unchecked, so its degrees are checked on the way in.
    with pytest.raises(ValueError):
        gottlieb_table_of_map_space(Sphere(2), "Y", [0], db)
    with pytest.raises(TypeError):
        gottlieb_table_of_map_space(Sphere(2), "Y", [1.5], db)


def test_derived_table_reports_missing_degrees():
    y = SpaceProfile("Y", gottlieb=_table(**{"1": "Z"}))
    db = db_of(y)
    result = gottlieb_table_of_map_space(Sphere(1), "Y", [1], db)
    assert isinstance(result, Incomplete)
    assert result.missing == ("G[2](Y)",)


def test_derived_table_matches_decompose_evaluation():
    rng = random.Random(3)
    y = synthetic_space("Y", rng, range(1, 9), zero_above=8)
    db = db_of(y)
    derived = gottlieb_table_of_map_space(parse_space("T2"), "Y", range(1, 6), db)
    for degree in range(1, 6):
        direct = evaluate(decompose(parse_space("map(T2, Y)"), degree), db)
        assert derived.lookup(degree) == direct


def test_sums_of_loaded_groups_skip_validation(monkeypatch):
    # Groups validated on load stay valid under sums and multiples, so the
    # internal arithmetic never tests primality again.
    db = load(DEMO.read_text(encoding="utf-8"))
    formal_sum = decompose(parse_space("bloop(Y, 3, 4)"), 1, db.atom_shifts())

    def refuse(n):
        raise ValueError("isprime called")

    monkeypatch.setattr("gottlieb.abelian.isprime", refuse)
    a, b = db.space("Y").gottlieb.lookup(2), db.space("Y").gottlieb.lookup(3)
    assert a.direct_sum(b, a) == direct_sum(a.scaled(2), b)
    assert isinstance(evaluate(formal_sum, db), AbelianGroup)
    assert isinstance(gottlieb_table_of_map_space(parse_space("T3"), "Y", [1, 2], db), GradedGroup)
    # Outside input is still checked.
    with pytest.raises(ValueError, match="isprime called"):
        AbelianGroup(0, ((4, 1),))
    monkeypatch.undo()
    with pytest.raises(ValueError, match="must be prime"):
        AbelianGroup(0, ((4, 1),))


def test_evaluate_cost_follows_distinct_summands():
    # Total multiplicity in the millions, four distinct summands.
    db = load(DEMO.read_text(encoding="utf-8"))
    formal_sum = decompose(parse_space("bloop(Y, 3, 12)"), 1, db.atom_shifts())
    start = time.perf_counter()
    value = evaluate(formal_sum, db)
    assert time.perf_counter() - start < 1
    assert value.rank == sum(
        multiplicity * db.space("Y").gottlieb.lookup(term.degree).rank
        for term, multiplicity in formal_sum
    )


def test_profile_error_paths_are_informative():
    doc = {"spaces": {"Y": {"gottlieb": {"entries": {"2": "Q"}}}}}
    with pytest.raises(ProfileError) as err:
        load(json.dumps(doc))
    assert "spaces.Y.gottlieb.entries.2" in err.value.path


@pytest.mark.parametrize(
    "record",
    [ProfileDb(), SpaceProfile("Y"), MapProfile("f", "Y", "Y"), GradedGroup(), Flags()],
    ids=lambda record: type(record).__name__,
)
def test_each_document_table_matches_its_record(record):
    # A record field without a document key, or a constructor default that
    # the writer does not know, fails here.
    table = _SCHEMA[type(record)]
    assert set(table) == set(type(record).__slots__) - {"name"}
    for key, (_, default) in table.items():
        if default is not _NO_DEFAULT:
            assert getattr(record, key) == default, key
