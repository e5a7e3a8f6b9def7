"""Profile documents as text: the bytes ``save`` writes and what ``load`` admits."""

import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gottlieb.abelian import AbelianGroup
from gottlieb.profiles import (
    Flags,
    GradedGroup,
    MapProfile,
    ProfileDb,
    ProfileError,
    SpaceProfile,
    group_to_json,
    load,
    save,
)

PROFILES = Path(__file__).resolve().parents[1] / "profiles"


# --- the reference writer ---------------------------------------------------
#
# ``save`` writes its text directly.  This is the route it replaced, kept
# here as an independent reference: a plain JSON tree of the db, written by
# the standard encoder.

def _reference_table(table: GradedGroup) -> dict:
    out: dict = {"entries": {str(d): group_to_json(g) for d, g in table.entries.items()}}
    if table.zero_above is not None:
        out["zero_above"] = table.zero_above
    return out


def reference_save(db: ProfileDb) -> str:
    spaces = {}
    for name, profile in db.spaces.items():
        obj: dict = {}
        if profile.betti is not None:
            obj["betti"] = list(profile.betti)
        flags = {
            key: getattr(profile.flags, key)
            for key in ("simply_connected", "finite", "g_space", "t_space")
            if getattr(profile.flags, key) is not None
        }
        if flags:
            obj["flags"] = flags
        if profile.suspension_shifts is not None:
            obj["suspension_shifts"] = list(profile.suspension_shifts)
        if not profile.gottlieb.is_empty:
            obj["gottlieb"] = _reference_table(profile.gottlieb)
        if profile.homotopy is not None:
            obj["homotopy"] = _reference_table(profile.homotopy)
        spaces[name] = obj
    maps = {}
    for name, profile in db.maps.items():
        obj = {"source": profile.source, "target": profile.target}
        if profile.is_identity:
            obj["is_identity"] = True
        if not profile.relative_gottlieb.is_empty:
            obj["relative_gottlieb"] = _reference_table(profile.relative_gottlieb)
        maps[name] = obj
    return json.dumps({"spaces": spaces, "maps": maps}, indent=2, sort_keys=True)


# --- drawn databases ---------------------------------------------------------

SPACE_NAMES = ["Y", "X", "Target", "aX_1", "ptx", "Q7"]
MAP_NAMES = ["f", "g", "idY", "h_2"]
PRIMES = [2, 3, 5, 7, 97, 997, 1000003, 10**19 + 51]


def groups():
    # Counts of 1 write [p, k]; larger counts, up to 10^30, write [p, k, count].
    item = st.tuples(
        st.sampled_from(PRIMES), st.integers(1, 3), st.sampled_from([1, 1, 2, 5, 10**30])
    )
    return st.builds(AbelianGroup, st.integers(0, 3), st.lists(item, max_size=4).map(tuple))


def tables():
    # Empty entry tables, zero_above alone, entries alone, and both.
    entries = st.dictionaries(st.integers(1, 12), groups(), max_size=4)
    bound = st.one_of(st.none(), st.integers(0, 20))
    return st.builds(
        lambda e, z: GradedGroup(
            e if z is None else {d: g for d, g in e.items() if d <= z}, z
        ),
        entries,
        bound,
    )


def flags():
    tri = st.sampled_from([None, True, False])
    return st.builds(Flags, tri, tri, st.sampled_from([None, False]), tri)


def spaces(name: str):
    return st.builds(
        SpaceProfile,
        name=st.just(name),
        gottlieb=tables(),
        homotopy=st.one_of(st.none(), tables()),
        betti=st.one_of(st.none(), st.lists(st.integers(0, 3), max_size=4).map(lambda b: (1, *b))),
        suspension_shifts=st.one_of(st.none(), st.lists(st.integers(1, 30), max_size=3).map(tuple)),
        flags=flags(),
    )


@st.composite
def dbs(draw):
    # No spaces (and so no maps) is one of the draws.
    names = draw(st.lists(st.sampled_from(SPACE_NAMES), unique=True, max_size=4))
    drawn = {name: draw(spaces(name)) for name in names}
    maps = {}
    if names:
        for map_name in draw(st.lists(st.sampled_from(MAP_NAMES), unique=True, max_size=3)):
            source = draw(st.sampled_from(names))
            if draw(st.booleans()):
                # An identity map's relative table must agree with the
                # Gottlieb table of its space: copy it, or leave it empty.
                table = draw(st.sampled_from([GradedGroup(), drawn[source].gottlieb]))
                maps[map_name] = MapProfile(map_name, source, source, table, True)
            else:
                target = draw(st.sampled_from(names))
                maps[map_name] = MapProfile(map_name, source, target, draw(tables()))
    return ProfileDb(drawn, maps)


@settings(max_examples=100, deadline=None)
@given(dbs())
def test_save_writes_the_bytes_of_the_standard_encoder(db):
    text = save(db)
    assert text == reference_save(db)
    assert load(text) == db


def test_save_matches_the_standard_encoder_on_shipped_profiles():
    paths = sorted(PROFILES.glob("*.json"))
    assert paths
    for path in paths:
        db = load(path.read_text(encoding="utf-8"))
        assert save(db) == reference_save(db), path.name


def test_save_of_the_empty_db():
    assert save(ProfileDb()) == reference_save(ProfileDb()) == '{\n  "maps": {},\n  "spaces": {}\n}'


# --- fuzzing the loader ------------------------------------------------------
#
# Documents shaped like the schema (document, spaces, maps, graded tables,
# groups, flags).  Every value is one time in twelve a junk leaf: a wrong
# type, a bool, a float, a huge or negative integer or a junk string.
# Bounded so that one example loads in milliseconds: containers hold at
# most three items, integers have at most 61 digits (a structured prime of
# that size is certified quickly), and text groups come from a fixed list,
# so no order needs Pollard-Brent rho.  300 examples a run.

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.integers(-(10**6), 10**6),
    st.integers(10**20, 10**60),
    st.integers(-(10**60), -(10**20)),
    st.text(max_size=6),
    st.sampled_from(["Z/1", "Z/0", "Z/-2", "Z/2 +", "(Z/2)^0", "S1", "Z^-1"]),
)


def _or_junk(valid, junk=JUNK):
    """``valid`` eleven times in twelve, else ``junk``."""
    # Not st.one_of, which would flatten JUNK's branches into its own.
    return st.sampled_from(range(12)).flatmap(lambda i: valid if i else junk)


def _object(mapping: dict, usual: tuple = ()):
    """Objects with ``mapping``'s keys, the ``usual`` ones eleven times in
    twelve and the others now and then, and one time in twelve a stray key."""
    required = {key: mapping[key] for key in usual}
    optional = {key: value for key, value in mapping.items() if key not in usual}
    return st.sampled_from(range(12)).flatmap(
        lambda i: st.fixed_dictionaries(required, optional=optional) if i
        else st.fixed_dictionaries({}, optional={**mapping, "stray": JUNK})
    )


NAME = _or_junk(st.sampled_from(["Y", "X", "f", "aX_1"]),
                st.one_of(st.sampled_from(["S1", "map", "1a", "", "Yé"]), JUNK))
TEXT = st.sampled_from(["0", "Z", "Z/2", "Z^3 + Z/12", "(Z/4)^3", "Z/1000003",
                        "Z^" + "9" * 30, "Z/" + str(10**19 + 51)])
ITEM = st.lists(_or_junk(st.sampled_from([2, 3, 4, 1, 0, -3, 1000003, 10**19 + 51])),
                min_size=2, max_size=3)


def _fuzz_group():
    structured = _object({
        "rank": _or_junk(st.integers(0, 3)),
        "torsion": _or_junk(st.lists(_or_junk(ITEM), max_size=3)),
    })
    return _or_junk(st.one_of(TEXT, structured))


def _fuzz_table():
    key = _or_junk(st.integers(1, 12).map(str),
                   st.one_of(st.sampled_from(["0", "01", "-1", "x", "1" * 30]), JUNK))
    return _or_junk(_object({
        "entries": _or_junk(st.dictionaries(key, _fuzz_group(), max_size=3)),
        "zero_above": _or_junk(st.integers(-1, 12)),
    }, usual=("entries",)))


def _fuzz_document():
    ints = st.lists(_or_junk(st.integers(0, 3)), max_size=3)
    flag = _or_junk(st.one_of(st.none(), st.booleans()))
    flags = _object({key: flag for key in ("simply_connected", "finite", "g_space", "t_space")})
    space = _object({
        "betti": _or_junk(st.one_of(ints.map(lambda b: [1, *b]), ints)),
        "flags": _or_junk(flags),
        "suspension_shifts": _or_junk(ints),
        "gottlieb": _fuzz_table(),
        "homotopy": _fuzz_table(),
    }, usual=("gottlieb",))
    # Maps load only between declared spaces: Y usually is, X now and then.
    declared = _or_junk(st.sampled_from(["Y", "Y", "X"]), NAME)
    map_ = _object({
        "source": declared,
        "target": declared,
        "is_identity": _or_junk(st.booleans()),
        "relative_gottlieb": _fuzz_table(),
    }, usual=("source", "target"))
    def named(value, usual):
        # The usual names most of the time, and now and then others.
        return st.builds(
            lambda common, more: {**more, **common},
            _object({name: value for name in usual}, usual=usual[:1]),
            st.dictionaries(NAME, _or_junk(value), max_size=2),
        )

    return _or_junk(_object({
        "spaces": _or_junk(named(space, ("Y", "X"))),
        "maps": _or_junk(named(map_, ("f",))),
    }, usual=("spaces",)))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_fuzz_document())
def test_load_admits_a_db_or_raises_profile_error(doc):
    try:
        db = load(json.dumps(doc))
    except ProfileError:
        return
    assert isinstance(db, ProfileDb)
    text = save(db)
    assert load(text) == db
    assert text == reference_save(db)
