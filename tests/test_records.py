"""Value semantics of the profile layer's frozen records.

``AbelianGroup`` and the records of ``profiles`` are immutable values:
field-wise equality within one class, a hash of the field values, a
``Name(field=value, ...)`` repr, ``__match_args__`` in field order, and
``AttributeError`` on any assignment or deletion.  These tests pin that
behaviour, whatever the classes are built from.
"""

import copy
import pickle

import pytest

from gottlieb.abelian import TRIVIAL, AbelianGroup, parse_group
from gottlieb.profiles import (
    Flags,
    GradedGroup,
    Incomplete,
    MapProfile,
    ProfileDb,
    ProfileError,
    SpaceProfile,
)

Z2 = AbelianGroup(0, ((2, 1),))


def _db():
    y = SpaceProfile("Y", GradedGroup({2: Z2}, 4), betti=(1, 0, 1))
    return ProfileDb({"Y": y}, {"f": MapProfile("f", "Y", "Y")})


FIELDS = {
    AbelianGroup: ("rank", "torsion"),
    GradedGroup: ("entries", "zero_above"),
    Flags: ("simply_connected", "finite", "g_space", "t_space"),
    SpaceProfile: ("name", "gottlieb", "homotopy", "betti", "suspension_shifts", "flags"),
    MapProfile: ("name", "source", "target", "relative_gottlieb", "is_identity"),
    ProfileDb: ("spaces", "maps"),
    Incomplete: ("missing", "residuals", "partial"),
}

# One value of each class, built the same way twice.
MAKERS = {
    AbelianGroup: lambda: AbelianGroup(1, ((2, 1), (3, 2, 4))),
    GradedGroup: lambda: GradedGroup({1: Z2, 3: TRIVIAL}, 5),
    Flags: lambda: Flags(True, None, False, None),
    SpaceProfile: lambda: SpaceProfile("Y", GradedGroup({1: Z2}), None, (1, 2), (3, 1)),
    MapProfile: lambda: MapProfile("f", "X", "Y", GradedGroup({2: Z2})),
    ProfileDb: _db,
    Incomplete: lambda: Incomplete(("G[3](Y)",), (), Z2),
}
UNHASHABLE = (GradedGroup, SpaceProfile, MapProfile, ProfileDb)


def test_repr_text():
    assert repr(AbelianGroup(1, ((2, 1),))) == "AbelianGroup(rank=1, torsion=((2, 1, 1),))"
    assert repr(GradedGroup({2: TRIVIAL}, 3)) == (
        "GradedGroup(entries={2: AbelianGroup(rank=0, torsion=())}, zero_above=3)"
    )
    assert repr(Flags(finite=True)) == (
        "Flags(simply_connected=None, finite=True, g_space=None, t_space=None)"
    )
    assert repr(SpaceProfile("Y", suspension_shifts=[4, 2])) == (
        "SpaceProfile(name='Y', gottlieb=GradedGroup(entries={}, zero_above=None), "
        "homotopy=None, betti=None, suspension_shifts=(2, 4), "
        "flags=Flags(simply_connected=None, finite=None, g_space=None, t_space=None))"
    )
    assert repr(MapProfile("f", "X", "Y")) == (
        "MapProfile(name='f', source='X', target='Y', "
        "relative_gottlieb=GradedGroup(entries={}, zero_above=None), is_identity=False)"
    )
    assert repr(ProfileDb()) == "ProfileDb(spaces={}, maps={})"
    assert repr(Incomplete(("G[1](Y)",))) == (
        "Incomplete(missing=('G[1](Y)',), residuals=(), partial=None)"
    )


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_match_args_name_the_fields_in_order(cls):
    assert cls.__match_args__ == FIELDS[cls]
    value = MAKERS[cls]()
    match value:
        case cls(first, second):
            assert (first, second) == tuple(getattr(value, f) for f in FIELDS[cls][:2])
        case _:
            pytest.fail("positional pattern did not match")


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_equality_is_field_wise_and_within_one_class(cls):
    a, b = MAKERS[cls](), MAKERS[cls]()
    assert a is not b and a == b and not a != b
    assert a.__eq__(object()) is NotImplemented
    assert a != tuple(getattr(a, f) for f in FIELDS[cls])
    others = [MAKERS[other]() for other in FIELDS if other is not cls]
    assert all(a != other for other in others)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1


def test_unequal_values():
    assert AbelianGroup(1) != AbelianGroup(2)
    assert parse_group("Z/4 + Z/3") == parse_group("Z/12")
    assert GradedGroup({1: Z2}) != GradedGroup({1: Z2}, 1)
    assert Flags(finite=True) != Flags(finite=False)
    assert Incomplete(("a",)) != Incomplete((), ("a",))
    assert SpaceProfile("Y") != SpaceProfile("X")
    assert MapProfile("f", "X", "X") != MapProfile("f", "X", "X", is_identity=True)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = MAKERS[cls]()
    for name in FIELDS[cls]:
        before = getattr(value, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, before)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_copies_are_equal_values(cls):
    value = MAKERS[cls]()
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_every_default():
    assert AbelianGroup() == TRIVIAL
    assert (Flags().simply_connected, Flags().finite, Flags().g_space, Flags().t_space) == (
        None, None, None, None,
    )
    table = GradedGroup()
    assert (table.entries, table.zero_above, table.is_empty) == ({}, None, True)
    profile = SpaceProfile("Y")
    assert profile.gottlieb == GradedGroup() and profile.flags == Flags()
    assert (profile.homotopy, profile.betti, profile.suspension_shifts) == (None, None, None)
    map_profile = MapProfile("f", "X", "Y")
    assert (map_profile.relative_gottlieb, map_profile.is_identity) == (GradedGroup(), False)
    db = ProfileDb()
    assert (db.spaces, db.maps) == ({}, {})
    assert (Incomplete().missing, Incomplete().residuals, Incomplete().partial) == ((), (), None)


def test_default_tables_are_fresh_per_instance():
    assert GradedGroup().entries is not GradedGroup().entries
    assert SpaceProfile("Y").gottlieb is not SpaceProfile("Y").gottlieb
    assert SpaceProfile("Y").gottlieb.entries is not SpaceProfile("Y").gottlieb.entries
    assert SpaceProfile("Y").flags is not SpaceProfile("Y").flags
    assert MapProfile("f", "X", "Y").relative_gottlieb is not MapProfile(
        "f", "X", "Y"
    ).relative_gottlieb
    assert ProfileDb().spaces is not ProfileDb().spaces
    assert ProfileDb().maps is not ProfileDb().maps


def test_positional_and_keyword_construction_agree():
    table, pi, flags = GradedGroup({1: Z2}), GradedGroup({1: TRIVIAL}), Flags(g_space=False)
    assert AbelianGroup(2, ((3, 1),)) == AbelianGroup(rank=2, torsion=((3, 1),))
    assert GradedGroup({1: Z2}, 2) == GradedGroup(entries={1: Z2}, zero_above=2)
    assert Flags(True, False, None, True) == Flags(
        simply_connected=True, finite=False, g_space=None, t_space=True
    )
    assert SpaceProfile("Y", table, pi, (1, 0), (2,), flags) == SpaceProfile(
        name="Y", gottlieb=table, homotopy=pi, betti=(1, 0), suspension_shifts=(2,), flags=flags
    )
    assert MapProfile("f", "Y", "Y", table, True) == MapProfile(
        name="f", source="Y", target="Y", relative_gottlieb=table, is_identity=True
    )
    spaces = {"Y": SpaceProfile("Y")}
    assert ProfileDb(spaces, {}) == ProfileDb(spaces=spaces, maps={})
    assert Incomplete(("a",), ("b",), Z2) == Incomplete(missing=("a",), residuals=("b",), partial=Z2)
    with pytest.raises(TypeError):
        SpaceProfile()  # the name has no default
    with pytest.raises(TypeError):
        MapProfile("f", "X")


def test_constructors_copy_and_normalise_their_inputs():
    entries = {1: Z2}
    table = GradedGroup(entries)
    entries[2] = Z2
    assert table.entries == {1: Z2}
    assert SpaceProfile("Y", betti=[1, 2]).betti == (1, 2)
    assert SpaceProfile("Y", suspension_shifts=[5, 2, 5]).suspension_shifts == (2, 5, 5)
    assert AbelianGroup(0, [[3, 1], (2, 1), (3, 1, 2)]).torsion == ((2, 1, 1), (3, 1, 3))


@pytest.mark.parametrize(
    "build, error, text",
    [
        (lambda: AbelianGroup(-1), ValueError, "rank must be non-negative, got -1"),
        (lambda: AbelianGroup(True), TypeError, "rank must be an integer, got True"),
        (
            lambda: AbelianGroup(0, ((2,),)),
            TypeError,
            "torsion item must be two integers (p, k) or three (p, k, count), got (2,)",
        ),
        (lambda: AbelianGroup(0, ((2, 0),)), ValueError, "torsion exponent must be >= 1, got 0"),
        (lambda: AbelianGroup(0, ((2, 1, 0),)), ValueError, "torsion count must be >= 1, got 0"),
        (lambda: AbelianGroup(0, ((4, 1),)), ValueError, "torsion base must be prime, got 4"),
        (
            lambda: AbelianGroup(0, ((2, 20000),)),
            ValueError,
            "torsion order p^k exceeds 4300 digits",
        ),
        (
            lambda: GradedGroup({0: Z2}),
            ProfileError,
            "entry degree must be an integer >= 1, got 0",
        ),
        (lambda: GradedGroup({1: "Z"}), ProfileError, "entry at degree 1 is not a group: 'Z'"),
        (
            lambda: GradedGroup({}, -1),
            ProfileError,
            "zero_above must be an integer >= 0, got -1",
        ),
        (
            lambda: GradedGroup({5: Z2, 4: Z2}, 3),
            ProfileError,
            "explicit entry at degree 4 exceeds zero_above=3",
        ),
        (lambda: Flags(finite=1), ProfileError, "flag 'finite' must be true, false, or absent"),
        (
            lambda: SpaceProfile("map"),
            ProfileError,
            "space name 'map' is not a usable atom name",
        ),
        (
            lambda: SpaceProfile("Y", betti=(0,)),
            ProfileError,
            "betti numbers of 'Y' must start with 1",
        ),
        (
            lambda: SpaceProfile("Y", betti=(1, -1)),
            ProfileError,
            "betti numbers of 'Y' must be integers >= 0",
        ),
        (
            lambda: SpaceProfile("Y", suspension_shifts=(0,)),
            ProfileError,
            "suspension shifts of 'Y' must be integers >= 1",
        ),
        (
            lambda: SpaceProfile(
                "Y", GradedGroup({2: Z2}), GradedGroup({2: TRIVIAL}), flags=Flags(g_space=True)
            ),
            ProfileError,
            "'Y' is flagged g_space but G[2] = Z/2 differs from pi[2] = 0",
        ),
        (lambda: MapProfile("1f", "X", "Y"), ProfileError, "map name '1f' is not an identifier"),
        (
            lambda: MapProfile("f", "S2", "Y"),
            ProfileError,
            "map 'f' source 'S2' is not an atom name",
        ),
        (
            lambda: MapProfile("f", "X", "Y", is_identity=True),
            ProfileError,
            "map 'f' is flagged is_identity but source 'X' differs from target 'Y'",
        ),
        (
            lambda: ProfileDb({"A": SpaceProfile("Y")}),
            ProfileError,
            "space key 'A' does not match profile name 'Y'",
        ),
        (
            lambda: ProfileDb({}, {"f": MapProfile("f", "X", "X")}),
            ProfileError,
            "map 'f' references undeclared source space 'X'",
        ),
        (
            lambda: ProfileDb(
                {"Y": SpaceProfile("Y", GradedGroup({1: TRIVIAL}))},
                {"f": MapProfile("f", "Y", "Y", GradedGroup({1: Z2}), True)},
            ),
            ProfileError,
            "identity map 'f' relative table at degree 1 (Z/2) disagrees with the "
            "Gottlieb table of 'Y' (0)",
        ),
    ],
)
def test_constructor_error_texts(build, error, text):
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error
    assert str(err.value) == text
