"""User-supplied group tables and evaluation of formal sums against them.

Nothing here computes a homotopy or Gottlieb group from first principles:
every concrete value is asserted by the user in a profile document, and
evaluation only combines those assertions.  There are deliberately no
built-in tables.

A profile document is a JSON object::

    {
      "spaces": {
        "Y": {
          "betti": [1, 0, 3],
          "flags": {"simply_connected": true, "finite": true,
                    "g_space": false, "t_space": false},
          "suspension_shifts": [5, 10],
          "gottlieb": {"entries": {"3": "Z + Z/2"}, "zero_above": 10},
          "homotopy": {"entries": {"3": {"rank": 1, "torsion": [[2, 1]]}}}
        }
      },
      "maps": {
        "f": {"source": "X", "target": "Y", "is_identity": false,
              "relative_gottlieb": {"entries": {"4": "Z/2"}}}
      }
    }

Entry degrees are decimal strings >= 1.  Groups are written either in the
text codec ("Z^r + Z/d + (Z/e)^n + ...", where (Z/e)^n is n copies of Z/e)
or structurally as {"rank": r, "torsion": [[p, k], [p, k, count], ...]},
where [p, k] is one summand Z/p^k and [p, k, count] is count of them;
``save`` (in ``writer``) always emits the structural form, in (p, k)
order, which the reader (``abelian._canonical_torsion``, one pass) takes
as it stands.  A structured p^k may have at most ``ORDER_DIGITS`` digits
(a product of such powers can still be too long to print; see
``abelian``), and a prime past ``CERTIFY_DIGITS`` is refused (see
``numtheory``); both are rows of ``limits``.  JSON integers past the
interpreter's digit limit are schema errors.  Unknown keys are rejected
everywhere.  The schema is one table per object kind, ``_SCHEMA``, which
drives the key check, the reader and ``save``: a new key is one row there
plus its reader.  A graded table maps a degree to a group when an entry
exists, to the trivial group when the degree exceeds ``zero_above``, and
to "unknown" otherwise; evaluation of a formal sum returns either an
AbelianGroup or an ``Incomplete`` report listing what was missing.

A process compiles only the part of the profile layer it runs.  This
module holds the records and the reader, and imports only ``names`` and
``records`` of the package.  The group layer (``abelian``, and through it
``numtheory`` and ``limits``) is bound here by ``_holds_groups`` when the
first table that holds a group is built, by the reader or a constructor,
so loading a document of atoms, shifts and flags compiles none of it.  ``evaluate`` and
``gottlieb_table_of_map_space`` live in ``evaluation``, ``save`` in
``writer`` and ``group_to_json`` in ``abelian``; each module is compiled
on first access of its name here (PEP 562) and the name is then bound in
this module's namespace, so warm calls pay no import.
"""

from __future__ import annotations

import json
from functools import partial
from typing import TYPE_CHECKING

from .names import IDENT_RE, is_valid_atom_name
from .records import ProfileError, _Record, _set

if TYPE_CHECKING:
    from typing import Callable, Iterable, Mapping, TypeVar

    _T = TypeVar("_T")

__all__ = [
    "Flags",
    "GradedGroup",
    "Incomplete",
    "MapProfile",
    "ProfileDb",
    "ProfileError",
    "SpaceProfile",
    "evaluate",
    "gottlieb_table_of_map_space",
    "group_to_json",
    "load",
    "save",
]

# The group layer, bound by ``_holds_groups`` before the first table that
# holds a group is built; until then a process has compiled no group code.
AbelianGroup = TRIVIAL = _canonical_torsion = _check_rank = _trusted = None


def _holds_groups(entries, zero_above) -> None:
    """Bind the group layer here if a table of ``entries`` and ``zero_above`` holds a group.

    A table with entries holds groups, and one with a bound answers the
    trivial group past it.  The names are bound once per process.
    """
    global AbelianGroup, TRIVIAL, _canonical_torsion, _check_rank, _trusted
    if TRIVIAL is None and (entries or zero_above is not None):
        from .abelian import TRIVIAL, AbelianGroup, _canonical_torsion, _check_rank, _trusted


def _check_bound(table: dict, bound, path: str = "") -> None:
    """Refuse a ``zero_above`` that is not an integer >= 0 or lies below an entry."""
    if bound is None:
        return
    if isinstance(bound, bool) or not isinstance(bound, int) or bound < 0:
        raise ProfileError(f"zero_above must be an integer >= 0, got {bound!r}", path)
    beyond = min((d for d in table if d > bound), default=None)
    if beyond is not None:
        raise ProfileError(f"explicit entry at degree {beyond} exceeds zero_above={bound}", path)


class GradedGroup(_Record):
    """Partial table degree -> group, with an optional triviality bound.

    Degrees above ``zero_above`` are implicitly the trivial group; absent
    degrees at or below the bound (or any degree, when there is no bound)
    are unknown.  Explicit entries above the bound are rejected.
    """

    __slots__ = ("entries", "zero_above")
    entries: dict[int, AbelianGroup]
    zero_above: int | None

    def __init__(
        self, entries: Mapping[int, AbelianGroup] | None = None, zero_above: int | None = None
    ) -> None:
        entries = {} if entries is None else dict(entries)
        _holds_groups(entries, zero_above)
        table: dict[int, AbelianGroup] = {}
        for degree, group in entries.items():
            if isinstance(degree, bool) or not isinstance(degree, int) or degree < 1:
                raise ProfileError(f"entry degree must be an integer >= 1, got {degree!r}")
            if not isinstance(group, AbelianGroup):
                raise ProfileError(f"entry at degree {degree} is not a group: {group!r}")
            table[degree] = group
        _check_bound(table, zero_above)
        _set(self, "entries", table)
        _set(self, "zero_above", zero_above)

    @classmethod
    def _trusted(cls, entries: dict[int, AbelianGroup], zero_above: int | None) -> GradedGroup:
        """A table from entries and a bound already checked, taking ``entries`` as is.

        The caller has bound the group layer: the entries are groups, and a
        bound is copied from a table built with one.
        """
        table = object.__new__(cls)
        _set(table, "entries", entries)
        _set(table, "zero_above", zero_above)
        return table

    def lookup(self, degree: int) -> AbelianGroup | None:
        """The group at ``degree``, or None when the table does not know it."""
        group = self.entries.get(degree)  # entries hold only degrees 1..zero_above
        if group is not None:
            return group
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        if self.zero_above is not None and degree > self.zero_above:
            return TRIVIAL
        return None

    def known_degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.entries))

    @property
    def is_empty(self) -> bool:
        return not self.entries and self.zero_above is None


def _first_disagreement(first: GradedGroup, second: GradedGroup) -> tuple | None:
    """The first degree where both tables answer and differ, with their two answers."""
    for degree in sorted(set(first.entries) | set(second.entries)):
        a, b = first.lookup(degree), second.lookup(degree)
        if a is not None and b is not None and a != b:
            return degree, a, b
    return None


class Flags(_Record):
    """Tri-state space properties; None means the user did not say."""

    __slots__ = ("simply_connected", "finite", "g_space", "t_space")
    simply_connected: bool | None
    finite: bool | None
    g_space: bool | None
    t_space: bool | None

    def __init__(
        self,
        simply_connected: bool | None = None,
        finite: bool | None = None,
        g_space: bool | None = None,
        t_space: bool | None = None,
    ) -> None:
        for name, value in zip(self.__slots__, (simply_connected, finite, g_space, t_space)):
            if value is not None and not isinstance(value, bool):
                raise ProfileError(f"flag {name!r} must be true, false, or absent")
            _set(self, name, value)


class SpaceProfile(_Record):
    """Everything the user asserts about one named space."""

    __slots__ = ("name", "gottlieb", "homotopy", "betti", "suspension_shifts", "flags")
    name: str
    gottlieb: GradedGroup
    homotopy: GradedGroup | None
    betti: tuple[int, ...] | None
    suspension_shifts: tuple[int, ...] | None
    flags: Flags

    def __init__(
        self,
        name: str,
        gottlieb: GradedGroup | None = None,
        homotopy: GradedGroup | None = None,
        betti: Iterable[int] | None = None,
        suspension_shifts: Iterable[int] | None = None,
        flags: Flags | None = None,
    ) -> None:
        if gottlieb is None:
            gottlieb = GradedGroup()
        if flags is None:
            flags = Flags()
        if not is_valid_atom_name(name):
            raise ProfileError(f"space name {name!r} is not a usable atom name")
        if betti is not None:
            betti = tuple(betti)
            if not betti or betti[0] != 1:
                raise ProfileError(f"betti numbers of {name!r} must start with 1")
            if any(isinstance(b, bool) or not isinstance(b, int) or b < 0 for b in betti):
                raise ProfileError(f"betti numbers of {name!r} must be integers >= 0")
        if suspension_shifts is not None:
            shifts = tuple(suspension_shifts)
            if any(isinstance(s, bool) or not isinstance(s, int) or s < 1 for s in shifts):
                raise ProfileError(f"suspension shifts of {name!r} must be integers >= 1")
            suspension_shifts = tuple(sorted(shifts))
        if flags.g_space is True and homotopy is not None:
            # A G-space has Gottlieb groups equal to its homotopy groups;
            # check wherever both tables answer.
            if clash := _first_disagreement(gottlieb, homotopy):
                degree, a, b = clash
                raise ProfileError(
                    f"{name!r} is flagged g_space but G[{degree}] = {a.describe()} "
                    f"differs from pi[{degree}] = {b.describe()}"
                )
        _set(self, "name", name)
        _set(self, "gottlieb", gottlieb)
        _set(self, "homotopy", homotopy)
        _set(self, "betti", betti)
        _set(self, "suspension_shifts", suspension_shifts)
        _set(self, "flags", flags)

    @property
    def dim(self) -> int | None:
        """Top degree of the Betti vector, when one was declared."""
        return None if self.betti is None else len(self.betti) - 1


class MapProfile(_Record):
    """A named map together with its asserted relative Gottlieb table."""

    __slots__ = ("name", "source", "target", "relative_gottlieb", "is_identity")
    name: str
    source: str
    target: str
    relative_gottlieb: GradedGroup
    is_identity: bool

    def __init__(
        self,
        name: str,
        source: str,
        target: str,
        relative_gottlieb: GradedGroup | None = None,
        is_identity: bool = False,
    ) -> None:
        if relative_gottlieb is None:
            relative_gottlieb = GradedGroup()
        if not IDENT_RE.fullmatch(name or ""):
            raise ProfileError(f"map name {name!r} is not an identifier")
        for role, space in (("source", source), ("target", target)):
            if not is_valid_atom_name(space):
                raise ProfileError(f"map {name!r} {role} {space!r} is not an atom name")
        if is_identity and source != target:
            raise ProfileError(
                f"map {name!r} is flagged is_identity but source {source!r} "
                f"differs from target {target!r}"
            )
        _set(self, "name", name)
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "relative_gottlieb", relative_gottlieb)
        _set(self, "is_identity", is_identity)


class ProfileDb(_Record):
    """Validated collection of space and map profiles."""

    __slots__ = ("spaces", "maps")
    spaces: dict[str, SpaceProfile]
    maps: dict[str, MapProfile]

    def __init__(
        self,
        spaces: Mapping[str, SpaceProfile] | None = None,
        maps: Mapping[str, MapProfile] | None = None,
    ) -> None:
        spaces = {} if spaces is None else dict(spaces)
        maps = {} if maps is None else dict(maps)
        for name, profile in spaces.items():
            if name != profile.name:
                raise ProfileError(f"space key {name!r} does not match profile name {profile.name!r}")
        for name, profile in maps.items():
            if name != profile.name:
                raise ProfileError(f"map key {name!r} does not match profile name {profile.name!r}")
            for role, space in (("source", profile.source), ("target", profile.target)):
                if space not in spaces:
                    raise ProfileError(
                        f"map {name!r} references undeclared {role} space {space!r}"
                    )
            if profile.is_identity:
                table = spaces[profile.source].gottlieb
                if clash := _first_disagreement(profile.relative_gottlieb, table):
                    degree, a, b = clash
                    raise ProfileError(
                        f"identity map {name!r} relative table at degree {degree} "
                        f"({a.describe()}) disagrees with the Gottlieb table of "
                        f"{profile.source!r} ({b.describe()})"
                    )
        _set(self, "spaces", spaces)
        _set(self, "maps", maps)

    @classmethod
    def of(cls, spaces: Iterable[SpaceProfile] = (), maps: Iterable[MapProfile] = ()) -> "ProfileDb":
        return cls({p.name: p for p in spaces}, {m.name: m for m in maps})

    def space(self, name: str) -> SpaceProfile:
        profile = self.spaces.get(name)
        if profile is None:
            raise ProfileError(f"no profile for space {name!r}")
        return profile

    def map(self, name: str) -> MapProfile:
        profile = self.maps.get(name)
        if profile is None:
            raise ProfileError(f"no profile for map {name!r}")
        return profile

    def atom_shifts(self) -> dict[str, tuple[int, ...]]:
        """Declared suspension shifts keyed by atom name, for the splitter."""
        return {
            name: profile.suspension_shifts
            for name, profile in self.spaces.items()
            if profile.suspension_shifts is not None
        }


class Incomplete(_Record):
    """A partial evaluation: what resolved, what did not, and why.

    ``missing`` lists terms whose tables had no answer, ``residuals`` the
    symbolic generalized terms that can never be looked up, and ``partial``
    the direct sum of everything that did resolve (None when the caller's
    partial value is not a group, e.g. for rank computations).
    """

    __slots__ = ("missing", "residuals", "partial")
    missing: tuple[str, ...]
    residuals: tuple[str, ...]
    partial: AbelianGroup | None

    def __init__(
        self,
        missing: tuple[str, ...] = (),
        residuals: tuple[str, ...] = (),
        partial: AbelianGroup | None = None,
    ) -> None:
        _set(self, "missing", missing)
        _set(self, "residuals", residuals)
        _set(self, "partial", partial)


# ---------------------------------------------------------------------------
# Document parsing.

_GROUP_KEYS = {"rank", "torsion"}
_NO_DEFAULT = object()  # the default of a key that every saved object of its kind has


def _located(path: str, build: Callable[[], _T]) -> _T:
    """``build()``, with ``path`` put on a ProfileError that was raised without one."""
    try:
        return build()
    except ProfileError as exc:
        if exc.path:
            raise
        raise ProfileError(str(exc), path) from exc


def _require_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ProfileError("expected an object", path)
    return value


def _check_keys(obj: dict, allowed, path: str) -> None:
    if not obj.keys() <= allowed:
        raise ProfileError(f"unknown key {min(obj.keys() - allowed)!r}", path)


def _group_from_json(value, path: str) -> AbelianGroup:
    if isinstance(value, str):
        try:
            return AbelianGroup.from_text(value)
        except (TypeError, ValueError) as exc:
            raise ProfileError(str(exc), path) from exc
    if not isinstance(value, dict):
        raise ProfileError("expected an object", path)
    if not value.keys() <= _GROUP_KEYS:
        raise ProfileError(f"unknown key {min(value.keys() - _GROUP_KEYS)!r}", path)
    rank = value.get("rank", 0)
    torsion = value.get("torsion", [])
    if not isinstance(torsion, list):
        raise ProfileError("torsion must be a list of [prime, exponent(, count)] items", path)
    try:
        if type(rank) is not int or rank < 0:
            _check_rank(rank)
        return _trusted(rank, _canonical_torsion(torsion))
    except (TypeError, ValueError) as exc:
        # Any item of the wrong shape fails the check above too; its own
        # message, for the first such item, comes before the check's.
        for item in torsion:
            if not isinstance(item, list) or len(item) not in (2, 3):
                raise ProfileError(
                    f"torsion item {item!r} is not a [prime, exponent] pair "
                    "or a [prime, exponent, count] triple",
                    path,
                ) from None
        raise ProfileError(str(exc), path) from exc


def _graded_from_json(value, path: str) -> GradedGroup:
    obj = _require_object(value, path)
    _check_keys(obj, _SCHEMA[GradedGroup].keys(), path)
    entries_obj = _require_object(obj.get("entries", {}), f"{path}.entries")
    zero_above = obj.get("zero_above")
    _holds_groups(entries_obj, zero_above)
    entries: dict[int, AbelianGroup] = {}
    for key, group_value in entries_obj.items():
        # The keys of a JSON object are strings; a degree's is [1-9][0-9]*.
        if not (key.isascii() and key.isdigit() and key[0] != "0"):
            raise ProfileError(
                f"degree key {key!r} must be a decimal string >= 1", f"{path}.entries"
            )
        try:
            degree = int(key)
        except ValueError:  # past the interpreter's digit limit
            raise ProfileError(
                f"degree key of {len(key)} digits is too long", f"{path}.entries"
            ) from None
        entries[degree] = _group_from_json(group_value, f"{path}.entries.{key}")
    if zero_above is not None and (isinstance(zero_above, bool) or not isinstance(zero_above, int)):
        raise ProfileError("zero_above must be an integer", f"{path}.zero_above")
    # Every degree is an integer >= 1 and every entry a group: only the
    # bound is left to check.
    _check_bound(entries, zero_above, path)
    return GradedGroup._trusted(entries, zero_above)


def _read(cls: type[_T], value, path: str, **fields) -> _T:
    """A ``cls`` record of ``fields`` and the document object ``value`` at ``path``.

    Flags are read in document order and the keys of other kinds in table
    order: of two bad keys, the first read is reported.
    """
    table = _SCHEMA[cls]
    obj = _require_object(value, path)
    _check_keys(obj, table.keys(), path)
    for key in obj if cls is Flags else table:
        reader, default = table[key]
        item = obj.get(key, default)
        if item is not default or default is _NO_DEFAULT:
            fields[key] = reader(item, f"{path}.{key}")
    return _located(path, lambda: cls(**fields))


def _must_be(kind: type, noun: str) -> Callable:
    """The reader of a key whose value must be a ``kind``, called ``noun``."""
    def read(value, path: str):
        if not isinstance(value, kind):
            raise ProfileError(f"{path.rpartition('.')[2]} must be {noun}", path)
        return value
    return read


def _flag(value, path: str) -> bool:
    if not isinstance(value, bool):
        flags, _, key = path.rpartition(".")
        raise ProfileError(f"flag {key!r} must be true, false, or null", flags)
    return value


def _map_end(value, path: str) -> str:
    if not isinstance(value, str):
        map_path, _, key = path.rpartition(".")
        raise ProfileError(f"map needs a string {key!r}", map_path)
    return value


# The document schema: for each object kind, its keys in the order they
# are read, each with its reader (of the key's value and path) and its
# default.  A key that is absent, or null with a null default, is not
# read, and ``save`` omits the fields equal to their defaults.  A key
# with ``_NO_DEFAULT`` is always read and always written.  The document
# and graded tables have their own readers, ``load`` and ``_graded_from_json``.
_SCHEMA: dict[type, dict[str, tuple]] = {
    ProfileDb: {"spaces": (None, _NO_DEFAULT), "maps": (None, _NO_DEFAULT)},
    SpaceProfile: {
        "betti": (_must_be(list, "a list"), None),
        "suspension_shifts": (_must_be(list, "a list"), None),
        "gottlieb": (_graded_from_json, GradedGroup()),
        "homotopy": (_graded_from_json, None),
        "flags": (partial(_read, Flags), Flags()),
    },
    MapProfile: {
        "source": (_map_end, _NO_DEFAULT),
        "target": (_map_end, _NO_DEFAULT),
        "is_identity": (_must_be(bool, "a boolean"), False),
        "relative_gottlieb": (_graded_from_json, GradedGroup()),
    },
    GradedGroup: {"entries": (None, _NO_DEFAULT), "zero_above": (None, None)},
    Flags: {key: (_flag, None) for key in ("simply_connected", "finite", "g_space", "t_space")},
}


def load(document: str) -> ProfileDb:
    """Parse and validate a profile document (JSON text)."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ProfileError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ProfileError("JSON document is nested too deeply") from exc
    except ValueError:
        # json.loads turns an integer literal past the interpreter's digit
        # limit into a plain ValueError whose advice does not apply here.
        raise ProfileError("JSON document holds an integer with too many digits") from None
    _require_object(doc, "document")
    _check_keys(doc, _SCHEMA[ProfileDb].keys(), "document")
    spaces_obj = _require_object(doc.get("spaces", {}), "spaces")
    maps_obj = _require_object(doc.get("maps", {}), "maps")
    spaces = {
        name: _read(SpaceProfile, value, f"spaces.{name}", name=name)
        for name, value in spaces_obj.items()
    }
    maps = {
        name: _read(MapProfile, value, f"maps.{name}", name=name)
        for name, value in maps_obj.items()
    }
    return _located("document", lambda: ProfileDb(spaces, maps))


# The names that other modules define, bound here on first access.
_DEFERRED = {
    "evaluate": "evaluation",
    "gottlieb_table_of_map_space": "evaluation",
    "group_to_json": "abelian",
    "save": "writer",
}


def __getattr__(name: str):
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module: -X importtime sees only the former.
    value = getattr(__import__(module, globals(), None, (name,), 1), name)
    globals()[name] = value
    return value
