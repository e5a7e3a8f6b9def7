"""Profile documents written as text: ``save``.

``save`` writes the indent-2, key-sorted layout of ``json.dumps``
directly (the standard encoder is pure Python when it indents): each
record of ``profiles._SCHEMA`` as the object of its fields that differ
from their defaults, and each group in the structural form, [p, k] for
one summand Z/p^k and [p, k, count] for more, in (p, k) order, which the
reader takes as it stands.  A table's groups go straight through
``_dump_group``, and a test pins the bytes to the standard encoder's
output.  ``save`` is a name of ``profiles`` too, which compiles this
module on its first access, so loading a document needs none of it.
``group_to_json`` is ``abelian``'s, bound here as well.
"""

from functools import cache
from json.encoder import encode_basestring_ascii as _dump_str

from .abelian import AbelianGroup, group_to_json
from .profiles import _SCHEMA, ProfileDb

__all__ = ["group_to_json", "save"]


def _dump(value, level: int) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it.

    A record of ``_SCHEMA`` is written as the object of its fields that
    differ from their defaults.  Its fields hold records, dicts (keys are
    written and sorted as strings), lists, tuples, strings, ints, bools and
    AbelianGroup values, which ``_dump_group`` writes in the form of
    ``group_to_json``.  ``level`` is the depth of ``value`` in the document.
    """
    if isinstance(value, AbelianGroup):
        return _dump_group(value, _group_layout(level))
    if value.__class__ in _SCHEMA:
        value = {key: field for key, (_, default) in _SCHEMA[value.__class__].items()
                 if (field := getattr(value, key)) != default}
    if isinstance(value, dict):
        if not value:
            return "{}"
        pad = "\n" + "  " * (level + 1)
        layout = _group_layout(level + 1)  # a table's groups are written here directly
        items = [
            f"{_dump_str(key)}: {_dump_group(item, layout)}" if item.__class__ is AbelianGroup
            else f"{_dump_str(key)}: {_dump(item, level + 1)}"
            for key, item in sorted(zip(map(str, value), value.values()))
        ]
        return "{" + pad + ("," + pad).join(items) + "\n" + "  " * level + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        pad = "\n" + "  " * (level + 1)
        items = [_dump(item, level + 1) for item in value]
        return "[" + pad + ("," + pad).join(items) + "\n" + "  " * level + "]"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return _dump_str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dump_group(group: AbelianGroup, layout: tuple[str, str, str, str, str]) -> str:
    # The [p, k] and [p, k, count] items are most of a saved document, so
    # each is one %-format of a template built once for its depth.
    empty, full, pair, triple, sep = layout
    if not group.torsion:
        return empty % group.rank
    items = sep.join([
        pair % (p, k) if count == 1 else triple % (p, k, count) for p, k, count in group.torsion
    ])
    return full % (group.rank, items)


@cache
def _group_layout(level: int) -> tuple[str, str, str, str, str]:
    pad0, pad1, pad2, pad3 = ("\n" + "  " * (level + i) for i in range(4))
    rank = "{" + pad1 + '"rank": %d,' + pad1 + '"torsion": '
    return (
        rank + "[]" + pad0 + "}",
        rank + "[" + pad2 + "%s" + pad1 + "]" + pad0 + "}",
        "[" + pad3 + "%d," + pad3 + "%d" + pad2 + "]",
        "[" + pad3 + "%d," + pad3 + "%d," + pad3 + "%d" + pad2 + "]",
        "," + pad2,
    )


def save(db: ProfileDb) -> str:
    """Serialize a database; ``load(save(db))`` reproduces ``db`` exactly."""
    return _dump(db, 0)
