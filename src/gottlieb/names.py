"""The lexicon of atom names, shared by the parser and the profile schema.

An atom is an identifier that is neither a keyword of the expression
language nor an indexed form (``S5``, ``T3``, ``B2``).  ``spaces`` parses
with these patterns; ``profiles`` checks declared names with
``is_valid_atom_name`` without loading the parser.
"""

import re

__all__ = ["IDENT_RE", "INDEXED_RE", "KEYWORDS", "is_valid_atom_name"]

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
INDEXED_RE = re.compile(r"([STB])([0-9]+)\Z")
KEYWORDS = ("wedge", "prod", "susp", "map", "loop", "bloop", "pt")


def is_valid_atom_name(name: str) -> bool:
    """True when ``name`` can denote a user atom (identifier, not reserved)."""
    return (
        isinstance(name, str)
        and IDENT_RE.fullmatch(name) is not None
        and name not in KEYWORDS
        and INDEXED_RE.fullmatch(name) is None
    )
