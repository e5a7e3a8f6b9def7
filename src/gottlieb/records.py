"""The frozen value record and the profile layer's error, with no group code.

``_Record`` is the base of ``AbelianGroup`` and of every record of
``profiles``, and ``ProfileError`` is what the profile layer raises and
the CLI reports with exit 3.  Neither needs a group, so this module
imports nothing of the package: a process compiles the group layer
(``abelian`` and ``numtheory``) only when one of its documents, tables or
evaluations first holds a group, and a CLI command that reads no profile
compiles no profile code at all, though ``main`` catches ``ProfileError``.
A fresh CLI ``decompose --expr "map(T2, Y)" --degree 1`` went from 91.9 to
79.5 ms, median of 10 alternating pairs (``scripts/cli_times.py``,
CPython 3.11.7, 2-CPU x86-64, no bytecode cache).
"""

from operator import attrgetter

__all__ = ["ProfileError"]

# Sets a field of a record, whose own __setattr__ refuses every assignment.
_set = object.__setattr__


class ProfileError(ValueError):
    """Schema or invariant violation, with the document path that failed."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class _Record:
    """Base of the frozen value records of the profile layer.

    A subclass names its fields, two or more, in ``__slots__`` in constructor
    order, and sets each once in ``__init__`` through ``object.__setattr__``.  It gets
    what a frozen dataclass gives: field-wise ``==`` within one class
    (``NotImplemented`` against any other), a hash of the field values, so
    a record holding a dict is unhashable, the ``Name(field=value, ...)``
    repr, ``__match_args__`` and ``AttributeError`` on any assignment or
    deletion.  ``dataclasses`` is not used because importing it loads
    ``inspect`` and ``ast`` and generating each class's methods runs
    ``exec``: together about half of ``import gottlieb``.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__
        cls._values = attrgetter(*cls.__slots__)  # the tuple of field values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)
