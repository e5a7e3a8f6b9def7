"""Formal direct sums of graded group symbols.

A FormalSum is a multiset of terms with positive integer multiplicities,
kept in a canonical order so construction is deterministic and equality
is multiset equality.  Term kinds:

* ``GottliebTerm(space, degree)``      G_degree of a named space
* ``PiTerm(space, degree)``            homotopy group pi_degree of a named space
* ``RelTerm(map_name, degree)``        relative Gottlieb group of a named map
* ``GenGottliebTerm(source, k, target)``  generalized Gottlieb group of maps
  from the k-fold suspension of ``source`` into ``target``, kept symbolic

The text form is golden-tested: multiplicities print as ``2*``, terms as
``G[3](Y)``, ``pi[4](Y)``, ``Grel[4](f)`` and ``Gen[Σ^2 B -> Y]``, joined
by `` + ``; the empty sum prints as ``0``.
"""

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .spaces import SpaceExpr, _nat, format_space

__all__ = [
    "FormalSum",
    "GenGottliebTerm",
    "GottliebTerm",
    "PiTerm",
    "RelTerm",
    "Term",
    "term_text",
]


@dataclass(frozen=True)
class GottliebTerm:
    space: str
    degree: int

    def __post_init__(self) -> None:
        _nat(self.degree, "Gottlieb degree")


@dataclass(frozen=True)
class PiTerm:
    space: str
    degree: int

    def __post_init__(self) -> None:
        _nat(self.degree, "homotopy degree")


@dataclass(frozen=True)
class RelTerm:
    map_name: str
    degree: int

    def __post_init__(self) -> None:
        _nat(self.degree, "relative degree")


@dataclass(frozen=True)
class GenGottliebTerm:
    source: SpaceExpr
    suspensions: int
    target: SpaceExpr

    def __post_init__(self) -> None:
        _nat(self.suspensions, "suspension count")


def _trusted_term(cls: type, space: str, degree: int) -> "GottliebTerm | PiTerm":
    """A ``GottliebTerm`` or ``PiTerm`` whose degree is known to be >= 1, unchecked.

    For the engine, whose degrees are >= 1 by construction: the public
    constructors check every degree again in ``__post_init__``.
    """
    term = object.__new__(cls)
    fields = term.__dict__
    fields["space"] = space
    fields["degree"] = degree
    return term


def _trusted_gen(source: SpaceExpr, suspensions: int, target: SpaceExpr) -> GenGottliebTerm:
    """A ``GenGottliebTerm`` whose suspension count is known to be >= 1, unchecked."""
    term = object.__new__(GenGottliebTerm)
    fields = term.__dict__
    fields["source"] = source
    fields["suspensions"] = suspensions
    fields["target"] = target
    return term


Term = Union[GottliebTerm, PiTerm, RelTerm, GenGottliebTerm]

_KIND_ORDER = {GottliebTerm: 0, PiTerm: 1, RelTerm: 2, GenGottliebTerm: 3}


def term_text(term: Term) -> str:
    # Class patterns capture nothing: a positional capture costs about as
    # much again as the match itself.
    match term:
        case GottliebTerm():
            return f"G[{term.degree}]({term.space})"
        case PiTerm():
            return f"pi[{term.degree}]({term.space})"
        case RelTerm():
            return f"Grel[{term.degree}]({term.map_name})"
        case GenGottliebTerm():
            return (
                f"Gen[Σ^{term.suspensions} {format_space(term.source)} -> "
                f"{format_space(term.target)}]"
            )
    raise TypeError(f"not a term: {term!r}")


def _term_key(term: Term):
    kind = _KIND_ORDER[type(term)]
    match term:
        case GottliebTerm() | PiTerm():
            return (kind, term.space, term.degree)
        case RelTerm():
            return (kind, term.map_name, term.degree)
        case GenGottliebTerm():
            return (kind, format_space(term.source), term.suspensions, format_space(term.target))


@dataclass(frozen=True)
class FormalSum:
    """Canonically ordered multiset of terms with multiplicities >= 1."""

    terms: tuple[tuple[Term, int], ...] = ()

    def __post_init__(self) -> None:
        merged: dict[Term, int] = {}
        for term, mult in self.terms:
            if type(term) not in _KIND_ORDER:
                raise TypeError(f"not a term: {term!r}")
            if not isinstance(mult, int) or mult < 0:
                raise ValueError(f"multiplicity must be a non-negative integer, got {mult!r}")
            if mult:
                merged[term] = merged.get(term, 0) + mult
        canon = tuple(sorted(merged.items(), key=lambda pair: _term_key(pair[0])))
        object.__setattr__(self, "terms", canon)

    @classmethod
    def _trusted(cls, pairs: Iterable[tuple[Term, int]], ordered: bool) -> "FormalSum":
        """A FormalSum from distinct valid terms with multiplicities >= 1, unchecked.

        Sorts only when the pairs are not ``ordered`` canonically already.
        """
        terms = tuple(pairs)
        if not ordered:
            terms = tuple(sorted(terms, key=lambda pair: _term_key(pair[0])))
        formal_sum = object.__new__(cls)
        object.__setattr__(formal_sum, "terms", terms)
        return formal_sum

    @classmethod
    def zero(cls) -> "FormalSum":
        return cls()

    @classmethod
    def single(cls, term: Term, multiplicity: int = 1) -> "FormalSum":
        return cls(((term, multiplicity),))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Term, int]]) -> "FormalSum":
        return cls(tuple(pairs))

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return FormalSum(self.terms + other.terms)

    def scaled(self, factor: int) -> "FormalSum":
        if not isinstance(factor, int) or factor < 0:
            raise ValueError(f"scale factor must be a non-negative integer, got {factor!r}")
        return FormalSum(tuple((term, mult * factor) for term, mult in self.terms))

    def multiplicity(self, term: Term) -> int:
        return dict(self.terms).get(term, 0)

    def __iter__(self) -> Iterator[tuple[Term, int]]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        # ``term_text`` of each term, with the two common kinds read off
        # directly and each Gen source or target node formatted once: a
        # residual family shares its nodes between its terms.
        texts: dict[int, str] = {}

        def node_text(node: SpaceExpr) -> str:
            text = texts.get(id(node))
            if text is None:
                text = texts[id(node)] = format_space(node)
            return text

        parts = []
        for term, mult in self.terms:
            kind = type(term)
            if kind is GottliebTerm:
                text = f"G[{term.degree}]({term.space})"
            elif kind is GenGottliebTerm:
                text = (f"Gen[Σ^{term.suspensions} {node_text(term.source)} -> "
                        f"{node_text(term.target)}]")
            else:
                text = term_text(term)
            parts.append(text if mult == 1 else f"{mult}*{text}")
        return " + ".join(parts)
