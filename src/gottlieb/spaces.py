"""Expression language for based spaces and mapping spaces.

Concrete syntax (whitespace-insensitive, ASCII)::

    Space ::= Atom | "S" Nat | "pt" | "T" Nat | "B" Nat
            | "wedge" "(" Space {"," Space} ")"
            | "prod"  "(" Space {"," Space} ")"
            | "susp"  "(" Space ["," Nat] ")"
            | "map"   "(" Space "," Space ")"
            | "loop"  "(" Space ["," Nat] ")"
            | "bloop" "(" Space "," Nat ["," Nat] ")"
    Atom  ::= identifier [A-Za-z][A-Za-z0-9_]*, excluding the reserved forms
    Nat   ::= decimal integer >= 1, no leading zeros

``S5`` is the 5-sphere, ``pt`` the one-point space, ``T3`` the 3-torus,
``B2`` the wedge of two circles.  ``map(X, Y)`` is map(X, Y; 0), the
component of the constant maps in the free (unbased) mapping space, so
``loop(Y) = map(S1, Y)``; ``loop(Y, N)`` is the N-fold iterated free loop
space and ``bloop(Y, m, N)`` its m-circle bouquet analogue, both kept as
explicit nodes so closed forms can fire before desugaring.

``parse_space`` and ``format_space`` are mutually inverse on the abstract
syntax: ``parse_space(format_space(e)) == e`` for every well-formed tree,
and formatting normalizes nothing but whitespace.  ``desugar`` removes the
Torus/Bouquet/Loop/BouquetSpace sugar and merges nested suspensions; it is
idempotent, and it is the only code that expands a count, under
``EXPANSION_CEILING``.
"""

import re
from dataclasses import dataclass

from .names import IDENT_RE, INDEXED_RE, KEYWORDS, is_valid_atom_name

__all__ = [
    "EXPANSION_CEILING",
    "Atom",
    "Bouquet",
    "BouquetSpace",
    "Loop",
    "MapSpace",
    "Point",
    "Product",
    "SpaceExpr",
    "SpaceParseError",
    "Sphere",
    "Susp",
    "Torus",
    "Wedge",
    "atom_name",
    "desugar",
    "format_space",
    "is_valid_atom_name",
    "parse_space",
]

# Copies ``desugar`` may build in one call; see ``_copies``.
EXPANSION_CEILING = 100_000


class SpaceExpr:
    """Base class for space expression nodes; all nodes are immutable."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_space(self)


def _nat(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{what} must be >= 1, got {value}")
    return value


def _children(value, what: str) -> tuple:
    items = tuple(value)
    if not items:
        raise ValueError(f"{what} needs at least one factor")
    for item in items:
        if not isinstance(item, SpaceExpr):
            raise TypeError(f"{what} factor must be a SpaceExpr, got {item!r}")
    return items


@dataclass(frozen=True)
class Atom(SpaceExpr):
    name: str

    def __post_init__(self) -> None:
        if not is_valid_atom_name(self.name):
            raise ValueError(f"invalid or reserved atom name {self.name!r}")


@dataclass(frozen=True)
class Sphere(SpaceExpr):
    dim: int

    def __post_init__(self) -> None:
        _nat(self.dim, "sphere dimension")


@dataclass(frozen=True)
class Point(SpaceExpr):
    pass


@dataclass(frozen=True)
class Wedge(SpaceExpr):
    children: tuple[SpaceExpr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", _children(self.children, "wedge"))


@dataclass(frozen=True)
class Product(SpaceExpr):
    children: tuple[SpaceExpr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", _children(self.children, "product"))


@dataclass(frozen=True)
class Susp(SpaceExpr):
    child: SpaceExpr
    count: int = 1

    def __post_init__(self) -> None:
        _nat(self.count, "suspension count")


@dataclass(frozen=True)
class MapSpace(SpaceExpr):
    """Constant-map component of the free mapping space from ``source`` to ``target``.

    Equality, hashing and ``repr`` walk a chain of targets in a loop, so a
    deep iterated loop space is not bounded by the interpreter's recursion
    limit.
    """

    source: SpaceExpr
    target: SpaceExpr

    def __eq__(self, other) -> bool:
        if type(other) is not MapSpace:
            return NotImplemented
        a, b = self, other
        while type(a) is MapSpace and type(b) is MapSpace:
            if a is b:
                return True
            if a.source != b.source:
                return False
            a, b = a.target, b.target
        return a == b

    def __hash__(self) -> int:
        sources, e = [], self
        while type(e) is MapSpace:
            sources.append(e.source)
            e = e.target
        return hash((tuple(sources), e))

    def __repr__(self) -> str:
        # The generated repr's text, built along the chain of targets.
        sources, e = [], self
        while type(e) is MapSpace:
            sources.append(repr(e.source))
            e = e.target
        heads = "".join(f"MapSpace(source={source}, target=" for source in sources)
        return heads + repr(e) + ")" * len(sources)


@dataclass(frozen=True)
class Torus(SpaceExpr):
    factors: int

    def __post_init__(self) -> None:
        _nat(self.factors, "torus factor count")


@dataclass(frozen=True)
class Bouquet(SpaceExpr):
    circles: int

    def __post_init__(self) -> None:
        _nat(self.circles, "bouquet circle count")


@dataclass(frozen=True)
class Loop(SpaceExpr):
    target: SpaceExpr
    iterations: int = 1

    def __post_init__(self) -> None:
        _nat(self.iterations, "loop iteration count")


@dataclass(frozen=True)
class BouquetSpace(SpaceExpr):
    target: SpaceExpr
    circles: int
    iterations: int = 1

    def __post_init__(self) -> None:
        _nat(self.circles, "bouquet circle count")
        _nat(self.iterations, "iteration count")


def atom_name(target) -> str:
    """Name of a target given either as an Atom node or as an atom name."""
    if isinstance(target, Atom):
        return target.name
    if isinstance(target, str):
        return target
    raise TypeError(f"target must be an atom or atom name, got {target!r}")


class SpaceParseError(ValueError):
    """Syntax error with the offending position and the expected token set."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = tuple(expected)
        detail = f"{message} at position {position}"
        if self.expected:
            detail += " (expected " + ", ".join(self.expected) + ")"
        super().__init__(detail)


_DIGITS_RE = re.compile(r"[0-9]+")


# Token kinds: NAME, INT, LPAREN, RPAREN, COMMA, END.
def _lex(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == "(":
            tokens.append(("LPAREN", ch, i))
            i += 1
        elif ch == ")":
            tokens.append(("RPAREN", ch, i))
            i += 1
        elif ch == ",":
            tokens.append(("COMMA", ch, i))
            i += 1
        elif "0" <= ch <= "9":  # str.isdigit() also accepts non-ASCII digits
            digits = _DIGITS_RE.match(text, i).group(0)
            if digits.startswith("0") and len(digits) > 1:
                raise SpaceParseError(f"number {digits!r} has a leading zero", i)
            tokens.append(("INT", digits, i))
            i += len(digits)
        elif m := IDENT_RE.match(text, i):
            tokens.append(("NAME", m.group(0), i))
            i = m.end()
        else:
            raise SpaceParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", n))
    return tokens


def _int_literal(digits: str, at: int) -> int:
    # int() refuses literals past the interpreter's digit limit (4300 by
    # default); report that as a syntax error at the literal.
    try:
        return int(digits)
    except ValueError:
        message = f"integer literal of {len(digits)} digits is too long"
        raise SpaceParseError(message, at) from None


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self, kind: str, expected: tuple[str, ...]) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            shown = tok[1] if tok[1] else "end of input"
            raise SpaceParseError(f"unexpected {shown!r}", tok[2], expected)
        self.pos += 1
        return tok

    def nat(self, what: str) -> int:
        tok = self.take("INT", ("a positive integer",))
        value = _int_literal(tok[1], tok[2])
        if value < 1:
            raise SpaceParseError(f"{what} must be >= 1", tok[2])
        return value

    def space(self) -> SpaceExpr:
        kind, value, at = self.peek()
        if kind != "NAME":
            shown = value if value else "end of input"
            raise SpaceParseError(f"unexpected {shown!r}", at, ("a space expression",))
        self.pos += 1
        if value == "pt":
            return Point()
        if value in KEYWORDS:
            return self.call(value, at)
        if m := INDEXED_RE.fullmatch(value):
            letter, digits = m.groups()
            if digits.startswith("0"):
                raise SpaceParseError(
                    f"reserved name {value!r} has a malformed index", at
                )
            index = _int_literal(digits, at + len(letter))
            return {"S": Sphere, "T": Torus, "B": Bouquet}[letter](index)
        return Atom(value)

    def call(self, keyword: str, at: int) -> SpaceExpr:
        self.take("LPAREN", ("'('",))
        if keyword in ("wedge", "prod"):
            children = [self.space()]
            while self.peek()[0] == "COMMA":
                self.pos += 1
                children.append(self.space())
            self.take("RPAREN", ("','", "')'"))
            return (Wedge if keyword == "wedge" else Product)(tuple(children))
        if keyword == "susp":
            child = self.space()
            count = 1
            if self.peek()[0] == "COMMA":
                self.pos += 1
                count = self.nat("suspension count")
            self.take("RPAREN", ("','", "')'"))
            return Susp(child, count)
        if keyword == "map":
            source = self.space()
            self.take("COMMA", ("','",))
            target = self.space()
            self.take("RPAREN", ("')'",))
            return MapSpace(source, target)
        if keyword == "loop":
            target = self.space()
            iterations = 1
            if self.peek()[0] == "COMMA":
                self.pos += 1
                iterations = self.nat("loop iteration count")
            self.take("RPAREN", ("','", "')'"))
            return Loop(target, iterations)
        if keyword == "bloop":
            target = self.space()
            self.take("COMMA", ("','",))
            circles = self.nat("bouquet circle count")
            iterations = 1
            if self.peek()[0] == "COMMA":
                self.pos += 1
                iterations = self.nat("iteration count")
            self.take("RPAREN", ("','", "')'"))
            return BouquetSpace(target, circles, iterations)
        raise SpaceParseError(f"{keyword!r} is reserved", at)  # pragma: no cover


def parse_space(text: str) -> SpaceExpr:
    """Parse concrete syntax into a SpaceExpr, rejecting trailing input."""
    parser = _Parser(_lex(text))
    expr = parser.space()
    parser.take("END", ("end of input",))
    return expr


def format_space(expr: SpaceExpr) -> str:
    """Canonical concrete syntax; inverse to ``parse_space`` on valid trees.

    A chain of mapping spaces is printed along its targets in a loop, a
    source node repeated along it (as ``desugar`` repeats a loop's circle)
    formatted once.
    """
    heads, source, head = [], None, ""
    while isinstance(expr, MapSpace):
        if expr.source is not source:
            source = expr.source
            head = f"map({format_space(source)}, "
        heads.append(head)
        expr = expr.target
    return "".join(heads) + _format_node(expr) + ")" * len(heads)


def _format_node(expr: SpaceExpr) -> str:
    # Here and in _expand and _desugar_node, class patterns capture nothing:
    # a positional capture costs about as much again per node as the match.
    match expr:
        case Atom():
            return expr.name
        case Sphere():
            return f"S{expr.dim}"
        case Point():
            return "pt"
        case Torus():
            return f"T{expr.factors}"
        case Bouquet():
            return f"B{expr.circles}"
        case Wedge():
            return "wedge(" + ", ".join(format_space(c) for c in expr.children) + ")"
        case Product():
            return "prod(" + ", ".join(format_space(c) for c in expr.children) + ")"
        case Susp():
            if expr.count == 1:
                return f"susp({format_space(expr.child)})"
            return f"susp({format_space(expr.child)}, {expr.count})"
        case Loop():
            if expr.iterations == 1:
                return f"loop({format_space(expr.target)})"
            return f"loop({format_space(expr.target)}, {expr.iterations})"
        case BouquetSpace():
            if expr.iterations == 1:
                return f"bloop({format_space(expr.target)}, {expr.circles})"
            return f"bloop({format_space(expr.target)}, {expr.circles}, {expr.iterations})"
    raise TypeError(f"not a space expression: {expr!r}")


def desugar(expr: SpaceExpr) -> SpaceExpr:
    """Expand sugar nodes and merge nested suspensions.

    Torus(N) becomes a product of N circles, Bouquet(m) a wedge of m
    circles, Loop and BouquetSpace become nested MapSpace nodes (outermost
    iteration outermost), and Susp(Susp(x, a), b) becomes Susp(x, a + b).
    The result is a fixed point of ``desugar``, and a fixed point, with
    no sugar and no nested suspension, is returned as is.  An expression
    of more than ``EXPANSION_CEILING`` copies (``_copies``) raises
    ``ValueError`` before any node is built.  Chains of mapping spaces are
    walked along their targets in a loop, so a deep iterated loop space,
    sugared or already desugared, is not bounded by the interpreter's
    recursion limit.
    """
    copies, nested = _copies(expr)
    if copies > EXPANSION_CEILING:
        raise ValueError(
            f"expansion of {_count_text(copies)} copies is over the ceiling of "
            f"{EXPANSION_CEILING}"
        )
    if not copies and not nested:
        return expr
    return _expand(expr)


def _count_text(n: int) -> str:
    """``n`` in decimal, or by its digit count past the interpreter's
    printing limit (4300 digits by default), where ``str`` refuses it."""
    try:
        return str(n)
    except ValueError:
        digits = int((n.bit_length() - 1) * 0.30102999566398120) + 1  # log10(2)
        return f"<{digits + (n >= 10**digits)}-digit number>"


def _copies(expr: SpaceExpr) -> tuple[int, bool]:
    """Copies that expanding ``expr`` builds, summed over the whole
    expression, and whether it holds a suspension of a suspension.

    One per circle of a ``T<N>`` or ``B<m>`` and one per level of a
    ``loop`` or ``bloop``, whose bouquet is built once for all its levels.
    """
    total, nested, stack = 0, False, [expr]
    while stack:
        # Dispatch on the exact type: class patterns cost several times more
        # per node, and this runs on every desugar call.
        e = stack.pop()
        kind = type(e)
        if kind is MapSpace:
            stack += (e.source, e.target)
        elif kind is Wedge or kind is Product:
            stack += e.children
        elif kind is Susp:
            stack.append(e.child)
            nested = nested or type(e.child) is Susp
        elif kind is Loop:
            total += e.iterations
            stack.append(e.target)
        elif kind is BouquetSpace:
            total += e.circles + e.iterations
            stack.append(e.target)
        elif kind is Torus:
            total += e.factors
        elif kind is Bouquet:
            total += e.circles
    return total, nested


def _expand(expr: SpaceExpr) -> SpaceExpr:
    levels: list[tuple[SpaceExpr, int]] = []  # (source, repeats), outermost first
    e = expr
    while True:
        match e:
            case MapSpace():
                levels.append((_expand(e.source), 1))
            case Loop():
                levels.append((Sphere(1), e.iterations))
            case BouquetSpace():
                levels.append((_desugar_node(Bouquet(e.circles)), e.iterations))
            case _:
                break
        e = e.target
    out = _desugar_node(e)
    for source, repeats in reversed(levels):
        for _ in range(repeats):
            out = MapSpace(source, out)
    return out


def _desugar_node(expr: SpaceExpr) -> SpaceExpr:
    match expr:
        case Atom() | Sphere() | Point():
            return expr
        case Wedge():
            return Wedge(tuple(_expand(c) for c in expr.children))
        case Product():
            return Product(tuple(_expand(c) for c in expr.children))
        case Susp():
            inner = _expand(expr.child)
            if isinstance(inner, Susp):
                return Susp(inner.child, inner.count + expr.count)
            return Susp(inner, expr.count)
        case Torus():
            if expr.factors == 1:
                return Sphere(1)
            return Product((Sphere(1),) * expr.factors)
        case Bouquet():
            if expr.circles == 1:
                return Sphere(1)
            return Wedge((Sphere(1),) * expr.circles)
    raise TypeError(f"not a space expression: {expr!r}")
