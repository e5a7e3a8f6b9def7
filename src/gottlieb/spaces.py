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

No reader recurses.  ``parse_space`` is one loop over the tokens, and
``_postorder`` is the one walk of a tree, children before parents, that
``desugar``, ``==``, ``hash`` and ``splitting`` loop over; so depth is
bounded by the size budgets, not by the interpreter's recursion limit.
"""

import re
from dataclasses import dataclass
from operator import is_

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
    """Base class for space expression nodes; all nodes are immutable.

    Two expressions are equal when their ``_signature`` lists are, and
    the hash is that list's, so neither is bounded by the interpreter's
    recursion limit.  A node keeps its hash once computed, but not in a
    pickle: a name's hash differs from one process to the next.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return format_space(self)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, SpaceExpr):
            return NotImplemented
        return type(self) is type(other) and _signature(self) == _signature(other)

    def __hash__(self) -> int:
        fields = self.__dict__
        if "_hash" not in fields:
            fields["_hash"] = hash(tuple(_signature(self)))
        return fields["_hash"]

    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items() if name != "_hash"}


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


@dataclass(frozen=True, eq=False)
class Atom(SpaceExpr):
    name: str

    def __post_init__(self) -> None:
        if not is_valid_atom_name(self.name):
            raise ValueError(f"invalid or reserved atom name {self.name!r}")


@dataclass(frozen=True, eq=False)
class Sphere(SpaceExpr):
    dim: int

    def __post_init__(self) -> None:
        _nat(self.dim, "sphere dimension")


@dataclass(frozen=True, eq=False)
class Point(SpaceExpr):
    pass


@dataclass(frozen=True, eq=False)
class Wedge(SpaceExpr):
    children: tuple[SpaceExpr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", _children(self.children, "wedge"))


@dataclass(frozen=True, eq=False)
class Product(SpaceExpr):
    children: tuple[SpaceExpr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", _children(self.children, "product"))


@dataclass(frozen=True, eq=False)
class Susp(SpaceExpr):
    child: SpaceExpr
    count: int = 1

    def __post_init__(self) -> None:
        _nat(self.count, "suspension count")


@dataclass(frozen=True, eq=False)
class MapSpace(SpaceExpr):
    """Constant-map component of the free mapping space from ``source`` to ``target``.

    ``repr`` walks a chain of targets in a loop, so a deep iterated loop
    space prints the generated text without recursing.
    """

    source: SpaceExpr
    target: SpaceExpr

    def __repr__(self) -> str:
        # The generated repr's text, built along the chain of targets.
        sources, e = [], self
        while type(e) is MapSpace:
            sources.append(repr(e.source))
            e = e.target
        heads = "".join(f"MapSpace(source={source}, target=" for source in sources)
        return heads + repr(e) + ")" * len(sources)


@dataclass(frozen=True, eq=False)
class Torus(SpaceExpr):
    factors: int

    def __post_init__(self) -> None:
        _nat(self.factors, "torus factor count")


@dataclass(frozen=True, eq=False)
class Bouquet(SpaceExpr):
    circles: int

    def __post_init__(self) -> None:
        _nat(self.circles, "bouquet circle count")


@dataclass(frozen=True, eq=False)
class Loop(SpaceExpr):
    target: SpaceExpr
    iterations: int = 1

    def __post_init__(self) -> None:
        _nat(self.iterations, "loop iteration count")


@dataclass(frozen=True, eq=False)
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


_PUNCTUATION = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA"}


# Token kinds: NAME, INT, LPAREN, RPAREN, COMMA, END.
def _lex(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in _PUNCTUATION:
            tokens.append((_PUNCTUATION[ch], ch, i))
            i += 1
        elif ch == " " or ch.isspace():
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


def _unexpected(token: tuple[str, str, int], expected: tuple[str, ...]) -> SpaceParseError:
    shown = token[1] if token[1] else "end of input"
    return SpaceParseError(f"unexpected {shown!r}", token[2], expected)


# The keyword calls that take counts after their space, and what each
# count is called; a bouquet space's first count is required.
_COUNTED = {
    "susp": (Susp, ("suspension count",)),
    "loop": (Loop, ("loop iteration count",)),
    "bloop": (BouquetSpace, ("bouquet circle count", "iteration count")),
}
_INDEXED = {"S": Sphere, "T": Torus, "B": Bouquet}
_CALLS = frozenset(KEYWORDS) - {"pt"}


def parse_space(text: str) -> SpaceExpr:
    """Parse concrete syntax into a SpaceExpr, rejecting trailing input.

    One loop over the tokens: a keyword opens a call on ``calls``, and
    each finished space is taken by the innermost open call, which closes
    when its ``)`` follows.  Nesting is bounded only by the input.
    """
    tokens = _lex(text)
    calls: list[list] = []  # each open call: [keyword, arguments so far...]
    leaves: dict[str, SpaceExpr] = {}  # a name repeated in the text is one node
    i = 0
    while True:
        kind, value, at = tokens[i]
        if kind != "NAME":
            raise _unexpected(tokens[i], ("a space expression",))
        i += 1
        if value in _CALLS:
            if tokens[i][0] != "LPAREN":
                raise _unexpected(tokens[i], ("'('",))
            i += 1
            calls.append([value])
            continue
        node = leaves.get(value)
        if node is None:
            if m := INDEXED_RE.fullmatch(value):
                letter, digits = m.groups()
                if digits.startswith("0"):
                    raise SpaceParseError(f"reserved name {value!r} has a malformed index", at)
                node = _INDEXED[letter](_int_literal(digits, at + len(letter)))
            else:
                node = Point() if value == "pt" else Atom(value)
            leaves[value] = node
        # Close every call that ``node`` completes.
        while calls:
            call = calls[-1]
            call.append(node)
            keyword = call[0]
            kind = tokens[i][0]
            if keyword == "map":
                if len(call) == 2:
                    if kind != "COMMA":
                        raise _unexpected(tokens[i], ("','",))
                    i += 1
                    break
                if kind != "RPAREN":
                    raise _unexpected(tokens[i], ("')'",))
                node = MapSpace(call[1], call[2])
            elif keyword == "wedge" or keyword == "prod":
                if kind == "COMMA":
                    i += 1
                    break
                if kind != "RPAREN":
                    raise _unexpected(tokens[i], ("','", "')'"))
                node = (Wedge if keyword == "wedge" else Product)(tuple(call[1:]))
            else:
                cls, names = _COUNTED[keyword]
                for what in names:
                    if tokens[i][0] != "COMMA":
                        if keyword == "bloop" and len(call) == 2:
                            raise _unexpected(tokens[i], ("','",))
                        break
                    kind, digits, at = tokens[i + 1]
                    if kind != "INT":
                        raise _unexpected(tokens[i + 1], ("a positive integer",))
                    count = _int_literal(digits, at)
                    if count < 1:
                        raise SpaceParseError(f"{what} must be >= 1", at)
                    call.append(count)
                    i += 2
                if tokens[i][0] != "RPAREN":
                    raise _unexpected(tokens[i], ("','", "')'"))
                node = cls(*call[1:])
            i += 1
            calls.pop()
        else:
            if tokens[i][0] != "END":
                raise _unexpected(tokens[i], ("end of input",))
            return node


# Mapping nodes: a reader of a source's splitting stops at them.
_MAPPING = (MapSpace, Loop, BouquetSpace)
_PARENTS = frozenset({Wedge, Product, Susp, *_MAPPING})  # the kinds with children
_SUGAR = frozenset({Torus, Bouquet, Loop, BouquetSpace, Susp})  # what ``_copies`` reads


def _postorder(expr: SpaceExpr, leaves: tuple[type, ...] = ()) -> list[SpaceExpr]:
    """Every node of ``expr``, children before their parents and in order.

    The one walk of a space tree: each reader is a loop over this list
    with a stack of values, a node's children's values on top of it.
    Nodes whose kind is in ``leaves`` are listed without their children.
    """
    if type(expr) not in _PARENTS:
        return [expr]
    order, stack = [], [expr]
    while stack:
        e = stack.pop()
        order.append(e)
        kind = type(e)
        if kind not in _PARENTS or kind in leaves:
            continue
        if kind is Wedge or kind is Product:
            stack += e.children
        elif kind is Susp:
            stack.append(e.child)
        elif kind is MapSpace:
            stack.append(e.source)
            stack.append(e.target)
        elif kind is Loop or kind is BouquetSpace:
            stack.append(e.target)
    # Popped parent first and last child first: the reverse is the post-order.
    order.reverse()
    return order


def _signature(expr: SpaceExpr) -> list:
    """The kind and fields of every node of ``expr`` in post-order, with a
    wedge's or product's arity for its children: equal lists are exactly
    equal trees."""
    out = []
    for e in _postorder(expr):
        kind = type(e)
        out.append(kind)
        if kind is Wedge or kind is Product:
            out.append(len(e.children))
        elif kind is Susp:
            out.append(e.count)
        elif kind is Loop:
            out.append(e.iterations)
        elif kind is BouquetSpace:
            out += (e.circles, e.iterations)
        elif kind is Sphere:
            out.append(e.dim)
        elif kind is Atom:
            out.append(e.name)
        elif kind is Torus:
            out.append(e.factors)
        elif kind is Bouquet:
            out.append(e.circles)
    return out


_END_SOURCE = object()  # on ``format_space``'s stack: a mapping source ends here


def format_space(expr: SpaceExpr) -> str:
    """Canonical concrete syntax; inverse to ``parse_space`` on valid trees.

    A stack of nodes and of the literal text between them, written into
    one list, so the time is linear in the text.  A source node repeated
    along a chain of mapping spaces (as ``desugar`` repeats a loop's
    circle) is formatted once, and its run of levels written at once.
    """
    out, stack = [], [expr]
    starts, sources = [], []  # mapping sources being written, and where
    source = head = None  # the last mapping source written, and "map(<it>, "
    while stack:
        e = stack.pop()
        kind = type(e)
        if kind is str:
            out.append(e)
        elif kind is Atom:
            out.append(e.name)
        elif kind is Sphere:
            out.append(f"S{e.dim}")
        elif kind is MapSpace:
            if e.source is source:
                # The levels of a run over one source are written at once.
                levels = 0
                while type(e) is MapSpace and e.source is source:
                    levels += 1
                    e = e.target
                out.append(head * levels)
                stack.append(")" * levels)
                stack.append(e)
            else:
                stack.append(")")
                stack.append(e.target)
                stack.append(_END_SOURCE)
                stack.append(e.source)
                starts.append(len(out))
                sources.append(e.source)
        elif e is _END_SOURCE:
            start = starts.pop()
            source, head = sources.pop(), "".join(["map(", *out[start:], ", "])
            out[start:] = (head,)
        elif kind is Wedge or kind is Product:
            out.append("wedge(" if kind is Wedge else "prod(")
            stack.append(")")
            children = e.children
            for child in children[:0:-1]:
                stack += (child, ", ")
            stack.append(children[0])
        elif kind is Susp:
            out.append("susp(")
            stack += (")" if e.count == 1 else f", {e.count})", e.child)
        elif kind is Point:
            out.append("pt")
        elif kind is Torus:
            out.append(f"T{e.factors}")
        elif kind is Bouquet:
            out.append(f"B{e.circles}")
        elif kind is Loop:
            out.append("loop(")
            stack += (")" if e.iterations == 1 else f", {e.iterations})", e.target)
        elif kind is BouquetSpace:
            out.append("bloop(")
            counts = (e.circles,) if e.iterations == 1 else (e.circles, e.iterations)
            stack += ("".join(f", {n}" for n in counts) + ")", e.target)
        else:
            raise TypeError(f"not a space expression: {e!r}")
    return "".join(out)


def desugar(expr: SpaceExpr) -> SpaceExpr:
    """Expand sugar nodes and merge nested suspensions.

    Torus(N) becomes a product of N circles, Bouquet(m) a wedge of m
    circles, Loop and BouquetSpace become nested MapSpace nodes (outermost
    iteration outermost), and Susp(Susp(x, a), b) becomes Susp(x, a + b).
    The result is a fixed point of ``desugar``, and a fixed point, with
    no sugar and no nested suspension, is returned as is.  An expression
    of more than ``EXPANSION_CEILING`` copies (``_copies``) raises
    ``ValueError`` before any node is built.  Both read the walk's list
    of nodes, so depth is bounded by the ceiling and the input alone.
    """
    nodes = _postorder(expr)
    copies, nested = _copies(nodes)
    if copies > EXPANSION_CEILING:
        raise ValueError(
            f"expansion of {_count_text(copies)} copies is over the ceiling of "
            f"{EXPANSION_CEILING}"
        )
    if not copies and not nested:
        return expr
    return _expand(nodes)


def _count_text(n: int) -> str:
    """``n`` in decimal, or by its digit count past the interpreter's
    printing limit (4300 digits by default), where ``str`` refuses it."""
    try:
        return str(n)
    except ValueError:
        digits = int((n.bit_length() - 1) * 0.30102999566398120) + 1  # log10(2)
        return f"<{digits + (n >= 10**digits)}-digit number>"


def _copies(nodes: list[SpaceExpr]) -> tuple[int, bool]:
    """Copies that expanding the walk's ``nodes`` builds, summed over the
    whole expression, and whether it holds a suspension of a suspension.

    One per circle of a ``T<N>`` or ``B<m>`` and one per level of a
    ``loop`` or ``bloop``, whose bouquet is built once for all its levels.
    """
    if _SUGAR.isdisjoint(map(type, nodes)):
        return 0, False
    total, nested = 0, False
    for e in nodes:
        kind = type(e)
        if kind is Susp:
            nested = nested or type(e.child) is Susp
        elif kind is Loop:
            total += e.iterations
        elif kind is BouquetSpace:
            total += e.circles + e.iterations
        elif kind is Torus:
            total += e.factors
        elif kind is Bouquet:
            total += e.circles
    return total, nested


def _circles(n: int) -> SpaceExpr:
    return Sphere(1) if n == 1 else Wedge((Sphere(1),) * n)


def _expand(nodes: list[SpaceExpr]) -> SpaceExpr:
    """The desugared tree of the walk's ``nodes``.  A subtree with nothing
    to expand is kept as is; a loop's levels share one circle node, a
    bouquet space's one bouquet."""
    done: list[SpaceExpr] = []
    for e in nodes:
        kind = type(e)
        if kind is Wedge or kind is Product:
            k = len(e.children)
            children = tuple(done[-k:])
            del done[-k:]
            if not all(map(is_, children, e.children)):
                e = kind(children)
        elif kind is MapSpace:
            target = done.pop()
            source = done.pop()
            if source is not e.source or target is not e.target:
                e = MapSpace(source, target)
        elif kind is Susp:
            child = done.pop()
            if type(child) is Susp:
                e = Susp(child.child, child.count + e.count)
            elif child is not e.child:
                e = Susp(child, e.count)
        elif kind is Loop or kind is BouquetSpace:
            out, source = done.pop(), _circles(1 if kind is Loop else e.circles)
            for _ in range(e.iterations):
                out = MapSpace(source, out)
            e = out
        elif kind is Torus:
            e = Sphere(1) if e.factors == 1 else Product((Sphere(1),) * e.factors)
        elif kind is Bouquet:
            e = _circles(e.circles)
        elif kind is not Atom and kind is not Sphere and kind is not Point:
            raise TypeError(f"not a space expression: {e!r}")
        done.append(e)
    return done[0]
