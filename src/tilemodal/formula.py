"""Syntax of the binary-diamond modal language: AST, parser, printer, compiler.

Core connectives are negation, disjunction, and the binary diamond ``o``;
everything else (conjunction, implication, biconditional, constants, the two
hooks, and the box) is derived: :class:`Dag` compiles a formula into a
hash-consed op list over the core and the constant T, which every evaluator
interprets, and :func:`desugar` reads that expansion back as a core tree,
T spelled as excluded middle over TOP_LETTER.

The parser and the printer are driven by a notation's syntax table, so team
logic's notation is read and written by the same code as the modal one.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterator
from functools import partial
from itertools import islice

from tilemodal.record import Record

#: The letter whose excluded middle spells T in desugared text.
TOP_LETTER = "_top"

#: Identifier names with a fixed meaning in the concrete syntax.
RESERVED_WORDS = frozenset({"o", "T", "F"})

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


class Formula(Record):
    """Base class of all formula nodes. Instances are immutable and hashable;
    equality and hashing are structural, by the node types and letter names
    in pre-order (walk), and repr shows the rendered text."""

    __slots__ = ()
    # fields: the slots a node's classes declare, each filled by its class;
    # Top and Bottom, built as often as any node, skip Record's __init__
    __init__ = object.__init__

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {render(self)!r}>"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        return self is other or _key(self) == _key(other)

    def __hash__(self) -> int:
        return hash(_key(self))

    def _fields(self) -> tuple:
        return tuple([getattr(self, n) for c in type(self).__mro__[:-1] for n in c.__slots__])


class Letter(Formula):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not IDENT_RE.fullmatch(name) or name in RESERVED_WORDS:
            raise ValueError(f"invalid letter name: {name!r}")
        _set_name(self, name)


class _Unary(Formula):
    __slots__ = ("sub",)

    def __init__(self, sub: Formula):
        _set_sub(self, sub)


class _Binary(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _set_left(self, left)
        _set_right(self, right)


#: How a node's __init__ fills its fields: through the slots themselves, as
#: assignment raises.
_set_name, _set_sub = Letter.name.__set__, _Unary.sub.__set__
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__


class Neg(_Unary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Comp(_Binary):
    """Binary diamond: existential decomposition along the ternary relation."""

    __slots__ = ()


# -- derived connectives ----------------------------------------------------

class And(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


class Top(Formula):
    __slots__ = ()


class Bottom(Formula):
    __slots__ = ()


class HookR(_Binary):
    """``a @> b``: at x, every decomposition Rxyz with y sat a has z sat b."""

    __slots__ = ()


class HookL(_Binary):
    """``b <@ a``: at x, every decomposition Rxyz with z sat a has y sat b."""

    __slots__ = ()


class Box(_Unary):
    __slots__ = ()


def fold(join: Callable, empty: Callable, parts: list):
    """parts left-folded by join; empty() when there are none. join and
    empty build nodes: node types, or a Dag's encoders (see encoders)."""
    if not parts:
        return empty()
    acc = parts[0]
    for p in parts[1:]:
        acc = join(acc, p)
    return acc


def conj(parts: list[Formula]) -> Formula:
    """Left-folded conjunction; empty list gives Top."""
    return fold(And, Top, parts)


def disj(parts: list[Formula]) -> Formula:
    """Left-folded disjunction; empty list gives Bottom."""
    return fold(Or, Bottom, parts)


def desugar(f: Formula) -> Formula:
    """Expand derived connectives as the evaluators do, reading the core
    tree back from f's Dag. Idempotent: core nodes are fixed points."""
    return to_dag(f).tree()


# -- compiled form -------------------------------------------------------------

#: Op kinds of a compiled formula: letter, negation, disjunction, diamond, T.
VAR, NOT, OR, DIA, TOP = "var", "not", "or", "dia", "top"


class Dag:
    """The desugared core of formulas as a hash-consed op list.

    ops[i] is (VAR, name, None), (NOT, a, None), (OR, a, b), (DIA, a, b) or
    (TOP, None, None), a and b indexing earlier ops, so one pass in index
    order evaluates every op; equal subterms share one index (hash-consing:
    Filliatre and Conchon, 2006). Only here, with _ENCODE, are derived
    connectives encoded: hooks as negative diamonds, the box as its
    three-conjunct hook definition, and F as the negation of T.
    """

    def __init__(self, f: Formula | None = None):
        self.ops: list[tuple[str, str | int, int | None]] = []
        self._index: dict[tuple, int] = {}
        if f is not None:
            self.add(f)

    def _op(self, kind: str, a=None, b: int | None = None) -> int:
        op = (kind, a, b)
        i = self._index.get(op)
        if i is None:
            i = self._index[op] = len(self.ops)
            self.ops.append(op)
        return i

    def add(self, f: Formula) -> int:
        """Index of f's desugared core, appending the ops not yet present.

        Subformulas are compiled before their parents, left to right, from
        explicit stacks, so nesting depth is not bounded by recursion:
        visiting each node before its children, right child first, lists
        the nodes in reverse post-order."""
        nodes, arities, todo, encode = [], [], [f], _ENCODE
        while todo:
            g = todo.pop()
            n = _ARITY.get(type(g))
            if n is None:
                raise TypeError(f"not a Formula: {g!r}")
            nodes.append(g)
            arities.append(n)
            if n == 1:
                todo.append(g.sub)
            elif n:
                todo += (g.left, g.right)
        done: list[int] = []
        for g, n in zip(reversed(nodes), reversed(arities)):
            if n == 2:
                right = done.pop()
                done.append(encode[type(g)](self, done.pop(), right))
            elif n:
                done.append(encode[type(g)](self, done.pop()))
            else:
                done.append(self._op(VAR, g.name) if type(g) is Letter
                            else encode[type(g)](self))
        return done[0]

    def _not(self, a: int) -> int:
        return self._op(NOT, a)

    def _and(self, a: int, b: int) -> int:
        return self._not(self._op(OR, self._not(a), self._not(b)))

    def _iff(self, a: int, b: int) -> int:
        return self._and(self._op(OR, self._not(a), b), self._op(OR, self._not(b), a))

    def _top(self) -> int:
        return self._op(TOP)

    def _hook_r(self, a: int, b: int) -> int:
        return self._not(self._op(DIA, a, self._not(b)))

    def _hook_l(self, a: int, b: int) -> int:
        return self._not(self._op(DIA, self._not(a), b))

    def _box(self, a: int) -> int:
        top = self._top()
        once = self._hook_r(top, a)
        return self._and(self._and(once, self._hook_l(a, top)), self._hook_l(once, top))

    def tree(self) -> Formula:
        """The core tree of the last op, T read as TOP_LETTER | ~TOP_LETTER;
        the subtree of each op is one object."""
        nodes: list[Formula] = []
        top = Letter(TOP_LETTER)
        for kind, a, b in self.ops:
            nodes.append(Letter(a) if kind == VAR else Or(top, Neg(top)) if kind == TOP
                         else Neg(nodes[a]) if kind == NOT
                         else (Or if kind == OR else Comp)(nodes[a], nodes[b]))
        return nodes[-1]

    def tree_size(self) -> int:
        """node_count(self.tree()), without building the tree."""
        sizes: list[int] = []
        for kind, a, b in self.ops:
            sizes.append(1 if kind == VAR else 4 if kind == TOP
                         else 1 + sizes[a] + (b is not None and sizes[b]))
        return sizes[-1]


#: How each node type but Letter (a VAR op of its name) compiles into ops
#: of the Dag d, given the op indices of its children.
_ENCODE = {
    Neg: lambda d, a: d._not(a),
    Or: lambda d, a, b: d._op(OR, a, b),
    Comp: lambda d, a, b: d._op(DIA, a, b),
    And: lambda d, a, b: d._and(a, b),
    Implies: lambda d, a, b: d._op(OR, d._not(a), b),
    Iff: lambda d, a, b: d._iff(a, b),
    Top: lambda d: d._top(),
    Bottom: lambda d: d._not(d._top()),
    HookR: lambda d, a, b: d._hook_r(a, b),
    HookL: lambda d, a, b: d._hook_l(a, b),
    Box: lambda d, a: d._box(a),
}


def encoders(dag: Dag) -> dict[type, Callable[..., int]]:
    """The node types as builders of dag's ops: entry T adds the ops of a T
    node given its children's op indices (Letter: its name) and returns the
    node's index, as dag.add compiles it; for the reduction and extraction,
    which emit ops with no tree in between."""
    return {Letter: partial(dag._op, VAR),
            **{node: partial(encode, dag) for node, encode in _ENCODE.items()}}


#: How many children each node type has: none, `sub`, or `left` and `right`.
_ARITY = {Letter: 0, Top: 0, Bottom: 0, Neg: 1, Box: 1, Or: 2, Comp: 2, And: 2,
          Implies: 2, Iff: 2, HookR: 2, HookL: 2}


def walk(f: Formula) -> Iterator[Formula]:
    """The nodes of f in pre-order: each node, then its left subtree, then
    its right; from an explicit stack, so nesting depth is not bounded by
    recursion. A node that is not a Formula is yielded, then TypeError."""
    todo = [f]
    while todo:
        g = todo.pop()
        yield g
        n = _ARITY.get(type(g))
        if n is None:
            raise TypeError(f"not a Formula: {g!r}")
        todo += (g.right, g.left) if n == 2 else (g.sub,) if n else ()


def _key(f: Formula) -> tuple:
    """f's node types and letter names in pre-order: by the arities, they determine f."""
    return tuple([g.name if type(g) is Letter else type(g) for g in walk(f)])


def to_dag(f: Formula | Dag) -> Dag:
    """f compiled into a Dag whose last op is f's root; a Dag as it is."""
    return f if isinstance(f, Dag) else Dag(f)


def node_count(f: Formula) -> int:
    """Number of AST nodes, counting derived nodes as single nodes."""
    return sum(1 for _ in walk(f))


def letters(f: Formula) -> set[str]:
    """Letter names occurring in f, counting TOP_LETTER for T and F."""
    return {g.name if type(g) is Letter else TOP_LETTER
            for g in walk(f) if type(g) in (Letter, Top, Bottom)}


# -- concrete syntax ---------------------------------------------------------
#
# A notation is a syntax table: (token, precedence, associativity) for each
# node type but Letter. render prints from it, and parser reads it back with
# a tokenizer and parse tables derived from it. The modal notation, loosest
# to tightest:
#   <->  ->  @>/<@  |  &  o  prefix(~, [])
# <-> and -> are right-associative, the hooks non-associative, and |, &, o
# left-associative.

_PREC_IFF = 1
_PREC_IMPLIES = 2
_PREC_HOOK = 3
_PREC_OR = 4
_PREC_AND = 5
_PREC_COMP = 6
_PREC_PREFIX = 7
_PREC_ATOM = 8


class FormulaSyntaxError(ValueError):
    """Parse failure, carrying the byte offset, the acceptable tokens, and
    the offending token as printed (``end of input`` at the end)."""

    def __init__(self, text: str, pos: int, expected: set[str], found: str):
        self.offset = len(text[:pos].encode("utf-8"))
        self.expected = frozenset(expected)
        self.found = repr(found) if found else "end of input"
        exp = ", ".join(sorted(self.expected))
        super().__init__(
            f"syntax error at byte {self.offset}: expected {exp}, found {self.found}"
        )


#: Printed form of each node type: (token, precedence, associativity).
_SYNTAX = {
    Top: ("T", _PREC_ATOM, None), Bottom: ("F", _PREC_ATOM, None),
    Neg: ("~", _PREC_PREFIX, None), Box: ("[]", _PREC_PREFIX, None),
    Comp: ("o", _PREC_COMP, "left"), And: ("&", _PREC_AND, "left"),
    Or: ("|", _PREC_OR, "left"), HookR: ("@>", _PREC_HOOK, "none"),
    HookL: ("<@", _PREC_HOOK, "none"), Implies: ("->", _PREC_IMPLIES, "right"),
    Iff: ("<->", _PREC_IFF, "right"),
}


def parser(syntax: dict, error: type[ValueError]) -> Callable[[str], Formula]:
    """The parse function of a notation, the inverse of render(-, syntax).

    A token spelled like a letter is a keyword of the notation; the other
    tokens and the brackets are symbols, matched longest first. A node type
    without children gives a constant, one with a child a prefix, one with
    two a binary operator. A failure raises error(text, pos, expected,
    found): the character index, the acceptable tokens ("a token" when none
    starts there), and the offending token, '' at the end of input.

    Operator precedence over explicit stacks: an open bracket saves the
    operands, operators and pending prefixes of the level around it, so
    nesting depth is not bounded by recursion."""
    tokens = {token: node for node, (token, _, _) in syntax.items()}
    words = {t for t in tokens if IDENT_RE.fullmatch(t)}
    symbols = sorted(tokens.keys() - words | {"(", ")"}, key=len, reverse=True)
    # after optional whitespace, a word or a symbol, a stray character, or
    # the end: every position matches, so trailing whitespace is read once
    token_re = re.compile(
        rf"\s*(?:({IDENT_RE.pattern}|{'|'.join(map(re.escape, symbols))})|(\S)|\Z)")
    # a token's kind is the token itself, "end" at the end, or else "ident"
    kinds = {**{t: t for t in tokens}, "(": "(", ")": ")", "": "end"}
    constants = {t for t, node in tokens.items() if _ARITY[node] == 0}
    prefixes = {t for t, node in tokens.items() if _ARITY[node] == 1}
    binary = {t: (prec, assoc)
              for node, (t, prec, assoc) in syntax.items() if _ARITY[node] == 2}
    operand = {"a letter", "(", *constants, *prefixes}

    def fail(text: str, i: int, expected: set[str], found: str) -> ValueError:
        """The error at token i of text, whose position is found again only
        here."""
        m = next(islice(token_re.finditer(text), i, None))
        return error(text, m.start(m.lastindex) if m.lastindex else len(text),
                     expected, found)

    def reduce(operands: list[Formula], operators: list[str], least: int) -> None:
        """Apply the stacked operators binding at least as tightly as least."""
        while operators and binary[operators[-1]][0] >= least:
            right = operands.pop()
            operands[-1] = tokens[operators.pop()](operands[-1], right)

    def parse(text: str) -> Formula:
        toks = token_re.findall(text)  # (token, stray character), ('', '') at the end
        i = next((i for i, (_, stray) in enumerate(toks) if stray), None)
        if i is not None:
            raise fail(text, i, {"a token"}, toks[i][1])
        i, outer, pending, seen = 0, [], [], {}  # pending: each open operand's prefixes
        operands: list[Formula] = []
        operators: list[str] = []
        while True:  # at an operand
            mark = len(pending)
            value, i = toks[i][0], i + 1
            kind = kinds.get(value, "ident")
            while kind in prefixes:
                pending.append(tokens[kind])
                value, i = toks[i][0], i + 1
                kind = kinds.get(value, "ident")
            if kind == "(":
                outer.append((operands, operators, mark))
                operands, operators = [], []
                continue
            if kind == "ident":  # one Letter per name in a parse
                f = seen[value] if value in seen else seen.setdefault(value, Letter(value))
            elif kind in constants:
                f = tokens[kind]()
            else:
                raise fail(text, i - 1, operand, value)
            while True:  # f ends an operand; a binary operator may follow
                while len(pending) > mark:
                    f = pending.pop()(f)
                operands.append(f)
                value = toks[i][0]
                kind = kinds.get(value, "ident")
                if kind in binary:
                    prec, assoc = binary[kind]
                    reduce(operands, operators, prec if assoc == "left" else prec + 1)
                    # unbracketed, a non-associative operator cannot follow its like
                    if assoc != "none" or not operators or binary[operators[-1]][0] != prec:
                        operators.append(kind)
                        i += 1
                        break
                reduce(operands, operators, 0)
                f = operands.pop()
                if not outer:
                    if kind != "end":
                        raise fail(text, i, {"end of input"}, value)
                    return f
                if kind != ")":
                    raise fail(text, i, {")"}, value)
                i += 1
                operands, operators, mark = outer.pop()

    return parse


#: Parse the modal notation; derived tokens give derived nodes.
parse = parser(_SYNTAX, FormulaSyntaxError)


def render(f: Formula, syntax: dict = _SYNTAX) -> str:
    """Minimal-parenthesis text; parse(render(f)) is structurally equal to f.

    syntax gives (token, precedence, associativity) for each node type but
    Letter: the modal table by default, or another notation's, such as team
    logic's. A node's arity says whether its token stands alone, before its
    argument, or between its two. Written left to right from an explicit stack of pending text and
    (node, least precedence printable bare) pairs, so nesting depth is not
    bounded by recursion."""
    out, todo = [], [(f, 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        g, need = item
        if type(g) is Letter:
            out.append(g.name)
            continue
        if type(g) not in syntax:
            raise TypeError(f"cannot render {g!r}")
        token, prec, assoc = syntax[type(g)]
        arity = _ARITY[type(g)]
        if prec < need:
            out.append("(")
            todo.append(")")
        if arity == 2:
            lneed = prec if assoc == "left" else prec + 1
            rneed = prec if assoc == "right" else prec + 1
            todo += ((g.right, rneed), f" {token} ", (g.left, lneed))
        else:
            out.append(token)
            if arity:
                todo.append((g.sub, prec))
    return "".join(out)
