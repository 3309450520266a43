"""Bounded symbolic checking of the powerset-frame refutation.

States describe subsets of the naturals one parity side at a time: each side
is either a finite set or a cofinite set given by its finite removal. Under
the refutation valuation built from a periodic tiling, every satisfaction
claim made for the body conjuncts can be checked over a finite universe of
such states, with box quantification restricted to states of bounded
representation depth and diamond quantification restricted to the
decomposition shapes the conjuncts actually use. The universe closed under
those decompositions is a finite frame, one world per state and one triple
per decomposition, which the shared semantics.Evaluator checks for all
conjuncts in one pass. The checker works on int state codes end to end: it
builds SymState objects only for a failing conjunct's witness. A passing
report certifies the bounded fragment only, and says so.
"""

from __future__ import annotations

import itertools

from tilemodal import formula as fm
from tilemodal import reduction
from tilemodal.frames import POWERSET_MODES as MODES, Frame
from tilemodal.record import Record
from tilemodal.semantics import Evaluator
from tilemodal.tiling import PeriodicTiling, TileSet

FIN = "fin"
COFIN = "cofin"

_set = object.__setattr__


class SidePart(Record):
    """One parity side: a finite member set or a cofinite removal set."""

    __slots__ = ("kind", "elems")

    def __init__(self, kind: str, elems: frozenset[int]):
        if kind not in (FIN, COFIN):
            raise ValueError(f"bad kind {kind!r}")
        _set(self, "kind", kind)
        _set(self, "elems", frozenset(elems))

    def is_empty(self) -> bool:
        return self.kind == FIN and not self.elems


class SymState(Record):
    """A subset of the naturals split into its even and odd sides."""

    __slots__ = ("even", "odd")

    def __init__(self, even: SidePart, odd: SidePart):
        if any(e % 2 for e in even.elems):
            raise ValueError("even side mentions odd numbers")
        if any(e % 2 == 0 for e in odd.elems):
            raise ValueError("odd side mentions even numbers")
        _set(self, "even", even)
        _set(self, "odd", odd)

    def is_empty(self) -> bool:
        return self.even.is_empty() and self.odd.is_empty()

    def depth(self) -> int:
        return len(self.even.elems) + len(self.odd.elems)


def fin(elems=()) -> SidePart:
    return SidePart(FIN, frozenset(elems))


def cofin(removed=()) -> SidePart:
    return SidePart(COFIN, frozenset(removed))


#: The state denoting all of the naturals.
def state_n() -> SymState:
    return SymState(cofin(), cofin())


def singleton(n: int) -> SymState:
    if n % 2 == 0:
        return SymState(fin({n}), fin())
    return SymState(fin(), fin({n}))


# -- int codes ------------------------------------------------------------------
#
# A side's code holds bit i for element 2i (even side) or 2i + 1 (odd side),
# i < _WIDTH, plus the _COFIN bit; a state's code is even | odd << _SHIFT.
# Unions and overlaps are bit operations on codes. The universe, the
# decompositions, the refutation valuation and the closure work on codes
# only; SymState is the readable form of the public functions.

_WIDTH = 5  # the window at depth 4
_COFIN = 1 << _WIDTH
_SHIFT = _WIDTH + 1
_SIDE = (1 << _SHIFT) - 1
_ELEMS = (_COFIN - 1) | (_COFIN - 1) << _SHIFT


def _encode(s: SymState) -> int:
    code = 0
    for shift, side in ((0, s.even), (_SHIFT, s.odd)):
        elems = sum(1 << (e // 2) for e in side.elems)
        if elems >> _WIDTH:
            raise ValueError(f"{render_state(s)} mentions an element above {2 * _WIDTH - 1}")
        code |= (elems | (_COFIN if side.kind == COFIN else 0)) << shift
    return code


def _decode(code: int) -> SymState:
    sides = []
    for parity, side in ((0, code & _SIDE), (1, code >> _SHIFT)):
        elems = frozenset(2 * i + parity for i in range(_WIDTH) if side >> i & 1)
        sides.append(SidePart(COFIN if side & _COFIN else FIN, elems))
    return SymState(*sides)


def _depth(code: int) -> int:
    return (code & _ELEMS).bit_count()


#: The letters of one side: removal parity even, odd, and the singleton.
_X_LETTERS = ("x_e", "x_o", "x'")
_Y_LETTERS = ("y_e", "y_o", "y'")


def eval_atom(s: SymState, letter: str, tau: PeriodicTiling, w: TileSet) -> bool:
    """The refutation valuation at a state; see _classifier."""
    return _classifier(tau, w)(_encode(s)) == letter


def _classifier(tau: PeriodicTiling, w: TileSet):
    """The refutation valuation as a function from a code to the one letter
    true there, or None. An x-letter needs an empty odd side and a y-letter
    an empty even side: the parity letters hold on a cofinite side with the
    matching removal parity, the primed letters on a singleton. A tile
    letter needs two cofinite sides, and holds where the tiling assigns its
    tile to the pair of removal counts. The three cases exclude each other,
    so at most one letter holds at any state."""
    tiles = {t: name for t, name in enumerate(w.names)
             if name not in reduction.STRUCTURAL_LETTERS}

    def letter(code: int) -> str | None:
        even, odd = code & _SIDE, code >> _SHIFT
        if even and odd:
            if even & odd & _COFIN:
                return tiles.get(tau.tile_at(_depth(even), _depth(odd)))
            return None
        own, names = (even, _X_LETTERS) if even else (odd, _Y_LETTERS)
        if own & _COFIN:
            return names[_depth(own) & 1]
        return names[2] if _depth(own) == 1 else None
    return letter


def universe(depth: int, mode: str = "union") -> list[SymState]:
    """All states whose member or removal sets draw on the first ``depth``
    elements of each side, with total representation depth at most ``depth``.
    Deterministic order; the empty state is dropped in nonempty mode."""
    if not 0 <= depth <= 4:
        raise ValueError("depth must be between 0 and 4")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return [_decode(c) for c in _universe(depth, mode)]


def _universe(depth: int, mode: str) -> list[int]:
    """universe on codes, in its order: by depth, then by the even side, then
    the odd, where a side orders cofinite first, then by the size of its set,
    then by its elements, which is the order the sides are generated in."""
    window = [1 << i for i in range(depth + 1)]
    sides = [kind | sub for kind in (_COFIN, 0) for sub in _subsets(window, depth)]
    codes = [even | odd << _SHIFT for even in sides for odd in sides]
    return sorted((c for c in codes if _depth(c) <= depth
                   and (c or mode != "union_nonempty")), key=_depth)


def render_state(s: SymState) -> str:
    def side(p: SidePart) -> str:
        elems = ",".join(str(e) for e in sorted(p.elems))
        return f"{p.kind}({elems})"

    return f"even={side(s.even)};odd={side(s.odd)}"


def decompositions(s: SymState, depth: int, mode: str = "union"):
    """Ordered decomposition pairs (s1, s2) with s1 union s2 = s.

    Yields, deduplicated and in a fixed order: the unique even/odd split;
    singleton peels in both argument orders, both with and (in union mode)
    without removing the peeled element from the rest; and same-side
    growth pairs splitting a cofinite removal. These cover every diamond and
    hook shape occurring in the body conjuncts up to the given depth.
    """
    if depth > 4:
        raise ValueError("depth must be at most 4")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    pairs = dict.fromkeys(_pairs(_encode(s), depth, mode))
    return [(_decode(a), _decode(b)) for a, b in pairs]


def _pairs(s: int, depth: int, mode: str) -> list[tuple[int, int]]:
    """decompositions on codes, in its order but not deduplicated: a pair
    may come more than once, which _closure reads as once. Only pairs whose
    union in the mode is s are
    generated: a singleton overlaps the whole state and two cofinite sides
    always overlap, so disjoint mode has no idempotent peels and no growth
    pairs, and nonempty mode drops the pairs with an empty part."""
    nonempty, disjoint = mode == "union_nonempty", mode == "disjoint_union"
    window = (1 << depth + 1) - 1
    # rests may overshoot the universe depth by one so peels remain available
    # at maximum-depth states; they are only evaluated, never box-quantified
    limit = depth + 1
    even, odd = s & _SIDE, s >> _SHIFT
    out = [] if nonempty and not (even and odd) else [(even, odd << _SHIFT)]
    add = out.append
    # peelable: the members of a finite side, the window elements a
    # cofinite side keeps; in ascending order of the element, so at each
    # window position the even element before the odd one
    peel_even = window & ~even if even & _COFIN else even
    peel_odd = window & ~odd if odd & _COFIN else odd
    both = peel_even | peel_odd
    while both:
        low = both & -both
        both ^= low
        for sing in (low & peel_even, (low & peel_odd) << _SHIFT):
            if sing:
                rest = s ^ sing
                if _depth(rest) <= limit and (rest or not nonempty):
                    add((sing, rest))
                    add((rest, sing))
                if not disjoint:
                    add((sing, s))
                    add((s, sing))
    if not disjoint:
        # same-side splits of a cofinite side into two larger removals whose
        # intersection is the original removal; the other side rides along.
        # The right part ranges over the subsets disjoint from the left,
        # which keeps the order of the subsets of the free elements.
        room = limit - _depth(s)
        for shift in (0, _SHIFT):
            side = s >> shift & _SIDE
            if side & _COFIN:
                grown = [s | a for a in _subsets(
                    [1 << i + shift for i in range(depth + 1) if not side >> i & 1], room)]
                for a in grown:
                    for b in grown:
                        if a & b == s:
                            add((a, b))
    return out


def _subsets(bits: list[int], most: int):
    """Unions of at most `most` of the bits, by size, then in combination order."""
    for r in range(min(len(bits), most) + 1):
        for combo in itertools.combinations(bits, r):
            yield sum(combo)


def _closure(codes: list[int], depth: int, mode: str) -> Frame:
    """Extends the state codes with every state their decompositions reach,
    in place, and returns the frame over them: a world per code, and a
    triple (s, a, b) for each decomposition pair (a, b) of each state s.

    The closure appends each code the first time a pair reaches it, and
    writes each triple straight into the frame's index by its left
    argument, bit s of cell (a, b)."""
    index = {c: i for i, c in enumerate(codes)}
    rows: dict[int, dict[int, int]] = {}
    x = 0
    while x < len(codes):
        bit = 1 << x
        for a, b in _pairs(codes[x], depth, mode):
            y = index.get(a)
            if y is None:
                y = index[a] = len(codes)
                codes.append(a)
            z = index.get(b)
            if z is None:
                z = index[b] = len(codes)
                codes.append(b)
            row = rows.get(y)
            if row is None:
                row = rows[y] = {}
            row[z] = row.get(z, 0) | bit
        x += 1
    return Frame.from_rows(len(codes), rows)


def _satisfaction(w: TileSet, tau: PeriodicTiling, codes: list[int], depth: int,
                  mode: str, dag: fm.Dag) -> list[int]:
    """Extends the state codes with their _closure, in place, and returns
    the satisfaction set of each dag op over them as a mask (bit i for
    codes[i]) under the refutation valuation.

    The diamond reads the closure frame's triples, so a box nested in the
    dag ranges over them only. The valuation is read in one pass over the
    closed codes, one _classifier call per code."""
    frame = _closure(codes, depth, mode)
    valuation = {a: 0 for kind, a, _ in dag.ops if kind == fm.VAR}
    letter = _classifier(tau, w)
    for i, c in enumerate(codes):
        a = letter(c)
        if a in valuation:
            valuation[a] |= 1 << i
    return Evaluator(frame).masks(dag, valuation)


class ConjunctReport(Record):
    __slots__ = ("name", "status", "witness", "note")

    def __init__(self, name: str, status: str, witness: SymState | None, note: str):
        _set(self, "name", name)
        _set(self, "status", status)
        _set(self, "witness", witness)
        _set(self, "note", note)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


class Report(Record):
    """Per-conjunct outcome of the bounded refutation check.

    A full pass means the refutation claims hold on the depth-bounded
    fragment of the powerset frame; it is not a proof of refutation in the
    full frame."""

    __slots__ = ("mode", "depth", "entries")

    def __init__(self, mode: str, depth: int, entries: tuple[ConjunctReport, ...] = ()):
        _set(self, "mode", mode)
        _set(self, "depth", depth)
        _set(self, "entries", entries)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def render_lines(self) -> list[str]:
        out = []
        for e in self.entries:
            state = render_state(e.witness) if e.witness is not None else "-"
            out.append(f"conjunct={e.name} status={e.status} state={state}")
        return out

    def render_text(self) -> str:
        lines = [
            f"bounded refutation check: mode={self.mode} depth={self.depth}",
            "box quantifiers range over the depth-bounded state universe only;",
            "a pass certifies the bounded fragment, not full refutation.",
        ]
        for e in self.entries:
            mark = "pass" if e.passed else "FAIL"
            lines.append(f"  [{mark}] {e.name}: {e.note}")
            if e.witness is not None:
                lines.append(f"         witness {render_state(e.witness)}")
        verdict = "all conjuncts pass" if self.passed else "some conjuncts fail"
        lines.append(verdict)
        return "\n".join(lines)


_BOX_NOTE = (
    "box restricted to the bounded universe; products only hold on two-sided "
    "cofinite states, which the universe covers at this depth"
)


class _Unboxed(fm.Dag):
    """A Dag that leaves each box to its reader: a box compiles to its
    argument, whose index joins ``boxed``. check_refutation reads a boxed
    body at every universe state, where the closure frame's own box would
    reach only the states its triples lead to."""

    def __init__(self):
        super().__init__()
        self.boxed: set[int] = set()

    def _box(self, a: int) -> int:
        self.boxed.add(a)
        return a


def check_refutation(w: TileSet, tau: PeriodicTiling, depth: int,
                     mode: str = "union") -> Report:
    """Check each body conjunct of the tiling formula at the top state.

    The seed conjunct is evaluated at the all-naturals state; every boxed
    conjunct is evaluated at all universe states. All conjuncts share one
    Dag, evaluated in one pass over the closure frame. Failures carry the
    offending state: for a boxed conjunct, the first in universe order.
    """
    if not 1 <= depth <= 4:
        raise ValueError("depth must be between 1 and 4")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    codes = _universe(depth, mode)
    boxed, seed_at = (1 << len(codes)) - 1, codes.index(_encode(state_n()))
    dag = _Unboxed()
    roots = reduction.conjuncts(w, dag)
    sat = _satisfaction(w, tau, codes, depth, mode, dag)
    entries = []
    for name, i in roots:
        if i in dag.boxed:
            failing = boxed & ~sat[i]
            witness = _decode(codes[(failing & -failing).bit_length() - 1]) if failing else None
            entries.append(ConjunctReport(name, "fail" if failing else "pass",
                                          witness, _BOX_NOTE))
        else:
            ok = sat[i] >> seed_at & 1
            entries.append(ConjunctReport(
                name, "pass" if ok else "fail",
                None if ok else state_n(),
                "checked at the all-naturals state",
            ))
    return Report(mode, depth, tuple(entries))
