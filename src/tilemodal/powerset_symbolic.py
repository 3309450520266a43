"""Bounded symbolic checking of the powerset-frame refutation.

States describe subsets of the naturals one parity side at a time: each side
is either a finite set or a cofinite set given by its finite removal. Under
the refutation valuation built from a periodic tiling, every satisfaction
claim made for the body conjuncts can be checked over a finite universe of
such states, with box quantification restricted to states of bounded
representation depth and diamond quantification restricted to the
decomposition shapes the conjuncts actually use. A passing report certifies
the bounded fragment only, and says so.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from tilemodal import formula as fm
from tilemodal import reduction
from tilemodal.tiling import PeriodicTiling, TileSet

MODES = ("union", "disjoint_union", "union_nonempty")

FIN = "fin"
COFIN = "cofin"


@dataclass(frozen=True)
class SidePart:
    """One parity side: a finite member set or a cofinite removal set."""

    kind: str
    elems: frozenset[int]

    def __post_init__(self):
        if self.kind not in (FIN, COFIN):
            raise ValueError(f"bad kind {self.kind!r}")
        object.__setattr__(self, "elems", frozenset(self.elems))

    def is_empty(self) -> bool:
        return self.kind == FIN and not self.elems


@dataclass(frozen=True)
class SymState:
    """A subset of the naturals split into its even and odd sides."""

    even: SidePart
    odd: SidePart

    def __post_init__(self):
        if any(e % 2 for e in self.even.elems):
            raise ValueError("even side mentions odd numbers")
        if any(e % 2 == 0 for e in self.odd.elems):
            raise ValueError("odd side mentions even numbers")

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


def state_evens() -> SymState:
    return SymState(cofin(), fin())


def state_odds() -> SymState:
    return SymState(fin(), cofin())


def singleton(n: int) -> SymState:
    if n % 2 == 0:
        return SymState(fin({n}), fin())
    return SymState(fin(), fin({n}))


def contains(s: SymState, n: int) -> bool:
    side = s.even if n % 2 == 0 else s.odd
    return (n in side.elems) if side.kind == FIN else (n not in side.elems)


def _side_union(a: SidePart, b: SidePart) -> SidePart:
    if a.kind == FIN and b.kind == FIN:
        return SidePart(FIN, a.elems | b.elems)
    if a.kind == COFIN and b.kind == COFIN:
        return SidePart(COFIN, a.elems & b.elems)
    removed, members = (a.elems, b.elems) if a.kind == COFIN else (b.elems, a.elems)
    return SidePart(COFIN, removed - members)


def _side_overlap(a: SidePart, b: SidePart) -> bool:
    if a.kind == FIN and b.kind == FIN:
        return bool(a.elems & b.elems)
    if a.kind == COFIN and b.kind == COFIN:
        return True
    removed, members = (a.elems, b.elems) if a.kind == COFIN else (b.elems, a.elems)
    return bool(members - removed)


def sym_union(a: SymState, b: SymState, mode: str = "union") -> SymState | None:
    """Canonical union of two states; None in disjoint mode when they overlap."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "disjoint_union" and (
        _side_overlap(a.even, b.even) or _side_overlap(a.odd, b.odd)
    ):
        return None
    return SymState(_side_union(a.even, b.even), _side_union(a.odd, b.odd))


def eval_atom(s: SymState, letter: str, tau: PeriodicTiling, w: TileSet) -> bool:
    """The refutation valuation: parity letters hold on one-sided states with
    the matching removal parity, the primed letters on singletons of their
    side, and a tile letter where both sides are cofinite and the tiling
    assigns that tile to the pair of removal counts."""
    if letter == "x_e":
        return (s.odd.is_empty() and s.even.kind == COFIN
                and len(s.even.elems) % 2 == 0)
    if letter == "x_o":
        return (s.odd.is_empty() and s.even.kind == COFIN
                and len(s.even.elems) % 2 == 1)
    if letter == "y_e":
        return (s.even.is_empty() and s.odd.kind == COFIN
                and len(s.odd.elems) % 2 == 0)
    if letter == "y_o":
        return (s.even.is_empty() and s.odd.kind == COFIN
                and len(s.odd.elems) % 2 == 1)
    if letter == "x'":
        return s.odd.is_empty() and s.even.kind == FIN and len(s.even.elems) == 1
    if letter == "y'":
        return s.even.is_empty() and s.odd.kind == FIN and len(s.odd.elems) == 1
    if letter in w.names:
        if s.even.kind == COFIN and s.odd.kind == COFIN:
            t = tau.tile_at(len(s.even.elems), len(s.odd.elems))
            return t == w.names.index(letter)
        return False
    return False


def even_window(depth: int) -> list[int]:
    """One more window element than the depth, so maximum-depth states always
    keep a peelable element on each cofinite side."""
    return [2 * i for i in range(depth + 1)]


def odd_window(depth: int) -> list[int]:
    return [2 * i + 1 for i in range(depth + 1)]


def universe(depth: int, mode: str = "union") -> list[SymState]:
    """All states whose member or removal sets draw on the first ``depth``
    elements of each side, with total representation depth at most ``depth``.
    Deterministic order; the empty state is dropped in nonempty mode."""
    if not 0 <= depth <= 4:
        raise ValueError("depth must be between 0 and 4")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    sides_even = _side_universe(even_window(depth), depth)
    sides_odd = _side_universe(odd_window(depth), depth)
    out = []
    for ev in sides_even:
        for od in sides_odd:
            if len(ev.elems) + len(od.elems) > depth:
                continue
            s = SymState(ev, od)
            if mode == "union_nonempty" and s.is_empty():
                continue
            out.append(s)
    out.sort(key=_state_key)
    return out


def _side_universe(window: list[int], depth: int) -> list[SidePart]:
    parts = []
    for kind in (FIN, COFIN):
        for r in range(min(len(window), depth) + 1):
            for combo in itertools.combinations(window, r):
                parts.append(SidePart(kind, frozenset(combo)))
    return parts


def _side_key(p: SidePart):
    return (p.kind, len(p.elems), tuple(sorted(p.elems)))


def _state_key(s: SymState):
    return (s.depth(), _side_key(s.even), _side_key(s.odd))


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
    pairs: dict[tuple[SymState, SymState], None] = {}
    # rests may overshoot the universe depth by one so peels remain available
    # at maximum-depth states; they are only evaluated, never box-quantified
    limit = depth + 1

    def emit(a: SymState, b: SymState):
        if mode == "union_nonempty" and (a.is_empty() or b.is_empty()):
            return
        if sym_union(a, b, mode) == s:
            pairs[(a, b)] = None

    emit(SymState(s.even, fin()), SymState(fin(), s.odd))

    for n in _peelable(s, depth):
        sing = singleton(n)
        rest = _without(s, n)
        if rest is not None and rest.depth() <= limit:
            emit(sing, rest)
            emit(rest, sing)
        emit(sing, s)
        emit(s, sing)

    for grown_a, grown_b in _cofin_growth_pairs(s, depth):
        emit(grown_a, grown_b)

    return list(pairs)


def _peelable(s: SymState, depth: int) -> list[int]:
    out = []
    for side, window in ((s.even, even_window(depth)), (s.odd, odd_window(depth))):
        if side.kind == FIN:
            out.extend(sorted(side.elems))
        else:
            out.extend(n for n in window if n not in side.elems)
    return sorted(out)


def _without(s: SymState, n: int) -> SymState | None:
    side = s.even if n % 2 == 0 else s.odd
    if side.kind == FIN:
        if n not in side.elems:
            return None
        new = SidePart(FIN, side.elems - {n})
    else:
        if n in side.elems:
            return None
        new = SidePart(COFIN, side.elems | {n})
    if n % 2 == 0:
        return SymState(new, s.odd)
    return SymState(s.even, new)


def _cofin_growth_pairs(s: SymState, depth: int):
    """Same-side splits of a cofinite side into two larger removals whose
    intersection is the original removal; the other side rides along whole."""
    out = []
    for pick_even in (True, False):
        side = s.even if pick_even else s.odd
        if side.kind != COFIN:
            continue
        window = even_window(depth) if pick_even else odd_window(depth)
        free = [n for n in window if n not in side.elems]
        for a_size in range(len(free) + 1):
            for a_combo in itertools.combinations(free, a_size):
                remaining = [n for n in free if n not in a_combo]
                for b_size in range(len(remaining) + 1):
                    for b_combo in itertools.combinations(remaining, b_size):
                        part_a = SidePart(COFIN, side.elems | set(a_combo))
                        part_b = SidePart(COFIN, side.elems | set(b_combo))
                        if pick_even:
                            sa = SymState(part_a, s.odd)
                            sb = SymState(part_b, s.odd)
                        else:
                            sa = SymState(s.even, part_a)
                            sb = SymState(s.even, part_b)
                        if sa.depth() <= depth + 1 and sb.depth() <= depth + 1:
                            out.append((sa, sb))
    return out


class _SymEvaluator:
    """Satisfaction at states, op by op over one Dag shared by every formula
    asked about, memoised per (state, op index)."""

    def __init__(self, w: TileSet, tau: PeriodicTiling, depth: int, mode: str):
        self.w, self.tau, self.depth, self.mode = w, tau, depth, mode
        self.dag = fm.Dag()
        self._memo: dict[tuple[SymState, int], bool] = {}
        self._pairs: dict[SymState, list] = {}

    def pairs(self, s: SymState):
        hit = self._pairs.get(s)
        if hit is None:
            hit = self._pairs[s] = decompositions(s, self.depth, self.mode)
        return hit

    def sat(self, s: SymState, f: fm.Formula) -> bool:
        return self.holds(s, self.dag.add(f))

    def holds(self, s: SymState, i: int) -> bool:
        """Whether op i of the dag holds at s; a diamond ranges over the
        decomposition shapes only, so a box nested in f would too.
        Negations are not memoised: they cost less than a lookup."""
        kind, a, b = self.dag.ops[i]
        if kind == fm.NOT:
            return not self.holds(s, a)
        key = (s, i)
        hit = self._memo.get(key)
        if hit is None:
            if kind == fm.VAR:
                hit = eval_atom(s, a, self.tau, self.w)
            elif kind == fm.OR:
                hit = self.holds(s, a) or self.holds(s, b)
            else:
                hit = any(self.holds(x, a) and self.holds(y, b)
                          for x, y in self.pairs(s))
            self._memo[key] = hit
        return hit


@dataclass(frozen=True)
class ConjunctReport:
    name: str
    status: str
    witness: SymState | None
    note: str

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class Report:
    """Per-conjunct outcome of the bounded refutation check.

    A full pass means the refutation claims hold on the depth-bounded
    fragment of the powerset frame; it is not a proof of refutation in the
    full frame."""

    mode: str
    depth: int
    entries: tuple[ConjunctReport, ...] = field(default_factory=tuple)

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


def check_refutation(w: TileSet, tau: PeriodicTiling, depth: int,
                     mode: str = "union") -> Report:
    """Check each body conjunct of the tiling formula at the top state.

    The seed conjunct is evaluated at the all-naturals state; every boxed
    conjunct is evaluated at all universe states. Failures carry the
    offending state.
    """
    if not 1 <= depth <= 4:
        raise ValueError("depth must be between 1 and 4")
    ev = _SymEvaluator(w, tau, depth, mode)
    states = universe(depth, mode)
    entries = []
    for name, f in reduction.conjuncts(w):
        sub = fm.unbox(f)
        if sub is not None:
            i = ev.dag.add(sub)
            witness = next((s for s in states if not ev.holds(s, i)), None)
            status = "pass" if witness is None else "fail"
            entries.append(ConjunctReport(name, status, witness, _BOX_NOTE))
        else:
            ok = ev.sat(state_n(), f)
            entries.append(ConjunctReport(
                name, "pass" if ok else "fail",
                None if ok else state_n(),
                "checked at the all-naturals state",
            ))
    return Report(mode, depth, tuple(entries))
