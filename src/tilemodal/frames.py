"""Finite ternary-relation frames: associativity, the derived S relation,
powerset and semilattice constructors, enumeration, and the frame file format.

Worlds are dense integer indices. World sets are represented as int bitmasks
throughout the hot paths; public constructors and accessors speak in terms of
plain sets of indices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

Triple = tuple[int, int, int]

POWERSET_MODES = ("union", "disjoint_union", "union_nonempty")


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(worlds: Iterable[int]) -> int:
    m = 0
    for w in worlds:
        m |= 1 << w
    return m


@dataclass(frozen=True)
class Frame:
    """A set of worlds 0..size-1 with a ternary accessibility relation."""

    size: int
    triples: frozenset[Triple]

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("frames need at least one world")
        object.__setattr__(self, "triples", frozenset(self.triples))
        for t in self.triples:
            if len(t) != 3 or any(not (0 <= w < self.size) for w in t):
                raise ValueError(f"triple {t} out of range for size {self.size}")

    def has(self, x: int, y: int, z: int) -> bool:
        return (x, y, z) in self.triples


@lru_cache(maxsize=256)
def _comp_index(frame: Frame) -> dict[tuple[int, int], int]:
    """(y, z) -> bitmask of x with Rxyz."""
    idx: dict[tuple[int, int], int] = {}
    for x, y, z in frame.triples:
        idx[(y, z)] = idx.get((y, z), 0) | (1 << x)
    return idx


@lru_cache(maxsize=256)
def _by_first(frame: Frame) -> dict[int, tuple[tuple[int, int], ...]]:
    """x -> all (y, z) with Rxyz."""
    idx: dict[int, list[tuple[int, int]]] = {}
    for x, y, z in frame.triples:
        idx.setdefault(x, []).append((y, z))
    return {x: tuple(pairs) for x, pairs in idx.items()}


@dataclass(frozen=True)
class BinRel:
    size: int
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        for x, y in self.pairs:
            if not (0 <= x < self.size and 0 <= y < self.size):
                raise ValueError(f"pair {(x, y)} out of range")

    def successors(self, x: int) -> int:
        """Bitmask of y with (x, y) in the relation."""
        m = 0
        for a, b in self.pairs:
            if a == x:
                m |= 1 << b
        return m

    def find_intransitivity(self) -> tuple[int, int, int] | None:
        """Least (x, y, z) with xRy, yRz but not xRz, or None if transitive."""
        succ = {x: self.successors(x) for x in range(self.size)}
        worst = None
        for x, y in self.pairs:
            missing = succ.get(y, 0) & ~succ.get(x, 0)
            for z in bits(missing):
                cand = (x, y, z)
                if worst is None or cand < worst:
                    worst = cand
        return worst


@dataclass(frozen=True)
class AssocCounterexample:
    """Witness quadruple where Rx(ab)c and Rxa(bc) disagree.

    direction is "left_to_right" when Rx(ab)c holds but Rxa(bc) fails, and
    "right_to_left" for the converse failure.
    """

    x: int
    a: int
    b: int
    c: int
    direction: str


def check_associative(frame: Frame) -> AssocCounterexample | None:
    """None if the frame is associative, else the least failing quadruple.

    Associativity: for all x,a,b,c, there is y with Rxyc and Ryab exactly
    when there is z with Rxaz and Rzbc.
    """
    comp = _comp_index(frame)
    n = frame.size
    best: tuple[int, int, int, int] | None = None
    for a in range(n):
        for b in range(n):
            ys = comp.get((a, b), 0)
            for c in range(n):
                lhs = 0
                for y in bits(ys):
                    lhs |= comp.get((y, c), 0)
                rhs = 0
                for z in bits(comp.get((b, c), 0)):
                    rhs |= comp.get((a, z), 0)
                diff = lhs ^ rhs
                if diff:
                    x = (diff & -diff).bit_length() - 1
                    cand = (x, a, b, c)
                    if best is None or cand < best:
                        best = cand
                        best_lhs = lhs
    if best is None:
        return None
    x, a, b, c = best
    direction = "left_to_right" if (best_lhs >> x) & 1 else "right_to_left"
    return AssocCounterexample(x, a, b, c, direction)


def s_relation(frame: Frame) -> BinRel:
    """Derived accessibility for the box: xSy if Rxay, Rxya, or Rx(ay)b."""
    pairs: set[tuple[int, int]] = set()
    for x, u, v in frame.triples:
        pairs.add((x, v))
        pairs.add((x, u))
    by_first = _by_first(frame)
    for x, z, _b in frame.triples:
        for _a, y in by_first.get(z, ()):
            pairs.add((x, y))
    return BinRel(frame.size, frozenset(pairs))


def powerset_worlds(k: int, mode: str = "union") -> list[frozenset[int]]:
    """The subset of {0..k-1} denoted by each world index of powerset_frame."""
    if mode not in POWERSET_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    start = 1 if mode == "union_nonempty" else 0
    return [
        frozenset(i for i in range(k) if (s >> i) & 1)
        for s in range(start, 1 << k)
    ]


def powerset_frame(k: int, mode: str = "union") -> Frame:
    """Frame of subsets of {0..k-1} under union.

    Modes: "union" has Rxyz iff x = y u z; "disjoint_union" additionally
    requires y and z disjoint; "union_nonempty" drops the empty set from the
    worlds. World i denotes the i-th entry of powerset_worlds(k, mode).
    """
    if mode not in POWERSET_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    # 8 accommodates frames over all valuations on up to three letters
    if not (1 <= k <= 8):
        raise ValueError("k must be between 1 and 8")
    start = 1 if mode == "union_nonempty" else 0
    subsets = range(start, 1 << k)
    offset = start
    triples = set()
    for y in subsets:
        for z in subsets:
            if mode == "disjoint_union" and y & z:
                continue
            x = y | z
            triples.add((x - offset, y - offset, z - offset))
    return Frame((1 << k) - start, frozenset(triples))


class SemilatticeLawError(ValueError):
    """A join table broke one of commutativity, associativity, idempotence."""

    def __init__(self, law: str, indices: tuple[int, ...]):
        self.law = law
        self.indices = indices
        super().__init__(f"not {law} at {indices}")


def semilattice_frame(table: list[list[int]]) -> Frame:
    """Frame of a join table: triples (table[y][z], y, z).

    The table must be commutative, associative, and idempotent; violations
    raise SemilatticeLawError naming the law and the offending indices.
    """
    k = len(table)
    if k < 1:
        raise ValueError("empty table")
    for row in table:
        if len(row) != k or any(not (0 <= e < k) for e in row):
            raise ValueError("table entries must be worlds")
    for x in range(k):
        if table[x][x] != x:
            raise SemilatticeLawError("idempotent", (x,))
    for x in range(k):
        for y in range(k):
            if table[x][y] != table[y][x]:
                raise SemilatticeLawError("commutative", (x, y))
    for x in range(k):
        for y in range(k):
            for z in range(k):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    raise SemilatticeLawError("associative", (x, y, z))
    triples = frozenset(
        (table[y][z], y, z) for y in range(k) for z in range(k)
    )
    return Frame(k, triples)


def _all_triples(n: int) -> list[Triple]:
    return [(x, y, z) for x in range(n) for y in range(n) for z in range(n)]


def enumerate_frames(n: int, require_associative: bool = False) -> Iterator[Frame]:
    """All frames on n worlds up to isomorphism, in ascending code order.

    A frame's code has bit i set when the i-th triple (lexicographic) is
    present; a frame is emitted only if its code is minimal among the codes
    of its images under all world permutations. Exhaustive consumption is
    only practical for n <= 2; larger n give a lazy stream.
    """
    if n < 1:
        raise ValueError("n must be positive")
    triples = _all_triples(n)
    index = {t: i for i, t in enumerate(triples)}
    perm_maps = []
    for perm in itertools.permutations(range(n)):
        if perm == tuple(range(n)):
            continue
        perm_maps.append(
            [index[(perm[x], perm[y], perm[z])] for (x, y, z) in triples]
        )
    for code in range(1 << len(triples)):
        canonical = True
        for pmap in perm_maps:
            image = 0
            rest = code
            while rest:
                low = rest & -rest
                image |= 1 << pmap[low.bit_length() - 1]
                rest ^= low
            if image < code:
                canonical = False
                break
        if not canonical:
            continue
        frame = Frame(n, frozenset(t for i, t in enumerate(triples) if (code >> i) & 1))
        if require_associative and check_associative(frame) is not None:
            continue
        yield frame


class Model:
    """A frame plus a valuation from letters to world sets.

    Letters absent from the valuation denote the empty set. Models are
    immutable once constructed.
    """

    __slots__ = ("frame", "_masks")

    def __init__(self, frame: Frame, valuation: Mapping[str, Iterable[int]] = ()):
        self.frame = frame
        masks = {}
        for letter, worlds in dict(valuation).items():
            m = mask_of(worlds)
            if m >> frame.size:
                raise ValueError(f"valuation of {letter!r} out of range")
            masks[letter] = m
        self._masks = masks

    @classmethod
    def _from_masks(cls, frame: Frame, masks: dict[str, int]) -> "Model":
        model = cls(frame, ())
        model._masks = masks
        return model

    def letter_mask(self, letter: str) -> int:
        return self._masks.get(letter, 0)

    @property
    def valuation(self) -> dict[str, frozenset[int]]:
        return {p: frozenset(bits(m)) for p, m in self._masks.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        return self.frame == other.frame and self._masks == other._masks

    def __hash__(self):
        return hash((self.frame, tuple(sorted(self._masks.items()))))

    def __repr__(self):
        return f"<Model size={self.frame.size} letters={sorted(self._masks)}>"


# -- frame file format --------------------------------------------------------
#
#   # comment
#   worlds N
#   x y z          one line per triple
#   val p: 0 2 3   valuation lines, optional


def parse_frame_file(text: str) -> tuple[Frame, dict[str, set[int]]]:
    size = None
    triples: set[Triple] = set()
    valuation: dict[str, set[int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("worlds"):
            if size is not None:
                raise ValueError(f"line {lineno}: duplicate worlds line")
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'worlds N'")
            size = _ints(parts[1:], lineno)[0]
            continue
        if size is None:
            raise ValueError(f"line {lineno}: expected 'worlds N' first")
        if line.startswith("val"):
            head, colon, tail = line[3:].partition(":")
            letter = head.strip()
            if not letter:
                raise ValueError(f"line {lineno}: missing letter name")
            if not colon or len(letter.split()) != 1:
                raise ValueError(f"line {lineno}: expected 'val LETTER: WORLDS'")
            valuation[letter] = set(_ints(tail.split(), lineno))
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'x y z'")
        triples.add(tuple(_ints(parts, lineno)))
    if size is None:
        raise ValueError("missing 'worlds N' line")
    frame = Frame(size, frozenset(triples))
    for letter, worlds in valuation.items():
        if any(not (0 <= w < size) for w in worlds):
            raise ValueError(f"valuation of {letter!r} out of range")
    return frame, valuation


def _ints(tokens: list[str], lineno: int) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        got = " ".join(tokens)
        raise ValueError(f"line {lineno}: expected integers, got {got!r}") from None


def render_frame_file(frame: Frame, valuation: Mapping[str, Iterable[int]] = ()) -> str:
    lines = [f"worlds {frame.size}"]
    for t in sorted(frame.triples):
        lines.append(f"{t[0]} {t[1]} {t[2]}")
    for letter in sorted(dict(valuation)):
        ws = " ".join(str(w) for w in sorted(set(dict(valuation)[letter])))
        lines.append(f"val {letter}: {ws}".rstrip())
    return "\n".join(lines) + "\n"
