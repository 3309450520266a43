"""Finite ternary-relation frames: associativity, the derived S relation,
powerset and semilattice constructors, enumeration, and the frame file format.

Worlds are dense integer indices. World sets are represented as int bitmasks
throughout the hot paths; public constructors and accessors speak in terms of
plain sets of indices.
"""

from __future__ import annotations

import itertools
import sys
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from tilemodal.record import Record

Triple = tuple[int, int, int]

POWERSET_MODES = ("union", "disjoint_union", "union_nonempty")

_set = object.__setattr__


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


class Frame(Record):
    """A set of worlds 0..size-1 with a ternary accessibility relation.

    The relation index is built once per Frame, in two groupings, and left
    out of ==, hash and repr: rows maps each y with some Rxyz to its cells,
    z -> the bitmask of those x, and cols each such z to its cells, y ->
    x-mask. rows[y][z] is the x-mask of the pair (y, z). Frame(size,
    triples) fills rows in the loop that range-checks the triples;
    Frame.from_rows takes rows as they are built, and derives the triples
    only when they are read. Either way a frame equals, hashes and pickles
    as Frame(size, its triples). Frames are immutable. A size must lie
    between 1 and sys.maxsize."""

    __slots__ = ("size", "rows", "cols", "_triples")

    def __init__(self, size: int, triples: Iterable[Triple]):
        _check_size(size)
        triples = frozenset(triples)
        rows: dict[int, dict[int, int]] = {}
        for t in triples:
            # 0 <= t[0], t[1], t[2] < size
            if len(t) != 3 or not 0 <= t[0] < size > t[1] >= 0 <= t[2] < size:
                raise ValueError(f"triple {t} out of range for size {size}")
            x, y, z = t
            row = rows.setdefault(y, {})
            row[z] = row.get(z, 0) | 1 << x
        self._index(size, rows, triples)

    @classmethod
    def from_rows(cls, size: int, rows: dict[int, dict[int, int]]) -> Frame:
        """The frame whose index by the left argument is rows, y -> {z:
        x-mask}, which it keeps; ValueError unless every world of rows is
        below size and every row and x-mask is nonempty."""
        _check_size(size)
        frame = cls.__new__(cls)
        frame._index(size, rows, None)
        return frame

    def _index(self, size: int, rows: dict[int, dict[int, int]],
               triples: frozenset[Triple] | None) -> None:
        """Set size, rows, cols read off rows, and triples (None until they
        are read); range-checks rows."""
        cols = {}
        for y, row in rows.items():
            if not (row and 0 <= y < size):
                raise ValueError(f"row {y} empty or out of range for size {size}")
            for z, xs in row.items():
                if not (0 <= z < size and xs > 0 and not xs >> size):
                    raise ValueError(
                        f"cell ({y}, {z}) empty or out of range for size {size}")
                cols.setdefault(z, {})[y] = xs
        _set(self, "size", size)
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "_triples", triples)

    @property
    def triples(self) -> frozenset[Triple]:
        if self._triples is None:
            _set(self, "_triples", frozenset(
                (x, y, z) for y, row in self.rows.items()
                for z, xs in row.items() for x in bits(xs)))
        return self._triples

    def _fields(self) -> tuple:
        return self.size, self.triples

    def __repr__(self) -> str:
        """The repr of (size, triples), the triples sorted, so equal frames
        print alike whatever order their set holds them in."""
        listed = ", ".join(map(repr, sorted(self.triples)))
        triples = f"frozenset({{{listed}}})" if listed else "frozenset()"
        return f"Frame(size={self.size!r}, triples={triples})"

    def has(self, x: int, y: int, z: int) -> bool:
        return (x, y, z) in self.triples


def _check_size(size: int) -> None:
    if size < 1:
        raise ValueError("frames need at least one world")
    if size > sys.maxsize:
        raise ValueError(f"frames have at most {sys.maxsize} worlds")


class BinRel(Record):
    """A binary relation on worlds 0..size-1 as successor masks: bit y of
    succ[x] is set when xRy."""

    __slots__ = ("size", "succ")

    def __init__(self, size: int, succ: tuple[int, ...]):
        if len(succ) != size or any(m >> size for m in succ):
            raise ValueError("successor masks out of range")
        super().__init__(size, succ)

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((x, y) for x, m in enumerate(self.succ) for y in bits(m))


class AssocCounterexample(Record):
    """Witness quadruple where Rx(ab)c and Rxa(bc) disagree.

    direction is "left_to_right" when Rx(ab)c holds but Rxa(bc) fails, and
    "right_to_left" for the converse failure.
    """

    __slots__ = ("x", "a", "b", "c", "direction")


def check_associative(frame: Frame) -> AssocCounterexample | None:
    """None if the frame is associative, else the least failing quadruple.

    Associativity: for all x,a,b,c, there is y with Rxyc and Ryab exactly
    when there is z with Rxaz and Rzbc. Every world of a failing quadruple
    occurs in some triple, so the test runs on those worlds alone: when
    every world is used, kernel row y is Frame.rows[y] with cell z shifted
    to field z; otherwise the used worlds are renumbered in ascending order,
    and the least failure keeps its place.
    """
    used = 0
    for y, cells in frame.rows.items():
        used |= 1 << y
        for z, xs in cells.items():
            used |= xs | 1 << z
    worlds = range(frame.size) if used.bit_count() == frame.size else list(bits(used))
    n = len(worlds)
    rows = [0] * n
    if n == frame.size:
        for y, cells in frame.rows.items():
            row = 0
            for z, xs in cells.items():
                row |= xs << z * n
            rows[y] = row
    else:
        at = {w: i for i, w in enumerate(worlds)}
        for y, cells in frame.rows.items():
            row = 0
            for z, xs in cells.items():
                row |= mask_of(at[x] for x in bits(xs)) << at[z] * n
            rows[at[y]] = row
    best = None
    for a, b, c, left, right in _assoc_failures(n, rows, rows):
        diff = left | right
        x = (diff & -diff).bit_length() - 1
        if best is None or worlds[x] < best.x:
            direction = "left_to_right" if (left >> x) & 1 else "right_to_left"
            best = AssocCounterexample(worlds[x], worlds[a], worlds[b], worlds[c], direction)
    return best


def _assoc_failures(n: int, must: list[int], may: list[int]):
    """Yield (a, b, c, left, right) for each (a, b, c), ascending, at which
    associativity fails in every relation between must and may.

    Row y of must holds in field z (bits z*n .. z*n+n-1) the x with Rxyz
    certainly present, the same row of may those possibly present (a
    superset). left holds the x with Rx(ab)c certain and Rxa(bc)
    impossible, right the converse; with may is must the relation is known
    and this is the exact test. Each (a, b) serves every c at once: field c
    of the OR of the rows of the y in cell (a, b) holds the x with Rx(ab)c,
    and of the OR over the z in row b's cells of cell (a, z) * ((row b >> z)
    & ones) those with Rxa(bc); a cell is below 2^n, so there are no
    carries. The nonzero spreads (row b >> z) & ones of may are laid out
    once per call, for every a to read; a must spread is worked out where
    it is read, only where cell (a, z) of must is nonempty, which the
    exact test never reads and an open search seldom does. A row a of may
    with no cells fails nowhere and is skipped.
    """
    full = (1 << n) - 1
    ones = ((1 << n * n) - 1) // (full or 1)  # bit 0 of each field
    exact = may is must
    spreads = []  # row b of may: (z*n, spread) for each z in its cells
    for may_b in may:
        laid = []
        for z in range(n):
            spread = (may_b >> z) & ones
            if spread:
                laid.append((z * n, spread))
        spreads.append(laid)
    for a in range(n):
        must_a, may_a = must[a], may[a]
        if not may_a:
            continue
        for b in range(n):
            lhs_must = lhs_may = rhs_must = rhs_may = 0
            ab_must = 0 if exact else must_a >> b * n
            rest = (may_a >> b * n) & full
            while rest:
                low = rest & -rest
                rest ^= low
                y = low.bit_length() - 1
                lhs_may |= may[y]
                if ab_must & low:
                    lhs_must |= must[y]
            for zn, spread in spreads[b]:
                xs = (may_a >> zn) & full
                if xs:
                    rhs_may |= xs * spread
                    xs = 0 if exact else (must_a >> zn) & full
                    if xs:
                        rhs_must |= xs * ((must[b] >> zn // n) & ones)
            if exact:
                lhs_must, rhs_must = lhs_may, rhs_may
            left = lhs_must & ~rhs_may
            right = rhs_must & ~lhs_may
            bad = left | right
            while bad:
                c = ((bad & -bad).bit_length() - 1) // n
                yield a, b, c, (left >> c * n) & full, (right >> c * n) & full
                bad &= ~(full << c * n)


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
    return BinRel(frame.size, tuple(succ))


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
    worlds come in about 7 s (476,568 search nodes; 2-core VM, Python
    3.11). The stream is lazy, but every frame it emits, the empty relation
    first, passes the lex-leader test only after all n! permutations were
    tried: the first frame takes about 0.4 s at 10 worlds and 5 s at 11,
    and the first two 21 s at 11. Orderly pruning (ROADMAP.md, item 2)
    would cut that.
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
    open and the test is exact. Bit i is triple (x, y, z), bit z*n + x of
    row y of must and may.
    """
    top = n ** 3
    place = [(i // n % n, 1 << (i % n * n + i // (n * n))) for i in range(top)]
    must = [0] * n
    may = [(1 << n * n) - 1] * n
    code, i, ok = 0, top, True
    while True:
        if ok and i:  # decide the next bit, 0 first
            i -= 1
            y, bit = place[i]
            may[y] ^= bit
        else:
            if ok:  # a leaf
                yield code
            # reopen the deepest decided 1-bits, then turn the 0 above them to 1
            while i < top and (code >> i) & 1:
                y, bit = place[i]
                must[y] ^= bit
                code ^= 1 << i
                i += 1
            if i == top:
                return
            y, bit = place[i]
            must[y] |= bit
            may[y] |= bit
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


class Model(Record):
    """A frame plus a valuation from letters to world sets.

    masks maps each letter to its world bitmask, read-only, the form
    semantics.Evaluator reads; letters absent from it denote the empty set.
    A model equals, hashes and pickles as Model(frame, its valuation).
    """

    __slots__ = ("frame", "masks")

    def __init__(self, frame: Frame, valuation: Mapping[str, Iterable[int]] = ()):
        masks = {}
        for letter, worlds in dict(valuation).items():
            m = mask_of(worlds)
            if m >> frame.size:
                raise ValueError(f"valuation of {letter!r} out of range")
            masks[letter] = m
        super().__init__(frame, MappingProxyType(masks))

    def letter_mask(self, letter: str) -> int:
        return self.masks.get(letter, 0)

    @property
    def valuation(self) -> dict[str, frozenset[int]]:
        return {p: frozenset(bits(m)) for p, m in self.masks.items()}

    def _fields(self) -> tuple:
        return self.frame, frozenset(self.valuation.items())

    def __repr__(self):
        return f"<Model size={self.frame.size} letters={sorted(self.masks)}>"


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
        line = raw.partition("#")[0]
        parts = line.split()
        if not parts:
            continue
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
            head, colon, tail = line.strip()[3:].partition(":")
            letter = head.strip()
            if not letter:
                raise ValueError(f"line {lineno}: missing letter name")
            if not colon or len(letter.split()) != 1:
                raise ValueError(f"line {lineno}: expected 'val LETTER: WORLDS'")
            valuation[letter] = set(_ints(tail.split(), lineno))
            continue
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'x y z'")
        x, y, z = parts
        try:
            triples.add((int(x), int(y), int(z)))
        except ValueError:
            _ints(parts, lineno)  # raises, naming the line
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
