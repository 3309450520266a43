"""Model checking for the binary-diamond language over finite frames.

Satisfaction sets are computed bottom-up as world bitmasks. One search,
_least_refutation, finds a frame's least refuting valuation in a fixed index
order, so refutation witnesses are reproducible: exact bit-sliced passes
over the first valuations, then a bounds walk that prunes completions which
cannot refute. Frame validity has no step budget, so its walk hands the
rest to exact passes once it falls behind their pace; countermodel search
streams associative frames and runs the walk after one pass of cheap
valuation probes, under a step budget.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import zip_longest
from typing import Callable, Mapping

from tilemodal import formula as fm
from tilemodal.frames import (
    Frame,
    Model,
    bits,
    check_associative,
    enumerate_frames,
)
from tilemodal.record import Record
from tilemodal.tiling import SearchBudgetExceeded


#: Most worlds of a frame to evaluate: a pass builds masks of a bit per world.
MAX_WORLDS = 1 << 24


class Evaluator:
    """Satisfaction-set evaluator for one frame, under any letter masks.

    A pass holds one valuation per lane, packed world-minor (bit lane * n +
    world) in the letter masks and every satisfaction set; each call names
    its lane count, one by default. Letters missing from
    the masks denote the empty set. A formula is evaluated through its
    compiled Dag, one dag_masks pass, so derived connectives get exactly the
    sets of their desugared core. The diamond reads the frame's rows and
    cols, so building an Evaluator builds nothing.
    """

    def __init__(self, frame: Frame):
        if frame.size > MAX_WORLDS:
            raise ValueError(f"too many worlds to evaluate: {frame.size}, over {MAX_WORLDS}")
        self.frame = frame

    def mask(self, f: fm.Formula | fm.Dag, letters: Mapping[str, int],
             lanes: int = 1) -> int:
        """Satisfaction set of f, or of the last op of a compiled Dag."""
        return self.masks(fm.to_dag(f), letters, lanes)[-1]

    def masks(self, dag: fm.Dag, letters: Mapping[str, int],
              lanes: int = 1) -> list[int]:
        """Satisfaction set of every op of the Dag, in op order."""
        full = (1 << (self.frame.size * lanes)) - 1
        return dag_masks(dag, letters, full, self._dia(full))

    def bounds(self, dag: fm.Dag, known: Mapping[str, int],
               value: Mapping[str, int], lanes: int = 1) -> tuple[int, int]:
        """(must, may) bracketing the last op's satisfaction set over every
        completion of a partial valuation, lane by lane: the bits of known[p]
        are decided and value[p] holds their values; a letter absent from
        known is undecided. A call names its lane count, as for masks.

        One pass on twice the lanes, must in the low half and may in the
        high: a letter is (v & k, v | ~k), T is full, disjunction and the
        diamond work lane by lane, as the diamond is monotone in both
        arguments, and negation complements and swaps the halves. So the
        bounds are sound, and exact once every letter of the Dag is decided."""
        width = self.frame.size * lanes
        half, letters = (1 << width) - 1, {}
        for p, k in known.items():
            must = value.get(p, 0) & k
            letters[p] = must | (must | half & ~k) << width
        full = (half << width) | half
        both = dag_masks(dag, letters, full, self._dia(full), half << width, width)[-1]
        return both & half, both >> width

    def _dia(self, full: int) -> Callable[[int, int], int]:
        """The diamond on the lanes of full. It walks the argument with
        fewer set bits through the frame's grouping of the index by that
        argument, the left through Frame.rows (y -> {z: x-mask}) or the
        right through Frame.cols (z -> {y: x-mask}), both built by the Frame:
        for each world a of the walked argument's grouping, hit
        marks bit 0 of each lane where a is in it, tested once per a; hit &
        (other >> b) those where the cell's other world b is in the other
        argument too, and xs < 2^n, so the product writes xs into those lanes
        without carries."""
        rows, cols = self.frame.rows, self.frame.cols
        lane0 = full // ((1 << self.frame.size) - 1)

        def dia(left_mask: int, right_mask: int) -> int:
            if left_mask.bit_count() <= right_mask.bit_count():
                walk, other, groups = left_mask, right_mask, rows
            else:
                walk, other, groups = right_mask, left_mask, cols
            acc = 0
            for a, cells in groups.items():
                hit = (walk >> a) & lane0
                if hit:
                    for b, xs in cells.items():
                        acc |= (hit & (other >> b)) * xs
            return acc
        return dia


def dag_masks(dag: fm.Dag, letters: Mapping[str, int], full: int,
              dia: Callable[[int, int], int], absent: int = 0,
              swap: int = 0) -> list[int]:
    """Bitmask of every op of the Dag, in op order: letters[p] for a letter
    (absent if missing), full for T, the complement within full for negation
    (low and high swap bits exchanged when swap is set), the union for
    disjunction, and dia of the two argument masks for the diamond."""
    out = []
    for kind, a, b in dag.ops:
        if kind == fm.DIA:
            out.append(dia(out[a], out[b]))
        elif kind == fm.NOT:
            x = full & ~out[a]
            out.append((x >> swap) | (x << swap) & full if swap else x)
        elif kind == fm.OR:
            out.append(out[a] | out[b])
        elif kind == fm.TOP:
            out.append(full)
        else:
            out.append(letters.get(a, absent))
    return out


def sat_mask(model: Model, f: fm.Formula) -> int:
    return Evaluator(model.frame).mask(f, model.masks)


def sat_set(model: Model, f: fm.Formula) -> frozenset[int]:
    """Worlds of the model satisfying f."""
    return frozenset(bits(sat_mask(model, f)))


class Valid(Record):
    __slots__ = ()


class Refuted(Record):
    __slots__ = ("model", "world")


class Unknown(Record):
    __slots__ = ("reason",)


Verdict = Valid | Refuted | Unknown

#: Exhaustive validity is only attempted up to this many valuation bits.
EXHAUSTIVE_BIT_LIMIT = 24
#: Lanes of the first chunk of a validity scan, and of the widest chunk.
FIRST_LANES, MAX_LANES = 1 << 6, 1 << 16


def _inventory(f: fm.Formula | fm.Dag) -> list[str]:
    """The letters of f's compiled Dag, in lexicographic order: the letters
    a valuation assigns."""
    return sorted(a for kind, a, _ in fm.to_dag(f).ops if kind == fm.VAR)


def _exhaustive_chunks(n: int, inventory: list[str], lo: int, hi: int):
    """(packed letter masks, lanes) of valuations lo .. hi-1, in index order,
    in aligned chunks of FIRST_LANES lanes and then as many as lie below the
    chunk, at most MAX_LANES and fewer where lo is less aligned; hi is a
    power of two, or lo. low[j] is letter j under valuations 0 .. lanes-1;
    doubling appends a copy with index bit `lanes` set: the next lanes
    valuations."""
    full, lanes, lane0, low = (1 << n) - 1, 1, 1, [0] * len(inventory)
    while lo < hi:
        while 2 * lanes <= min(max(FIRST_LANES, lo), MAX_LANES, lo & -lo or hi):
            low = [m | (m | lane0 * ((lanes >> (j * n)) & full)) << (n * lanes)
                   for j, m in enumerate(low)]
            lane0 |= lane0 << (n * lanes)
            lanes *= 2
        yield {p: low[j] | lane0 * ((lo >> (j * n)) & full)
               for j, p in enumerate(inventory)}, lanes
        lo += lanes


def _random_chunks(n: int, inventory: list[str], seed: int, samples: int):
    """(packed letter masks, lanes) of the seeded samples, in draw order."""
    rng, drawn, lanes = random.Random(seed), 0, 16
    while drawn < samples:
        lanes = min(lanes, samples - drawn, MAX_LANES)
        draws = [[rng.getrandbits(n) for _ in inventory] for _ in range(lanes)]
        yield {p: _pack(col, n) for p, col in zip(inventory, zip(*draws))}, lanes
        drawn, lanes = drawn + lanes, 2 * lanes


def _pack(values, width: int) -> int:
    """The sum of values[i] << (i * width), by merging neighbours pairwise."""
    while len(values) > 1:
        values = [a | b << width
                  for a, b in zip_longest(values[::2], values[1::2], fillvalue=0)]
        width *= 2
    return values[0]


def frame_validity(frame: Frame, f: fm.Formula | fm.Dag,
                   strategy: str = "exhaustive", seed: int = 0,
                   samples: int = 1000) -> Verdict:
    """Check validity of f, or of the last op of a compiled Dag, in the frame.

    Valuations are checked one per lane of the frame's one Evaluator (bit
    lane * n + world), up to MAX_LANES per pass; the lowest failing bit of
    the first failing pass is the refutation: the least lane, then the
    least world.
    The exhaustive strategy is _least_refutation over the world-by-letter
    grid (letter j, lexicographic, holds world w when bit j * n + w of the
    index is set), with no step budget. Its exact passes read the first
    2^(2 * SUBTREE_LEVELS) valuations, every valuation of a frame with at
    most that many bits, in aligned chunks that start at FIRST_LANES lanes
    and double, so an early refutation costs one small pass and a small
    frame never builds the bounds walk. Past them the walk searches, and
    hands the rest to exact passes if it falls behind their pace. It proves
    validity, returns the least refutation, or returns Unknown past the bit
    limit. The random strategy draws seeded samples in chunks of 16, 32, ...
    lanes and returns the first refuting one, or Unknown.
    """
    n, dag = frame.size, fm.to_dag(f)
    inventory = _inventory(dag)
    ev, free = Evaluator(frame), _Budget(0)  # no budget: every step costs 0
    if strategy == "exhaustive":
        if n * len(inventory) > EXHAUSTIVE_BIT_LIMIT:
            return Unknown("exhaustive budget exceeded")
        got = _least_refutation(ev, dag, inventory, free, 0, 1 << 2 * SUBTREE_LEVELS)
        no_refutation = Valid()
    elif strategy == "random":
        got = _least_lane(ev, dag, _random_chunks(n, inventory, seed, samples), free, 0)
        no_refutation = Unknown(f"no refutation in {samples} samples")
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return no_refutation if got is None else Refuted(*_refutation(frame, *got))


class _Budget:
    __slots__ = ("left",)

    def __init__(self, steps: int):
        self.left = steps

    def spend(self, steps: int) -> None:
        """Charge steps; raises SearchBudgetExceeded once they overdraw."""
        self.left -= steps
        if self.left < 0:
            raise SearchBudgetExceeded("budget exhausted")


def _least_lane(ev: Evaluator, dag: fm.Dag, chunks, budget: _Budget,
                cost: int) -> tuple[dict[str, int], int] | None:
    """(letter masks, failing worlds) of the first lane that refutes the Dag
    in exact passes over chunks of (packed letter masks, lanes), or None.
    Each pass is read for its least failing lane and charged once: cost per
    lane read, up to and including that lane. A pass whose first lane the
    budget cannot pay does not run."""
    n, full = ev.frame.size, (1 << ev.frame.size) - 1
    for packed, lanes in chunks:
        if budget.left < cost:
            raise SearchBudgetExceeded("budget exhausted")
        failing = ((1 << (n * lanes)) - 1) & ~ev.mask(dag, packed, lanes)
        if failing:
            lane = ((failing & -failing).bit_length() - 1) // n
            budget.spend(cost * (lane + 1))
            return ({p: (m >> (lane * n)) & full for p, m in packed.items()},
                    (failing >> (lane * n)) & full)
        budget.spend(cost * lanes)
    return None


def _least_refutation(ev: Evaluator, dag: fm.Dag, inventory: list[str], budget: _Budget,
                      cost: int, prefix: int) -> tuple[dict[str, int], int] | None:
    """(letter masks, failing worlds) of the frame's least refuting
    valuation index, or None when no valuation refutes: the one search for
    it, behind frame_validity and countermodel_search.

    Exact passes (_exhaustive_chunks, in index order) read the first prefix
    valuations, and the bounds walk (_walk) searches past them. Without a
    step budget (cost 0) the walk hands the rest to exact passes once it
    falls behind their pace. Exact passes charge cost per valuation read
    (_least_lane), the walk cost per node visited, its root included;
    raises SearchBudgetExceeded when the steps run out.
    """
    n, total = ev.frame.size, 1 << (ev.frame.size * len(inventory))
    lo = min(prefix, total)
    got = _least_lane(ev, dag, _exhaustive_chunks(n, inventory, 0, lo), budget, cost)
    if got is not None or lo == total:
        return got
    try:
        got = _walk(ev, dag, inventory, budget, cost, lo)
    except _Handover as stop:
        return _least_lane(ev, dag, _exhaustive_chunks(n, inventory, stop.index, total),
                           budget, cost)
    return None if got is None else (got, ((1 << n) - 1) & ~ev.mask(dag, got))


#: Decision levels below a node of the countermodel backtracker whose nodes
#: share its bounds pass: 2^(SUBTREE_LEVELS + 1) - 1 lanes, one per node.
SUBTREE_LEVELS = 6
#: Valuations an exact pass reads in about the time of one bounds pass of
#: the walk: 380-1160 on P(2), P(3) and phi(MONO) on 3-world frames
#: (Python 3.11, 2-core VM).
PASS_VALUATIONS = 1 << 10


@lru_cache(maxsize=64)
def _subtree_layout(n: int, levels: int) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """(lanes, lane0, (decided, ones) per decision level) of a pass over a
    node and the `levels` levels below it on n-world lanes. Lane i is the
    node of heap index i: the root is 0 and the children of i are 2i+1 (bit
    0) and 2i+2 (bit 1), so i+1 is a 1 followed by the path's bits. lane0 has
    bit 0 of every lane; decided has it in the lanes at or below level k, and
    ones in those whose path sets the level-k bit."""
    lanes = (2 << levels) - 1
    lane0 = sum(1 << (i * n) for i in range(lanes))
    grid = []
    for k in range(1, levels + 1):
        below = (1 << k) - 1  # the first lane of level k
        ones = sum(1 << (i * n) for i in range(below, lanes)
                   if (i + 1) >> ((i + 1).bit_length() - 1 - k) & 1)
        grid.append((lane0 >> (below * n) << (below * n), ones))
    return lanes, lane0, tuple(grid)


class _Handover(Exception):
    """The walk fell behind the exact passes' pace; they go on from index,
    the least valuation index it has not ruled out."""

    def __init__(self, index: int):
        self.index = index


def _walk(ev: Evaluator, dag: fm.Dag, inventory: list[str], budget: _Budget,
          cost: int, lo: int) -> dict[str, int] | None:
    """The backtracking search for the least refuting valuation index at or
    past lo, one bit at a time, from its root, which it pays for.

    Bits are decided most significant first with 0 before 1, so the first
    hit is the lexicographically least refuting valuation index. A subtree
    is pruned when the formula is certainly true everywhere under every
    completion (must is full), and a branch succeeds early (zero-filling the
    rest) when some world certainly fails (may is not full). The bounds of
    a node and of every node up to SUBTREE_LEVELS decision levels below it
    come from one ev.bounds pass, a lane per node (_subtree_layout); a node
    of the pass's last level starts the next pass for its children, unless
    its valuations all lie below lo. Each visited node charges the budget
    cost, the node count of the desugared tree, before its lane is read, and
    a pass runs only once the first node it serves is paid for. Returns the
    letter masks of inventory, the Dag's letters, or None when no valuation
    refutes; raises SearchBudgetExceeded when the steps run out.

    Without a step budget (cost 0) the walk keeps pace with exact passes: it
    raises _Handover instead of a pass that would bring its passes past one
    per PASS_VALUATIONS valuations ruled out from lo, after a head start of
    an eighth of the valuations from lo. So while a pass costs no more than
    reading that many valuations, the walk adds at most an eighth of the
    scan from lo to it. Under a step budget it never hands over: on any input it charges
    at most about twice the steps of exact passes, plus the bit count, and
    they can charge exponentially more than it where the bounds prune.
    """
    n = ev.frame.size
    full, total = (1 << n) - 1, 1 << (len(inventory) * n)
    known, value = dict.fromkeys(inventory, 0), dict.fromkeys(inventory, 0)
    order = [
        (inventory[pos // n], (pos % n))
        for pos in range(len(inventory) * n - 1, -1, -1)
    ]
    passes = 0

    def subtree(depth: int) -> tuple[int, int, int] | None:
        """(levels, must, may) of the pass over the node at depth, whose
        letters are known and value, and the levels below it; None when
        every valuation below the node lies below lo."""
        nonlocal passes
        index = sum(value[p] << (j * n) for j, p in enumerate(inventory))
        if index + (total >> depth) <= lo:
            return None
        frontier = max(index, lo)  # the least index not yet ruled out
        if not cost and (passes + 1) * PASS_VALUATIONS > frontier - lo + ((total - lo) >> 3):
            raise _Handover(frontier)
        passes += 1
        levels = min(SUBTREE_LEVELS, len(order) - depth)
        lanes, lane0, grid = _subtree_layout(n, levels)
        k = {p: m * lane0 for p, m in known.items()}
        v = {p: m * lane0 for p, m in value.items()}
        for (letter, w), (decided, ones) in zip(order[depth:], grid):
            k[letter] |= decided << w
            v[letter] |= ones << w
        return (levels, *ev.bounds(dag, k, v, lanes))

    def descend(depth: int, lane: int, levels: int, must: int, may: int):
        """Search below the node at depth, paid for and read off lane of the
        pass (must, may) that covers levels more levels below it."""
        if (must >> (lane * n)) & full == full:
            return None  # certainly valid under every completion: prune
        if (may >> (lane * n)) & full != full:
            # some world certainly fails: zero-fill the undecided rest
            return {p: value[p] for p in inventory}
        if depth == len(order):
            return {p: value[p] for p in inventory}  # decided, a world fails
        letter, w = order[depth]
        budget.spend(cost)
        if not levels:  # the pass's last level: the children need their own
            below = subtree(depth)
            if below is None:
                return None  # ruled out before the walk
            (levels, must, may), lane = below, 0
        known[letter] |= 1 << w
        got = descend(depth + 1, 2 * lane + 1, levels - 1, must, may)
        if got is None:
            budget.spend(cost)
            value[letter] |= 1 << w
            got = descend(depth + 1, 2 * lane + 2, levels - 1, must, may)
            value[letter] &= ~(1 << w)
        known[letter] &= ~(1 << w)
        return got

    budget.spend(cost)
    return descend(0, 0, *subtree(0))


def countermodel_search(f: fm.Formula | fm.Dag, max_worlds: int, budget: int,
                        seed: int = 0) -> tuple[Model, int] | None:
    """Search for an associative model and world falsifying f, or the last
    op of a compiled Dag.

    Streams associative frames by world count; each frame gets a handful of
    seeded valuation probes and then _least_refutation with no exact prefix:
    the bounds walk, which prunes completions that cannot refute and is
    complete when it runs to the end. The budget counts elementary
    evaluation steps (nodes of the desugared tree per valuation or per bound
    computed), though each is one pass over the compiled Dag's fewer ops;
    once it is spent the search returns None, which carries no validity
    claim. A frame's distinct probes share one pass, a lane each, read for
    the least failing lane and charged per probe up to and including it.
    The bounds of each walk node and the SUBTREE_LEVELS levels below it
    share a pass, charged per node visited.
    """
    tracker = _Budget(budget)
    dag = fm.to_dag(f)
    cost = dag.tree_size()  # node_count(desugar(f)), the budget's unit
    rng = random.Random(seed)
    inventory = _inventory(dag)
    try:
        for n in range(1, max_worlds + 1):
            full = (1 << n) - 1
            for frame in enumerate_frames(n, require_associative=True):
                ev = Evaluator(frame)  # shared by the probes, the search and the check
                probes = [(0,) * len(inventory), (full,) * len(inventory)]
                for _ in range(14):
                    probes.append(tuple(rng.getrandbits(n) for _ in inventory))
                probes = list(dict.fromkeys(probes))  # distinct, first occurrences in order
                packed = {p: _pack(col, n) for p, col in zip(inventory, zip(*probes))}
                got = (_least_lane(ev, dag, [(packed, len(probes))], tracker, cost)
                       or _least_refutation(ev, dag, inventory, tracker, cost, 0))
                if got is not None:
                    return _found(frame, *got)
    except SearchBudgetExceeded:
        pass  # the budget is spent: no answer either way
    return None


def _refutation(frame: Frame, masks: dict[str, int], failing: int) -> tuple[Model, int]:
    """The model of a valuation's letter masks and its least failing world."""
    witness = {p: set(bits(m)) for p, m in masks.items() if m}
    return Model(frame, witness), (failing & -failing).bit_length() - 1


def _found(frame: Frame, masks: dict[str, int], failing: int) -> tuple[Model, int]:
    """The refutation of a countermodel, once some world is seen to fail and
    the frame to be associative; the checks raise, so python -O keeps them."""
    if not failing:
        raise RuntimeError("countermodel search found a non-refuting valuation")
    if check_associative(frame) is not None:
        raise RuntimeError("countermodel search found a non-associative frame")
    return _refutation(frame, masks, failing)


def __getattr__(name: str):
    """Keeps the retired ProcessPoolExecutor importable for bench/tracer.py."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor
