"""Model checking for the binary-diamond language over finite frames.

Satisfaction sets are computed bottom-up as world bitmasks; frame validity
enumerates valuations in a fixed order so refutation witnesses are
reproducible; countermodel search streams associative frames and interleaves
cheap valuation probes with exhaustive scans under a step budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

from tilemodal import formula as fm
from tilemodal.frames import (
    Frame,
    Model,
    bits,
    check_associative,
    enumerate_frames,
    s_relation,
)


class Evaluator:
    """Satisfaction-set evaluator for one frame, under any letter masks.

    With lanes > 1 the letter masks hold one valuation per lane, packed
    world-minor (bit lane * n + world), and so does every satisfaction set.
    Letters missing from the masks denote the empty set.

    A formula is evaluated through its compiled Dag, one pass over the ops,
    so derived connectives get exactly the sets of their desugared core.
    """

    def __init__(self, frame: Frame, lanes: int = 1):
        self.frame = frame
        self.full = (1 << (frame.size * lanes)) - 1
        self._lane0 = self.full // ((1 << frame.size) - 1)  # bit 0 of each lane
        self._comp_items = tuple(frame.index.items())

    def mask(self, f: fm.Formula | fm.Dag, letters: Mapping[str, int]) -> int:
        """Satisfaction set of f, or of the last op of a compiled Dag."""
        return self.masks(fm.to_dag(f), letters)[-1]

    def masks(self, dag: fm.Dag, letters: Mapping[str, int]) -> list[int]:
        """Satisfaction set of every op of the Dag, in op order."""
        full, comp, out = self.full, self._comp, []
        for kind, a, b in dag.ops:
            if kind == fm.DIA:
                out.append(comp(out[a], out[b]))
            elif kind == fm.NOT:
                out.append(full & ~out[a])
            elif kind == fm.OR:
                out.append(out[a] | out[b])
            else:
                out.append(letters.get(a, 0))
        return out

    def bounds(self, dag: fm.Dag, known: Mapping[str, int],
               value: Mapping[str, int]) -> tuple[int, int]:
        """(must, may) bracketing the last op's satisfaction set over every
        completion of a partial valuation: the bits of known[p] are decided
        and value[p] holds their values.

        Every op gets a (must, may) pair; the diamond is monotone in both
        arguments and negation swaps the complements, so the bounds are sound
        on the desugared core, and exact once every letter is decided."""
        full, comp, out = self.full, self._comp, []
        for kind, a, b in dag.ops:
            if kind == fm.VAR:
                k, v = known.get(a, 0), value.get(a, 0)
                out.append((v & k, v | (full & ~k)))
            elif kind == fm.NOT:
                must, may = out[a]
                out.append((full & ~may, full & ~must))
            else:
                (lm, lM), (rm, rM) = out[a], out[b]
                out.append((lm | rm, lM | rM) if kind == fm.OR
                           else (comp(lm, rm), comp(lM, rM)))
        return out[-1]

    def _comp(self, left_mask: int, right_mask: int) -> int:
        # hit marks bit 0 of each lane where y is in left and z in right;
        # xs < 2^n, so hit * xs writes xs into those lanes without carries
        acc = 0
        lane0 = self._lane0
        for (y, z), xs in self._comp_items:
            hit = (left_mask >> y) & lane0
            if hit:
                acc |= (hit & (right_mask >> z)) * xs
        return acc


def sat_mask(model: Model, f: fm.Formula) -> int:
    return Evaluator(model.frame).mask(f, model.masks)


def sat_set(model: Model, f: fm.Formula) -> frozenset[int]:
    """Worlds of the model satisfying f."""
    return frozenset(bits(sat_mask(model, f)))


def holds_box(model: Model, x: int, f: fm.Formula) -> bool:
    """Box satisfaction at x via the derived S relation.

    Equals membership of x in sat_set(model, Box(f)); the two routes agreeing
    is a correctness invariant of the S construction.
    """
    srel = s_relation(model.frame)
    good = sat_mask(model, f)
    return srel.succ[x] & ~good == 0


@dataclass(frozen=True)
class Valid:
    pass


@dataclass(frozen=True)
class Refuted:
    model: Model
    world: int


@dataclass(frozen=True)
class Unknown:
    reason: str


Verdict = Valid | Refuted | Unknown

#: Exhaustive validity is only attempted up to this many valuation bits.
EXHAUSTIVE_BIT_LIMIT = 24
#: Lanes of the first chunk of a validity scan, and of the widest chunk.
FIRST_LANES, MAX_LANES = 1 << 6, 1 << 16


def _inventory(f: fm.Formula) -> list[str]:
    """Letters enumerated for validity, in lexicographic order.

    The reserved letter behind T/F is skipped: excluded middle makes every
    formula's value independent of it, and the least witness would assign it
    the empty set anyway.
    """
    return sorted(fm.letters(f) - {fm.TOP_LETTER})


def _exhaustive_chunks(n: int, inventory: list[str]):
    """(packed letter masks, lanes) of every valuation, in aligned chunks of
    FIRST_LANES lanes and then as many as were scanned before, at most
    MAX_LANES. low[j] is letter j under valuations 0 .. lanes-1; doubling
    appends a copy with index bit `lanes` set: the next lanes valuations."""
    total, full = 1 << (n * len(inventory)), (1 << n) - 1
    lo, lanes, lane0, low = 0, 1, 1, [0] * len(inventory)
    while lo < total:
        while lanes < min(max(FIRST_LANES, lo), MAX_LANES, total):
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
        yield {p: int("".join(f"{v:0{n}b}" for v in reversed(col)), 2)
               for p, col in zip(inventory, zip(*draws))}, lanes
        drawn, lanes = drawn + lanes, 2 * lanes


def frame_validity(frame: Frame, f: fm.Formula, strategy: str = "exhaustive",
                   seed: int = 0, samples: int = 1000) -> Verdict:
    """Check validity of f in the frame.

    Valuations are checked one per lane of a packed Evaluator (bit lane * n
    + world), up to MAX_LANES per pass; the lowest failing bit of the first
    failing chunk is the refutation: the least lane, then the least world.
    The exhaustive strategy counts in binary over the world-by-letter grid
    (letter j, lexicographic, holds world w when bit j * n + w of the index
    is set) in aligned chunks that start at FIRST_LANES lanes and double, so
    an early refutation costs one small pass: it proves validity, returns the
    least refutation, or returns Unknown past the bit limit. The random
    strategy draws seeded samples in chunks of 16, 32, ... lanes and returns
    the first refuting one, or Unknown.
    """
    inventory, n, dag = _inventory(f), frame.size, fm.to_dag(f)
    if strategy == "exhaustive":
        if n * len(inventory) > EXHAUSTIVE_BIT_LIMIT:
            return Unknown("exhaustive budget exceeded")
        chunks, no_refutation = _exhaustive_chunks(n, inventory), Valid()
    elif strategy == "random":
        chunks = _random_chunks(n, inventory, seed, samples)
        no_refutation = Unknown(f"no refutation in {samples} samples")
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    for masks, lanes in chunks:
        ev = Evaluator(frame, lanes)
        failing = ev.full & ~ev.mask(dag, masks)
        if failing:
            lane, world = divmod((failing & -failing).bit_length() - 1, n)
            masks = {p: (m >> (lane * n)) & ((1 << n) - 1) for p, m in masks.items()}
            witness = {p: set(bits(m)) for p, m in masks.items() if m}
            return Refuted(Model(frame, witness), world)
    return no_refutation


class _Budget:
    __slots__ = ("left",)

    def __init__(self, steps: int):
        self.left = steps

    def spend(self, steps: int) -> bool:
        self.left -= steps
        return self.left >= 0


def _greedy_refute(ev: Evaluator, dag: fm.Dag, inventory: list[str],
                   budget: _Budget) -> dict[str, int] | None | str:
    """Backtracking search for a refuting valuation, one bit at a time.

    Bits are decided most significant first with 0 before 1, so the first
    hit is the lexicographically least refuting valuation index. A subtree
    is pruned when the formula is certainly true everywhere under every
    completion (ev.bounds on one lane), and a branch succeeds early
    (zero-filling the rest) when some world certainly fails. Each bound
    charges the budget the node count of the desugared tree. Returns the
    letter masks, None when the whole tree is exhausted, or "budget" when
    the steps run out.
    """
    n, full, cost = ev.frame.size, ev.full, dag.tree_size()
    # pin the reserved constants letter: satisfaction is independent of it,
    # and deciding it keeps the bounds exact once all real letters are set
    known = dict.fromkeys(inventory, 0) | {fm.TOP_LETTER: full}
    value = dict.fromkeys(inventory, 0) | {fm.TOP_LETTER: 0}
    order = [
        (inventory[pos // n], (pos % n))
        for pos in range(len(inventory) * n - 1, -1, -1)
    ]

    def descend(depth: int) -> dict[str, int] | None | str:
        if not budget.spend(cost):
            return "budget"
        must, may = ev.bounds(dag, known, value)
        if must == full:
            return None  # certainly valid under every completion: prune
        if may != full:
            # some world certainly fails: zero-fill the undecided rest
            return {p: value[p] for p in inventory}
        if depth == len(order):
            return {p: value[p] for p in inventory}  # decided, a world fails
        letter, w = order[depth]
        known[letter] |= 1 << w
        for bit in (0, 1):
            if bit:
                value[letter] |= 1 << w
            got = descend(depth + 1)
            if got is not None:
                if bit:
                    value[letter] &= ~(1 << w)
                known[letter] &= ~(1 << w)
                return got
        value[letter] &= ~(1 << w)
        known[letter] &= ~(1 << w)
        return None

    return descend(0)


def countermodel_search(f: fm.Formula, max_worlds: int, budget: int,
                        seed: int = 0) -> tuple[Model, int] | None:
    """Search for an associative model and world falsifying f.

    Streams associative frames by world count; each frame gets a handful of
    seeded valuation probes and then a greedy bit-by-bit backtracker over
    valuations, which prunes completions that cannot refute and is complete
    when it runs to the end. The budget counts elementary evaluation steps
    (nodes of the desugared tree per valuation or per bound computed),
    though each is one pass over the compiled Dag's fewer ops; exhausting it
    returns None, which carries no validity claim.
    """
    tracker = _Budget(budget)
    dag = fm.to_dag(f)
    cost = dag.tree_size()  # node_count(desugar(f)), the budget's unit
    rng = random.Random(seed)
    inventory = _inventory(f)
    for n in range(1, max_worlds + 1):
        full = (1 << n) - 1
        for frame in enumerate_frames(n, require_associative=True):
            ev = Evaluator(frame)  # shared by the probes, the backtracker and the check
            probes = [
                {p: 0 for p in inventory},
                {p: full for p in inventory},
            ]
            for _ in range(14):
                probes.append({p: rng.getrandbits(n) for p in inventory})
            seen = set()
            for masks in probes:
                key = tuple(masks[p] for p in inventory)
                if key in seen:
                    continue
                seen.add(key)
                if not tracker.spend(cost):
                    return None
                failing = full & ~ev.mask(dag, masks)
                if failing:
                    return _found(frame, masks, failing)
            got = _greedy_refute(ev, dag, inventory, tracker)
            if got == "budget":
                return None
            if got is not None:
                failing = full & ~ev.mask(dag, got)
                assert failing, "backtracker returned a non-refuting valuation"
                return _found(frame, got, failing)
    return None


def _found(frame: Frame, masks: dict[str, int], failing: int) -> tuple[Model, int]:
    assert check_associative(frame) is None
    witness = {p: set(bits(m)) for p, m in masks.items() if m}
    model = Model(frame, witness)
    return model, (failing & -failing).bit_length() - 1


def __getattr__(name: str):
    """Keeps the retired ProcessPoolExecutor importable for bench/tracer.py."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor
