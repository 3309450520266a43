"""Model checking for the binary-diamond language over finite frames.

Satisfaction sets are computed bottom-up as world bitmasks; frame validity
enumerates valuations in a fixed order so refutation witnesses are
reproducible; countermodel search streams associative frames and interleaves
cheap valuation probes with exhaustive scans under a step budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from tilemodal import formula as fm
from tilemodal.frames import (
    Frame,
    Model,
    bits,
    check_associative,
    enumerate_frames,
    s_relation,
)
from tilemodal.frames import _comp_index


class Evaluator:
    """Caching satisfaction-set evaluator for one model.

    With lanes > 1 the letter masks hold one valuation per lane, packed
    world-minor (bit lane * n + world), and so does every satisfaction set.

    Derived connectives are evaluated by their classical equivalences, which
    coincide pointwise with evaluating the desugared core tree.
    """

    def __init__(self, model: Model, lanes: int = 1):
        self.model = model
        self.full = (1 << (model.frame.size * lanes)) - 1
        self._lane0 = self.full // ((1 << model.frame.size) - 1)  # bit 0 of each lane
        self._comp_items = tuple(_comp_index(model.frame).items())
        self._cache: dict[int, tuple[fm.Formula, int]] = {}

    def mask(self, f: fm.Formula) -> int:
        key = id(f)
        hit = self._cache.get(key)
        if hit is not None:
            return hit[1]
        m = self._eval(f)
        self._cache[key] = (f, m)
        return m

    def _eval(self, f: fm.Formula) -> int:
        if isinstance(f, fm.Letter):
            return self.model.letter_mask(f.name)
        if isinstance(f, fm.Neg):
            return self.full & ~self.mask(f.sub)
        if isinstance(f, fm.Or):
            return self.mask(f.left) | self.mask(f.right)
        if isinstance(f, fm.And):
            return self.mask(f.left) & self.mask(f.right)
        if isinstance(f, fm.Implies):
            return (self.full & ~self.mask(f.left)) | self.mask(f.right)
        if isinstance(f, fm.Iff):
            l, r = self.mask(f.left), self.mask(f.right)
            return self.full & ~(l ^ r)
        if isinstance(f, fm.Top):
            return self.full
        if isinstance(f, fm.Bottom):
            return 0
        if isinstance(f, fm.Comp):
            return self._comp(self.mask(f.left), self.mask(f.right))
        if isinstance(f, fm.HookR):
            bad = self._comp(self.mask(f.left), self.full & ~self.mask(f.right))
            return self.full & ~bad
        if isinstance(f, fm.HookL):
            bad = self._comp(self.full & ~self.mask(f.left), self.mask(f.right))
            return self.full & ~bad
        if isinstance(f, fm.Box):
            sub = f.sub
            once = fm.HookR(fm.Top(), sub)
            m = self.mask(once)
            m &= self.mask(fm.HookL(sub, fm.Top()))
            m &= self.mask(fm.HookL(once, fm.Top()))
            return m
        raise TypeError(f"not a Formula: {f!r}")

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
    return Evaluator(model).mask(f)


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
    return srel.successors(x) & ~good == 0


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
                   seed: int = 0, samples: int = 1000, jobs: int = 1) -> Verdict:
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
    the first refuting one, or Unknown. jobs is accepted for compatibility.
    """
    inventory, n = _inventory(f), frame.size
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
        ev = Evaluator(Model._from_masks(frame, masks), lanes)
        failing = ev.full & ~ev.mask(f)
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


class _IntervalBounds:
    """Three-valued evaluation under a partial valuation.

    Each letter carries a mask of decided bit positions and their values;
    every subformula gets a (must, may) world-mask pair bracketing its
    satisfaction set over all completions of the assignment. The diamond is
    monotone in both arguments and negation swaps the complements, so the
    bounds are sound on the desugared core.
    """

    def __init__(self, frame: Frame, nodes: int, budget: _Budget):
        self.full, self._lane0 = (1 << frame.size) - 1, 1
        self._comp_items = tuple(_comp_index(frame).items())
        self.nodes = nodes
        self.budget = budget

    def bounds(self, f: fm.Formula, known: dict[str, int],
               value: dict[str, int]) -> tuple[int, int] | None:
        """(must, may) of the desugared-core formula f, or None when the
        step budget runs dry."""
        if not self.budget.spend(self.nodes):
            return None
        return self._bounds(f, known, value)

    def _bounds(self, f, known, value) -> tuple[int, int]:
        if isinstance(f, fm.Letter):
            k = known.get(f.name, 0)
            v = value.get(f.name, 0)
            return v & k, v | (self.full & ~k)
        if isinstance(f, fm.Neg):
            must, may = self._bounds(f.sub, known, value)
            return self.full & ~may, self.full & ~must
        if isinstance(f, fm.Or):
            lm, lM = self._bounds(f.left, known, value)
            rm, rM = self._bounds(f.right, known, value)
            return lm | rm, lM | rM
        if isinstance(f, fm.Comp):
            lm, lM = self._bounds(f.left, known, value)
            rm, rM = self._bounds(f.right, known, value)
            return self._comp(lm, rm), self._comp(lM, rM)
        raise TypeError(f"not a core node: {f!r}")

    _comp = Evaluator._comp  # the one diamond kernel, on a single lane


def _greedy_refute(frame: Frame, core: fm.Formula, inventory: list[str],
                   budget: _Budget) -> dict[str, int] | None | str:
    """Backtracking search for a refuting valuation, one bit at a time.

    Bits are decided most significant first with 0 before 1, so the first
    hit is the lexicographically least refuting valuation index. A subtree
    is pruned when the formula is certainly true everywhere under every
    completion, and a branch succeeds early (zero-filling the rest) when
    some world certainly fails. Returns the letter masks, None when the
    whole tree is exhausted, or "budget" when the steps run out.
    """
    n = frame.size
    ivals = _IntervalBounds(frame, fm.node_count(core), budget)
    full = (1 << n) - 1
    known = {p: 0 for p in inventory}
    value = {p: 0 for p in inventory}
    # pin the reserved constants letter: satisfaction is independent of it,
    # and deciding it keeps the bounds exact once all real letters are set
    known[fm.TOP_LETTER] = full
    value[fm.TOP_LETTER] = 0
    order = [
        (inventory[pos // n], (pos % n))
        for pos in range(len(inventory) * n - 1, -1, -1)
    ]

    def descend(depth: int) -> dict[str, int] | None | str:
        got = ivals.bounds(core, known, value)
        if got is None:
            return "budget"
        must, may = got
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
    (formula nodes per valuation or per bound computed); exhausting it
    returns None, which carries no validity claim.
    """
    tracker = _Budget(budget)
    core = fm.desugar(f)
    cost = fm.node_count(core)
    rng = random.Random(seed)
    inventory = _inventory(f)
    for n in range(1, max_worlds + 1):
        full = (1 << n) - 1
        for frame in enumerate_frames(n, require_associative=True):
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
                model = Model._from_masks(frame, dict(masks))
                failing = full & ~Evaluator(model).mask(f)
                if failing:
                    return _found(frame, masks, failing)
            got = _greedy_refute(frame, core, inventory, tracker)
            if got == "budget":
                return None
            if got is not None:
                model = Model._from_masks(frame, dict(got))
                failing = full & ~Evaluator(model).mask(f)
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
