import random
import subprocess
import sys
from itertools import islice, product

import pytest

from conftest import random_formula
from tilemodal import formula as fm
from tilemodal import powerset_symbolic as ps
from tilemodal import reduction
from tilemodal.formula import (
    Bottom,
    Box,
    Comp,
    HookL,
    HookR,
    Letter,
    Neg,
    Or,
    Top,
    parse,
)
from tilemodal.frames import (
    Frame,
    Model,
    bits,
    enumerate_frames,
    mask_of,
    powerset_frame,
    powerset_worlds,
    s_relation,
)
from tilemodal.tiling import PeriodicTiling, SearchBudgetExceeded, Tile, TileSet
from tilemodal.semantics import (
    FIRST_LANES,
    MAX_LANES,
    PASS_VALUATIONS,
    SUBTREE_LEVELS,
    Evaluator,
    Refuted,
    Unknown,
    Valid,
    _inventory,
    _pack,
    _walk,
    countermodel_search,
    frame_validity,
    sat_mask,
    sat_set,
)

p, q, r = Letter("p"), Letter("q"), Letter("r")
ASSOC_AXIOM = parse("(p o q) o r <-> p o (q o r)")


def all_models(frame: Frame, letters: tuple[str, ...]):
    n = frame.size
    for masks in product(range(1 << n), repeat=len(letters)):
        yield Model(frame, {
            l: set(bits(m)) for l, m in zip(letters, masks)
        })


class TestSatSet:
    def test_composition_on_powerset(self):
        model = Model(powerset_frame(1, "union"), {"p": {1}, "q": {0}})
        assert sat_set(model, Comp(p, q)) == frozenset({1})

    def test_hook_right_vacuous_at_empty_set(self):
        model = Model(powerset_frame(1, "union"), {"p": {1}, "q": {0}})
        assert 0 in sat_set(model, HookR(p, q))

    def test_negation_is_complement(self):
        rng = random.Random(0)
        for _ in range(50):
            n = rng.choice((1, 2, 3))
            frame = Frame(n, frozenset(
                t for t in product(range(n), repeat=3) if rng.random() < 0.4
            ))
            model = Model(frame, {"p": set(bits(rng.getrandbits(n)))})
            everything = frozenset(range(n))
            assert sat_set(model, Neg(p)) == everything - sat_set(model, p)

    def test_missing_letters_default_empty(self):
        model = Model(powerset_frame(1, "union"), {})
        assert sat_set(model, Letter("nowhere")) == frozenset()

    def test_hooks_match_universal_clauses(self):
        rng = random.Random(5)
        for _ in range(80):
            n = rng.choice((2, 3))
            frame = Frame(n, frozenset(
                t for t in product(range(n), repeat=3) if rng.random() < 0.4
            ))
            model = Model(frame, {
                "p": set(bits(rng.getrandbits(n))),
                "q": set(bits(rng.getrandbits(n))),
            })
            sp, sq = sat_set(model, p), sat_set(model, q)
            for x in range(n):
                expect_r = all(
                    (z in sq) or (y not in sp)
                    for (xx, y, z) in frame.triples if xx == x
                )
                expect_l = all(
                    (y in sq) or (z not in sp)
                    for (xx, y, z) in frame.triples if xx == x
                )
                assert (x in sat_set(model, HookR(p, q))) == expect_r
                assert (x in sat_set(model, HookL(q, p))) == expect_l


def holds_box(model: Model, x: int, f: fm.Formula) -> bool:
    """Box satisfaction at x via the derived S relation: the second route
    to membership of x in sat_set(model, Box(f))."""
    return s_relation(model.frame).succ[x] & ~sat_mask(model, f) == 0


class TestHoldsBox:
    def test_one_world_reflexive(self):
        model = Model(Frame(1, frozenset({(0, 0, 0)})), {"p": {0}})
        assert holds_box(model, 0, p)

    def test_one_world_vacuous(self):
        model = Model(Frame(1, frozenset()), {"p": set()})
        assert holds_box(model, 0, p)

    def test_two_routes_agree_on_small_models(self):
        for frame in enumerate_frames(2):
            for model in all_models(frame, ("p", "q")):
                box_mask = sat_set(model, Box(Or(p, q)))
                for x in range(frame.size):
                    assert holds_box(model, x, Or(p, q)) == (x in box_mask)

    def test_two_routes_agree_on_random_size3(self):
        rng = random.Random(6)
        for _ in range(40):
            frame = Frame(3, frozenset(
                t for t in product(range(3), repeat=3) if rng.random() < 0.3
            ))
            model = Model(frame, {
                "p": set(bits(rng.getrandbits(3))),
                "q": set(bits(rng.getrandbits(3))),
            })
            f = Comp(p, Neg(q))
            box_mask = sat_set(model, Box(f))
            for x in range(3):
                assert holds_box(model, x, f) == (x in box_mask)


class TestFrameValidity:
    def test_assoc_axiom_valid_on_associative_frames(self):
        for frame in enumerate_frames(1):
            assert isinstance(frame_validity(frame, ASSOC_AXIOM), Valid)
        for frame in enumerate_frames(2, require_associative=True):
            assert isinstance(frame_validity(frame, ASSOC_AXIOM), Valid)

    def test_assoc_axiom_refuted_on_non_associative_frame(self):
        frame = Frame(2, frozenset({(0, 0, 1)}))
        verdict = frame_validity(frame, ASSOC_AXIOM)
        assert isinstance(verdict, Refuted)
        ev = sat_set(verdict.model, ASSOC_AXIOM)
        assert verdict.world not in ev

    def test_excluded_middle_valid_everywhere(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.choice((1, 2, 3))
            frame = Frame(n, frozenset(
                t for t in product(range(n), repeat=3) if rng.random() < 0.5
            ))
            assert isinstance(frame_validity(frame, Or(p, Neg(p))), Valid)

    def test_exhaustive_budget_gives_unknown(self):
        frame = powerset_frame(3, "union")
        many = fm.disj([Letter(f"v{i}") for i in range(5)])
        verdict = frame_validity(frame, many)
        assert isinstance(verdict, Unknown)

    def test_refutation_witness_is_least(self):
        frame = Frame(2, frozenset({(0, 0, 1)}))
        verdict = frame_validity(frame, ASSOC_AXIOM)
        # recompute the least witness by explicit scan in enumeration order
        inventory = sorted(fm.letters(ASSOC_AXIOM))
        for v in range(1 << (2 * len(inventory))):
            masks = {
                l: (v >> (j * 2)) & 3 for j, l in enumerate(inventory)
            }
            model = Model(frame, {l: set(bits(m)) for l, m in masks.items()})
            failing = sorted(set(range(2)) - set(sat_set(model, ASSOC_AXIOM)))
            if failing:
                assert verdict.model == model
                assert verdict.world == failing[0]
                break

    def test_random_strategy(self):
        frame = Frame(2, frozenset({(0, 0, 1)}))
        assert isinstance(
            frame_validity(frame, Or(p, Neg(p)), strategy="random", samples=50),
            Unknown,
        )
        hit = frame_validity(frame, ASSOC_AXIOM, strategy="random",
                             seed=1, samples=500)
        assert isinstance(hit, Refuted)
        again = frame_validity(frame, ASSOC_AXIOM, strategy="random",
                               seed=1, samples=500)
        assert hit == again

    def test_constant_letter_not_counted_against_bit_limit(self):
        # 15 worlds and one real letter: 15 bits, although F brings in the
        # reserved letter behind the constants
        frame = powerset_frame(4, "union_nonempty")
        verdict = frame_validity(frame, parse("p o (p | F) -> p"))
        assert isinstance(verdict, Refuted)
        assert verdict.world == 2
        assert verdict.model.valuation == {"p": frozenset({0, 1})}

    def test_at_bit_limit(self):
        # 4 worlds and 6 letters: 2^24 valuations, all scanned
        frame = powerset_frame(2, "union")
        f = parse("(a o b) o (c o d) -> a o (b o (c o (d | e | g)))")
        assert isinstance(frame_validity(frame, f), Valid)


def _least_refutation(frame: Frame, f: fm.Formula, valuations):
    """(masks, world) of the first valuation refuting f, one Evaluator per
    valuation: the reference for the packed scan."""
    full = (1 << frame.size) - 1
    for masks in valuations:
        failing = full & ~Evaluator(frame).mask(f, masks)
        if failing:
            return masks, (failing & -failing).bit_length() - 1
    return None


def _exhaustive_order(frame: Frame, f: fm.Formula):
    n, inventory = frame.size, _inventory(f)
    for v in range(1 << (n * len(inventory))):
        yield {p: (v >> (j * n)) & ((1 << n) - 1) for j, p in enumerate(inventory)}


def _random_order(frame: Frame, f: fm.Formula, seed: int, samples: int):
    rng, inventory = random.Random(seed), _inventory(f)
    for _ in range(samples):
        yield {p: rng.getrandbits(frame.size) for p in inventory}


def _assert_matches(verdict, frame: Frame, expected) -> None:
    if expected is None:
        assert not isinstance(verdict, Refuted)
        return
    masks, world = expected
    assert isinstance(verdict, Refuted)
    assert verdict.world == world
    assert verdict.model == Model(frame, {p: set(bits(m)) for p, m in masks.items() if m})


class TestLaneScan:
    """The packed scan against one Evaluator per valuation."""

    def test_agrees_with_per_valuation_scan(self):
        rng = random.Random(31)
        kinds = set()
        for _ in range(300):
            n = rng.choice((1, 2, 3, 4))
            frame = Frame(n, frozenset(
                t for t in product(range(n), repeat=3) if rng.random() < 0.4
            ))
            f = random_formula(rng, rng.randint(1, 4), ("p", "q", "r")[:rng.choice((1, 2, 3))])
            if n * len(_inventory(f)) > 10:
                continue
            verdict = frame_validity(frame, f)
            _assert_matches(verdict, frame, _least_refutation(
                frame, f, _exhaustive_order(frame, f)))
            seed, samples = rng.randrange(100), rng.choice((1, 15, 16, 17, 50, 200))
            sampled = frame_validity(frame, f, strategy="random", seed=seed, samples=samples)
            _assert_matches(sampled, frame, _least_refutation(
                frame, f, _random_order(frame, f, seed, samples)))
            kinds.add((type(verdict).__name__, type(sampled).__name__))
        assert kinds == {("Valid", "Unknown"), ("Refuted", "Refuted"), ("Refuted", "Unknown")}

    @staticmethod
    def _only_at(index: int, letters: int) -> fm.Formula:
        """False at the one world of a reflexive point exactly under
        valuation `index` of letters a00, a01, ...; the diamond is the
        identity there, so half the literals go through it."""
        literals = []
        for j in range(letters):
            a = Letter(f"a{j:02d}")
            literals.append(Comp(a, a) if index >> j & 1 else Neg(Comp(a, Top())))
        return Neg(fm.conj(literals))

    def test_least_refutation_at_chunk_boundaries(self):
        point = Frame(1, frozenset({(0, 0, 0)}))
        for index in (0, 63, 64, 65, 127, 128, 255):
            verdict = frame_validity(point, self._only_at(index, 8))
            expected = {f"a{j:02d}": frozenset({0}) for j in range(8) if index >> j & 1}
            assert isinstance(verdict, Refuted), index
            assert verdict.world == 0 and verdict.model.valuation == expected, index

    def test_last_valuation_past_the_widest_chunk(self):
        point = Frame(1, frozenset({(0, 0, 0)}))
        letters = MAX_LANES.bit_length() + 1  # 4 * MAX_LANES valuations
        verdict = frame_validity(point, self._only_at((1 << letters) - 1, letters))
        assert isinstance(verdict, Refuted)
        assert verdict.model.valuation == {f"a{j:02d}": frozenset({0}) for j in range(letters)}

    def test_random_strategy_draws_exactly_the_samples_asked(self):
        point = Frame(1, frozenset({(0, 0, 0)}))
        f = self._only_at(0b1011, 6)
        first = next(i for i, masks in enumerate(_random_order(point, f, 3, 10 ** 4))
                     if masks == {f"a{j:02d}": 0b1011 >> j & 1 for j in range(6)})
        assert first > 16  # past the first chunk
        assert isinstance(frame_validity(point, f, "random", 3, first + 1), Refuted)
        assert isinstance(frame_validity(point, f, "random", 3, first), Unknown)

    def test_no_refutation(self):
        point = Frame(1, frozenset({(0, 0, 0)}))
        f = Or(self._only_at(5, 8), Neg(self._only_at(5, 8)))
        assert isinstance(frame_validity(point, f), Valid)


class TestOperatorLaws:
    def test_normality_and_additivity(self):
        rng = random.Random(21)
        for _ in range(100):
            n = rng.choice((1, 2, 3))
            frame = Frame(n, frozenset(
                t for t in product(range(n), repeat=3) if rng.random() < 0.4
            ))
            model = Model(frame, {
                "p": set(bits(rng.getrandbits(n))),
                "q": set(bits(rng.getrandbits(n))),
                "r": set(bits(rng.getrandbits(n))),
            })
            assert sat_set(model, Comp(p, Bottom())) == frozenset()
            assert sat_set(model, Comp(Bottom(), p)) == frozenset()
            assert sat_set(model, Comp(Or(p, q), r)) == (
                sat_set(model, Comp(p, r)) | sat_set(model, Comp(q, r))
            )

    def test_comp_monotone_in_valuation(self):
        rng = random.Random(22)
        for _ in range(60):
            n = rng.choice((2, 3))
            frame = Frame(n, frozenset(
                t for t in product(range(n), repeat=3) if rng.random() < 0.4
            ))
            small = rng.getrandbits(n)
            grown = small | rng.getrandbits(n)
            qm = rng.getrandbits(n)
            before = sat_set(Model(frame, {"p": set(bits(small)),
                                           "q": set(bits(qm))}), Comp(p, q))
            after = sat_set(Model(frame, {"p": set(bits(grown)),
                                          "q": set(bits(qm))}), Comp(p, q))
            assert before <= after

    def test_diamond_definable_on_nonempty_powerset(self):
        # exhaustive over all valuations of p for k <= 3
        for k in (1, 2, 3):
            frame = powerset_frame(k, "union_nonempty")
            worlds = powerset_worlds(k, "union_nonempty")
            for pmask in range(1 << frame.size):
                pw = set(bits(pmask))
                model = Model(frame, {"p": pw})
                got = sat_set(model, Comp(p, Top()))
                expect = frozenset(
                    x for x in range(frame.size)
                    if any(worlds[y] <= worlds[x] for y in pw)
                )
                assert got == expect


def _greedy_refute(ev: Evaluator, dag: fm.Dag, inventory: list[str], budget, cost: int):
    """The bounds walk alone, from its root: the letter masks of the least
    refuting valuation, or None when no valuation refutes."""
    return _walk(ev, dag, inventory, budget, cost, 0)


def _linear_scan(frame: Frame, f: fm.Formula, inventory: list[str]):
    """(masks, least failing world) of the first valuation of the inventory
    refuting f, in valuation-index order, or None: the oracle for the
    backtracker, walking the tree."""
    n, full = frame.size, (1 << frame.size) - 1
    for v in range(1 << (n * len(inventory))):
        masks = {l: (v >> (j * n)) & full for j, l in enumerate(inventory)}
        failing = full & ~_tree_mask(frame, masks, f)
        if failing:
            return masks, (failing & -failing).bit_length() - 1
    return None


class TestGreedyBacktracker:
    def test_matches_linear_scan_least_witness(self):
        from tilemodal.semantics import _Budget

        rng = random.Random(12)
        formulas = [
            Neg(Comp(p, q)),
            parse("(p o q) o r <-> p o (q o r)"),
            parse("p @> q"),
            parse("~(p o ~p) | q"),
            Or(p, Neg(p)),
        ]
        for _ in range(120):
            n = rng.choice((1, 2))
            frame = Frame(n, frozenset(
                t for t in product(range(n), repeat=3) if rng.random() < 0.4
            ))
            f = rng.choice(formulas)
            inventory = _inventory(f)
            dag = fm.to_dag(fm.desugar(f))
            got = _greedy_refute(Evaluator(frame), dag, inventory, _Budget(10 ** 9),
                                 dag.tree_size())
            expected = _linear_scan(frame, f, inventory)
            assert got == (expected and expected[0])

    def test_budget_exhaustion_reported(self):
        from tilemodal.semantics import _Budget

        frame = Frame(2, frozenset({(0, 0, 1)}))
        f = fm.to_dag(fm.desugar(ASSOC_AXIOM))
        with pytest.raises(SearchBudgetExceeded):
            _greedy_refute(Evaluator(frame), f, _inventory(ASSOC_AXIOM), _Budget(3),
                           f.tree_size())


class TestTheLetterTop:
    """T and F are constants; a letter named _top, which desugared text uses
    to spell T, is enumerated and searched like any other letter."""

    def test_frame_validity_refutes_not_top(self):
        frame = Frame(1, frozenset())
        verdict = frame_validity(frame, parse("~_top"))
        assert verdict == Refuted(Model(frame, {"_top": {0}}), 0)

    def test_countermodel_search_refutes_not_top(self):
        hit = countermodel_search(parse("~_top"), 1, 10 ** 6)
        assert hit is not None
        model, world = hit
        assert model.frame.size == 1 and world not in sat_set(model, parse("~_top"))

    def test_constants_and_the_letter_against_the_linear_scan(self):
        from tilemodal.semantics import _Budget

        rng, seen = random.Random(67), set()
        for _ in range(400):
            n = rng.choice((1, 2))
            frame = Frame(n, frozenset(
                t for t in product(range(n), repeat=3) if rng.random() < 0.4
            ))
            f = random_formula(rng, rng.randint(1, 4), ("p", "_top"))
            text = fm.render(f)
            seen.update(token for token in ("T", "F", "[]", "_top") if token in text)
            names = {g.name for g in fm.walk(f) if isinstance(g, Letter)}
            expected = _linear_scan(frame, f, sorted(names))
            _assert_matches(frame_validity(frame, f), frame, expected)
            dag = fm.to_dag(f)
            got = _greedy_refute(Evaluator(frame), dag, _inventory(dag), _Budget(10 ** 9),
                                 dag.tree_size())
            assert got == (expected and expected[0]), text
        assert seen == {"T", "F", "[]", "_top"}


class TestCountermodelSearch:
    def test_bottom_refuted_immediately(self):
        hit = countermodel_search(Bottom(), max_worlds=2, budget=1000)
        assert hit is not None
        model, world = hit
        assert world not in sat_set(model, Bottom())

    def test_assoc_axiom_never_refuted(self):
        assert countermodel_search(ASSOC_AXIOM, max_worlds=2, budget=5000) is None

    def test_deterministic_under_seed(self):
        f = Neg(Comp(p, q))
        first = countermodel_search(f, max_worlds=2, budget=2000, seed=9)
        second = countermodel_search(f, max_worlds=2, budget=2000, seed=9)
        assert first == second
        assert first is not None
        model, world = first
        assert world not in sat_set(model, f)

    def test_one_evaluator_per_frame(self, monkeypatch):
        from tilemodal import semantics

        frames_seen, built = [], []
        enumerate_all = semantics.enumerate_frames

        def counting_frames(*args, **kwargs):
            for frame in enumerate_all(*args, **kwargs):
                frames_seen.append(frame)
                yield frame

        class CountingEvaluator(Evaluator):
            def __init__(self, frame):
                built.append(frame)
                super().__init__(frame)

        monkeypatch.setattr(semantics, "enumerate_frames", counting_frames)
        monkeypatch.setattr(semantics, "Evaluator", CountingEvaluator)
        # valid on every associative frame, so every frame up to 2 worlds is visited
        assert countermodel_search(ASSOC_AXIOM, max_worlds=2, budget=10 ** 9) is None
        assert len(frames_seen) > 10
        assert built == frames_seen

    def test_one_probe_pass_per_frame(self, monkeypatch):
        from tilemodal import semantics

        frames_seen, passes, inside = [], [], []
        enumerate_all, dag_masks, search = (
            semantics.enumerate_frames, semantics.dag_masks, semantics._least_refutation)

        def counting_frames(*args, **kwargs):
            for frame in enumerate_all(*args, **kwargs):
                frames_seen.append(frame)
                yield frame

        def counting_passes(*args, **kwargs):
            if not inside:
                passes.append(frames_seen[-1])
            return dag_masks(*args, **kwargs)

        def marked_search(*args):
            inside.append(True)
            try:
                return search(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(semantics, "enumerate_frames", counting_frames)
        monkeypatch.setattr(semantics, "dag_masks", counting_passes)
        monkeypatch.setattr(semantics, "_least_refutation", marked_search)
        f = parse("(p o q) o (r | ~p) <-> p o (q o (r | ~p))")  # valid: no hit
        assert countermodel_search(f, max_worlds=2, budget=10 ** 9) is None
        assert len(frames_seen) > 10
        assert passes == frames_seen
        frames_seen.clear()
        passes.clear()
        model, world = countermodel_search(Neg(Comp(p, q)), max_worlds=2, budget=10 ** 9)
        assert passes == frames_seen and model.frame == frames_seen[-1]

    def test_no_pass_when_the_budget_cannot_pay_one_probe(self, monkeypatch):
        from tilemodal import semantics

        passes, dag_masks = [], semantics.dag_masks

        def counting_passes(*args, **kwargs):
            passes.append(True)
            return dag_masks(*args, **kwargs)

        monkeypatch.setattr(semantics, "dag_masks", counting_passes)
        assert countermodel_search(parse("~(p o q)"), 2, 1) is None
        assert passes == []
        # a budget of exactly one probe still runs the first frame's pass
        f = parse("~(p o q)")
        countermodel_search(f, 2, fm.to_dag(f).tree_size())
        assert len(passes) == 1

    def test_returned_frame_is_associative(self):
        from tilemodal.frames import check_associative

        hit = countermodel_search(Neg(p), max_worlds=2, budget=2000)
        assert hit is not None
        assert check_associative(hit[0].frame) is None

    def test_reported_countermodels_are_checked_under_optimize(self):
        # the checks are explicit, not asserts, so python -O keeps them: a
        # non-associative frame (every frame, by the patched check) and a
        # non-refuting valuation from the backtracker are both refused
        proc = subprocess.run([sys.executable, "-O", "-c", CHECKS_UNDER_OPTIMIZE],
                              capture_output=True, text=True)
        assert proc.stdout.splitlines() == [
            "optimize 1",
            "countermodel search found a non-associative frame",
            "countermodel search found a non-refuting valuation",
        ], proc.stderr


CHECKS_UNDER_OPTIMIZE = """
import sys
from tilemodal import formula as fm, semantics

def search(f):
    try:
        semantics.countermodel_search(f, max_worlds=2, budget=2000)
    except RuntimeError as e:
        print(e)

print("optimize", sys.flags.optimize)
check_associative = semantics.check_associative
semantics.check_associative = lambda frame: (0, 0, 0)
search(fm.Neg(fm.Letter("p")))
semantics.check_associative = check_associative
semantics._least_refutation = lambda *args: ({}, 0)
search(fm.Or(fm.Letter("p"), fm.Neg(fm.Letter("p"))))
"""


# -- the op-list evaluators against tree walks ---------------------------------

MONO = TileSet(("t1",), (Tile(0, 0, 0, 0),))
SWAP = TileSet(("a", "b"), (Tile(0, 0, 1, 2), Tile(0, 0, 2, 1)))


def _tree_mask(frame: Frame, masks: dict[str, int], f: fm.Formula) -> int:
    """Satisfaction set by one clause per connective, walking the tree, with
    a diamond read straight off the triples: the oracle for the op list."""
    full = (1 << frame.size) - 1

    def dia(left: int, right: int) -> int:
        return sum({1 << x for x, y, z in frame.triples
                    if (left >> y) & 1 and (right >> z) & 1})

    def ev(g: fm.Formula) -> int:
        if isinstance(g, Letter):
            return masks.get(g.name, 0)
        if isinstance(g, Neg):
            return full & ~ev(g.sub)
        if isinstance(g, Or):
            return ev(g.left) | ev(g.right)
        if isinstance(g, fm.And):
            return ev(g.left) & ev(g.right)
        if isinstance(g, fm.Implies):
            return (full & ~ev(g.left)) | ev(g.right)
        if isinstance(g, fm.Iff):
            return full & ~(ev(g.left) ^ ev(g.right))
        if isinstance(g, Top):
            return full
        if isinstance(g, Bottom):
            return 0
        if isinstance(g, Comp):
            return dia(ev(g.left), ev(g.right))
        if isinstance(g, HookR):
            return full & ~dia(ev(g.left), full & ~ev(g.right))
        if isinstance(g, HookL):
            return full & ~dia(full & ~ev(g.left), ev(g.right))
        assert isinstance(g, Box)
        once = HookR(Top(), g.sub)
        return ev(once) & ev(HookL(g.sub, Top())) & ev(HookL(once, Top()))

    return ev(f)


def _tree_sat(s, f: fm.Formula, memo: dict) -> bool:
    """Satisfaction at a symbolic state by one clause per connective over
    the MONO refutation valuation at depth 2; memo holds the results by
    (state, formula) and the decompositions by state."""
    key = (s, f)
    if key in memo:
        return memo[key]

    def sat(t, g):
        return _tree_sat(t, g, memo)

    pairs = memo.get(s)
    if pairs is None:
        pairs = memo[s] = ps.decompositions(s, 2, "union")
    if isinstance(f, Letter):
        val = ps.eval_atom(s, f.name, PeriodicTiling((1, 1), {(0, 0): 0}), MONO)
    elif isinstance(f, Neg):
        val = not sat(s, f.sub)
    elif isinstance(f, Or):
        val = sat(s, f.left) or sat(s, f.right)
    elif isinstance(f, fm.And):
        val = sat(s, f.left) and sat(s, f.right)
    elif isinstance(f, fm.Implies):
        val = not sat(s, f.left) or sat(s, f.right)
    elif isinstance(f, fm.Iff):
        val = sat(s, f.left) == sat(s, f.right)
    elif isinstance(f, (Top, Bottom)):
        val = isinstance(f, Top)
    elif isinstance(f, Comp):
        val = any(sat(a, f.left) and sat(b, f.right) for a, b in pairs)
    elif isinstance(f, HookR):
        val = all(not sat(a, f.left) or sat(b, f.right) for a, b in pairs)
    else:
        assert isinstance(f, HookL)
        val = all(not sat(b, f.right) or sat(a, f.left) for a, b in pairs)
    memo[key] = val
    return val


def _random_frame(rng: random.Random) -> Frame:
    n = rng.randint(1, 4)
    density = rng.choice((0.15, 0.3, 0.5))
    return Frame(n, frozenset(t for t in product(range(n), repeat=3)
                              if rng.random() < density))


class TestOpList:
    """Every evaluator of the compiled Dag against a tree walk."""

    def test_phi_shares_subterms(self):
        for w, ops, nodes in ((MONO, 389, 1650), (SWAP, 477, 3180)):
            f = reduction.phi(w)
            dag = fm.to_dag(f)
            assert len(dag.ops) == ops
            assert dag.tree_size() == fm.node_count(fm.desugar(f)) == nodes
            assert dag.tree() == fm.desugar(f)

    def test_mask_on_one_lane_and_packed_lanes(self):
        rng = random.Random(41)
        for _ in range(300):
            frame, lanes = _random_frame(rng), rng.randint(2, 9)
            f = random_formula(rng, rng.randint(1, 4), ("p", "q", "r"))
            n = frame.size
            valuations = [{l: rng.getrandbits(n) for l in ("p", "q", "r")}
                          for _ in range(lanes)]
            packed = {l: sum(v[l] << (i * n) for i, v in enumerate(valuations))
                      for l in ("p", "q", "r")}
            got = Evaluator(frame).mask(f, packed, lanes)
            for i, masks in enumerate(valuations):
                expect = _tree_mask(frame, masks, f)
                assert Evaluator(frame).mask(f, masks) == expect, fm.render(f)
                assert (got >> (i * n)) & ((1 << n) - 1) == expect, fm.render(f)

    def test_decided_bounds_are_the_mask(self):
        rng = random.Random(43)
        for _ in range(300):
            frame = _random_frame(rng)
            f = random_formula(rng, rng.randint(1, 4), ("p", "q", "r"))
            masks = {l: rng.getrandbits(frame.size) for l in ("p", "q", "r")}
            known = {l: (1 << frame.size) - 1 for l in _inventory(f)}
            value = {l: masks.get(l, 0) for l in known}
            expect = _tree_mask(frame, masks, f)
            got = Evaluator(frame).bounds(fm.to_dag(f), known, value)
            assert got == (expect, expect), fm.render(f)

    def test_partial_bounds_bracket_every_completion(self):
        rng = random.Random(45)
        for _ in range(150):
            frame = _random_frame(rng)
            f = random_formula(rng, rng.randint(1, 4), ("p", "q"))
            n, full = frame.size, (1 << frame.size) - 1
            known = {"p": rng.getrandbits(n), "q": rng.getrandbits(n)}
            value = {l: rng.getrandbits(n) & k for l, k in known.items()}
            must, may = Evaluator(frame).bounds(fm.to_dag(f), known, value)
            for fill in product(range(1 << n), repeat=2):
                masks = {l: value[l] | (m & ~known[l]) for l, m in zip("pq", fill)}
                mask = _tree_mask(frame, masks, f)
                assert must & ~mask == 0 and mask & ~may == 0, fm.render(f)

    def test_on_the_lemma6_closure_frame(self, monkeypatch):
        built = []

        class Recording(Evaluator):
            def __init__(self, frame):
                built.append(frame)
                super().__init__(frame)

        monkeypatch.setattr(ps, "Evaluator", Recording)
        ps.check_refutation(MONO, PeriodicTiling((1, 1), {(0, 0): 0}), 2, "union")
        (frame,) = built
        assert (frame.size, len(frame.triples)) == (146, 2549)
        rng, n, full = random.Random(53), frame.size, (1 << frame.size) - 1
        ev = Evaluator(frame)
        for _ in range(25):
            f = random_formula(rng, rng.randint(2, 4), ("p", "q", "r"))
            masks = {l: rng.getrandbits(n) & rng.getrandbits(n) for l in ("p", "q", "r")}
            dag, expect = fm.to_dag(f), _tree_mask(frame, masks, f)
            assert ev.masks(dag, masks)[-1] == expect, fm.render(f)
            known = {l: full for l in _inventory(f)}
            value = {l: masks.get(l, 0) for l in known}
            assert ev.bounds(dag, known, value) == (expect, expect), fm.render(f)
            known = {l: rng.getrandbits(n) for l in known}
            must, may = ev.bounds(dag, known, {l: v & known[l] for l, v in value.items()})
            assert must & ~expect == 0 and expect & ~may == 0, fm.render(f)

    def test_sparse_left_masks_on_one_and_many_lanes(self):
        """Letters that miss most worlds in every lane, so that the diamond
        skips most y of the index."""
        rng = random.Random(55)
        skipped = 0
        for _ in range(400):
            n, lanes = rng.randint(3, 8), rng.choice((1, 1, 2, 5, 9))
            frame = Frame(n, frozenset(t for t in product(range(n), repeat=3)
                                       if rng.random() < 0.25))
            f = random_formula(rng, rng.randint(1, 4), ("p", "q", "r"))
            valuations = [{l: rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
                           for l in ("p", "q", "r")} for _ in range(lanes)]
            packed = {l: sum(v[l] << (i * n) for i, v in enumerate(valuations))
                      for l in ("p", "q", "r")}
            got = Evaluator(frame).masks(fm.to_dag(f), packed, lanes)[-1]
            for i, masks in enumerate(valuations):
                expect = _tree_mask(frame, masks, f)
                assert (got >> (i * n)) & ((1 << n) - 1) == expect, fm.render(f)
            lane0 = sum(1 << (i * n) for i in range(lanes))
            skipped += any(not (packed["p"] >> y) & lane0 for y in frame.rows)
        assert skipped > 300

    def test_both_walks_of_the_diamond(self):
        """The diamond walks its argument with fewer set bits, the left
        through Frame.rows or the right through Frame.cols; on frames whose
        rows and cols differ, each walk against the tree walk's diamond, with
        the left argument sparse and the right dense and the reverse."""
        rng = random.Random(57)
        walks = {"rows": 0, "cols": 0}
        for _ in range(120):
            n = rng.randint(3, 8)
            frame = Frame(n, frozenset(t for t in product(range(n), repeat=3)
                                       if rng.random() < rng.choice((0.1, 0.3, 0.6))))
            if frame.triples == {(x, z, y) for x, y, z in frame.triples}:
                continue  # rows and cols alike
            for lanes in (1, 3, 64):
                sparse = [mask_of(rng.sample(range(n), rng.randint(0, n // 3)))
                          for _ in range(lanes)]
                dense = [mask_of(rng.sample(range(n), rng.randint(n - n // 3, n)))
                         for _ in range(lanes)]
                for left, right in ((sparse, dense), (dense, sparse)):
                    packed = {"p": _pack(left, n), "q": _pack(right, n)}
                    walk = "rows" if left is sparse else "cols"
                    assert (packed["p"].bit_count() < packed["q"].bit_count()) == (walk == "rows")
                    got = Evaluator(frame).mask(Comp(p, q), packed, lanes)
                    for i, (l, r) in enumerate(zip(left, right)):
                        expect = _tree_mask(frame, {"p": l, "q": r}, Comp(p, q))
                        assert (got >> (i * n)) & ((1 << n) - 1) == expect, (walk, lanes)
                    walks[walk] += 1
        assert min(walks.values()) > 300

    def test_symbolic_evaluator_on_mono(self):
        rng = random.Random(47)
        states = ps.universe(2, "union")
        letters = ("x_e", "x_o", "y_e", "y_o", "x'", "y'", "t1")
        formulas = [f.sub for _, f in reduction.conjuncts(MONO) if isinstance(f, fm.Box)]
        while len(formulas) < 74:
            f = random_formula(rng, rng.randint(1, 3), letters)
            if "[]" not in fm.render(f):
                formulas.append(f)
        dag = fm.Dag()
        roots = [dag.add(f) for f in formulas]
        codes = list(map(ps._encode, states))
        sat = ps._satisfaction(
            MONO, PeriodicTiling((1, 1), {(0, 0): 0}), codes, 2, "union", dag)
        assert list(map(ps._decode, codes[:len(states)])) == states
        memo: dict = {}
        for f, i in zip(formulas, roots):
            for k, s in enumerate(states):
                assert sat[i] >> k & 1 == _tree_sat(s, f, memo), fm.render(f)

    def test_letters_absent_from_known_are_undecided(self):
        rng = random.Random(57)
        for _ in range(150):
            frame = _random_frame(rng)
            f = random_formula(rng, rng.randint(0, 4), ("p", "q"))
            n, full = frame.size, (1 << frame.size) - 1
            ev, dag = Evaluator(frame), fm.to_dag(f)
            assert ev.bounds(fm.to_dag(q), {"p": full}, {"p": full, "q": full}) == (0, full)
            known = {"p": rng.getrandbits(n)}
            value = {"p": rng.getrandbits(n) & known["p"], "q": rng.getrandbits(n)}
            undecided = {**known, "q": 0}
            assert ev.bounds(dag, known, value) == ev.bounds(dag, undecided, value), fm.render(f)

    def test_bounds_on_packed_lanes(self):
        rng = random.Random(59)
        for _ in range(150):
            frame, lanes = _random_frame(rng), rng.randint(2, 5)
            f = random_formula(rng, rng.randint(1, 4), ("p", "q"))
            n, full = frame.size, (1 << frame.size) - 1
            known = [{"p": rng.getrandbits(n), "q": full}
                     for _ in range(lanes)]
            value = [{l: rng.getrandbits(n) & k for l, k in lane.items()} for lane in known]
            must, may = Evaluator(frame).bounds(
                fm.to_dag(f), *({l: sum(lane[l] << (i * n) for i, lane in enumerate(side))
                                 for l in ("p", "q")} for side in (known, value)), lanes)
            for i, (k, v) in enumerate(zip(known, value)):
                lane_must, lane_may = (must >> (i * n)) & full, (may >> (i * n)) & full
                for fill in range(1 << n):
                    masks = {"p": v["p"] | (fill & ~k["p"]), "q": v["q"]}
                    mask = _tree_mask(frame, masks, f)
                    assert lane_must & ~mask == 0 and mask & ~lane_may == 0, fm.render(f)
                if k["p"] == full:
                    assert lane_must == lane_may == _tree_mask(frame, v, f), fm.render(f)


# -- the packed search against the one-valuation-per-pass search ---------------


class _SequentialBounds(Evaluator):
    """Bounds by a (must, may) pair per op, one lane, with the diamond read
    cell by cell off Frame.rows: the loop the two-lane pass replaced."""

    def bounds(self, dag, known, value):
        full, out = (1 << self.frame.size) - 1, []

        def dia(left: int, right: int) -> int:
            acc = 0
            for y, cells in self.frame.rows.items():
                for z, xs in cells.items():
                    if (left >> y) & 1 and (right >> z) & 1:
                        acc |= xs
            return acc

        for kind, a, b in dag.ops:
            if kind == fm.VAR:
                k, v = known.get(a, 0), value.get(a, 0)
                out.append((v & k, v | (full & ~k)))
            elif kind == fm.TOP:
                out.append((full, full))
            elif kind == fm.NOT:
                must, may = out[a]
                out.append((full & ~may, full & ~must))
            else:
                (lm, lM), (rm, rM) = out[a], out[b]
                out.append((lm | rm, lM | rM) if kind == fm.OR
                           else (dia(lm, rm), dia(lM, rM)))
        return out[-1]


def _one_bound_per_node(ev: Evaluator, dag: fm.Dag, inventory: list[str], budget,
                        cost: int, visits: list[int] | None = None):
    """The countermodel backtracker with one ev.bounds call per node, charged
    just before it: bits most significant first, 0 before 1, prune on must
    full, zero-fill on may not full. Appends each visited node's depth to
    visits, if given. The reference for _greedy_refute's subtree passes."""
    n, full = ev.frame.size, (1 << ev.frame.size) - 1
    known, value = dict.fromkeys(inventory, 0), dict.fromkeys(inventory, 0)
    order = [(inventory[pos // n], pos % n) for pos in range(len(inventory) * n - 1, -1, -1)]

    def descend(depth: int):
        budget.spend(cost)
        if visits is not None:
            visits.append(depth)
        must, may = ev.bounds(dag, known, value)
        if must == full:
            return None
        if may != full or depth == len(order):
            return dict(value)
        letter, w = order[depth]
        known[letter] |= 1 << w
        got = descend(depth + 1)
        if got is None:
            value[letter] |= 1 << w
            got = descend(depth + 1)
            value[letter] &= ~(1 << w)
        known[letter] &= ~(1 << w)
        return got

    return descend(0)


def _sequential_search(f: fm.Formula, max_worlds: int, budget: int, seed: int,
                       stops: list[str]):
    """countermodel_search with one tree walk per probe, charging each probe
    just before it, and _one_bound_per_node on _SequentialBounds. Appends to
    stops "probes" when the budget runs out after some of a frame's probes
    were charged, and "first probe" when before the first."""
    from tilemodal.semantics import _Budget

    tracker, dag, rng, inventory = _Budget(budget), fm.to_dag(f), random.Random(seed), _inventory(f)
    for n in range(1, max_worlds + 1):
        full = (1 << n) - 1
        for frame in enumerate_frames(n, require_associative=True):
            probes = [{p: 0 for p in inventory}, {p: full for p in inventory}]
            for _ in range(14):
                probes.append({p: rng.getrandbits(n) for p in inventory})
            seen, charged = set(), 0
            for masks in probes:
                key = tuple(masks[p] for p in inventory)
                if key in seen:
                    continue
                seen.add(key)
                try:
                    tracker.spend(dag.tree_size())
                except SearchBudgetExceeded:
                    stops.append("probes" if charged else "first probe")
                    return None
                charged += 1
                failing = full & ~_tree_mask(frame, masks, f)
                if failing:
                    return _model_at(frame, masks, failing)
            try:
                got = _one_bound_per_node(_SequentialBounds(frame), dag, inventory, tracker,
                                          dag.tree_size())
            except SearchBudgetExceeded:
                stops.append("backtracker")
                return None
            if got is not None:
                return _model_at(frame, got, full & ~_tree_mask(frame, got, f))
    stops.append("end")
    return None


def _model_at(frame: Frame, masks: dict[str, int], failing: int):
    witness = {p: set(bits(m)) for p, m in masks.items() if m}
    return Model(frame, witness), (failing & -failing).bit_length() - 1


BUDGETS = (1, 10, 50, 500, 5000, 10 ** 7)


class TestPackedSearchReplay:
    """Packed probes and two-lane bounds against the sequential loops: equal
    answers, equal witnesses, equal budget left."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """One entry per dag_masks call."""
        from tilemodal import semantics

        calls, dag_masks = [], semantics.dag_masks

        def counting_passes(*args, **kwargs):
            calls.append(True)
            return dag_masks(*args, **kwargs)

        monkeypatch.setattr(semantics, "dag_masks", counting_passes)
        return calls

    def test_countermodel_search(self):
        rng, stops, hits = random.Random(63), [], 0
        for _ in range(400):
            letters = ("p", "q", "r")[:rng.randint(1, 3)]
            f = random_formula(rng, rng.randint(1, 4), letters)
            budget, seed = rng.choice(BUDGETS), rng.randrange(1000)
            # every 3-world frame is visited only when the budget lasts
            max_worlds = rng.randint(1, 2 if budget == BUDGETS[-1] else 3)
            expect = _sequential_search(f, max_worlds, budget, seed, stops)
            assert countermodel_search(f, max_worlds, budget, seed) == expect, fm.render(f)
            hits += expect is not None
        assert hits > 100
        assert {"probes", "first probe", "backtracker", "end"} <= set(stops)
        assert stops.count("probes") > 10

    def test_countermodel_search_past_a_root_that_cannot_prune(self):
        """3 or 4 letters on at most 2 worlds: up to 8 decision bits, so a
        root pass can leave a level below it, and deep formulas keep it from
        pruning; equal answers and witnesses, over BUDGETS and budgets that
        run out inside the walk."""
        rng, stops, hits = random.Random(77), [], 0
        for _ in range(300):
            kind = rng.randrange(4)
            letters = ("p", "q", "r", "s")[:4 if kind > 1 else rng.randint(3, 4)]
            deep = [Or(Letter(l), Neg(Letter(l))) for l in letters]
            if kind == 3:  # valid on associative frames: every frame is searched
                f = fm.conj(deep + [Or(ASSOC_AXIOM, random_formula(rng, 3, letters))])
            elif kind == 2:  # refuted by two worlds of opposite letters, seldom by a probe
                one = [Letter(l) if i % 2 else Neg(Letter(l)) for i, l in enumerate(letters)]
                other = [Neg(g) if isinstance(g, Letter) else g.sub for g in one]
                f = fm.conj(deep + [Neg(fm.And(fm.conj(one), Comp(fm.conj(other), Top())))])
            else:
                f = (_searched_deep(rng, letters) if kind
                     else random_formula(rng, rng.randint(1, 4), letters))
            cost = fm.to_dag(f).tree_size()
            budget = (rng.choice(BUDGETS) if rng.random() < 0.6  # or one that ends in the walk
                      else cost * rng.randrange(40, 400) + rng.randrange(cost))
            seed, max_worlds = rng.randrange(1000), 2 if kind > 1 else rng.randint(1, 2)
            expect = _sequential_search(f, max_worlds, budget, seed, stops)
            assert countermodel_search(f, max_worlds, budget, seed) == expect, fm.render(f)
            hits += expect is not None
        assert hits > 50
        assert {"backtracker", "end"} <= set(stops) and stops.count("backtracker") > 50

    def test_the_walk_keeps_its_charges_where_the_bounds_prune_only_deep(self):
        """The seven letters decided first join as l | ~l, and the rest only
        under an or with T: no node is certainly true until all seven are
        decided, and every node at depth 7 is. So the root pass prunes
        nothing, yet the walk visits 2^8 - 1 nodes of 2^15 - 1, and a budget
        of that many charges settles the search under a step budget, as the
        one-bound-per-node walk does, on 14 and 20 bits."""
        from tilemodal.semantics import _Budget, _least_refutation

        frame = Frame(1, frozenset({(0, 0, 0)}))
        for letters in ([f"p{i:02}" for i in range(bits)] for bits in (14, 20)):
            f = fm.conj([Or(Letter(l), Neg(Letter(l))) for l in letters[-7:]]
                        + [Or(fm.conj([Letter(l) for l in letters[:-7]]), Top())])
            dag, inventory, visits = fm.to_dag(f), letters, []
            assert _inventory(dag) == inventory
            cost = dag.tree_size()
            _one_bound_per_node(_SequentialBounds(frame), dag, inventory, _Budget(10 ** 9),
                                cost, visits)
            assert len(visits) == 2 ** 8 - 1 and max(visits) == 7
            for left in (len(visits) * cost, len(visits) * cost - 1):
                packed, sequential = _Budget(left), _Budget(left)
                if left % cost:
                    with pytest.raises(SearchBudgetExceeded):
                        _least_refutation(Evaluator(frame), dag, inventory, packed, cost, 0)
                    with pytest.raises(SearchBudgetExceeded):
                        _one_bound_per_node(_SequentialBounds(frame), dag, inventory,
                                            sequential, cost)
                else:
                    assert _least_refutation(Evaluator(frame), dag, inventory, packed,
                                             cost, 0) is None
                    assert _one_bound_per_node(_SequentialBounds(frame), dag, inventory,
                                               sequential, cost) is None
                assert packed.left == sequential.left
            # the countermodel search pays its probes, then settles both 1-world frames
            probes = 16 * cost
            assert countermodel_search(f, 1, 2 * (probes + len(visits) * cost)) is None
            stops = []
            assert _sequential_search(f, 1, 2 * (probes + len(visits) * cost), 0, stops) is None
            assert stops == ["end"]

    def test_greedy_refute(self):
        rng, outcomes = random.Random(65), set()
        for _ in range(300):
            n, density = rng.randint(1, 3), rng.choice((0.15, 0.4))
            frame = Frame(n, frozenset(t for t in product(range(n), repeat=3)
                                       if rng.random() < density))
            f = random_formula(rng, rng.randint(1, 4), ("p", "q", "r")[:rng.randint(1, 3)])
            outcomes.add(_replay_greedy(frame, fm.to_dag(f), rng.choice(BUDGETS)))
        assert outcomes == {SearchBudgetExceeded, type(None), dict}

    def test_greedy_refute_past_one_pass(self):
        """3 worlds and 3 to 5 letters: 9 to 15 decision bits, so the walk
        crosses the frontier of the first pass and of the second."""
        rng, outcomes, deepest = random.Random(69), set(), []
        for _ in range(120):
            n, letters = 3, ("p", "q", "r", "s", "t")[:rng.randint(3, 5)]
            frame = Frame(n, frozenset(t for t in product(range(n), repeat=3)
                                       if rng.random() < rng.choice((0.15, 0.4))))
            f = _searched_deep(rng, letters)
            dag, visits = fm.to_dag(f), []
            budget = rng.choice((100, 3000)) * dag.tree_size() + rng.randrange(dag.tree_size())
            outcomes.add(_replay_greedy(frame, dag, budget, visits))
            deepest.append(max(visits))
        assert outcomes == {SearchBudgetExceeded, type(None), dict}
        assert sum(d > 6 for d in deepest) > 20 and sum(d > 12 for d in deepest) > 5

    def test_budget_runs_out_at_a_pass_and_inside_one(self, passes):
        """Budgets that run out at the root, at the first node a pass serves
        and inside a pass, on searches past one pass: equal budget left, and
        a pass only for the nodes paid for."""
        from tilemodal.semantics import _Budget

        rng, cut = random.Random(71), {"root": 0, "first node": 0, "inside": 0}
        while min(cut.values()) < 30:
            frame = Frame(3, frozenset(t for t in product(range(3), repeat=3)
                                       if rng.random() < 0.3))
            f = _searched_deep(rng, ("p", "q", "r"))
            dag, visits = fm.to_dag(f), []
            cost, inventory = dag.tree_size(), _inventory(f)
            _one_bound_per_node(_SequentialBounds(frame), dag, inventory,
                                _Budget(10 ** 9), cost, visits)
            # node t is the first a pass serves when its parent is on a pass's last level
            first = [t == 0 or visits[t - 1] % SUBTREE_LEVELS == 0 < visits[t - 1]
                     and visits[t] == visits[t - 1] + 1 for t in range(len(visits))]
            for t in sorted({0, len(visits) - 1, *rng.sample(range(len(visits)),
                                                             min(8, len(visits)))}):
                kind = "root" if t == 0 else "first node" if first[t] else "inside"
                cut[kind] += 1
                left = t * cost + rng.randrange(cost)  # pays nodes 0 .. t-1, not node t
                packed, sequential = _Budget(left), _Budget(left)
                passes.clear()
                with pytest.raises(SearchBudgetExceeded):
                    _greedy_refute(Evaluator(frame), dag, inventory, packed, cost)
                with pytest.raises(SearchBudgetExceeded):
                    _one_bound_per_node(_SequentialBounds(frame), dag, inventory,
                                        sequential, cost)
                assert packed.left == sequential.left, fm.render(f)
                assert len(passes) == sum(first[:t]), (fm.render(f), t)

    def test_one_pass_for_six_decision_bits(self, passes):
        from tilemodal.semantics import _Budget

        # p | ~p is certainly true only once p is decided: the whole tree is visited
        f = parse(" & ".join(f"({l} | ~{l})" for l in "abcdef"))
        dag, visits = fm.to_dag(f), []
        frame, cost = Frame(1, frozenset({(0, 0, 0)})), dag.tree_size()
        assert _greedy_refute(Evaluator(frame), dag, _inventory(f), _Budget(10 ** 9),
                              cost) is None
        assert len(passes) == 1
        _one_bound_per_node(_SequentialBounds(frame), dag, _inventory(f), _Budget(10 ** 9),
                            cost, visits)
        assert len(visits) == 2 ** (SUBTREE_LEVELS + 1) - 1


def _searched_deep(rng: random.Random, letters: tuple[str, ...]) -> fm.Formula:
    """A random formula conjoined with l | ~l for each letter l, which is
    certainly true only once l is decided, so no branch is pruned above the
    last decision level."""
    return fm.conj([Or(Letter(l), Neg(Letter(l))) for l in letters]
                   + [random_formula(rng, rng.randint(2, 5), letters)])


def _replay_greedy(frame: Frame, dag: fm.Dag, budget: int, visits: list[int] | None = None):
    """_greedy_refute on the frame's Evaluator against _one_bound_per_node
    on _SequentialBounds: equal answers, witnesses and budget left. Returns
    the answer's type, or SearchBudgetExceeded."""
    from tilemodal.semantics import _Budget

    def outcome(search, *args):
        try:
            return search(*args)
        except SearchBudgetExceeded:
            return SearchBudgetExceeded

    inventory, cost = _inventory(dag), dag.tree_size()
    packed, sequential = _Budget(budget), _Budget(budget)
    got = outcome(_greedy_refute, Evaluator(frame), dag, inventory, packed, cost)
    expect = outcome(_one_bound_per_node, _SequentialBounds(frame), dag, inventory,
                     sequential, cost, visits)
    text = fm.render(dag.tree())
    assert got == expect, text
    assert packed.left == sequential.left, text
    return got if got is SearchBudgetExceeded else type(got)


# -- one least-refutation search behind frame-valid and countermodel -----------


def _chunk_scan(frame: Frame, f: fm.Formula):
    """frame_validity's exhaustive strategy as one exact scan: every
    valuation in index order, in aligned chunks of 64 lanes and then as many
    as were scanned before, at most MAX_LANES, and the least failing lane,
    then world. The reference for the search behind both commands."""
    n, dag = frame.size, fm.to_dag(f)
    inventory, ev, full = _inventory(dag), Evaluator(frame), (1 << frame.size) - 1
    total, lo, lanes, lane0, low = 1 << (n * len(inventory)), 0, 1, 1, [0] * len(inventory)
    while lo < total:
        while lanes < min(max(64, lo), MAX_LANES, total):
            low = [m | (m | lane0 * ((lanes >> (j * n)) & full)) << (n * lanes)
                   for j, m in enumerate(low)]
            lane0 |= lane0 << (n * lanes)
            lanes *= 2
        masks = {p: low[j] | lane0 * ((lo >> (j * n)) & full) for j, p in enumerate(inventory)}
        failing = ((1 << (n * lanes)) - 1) & ~ev.mask(dag, masks, lanes)
        if failing:
            lane = ((failing & -failing).bit_length() - 1) // n
            return Refuted(*_model_at(frame, {p: (m >> (lane * n)) & full for p, m in masks.items()},
                                      (failing >> (lane * n)) & full))
        lo += lanes
    return Valid()


def _late_refutation(letters: tuple[str, ...]) -> fm.Formula:
    """Refuted exactly where the first and the last letter hold at one
    world: the least refutation index sets one bit of each, past every
    valuation of the letters between. Each letter l also joins as l | ~l, so
    no node is certainly true before every bit is decided, and none
    certainly fails before the first letter's bits are: a root pass that
    leaves them undecided cannot prune."""
    first, last = Letter(letters[0]), Letter(letters[-1])
    return fm.conj([Or(Letter(l), Neg(Letter(l))) for l in letters]
                   + [Neg(fm.And(first, last))])


class TestLeastRefutation:
    """frame_validity on frames of more than 2 * SUBTREE_LEVELS bits, where
    the exact prefix ends and the walk searches at the exact passes' pace,
    against one exact scan."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Lanes of each exact pass, bounds passes, walk layouts built, and
        the (lo, hi) of each run of exact passes."""
        from tilemodal import semantics

        seen = {"lanes": [], "bounds": 0, "layouts": 0, "runs": []}
        mask, bounds = Evaluator.mask, Evaluator.bounds
        layout, chunks = semantics._subtree_layout, semantics._exhaustive_chunks

        def counting_mask(self, f, letters, lanes=1):
            seen["lanes"].append(lanes)
            return mask(self, f, letters, lanes)

        def counting_bounds(self, *args):
            seen["bounds"] += 1
            return bounds(self, *args)

        def counting_layout(*args):
            seen["layouts"] += 1
            return layout(*args)

        def counting_chunks(n, inventory, lo, hi):
            seen["runs"].append((lo, hi))
            return chunks(n, inventory, lo, hi)

        monkeypatch.setattr(Evaluator, "mask", counting_mask)
        monkeypatch.setattr(Evaluator, "bounds", counting_bounds)
        monkeypatch.setattr(semantics, "_subtree_layout", counting_layout)
        monkeypatch.setattr(semantics, "_exhaustive_chunks", counting_chunks)
        return seen

    @staticmethod
    def _kept_pace(counted, total: int) -> bool:
        """Whether the exact prefix was read, then the walk, and then exact
        passes from where the walk handed over, if it did: then the walk made
        every pass its pace allows there and no more. Returns whether it
        did."""
        prefix = 1 << 2 * SUBTREE_LEVELS
        runs, passes = counted["runs"], counted["bounds"]
        assert runs[0] == (0, prefix) and len(runs) <= 2
        if len(runs) == 1:
            return False
        (lo, hi), = runs[1:]
        assert hi == total and prefix <= lo < total
        assert passes == (lo - prefix + ((total - prefix) >> 3)) // PASS_VALUATIONS
        return True

    def _clear(self, counted) -> None:
        counted["lanes"].clear()
        counted["runs"].clear()
        counted["bounds"] = 0

    def test_small_frames_never_walk(self, counted):
        """Up to 2 * SUBTREE_LEVELS bits the exact prefix is every valuation:
        no bounds pass, and no walk layout is built."""
        rng, kinds = random.Random(73), set()
        for _ in range(150):
            frame = _random_frame(rng)
            f = random_formula(rng, rng.randint(1, 4), ("p", "q", "r"))
            if frame.size * len(_inventory(f)) > 2 * SUBTREE_LEVELS:
                continue
            verdict = frame_validity(frame, f)
            assert verdict == _chunk_scan(frame, f), fm.render(f)
            kinds.add(type(verdict))
        assert kinds == {Valid, Refuted}
        assert counted["bounds"] == counted["layouts"] == 0

    def test_a_late_refutation_past_a_walk_that_cannot_prune(self, counted):
        """The walk prunes nothing before the refutation. On 16 bits it lies
        just past the prefix, which the walk skips, and the walk reaches it
        in three passes. On 20 bits the walk falls behind and hands over;
        the exact passes read on from there, each valuation once, and the
        last pass read holds the least refutation."""
        frame = Frame(4, frozenset({(0, 0, 1), (1, 2, 3), (2, 2, 2), (3, 0, 3)}))
        for letters in (("a", "b", "c", "d"), ("a", "b", "c", "d", "e")):
            f = _late_refutation(letters)
            verdict = frame_validity(frame, f)
            handed = self._kept_pace(counted, 1 << (4 * len(letters)))
            first = 1 + (1 << (4 * (len(letters) - 1)))  # both letters at world 0
            assert handed == (len(letters) == 5)
            if handed:
                lo = counted["runs"][1][0]
                # aligned chunks, each no larger than what lies below it:
                # the last one read holds the refutation
                end = lo + sum(counted["lanes"]) - (1 << 2 * SUBTREE_LEVELS)
                assert lo < first < end <= 2 * first + FIRST_LANES
            else:
                assert counted["bounds"] == 3
            assert verdict == _chunk_scan(frame, f)
            assert verdict.world == 0 and first > 1 << 2 * SUBTREE_LEVELS
            self._clear(counted)

    def test_a_valid_walk_that_cannot_prune_hands_over_once(self, counted):
        """must misses only the top world in every node, and no node fails:
        the walk falls behind at once past its head start, and the exact
        passes read each valuation from there to the end once."""
        frame = Frame(4, frozenset({(0, 0, 0), (1, 1, 1), (2, 2, 2)}))
        f = parse("(T o T) | (a | ~a) | (b & ~b) | (c & ~c) | (d & ~d)")
        assert frame_validity(frame, f) == Valid()
        assert self._kept_pace(counted, 1 << 16)
        lo = counted["runs"][1][0]
        assert sum(counted["lanes"]) == (1 << 2 * SUBTREE_LEVELS) + (1 << 16) - lo

    def test_agrees_with_one_exact_scan(self, counted):
        """P(2) and P(3) axioms, phi(MONO) on 3-world frames, formulas
        refuted past the prefix, and random formulas in every letter: 13 to
        21 bits. Some walks keep pace to the end, others hand over."""
        rng, cases = random.Random(75), []
        p2, p3 = powerset_frame(2, "union"), powerset_frame(3, "union")
        for text in ("p o q <-> q o p", "p o q -> q", "(p o p) o q -> p o q",
                     "[](p | q) -> [](q o p)"):
            cases.append((p3, parse(text)))
        for text in ("(a o b) o (c o d) -> a o (b o (c o d))", "(a o b) o c -> a o (b o c) | d",
                     "(a | b) o (c & d) -> e o e | (a o d)"):
            cases.append((p2, parse(text)))
        samples = list(islice(enumerate_frames(3, require_associative=True), 401))
        cases += [(samples[i], reduction.phi(MONO)) for i in (40, 200, 400)]
        for n, letters in ((4, ("a", "b", "c", "d")), (4, ("a", "b", "c", "d", "e")),
                           (5, ("a", "b", "c")), (3, ("a", "b", "c", "d", "e"))):
            frame = Frame(n, frozenset(t for t in product(range(n), repeat=3)
                                       if rng.random() < 0.3))
            cases.append((frame, _late_refutation(letters)))
            for _ in range(4):
                cases.append((frame, _searched_deep(rng, letters)))
                f = random_formula(rng, rng.randint(3, 5), letters)
                while len(_inventory(f)) < len(letters):
                    f = random_formula(rng, rng.randint(3, 5), letters)
                cases.append((frame, f))
        kinds, handed, walked = set(), 0, 0
        for frame, f in cases:
            bits_ = frame.size * len(_inventory(f))
            assert 2 * SUBTREE_LEVELS < bits_ <= 21, fm.render(f)
            verdict = frame_validity(frame, f)
            walked += counted["bounds"] > 0
            handed += self._kept_pace(counted, 1 << bits_)
            assert verdict == _chunk_scan(frame, f), fm.render(f)
            kinds.add(type(verdict))
            self._clear(counted)
        assert kinds == {Valid, Refuted}
        assert handed > 5 and walked - handed > 3
