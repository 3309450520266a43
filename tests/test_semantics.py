import random
from itertools import product

from conftest import random_formula
from tilemodal import formula as fm
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
    powerset_frame,
    powerset_worlds,
)
from tilemodal.semantics import (
    MAX_LANES,
    Evaluator,
    Refuted,
    Unknown,
    Valid,
    _inventory,
    countermodel_search,
    frame_validity,
    holds_box,
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

    def test_jobs_do_not_change_verdict(self):
        frame = Frame(1, frozenset({(0, 0, 0)}))
        wide = fm.disj([Letter(f"w{i:02d}") for i in range(13)])
        lone = frame_validity(frame, wide, jobs=1)
        pooled = frame_validity(frame, wide, jobs=4)
        assert isinstance(lone, Refuted)
        assert lone == pooled

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
        failing = full & ~Evaluator(Model._from_masks(frame, dict(masks))).mask(f)
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


class TestGreedyBacktracker:
    def test_matches_linear_scan_least_witness(self):
        from tilemodal.semantics import _Budget, _greedy_refute, _inventory

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
            core = fm.desugar(f)
            got = _greedy_refute(frame, core, inventory, _Budget(10 ** 9))
            assert got != "budget"
            # oracle: linear scan in valuation-index order
            expected = None
            for v in range(1 << (n * len(inventory))):
                masks = {
                    l: (v >> (j * n)) & ((1 << n) - 1)
                    for j, l in enumerate(inventory)
                }
                model = Model(frame, {l: set(bits(m)) for l, m in masks.items()})
                if set(sat_set(model, f)) != set(range(n)):
                    expected = masks
                    break
            if expected is None:
                assert got is None
            else:
                assert got == expected

    def test_budget_exhaustion_reported(self):
        from tilemodal.semantics import _Budget, _greedy_refute, _inventory

        frame = Frame(2, frozenset({(0, 0, 1)}))
        f = fm.desugar(ASSOC_AXIOM)
        got = _greedy_refute(frame, f, _inventory(ASSOC_AXIOM), _Budget(3))
        assert got == "budget"


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

    def test_returned_frame_is_associative(self):
        from tilemodal.frames import check_associative

        hit = countermodel_search(Neg(p), max_worlds=2, budget=2000)
        assert hit is not None
        assert check_associative(hit[0].frame) is None
