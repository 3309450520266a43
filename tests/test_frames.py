import random
from itertools import islice, permutations, product

import pytest

from fixtures_quotient import quotient_frame
from tilemodal import frames
from tilemodal.frames import (
    AssocCounterexample,
    BinRel,
    Frame,
    Model,
    SemilatticeLawError,
    check_associative,
    enumerate_frames,
    parse_frame_file,
    powerset_frame,
    powerset_worlds,
    render_frame_file,
    s_relation,
    semilattice_frame,
)


def oracle_associative(frame: Frame):
    """Definitional double-loop oracle: least quadruple where the two
    composed readings disagree, or None."""
    R = frame.triples
    n = frame.size
    for x, a, b, c in product(range(n), repeat=4):
        lhs = any((x, y, c) in R and (y, a, b) in R for y in range(n))
        rhs = any((x, a, z) in R and (z, b, c) in R for z in range(n))
        if lhs != rhs:
            return (x, a, b, c, "left_to_right" if lhs else "right_to_left")
    return None


def random_frame(rng: random.Random, n: int, density: float) -> Frame:
    triples = frozenset(
        t for t in product(range(n), repeat=3) if rng.random() < density
    )
    return Frame(n, triples)


class TestCheckAssociative:
    def test_powerset_union_is_associative(self):
        assert check_associative(powerset_frame(2, "union")) is None

    def test_single_triple_counterexample(self):
        verdict = check_associative(Frame(2, frozenset({(0, 0, 1)})))
        assert verdict == AssocCounterexample(0, 0, 1, 1, "left_to_right")

    def test_empty_relation_vacuously_associative(self):
        assert check_associative(Frame(3, frozenset())) is None

    def test_agrees_with_oracle_on_random_frames(self):
        rng = random.Random(42)
        for i in range(200):
            n = rng.choice((1, 2, 3, 4))
            frame = random_frame(rng, n, rng.choice((0.1, 0.3, 0.6)))
            got = check_associative(frame)
            expected = oracle_associative(frame)
            if expected is None:
                assert got is None
            else:
                assert got == AssocCounterexample(*expected)


def oracle_s_pairs(frame: Frame) -> frozenset[tuple[int, int]]:
    """The S relation as a set of pairs through the by-first index: the
    earlier definition, kept as the oracle for the successor masks."""
    pairs: set[tuple[int, int]] = set()
    for x, u, v in frame.triples:
        pairs.add((x, v))
        pairs.add((x, u))
    by_first = frames._by_first(frame)
    for x, z, _b in frame.triples:
        for _a, y in by_first.get(z, ()):
            pairs.add((x, y))
    return frozenset(pairs)


class TestSRelation:
    def test_successor_masks_match_pair_oracle(self):
        rng = random.Random(17)
        for _ in range(2000):
            frame = random_frame(rng, rng.randint(1, 5), rng.choice((0.05, 0.15, 0.4)))
            assert s_relation(frame).pairs == oracle_s_pairs(frame)

    def test_successor_masks_on_quotient_frame(self):
        frame = quotient_frame()
        assert s_relation(frame).pairs == oracle_s_pairs(frame)

    def test_powerset_one_generator(self):
        # worlds: 0 is the empty set, 1 the singleton; S is superset-or-equal
        rel = s_relation(powerset_frame(1, "union"))
        assert rel.pairs == frozenset({(0, 0), (1, 0), (1, 1)})

    def test_empty_frame_gives_empty_relation(self):
        assert s_relation(Frame(2, frozenset())).pairs == frozenset()

    def test_semilattice_s_is_induced_order_exhaustive_k3(self):
        # all commutative idempotent tables on 3 elements, filtered associative
        checked = 0
        for e01 in range(3):
            for e02 in range(3):
                for e12 in range(3):
                    table = [[0, e01, e02], [e01, 1, e12], [e02, e12, 2]]
                    try:
                        frame = semilattice_frame(table)
                    except SemilatticeLawError:
                        continue
                    checked += 1
                    order = frozenset(
                        (x, y) for x in range(3) for y in range(3)
                        if table[x][y] == x
                    )
                    assert s_relation(frame).pairs == order
        assert checked > 0

    def test_semilattice_s_is_induced_order_size4(self):
        union_table = [[x | y for y in range(4)] for x in range(4)]
        diamond = [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]]
        chain = [[max(x, y) for y in range(4)] for x in range(4)]
        for table in (union_table, diamond, chain):
            frame = semilattice_frame(table)
            order = frozenset(
                (x, y) for x in range(4) for y in range(4) if table[x][y] == x
            )
            assert s_relation(frame).pairs == order

    def test_transitive_on_associative_frames(self):
        rng = random.Random(3)
        seen = 0
        for _ in range(400):
            frame = random_frame(rng, rng.choice((2, 3, 4)), 0.3)
            if check_associative(frame) is None:
                seen += 1
                assert s_relation(frame).find_intransitivity() is None
        assert seen > 10

    def test_transitive_on_size4_stream_prefix(self):
        seen = 0
        for frame in islice(enumerate_frames(4), 400):
            if check_associative(frame) is None:
                seen += 1
                assert s_relation(frame).find_intransitivity() is None
        assert seen > 5


class TestPowersetFrame:
    def test_k1_union_triples(self):
        frame = powerset_frame(1, "union")
        assert frame.size == 2
        assert frame.triples == frozenset(
            {(0, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)}
        )

    def test_k1_disjoint_drops_overlap(self):
        frame = powerset_frame(1, "disjoint_union")
        assert frame.triples == frozenset({(0, 0, 0), (1, 1, 0), (1, 0, 1)})

    def test_k2_nonempty(self):
        frame = powerset_frame(2, "union_nonempty")
        worlds = powerset_worlds(2, "union_nonempty")
        assert frame.size == 3
        assert len(worlds) == 3
        both = worlds.index(frozenset({0, 1}))
        first = worlds.index(frozenset({0}))
        second = worlds.index(frozenset({1}))
        assert (both, first, second) in frame.triples
        assert frozenset() not in worlds

    def test_all_modes_associative(self):
        for mode in ("union", "disjoint_union", "union_nonempty"):
            for k in (1, 2, 3, 4):
                assert check_associative(powerset_frame(k, mode)) is None
        assert check_associative(powerset_frame(5, "union")) is None

    def test_union_commutative_and_square_increasing(self):
        for k in (1, 2, 3):
            frame = powerset_frame(k, "union")
            for (x, y, z) in frame.triples:
                assert (x, z, y) in frame.triples
            for x in range(frame.size):
                assert (x, x, x) in frame.triples

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            powerset_frame(9, "union")
        with pytest.raises(ValueError):
            powerset_frame(0, "union")


class TestSemilatticeFrame:
    def test_single_element(self):
        assert semilattice_frame([[0]]) == Frame(1, frozenset({(0, 0, 0)}))

    def test_max_table_accepted(self):
        table = [[max(x, y) for y in range(3)] for x in range(3)]
        frame = semilattice_frame(table)
        assert check_associative(frame) is None

    def test_non_commutative_rejected(self):
        with pytest.raises(SemilatticeLawError) as exc:
            semilattice_frame([[0, 1], [0, 1]])
        assert exc.value.law == "commutative"
        assert exc.value.indices == (0, 1)

    def test_non_idempotent_rejected(self):
        with pytest.raises(SemilatticeLawError) as exc:
            semilattice_frame([[1, 1], [1, 1]])
        assert exc.value.law == "idempotent"

    def test_non_associative_rejected(self):
        # commutative and idempotent, but (0.1).2 = 2.2 = 2 while 0.(1.2) = 0.0 = 0
        table = [[0, 2, 0], [2, 1, 0], [0, 0, 2]]
        with pytest.raises(SemilatticeLawError) as exc:
            semilattice_frame(table)
        assert exc.value.law == "associative"


class TestEnumerateFrames:
    def test_one_world(self):
        frames = list(enumerate_frames(1))
        assert len(frames) == 2
        assert all(check_associative(f) is None for f in frames)

    def test_two_worlds_canonical_count(self):
        # 256 raw frames; 136 survive the lexicographic-minimum pruning
        frames = list(enumerate_frames(2))
        assert len(frames) == 136

    def test_two_worlds_associative_count(self):
        # frozen from the definitional oracle: 50 of 256 raw frames are
        # associative, 28 canonical representatives among them
        raw = sum(
            1 for code in range(256)
            if oracle_associative(_frame_from_code(2, code)) is None
        )
        assert raw == 50
        frames = list(enumerate_frames(2, require_associative=True))
        assert len(frames) == 28

    def test_every_frame_has_canonical_representative(self):
        canon = {f.triples for f in enumerate_frames(2)}
        for code in range(256):
            frame = _frame_from_code(2, code)
            images = []
            for perm in permutations(range(2)):
                images.append(frozenset(
                    (perm[x], perm[y], perm[z]) for x, y, z in frame.triples
                ))
            assert any(img in canon for img in images)

    def test_matches_the_code_filter(self):
        for n in (1, 2):
            for assoc in (False, True):
                assert list(enumerate_frames(n, assoc)) == list(
                    oracle_enumerate_frames(n, assoc))
        for n, assoc, k in ((3, True, 40), (3, False, 400), (4, False, 400)):
            assert list(islice(enumerate_frames(n, assoc), k)) == list(
                islice(oracle_enumerate_frames(n, assoc), k))

    def test_associative_leaves_are_the_lane_mask(self):
        from test_acceptance import _bitparallel_assoc_and_s

        assoc, _, lanes = _bitparallel_assoc_and_s(2)
        codes = [code for code in range(lanes) if (assoc >> code) & 1]
        assert len(codes) == 50
        assert list(frames._codes(2, True)) == codes
        assert list(frames._codes(2, False)) == list(range(lanes))


def oracle_enumerate_frames(n: int, require_associative: bool = False):
    """enumerate_frames as a filter over all 2^(n^3) relation codes, each
    tested for associativity and for being least in its orbit under the
    precomputed permutation maps: the reference the backtracker must match."""
    if n < 1:
        raise ValueError("n must be positive")
    triples = [(x, y, z) for x in range(n) for y in range(n) for z in range(n)]
    index = {t: i for i, t in enumerate(triples)}
    perm_maps = []
    for perm in permutations(range(n)):
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


def _frame_from_code(n: int, code: int) -> Frame:
    all_triples = [(x, y, z) for x in range(n) for y in range(n) for z in range(n)]
    return Frame(n, frozenset(
        t for i, t in enumerate(all_triples) if (code >> i) & 1
    ))


class TestModelAndFiles:
    def test_model_valuation_roundtrip(self):
        frame = powerset_frame(1, "union")
        model = Model(frame, {"p": {1}, "q": set()})
        assert model.valuation == {"p": frozenset({1}), "q": frozenset()}
        assert model.letter_mask("p") == 2
        assert model.letter_mask("missing") == 0

    def test_model_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Model(Frame(1, frozenset()), {"p": {3}})

    def test_frame_file_roundtrip(self):
        frame = powerset_frame(2, "union")
        valuation = {"p": {0, 3}, "x_e": {1}}
        text = render_frame_file(frame, valuation)
        frame2, val2 = parse_frame_file(text)
        assert frame2 == frame
        assert val2 == {"p": {0, 3}, "x_e": {1}}

    def test_frame_file_comments_and_errors(self):
        frame, val = parse_frame_file("# header\nworlds 2\n0 0 1 # inline\n")
        assert frame.triples == frozenset({(0, 0, 1)})
        with pytest.raises(ValueError):
            parse_frame_file("0 0 1\n")
        with pytest.raises(ValueError):
            parse_frame_file("worlds 2\n0 0\n")
        with pytest.raises(ValueError):
            parse_frame_file("worlds 1\nval p: 4\n")

    def test_malformed_lines_name_their_line(self):
        bad = {
            "worlds\n": "line 1: expected 'worlds N'",
            "worlds 2 3\n": "line 1: expected 'worlds N'",
            "worlds two\n": "line 1: expected integers",
            "worlds 2\nval p 1\n": "line 2: expected 'val LETTER: WORLDS'",
            "worlds 2\nval p q: 1\n": "line 2: expected 'val LETTER: WORLDS'",
            "worlds 2\nval p: one\n": "line 2: expected integers",
            "worlds 2\n\n0 x 1\n": "line 3: expected integers",
        }
        for text, message in bad.items():
            with pytest.raises(ValueError, match=message):
                parse_frame_file(text)

    def test_keywords_match_whole_tokens(self):
        bad = {
            "worlds 2\nvalley: 0\n": "line 2: expected 'x y z'",
            "worldsx 2\n": "line 1: expected 'worlds N' first",
            "worlds 2\nworldsx 2\n": "line 2: expected 'x y z'",
        }
        for text, message in bad.items():
            with pytest.raises(ValueError, match=message):
                parse_frame_file(text)
        _, val = parse_frame_file("worlds 2\nval\tp:1\nval q: 0\n")
        assert val == {"p": {1}, "q": {0}}

    def test_empty_frame_rejected(self):
        with pytest.raises(ValueError):
            Frame(0, frozenset())

    def test_empty_valuation_roundtrip(self):
        frame = Frame(2, frozenset({(0, 0, 1)}))
        text = render_frame_file(frame, {"p": set()})
        frame2, val2 = parse_frame_file(text)
        assert frame2 == frame and val2 == {"p": set()}

    def test_binrel_intransitivity_witness(self):
        rel = BinRel(3, frozenset({(0, 1), (1, 2)}))
        assert rel.find_intransitivity() == (0, 1, 2)
        assert BinRel(3, frozenset({(0, 1)})).find_intransitivity() is None
