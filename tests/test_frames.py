import random
import resource
import subprocess
import sys
import tracemalloc
from itertools import islice, permutations, product

import pytest

from fixtures_quotient import quotient_frame
from tilemodal import formula as fm
from tilemodal import frames
from tilemodal.frames import (
    AssocCounterexample,
    BinRel,
    Frame,
    Model,
    SemilatticeLawError,
    bits,
    check_associative,
    enumerate_frames,
    mask_of,
    parse_frame_file,
    powerset_frame,
    powerset_worlds,
    render_frame_file,
    s_relation,
    semilattice_frame,
)
from tilemodal.semantics import Evaluator


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



# The cell kernel that frames._assoc_failures replaced, kept verbatim as its
# oracle; it reads cells y*n+z where the kernel reads field z of row y.
def _ref_assoc_failures(n: int, must: list[int], may: list[int]):
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


def _rows(n: int, cells: list[int]) -> list[int]:
    return [sum(cells[y * n + z] << z * n for z in range(n)) for y in range(n)]


def _cells(n: int, rows: list[int]) -> list[int]:
    return [(rows[y] >> z * n) & ((1 << n) - 1) for y in range(n) for z in range(n)]


def _ref_check(frame: Frame) -> AssocCounterexample | None:
    """check_associative through the cell kernel on every world."""
    n = frame.size
    cells = [0] * (n * n)
    for x, y, z in frame.triples:
        cells[y * n + z] |= 1 << x
    best = None
    for a, b, c, left, right in _ref_assoc_failures(n, cells, cells):
        diff = left | right
        x = (diff & -diff).bit_length() - 1
        if best is None or x < best.x:
            direction = "left_to_right" if (left >> x) & 1 else "right_to_left"
            best = AssocCounterexample(x, a, b, c, direction)
    return best


class TestRowKernel:
    """The row kernel against the cell kernel it replaced."""

    def test_every_yield_in_order(self):
        rng = random.Random(12)
        strict = 0
        for _ in range(3200):
            n = rng.randint(1, 6)
            density = rng.choice((0.05, 0.2, 0.5))
            must = [mask_of(x for x in range(n) if rng.random() < density)
                    for _ in range(n * n)]
            if rng.random() < 0.5:  # exact: one list, and two equal lists
                rows = _rows(n, must)
                got = list(frames._assoc_failures(n, rows, rows))
                assert got == list(_ref_assoc_failures(n, must, must))
                assert list(frames._assoc_failures(n, rows, _rows(n, must))) == got
                continue
            may = [m | mask_of(x for x in range(n) if rng.random() < density) for m in must]
            cell = rng.randrange(n * n)
            may[cell] |= 1 << rng.randrange(n)
            strict += may != must
            got = list(frames._assoc_failures(n, _rows(n, must), _rows(n, may)))
            assert got == list(_ref_assoc_failures(n, must, may))
        assert strict > 1000

    def test_codes_under_the_cell_kernel(self, monkeypatch):
        fast = {n: list(islice(frames._codes(n, True), 2000)) for n in (1, 2, 3)}
        monkeypatch.setattr(frames, "_assoc_failures", lambda n, must, may:
                            _ref_assoc_failures(n, _cells(n, must), _cells(n, may)))
        for n in (1, 2, 3):
            assert list(islice(frames._codes(n, True), 2000)) == fast[n]
        assert [len(fast[n]) for n in (1, 2, 3)] == [2, 50, 2000]

    def test_least_counterexample_on_spread_worlds(self):
        rng = random.Random(13)
        checked = 0
        while checked < 200:
            small = random_frame(rng, rng.randint(2, 5), rng.choice((0.05, 0.15, 0.3)))
            expected = oracle_associative(small)
            if expected is None:
                continue
            checked += 1
            size = rng.randint(small.size, 300)
            spread = sorted(rng.sample(range(size), small.size))
            big = Frame(size, frozenset(tuple(spread[w] for w in t) for t in small.triples))
            x, a, b, c = (spread[w] for w in expected[:4])
            assert check_associative(big) == AssocCounterexample(x, a, b, c, expected[4])

    def test_dense_quotient_of_25_worlds(self):
        """The 25-world quotient (1444 triples), exact and with one triple
        dropped, and the three-valued test between the two."""
        frame = quotient_frame()
        n = frame.size
        cells = [0] * (n * n)
        for x, y, z in frame.triples:
            cells[y * n + z] |= 1 << x
        assert (n, len(frame.triples)) == (25, 1444)
        rows = _rows(n, cells)
        assert list(frames._assoc_failures(n, rows, rows)) == []
        rng = random.Random(15)
        for x, y, z in rng.sample(sorted(frame.triples), 3):
            broken = cells.copy()
            broken[y * n + z] &= ~(1 << x)
            got = list(frames._assoc_failures(n, _rows(n, broken), _rows(n, broken)))
            assert got and got == list(_ref_assoc_failures(n, broken, broken)), (x, y, z)
            got = list(frames._assoc_failures(n, _rows(n, broken), rows))
            assert got == list(_ref_assoc_failures(n, broken, cells)), (x, y, z)
            smaller = Frame(n, frame.triples - {(x, y, z)})
            assert check_associative(smaller) == _ref_check(smaller)

    def test_powerset_frames_of_64_worlds(self):
        rng = random.Random(14)
        for mode in ("union", "disjoint_union", "union_nonempty"):
            frame = powerset_frame(6, mode)
            assert check_associative(frame) is None
            drop = rng.choice(sorted(frame.triples))
            broken = Frame(frame.size, frame.triples - {drop})
            got = check_associative(broken)
            assert got is not None and got == _ref_check(broken), (mode, drop)


def run_limited(argv: list[str]) -> subprocess.CompletedProcess:
    """The CLI in a subprocess with 1 GB of address space and 60 s."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    return subprocess.run([sys.executable, "-m", "tilemodal.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=limit)


class TestSparseLargeFrames:
    """The check runs on the worlds that occur in some triple, however many
    worlds the frame has."""

    def test_one_triple_in_a_hundred_thousand_worlds(self, tmp_path):
        path = tmp_path / "big.frame"
        path.write_text("worlds 100000\n0 0 0\n")
        proc = run_limited(["check-assoc", "--frame", str(path)])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "associative\n", "")
        tiles = tmp_path / "one.tiles"
        tiles.write_text("t1 0 0 0 0\n")
        proc = run_limited(["extract", "--frame", str(path), "--tiles", str(tiles),
                            "--point", "0", "--k", "1"])
        assert (proc.returncode, proc.stderr) == (1, "")
        assert proc.stdout == "extraction failed: premise failed: body conjunct seed at 0\n"

    def test_huge_world_count_builds_no_world_sized_integer(self):
        frame = Frame(2**27, {(0, 0, 0), (1, 1, 1)})
        tracemalloc.start()
        try:
            assert check_associative(frame) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # a 2**27-bit integer alone is 16 MiB

    def test_spread_frame_has_the_compact_counterexample(self, tmp_path):
        rng = random.Random(8)
        spread = (3, 999, 40000, 99999)  # ascending, so the order is kept
        checked = 0
        while checked < 3:
            small = random_frame(rng, 4, 0.15)
            expected = oracle_associative(small)
            if expected is None:
                continue
            checked += 1
            big = Frame(100000, frozenset(tuple(spread[w] for w in t)
                                          for t in small.triples))
            path = tmp_path / "spread.frame"
            path.write_text(render_frame_file(big))
            proc = run_limited(["check-assoc", "--frame", str(path), "--format", "lines"])
            x, a, b, c = (spread[w] for w in expected[:4])
            assert (proc.returncode, proc.stdout) == (1, (
                f"status=counterexample x={x} a={a} b={b} c={c} "
                f"direction={expected[4]}\n"))


def fold_cells(frame: Frame) -> dict[tuple[int, int], int]:
    """(y, z) -> the bitmask of the x with Rxyz, folded from the triples."""
    fold: dict[tuple[int, int], int] = {}
    for x, y, z in frame.triples:
        fold[y, z] = fold.get((y, z), 0) | 1 << x
    return fold


def index_check_associative(frame: Frame) -> AssocCounterexample | None:
    """check_associative as it read the (y, z) -> x-mask index, before the
    frame kept that index only grouped by y and by z: the oracle for the
    reading of Frame.rows."""
    index = fold_cells(frame)
    used = 0
    for (y, z), xs in index.items():
        used |= xs | 1 << y | 1 << z
    worlds = range(frame.size) if used == (1 << frame.size) - 1 else list(frames.bits(used))
    n = len(worlds)
    rows = [0] * n
    if n == frame.size:
        for (y, z), xs in index.items():
            rows[y] |= xs << z * n
    else:
        at = {w: i for i, w in enumerate(worlds)}
        for (y, z), xs in index.items():
            rows[at[y]] |= mask_of(at[x] for x in frames.bits(xs)) << at[z] * n
    best = None
    for a, b, c, left, right in frames._assoc_failures(n, rows, rows):
        diff = left | right
        x = (diff & -diff).bit_length() - 1
        if best is None or worlds[x] < best.x:
            direction = "left_to_right" if (left >> x) & 1 else "right_to_left"
            best = AssocCounterexample(worlds[x], worlds[a], worlds[b], worlds[c], direction)
    return best


class TestRelationIndex:
    def test_index_is_the_fold_of_the_triples(self):
        rng = random.Random(11)
        for _ in range(500):
            frame = random_frame(rng, rng.randint(1, 5), rng.choice((0.05, 0.2, 0.5)))
            by_rows = {(y, z): xs for y, cells in frame.rows.items()
                       for z, xs in cells.items()}
            assert by_rows == fold_cells(frame)

    def test_rows_and_cols_hold_the_cells_of_the_index(self):
        rng = random.Random(13)
        for _ in range(500):
            frame = random_frame(rng, rng.randint(1, 5), rng.choice((0.05, 0.2, 0.5)))
            fold = fold_cells(frame)
            by_rows = [((y, z), xs) for y, cells in frame.rows.items()
                       for z, xs in cells.items()]
            by_cols = [((y, z), xs) for z, cells in frame.cols.items()
                       for y, xs in cells.items()]
            for cells in (by_rows, by_cols):
                assert len(cells) == len(fold) and dict(cells) == fold
            assert all(frame.rows.values()) and all(frame.cols.values())

    def test_index_is_not_part_of_equality(self):
        frame = quotient_frame()
        Evaluator(frame).mask(fm.Comp(fm.Letter("p"), fm.Letter("q")), {"p": 3, "q": 5})
        assert check_associative(frame) is None
        fresh = Frame(frame.size, frame.triples)
        assert fresh == frame and hash(fresh) == hash(frame)
        assert (fresh.rows, fresh.cols) == (frame.rows, frame.cols)
        assert repr(Frame(2, frozenset({(1, 0, 1)}))) == (
            "Frame(size=2, triples=frozenset({(1, 0, 1)}))")

    def test_check_associative_reads_rows_as_it_read_the_index(self):
        """Dense frames fill the kernel rows straight from Frame.rows, frames
        with unused worlds renumber them; both against the index reading, on
        associative frames and on frames that are not."""
        rng = random.Random(19)
        assoc = list(enumerate_frames(2, True)) + list(islice(enumerate_frames(3, True), 300))
        seen = {(dense, ok): 0 for dense in (True, False) for ok in (True, False)}
        for i in range(600):
            if i % 3 == 0:
                frame = rng.choice(assoc)
            elif i % 3 == 1:
                frame = random_frame(rng, rng.randint(1, 5), rng.choice((0.05, 0.2, 0.5)))
            else:
                frame = powerset_frame(rng.randint(1, 3), rng.choice(frames.POWERSET_MODES))
            if rng.random() < 0.5:  # spread onto more worlds, order kept
                size = frame.size + rng.randint(1, 6)
                spread = sorted(rng.sample(range(size), frame.size))
                frame = Frame(size, frozenset(tuple(spread[w] for w in t)
                                              for t in frame.triples))
            expect = index_check_associative(frame)
            assert check_associative(frame) == expect
            used = mask_of(w for t in frame.triples for w in t)
            seen[used == (1 << frame.size) - 1, expect is None] += 1
        assert min(seen.values()) >= 20, seen


def rows_of(triples) -> dict[int, dict[int, int]]:
    """y -> {z: x-mask} of the triples, in the order they are given."""
    rows: dict[int, dict[int, int]] = {}
    for x, y, z in triples:
        row = rows.setdefault(y, {})
        row[z] = row.get(z, 0) | 1 << x
    return rows


class TestRowsBuiltFrame:
    def test_equal_to_the_frame_of_its_triples(self):
        rng = random.Random(23)
        for _ in range(300):
            ref = random_frame(rng, rng.randint(1, 5), rng.choice((0.0, 0.05, 0.2, 0.5)))
            shuffled = list(ref.triples)
            rng.shuffle(shuffled)
            rows = rows_of(shuffled)
            frame = Frame.from_rows(ref.size, rows)
            assert frame.rows is rows and frame.cols == ref.cols
            assert frame == ref and ref == frame and hash(frame) == hash(ref)
            assert repr(frame) == repr(Frame(ref.size, shuffled)) == repr(ref)
            assert frame.triples == ref.triples
            assert frame != Frame(ref.size + 1, ref.triples)
            assert frame != Frame(ref.size, ref.triples ^ {(0, 0, ref.size - 1)})
            assert len({frame, ref}) == 1
        assert repr(Frame.from_rows(2, {0: {1: 2}})) == (
            "Frame(size=2, triples=frozenset({(1, 0, 1)}))")

    def test_out_of_range_rows(self):
        bad = [
            (0, {}, "frames need at least one world"),
            (sys.maxsize + 1, {}, f"frames have at most {sys.maxsize} worlds"),
            (2, {2: {0: 1}}, "row 2 empty or out of range for size 2"),
            (2, {-1: {0: 1}}, "row -1 empty or out of range for size 2"),
            (2, {0: {1: 1}, 1: {}}, "row 1 empty or out of range for size 2"),
            (2, {0: {2: 1}}, "cell (0, 2) empty or out of range for size 2"),
            (2, {0: {-1: 1}}, "cell (0, -1) empty or out of range for size 2"),
            (2, {0: {1: 0}}, "cell (0, 1) empty or out of range for size 2"),
            (2, {0: {0: 1, 1: 4}}, "cell (0, 1) empty or out of range for size 2"),
            (2, {0: {1: -1}}, "cell (0, 1) empty or out of range for size 2"),
        ]
        for size, rows, message in bad:
            with pytest.raises(ValueError) as exc:
                Frame.from_rows(size, rows)
            assert str(exc.value) == message

    def test_immutable(self):
        for frame in (Frame(2, {(1, 0, 1)}), Frame.from_rows(2, {0: {1: 2}})):
            with pytest.raises(AttributeError):
                frame.size = 3
            with pytest.raises(AttributeError):
                frame.triples = frozenset()


def oracle_s_pairs(frame: Frame) -> frozenset[tuple[int, int]]:
    """The S relation as a set of pairs through the by-first index: the
    earlier definition, kept as the oracle for the successor masks."""
    pairs: set[tuple[int, int]] = set()
    for x, u, v in frame.triples:
        pairs.add((x, v))
        pairs.add((x, u))
    by_first: dict[int, list[tuple[int, int]]] = {}
    for x, y, z in frame.triples:
        by_first.setdefault(x, []).append((y, z))
    for x, z, _b in frame.triples:
        for _a, y in by_first.get(z, ()):
            pairs.add((x, y))
    return frozenset(pairs)


def find_intransitivity(rel: BinRel) -> tuple[int, int, int] | None:
    """Least (x, y, z) with xRy, yRz but not xRz, or None if transitive."""
    for x, mx in enumerate(rel.succ):
        for y in bits(mx):
            missing = rel.succ[y] & ~mx
            if missing:
                return x, y, (missing & -missing).bit_length() - 1
    return None


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
                assert find_intransitivity(s_relation(frame)) is None
        assert seen > 10

    def test_transitive_on_size4_stream_prefix(self):
        seen = 0
        for frame in islice(enumerate_frames(4), 400):
            if check_associative(frame) is None:
                seen += 1
                assert find_intransitivity(s_relation(frame)) is None
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
            "worlds 2\n\n0 x 1\n": "line 3: expected integers, got '0 x 1'",
            "worlds 2\n0 0\n": "line 2: expected 'x y z'",
            "worlds 2\n0 0 1 1\n": "line 2: expected 'x y z'",
            "worlds 2\n0 0 2\n": "out of range",
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

    def test_construction_errors(self):
        bad = {
            (0, ()): "frames need at least one world",
            (sys.maxsize + 1, ((0, 0, 1),)): f"frames have at most {sys.maxsize} worlds",
            (2, ((0, 1),)): "triple (0, 1) out of range for size 2",
            (2, ((0, 1, 1, 0),)): "triple (0, 1, 1, 0) out of range for size 2",
        }
        for at in range(3):
            for w in (-1, 2):
                t = tuple(w if i == at else 1 for i in range(3))
                bad[2, (t,)] = f"triple {t} out of range for size 2"
        for (size, triples), message in bad.items():
            with pytest.raises(ValueError) as exc:
                Frame(size, frozenset(triples))
            assert str(exc.value) == message
        frame = Frame(2, frozenset({(1, 0, 1)}))
        assert (frame.rows, frame.cols) == ({0: {1: 2}}, {1: {0: 2}})

    def test_empty_valuation_roundtrip(self):
        frame = Frame(2, frozenset({(0, 0, 1)}))
        text = render_frame_file(frame, {"p": set()})
        frame2, val2 = parse_frame_file(text)
        assert frame2 == frame and val2 == {"p": set()}

    def test_binrel_intransitivity_witness(self):
        rel = BinRel(3, (0b010, 0b100, 0))
        assert rel.pairs == frozenset({(0, 1), (1, 2)})
        assert find_intransitivity(rel) == (0, 1, 2)
        assert find_intransitivity(BinRel(3, (0b010, 0, 0))) is None
