import random
import tracemalloc
from itertools import product

import pytest

from tilemodal import tiling
from tilemodal.tiling import (
    DEFAULT_BUDGET,
    Grid,
    Mismatch,
    PeriodicTiling,
    SearchBudgetExceeded,
    Tile,
    TileSet,
    _REACH_CHUNK,
    _Reach,
    _image,
    _fill,
    find_torus,
    matches,
    parse_tileset_file,
    render_ascii,
    render_svg,
    render_tileset_file,
    solve_rect,
    torus_adjacency_ok,
    torus_with_period,
    unroll,
    verify_grid,
)

MONO = TileSet(("a",), (Tile(0, 0, 0, 0),))
TWO = TileSet(("t1", "t2"), (Tile(0, 0, 0, 1), Tile(0, 0, 2, 0)))
SWAP = TileSet(("a", "b"), (Tile(0, 0, 1, 2), Tile(0, 0, 2, 1)))


def oracle_solve(w: TileSet, width: int, height: int):
    """Independent oracle: brute force over every complete assignment."""
    coords = [(c, r) for c in range(width) for r in range(height)]
    for combo in product(range(len(w)), repeat=len(coords)):
        grid = Grid(width, height, dict(zip(coords, combo)))
        if verify_grid(w, grid) is None:
            return grid
    return None


def oracle_torus(w: TileSet, periods: tuple[int, int]):
    """Independent oracle: the first complete torus assignment, in the search
    order (column-major, bottom-up, tiles by index), passing every wrap-around
    adjacency; no pruning and no budget."""
    p, q = periods
    coords = [(c, r) for c in range(p) for r in range(q)]
    for combo in product(range(len(w)), repeat=len(coords)):
        torus = PeriodicTiling(periods, dict(zip(coords, combo)))
        if torus_adjacency_ok(w, torus) is None:
            return torus
    return None


def reference_fill(w: TileSet, width: int, height: int, wrap: bool, budget: int,
                   spent: int) -> tuple[dict[tuple[int, int], int] | None, int]:
    """The backtracker as it was before reach pruning, looking one cell
    ahead: a right (up) colour that no tile's left (down) colour matches is
    pruned, and a wrap-around edge is checked once both its cells are
    placed. The reference the pruned _fill must match in placements, and
    never exceed in steps."""
    tiles = w.tiles
    left_colours = {t.left for t in tiles}
    down_colours = {t.down for t in tiles}
    n = width * height
    placed: list[int] = []
    start = 0
    while len(placed) < n:
        at = len(placed)
        col, row = divmod(at, height)
        for i in range(start, len(tiles)):
            spent += 1
            if spent > budget:
                raise SearchBudgetExceeded(f"budget {budget} exhausted")
            tile = tiles[i]
            if col > 0 and tiles[placed[at - height]].right != tile.left:
                continue
            if row > 0 and tiles[placed[at - 1]].up != tile.down:
                continue
            if col + 1 < width:
                if tile.right not in left_colours:
                    continue
            elif wrap and (tiles[placed[row]] if col else tile).left != tile.right:
                continue
            if row + 1 < height:
                if tile.up not in down_colours:
                    continue
            elif wrap and (tiles[placed[at - row]] if row else tile).down != tile.up:
                continue
            placed.append(i)
            start = 0
            break
        else:
            if not placed:
                return None, spent
            start = placed.pop() + 1
    return {divmod(cell, height): i for cell, i in enumerate(placed)}, spent


def random_tileset(rng: random.Random, tiles: int, colours: int) -> TileSet:
    return TileSet(tuple(f"t{i}" for i in range(tiles)),
                   tuple(Tile(*(rng.randrange(colours) for _ in range(4)))
                         for _ in range(tiles)))


def all_small_tilesets(max_tiles: int = 2, colours: int = 2):
    """Every tile set with at most max_tiles tiles and colours < colours."""
    singles = [Tile(*combo) for combo in product(range(colours), repeat=4)]
    for t in singles:
        yield TileSet(("t1",), (t,))
    if max_tiles >= 2:
        for i, t1 in enumerate(singles):
            for t2 in singles[i + 1:]:
                yield TileSet(("t1", "t2"), (t1, t2))


class TestMatches:
    def test_self_matching_single(self):
        assert matches(MONO, 0) == (frozenset({0}), frozenset({0}))

    def test_two_tile_example(self):
        right1, _ = matches(TWO, 0)
        right2, _ = matches(TWO, 1)
        assert right1 == frozenset()           # nothing has left colour 1
        assert right2 == frozenset({0})        # t2 continues with t1

    def test_subsets_of_indices(self):
        for t in range(len(TWO)):
            right, up = matches(TWO, t)
            assert right <= set(range(len(TWO)))
            assert up <= set(range(len(TWO)))


class TestVerifyGrid:
    def test_constant_grid_ok(self):
        grid = Grid(3, 3, {(c, r): 0 for c in range(3) for r in range(3)})
        assert verify_grid(MONO, grid) is None

    def test_row_pair_ok(self):
        grid = Grid(2, 1, {(0, 0): 1, (1, 0): 0})
        assert verify_grid(TWO, grid) is None

    def test_vertical_mismatch(self):
        w = TileSet(("t1",), (Tile(0, 1, 0, 0),))
        grid = Grid(1, 2, {(0, 0): 0, (0, 1): 0})
        assert verify_grid(w, grid) == Mismatch(0, 0, "vertical")

    def test_incomplete_grid_rejected(self):
        with pytest.raises(ValueError):
            verify_grid(MONO, Grid(2, 2, {(0, 0): 0}))


class TestSolveRect:
    def test_single_tile_fills_anything(self):
        grid = solve_rect(MONO, 3, 3)
        assert grid is not None
        assert verify_grid(MONO, grid) is None

    def test_two_tile_row_of_three_unsolvable(self):
        assert solve_rect(TWO, 3, 1) is None

    def test_one_by_one_always_solvable(self):
        for w in (MONO, TWO, SWAP):
            assert solve_rect(w, 1, 1) is not None

    def test_budget_exhaustion_raises(self):
        with pytest.raises(SearchBudgetExceeded):
            solve_rect(MONO, 4, 4, budget=3)

    def test_more_cells_than_the_recursion_limit(self):
        grid = solve_rect(SWAP, 2, 1000)
        assert grid is not None and verify_grid(SWAP, grid) is None

    def test_agrees_with_oracle_exhaustively(self):
        for w in all_small_tilesets():
            for width in (1, 2, 3):
                for height in (1, 2, 3):
                    got = solve_rect(w, width, height)
                    expect = oracle_solve(w, width, height)
                    assert (got is None) == (expect is None)
                    if got is not None:
                        assert verify_grid(w, got) is None

    def test_solvability_invariant_under_permutation(self):
        w = TileSet(("a", "b"), (Tile(0, 1, 0, 1), Tile(1, 0, 1, 0)))
        flipped = TileSet(("b", "a"), (w.tiles[1], w.tiles[0]))
        for width, height in ((1, 1), (2, 2), (3, 2)):
            assert (solve_rect(w, width, height) is None) == (
                solve_rect(flipped, width, height) is None
            )


class TestFindTorus:
    def test_single_tile_period_one(self):
        torus = find_torus(MONO, 2)
        assert torus is not None
        assert torus.periods == (1, 1)

    def test_vertically_incompatible_tile(self):
        w = TileSet(("t1",), (Tile(0, 1, 0, 0),))
        assert find_torus(w, 4) is None

    def test_horizontal_swap_pair(self):
        torus = find_torus(SWAP, 2)
        assert torus is not None
        assert torus.periods == (2, 1)
        assert torus_adjacency_ok(SWAP, torus) is None

    def test_unrolling_verifies(self):
        torus = find_torus(SWAP, 2)
        p, q = torus.periods
        for k in (1, 2, 3):
            grid = unroll(torus, k * p, k * q)
            assert verify_grid(SWAP, grid) is None

    def test_torus_implies_rectangles_solvable(self):
        torus = find_torus(SWAP, 2)
        assert torus is not None
        for width in range(1, 5):
            for height in range(1, 5):
                assert solve_rect(SWAP, width, height) is not None

    def test_torus_budget_exhaustion_raises(self):
        with pytest.raises(SearchBudgetExceeded):
            find_torus(SWAP, 2, budget=1)

    def test_budget_shared_across_periods(self):
        w = TileSet(("t1",), (Tile(0, 1, 0, 0),))  # one step per period
        assert find_torus(w, 2, budget=4) is None
        with pytest.raises(SearchBudgetExceeded):
            find_torus(w, 2, budget=3)

    def test_agrees_with_oracle_exhaustively(self):
        periods = [(1, 1), (1, 2), (2, 1), (2, 2)]
        for w in all_small_tilesets():
            expect = {pq: oracle_torus(w, pq) for pq in periods}
            for pq in periods:
                got = torus_with_period(w, pq)
                assert got == expect[pq]
                assert got is None or torus_adjacency_ok(w, got) is None
            first = next((t for t in expect.values() if t is not None), None)
            assert find_torus(w, 2) == first

    def test_side_of_one_wraps_onto_itself(self):
        no_horizontal = TileSet(("t1",), (Tile(0, 0, 1, 2),))
        no_vertical = TileSet(("t1",), (Tile(1, 2, 0, 0),))
        for n in (1, 2, 3):
            assert torus_with_period(no_horizontal, (1, n)) is None
            assert torus_with_period(no_vertical, (n, 1)) is None
        assert torus_with_period(SWAP, (1, 1)) is None
        assert torus_with_period(SWAP, (2, 1)).cells == {(0, 0): 0, (1, 0): 1}
        column = TileSet(("a", "b"), (Tile(2, 1, 0, 0), Tile(1, 2, 0, 0)))
        assert torus_with_period(column, (1, 1)) is None
        assert torus_with_period(column, (1, 2)).cells == {(0, 0): 0, (0, 1): 1}

    def test_cycle_without_square_torus_answers_within_budget(self):
        cycle = parse_tileset_file("a 1 1 1 2\nb 1 1 2 3\nc 1 1 3 1\n")
        assert torus_with_period(cycle, (3, 1)) is not None
        assert torus_with_period(cycle, (4, 4)) is None

    def test_periods_must_be_positive(self):
        with pytest.raises(ValueError):
            torus_with_period(MONO, (0, 1))

    def test_broken_torus_detected(self):
        bad = PeriodicTiling((2, 1), {(0, 0): 0, (1, 0): 0})
        assert torus_adjacency_ok(SWAP, bad) == Mismatch(0, 0, "horizontal")


#: Fifteen tiles whose rows all have period 5 and columns period 3: tile
#: (i, j) has left colour 10 + i and right 10 + (i + 1) % 5, down colour
#: 20 + j and up 20 + (j + 1) % 3, so no torus of either period up to 4 exists.
PERIOD5 = TileSet(
    tuple(f"t{i}{j}" for i in range(5) for j in range(3)),
    tuple(Tile(20 + (j + 1) % 3, 20 + j, 10 + i, 10 + (i + 1) % 5)
          for i in range(5) for j in range(3)))


def torus_steps(w: TileSet, max_period: int, fill=_fill) -> int:
    """The steps find_torus spends when no torus up to max_period exists,
    under fill, the pruned backtracker by default."""
    spent = 0
    for p in range(1, max_period + 1):
        for q in range(1, max_period + 1):
            cells, spent = fill(w, p, q, True, DEFAULT_BUDGET, spent)
            assert cells is None
    return spent


def brute_reach(pairs: list[tuple[int, int]], k: int) -> dict[int, frozenset[int]]:
    """Every colour of the pairs, to the colours its k-step walks end at."""
    colours = {c for pair in pairs for c in pair}
    reach = {}
    for c in colours:
        ends = {c}
        for _ in range(k):
            ends = {leave for enter, leave in pairs if enter in ends}
        reach[c] = frozenset(ends)
    return reach


def brute_reaches(pairs: list[tuple[int, int]]):
    """brute_reach at every k, read from its maps up to the first that
    repeats an earlier one, since the sequence is eventually periodic."""
    maps: list[dict[int, frozenset[int]]] = []
    while (here := brute_reach(pairs, len(maps))) not in maps:
        maps.append(here)
    start = maps.index(here)
    return lambda k: maps[k if k < len(maps) else start + (k - start) % (len(maps) - start)]


def read_reach(reach: _Reach, pairs: list[tuple[int, int]], k: int) -> dict[int, frozenset[int]]:
    """_Reach's map k with its bitmasks turned back into colours."""
    colours = sorted({c for pair in pairs for c in pair})
    return {c: frozenset(d for j, d in enumerate(colours) if reach[k][i] >> j & 1)
            for i, c in enumerate(colours)}


#: Fifty-eight tiles whose rows are separate cycles of lengths 2, 3, 5, 7,
#: 11, 13 and 17, so the reach maps repeat only after 510,510 columns.
COPRIME = TileSet(
    tuple(f"c{length}_{j}" for length in (2, 3, 5, 7, 11, 13, 17) for j in range(length)),
    tuple(Tile(0, 0, 100 * length + j, 100 * length + (j + 1) % length)
          for length in (2, 3, 5, 7, 11, 13, 17) for j in range(length)))


class TestReachPruning:
    def test_agrees_with_the_unpruned_reference(self):
        """The same placement, or None, in no more steps, on rectangles and
        tori up to 4 x 4."""
        rng = random.Random(24)
        sets = [*all_small_tilesets(),
                *(random_tileset(rng, rng.randint(1, 7), rng.randint(1, 4))
                  for _ in range(100))]
        for w in sets:
            for width, height, wrap in product(range(1, 5), range(1, 5), (False, True)):
                expect, ref_steps = reference_fill(w, width, height, wrap,
                                                   DEFAULT_BUDGET, 0)
                got, steps = _fill(w, width, height, wrap, DEFAULT_BUDGET, 0)
                assert got == expect, (w, width, height, wrap)
                assert steps <= ref_steps

    def test_period_five_steps(self):
        assert torus_steps(PERIOD5, 3, reference_fill) == 65_160
        assert torus_steps(PERIOD5, 4, reference_fill) == 295_890
        assert torus_steps(PERIOD5, 3) == 135
        assert torus_steps(PERIOD5, 4) <= 240
        assert find_torus(PERIOD5, 4, budget=240) is None

    def test_reach_maps_match_brute_force(self):
        """Read as the search reads them, k falling by one across chunks,
        from small k and from near 10**9, and out of order."""
        rng = random.Random(25)
        huge = 10 ** 9
        for _ in range(100):
            w = random_tileset(rng, rng.randint(1, 7), rng.randint(1, 4))
            for pairs in ([(t.left, t.right) for t in w.tiles],
                          [(t.down, t.up) for t in w.tiles]):
                expect = brute_reaches(pairs)
                reach = _Reach(pairs, huge)
                ks = [*range(2 * _REACH_CHUNK + 3, -1, -1), *range(huge, huge - 300, -1),
                      *(rng.randrange(huge) for _ in range(5))]
                for k in ks:
                    assert read_reach(reach, pairs, k) == expect(k), (pairs, k)
                for longest in range(4):
                    short = _Reach(pairs, longest)
                    assert all(read_reach(short, pairs, k) == expect(k)
                               for k in range(longest, -1, -1))

    def test_tiles_and_colours_of_the_reach(self):
        reach = _Reach([(5, 9), (9, 5), (9, 9)], 3)
        assert reach.leaves == [1, 0, 1] and reach.enters == [1, 2, 2]
        assert [[reach[k][c] for c in (0, 1)] for k in range(4)] == [[1, 2], [2, 3], [3, 3], [3, 3]]

    def test_huge_sides_cost_the_log_of_the_side(self, monkeypatch):
        """Sides of 10**9 answer, or run out of a small budget, after some
        thousands of steps through the colour graph and in a few megabytes,
        even where the reach maps repeat only after 510,510 columns (building
        them that far took gigabytes)."""
        images = [0]

        def counting(m, step):
            images[0] += 1
            return _image(m, step)
        monkeypatch.setattr(tiling, "_image", counting)
        huge = 10 ** 9
        tracemalloc.start()
        try:
            # 10**9 + 7 is a prime above 17: no row closes after that many columns
            assert torus_with_period(COPRIME, (huge + 7, 1)) is None
            with pytest.raises(SearchBudgetExceeded):
                torus_with_period(COPRIME, (huge, 1), budget=5_000)
            with pytest.raises(SearchBudgetExceeded):
                solve_rect(COPRIME, huge, 1, budget=5_000)
            column = TileSet(("a", "b"), (Tile(2, 1, 0, 0), Tile(1, 2, 0, 0)))
            assert solve_rect(TWO, huge, 1) is None
            stack = TileSet(("a", "b"), (Tile(1, 0, 0, 0), Tile(2, 1, 0, 0)))
            assert solve_rect(stack, 1, huge) is None
            assert torus_with_period(SWAP, (huge + 1, huge)) is None
            assert torus_with_period(column, (huge, huge + 1)) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert images[0] <= 50_000 and peak < 4_000_000, (images, peak)


class TestFilesAndRendering:
    def test_file_roundtrip(self):
        text = render_tileset_file(TWO)
        again = parse_tileset_file(text)
        assert again == TWO

    def test_file_comments_and_errors(self):
        w = parse_tileset_file("# tiles\na 0 0 0 0\n\nb 1 0 2 3 # trailing\n")
        assert w.names == ("a", "b")
        assert w.tiles[1] == Tile(1, 0, 2, 3)
        with pytest.raises(ValueError):
            parse_tileset_file("a 0 0 0\n")
        with pytest.raises(ValueError):
            parse_tileset_file("")
        with pytest.raises(ValueError):
            parse_tileset_file("o 0 0 0 0\n")
        with pytest.raises(ValueError):
            parse_tileset_file("a 0 0 0 0\na 1 1 1 1\n")

    def test_ascii_render(self):
        grid = Grid(2, 2, {(0, 0): 0, (1, 0): 1, (0, 1): 1, (1, 1): 0})
        w = TileSet(("a", "b"), (Tile(0, 0, 0, 0), Tile(0, 0, 0, 0)))
        assert render_ascii(w, grid) == "ba\nab\n"

    def test_svg_render_contains_cells(self):
        grid = solve_rect(MONO, 2, 1)
        svg = render_svg(MONO, grid)
        assert svg.startswith("<svg")
        assert svg.count("<polygon") == 8  # four edges per cell

    def test_empty_tileset_rejected(self):
        with pytest.raises(ValueError):
            TileSet((), ())
