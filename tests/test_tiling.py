from itertools import product

import pytest

from tilemodal.tiling import (
    Grid,
    Mismatch,
    PeriodicTiling,
    SearchBudgetExceeded,
    Tile,
    TileSet,
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
