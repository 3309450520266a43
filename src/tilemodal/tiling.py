"""Wang tiles: match sets, grid verification, bounded rectangle solving,
periodic (torus) tilings, and the tile-set file format.

Grids use (col, row) coordinates with the origin at the bottom-left, matching
the first-quadrant orientation of the tiling problem.
"""

from __future__ import annotations

from tilemodal.formula import IDENT_RE, RESERVED_WORDS
from tilemodal.record import Record

_set = object.__setattr__


class Tile(Record):
    """Unit square with natural-number edge colours."""

    __slots__ = ("up", "down", "left", "right")

    def __init__(self, up: int, down: int, left: int, right: int):
        if up < 0 or down < 0 or left < 0 or right < 0:
            raise ValueError("colours are naturals")
        _set(self, "up", up)
        _set(self, "down", down)
        _set(self, "left", left)
        _set(self, "right", right)


class TileSet(Record):
    __slots__ = ("names", "tiles")

    def __init__(self, names: tuple[str, ...], tiles: tuple[Tile, ...]):
        if not tiles:
            raise ValueError("tile sets must be nonempty")
        if len(names) != len(tiles):
            raise ValueError("one name per tile")
        if len(set(names)) != len(names):
            raise ValueError("tile names must be unique")
        super().__init__(names, tiles)

    def __len__(self) -> int:
        return len(self.tiles)


def matches(w: TileSet, t: int) -> tuple[frozenset[int], frozenset[int]]:
    """Indices of tiles matching tile t to the right and upward.

    Right matches share t's right colour as their left colour; up matches
    share t's up colour as their down colour.
    """
    tile = w.tiles[t]
    right_set = frozenset(i for i, s in enumerate(w.tiles) if s.left == tile.right)
    up_set = frozenset(i for i, s in enumerate(w.tiles) if s.down == tile.up)
    return right_set, up_set


class Grid(Record):
    """Rectangular tile assignment; treat as immutable once built."""

    __slots__ = ("width", "height", "cells")

    def __init__(self, width: int, height: int, cells: dict[tuple[int, int], int]):
        super().__init__(width, height, dict(cells))

    def tile_at(self, col: int, row: int) -> int:
        return self.cells[(col, row)]

    def complete(self) -> bool:
        return all(
            (c, r) in self.cells
            for c in range(self.width)
            for r in range(self.height)
        )


class Mismatch(Record):
    """Failed adjacency at (col, row): edge "horizontal" means the right/left
    colours of (col, row) and (col+1, row) differ, "vertical" the up/down
    colours of (col, row) and (col, row+1)."""

    __slots__ = ("col", "row", "edge")


def verify_grid(w: TileSet, g: Grid) -> Mismatch | None:
    """None if every shared edge matches, else the least failing cell."""
    if not g.complete():
        raise ValueError("grid is incomplete")
    return _mismatch(w, g.cells, g.width, g.height, False)


def _mismatch(w: TileSet, cells: dict[tuple[int, int], int], width: int,
              height: int, wrap: bool) -> Mismatch | None:
    """The one adjacency walk: the least cell, column by column, whose right
    or up edge fails to match, the right edge first. With ``wrap`` the last
    column meets the first and the top row the bottom."""
    tiles = w.tiles
    for col in range(width):
        for row in range(height):
            here = tiles[cells[(col, row)]]
            if wrap or col + 1 < width:
                if here.right != tiles[cells[((col + 1) % width, row)]].left:
                    return Mismatch(col, row, "horizontal")
            if wrap or row + 1 < height:
                if here.up != tiles[cells[(col, (row + 1) % height)]].down:
                    return Mismatch(col, row, "vertical")
    return None


class SearchBudgetExceeded(RuntimeError):
    """The backtracking budget ran out before the search space was exhausted."""


#: Default cap on backtracking node visits for solve_rect / find_torus.
DEFAULT_BUDGET = 10_000_000


#: How many reach maps _Reach builds at once, from one power of its graph.
_REACH_CHUNK = 256


def _image(m: int, step: list[int]) -> int:
    """The colours (a bitmask) that ``step`` sends the colours of m to."""
    out = 0
    while m:
        low = m & -m
        out |= step[low.bit_length() - 1]
        m ^= low
    return out


class _ReachMap(dict):
    """One reach map, filled a colour at a time: a colour missing from it is
    filled in every map of its chunk at once."""

    __slots__ = ("fill",)

    def __missing__(self, c: int) -> int:
        self.fill(c)
        return self[c]


class _Reach(dict):
    """The reach maps of the colour graph whose edges are ``pairs``, one pair
    per tile, read as ``reach[k]`` for 0 <= k <= longest: map k takes a
    colour index to the bitmask of the colours a run of k tiles entered at
    that colour can leave by. ``leaves[i]`` is the index of tile i's second
    colour and ``enters[i]`` the bit of its first.

    The search reads k falling by one from a side that may be 10**9, and
    looks up few colours in each map, so the maps come in chunks of
    _REACH_CHUNK and a colour is worked out only when first looked up in
    its chunk: from the graph's repeated squares at the chunk's first k, in
    log k steps, then one step on per map. A new chunk drops all but its
    neighbours, so at most three are held, and a search builds one only
    after crossing a whole chunk of columns (rows)."""

    def __init__(self, pairs: list[tuple[int, int]], longest: int):
        index = {c: i for i, c in enumerate(sorted({c for pair in pairs for c in pair}))}
        step = [0] * len(index)
        for enter, leave in pairs:
            step[index[enter]] |= 1 << index[leave]
        self.leaves = [index[leave] for _, leave in pairs]
        self.enters = [1 << index[enter] for enter, _ in pairs]
        self.longest = longest
        self.squares = [step]  # the graph's 2**i-th power at i

    def __missing__(self, k: int) -> _ReachMap:
        chunk = k // _REACH_CHUNK
        held = {j: m for j, m in self.items() if abs(j // _REACH_CHUNK - chunk) == 1}
        self.clear()
        self.update(held)
        first = chunk * _REACH_CHUNK
        maps = [_ReachMap() for _ in range(min(_REACH_CHUNK, self.longest + 1 - first))]
        squares = self.squares

        def fill(c: int) -> None:
            reach = 1 << c
            for bit in range(first.bit_length()):
                if bit == len(squares):
                    squares.append([_image(m, squares[-1]) for m in squares[-1]])
                if first >> bit & 1:
                    reach = _image(reach, squares[bit])
            for m in maps:
                m[c] = reach
                reach = _image(reach, squares[0])

        for j, m in enumerate(maps, first):
            m.fill = fill
            self[j] = m
        return self[k]


def _reaches(w: TileSet, width: int, height: int) -> tuple[_Reach, _Reach]:
    """The reach maps of w's tiles across and upward, up to width - 1 and
    height - 1 tiles."""
    return (_Reach([(t.left, t.right) for t in w.tiles], width - 1),
            _Reach([(t.down, t.up) for t in w.tiles], height - 1))


def _fill(w: TileSet, width: int, height: int, wrap: bool, budget: int,
          spent: int, reach: tuple[_Reach, _Reach] | None = None,
          ) -> tuple[dict[tuple[int, int], int] | None, int]:
    """The one tile-placement backtracker: returns the first placement found
    (None if there is none) and the steps spent, counting on from ``spent``.
    With ``wrap`` the last column meets the first and the top row the bottom,
    so a side of length 1 must match itself. Cells are numbered col * height
    + row; placed holds the tiles of the cells before the current one, so it
    grows only as far as the budget lets the search go, whatever the sides.

    A tile is placed only if the rest of its row and column can still be
    run: some run of width-1-col tiles must enter at its right colour, and
    with ``wrap`` leave by the left colour of the row's first tile (the same
    upward, with height-1-row tiles and the column's bottom tile). These are
    necessary conditions, so the first placement, or None, is the one an
    unpruned search finds, in no more steps. The reach maps are built here
    unless ``reach`` brings them (_reaches, for sides at least as long)."""
    tiles = w.tiles
    across, upward = reach or _reaches(w, width, height)
    rights, lefts = across.leaves, across.enters
    ups, downs = upward.leaves, upward.enters
    n = width * height
    placed: list[int] = []
    start = 0  # the first tile to try at the current cell
    while len(placed) < n:
        at = len(placed)
        col, row = divmod(at, height)
        right_reach = across[width - 1 - col]
        up_reach = upward[height - 1 - row]
        for i in range(start, len(tiles)):
            spent += 1
            if spent > budget:
                raise SearchBudgetExceeded(f"budget {budget} exhausted")
            tile = tiles[i]
            if col > 0 and tiles[placed[at - height]].right != tile.left:
                continue
            if row > 0 and tiles[placed[at - 1]].up != tile.down:
                continue
            # the first column (bottom row) is this very cell at col 0 (row 0)
            if not wrap:
                if not right_reach[rights[i]] or not up_reach[ups[i]]:
                    continue
            elif (not right_reach[rights[i]] & lefts[placed[row] if col else i]
                  or not up_reach[ups[i]] & downs[placed[at - row] if row else i]):
                continue
            placed.append(i)
            start = 0
            break
        else:
            if not placed:
                return None, spent
            start = placed.pop() + 1
    return {divmod(cell, height): i for cell, i in enumerate(placed)}, spent


def solve_rect(w: TileSet, width: int, height: int,
               budget: int = DEFAULT_BUDGET) -> Grid | None:
    """Backtracking search for a width x height tiling.

    Fills column-major, bottom-up, trying tiles in index order; each edge is
    checked when its second cell is placed, and a tile is pruned at once when
    no run of tiles enters at its right (up) colour as far as the last column
    (top row). Every tile tried costs one step of the budget, and running out
    of it raises SearchBudgetExceeded, so a None is always a proof that no
    tiling of the rectangle exists.
    """
    if width < 1 or height < 1:
        raise ValueError("rectangle sides must be positive")
    cells, _ = _fill(w, width, height, False, budget, 0)
    return None if cells is None else Grid(width, height, cells)


class PeriodicTiling(Record):
    """A p x q torus assignment; unrolling it periodically tiles the plane."""

    __slots__ = ("periods", "cells")

    def __init__(self, periods: tuple[int, int], cells: dict[tuple[int, int], int]):
        cells = dict(cells)
        p, q = periods
        if p < 1 or q < 1:
            raise ValueError("periods must be positive")
        # counted first: the cover set is only built when it can be matched
        if (len(cells) != p * q
                or set(cells) != {(c, r) for c in range(p) for r in range(q)}):
            raise ValueError("cells must cover exactly the p x q torus")
        super().__init__(periods, cells)

    def tile_at(self, m: int, n: int) -> int:
        p, q = self.periods
        return self.cells[(m % p, n % q)]


def torus_adjacency_ok(w: TileSet, t: PeriodicTiling) -> Mismatch | None:
    """Check all torus adjacencies including the wraparound edges."""
    return _mismatch(w, t.cells, *t.periods, True)


def unroll(t: PeriodicTiling, width: int, height: int) -> Grid:
    cells = {
        (c, r): t.tile_at(c, r) for c in range(width) for r in range(height)
    }
    return Grid(width, height, cells)


def find_torus(w: TileSet, max_period: int,
               budget: int = DEFAULT_BUDGET) -> PeriodicTiling | None:
    """Smallest-period torus tiling, trying periods in lexicographic order.

    Each period is searched as by torus_with_period, reach-pruned from one
    set of reach maps, all of them drawing on one budget, so a None proves
    that no torus with periods up to max_period exists.
    """
    if not (1 <= max_period <= 4):
        raise ValueError("max_period must be between 1 and 4")
    spent, reach = 0, _reaches(w, max_period, max_period)
    for p in range(1, max_period + 1):
        for q in range(1, max_period + 1):
            cells, spent = _fill(w, p, q, True, budget, spent, reach)
            if cells is not None:
                return PeriodicTiling((p, q), cells)
    return None


def torus_with_period(w: TileSet, periods: tuple[int, int],
                      budget: int = DEFAULT_BUDGET) -> PeriodicTiling | None:
    """First torus tiling with exactly these periods, in solve_rect's order.

    Wrap-around edges are checked as soon as both their cells are placed, and
    a tile is pruned at once when no run of tiles from its right colour to
    the last column leaves by the left colour of its row's first tile, or
    none from its up colour to the top row by the down colour of its
    column's bottom tile. The budget works as in solve_rect: a None is a
    proof.
    """
    p, q = periods
    if p < 1 or q < 1:
        raise ValueError("periods must be positive")
    cells, _ = _fill(w, p, q, True, budget, 0)
    return None if cells is None else PeriodicTiling((p, q), cells)


# -- tile set file format ------------------------------------------------------
#
#   # comment
#   name u d l r       one tile per line, natural colours


def parse_tileset_file(text: str) -> TileSet:
    names: list[str] = []
    tiles: list[Tile] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"line {lineno}: expected 'name u d l r'")
        name = parts[0]
        if not IDENT_RE.fullmatch(name) or name in RESERVED_WORDS:
            raise ValueError(f"line {lineno}: bad tile name {name!r}")
        try:
            u, d, l, r = (int(p) for p in parts[1:])
        except ValueError:
            raise ValueError(f"line {lineno}: colours must be naturals") from None
        names.append(name)
        tiles.append(Tile(u, d, l, r))
    if not tiles:
        raise ValueError("tile set file has no tiles")
    return TileSet(tuple(names), tuple(tiles))


def render_tileset_file(w: TileSet) -> str:
    lines = [
        f"{name} {t.up} {t.down} {t.left} {t.right}"
        for name, t in zip(w.names, w.tiles)
    ]
    return "\n".join(lines) + "\n"


def render_ascii(w: TileSet, g: Grid) -> str:
    """One character per cell (tile name initial), top row first."""
    rows = []
    for row in range(g.height - 1, -1, -1):
        rows.append("".join(w.names[g.tile_at(col, row)][0] for col in range(g.width)))
    return "\n".join(rows) + "\n"


_SVG_HUES = (0, 210, 120, 30, 280, 60, 330, 170)


def _colour_style(colour: int) -> str:
    hue = _SVG_HUES[colour % len(_SVG_HUES)]
    light = 70 - 25 * (colour // len(_SVG_HUES) % 2)
    return f"hsl({hue},70%,{light}%)"


#: The side of one tile in render_svg's picture, in pixels.
_SVG_CELL = 40


def render_svg(w: TileSet, g: Grid) -> str:
    """Unit squares with edge triangles coloured by edge colour index."""
    cell = _SVG_CELL
    width, height = g.width * cell, g.height * cell
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for (col, row), idx in sorted(g.cells.items()):
        t = w.tiles[idx]
        x0, y0 = col * cell, (g.height - 1 - row) * cell
        x1, y1 = x0 + cell, y0 + cell
        cx, cy = x0 + cell // 2, y0 + cell // 2
        for colour, tri in (
            (t.up, f"{x0},{y0} {x1},{y0} {cx},{cy}"),
            (t.right, f"{x1},{y0} {x1},{y1} {cx},{cy}"),
            (t.down, f"{x1},{y1} {x0},{y1} {cx},{cy}"),
            (t.left, f"{x0},{y1} {x0},{y0} {cx},{cy}"),
        ):
            parts.append(
                f'<polygon points="{tri}" fill="{_colour_style(colour)}" '
                f'stroke="black" stroke-width="1"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

