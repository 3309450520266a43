"""Tiling extraction from a refuting model.

Given an associative model and a point satisfying the body refuted by the
tiling formula, this module walks out the two axes, builds the diagonal
staircase of grid points, fills the rest of the grid with associativity
rewrites, and reads off a verified tiling. Every obligation used along the
way (the seven axis items, the staircase equations, the grid equations, and the
four parity cases) is asserted as soon as it becomes checkable, so a failure
pinpoints either a violated precondition or a transcription bug.

Witness choice is deterministic: the least world (or least lexicographic
pair) satisfying the step's constraints is taken, and no backtracking is
needed because any locally valid witness admits continuation.
"""

from __future__ import annotations

from tilemodal import formula as fm
from tilemodal import reduction
from tilemodal.frames import Frame, Model, bits, check_associative, s_relation
from tilemodal.record import Record
from tilemodal.semantics import Evaluator
from tilemodal.tiling import Grid, TileSet, verify_grid


class ExtractionError(Exception):
    pass


class PremiseFailure(ExtractionError):
    """A required satisfaction or relation fact does not hold in the model."""

    def __init__(self, item: str, index=None):
        self.item = item
        self.index = index
        at = "" if index is None else f" at {index}"
        super().__init__(f"premise failed: {item}{at}")


class NoWitness(ExtractionError):
    """An associativity rewrite found no witness: the frame is not associative."""


class NoTile(ExtractionError):
    def __init__(self, m: int, n: int):
        super().__init__(f"no tile letter holds at grid point ({m},{n})")
        self.at = (m, n)


class MultipleTiles(ExtractionError):
    """Defensive only: tile literals are mutually exclusive by construction,
    so this cannot fire unless the literal builder itself regresses."""

    def __init__(self, m: int, n: int):
        super().__init__(f"several tile letters hold at grid point ({m},{n})")
        self.at = (m, n)


class Axes(Record):
    """Axis worlds x_0..x_k and y_0..y_k, with the successor witnesses
    x'_1..x'_k and y'_1..y'_k (xprime(i) is x'_i)."""

    __slots__ = ("z", "x", "y", "xp", "yp")

    @property
    def k(self) -> int:
        return len(self.x) - 1

    def xprime(self, i: int) -> int:
        return self.xp[i - 1]

    def yprime(self, i: int) -> int:
        return self.yp[i - 1]


class GridPoints(Record):
    """Grid worlds p[(m, n)] for 1 <= m, n <= k+1 plus the axes they hang on."""

    __slots__ = ("k", "points", "axes")


class _Checker:
    """Shared satisfaction machinery for one model and tile set.

    The structural letters, tile literals, parity products and body
    conjuncts are emitted into one Dag, with no trees, and evaluated in one
    pass."""

    def __init__(self, model: Model, w: TileSet):
        self.model, self.tiles = model, w
        dag = fm.Dag()
        body = reduction.conjuncts(w, dag)
        node = fm.encoders(dag)
        letters = {name: node[fm.Letter](name) for name in reduction.STRUCTURAL_LETTERS}
        tiles = [reduction.tile_literal(w, t, dag) for t in range(len(w))]
        products = {(a, b): node[fm.Comp](letters[f"x_{a}"], letters[f"y_{b}"])
                    for a, b in reduction.PARITY_PAIRS}
        sat = Evaluator(model.frame).masks(dag, model.masks)
        self._ssucc = s_relation(model.frame).succ
        self.letter = {name: sat[i] for name, i in letters.items()}
        self.tile_masks = [sat[i] for i in tiles]
        self.products = {pair: sat[i] for pair, i in products.items()}
        self.body = [(name, sat[i]) for name, i in body]

    def sat(self, mask: int, world: int) -> bool:
        return (mask >> world) & 1 == 1

    def s_reaches(self, x: int, y: int) -> bool:
        return (self._ssucc[x] >> y) & 1 == 1

    def check_body(self, z: int) -> None:
        for name, mask in self.body:
            if not self.sat(mask, z):
                raise PremiseFailure(f"body conjunct {name}", z)


#: The last _Checker built; it holds its model and tile set.
_last: _Checker | None = None


def _checker(model: Model, w: TileSet) -> _Checker:
    """The _Checker of model and w that the pipeline's stages share: the
    last one built while it holds these very objects, matched by identity,
    so neither is hashed."""
    global _last
    if _last is None or _last.model is not model or _last.tiles is not w:
        _last = _Checker(model, w)
    return _last


def assoc_witness(model: Model, kind: str, a: int, x: int, c: int, y: int,
                  pivot: int) -> int:
    """Apply one associativity rewrite and return the least new witness.

    forward: from R a pivot y and R pivot x c, find b with R a x b and R b c y.
    backward: from R a x pivot and R pivot c y, find d with R a d y and R d x c.

    Raises PremiseFailure if the premise pair does not hold, and NoWitness if
    no witness exists, which certifies the frame is not associative.
    """
    frame = model.frame
    rows = frame.rows
    if kind == "forward":
        if not (frame.has(a, pivot, y) and frame.has(pivot, x, c)):
            raise PremiseFailure("forward rewrite premise", (a, x, c, y, pivot))
        row_x = rows.get(x, {})
        found = next((b for b in bits(rows.get(c, {}).get(y, 0))
                      if row_x.get(b, 0) >> a & 1), None)
        if found is None:
            raise NoWitness(f"no forward witness for {(a, x, c, y)}")
        return found
    if kind == "backward":
        if not (frame.has(a, x, pivot) and frame.has(pivot, c, y)):
            raise PremiseFailure("backward rewrite premise", (a, x, c, y, pivot))
        found = next((d for d in bits(rows.get(x, {}).get(c, 0))
                      if rows.get(d, {}).get(y, 0) >> a & 1), None)
        if found is None:
            raise NoWitness(f"no backward witness for {(a, x, c, y)}")
        return found
    raise ValueError(f"unknown kind {kind!r}")


def _least_split(frame: Frame, x: int, left: int, right: int) -> tuple[int, int] | None:
    """Least (y, z) with Rxyz, y in left and z in right, or None: the rows
    of the y in left, ascending, are read until one has such a z."""
    for y in bits(left):
        zs = [z for z, xs in frame.rows.get(y, {}).items() if xs >> x & 1 and right >> z & 1]
        if zs:
            return y, min(zs)
    return None


def extract_axes(model: Model, z: int, k: int, w: TileSet) -> Axes:
    """Walk k successor steps along both axes from the refutation point z.

    Requires the model associative and z satisfying the full body; each of
    the seven per-step obligations is verified before returning. Sequences
    may revisit worlds: cycles on finite models are fine.
    """
    if check_associative(model.frame) is not None:
        raise PremiseFailure("model frame is associative")
    chk = _checker(model, w)
    chk.check_body(z)

    xe, xo = chk.letter["x_e"], chk.letter["x_o"]
    ye, yo = chk.letter["y_e"], chk.letter["y_o"]
    xp_m, yp_m = chk.letter["x'"], chk.letter["y'"]

    base = _least_split(model.frame, z, xe, ye)
    if base is None:
        raise PremiseFailure("item 1: no seed decomposition", z)
    xs, ys = [base[0]], [base[1]]
    xps: list[int] = []
    yps: list[int] = []

    for i in range(k):
        x_par = xe if i % 2 == 0 else xo
        x_next_par = xo if i % 2 == 0 else xe
        y_par = ye if i % 2 == 0 else yo
        y_next_par = yo if i % 2 == 0 else ye
        if not chk.sat(x_par, xs[i]) or not chk.sat(y_par, ys[i]):
            raise PremiseFailure("item 6/7: parity letters", i)

        step_x = _least_split(model.frame, xs[i], xp_m, x_next_par)
        if step_x is None:
            raise PremiseFailure("item 2: no x successor decomposition", i + 1)
        step_y = _least_split(model.frame, ys[i], y_next_par, yp_m)
        if step_y is None:
            raise PremiseFailure("item 3: no y successor decomposition", i + 1)
        xps.append(step_x[0])
        xs.append(step_x[1])
        ys.append(step_y[0])
        yps.append(step_y[1])

    axes = Axes(z, tuple(xs), tuple(ys), tuple(xps), tuple(yps))
    _check_axes(chk, axes)
    return axes


def _check_axes(chk: _Checker, axes: Axes) -> None:
    """Re-verify items 1-7 directly against the relation and valuation."""
    R = chk.model.frame.has
    z = axes.z
    if not R(z, axes.x[0], axes.y[0]):
        raise PremiseFailure("item 1")
    for i in range(axes.k):
        if not R(axes.x[i], axes.xprime(i + 1), axes.x[i + 1]):
            raise PremiseFailure("item 2", i)
        if not R(axes.y[i], axes.y[i + 1], axes.yprime(i + 1)):
            raise PremiseFailure("item 3", i)
        if not chk.sat(chk.letter["x'"], axes.xprime(i + 1)):
            raise PremiseFailure("item 4: x'", i + 1)
        if not chk.sat(chk.letter["y'"], axes.yprime(i + 1)):
            raise PremiseFailure("item 4: y'", i + 1)
        if not (chk.s_reaches(z, axes.xprime(i + 1))
                and chk.s_reaches(z, axes.yprime(i + 1))):
            raise PremiseFailure("item 5: primes", i + 1)
    for i in range(axes.k + 1):
        if not (chk.s_reaches(z, axes.x[i]) and chk.s_reaches(z, axes.y[i])):
            raise PremiseFailure("item 5", i)
        x_par = "x_e" if i % 2 == 0 else "x_o"
        y_par = "y_e" if i % 2 == 0 else "y_o"
        if not chk.sat(chk.letter[x_par], axes.x[i]):
            raise PremiseFailure("item 6/7: x parity", i)
        if not chk.sat(chk.letter[y_par], axes.y[i]):
            raise PremiseFailure("item 6/7: y parity", i)


def extract_grid(model: Model, z: int, k: int, w: TileSet) -> GridPoints:
    """Build grid points p[(m, n)] for 1 <= m, n <= k+1.

    The staircase p11, p21, p22, ... is built with alternating forward and
    backward rewrites; the remaining points come from backward rewrites above
    the diagonal and forward rewrites below it. The grid equations (the S
    reachability and the two successor relations per point) are all checked
    before returning.
    """
    axes = extract_axes(model, z, k + 1, w)
    chk = _checker(model, w)
    K = k + 1
    p: dict[tuple[int, int], int] = {}

    # base: pivot through the seed decomposition to reach p11
    q = assoc_witness(model, "backward", a=z, x=axes.x[0], c=axes.y[1],
                      y=axes.yprime(1), pivot=axes.y[0])
    p[(1, 1)] = assoc_witness(model, "forward", a=q, x=axes.xprime(1),
                              c=axes.x[1], y=axes.y[1], pivot=axes.x[0])

    for j in range(1, K):
        p[(j + 1, j)] = assoc_witness(
            model, "forward", a=p[(j, j)], x=axes.xprime(j + 1),
            c=axes.x[j + 1], y=axes.y[j], pivot=axes.x[j])
        p[(j + 1, j + 1)] = assoc_witness(
            model, "backward", a=p[(j + 1, j)], x=axes.x[j + 1],
            c=axes.y[j + 1], y=axes.yprime(j + 1), pivot=axes.y[j])

    # above the diagonal: each point arrives with its horizontal relation
    for delta in range(1, K):
        for m in range(1, K - delta + 1):
            n = m + delta
            p[(m, n)] = assoc_witness(
                model, "backward", a=p[(m, n - 1)], x=axes.xprime(m + 1),
                c=p[(m + 1, n)], y=axes.yprime(n), pivot=p[(m + 1, n - 1)])

    # below the diagonal (the staircase already covers delta == 1)
    for delta in range(2, K):
        for n in range(1, K - delta + 1):
            m = n + delta
            p[(m, n)] = assoc_witness(
                model, "forward", a=p[(m - 1, n)], x=axes.xprime(m),
                c=p[(m, n + 1)], y=axes.yprime(n + 1), pivot=p[(m - 1, n + 1)])

    grid = GridPoints(k, p, axes)
    _check_grid(chk, grid)
    return grid


def _check_grid(chk: _Checker, grid: GridPoints) -> None:
    """Verify the staircase equations and the grid equations wherever the
    referenced points exist."""
    R = chk.model.frame.has
    axes = grid.axes
    K = grid.k + 1
    p = grid.points
    for j in range(1, K + 1):
        if not R(p[(j, j)], axes.x[j], axes.y[j]):
            raise PremiseFailure("staircase: diagonal decomposition", j)
        if j < K and not R(p[(j + 1, j)], axes.x[j + 1], axes.y[j]):
            raise PremiseFailure("staircase: subdiagonal decomposition", j)
    for (m, n), world in p.items():
        if not chk.s_reaches(axes.z, world):
            raise PremiseFailure("grid: z S p", (m, n))
        if m < K and not R(world, axes.xprime(m + 1), p[(m + 1, n)]):
            raise PremiseFailure("grid: horizontal relation", (m, n))
        if n < K and not R(world, p[(m, n + 1)], axes.yprime(n + 1)):
            raise PremiseFailure("grid: vertical relation", (m, n))


def read_tiling(model: Model, grid: GridPoints, w: TileSet) -> Grid:
    """Read the k x k tiling off the grid points and verify it.

    Each point must satisfy exactly one tile literal and the parity product
    matching its coordinates (and none of the other three); the resulting
    grid must pass adjacency verification. Any failure here is a soundness
    bug or a violated precondition, never a valid outcome."""
    chk = _checker(model, w)
    k = grid.k
    cells: dict[tuple[int, int], int] = {}
    for m in range(1, k + 1):
        for n in range(1, k + 1):
            world = grid.points[(m, n)]
            expect = ("e" if m % 2 == 0 else "o", "e" if n % 2 == 0 else "o")
            for pair, mask in chk.products.items():
                if pair == expect and not chk.sat(mask, world):
                    raise PremiseFailure(f"parity case {pair}", (m, n))
                if pair != expect and chk.sat(mask, world):
                    raise PremiseFailure(f"parity exclusion {pair}", (m, n))
            holders = [t for t, mask in enumerate(chk.tile_masks)
                       if chk.sat(mask, world)]
            if not holders:
                raise NoTile(m, n)
            if len(holders) > 1:
                raise MultipleTiles(m, n)
            cells[(m - 1, n - 1)] = holders[0]
    out = Grid(k, k, cells)
    bad = verify_grid(w, out)
    if bad is not None:
        raise ExtractionError(f"extracted tiling fails verification: {bad}")
    return out


def extract_tiling(model: Model, z: int, k: int, w: TileSet) -> Grid:
    """Full pipeline: axes, staircase, grid fill, and verified read-off."""
    return read_tiling(model, extract_grid(model, z, k, w), w)
