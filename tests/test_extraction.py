import random

import pytest

from fixtures_quotient import quotient_countermodel, quotient_frame
from tilemodal import formula as fm
from tilemodal import reduction
from tilemodal.extraction import (
    _Checker,
    NoTile,
    NoWitness,
    PremiseFailure,
    _least_split,
    assoc_witness,
    extract_axes,
    extract_grid,
    extract_tiling,
    read_tiling,
)
from tilemodal.frames import Frame, Model, check_associative, powerset_frame
from tilemodal.semantics import Evaluator, sat_mask, sat_set
from tilemodal.tiling import PeriodicTiling, Tile, TileSet, verify_grid

MONO = TileSet(("t1",), (Tile(0, 0, 0, 0),))
MONO_TORUS = PeriodicTiling((1, 1), {(0, 0): 0})
SWAP = TileSet(("a", "b"), (Tile(0, 0, 1, 2), Tile(0, 0, 2, 1)))
SWAP_TORUS = PeriodicTiling((2, 1), {(0, 0): 0, (1, 0): 1})


@pytest.fixture(scope="module")
def mono_model():
    return quotient_countermodel(MONO, MONO_TORUS)


@pytest.fixture(scope="module")
def swap_model():
    return quotient_countermodel(SWAP, SWAP_TORUS)


class TestQuotientFixture:
    def test_frame_is_associative(self):
        assert check_associative(quotient_frame()) is None

    def test_refutes_phi(self, mono_model):
        model, z = mono_model
        assert z not in sat_set(model, reduction.phi(MONO))

    def test_refutes_phi_two_tiles(self, swap_model):
        model, z = swap_model
        assert z not in sat_set(model, reduction.phi(SWAP))

    def test_rejects_non_mod2_torus(self):
        w3 = TileSet(("a", "b", "c"),
                     (Tile(0, 0, 1, 2), Tile(0, 0, 2, 3), Tile(0, 0, 3, 1)))
        torus3 = PeriodicTiling((3, 1), {(0, 0): 0, (1, 0): 1, (2, 0): 2})
        with pytest.raises(ValueError):
            quotient_countermodel(w3, torus3)


class TestChecker:
    @pytest.mark.parametrize("w", [MONO, SWAP], ids=["mono", "swap"])
    def test_one_pass_masks_equal_sat_mask(self, monkeypatch, mono_model, swap_model, w):
        model, _ = mono_model if w is MONO else swap_model
        passes = []
        masks = Evaluator.masks
        monkeypatch.setattr(Evaluator, "masks",
                            lambda ev, *args: passes.append(1) or masks(ev, *args))
        chk = _Checker(model, w)
        assert len(passes) == 1
        assert chk.letter == {name: sat_mask(model, fm.Letter(name))
                              for name in reduction.STRUCTURAL_LETTERS}
        assert chk.tile_masks == [sat_mask(model, reduction.tile_literal(w, t))
                                  for t in range(len(w))]
        assert chk.products == {
            (a, b): sat_mask(model, fm.Comp(fm.Letter(f"x_{a}"), fm.Letter(f"y_{b}")))
            for a, b in reduction.PARITY_PAIRS}
        assert chk.body == [(name, sat_mask(model, f))
                            for name, f in reduction.conjuncts(w)]


class TestAssocWitness:
    def test_powerset_forward(self):
        frame = powerset_frame(2, "union")
        model = Model(frame, {})
        # worlds are subset bitmasks: 3 = {0,1}, 1 = {0}, 2 = {1}
        # premises: R 3 1 3 (pivot d=1: {0,1} = {0} u {0,1}), R 1 1 0
        b = assoc_witness(model, "forward", a=3, x=1, c=0, y=3, pivot=1)
        assert frame.has(3, 1, b) and frame.has(b, 0, 3)

    def test_one_world_frame(self):
        model = Model(Frame(1, frozenset({(0, 0, 0)})), {})
        assert assoc_witness(model, "forward", 0, 0, 0, 0, 0) == 0
        assert assoc_witness(model, "backward", 0, 0, 0, 0, 0) == 0

    def test_premise_failure(self):
        model = Model(Frame(2, frozenset({(0, 0, 1)})), {})
        with pytest.raises(PremiseFailure):
            assoc_witness(model, "forward", 0, 0, 0, 0, 0)

    def test_no_witness_on_non_associative_frame(self):
        # R 0 (01) 1 holds via pivot 0 but R 0 0 (11) has no witness
        model = Model(Frame(2, frozenset({(0, 0, 1)})), {})
        with pytest.raises(NoWitness):
            assoc_witness(model, "forward", a=0, x=0, c=1, y=1, pivot=0)

    def test_least_witness_chosen(self):
        triples = {(0, 1, 2), (1, 3, 4), (0, 3, 2), (0, 3, 3), (2, 4, 2), (3, 4, 2)}
        frame = Frame(5, frozenset(triples))
        model = Model(frame, {})
        # both 2 and 3 complete the rewrite; 2 is the least
        got = assoc_witness(model, "forward", a=0, x=3, c=4, y=2, pivot=1)
        assert got == 2


def by_first(frame: Frame) -> dict[int, list[tuple[int, int]]]:
    """x -> every (y, z) with Rxyz: the index the witness scans used to read."""
    idx: dict[int, list[tuple[int, int]]] = {}
    for x, y, z in frame.triples:
        idx.setdefault(x, []).append((y, z))
    return idx


def oracle_witness(frame: Frame, by: dict, kind: str, a: int, x: int, c: int,
                   y: int) -> int | None:
    """The earlier sorted scan of assoc_witness, kept as its oracle."""
    R = frame.triples
    if kind == "forward":
        found = sorted(b for (u, b) in by.get(a, ()) if u == x and (b, c, y) in R)
    else:
        found = sorted(d for (d, v) in by.get(a, ()) if v == y and (d, x, c) in R)
    return found[0] if found else None


def oracle_split(by: dict, x: int, left: int, right: int) -> tuple[int, int] | None:
    """The earlier sorted scan of the axis steps, kept as their oracle."""
    return next((pair for pair in sorted(by.get(x, ()))
                 if left >> pair[0] & 1 and right >> pair[1] & 1), None)


class TestIndexScansMatchSortedScans:
    def test_assoc_witness_both_kinds(self):
        frame = quotient_frame()
        model, by, R = Model(frame, {}), by_first(frame), sorted(frame.triples)
        rng = random.Random(5)
        for _ in range(3000):
            a, pivot, y = rng.choice(R)  # forward: R a pivot y and R pivot x c
            x, c = rng.choice(by[pivot])
            assert (assoc_witness(model, "forward", a, x, c, y, pivot)
                    == oracle_witness(frame, by, "forward", a, x, c, y))
            a, x, pivot = rng.choice(R)  # backward: R a x pivot and R pivot c y
            c, y = rng.choice(by[pivot])
            assert (assoc_witness(model, "backward", a, x, c, y, pivot)
                    == oracle_witness(frame, by, "backward", a, x, c, y))

    @pytest.mark.parametrize("w", [MONO, SWAP], ids=["mono", "swap"])
    def test_axis_steps(self, mono_model, swap_model, w):
        model, z = mono_model if w is MONO else swap_model
        by, letter = by_first(model.frame), _Checker(model, w).letter
        masks = [letter[name] for name in reduction.STRUCTURAL_LETTERS]
        for x in range(model.frame.size):
            for left in masks:
                for right in masks:
                    assert (_least_split(model.frame, x, left, right)
                            == oracle_split(by, x, left, right))
        axes = extract_axes(model, z, 6, w)
        x0, y0 = oracle_split(by, z, letter["x_e"], letter["y_e"])
        xs, ys = [x0], [y0]
        for i in range(6):
            parity = "o" if i % 2 == 0 else "e"  # of step i + 1
            xp, x_next = oracle_split(by, xs[i], letter["x'"], letter["x_" + parity])
            y_next, yp = oracle_split(by, ys[i], letter["y_" + parity], letter["y'"])
            assert (xp, yp) == (axes.xprime(i + 1), axes.yprime(i + 1))
            xs.append(x_next)
            ys.append(y_next)
        assert (tuple(xs), tuple(ys)) == (axes.x, axes.y)


class TestExtractAxes:
    def test_axes_for_all_small_k(self, mono_model):
        model, z = mono_model
        for k in range(5):
            axes = extract_axes(model, z, k, MONO)
            assert axes.k == k
            assert len(axes.x) == k + 1 and len(axes.xp) == k

    def test_axes_cycle_on_finite_model(self, mono_model):
        model, z = mono_model
        axes = extract_axes(model, z, 4, MONO)
        assert axes.x[0] == axes.x[2] == axes.x[4]
        assert axes.x[1] == axes.x[3]

    def test_wrong_point_is_premise_failure(self, mono_model):
        model, _ = mono_model
        # the class of the empty set satisfies no seed product
        with pytest.raises(PremiseFailure):
            extract_axes(model, 0, 1, MONO)

    def test_non_associative_model_rejected(self):
        model = Model(Frame(2, frozenset({(0, 0, 1)})), {})
        with pytest.raises(PremiseFailure):
            extract_axes(model, 0, 1, MONO)

    def test_k_zero_gives_seed_only(self, mono_model):
        model, z = mono_model
        axes = extract_axes(model, z, 0, MONO)
        assert model.frame.has(z, axes.x[0], axes.y[0])


class TestExtractGrid:
    def test_grid_points_cover_k_plus_one(self, mono_model):
        model, z = mono_model
        grid = extract_grid(model, z, 2, MONO)
        assert set(grid.points) == {
            (m, n) for m in range(1, 4) for n in range(1, 4)
        }

    def test_staircase_decompositions_hold(self, mono_model):
        model, z = mono_model
        grid = extract_grid(model, z, 3, MONO)
        axes = grid.axes
        for j in range(1, 5):
            assert model.frame.has(grid.points[(j, j)], axes.x[j], axes.y[j])

    def test_grid_relations_hold(self, mono_model):
        model, z = mono_model
        k = 3
        grid = extract_grid(model, z, k, MONO)
        axes = grid.axes
        for (m, n), world in grid.points.items():
            if m <= k:
                assert model.frame.has(world, axes.xprime(m + 1),
                                       grid.points[(m + 1, n)])
            if n <= k:
                assert model.frame.has(world, grid.points[(m, n + 1)],
                                       axes.yprime(n + 1))


class TestReadTiling:
    def test_mono_end_to_end(self, mono_model):
        model, z = mono_model
        for k in (1, 2, 3, 4):
            grid = extract_tiling(model, z, k, MONO)
            assert grid.width == grid.height == k
            assert verify_grid(MONO, grid) is None

    def test_swap_end_to_end(self, swap_model):
        model, z = swap_model
        for k in (1, 2, 3, 4):
            grid = extract_tiling(model, z, k, SWAP)
            assert verify_grid(SWAP, grid) is None

    def test_swap_tiling_alternates(self, swap_model):
        model, z = swap_model
        grid = extract_tiling(model, z, 4, SWAP)
        for col in range(4):
            for row in range(4):
                assert grid.tile_at(col, row) == (col + 1) % 2

    def test_unique_tile_at_one_by_one(self, mono_model):
        model, z = mono_model
        points = extract_grid(model, z, 1, MONO)
        grid = read_tiling(model, points, MONO)
        assert grid.cells == {(0, 0): 0}

    def test_missing_tile_letter_raises(self, mono_model):
        model, z = mono_model
        points = extract_grid(model, z, 1, MONO)
        stripped = Model(model.frame, {
            p: ws for p, ws in model.valuation.items() if p != "t1"
        })
        with pytest.raises(NoTile):
            read_tiling(stripped, points, MONO)

    def test_overlapping_tile_valuations_satisfy_no_literal(self, swap_model):
        # tile literals conjoin the negations of the other tile letters, so
        # inflating one letter's valuation kills both literals at the overlap
        model, z = swap_model
        points = extract_grid(model, z, 2, SWAP)
        val = model.valuation
        doubled = Model(model.frame, {
            **val, "b": set(val["b"]) | set(val["a"]),
        })
        with pytest.raises(NoTile):
            read_tiling(doubled, points, SWAP)
