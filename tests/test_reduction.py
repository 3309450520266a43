import random
from itertools import product
from pathlib import Path

import pytest

from fixtures_quotient import quotient_countermodel
from test_tiling import PERIOD5, SWAP, all_small_tilesets
from tilemodal import formula as fm
from tilemodal import powerset_symbolic as ps
from tilemodal.formula import And, Bottom, Box, Comp, HookR, Implies, Letter, Neg, Or
from tilemodal.reduction import (
    PARITY_PAIRS,
    STRUCTURAL_LETTERS,
    conjuncts,
    letter_inventory,
    match_formulas,
    phi,
    phi_body,
    phi_stats,
    tile_literal,
)
from tilemodal.semantics import Evaluator
from tilemodal.tiling import Tile, TileSet, find_torus

GOLDEN = Path(__file__).parent / "data" / "phi_single_tile.golden"

MONO = TileSet(("t1",), (Tile(0, 0, 0, 0),))
TWO = TileSet(("t1", "t2"), (Tile(0, 0, 0, 1), Tile(0, 0, 2, 0)))
THREE = TileSet(("t1", "t2", "t3"), (Tile(0, 0, 0, 0),) * 3)


def conjunct_spine(f: fm.Formula) -> list[fm.Formula]:
    out = []
    while isinstance(f, And):
        out.append(f.right)
        f = f.left
    out.append(f)
    return list(reversed(out))


class TestTileLiteral:
    def test_single_tile_is_bare_letter(self):
        assert tile_literal(MONO, 0) == Letter("t1")

    def test_three_tiles_middle(self):
        assert tile_literal(THREE, 1) == And(
            And(Letter("t2"), Neg(Letter("t1"))), Neg(Letter("t3"))
        )

    def test_mentions_every_tile_letter(self):
        assert fm.letters(tile_literal(TWO, 0)) == {"t1", "t2"}

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            tile_literal(MONO, 1)


class TestMatchFormulas:
    def test_self_matching_single(self):
        assert match_formulas(MONO, 0) == (Letter("t1"), Letter("t1"))

    def test_empty_match_set_gives_bottom(self):
        right, up = match_formulas(TWO, 0)
        assert right == Bottom()

    def test_two_tile_right_match(self):
        right, _ = match_formulas(TWO, 1)
        assert right == tile_literal(TWO, 0)


class TestPhi:
    def test_body_has_fifteen_conjuncts(self):
        for w in (MONO, TWO, THREE):
            assert len(conjuncts(w)) == 15
            assert len(conjunct_spine(phi_body(w))) == 15

    def test_conjunct_names_in_printed_order(self):
        names = [name for name, _ in conjuncts(MONO)]
        assert names == [
            "seed", "alpha1", "alpha2", "alpha3", "alpha4", "beta1", "beta2",
            "gamma1h", "gamma1v", "gamma2h", "gamma2v", "gamma3h", "gamma3v",
            "gamma4h", "gamma4v",
        ]

    def test_letter_counts(self):
        for w in (MONO, THREE):
            f = phi(w)
            assert len(fm.letters(f)) == len(w) + 6
            assert len(fm.letters(fm.desugar(f))) == len(w) + 7

    def test_gamma1h_hand_instance(self):
        ee = Comp(Letter("x_e"), Letter("y_e"))
        oe = Comp(Letter("x_o"), Letter("y_e"))
        t1 = Letter("t1")
        expected = Box(Implies(
            And(ee, t1),
            HookR(Letter("x'"), Or(ee, And(oe, t1))),
        ))
        assert dict(conjuncts(MONO))["gamma1h"] == expected

    def test_alpha_sides(self):
        got = dict(conjuncts(MONO))
        assert got["alpha1"] == Box(Implies(
            Letter("x_e"), Comp(Letter("x'"), Letter("x_o"))))
        assert got["alpha3"] == Box(Implies(
            Letter("y_e"), Comp(Letter("y_o"), Letter("y'"))))

    def test_beta1_covers_all_tiles_and_products(self):
        _, beta1 = conjuncts(TWO)[5]
        used = fm.letters(beta1)
        assert set(TWO.names) <= used
        assert set(STRUCTURAL_LETTERS[:4]) <= used

    def test_structural_letters_all_occur(self):
        for w in (MONO, TWO):
            assert set(STRUCTURAL_LETTERS) <= fm.letters(phi(w))

    def test_matches_golden_file(self):
        golden = GOLDEN.read_text().strip()
        assert fm.render(phi(MONO)) == golden
        assert fm.parse(golden) == phi(MONO)

    def test_roundtrips_for_larger_sets(self):
        for w in (TWO, THREE):
            f = phi(w)
            assert fm.parse(fm.render(f)) == f

    def test_deterministic_output(self):
        assert fm.render(phi(TWO)) == fm.render(phi(TWO))

    def test_distinct_match_structures_distinct_phi(self):
        by_signature = {}
        singles = [Tile(*c) for c in product(range(2), repeat=4)]
        for i, t1 in enumerate(singles):
            for t2 in singles[i + 1:]:
                w = TileSet(("t1", "t2"), (t1, t2))
                from tilemodal.tiling import matches
                sig = tuple(matches(w, t) for t in range(2))
                by_signature.setdefault(sig, set()).add(fm.render(phi(w)))
        for sig, renderings in by_signature.items():
            assert len(renderings) == 1
        all_renderings = [next(iter(v)) for v in by_signature.values()]
        assert len(all_renderings) == len(set(all_renderings))

    def test_quadratic_growth(self):
        sizes = []
        for n in (1, 2, 4):
            names = tuple(f"t{i + 1}" for i in range(n))
            w = TileSet(names, (Tile(0, 0, 0, 0),) * n)
            sizes.append(phi_stats(w)["nodes"])
        assert sizes[1] < sizes[2]
        # doubling the tiles should much more than double the nodes
        assert sizes[2] > 3 * sizes[1]

    def test_stats_leave_out_the_constants_letter(self):
        dead_end = TileSet(("a",), (Tile(0, 0, 0, 1),))  # no right match: phi has F
        assert fm.TOP_LETTER in fm.letters(phi(dead_end))
        assert phi_stats(dead_end)["letters"] == phi_stats(MONO)["letters"] == 7

    def test_stats_of_the_built_formula(self):
        dead_end = TileSet(("a", "b"), (Tile(0, 0, 0, 0), Tile(0, 0, 5, 6)))
        for w in (MONO, dead_end, TileSet(("t1", "t2"), (Tile(0, 0, 0, 0),) * 2)):
            f = phi(w)
            assert phi_stats(w, f) == phi_stats(w) == {
                "nodes": fm.node_count(f), "letters": 6 + len(w),
                "conjuncts": len(conjuncts(w)), "tiles": len(w)}

    def test_structural_name_collision_rejected(self):
        w = TileSet(("x_e",), (Tile(0, 0, 0, 0),))
        with pytest.raises(ValueError):
            letter_inventory(w)
        with pytest.raises(ValueError):
            phi(w)

    def test_parity_pair_order(self):
        assert PARITY_PAIRS == (("e", "e"), ("e", "o"), ("o", "e"), ("o", "o"))


def compile_work(w: TileSet) -> tuple[int, int]:
    """The Dag ops of phi(w)'s conjuncts emitted straight into one Dag, and
    the nodes of their trees, each counted as node_count walks it."""
    dag = fm.Dag()
    conjuncts(w, dag)
    return len(dag.ops), sum(fm.node_count(f) for _, f in conjuncts(w))


class TestDagRoute:
    """conjuncts(w, dag) against dag.add of each tree of conjuncts(w)."""

    SETS = [*all_small_tilesets(), PERIOD5, MONO, SWAP]

    @staticmethod
    def routes(w: TileSet):
        direct, compiled = fm.Dag(), fm.Dag()
        roots = conjuncts(w, direct)
        added = [(name, compiled.add(f)) for name, f in conjuncts(w)]
        return direct, roots, compiled, added

    @staticmethod
    def root_masks(evaluator: Evaluator, dag: fm.Dag, roots, letters: dict[str, int]):
        sat = evaluator.masks(dag, letters)
        return [(name, sat[i]) for name, i in roots]

    def test_as_many_ops_as_the_trees_compile_to(self):
        for w in self.SETS:
            direct, roots, compiled, added = self.routes(w)
            assert len(direct.ops) == len(compiled.ops), w
            assert [name for name, _ in roots] == [name for name, _ in added]

    def test_pinned_compile_work(self):
        assert compile_work(MONO) == (333, 265)
        assert compile_work(PERIOD5) == (1936, 28859)

    def test_equal_masks_on_quotient_countermodels(self):
        checked = 0
        for w in self.SETS:
            torus = find_torus(w, 2)
            if torus is None:
                continue
            try:
                model, world = quotient_countermodel(w, torus)
            except ValueError:  # the torus is not determined mod 2
                continue
            direct, roots, compiled, added = self.routes(w)
            ev = Evaluator(model.frame)
            got = self.root_masks(ev, direct, roots, model.masks)
            assert got == self.root_masks(ev, compiled, added, model.masks), w
            assert all(mask >> world & 1 for _, mask in got)  # phi(w) fails there
            checked += 1
        assert checked > 20

    @pytest.mark.parametrize("mode", ps.MODES)
    def test_equal_masks_on_closure_frames(self, mode):
        rng = random.Random(25)
        ev = Evaluator(ps._closure(ps._universe(2, mode), 2, mode))
        full = (1 << ev.frame.size) - 1
        for w in self.SETS:
            direct, roots, compiled, added = self.routes(w)
            names = {a for kind, a, _ in direct.ops if kind == fm.VAR}
            assert names == {a for kind, a, _ in compiled.ops if kind == fm.VAR}
            letters = {a: rng.getrandbits(ev.frame.size) & full for a in sorted(names)}
            assert (self.root_masks(ev, direct, roots, letters)
                    == self.root_masks(ev, compiled, added, letters)), (w, mode)
