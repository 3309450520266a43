"""Tests of the benchmark's reference checkers.

Each checker must agree with tilemodal on small seeded cases, and the
workload checks built on them must reject a corrupted answer. Run from the
repository root:

    python3 -m pytest -q bench
"""

import contextlib
import io
import itertools
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checkers as ck  # noqa: E402
import workloads as wl  # noqa: E402
from tilemodal import formula as fm  # noqa: E402
from tilemodal import cli, frames, semantics, team_logic, tiling  # noqa: E402

SEEDS = range(6)


def random_formula(rng, letters, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(letters + ["T", "F"])
    unary = rng.random() < 0.2
    if unary:
        return rng.choice(["~", "[]"]) + "(" + random_formula(rng, letters, depth - 1) + ")"
    op = rng.choice(["o", "|", "&", "->", "<->", "@>", "<@"])
    return (f"({random_formula(rng, letters, depth - 1)}) {op} "
            f"({random_formula(rng, letters, depth - 1)})")


def random_relation(rng, n, density):
    return {t for t in itertools.product(range(n), repeat=3) if rng.random() < density}


# -- modal evaluation ----------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_evaluator_agrees_with_sat_set(seed):
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(1, 4)
        triples = random_relation(rng, n, 0.3)
        text = random_formula(rng, ["p", "q"], 4)
        val = {p: {w for w in range(n) if rng.random() < 0.5} for p in ("p", "q")}
        dag, root = ck.parse_modal(text)
        mine = {w for w, ok in enumerate(ck.holds_at(dag, root, n, triples, val)) if ok}
        model = frames.Model(frames.Frame(n, frozenset(triples)), val)
        assert mine == set(semantics.sat_set(model, fm.parse(text))), text


@pytest.mark.parametrize("seed", SEEDS)
def test_parser_counts_nodes_like_the_program(seed):
    rng = random.Random(seed)
    for _ in range(40):
        text = random_formula(rng, ["p", "x'", "y_e"], 5)
        dag, root = ck.parse_modal(text)
        f = fm.parse(text)
        assert dag.tree_size[root] == fm.node_count(f)
        assert dag.letters(root) | ({fm.TOP_LETTER} if dag.has_constant(root) else set()) \
            == fm.letters(f)


@pytest.mark.parametrize("seed", SEEDS)
def test_least_refutation_matches_frame_validity(seed):
    rng = random.Random(seed)
    for _ in range(15):
        n = rng.randint(1, 3)
        triples = random_relation(rng, n, 0.3)
        text = random_formula(rng, ["p", "q"], 3)
        code, line = wl.exhaustive_answer(text, n, triples)
        verdict = semantics.frame_validity(frames.Frame(n, frozenset(triples)), fm.parse(text))
        if isinstance(verdict, semantics.Valid):
            assert (code, line) == (0, "status=valid")
        else:
            masks = {p: frames.mask_of(ws) for p, ws in verdict.model.valuation.items()}
            assert line == (f"status=refuted world={verdict.world} "
                            f"valuation={wl._valuation_text(masks)}")


@pytest.mark.parametrize("seed", SEEDS)
def test_frame_conditions_match_validity(seed):
    rng = random.Random(seed)
    for _ in range(10):
        n = rng.randint(1, 3)
        triples = random_relation(rng, n, rng.choice([0.1, 0.3, 0.6]))
        for template, cond in wl.AXIOMS.values():
            dag, root = ck.parse_modal(wl.instantiate(template, ["p", "q", "r"]))
            assert cond(n, triples) == ck.valid_on_frame(dag, root, n, triples), template


def test_semilattices_and_powersets_satisfy_their_axioms():
    rng = random.Random(0)
    for n in (3, 5, 8):
        t = wl.semilattice(rng, n)
        assert wl.is_assoc(n, t) and wl.cond_commute(n, t) and wl.cond_square(n, t)
    assert wl.cond_idem(8, wl.semilattice(rng, 8, chain=True))
    for mode in ("union", "disjoint", "nonempty"):
        n, t = wl.powerset(2, mode)
        assert wl.is_assoc(n, t) and wl.cond_commute(n, t)
        assert n == frames.powerset_frame(2, {"disjoint": "disjoint_union",
                                              "nonempty": "union_nonempty"}.get(mode, mode)).size


# -- frames --------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_associativity_and_s_agree_with_frames(seed):
    rng = random.Random(seed)
    for _ in range(30):
        n = rng.randint(1, 3)
        triples = random_relation(rng, n, rng.choice([0.05, 0.15, 0.4]))
        frame = frames.Frame(n, frozenset(triples))
        assert (ck.associativity_failure(n, triples) is None) == \
            (frames.check_associative(frame) is None)
        assert ck.s_pairs(n, triples) == set(frames.s_relation(frame).pairs)


def test_associative_frames_up_to_isomorphism_match_enumeration():
    for n in (1, 2):
        mine = sorted({ck.canonical_code(n, t) for t in ck.associative_frames(n)})
        theirs = [ck.frame_code(n, f.triples)
                  for f in frames.enumerate_frames(n, require_associative=True)]
        assert mine == theirs


def test_quotient_model_is_associative_and_refutes_phi():
    rng = random.Random(3)
    for periods in ((1, 1), (2, 1), (2, 2)):
        tiles, cells = wl.torus_tileset(rng, *periods)
        names = [f"t{i}" for i in range(len(tiles))]
        n, triples, val, point = wl.quotient_model(periods, cells, names)
        assert ck.associativity_failure(n, triples) is None
        dag, root = ck.parse_modal(wl.phi_text(names, tiles))
        assert not ck.holds_at(dag, root, n, triples, val)[point]


# -- team logic ----------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_team_semantics_agree_with_ptl_decide(seed):
    rng = random.Random(seed)
    for _ in range(25):
        letters = ["p", "q", "r"][:rng.randint(1, 3)]
        text = wl.random_team_formula(rng, letters, 3)
        mine = ck.parse_team(text)
        theirs = team_logic.parse_team_formula(text)
        inventory = sorted(ck.team_letters(mine))
        for team in range(1 << (1 << len(inventory))):
            members = frozenset(r for r in range(1 << len(inventory)) if team >> r & 1)
            assert ck.team_holds(mine, team, inventory) == team_logic.team_sat(
                team_logic.Team(tuple(inventory), members), theirs), text
        wl._check_ptl(text)(*_run_ptl(text))


def _run_ptl(text):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["ptl-decide", text, "--format", "lines"])
    return code, out.getvalue()


# -- Wang tiles ----------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_adjacency_agrees_with_tiling(seed):
    rng = random.Random(seed)
    for _ in range(30):
        tiles = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(rng.randint(1, 3))]
        w = tiling.TileSet(tuple(f"t{i}" for i in range(len(tiles))),
                           tuple(tiling.Tile(*t) for t in tiles))
        width, height = rng.randint(1, 3), rng.randint(1, 3)
        cells = {(c, r): rng.randrange(len(tiles)) for c in range(width) for r in range(height)}
        grid = tiling.Grid(width, height, cells)
        torus = tiling.PeriodicTiling((width, height), cells)
        assert (ck.adjacency_failure(tiles, cells, width, height, False) is None) == \
            (tiling.verify_grid(w, grid) is None)
        assert (ck.adjacency_failure(tiles, cells, width, height, True) is None) == \
            (tiling.torus_adjacency_ok(w, torus) is None)
        assert (ck.find_tiling(tiles, width, height, False) is None) == \
            (tiling.solve_rect(w, width, height) is None)


# -- the workload checks reject corrupted answers ------------------------------


def test_flipped_witness_bit_is_rejected():
    n, triples = wl.powerset(3, "union")
    code, line = wl.exhaustive_answer("p o p -> p", n, triples)
    check = wl._check_exhaustive("p o p -> p", n, triples, wl.cond_idem)
    check(code, line)
    head, _, worlds = line.rpartition(":")
    flipped = ",".join(str(int(w) ^ 1) for w in worlds.split(","))
    with pytest.raises(wl.Mismatch):
        check(code, f"{head}:{flipped}")
    with pytest.raises(wl.Mismatch):
        check(0, "status=valid")


def test_swapped_tile_is_rejected():
    rng = random.Random(1)
    tiles, cells = wl.torus_tileset(rng, 2, 1)
    names = ["a", "b"]
    good = "status=solved cells=0,0:a 0,1:a 1,0:b 1,1:b 2,0:a 2,1:a"
    check = wl._check_grid(tiles, names, 3, 2)
    check(0, good)
    with pytest.raises(wl.Mismatch):
        check(0, good.replace("1,0:b", "1,0:a"))
    torus = wl._check_torus(tiles, names)
    torus(0, "status=found period=2,1 cells=0,0:a 1,0:b")
    with pytest.raises(wl.Mismatch):
        torus(0, "status=found period=2,1 cells=0,0:b 1,0:b")


def test_non_associative_countermodel_is_rejected():
    check = wl._check_countermodel("p o q -> q o p", 3)
    check(0, "status=refuted world=1 size=2\ntriples=0,0,0 1,0,1\nvaluation=p:0|q:1")
    with pytest.raises(wl.Mismatch):  # {(0,0,1)} is not associative
        check(0, "status=refuted world=0 size=2\ntriples=0,0,1\nvaluation=p:0|q:1")
    with pytest.raises(wl.Mismatch):
        check(0, "status=exhausted")


def test_queries_repeat_for_a_seed_and_vary_across_seeds(tmp_path):
    def argvs(workload, seed):
        queries = wl.build(workload, seed, tmp_path / f"{workload}{seed}")
        return [[a for a in q.argv if str(tmp_path) not in a] for q in queries]

    for workload in wl.WORKLOADS:
        assert argvs(workload, 1) == argvs(workload, 1)
        assert argvs(workload, 1) != argvs(workload, 2)
        assert len(argvs(workload, 1)) == len(argvs(workload, 2))
