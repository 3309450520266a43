"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

from fixtures_quotient import quotient_countermodel
from test_frames import oracle_associative, random_frame
from test_tiling import all_small_tilesets, oracle_solve
from conftest import all_team_formulas

from tilemodal import formula as fm
from tilemodal import powerset_symbolic as ps
from tilemodal import reduction, team_logic
from tilemodal.extraction import extract_grid, extract_tiling
from tilemodal.frames import (
    Frame,
    Model,
    bits,
    check_associative,
    powerset_frame,
    powerset_worlds,
    render_frame_file,
    s_relation,
)
from tilemodal.semantics import countermodel_search, sat_mask, sat_set
from tilemodal.tiling import (
    PeriodicTiling,
    Tile,
    TileSet,
    find_torus,
    solve_rect,
    verify_grid,
)

GOLDEN = Path(__file__).parent / "data" / "phi_single_tile.golden"
MONO = TileSet(("t1",), (Tile(0, 0, 0, 0),))
SWAP = TileSet(("a", "b"), (Tile(0, 0, 1, 2), Tile(0, 0, 2, 1)))


def report(line: str):
    print(line)


# -- criterion 1 ---------------------------------------------------------------


def _var_table(i: int, lanes: int) -> int:
    period = 1 << (i + 1)
    block = ((1 << (1 << i)) - 1) << (1 << i)
    t = block
    length = period
    while length < lanes:
        t |= t << length
        length *= 2
    return t & ((1 << lanes) - 1)


def _bitparallel_assoc_and_s(n: int) -> tuple[int, dict, int]:
    """Associativity mask, S-relation masks, and lane count: bit k of each
    mask is the answer for the frame whose triple set is coded by k."""
    nbits = n ** 3
    lanes = 1 << nbits
    mask = (1 << lanes) - 1

    def tidx(x, y, z):
        return (x * n + y) * n + z

    T = [_var_table(i, lanes) for i in range(nbits)]
    assoc = mask
    for x, a, b, c in product(range(n), repeat=4):
        lhs = 0
        for y in range(n):
            lhs |= T[tidx(x, y, c)] & T[tidx(y, a, b)]
        rhs = 0
        for z in range(n):
            rhs |= T[tidx(x, a, z)] & T[tidx(z, b, c)]
        assoc &= mask ^ (lhs ^ rhs)
    e_right = {}
    e_left = {}
    for u in range(n):
        for v in range(n):
            acc = 0
            for b in range(n):
                acc |= T[tidx(u, v, b)]
            e_right[(u, v)] = acc
            acc = 0
            for a in range(n):
                acc |= T[tidx(u, a, v)]
            e_left[(u, v)] = acc
    S = {}
    for x in range(n):
        for y in range(n):
            s = e_left[(x, y)] | e_right[(x, y)]
            for z in range(n):
                s |= e_right[(x, z)] & e_left[(z, y)]
            S[(x, y)] = s
    return assoc, S, lanes


def _frame_from_code(n: int, code: int) -> Frame:
    triples = [
        (x, y, z) for i, (x, y, z) in enumerate(product(range(n), repeat=3))
        if (code >> i) & 1
    ]
    return Frame(n, frozenset(triples))


def test_criterion_1_associativity_and_s_transitivity():
    t0 = time.time()

    # every frame on at most 3 worlds, checked in bit-parallel lanes
    for n in (1, 2, 3):
        assoc, S, lanes = _bitparallel_assoc_and_s(n)
        mask = (1 << lanes) - 1
        viol = 0
        for x, y, z in product(range(n), repeat=3):
            viol |= S[(x, y)] & S[(y, z)] & (mask ^ S[(x, z)])
        assert assoc & viol == 0, f"intransitive S on an associative {n}-frame"
        if n == 2:
            assert assoc.bit_count() == 50  # frozen from the double-loop oracle
            # validate the lane encoding against the per-frame implementation
            for code in range(lanes):
                frame = _frame_from_code(2, code)
                assert ((assoc >> code) & 1) == (check_associative(frame) is None)
                srel = s_relation(frame)
                for (x, y), bitsmask in S.items():
                    assert ((bitsmask >> code) & 1) == ((x, y) in srel.pairs)
        if n == 3:
            assert assoc.bit_count() == 31425  # frozen from this oracle's first run
            rng = random.Random(2024)
            for _ in range(300):
                code = rng.getrandbits(27)
                frame = _frame_from_code(3, code)
                assert ((assoc >> code) & 1) == (check_associative(frame) is None)

    # the library check against the definitional double-loop oracle, size 4
    rng = random.Random(41)
    for _ in range(500):
        frame = random_frame(rng, 4, rng.choice((0.05, 0.15, 0.3)))
        got = check_associative(frame)
        expect = oracle_associative(frame)
        assert (got is None) == (expect is None)
        if got is not None:
            assert (got.x, got.a, got.b, got.c, got.direction) == expect

    elapsed = time.time() - t0
    assert elapsed < 30, f"criterion 1 took {elapsed:.1f}s"
    report(f"PASS criterion 1: associativity & S transitivity, "
           f"2^27 + 2^8 + 2 frames exhaustively, 500 random size-4 oracle "
           f"checks ({elapsed:.1f}s)")


# -- criterion 2 ---------------------------------------------------------------


def _direct_hook_r(model: Model, left, right) -> frozenset[int]:
    lm, rm = sat_mask(model, left), sat_mask(model, right)
    out = set()
    for x in range(model.frame.size):
        if all((rm >> z) & 1 for (xx, y, z) in model.frame.triples
               if xx == x and (lm >> y) & 1):
            out.add(x)
    return frozenset(out)


def _direct_hook_l(model: Model, left, right) -> frozenset[int]:
    lm, rm = sat_mask(model, left), sat_mask(model, right)
    out = set()
    for x in range(model.frame.size):
        if all((lm >> y) & 1 for (xx, y, z) in model.frame.triples
               if xx == x and (rm >> z) & 1):
            out.add(x)
    return frozenset(out)


def _direct_box(model: Model, sub) -> frozenset[int]:
    sm = sat_mask(model, sub)
    srel = s_relation(model.frame)
    return frozenset(
        x for x in range(model.frame.size)
        if srel.successors(x) & ~sm == 0
    )


def _check_derived_on(model: Model):
    p, q = fm.Letter("p"), fm.Letter("q")
    args = [(p, q), (q, p), (fm.Or(p, q), fm.Neg(p))]
    for left, right in args:
        hook_r = fm.HookR(left, right)
        hook_l = fm.HookL(left, right)
        assert sat_set(model, hook_r) == \
            sat_set(model, fm.desugar(hook_r)) == \
            _direct_hook_r(model, left, right)
        assert sat_set(model, hook_l) == \
            sat_set(model, fm.desugar(hook_l)) == \
            _direct_hook_l(model, left, right)
    for sub in (p, fm.Or(p, q)):
        box = fm.Box(sub)
        assert sat_set(model, box) == \
            sat_set(model, fm.desugar(box)) == \
            _direct_box(model, sub)


def test_criterion_2_derived_connectives():
    t0 = time.time()
    checked = 0
    # exhaustive: every frame and valuation on at most 2 worlds
    for n in (1, 2):
        for code in range(1 << (n ** 3)):
            frame = _frame_from_code(n, code)
            for pm in range(1 << n):
                for qm in range(1 << n):
                    model = Model(frame, {"p": set(bits(pm)),
                                          "q": set(bits(qm))})
                    _check_derived_on(model)
                    checked += 1
    # dense seeded sample of 3-world frames, valuations exhaustive per frame
    rng = random.Random(77)
    for _ in range(700):
        frame = random_frame(rng, 3, rng.choice((0.15, 0.3, 0.5)))
        for pm in range(8):
            for qm in range(8):
                model = Model(frame, {"p": set(bits(pm)), "q": set(bits(qm))})
                _check_derived_on(model)
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 2 took {elapsed:.1f}s"
    report(f"PASS criterion 2: hooks and box agree with the universal clauses "
           f"on {checked} models ({elapsed:.1f}s)")


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_3_normality_additivity():
    rng = random.Random(33)
    p, q, r = fm.Letter("p"), fm.Letter("q"), fm.Letter("r")
    for _ in range(1000):
        n = rng.choice((1, 2, 3, 4))
        frame = random_frame(rng, n, rng.choice((0.1, 0.3, 0.6)))
        model = Model(frame, {
            "p": set(bits(rng.getrandbits(n))),
            "q": set(bits(rng.getrandbits(n))),
            "r": set(bits(rng.getrandbits(n))),
        })
        assert sat_set(model, fm.Comp(p, fm.Bottom())) == frozenset()
        assert sat_set(model, fm.Comp(fm.Bottom(), p)) == frozenset()
        assert sat_set(model, fm.Comp(fm.Or(p, q), r)) == (
            sat_set(model, fm.Comp(p, r)) | sat_set(model, fm.Comp(q, r)))
        assert sat_set(model, fm.Comp(r, fm.Or(p, q))) == (
            sat_set(model, fm.Comp(r, p)) | sat_set(model, fm.Comp(r, q)))
    report("PASS criterion 3: normality and additivity exact on 1000 random models")


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_4_reduction_golden():
    golden = GOLDEN.read_text().strip()
    built = reduction.phi(MONO)
    assert fm.render(built) == golden
    reparsed = fm.parse(fm.render(built))
    assert reparsed == built
    assert fm.parse(golden) == built
    assert len(reduction.conjuncts(MONO)) == 15
    assert len(fm.letters(built)) == 7
    assert len(fm.letters(fm.desugar(built))) == 8
    report("PASS criterion 4: single-tile formula matches the hand-written "
           "golden file and round-trips")


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_5_bounded_refutation_check():
    tau = PeriodicTiling((1, 1), {(0, 0): 0})
    for mode in ("union", "disjoint_union", "union_nonempty"):
        t0 = time.time()
        rep = ps.check_refutation(MONO, tau, 3, mode)
        elapsed = time.time() - t0
        assert rep.passed and len(rep.entries) == 15
        assert elapsed < 60, f"{mode} took {elapsed:.1f}s"
    # a broken 2x1 torus must trip at least one gamma conjunct with a witness
    bad = PeriodicTiling((2, 1), {(0, 0): 0, (1, 0): 0})
    rep = ps.check_refutation(SWAP, bad, 3, "union")
    assert not rep.passed
    gamma_failures = [e for e in rep.entries
                      if not e.passed and e.name.startswith("gamma")]
    assert gamma_failures and all(e.witness is not None for e in gamma_failures)
    report("PASS criterion 5: bounded refutation check passes all 15 conjuncts "
           "in all three modes; corrupted torus trips gamma with a witness")


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_6_extraction_soundness():
    phi = reduction.phi(MONO)
    hits = []
    for seed in (0, 1, 2):
        hit = countermodel_search(phi, max_worlds=3, budget=10 ** 7, seed=seed)
        if hit is not None:
            hits.append(hit)
    for model, z in hits:
        assert check_associative(model.frame) is None
        for k in (1, 2, 3, 4):
            grid = extract_tiling(model, z, k, MONO)
            assert verify_grid(MONO, grid) is None
    if hits:
        report(f"PASS criterion 6: {len(hits)} searched countermodels extracted "
               f"and verified for k=1..4")
    else:
        report("PASS criterion 6 (vacuously): countermodel_search found no "
               "refuting model within the 10^7-step budget across seeds 0..2; "
               "no extraction obligations arose")
    # supplementary, beyond the criterion: the quotient construction gives a
    # genuine finite countermodel, so the pipeline is also exercised for real
    model, z = quotient_countermodel(MONO, PeriodicTiling((1, 1), {(0, 0): 0}))
    for k in (1, 2, 3, 4):
        grid_points = extract_grid(model, z, k, MONO)
        assert len(grid_points.points) == (k + 1) ** 2
        grid = extract_tiling(model, z, k, MONO)
        assert verify_grid(MONO, grid) is None
    report("      (non-vacuous supplement: extraction verified on the "
           "25-world quotient countermodel for k=1..4)")


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_7_tiling_module():
    for w in all_small_tilesets():
        for width in (1, 2, 3):
            for height in (1, 2, 3):
                got = solve_rect(w, width, height)
                expect = oracle_solve(w, width, height)
                assert (got is None) == (expect is None)
                if got is not None:
                    assert verify_grid(w, got) is None
    torus = find_torus(MONO, 1)
    assert torus is not None and torus.periods == (1, 1)
    two = TileSet(("t1", "t2"), (Tile(0, 0, 0, 1), Tile(0, 0, 2, 0)))
    assert solve_rect(two, 3, 1) is None  # proven by exhaustion, not budget
    report("PASS criterion 7: solve_rect matches the exhaustive oracle on all "
           "small tile sets; torus and proven-unsolvable cases agree")


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_8_team_logic():
    t0 = time.time()
    formulas = all_team_formulas(6)
    for f in formulas:
        inventory = tuple(sorted(team_logic.team_letters(f)))
        rows = 1 << len(inventory)
        oracle_valid = True
        failing = []
        for m in range(1 << rows):
            team = team_logic.Team(inventory, frozenset(bits(m)))
            if not team_logic.team_sat(team, f):
                oracle_valid = False
                failing.append(team)
        verdict = team_logic.ptl_decide(f)
        assert isinstance(verdict, team_logic.TeamValid) == oracle_valid
        if not oracle_valid:
            assert not team_logic.team_sat(verdict.team, f)
        # both directions of the Kripke correspondence, at every team
        model, state_map = team_logic.to_kripke(f)
        mask = sat_mask(model, team_logic.translate(f))
        for m in range(1 << rows):
            members = frozenset(bits(m))
            team = team_logic.Team(inventory, members)
            world = state_map[members]
            assert team_logic.team_sat(team, f) == bool((mask >> world) & 1)
    # principal collapse passes for every principal valuation on |X| <= 3
    probe = tuple(all_team_formulas(3, ("p",)))
    for k in (1, 2, 3):
        frame = powerset_frame(k, "union")
        for top in range(1 << k):
            worlds = {w for w in range(1 << k) if w & ~top == 0}
            _, rep = team_logic.from_kripke(Model(frame, {"p": worlds}), probe)
            assert rep.passed
    with pytest.raises(team_logic.NonPrincipalValuation):
        team_logic.from_kripke(
            Model(powerset_frame(2, "union"), {"p": {1, 2}}), ())
    elapsed = time.time() - t0
    assert elapsed < 120, f"criterion 8 took {elapsed:.1f}s"
    report(f"PASS criterion 8: {len(formulas)} team formulas agree across the "
           f"decision procedure, the team oracle, and the Kripke route; "
           f"principal collapses verified ({elapsed:.1f}s)")


# -- criterion 9 ---------------------------------------------------------------


def test_criterion_9_diamond_definability():
    p = fm.Letter("p")
    for k in (1, 2, 3):
        frame = powerset_frame(k, "union_nonempty")
        worlds = powerset_worlds(k, "union_nonempty")
        rng = random.Random(90 + k)
        for _ in range(200):
            pw = set(bits(rng.getrandbits(frame.size)))
            model = Model(frame, {"p": pw})
            got = sat_set(model, fm.Comp(p, fm.Top()))
            expect = frozenset(
                x for x in range(frame.size)
                if any(worlds[y] <= worlds[x] for y in pw)
            )
            assert got == expect
    report("PASS criterion 9: p o T equals the nonempty-subset diamond on "
           "powerset frames for k<=3, 200 random valuations each")


# -- criterion 10 --------------------------------------------------------------


def _run_cli(args: list[str]) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "tilemodal.cli", *args],
        capture_output=True,
    )
    return proc.returncode, proc.stdout


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.time()
    mono = tmp_path / "one.tiles"
    mono.write_text("t1 0 0 0 0\n")
    swap = tmp_path / "swap.tiles"
    swap.write_text("a 0 0 1 2\nb 0 0 2 1\n")
    bad_frame = tmp_path / "bad.frame"
    bad_frame.write_text("worlds 2\n0 0 1\nval p: 1\n")
    ok_frame = tmp_path / "ok.frame"
    ok_frame.write_text(
        "worlds 2\n0 0 0\n1 1 0\n1 0 1\n1 1 1\nval p: 1\nval q: 0\n")
    model, z = quotient_countermodel(MONO, PeriodicTiling((1, 1), {(0, 0): 0}))
    quotient = tmp_path / "quotient.frame"
    quotient.write_text(render_frame_file(model.frame, model.valuation))
    axiom = "(p o q) o r <-> p o (q o r)"

    commands = [
        ["parse-formula", "p @> q | r", "--format", "lines"],
        ["gen-phi", "--tiles", str(mono), "--stats", "--format", "lines"],
        ["check-assoc", "--frame", str(bad_frame), "--format", "lines"],
        ["model-check", "--frame", str(ok_frame), "--formula", "p o q",
         "--format", "lines"],
        ["frame-valid", "--frame", str(ok_frame), "--formula", axiom],
        ["frame-valid", "--frame", str(bad_frame), "--formula", axiom,
         "--strategy", "random", "--seed", "7", "--format", "lines"],
        ["countermodel", "--formula", "~(p o q)", "--max-worlds", "2",
         "--budget", "5000", "--seed", "3", "--format", "lines"],
        ["tile-solve", "--tiles", str(mono), "--width", "3", "--height", "2"],
        ["tile-torus", "--tiles", str(swap), "--format", "lines"],
        ["tile-render", "--tiles", str(swap), "--width", "2", "--height", "2",
         "--mode", "svg"],
        ["extract", "--frame", str(quotient), "--tiles", str(mono),
         "--point", str(z), "--k", "2", "--format", "lines"],
        ["verify-lemma6", "--tiles", str(mono), "--period", "1,1",
         "--depth", "2", "--mode", "union", "--format", "lines"],
        ["ptl-decide", "p \\|/ ~~p"],
        ["enum-frames", "--worlds", "2", "--associative", "--count",
         "--format", "lines"],
    ]
    for args in commands:
        code1, out1 = _run_cli(args)
        code2, out2 = _run_cli(args)
        assert code1 == code2, args
        assert out1 == out2, f"nondeterministic output: {args}"
        assert out1, f"no output: {args}"

    jobs1 = ["frame-valid", "--frame", str(bad_frame), "--formula", axiom,
             "--format", "lines"]
    code_a, out_a = _run_cli(jobs1 + ["--jobs", "1"])
    code_b, out_b = _run_cli(jobs1 + ["--jobs", "4"])
    assert (code_a, out_a) == (code_b, out_b)
    elapsed = time.time() - t0
    report(f"PASS criterion 10: {len(commands)} subcommands byte-identical "
           f"across reruns; frame-valid identical for jobs 1 vs 4 "
           f"({elapsed:.1f}s)")
