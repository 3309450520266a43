import argparse
import subprocess
import sys
import time

import pytest

from conftest import full_parser_main
from fixtures_quotient import quotient_countermodel
from test_frames import run_limited
from tilemodal import formula as fm
from tilemodal import reduction
from tilemodal.cli import (COMMANDS, DESUGAR_LIMIT, FORMAT_OPTION, _read_args,
                           build_parser, main)
from tilemodal.frames import render_frame_file
from tilemodal.semantics import MAX_WORLDS
from tilemodal.tiling import PeriodicTiling, Tile, TileSet

MONO_TILES = "t1 0 0 0 0\n"
TWO_TILES = "t1 0 0 0 1\nt2 0 0 2 0\n"
SWAP_TILES = "a 0 0 1 2\nb 0 0 2 1\n"
CYCLE_TILES = "a 1 1 1 2\nb 1 1 2 3\nc 1 1 3 1\n"  # smallest torus (3,1)


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture
def mono_file(tmp_path):
    path = tmp_path / "one.tiles"
    path.write_text(MONO_TILES)
    return str(path)


@pytest.fixture
def swap_file(tmp_path):
    path = tmp_path / "swap.tiles"
    path.write_text(SWAP_TILES)
    return str(path)


@pytest.fixture
def bad_frame_file(tmp_path):
    path = tmp_path / "bad.frame"
    path.write_text("worlds 2\n0 0 1\n")
    return str(path)


@pytest.fixture
def assoc_frame_file(tmp_path):
    path = tmp_path / "ok.frame"
    path.write_text("worlds 2\n0 0 0\n1 1 0\n1 0 1\n1 1 1\nval p: 1\nval q: 0\n")
    return str(path)


class TestParseFormula:
    def test_canonical_print(self, capsys):
        code, out = run(capsys, "parse-formula", "((p) o (q))")
        assert code == 0 and out == "p o q\n"

    def test_desugar_flag(self, capsys):
        code, out = run(capsys, "parse-formula", "--desugar", "p @> q")
        assert code == 0 and out == "~(p o ~q)\n"

    def test_syntax_error_exit_2(self, capsys):
        assert main(["parse-formula", "p |"]) == 2

    @pytest.mark.parametrize("text, printed", [
        ("~" * 3000 + "p", "~" * 3000 + "p"),
        ("[]" * 3000 + "p", "[]" * 3000 + "p"),
        (" -> ".join(["p"] * 3000), " -> ".join(["p"] * 3000)),
        ("(" * 3000 + "p" + ")" * 3000, "p"),
    ])
    def test_deep_nesting(self, capsys, text, printed):
        code, out = run(capsys, "parse-formula", text)
        assert code == 0 and out == printed + "\n"

    def test_lines_format(self, capsys):
        code, out = run(capsys, "parse-formula", "--format", "lines", "p o q")
        assert out == "formula=p o q\n"

    def test_desugar_size_limit(self, capsys):
        text = "[]" * 20 + "p"  # each [] triples the desugared tree
        start = time.perf_counter()
        code = main(["parse-formula", "--desugar", text])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        size = fm.to_dag(fm.parse(text)).tree_size()
        assert code == 1 and captured.out == "" and size > DESUGAR_LIMIT
        assert captured.err == (f"desugared formula has {size} nodes, over the limit "
                                f"of {DESUGAR_LIMIT}\n")
        assert elapsed < 10


class TestGenPhi:
    def test_matches_library(self, capsys, mono_file):
        code, out = run(capsys, "gen-phi", "--tiles", mono_file)
        w = TileSet(("t1",), (Tile(0, 0, 0, 0),))
        assert code == 0
        assert out.strip() == fm.render(reduction.phi(w))

    def test_stats(self, capsys, mono_file):
        code, out = run(capsys, "gen-phi", "--tiles", mono_file, "--stats",
                        "--format", "lines")
        assert "conjuncts=15" in out
        assert "letters=7" in out

    def test_stats_leave_out_the_constants_letter(self, capsys, tmp_path):
        path = tmp_path / "dead_end.tiles"
        path.write_text("a 0 0 0 1\n")  # no tile matches to its right: phi has F
        code, out = run(capsys, "gen-phi", "--tiles", str(path), "--stats",
                        "--format", "lines")
        assert code == 0 and "letters=7" in out

    def test_structural_collision_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "clash.tiles"
        path.write_text("x_e 0 0 0 0\n")
        assert main(["gen-phi", "--tiles", str(path)]) == 2

    def test_desugared_output_is_core(self, capsys, mono_file):
        code, out = run(capsys, "gen-phi", "--tiles", mono_file, "--desugar")
        assert code == 0
        assert "[]" not in out and "@>" not in out and "<@" not in out
        w = TileSet(("t1",), (Tile(0, 0, 0, 0),))
        assert out == fm.render(fm.desugar(reduction.phi(w))) + "\n"


class TestCheckAssoc:
    def test_associative_frame(self, capsys, assoc_frame_file):
        code, out = run(capsys, "check-assoc", "--frame", assoc_frame_file)
        assert code == 0 and "associative" in out

    def test_counterexample(self, capsys, bad_frame_file):
        code, out = run(capsys, "check-assoc", "--frame", bad_frame_file,
                        "--format", "lines")
        assert code == 1
        assert "status=counterexample" in out
        assert "x=0 a=0 b=1 c=1" in out

    def test_missing_file_exit_2(self, capsys, tmp_path):
        assert main(["check-assoc", "--frame", str(tmp_path / "nope")]) == 2


class TestModelCheck:
    def test_sat_set(self, capsys, assoc_frame_file):
        code, out = run(capsys, "model-check", "--frame", assoc_frame_file,
                        "--formula", "p o q")
        assert code == 0 and "satisfied at: 1" in out

    def test_world_flag(self, capsys, assoc_frame_file):
        code, _ = run(capsys, "model-check", "--frame", assoc_frame_file,
                      "--formula", "p o q", "--world", "1")
        assert code == 0
        code, _ = run(capsys, "model-check", "--frame", assoc_frame_file,
                      "--formula", "p o q", "--world", "0")
        assert code == 1


class TestFrameValid:
    AXIOM = "(p o q) o r <-> p o (q o r)"

    def test_valid_on_associative(self, capsys, assoc_frame_file):
        code, out = run(capsys, "frame-valid", "--frame", assoc_frame_file,
                        "--formula", self.AXIOM)
        assert code == 0 and out == "valid\n"

    def test_refuted_on_bad_frame(self, capsys, bad_frame_file):
        code, out = run(capsys, "frame-valid", "--frame", bad_frame_file,
                        "--formula", self.AXIOM, "--format", "lines")
        assert code == 1 and out.startswith("status=refuted world=")

    def test_a_letter_named_top_is_enumerated(self, capsys, tmp_path):
        path = tmp_path / "one.frame"
        path.write_text("worlds 1\n")
        code, out = run(capsys, "frame-valid", "--frame", str(path),
                        "--formula", "~_top", "--format", "lines")
        assert code == 1 and out == "status=refuted world=0 valuation=_top:0\n"

    def test_jobs_byte_identical(self, capsys, bad_frame_file):
        _, out1 = run(capsys, "frame-valid", "--frame", bad_frame_file,
                      "--formula", self.AXIOM, "--jobs", "1")
        _, out4 = run(capsys, "frame-valid", "--frame", bad_frame_file,
                      "--formula", self.AXIOM, "--jobs", "4")
        assert out1 == out4

    def test_sample_count_below_one_is_usage_error(self, capsys, bad_frame_file):
        for samples in ("0", "-5"):
            assert main(["frame-valid", "--frame", bad_frame_file, "--formula", self.AXIOM,
                         "--strategy", "random", "--samples", samples]) == 2
            assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("text", ["worlds\n", "worlds 2\nval p 1\n"])
    def test_malformed_frame_file_is_usage_error(self, capsys, tmp_path, text):
        path = tmp_path / "malformed.frame"
        path.write_text(text)
        for argv in (["frame-valid", "--formula", "p"], ["model-check", "--formula", "p"]):
            assert main(argv + ["--frame", str(path)]) == 2
            err = capsys.readouterr().err
            assert "line " in err and "Traceback" not in err

    def test_random_strategy_seeded(self, capsys, bad_frame_file):
        _, out1 = run(capsys, "frame-valid", "--frame", bad_frame_file,
                      "--formula", self.AXIOM, "--strategy", "random",
                      "--seed", "5", "--samples", "200")
        _, out2 = run(capsys, "frame-valid", "--frame", bad_frame_file,
                      "--formula", self.AXIOM, "--strategy", "random",
                      "--seed", "5", "--samples", "200")
        assert out1 == out2


class TestCountermodel:
    def test_finds_refutation_of_falsum(self, capsys):
        code, out = run(capsys, "countermodel", "--formula", "F",
                        "--max-worlds", "1", "--format", "lines")
        assert code == 0 and out.startswith("status=refuted")

    def test_exhausts_on_axiom(self, capsys):
        code, out = run(capsys, "countermodel", "--formula",
                        "(p o q) o r <-> p o (q o r)", "--max-worlds", "1",
                        "--budget", "2000", "--format", "lines")
        assert code == 0 and "status=exhausted" in out


class TestTiling:
    def test_solve_ascii(self, capsys, mono_file):
        code, out = run(capsys, "tile-solve", "--tiles", mono_file,
                        "--width", "3", "--height", "2")
        assert code == 0 and out == "ttt\nttt\n"

    def test_unsolvable_exit_1(self, capsys, tmp_path):
        path = tmp_path / "two.tiles"
        path.write_text(TWO_TILES)
        code, out = run(capsys, "tile-solve", "--tiles", str(path),
                        "--width", "3", "--height", "1", "--format", "lines")
        assert code == 1 and out == "status=unsolvable\n"

    def test_torus(self, capsys, swap_file):
        code, out = run(capsys, "tile-torus", "--tiles", swap_file,
                        "--format", "lines")
        assert code == 0 and "period=2,1" in out

    def test_render_svg_file(self, capsys, mono_file, tmp_path):
        target = tmp_path / "grid.svg"
        code, out = run(capsys, "tile-render", "--tiles", mono_file,
                        "--width", "2", "--height", "2", "--mode", "svg",
                        "--out", str(target))
        assert code == 0
        assert target.read_text().startswith("<svg")

    def test_render_ascii_lines(self, capsys, mono_file):
        code, out = run(capsys, "tile-render", "--tiles", mono_file,
                        "--width", "2", "--height", "1", "--format", "lines")
        assert out == "row0=tt\n"


class TestExtract:
    def test_extract_from_quotient_model(self, capsys, tmp_path, mono_file):
        w = TileSet(("t1",), (Tile(0, 0, 0, 0),))
        model, z = quotient_countermodel(
            w, PeriodicTiling((1, 1), {(0, 0): 0}))
        frame_path = tmp_path / "quotient.frame"
        frame_path.write_text(render_frame_file(model.frame, model.valuation))
        code, out = run(capsys, "extract", "--frame", str(frame_path),
                        "--tiles", mono_file, "--point", str(z), "--k", "3")
        assert code == 0
        assert "extracted verified 3x3 tiling" in out

    def test_extract_failure_is_domain_error(self, capsys, tmp_path, mono_file):
        frame_path = tmp_path / "bad.frame"
        frame_path.write_text("worlds 2\n0 0 1\n")
        code, out = run(capsys, "extract", "--frame", str(frame_path),
                        "--tiles", mono_file, "--point", "0", "--k", "1")
        assert code == 1 and "extraction failed" in out


class TestVerifyLemma6:
    def test_mono_all_modes_pass(self, capsys, mono_file):
        for mode in ("union", "disjoint", "nonempty"):
            code, out = run(capsys, "verify-lemma6", "--tiles", mono_file,
                            "--period", "1,1", "--depth", "2",
                            "--mode", mode, "--format", "lines")
            assert code == 0
            assert out.count("status=pass") == 15

    @pytest.mark.parametrize("mode", ("union", "disjoint", "nonempty"))
    def test_depth_four(self, capsys, swap_file, mode):
        code, out = run(capsys, "verify-lemma6", "--tiles", swap_file,
                        "--period", "2,1", "--depth", "4", "--mode", mode,
                        "--format", "lines")
        assert code == 0 and out.count("status=pass") == 15

    def test_corrupted_cells_fail(self, capsys, swap_file):
        code, out = run(capsys, "verify-lemma6", "--tiles", swap_file,
                        "--period", "2,1", "--cells", "0,0:a 1,0:a",
                        "--depth", "2", "--format", "lines")
        assert code == 1
        assert "status=fail" in out
        failing = [l for l in out.splitlines() if "status=fail" in l]
        assert any("gamma" in l for l in failing)
        assert all("state=" in l for l in failing)

    def test_text_report_scope_note(self, capsys, mono_file):
        code, out = run(capsys, "verify-lemma6", "--tiles", mono_file,
                        "--period", "1,1", "--depth", "2")
        assert "not full refutation" in out

    def test_period_above_four_is_searched(self, capsys, swap_file):
        code, out = run(capsys, "verify-lemma6", "--tiles", swap_file,
                        "--period", "6,1", "--depth", "1", "--format", "lines")
        assert code == 0 and out.count("status=pass") == 15

    def test_no_torus_with_period_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "cycle.tiles"
        path.write_text(CYCLE_TILES)
        code = main(["verify-lemma6", "--tiles", str(path),
                     "--period", "4,4", "--depth", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "no torus tiling with period (4, 4)" in captured.err


class TestPtlDecide:
    def test_global_excluded_middle(self, capsys):
        code, out = run(capsys, "ptl-decide", "p \\|/ ~~p")
        assert code == 0 and out == "valid\n"

    def test_letter_refuted(self, capsys):
        code, out = run(capsys, "ptl-decide", "p", "--format", "lines")
        assert code == 1 and out.startswith("status=refuted")

    def test_syntax_error(self, capsys):
        assert main(["ptl-decide", "p @ q"]) == 2

    @pytest.mark.parametrize("text", [
        "~~" * 2000 + "p",
        "(" * 2000 + "p" + ")" * 2000,
        " | ".join(["p"] * 2000),
        "".join(f"p{i % 2} & (" for i in range(2000)) + "p" + ")" * 2000,
    ])
    def test_deep_nesting(self, capsys, text):
        code, out = run(capsys, "ptl-decide", text, "--format", "lines")
        assert code == 1 and out.startswith("status=refuted team=")

    def test_four_letters_valid(self, capsys):
        code, out = run(capsys, "ptl-decide",
                        "(p | q) | (r | s) \\|/ ~~((p | q) | (r | s))",
                        "--format", "lines")
        assert code == 0 and out == "status=valid\n"

    def test_four_letters_least_counterteam(self, capsys):
        code, out = run(capsys, "ptl-decide", "(p | q) | (r | s)", "--format", "lines")
        assert code == 1 and out == "status=refuted team=p=0,q=0,r=0,s=0\n"


class TestEnumFrames:
    def test_one_world_count(self, capsys):
        code, out = run(capsys, "enum-frames", "--worlds", "1", "--count",
                        "--format", "lines")
        assert code == 0 and out == "count=2\n"

    def test_two_world_associative_count(self, capsys):
        code, out = run(capsys, "enum-frames", "--worlds", "2",
                        "--associative", "--count", "--format", "lines")
        assert out == "count=28\n"

    def test_limit(self, capsys):
        code, out = run(capsys, "enum-frames", "--worlds", "2", "--limit", "3")
        assert out.count("frame:") == 3

    def test_first_frame_of_many_worlds_at_once(self, capsys):
        # the lex-leader test must not build all 8! permutation maps first
        start = time.perf_counter()
        code, out = run(capsys, "enum-frames", "--worlds", "8", "--limit", "1",
                        "--count", "--format", "lines")
        assert code == 0 and out == "count=1\n"
        assert time.perf_counter() - start < 1.0


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2


#: A side no search can reach the end of, and no list of cells can hold.
HUGE = 10 ** 11

BAD_INPUTS = [
    ["tile-torus", "--tiles", "{swap}", "--max-period", "9"],
    ["tile-solve", "--tiles", "{swap}", "--width", "0", "--height", "1"],
    ["tile-render", "--tiles", "{swap}", "--width", "0", "--height", "1"],
    ["verify-lemma6", "--tiles", "{swap}", "--period", "0,1"],
    ["verify-lemma6", "--tiles", "{swap}", "--period", "2,1", "--depth", "9"],
    ["verify-lemma6", "--tiles", "{swap}", "--cells", "0,0:a", "--period", "2,1"],
    ["verify-lemma6", "--tiles", "{swap}", "--cells", "0,0:a",
     "--period", f"{HUGE},{HUGE}"],
    ["tile-render", "--tiles", "{swap}", "--width", "1", "--height", "1",
     "--mode", "svg", "--out", "{missing}/grid.svg"],
    ["enum-frames", "--worlds", "0"],
    ["model-check", "--frame", "{valley}", "--formula", "ley"],
    ["extract", "--frame", "{quotient}", "--tiles", "{mono}", "--point", "-1", "--k", "1"],
    ["extract", "--frame", "{quotient}", "--tiles", "{mono}", "--point", "99", "--k", "1"],
    ["extract", "--frame", "{quotient}", "--tiles", "{mono}", "--point", "0", "--k", "-1"],
    ["extract", "--frame", "{quotient}", "--tiles", "{mono}", "--point", "0", "--k", "0"],
    ["countermodel", "--formula", "p", "--max-worlds", "0"],
    ["countermodel", "--formula", "p", "--max-worlds", "-3"],
    ["countermodel", "--formula", "p", "--budget", "-5"],
    ["enum-frames", "--worlds", "1", "--limit", "-1"],
    ["parse-formula", "~" * 3000],
    ["parse-formula", "[]" * 3000 + ")"],
    ["parse-formula", "(" * 3000 + "p"],
    ["ptl-decide", "~~" * 3000],
    ["ptl-decide", "(" * 3000 + "p"],
    ["ptl-decide", "(" * 3000 + "p" + ")" * 3001],
    ["ptl-decide", "~~(" * 3000 + "p &"],
    ["ptl-decide", "p | T"],
    ["extract", "--frame", "{point}", "--tiles", "{clash}", "--point", "0", "--k", "1"],
    ["verify-lemma6", "--tiles", "{clash}", "--period", "1,1", "--depth", "1"],
    # more worlds than any index can hold
    ["frame-valid", "--frame", "{huge}", "--formula", "p"],
    ["model-check", "--frame", "{huge}", "--formula", "p"],
    ["check-assoc", "--frame", "{huge}"],
    ["extract", "--frame", "{huge}", "--tiles", "{mono}", "--point", "0"],
]

#: One well-formed, quick argv per subcommand.
GOOD_INPUTS = [
    ["parse-formula", "--desugar", "p @> q"],
    ["gen-phi", "--tiles", "{mono}", "--stats"],
    ["check-assoc", "--frame", "{quotient}"],
    ["model-check", "--frame", "{quotient}", "--formula", "p o q", "--world", "0"],
    ["frame-valid", "--frame", "{quotient}", "--formula", "p -> p", "--jobs", "4"],
    ["countermodel", "--formula", "F", "--max-worlds", "1"],
    ["tile-solve", "--tiles", "{swap}", "--width", "3", "--height", "2"],
    ["tile-torus", "--tiles", "{swap}", "--max-period", "2"],
    ["tile-render", "--tiles", "{swap}", "--width", "2", "--height", "1", "--mode", "svg"],
    ["extract", "--frame", "{quotient}", "--tiles", "{mono}", "--point", "0", "--k", "1"],
    ["verify-lemma6", "--tiles", "{mono}", "--period", "1,1", "--depth", "1"],
    ["ptl-decide", "p \\|/ ~~p", "--format", "lines"],
    ["enum-frames", "--worlds", "2", "--associative", "--count"],
]

#: Help, unknown or missing commands, ambiguous and abbreviated options,
#: --opt=value, -- before a positional, values that start with - or are
#: empty, repeated options and flags, integers int() reads in unusual
#: spellings, an option short of its value, and a positional after options.
EDGE_INPUTS = [
    [], ["-h"], ["frobnicate"], ["frobnicate", "-h"], ["--format", "lines"],
    ["tile-solve", "--tiles", "{swap}", "--width", "2", "--h", "1"],
    ["tile-solve", "--tiles", "{swap}", "--wid", "2", "--hei", "1"],
    ["frame-valid", "--frame", "{quotient}", "--form", "p"],
    ["frame-valid", "--frame={quotient}", "--formula=p", "--strat=random", "--samples=3"],
    ["tile-torus", "--tiles={swap}", "--max-period=9"],
    ["parse-formula", "--", "-p"],
    ["parse-formula", "--format", "lines", "--", "p o q"],
    ["ptl-decide", "--", "p & q"],
    ["ptl-decide", "p", "q"],
    ["parse-formula", "p", "--bogus"],
    ["enum-frames", "--worlds", "1", "--count", "-h"],
    ["countermodel", "--formula", "F", "--max-worlds", "1", "--seed", "-3"],
    ["parse-formula", "-"], ["ptl-decide", "-"],
    ["model-check", "--frame", "{quotient}", "--formula", ""], ["parse-formula", ""],
    ["tile-solve", "--tiles", "{swap}", "--width", "9", "--height", "1", "--width", "2"],
    ["enum-frames", "--worlds", "1", "--count", "--count"],
    ["tile-solve", "--tiles", "{swap}", "--width", " 3", "--height", "1"],
    ["tile-solve", "--tiles", "{swap}", "--width", "1_0", "--height", "1"],
    ["tile-torus", "--tiles", "{swap}", "--max-period", "04"],
    ["tile-torus", "--tiles", "{swap}", "--max-period", "\u0663"],
    ["countermodel", "--formula", "F", "--budget", "9" * 5000],
    ["model-check", "--frame", "{quotient}", "--formula"],
    ["model-check", "--frame", "{quotient}", "--formula", "--format"],
    ["enum-frames", "--worlds", "1", "--count=1"],
    ["ptl-decide", "--format", "lines", "p"],
] + [[name, "-h"] for name in COMMANDS]


@pytest.fixture
def fill(tmp_path):
    """Writes the files an argv template names and returns its filler."""
    (tmp_path / "swap.tiles").write_text(SWAP_TILES)
    (tmp_path / "one.tiles").write_text(MONO_TILES)
    (tmp_path / "valley.frame").write_text("worlds 2\nvalley: 0\n")
    (tmp_path / "clash.tiles").write_text("x_e 0 0 0 0\n")  # a structural letter
    (tmp_path / "point.frame").write_text("worlds 1\n0 0 0\n")
    (tmp_path / "huge.frame").write_text("worlds 99999999999999999999\n0 0 1\n")
    (tmp_path / "vast.frame").write_text(f"worlds {VAST}\n0 0 0\n1 1 1\n")
    model, _ = quotient_countermodel(TileSet(("t1",), (Tile(0, 0, 0, 0),)),
                                     PeriodicTiling((1, 1), {(0, 0): 0}))
    (tmp_path / "quotient.frame").write_text(render_frame_file(model.frame, model.valuation))
    names = dict(swap=tmp_path / "swap.tiles", valley=tmp_path / "valley.frame",
                 missing=tmp_path / "missing", mono=tmp_path / "one.tiles",
                 quotient=tmp_path / "quotient.frame", clash=tmp_path / "clash.tiles",
                 point=tmp_path / "point.frame", huge=tmp_path / "huge.frame",
                 vast=tmp_path / "vast.frame")
    return lambda argv: [a.format(**names) for a in argv]


@pytest.mark.parametrize("argv", BAD_INPUTS)
def test_bad_input_is_usage_error_without_traceback(fill, argv):
    proc = subprocess.run([sys.executable, "-m", "tilemodal.cli", *fill(argv)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and proc.stdout == ""


#: A world count over semantics.MAX_WORLDS, in a frame of two triples.
VAST = 2 ** 35

#: The commands that evaluate a formula on the vast frame; check-assoc, which
#: reads only the worlds of the triples, still answers.
VAST_INPUTS = [
    ["model-check", "--frame", "{vast}", "--formula", "T"],
    ["frame-valid", "--frame", "{vast}", "--formula", "T"],
    ["frame-valid", "--frame", "{vast}", "--formula", "p", "--strategy", "random"],
    ["extract", "--frame", "{vast}", "--tiles", "{mono}", "--point", "0"],
]


@pytest.mark.parametrize("argv", VAST_INPUTS)
def test_frame_too_large_to_evaluate_is_one_line_usage_error(fill, argv):
    # with little address space, so that a masks pass that starts fails fast
    proc = run_limited(fill(argv))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"too many worlds to evaluate: {VAST}, over {MAX_WORLDS}\n"


def test_frame_too_large_to_evaluate_is_still_checked(fill):
    proc = run_limited(fill(["check-assoc", "--frame", "{vast}"]))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "associative\n", "")


@pytest.mark.parametrize("argv", BAD_INPUTS + GOOD_INPUTS + EDGE_INPUTS)
def test_fast_parser_matches_full_parser(fill, capsys, argv):
    argv = fill(argv)
    fast = (main(argv), *capsys.readouterr())
    assert (full_parser_main(argv), *capsys.readouterr()) == fast


def test_well_formed_call_builds_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["ptl-decide", "p | q", "--format", "lines"]) == 1
    assert built == []
    assert main(["ptl-decide", "p | q", "--bogus"]) == 2  # the full parser answers
    assert len(built) > 1


@pytest.mark.parametrize("argv", GOOD_INPUTS)
def test_reader_gives_the_full_parsers_namespace(fill, argv):
    argv = fill(argv)
    read = _read_args(argv[0], argv[1:])
    assert read is not None  # the call took the fast path
    full = vars(build_parser().parse_args(argv))
    del full["command"]
    assert vars(read) == full


def test_rows_use_only_keywords_the_reader_knows():
    known = {"type", "choices", "default", "required", "help", "action"}
    for name, (_, _, row) in COMMANDS.items():
        for flag, keywords in {**FORMAT_OPTION, **row}.items():
            assert set(keywords) <= known, (name, flag)
            assert keywords.get("action", "store_true") == "store_true", (name, flag)


@pytest.mark.parametrize("argv, out", [
    (["tile-solve", "--width", str(HUGE), "--height", str(HUGE)], "status=unsolvable\n"),
    (["tile-render", "--width", str(HUGE), "--height", str(HUGE)], "status=unsolvable\n"),
    (["tile-solve", "--width", "1", "--height", str(HUGE)], "status=unsolvable\n"),
])
def test_huge_rectangle_answers_without_traceback(tmp_path, argv, out):
    tiles = tmp_path / "two.tiles"
    tiles.write_text("a 1 0 0 0\nb 2 1 0 0\n")  # stacks at most two high
    proc = subprocess.run([sys.executable, "-m", "tilemodal.cli", *argv, "--tiles",
                           str(tiles), "--format", "lines"], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, out, "")


def test_huge_torus_answers_without_traceback(tmp_path):
    tiles = tmp_path / "flat.tiles"
    tiles.write_text("t 1 0 0 0\n")  # cannot stack on itself
    proc = subprocess.run([sys.executable, "-m", "tilemodal.cli", "verify-lemma6",
                           "--tiles", str(tiles), "--period", f"{HUGE},{HUGE}"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"no torus tiling with period ({HUGE}, {HUGE})\n"
