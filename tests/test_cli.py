import pytest

from fixtures_quotient import quotient_countermodel
from tilemodal import formula as fm
from tilemodal import reduction
from tilemodal.cli import main
from tilemodal.frames import render_frame_file
from tilemodal.tiling import PeriodicTiling, Tile, TileSet

MONO_TILES = "t1 0 0 0 0\n"
TWO_TILES = "t1 0 0 0 1\nt2 0 0 2 0\n"
SWAP_TILES = "a 0 0 1 2\nb 0 0 2 1\n"


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

    def test_lines_format(self, capsys):
        code, out = run(capsys, "parse-formula", "--format", "lines", "p o q")
        assert out == "formula=p o q\n"


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

    def test_structural_collision_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "clash.tiles"
        path.write_text("x_e 0 0 0 0\n")
        assert main(["gen-phi", "--tiles", str(path)]) == 2

    def test_desugared_output_is_core(self, capsys, mono_file):
        code, out = run(capsys, "gen-phi", "--tiles", mono_file, "--desugar")
        assert code == 0
        assert "[]" not in out and "@>" not in out and "<@" not in out


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


class TestPtlDecide:
    def test_global_excluded_middle(self, capsys):
        code, out = run(capsys, "ptl-decide", "p \\|/ ~~p")
        assert code == 0 and out == "valid\n"

    def test_letter_refuted(self, capsys):
        code, out = run(capsys, "ptl-decide", "p", "--format", "lines")
        assert code == 1 and out.startswith("status=refuted")

    def test_syntax_error(self, capsys):
        assert main(["ptl-decide", "p @ q"]) == 2


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


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
