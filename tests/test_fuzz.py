"""Fuzz tests of the input boundary: both file parsers, both formula
parsers and every subcommand.

A parser either returns its value or raises ValueError; `cli.main` returns
0, 1 or 2 and lets no exception escape, whatever the argv and whatever the
files it names hold, and it prints and returns what the full parser would. Examples are derandomized and few, so the run is the
same every time and short. One property checks the tiling backtracker's
pruning against the unpruned reference in test_tiling.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import full_parser_main
from fixtures_quotient import quotient_countermodel
from test_tiling import reference_fill
from tilemodal import formula as fm
from tilemodal.cli import main
from tilemodal.frames import parse_frame_file, render_frame_file
from tilemodal.team_logic import parse_team_formula, render_team_formula
from tilemodal.tiling import (PeriodicTiling, SearchBudgetExceeded, Tile, TileSet, _fill,
                              _mismatch, parse_tileset_file)

FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

SMALL_INTS = st.sampled_from(["1", "2", "3", "0"])
#: Put in place of a flag's value one time in sixteen. Hypothesis starts
#: from the first choice of each list, so the lists start with good values.
JUNK = st.sampled_from(["x", "", "-1", "99", "--", "1.5", " 3", "1_0", "04", "-",
                       "\u0663"])


def _lines(tokens) -> st.SearchStrategy[str]:
    line = st.lists(st.sampled_from(tokens), max_size=5).map(" ".join)
    return st.lists(line, max_size=6).map("\n".join)


FRAME_TEXT = _lines(["worlds", "val", "val:", "p:", "q", ":", "#", "0", "1", "2",
                     "3", "-1", "x", "worldsx", "1,2", "0:"])
TILES_TEXT = _lines(["a", "b", "t1", "o", "T", "_top", "0", "1", "2", "-1", "x", "#"])
BINARY = st.sampled_from([" o ", " & ", " | ", " -> ", " <-> ", " @> ", " <@ "])
WELL_FORMED = st.recursive(
    st.sampled_from(["p", "q", "r", "T", "F", "x_e"]),
    lambda sub: st.tuples(sub, BINARY, sub).map(lambda t: "(" + "".join(t) + ")")
    | sub.map("~".__add__) | sub.map("[]".__add__),
    max_leaves=5)
FORMULA = WELL_FORMED | WELL_FORMED | WELL_FORMED | st.lists(
    st.sampled_from(["p", "q", "o", "~", "&", "|", "->", "@>", "[]", "(", ")", "T", "!"]),
    max_size=9).map(" ".join)
TEAM_FORMULA = st.recursive(
    st.sampled_from(["p", "q", "r"]),
    lambda sub: st.tuples(sub, st.sampled_from([" & ", " | ", " \\|/ "]), sub).map(
        lambda t: "(" + "".join(t) + ")") | sub.map("~~".__add__),
    max_leaves=5) | st.lists(st.sampled_from(["p", "~~", "&", "\\|/", "(", ")", "!"]),
                             max_size=9).map(" ".join)


@given(FRAME_TEXT | st.text(max_size=40))
@FUZZ
def test_frame_parser_returns_or_raises_value_error(text):
    try:
        parse_frame_file(text)
    except ValueError:
        pass


@given(TILES_TEXT | st.text(max_size=40))
@FUZZ
def test_tileset_parser_returns_or_raises_value_error(text):
    try:
        parse_tileset_file(text)
    except ValueError:
        pass


#: Stray characters for the token soups: ASCII, a two-byte letter, a
#: three-byte space, and the other notation's tokens.
SOUP_JUNK = ["$", "[", "-", "\\", "\u00e9", "\u3000", "1", "'"]


def _soup(tokens) -> st.SearchStrategy[str]:
    return st.lists(st.sampled_from(tokens + SOUP_JUNK + [" ", " "]), max_size=14).map("".join)


MODAL_SOUP = _soup(["p", "x'", "o", "T", "F", "~", "[]", "&", "|", "->", "<->", "@>",
                    "<@", "(", ")", "~~", "\\|/"])
TEAM_SOUP = _soup(["p", "q'", "o", "T", "~~", "~", "&", "|", "\\|/", "(", ")", "[]",
                   "->"])


@pytest.mark.parametrize("parse, render, text", [
    (fm.parse, fm.render, FORMULA | MODAL_SOUP),
    (parse_team_formula, render_team_formula, TEAM_FORMULA | TEAM_SOUP),
], ids=["modal", "team"])
def test_formula_parser_round_trips_or_raises_a_located_error(parse, render, text):
    @given(text)
    @settings(FUZZ, max_examples=300)
    def run(text):
        try:
            f = parse(text)
        except ValueError as e:
            at = re.match(r"syntax error at byte (\d+): ", str(e))
            assert (at and int(at[1]) <= len(text.encode("utf-8"))
                    or str(e).startswith("invalid letter name")), (text, str(e))
        else:
            assert parse(render(f)) == f, text

    run()


#: Formulas over two letters, so that independent draws are often equal.
NODES = st.recursive(
    st.sampled_from([fm.Letter("p"), fm.Letter("q"), fm.Top(), fm.Bottom()]),
    lambda sub: st.builds(lambda node, a: node(a), st.sampled_from([fm.Neg, fm.Box]), sub)
    | st.builds(lambda node, a, b: node(a, b),
                st.sampled_from([fm.Or, fm.Comp, fm.And, fm.Implies, fm.Iff, fm.HookR,
                                 fm.HookL]), sub, sub),
    max_leaves=4)


@given(NODES, NODES)
@settings(FUZZ, max_examples=300)
def test_formulas_are_equal_exactly_when_they_print_alike(f, g):
    """Equality and hashing read the nodes in pre-order; the printed text
    determines the formula, so the two must agree."""
    copy = fm.parse(fm.render(f))
    assert f == copy and copy == f and hash(f) == hash(copy)
    assert (f == g) == (g == f) == (fm.render(f) == fm.render(g)), (f, g)
    if f == g:
        assert hash(f) == hash(g)


COLOUR = st.integers(0, 3)
TILE_SET = st.lists(st.builds(Tile, COLOUR, COLOUR, COLOUR, COLOUR), min_size=1,
                    max_size=10).map(lambda ts: TileSet(tuple(f"t{i}" for i in range(len(ts))),
                                                        tuple(ts)))


@given(TILE_SET, st.integers(1, 7), st.integers(1, 7), st.booleans())
@FUZZ
def test_reach_pruning_keeps_the_placement_in_no_more_steps(w, width, height, wrap):
    """The pruned backtracker against the one-cell lookahead it replaced, on
    more tiles (up to 10) and longer sides (up to 7) than TestReachPruning
    sweeps. Where the reference runs out of budget the pruned search may
    still answer, and a placement it gives must then match on every edge."""
    budget = 20_000
    try:
        expect = reference_fill(w, width, height, wrap, budget, 0)
    except SearchBudgetExceeded:
        expect = None
    try:
        got, steps = _fill(w, width, height, wrap, budget, 0)
    except SearchBudgetExceeded:
        assert expect is None
        return
    if expect is not None:
        assert got == expect[0] and steps <= expect[1]
    elif got is not None:
        assert _mismatch(w, got, width, height, wrap) is None


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    mono = TileSet(("t1",), (Tile(0, 0, 0, 0),))
    model, _ = quotient_countermodel(mono, PeriodicTiling((1, 1), {(0, 0): 0}))
    texts = {
        "mono.tiles": "t1 0 0 0 0\n",
        "swap.tiles": "a 0 0 1 2\nb 0 0 2 1\n",
        "cycle.tiles": "a 1 1 1 2\nb 1 1 2 3\nc 1 1 3 1\n",
        "ok.frame": "worlds 2\n0 0 0\n1 1 0\n1 0 1\n1 1 1\nval p: 1\nval q: 0\n",
        "bad.frame": "worlds 2\n0 0 1\nval p: 1\n",
        "quotient.frame": render_frame_file(model.frame, model.valuation),
    }
    for name, text in texts.items():
        (d / name).write_text(text)
    return d


def _specs(d):
    """Subcommand -> (positional strategies, {flag: value strategy or None})."""
    frames = st.sampled_from([str(d / n) for n in (
        "quotient.frame", "ok.frame", "bad.frame", "fuzz.frame", "missing")])
    tiles = st.sampled_from([str(d / n) for n in (
        "mono.tiles", "swap.tiles", "cycle.tiles", "fuzz.tiles", "missing")])
    return {
        "parse-formula": ([FORMULA], {"--desugar": None}),
        "gen-phi": ([], {"--tiles": tiles, "--desugar": None, "--stats": None}),
        "check-assoc": ([], {"--frame": frames}),
        "model-check": ([], {"--frame": frames, "--formula": FORMULA,
                             "--world": SMALL_INTS}),
        "frame-valid": ([], {"--frame": frames, "--formula": FORMULA,
                             "--strategy": st.sampled_from(["exhaustive", "random"]),
                             "--seed": SMALL_INTS, "--samples": SMALL_INTS,
                             "--jobs": SMALL_INTS}),
        "countermodel": ([], {"--formula": FORMULA,
                              "--max-worlds": st.sampled_from(["1", "2", "0", "-3"]),
                              "--budget": st.sampled_from(["50", "2000", "1", "-5"]),
                              "--seed": SMALL_INTS}),
        "tile-solve": ([], {"--tiles": tiles, "--width": SMALL_INTS,
                            "--height": SMALL_INTS}),
        "tile-torus": ([], {"--tiles": tiles, "--max-period": SMALL_INTS}),
        "tile-render": ([], {"--tiles": tiles, "--width": SMALL_INTS,
                             "--height": SMALL_INTS,
                             "--mode": st.sampled_from(["ascii", "svg"]),
                             "--out": st.sampled_from([str(d / "out.svg"),
                                                       str(d / "missing" / "out.svg")])}),
        "extract": ([], {"--frame": frames, "--tiles": tiles,
                         "--point": st.sampled_from(["18", "0", "24", "25", "-1"]),
                         "--k": SMALL_INTS}),
        "verify-lemma6": ([], {"--tiles": tiles,
                               "--period": st.sampled_from(["1,1", "2,1", "1,2", "3,1",
                                                            "0,1", "2", "x,y"]),
                               "--depth": st.sampled_from(["1", "2", "9"]),
                               "--mode": st.sampled_from(["union", "disjoint", "nonempty"]),
                               "--cells": st.sampled_from(["0,0:t1", "0,0:a 1,0:b",
                                                           "0,0:zz"])}),
        "ptl-decide": ([TEAM_FORMULA], {}),
        "enum-frames": ([], {"--worlds": st.sampled_from(["1", "2", "0"]),
                             "--associative": None, "--limit": SMALL_INTS,
                             "--count": None}),
    }


@st.composite
def _argv(draw, command, spec):
    """Mostly well-formed argv: a flag is left out, or its value replaced by
    junk, one time in sixteen."""
    positional, flags = spec
    argv = [command] + [draw(s) for s in positional]
    for flag in draw(st.permutations(sorted(flags))):
        value = flags[flag]
        if value is None:
            argv += [flag] * draw(st.booleans())
        elif draw(st.integers(0, 15)) < 15:
            argv += [flag, draw(value if draw(st.integers(0, 15)) < 15 else JUNK)]
    return argv + ["--format", draw(st.sampled_from(["lines", "text", "lines", "text", "x"]))]


COMMANDS = ["parse-formula", "gen-phi", "check-assoc", "model-check", "frame-valid",
            "countermodel", "tile-solve", "tile-torus", "tile-render", "extract",
            "verify-lemma6", "ptl-decide", "enum-frames"]


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_exit_code_contract(command, files, capsys):
    spec = _specs(files)[command]

    @given(argv=_argv(command, spec), frame_text=FRAME_TEXT, tiles_text=TILES_TEXT)
    @settings(FUZZ, max_examples=30)
    def run(argv, frame_text, tiles_text):
        (files / "fuzz.frame").write_text(frame_text)
        (files / "fuzz.tiles").write_text(tiles_text)
        fast = (main(argv), *capsys.readouterr())
        assert fast[0] in (0, 1, 2), argv
        assert (full_parser_main(argv), *capsys.readouterr()) == fast, argv

    run()
