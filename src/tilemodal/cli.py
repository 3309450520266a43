"""Command-line entry point.

One subcommand per workbench procedure. Exit codes: 0 on success, 1 on a
domain failure (a refutation where validity was asked, a failed check, an
unsolvable instance), 2 on usage or parse errors. Output is deterministic
for a fixed argv and seed. frame-valid accepts --jobs for compatibility and
ignores it: validity runs in one process, many valuations per pass. A plain
call is read straight from its row of COMMANDS and builds no parser; help,
errors and anything unusual go to the full one.
"""

from __future__ import annotations

import argparse
import sys
from types import SimpleNamespace

from tilemodal import extraction, formula as fm, powerset_symbolic as ps
from tilemodal import reduction, team_logic, tiling
from tilemodal.frames import (
    Frame,
    Model,
    check_associative,
    enumerate_frames,
    parse_frame_file,
    s_relation,
)
from tilemodal.semantics import (
    Unknown,
    Valid,
    countermodel_search,
    frame_validity,
    sat_set,
)

USAGE_ERROR = 2
DOMAIN_ERROR = 1


class CliError(Exception):
    def __init__(self, message: str, code: int = USAGE_ERROR):
        super().__init__(message)
        self.code = code


def _usage(run, *args, where: str = "", **keywords):
    """run(*args, **keywords); a ValueError from it is a usage error, its
    message headed "where: " when where is given."""
    try:
        return run(*args, **keywords)
    except ValueError as e:
        raise CliError(f"{where}: {e}" if where else str(e)) from None


def _load(parse, path: str):
    """parse of the file's text, decoded as UTF-8 with its line ends kept:
    its readers split it with splitlines(), so they see the lines text mode
    would give them. A file that cannot be read, decoded or parsed is a
    usage error."""
    try:
        with open(path, "rb", buffering=0) as fh:
            data = fh.read()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from None
    return _usage(lambda: parse(data.decode("utf-8")), where=path)


def _load_tiles(path: str) -> tiling.TileSet:
    return _load(tiling.parse_tileset_file, path)


def _load_phi_tiles(path: str) -> tiling.TileSet:
    """A tile set to build phi's conjuncts from: no tile may be named by a
    structural letter."""
    w = _load_tiles(path)
    _usage(reduction.letter_inventory, w)
    return w


def _load_frame(path: str) -> tuple[Frame, dict[str, set[int]]]:
    return _load(parse_frame_file, path)


def _emit(out: list[str], fmt: str, text_lines: list[str], kv_lines: list[str]):
    out.extend(kv_lines if fmt == "lines" else text_lines)


def _valuation_parts(model: Model) -> list[str]:
    """One "p:w,w" part per letter of the model, in letter order."""
    return [f"{p}:{','.join(map(str, sorted(ws)))}"
            for p, ws in sorted(model.valuation.items())]


def _cell_names(w: tiling.TileSet, cells: dict[tuple[int, int], int],
                width: int, height: int) -> str:
    """The "c,r:name" listing of cells, column by column."""
    return " ".join(f"{c},{r}:{w.names[cells[(c, r)]]}"
                    for c in range(width) for r in range(height))


#: Most nodes a desugared formula may have to be printed. Each [] copies its
#: argument three times, so the tree can be exponentially larger than its Dag.
DESUGAR_LIMIT = 10**7


def _desugar(f: fm.Formula) -> fm.Formula:
    dag = fm.to_dag(f)
    if (size := dag.tree_size()) > DESUGAR_LIMIT:
        raise CliError(f"desugared formula has {size} nodes, over the limit of "
                       f"{DESUGAR_LIMIT}", DOMAIN_ERROR)
    return fm.desugar(dag)


# -- subcommand handlers -------------------------------------------------------


def cmd_parse_formula(args, out) -> int:
    f = _usage(fm.parse, args.formula)
    text = fm.render(_desugar(f) if args.desugar else f)
    _emit(out, args.format, [text], [f"formula={text}"])
    return 0


def cmd_gen_phi(args, out) -> int:
    w = _load_phi_tiles(args.tiles)
    f = reduction.phi(w)
    text = fm.render(_desugar(f) if args.desugar else f)
    lines, kv = [text], [f"formula={text}"]
    if args.stats:
        stats = reduction.phi_stats(w, f)
        lines += [f"{k}: {v}" for k, v in sorted(stats.items())]
        kv += [f"{k}={v}" for k, v in sorted(stats.items())]
    _emit(out, args.format, lines, kv)
    return 0


def cmd_check_assoc(args, out) -> int:
    frame, _ = _load_frame(args.frame)
    verdict = check_associative(frame)
    if verdict is None:
        _emit(out, args.format, ["associative"], ["status=associative"])
        return 0
    text = (f"counterexample x={verdict.x} a={verdict.a} b={verdict.b} "
            f"c={verdict.c} direction={verdict.direction}")
    _emit(out, args.format, [text], ["status=" + text])
    return DOMAIN_ERROR


def cmd_model_check(args, out) -> int:
    frame, valuation = _load_frame(args.frame)
    model = Model(frame, valuation)
    f = _usage(fm.parse, args.formula)
    worlds = sorted(_usage(sat_set, model, f))
    if args.world is not None:
        if not 0 <= args.world < frame.size:
            raise CliError(f"world {args.world} out of range")
        holds = args.world in worlds
        _emit(out, args.format,
              [f"world {args.world}: {'satisfied' if holds else 'not satisfied'}"],
              [f"world={args.world} satisfied={str(holds).lower()}"])
        return 0 if holds else DOMAIN_ERROR
    text = "satisfied at: " + (" ".join(map(str, worlds)) if worlds else "(none)")
    _emit(out, args.format, [text],
          ["satisfied=" + ",".join(map(str, worlds))])
    return 0


def cmd_frame_valid(args, out) -> int:
    frame, _ = _load_frame(args.frame)
    f = _usage(fm.parse, args.formula)
    verdict = _usage(frame_validity, frame, f, strategy=args.strategy, seed=args.seed,
                     samples=args.samples)
    if isinstance(verdict, Valid):
        _emit(out, args.format, ["valid"], ["status=valid"])
        return 0
    if isinstance(verdict, Unknown):
        _emit(out, args.format, [f"unknown: {verdict.reason}"],
              [f"status=unknown reason={verdict.reason.replace(' ', '_')}"])
        return 0
    parts = _valuation_parts(verdict.model)
    _emit(out, args.format,
          [f"refuted at world {verdict.world} under " + "; ".join(parts)],
          [f"status=refuted world={verdict.world} valuation={'|'.join(parts)}"])
    return DOMAIN_ERROR


def cmd_countermodel(args, out) -> int:
    f = _usage(fm.parse, args.formula)
    hit = countermodel_search(f, args.max_worlds, args.budget, seed=args.seed)
    if hit is None:
        _emit(out, args.format, ["no countermodel within budget"],
              ["status=exhausted"])
        return 0
    model, world = hit
    triples = " ".join(f"{x},{y},{z}" for x, y, z in sorted(model.frame.triples))
    parts = _valuation_parts(model)
    _emit(out, args.format,
          [f"refuted at world {world} in frame of size {model.frame.size}",
           f"triples: {triples}",
           "valuation: " + ("; ".join(parts) if parts else "(empty)")],
          [f"status=refuted world={world} size={model.frame.size}",
           f"triples={triples}",
           f"valuation={'|'.join(parts)}"])
    return 0


def _solved(w: tiling.TileSet, args, out) -> tiling.Grid | None:
    """The rectangle of args solved, or None once out says why not."""
    try:
        grid = tiling.solve_rect(w, args.width, args.height)
    except tiling.SearchBudgetExceeded:
        _emit(out, args.format, ["budget exceeded"], ["status=budget_exceeded"])
        return None
    if grid is None:
        _emit(out, args.format, ["unsolvable"], ["status=unsolvable"])
    return grid


def cmd_tile_solve(args, out) -> int:
    w = _load_tiles(args.tiles)
    grid = _solved(w, args, out)
    if grid is None:
        return DOMAIN_ERROR
    names = _cell_names(w, grid.cells, grid.width, grid.height)
    _emit(out, args.format,
          [tiling.render_ascii(w, grid).rstrip("\n")],
          [f"status=solved cells={names}"])
    return 0


def cmd_tile_torus(args, out) -> int:
    w = _load_tiles(args.tiles)
    try:
        torus = tiling.find_torus(w, args.max_period)
    except tiling.SearchBudgetExceeded:
        _emit(out, args.format, ["budget exceeded"], ["status=budget_exceeded"])
        return DOMAIN_ERROR
    if torus is None:
        _emit(out, args.format,
              [f"no torus tiling up to period {args.max_period}"],
              ["status=none"])
        return DOMAIN_ERROR
    p, q = torus.periods
    cells = _cell_names(w, torus.cells, p, q)
    _emit(out, args.format,
          [f"torus tiling with period ({p},{q})", f"cells: {cells}"],
          [f"status=found period={p},{q} cells={cells}"])
    return 0


def cmd_tile_render(args, out) -> int:
    w = _load_tiles(args.tiles)
    grid = _solved(w, args, out)
    if grid is None:
        return DOMAIN_ERROR
    if args.mode == "svg":
        svg = tiling.render_svg(w, grid)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(svg)
            except OSError as e:
                raise CliError(f"cannot write {args.out}: {e}") from None
            _emit(out, args.format, [f"wrote {args.out}"],
                  [f"status=wrote path={args.out}"])
        else:
            out.append(svg.rstrip("\n"))
        return 0
    ascii_rows = tiling.render_ascii(w, grid).rstrip("\n").split("\n")
    _emit(out, args.format, ascii_rows,
          [f"row{i}={row}" for i, row in enumerate(ascii_rows)])
    return 0


def cmd_extract(args, out) -> int:
    frame, valuation = _load_frame(args.frame)
    model = Model(frame, valuation)
    w = _load_phi_tiles(args.tiles)
    if not 0 <= args.point < frame.size:
        raise CliError(f"point {args.point} out of range")
    try:
        grid = _usage(extraction.extract_tiling, model, args.point, args.k, w)
    except extraction.ExtractionError as e:
        _emit(out, args.format, [f"extraction failed: {e}"],
              [f"status=failed reason={str(e).replace(' ', '_')}"])
        return DOMAIN_ERROR
    names = _cell_names(w, grid.cells, grid.width, grid.height)
    _emit(out, args.format,
          [f"extracted verified {args.k}x{args.k} tiling",
           tiling.render_ascii(w, grid).rstrip("\n")],
          [f"status=extracted k={args.k} cells={names}"])
    return 0


_MODE_NAMES = {"union": "union", "disjoint": "disjoint_union",
               "nonempty": "union_nonempty"}


def cmd_verify_lemma6(args, out) -> int:
    w = _load_phi_tiles(args.tiles)
    try:
        p_str, q_str = args.period.split(",")
        periods = (int(p_str), int(q_str))
        if min(periods) < 1:
            raise ValueError
    except ValueError:
        raise CliError("--period expects P,Q with positive P and Q") from None
    if args.cells:
        try:
            assignments = dict(
                item.split(":") for item in args.cells.split(" ") if item
            )
            torus = tiling.PeriodicTiling(periods, {
                tuple(map(int, key.split(","))): w.names.index(name)
                for key, name in assignments.items()
            })
        except ValueError:
            raise CliError("--cells expects 'c,r:name c,r:name ...' covering "
                           "the P x Q torus") from None
    else:
        try:
            torus = tiling.torus_with_period(w, periods)
        except tiling.SearchBudgetExceeded:
            raise CliError(f"torus search for period {periods} ran out of budget",
                           DOMAIN_ERROR) from None
        if torus is None:
            raise CliError(f"no torus tiling with period {periods}", DOMAIN_ERROR)
    report = ps.check_refutation(w, torus, args.depth, _MODE_NAMES[args.mode])
    _emit(out, args.format, [report.render_text()], report.render_lines())
    return 0 if report.passed else DOMAIN_ERROR


def cmd_ptl_decide(args, out) -> int:
    # a syntax error, a reserved letter name, or too many letters
    verdict = _usage(team_logic.ptl_decide, _usage(team_logic.parse_team_formula, args.formula))
    if isinstance(verdict, team_logic.TeamValid):
        _emit(out, args.format, ["valid"], ["status=valid"])
        return 0
    team = verdict.team
    rows = ";".join(
        ",".join(f"{p}={team.value(r, p)}" for p in team.inventory) or "(empty)"
        for r in sorted(team.members)
    )
    _emit(out, args.format,
          [f"not valid; counterteam of {len(team.members)} valuation(s): "
           + (rows if rows else "(empty team)")],
          [f"status=refuted team={rows if rows else '(empty)'}"])
    return DOMAIN_ERROR


def cmd_enum_frames(args, out) -> int:
    count = 0
    for frame in enumerate_frames(args.worlds, args.associative):
        count += 1
        if not args.count:
            triples = " ".join(f"{x},{y},{z}" for x, y, z in sorted(frame.triples))
            if args.format == "lines":
                s_pairs = len(s_relation(frame).pairs)
                out.append(f"frame={triples or '(empty)'} s_pairs={s_pairs}")
            else:
                out.append(f"frame: {triples or '(empty)'}")
        if args.limit and count >= args.limit:
            break
    if args.format == "lines":
        out.append(f"count={count}")
    else:
        out.append(f"{count} frame(s)")
    return 0


def _int_at_least(low: int):
    """An argparse type for integers no less than low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


_positive_int = _int_at_least(1)


_FLAG = dict(action="store_true")
_REQUIRED = dict(required=True)
_POSITIVE = dict(type=_positive_int)
_RECTANGLE = {"--tiles": _REQUIRED, "--width": dict(_POSITIVE, required=True),
              "--height": dict(_POSITIVE, required=True)}

#: One row per subcommand: name -> (handler, help, {argument: add_argument keywords}).
COMMANDS = {
    "parse-formula": (cmd_parse_formula, "parse and reprint a formula",
                      {"formula": {}, "--desugar": _FLAG}),
    "gen-phi": (cmd_gen_phi, "print the tiling formula of a tile set",
                {"--tiles": _REQUIRED, "--desugar": _FLAG, "--stats": _FLAG}),
    "check-assoc": (cmd_check_assoc, "check a frame for associativity",
                    {"--frame": _REQUIRED}),
    "model-check": (cmd_model_check, "evaluate a formula on a model", {
        "--frame": _REQUIRED, "--formula": _REQUIRED,
        "--world": dict(type=int, default=None)}),
    "frame-valid": (cmd_frame_valid, "decide validity on a frame", {
        "--frame": _REQUIRED, "--formula": _REQUIRED,
        "--strategy": dict(choices=("exhaustive", "random"), default="exhaustive"),
        "--seed": dict(type=int, default=0),
        "--samples": dict(_POSITIVE, default=1000),
        "--jobs": dict(type=int, default=1,
                       help="accepted for compatibility; validity runs in one process")}),
    "countermodel": (cmd_countermodel, "search associative frames for a refuting model", {
        "--formula": _REQUIRED, "--max-worlds": dict(_POSITIVE, default=3),
        "--budget": dict(_POSITIVE, default=100_000), "--seed": dict(type=int, default=0)}),
    "tile-solve": (cmd_tile_solve, "tile a rectangle", _RECTANGLE),
    "tile-torus": (cmd_tile_torus, "find a periodic tiling", {
        "--tiles": _REQUIRED,
        "--max-period": dict(type=int, choices=range(1, 5), default=4)}),
    "tile-render": (cmd_tile_render, "render a solved rectangle", {
        **_RECTANGLE, "--mode": dict(choices=("ascii", "svg"), default="ascii"),
        "--out": dict(default=None)}),
    "extract": (cmd_extract, "extract a verified tiling from a refuting model", {
        "--frame": _REQUIRED, "--tiles": _REQUIRED,
        "--point": dict(type=int, required=True), "--k": dict(_POSITIVE, default=2)}),
    "verify-lemma6": (cmd_verify_lemma6,
                      "bounded check of the powerset refutation for a tile set", {
        "--tiles": _REQUIRED, "--period": dict(required=True, help="P,Q torus periods"),
        "--depth": dict(type=int, choices=range(1, 5), default=3),
        "--mode": dict(choices=tuple(_MODE_NAMES), default="union"),
        "--cells": dict(default=None,
                        help="explicit torus cells 'c,r:name ...' (skips search)")}),
    "ptl-decide": (cmd_ptl_decide, "decide a team-logic formula", {"formula": {}}),
    "enum-frames": (cmd_enum_frames, "enumerate frames up to isomorphism", {
        "--worlds": dict(_POSITIVE, required=True), "--associative": _FLAG,
        "--limit": dict(type=_int_at_least(0), default=0,
                        help="stop after this many frames; 0 means no limit"),
        "--count": _FLAG}),
}


#: The option every subcommand takes, ahead of its own row of COMMANDS.
FORMAT_OPTION = {"--format": dict(choices=("text", "lines"), default="text")}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    handler, _, arguments = COMMANDS[name]
    parser.set_defaults(handler=handler)
    for flag, keywords in {**FORMAT_OPTION, **arguments}.items():
        parser.add_argument(flag, **keywords)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full parser, every subcommand's; it prints all help and errors."""
    parser = argparse.ArgumentParser(
        prog="tilemodal", description="workbench for modal logic over associative frames")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


def _read_args(name: str, words: list[str]) -> SimpleNamespace | None:
    """The arguments of a plain call, read from the row of COMMANDS as the
    full parser would read them; None for anything else (help, an error, an
    abbreviation, --opt=value, --, a value starting with -)."""
    handler, _, row = COMMANDS[name]
    arguments = {**FORMAT_OPTION, **row}
    positional = [flag for flag in row if not flag.startswith("-")]
    given = {}
    words = iter(words)
    for word in words:
        option = word.startswith("-")
        flag = word if option else positional.pop(0) if positional else None
        keywords = arguments.get(flag)
        if keywords is None:
            return None
        if keywords.get("action") == "store_true":
            given[flag] = True
            continue
        text = next(words, "-") if option else word
        if text.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[flag] = value
    values = {}
    for flag, keywords in arguments.items():
        if flag not in given and (keywords.get("required") or not flag.startswith("-")):
            return None
        default = keywords.get("default", False if "action" in keywords else None)
        values[flag.lstrip("-").replace("-", "_")] = given.get(flag, default)
    return SimpleNamespace(handler=handler, **values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_args(argv[0], argv[1:]) if argv and argv[0] in COMMANDS else None
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:
            return USAGE_ERROR if e.code not in (0, None) else 0
    out: list[str] = []
    try:
        code = args.handler(args, out)
    except CliError as e:
        print(str(e), file=sys.stderr)
        return e.code
    for line in out:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
