"""Command-line entry point.

One subcommand per workbench procedure. Exit codes: 0 on success, 1 on a
domain failure (a refutation where validity was asked, a failed check, an
unsolvable instance), 2 on usage or parse errors. Output is deterministic
for a fixed argv and seed. frame-valid accepts --jobs for compatibility and
ignores it: validity runs in one process, many valuations per pass.
"""

from __future__ import annotations

import argparse
import sys

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


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from None


def _load_tiles(path: str) -> tiling.TileSet:
    try:
        return tiling.parse_tileset_file(_read(path))
    except ValueError as e:
        raise CliError(f"{path}: {e}") from None


def _load_frame(path: str) -> tuple[Frame, dict[str, set[int]]]:
    try:
        return parse_frame_file(_read(path))
    except ValueError as e:
        raise CliError(f"{path}: {e}") from None


def _parse_formula(text: str) -> fm.Formula:
    try:
        return fm.parse(text)
    except fm.FormulaSyntaxError as e:
        raise CliError(str(e)) from None


def _emit(out: list[str], fmt: str, text_lines: list[str], kv_lines: list[str]):
    out.extend(kv_lines if fmt == "lines" else text_lines)


# -- subcommand handlers -------------------------------------------------------


def cmd_parse_formula(args, out) -> int:
    f = _parse_formula(args.formula)
    if args.desugar:
        f = fm.desugar(f)
    text = fm.render(f)
    _emit(out, args.format, [text], [f"formula={text}"])
    return 0


def cmd_gen_phi(args, out) -> int:
    w = _load_tiles(args.tiles)
    try:
        f = reduction.phi(w)
    except ValueError as e:
        raise CliError(str(e)) from None
    if args.desugar:
        f = fm.desugar(f)
    lines = [fm.render(f)]
    kv = [f"formula={fm.render(f)}"]
    if args.stats:
        stats = reduction.phi_stats(w)
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
    kv = (f"status=counterexample x={verdict.x} a={verdict.a} b={verdict.b} "
          f"c={verdict.c} direction={verdict.direction}")
    _emit(out, args.format, [text], [kv])
    return DOMAIN_ERROR


def cmd_model_check(args, out) -> int:
    frame, valuation = _load_frame(args.frame)
    model = Model(frame, valuation)
    f = _parse_formula(args.formula)
    worlds = sorted(sat_set(model, f))
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
    f = _parse_formula(args.formula)
    verdict = frame_validity(frame, f, strategy=args.strategy, seed=args.seed,
                             samples=args.samples, jobs=args.jobs)
    if isinstance(verdict, Valid):
        _emit(out, args.format, ["valid"], ["status=valid"])
        return 0
    if isinstance(verdict, Unknown):
        _emit(out, args.format, [f"unknown: {verdict.reason}"],
              [f"status=unknown reason={verdict.reason.replace(' ', '_')}"])
        return 0
    val = verdict.model.valuation
    parts = [f"{p}:{','.join(map(str, sorted(ws)))}" for p, ws in sorted(val.items())]
    _emit(out, args.format,
          [f"refuted at world {verdict.world} under " + "; ".join(parts)],
          [f"status=refuted world={verdict.world} valuation={'|'.join(parts)}"])
    return DOMAIN_ERROR


def cmd_countermodel(args, out) -> int:
    f = _parse_formula(args.formula)
    hit = countermodel_search(f, args.max_worlds, args.budget, seed=args.seed)
    if hit is None:
        _emit(out, args.format, ["no countermodel within budget"],
              ["status=exhausted"])
        return 0
    model, world = hit
    triples = " ".join(f"{x},{y},{z}" for x, y, z in sorted(model.frame.triples))
    val = model.valuation
    parts = [f"{p}:{','.join(map(str, sorted(ws)))}" for p, ws in sorted(val.items())]
    _emit(out, args.format,
          [f"refuted at world {world} in frame of size {model.frame.size}",
           f"triples: {triples}",
           "valuation: " + ("; ".join(parts) if parts else "(empty)")],
          [f"status=refuted world={world} size={model.frame.size}",
           f"triples={triples}",
           f"valuation={'|'.join(parts)}"])
    return 0


def cmd_tile_solve(args, out) -> int:
    w = _load_tiles(args.tiles)
    try:
        grid = tiling.solve_rect(w, args.width, args.height)
    except tiling.SearchBudgetExceeded:
        _emit(out, args.format, ["budget exceeded"], ["status=budget_exceeded"])
        return DOMAIN_ERROR
    if grid is None:
        _emit(out, args.format, ["unsolvable"], ["status=unsolvable"])
        return DOMAIN_ERROR
    names = " ".join(
        f"{c},{r}:{w.names[grid.tile_at(c, r)]}"
        for c in range(grid.width) for r in range(grid.height)
    )
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
    cells = " ".join(
        f"{c},{r}:{w.names[torus.cells[(c, r)]]}"
        for c in range(p) for r in range(q)
    )
    _emit(out, args.format,
          [f"torus tiling with period ({p},{q})", f"cells: {cells}"],
          [f"status=found period={p},{q} cells={cells}"])
    return 0


def cmd_tile_render(args, out) -> int:
    w = _load_tiles(args.tiles)
    try:
        grid = tiling.solve_rect(w, args.width, args.height)
    except tiling.SearchBudgetExceeded:
        _emit(out, args.format, ["budget exceeded"], ["status=budget_exceeded"])
        return DOMAIN_ERROR
    if grid is None:
        _emit(out, args.format, ["unsolvable"], ["status=unsolvable"])
        return DOMAIN_ERROR
    if args.mode == "svg":
        svg = tiling.render_svg(w, grid)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(svg)
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
    w = _load_tiles(args.tiles)
    try:
        grid = extraction.extract_tiling(model, args.point, args.k, w)
    except extraction.ExtractionError as e:
        _emit(out, args.format, [f"extraction failed: {e}"],
              [f"status=failed reason={str(e).replace(' ', '_')}"])
        return DOMAIN_ERROR
    names = " ".join(
        f"{c},{r}:{w.names[grid.tile_at(c, r)]}"
        for c in range(grid.width) for r in range(grid.height)
    )
    _emit(out, args.format,
          [f"extracted verified {args.k}x{args.k} tiling",
           tiling.render_ascii(w, grid).rstrip("\n")],
          [f"status=extracted k={args.k} cells={names}"])
    return 0


_MODE_NAMES = {"union": "union", "disjoint": "disjoint_union",
               "nonempty": "union_nonempty"}


def cmd_verify_lemma6(args, out) -> int:
    w = _load_tiles(args.tiles)
    try:
        p_str, q_str = args.period.split(",")
        periods = (int(p_str), int(q_str))
    except ValueError:
        raise CliError("--period expects P,Q") from None
    cells = {}
    for c in range(periods[0]):
        for r in range(periods[1]):
            cells[(c, r)] = 0
    if args.cells:
        try:
            assignments = dict(
                item.split(":") for item in args.cells.split(" ") if item
            )
            cells = {
                tuple(map(int, key.split(","))): w.names.index(name)
                for key, name in assignments.items()
            }
        except (ValueError, IndexError):
            raise CliError("--cells expects 'c,r:name c,r:name ...'") from None
    else:
        torus = tiling.find_torus(w, max(periods))
        if torus is None or torus.periods != periods:
            torus = _torus_with_period(w, periods)
        if torus is None:
            raise CliError(f"no torus tiling with period {periods}", DOMAIN_ERROR)
        cells = torus.cells
    tau = ps.TauOracle(tiling.PeriodicTiling(periods, cells))
    report = ps.check_refutation(w, tau, args.depth, _MODE_NAMES[args.mode])
    _emit(out, args.format, [report.render_text()], report.render_lines())
    return 0 if report.passed else DOMAIN_ERROR


def _torus_with_period(w: tiling.TileSet, periods: tuple[int, int]):
    p, q = periods
    cells: dict[tuple[int, int], int] = {}
    order = [(c, r) for c in range(p) for r in range(q)]

    def place(at: int) -> bool:
        if at == len(order):
            candidate = tiling.PeriodicTiling(periods, dict(cells))
            return tiling.torus_adjacency_ok(w, candidate) is None
        for i in range(len(w)):
            cells[order[at]] = i
            if place(at + 1):
                return True
            del cells[order[at]]
        return False

    if place(0):
        return tiling.PeriodicTiling(periods, cells)
    return None


def cmd_ptl_decide(args, out) -> int:
    try:
        f = team_logic.parse_team_formula(args.formula)
    except team_logic.TeamSyntaxError as e:
        raise CliError(str(e)) from None
    try:
        verdict = team_logic.ptl_decide(f)
    except ValueError as e:
        raise CliError(str(e)) from None
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
            srel = s_relation(frame)
            if args.format == "lines":
                out.append(f"frame={triples or '(empty)'} s_pairs={len(srel.pairs)}")
            else:
                out.append(f"frame: {triples or '(empty)'}")
        if args.limit and count >= args.limit:
            break
    if args.format == "lines":
        out.append(f"count={count}")
    else:
        out.append(f"{count} frame(s)")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilemodal",
        description="workbench for modal logic over associative frames",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("text", "lines"), default="text")
        return p

    p = add("parse-formula", cmd_parse_formula, help="parse and reprint a formula")
    p.add_argument("formula")
    p.add_argument("--desugar", action="store_true")

    p = add("gen-phi", cmd_gen_phi, help="print the tiling formula of a tile set")
    p.add_argument("--tiles", required=True)
    p.add_argument("--desugar", action="store_true")
    p.add_argument("--stats", action="store_true")

    p = add("check-assoc", cmd_check_assoc, help="check a frame for associativity")
    p.add_argument("--frame", required=True)

    p = add("model-check", cmd_model_check, help="evaluate a formula on a model")
    p.add_argument("--frame", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--world", type=int, default=None)

    p = add("frame-valid", cmd_frame_valid, help="decide validity on a frame")
    p.add_argument("--frame", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--strategy", choices=("exhaustive", "random"),
                   default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_positive_int, default=1000)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; validity runs in one process")

    p = add("countermodel", cmd_countermodel,
            help="search associative frames for a refuting model")
    p.add_argument("--formula", required=True)
    p.add_argument("--max-worlds", type=int, default=3)
    p.add_argument("--budget", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = add("tile-solve", cmd_tile_solve, help="tile a rectangle")
    p.add_argument("--tiles", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)

    p = add("tile-torus", cmd_tile_torus, help="find a periodic tiling")
    p.add_argument("--tiles", required=True)
    p.add_argument("--max-period", type=int, default=4)

    p = add("tile-render", cmd_tile_render, help="render a solved rectangle")
    p.add_argument("--tiles", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--mode", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--out", default=None)

    p = add("extract", cmd_extract,
            help="extract a verified tiling from a refuting model")
    p.add_argument("--frame", required=True)
    p.add_argument("--tiles", required=True)
    p.add_argument("--point", type=int, required=True)
    p.add_argument("--k", type=int, default=2)

    p = add("verify-lemma6", cmd_verify_lemma6,
            help="bounded check of the powerset refutation for a tile set")
    p.add_argument("--tiles", required=True)
    p.add_argument("--period", required=True, help="P,Q torus periods")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--mode", choices=tuple(_MODE_NAMES), default="union")
    p.add_argument("--cells", default=None,
                   help="explicit torus cells 'c,r:name ...' (skips search)")

    p = add("ptl-decide", cmd_ptl_decide, help="decide a team-logic formula")
    p.add_argument("formula")

    p = add("enum-frames", cmd_enum_frames, help="enumerate frames up to isomorphism")
    p.add_argument("--worlds", type=int, required=True)
    p.add_argument("--associative", action="store_true")
    p.add_argument("--limit", type=int, default=0)
    p.add_argument("--count", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
