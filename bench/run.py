"""Benchmark for the tilemodal command line, run from a source checkout.

    python3 bench/run.py --workload validity --seed 1 --seconds 60 --trace 0

Each query of the workload is one `tilemodal.cli.main(argv)` call with
`--format lines`, run in a child forked from a parent that holds only the
imports and the workload's inputs, so no state carries over from one
repetition to the next. Passes over the query list repeat for --seconds.
Each child first times a fixed piece of the benchmark's own work, the
yardstick, and then the query; the query's time over the yardstick's, times
YARDSTICK_S, is the repetition's time on a host where the yardstick takes
YARDSTICK_S. A query's time is the median of its repetitions. Every answer
is checked against the reference checkers; the last line of stdout is the
JSON result.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics from the traced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 9
MIN_PASSES = 2
#: About the yardstick's median in a query's child on a 2-core VM with
#: Python 3.11. Only the ratio of a time to the yardstick timed next to it
#: is measured; this constant turns that ratio back into seconds.
YARDSTICK_S = 0.006

sys.path.insert(0, str(BENCH))


def import_program():
    """Import tilemodal from this checkout's src, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import tilemodal
        import tilemodal.cli
    except ImportError as e:
        sys.exit(f"bench: cannot import tilemodal from {ROOT / 'src'}: {e}")
    if Path(tilemodal.__file__).resolve().parent != ROOT / "src" / "tilemodal":
        sys.exit(f"bench: tilemodal was imported from {tilemodal.__file__}")
    return tilemodal.cli


def build(workload: str, seed: int, tag: str):
    import workloads
    workdir = OUT / f"work-{workload}-{seed}-{tag}-{os.getpid()}"
    return workloads.build(workload, seed, workdir), workdir


# -- the yardstick ---------------------------------------------------------------

#: Fixed inputs of the yardstick: parse a formula, evaluate it under one
#: valuation on the 8-world union frame, and search a 2x3 torus for tiles
#: whose rows close only after five columns.
YARD_FORMULA = " & ".join(f"((p{i} o q) o r -> p{i} o (q o r)) | []~(p{i} @> q)"
                          for i in range(6))
YARD_TRIPLES = [(y | z, y, z) for y in range(8) for z in range(8)]
YARD_VALUATION = {**{f"p{i}": {i, 3 * i % 8} for i in range(6)}, "q": {1, 2, 5}, "r": {0, 7}}
YARD_TILES = [((j + 1) % 3, j, 10 + i, 10 + (i + 1) % 5) for i in range(5) for j in range(3)]


def yardstick() -> float:
    """Seconds this process takes for the yardstick's fixed work.

    It is the same kind of work the program does (tuples, sets and dicts in
    plain Python), taken from the reference checkers, which never change
    with the program. Host contention slows it and the query timed right
    after it alike, so the ratio of the two stays put."""
    import checkers as ck
    start = time.perf_counter()
    dag, root = ck.parse_modal(YARD_FORMULA)
    ck.holds_at(dag, root, 8, YARD_TRIPLES, YARD_VALUATION)
    ck.find_tiling(YARD_TILES, 2, 3, True)
    return time.perf_counter() - start


def scaled(r: dict) -> float:
    """A time on a host where the yardstick takes YARDSTICK_S."""
    return r["time"] * YARDSTICK_S / r["yard"]


# -- one query in a forked child -----------------------------------------------


def run_query(cli, argv: list[str], traced: bool) -> dict:
    """Fork, run cli.main(argv) once, and return what the child measured."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 0
        try:
            os.close(read_fd)
            result = _child(cli, argv, traced)
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(result, pipe)
        except BaseException:
            traceback.print_exc()
            status = 1
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"query child failed: {argv}")
    return json.loads(payload)


def _child(cli, argv: list[str], traced: bool) -> dict:
    tracer = None
    if traced:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    yard = yardstick()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code = -1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"time": elapsed, "yard": yard, "code": code, "out": out.getvalue(),
              "err": err.getvalue(), "peak_kb": peak_kb}
    if tracer is not None:
        result["layers"] = tracer.layer_values()
        result["spans"] = tracer.spans
    return result


# -- set-up time ----------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """Child side of setup_time: import, build the inputs, say ready, then
    time the yardstick."""
    import_program()
    _, workdir = build(workload, seed, "setup")
    print("ready", flush=True)
    print(yardstick(), flush=True)
    shutil.rmtree(workdir, ignore_errors=True)


def setup_time(workload: str, seed: int) -> dict:
    """Seconds from starting a fresh interpreter to its first query ready,
    and the yardstick that interpreter timed next."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(Path(__file__)), "--workload", workload,
                           "--seed", str(seed), "--setup-probe"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        yard = proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed")
    return {"time": elapsed, "yard": float(yard)}


# -- passes ---------------------------------------------------------------------


def run_passes(cli, queries, seconds: float, trace: bool, setup):
    """Whole passes over the query list until the time is spent.

    Returns results[pass][query] and the set-up times. With trace, passes
    alternate untraced and traced, starting untraced, and each kind gets at
    least MIN_PASSES. Without, SETUP_REPEATS calls of setup() are spread
    evenly over the time between passes, so that their median samples the
    same stretch of host load as the passes.
    """
    passes: list[list[dict]] = []
    setups: list[dict] = []
    start = time.perf_counter()
    minimum = 2 * MIN_PASSES if trace else MIN_PASSES
    while True:
        while not trace and len(setups) < SETUP_REPEATS * min(
                1.0, (time.perf_counter() - start) / seconds):
            setups.append(setup())
        elapsed = time.perf_counter() - start
        if len(passes) >= minimum and (not trace or len(passes) % 2 == 0):
            if elapsed + elapsed / len(passes) > seconds:
                break
        traced = trace and len(passes) % 2 == 1
        passes.append([dict(run_query(cli, q.argv, traced), traced=traced)
                       for q in queries])
    while not trace and len(setups) < SETUP_REPEATS:
        setups.append(setup())
    return passes, setups


def check_answers(queries, passes) -> tuple[int, list[str]]:
    """Failed runs (known faults) and the errors of every wrong answer."""
    failed, errors = 0, []
    for i, q in enumerate(queries):
        answers = {(p[i]["code"], p[i]["out"]) for p in passes}
        if len(answers) != 1:
            errors.append(f"{q.name}: answers differ between repetitions")
            continue
        code, out = answers.pop()
        if q.known_fault is not None and q.known_fault(code, out):
            failed += len(passes)
            continue
        try:
            q.check(code, out)
        except Exception as e:  # a check that crashes is a wrong answer too
            err = passes[0][i]["err"].strip().splitlines()
            errors.append(f"{q.name}: {type(e).__name__}: {e}"
                          + (f" [stderr: {err[-1]}]" if err else ""))
    return failed, errors


def median_run(passes, i: int, traced: bool) -> dict:
    """Query i's repetition with the median scaled time (the lower one of
    an even count)."""
    runs = sorted((p[i] for p in passes if p[i]["traced"] == traced), key=scaled)
    return runs[(len(runs) - 1) // 2]


def query_times(passes, n: int, traced: bool) -> list[float]:
    """Each query's median scaled time over its repetitions."""
    return [statistics.median(scaled(p[i]) for p in passes if p[i]["traced"] == traced)
            for i in range(n)]


def end_to_end(queries, passes, setups) -> dict:
    times = query_times(passes, len(queries), False)
    peak = max(r["peak_kb"] for p in passes for r in p)
    return {
        "setup_s": {"value": statistics.median(map(scaled, setups)), "unit": "s"},
        "pass_s": {"value": sum(times), "unit": "s"},
        "query_p50_ms": {"value": 1000 * statistics.median(times), "unit": "ms"},
        "peak_rss_mb": {"value": peak / 1024, "unit": "MB"},
    }


def per_layer(queries, passes) -> tuple[dict, list[str]]:
    """Layer metrics summed over each query's median traced repetition,
    times scaled like the end-to-end ones."""
    import tracer as tracing
    notes = []
    totals: dict = {}
    for i, q in enumerate(queries):
        runs = [p[i] for p in passes if p[i]["traced"]]
        counts = [{k: v for k, v in r["layers"].items() if not isinstance(v, float)}
                  for r in runs]
        if any(c != counts[0] for c in counts):
            notes.append(f"{q.name}: counts differ between traced repetitions")
        run = median_run(passes, i, True)
        for metric, value in run["layers"].items():
            if isinstance(value, float):
                value = scaled({"time": value, "yard": run["yard"]})
            if isinstance(value, list):
                old = totals.get(metric, [0, 0])
                totals[metric] = [old[0] + value[0], old[1] + value[1]]
            else:
                totals[metric] = totals.get(metric, 0) + value
    metrics = {}
    for name, unit, _ in tracing.LAYER_METRICS:
        value = totals[name]
        if isinstance(value, list):
            value = value[0] / value[1] if value[1] else 0.0
        metrics[name] = {"value": value, "unit": unit}
    untraced = sum(query_times(passes, len(queries), False))
    traced = sum(query_times(passes, len(queries), True))
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    return metrics, notes


def write_files(name: str, queries, passes, result: dict, setups: list) -> None:
    """Per-query figures to <name>.json and, when traced, the spans of each
    query's median traced repetition to <name>.spans.jsonl. Times in the
    first file are as measured, not scaled."""
    OUT.mkdir(exist_ok=True)
    detail = {"result": result, "setups": setups, "queries": [
        {"name": q.name, "argv": q.argv,
         "times": [p[i]["time"] for p in passes if not p[i]["traced"]],
         "yardsticks": [p[i]["yard"] for p in passes if not p[i]["traced"]],
         "traced_times": [p[i]["time"] for p in passes if p[i]["traced"]],
         "code": passes[0][i]["code"], "out": passes[0][i]["out"]}
        for i, q in enumerate(queries)]}
    (OUT / f"{name}.json").write_text(json.dumps(detail, indent=1))
    if any(r["traced"] for r in passes[-1]):
        with open(OUT / f"{name}.spans.jsonl", "w") as fh:
            for i, q in enumerate(queries):
                for span_name, start, end, parent in median_run(passes, i, True)["spans"]:
                    fh.write(json.dumps({"query": q.name, "name": span_name, "start": start,
                                         "end": end, "parent": parent}) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("validity", "search-pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    cli = import_program()
    queries, workdir = build(args.workload, args.seed, "run")
    try:
        gc.collect()
        gc.freeze()
        passes, setups = run_passes(cli, queries, args.seconds, bool(args.trace),
                                    lambda: setup_time(args.workload, args.seed))
        gc.unfreeze()
        failed, errors = check_answers(queries, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for e in errors:
        print(f"bench: wrong answer: {e}", file=sys.stderr)
    if args.trace:
        metrics, notes = per_layer(queries, passes)
        for note in notes:
            print(f"bench: {note}", file=sys.stderr)
    else:
        metrics = end_to_end(queries, passes, setups)
    result = {"correct": not errors, "attempted": len(queries) * len(passes),
              "failed": failed, "metrics": metrics}
    write_files(f"{args.workload}-seed{args.seed}-trace{args.trace}", queries, passes,
                result, setups)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
