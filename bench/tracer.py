"""Spans and counters around tilemodal's public functions, from outside.

install() rebinds every tilemodal module attribute that refers to a wrapped
function, so calls made through `from x import f` bindings are seen too.
A span wrapper records (name, start, end, parent) in memory; a counter
wrapper only counts calls. Generators get one span per next(). Recursive
calls of a spanned function run unwrapped inside the outermost span.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

#: (module, function) -> span name; the span's time is reported as `.s`
#: (inclusive) or `.self_s` (minus wrapped children), see LAYER_METRICS.
SPANS = {
    ("cli", "main"): "cli.main",
    ("formula", "parse"): "formula.parse",
    ("formula", "desugar"): "formula.desugar",
    ("frames", "check_associative"): "frames.check_associative",
    ("semantics", "frame_validity"): "semantics.frame_validity",
    ("semantics", "countermodel_search"): "semantics.countermodel_search",
    ("team_logic", "ptl_decide"): "team_logic.ptl_decide",
    ("reduction", "phi"): "reduction.phi",
    ("powerset_symbolic", "check_refutation"): "powerset_symbolic.check_refutation",
    ("powerset_symbolic", "decompositions"): "powerset_symbolic.decompositions",
    ("extraction", "extract_axes"): "extraction.extract_axes",
    ("extraction", "extract_grid"): "extraction.extract_grid",
    ("extraction", "read_tiling"): "extraction.read_tiling",
    ("tiling", "find_torus"): "tiling.find_torus",
    ("tiling", "solve_rect"): "tiling.solve_rect",
}

#: (module, function) -> counter name, one count per call.
COUNTERS = {
    ("reduction", "conjuncts"): "reduction.conjuncts.calls",
    ("powerset_symbolic", "eval_atom"): "powerset_symbolic.eval_atom.calls",
    ("frames", "s_relation"): "frames.s_relation.calls",
    ("extraction", "assoc_witness"): "extraction.assoc_witness.calls",
    ("tiling", "torus_adjacency_ok"): "tiling.torus_adjacency_ok.calls",
    ("tiling", "verify_grid"): "tiling.verify_grid.calls",
    ("semantics", "ProcessPoolExecutor"): "semantics.pool.starts",
}

#: (module, class, method) -> counter name.
METHOD_COUNTERS = {
    ("frames", "Model", "__init__"): "frames.Model.builds",
    ("semantics", "Evaluator", "__init__"): "semantics.Evaluator.builds",
    ("semantics", "Evaluator", "mask"): "semantics.Evaluator.mask.calls",
}

#: Per-layer metrics in report order: (name, unit, source), where source is
#: ("self", span), ("total", span), ("count", counter) or a special case.
LAYER_METRICS = [
    ("cli.main.self_s", "s", ("self", "cli.main")),
    ("formula.parse.s", "s", ("total", "formula.parse")),
    ("formula.desugar.s", "s", ("total", "formula.desugar")),
    ("frames.enumerate_frames.frames", "count", ("count", "frames.enumerate_frames.frames")),
    ("frames.enumerate_frames.self_s", "s", ("self", "frames.enumerate_frames")),
    ("frames.check_associative.calls", "count", ("count", "frames.check_associative.calls")),
    ("frames.check_associative.s", "s", ("total", "frames.check_associative")),
    ("frames.assoc_yield", "ratio", ("ratio", "frames.enum.assoc_yielded",
                                     "frames.enum.assoc_checks")),
    ("frames.Model.builds", "count", ("count", "frames.Model.builds")),
    ("semantics.Evaluator.builds", "count", ("count", "semantics.Evaluator.builds")),
    ("semantics.frame_validity.self_s", "s", ("self", "semantics.frame_validity")),
    ("semantics.frame_validity.calls", "count", ("count", "semantics.frame_validity.calls")),
    ("semantics.pool.starts", "count", ("count", "semantics.pool.starts")),
    ("semantics.Evaluator.mask.calls", "count", ("count", "semantics.Evaluator.mask.calls")),
    ("semantics.countermodel_search.self_s", "s", ("self", "semantics.countermodel_search")),
    ("team_logic.ptl_decide.s", "s", ("total", "team_logic.ptl_decide")),
    ("reduction.phi.s", "s", ("total", "reduction.phi")),
    ("reduction.conjuncts.calls", "count", ("count", "reduction.conjuncts.calls")),
    ("powerset_symbolic.check_refutation.self_s", "s",
     ("self", "powerset_symbolic.check_refutation")),
    ("powerset_symbolic.decompositions.calls", "count",
     ("count", "powerset_symbolic.decompositions.calls")),
    ("powerset_symbolic.decompositions.s", "s", ("total", "powerset_symbolic.decompositions")),
    ("powerset_symbolic.eval_atom.calls", "count", ("count", "powerset_symbolic.eval_atom.calls")),
    ("powerset_symbolic.universe.states", "count", ("count", "powerset_symbolic.universe.states")),
    ("frames.s_relation.calls", "count", ("count", "frames.s_relation.calls")),
    ("extraction.extract_axes.s", "s", ("total", "extraction.extract_axes")),
    ("extraction.extract_grid.self_s", "s", ("self", "extraction.extract_grid")),
    ("extraction.read_tiling.s", "s", ("total", "extraction.read_tiling")),
    ("extraction.assoc_witness.calls", "count", ("count", "extraction.assoc_witness.calls")),
    ("tiling.find_torus.self_s", "s", ("self", "tiling.find_torus")),
    ("tiling.torus_adjacency_ok.calls", "count", ("count", "tiling.torus_adjacency_ok.calls")),
    ("tiling.solve_rect.s", "s", ("total", "tiling.solve_rect")),
    ("tiling.verify_grid.calls", "count", ("count", "tiling.verify_grid.calls")),
]


class Tracer:
    """Records spans and counts for one query in the current process."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()

    # -- wrappers --------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        self._active[name] += 1
        return index

    def _close(self, index: int) -> None:
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)
        self._stack.pop()
        self._active[name] -= 1

    def span(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._active[name]:
                return fn(*args, **kwargs)
            tracer.counts[name + ".calls"] += 1
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def universe(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            states = fn(*args, **kwargs)
            counts["powerset_symbolic.universe.states"] += len(states)
            return states
        return wrapper

    def enumerate_frames(self, fn):
        """One span per next(); counts frames yielded, and for associative
        enumerations the frames yielded against the associativity checks."""
        tracer = self
        name = "frames.enumerate_frames"

        def wrapper(*args, **kwargs):
            assoc = bool(args[1] if len(args) > 1 else kwargs.get("require_associative"))
            it = fn(*args, **kwargs)

            def frames():
                while True:
                    index = tracer._open(name)
                    checks = tracer.counts["frames.check_associative.calls"]
                    try:
                        frame = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index)
                        if assoc:
                            tracer.counts["frames.enum.assoc_checks"] += (
                                tracer.counts["frames.check_associative.calls"] - checks)
                    tracer.counts["frames.enumerate_frames.frames"] += 1
                    if assoc:
                        tracer.counts["frames.enum.assoc_yielded"] += 1
                    yield frame
            return frames()
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target in this process; meant for a forked child."""
        import tilemodal  # noqa: F401  (loads every submodule)
        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("tilemodal.")}
        wrappers = {}
        for (mod, attr), name in SPANS.items():
            wrappers[(mod, attr)] = self.span(name, getattr(mods[mod], attr))
        for (mod, attr), name in COUNTERS.items():
            wrappers[(mod, attr)] = self.counter(name, getattr(mods[mod], attr))
        wrappers[("frames", "enumerate_frames")] = self.enumerate_frames(
            mods["frames"].enumerate_frames)
        wrappers[("powerset_symbolic", "universe")] = self.universe(
            mods["powerset_symbolic"].universe)
        originals = {id(getattr(mods[mod], attr)): w for (mod, attr), w in wrappers.items()}
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        for (mod, cls, method), name in METHOD_COUNTERS.items():
            klass = getattr(mods[mod], cls)
            setattr(klass, method, self.counter(name, getattr(klass, method)))

    # -- aggregation -----------------------------------------------------

    def layer_values(self) -> dict[str, float]:
        """Every per-layer metric for the spans and counts recorded so far."""
        total: Counter = Counter()
        self_time: Counter = Counter()
        for name, start, end, parent in self.spans:
            total[name] += end - start
            self_time[name] += end - start
            if parent >= 0:
                self_time[self.spans[parent][0]] -= end - start
        out = {}
        for metric, _unit, source in LAYER_METRICS:
            kind = source[0]
            if kind == "self":
                out[metric] = float(self_time[source[1]])
            elif kind == "total":
                out[metric] = float(total[source[1]])
            elif kind == "count":
                out[metric] = self.counts[source[1]]
            else:
                out[metric] = [self.counts[source[1]], self.counts[source[2]]]
        return out
