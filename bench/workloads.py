"""The workloads: fixed query lists generated from a seed.

A seed changes names, colours, world labels and the random frames, never
the shape of a query list: every list has the same commands on frames and
tile sets of the same size and match structure, so that a run's cost
depends on the program and not on the seed. Every query carries a check
that judges the program's exit code and output with the reference
checkers, which never import tilemodal.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checkers as ck

#: Letter and tile names drawn by the seed. All sort before the structural
#: letters x', x_e, ..., so a tile letter always comes first in an inventory.
NAME_POOL = tuple(f"{c}{d}" for c in "abcdefghijklmnpqrsuvw" for d in "0123456789")

BUDGET_THAT_CANNOT_BIND = str(10 ** 12)


class Mismatch(Exception):
    """The program's answer disagrees with the reference checkers."""


@dataclass
class Query:
    name: str
    argv: list[str]
    check: Callable[[int, str], None]
    #: Returns True on the output of a known program fault; such a run is
    #: counted as failed instead of incorrect.
    known_fault: Callable[[int, str], bool] | None = None


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def _kv(line: str) -> dict[str, str]:
    return dict(item.split("=", 1) for item in line.split())


def _cells(text: str) -> dict[tuple[int, int], str]:
    out = {}
    for item in text.split():
        at, name = item.split(":")
        c, r = at.split(",")
        out[(int(c), int(r))] = name
    return out


# -- input files ---------------------------------------------------------------


class Inputs:
    """Writes a workload's frame and tile files into one directory."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def _write(self, suffix: str, text: str) -> str:
        self.count += 1
        path = self.dir / f"in{self.count:03d}{suffix}"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def frame(self, n: int, triples, valuation=None) -> str:
        lines = [f"worlds {n}"] + [f"{x} {y} {z}" for x, y, z in sorted(triples)]
        for p, ws in sorted((valuation or {}).items()):
            lines.append(f"val {p}: " + " ".join(map(str, sorted(ws))))
        return self._write(".frame", "\n".join(lines) + "\n")

    def tiles(self, names, tiles) -> str:
        lines = [f"{nm} {u} {d} {l} {r}" for nm, (u, d, l, r) in zip(names, tiles)]
        return self._write(".tiles", "\n".join(lines) + "\n")


# -- frames and frame conditions -----------------------------------------------


def powerset(k: int, mode: str) -> tuple[int, set]:
    """Subsets of k elements under union; world i is subset i (+1 when the
    empty set is dropped). Modes: union, disjoint, nonempty."""
    start = 1 if mode == "nonempty" else 0
    subs = range(start, 1 << k)
    triples = {((y | z) - start, y - start, z - start)
               for y in subs for z in subs if not (mode == "disjoint" and y & z)}
    return (1 << k) - start, triples


def relabel(rng: random.Random, n: int, triples) -> set:
    perm = list(range(n))
    rng.shuffle(perm)
    return {(perm[x], perm[y], perm[z]) for x, y, z in triples}


def semilattice(rng: random.Random, n: int, chain: bool = False) -> set:
    """Join table of a random union-closed family of exactly n sets."""
    while True:
        if chain:
            family = {(1 << i) - 1 for i in range(n)}
        else:
            family = {rng.getrandbits(5) for _ in range(rng.randint(2, n))}
            changed = True
            while changed:
                changed = False
                for a in list(family):
                    for b in list(family):
                        if a | b not in family:
                            family.add(a | b)
                            changed = True
        if len(family) != n:
            continue
        order = sorted(family)
        rng.shuffle(order)
        idx = {s: i for i, s in enumerate(order)}
        return {(idx[a | b], idx[a], idx[b]) for a in family for b in family}


def random_frame(rng: random.Random, n: int, density: float, want) -> set:
    while True:
        triples = {t for t in itertools.product(range(n), repeat=3)
                   if rng.random() < density}
        if want(n, triples):
            return triples


def is_assoc(n, triples) -> bool:
    return ck.associativity_failure(n, triples) is None


def cond_commute(n, t):
    return all((x, z, y) in t for x, y, z in t)


def cond_square(n, t):
    return all((x, x, x) in t for x in range(n))


def cond_idem(n, t):
    return all(x in (y, z) for x, y, z in t)


def _assoc_half(n, t, forward: bool) -> bool:
    for x, a, b, c in itertools.product(range(n), repeat=4):
        left = any((x, y, c) in t and (y, a, b) in t for y in range(n))
        right = any((x, a, z) in t and (z, b, c) in t for z in range(n))
        if (left and not right) if forward else (right and not left):
            return False
    return True


def cond_assoc_lr(n, t):
    return _assoc_half(n, t, True)


def cond_assoc_rl(n, t):
    return _assoc_half(n, t, False)


def cond_unit(n, t):
    return all(any((x, x, z) in t for z in range(n)) for x in range(n))


def cond_box_t(n, t):
    return all((x, x) in ck.s_pairs(n, t) for x in range(n))


def cond_proj(n, t):
    return all(x == y for x, y, _ in t)


#: Axiom templates over the letters A, B, C, each with the first-order
#: condition on the triples under which it is valid on a frame.
AXIOMS = {
    "commute": ("A o B -> B o A", cond_commute),
    "square": ("A -> A o A", cond_square),
    "idem": ("A o A -> A", cond_idem),
    "assoc_lr": ("(A o B) o C -> A o (B o C)", cond_assoc_lr),
    "assoc_rl": ("A o (B o C) -> (A o B) o C", cond_assoc_rl),
    "unit": ("A -> A o T", cond_unit),
    "box_t": ("[]A -> A", cond_box_t),
    "proj": ("A o B -> A", cond_proj),
}


def instantiate(template: str, names: list[str]) -> str:
    for slot, name in zip("ABC", names):
        template = template.replace(slot, name)
    return template


# -- validity ------------------------------------------------------------------


def _valuation_text(masks: dict[str, int]) -> str:
    parts = []
    for p in sorted(masks):
        if masks[p]:
            ws = [w for w in range(masks[p].bit_length()) if masks[p] >> w & 1]
            parts.append(f"{p}:" + ",".join(map(str, ws)))
    return "|".join(parts)


def exhaustive_answer(formula: str, n: int, triples) -> tuple[int, str]:
    """The exit code and line frame-valid must print: valid, or the least
    refutation by valuation index and then world."""
    dag, root = ck.parse_modal(formula)
    inventory = sorted(dag.letters(root))
    hit = ck.least_refutation(dag, root, n, triples, inventory)
    if hit is None:
        return 0, "status=valid"
    index, world = hit
    full = (1 << n) - 1
    masks = {p: index >> (j * n) & full for j, p in enumerate(inventory)}
    return 1, f"status=refuted world={world} valuation={_valuation_text(masks)}"


def _check_exhaustive(formula: str, n: int, triples, cond):
    def check(code: int, out: str) -> None:
        want_code, want_line = exhaustive_answer(formula, n, triples)
        _expect(cond(n, triples) == (want_code == 0),
                "reference evaluator disagrees with the frame condition")
        _expect((code, out.strip()) == (want_code, want_line),
                f"expected {want_code} {want_line!r}, got {code} {out.strip()!r}")
    return check


def _parse_valuation(text: str) -> dict[str, set[int]]:
    val = {}
    for part in filter(None, text.split("|")):
        p, ws = part.split(":")
        val[p] = {int(w) for w in ws.split(",") if w}
    return val


def _check_random(formula: str, n: int, triples, cond, samples: int):
    def check(code: int, out: str) -> None:
        kv = _kv(out.strip())
        if kv.get("status") == "unknown":
            _expect(code == 0 and kv["reason"] == f"no_refutation_in_{samples}_samples",
                    f"bad unknown answer {out.strip()!r}")
            return
        _expect(code == 1 and kv.get("status") == "refuted", f"bad answer {out!r}")
        _expect(not cond(n, triples), "refuted a formula the frame validates")
        dag, root = ck.parse_modal(formula)
        truth = ck.holds_at(dag, root, n, triples, _parse_valuation(kv["valuation"]))
        world = int(kv["world"])
        _expect(not truth[world] and all(truth[:world]),
                f"world {world} is not the least falsified world")
    return check


def _check_ptl(formula: str):
    def check(code: int, out: str) -> None:
        f = ck.parse_team(formula)
        team = ck.least_counterteam(f)
        if team is None:
            want = (0, "status=valid")
        else:
            inventory = sorted(ck.team_letters(f))
            rows = ";".join(
                ",".join(f"{p}={r >> j & 1}" for j, p in enumerate(inventory))
                for r in range(1 << len(inventory)) if team >> r & 1)
            want = (1, f"status=refuted team={rows or '(empty)'}")
        _expect((code, out.strip()) == want, f"expected {want}, got {code} {out.strip()!r}")
    return check


def random_team_formula(rng: random.Random, letters, depth: int) -> str:
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(letters)
    if rng.random() < 0.2:
        return "~~(" + random_team_formula(rng, letters, depth - 1) + ")"
    op = rng.choice(("&", "|", "\\|/"))
    a = random_team_formula(rng, letters, depth - 1)
    b = random_team_formula(rng, letters, depth - 1)
    return f"({a}) {op} ({b})"


def validity(rng: random.Random, inputs: Inputs) -> list[Query]:
    queries: list[Query] = []

    def names(k: int) -> list[str]:
        return rng.sample(NAME_POOL, k)

    def exhaustive(tag: str, template: str, cond, n: int, triples, letters=None,
                   jobs: int = 1, fault=None) -> None:
        formula = instantiate(template, letters or names(3))
        argv = ["frame-valid", "--frame", inputs.frame(n, triples), "--formula", formula,
                "--jobs", str(jobs), "--format", "lines"]
        queries.append(Query(f"validity/{tag}", argv,
                             _check_exhaustive(formula, n, triples, cond), fault))

    def valid(tag: str, axiom: str, n: int, triples) -> None:
        exhaustive(tag, *AXIOMS[axiom], n, triples)

    def refuted(tag: str, axiom: str, draw) -> None:
        """Draw frames and names until the last letter of the least
        refutation is false outside the first three worlds, which bounds the
        valuations scanned before it by 8 * 2^(n * (letters - 1))."""
        template, cond = AXIOMS[axiom]
        while True:
            n, triples = draw()
            letters = names(3)
            dag, root = ck.parse_modal(instantiate(template, letters))
            inventory = sorted(dag.letters(root))
            cap = n * (len(inventory) - 1) + 3
            if ck.least_refutation(dag, root, n, triples, inventory, lanes_log=cap):
                exhaustive(tag, template, cond, n, triples, letters)
                return

    def sampled(tag: str, axiom: str, n: int, triples, samples: int) -> None:
        template, cond = AXIOMS[axiom]
        formula = instantiate(template, names(3))
        argv = ["frame-valid", "--frame", inputs.frame(n, triples), "--formula", formula,
                "--strategy", "random", "--seed", str(rng.randrange(10 ** 6)),
                "--samples", str(samples), "--format", "lines"]
        queries.append(Query(f"validity/{tag}", argv,
                             _check_random(formula, n, triples, cond, samples)))

    def pw(k, mode):
        n, t = powerset(k, mode)
        return n, relabel(rng, n, t)

    # valid: every valuation is scanned
    valid("valid-commute-semilattice6a", "commute", 6, semilattice(rng, 6))
    valid("valid-commute-semilattice6b", "commute", 6, semilattice(rng, 6))
    valid("valid-assoclr-punion2", "assoc_lr", *pw(2, "union"))
    valid("valid-assocrl-semilattice4", "assoc_rl", 4, semilattice(rng, 4))
    valid("valid-assoclr-pdisjoint2", "assoc_lr", *pw(2, "disjoint"))
    valid("valid-boxt-punion3", "box_t", *pw(3, "union"))
    valid("valid-square-semilattice8", "square", 8, semilattice(rng, 8))
    valid("valid-idem-chain8", "idem", 8, semilattice(rng, 8, chain=True))
    valid("valid-assoclr-found3", "assoc_lr", 3, random_frame(
        rng, 3, 0.2, lambda n, t: is_assoc(n, t) and len(t) >= 4))
    sampled("random-valid-commute-semilattice8", "commute", 8, semilattice(rng, 8), 3000)

    # refuted early
    refuted("refuted-idem-punion3", "idem", lambda: pw(3, "union"))
    refuted("refuted-proj-semilattice3", "proj", lambda: (3, semilattice(rng, 3)))
    refuted("refuted-square-pdisjoint3", "square", lambda: pw(3, "disjoint"))
    refuted("refuted-boxt-random3", "box_t", lambda: (3, random_frame(
        rng, 3, 0.15, lambda n, t: not cond_box_t(n, t))))
    refuted("refuted-assoclr-random2", "assoc_lr", lambda: (2, random_frame(
        rng, 2, 0.4, lambda n, t: not cond_assoc_lr(n, t))))
    refuted("refuted-commute-found3", "commute", lambda: (3, random_frame(
        rng, 3, 0.2, lambda n, t: is_assoc(n, t) and not cond_commute(n, t))))
    refuted("refuted-unit-random4", "unit", lambda: (4, random_frame(
        rng, 4, 0.1, lambda n, t: not cond_unit(n, t))))
    refuted("refuted-idem-semilattice8", "idem", lambda: (8, semilattice(rng, 8)))
    refuted("refuted-proj-punion2", "proj", lambda: pw(2, "union"))
    refuted("refuted-square-random3", "square", lambda: (3, random_frame(
        rng, 3, 0.2, lambda n, t: not cond_square(n, t))))
    refuted("refuted-idem-random3", "idem", lambda: (3, random_frame(
        rng, 3, 0.2, lambda n, t: not cond_idem(n, t))))
    refuted("refuted-proj-random4", "proj", lambda: (4, random_frame(
        rng, 4, 0.1, lambda n, t: not cond_proj(n, t))))
    refuted("refuted-commute-random3", "commute", lambda: (3, random_frame(
        rng, 3, 0.2, lambda n, t: not cond_commute(n, t))))
    refuted("refuted-assocrl-random2", "assoc_rl", lambda: (2, random_frame(
        rng, 2, 0.4, lambda n, t: not cond_assoc_rl(n, t))))
    refuted("refuted-unit-random3", "unit", lambda: (3, random_frame(
        rng, 3, 0.2, lambda n, t: not cond_unit(n, t))))
    refuted("refuted-boxt-random4", "box_t", lambda: (4, random_frame(
        rng, 4, 0.1, lambda n, t: not cond_box_t(n, t))))
    sampled("random-refuted-idem-punion3", "idem", *pw(3, "union"), 3000)

    # fixed inputs: the process pool against one process. Without this
    # triple the least refutation is valuation 160 of 2^14, and the upper
    # half of the valuations, the second chunk of two, holds none
    n, triples = powerset(3, "nonempty")
    triples.discard((6, 0, 5))
    for jobs in (1, 2):
        exhaustive(f"pool-commute-pnonempty3-jobs{jobs}", *AXIOMS["commute"], n, triples,
                   ["p", "q"], jobs=jobs)

    # fixed inputs: the reserved constant letter is counted against the bit
    # limit although it is never enumerated, so this query answers unknown
    n, triples = powerset(4, "nonempty")
    exhaustive("fault-top-letter-pnonempty4", "A o (A | F) -> A", cond_idem, n, triples,
               ["p"], fault=lambda code, out: out.strip()
               == "status=unknown reason=exhaustive_budget_exceeded")

    for i in range(4):
        formula = random_team_formula(rng, names(2), 3)
        queries.append(Query(f"validity/ptl-{i}",
                             ["ptl-decide", formula, "--format", "lines"],
                             _check_ptl(formula)))
    return queries


# -- search --------------------------------------------------------------------


def phi_text(tile_names, tiles) -> str:
    """phi(W) as the program prints it: gen-phi is the route a user takes."""
    from tilemodal import formula as fm, reduction, tiling
    w = tiling.TileSet(tuple(tile_names), tuple(tiling.Tile(*t) for t in tiles))
    return fm.render(reduction.phi(w))


def _check_countermodel(formula: str, max_worlds: int):
    def check(code: int, out: str) -> None:
        dag, root = ck.parse_modal(formula)
        least = ck.least_countermodel_size(dag, root, min(max_worlds, 2))
        lines = out.strip().split("\n")
        if least is None:
            _expect(max_worlds <= 2, "no reference for a search past two worlds")
            _expect((code, lines) == (0, ["status=exhausted"]),
                    f"expected no countermodel, got {code} {out.strip()!r}")
            return
        _expect(code == 0 and len(lines) == 3, f"bad answer {out.strip()!r}")
        head = _kv(lines[0])
        n, world = int(head["size"]), int(head["world"])
        _expect(head["status"] == "refuted" and n == least,
                f"countermodel of size {n}, least is {least}")
        triples = [tuple(map(int, t.split(","))) for t in lines[1][len("triples="):].split()]
        _expect(is_assoc(n, triples), "countermodel frame is not associative")
        val = _parse_valuation(lines[2][len("valuation="):])
        _expect(not ck.holds_at(dag, root, n, triples, val)[world],
                f"formula holds at world {world}")
    return check


def _check_enum(n: int, limit: int):
    def check(code: int, out: str) -> None:
        lines = out.strip().split("\n")
        frames = lines[:-1]
        _expect(code == 0 and lines[-1] == f"count={len(frames)}", "bad count line")
        codes = []
        for line in frames:
            body, _, spairs = line[len("frame="):].rpartition(" s_pairs=")
            triples = [] if body == "(empty)" else [
                tuple(map(int, t.split(","))) for t in body.split()]
            _expect(is_assoc(n, triples), f"not associative: {body}")
            _expect(int(spairs) == len(ck.s_pairs(n, triples)), f"S size wrong: {line}")
            code_ = ck.frame_code(n, triples)
            _expect(code_ == ck.canonical_code(n, triples), f"not canonical: {body}")
            codes.append(code_)
        _expect(codes == sorted(set(codes)), "frames not in ascending code order")
        if limit:
            _expect(len(frames) == limit, f"expected {limit} frames")
        else:
            want = sorted({ck.canonical_code(n, t) for t in ck.associative_frames(n)})
            _expect(codes == want, "not every associative frame up to isomorphism")
    return check


#: Tile sets for phi(W) as colour patterns: equal numbers are equal colours.
#: The patterns fix the match structure, so phi(W) has the same shape for
#: every seed; the seed picks the colours and the names.
PHI_PATTERNS = (
    ((0, 0, 1, 1),),                          # one tile, tiles the plane
    ((0, 0, 1, 2), (0, 0, 2, 1)),             # two tiles alternating in rows
    ((0, 1, 2, 2),),                          # one tile that cannot stack
    ((0, 1, 2, 3), (1, 0, 3, 2)),             # a 2x2 checkerboard
    ((0, 0, 1, 2), (0, 0, 2, 3), (0, 0, 3, 1)),  # rows of period 3
    ((0, 1, 2, 2), (1, 2, 2, 2)),             # a column two tiles high
)


def search(rng: random.Random, inputs: Inputs) -> list[Query]:
    queries: list[Query] = []

    def tileset(pattern):
        palette = rng.sample(range(10, 99), 4)
        tiles = [tuple(palette[i] for i in tile) for tile in pattern]
        return sorted(rng.sample(NAME_POOL, len(tiles))), tiles

    def countermodel(tag: str, formula: str, max_worlds: int) -> None:
        argv = ["countermodel", "--formula", formula, "--max-worlds", str(max_worlds),
                "--budget", BUDGET_THAT_CANNOT_BIND, "--format", "lines"]
        queries.append(Query(f"search/{tag}", argv,
                             _check_countermodel(formula, max_worlds)))

    for i, pattern in enumerate(PHI_PATTERNS):
        countermodel(f"phi-{i}-w1", phi_text(*tileset(pattern)), 1)

    # sorted, so that the letters keep their order in the inventory
    a, b, c = sorted(rng.sample(NAME_POOL, 3))
    for axiom in ("commute", "square", "idem", "box_t", "proj"):
        countermodel(f"{axiom}-w3", instantiate(AXIOMS[axiom][0], [a, b, c]), 3)
    countermodel("associativity-w2", f"({a} o {b}) o {c} <-> {a} o ({b} o {c})", 2)

    queries.append(Query("search/enum-assoc-w3-first20",
                         ["enum-frames", "--worlds", "3", "--associative",
                          "--limit", "20", "--format", "lines"], _check_enum(3, 20)))
    queries.append(Query("search/enum-assoc-w2-all",
                         ["enum-frames", "--worlds", "2", "--associative",
                          "--format", "lines"], _check_enum(2, 0)))
    return queries


# -- pipeline ------------------------------------------------------------------


def torus_tileset(rng: random.Random, p: int, q: int):
    """One tile per cell of a p x q torus, every edge of its own colour, so
    each tile matches exactly its torus neighbours."""
    palette = iter(rng.sample(range(10, 99), 2 * p * q))
    h = {(c, r): next(palette) for c in range(p) for r in range(q)}
    v = {(c, r): next(palette) for c in range(p) for r in range(q)}
    cells = {(c, r): c * q + r for c in range(p) for r in range(q)}
    tiles = [(v[(c, r)], v[(c, (r - 1) % q)], h[((c - 1) % p, r)], h[(c, r)])
             for c in range(p) for r in range(q)]
    return tiles, cells


def quotient_model(periods, cells, names) -> tuple[int, set, dict[str, set[int]], int]:
    """25-world quotient of the powerset-of-naturals model by the shape of
    each parity side: empty, singleton, larger finite, cofinite with an even
    or with an odd removal. Returns (worlds, triples, valuation, refutation
    point); the torus periods must divide 2."""
    empty, single, big, cof_even, cof_odd = range(5)

    def side_union(a, b):
        if a == empty or b == empty:
            return {a if b == empty else b}
        if a <= big and b <= big:
            return {single, big} if a == b == single else {big}
        return {cof_even, cof_odd}

    def idx(ev, od):
        return ev * 5 + od

    triples = set()
    for y in range(25):
        for z in range(25):
            for ev in side_union(y // 5, z // 5):
                for od in side_union(y % 5, z % 5):
                    triples.add((idx(ev, od), y, z))
    val = {"x_e": {idx(cof_even, empty)}, "x_o": {idx(cof_odd, empty)},
           "y_e": {idx(empty, cof_even)}, "y_o": {idx(empty, cof_odd)},
           "x'": {idx(single, empty)}, "y'": {idx(empty, single)}}
    p, q = periods
    for i in range(2):
        for j in range(2):
            val.setdefault(names[cells[(i % p, j % q)]], set()).add(
                idx(cof_even + i, cof_even + j))
    return 25, triples, val, idx(cof_even, cof_even)


CONJUNCTS = ["seed", "alpha1", "alpha2", "alpha3", "alpha4", "beta1", "beta2"] + [
    f"gamma{i}{d}" for i in range(1, 5) for d in "hv"]


def _check_lemma6(genuine: bool):
    def check(code: int, out: str) -> None:
        rows = [_kv(line) for line in out.strip().split("\n")]
        _expect([r["conjunct"] for r in rows] == CONJUNCTS, "wrong conjunct list")
        failed = [r["conjunct"] for r in rows if r["status"] != "pass"]
        if genuine:
            _expect(code == 0 and not failed and all(r["state"] == "-" for r in rows),
                    f"genuine torus failed {failed}")
        else:
            _expect(code == 1 and failed and all(c.startswith("gamma") for c in failed),
                    f"corrupted torus: failed {failed}, exit {code}")
    return check


def _check_gen_phi(names, tiles, model):
    def check(code: int, out: str) -> None:
        lines = out.strip().split("\n")
        _expect(code == 0 and lines[0].startswith("formula="), "bad gen-phi output")
        dag, root = ck.parse_modal(lines[0][len("formula="):])
        letters = dag.letters(root)
        _expect(letters == set(names) | {"x_e", "x_o", "y_e", "y_o", "x'", "y'"},
                "wrong letters")
        stats = {k: int(v) for k, v in (line.split("=") for line in lines[1:])}
        want = {"conjuncts": 15, "letters": len(letters) + dag.has_constant(root),
                "nodes": dag.tree_size[root], "tiles": len(tiles)}
        _expect(stats == want, f"stats {stats}, expected {want}")
        n, triples, val, point = model
        _expect(not ck.holds_at(dag, root, n, triples, val)[point],
                "phi(W) holds at the quotient model's refutation point")
    return check


def _read_grid(code: int, out: str, names) -> tuple[dict, dict]:
    head, _, cells = out.strip().partition(" cells=")
    _expect(code == 0 and cells, f"bad answer {out.strip()!r}")
    return _kv(head), {at: names.index(nm) for at, nm in _cells(cells).items()}


def _check_grid(tiles, names, width, height):
    """A width x height grid whose shared edges all match."""
    def check(code: int, out: str) -> None:
        _, cells = _read_grid(code, out, names)
        _expect(set(cells) == {(c, r) for c in range(width) for r in range(height)},
                "cells do not cover the grid")
        _expect(ck.adjacency_failure(tiles, cells, width, height, False) is None,
                "returned grid breaks an adjacency")
    return check


def _check_torus(tiles, names):
    """A torus that matches across its wrap-around edges, with no torus of a
    lexicographically smaller period."""
    def check(code: int, out: str) -> None:
        head, cells = _read_grid(code, out, names)
        p, q = map(int, head["period"].split(","))
        _expect(set(cells) == {(c, r) for c in range(p) for r in range(q)},
                "cells do not cover the torus")
        _expect(ck.adjacency_failure(tiles, cells, p, q, True) is None,
                "returned torus breaks an adjacency")
        for smaller in itertools.product(range(1, 5), repeat=2):
            if smaller < (p, q):
                _expect(ck.find_tiling(tiles, *smaller, True) is None,
                        f"a torus of period {smaller} exists")
    return check


def _check_no_small_torus(tiles):
    def check(code: int, out: str) -> None:
        _expect((code, out.strip()) == (1, "status=none"), f"got {code} {out.strip()!r}")
        # each tile's right colour is the successor of its left colour in one
        # 5-cycle, so a row closes up only after a multiple of 5 columns
        succ = {}
        for _u, _d, left, right in tiles:
            _expect(succ.setdefault(left, right) == right, "two right colours")
        cycle = [tiles[0][2]]
        while succ[cycle[-1]] != cycle[0]:
            cycle.append(succ[cycle[-1]])
        _expect(len(cycle) == 5 == len(succ), "horizontal colours are not one 5-cycle")
    return check


def _check_unsolvable(tiles, width, height):
    def check(code: int, out: str) -> None:
        _expect((code, out.strip()) == (1, "status=unsolvable"), f"got {out.strip()!r}")
        _expect(ck.find_tiling(tiles, width, height, False) is None,
                "the reference tiler finds a tiling")
    return check


def _check_corrupted(tiles, cells, periods):
    lemma6 = _check_lemma6(False)

    def check(code: int, out: str) -> None:
        _expect(ck.adjacency_failure(tiles, cells, *periods, True) is not None,
                "the corrupted torus is a genuine tiling")
        lemma6(code, out)
    return check


def pipeline(rng: random.Random, inputs: Inputs) -> list[Query]:
    queries: list[Query] = []
    sets = {}
    for periods in ((1, 1), (2, 1), (2, 2)):
        tiles, cells = torus_tileset(rng, *periods)
        names = sorted(rng.sample(NAME_POOL, len(tiles)))
        sets[periods] = (names, tiles, cells, inputs.tiles(names, tiles))

    def add(tag, argv, check):
        queries.append(Query(f"pipeline/{tag}", argv + ["--format", "lines"], check))

    for (p, q), (names, tiles, cells, path) in sets.items():
        add(f"gen-phi-{p}x{q}", ["gen-phi", "--tiles", path, "--stats"],
            _check_gen_phi(names, tiles, quotient_model((p, q), cells, names)))
    lemma6 = [((1, 1), 2, "union"), ((2, 1), 2, "disjoint"), ((2, 2), 2, "nonempty"),
              ((1, 1), 3, "disjoint")]
    for (p, q), depth, mode in lemma6:
        names, tiles, cells, path = sets[(p, q)]
        add(f"lemma6-{p}x{q}-d{depth}-{mode}",
            ["verify-lemma6", "--tiles", path, "--period", f"{p},{q}",
             "--depth", str(depth), "--mode", mode], _check_lemma6(True))
    names, tiles, cells, path = sets[(2, 1)]
    bad = {(0, 0): 0, (1, 0): 0}
    add("lemma6-corrupted-2x1-d2-union",
        ["verify-lemma6", "--tiles", path, "--period", "2,1", "--depth", "2",
         "--mode", "union", "--cells",
         " ".join(f"{c},{r}:{names[t]}" for (c, r), t in bad.items())],
        _check_corrupted(tiles, bad, (2, 1)))

    for k, periods in ((2, (1, 1)), (4, (2, 1)), (6, (2, 2))):
        names, tiles, cells, tile_path = sets[periods]
        n, triples, val, point = quotient_model(periods, cells, names)
        add(f"extract-{periods[0]}x{periods[1]}-k{k}",
            ["extract", "--frame", inputs.frame(n, triples, val), "--tiles", tile_path,
             "--point", str(point), "--k", str(k)],
            _check_grid(tiles, names, k, k))

    # fifteen tiles whose rows all have period 5: every torus up to 3 fails
    hcol, vcol = rng.sample(range(10, 99), 5), rng.sample(range(10, 99), 3)
    p5 = [(vcol[(j + 1) % 3], vcol[j], hcol[i], hcol[(i + 1) % 5])
          for i in range(5) for j in range(3)]
    add("torus-none-period5",
        ["tile-torus", "--tiles", inputs.tiles(sorted(rng.sample(NAME_POOL, 15)), p5),
         "--max-period", "3"],
        _check_no_small_torus(p5))
    for periods in ((2, 1), (2, 2)):
        names, tiles, cells, path = sets[periods]
        add(f"torus-{periods[0]}x{periods[1]}", ["tile-torus", "--tiles", path],
            _check_torus(tiles, names))
    for periods, (width, height) in (((2, 2), (5, 3)), ((2, 1), (6, 2))):
        names, tiles, cells, path = sets[periods]
        add(f"solve-{periods[0]}x{periods[1]}-{width}x{height}",
            ["tile-solve", "--tiles", path, "--width", str(width), "--height", str(height)],
            _check_grid(tiles, names, width, height))
    # two tiles that stack at most two high: the 3x3 square has no tiling
    c0, c1, c2, side = rng.sample(range(10, 99), 4)
    stack = [(c1, c0, side, side), (c2, c1, side, side)]
    add("solve-unsolvable-3x3",
        ["tile-solve", "--tiles", inputs.tiles(sorted(rng.sample(NAME_POOL, 2)), stack),
         "--width", "3", "--height", "3"],
        _check_unsolvable(stack, 3, 3))
    return queries


def search_pipeline(rng: random.Random, inputs: Inputs) -> list[Query]:
    """The search queries, then the pipeline queries.

    They share one workload so that a run can last long enough to repeat
    every query a dozen times within the time the benchmark is given. The
    per-layer metrics still tell the two halves apart, and neither half
    runs a valuation scan."""
    return search(rng, inputs) + pipeline(rng, inputs)


WORKLOADS = {"validity": validity, "search-pipeline": search_pipeline}


def build(workload: str, seed: int, workdir: Path) -> list[Query]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), Inputs(workdir))
