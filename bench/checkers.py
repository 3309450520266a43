"""Reference checkers for the benchmark, written apart from tilemodal.

Nothing here imports tilemodal. Each checker is the plainest route to its
answer, so that it can judge the program's output:

- a parser for the modal language that builds a hash-consed DAG, and a
  set-based evaluator over triples whose truth values are lane integers (one
  lane per valuation), so one pass decides a formula under every valuation;
- associativity, the derived S relation and canonical codes of frames;
- a parser and an evaluator for propositional team logic over bitmask teams;
- the Wang adjacency test, with and without wrap-around, and a small
  backtracking tiler that decides whether a rectangle or torus can be tiled.
"""

from __future__ import annotations

import itertools
import re

# -- modal language ------------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_SYMBOLS = ("<->", "->", "@>", "<@", "[]", "~", "&", "|", "(", ")")


class Dag:
    """Hash-consed formula: node i is (op, ...) with child ids below i.

    Ops: ("var", name), ("top",), ("bot",), ("not", a), ("or", a, b),
    ("and", a, b), ("imp", a, b), ("iff", a, b), ("dia", a, b),
    ("hookr", a, b), ("hookl", a, b), ("box", a).
    """

    def __init__(self):
        self.nodes: list[tuple] = []
        self._ids: dict[tuple, int] = {}
        self.tree_size: dict[int, int] = {}

    def add(self, *node) -> int:
        got = self._ids.get(node)
        if got is None:
            got = len(self.nodes)
            self.nodes.append(node)
            self._ids[node] = got
            kids = [c for c in node[1:] if isinstance(c, int)]
            self.tree_size[got] = 1 + sum(self.tree_size[c] for c in kids)
        return got

    def letters(self, root: int) -> set[str]:
        seen, out, stack = set(), set(), [root]
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            node = self.nodes[i]
            if node[0] == "var":
                out.add(node[1])
            else:
                stack.extend(c for c in node[1:] if isinstance(c, int))
        return out

    def has_constant(self, root: int) -> bool:
        stack, seen = [root], set()
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            node = self.nodes[i]
            if node[0] in ("top", "bot"):
                return True
            stack.extend(c for c in node[1:] if isinstance(c, int))
        return False


def _tokens(text: str) -> list[tuple[str, str]]:
    out, i = [], 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _IDENT.match(text, i)
        if m:
            word = m.group(0)
            out.append((word if word in ("o", "T", "F") else "ident", word))
            i = m.end()
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                out.append((sym, sym))
                i += len(sym)
                break
        else:
            raise ValueError(f"bad character {text[i]!r} at {i}")
    out.append(("end", ""))
    return out


def parse_modal(text: str, dag: Dag | None = None) -> tuple[Dag, int]:
    """Parse the modal concrete syntax into (dag, root id)."""
    dag = dag or Dag()
    toks = _tokens(text)
    pos = 0

    def peek() -> str:
        return toks[pos][0]

    def take(kind: str) -> None:
        nonlocal pos
        if toks[pos][0] != kind:
            raise ValueError(f"expected {kind}, found {toks[pos][1]!r}")
        pos += 1

    def iff() -> int:
        left = imp()
        if peek() == "<->":
            take("<->")
            return dag.add("iff", left, iff())
        return left

    def imp() -> int:
        left = hook()
        if peek() == "->":
            take("->")
            return dag.add("imp", left, imp())
        return left

    def hook() -> int:
        left = binary("|", "or", lambda: binary("&", "and", comp))
        if peek() in ("@>", "<@"):
            op = "hookr" if peek() == "@>" else "hookl"
            take(peek())
            return dag.add(op, left, binary("|", "or", lambda: binary("&", "and", comp)))
        return left

    def binary(sym: str, op: str, sub) -> int:
        acc = sub()
        while peek() == sym:
            take(sym)
            acc = dag.add(op, acc, sub())
        return acc

    def comp() -> int:
        return binary("o", "dia", unary)

    def unary() -> int:
        if peek() == "~":
            take("~")
            return dag.add("not", unary())
        if peek() == "[]":
            take("[]")
            return dag.add("box", unary())
        kind, value = toks[pos]
        if kind == "ident":
            take("ident")
            return dag.add("var", value)
        if kind in ("T", "F"):
            take(kind)
            return dag.add("top" if kind == "T" else "bot")
        take("(")
        inner = iff()
        take(")")
        return inner

    root = iff()
    take("end")
    return dag, root


def s_pairs(n: int, triples) -> set[tuple[int, int]]:
    """xSy when Rxzy, Rxyz, or Rxzb and Rzay for some z, a, b."""
    pairs = set()
    by_first: dict[int, list[tuple[int, int]]] = {}
    for x, y, z in triples:
        pairs.add((x, y))
        pairs.add((x, z))
        by_first.setdefault(x, []).append((y, z))
    for x, z, _b in triples:
        for _a, y in by_first.get(z, ()):
            pairs.add((x, y))
    return pairs


def evaluate(dag: Dag, root: int, n: int, triples, letters: dict[str, list[int]],
             ones: int) -> list[int]:
    """Truth of the root at each of the n worlds, as lane integers.

    letters maps a letter to its lane integer at each world; an absent
    letter is false everywhere. ones has every lane set; one lane gives the
    ordinary two-valued evaluation of a single valuation.
    """
    triples = list(triples)
    spairs = None
    vals: list[list[int]] = []
    for op, *args in dag.nodes[:root + 1]:
        if op == "var":
            v = letters.get(args[0], [0] * n)
        elif op == "top":
            v = [ones] * n
        elif op == "bot":
            v = [0] * n
        elif op == "not":
            v = [ones ^ a for a in vals[args[0]]]
        elif op == "box":
            if spairs is None:
                spairs = s_pairs(n, triples)
            a = vals[args[0]]
            v = [ones] * n
            for x, y in spairs:
                v[x] &= a[y]
        else:
            a, b = vals[args[0]], vals[args[1]]
            if op == "or":
                v = [p | q for p, q in zip(a, b)]
            elif op == "and":
                v = [p & q for p, q in zip(a, b)]
            elif op == "imp":
                v = [(ones ^ p) | q for p, q in zip(a, b)]
            elif op == "iff":
                v = [ones ^ (p ^ q) for p, q in zip(a, b)]
            elif op == "dia":
                v = [0] * n
                for x, y, z in triples:
                    v[x] |= a[y] & b[z]
            elif op == "hookr":
                v = [ones] * n
                for x, y, z in triples:
                    v[x] &= (ones ^ a[y]) | b[z]
            else:  # hookl: at x, every Rxyz with z in b has y in a
                v = [ones] * n
                for x, y, z in triples:
                    v[x] &= (ones ^ b[z]) | a[y]
        vals.append(v)
    return vals[root]


def lane_pattern(bit: int, lanes_log: int) -> int:
    """Lanes 0..2^lanes_log-1 whose index has the given bit set."""
    if bit >= lanes_log:
        return 0
    block = 1 << bit
    m = ((1 << block) - 1) << block
    width = 2 * block
    while width < (1 << lanes_log):
        m |= m << width
        width *= 2
    return m


def least_refutation(dag: Dag, root: int, n: int, triples, inventory: list[str],
                     lanes_log: int | None = None) -> tuple[int, int] | None:
    """Least (valuation index, world) falsifying the root, or None.

    Valuation index v gives letter j (in inventory order) the world mask
    (v >> j*n) & (2^n - 1). With lanes_log set, only the first 2^lanes_log
    valuations are tried.
    """
    total_log = n * len(inventory)
    lanes_log = total_log if lanes_log is None else min(lanes_log, total_log)
    ones = (1 << (1 << lanes_log)) - 1
    letters = {
        p: [lane_pattern(j * n + w, lanes_log) for w in range(n)]
        for j, p in enumerate(inventory)
    }
    truth = evaluate(dag, root, n, triples, letters, ones)
    failing = 0
    for t in truth:
        failing |= ones ^ t
    if not failing:
        return None
    index = (failing & -failing).bit_length() - 1
    world = next(x for x in range(n) if not (truth[x] >> index) & 1)
    return index, world


def holds_at(dag: Dag, root: int, n: int, triples, valuation: dict[str, set[int]]
             ) -> list[bool]:
    """Two-valued truth of the root at every world under one valuation."""
    letters = {p: [1 if w in ws else 0 for w in range(n)] for p, ws in valuation.items()}
    return [bool(t) for t in evaluate(dag, root, n, triples, letters, 1)]


def valid_on_frame(dag: Dag, root: int, n: int, triples) -> bool:
    inventory = sorted(dag.letters(root))
    return least_refutation(dag, root, n, triples, inventory) is None


# -- frames --------------------------------------------------------------------


def associativity_failure(n: int, triples) -> tuple[int, int, int, int] | None:
    """Some (x, a, b, c) where Rx(ab)c and Rxa(bc) disagree, or None.

    Rx(ab)c: some y has Rxyc and Ryab; Rxa(bc): some z has Rxaz and Rzbc.
    """
    tops: dict[tuple[int, int], set[int]] = {}
    for x, y, z in triples:
        tops.setdefault((y, z), set()).add(x)
    for a, b, c in itertools.product(range(n), repeat=3):
        left = set().union(*(tops.get((y, c), ()) for y in tops.get((a, b), ())))
        right = set().union(*(tops.get((a, z), ()) for z in tops.get((b, c), ())))
        if left != right:
            return min(left ^ right), a, b, c
    return None


def frame_code(n: int, triples) -> int:
    """Bit i set when the i-th triple in lexicographic order is present."""
    return sum(1 << (x * n * n + y * n + z) for x, y, z in triples)


def canonical_code(n: int, triples) -> int:
    """Least code over all relabellings of the worlds."""
    return min(
        frame_code(n, [(p[x], p[y], p[z]) for x, y, z in triples])
        for p in itertools.permutations(range(n))
    )


def triples_of_code(n: int, code: int) -> list[tuple[int, int, int]]:
    return [(i // (n * n), i // n % n, i % n) for i in range(n ** 3) if code >> i & 1]


def associative_frames(n: int) -> list[list[tuple[int, int, int]]]:
    """Every associative relation on n worlds (n <= 2), unreduced."""
    if n > 2:
        raise ValueError("brute force only up to two worlds")
    out = []
    for code in range(1 << n ** 3):
        triples = triples_of_code(n, code)
        if associativity_failure(n, triples) is None:
            out.append(triples)
    return out


def least_countermodel_size(dag: Dag, root: int, max_worlds: int) -> int | None:
    """Fewest worlds of an associative frame refuting the root (at most
    max_worlds <= 2), by trying every relation and every valuation."""
    inventory = sorted(dag.letters(root))
    for n in range(1, max_worlds + 1):
        for triples in associative_frames(n):
            if least_refutation(dag, root, n, triples, inventory) is not None:
                return n
    return None


# -- team logic ----------------------------------------------------------------

_TEAM_SYMBOLS = ("\\|/", "~~", "&", "|", "(", ")")


def parse_team(text: str) -> tuple:
    """Team formula as nested tuples: ("var", p), ("neg", a), ("and" |
    "split" | "global", a, b)."""
    toks, i = [], 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _IDENT.match(text, i)
        if m:
            toks.append(("ident", m.group(0)))
            i = m.end()
            continue
        for sym in _TEAM_SYMBOLS:
            if text.startswith(sym, i):
                toks.append((sym, sym))
                i += len(sym)
                break
        else:
            raise ValueError(f"bad character {text[i]!r} at {i}")
    toks.append(("end", ""))
    pos = 0

    def level(k: int):
        nonlocal pos
        if k == 3:
            if toks[pos][0] == "~~":
                pos += 1
                return ("neg", level(3))
            kind, value = toks[pos]
            pos += 1
            if kind == "ident":
                return ("var", value)
            if kind != "(":
                raise ValueError(f"unexpected {value!r}")
            inner = level(0)
            if toks[pos][0] != ")":
                raise ValueError("expected ')'")
            pos += 1
            return inner
        sym, op = (("\\|/", "global"), ("|", "split"), ("&", "and"))[k]
        acc = level(k + 1)
        while toks[pos][0] == sym:
            pos += 1
            acc = (op, acc, level(k + 1))
        return acc

    f = level(0)
    if toks[pos][0] != "end":
        raise ValueError("trailing input")
    return f


def team_letters(f: tuple) -> set[str]:
    if f[0] == "var":
        return {f[1]}
    return set().union(*(team_letters(g) for g in f[1:]))


def team_holds(f: tuple, team: int, inventory: list[str], memo=None) -> bool:
    """Team semantics; team is a bitmask over rows, row bit j is the value
    of inventory[j]. The empty team satisfies every formula but ~~."""
    memo = {} if memo is None else memo
    key = (id(f), team)
    if key in memo:
        return memo[key]
    op = f[0]
    if op == "var":
        j = inventory.index(f[1])
        got = all(row >> j & 1 for row in range(1 << len(inventory)) if team >> row & 1)
    elif op == "neg":
        got = not team_holds(f[1], team, inventory, memo)
    elif op == "and":
        got = (team_holds(f[1], team, inventory, memo)
               and team_holds(f[2], team, inventory, memo))
    elif op == "global":
        got = (team_holds(f[1], team, inventory, memo)
               or team_holds(f[2], team, inventory, memo))
    else:  # split: the team is the union of two subteams, overlap allowed
        got = False
        left = team
        while True:
            if team_holds(f[1], left, inventory, memo):
                must = team & ~left
                extra = left
                while True:
                    if team_holds(f[2], must | extra, inventory, memo):
                        got = True
                        break
                    if extra == 0:
                        break
                    extra = (extra - 1) & left
            if got or left == 0:
                break
            left = (left - 1) & team
    memo[key] = got
    return got


def least_counterteam(f: tuple) -> int | None:
    """First failing team by (size, bit pattern), or None when valid."""
    inventory = sorted(team_letters(f))
    memo: dict = {}
    rows = 1 << len(inventory)
    for team in sorted(range(1 << rows), key=lambda m: (bin(m).count("1"), m)):
        if not team_holds(f, team, inventory, memo):
            return team
    return None


# -- Wang tiles ----------------------------------------------------------------
# A tile is (up, down, left, right); cells map (col, row) to a tile index.


def adjacency_failure(tiles, cells: dict[tuple[int, int], int], width: int,
                      height: int, wrap: bool) -> tuple[int, int, str] | None:
    """First (col, row, edge) whose shared edge colours differ, or None.

    With wrap, the right neighbour of the last column is the first column
    and the upper neighbour of the top row is the bottom row."""
    for col in range(width):
        for row in range(height):
            here = tiles[cells[(col, row)]]
            if col + 1 < width or wrap:
                if here[3] != tiles[cells[((col + 1) % width, row)]][2]:
                    return col, row, "horizontal"
            if row + 1 < height or wrap:
                if here[0] != tiles[cells[(col, (row + 1) % height)]][1]:
                    return col, row, "vertical"
    return None


def find_tiling(tiles, width: int, height: int, wrap: bool
                ) -> dict[tuple[int, int], int] | None:
    """Any tiling of the width x height rectangle (or torus), or None."""
    order = [(c, r) for c in range(width) for r in range(height)]
    cells: dict[tuple[int, int], int] = {}

    def fits(col: int, row: int, t) -> bool:
        if col > 0 and tiles[cells[(col - 1, row)]][3] != t[2]:
            return False
        if row > 0 and tiles[cells[(col, row - 1)]][0] != t[1]:
            return False
        if wrap and col == width - 1:
            first = t if col == 0 else tiles[cells[(0, row)]]
            if t[3] != first[2]:
                return False
        if wrap and row == height - 1:
            bottom = t if row == 0 else tiles[cells[(col, 0)]]
            if t[0] != bottom[1]:
                return False
        return True

    def place(at: int) -> bool:
        if at == len(order):
            return True
        col, row = order[at]
        for i, t in enumerate(tiles):
            if fits(col, row, t):
                cells[(col, row)] = i
                if place(at + 1):
                    return True
                del cells[(col, row)]
        return False

    return dict(cells) if place(0) else None
