import random

from tilemodal import formula as fm
from tilemodal import team_logic as tl

LETTER_POOL = ("p", "q", "r", "x_e", "x_o", "y_e", "y_o", "x'", "y'", "t1")


def random_formula(rng: random.Random, depth: int = 4, letters=LETTER_POOL) -> fm.Formula:
    """Uniform-ish random AST over every node type, for round-trip tests."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.randrange(3)
        if kind == 0:
            return fm.Letter(rng.choice(letters))
        return fm.Top() if kind == 1 else fm.Bottom()
    unary = (fm.Neg, fm.Box)
    binary = (fm.Or, fm.Comp, fm.And, fm.Implies, fm.Iff, fm.HookR, fm.HookL)
    if rng.random() < 0.3:
        return rng.choice(unary)(random_formula(rng, depth - 1, letters))
    node = rng.choice(binary)
    return node(random_formula(rng, depth - 1, letters),
                random_formula(rng, depth - 1, letters))


def random_team_formula(rng: random.Random, letters=("p", "q"), depth: int = 3):
    if depth == 0 or rng.random() < 0.3:
        return tl.Letter(rng.choice(letters))
    if rng.random() < 0.25:
        return tl.BoolNeg(random_team_formula(rng, letters, depth - 1))
    node = rng.choice((tl.And, tl.SplitOr, tl.GlobalOr))
    return node(
        random_team_formula(rng, letters, depth - 1),
        random_team_formula(rng, letters, depth - 1),
    )


def all_team_formulas(max_size: int, letters=("p", "q")):
    """Every team formula with at most max_size nodes over the letters."""
    by_size: dict[int, list] = {1: [tl.Letter(p) for p in letters]}
    for size in range(2, max_size + 1):
        out = [tl.BoolNeg(f) for f in by_size[size - 1]]
        for lsize in range(1, size - 1):
            rsize = size - 1 - lsize
            for left in by_size[lsize]:
                for right in by_size[rsize]:
                    out.extend(
                        (tl.And(left, right), tl.SplitOr(left, right),
                         tl.GlobalOr(left, right))
                    )
        by_size[size] = out
    return [f for fs in by_size.values() for f in fs]
