"""The computable reduction from tile sets to modal formulas.

A tile set W yields the negation of a 15-conjunct body: a seed product, four
successor conjuncts (the alphas), two bookkeeping conjuncts (the betas), and
eight step conjuncts (the gammas, a horizontal and a vertical one per parity
case). Construction order is fixed by the tile-list order, so equal inputs
give structurally identical formulas.
"""

from __future__ import annotations

from tilemodal import formula as fm
from tilemodal.formula import And, Box, Comp, HookL, HookR, Implies, Letter, Neg
from tilemodal.tiling import TileSet, matches

#: The six non-tile letters, in display order.
STRUCTURAL_LETTERS = ("x_e", "x_o", "y_e", "y_o", "x'", "y'")

#: Parity cases in the fixed order used by every conjunct: gamma case i+1
#: handles PARITY_PAIRS[i].
PARITY_PAIRS = (("e", "e"), ("e", "o"), ("o", "e"), ("o", "o"))


def letter_inventory(w: TileSet) -> tuple[str, ...]:
    """The tile letters, in tile-list order; raises ValueError on a structural
    letter or on TOP_LETTER, which desugared text spells T with."""
    for name in w.names:
        if name in STRUCTURAL_LETTERS or name == fm.TOP_LETTER:
            raise ValueError(f"tile name {name!r} collides with a structural letter")
    return w.names


def tile_literal(w: TileSet, t: int) -> fm.Formula:
    """The positive letter for tile t conjoined with the negations of all
    other tile letters; a one-tile set gives just the positive letter."""
    if not 0 <= t < len(w):
        raise IndexError(f"tile index {t} out of range")
    parts: list[fm.Formula] = [Letter(w.names[t])]
    parts.extend(Neg(Letter(w.names[i])) for i in range(len(w)) if i != t)
    return fm.conj(parts)


def match_formulas(w: TileSet, t: int) -> tuple[fm.Formula, fm.Formula]:
    """Disjunctions of tile literals over the right- and up-match sets of t;
    an empty match set gives F."""
    right_set, up_set = matches(w, t)
    right = fm.disj([tile_literal(w, i) for i in range(len(w)) if i in right_set])
    up = fm.disj([tile_literal(w, i) for i in range(len(w)) if i in up_set])
    return right, up


def _product(a: str, b: str) -> fm.Formula:
    return Comp(Letter(f"x_{a}"), Letter(f"y_{b}"))


def _flip(p: str) -> str:
    return "o" if p == "e" else "e"


def conjuncts(w: TileSet) -> list[tuple[str, fm.Formula]]:
    """The named conjuncts of the body refuted by phi, in printed order."""
    letter_inventory(w)
    xe, xo = Letter("x_e"), Letter("x_o")
    ye, yo = Letter("y_e"), Letter("y_o")
    xp, yp = Letter("x'"), Letter("y'")
    n = len(w)

    out: list[tuple[str, fm.Formula]] = [("seed", Comp(xe, ye))]
    out.append(("alpha1", Box(Implies(xe, Comp(xp, xo)))))
    out.append(("alpha2", Box(Implies(xo, Comp(xp, xe)))))
    out.append(("alpha3", Box(Implies(ye, Comp(yo, yp)))))
    out.append(("alpha4", Box(Implies(yo, Comp(ye, yp)))))

    any_product = fm.disj([_product(a, b) for a, b in PARITY_PAIRS])
    any_tile = fm.disj([tile_literal(w, t) for t in range(n)])
    out.append(("beta1", Box(Implies(any_product, any_tile))))

    exclusions = []
    for a, b in PARITY_PAIRS:
        others = fm.conj([
            Neg(_product(a2, b2)) for a2, b2 in PARITY_PAIRS if (a2, b2) != (a, b)
        ])
        exclusions.append(Implies(_product(a, b), others))
    out.append(("beta2", Box(fm.conj(exclusions))))

    for i, (a, b) in enumerate(PARITY_PAIRS, start=1):
        here = _product(a, b)
        right_next = _product(_flip(a), b)
        up_next = _product(a, _flip(b))
        h_cases = []
        v_cases = []
        for t in range(n):
            right_formula, up_formula = match_formulas(w, t)
            antecedent = And(here, tile_literal(w, t))
            h_cases.append(Implies(
                antecedent,
                HookR(xp, fm.Or(here, And(right_next, right_formula))),
            ))
            v_cases.append(Implies(
                antecedent,
                HookL(fm.Or(here, And(up_next, up_formula)), yp),
            ))
        out.append((f"gamma{i}h", Box(fm.conj(h_cases))))
        out.append((f"gamma{i}v", Box(fm.conj(v_cases))))
    return out


def phi_body(w: TileSet) -> fm.Formula:
    return fm.conj([f for _, f in conjuncts(w)])


def phi(w: TileSet) -> fm.Formula:
    """The tiling formula for w: valid over the powerset-of-naturals frame
    exactly when w fails to tile the quadrant."""
    return Neg(phi_body(w))


def phi_stats(w: TileSet, f: fm.Formula | None = None) -> dict[str, int]:
    """Size figures of phi(w), read off f when the caller has built it: the
    conjuncts are the left spine of the body's left-folded conjunction,
    whose first conjunct, the seed, is a product."""
    if f is None:
        f = phi(w)
    body, count = f.sub, 1
    while isinstance(body, And):
        body, count = body.left, count + 1
    return {
        "nodes": fm.node_count(f),
        "letters": len(fm.letters(f) - {fm.TOP_LETTER}),
        "conjuncts": count,
        "tiles": len(w),
    }
