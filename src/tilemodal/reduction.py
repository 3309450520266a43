"""The computable reduction from tile sets to modal formulas.

A tile set W yields the negation of a 15-conjunct body: a seed product, four
successor conjuncts (the alphas), two bookkeeping conjuncts (the betas), and
eight step conjuncts (the gammas, a horizontal and a vertical one per parity
case). Construction order is fixed by the tile-list order, so equal inputs
give structurally identical formulas. One definition builds the conjuncts
either as trees or, for the evaluators, straight into a formula Dag.
"""

from __future__ import annotations

from functools import partial

from tilemodal import formula as fm
from tilemodal.formula import (
    And, Bottom, Box, Comp, HookL, HookR, Implies, Letter, Neg, Or, Top,
)
from tilemodal.tiling import TileSet, matches

#: The six non-tile letters, in display order.
STRUCTURAL_LETTERS = ("x_e", "x_o", "y_e", "y_o", "x'", "y'")

#: Parity cases in the fixed order used by every conjunct: gamma case i+1
#: handles PARITY_PAIRS[i].
PARITY_PAIRS = (("e", "e"), ("e", "o"), ("o", "e"), ("o", "o"))


#: The node types, each its own builder: the tree route of the conjuncts.
_TREES = {node: node for node in (Letter, Neg, Or, And, Implies, Comp, HookR, HookL,
                                  Box, Top, Bottom)}


def letter_inventory(w: TileSet) -> tuple[str, ...]:
    """The tile letters, in tile-list order; raises ValueError on a structural
    letter or on TOP_LETTER, which desugared text spells T with."""
    for name in w.names:
        if name in STRUCTURAL_LETTERS or name == fm.TOP_LETTER:
            raise ValueError(f"tile name {name!r} collides with a structural letter")
    return w.names


def tile_literal(w: TileSet, t: int, dag: fm.Dag | None = None) -> fm.Formula | int:
    """The positive letter for tile t conjoined with the negations of all
    other tile letters; a one-tile set gives just the positive letter.
    With a Dag, its ops are added there and the root's index returned."""
    if not 0 <= t < len(w):
        raise IndexError(f"tile index {t} out of range")
    return _literal(w.names, t, _TREES if dag is None else fm.encoders(dag))


def match_formulas(w: TileSet, t: int) -> tuple[fm.Formula, fm.Formula]:
    """Disjunctions of tile literals over the right- and up-match sets of t;
    an empty match set gives F."""
    return _matches(w, t, [tile_literal(w, i) for i in range(len(w))], _TREES)


def _literal(names: tuple[str, ...], t: int, node: dict):
    """Tile t's literal among names, built with node (see conjuncts)."""
    letter, neg = node[Letter], node[Neg]
    return fm.fold(node[And], node[Top], [letter(names[t])] + [
        neg(letter(name)) for i, name in enumerate(names) if i != t])


def _matches(w: TileSet, t: int, literals: list, node: dict) -> tuple:
    """Tile t's right and up match disjunctions over the tile literals."""
    return tuple(fm.fold(node[Or], node[Bottom], [literals[i] for i in range(len(w)) if i in s])
                 for s in matches(w, t))


def _flip(p: str) -> str:
    return "o" if p == "e" else "e"


def conjuncts(w: TileSet, dag: fm.Dag | None = None) -> list[tuple[str, fm.Formula | int]]:
    """The named conjuncts of the body refuted by phi, in printed order.

    With a Dag, each conjunct's ops are added there with no tree in between,
    and its root's index, as dag.add would give it, stands for its tree:
    one definition drives both routes, building each node with node[T], the
    node type T itself or the Dag's encoder for it (fm.encoders). Each
    letter, parity product, tile literal and match disjunction is built once
    and shared by the conjuncts that use it."""
    letter_inventory(w)
    node = _TREES if dag is None else fm.encoders(dag)
    letter, neg, box, comp = node[Letter], node[Neg], node[Box], node[Comp]
    and_, or_, implies = node[And], node[Or], node[Implies]
    hook_r, hook_l = node[HookR], node[HookL]
    conj, disj = partial(fm.fold, and_, node[Top]), partial(fm.fold, or_, node[Bottom])
    xs = {p: letter(f"x_{p}") for p in "eo"}
    ys = {p: letter(f"y_{p}") for p in "eo"}
    xp, yp = letter("x'"), letter("y'")
    product = {(a, b): comp(xs[a], ys[b]) for a, b in PARITY_PAIRS}
    literals = [_literal(w.names, t, node) for t in range(len(w))]

    out = [("seed", product["e", "e"])]
    out.append(("alpha1", box(implies(xs["e"], comp(xp, xs["o"])))))
    out.append(("alpha2", box(implies(xs["o"], comp(xp, xs["e"])))))
    out.append(("alpha3", box(implies(ys["e"], comp(ys["o"], yp)))))
    out.append(("alpha4", box(implies(ys["o"], comp(ys["e"], yp)))))

    any_product = disj(list(product.values()))
    any_tile = disj(literals)
    out.append(("beta1", box(implies(any_product, any_tile))))

    exclusions = [implies(product[p], conj([
        neg(product[q]) for q in PARITY_PAIRS if q != p])) for p in PARITY_PAIRS]
    out.append(("beta2", box(conj(exclusions))))

    matched = [_matches(w, t, literals, node) for t in range(len(w))]
    for i, (a, b) in enumerate(PARITY_PAIRS, start=1):
        here = product[a, b]
        right_next = product[_flip(a), b]
        up_next = product[a, _flip(b)]
        h_cases = []
        v_cases = []
        for literal, (right, up) in zip(literals, matched):
            antecedent = and_(here, literal)
            h_cases.append(implies(antecedent, hook_r(xp, or_(here, and_(right_next, right)))))
            v_cases.append(implies(antecedent, hook_l(or_(here, and_(up_next, up)), yp)))
        out.append((f"gamma{i}h", box(conj(h_cases))))
        out.append((f"gamma{i}v", box(conj(v_cases))))
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
