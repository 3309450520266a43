"""Propositional team logic: syntax, team semantics over families of teams,
the decision procedure, and the correspondence with powerset models.

A team is a set of classical valuations; split disjunction covers the team
by two subteams, exactly the binary diamond over the powerset-union frame
(principal valuations make the correspondence exact both ways). So team
formulas are the modal formulas built from letters by `~`, `&`, `|` and `o`:
Boolean negation is negation, global disjunction is disjunction, and split
disjunction is the diamond; translation is the identity on them. A formula
is evaluated on its Dag, one pass over the ops, as families: bitmasks of the
subteams that satisfy each op. A letter is a down-set, `~~`, `&` and `\\|/`
are bitwise, and `|` is the union product (zeta transform, pointwise
product, Moebius transform: Bjorklund, Husfeldt, Kaski and Koivisto, 2007).
Validity is one pass over all teams; 4-letter formulas take seconds.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence

from tilemodal import formula as fm
from tilemodal.frames import Model, bits, mask_of, powerset_frame
from tilemodal.record import Record
from tilemodal.semantics import Evaluator, dag_masks

#: The team connectives under their team names: split disjunction is the
#: diamond, global disjunction is disjunction, Boolean negation is negation.
Letter, And, SplitOr, GlobalOr, BoolNeg = fm.Letter, fm.And, fm.Comp, fm.Or, fm.Neg


def team_letters(f: fm.Formula) -> set[str]:
    return fm.letters(translate(f))


class Team(Record):
    """Valuations as bit rows over an ordered letter inventory."""

    __slots__ = ("inventory", "members")

    def __init__(self, inventory: tuple[str, ...], members: frozenset[int]):
        members = frozenset(members)
        limit = 1 << len(inventory)
        if any(not (0 <= row < limit) for row in members):
            raise ValueError("row out of range for the inventory")
        super().__init__(inventory, members)

    def value(self, row: int, letter: str) -> int:
        return (row >> self.inventory.index(letter)) & 1


def downset(top: int) -> int:
    """Mask of the subsets of top: bit w is set iff w & ~top == 0."""
    mask = 1
    for i in bits(top):
        mask |= mask << (1 << i)
    return mask


def _transform(v: list[int], op) -> list[int]:
    """For each bit i, v[S] = op(v[S], v[S without i]) at every S holding i,
    in place: add gives subset sums (zeta), sub undoes them (Moebius).

    Each step is a handful of slice operations: strided runs while the bit
    is low, contiguous blocks once it is high."""
    n, s = len(v), 1
    while s < n:
        if s * s < n:
            for t in range(s):
                v[s + t::2 * s] = map(op, v[s + t::2 * s], v[t::2 * s])
        else:
            for j in range(s, n, 2 * s):
                v[j:j + s] = map(op, v[j:j + s], v[j - s:j])
        s *= 2
    return v


def _union_product(f: int, g: int, n: int) -> int:
    """Family of the unions A | B with A in f and B in g, over n subteams.

    The subset sums of f and g multiply to the count of pairs inside each
    subteam; undoing the sums leaves the count of pairs whose union is it."""
    sums = (_transform(list(map(int, reversed(format(h, f"0{n}b")))), operator.add)
            for h in (f, g))
    pairs = _transform(list(map(operator.mul, *sums)), operator.sub)
    return int("".join("1" if c else "0" for c in reversed(pairs)), 2)


def _family(dag: fm.Dag, inventory: tuple[str, ...], rows: Sequence[int]) -> int:
    """Family of the Dag's last op over the subteams of rows: bit S is set
    iff the team of the rows[i] with bit i set in S satisfies the op."""
    n = 1 << len(rows)
    downsets = {p: downset(mask_of(i for i, r in enumerate(rows) if (r >> col) & 1))
                for col, p in enumerate(inventory)}
    return dag_masks(dag, downsets, (1 << n) - 1,
                     lambda f, g: _union_product(f, g, n))[-1]


def team_sat(t: Team, f: fm.Formula) -> bool:
    """Team satisfaction; the empty team satisfies every letter."""
    missing = team_letters(f) - set(t.inventory)
    if missing:
        raise ValueError(f"letters {sorted(missing)} not in inventory")
    # the whole team is the last subteam
    return bool(_family(fm.to_dag(f), t.inventory, sorted(t.members))
                >> ((1 << len(t.members)) - 1))


class TeamValid(Record):
    __slots__ = ()


class Counterteam(Record):
    __slots__ = ("team",)


def ptl_decide(f: fm.Formula) -> TeamValid | Counterteam:
    """Validity by one family over all teams on the letters of f.

    The counterteam is the least failing team by cardinality, then by
    lexicographic bit pattern over the row indices.
    """
    inventory = tuple(sorted(team_letters(f)))
    if len(inventory) > 4:
        raise ValueError("at most 4 letters are supported")
    rows = 1 << len(inventory)
    missing = ((1 << (1 << rows)) - 1) & ~_family(fm.to_dag(f), inventory, range(rows))
    if not missing:
        return TeamValid()
    layers = [1]  # layers[k]: the teams of k members among the rows so far
    for row in range(rows):
        layers = [a | b << (1 << row) for a, b in zip(layers + [0], [0] + layers)]
    least = next(m & -m for m in (missing & layer for layer in layers) if m)
    return Counterteam(Team(inventory, frozenset(bits(least.bit_length() - 1))))


def _outside(f: fm.Formula) -> fm.Formula | None:
    """The first node of f, in pre-order, that is not a team connective or
    a letter; None when f is a team formula. Walked from an explicit stack,
    so nesting depth is not bounded by recursion."""
    todo = [f]
    while todo:
        g = todo.pop()
        if type(g) is BoolNeg:
            todo.append(g.sub)
        elif type(g) in _TEAM_SYNTAX:
            todo += (g.right, g.left)
        elif type(g) is not Letter:
            return g
    return None


def translate(f: fm.Formula) -> fm.Formula:
    """The modal formula of a team formula: f itself, since the team
    connectives are modal ones. TypeError when f is not a team formula."""
    g = _outside(f)
    if g is not None:
        raise TypeError(f"not a team formula: {g!r}")
    return f


def to_kripke(f: fm.Formula) -> tuple[Model, dict[frozenset[int], int]]:
    """Model over the powerset frame of all valuations on the letters of f.

    Worlds are teams; the valuation of each letter is the powerset of its
    true valuations, so Kripke satisfaction of f agrees with
    team satisfaction at every world. The returned map sends a team (a
    frozenset of rows) to its world index.
    """
    inventory = tuple(sorted(team_letters(f)))
    if len(inventory) > 3:
        raise ValueError("at most 3 letters are supported")
    ground = 1 << len(inventory)
    frame = powerset_frame(ground, "union")
    model = Model(frame, {
        p: bits(downset(mask_of(r for r in range(ground) if (r >> j) & 1)))
        for j, p in enumerate(inventory)})
    return model, {frozenset(bits(w)): w for w in range(1 << ground)}


class NonPrincipalValuation(ValueError):
    def __init__(self, letter: str):
        self.letter = letter
        super().__init__(f"valuation of {letter!r} is not a powerset")


class PMorphismReport(Record):
    """Outcome of checking that world-to-team collapse is a p-morphism.

    forth: the image of every union triple is again a union triple.
    back: every split of an image team lifts to a split of the world.
    equivalence: Kripke satisfaction of each supplied formula agrees with
    team satisfaction of its image, at every world.
    """

    __slots__ = ("forth", "back", "equivalence", "failures")

    @property
    def passed(self) -> bool:
        return self.forth and self.back and self.equivalence


def from_kripke(model: Model, formulas: tuple[fm.Formula, ...] = ()) -> tuple[
        dict[int, int], PMorphismReport]:
    """Collapse a principal-valuation powerset model onto teams.

    The model's frame must be powerset_frame(k, "union"); every letter's
    valuation must be the powerset of some world set, else
    NonPrincipalValuation is raised. Returns the map from ground elements to
    valuation rows over the model's (sorted) letters, and the p-morphism
    report for the collapse, checking satisfaction equivalence on the given
    formulas.
    """
    frame = model.frame
    k = frame.size.bit_length() - 1
    if k < 1 or frame.size != 1 << k or frame != powerset_frame(k, "union"):
        raise ValueError("model is not over a powerset union frame")
    letters = tuple(sorted(model.valuation))
    tops: dict[str, int] = {}
    for p in letters:
        # a powerset's greatest world is the set it is the powerset of
        tops[p] = max(bits(model.letter_mask(p)), default=0)
        if model.letter_mask(p) != downset(tops[p]):
            raise NonPrincipalValuation(p)
    team_map = {x: mask_of(j for j, p in enumerate(letters) if (tops[p] >> x) & 1)
                for x in range(k)}

    def image(world: int) -> frozenset[int]:
        return frozenset(team_map[x] for x in bits(world))

    failures = []
    forth = True
    for (x, y, z) in frame.triples:
        if image(x) != image(y) | image(z):
            forth = False
            failures.append(f"forth fails at triple {(x, y, z)}")
    back = True
    for world in range(1 << k):
        img = image(world)
        subteams = [frozenset(c) for r in range(len(img) + 1)
                    for c in itertools.combinations(sorted(img), r)]
        for s1 in subteams:
            for s2 in subteams:
                if s1 | s2 != img:
                    continue
                y = mask_of(x for x in bits(world) if team_map[x] in s1)
                z = mask_of(x for x in bits(world) if team_map[x] in s2)
                if y | z != world or image(y) != s1 or image(z) != s2:
                    back = False
                    failures.append(
                        f"back fails at world {world} split {sorted(s1)}|{sorted(s2)}"
                    )
    equivalence = True
    ev = Evaluator(frame)
    for tf in formulas:
        extra = team_letters(tf) - set(letters)
        if extra:
            raise ValueError(f"formula mentions unvalued letters {sorted(extra)}")
        mask = ev.mask(tf, model.masks)
        for world in range(1 << k):
            team = Team(letters, image(world))
            if team_sat(team, tf) != bool((mask >> world) & 1):
                equivalence = False
                failures.append(
                    f"equivalence fails at world {world} for "
                    f"{render_team_formula(tf)}"
                )
    return team_map, PMorphismReport(forth, back, equivalence, tuple(failures))


# -- concrete syntax ----------------------------------------------------------
#
# Team formulas are modal formulas, written in their own notation and read by
# fm.parser from its table: letters as in the modal grammar; `&`
# conjunction, `|` split disjunction (the diamond), `\|/` global disjunction
# (disjunction), `~~` Boolean negation (negation). Precedence loosest to
# tightest: \|/, |, &, ~~; the binary connectives are left-associative.

#: Printed form of each team connective, in fm.render's table shape.
_TEAM_SYNTAX = {BoolNeg: ("~~", 4, None), And: ("&", 3, "left"),
                SplitOr: ("|", 2, "left"), GlobalOr: ("\\|/", 1, "left")}


class TeamSyntaxError(ValueError):
    """Parse failure of the team notation at a byte offset; the message is
    chosen by the tokens the parser expected there."""

    def __init__(self, text: str, pos: int, expected: set[str], found: str):
        self.offset = len(text[:pos].encode("utf-8"))
        message = (f"unexpected character {found!r}" if "a token" in expected
                   else "trailing input" if "end of input" in expected
                   else "expected ')'" if ")" in expected
                   else f"expected a letter or '(', found {found!r}")
        super().__init__(f"syntax error at byte {self.offset}: {message}")


#: Parse the team notation: the inverse of render_team_formula.
parse_team_formula = fm.parser(_TEAM_SYNTAX, TeamSyntaxError)


def render_team_formula(f: fm.Formula) -> str:
    """Minimal-parenthesis text; parse_team_formula inverts it."""
    return fm.render(f, _TEAM_SYNTAX)
