# Propositional team logic: teams are sets of classical valuations, split
# disjunction decomposes a team as a union of two subteams, and the whole
# calculus is decidable by exhausting teams. Split disjunction is exactly
# the binary diamond over a powerset frame with principal valuations.

from tilemodal.frames import Model, powerset_frame
from tilemodal.semantics import sat_mask
from tilemodal.team_logic import (
    Counterteam,
    Team,
    from_kripke,
    parse_team_formula,
    ptl_decide,
    render_team_formula,
    team_sat,
    to_kripke,
    translate,
)
from tilemodal.formula import render

# A team satisfies a letter when every member does; the two-member team
# below splits into its p-rows and its non-p rows.
t = Team(("p",), frozenset({0, 1}))
split_em = parse_team_formula("p | ~~p")
print("two-member team satisfies p | ~~p:", team_sat(t, split_em))

# But split excluded middle is not valid: the empty team satisfies p
# vacuously, so neither part of its only split satisfies ~~p.
verdict = ptl_decide(split_em)
assert isinstance(verdict, Counterteam)
print("counterteam for p | ~~p:", sorted(verdict.team.members))

# Global (inquisitive) disjunction restores the tautology.
print("p \\|/ ~~p:", ptl_decide(parse_team_formula("p \\|/ ~~p")))

# A team formula is a modal formula, so translation is the identity: split
# disjunction is the diamond, printed as `o` in the modal notation, and
# satisfaction coincides world by world over the powerset frame of all
# valuations.
f = parse_team_formula("p | q & ~~p")
model, state_map = to_kripke(f)
mask = sat_mask(model, translate(f))
print(f"translated {render_team_formula(f)!r} to {render(translate(f))!r}")
agree = all(
    team_sat(Team(("p", "q"), members), f) == bool((mask >> world) & 1)
    for members, world in state_map.items()
)
print("team and Kripke satisfaction agree on all 16 teams:", agree)

# Conversely a principal-valuation powerset model collapses onto teams.
frame = powerset_frame(3, "union")
principal = Model(frame, {"p": {w for w in range(8) if w & ~0b011 == 0}})
team_map, report = from_kripke(principal, (parse_team_formula("p | ~~p"),))
print("collapse rows:", team_map)
print("p-morphism report passed:", report.passed)
