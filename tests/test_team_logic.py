import itertools
import random
import time
from itertools import combinations

import pytest

from conftest import all_team_formulas, random_formula, random_team_formula
from tilemodal import formula as fm
from tilemodal.frames import bits, mask_of, powerset_frame
from tilemodal.semantics import sat_mask
from tilemodal.team_logic import (
    And,
    BoolNeg,
    Counterteam,
    GlobalOr,
    Letter,
    NonPrincipalValuation,
    SplitOr,
    Team,
    TeamValid,
    _union_product,
    downset,
    from_kripke,
    parse_team_formula,
    ptl_decide,
    render_team_formula,
    team_letters,
    team_sat,
    to_kripke,
    translate,
    translate_back,
)

p, q = Letter("p"), Letter("q")


# -- reference: the cover-enumerating evaluator and the team-by-team decision
# procedure that the family evaluator replaced, kept as an independent oracle.

class _TeamEvaluator:
    """Memoized team satisfaction for a fixed inventory."""

    def __init__(self, inventory: tuple[str, ...]):
        self.inventory = inventory
        self._memo: dict[tuple[frozenset[int], int], bool] = {}
        self._keep: list = []

    def sat(self, members: frozenset[int], f) -> bool:
        key = (members, id(f))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        self._keep.append(f)
        val = self._eval(members, f)
        self._memo[key] = val
        return val

    def _eval(self, members: frozenset[int], f) -> bool:
        if isinstance(f, Letter):
            col = self.inventory.index(f.name)
            return all((row >> col) & 1 for row in members)
        if isinstance(f, BoolNeg):
            return not self.sat(members, f.sub)
        if isinstance(f, And):
            return self.sat(members, f.left) and self.sat(members, f.right)
        if isinstance(f, GlobalOr):
            return self.sat(members, f.left) or self.sat(members, f.right)
        if isinstance(f, SplitOr):
            rows = sorted(members)
            # each row goes left, right, or both: all covers of the team
            for assign in itertools.product((0, 1, 2), repeat=len(rows)):
                left = frozenset(r for r, a in zip(rows, assign) if a != 1)
                right = frozenset(r for r, a in zip(rows, assign) if a != 0)
                if self.sat(left, f.left) and self.sat(right, f.right):
                    return True
            return False
        raise TypeError(f"not a TeamFormula: {f!r}")


def reference_ptl_decide(f) -> TeamValid | Counterteam:
    inventory = tuple(sorted(team_letters(f)))
    if len(inventory) > 4:
        raise ValueError("at most 4 letters are supported")
    rows = 1 << len(inventory)
    ev = _TeamEvaluator(inventory)
    patterns = sorted(range(1 << rows), key=lambda m: (m.bit_count(), m))
    for pattern in patterns:
        members = frozenset(bits(pattern))
        if not ev.sat(members, f):
            return Counterteam(Team(inventory, members))
    return TeamValid()


# -- reference: the recursive printer and back-translation that the
# explicit-stack versions replaced.

_REF_PREC = {And: ("&", 3), SplitOr: ("|", 2), GlobalOr: ("\\|/", 1)}


def _reference_render(f) -> tuple[str, int]:
    if isinstance(f, Letter):
        return f.name, 5
    if isinstance(f, BoolNeg):
        s, prec = _reference_render(f.sub)
        return "~~" + (f"({s})" if prec < 4 else s), 4
    op, prec = _REF_PREC[type(f)]
    ls, lp = _reference_render(f.left)
    rs, rp = _reference_render(f.right)
    ls = f"({ls})" if lp < prec else ls
    rs = f"({rs})" if rp <= prec else rs
    return f"{ls} {op} {rs}", prec


def reference_translate_back(g):
    back = {fm.And: And, fm.Comp: SplitOr, fm.Or: GlobalOr}
    if isinstance(g, fm.Letter):
        return Letter(g.name)
    if isinstance(g, fm.Neg):
        sub = reference_translate_back(g.sub)
        return BoolNeg(sub) if sub is not None else None
    if type(g) not in back:
        return None
    left, right = reference_translate_back(g.left), reference_translate_back(g.right)
    if left is None or right is None:
        return None
    return back[type(g)](left, right)


class TestAgainstReference:
    def test_render_and_translate_back(self):
        rng = random.Random(8)
        for _ in range(300):
            f = random_team_formula(rng, ("p", "q", "r"), rng.randint(1, 6))
            assert render_team_formula(f) == _reference_render(f)[0]
            assert translate_back(translate(f)) == reference_translate_back(translate(f))
            g = random_formula(rng, rng.randint(1, 4), ("p", "q"))
            assert translate_back(g) == reference_translate_back(g)

    def test_ptl_decide_verdicts_and_least_counterteams(self):
        rng = random.Random(7)
        for _ in range(400):
            letters = ("p", "q", "r")[:rng.randint(1, 3)]
            f = random_team_formula(rng, letters, rng.randint(1, 4))
            assert ptl_decide(f) == reference_ptl_decide(f), render_team_formula(f)

    def test_team_sat_at_every_two_letter_team(self):
        rng = random.Random(10)
        for _ in range(100):
            f = random_team_formula(rng, ("p", "q"), 4)
            ev = _TeamEvaluator(("p", "q"))
            for m in range(16):
                t = Team(("p", "q"), frozenset(bits(m)))
                assert team_sat(t, f) == ev.sat(t.members, f)

    def test_team_sat_over_wide_inventories(self):
        rng = random.Random(8)
        names = ("a", "b", "c", "d", "e", "f")
        for _ in range(300):
            inventory = names[:rng.randint(1, 6)]
            f = random_team_formula(rng, inventory, 3)
            members = frozenset(rng.randrange(1 << len(inventory))
                                for _ in range(rng.randint(0, 6)))
            t = Team(inventory, members)
            assert team_sat(t, f) == _TeamEvaluator(inventory).sat(members, f)

    def test_union_product_against_all_pairs(self):
        rng = random.Random(9)
        for rows in range(5):
            n = 1 << rows
            for _ in range(50):
                f, g = rng.getrandbits(n), rng.getrandbits(n)
                want = mask_of(a | b for a in bits(f) for b in bits(g))
                assert _union_product(f, g, n) == want

    def test_three_letter_split_is_fast(self):
        f = parse_team_formula("(p | q) | r \\|/ ~~((p | q) | r)")
        t0 = time.perf_counter()
        assert isinstance(ptl_decide(f), TeamValid)
        assert time.perf_counter() - t0 < 0.1


def test_downset_is_every_subset():
    for top in range(32):
        assert downset(top) == mask_of(w for w in range(32) if w & ~top == 0)


def brute_split_or(t: Team, left, right) -> bool:
    """Oracle: all pairs of subteams whose union is the team."""
    rows = sorted(t.members)
    subsets = [frozenset(c) for r in range(len(rows) + 1)
               for c in combinations(rows, r)]
    for t1 in subsets:
        for t2 in subsets:
            if t1 | t2 == t.members:
                if team_sat(Team(t.inventory, t1), left) and \
                        team_sat(Team(t.inventory, t2), right):
                    return True
    return False


class TestTeamSat:
    def test_empty_team_satisfies_letters(self):
        t = Team(("p",), frozenset())
        assert team_sat(t, p)

    def test_split_excluded_middle(self):
        t = Team(("p",), frozenset({0, 1}))  # rows: p=0 and p=1
        assert not team_sat(t, p)
        assert team_sat(t, SplitOr(p, BoolNeg(p)))

    def test_bool_neg_is_classical(self):
        rng = random.Random(1)
        for _ in range(50):
            f = random_team_formula(rng)
            members = frozenset(r for r in range(4) if rng.random() < 0.5)
            t = Team(("p", "q"), members)
            assert team_sat(t, BoolNeg(f)) == (not team_sat(t, f))

    def test_global_or_and_and(self):
        t = Team(("p", "q"), frozenset({3}))  # single row with p=q=1
        assert team_sat(t, And(p, q))
        assert team_sat(t, GlobalOr(p, q))
        t2 = Team(("p", "q"), frozenset({1, 2}))  # p-only and q-only rows
        assert not team_sat(t2, GlobalOr(p, q))
        assert team_sat(t2, SplitOr(q, p))

    def test_split_cover_equals_subteam_pairs(self):
        rng = random.Random(2)
        for _ in range(40):
            left = random_team_formula(rng, depth=2)
            right = random_team_formula(rng, depth=2)
            members = frozenset(r for r in range(4) if rng.random() < 0.6)
            t = Team(("p", "q"), members)
            assert team_sat(t, SplitOr(left, right)) == \
                brute_split_or(t, left, right)

    def test_unknown_letter_rejected(self):
        with pytest.raises(ValueError):
            team_sat(Team(("p",), frozenset()), q)


class TestPtlDecide:
    def test_global_excluded_middle_valid(self):
        assert isinstance(ptl_decide(GlobalOr(p, BoolNeg(p))), TeamValid)

    def test_split_excluded_middle_not_valid(self):
        # the empty team satisfies p vacuously, so no part of its only split
        # can satisfy the Boolean negation; split excluded middle fails there
        verdict = ptl_decide(SplitOr(p, BoolNeg(p)))
        assert isinstance(verdict, Counterteam)
        assert verdict.team.members == frozenset()
        assert not team_sat(verdict.team, SplitOr(p, BoolNeg(p)))

    def test_letter_not_valid_with_least_counterteam(self):
        verdict = ptl_decide(p)
        assert isinstance(verdict, Counterteam)
        # first failing team in (cardinality, bit-pattern) order: {p -> 0}
        assert verdict.team.members == frozenset({0})

    def test_counterteam_really_fails(self):
        rng = random.Random(3)
        for _ in range(30):
            f = random_team_formula(rng)
            verdict = ptl_decide(f)
            if isinstance(verdict, Counterteam):
                assert not team_sat(verdict.team, f)

    def test_validity_matches_all_team_oracle(self):
        rng = random.Random(4)
        for _ in range(25):
            f = random_team_formula(rng, depth=2)
            inventory = ("p", "q")
            oracle = all(
                team_sat(Team(inventory, frozenset(bits(m))), f)
                for m in range(16)
            )
            assert isinstance(ptl_decide(f), TeamValid) == oracle

    def test_too_many_letters_rejected(self):
        f = SplitOr(And(Letter("a"), Letter("b")),
                    And(Letter("c"), And(Letter("d"), Letter("e"))))
        with pytest.raises(ValueError):
            ptl_decide(f)


class TestTranslate:
    def test_clause_mapping(self):
        assert translate(SplitOr(p, q)) == fm.Comp(fm.Letter("p"), fm.Letter("q"))
        assert translate(GlobalOr(p, q)) == fm.Or(fm.Letter("p"), fm.Letter("q"))
        assert translate(BoolNeg(p)) == fm.Neg(fm.Letter("p"))
        assert translate(And(p, q)) == fm.And(fm.Letter("p"), fm.Letter("q"))

    def test_translate_back_inverts(self):
        rng = random.Random(5)
        for _ in range(100):
            f = random_team_formula(rng)
            assert translate_back(translate(f)) == f

    @pytest.mark.parametrize("text", ["~~" * 3000 + "p", " | ".join(["p"] * 3000),
                                      "p & (" * 3000 + "q & r" + ")" * 3000],
                             ids=["negations", "left-nested", "right-nested"])
    def test_deep_nesting_round_trips(self, text):
        f = parse_team_formula(text)
        assert render_team_formula(f) == text
        assert render_team_formula(translate_back(translate(f))) == text

    @pytest.mark.parametrize("g", [fm.Box(p), fm.Top(), fm.HookR(p, q), fm.Implies(p, q)],
                             ids=["box", "top", "hook", "implies"])
    def test_fragment_boundary(self, g):
        # team formulas are the modal formulas over letters, ~, &, | and o,
        # and translate is the identity on them; any other node is refused,
        # also deep inside a team formula, so it is never decided through
        # the union product
        f = SplitOr(p, BoolNeg(GlobalOr(q, And(p, q))))
        assert translate(f) is f and translate_back(f) is f
        for h in (g, SplitOr(p, BoolNeg(And(q, g)))):
            with pytest.raises(TypeError):
                translate(h)
            with pytest.raises(TypeError):
                ptl_decide(h)
            with pytest.raises(TypeError):
                team_sat(Team(("p", "q"), frozenset({1, 2})), h)
            assert translate_back(h) is None

    def test_translate_back_fails_off_image(self):
        assert translate_back(fm.Box(fm.Letter("p"))) is None
        assert translate_back(fm.HookR(fm.Letter("p"), fm.Letter("q"))) is None
        assert translate_back(fm.Or(fm.Top(), fm.Letter("p"))) is None


class TestToKripke:
    def test_one_letter_shape(self):
        model, state_map = to_kripke(p)
        assert model.frame.size == 4  # powerset of the two valuations
        assert len(model.valuation["p"]) == 2

    def test_valuation_is_principal(self):
        model, _ = to_kripke(And(p, q))
        for letter, worlds in model.valuation.items():
            top = 0
            for w in worlds:
                top |= w
            assert worlds == frozenset(
                w for w in range(model.frame.size) if w & ~top == 0
            )

    def test_equivalence_for_all_small_formulas(self):
        for f in all_team_formulas(4):
            model, state_map = to_kripke(f)
            mask = sat_mask(model, translate(f))
            inventory = tuple(sorted({l for l in ("p", "q")
                                      if l in _letters_of(f)}))
            full_inventory = tuple(sorted(_letters_of(f)))
            rows = 1 << len(full_inventory)
            for m in range(1 << rows):
                members = frozenset(bits(m))
                world = state_map[members]
                team = Team(full_inventory, members)
                assert team_sat(team, f) == bool((mask >> world) & 1)


def _letters_of(f):
    from tilemodal.team_logic import team_letters

    return team_letters(f)


class TestFromKripke:
    def test_basic_collapse(self):
        frame = powerset_frame(2, "union")
        model_val = {"p": {0, 1}}  # powerset of {0}
        from tilemodal.frames import Model

        team_map, report = from_kripke(Model(frame, model_val), (p,))
        assert team_map[0] == 1 and team_map[1] == 0
        assert report.passed

    def test_identity_valuation(self):
        from tilemodal.frames import Model

        frame = powerset_frame(2, "union")
        val = {"p": set(range(4))}
        team_map, report = from_kripke(Model(frame, val), (p,))
        assert all(team_map[x] == 1 for x in range(2))
        assert report.passed

    def test_non_principal_rejected(self):
        from tilemodal.frames import Model

        frame = powerset_frame(2, "union")
        with pytest.raises(NonPrincipalValuation):
            from_kripke(Model(frame, {"p": {1, 2}}), ())

    def test_non_powerset_frame_rejected(self):
        from tilemodal.frames import Frame, Model

        with pytest.raises(ValueError):
            from_kripke(Model(Frame(1, frozenset({(0, 0, 0)})), {}), ())
        with pytest.raises(ValueError):
            from_kripke(Model(Frame(4, frozenset()), {}), ())

    def test_all_principal_valuations_pass(self):
        from tilemodal.frames import Model

        formulas = tuple(all_team_formulas(3, ("p",)))
        for k in (1, 2, 3):
            frame = powerset_frame(k, "union")
            for top in range(1 << k):
                worlds = {w for w in range(1 << k) if w & ~top == 0}
                _, report = from_kripke(Model(frame, {"p": worlds}), formulas)
                assert report.passed


class TestDecidabilityHarness:
    def test_ptl_validity_matches_principal_frame_validity(self):
        # validity by team enumeration coincides with validity of the
        # translation over the powerset frame under every principal valuation
        from tilemodal.frames import Model

        for f in all_team_formulas(4, ("p", "q")):
            inventory = tuple(sorted(_letters_of(f)))
            ground = 1 << len(inventory)
            frame = powerset_frame(ground, "union")
            translated = translate(f)
            valid_everywhere = True
            full = (1 << frame.size) - 1
            for tops in _principal_tops(ground, len(inventory)):
                valuation = {
                    p_name: {w for w in range(frame.size) if w & ~top == 0}
                    for p_name, top in zip(inventory, tops)
                }
                if sat_mask(Model(frame, valuation), translated) != full:
                    valid_everywhere = False
                    break
            assert isinstance(ptl_decide(f), TeamValid) == valid_everywhere


def _principal_tops(ground: int, letters: int):
    from itertools import product as iproduct

    return iproduct(range(1 << ground), repeat=letters)


class TestTeamSyntax:
    def test_parse_examples(self):
        assert parse_team_formula("p | ~~p") == SplitOr(p, BoolNeg(p))
        assert parse_team_formula("p \\|/ ~~p") == GlobalOr(p, BoolNeg(p))
        assert parse_team_formula("p & q | r") == SplitOr(
            And(p, q), Letter("r"))

    def test_roundtrip(self):
        rng = random.Random(6)
        for _ in range(200):
            f = random_team_formula(rng)
            assert parse_team_formula(render_team_formula(f)) == f

    def test_single_tilde_rejected(self):
        with pytest.raises(ValueError):
            parse_team_formula("~p")

    @pytest.mark.parametrize("text, message", [
        ("p q", "syntax error at byte 2: trailing input"),
        ("p)", "syntax error at byte 1: trailing input"),
        ("(p q", "syntax error at byte 3: expected ')'"),
        ("((p)", "syntax error at byte 4: expected ')'"),
        ("~~", "syntax error at byte 2: expected a letter or '(', found ''"),
        ("p & ~~)", "syntax error at byte 6: expected a letter or '(', found ')'"),
        ("(\\|/ p)", "syntax error at byte 1: expected a letter or '(', found '\\\\|/'"),
        ("é | p !", "syntax error at byte 0: unexpected character 'é'"),
        ("p | é", "syntax error at byte 4: unexpected character 'é'"),
        ("p | T", "invalid letter name: 'T'"),
        ("o", "invalid letter name: 'o'"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_team_formula(text)
        assert str(info.value) == message

    def test_nesting_deeper_than_the_recursion_limit(self):
        f = parse_team_formula("~~(" * 3000 + "p" + ")" * 3000)
        assert team_letters(f) == {"p"}
        assert team_sat(Team(("p",), frozenset({1})), f)
        assert not team_sat(Team(("p",), frozenset({0, 1})), f)
        assert parse_team_formula("(" * 3000 + "p & q" + ")" * 3000) == And(p, q)
