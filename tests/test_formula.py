import random
import sys
from pathlib import Path

import pytest

from conftest import random_formula
from tilemodal import formula as fm
from tilemodal.formula import (
    And,
    Bottom,
    Box,
    Comp,
    FormulaSyntaxError,
    HookL,
    HookR,
    Iff,
    Implies,
    Letter,
    Neg,
    Or,
    Top,
    desugar,
    letters,
    parse,
    render,
)
from tilemodal.team_logic import parse_team_formula, render_team_formula

p, q, r = Letter("p"), Letter("q"), Letter("r")
ROOT = Path(__file__).resolve().parent.parent


class TestParse:
    def test_composition(self):
        assert parse("p o q") == Comp(p, q)

    def test_negated_composition(self):
        assert parse("~(x_e o y_e)") == Neg(Comp(Letter("x_e"), Letter("y_e")))

    def test_associativity_axiom(self):
        f = parse("(p o q) o r <-> p o (q o r)")
        assert f == Iff(Comp(Comp(p, q), r), Comp(p, Comp(q, r)))

    def test_comp_left_associative(self):
        assert parse("p o q o r") == Comp(Comp(p, q), r)

    def test_comp_binds_tighter_than_and(self):
        assert parse("x_e o y_e & t1") == And(
            Comp(Letter("x_e"), Letter("y_e")), Letter("t1")
        )

    def test_and_binds_tighter_than_or(self):
        assert parse("p & q | r") == Or(And(p, q), r)

    def test_implies_right_associative(self):
        assert parse("p -> q -> r") == Implies(p, Implies(q, r))

    def test_hooks(self):
        assert parse("p @> q") == HookR(p, q)
        assert parse("p <@ q") == HookL(p, q)

    def test_hooks_non_associative(self):
        with pytest.raises(FormulaSyntaxError):
            parse("p @> q @> r")

    def test_box_prefix(self):
        assert parse("[]p & q") == And(Box(p), q)
        assert parse("[](p -> q)") == Box(Implies(p, q))

    def test_constants(self):
        assert parse("T") == Top()
        assert parse("F") == Bottom()

    def test_primed_letters(self):
        assert parse("x' o y'") == Comp(Letter("x'"), Letter("y'"))

    def test_error_carries_offset_and_expectations(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse("p | ")
        assert exc.value.offset == 4
        assert any("letter" in e for e in exc.value.expected)

    def test_error_unbalanced(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse("(p o q")
        assert exc.value.offset == 6
        assert ")" in exc.value.expected

    def test_error_bad_character(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse("p $ q")
        assert exc.value.offset == 2

    OPERAND = "expected (, F, T, [], a letter, ~"

    @pytest.mark.parametrize("text, message", [
        ("p $ q", "syntax error at byte 2: expected a token, found '$'"),
        ("p | ", f"syntax error at byte 4: {OPERAND}, found end of input"),
        ("(p o q", "syntax error at byte 6: expected ), found end of input"),
        ("(p o q q)", "syntax error at byte 7: expected ), found 'q'"),
        ("p q", "syntax error at byte 2: expected end of input, found 'q'"),
        ("p)", "syntax error at byte 1: expected end of input, found ')'"),
        ("p @> q @> r", "syntax error at byte 7: expected end of input, found '@>'"),
        ("(p @> q <@ r)", "syntax error at byte 8: expected ), found '<@'"),
        ("[]", f"syntax error at byte 2: {OPERAND}, found end of input"),
        ("o", f"syntax error at byte 0: {OPERAND}, found 'o'"),
        ("p & é", "syntax error at byte 4: expected a token, found 'é'"),
        # an ideographic space is whitespace of three bytes
        ("p\u3000$", "syntax error at byte 4: expected a token, found '$'"),
        ("\u3000(p q", "syntax error at byte 6: expected ), found 'q'"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(FormulaSyntaxError) as info:
            parse(text)
        assert str(info.value) == message

    def test_corpus(self, tmp_path):
        """Every formula of the golden file and of the workloads parses and
        reprints as it reads, and cutting it short, adding a stray bracket
        or a stray character gives a located syntax error."""
        corpus = _corpus(tmp_path)
        modal = {text for fn, text in corpus if fn is parse}
        assert len(modal) > 50 and len(corpus) - len(modal) > 5
        failures = 0
        for fn, text in corpus:
            f = fn(text)
            assert fn((render if fn is parse else render_team_formula)(f)) == f, text
            for bad in (text[:len(text) // 2], text + ")", text[:3] + "$" + text[3:]):
                try:
                    fn(bad)
                except ValueError as e:
                    assert str(e).startswith("syntax error at byte "), (bad, str(e))
                    failures += 1
        assert failures > 2 * len(corpus)

    def test_reserved_letter_of_another_notation(self):
        for text in ("p | o", "T"):
            with pytest.raises(ValueError, match="invalid letter name"):
                parse_team_formula(text)

    def test_nesting_deeper_than_the_recursion_limit(self):
        for text, nodes in (("~" * 3000 + "p", 3001), ("p -> " * 3000 + "q", 6001),
                            ("(" * 3000 + "p" + ")" * 3000, 1),
                            ("[]" * 2000 + "(p o q)", 2003)):
            f = parse(text)
            assert fm.node_count(f) == nodes and parse(render(f)) == f


class TestRender:
    def test_composition(self):
        assert render(Comp(p, q)) == "p o q"

    def test_negated_letter(self):
        assert render(Neg(p)) == "~p"

    def test_hook_right(self):
        assert render(HookR(p, q)) == "p @> q"

    def test_minimal_parens_left_assoc(self):
        assert render(Comp(Comp(p, q), r)) == "p o q o r"
        assert render(Comp(p, Comp(q, r))) == "p o (q o r)"

    def test_box_wraps_looser_children(self):
        assert render(Box(Implies(p, q))) == "[](p -> q)"
        assert render(Box(p)) == "[]p"

    def test_neg_wraps_composition(self):
        assert render(Neg(Comp(p, q))) == "~(p o q)"


class TestDesugar:
    def test_hook_right(self):
        assert desugar(HookR(p, q)) == Neg(Comp(p, Neg(q)))

    def test_hook_left(self):
        assert desugar(HookL(q, p)) == Neg(Comp(Neg(q), p))

    def test_letter_fixed_point(self):
        assert desugar(p) == p

    def test_box_is_three_hook_conjunction(self):
        top = Or(Letter(fm.TOP_LETTER), Neg(Letter(fm.TOP_LETTER)))
        once = Neg(Comp(top, Neg(p)))
        second = Neg(Comp(Neg(p), top))
        third = Neg(Comp(Neg(once), top))
        first_two = Neg(Or(Neg(once), Neg(second)))
        assert desugar(Box(p)) == Neg(Or(Neg(first_two), Neg(third)))

    def test_top_bottom(self):
        p0 = Letter(fm.TOP_LETTER)
        assert desugar(Top()) == Or(p0, Neg(p0))
        assert desugar(Bottom()) == Neg(Or(p0, Neg(p0)))

    def test_output_is_core_only(self):
        rng = random.Random(7)
        core = (Letter, Neg, Or, Comp)
        for _ in range(200):
            out = desugar(random_formula(rng))
            stack = [out]
            while stack:
                g = stack.pop()
                assert isinstance(g, core)
                if isinstance(g, Neg):
                    stack.append(g.sub)
                elif not isinstance(g, Letter):
                    stack.extend((g.left, g.right))

    def test_idempotent(self):
        rng = random.Random(8)
        for _ in range(200):
            f = random_formula(rng)
            once = desugar(f)
            assert desugar(once) == once

    def test_preserves_letters_up_to_top(self):
        rng = random.Random(9)
        for _ in range(200):
            f = random_formula(rng)
            assert letters(desugar(f)) - {fm.TOP_LETTER} == letters(f) - {fm.TOP_LETTER}


class TestLetters:
    def test_composition(self):
        assert letters(Comp(p, q)) == {"p", "q"}

    def test_duplicates_collapse(self):
        assert letters(Or(Neg(p), p)) == {"p"}

    def test_constants_count_reserved_letter(self):
        assert letters(Top()) == {fm.TOP_LETTER}


class TestRoundTrip:
    def test_parse_render_structural_identity(self):
        rng = random.Random(101)
        for _ in range(500):
            f = random_formula(rng)
            assert parse(render(f)) == f

    def test_render_parse_fixed_point(self):
        rng = random.Random(102)
        for _ in range(300):
            s = render(random_formula(rng))
            assert render(parse(s)) == s

    def test_nesting_deeper_than_the_recursion_limit(self):
        f = p
        for i in range(3000):
            f = (Implies(Letter(f"q{i % 3}"), Neg(f)) if i % 2
                 else Comp(Neg(f), HookL(q, Top())))
        s = render(f)
        assert render(parse(s)) == s
        assert fm.node_count(f) == 1 + 1500 * 3 + 1500 * 5
        dag = fm.Dag(f)
        assert dag.tree_size() == fm.node_count(desugar(f))
        assert render(dag.tree()) == render(desugar(f))

    def test_deep_equality_and_hash(self):
        text = "~" * 3000 + "p"
        f, g = parse(text), parse(text)
        assert f is not g and f == g and hash(f) == hash(g)
        assert len({f, g}) == 1
        for other in ("~" * 3000 + "q", "~" * 2999 + "p", "~" * 2999 + "[]p",
                      "~" * 2999 + "(p | p)"):
            assert f != parse(other)
        chain = "p -> " * 3000 + "q"
        assert parse(chain) == parse(chain)
        assert hash(parse(chain)) == hash(parse(chain))
        assert parse(chain) != parse("p -> " * 3000 + "p")
        assert Or(p, q) != And(p, q) and Or(p, q) != Or(q, p)
        assert Top() != Bottom() and p != "p"


def _corpus(workdir: Path) -> list[tuple[object, str]]:
    """(parse function, text) of the golden file and of every formula of
    both benchmark workloads at seeds 1-3: the --formula values, and the
    team formulas of ptl-decide."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    out = [(parse, (ROOT / "tests" / "data" / "phi_single_tile.golden").read_text().strip())]
    for name in ("validity", "search-pipeline"):
        for seed in (1, 2, 3):
            for query in workloads.build(name, seed, workdir / f"{name}-{seed}"):
                argv = query.argv
                if argv[0] == "ptl-decide":
                    out.append((parse_team_formula, argv[1]))
                elif "--formula" in argv:
                    out.append((parse, argv[argv.index("--formula") + 1]))
    return out


class TestLetterValidation:
    def test_reserved_words_rejected(self):
        for bad in ("o", "T", "F", "", "3x", "x-y"):
            with pytest.raises(ValueError):
                Letter(bad)

    def test_prime_and_underscore_allowed(self):
        Letter("x'")
        Letter("_top")
        Letter("a_b'c")
