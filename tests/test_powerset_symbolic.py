import itertools
import random

import pytest

from tilemodal import formula as fm
from tilemodal import powerset_symbolic as ps
from tilemodal import reduction
from tilemodal.frames import Frame, powerset_frame, powerset_worlds
from tilemodal.powerset_symbolic import (
    SidePart,
    SymState,
    check_refutation,
    cofin,
    decompositions,
    eval_atom,
    fin,
    render_state,
    singleton,
    state_n,
    universe,
)
from tilemodal.tiling import PeriodicTiling, Tile, TileSet, find_torus
from test_tiling import all_small_tilesets

MONO = TileSet(("t1",), (Tile(0, 0, 0, 0),))
MONO_TAU = PeriodicTiling((1, 1), {(0, 0): 0})
SWAP = TileSet(("a", "b"), (Tile(0, 0, 1, 2), Tile(0, 0, 2, 1)))
SWAP_TAU = PeriodicTiling((2, 1), {(0, 0): 0, (1, 0): 1})
#: Two tiles that alternate along both axes: a genuine 2x2 torus.
CHECKER = TileSet(("a", "b"), (Tile(1, 2, 3, 4), Tile(2, 1, 4, 3)))


# -- state helpers the checker does not need, kept as test references --------

def state_evens() -> SymState:
    return SymState(cofin(), fin())


def state_odds() -> SymState:
    return SymState(fin(), cofin())


def contains(s: SymState, n: int) -> bool:
    side = s.even if n % 2 == 0 else s.odd
    return (n in side.elems) if side.kind == "fin" else (n not in side.elems)


def even_window(depth: int) -> list[int]:
    """One more window element than the depth, so maximum-depth states always
    keep a peelable element on each cofinite side."""
    return [2 * i for i in range(depth + 1)]


def odd_window(depth: int) -> list[int]:
    return [2 * i + 1 for i in range(depth + 1)]


def _side_union(a: int, b: int) -> tuple[int, bool]:
    """The union of two side codes, and whether the sides overlap."""
    if not (a | b) & ps._COFIN:
        return a | b, bool(a & b)
    if a & b & ps._COFIN:
        return a & b, True
    removed, members = (a, b) if a & ps._COFIN else (b, a)
    return removed & ~members, bool(members & ~removed)


def sym_union(a: SymState, b: SymState, mode: str = "union") -> SymState | None:
    """Canonical union of two states on their codes; None in disjoint mode
    when they overlap."""
    if mode not in ps.MODES:
        raise ValueError(f"unknown mode {mode!r}")
    ca, cb = ps._encode(a), ps._encode(b)
    even, clash_even = _side_union(ca & ps._SIDE, cb & ps._SIDE)
    odd, clash_odd = _side_union(ca >> ps._SHIFT, cb >> ps._SHIFT)
    if mode == "disjoint_union" and (clash_even or clash_odd):
        return None
    return ps._decode(even | odd << ps._SHIFT)


class TestSymState:
    def test_side_purity_enforced(self):
        with pytest.raises(ValueError):
            SymState(fin({1}), fin())
        with pytest.raises(ValueError):
            SymState(fin(), cofin({0}))

    def test_depth_counts_both_sides(self):
        s = SymState(cofin({0, 2}), fin({1}))
        assert s.depth() == 3

    def test_render_is_stable(self):
        assert render_state(state_n()) == "even=cofin();odd=cofin()"
        assert render_state(singleton(4)) == "even=fin(4);odd=fin()"

    def test_membership(self):
        assert contains(state_n(), 7) and contains(state_n(), 4)
        assert contains(singleton(4), 4)
        assert not contains(singleton(4), 2)
        assert not contains(SymState(cofin({2}), fin()), 2)
        assert contains(SymState(cofin({2}), fin()), 0)


class TestSymUnion:
    def test_full_state_from_halves(self):
        assert sym_union(state_evens(), state_odds()) == state_n()

    def test_removed_element_restored(self):
        a = SymState(cofin({0}), fin())
        b = singleton(0)
        assert sym_union(a, b) == state_evens()

    def test_disjoint_overlap_gives_none(self):
        a = SymState(cofin({0}), fin())
        b = singleton(2)
        assert sym_union(a, b, "disjoint_union") is None

    def test_disjoint_ok_when_separated(self):
        a = SymState(cofin({0}), fin())
        b = singleton(0)
        assert sym_union(a, b, "disjoint_union") == state_evens()

    def test_cofin_cofin_removal_intersection(self):
        a = SymState(cofin({0, 2}), fin())
        b = SymState(cofin({2, 4}), fin())
        assert sym_union(a, b) == SymState(cofin({2}), fin())

    def test_fin_fin(self):
        assert sym_union(singleton(0), singleton(2)) == SymState(fin({0, 2}), fin())


class TestEvalAtom:
    def test_evens_satisfies_x_e(self):
        assert eval_atom(state_evens(), "x_e", MONO_TAU, MONO)

    def test_n_satisfies_tau_origin_tile(self):
        assert eval_atom(state_n(), "t1", MONO_TAU, MONO)

    def test_singleton_even_is_x_prime(self):
        assert eval_atom(singleton(4), "x'", MONO_TAU, MONO)
        assert not eval_atom(singleton(4), "x_e", MONO_TAU, MONO)
        assert not eval_atom(singleton(3), "x'", MONO_TAU, MONO)
        assert eval_atom(singleton(3), "y'", MONO_TAU, MONO)

    def test_parity_of_removals(self):
        assert eval_atom(SymState(cofin({0, 2}), fin()), "x_e", MONO_TAU, MONO)
        assert eval_atom(SymState(cofin({0}), fin()), "x_o", MONO_TAU, MONO)
        assert eval_atom(SymState(fin(), cofin({1})), "y_o", MONO_TAU, MONO)

    def test_tile_letter_tracks_tau(self):
        s = SymState(cofin({0}), cofin())
        # one even removal: column 1, row 0 of the swap torus
        assert eval_atom(s, "b", SWAP_TAU, SWAP)
        assert not eval_atom(s, "a", SWAP_TAU, SWAP)

    def test_mixed_state_satisfies_no_parity_letter(self):
        s = SymState(cofin({0}), fin({1}))
        for letter in ("x_e", "x_o", "y_e", "y_o", "x'", "y'"):
            assert not eval_atom(s, letter, MONO_TAU, MONO)


class TestDecompositions:
    def test_even_odd_split_unique(self):
        pairs = decompositions(state_n(), 2)
        splits = [
            (a, b) for a, b in pairs
            if a.odd.is_empty() and b.even.is_empty()
            and a.even.kind == "cofin" and b.odd.kind == "cofin"
        ]
        assert (state_evens(), state_odds()) in splits
        assert len(splits) == 1

    def test_peels_of_evens(self):
        pairs = decompositions(state_evens(), 2)
        for n in (0, 2):
            rest = SymState(cofin({n}), fin())
            assert (singleton(n), rest) in pairs
            assert (rest, singleton(n)) in pairs
            assert (singleton(n), state_evens()) in pairs

    def test_singleton_idempotent_pair_mode_dependent(self):
        s = singleton(0)
        assert (s, s) in decompositions(s, 2, "union")
        assert (s, s) not in decompositions(s, 2, "disjoint_union")

    def test_all_pairs_actually_decompose(self):
        for mode in ps.MODES:
            for s in (state_n(), state_evens(), SymState(cofin({0}), cofin({1}))):
                for a, b in decompositions(s, 2, mode):
                    assert sym_union(a, b, mode) == s

    def test_nonempty_mode_never_yields_empty_parts(self):
        for s in universe(2, "union_nonempty"):
            for a, b in decompositions(s, 2, "union_nonempty"):
                assert not a.is_empty() and not b.is_empty()

    def test_depth_cap_enforced(self):
        with pytest.raises(ValueError):
            decompositions(state_n(), 5)


class TestUniverse:
    def test_depth_zero_has_only_kind_combinations(self):
        states = universe(0, "union")
        assert state_n() in states
        assert all(s.depth() == 0 for s in states)

    def test_all_states_within_depth(self):
        for s in universe(3, "union"):
            assert s.depth() <= 3

    def test_nonempty_excludes_empty_state(self):
        empty = SymState(fin(), fin())
        assert empty in universe(2, "union")
        assert empty not in universe(2, "union_nonempty")

    def test_antecedent_coverage(self):
        # states satisfying a parity product are exactly two-sided cofinite
        states = universe(2, "union")
        dag = fm.Dag()
        prod = dag.add(fm.parse("x_e o y_e"))
        codes = list(map(ps._encode, states))
        sat = ps._satisfaction(MONO, MONO_TAU, codes, 2, "union", dag)
        assert list(map(ps._decode, codes[:len(states)])) == states
        for k, s in enumerate(states):
            if sat[prod] >> k & 1:
                assert s.even.kind == "cofin" and s.odd.kind == "cofin"
                assert len(s.even.elems) % 2 == 0
                assert len(s.odd.elems) % 2 == 0


class TestCheckRefutation:
    @pytest.mark.parametrize("mode", ps.MODES)
    def test_single_tile_all_conjuncts_pass(self, mode):
        report = check_refutation(MONO, MONO_TAU, 3, mode)
        assert report.passed
        assert len(report.entries) == 15
        assert all(e.status == "pass" for e in report.entries)

    def test_swap_pair_passes(self):
        assert check_refutation(SWAP, SWAP_TAU, 2, "union").passed

    def test_corrupted_tau_fails_some_gamma(self):
        bad = PeriodicTiling((2, 1), {(0, 0): 0, (1, 0): 0})
        report = check_refutation(SWAP, bad, 2, "union")
        assert not report.passed
        failed = [e for e in report.entries if not e.passed]
        assert any(e.name.startswith("gamma") for e in failed)
        assert all(e.witness is not None for e in failed)

    def test_report_lines_are_machine_readable(self):
        report = check_refutation(MONO, MONO_TAU, 2, "union")
        lines = report.render_lines()
        assert len(lines) == 15
        assert lines[0] == "conjunct=seed status=pass state=-"
        assert all(line.startswith("conjunct=") for line in lines)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            check_refutation(MONO, MONO_TAU, 2, "disjoint")

    def test_report_text_mentions_bounded_scope(self):
        report = check_refutation(MONO, MONO_TAU, 2, "union")
        assert "not full refutation" in report.render_text()


class TestFiniteCrossCheck:
    """Symbolic states and unions against the concrete powerset frame.

    A symbolic state denotes a subset of the ground set by reading fin parts
    as themselves and cofin parts as side-minus-removal. Unions must agree
    everywhere; atom evaluation is compared only away from the known
    fin/cofin boundary collapses of finite ground sets."""

    K = 3  # ground set {0,1,2}: evens {0,2}, odds {1}

    def ground_sides(self):
        evens = frozenset(i for i in range(self.K) if i % 2 == 0)
        odds = frozenset(i for i in range(self.K) if i % 2 == 1)
        return evens, odds

    def states_in_ground(self):
        evens, odds = self.ground_sides()
        out = []
        for ekind in ("fin", "cofin"):
            for esub in _subsets(evens):
                for okind in ("fin", "cofin"):
                    for osub in _subsets(odds):
                        out.append(SymState(
                            SidePart(ekind, esub), SidePart(okind, osub)))
        return out

    def concretize(self, s: SymState) -> frozenset[int]:
        evens, odds = self.ground_sides()
        e = s.even.elems if s.even.kind == "fin" else evens - s.even.elems
        o = s.odd.elems if s.odd.kind == "fin" else odds - s.odd.elems
        return e | o

    def test_union_agrees_with_frame_triples(self):
        frame = powerset_frame(self.K, "union")
        worlds = powerset_worlds(self.K, "union")
        index = {w: i for i, w in enumerate(worlds)}
        states = self.states_in_ground()
        for a in states:
            for b in states:
                u = sym_union(a, b)
                got = index[self.concretize(u)]
                assert (got, index[self.concretize(a)],
                        index[self.concretize(b)]) in frame.triples

    def test_disjoint_union_agrees_when_defined(self):
        # fin/fin pairs: the symbolic overlap test is exact on fin parts
        evens, odds = self.ground_sides()
        fin_states = [
            SymState(fin(es), fin(os))
            for es in _subsets(evens) for os in _subsets(odds)
        ]
        for a in fin_states:
            for b in fin_states:
                u = sym_union(a, b, "disjoint_union")
                overlap = self.concretize(a) & self.concretize(b)
                if u is None:
                    assert overlap
                else:
                    assert not overlap
                    assert self.concretize(u) == (
                        self.concretize(a) | self.concretize(b))

    def test_eval_atom_matches_finite_valuation_off_boundary(self):
        evens, odds = self.ground_sides()
        for s in self.states_in_ground():
            x = self.concretize(s)
            # parity and tile letters: trust only two-sided proper cofin states
            proper = (
                s.even.kind == "cofin" and s.odd.kind == "cofin"
                and s.even.elems < evens and s.odd.elems < odds
            )
            if proper:
                expect = MONO_TAU.tile_at(len(evens - x), len(odds - x)) == 0
                assert eval_atom(s, "t1", MONO_TAU, MONO) == expect
            if s.odd.kind == "fin" and not s.odd.elems and s.even.kind == "cofin" \
                    and s.even.elems < evens:
                finite_xe = x <= evens and len(evens - x) % 2 == 0
                assert eval_atom(s, "x_e", MONO_TAU, MONO) == finite_xe
            # singletons: fin/fin states denote themselves exactly
            if s.even.kind == "fin" and s.odd.kind == "fin":
                assert eval_atom(s, "x'", MONO_TAU, MONO) == (
                    len(x) == 1 and all(n % 2 == 0 for n in x))
                assert eval_atom(s, "y'", MONO_TAU, MONO) == (
                    len(x) == 1 and all(n % 2 == 1 for n in x))


def _subsets(items: frozenset[int]):
    items = sorted(items)
    for mask in range(1 << len(items)):
        yield frozenset(x for i, x in enumerate(items) if (mask >> i) & 1)


# -- reference: the SymState universe, rules, valuation and lazy evaluator -----
#
# The checker builds its universe, generates decompositions and reads the
# refutation valuation on int codes, and evaluates all conjuncts over one
# finite frame; these are the SymState versions and the evaluator it
# replaced, kept here to compare against.

def _ref_universe(depth: int, mode: str) -> list[SymState]:
    sides_even = _ref_side_universe(even_window(depth), depth)
    sides_odd = _ref_side_universe(odd_window(depth), depth)
    out = []
    for ev in sides_even:
        for od in sides_odd:
            if len(ev.elems) + len(od.elems) > depth:
                continue
            s = SymState(ev, od)
            if mode == "union_nonempty" and s.is_empty():
                continue
            out.append(s)
    out.sort(key=_ref_state_key)
    return out


def _ref_side_universe(window: list[int], depth: int) -> list[SidePart]:
    parts = []
    for kind in ("fin", "cofin"):
        for r in range(min(len(window), depth) + 1):
            for combo in itertools.combinations(window, r):
                parts.append(SidePart(kind, frozenset(combo)))
    return parts


def _ref_side_key(p: SidePart):
    return (p.kind, len(p.elems), tuple(sorted(p.elems)))


def _ref_state_key(s: SymState):
    return (s.depth(), _ref_side_key(s.even), _ref_side_key(s.odd))


def _ref_eval_atom(s: SymState, letter: str, tau: PeriodicTiling, w: TileSet) -> bool:
    if letter == "x_e":
        return (s.odd.is_empty() and s.even.kind == "cofin"
                and len(s.even.elems) % 2 == 0)
    if letter == "x_o":
        return (s.odd.is_empty() and s.even.kind == "cofin"
                and len(s.even.elems) % 2 == 1)
    if letter == "y_e":
        return (s.even.is_empty() and s.odd.kind == "cofin"
                and len(s.odd.elems) % 2 == 0)
    if letter == "y_o":
        return (s.even.is_empty() and s.odd.kind == "cofin"
                and len(s.odd.elems) % 2 == 1)
    if letter == "x'":
        return s.odd.is_empty() and s.even.kind == "fin" and len(s.even.elems) == 1
    if letter == "y'":
        return s.even.is_empty() and s.odd.kind == "fin" and len(s.odd.elems) == 1
    if letter in w.names:
        if s.even.kind == "cofin" and s.odd.kind == "cofin":
            t = tau.tile_at(len(s.even.elems), len(s.odd.elems))
            return t == w.names.index(letter)
        return False
    return False


def _ref_side_union(a: SidePart, b: SidePart) -> SidePart:
    if a.kind == "fin" and b.kind == "fin":
        return SidePart("fin", a.elems | b.elems)
    if a.kind == "cofin" and b.kind == "cofin":
        return SidePart("cofin", a.elems & b.elems)
    removed, members = (a.elems, b.elems) if a.kind == "cofin" else (b.elems, a.elems)
    return SidePart("cofin", removed - members)


def _ref_side_overlap(a: SidePart, b: SidePart) -> bool:
    if a.kind == "fin" and b.kind == "fin":
        return bool(a.elems & b.elems)
    if a.kind == "cofin" and b.kind == "cofin":
        return True
    removed, members = (a.elems, b.elems) if a.kind == "cofin" else (b.elems, a.elems)
    return bool(members - removed)


def _ref_union(a: SymState, b: SymState, mode: str) -> SymState | None:
    if mode == "disjoint_union" and (
        _ref_side_overlap(a.even, b.even) or _ref_side_overlap(a.odd, b.odd)
    ):
        return None
    return SymState(_ref_side_union(a.even, b.even), _ref_side_union(a.odd, b.odd))


def _ref_decompositions(s: SymState, depth: int, mode: str) -> list:
    pairs: dict = {}
    limit = depth + 1

    def emit(a, b):
        if mode == "union_nonempty" and (a.is_empty() or b.is_empty()):
            return
        if _ref_union(a, b, mode) == s:
            pairs[(a, b)] = None

    emit(SymState(s.even, fin()), SymState(fin(), s.odd))
    for n in _ref_peelable(s, depth):
        sing, rest = singleton(n), _ref_without(s, n)
        if rest is not None and rest.depth() <= limit:
            emit(sing, rest)
            emit(rest, sing)
        emit(sing, s)
        emit(s, sing)
    for grown_a, grown_b in _ref_growth_pairs(s, depth):
        emit(grown_a, grown_b)
    return list(pairs)


def _ref_peelable(s: SymState, depth: int) -> list[int]:
    out = []
    for side, window in ((s.even, even_window(depth)), (s.odd, odd_window(depth))):
        if side.kind == "fin":
            out.extend(sorted(side.elems))
        else:
            out.extend(n for n in window if n not in side.elems)
    return sorted(out)


def _ref_without(s: SymState, n: int) -> SymState | None:
    side = s.even if n % 2 == 0 else s.odd
    if side.kind == "fin":
        if n not in side.elems:
            return None
        new = SidePart("fin", side.elems - {n})
    else:
        if n in side.elems:
            return None
        new = SidePart("cofin", side.elems | {n})
    return SymState(new, s.odd) if n % 2 == 0 else SymState(s.even, new)


def _ref_growth_pairs(s: SymState, depth: int) -> list:
    out = []
    for pick_even in (True, False):
        side = s.even if pick_even else s.odd
        if side.kind != "cofin":
            continue
        window = even_window(depth) if pick_even else odd_window(depth)
        free = [n for n in window if n not in side.elems]
        for a_size in range(len(free) + 1):
            for a_combo in itertools.combinations(free, a_size):
                remaining = [n for n in free if n not in a_combo]
                for b_size in range(len(remaining) + 1):
                    for b_combo in itertools.combinations(remaining, b_size):
                        part_a = SidePart("cofin", side.elems | set(a_combo))
                        part_b = SidePart("cofin", side.elems | set(b_combo))
                        if pick_even:
                            sa, sb = SymState(part_a, s.odd), SymState(part_b, s.odd)
                        else:
                            sa, sb = SymState(s.even, part_a), SymState(s.even, part_b)
                        if sa.depth() <= depth + 1 and sb.depth() <= depth + 1:
                            out.append((sa, sb))
    return out


class _RefEvaluator:
    """Satisfaction at states, op by op, memoised per (state, op index),
    decomposing each state it visits by the reference rules."""

    def __init__(self, w, tau, depth, mode):
        self.w, self.tau, self.depth, self.mode = w, tau, depth, mode
        self.dag = fm.Dag()
        self._memo: dict = {}
        self._pairs: dict = {}

    def holds(self, s: SymState, i: int) -> bool:
        kind, a, b = self.dag.ops[i]
        if kind == fm.NOT:
            return not self.holds(s, a)
        key = (s, i)
        if key not in self._memo:
            if kind == fm.VAR:
                hit = _ref_eval_atom(s, a, self.tau, self.w)
            elif kind == fm.TOP:
                hit = True
            elif kind == fm.OR:
                hit = self.holds(s, a) or self.holds(s, b)
            else:
                if s not in self._pairs:
                    self._pairs[s] = _ref_decompositions(s, self.depth, self.mode)
                hit = any(self.holds(x, a) and self.holds(y, b) for x, y in self._pairs[s])
            self._memo[key] = hit
        return self._memo[key]


def _ref_check_refutation(w, tau, depth, mode) -> ps.Report:
    ev = _RefEvaluator(w, tau, depth, mode)
    entries = []
    for name, f in reduction.conjuncts(w):
        sub = fm.unbox(f)
        if sub is not None:
            i = ev.dag.add(sub)
            witness = next((s for s in _ref_universe(depth, mode) if not ev.holds(s, i)), None)
            entries.append(ps.ConjunctReport(
                name, "pass" if witness is None else "fail", witness, ps._BOX_NOTE))
        else:
            ok = ev.holds(state_n(), ev.dag.add(f))
            entries.append(ps.ConjunctReport(
                name, "pass" if ok else "fail", None if ok else state_n(),
                "checked at the all-naturals state"))
    return ps.Report(mode, depth, tuple(entries))


def _ref_closure(codes: list[int], depth: int, mode: str) -> Frame:
    """The closure frame built from its triples, as _satisfaction built it
    before the closure wrote the frame's rows itself."""
    index = {c: i for i, c in enumerate(codes)}
    triples, x = [], 0
    while x < len(codes):
        for a, b in ps._pairs(codes[x], depth, mode):
            for c in (a, b):
                if c not in index:
                    index[c] = len(codes)
                    codes.append(c)
            triples.append((x, index[a], index[b]))
        x += 1
    return Frame(len(codes), frozenset(triples))


class TestAgainstReference:
    @pytest.mark.parametrize("depth", range(5))
    def test_universe(self, depth):
        for mode in ps.MODES:
            assert universe(depth, mode) == _ref_universe(depth, mode)

    @pytest.mark.parametrize("depth", (1, 2, 3))
    def test_closure_frame(self, depth):
        for mode in ps.MODES:
            codes, ref_codes = ps._universe(depth, mode), ps._universe(depth, mode)
            frame, ref = ps._closure(codes, depth, mode), _ref_closure(ref_codes, depth, mode)
            assert codes == ref_codes and frame.size == len(codes)
            assert frame == ref and hash(frame) == hash(ref)
            assert (frame.rows, frame.cols) == (ref.rows, ref.cols)

    def test_valuation_at_every_universe_state(self):
        letters = reduction.STRUCTURAL_LETTERS + ("a", "b", "c")
        for tau in (SWAP_TAU, PeriodicTiling((2, 2), {(0, 0): 0, (1, 0): 1,
                                                       (0, 1): 1, (1, 1): 0})):
            for s in universe(4, "union"):
                for letter in letters:
                    assert eval_atom(s, letter, tau, SWAP) == _ref_eval_atom(
                        s, letter, tau, SWAP), (render_state(s), letter)

    @pytest.mark.parametrize("depth", (1, 2, 3))
    def test_valuation_of_the_closure(self, depth):
        """The valuation _satisfaction evaluates, read off the masks of the
        Dag's letters, at every closure state (the universe and the states
        the closure appends) and for every letter of the Dag, against the
        reference; at most one letter holds at each state."""
        checker = PeriodicTiling((2, 2), {(0, 0): 0, (1, 0): 1, (0, 1): 1, (1, 1): 0})
        cases = [(MONO, MONO_TAU), (SWAP, SWAP_TAU), (CHECKER, checker)]
        for w, tau in cases:
            dag = fm.Dag()
            for _name, f in reduction.conjuncts(w):
                dag.add(fm.unbox(f) or f)
            letters = {a: i for i, (kind, a, _) in enumerate(dag.ops) if kind == fm.VAR}
            assert set(letters) == set(reduction.STRUCTURAL_LETTERS + w.names)
            for mode in ps.MODES:
                codes = ps._universe(depth, mode)
                size = len(codes)
                sat = ps._satisfaction(w, tau, codes, depth, mode, dag)
                assert len(codes) > size  # the closure appended states
                held = 0
                for letter, i in letters.items():
                    assert not held & sat[i], letter  # one letter per state
                    held |= sat[i]
                    for at, code in enumerate(codes):
                        s = ps._decode(code)
                        assert (sat[i] >> at & 1) == _ref_eval_atom(s, letter, tau, w), (
                            render_state(s), letter, mode)

    @pytest.mark.parametrize("depth", range(5))
    def test_decompositions_at_every_universe_state(self, depth):
        for mode in ps.MODES:
            for s in universe(depth, mode):
                assert decompositions(s, depth, mode) == _ref_decompositions(
                    s, depth, mode), render_state(s)

    def test_union_of_every_pair_of_states(self):
        states = universe(2, "union")
        for mode in ps.MODES:
            for a in states:
                for b in states:
                    assert sym_union(a, b, mode) == _ref_union(a, b, mode)

    def test_reports_on_genuine_and_corrupted_tori(self):
        rng = random.Random(61)
        cases = [(MONO, MONO_TAU), (SWAP, SWAP_TAU),
                 (SWAP, PeriodicTiling((2, 1), {(0, 0): 0, (1, 0): 0}))]
        for w in rng.sample(list(all_small_tilesets()), 3):
            tau = find_torus(w, 2)
            if tau is None:
                p, q = rng.randint(1, 2), rng.randint(1, 2)
                tau = PeriodicTiling((p, q), {(i, j): 0 for i in range(p) for j in range(q)})
            cells = dict(tau.cells)
            cells[rng.choice(sorted(cells))] = rng.randrange(len(w))
            cases += [(w, tau), (w, PeriodicTiling(tau.periods, cells))]
        failed = 0
        for w, tau in cases:
            for depth in (1, 2, 3):
                for mode in ps.MODES:
                    if depth == 3 and mode != "disjoint_union" and w != MONO:
                        continue  # the reference takes a quarter second each
                    report = check_refutation(w, tau, depth, mode)
                    assert report == _ref_check_refutation(w, tau, depth, mode)
                    failed += not report.passed
        assert failed  # the corpus exercises witnesses, not only passes

    def test_constants_in_the_bodies_of_a_dead_end_set(self, tmp_path, capsys):
        """Tile b has no right match, so the gamma bodies hold F."""
        from tilemodal.cli import main

        dead_end = TileSet(("a", "b"), (Tile(0, 0, 0, 0), Tile(0, 0, 5, 6)))
        tau = PeriodicTiling((1, 1), {(0, 0): 0})
        assert any(kind == fm.TOP for name, f in reduction.conjuncts(dead_end)
                   for kind, _, _ in fm.to_dag(fm.unbox(f) or f).ops)
        for depth in (1, 2):
            for mode in ps.MODES:
                report = check_refutation(dead_end, tau, depth, mode)
                assert report == _ref_check_refutation(dead_end, tau, depth, mode)
                assert report.passed
        path = tmp_path / "dead_end.tiles"
        path.write_text("a 0 0 0 0\nb 0 0 5 6\n")
        code = main(["verify-lemma6", "--tiles", str(path), "--period", "1,1",
                     "--depth", "2", "--format", "lines"])
        out = capsys.readouterr().out
        assert code == 0 and out.count("status=pass") == 15, out

    def test_states_outside_the_window_are_rejected(self):
        with pytest.raises(ValueError):
            decompositions(singleton(10), 2)
        with pytest.raises(ValueError):
            sym_union(singleton(11), state_n())
        with pytest.raises(ValueError):
            eval_atom(singleton(10), "x'", MONO_TAU, MONO)
