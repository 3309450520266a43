"""The record types: plain slotted classes that behave as the dataclasses
they replaced did, and an import of the CLI that loads no dataclasses."""

import copy
import importlib
import pickle
import pkgutil
import subprocess
import sys

import pytest

import tilemodal
from tilemodal import extraction as ex
from tilemodal import formula as fm
from tilemodal import frames, semantics, tiling
from tilemodal import powerset_symbolic as ps
from tilemodal import team_logic as tl
from tilemodal.record import Record


def test_cli_import_loads_no_dataclasses():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tilemodal.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


p, q = fm.Letter("p"), fm.Letter("q")
TILE = tiling.Tile(1, 2, 3, 4)
TEAM = tl.Team(("p", "q"), frozenset({1, 2}))
FIN2 = ps.SidePart("fin", frozenset({2}))
COFIN1 = ps.SidePart("cofin", frozenset({1}))
AXES = ex.Axes(0, (1, 2), (3, 4), (5,), (6,))
SEED = ps.ConjunctReport("seed", "pass", None, "checked")
FRAME1 = frames.Frame(1, {(0, 0, 0)})
MODEL = frames.Model(FRAME1, {"p": {0}})

#: (class, fields, repr at the last dataclass version) for every record type;
#: Model, never a dataclass, takes a valuation and keeps its own repr.
RECORDS = [
    (fm.Letter, dict(name="p"), "<Letter 'p'>"),
    (fm.Neg, dict(sub=p), "<Neg '~p'>"),
    (fm.Or, dict(left=p, right=q), "<Or 'p | q'>"),
    (fm.Comp, dict(left=p, right=q), "<Comp 'p o q'>"),
    (fm.And, dict(left=p, right=q), "<And 'p & q'>"),
    (fm.Implies, dict(left=p, right=q), "<Implies 'p -> q'>"),
    (fm.Iff, dict(left=p, right=q), "<Iff 'p <-> q'>"),
    (fm.Top, dict(), "<Top 'T'>"),
    (fm.Bottom, dict(), "<Bottom 'F'>"),
    (fm.HookR, dict(left=p, right=q), "<HookR 'p @> q'>"),
    (fm.HookL, dict(left=p, right=q), "<HookL 'p <@ q'>"),
    (fm.Box, dict(sub=p), "<Box '[]p'>"),
    (frames.BinRel, dict(size=2, succ=(1, 3)), "BinRel(size=2, succ=(1, 3))"),
    (frames.Model, dict(frame=FRAME1, valuation={"p": {0}}), "<Model size=1 letters=['p']>"),
    (frames.AssocCounterexample, dict(x=0, a=1, b=0, c=1, direction="left_to_right"),
     "AssocCounterexample(x=0, a=1, b=0, c=1, direction='left_to_right')"),
    (tiling.Tile, dict(up=1, down=2, left=3, right=4), "Tile(up=1, down=2, left=3, right=4)"),
    (tiling.TileSet, dict(names=("a",), tiles=(TILE,)),
     "TileSet(names=('a',), tiles=(Tile(up=1, down=2, left=3, right=4),))"),
    (tiling.Grid, dict(width=1, height=1, cells={(0, 0): 0}),
     "Grid(width=1, height=1, cells={(0, 0): 0})"),
    (tiling.Mismatch, dict(col=0, row=1, edge="vertical"),
     "Mismatch(col=0, row=1, edge='vertical')"),
    (tiling.PeriodicTiling, dict(periods=(1, 1), cells={(0, 0): 0}),
     "PeriodicTiling(periods=(1, 1), cells={(0, 0): 0})"),
    (semantics.Valid, dict(), "Valid()"),
    (semantics.Refuted, dict(model=MODEL, world=0),
     "Refuted(model=<Model size=1 letters=['p']>, world=0)"),
    (semantics.Unknown, dict(reason="why"), "Unknown(reason='why')"),
    (tl.Team, dict(inventory=("p", "q"), members=frozenset({1, 2})),
     "Team(inventory=('p', 'q'), members=frozenset({1, 2}))"),
    (tl.TeamValid, dict(), "TeamValid()"),
    (tl.Counterteam, dict(team=TEAM),
     "Counterteam(team=Team(inventory=('p', 'q'), members=frozenset({1, 2})))"),
    (tl.PMorphismReport, dict(forth=True, back=False, equivalence=True,
                              failures=("back at 3",)),
     "PMorphismReport(forth=True, back=False, equivalence=True, failures=('back at 3',))"),
    (ps.SidePart, dict(kind="fin", elems=frozenset({2})),
     "SidePart(kind='fin', elems=frozenset({2}))"),
    (ps.SymState, dict(even=FIN2, odd=COFIN1),
     "SymState(even=SidePart(kind='fin', elems=frozenset({2})), "
     "odd=SidePart(kind='cofin', elems=frozenset({1})))"),
    (ps.ConjunctReport, dict(name="seed", status="pass", witness=None, note="checked"),
     "ConjunctReport(name='seed', status='pass', witness=None, note='checked')"),
    (ps.Report, dict(mode="union", depth=2, entries=(SEED,)),
     "Report(mode='union', depth=2, entries=(ConjunctReport(name='seed', status='pass', "
     "witness=None, note='checked'),))"),
    (ex.Axes, dict(z=0, x=(1, 2), y=(3, 4), xp=(5,), yp=(6,)),
     "Axes(z=0, x=(1, 2), y=(3, 4), xp=(5,), yp=(6,))"),
    (ex.GridPoints, dict(k=1, points={(1, 1): 2}, axes=AXES),
     "GridPoints(k=1, points={(1, 1): 2}, axes=Axes(z=0, x=(1, 2), y=(3, 4), "
     "xp=(5,), yp=(6,)))"),
]

#: Records with a field that cannot be hashed.
UNHASHABLE = {ex.GridPoints, tiling.Grid, tiling.PeriodicTiling}


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[c.__name__ for c, _, _ in RECORDS])
def test_record_behaves_as_its_dataclass_did(cls, fields, text):
    record = cls(*fields.values())
    assert record == cls(**fields) and not record != cls(**fields)
    assert repr(record) == text
    assert not hasattr(record, "__dict__")
    for name, value in fields.items():
        assert getattr(record, name) == value
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(**fields))
    if fields:
        name = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(record, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record != object()


@pytest.mark.parametrize("record", [cls(**fields) for cls, fields, _ in RECORDS] + [
    frames.Frame(2, {(0, 0, 1), (1, 1, 1)}), frames.Frame.from_rows(2, {0: {1: 1}, 1: {1: 2}}),
    frames.powerset_frame(2), frames.semilattice_frame([[0, 1], [1, 1]]),
], ids=[cls.__name__ for cls, _, _ in RECORDS] + ["Frame", "Frame.from_rows", "powerset_frame",
                                                 "semilattice_frame"])
def test_record_survives_pickling_and_copying(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is type(record) and twin == record and repr(twin) == repr(record)


#: Formulas nested past the recursion limit, and one in team notation.
DEEP = {
    "neg-3000": fm.parse("~" * 3000 + "p"),
    "implies-3000": fm.parse(" -> ".join(f"p{i}" for i in range(3000))),
    "box-2000": fm.parse("[]" * 2000 + "p"),
    "team": tl.parse_team_formula("~~(p | q) \\|/ p & (q | ~~p)"),
}


@pytest.mark.parametrize("formula", DEEP.values(), ids=DEEP)
def test_formula_survives_pickling_and_copying_at_any_depth(formula):
    for twin in (pickle.loads(pickle.dumps(formula)), copy.copy(formula), copy.deepcopy(formula)):
        assert type(twin) is type(formula) and twin == formula


def test_model_is_frozen():
    with pytest.raises(AttributeError):
        MODEL.frame = frames.Frame(2, ())
    with pytest.raises(AttributeError):
        del MODEL.frame
    with pytest.raises(TypeError):
        MODEL.masks["p"] = 0
    with pytest.raises(TypeError):
        del MODEL.masks["p"]
    assert MODEL == frames.Model(FRAME1, {"p": {0}}) and dict(MODEL.masks) == {"p": 1}


def _record_types() -> set[type]:
    """Every subclass of Record in tilemodal's modules."""
    for info in pkgutil.iter_modules(tilemodal.__path__):
        importlib.import_module(f"tilemodal.{info.name}")
    found, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("tilemodal."):
                found.add(cls)
    return found


def test_every_record_type_is_checked():
    """A record type added to tilemodal must be added to RECORDS too."""
    exempt = {fm.Formula, fm._Unary, fm._Binary, frames.Frame}
    assert _record_types() - exempt == {cls for cls, _, _ in RECORDS}


def test_records_state_their_identity_only_through_fields():
    """==, hash and pickling all read _fields(): no record type defines
    __eq__ or __hash__ of its own."""
    for cls in _record_types():
        assert not {"__eq__", "__hash__"} & cls.__dict__.keys(), cls


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[c.__name__ for c, _, _ in RECORDS])
def test_record_rejects_a_bad_field_list(cls, fields, text):
    values = list(fields.values())
    with pytest.raises(TypeError):
        cls(*values, values[0] if values else 0)  # one value too many
    with pytest.raises(TypeError):
        cls(**fields, unknown=0)
    if fields:
        first, *rest = fields
        with pytest.raises(TypeError):
            cls(**{name: fields[name] for name in rest})  # the first missing
        with pytest.raises(TypeError):
            cls(fields[first], **fields)  # the first given twice


def test_records_of_different_types_differ():
    assert semantics.Valid() != tl.TeamValid()
    assert tiling.Mismatch(0, 1, "vertical") != tiling.Mismatch(0, 1, "horizontal")
    assert ps.Report("union", 2) == ps.Report("union", 2, ())


@pytest.mark.parametrize("build", [
    lambda: fm.Letter("T"),
    lambda: tiling.Tile(0, -1, 0, 0),
    lambda: tiling.TileSet((), ()),
    lambda: tiling.TileSet(("a", "a"), (TILE, TILE)),
    lambda: tiling.PeriodicTiling((1, 2), {(0, 0): 0}),
    lambda: frames.BinRel(1, (2,)),
    lambda: tl.Team(("p",), {2}),
    lambda: ps.SidePart("both", ()),
    lambda: ps.SymState(ps.SidePart("fin", {1}), ps.SidePart("fin", ())),
])
def test_record_checks_its_fields(build):
    with pytest.raises(ValueError):
        build()
