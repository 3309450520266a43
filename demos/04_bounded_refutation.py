# Bounded symbolic checking of the powerset-frame refutation: given a
# periodic tiling, every body conjunct is verified over a finite universe of
# states described side-by-side as finite or cofinite sets.

from tilemodal.powerset_symbolic import (
    check_refutation,
    decompositions,
    render_state,
    state_n,
    universe,
)
from tilemodal.tiling import PeriodicTiling, Tile, TileSet

mono = TileSet(("t1",), (Tile(0, 0, 0, 0),))
tau = PeriodicTiling((1, 1), {(0, 0): 0})

print(f"universe at depth 2: {len(universe(2, 'union'))} states, e.g.")
for s in universe(2, "union")[:5]:
    print("  ", render_state(s))

print()
print("decompositions of the all-naturals state at depth 1:")
for a, b in decompositions(state_n(), 1):
    print(f"  {render_state(a)}  +  {render_state(b)}")

print()
for mode in ("union", "disjoint_union", "union_nonempty"):
    report = check_refutation(mono, tau, 3, mode)
    print(f"{mode}: all 15 conjuncts pass = {report.passed}")

# Corrupting the tiling (a torus repeating one tile whose right edge does
# not match its own left edge) trips the horizontal step conjuncts, with a
# witness state naming where the check broke.
swap = TileSet(("a", "b"), (Tile(0, 0, 1, 2), Tile(0, 0, 2, 1)))
broken = PeriodicTiling((2, 1), {(0, 0): 0, (1, 0): 0})
report = check_refutation(swap, broken, 3, "union")
print()
print("corrupted torus:")
for entry in report.entries:
    if not entry.passed:
        print(f"  {entry.name} fails at {render_state(entry.witness)}")
