"""Growing the layered forest and reading it back.

Each level-i vertex with a neighbour one level down takes that neighbour
as its parent (the choice is forced for p >= 4); the rest become roots of
new trees.  We grow {4,5}, compare empirical counts with the recursion,
histogram the root levels, stitch everything into one spanning tree, and
emit DOT text for graphviz.
"""

from fractions import Fraction

from mosaicforest import (
    SchlafliSymbol,
    build,
    exact_distribution,
    grow,
    layer_counts,
)

symbol = SchlafliSymbol(4, 5)
levels = 6
forest = grow(build(symbol, levels))
rows = layer_counts(symbol, levels)

print(f"== {symbol}, {levels} levels ==")
print(f"{'i':>3} {'a (grown)':>10} {'b (grown)':>10} {'recursion':>16}")
for i in range(levels + 1):
    a, b = forest.counts(i)
    print(f"{i:>3} {a:>10} {b:>10} {f'({rows[i].a}, {rows[i].b})':>16}")

i = levels
hist = forest.root_level_histogram(i)
dist = exact_distribution(symbol, i, rows)
print(f"\nroot-level histogram on level {i} (count / total = exact mass):")
for j, count in hist.items():
    mass = Fraction(count, rows[i].total)
    print(f"  j={j}: {count:>6}   {mass} == {dist.point_mass(j)}: {mass == dist.point_mass(j)}")

print(f"\nmain-root descendants by level: "
      f"{[forest.root_level_histogram(i).get(0, 0) for i in range(1, levels + 1)]}")
print(f"fan-outs: the main root has q children, other roots q-2, A vertices q-3")

tree, connectors = forest.spanning_tree()
n = forest.mosaic.vertex_count
print(f"\nspanning tree: {len(tree)} parent edges + {len(connectors)} connectors "
      f"= {len(tree) + len(connectors)} = |V|-1 = {n - 1}")

small = grow(build(symbol, 2))
print("\nDOT export of a 2-level forest (head):")
print("\n".join(small.to_dot().split("\n")[:8]))
print("  ...")

tri = grow(build(SchlafliSymbol(3, 7), 4), allow_triangles=True)
roots = [v for v, u in enumerate(tri.parent) if u is None]
print(f"\n{{3,7}} in triangle mode: roots = {roots} (only the seed), "
      f"so the forest is already a single spanning tree")
