"""Layered tree forests grown on a built mosaic.

Trees are grown level by level using the maximum number of edges between
consecutive levels: every level-i vertex with a neighbour on level i-1 takes
the first such neighbour in its rotation as its parent, no edges are added
inside a level, and vertices with no lower neighbour become roots of new
trees.  The seed vertex is the main root.

For p >= 4 a vertex has at most one lower neighbour.  For p = 3 a fan's last
tip has two, and its rotation lists the next fan's vertex first.  That vertex
has no child yet, while the fan's own vertex already has one, so the rule
picks what a greedy choice "a lower neighbour without a child, then the
smallest id" picks, and every vertex below the outer level gets a child.  At
a layer's first id neither has a child, and the first in rotation is also
the smaller id.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

from .errors import DegenerateForestError, StructureError
from .mosaic import Mosaic, text_blocks
from .recurrence import SchlafliSymbol, forest_domain_reason


@dataclass
class Forest:
    """A forest over every level of a mosaic: each vertex's parent and its root's level.

    A vertex is a root exactly when its parent is None.
    """

    mosaic: Mosaic
    parent: list[int | None]
    root_level: list[int]

    @property
    def levels(self) -> int:
        return self.mosaic.belts

    def _layer(self, i: int) -> range:
        if not 0 <= i <= self.levels:
            raise ValueError(f"level {i} outside grown range 0..{self.levels}")
        return self.mosaic.layers[i]

    def counts(self, i: int) -> tuple[int, int]:
        """Empirical (a_i, b_i) on level i: b_i counts the vertices with no parent."""
        layer = self._layer(i)
        b = self.parent[layer.start : layer.stop].count(None)
        return (len(layer) - b, b)

    def root_level_histogram(self, i: int) -> dict[int, int]:
        """How many level-i vertices have their root on each level j."""
        layer = self._layer(i)
        return dict(sorted(Counter(self.root_level[layer.start : layer.stop]).items()))

    def _tree_edges(self) -> Iterator[tuple[int, int]]:
        """(parent, child) for every non-root vertex, by child id."""
        return ((u, v) for v, u in enumerate(self.parent) if u is not None)

    def _connectors(self) -> Iterator[tuple[int, int]]:
        """(root, its counter-clockwise neighbour on its layer) for every non-main root."""
        parent = self.parent
        for layer in self.mosaic.layers[1:]:
            m = len(layer)
            for k, v in enumerate(layer):
                if parent[v] is None:
                    yield v, layer[(k + 1) % m]

    def spanning_tree(self) -> tuple[Iterator[tuple[int, int]], Iterator[tuple[int, int]]]:
        """Forest edges plus one connector per non-main root, as two iterators.

        Each non-main root is joined to its counter-clockwise neighbour on
        its own boundary cycle, stitching every tree onto the main one.
        Returns (tree_edges, connector_edges), where tree_edges gives a
        (parent, child) pair for every non-root vertex, by child id; their
        union spans all vertices with |E| = |V| - 1.  Each iterator makes its
        pairs from `parent` and `mosaic.layers` as it is consumed, once.
        """
        return self._tree_edges(), self._connectors()

    def spanning_tree_text(self) -> str:
        """Plain text export of `spanning_tree`: a header line, then its pairs.

        Each tree edge is a 'u v' line and each connector a 'u v connector'
        line; the lines are joined through `text_blocks`.
        """
        s, m = self.mosaic.symbol, self.mosaic
        header = f"# spanning-tree p={s.p} q={s.q} levels={m.belts} vertices={m.vertex_count}\n"
        tree = (f"{u} {v}\n" for u, v in self._tree_edges())
        connectors = (f"{u} {v} connector\n" for u, v in self._connectors())
        return "".join(text_blocks(chain((header,), tree, connectors)))

    def to_dot(self) -> str:
        """Deterministic DOT text: layers annotated, roots boxed, main root doubled.

        Each vertex, then each tree edge, is one line, joined through `text_blocks`.
        """
        s = self.mosaic.symbol
        parent = self.parent
        header = f'digraph "forest_{s.p}_{s.q}_{self.levels}" {{\n  node [fontsize=10];\n'
        nodes = (
            f'  v{v} [label="{v} L{i} A" shape=circle];\n'
            if parent[v] is not None
            else f'  v{v} [label="{v} L{i} B" shape={"box" if i else "doublecircle"}];\n'
            for i, layer in enumerate(self.mosaic.layers)
            for v in layer
        )
        edges = (f"  v{u} -> v{v};\n" for v, u in enumerate(parent) if u is not None)
        return "".join(text_blocks(chain((header,), nodes, edges, ("}\n",))))


def _require_growable(symbol: SchlafliSymbol, allow_triangles: bool) -> None:
    """Raise DegenerateForestError where `grow` refuses `symbol`, before any build."""
    if symbol.q == 3 or (symbol.p == 3 and not allow_triangles):
        hint = "" if symbol.q == 3 else "; pass allow_triangles=True to grow anyway"
        raise DegenerateForestError(f"{symbol}: {forest_domain_reason(symbol)}{hint}")


def grow(mosaic: Mosaic, *, allow_triangles: bool = False) -> Forest:
    """Grow the layered forest on every level of `mosaic`.

    Every vertex above the seed with a lower neighbour takes the first one in
    its rotation as its parent; the others are roots.  q = 3 is rejected: a
    level vertex has at most one edge toward the next level, so no tree
    branches.  p = 3 needs `allow_triangles=True`: there a fan's last tip
    has two lower neighbours, so not every parent is forced, and no roots
    appear beyond the main one.  For p >= 4 a second lower neighbour is a
    structural impossibility and raises StructureError rather than being
    tie-broken.
    """
    symbol = mosaic.symbol
    _require_growable(symbol, allow_triangles)
    p = symbol.p
    rot = mosaic.rot
    n = mosaic.vertex_count
    parent: list[int | None] = [None] * n
    root_level = [0] * n

    for i in range(1, len(mosaic.layers)):
        lower = mosaic.layers[i - 1]
        lo, hi = lower.start, lower.stop
        for v in mosaic.layers[i]:
            u = None  # the first lower neighbour in rotation order
            for w in rot[v]:
                if lo <= w < hi:
                    if u is None:
                        u = w
                    elif p >= 4:
                        below = sum(lo <= x < hi for x in rot[v])
                        raise StructureError(
                            f"vertex {v} on level {i} has {below} lower neighbours; "
                            f"parenthood must be forced for p >= 4"
                        )
            if u is None:
                root_level[v] = i
            else:
                parent[v] = u
                root_level[v] = root_level[u]

    return Forest(mosaic=mosaic, parent=parent, root_level=root_level)
