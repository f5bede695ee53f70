"""Layered tree forests grown on a built mosaic.

Trees are grown level by level using the maximum number of edges between
consecutive levels: every level-i vertex with a neighbour on level i-1 gets
exactly one such neighbour as its parent (for p >= 4 that neighbour is
forced), no edges are added inside a level, and vertices with no lower
neighbour become roots of new trees.  The seed vertex is the main root.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import DegenerateForestError, StructureError
from .mosaic import _TEXT_BLOCK, Mosaic


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

    def tree_edges(self) -> list[tuple[int, int]]:
        """(parent, child) pairs for every non-root vertex, by child id."""
        return [(u, v) for v, u in enumerate(self.parent) if u is not None]

    def roots(self) -> list[int]:
        """All roots, the main root first."""
        return [v for v, u in enumerate(self.parent) if u is None]

    def spanning_tree(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Forest edges plus one connector per non-main root.

        Each non-main root is joined to its counter-clockwise neighbour on
        its own boundary cycle, stitching every tree onto the main one.
        Returns (tree_edges, connector_edges); their union spans all
        vertices with |E| = |V| - 1.
        """
        connectors = []
        for i in range(1, self.levels + 1):
            layer = self.mosaic.layers[i]
            m = len(layer)
            for k, v in enumerate(layer):
                if self.parent[v] is None:
                    connectors.append((v, layer[(k + 1) % m]))
        return self.tree_edges(), connectors

    def to_dot(self) -> str:
        """Deterministic DOT text: layers annotated, roots boxed, main root doubled.

        Each vertex, then each tree edge, is one line; the lines are joined a
        block of vertices at a time.
        """
        s = self.mosaic.symbol
        text = [f'digraph "forest_{s.p}_{s.q}_{self.levels}" {{\n  node [fontsize=10];\n']
        parent = self.parent
        for i, layer in enumerate(self.mosaic.layers):
            root = "doublecircle" if i == 0 else "box"
            for lo in range(0, len(layer), _TEXT_BLOCK):
                lines = [
                    f'  v{v} [label="{v} L{i} A" shape=circle];\n'
                    if parent[v] is not None
                    else f'  v{v} [label="{v} L{i} B" shape={root}];\n'
                    for v in layer[lo : lo + _TEXT_BLOCK]
                ]
                text.append("".join(lines))
        for lo in range(0, len(parent), _TEXT_BLOCK):
            block = enumerate(parent[lo : lo + _TEXT_BLOCK], lo)
            text.append("".join([f"  v{u} -> v{v};\n" for v, u in block if u is not None]))
        text.append("}\n")
        return "".join(text)


def grow(mosaic: Mosaic, *, allow_triangles: bool = False) -> Forest:
    """Grow the layered forest on every level of `mosaic`.

    q = 3 is rejected (a level vertex has no spare edge toward the next
    level).  p = 3 needs `allow_triangles=True`: there every vertex above
    the seed touches two lower vertices, the parent choice is no longer
    forced, and a deterministic greedy pass (prefer a childless lower
    neighbour, then the smallest id) picks one; no roots appear beyond the
    main one.  For p >= 4 a second lower neighbour is a structural
    impossibility and raises StructureError rather than being tie-broken.
    """
    symbol = mosaic.symbol
    if symbol.q == 3:
        raise DegenerateForestError(
            f"{symbol}: with q = 3 every level vertex spends its whole degree on "
            "its own level and below; there are no trees to grow"
        )
    if symbol.p == 3 and not allow_triangles:
        raise DegenerateForestError(
            f"{symbol}: with p = 3 parents are not forced and no roots appear "
            "beyond the main one; pass allow_triangles=True to grow anyway"
        )
    rot = mosaic.rot
    n = mosaic.vertex_count
    parent: list[int | None] = [None] * n
    root_level = [0] * n

    for i in range(1, len(mosaic.layers)):
        lower = mosaic.layers[i - 1]
        lo, hi = lower.start, lower.stop
        adopted: set[int] = set()  # level i-1 vertices given a child so far
        for v in mosaic.layers[i]:
            # scan for the lower neighbours without building a list per vertex
            u = None  # the first in rotation order
            more = False
            for w in rot[v]:
                if lo <= w < hi:
                    if u is None:
                        u = w
                    else:
                        more = True
            if u is None:
                root_level[v] = i
                continue
            if more:
                below = [w for w in rot[v] if lo <= w < hi]
                if symbol.p >= 4:
                    raise StructureError(
                        f"vertex {v} on level {i} has {len(below)} lower neighbours; "
                        f"parenthood must be forced for p >= 4"
                    )
                # p = 3: prefer a childless lower neighbour, then the smallest id
                childless = [w for w in below if w not in adopted]
                u = min(childless) if childless else min(below)
            adopted.add(u)
            parent[v] = u
            root_level[v] = root_level[u]

    return Forest(mosaic=mosaic, parent=parent, root_level=root_level)
