"""Layered tree forests grown on a built mosaic.

Trees are grown level by level using the maximum number of edges between
consecutive levels: every level-i vertex with a neighbour on level i-1 gets
exactly one such neighbour as its parent (for p >= 4 that neighbour is
forced), no edges are added inside a level, and vertices with no lower
neighbour become roots of new trees.  The seed vertex is the main root.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateForestError, StructureError
from .mosaic import Mosaic


class VertexClass(Enum):
    A = "A"  # extends a tree: one parent on the previous level
    B = "B"  # root of a new tree


@dataclass
class Forest:
    """The grown levels of a mosaic: each vertex's parent and its root's level."""

    mosaic: Mosaic
    levels: int
    parent: list[int | None]
    root_level: list[int | None]

    MAIN_ROOT = 0

    def _layer(self, i: int, least: int = 0) -> list[int]:
        if not least <= i <= self.levels:
            raise ValueError(f"level {i} outside grown range {least}..{self.levels}")
        return self.mosaic.layers[i]

    def vertex_class(self, v: int) -> VertexClass | None:
        """B for a root (no parent), A otherwise; None above the grown levels."""
        if self.mosaic.layer_of[v] > self.levels:
            return None
        return VertexClass.B if self.parent[v] is None else VertexClass.A

    def counts(self, i: int) -> tuple[int, int]:
        """Empirical (a_i, b_i) on level i: b_i counts the vertices with no parent."""
        layer = self._layer(i)
        b = [self.parent[v] for v in layer].count(None)
        return (len(layer) - b, b)

    def root_level_histogram(self, i: int) -> dict[int, int]:
        """How many level-i vertices have their root on each level j."""
        hist: dict[int, int] = {}
        for v in self._layer(i):
            j = self.root_level[v]
            hist[j] = hist.get(j, 0) + 1
        return dict(sorted(hist.items()))

    def main_root_descendants(self, i: int) -> int:
        """Number of level-i vertices whose tree root is the seed vertex.

        The seed is the only vertex on level 0, so these are the vertices
        with root level 0.
        """
        return [self.root_level[v] for v in self._layer(i, least=1)].count(0)

    def tree_edges(self) -> list[tuple[int, int]]:
        """(parent, child) pairs for every non-root grown vertex, by child id."""
        out = []
        for i in range(1, self.levels + 1):
            for v in self.mosaic.layers[i]:
                u = self.parent[v]
                if u is not None:
                    out.append((u, v))
        return out

    def roots(self) -> list[int]:
        """All roots of the grown region, the main root first."""
        out = [self.MAIN_ROOT]
        for i in range(1, self.levels + 1):
            out.extend(v for v in self.mosaic.layers[i] if self.parent[v] is None)
        return out

    def spanning_tree(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Forest edges plus one connector per non-main root.

        Each non-main root is joined to its counter-clockwise neighbour on
        its own boundary cycle, stitching every tree onto the main one.
        Returns (tree_edges, connector_edges); their union spans all grown
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

    def to_dot(self, title: str | None = None) -> str:
        """Deterministic DOT text: layers annotated, roots boxed, main root doubled."""
        s = self.mosaic.symbol
        name = title or f"forest_{s.p}_{s.q}_{self.levels}"
        lines = [f'digraph "{name}" {{']
        lines.append("  node [fontsize=10];")
        for i in range(self.levels + 1):
            for v in self.mosaic.layers[i]:
                cls = self.vertex_class(v)
                shape = "circle"
                if cls is VertexClass.B:
                    shape = "doublecircle" if v == self.MAIN_ROOT else "box"
                lines.append(f'  v{v} [label="{v} L{i} {cls.value}" shape={shape}];')
        for u, v in self.tree_edges():
            lines.append(f"  v{u} -> v{v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def grow(mosaic: Mosaic, levels: int | None = None, allow_triangles: bool = False) -> Forest:
    """Grow the layered forest on `mosaic` up to `levels` (default: all belts).

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
    if levels is None:
        levels = mosaic.belts
    if not 0 <= levels <= mosaic.belts:
        raise ValueError(f"levels must be in 0..{mosaic.belts}, got {levels}")

    rot, layer_of = mosaic.rot, mosaic.layer_of
    n = mosaic.vertex_count
    parent: list[int | None] = [None] * n
    root_level: list[int | None] = [None] * n
    root_level[0] = 0

    for i in range(1, levels + 1):
        lower = i - 1
        adopted: set[int] = set()  # level i-1 vertices given a child so far
        for v in mosaic.layers[i]:
            # scan for the lower neighbours without building a list per vertex
            u = None  # the first, as down_neighbors(v) lists them
            more = False
            for w in rot[v]:
                if layer_of[w] == lower:
                    if u is None:
                        u = w
                    else:
                        more = True
            if u is None:
                root_level[v] = i
                continue
            if more:
                below = [w for w in rot[v] if layer_of[w] == lower]
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

    return Forest(mosaic=mosaic, levels=levels, parent=parent, root_level=root_level)
