"""Belt-by-belt construction of a regular {p,q} tiling as a combinatorial map.

Belt 0 is a seed vertex; belt i+1 consists of the p-gons touching belt i
(possibly at a single vertex) but not belt i-1.  Level/layer i is the outer
boundary cycle of belt i.  The map is purely combinatorial: each vertex
stores its incident neighbours in counter-clockwise rotation order, so faces
can be recovered by rotation walks and no coordinates are ever needed.

Construction sweeps the current boundary counter-clockwise and fans new
cells around each boundary vertex until its cell count reaches q.  A new
cell shares either one boundary edge ("edge"-attached, the last cell of a
fan) or exactly one boundary vertex ("vertex"-attached, the inner cells of
a fan).  New vertices are numbered in creation order along the sweep, which
makes builds fully deterministic.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Iterator

from .errors import SizeLimitError, SphericalSymbolError, StructureError
from .recurrence import Geometry, SchlafliSymbol

DEFAULT_VERTEX_CAP = 10_000_000


class Mosaic:
    """A built tiling patch: rotation system, layer annotations, cells."""

    def __init__(self, symbol, belts, rot, layer_of, layers, cells, belt_sizes):
        self.symbol: SchlafliSymbol = symbol
        self.belts: int = belts
        self.rot: list[tuple[int, ...]] = rot  # CCW neighbour order per vertex
        self.layer_of: list[int] = layer_of
        self.layers: list[list[int]] = layers  # boundary cycle per layer
        self.cells: list[tuple[int, ...]] = cells  # CCW vertex cycles, belt by belt
        self.belt_sizes: list[int] = belt_sizes  # cells per belt, index 0 = belt 1

    @property
    def vertex_count(self) -> int:
        return len(self.rot)

    @property
    def layer_sizes(self) -> list[int]:
        return [len(layer) for layer in self.layers]

    def layer(self, i: int) -> list[int]:
        """Layer-i boundary cycle in counter-clockwise order (layer 0 = the seed)."""
        if not 0 <= i <= self.belts:
            raise ValueError(f"layer {i} outside built range 0..{self.belts}")
        return list(self.layers[i])

    def neighbors(self, v: int) -> list[int]:
        return list(self.rot[v])

    def degree(self, v: int) -> int:
        return len(self.rot[v])

    def down_neighbors(self, v: int) -> list[int]:
        """Neighbours of v on the previous layer, in rotation order."""
        below = self.layer_of[v] - 1
        return [w for w in self.rot[v] if self.layer_of[w] == below]

    def is_interior(self, v: int) -> bool:
        return self.layer_of[v] < self.belts

    def edges(self) -> Iterator[tuple[int, int]]:
        """Undirected edges as ordered (u, v) pairs with u < v, ascending."""
        for u, nbrs in enumerate(self.rot):
            for v in sorted(nbrs):
                if u < v:
                    yield (u, v)

    def edge_list_text(self) -> str:
        """Plain text export: a header line, then one 'u v' pair per line."""
        s = self.symbol
        lines = [f"# p={s.p} q={s.q} belts={self.belts} vertices={self.vertex_count}"]
        lines.extend(f"{u} {v}" for u, v in self.edges())
        return "\n".join(lines) + "\n"


class _Builder:
    def __init__(self, p: int, q: int, cap: int):
        self.p = p
        self.q = q
        self.cap = cap
        # vertex 0 is the seed; per-vertex ints grow in creation order, which
        # is layer by layer, so layer i holds the next run of ids
        self.down = [-1]  # the lower neighbour of a tip, -1 for none
        self.down2: dict[int, int] = {}  # p = 3: a tip's lower neighbour after `down`
        self.ncells = [0]
        self.rot: list[tuple[int, ...]] = []  # each written once, when final
        self.cells: list[tuple[int, ...]] = []
        self.layers: list[list[int]] = [[0]]
        self.belt_sizes: list[int] = []
        self.belt = 0  # the belt being built

    def new_vertices(self, count: int) -> range:
        """`count` new vertices of the current belt; refuses vertex id `cap`."""
        first = len(self.ncells)
        if first + count > self.cap:
            raise SizeLimitError(
                f"vertex cap {self.cap} exceeded while building belt {self.belt}"
            )
        self.down += [-1] * count
        self.ncells += [0] * count
        return range(first, first + count)

    def add_cell(self, *verts: int) -> None:
        self.cells.append(verts)
        ncells = self.ncells
        for v in verts:
            ncells[v] += 1

    def close_belt(self) -> None:
        """Record the belt's cell count and its outer layer: the ids it created."""
        self.belt_sizes.append(len(self.cells) - sum(self.belt_sizes))
        self.layers.append(list(range(self.layers[-1][-1] + 1, len(self.ncells))))

    def first_belt(self) -> None:
        """q cells around the seed; the seed's rotation is its q spokes."""
        p, q = self.p, self.q
        self.belt = 1
        n = p - 2  # new vertices per cell: a spoke's tip, then p - 3 arcs
        ring = self.new_vertices(q * n)
        spokes = ring[::n]
        for j, tip in enumerate(spokes):
            self.down[tip] = 0
            self.add_cell(0, *ring[j * n : (j + 1) * n], spokes[(j + 1) % q])
        self.rot.append(tuple(spokes))
        self.close_belt()

    def next_belt(self, belt: int) -> None:
        p, q = self.p, self.q
        self.belt = belt
        old = self.layers[-1]
        rot, down, down2, ncells = self.rot, self.down, self.down2, self.ncells
        new_vertices, add_cell = self.new_vertices, self.add_cell

        # start the sweep at a vertex that will own at least one radial tip
        start = next(i for i, v in enumerate(old) if ncells[v] <= q - 2)
        walk = old[start:] + old[:start]
        m = len(walk)
        # old's rotations are final once its fans close; rot[v] is written then
        rot += [()] * m

        v0 = walk[0]
        s0 = new_vertices(1)[0]  # tip shared by v0's first own cell and the closing cell
        down[s0] = v0
        carry = s0

        for k in range(m):
            v = walk[k]
            d = down[v]
            below = () if d < 0 else (d, down2[v]) if v in down2 else (d,)
            missing = q - ncells[v] - (1 if k == 0 else 0)
            if missing <= 0:
                # already completed by a run cell sweeping past it: no tips
                rot[v] = (walk[k - 1], walk[k + 1 - m], *below)
                continue
            tips = [carry]  # v's radial tips, in fan order

            # inner fan cells: share only the vertex v with the old boundary
            for t in range(missing - 1):
                if p == 3 and k == m - 1 and t == missing - 2:
                    tip = s0  # the ring's merged tip already exists
                    down2[tip] = v
                    add_cell(v, carry, tip)
                else:
                    path = new_vertices(p - 2)  # the cell's arcs, then its tip
                    tip = path[-1]
                    down[tip] = v
                    add_cell(v, carry, *path)
                tips.append(tip)
                carry = tip

            # the closing cell of the fan: shares the boundary edge(s) ahead
            inner = [v]
            pos = k + 1
            ring = False
            while True:
                if pos == m:
                    inner.append(walk[0])
                    ring = True
                    break
                u = walk[pos]
                inner.append(u)
                if ncells[u] + 1 == q:
                    pos += 1  # u gets full with this very cell: run through it
                    continue
                break
            end = inner[-1]
            if p == 3:
                # triangle closing cells reuse the carry tip, merging it onto `end`
                if ring:
                    if carry != s0:
                        raise StructureError("triangle ring closure lost its seam tip")
                else:
                    down2[carry] = down[carry]
                    down[carry] = end
                add_cell(v, carry, end)
            else:
                n_arcs = p - len(inner) - 2
                if n_arcs < 0:
                    raise StructureError(
                        f"belt {belt}: cell run longer than a {p}-gon can cover"
                    )
                if ring:
                    add_cell(v, carry, *new_vertices(n_arcs), s0, *reversed(inner[1:]))
                    carry = s0
                else:
                    path = new_vertices(n_arcs + 1)  # the cell's arcs, then its tip
                    down[path[-1]] = end
                    add_cell(v, carry, *path, *reversed(inner[1:]))
                    carry = path[-1]

            # v turns from its previous neighbour through its tips to its next one and down
            rot[v] = (walk[k - 1], *tips, walk[k + 1 - m], *below)

        self.close_belt()

    def finish(self, symbol: SchlafliSymbol, belts: int) -> Mosaic:
        down2, outer = self.down2, self.layers[-1]
        # the outer layer, the last run of ids, has no tips: each vertex turns
        # from its previous neighbour to its next one and down
        self.rot += [
            (u, w) if d < 0 else (u, w, d, down2[v]) if v in down2 else (u, w, d)
            for u, v, w, d in zip(
                outer[-1:] + outer[:-1], outer, outer[1:] + outer[:1], self.down[outer[0] :]
            )
        ]
        return Mosaic(
            symbol=symbol,
            belts=belts,
            rot=self.rot,
            layer_of=[i for i, layer in enumerate(self.layers) for _ in layer],
            layers=self.layers,
            cells=self.cells,
            belt_sizes=self.belt_sizes,
        )


def build(symbol: SchlafliSymbol, belts: int, cap: int = DEFAULT_VERTEX_CAP) -> Mosaic:
    """Materialise belts 0..belts of the {p,q} tiling around a seed vertex.

    Spherical symbols are rejected (their belts terminate); Euclidean and
    hyperbolic ones, including p = 3 and q = 3, are supported.  Raises
    SizeLimitError once more than `cap` vertices would be created.
    """
    if symbol.geometry is Geometry.SPHERICAL:
        raise SphericalSymbolError(
            f"{symbol} is spherical; its belt structure terminates after finitely many belts"
        )
    if belts < 1:
        raise ValueError("belts must be >= 1")
    b = _Builder(symbol.p, symbol.q, cap)
    b.first_belt()
    for i in range(2, belts + 1):
        b.next_belt(i)
    return b.finish(symbol, belts)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def __str__(self) -> str:
        return "\n".join(
            f"[{'ok' if c.passed else 'FAIL'}] {c.name}" + (f": {c.detail}" if c.detail else "")
            for c in self.checks
        )


def validate(mosaic: Mosaic) -> ValidationReport:
    """Run the structural invariant checks and report each outcome.

    Checks: cell sizes, interior degrees and cell counts, rotation-system
    face recovery (stored cells plus exactly one outer walk), outer boundary
    simplicity, per-edge cell coverage (interior 2, boundary 1) and Euler's
    formula.  They run over one dart numbering: dart (u, rot[u][i]) is
    first[u] + i.  A malformed map (say, a neighbour listed on one side only,
    or an id that names no vertex) fails a check; it never raises.
    """
    p, q = mosaic.symbol.p, mosaic.symbol.q
    rot, cells, outer = mosaic.rot, mosaic.cells, mosaic.layers[-1]
    n = len(rot)
    heads = list(chain.from_iterable(rot))
    checks: list[CheckResult] = []

    def report(name: str, failure: str | None) -> None:
        checks.append(CheckResult(name, failure is None, failure or ""))

    def ids() -> Iterator[int]:
        return chain(heads, outer, chain.from_iterable(cells))

    # an id that names no vertex reads as a vertex with no neighbours and no
    # cells: at[v] is the rotation of v, () for such an id
    if 0 <= min(ids(), default=0) and max(ids(), default=0) < n:
        strangers: set[int] = set()
        at, cells_at = rot, [0] * n
    else:
        strangers = {v for v in ids() if not 0 <= v < n}
        at = dict(enumerate(rot)) | dict.fromkeys(strangers, ())
        cells_at = dict.fromkeys(chain(range(n), strangers), 0)

    misfits = (c for c in cells if len(c) != p or len(set(c)) != p or not strangers.isdisjoint(c))
    bad = next(misfits, None)
    if bad is None:
        failure = None
    elif strangers.isdisjoint(bad):
        failure = f"cell {bad} is not a {p}-gon"
    else:
        failure = f"cell {bad} names {next(v for v in bad if v in strangers)}, outside 0..{n - 1}"
    report("cell-size", failure)

    for c in cells:
        for v in c:
            cells_at[v] += 1
    v = next(
        (
            v
            for v, nbrs in enumerate(rot)
            if mosaic.is_interior(v) and (len(nbrs) != q or cells_at[v] != q)
        ),
        None,
    )
    report(
        "interior-degree",
        None
        if v is None
        else f"vertex {v} has degree {len(rot[v])} and {cells_at[v]} cells (expected {q})",
    )

    first = list(accumulate(map(len, rot), initial=0))

    def dart(d: int) -> tuple[int, int]:
        return bisect_right(first, d) - 1, heads[d]

    # rev[d] is the dart back along d, at the first entry of d's tail in the
    # head's rotation; -1 if the head does not list the tail
    rev = [
        first[v] + at[v].index(u) if u in at[v] else -1
        for u, nbrs in enumerate(rot)
        for v in nbrs
    ]
    broken = next((d for d, e in enumerate(rev) if e < 0 or rev[e] != d), None)
    if broken is None:
        # faces turn clockwise at the head: the dart just before rev[d] there
        succ = [e - 1 if e > first[v] else first[v + 1] - 1 for e, v in zip(rev, heads)]

    # sides[d] counts the cell sides along dart d; a cell is a face when the
    # successor map chains its sides in order and no other side shares them
    sides = [0] * len(rev)
    stray = bad = None
    for vs in cells:
        ds = [
            first[a] + at[a].index(b) if b in at[a] else -1
            for a, b in zip(vs, vs[1:] + vs[:1])
        ]
        if -1 in ds:
            k = ds.index(-1)
            stray = stray or tuple(sorted((vs[k], vs[(k + 1) % len(vs)])))
            bad = bad or vs
            ds = [d for d in ds if d >= 0]
        elif bad is None and broken is None and [succ[d] for d in ds] != ds[1:] + ds[:1]:
            bad = vs
        for d in ds:
            sides[d] += 1

    if broken is not None:
        u, v = dart(broken)
        fault = f"{v} does not list {u}" if rev[broken] < 0 else f"{u} lists {v} twice"
        if v in strangers:
            fault = f"{v} is outside 0..{n - 1}"
        failure = f"dart ({u}, {v}): {fault}"
    elif bad is not None:
        failure = f"cell {bad} is not a face of the rotation system"
    elif max(sides, default=0) > 1:
        d = next(d for d, k in enumerate(sides) if k > 1)
        failure = f"dart {dart(d)} lies on {sides[d]} cells"
    else:
        # the darts on no cell must form one face: the outer one
        free = [d for d, k in enumerate(sides) if not k]
        walk = free[:1]
        while walk and succ[walk[-1]] != walk[0]:
            walk.append(succ[walk[-1]])
        face = len(walk) == len(free) == len(outer) and {heads[d] for d in walk} == set(outer)
        failure = None if face else f"the {len(free)} darts on no cell are not the outer face"
    report("rotation-faces", failure)

    ring = list(zip(outer, outer[1:] + outer[:1]))
    simple = len(outer) == len(set(outer)) and all(b in at[a] for a, b in ring)
    report("boundary-cycle", None if simple else "outer boundary is not a simple adjacent cycle")

    on_boundary = bytearray(len(rev))
    for a, b in ring:
        if b in at[a]:
            on_boundary[first[a] + at[a].index(b)] = 1
    # an edge is a pair of darts that are each other's reverse; tails ascend
    # with the dart index, so d < rev[d] takes each edge once, from u < v
    edges = 0
    failure = None
    for d, e in enumerate(rev):
        if d < e and rev[e] == d:
            edges += 1
            count, want = sides[d] + sides[e], 2 - (on_boundary[d] | on_boundary[e])
            if count != want and failure is None:
                failure = f"edge {dart(d)}: {count} cells, expected {want}"
    if failure is None and stray is not None:
        failure = f"edge {stray}: a cell side with no rotation edge"
    report("edge-coverage", failure)

    v_, e_, f_ = mosaic.vertex_count, edges, len(cells) + 1
    report("euler", None if v_ - e_ + f_ == 2 else f"V-E+F = {v_}-{e_}+{f_} != 2")

    return ValidationReport(tuple(checks))
