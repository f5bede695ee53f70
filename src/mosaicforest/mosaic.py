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

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, islice
from operator import add, contains, eq, itemgetter, ne

from .errors import SizeLimitError, SphericalSymbolError, StructureError
from .recurrence import Geometry, SchlafliSymbol

DEFAULT_VERTEX_CAP = 10_000_000
_BLOCK = 2048  # vertices or cells per list of ints made on the way into an array
# vertices per piece of exported text: pieces stay near 60 KB, where pieces
# four times as large left the benchmark's verify_cli peak RSS 1.7 MB higher
_TEXT_BLOCK = 1024


class Mosaic:
    """A built tiling patch: rotation system, layer id runs, cells."""

    def __init__(self, symbol, rot, layers, cells, belt_sizes):
        self.symbol: SchlafliSymbol = symbol
        self.rot: list[tuple[int, ...]] = rot  # CCW neighbour order per vertex
        self.layers: list[range] = layers  # layer i's ids, its boundary cycle in CCW order
        self.cells: list[tuple[int, ...]] = cells  # CCW vertex cycles, belt by belt
        self.belt_sizes: list[int] = belt_sizes  # cells per belt, index 0 = belt 1

    @property
    def belts(self) -> int:
        return len(self.layers) - 1

    @property
    def vertex_count(self) -> int:
        return len(self.rot)

    @property
    def layer_sizes(self) -> list[int]:
        return [len(layer) for layer in self.layers]

    def edge_list_text(self) -> str:
        """Plain text export: a header line, then one 'u v' pair per line.

        Each undirected edge is one pair with u < v, in ascending order; the
        lines are joined a block of vertices at a time.
        """
        s = self.symbol
        rot = self.rot
        text = [f"# p={s.p} q={s.q} belts={self.belts} vertices={self.vertex_count}\n"]
        for lo in range(0, len(rot), _TEXT_BLOCK):
            block = enumerate(rot[lo : lo + _TEXT_BLOCK], lo)
            text.append("".join([f"{u} {v}\n" for u, nbrs in block for v in sorted(nbrs) if u < v]))
        return "".join(text)


class _Builder:
    """Belt-by-belt state of one build.

    Every view of a vertex id (a rotation, a cell, a `down` entry, a belt's
    walk, a fan's tips) is taken from a slice of `ids`, so each id is one
    int object however many tuples hold it.
    """

    def __init__(self, p: int, q: int, cap: int):
        self.p = p
        self.q = q
        self.cap = cap
        # vertex 0 is the seed; per-vertex lists grow in creation order, which
        # is layer by layer, so layer i is the next run of ids
        self.ids = [0]
        self.down = [-1]  # the lower neighbour of a tip, -1 for none
        self.down2: dict[int, int] = {}  # p = 3: a tip's lower neighbour after `down`
        self.ncells = [0]
        self.rot: list[tuple[int, ...]] = []  # each written once, when final
        self.cells: list[tuple[int, ...]] = []
        self.layers: list[range] = [range(1)]
        self.belt_sizes: list[int] = []
        self.belt = 0  # the belt being built

    def new_vertices(self, count: int) -> list[int]:
        """`count` new vertices of the current belt; refuses vertex id `cap`."""
        ids = self.ids
        first = len(ids)
        if first + count > self.cap:
            raise SizeLimitError(
                f"vertex cap {self.cap} exceeded while building belt {self.belt}"
            )
        ids += range(first, first + count)
        self.down += [-1] * count
        self.ncells += [0] * count
        return ids[first:]

    def add_cell(self, *verts: int) -> None:
        self.cells.append(verts)
        ncells = self.ncells
        for v in verts:
            ncells[v] += 1

    def close_belt(self) -> None:
        """Record the belt's cell count and its outer layer: the ids it created."""
        self.belt_sizes.append(len(self.cells) - sum(self.belt_sizes))
        self.layers.append(range(self.layers[-1].stop, len(self.ids)))

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
        start = next(v for v in old if ncells[v] <= q - 2)
        walk = self.ids[start : old.stop] + self.ids[old.start : start]
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

    def finish(self, symbol: SchlafliSymbol) -> Mosaic:
        down2 = self.down2
        # the outer layer, the last run of ids, has no tips: each vertex turns
        # from its previous neighbour to its next one and down; its rotations
        # are read off shifted iterators over one slice of `ids`
        first = self.layers[-1].start
        outer = self.ids[first:]
        del self.ids, self.ncells  # read no more; freed before the rotations are made
        m = len(outer)
        before = chain(islice(outer, m - 1, None), islice(outer, m - 1))
        after = chain(islice(outer, 1, None), islice(outer, 1))
        self.rot += (
            (u, w) if d < 0 else (u, w, d, down2[v]) if v in down2 else (u, w, d)
            for u, v, w, d in zip(before, outer, after, islice(self.down, first, None))
        )
        return Mosaic(
            symbol=symbol,
            rot=self.rot,
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
    return b.finish(symbol)


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

    The per-dart maps are `array('q')`s.  Passes over whole arrays decide
    whether the darts pair up into edges, whether every cell is a face and
    whether every edge lies on its count of cells; only a failed pass is
    followed by a scan for the lowest offender.  Every map, malformed or
    not, takes the same pairing and coverage route: a dart whose head does
    not list its tail has reverse -1, and a dart on no edge counts no cell.
    Only the count of cell sides per dart has a fallback, a cell at a time,
    for cells that cannot be read as columns of faces.
    """
    p, q = mosaic.symbol.p, mosaic.symbol.q
    rot, cells, outer = mosaic.rot, mosaic.cells, mosaic.layers[-1]
    n = len(rot)
    heads = list(chain.from_iterable(rot))
    darts = len(heads)
    flat = list(chain.from_iterable(cells))
    checks: list[CheckResult] = []

    def report(name: str, failure: str | None) -> None:
        checks.append(CheckResult(name, failure is None, failure or ""))

    # an id that names no vertex reads as a vertex with no neighbours and no
    # cells: at[v] is the rotation of v, () for such an id; this check runs
    # before any id enters a typed array
    if all(0 <= min(ids) and max(ids) < n for ids in (heads, outer, flat) if ids):
        strangers: set[int] = set()
        at, cells_at = rot, [0] * n
    else:
        strangers = {v for v in chain(heads, outer, flat) if not 0 <= v < n}
        at = dict(enumerate(rot)) | dict.fromkeys(strangers, ())
        cells_at = dict.fromkeys(chain(range(n), strangers), 0)

    # cells of p entries each can be read as p columns (see _sides_by_columns)
    columns = all(map(p.__eq__, map(len, cells)))
    if columns and not strangers and all(map(p.__eq__, map(len, map(set, cells)))):
        failure = None
    else:
        misfits = (
            c for c in cells if len(c) != p or len(set(c)) != p or not strangers.isdisjoint(c)
        )
        bad = next(misfits, None)
        if bad is None:
            failure = None
        elif strangers.isdisjoint(bad):
            failure = f"cell {bad} is not a {p}-gon"
        else:
            stranger = next(v for v in bad if v in strangers)
            failure = f"cell {bad} names {stranger}, outside 0..{n - 1}"
    report("cell-size", failure)

    for v in flat:
        cells_at[v] += 1
    # the interior is every layer below the outer one: the ids before it
    interior = range(n)[: n - len(outer)]
    v = next((v for v in interior if len(rot[v]) != q or cells_at[v] != q), None)
    report(
        "interior-degree",
        None
        if v is None
        else f"vertex {v} has degree {len(rot[v])} and {cells_at[v]} cells (expected {q})",
    )
    del flat, cells_at

    # per vertex, not per dart: a list indexes faster than an array
    first = list(accumulate(map(len, rot), initial=0))

    def dart(d: int) -> tuple[int, int]:
        return bisect_right(first, d) - 1, heads[d]

    rev, succ, broken = _dart_maps(rot, at, heads, first)

    # sides[d] counts the cell sides along dart d; a cell is a face when the
    # successor map chains its sides in order and no other side shares them
    sides = None
    if columns and broken is None:
        sides = _sides_by_columns(cells, p, at, first, heads, succ)
    stray = bad = None
    if sides is None:
        sides = [0] * darts
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

    # the outer layer as one mark per vertex; all 0 when it names a stranger
    on_outer = bytearray(n)
    if not strangers or strangers.isdisjoint(outer):
        for v in outer:
            on_outer[v] = 1

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
        # the darts on no cell must form one face: the outer one, which meets
        # the outer vertices and no other
        free = sides.count(0)
        walk = _face(succ, sides.index(0)) if free else array("q")
        on_walk = bytearray(n)
        for d in walk:
            on_walk[heads[d]] = 1
        face = len(walk) == free == len(outer) and on_walk == on_outer
        failure = None if face else f"the {free} darts on no cell are not the outer face"
    report("rotation-faces", failure)

    # the dart of each step a -> b along the outer cycle that a lists; a
    # stranger on the cycle lists nothing, so its step is missing
    ahead = chain(outer[1:], outer[:1])
    steps = array("q", (first[a] + at[a].index(b) for a, b in zip(outer, ahead) if b in at[a]))
    simple = len(steps) == len(outer) == on_outer.count(1)
    report("boundary-cycle", None if simple else "outer boundary is not a simple adjacent cycle")

    # an edge is a pair of darts that are each other's reverse, and each of
    # its darts wants its count of cells: 1 on a boundary step, else 2.
    # Tails ascend with the dart index, so the lowest miscounted dart names
    # its edge from u < v.
    loose: list[int] = []
    if broken is not None or any(map(contains, rot, range(n))):
        # a one-sided, repeated or self-listed entry lies on no edge: its dart
        # becomes its own reverse, on no cell and wanting none
        loose = [d for d, e in enumerate(rev) if e < 0 or e == d or rev[e] != d]
        rev, sides = rev[:], sides[:]
        for d in loose:
            rev[d] = d
            sides[d] = 0
    edges = (darts - len(loose)) // 2
    want = bytearray(b"\2") * darts
    for d in steps:
        want[d] = want[rev[d]] = 1
    for d in loose:
        want[d] = 0
    d = _first_miscounted(sides, rev, want)
    failure = None
    if d is not None:
        failure = f"edge {dart(d)}: {sides[d] + sides[rev[d]]} cells, expected {want[d]}"
    if failure is None and stray is not None:
        failure = f"edge {stray}: a cell side with no rotation edge"
    report("edge-coverage", failure)

    v_, e_, f_ = mosaic.vertex_count, edges, len(cells) + 1
    report("euler", None if v_ - e_ + f_ == 2 else f"V-E+F = {v_}-{e_}+{f_} != 2")

    return ValidationReport(tuple(checks))


def _dart_maps(
    rot: list[tuple[int, ...]],
    at: list[tuple[int, ...]] | dict[int, tuple[int, ...]],
    heads: list[int],
    first: list[int],
) -> tuple[array, array | None, int | None]:
    """`validate`'s rev and succ, and the lowest dart that rev does not pair.

    rev[d] is the dart back along d, at the first entry of d's tail in the
    head's rotation, or -1 where the head (`at[v]` for head v) does not list
    the tail.  Faces turn clockwise at the head: succ[d] is the dart just
    before rev[d] there; it is made only when rev pairs every dart.  Both are
    filled a block at a time, so no list of ints longer than a block is made.
    """
    n, darts = len(rot), len(heads)
    rev = array("q")
    for lo in range(0, n, _BLOCK):
        tails = range(lo, min(lo + _BLOCK, n))
        # the index comes first: a stranger head raises ValueError before
        # it can index `first`
        try:
            block = [at[v].index(u) + first[v] for u in tails for v in rot[u]]
        except ValueError:  # a head that does not list its tail
            block = [at[v].index(u) + first[v] if u in at[v] else -1 for u in tails for v in rot[u]]
        rev.extend(block)
    # a head that lists a tail twice sends two darts to one, and a -1 marks
    # only the extra slot past the last dart; either leaves a dart unreached,
    # so rev pairs the darts of each edge exactly when it reaches every dart
    reached = bytearray(darts + 1)
    for e in rev:
        reached[e] = 1
    if reached.index(0) < darts:
        # the lowest dart d with rev[rev[d]] != d.  Where rev[d] is -1 this
        # reads rev[-1], the last dart's reverse, and that is never d: d
        # would then run back along the last dart, so d's head would list
        # d's tail.
        return rev, None, next(compress(count(), map(ne, map(rev.__getitem__, rev), count())))
    succ = array("q")
    for lo in range(0, darts, _BLOCK):
        ends = zip(rev[lo : lo + _BLOCK], heads[lo : lo + _BLOCK])
        succ.extend([e - 1 if e > first[v] else first[v + 1] - 1 for e, v in ends])
    return rev, succ, None


def _sides_by_columns(
    cells: list[tuple[int, ...]],
    p: int,
    at: list[tuple[int, ...]] | dict[int, tuple[int, ...]],
    first: list[int],
    heads: list[int],
    succ: array,
) -> list[int] | None:
    """Cell sides per dart when every p-gon is a face of `succ`, else None.

    The sides are taken one column at a time, a dart per cell: side 0 is
    looked up, side j is succ of side j - 1 and must end at the cell's vertex
    j + 1, and succ of side p - 1 must end at vertex 1, so it is side 0.
    """
    col = array("q")
    try:
        for lo in range(0, len(cells), _BLOCK):
            col.extend([at[c[0]].index(c[1]) + first[c[0]] for c in cells[lo : lo + _BLOCK]])
    except ValueError:  # a first side that is no dart, or names a stranger
        return None
    sides = [0] * len(succ)
    for j in range(1, p + 1):
        for d in col:
            sides[d] += 1
        col = array("q", map(succ.__getitem__, col))
        if not all(map(eq, map(heads.__getitem__, col), map(itemgetter((j + 1) % p), cells))):
            return None
    return sides


def _face(succ: array, start: int) -> array:
    """The darts of the face through `start`, in successor order from it."""
    walk = array("q", [start])
    d = succ[start]
    while d != start:
        walk.append(d)
        d = succ[d]
    return walk


def _first_miscounted(sides: list[int], rev: array, want: bytearray) -> int | None:
    """The lowest dart d with sides[d] + sides[rev[d]] != want[d], if any."""
    if all(map(eq, map(add, sides, map(sides.__getitem__, rev)), want)):
        return None
    covered = map(add, sides, map(sides.__getitem__, rev))
    return next(compress(count(), map(ne, covered, want)))
