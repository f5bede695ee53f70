"""Belt-by-belt construction of a regular {p,q} tiling as a combinatorial map.

Belt 0 is a seed vertex; belt i+1 consists of the p-gons touching belt i
(possibly at a single vertex) but not belt i-1.  Level/layer i is the outer
boundary cycle of belt i.  The map is purely combinatorial: each vertex
stores its incident neighbours in counter-clockwise rotation order, so faces
can be recovered by rotation walks and no coordinates are ever needed.

Construction sweeps the current boundary counter-clockwise and fans new
cells around each boundary vertex until it lies on q cells.  The inner
cells of a fan share exactly one boundary vertex ("vertex"-attached).  The
last cell closes the fan ("edge"-attached): it shares one boundary edge, or
two consecutive edges when it fills the boundary vertex between them, as
it does in every q = 3 belt after the first.  Each fan's new vertices are
one run of ids, numbered in creation order along the sweep, which makes
builds fully deterministic.  The cells are one flat list of ids, p per cell
in build order; `Mosaic.cells` is a read-only view that yields each as a
tuple.

No cell counts are kept.  Every belt-i cell's first vertex lies on layer
i - 1 (the fan's vertex), and every layer-i vertex lies on 1 + j cells of
belt i, where j counts its neighbours on layer i - 1: j <= 1 for p >= 4,
and with p = 3 a fan's last tip has a second, the lower neighbour of the
vertex before it.  Closing belt i writes each layer-i rotation without
tips: previous and next neighbour on the layer, then the j lower ones.  The
next sweep finds the vertex on those cells and the closing cell before it,
so it misses q - 2 - j, q less that length; only q = 3 leaves one short.

Two conventions of every build hold for readers of a finished `Mosaic`:
(a) the cells of belt i+1 come in runs that share their first vertex, one
run per layer-i vertex whose fan makes cells; the run heads are distinct
layer-i vertices in cyclic layer order, ascending ids with at most one
wrap, at the vertex where the sweep started;
(b) every rotation entry of a layer-(i+1) vertex whose id is below
`layers[i+1].start` lies on layer i.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, islice
from operator import add, contains, eq, ne

from .errors import SizeLimitError, SphericalSymbolError, StructureError
from .recurrence import Geometry, SchlafliSymbol

DEFAULT_VERTEX_CAP = 10_000_000
_BLOCK = 2048  # vertices or cells per list of ints made on the way into an array
# lines per piece of exported text: on {4,5} at 8 belts, export peak RSS is
# flat up to 1024 lines a piece and 0.4-3 MB higher at 4096-16384
_TEXT_BLOCK = 1024


def text_blocks(lines: Iterable[str]) -> Iterator[str]:
    """Join newline-terminated `lines` into pieces of up to _TEXT_BLOCK lines each."""
    lines = iter(lines)
    while block := list(islice(lines, _TEXT_BLOCK)):
        yield "".join(block)


def _blocks(seq: list, lo: int, hi: int) -> Iterator:
    """seq[lo:hi], a block at a time; `islice` would step through seq[:lo] first."""
    return chain.from_iterable(seq[i : min(i + _BLOCK, hi)] for i in range(lo, hi, _BLOCK))


class _Cells(Sequence):
    """Read-only p-tuples over `flat`, p ids per cell, holding its own id objects;
    a slice gives a list of them, and the view equals any sequence of the same tuples."""

    __slots__ = ("flat", "p")

    def __init__(self, flat: list[int], p: int):
        self.flat, self.p = flat, p

    def __len__(self) -> int:
        return len(self.flat) // self.p

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        n = len(self)
        if not -n <= k < n:
            raise IndexError("cell index out of range")
        lo = k % n * self.p
        return tuple(self.flat[lo : lo + self.p])

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return zip(*[iter(self.flat)] * self.p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


class Mosaic:
    """A built tiling patch: rotation system, layer id runs, cells."""

    def __init__(self, symbol, rot, layers, cells, belt_sizes):
        self.symbol: SchlafliSymbol = symbol
        self.rot: list[tuple[int, ...]] = rot  # CCW neighbour order per vertex
        self.layers: list[range] = layers  # layer i's ids, its boundary cycle in CCW order
        self.cells: Sequence[tuple[int, ...]] = cells  # CCW cycles by belt; `build` gives a view
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
        lines are joined through `text_blocks`.
        """
        s = self.symbol
        header = f"# p={s.p} q={s.q} belts={self.belts} vertices={self.vertex_count}\n"
        pairs = (f"{u} {v}\n" for u, nbrs in enumerate(self.rot) for v in sorted(nbrs) if u < v)
        return "".join(text_blocks(chain((header,), pairs)))


class _Builder:
    """Belt-by-belt state of one build.

    Every view of a vertex id (a rotation, a cell, a `down` entry, a belt's
    walk, a fan's tips) is taken from a slice of `ids`, so each id is one
    int object however many tuples and lists hold it.  `cells` is one flat
    list, p ids per cell, extended a cell at a time.  No cell counts are
    kept: the sweep reads the cells a vertex misses off its tip-less
    rotation's length.  After each belt, `rot`, `cells`, `layers` and
    `belt_sizes` are that many belts' finished map.
    """

    def __init__(self, p: int, q: int, cap: int):
        self.p = p
        self.q = q
        self.cap = cap
        # vertex 0 is the seed; per-vertex lists grow in creation order, which
        # is layer by layer, so layer i is the next run of ids
        self.ids = [0]
        self.down = [-1]  # the lower neighbour of a tip, -1 for none
        self.rot: list[tuple[int, ...]] = []  # tip-less until the next sweep
        self.cells: list[int] = []  # p ids per cell, in build order
        self.layers: list[range] = [range(1)]
        self.belt_sizes: list[int] = []

    def close_belt(self) -> None:
        """Record the belt's cell count and its outer layer, the ids it made,
        with their tip-less rotations: each turns from its previous neighbour
        u to its next one and down (p = 3: and down[u] if it differs)."""
        ids, down, triangles = self.ids, self.down, self.p == 3
        first, stop = self.layers[-1].stop, len(ids)
        self.belt_sizes.append(len(self.cells) // self.p - sum(self.belt_sizes))
        self.layers.append(range(first, stop))
        before = chain(ids[-1:], _blocks(ids, first, stop - 1))
        after = chain(_blocks(ids, first + 1, stop), ids[first : first + 1])
        self.rot += (
            (u, w) if d < 0 else (u, w, d, down[u]) if triangles and down[u] != d else (u, w, d)
            for u, w, d in zip(before, after, _blocks(down, first, stop))
        )

    def first_belt(self) -> None:
        """q cells around the seed; the seed's rotation is its q spokes."""
        p, q = self.p, self.q
        n = p - 2  # new vertices per cell: a spoke's tip, then p - 3 arcs
        if 1 + q * n > self.cap:
            raise SizeLimitError(f"vertex cap {self.cap} exceeded while building belt 1")
        ids = self.ids
        ids += range(1, 1 + q * n)
        ring = ids[1:]
        spokes = ring[::n]
        # each cell's first new vertex is a spoke's tip, on the seed
        self.down += ([0] + [-1] * (n - 1)) * q
        for j in range(q):
            self.cells += (0, *ring[j * n : (j + 1) * n], spokes[(j + 1) % q])
        self.rot.append(tuple(spokes))
        self.close_belt()

    def next_belt(self) -> None:
        p, q, cap, belt = self.p, self.q, self.cap, len(self.layers)
        n2 = p - 2  # new vertices per inner cell: its arcs, then its tip
        old = self.layers[-1]
        ids, down, rot, cells = self.ids, self.down, self.rot, self.cells

        # start the sweep at a vertex that is not one cell short, so it owns
        # a radial tip; only q = 3 leaves one short: one with a lower neighbour
        start = next(v for v in old if len(rot[v]) < q)
        walk = ids[start : old.stop] + ids[old.start : start]
        m = len(walk)
        walk.append(walk[0])  # walk[m] closes the cycle

        # walk[0]'s first tip, which the sweep's last fan closes on; it is
        # held to the cap with walk[0]'s fan, which always comes next
        s0 = len(ids)
        ids.append(s0)
        down.append(-1)
        carry = s0

        for k in range(m):
            v = walk[k]
            turn = rot[v]  # tip-less: previous and next neighbour, then the lower ones
            # v lies on len(turn) - 1 cells and the closing cell of the fan
            # before it; for walk[0], the one closing the ring
            missing = q - len(turn)
            if missing <= 0:
                # already completed by a run cell sweeping past it: no tips
                continue

            # the closing cell: v, carry, its top, then back along the run of
            # one-short old vertices ahead, each of which this very cell fills
            pos = k + 1
            while q == 3 and pos < m and len(rot[walk[pos]]) == 3:
                pos += 1
            back = walk[pos:k:-1]
            n = p - len(back) - 2  # the top's length; its last vertex is the next carry
            if n < 0:
                raise StructureError(f"belt {belt}: cell run longer than a {p}-gon can cover")

            # the fan's new vertices are one run of ids: each inner cell's
            # arcs and tip, then the top.  When the run reaches walk[m], the
            # ring, its last vertex is s0: the top's end, or the p = 3 seam tip
            inner = (missing - 1) * n2
            ring = pos == m
            made = inner + n - ring
            first = len(ids)
            if first + made > cap:
                raise SizeLimitError(f"vertex cap {cap} exceeded while building belt {belt}")
            ids += range(first, first + made)
            down += [-1] * made
            run = ids[first:]
            if ring:
                run.append(s0)

            # inner fan cells: share only the vertex v with the old boundary
            tip = carry  # v's first radial tip; the inner cells' tips follow it
            for i in range(0, inner, n2):
                cells += (v, carry, *run[i : i + n2])
                carry = run[i + n2 - 1]
                down[carry] = v

            top = run[inner:]
            cells += (v, carry, *top, *back)
            if top:
                carry = top[-1]
            down[carry] = back[0]  # p = 3: the fan's last tip; v is its second lower neighbour

            # v's tips go after its previous neighbour, the rotation's first entry
            rot[v] = (turn[0], tip, *run[n2 - 1 : inner : n2], *turn[1:])

        self.close_belt()


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
    for _ in range(belts - 1):
        b.next_belt()
    return Mosaic(symbol, b.rot, b.layers, _Cells(b.cells, symbol.p), b.belt_sizes)


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
    for cells that cannot be read as columns of faces.  The cells are one flat
    list of ids, a built view's own or a list of tuples flattened once.
    """
    p, q = mosaic.symbol.p, mosaic.symbol.q
    rot, cells, outer = mosaic.rot, mosaic.cells, mosaic.layers[-1]
    n = len(rot)
    heads = list(chain.from_iterable(rot))
    darts = len(heads)
    if isinstance(cells, _Cells) and cells.p == p:
        flat, columns = cells.flat, True
    else:
        flat = list(chain.from_iterable(cells))
        columns = all(map(p.__eq__, map(len, cells)))
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
    del cells_at

    # per vertex, not per dart: a list indexes faster than an array
    first = list(accumulate(map(len, rot), initial=0))

    def dart(d: int) -> tuple[int, int]:
        return bisect_right(first, d) - 1, heads[d]

    rev, succ, broken = _dart_maps(rot, at, heads, first)

    # sides[d] counts the cell sides along dart d; a cell is a face when the
    # successor map chains its sides in order and no other side shares them
    sides = None
    if columns and broken is None:
        sides = _sides_by_columns(flat, p, at, first, heads, succ)
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
    flat: list[int],
    p: int,
    at: list[tuple[int, ...]] | dict[int, tuple[int, ...]],
    first: list[int],
    heads: list[int],
    succ: array,
) -> list[int] | None:
    """Cell sides per dart when every p-gon is a face of `succ`, else None.

    The cells are `flat`, p ids each, and column j is `flat[j::p]`.  The
    sides are taken one column at a time, a dart per cell: side 0 is looked
    up, side j is succ of side j - 1 and must end at the cell's vertex j + 1,
    and succ of side p - 1 must end at vertex 1, so it is side 0.
    """
    col = array("q")
    try:
        for lo in range(0, len(flat), _BLOCK * p):
            block = flat[lo : lo + _BLOCK * p]
            col.extend([at[a].index(b) + first[a] for a, b in zip(block[::p], block[1::p])])
    except ValueError:  # a first side that is no dart, or names a stranger
        return None
    sides = [0] * len(succ)
    for j in range(1, p + 1):
        for d in col:
            sides[d] += 1
        col = array("q", map(succ.__getitem__, col))
        if not all(map(eq, map(heads.__getitem__, col), flat[(j + 1) % p :: p])):
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
