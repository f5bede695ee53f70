"""Belt-by-belt construction of a regular {p,q} tiling as a combinatorial map.

Belt 0 is a seed vertex; belt i+1 consists of the p-gons touching belt i
(possibly at a single vertex) but not belt i-1.  Level/layer i is the outer
boundary cycle of belt i.  The map is purely combinatorial: each vertex
stores its incident neighbours in counter-clockwise rotation order, so faces
can be recovered by rotation walks and no coordinates are ever needed.

The builder is one stream of maps, `_belt_maps`: the finished map of belt 0,
the seed alone, then that of each next belt in turn, all over one set of
lists that the next belt extends.  `build` takes the map after `belts`
belts.  Each belt sweeps the outer layer counter-clockwise and fans new
cells around each layer vertex until it lies on q cells.  The inner
cells of a fan share exactly one boundary vertex ("vertex"-attached).  The
last cell closes the fan ("edge"-attached): it shares one boundary edge, or
two consecutive edges when it fills the boundary vertex between them, as
it does in every q = 3 belt after the first.  Belt 1 is the same sweep of
layer 0, the seed alone: its one fan closes on the sweep's first tip and
shares no layer edge.  Each fan's new vertices are one run of ids,
numbered in creation order along the sweep, which makes builds fully
deterministic.  The cells are one flat list of ids, p per cell in build
order; `Mosaic.cells` is a read-only view that yields each as a tuple.

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
from itertools import accumulate, chain, islice
from operator import eq

from .errors import SizeLimitError, SphericalSymbolError, StructureError
from .recurrence import Geometry, SchlafliSymbol

DEFAULT_VERTEX_CAP = 10_000_000
_BLOCK = 2048  # cells per slice of the flat cell list that `_holds` reads at a time
# lines per piece of exported text: on {4,5} at 8 belts, export peak RSS is
# flat up to 1024 lines a piece and 0.4-3 MB higher at 4096-16384
_TEXT_BLOCK = 1024


def text_blocks(lines: Iterable[str]) -> Iterator[str]:
    """Join newline-terminated `lines` into pieces of up to _TEXT_BLOCK lines each."""
    lines = iter(lines)
    while block := list(islice(lines, _TEXT_BLOCK)):
        yield "".join(block)


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
    """A built tiling patch: rotation system, layer id runs and cells, but no cell count."""

    def __init__(self, symbol, rot, layers, cells):
        self.symbol: SchlafliSymbol = symbol
        self.rot: list[tuple[int, ...]] = rot  # CCW neighbour order per vertex
        self.layers: list[range] = layers  # layer i's ids, its boundary cycle in CCW order
        self.cells: Sequence[tuple[int, ...]] = cells  # CCW cycles by belt; `build` gives a view

    @property
    def belts(self) -> int:
        return len(self.layers) - 1

    @property
    def belt_sizes(self) -> list[int]:
        """Cells per belt, index 0 = belt 1, read off the layer sizes L by Euler's formula
        on the disc of belts 0..i: belt i holds (L[i - 1] + L[i] - [i = 1]) / (p - 2)."""
        p, sizes = self.symbol.p, [0, *self.layer_sizes[1:]]  # L[0] - 1: the seed is no disc
        counts = [divmod(a + b, p - 2) for a, b in zip(sizes, sizes[1:])]
        for belt, (_, rest) in enumerate(counts, 1):
            if rest:
                raise StructureError(f"belt {belt}: its layer sizes give no whole count of cells")
        return [cells for cells, _ in counts]

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


def _belt_maps(symbol: SchlafliSymbol, cap: int) -> Iterator[Mosaic]:
    """The finished maps of belts 0, 1, 2, ... of `symbol`, in turn.

    Every map shares one set of lists, which the next belt extends and
    rewrites, so a map holds only until the next one is asked for.  Belt 0
    is the seed alone, with an empty rotation and no cells, and every belt
    is one sweep of `outer`, the outer layer's ids, the one layer kept
    between belts.  A belt makes its new layer's ids and lower neighbours
    as belt-local lists, id v at index v - s0.  Every view of a vertex id
    (a rotation, a cell, a belt's walk, a fan's tips) is taken from a slice
    of those ids, so each id is one int object however many tuples and
    lists hold it.  `cells` is one flat list, p ids per cell.  No cell count
    is kept: the sweep reads a vertex's off its rotation's length, and
    `belt_sizes` reads a belt's off the layer sizes by Euler's formula.
    Raises SizeLimitError once more than `cap` vertices would be created.
    """
    p, q = symbol.p, symbol.q
    n2 = p - 2  # new vertices per inner cell: its arcs, then its tip
    triangles = p == 3
    outer = [0]  # the outer layer's ids; vertex 0 is the seed
    rot: list[tuple[int, ...]] = [()]  # tip-less until the next sweep
    cells: list[int] = []  # p ids per cell, in build order
    layers = [range(1)]
    while True:
        yield Mosaic(symbol, rot, layers, _Cells(cells, p))
        belt = len(layers)

        # start the sweep at a vertex that is not one cell short, so it owns
        # a radial tip; only q = 3 leaves one short: one with a lower neighbour
        start = next(k for k, v in enumerate(outer) if len(rot[v]) < q)
        m = len(outer)
        walk = outer[start:] + outer[: start + (m > 1)]  # walk[m] closes it, bar the seed

        # the new layer, id v at index v - s0; s0 is walk[0]'s first tip,
        # which the sweep's last fan closes on.  It is held to the cap with
        # walk[0]'s fan, which always comes next
        s0 = layers[-1].stop
        ids, down = [s0], [-1]  # down: the lower neighbour of a tip, -1 for none
        carry = s0

        for k in range(m):
            v = walk[k]
            turn = rot[v]  # tip-less: previous and next neighbour, then the lower ones
            # v lies on len(turn) - 1 cells and the closing cell of the fan
            # before it; for walk[0], the one closing the ring.  The seed lies on none
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
            # arcs and tip, then the top.  When the run closes the ring
            # (pos = m), its last vertex is s0: the top's end, or the p = 3 seam tip
            inner = (missing - 1) * n2
            ring = pos == m
            made = inner + n - ring
            first = s0 + len(ids)
            if first + made > cap:
                raise SizeLimitError(f"vertex cap {cap} exceeded while building belt {belt}")
            ids += range(first, first + made)
            down += [-1] * made
            run = ids[first - s0 :]
            if ring:
                run.append(s0)

            # inner fan cells: share only the vertex v with the old boundary
            tip = carry  # v's first radial tip; the inner cells' tips follow it
            for i in range(0, inner, n2):
                cells += (v, carry, *run[i : i + n2])
                carry = run[i + n2 - 1]
                down[carry - s0] = v

            top = run[inner:]
            cells += (v, carry, *top, *back)
            carry = top[-1] if top else carry
            # p = 3: the fan's last tip, v its second lower neighbour; the seed's hangs on v
            down[carry - s0] = back[0] if back else v

            # v's tips go after its previous neighbour, the rotation's first
            # entry; the seed has none, so its rotation is its tips
            rot[v] = (*turn[:1], tip, *run[n2 - 1 : inner : n2], *turn[1:])

        # close the belt: its layer, and each new vertex's tip-less rotation,
        # turning from its previous neighbour u to its next one w and down d
        # (p = 3: and u's down e if it differs)
        layers.append(range(s0, s0 + len(ids)))
        # zip stops with the layer, so the lists shifted by one need no cut
        before, after = chain(ids[-1:], ids), chain(islice(ids, 1, None), ids[:1])
        rot += (
            (u, w) if d < 0 else (u, w, d, e) if triangles and e != d else (u, w, d)
            for u, w, d, e in zip(before, after, down, chain(down[-1:], down))
        )
        outer = ids


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
    return next(islice(_belt_maps(symbol, cap), belts, None))


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


_CHECKS = (
    "cell-size", "interior-degree", "rotation-faces", "boundary-cycle", "edge-coverage", "euler"
)


def validate(mosaic: Mosaic) -> ValidationReport:
    """Run the structural invariant checks and report each outcome.

    Checks: cell sizes, interior degrees and cell counts, rotation-system
    face recovery (stored cells plus exactly one outer walk), an outer
    boundary that is a simple cycle of at least 3 vertices, per-edge cell
    coverage (interior 2, boundary 1) and Euler's formula on a connected
    map.  They run over one dart numbering: dart (u, rot[u][i]) is
    first[u] + i.  A malformed map (say, a neighbour listed on one side
    only, an id that names no vertex, or no layers, read as an empty outer
    layer) fails a check; it never raises.

    A verdict, `_holds`, decides by one pass over the cell corners and a few
    over the outer layer whether every check passes; only when one fails
    does `_explain` name the offenders.
    """
    if _holds(mosaic):
        return ValidationReport(tuple(CheckResult(name, True) for name in _CHECKS))
    return _explain(mosaic)


def _reached(rot: Sequence[Sequence[int]]) -> bytearray:
    """1 for each vertex that a path over `rot` reaches from vertex 0, in breadth-first order."""
    reached, queue = bytearray(len(rot)), list(range(len(rot))[:1])  # vertex 0, if any
    reached[:1] = b"\1" * len(queue)
    for v in queue:  # it grows as it goes: each vertex is queued once, when first reached
        for w in rot[v]:
            if not reached[w]:
                reached[w] = 1
                queue.append(w)
    return reached


def _holds(mosaic: Mosaic) -> bool:
    """Whether `mosaic` passes every check of `validate`; False at the first failed pass.

    It decides from one mark per cell corner, in a bytearray over the darts,
    and builds no reverse or successor map.  Corner (a, b, c) of a cell turns
    at b from a to c: c comes just before a in b's rotation, and the corner
    marks dart (b, a), the reverse of the side a -> b, at a's first entry
    there.  No dart may take two marks, and every interior dart needs one.

    Then the darts are accounted for.  The outer layer is at least 3
    distinct ids, so its steps are distinct edges; each has exactly one dart
    marked, and no other dart is unmarked.  So every dart is a first entry,
    names a vertex and has its reverse: the reverses pair the darts, each
    cell is a face, the marks are the cell sides seen through the reverses,
    and the darts on no cell can only go round the outer cycle, once.
    Euler's formula finishes it, with a search from vertex 0 that reaches
    every vertex, run only where the symbol is not hyperbolic.  For a
    hyperbolic one the formula alone rules out a second piece.  A piece
    without the outer layer is closed: every vertex is interior, of degree
    q, and every dart lies on one p-gon, so its V - E + F is
    V(2p + 2q - pq)/(2p) < 0.  The piece with the outer layer has
    V - E + F <= 2, so a closed piece would pull the map's V - E + F below 2.
    """
    p, q = mosaic.symbol.p, mosaic.symbol.q
    rot, cells, outer = mosaic.rot, mosaic.cells, mosaic.layers[-1] if mosaic.layers else ()
    n = len(rot)
    built = isinstance(cells, _Cells) and cells.p == p
    flat = cells.flat if built else list(chain.from_iterable(cells))
    if not all(0 <= min(ids) and max(ids) < n for ids in (outer, flat) if ids):
        return False  # first: no later pass may index by an id outside 0..n-1
    # the outer layer is at least 3 distinct ids, so its steps are distinct edges
    on_outer = bytearray(n)
    for v in outer:
        on_outer[v] = 1
    if len(outer) < 3 or on_outer.count(1) != len(outer):
        return False
    if len(flat) != p * len(cells) or not all(map(p.__eq__, map(len, map(set, cells)))):
        return False
    # the interior is every layer below the outer one: the ids before it
    inner = n - len(outer)
    if not all(map(q.__eq__, map(len, islice(rot, inner)))):
        return False

    first = list(accumulate(map(len, rot), initial=0))
    marks = bytearray(first[-1])
    try:
        # column j of corners, a cell block at a time, is flat[j::p] turning
        # at flat[j + 1::p] towards flat[j + 2::p], the columns taken cyclically
        for lo in range(0, len(flat), _BLOCK * p):
            block = flat[lo : lo + _BLOCK * p]
            for j in range(p):
                for a, b, c in zip(block[j::p], block[(j + 1) % p :: p], block[(j + 2) % p :: p]):
                    turn = rot[b]
                    i = turn.index(a)
                    if turn[i - 1] != c:
                        return False
                    d = first[b] + i
                    if marks[d]:
                        return False
                    marks[d] = 1
    except ValueError:  # a head that does not list its tail
        return False
    # an interior vertex of degree q with every dart marked lies on q cells
    if marks.find(0, 0, first[inner]) >= 0:
        return False
    # as many darts unmarked as there are steps, and each step has one
    if marks.count(0) != len(outer):
        return False
    try:
        for a, b in zip(outer, chain(outer[1:], outer[:1])):
            there, back = first[a] + rot[a].index(b), first[b] + rot[b].index(a)
            if marks[there] == marks[back]:
                return False
    except ValueError:  # a step that is no dart
        return False
    if n - first[-1] // 2 + len(cells) + 1 != 2:
        return False
    return mosaic.symbol.geometry is Geometry.HYPERBOLIC or 0 not in _reached(rot)


def _explain(mosaic: Mosaic) -> ValidationReport:
    """`validate`'s report, each failed check naming its lowest offender.

    One plain route, a cell side at a time.  An id that names no vertex reads
    as a vertex with no neighbours and no cells: at[v] is its rotation, ()
    for such an id.  rev and succ are `array('q')`s; rev[d] is -1 where the
    head does not list the tail.  Tails ascend with the dart index, so an
    edge's lower dart names it from u <= v.  Where Euler's formula holds,
    `euler` names the lowest vertex that no path reaches from vertex 0.
    """
    p, q = mosaic.symbol.p, mosaic.symbol.q
    rot, cells, outer = mosaic.rot, mosaic.cells, mosaic.layers[-1] if mosaic.layers else ()
    n = len(rot)
    heads = list(chain.from_iterable(rot))
    strangers = {v for v in chain(heads, outer, chain.from_iterable(cells)) if not 0 <= v < n}
    at = dict(enumerate(rot)) | dict.fromkeys(strangers, ()) if strangers else rot
    cells_at = dict.fromkeys(chain(range(n), strangers), 0) if strangers else [0] * n
    failures: list[str | None] = []  # per check, what fails it, or None

    bad = next((c for c in cells if len(c) != p or len(set(c)) != p or strangers & set(c)), None)
    named = next((v for v in bad or () if v in strangers), None)
    failures.append(
        None if bad is None
        else f"cell {bad} is not a {p}-gon" if named is None
        else f"cell {bad} names {named}, outside 0..{n - 1}"
    )
    for v in chain.from_iterable(cells):
        cells_at[v] += 1
    v = next((v for v in range(n)[: n - len(outer)] if len(rot[v]) != q or cells_at[v] != q), None)
    failures.append(
        None if v is None
        else f"vertex {v} has degree {len(rot[v])} and {cells_at[v]} cells (expected {q})"
    )

    first = list(accumulate(map(len, rot), initial=0))

    def dart(d: int) -> tuple[int, int]:
        return bisect_right(first, d) - 1, heads[d]

    listed = (first[v] + at[v].index(u) if u in at[v] else -1 for u in range(n) for v in rot[u])
    rev = array("q", listed)
    broken = next((d for d, e in enumerate(rev) if e < 0 or rev[e] != d), None)
    if broken is None:
        # faces turn clockwise at the head: the dart just before rev[d] there
        succ = array("q", (e - 1 if e > first[v] else first[v + 1] - 1 for e, v in zip(rev, heads)))

    # sides[d] counts the cell sides along dart d; a cell is a face when the
    # successor map chains its sides in order and no other side shares them
    sides = [0] * len(rev)
    stray = bad = None
    for vs in cells:
        ds = [first[a] + at[a].index(b) if b in at[a] else -1 for a, b in zip(vs, vs[1:] + vs[:1])]
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
        fault = f"{v} is outside 0..{n - 1}" if v in strangers else fault
        failures.append(f"dart ({u}, {v}): {fault}")
    elif bad is not None:
        failures.append(f"cell {bad} is not a face of the rotation system")
    elif max(sides, default=0) > 1:
        d = next(d for d, k in enumerate(sides) if k > 1)
        failures.append(f"dart {dart(d)} lies on {sides[d]} cells")
    else:
        # the darts on no cell must form one face, the outer one, on the outer vertices
        free = sides.count(0)
        walk = [sides.index(0)] if free else []
        while walk and succ[walk[-1]] != walk[0]:
            walk.append(succ[walk[-1]])
        face = len(walk) == free == len(outer) and {heads[d] for d in walk} == set(outer)
        failures.append(None if face else f"the {free} darts on no cell are not the outer face")

    ahead = [*outer[1:], *outer[:1]]
    simple = 3 <= len(outer) == len(set(outer)) and all(b in at[a] for a, b in zip(outer, ahead))
    failures.append(None if simple else "outer boundary is not a simple adjacent cycle")

    # an edge is a pair of darts that are each other's reverse; it wants 1
    # cell if a boundary step runs along it, else 2
    on_boundary = bytearray(len(rev))
    for a, b in zip(outer, ahead):
        if b in at[a]:
            on_boundary[first[a] + at[a].index(b)] = 1
    edges, failure = 0, None
    for d, e in enumerate(rev):
        if d < e and rev[e] == d:
            edges += 1
            got, want = sides[d] + sides[e], 2 - (on_boundary[d] | on_boundary[e])
            if got != want and failure is None:
                failure = f"edge {dart(d)}: {got} cells, expected {want}"
    if failure is None and stray is not None:
        failure = f"edge {stray}: a cell side with no rotation edge"
    failures.append(failure)
    faces = len(cells) + 1
    if n - edges + faces != 2:
        failures.append(f"V-E+F = {n}-{edges}+{faces} != 2")
    else:
        # the formula counts a map in one piece: name the lowest vertex it leaves out
        known = [[w for w in r if 0 <= w < n] for r in rot] if strangers else rot
        v = _reached(known).find(0)
        failures.append(None if v < 0 else f"vertex {v} is not reached from vertex 0")
    return ValidationReport(
        tuple(CheckResult(name, f is None, f or "") for name, f in zip(_CHECKS, failures))
    )
