import random
import tracemalloc
from bisect import bisect_right
from collections.abc import Iterator, Sized
from itertools import accumulate, chain, islice
from types import SimpleNamespace

import pytest

from mosaicforest.errors import SizeLimitError, SphericalSymbolError, StructureError
from mosaicforest.mosaic import (
    _TEXT_BLOCK,
    DEFAULT_VERTEX_CAP,
    CheckResult,
    Mosaic,
    ValidationReport,
    _belt_maps,
    _Cells,
    _explain,
    _holds,
    build,
    text_blocks,
    validate,
)
from mosaicforest.recurrence import Geometry, SchlafliSymbol, layer_counts, spectral_constants


def test_belt1_45():
    m = build(SchlafliSymbol(4, 5), 1)
    assert m.belt_sizes == [5]
    assert len(m.layers[1]) == 10
    assert m.layers[0] == range(1)
    assert len(m.rot[0]) == 5


def test_44_layer_sizes():
    m = build(SchlafliSymbol(4, 4), 3)
    assert m.layer_sizes == [1, 8, 16, 24]


@pytest.mark.parametrize("p,q,belts", [(4, 5, 5), (5, 4, 5), (4, 6, 4), (6, 4, 4), (5, 5, 4), (4, 7, 4), (7, 4, 4), (6, 6, 3)])
def test_layer_sizes_match_recursion(p, q, belts):
    symbol = SchlafliSymbol(p, q)
    m = build(symbol, belts)
    rows = layer_counts(symbol, belts)
    assert m.layer_sizes == [r.total for r in rows]


@pytest.mark.parametrize(
    "p,q,belts",
    [(4, 5, 5), (5, 4, 4), (4, 4, 4), (3, 7, 4), (3, 6, 4), (6, 3, 4), (7, 3, 3), (6, 4, 3), (5, 5, 3)],
)
def test_validate_passes(p, q, belts):
    report = validate(build(SchlafliSymbol(p, q), belts))
    assert report.passed, str(report)


def test_spherical_rejected():
    for p, q in ((3, 3), (3, 4), (4, 3), (3, 5), (5, 3)):
        with pytest.raises(SphericalSymbolError):
            build(SchlafliSymbol(p, q), 2)


def test_vertex_cap():
    with pytest.raises(SizeLimitError):
        build(SchlafliSymbol(4, 5), 10, cap=1000)


class ReferenceBuilder:
    """The per-cell belt builder: the oracle for `build`'s fan-at-a-time one.

    Each cell takes its new vertices with `new_vertices`, which holds every
    allocation to the cap, and joins the map with `add_cell`, which counts
    it at each of its vertices, so `ncells` is exact everywhere.  It keeps
    the state the lean builder derives: those counts, and `down2`, the
    second lower neighbour of each p = 3 tip that has one, which its own
    `finish` reads.  It keeps its own whole-build `ids` and `down`, the
    lower neighbour of every vertex (-1 for none), where the lean builder
    keeps one layer.  It shares no state or code with `_belt_maps`: its
    `rot` starts empty and `first_belt` builds belt 1 around the seed, where
    the lean stream sweeps the seed as a one-vertex layer.  Its `close_belt`
    writes no rotation: `first_belt`, `next_belt` and `finish` write each
    one once.  Its `cells` is a list of tuples.  It counts each belt's cells
    in its own `belt_sizes`, which a `Mosaic` reads off the layer sizes by
    Euler's formula, so comparing the two tests the formula.
    """

    def __init__(self, p: int, q: int, cap: int):
        self.p, self.q, self.cap = p, q, cap
        self.rot: list[tuple[int, ...]] = []
        self.cells: list[tuple[int, ...]] = []
        self.layers = [range(1)]
        self.belt_sizes: list[int] = []
        self.ids = [0]
        self.down = [-1]
        self.ncells = [0]
        self.down2: dict[int, int] = {}

    def close_belt(self) -> None:
        self.belt_sizes.append(len(self.cells) - sum(self.belt_sizes))
        self.layers.append(range(self.layers[-1].stop, len(self.ids)))

    def new_vertices(self, count: int) -> list[int]:
        ids = self.ids
        first = len(ids)
        if first + count > self.cap:
            raise SizeLimitError(
                f"vertex cap {self.cap} exceeded while building belt {len(self.layers)}"
            )
        ids += range(first, first + count)
        self.down += [-1] * count
        self.ncells += [0] * count
        return ids[first:]

    def add_cell(self, *verts: int) -> None:
        self.cells.append(verts)
        for v in verts:
            self.ncells[v] += 1

    def first_belt(self) -> None:
        p, q = self.p, self.q
        n = p - 2
        ring = self.new_vertices(q * n)
        spokes = ring[::n]
        for j, tip in enumerate(spokes):
            self.down[tip] = 0
            self.add_cell(0, *ring[j * n : (j + 1) * n], spokes[(j + 1) % q])
        self.rot.append(tuple(spokes))
        self.close_belt()

    def next_belt(self) -> None:
        if len(self.layers) == 1:
            return self.first_belt()
        p, q = self.p, self.q
        old = self.layers[-1]
        rot, down, down2, ncells = self.rot, self.down, self.down2, self.ncells
        new_vertices, add_cell = self.new_vertices, self.add_cell
        start = next(v for v in old if ncells[v] <= q - 2)
        walk = self.ids[start : old.stop] + self.ids[old.start : start]
        m = len(walk)
        walk += walk[0], walk[-1]
        rot += [()] * m
        s0 = new_vertices(1)[0]
        carry = s0
        for k in range(m):
            v = walk[k]
            d = down[v]
            below = () if d < 0 else (d, down2[v]) if v in down2 else (d,)
            missing = q - ncells[v] - (1 if k == 0 else 0)
            if missing <= 0:
                rot[v] = (walk[k - 1], walk[k + 1], *below)
                continue
            tips = [carry]
            for t in range(missing - 1):
                if p == 3 and k == m - 1 and t == missing - 2:
                    tip = s0
                    add_cell(v, carry, tip)
                else:
                    path = new_vertices(p - 2)
                    tip = path[-1]
                    add_cell(v, carry, *path)
                down[tip] = v
                tips.append(tip)
                carry = tip
            pos = k + 1
            while pos < m and ncells[walk[pos]] + 1 == q:
                pos += 1
            back = walk[pos:k:-1]
            n = p - len(back) - 2
            if n < 0:
                raise StructureError(
                    f"belt {len(self.layers)}: cell run longer than a {p}-gon can cover"
                )
            top = () if not n else new_vertices(n) if pos < m else [*new_vertices(n - 1), s0]
            add_cell(v, carry, *top, *back)
            if top:
                carry = top[-1]
            else:
                down2[carry] = down[carry]
            down[carry] = back[0]
            rot[v] = (walk[k - 1], *tips, walk[k + 1], *below)
        self.close_belt()

    def finish(self, symbol: SchlafliSymbol) -> Mosaic:
        outer = self.ids[self.layers[-1].start :]
        for u, v, w in zip(outer[-1:] + outer[:-1], outer, outer[1:] + outer[:1]):
            d = self.down[v]
            below = () if d < 0 else (d, self.down2[v]) if v in self.down2 else (d,)
            self.rot.append((u, w, *below))
        return Mosaic(symbol, self.rot, self.layers, self.cells)


def _refusal(symbol: SchlafliSymbol, belts: int, cap: int) -> str | None:
    """The reference's SizeLimitError message of a build under `cap`, None if it builds."""
    b = ReferenceBuilder(symbol.p, symbol.q, cap)
    try:
        for _ in range(belts):
            b.next_belt()
    except SizeLimitError as e:
        return str(e)
    return None


# p >= 4, then p = 3 (the seam) and q = 3 (cells that fill a layer vertex)
@pytest.mark.parametrize(
    "p,q,belts,vertices",
    [(4, 5, 1, 11), (3, 7, 1, 8), (7, 3, 1, 16), (4, 5, 2, 51), (3, 7, 6, 1625), (7, 3, 4, 496)],
)
def test_vertex_cap_trips_at_the_same_count_in_every_belt(p, q, belts, vertices):
    symbol = SchlafliSymbol(p, q)
    with pytest.raises(SizeLimitError, match=f"belt {belts}$"):
        build(symbol, belts, cap=vertices - 1)
    assert build(symbol, belts, cap=vertices).vertex_count == vertices
    # every cap names the belt the per-cell reference names, including caps
    # that fall inside a fan's run of new vertices, as most of these do
    for cap in [*range(1, vertices - 1, 1 + vertices // 60), vertices - 1, vertices]:
        message = _refusal(symbol, belts, cap)
        if message is None:
            build(symbol, belts, cap=cap)
        else:
            with pytest.raises(SizeLimitError, match=f"^{message}$"):
                build(symbol, belts, cap=cap)


def test_determinism():
    a = build(SchlafliSymbol(5, 5), 3)
    b = build(SchlafliSymbol(5, 5), 3)
    assert a.rot == b.rot
    assert a.layers == b.layers
    assert a.cells == b.cells


def test_layer_out_of_range():
    m = build(SchlafliSymbol(4, 5), 2)
    with pytest.raises(IndexError):
        m.layers[3]


def test_interior_degrees():
    m = build(SchlafliSymbol(4, 6), 3)
    for nbrs in m.rot[: m.layers[-1].start]:  # every layer below the outer one
        assert len(nbrs) == 6


def test_triangle_tiling_has_parents_everywhere():
    # p = 3: every vertex above the seed touches the previous layer
    m = build(SchlafliSymbol(3, 7), 2)
    for i in (1, 2):
        for v in m.layers[i]:
            assert any(w in m.layers[i - 1] for w in m.rot[v])


@pytest.mark.parametrize("q,belts", [(7, 6), (8, 5), (6, 12), (12, 4)])
def test_triangle_vertices_have_one_or_two_consecutive_lower_neighbours(q, belts):
    # p = 3: only a fan's last tip has two lower neighbours, and they are
    # neighbours on the layer below; read off the rotations and layers alone
    m = build(SchlafliSymbol(3, q), belts)
    seen = set()
    for lower, layer in zip(m.layers, m.layers[1:]):
        for v in layer:
            below = [w - lower.start for w in m.rot[v] if w in lower]
            seen.add(len(below))
            assert len(below) in (1, 2), v
            if len(below) == 2:
                a, b = below
                assert (a - b) % len(lower) in (1, len(lower) - 1), v
    assert seen == {1, 2}


def test_lower_neighbour_unique_for_p_ge_4():
    m = build(SchlafliSymbol(5, 5), 3)
    for i in range(1, len(m.layers)):
        for v in m.layers[i]:
            assert sum(w in m.layers[i - 1] for w in m.rot[v]) <= 1


def test_belt_growth_approaches_spectral_ratio():
    for p, q in ((4, 5), (5, 4), (4, 6)):
        symbol = SchlafliSymbol(p, q)
        m = build(symbol, 6)
        growth = float(spectral_constants(symbol).growth)
        ratio = m.belt_sizes[5] / m.belt_sizes[4]
        assert abs(ratio - growth) / growth < 0.05


def test_cell_attachment_kinds():
    # belt_sizes slices the cells by belt; a belt-b cell meets layer b-1 at
    # one vertex (inside a fan), along an edge (closing a fan), or, when q = 3,
    # along two edges and the layer vertex between them, which it fills
    for p, q, later in [(4, 5, {1, 2}), (3, 7, {1, 2}), (7, 3, {2, 3})]:
        m = build(SchlafliSymbol(p, q), 3)
        starts = list(accumulate(m.belt_sizes, initial=0))
        assert starts[-1] == len(m.cells)
        for belt, (lo, hi) in enumerate(zip(starts, starts[1:]), start=1):
            shared = set()
            for cell in m.cells[lo:hi]:
                layers = [next(i for i, layer in enumerate(m.layers) if v in layer) for v in cell]
                assert set(layers) == {belt - 1, belt}
                shared.add(layers.count(belt - 1))
            assert shared == ({1} if belt == 1 else later), (p, q, belt)


# only q = 3 leaves a vertex one cell short, so only there can a run grow
@pytest.mark.parametrize("p,q", [(7, 3), (6, 3)])
def test_belt_whose_run_outgrows_a_cell_raises(p, q):
    # layer 1 with every vertex but the first one cell short of full: the
    # first vertex's closing cell would run around the whole layer.  The
    # lean builder reads a vertex's cells off its rotation's length, the
    # reference off `ncells`
    maps = _belt_maps(SchlafliSymbol(p, q), DEFAULT_VERTEX_CAP)
    next(maps)
    lean = next(maps)
    reference = ReferenceBuilder(p, q, DEFAULT_VERTEX_CAP)
    reference.next_belt()
    first, *rest = lean.layers[1]
    lean.rot[first] = lean.rot[first][:2]
    reference.ncells[first] = q - 2
    for v in rest:
        lean.rot[v] = (*lean.rot[v][:2], 0)
        reference.ncells[v] = q - 1
    messages = set()
    for advance in (maps.__next__, reference.next_belt):
        with pytest.raises(StructureError, match=f"^belt 2: cell run longer than a {p}-gon") as e:
            advance()
        messages.add(str(e.value))
    assert len(messages) == 1


# every non-spherical {p,q} with 3 <= p, q <= 9, then a wider q = 3 and p = 3 symbol each
REFERENCE_SYMBOLS = [
    (p, q) for p in range(3, 10) for q in range(3, 10) if (p - 2) * (q - 2) >= 4
] + [(10, 3), (3, 12)]


@pytest.mark.parametrize("p,q", REFERENCE_SYMBOLS)
def test_build_matches_the_per_cell_reference_builder(p, q):
    # belt by belt to the deepest one within the budget (the trace recursion
    # gives each next layer's size from level 2 on); after every belt the
    # reference's exact cell count of each new-layer vertex, which the lean
    # builder no longer keeps, is 1 + its number of lower neighbours.  The
    # reference counts its belts' cells, and the lean map reads them off its
    # layer sizes
    symbol = SchlafliSymbol(p, q)
    budget = 100_000 if symbol.geometry is Geometry.EUCLIDEAN else 20_000
    maps, reference = _belt_maps(symbol, budget), ReferenceBuilder(p, q, budget)
    next(maps)
    lean = next(maps)
    reference.next_belt()
    while True:
        before, last = lean.layers[-2:]
        down, down2, ncells = reference.down, reference.down2, reference.ncells
        assert all(ncells[v] == 1 + (down[v] >= 0) + (v in down2) for v in last)
        ahead = symbol.trace * len(last) - len(before)
        if len(lean.layers) > 2 and lean.layers[-1].stop + ahead > budget:
            break
        lean = next(maps)
        reference.next_belt()
    assert lean.belt_sizes == reference.belt_sizes
    r = reference.finish(symbol)
    assert (lean.rot, lean.cells.flat, lean.layers) == (
        r.rot, list(chain.from_iterable(r.cells)), r.layers
    )


@pytest.mark.parametrize(
    "p,q,belts",
    [(4, 5, 5), (5, 4, 5), (6, 6, 3), (4, 4, 6), (3, 7, 6), (3, 12, 4), (7, 3, 5), (6, 3, 5)]
    + [(10, 3, 4)],
)
def test_each_closed_belt_is_a_finished_map(p, q, belts):
    # the stream holds no rotation back for later: its first map is the seed
    # alone, and each next one passes validate and is the map that many belts
    # build.  Every map holds the same lists, which the next belt extends
    symbol = SchlafliSymbol(p, q)
    maps = _belt_maps(symbol, DEFAULT_VERTEX_CAP)
    seed = next(maps)
    assert (seed.rot, seed.cells.flat, seed.layers, seed.belt_sizes) == ([()], [], [range(1)], [])
    for i in range(1, belts + 1):
        b = next(maps)
        assert b.rot is seed.rot, i
        assert validate(b).passed, i
        m = build(symbol, i)
        assert (b.rot, b.cells.flat, b.layers, b.belt_sizes) == (
            m.rot, m.cells.flat, m.layers, m.belt_sizes
        ), i


@pytest.mark.parametrize("p,q,belts", [(4, 5, 5), (3, 7, 6), (7, 3, 5), (4, 4, 6)])
def test_builder_keeps_one_layer_between_belts(p, q, belts):
    # after every belt the stream holds no list longer than the outer layer
    # but the map's own `rot` and `cells`, and `outer` is the outer layer's
    # ids, the very int objects the rotations hold
    maps = _belt_maps(SchlafliSymbol(p, q), DEFAULT_VERTEX_CAP)
    next(maps)
    for i in range(1, belts + 1):
        next(maps)
        b = SimpleNamespace(**maps.gi_frame.f_locals)
        layer = b.layers[-1]
        held = {w: w for w in chain.from_iterable(b.rot)}
        assert b.outer == list(layer) and all(held[v] is v for v in b.outer), i
        longer = {k for k, v in vars(b).items() if isinstance(v, Sized) and len(v) > len(layer)}
        assert longer == {"rot", "cells"}, i


def test_deep_euclidean_build_peak_memory_is_at_most_155_bytes_per_vertex():
    # {4,4} at 158 belts, 100,489 vertices.  On CPython 3.11 (x86-64) the
    # peak was 164 B per vertex with whole-build id and lower-neighbour
    # lists, and is 146 with one layer of each
    tracemalloc.start()
    try:
        m = build(SchlafliSymbol(4, 4), 158)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 155 * m.vertex_count, f"{peak / m.vertex_count:.0f} B per vertex"


def _deepest_build(symbol: SchlafliSymbol, budget: int) -> Mosaic:
    """The build to the deepest belt within `budget` vertices, sized by the
    trace recursion, which gives each next layer's size from level 2 on."""
    sizes = build(symbol, 2).layer_sizes
    while sum(sizes) + symbol.trace * sizes[-1] - sizes[-2] <= budget:
        sizes.append(symbol.trace * sizes[-1] - sizes[-2])
    m = build(symbol, len(sizes) - 1)
    assert m.layer_sizes == sizes
    return m


def _belts(m: Mosaic) -> Iterator[tuple[range, range, list[tuple[int, ...]]]]:
    """Each belt's inner layer, its outer layer and its cells."""
    starts = list(accumulate(m.belt_sizes, initial=0))
    for i, (lo, hi) in enumerate(zip(starts, starts[1:]), start=1):
        yield m.layers[i - 1], m.layers[i], m.cells[lo:hi]


@pytest.mark.parametrize("p,q", REFERENCE_SYMBOLS)
def test_each_cell_starts_on_the_layer_below_its_belt(p, q):
    m = _deepest_build(SchlafliSymbol(p, q), 5_000)
    for lower, _, cells in _belts(m):
        assert all(c[0] in lower for c in cells), lower


@pytest.mark.parametrize("p,q", REFERENCE_SYMBOLS)
def test_each_layer_vertex_lies_on_one_more_cell_than_its_lower_neighbours(p, q):
    # the count the builder reads a vertex's missing cells from
    m = _deepest_build(SchlafliSymbol(p, q), 5_000)
    for lower, layer, cells in _belts(m):
        on = dict.fromkeys(layer, 0)
        for v in chain.from_iterable(cells):
            if v in on:
                on[v] += 1
        for v in layer:
            assert on[v] == 1 + sum(w in lower for w in m.rot[v]), v


def _cells_at(cells: list[tuple[int, ...]]) -> list[list[int]]:
    """The indices of the cells at each vertex id, read off `cells` alone."""
    at: list[list[int]] = [[] for _ in range(1 + max(chain.from_iterable(cells)))]
    for k, cell in enumerate(cells):
        for v in cell:
            at[v].append(k)
    return at


def _belts_by_definition(
    cells: list[tuple[int, ...]], at: list[list[int]], seed: int
) -> Iterator[tuple[list[int], set[int]]]:
    """The paper's belts around `seed`: each belt's cell indices, ascending,
    and the layer it adds, belt 1 first, up to the first empty belt.

    Belt 1 is the cells at the seed; belt i + 1 is the cells that share a
    vertex with belt i and lie in no earlier belt; layer i is the vertices
    that belt i adds.  It reads `cells` alone, through `at`: no rotation,
    layer range or sweep state.
    """
    taken, seen, near = set(), {seed}, {seed}
    while belt := sorted({k for v in near for k in at[v]} - taken):
        taken.update(belt)
        near = {v for k in belt for v in cells[k]}
        layer = near - seen
        seen |= layer
        yield belt, layer


def _check_belts_by_definition(m: Mosaic) -> None:
    """The belts and layers of `m` are the paper's, around its seed and around
    an interior vertex, where the tiling looks the same as from the seed."""
    cells = list(m.cells)
    at = _cells_at(cells)
    belts, layers = zip(*_belts_by_definition(cells, at, 0))
    assert [set(layer) for layer in m.layers] == [{0}, *layers]
    starts = list(accumulate(m.belt_sizes, initial=0))
    assert list(belts) == [list(range(lo, hi)) for lo, hi in zip(starts, starts[1:])]
    # re-seeded on layer r, belts 1..k are whole: each is found from the
    # vertices of the belt before, which lie below the outer layer
    r = m.belts // 2
    k = m.belts - r
    around = islice(_belts_by_definition(cells, at, m.layers[r].start), k)
    assert [1, *(len(layer) for _, layer in around)] == m.layer_sizes[: k + 1]


# p >= 4, p = 3, q = 3 and Euclidean builds, to 215,821 vertices on {6,5}
BELT_DEFINITION_BUILDS = [
    (4, 5, 7), (5, 4, 6), (3, 7, 10), (7, 3, 6), (4, 4, 20),
    (3, 6, 20), (6, 3, 20), (6, 5, 5), (10, 3, 5),
]


@pytest.mark.parametrize("p,q,belts", BELT_DEFINITION_BUILDS)
def test_belts_and_layers_follow_the_papers_definition(p, q, belts):
    # "belt i+1 consists of the p-gons touching belt i but not belt i-1"
    _check_belts_by_definition(build(SchlafliSymbol(p, q), belts))


def _without(rotation, w):
    """`rotation` less its first entry w, as list.remove would leave it."""
    i = rotation.index(w)
    return rotation[:i] + rotation[i + 1 :]


def _swap_rotation_entries(m):
    v = m.layers[1][0]
    r = m.rot[v]
    m.rot[v] = (r[1], r[0], *r[2:])


def _repeat_vertex_in_cell(m):
    vs = list(m.cells[7])
    vs[2] = vs[0]
    m.cells[7] = tuple(vs)


def _sever_interior_edge(m):
    v = m.layers[1][0]
    w = m.rot[v][0]
    m.rot[v] = _without(m.rot[v], w)
    m.rot[w] = _without(m.rot[w], v)
    return {
        "interior-degree": (f"vertex {v}", f"vertex {w}"),
        "edge-coverage": (f"edge {(min(v, w), max(v, w))}: a cell side with no rotation edge",),
    }


def _swap_outer_vertices(m):
    outer = list(m.layers[-1])
    outer[0], outer[2] = outer[2], outer[0]
    m.layers[-1] = outer


def _drop_cell(m):
    del m.cells[7]


def _duplicate_neighbour(m):
    v = m.layers[1][0]
    m.rot[v] = (*m.rot[v], m.rot[v][0])


def _reverse_cell(m):
    m.cells[7] = m.cells[7][::-1]


def _duplicate_cell(m):
    m.cells.append(m.cells[7])


def _rotate_rotation(m):
    v = m.layers[1][0]
    m.rot[v] = m.rot[v][1:] + m.rot[v][:1]


def _reverse_every_7th_rotation(m):
    # same neighbours, wrong cyclic order
    for v in range(0, m.vertex_count, 7):
        m.rot[v] = m.rot[v][::-1]


def _one_sided_entry(m):
    # v lists w, but w no longer lists v
    v = m.layers[1][0]
    w = m.rot[v][0]
    m.rot[w] = _without(m.rot[w], v)
    return {"rotation-faces": (f"dart ({v}, {w})",)}


def _vertex_outside_rotation(m):
    m.rot[5] = (*m.rot[5], 10**6)
    return {"rotation-faces": ("dart (5, 1000000)",)}


def _vertex_outside_cell(m):
    # a negative id must not be read as the last vertex
    m.cells[7] = (-1, *m.cells[7][1:])
    return {"cell-size": ("names -1",)}


def _empty_cell(m):
    m.cells[3] = ()


def _one_vertex_cell(m):
    m.cells[3] = m.cells[3][:1]


def _empty_seed_rotation(m):
    m.rot[0] = ()


def _empty_outer_layer(m):
    m.layers[-1] = []


def _no_cells(m):
    m.cells.clear()


def _self_loop(m):
    m.rot[5] += (5,)


def _cell_301_times(m):
    # more sides on one dart than a byte can count
    m.cells.extend([m.cells[3]] * 300)
    return {"rotation-faces": ("lies on 301 cells",), "edge-coverage": ("302 cells",)}


def _neighbour_below_int64(m):
    # an id that no 64-bit array entry can hold
    m.rot[5] = (*m.rot[5], -(10**20))
    return {"rotation-faces": ("-100000000000000000000 is outside",)}


def _vertex_outside_outer_layer(m):
    m.layers[-1] = [*m.layers[-1], 10**6]


def _outer_step_one_sided(m):
    # the outer step 51 -> 52 stays in 51's rotation, but 52 drops 51
    m.rot[52] = _without(m.rot[52], 51)
    return {"rotation-faces": ("dart (51, 52): 52 does not list 51",)}


def _outer_self_loop(m):
    # an outer vertex lists itself after its boundary steps
    m.rot[51] += (51,)


# The corruptions below were each made to fail a single pass of
# `validate`'s verdict (`mosaic._holds`), this one or an earlier one;
# `tests/test_mutants.py` drops each pass in turn and pins the row that
# catches it.  Some replace the map outright with a small one that no other
# pass rejects.


def _self_loop_in_the_outer_face(m):
    # an outer vertex lists itself between its previous and next neighbours
    # on the layer, where the outer face turns: no cell's turn changes, and
    # the loop's dart is on no cell and no boundary step
    v = m.layers[-1][0]
    m.rot[v] = (m.rot[v][0], v, *m.rot[v][1:])


def _relabel(tuples, to):
    return [tuple(map(to, t)) for t in tuples]


def _wrong_symbol(m):
    # the {4,5} map read as a map of {4,6}: every interior vertex is short
    m.symbol = SchlafliSymbol(m.symbol.p, m.symbol.q + 1)


def _regroup_cells(m):
    # the same ids in the same order, one cell a vertex longer and the next
    # one shorter, so the flat list of ids is unchanged
    a, b = m.cells[7], m.cells[8]
    m.cells[7:9] = [a + b[:1], b[1:]]


def _cross_cell(m):
    # a cell's second and third vertices swap: its first side is a diagonal
    a, b, c, *rest = m.cells[7]
    m.cells[7] = (a, c, b, *rest)


def _swap_last_two_cell_vertices(m):
    # the first side stays a side of the cell's face, and the face goes on
    *rest, c, d = m.cells[7]
    m.cells[7] = (*rest, d, c)


def _outer_layer_cuts_a_corner(m):
    # the outer layer runs through a cell's first vertex in place of its
    # third, a corner on that cell alone: still a cycle of distinct vertices
    # along darts, but two boundary edges lose their step
    v, _, corner, _ = [c for c in m.cells if len(m.rot[c[2]]) == 2][0]
    outer = list(m.layers[-1])
    outer[outer.index(corner)] = v
    m.layers[-1] = outer


def _torus(first):
    """The 4 x 4 square grid on a torus, ids first..first + 15: its rotations
    (east, north, west, south) and its black and its white squares."""

    def at(x, y):
        return first + x % 4 + 4 * (y % 4)

    rot = [(at(x + 1, y), at(x, y + 1), at(x - 1, y), at(x, y - 1)) for y in range(4) for x in range(4)]
    squares = [[], []]
    for y in range(4):
        for x in range(4):
            squares[(x + y) % 2].append((at(x, y), at(x + 1, y), at(x + 1, y + 1), at(x, y + 1)))
    return rot, *squares


def _closed_torus(m):
    # every vertex and edge is right, but a closed surface has no outer
    # face for Euler's formula to count, and its empty outer layer is no cycle
    rot, black, white = _torus(0)
    m.symbol = SchlafliSymbol(4, 4)
    m.rot[:], m.cells[:], m.layers[:] = rot, black + white, [range(1), []]


def _beside_a_torus(m, squares):
    """A one-belt {4,4} patch beside the 4 x 4 torus `_torus(1)`, with
    `squares` of the torus as cells.  The seed keeps id 0, the torus takes
    1..16, the ring 17..24."""
    patch = build(SchlafliSymbol(4, 4), 1)

    def shift(v):
        return v + 16 if v else 0

    m.symbol = SchlafliSymbol(4, 4)
    m.rot[:] = _relabel(patch.rot[:1], shift) + _torus(1)[0] + _relabel(patch.rot[1:], shift)
    m.cells[:] = _relabel(patch.cells, shift) + squares
    m.layers[:] = [range(1), [shift(v) for v in patch.layers[1]]]


def _torus_with_doubled_squares(m):
    # the torus's black squares are each listed twice and its white squares
    # are on no cell: the counts, the coverage and Euler's formula hold, and
    # the darts on two cells and the torus out of reach give it away
    _, black, _ = _torus(1)
    _beside_a_torus(m, black * 2)


def _patch_beside_a_torus(m):
    # each square once: every check of the counts, faces, boundary, coverage
    # and Euler's formula holds, and the torus adds 0 to V - E + F; only
    # that no path leads from the seed to the torus gives it away
    _, black, white = _torus(1)
    _beside_a_torus(m, black + white)


def _holed_torus():
    """The 4 x 4 torus less its square (10, 11, 15, 14), whose corners are
    the outer layer: ids 10 and 11 trade with 12 and 13, so the corners are
    the last four ids.  Its rotations, its other squares and that layer."""

    def to(v):
        return {10: 12, 11: 13, 12: 10, 13: 11}.get(v, v)

    rot, black, white = _torus(0)
    hole = (10, 11, 15, 14)
    squares = [sq for sq in black + white if sq != hole]
    return [tuple(map(to, rot[to(v)])) for v in range(16)], _relabel(squares, to), list(map(to, hole))


def _torus_with_a_hole(m):
    # connected, every cell a face and the outer layer one face round the
    # hole, but a handle leaves V - E + F at 0
    rot, squares, outer = _holed_torus()
    m.symbol = SchlafliSymbol(4, 4)
    m.rot[:], m.cells[:], m.layers[:] = rot, squares, [range(1), outer]


def _dart_marked_twice(m):
    # the torus with a hole and two squares listed twice: the two extra cells
    # make up Euler's count for the handle, and every dart but the hole's
    # steps is still on a cell, so only the darts on two cells give it away
    rot, squares, outer = _holed_torus()
    m.symbol = SchlafliSymbol(4, 4)
    m.rot[:], m.cells[:], m.layers[:] = rot, squares + squares[:2], [range(1), outer]


def _outer_vertex_with_an_interior_id(m):
    # a {6,3} map whose seed trades ids with an outer vertex of degree 3:
    # that vertex, now 0, is read as interior, where its degree is right but
    # its boundary steps' darts lie on no cell
    b = build(SchlafliSymbol(6, 3), 2)
    v = next(v for v in b.layers[-1] if len(b.rot[v]) == 3)

    def swap(w):
        return {0: v, v: 0}.get(w, w)

    m.symbol = b.symbol
    m.rot[:] = [tuple(map(swap, b.rot[swap(w)])) for w in range(b.vertex_count)]
    m.cells[:] = _relabel(b.cells, swap)
    m.layers[:] = [*b.layers[:-1], list(map(swap, b.layers[-1]))]
    return {"interior-degree": ("vertex 0 has degree 3 and 2 cells",)}


def _two_patches_at_a_corner(m):
    # two one-belt {4,4} patches share ring corner 2, and the outer layer
    # passes it twice; the second patch's seed, 10, is on no interior id.
    # At the corner each patch's cell turns from the previous ring vertex to
    # the next, and the outer face crosses from one patch to the other.
    a = build(SchlafliSymbol(4, 4), 1)
    to_b = {0: 10, 2: 2} | {v: 8 + v for v in (1, 3, 4, 5, 6, 7, 8)}
    rot = a.rot + [()] * 8
    for v, r in enumerate(a.rot):
        rot[to_b[v]] = tuple(map(to_b.get, r))
    rot[2] = (3, 1, 11, 9)
    m.symbol = SchlafliSymbol(4, 4)
    m.rot[:] = rot
    m.cells[:] = list(a.cells) + _relabel(a.cells, to_b.get)
    m.layers[:] = [range(1), [*range(2, 9), 1, 2, *range(11, 17), 9]]


def _tetrahedron_with_doubled_outer_edges(m):
    # the outer layer is one face of a tetrahedron, and each outer edge is
    # listed again right after itself at one end.  The cells take the second
    # entries and the first lie on no cell; the counts, the coverage and
    # Euler's formula over darts hold, but no dart runs back along a second entry.
    m.symbol = SchlafliSymbol(3, 3)
    m.rot[:] = [(1, 2, 3), (2, 2, 0, 3), (0, 1, 3, 3), (0, 2, 1, 1)]
    m.cells[:] = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    m.layers[:] = [range(1), [1, 2, 3]]


def _lone_vertex_with_a_loop(m):
    # one vertex whose only neighbour is itself, and no cells: the loop's
    # dart is its own reverse and, on no cell, the outer face, so every
    # check but the outer cycle's length would pass
    m.rot[:] = [(0,)]
    m.cells[:] = []
    m.layers[:] = [range(1)]


CHECKS = [
    "cell-size",
    "interior-degree",
    "rotation-faces",
    "boundary-cycle",
    "edge-coverage",
    "euler",
]


# corruption of build({4,5}, 3) -> the names of the checks it fails, as
# reference_validate reports them
CORRUPTIONS = {
    "swap-rotation-entries": (_swap_rotation_entries, ["rotation-faces"]),
    "repeat-vertex-in-cell": (
        _repeat_vertex_in_cell,
        ["cell-size", "interior-degree", "rotation-faces", "edge-coverage"],
    ),
    "sever-interior-edge": (
        _sever_interior_edge,
        ["interior-degree", "rotation-faces", "edge-coverage", "euler"],
    ),
    "swap-outer-vertices": (_swap_outer_vertices, ["boundary-cycle", "edge-coverage"]),
    "drop-cell": (_drop_cell, ["interior-degree", "rotation-faces", "edge-coverage", "euler"]),
    "duplicate-neighbour": (_duplicate_neighbour, ["interior-degree", "rotation-faces"]),
    "reverse-cell": (_reverse_cell, ["rotation-faces"]),
    "duplicate-cell": (
        _duplicate_cell,
        ["interior-degree", "rotation-faces", "edge-coverage", "euler"],
    ),
    "rotate-rotation": (_rotate_rotation, []),
    "reverse-every-7th-rotation": (_reverse_every_7th_rotation, ["rotation-faces"]),
    "one-sided-entry": (
        _one_sided_entry,
        ["interior-degree", "rotation-faces", "edge-coverage", "euler"],
    ),
    "vertex-outside-rotation": (
        _vertex_outside_rotation,
        ["interior-degree", "rotation-faces"],
    ),
    "vertex-outside-cell": (
        _vertex_outside_cell,
        ["cell-size", "interior-degree", "rotation-faces", "edge-coverage"],
    ),
    "empty-cell": (
        _empty_cell,
        ["cell-size", "interior-degree", "rotation-faces", "edge-coverage"],
    ),
    "one-vertex-cell": (
        _one_vertex_cell,
        ["cell-size", "interior-degree", "rotation-faces", "edge-coverage"],
    ),
    "empty-seed-rotation": (
        _empty_seed_rotation,
        ["interior-degree", "rotation-faces", "edge-coverage", "euler"],
    ),
    "empty-outer-layer": (
        _empty_outer_layer,
        ["interior-degree", "rotation-faces", "boundary-cycle", "edge-coverage"],
    ),
    "no-cells": (_no_cells, ["interior-degree", "rotation-faces", "edge-coverage", "euler"]),
    "self-loop": (_self_loop, ["interior-degree", "rotation-faces"]),
    "cell-301-times": (
        _cell_301_times,
        ["interior-degree", "rotation-faces", "edge-coverage", "euler"],
    ),
    "neighbour-below-int64": (_neighbour_below_int64, ["interior-degree", "rotation-faces"]),
    "vertex-outside-outer-layer": (
        _vertex_outside_outer_layer,
        ["rotation-faces", "boundary-cycle", "edge-coverage"],
    ),
    "outer-step-one-sided": (_outer_step_one_sided, ["rotation-faces", "euler"]),
    "outer-self-loop": (_outer_self_loop, ["rotation-faces"]),
    "self-loop-in-the-outer-face": (_self_loop_in_the_outer_face, ["rotation-faces"]),
    "wrong-symbol": (_wrong_symbol, ["interior-degree"]),
    "regroup-cells": (_regroup_cells, ["cell-size", "rotation-faces", "edge-coverage"]),
    "cross-cell": (_cross_cell, ["rotation-faces", "edge-coverage"]),
    "swap-last-two-cell-vertices": (
        _swap_last_two_cell_vertices,
        ["rotation-faces", "edge-coverage"],
    ),
    "outer-layer-cuts-a-corner": (_outer_layer_cuts_a_corner, ["rotation-faces", "edge-coverage"]),
    "closed-torus": (_closed_torus, ["boundary-cycle", "euler"]),
    "torus-with-doubled-squares": (_torus_with_doubled_squares, ["rotation-faces", "euler"]),
    "two-patches-at-a-corner": (_two_patches_at_a_corner, ["boundary-cycle"]),
    "patch-beside-a-torus": (_patch_beside_a_torus, ["euler"]),
    "torus-with-a-hole": (_torus_with_a_hole, ["euler"]),
    "dart-marked-twice": (
        _dart_marked_twice,
        ["interior-degree", "rotation-faces", "edge-coverage"],
    ),
    "outer-vertex-with-an-interior-id": (_outer_vertex_with_an_interior_id, ["interior-degree"]),
    "tetrahedron-with-doubled-outer-edges": (
        _tetrahedron_with_doubled_outer_edges,
        ["rotation-faces", "edge-coverage", "euler"],
    ),
    "lone-vertex-with-a-loop": (_lone_vertex_with_a_loop, ["boundary-cycle"]),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupted_mosaic_fails_validation_naming_vertex(corruption):
    corrupt, failing = CORRUPTIONS[corruption]
    m = build(SchlafliSymbol(4, 5), 3)
    m.cells = list(m.cells)  # the built view is read-only
    named = corrupt(m) or {}
    report, expected = validate(m), reference_validate(m)
    assert str(report) == str(expected)
    assert _holds(m) is expected.passed
    assert [c.name for c in report.checks] == CHECKS
    assert [c.name for c in report.failures()] == failing, str(report)
    details = {c.name: c.detail for c in report.checks}
    for name, needles in named.items():
        # the check names one of the corrupted vertices or darts
        assert any(n in details[name] for n in needles), details[name]


def test_edge_coverage_names_the_lowest_dart():
    m = build(SchlafliSymbol(4, 5), 3)
    m.cells = list(m.cells)  # the built view is read-only
    seed, tip, _, next_tip = m.cells.pop(3)
    # both seed edges of the dropped cell lose a side; tip precedes next_tip
    # in the seed's rotation, so (seed, tip) is the lower dart
    assert m.rot[seed].index(tip) < m.rot[seed].index(next_tip)
    failures = {c.name: c.detail for c in validate(m).failures()}
    assert failures["edge-coverage"] == f"edge ({seed}, {tip}): 1 cells, expected 2"


# the corruptions that leave some cell with other than p entries, which a
# flat p-strided list cannot hold
RAGGED = {"empty-cell", "one-vertex-cell", "regroup-cells"}


def _with_cells(m: Mosaic, cells) -> Mosaic:
    """A copy of `m` with its own rotation and layer lists and `cells`."""
    return Mosaic(m.symbol, list(m.rot), list(m.layers), cells)


@pytest.mark.parametrize("corruption", sorted(set(CORRUPTIONS) - RAGGED))
def test_corrupted_view_and_list_of_tuples_get_the_same_report(corruption):
    # the verdict reads a built view's flat list and a flattened list of
    # tuples the same way, corrupted or not; some rows change the symbol
    m = build(SchlafliSymbol(4, 5), 3)
    listed = _with_cells(m, list(m.cells))
    CORRUPTIONS[corruption][0](listed)
    p = listed.symbol.p
    assert all(len(c) == p for c in listed.cells)
    viewed = _with_cells(listed, _Cells(list(chain.from_iterable(listed.cells)), p))
    assert str(validate(viewed)) == str(validate(listed))


CONVENTION_BUILDS = [
    (4, 5, 5), (5, 4, 5), (6, 6, 4), (4, 4, 6), (3, 7, 6),
    (3, 8, 5), (3, 12, 4), (7, 3, 5), (6, 3, 5), (10, 3, 4),
]


@pytest.mark.parametrize("p,q,belts", CONVENTION_BUILDS)
def test_cells_view_reads_like_the_list_of_tuples(p, q, belts):
    m = build(SchlafliSymbol(p, q), belts)
    cells = list(m.cells)
    n = len(cells)
    assert len(m.cells) == n == sum(m.belt_sizes)
    assert all(type(c) is tuple and len(c) == p for c in cells)
    assert (m.cells[-1], m.cells[-n]) == (cells[-1], cells[0])
    for k in (n, -n - 1):
        with pytest.raises(IndexError):
            m.cells[k]
    starts = list(accumulate(m.belt_sizes, initial=0))
    for lo, hi in zip(starts, starts[1:]):
        assert m.cells[lo:hi] == cells[lo:hi]
    assert type(m.cells[:1]) is list and m.cells[::-3] == cells[::-3]
    assert m.cells == cells and cells == m.cells
    assert m.cells != cells[:-1] and cells[1:] != m.cells
    with pytest.raises(TypeError):
        m.cells[0] = cells[0]


@pytest.mark.parametrize("p,q,belts", CONVENTION_BUILDS)
def test_built_view_and_list_of_tuples_get_the_same_report(p, q, belts):
    m = build(SchlafliSymbol(p, q), belts)
    report = str(validate(m))
    assert report == str(validate(_with_cells(m, list(m.cells))))
    assert "FAIL" not in report


@pytest.mark.parametrize("p,q,belts", CONVENTION_BUILDS)
def test_clean_builds_never_reach_the_explainer(p, q, belts, monkeypatch):
    # a verdict that wrongly rejected a good map would show only as a
    # slower report that is still right
    def explain(mosaic):
        raise AssertionError("the verdict rejected a clean build")

    monkeypatch.setattr("mosaicforest.mosaic._explain", explain)
    assert validate(build(SchlafliSymbol(p, q), belts)).passed


@pytest.mark.parametrize("p,q,belts", CONVENTION_BUILDS)
def test_explainer_passes_a_clean_build_as_validate_does(p, q, belts):
    m = build(SchlafliSymbol(p, q), belts)
    report = str(_explain(m))
    assert report == str(validate(m))
    assert "FAIL" not in report
    assert _holds(m) is reference_validate(m).passed


@pytest.mark.parametrize("p,q,belts", CONVENTION_BUILDS)
def test_belt_cells_run_by_head_in_cyclic_layer_order(p, q, belts):
    # the module docstring's convention (a)
    m = build(SchlafliSymbol(p, q), belts)
    starts = [0, *accumulate(m.belt_sizes)]
    for i in range(belts):
        firsts = [cell[0] for cell in m.cells[starts[i] : starts[i + 1]]]
        heads = [v for k, v in enumerate(firsts) if k == 0 or firsts[k - 1] != v]
        assert len(set(heads)) == len(heads), i
        assert all(v in m.layers[i] for v in heads), i
        ascending = sorted(heads)
        wrap = ascending.index(heads[0])
        assert heads == ascending[wrap:] + ascending[:wrap], i


@pytest.mark.parametrize("p,q,belts", CONVENTION_BUILDS)
def test_rotation_entries_below_a_layer_lie_on_the_layer_before(p, q, belts):
    # the module docstring's convention (b)
    m = build(SchlafliSymbol(p, q), belts)
    for i in range(belts):
        layer, below = m.layers[i + 1], m.layers[i]
        for v in layer:
            assert all(u in below for u in m.rot[v] if u < layer.start), (i + 1, v)


def test_edge_list_export():
    m = build(SchlafliSymbol(4, 5), 2)
    text = m.edge_list_text()
    lines = text.strip().split("\n")
    assert lines[0] == "# p=4 q=5 belts=2 vertices=51"
    pairs = [tuple(map(int, ln.split())) for ln in lines[1:]]
    assert len(pairs) == 80  # handshake: sum(deg)/2
    assert all(u < v for u, v in pairs)
    assert pairs == sorted(pairs)
    # deterministic
    assert text == build(SchlafliSymbol(4, 5), 2).edge_list_text()


def test_edges_cover_rotations():
    m = build(SchlafliSymbol(5, 4), 3)
    lines = m.edge_list_text().splitlines()[1:]
    edges = {tuple(map(int, line.split())) for line in lines}
    assert all((min(u, v), max(u, v)) in edges for u in range(m.vertex_count) for v in m.rot[u])


def _read_edge_list(text):
    """Parse an edge-list export into (header fields, list of (u, v) pairs)."""
    head, *lines = text.splitlines()
    assert head.startswith("# ")
    fields = {k: int(x) for k, x in (kv.split("=") for kv in head.split()[1:])}
    return fields, [tuple(map(int, line.split())) for line in lines]


def _edge_list_agrees(text, mosaic):
    """Euler's formula V - E + (cells + 1) = 2 with V from the header and E
    from the lines, and the same undirected edges as `rot`."""
    fields, pairs = _read_edge_list(text)
    rot_edges = {(min(u, v), max(u, v)) for u, nbrs in enumerate(mosaic.rot) for v in nbrs}
    faces = sum(mosaic.belt_sizes) + 1  # the cells and the outer face
    return fields["vertices"] - len(pairs) + faces == 2 and sorted(rot_edges) == pairs


@pytest.mark.parametrize(
    "p,q,belts",
    [(4, 5, 6), (5, 4, 6), (4, 7, 4), (6, 6, 3), (4, 4, 6), (3, 7, 6), (7, 3, 6), (6, 3, 6)],
)
def test_edge_list_reads_back_to_euler_and_rot(p, q, belts):
    m = build(SchlafliSymbol(p, q), belts)
    text = m.edge_list_text()
    fields, _ = _read_edge_list(text)
    assert fields == {"p": p, "q": q, "belts": belts, "vertices": m.vertex_count}
    assert _edge_list_agrees(text, m)
    # negative control: one dropped edge line
    lines = text.splitlines(keepends=True)
    dropped = "".join(lines[:-1])
    assert not _edge_list_agrees(dropped, m)



def reference_validate(mosaic: Mosaic) -> ValidationReport:
    """`validate` over Python lists, one cell at a time: the oracle for its reports.

    Every map here is a list (`first`, `rev`, `succ`, each cell's darts), and
    each cell side is looked up with `in` and `.index`.  `validate` must
    return the same report, detail strings included, on every input.
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
    # the interior is every layer below the outer one: the ids before it
    v = next(
        (
            v
            for v, nbrs in enumerate(rot[: n - len(outer)])
            if len(nbrs) != q or cells_at[v] != q
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

    ahead = [*outer[1:], *outer[:1]]  # each outer vertex's successor on the cycle
    simple = len(outer) == len(set(outer)) >= 3 and all(b in at[a] for a, b in zip(outer, ahead))
    report("boundary-cycle", None if simple else "outer boundary is not a simple adjacent cycle")

    on_boundary = bytearray(len(rev))
    for a, b in zip(outer, ahead):
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

    # the formula holds for a map in one piece: every vertex is reached from
    # vertex 0 over the rotation entries that name vertices
    reached = {0} if n else set()
    stack = list(reached)
    while stack:
        for w in rot[stack.pop()]:
            if 0 <= w < n and w not in reached:
                reached.add(w)
                stack.append(w)
    v_, e_, f_ = mosaic.vertex_count, edges, len(cells) + 1
    if v_ - e_ + f_ != 2:
        failure = f"V-E+F = {v_}-{e_}+{f_} != 2"
    else:
        v = next((v for v in range(n) if v not in reached), None)
        failure = None if v is None else f"vertex {v} is not reached from vertex 0"
    report("euler", failure)

    return ValidationReport(tuple(checks))


def _random_rotation_entry(rng):
    def corrupt(m):
        v = rng.randrange(m.vertex_count)
        if m.rot[v]:
            i = rng.randrange(len(m.rot[v]))
            w = rng.choice([rng.randrange(m.vertex_count), -1, m.vertex_count, v])
            m.rot[v] = (*m.rot[v][:i], w, *m.rot[v][i + 1 :])

    return corrupt


def _random_cell_vertex(rng):
    def corrupt(m):
        k = rng.randrange(len(m.cells))
        vs = list(m.cells[k])
        if vs:
            vs[rng.randrange(len(vs))] = rng.choice([rng.randrange(m.vertex_count), -1])
            m.cells[k] = tuple(vs)

    return corrupt


FUZZ_SYMBOLS = [(4, 5, 3), (5, 4, 3), (3, 7, 4), (6, 3, 3), (4, 4, 4), (3, 6, 4), (7, 3, 3)]


def test_validate_reports_what_the_list_based_reference_reports():
    # seeded, so a failure reproduces; 1 or 2 corruptions per mosaic, from
    # the corpus above and two that pick a random entry
    rng = random.Random(20261018)
    builds = {s: build(SchlafliSymbol(*s[:2]), s[2]) for s in FUZZ_SYMBOLS}
    kinds = [corrupt for corrupt, _ in CORRUPTIONS.values()]
    kinds += [_random_rotation_entry(rng), _random_cell_vertex(rng)]
    seen = set()
    for _ in range(3000):
        m0 = builds[rng.choice(FUZZ_SYMBOLS)]
        m = Mosaic(m0.symbol, list(m0.rot), list(m0.layers), list(m0.cells))
        for corrupt in rng.sample(kinds, rng.randint(1, 2)):
            try:
                corrupt(m)
            except (IndexError, ValueError):
                pass  # an earlier corruption took away what this one edits
        expected = reference_validate(m)
        # a verdict wrongly False would not show in the report, which the explainer writes
        assert _holds(m) is expected.passed
        assert str(validate(m)) == str(expected)
        seen.add(str(expected))
    assert len(seen) > 800  # the corruptions reach many distinct reports


@pytest.mark.parametrize("p,q,belts", [(6, 5, 4), (3, 7, 8), (10, 3, 5)])
def test_validate_peak_memory_is_under_two_thirds_of_the_reference(p, q, belts):
    m = build(SchlafliSymbol(p, q), belts)
    peaks = []
    for check in (reference_validate, validate):
        tracemalloc.start()
        try:
            check(m)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    reference, lean = peaks
    assert lean <= 0.65 * reference, f"{lean / reference:.2f} of the reference peak"


@pytest.mark.parametrize(
    "corruption", ["sever-interior-edge", "reverse-cell", "vertex-outside-rotation", "empty-cell"]
)
def test_failing_report_peak_memory_is_at_most_the_reference(corruption):
    # a failing map is reported a cell side at a time over array('q') maps:
    # about 0.5-0.8 of the reference's peak here
    m = build(SchlafliSymbol(6, 5), 4)
    m.cells = list(m.cells)
    CORRUPTIONS[corruption][0](m)
    peaks = []
    for check in (reference_validate, validate):
        tracemalloc.start()
        try:
            assert not check(m).passed
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    reference, explained = peaks
    assert explained <= reference, f"{explained / reference:.2f} of the reference peak"


# one symbol per builder branch: p >= 4 and q >= 4, p = 3, q = 3, Euclidean;
# each reaches past id 256, below which CPython shares small ints anyway
@pytest.mark.parametrize("p,q,belts", [(6, 5, 4), (3, 7, 8), (10, 3, 4), (4, 4, 12)])
def test_each_vertex_id_is_one_int_object(p, q, belts):
    m = build(SchlafliSymbol(p, q), belts)
    ids = list(chain(*m.rot, *m.cells))
    assert m.vertex_count > 256
    assert len({id(v) for v in ids}) == len(set(ids))


def test_build_peak_memory_is_at_most_170_bytes_per_vertex():
    tracemalloc.start()
    try:
        m = build(SchlafliSymbol(6, 5), 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 170 * m.vertex_count, f"{peak / m.vertex_count:.0f} B per vertex"


def test_triangle_build_peak_memory_is_at_most_200_bytes_per_vertex():
    # the p = 3 branch makes more cells per vertex, so it gains most from
    # storing them as one flat list of ids; a tuple per cell took about 240
    tracemalloc.start()
    try:
        m = build(SchlafliSymbol(3, 7), 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 200 * m.vertex_count, f"{peak / m.vertex_count:.0f} B per vertex"


B = _TEXT_BLOCK


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 1])
def test_text_blocks_join_to_the_lines(n):
    numbered = [f"{k}\n" for k in range(n)]
    some_empty = [f"{k}\n" if k % 3 else "" for k in range(n)]
    first_block_empty = ["" if k < B else f"{k}\n" for k in range(n)]
    for lines in (numbered, some_empty, first_block_empty):
        pieces = list(text_blocks(lines))
        assert "".join(pieces) == "".join(lines)
        assert len(pieces) == -(-n // B)


def test_text_blocks_pulls_at_most_one_block_before_its_first_piece():
    pulled = 0

    def lines():
        nonlocal pulled
        for k in range(3 * B):
            pulled += 1
            yield f"{k}\n"

    first = next(text_blocks(lines()))
    assert pulled <= B
    assert first == "".join(f"{k}\n" for k in range(B))
