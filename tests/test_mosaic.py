import random
import tracemalloc
from bisect import bisect_right
from itertools import accumulate, chain
from typing import Iterator

import pytest

from mosaicforest.errors import SizeLimitError, SphericalSymbolError
from mosaicforest.mosaic import CheckResult, Mosaic, ValidationReport, build, validate
from mosaicforest.recurrence import SchlafliSymbol, layer_counts, spectral_constants


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


@pytest.mark.parametrize("belts,vertices", [(1, 11), (2, 51)])
def test_vertex_cap_trips_at_the_same_count_in_every_belt(belts, vertices):
    with pytest.raises(SizeLimitError, match=f"belt {belts}"):
        build(SchlafliSymbol(4, 5), belts, cap=vertices - 1)
    assert build(SchlafliSymbol(4, 5), belts, cap=vertices).vertex_count == vertices


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
    # one vertex (inside a fan) or along an edge (closing a fan)
    m = build(SchlafliSymbol(4, 5), 3)
    starts = list(accumulate(m.belt_sizes, initial=0))
    assert starts[-1] == len(m.cells)
    for belt, (lo, hi) in enumerate(zip(starts, starts[1:]), start=1):
        shared = set()
        for cell in m.cells[lo:hi]:
            layers = [next(i for i, layer in enumerate(m.layers) if v in layer) for v in cell]
            assert set(layers) == {belt - 1, belt}
            shared.add(layers.count(belt - 1))
        assert shared == ({1} if belt == 1 else {1, 2})


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


CHECKS = [
    "cell-size",
    "interior-degree",
    "rotation-faces",
    "boundary-cycle",
    "edge-coverage",
    "euler",
]


# corruption of build({4,5}, 3) -> the names of the checks it fails
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
        ["interior-degree", "rotation-faces", "edge-coverage"],
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
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupted_mosaic_fails_validation_naming_vertex(corruption):
    corrupt, failing = CORRUPTIONS[corruption]
    m = build(SchlafliSymbol(4, 5), 3)
    named = corrupt(m) or {}
    report = validate(m)
    assert [c.name for c in report.checks] == CHECKS
    assert [c.name for c in report.failures()] == failing, str(report)
    details = {c.name: c.detail for c in report.checks}
    for name, needles in named.items():
        # the check names one of the corrupted vertices or darts
        assert any(n in details[name] for n in needles), details[name]


def test_edge_coverage_names_the_lowest_dart():
    m = build(SchlafliSymbol(4, 5), 3)
    seed, tip, _, next_tip = m.cells.pop(3)
    # both seed edges of the dropped cell lose a side; tip precedes next_tip
    # in the seed's rotation, so (seed, tip) is the lower dart
    assert m.rot[seed].index(tip) < m.rot[seed].index(next_tip)
    failures = {c.name: c.detail for c in validate(m).failures()}
    assert failures["edge-coverage"] == f"edge ({seed}, {tip}): 1 cells, expected 2"


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
    simple = len(outer) == len(set(outer)) and all(b in at[a] for a, b in zip(outer, ahead))
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

    v_, e_, f_ = mosaic.vertex_count, edges, len(cells) + 1
    report("euler", None if v_ - e_ + f_ == 2 else f"V-E+F = {v_}-{e_}+{f_} != 2")

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
    for _ in range(2400):
        m0 = builds[rng.choice(FUZZ_SYMBOLS)]
        m = Mosaic(m0.symbol, list(m0.rot), list(m0.layers), list(m0.cells), list(m0.belt_sizes))
        for corrupt in rng.sample(kinds, rng.randint(1, 2)):
            try:
                corrupt(m)
            except (IndexError, ValueError):
                pass  # an earlier corruption took away what this one edits
        expected = str(reference_validate(m))
        assert str(validate(m)) == expected
        seen.add(expected)
    assert len(seen) > 800  # the corruptions reach many distinct reports


@pytest.mark.parametrize("p,q,belts", [(6, 5, 4), (3, 7, 8)])
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
