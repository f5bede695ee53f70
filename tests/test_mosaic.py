from itertools import accumulate

import pytest

from mosaicforest.errors import SizeLimitError, SphericalSymbolError
from mosaicforest.mosaic import build, validate
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
    edges = set(m.edges())
    assert all((min(u, v), max(u, v)) in edges for u in range(m.vertex_count) for v in m.rot[u])
