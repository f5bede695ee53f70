from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from mosaicforest.errors import DegenerateForestError
from mosaicforest.forest import grow
from mosaicforest.mosaic import _TEXT_BLOCK, build
from mosaicforest.probability import exact_distribution
from mosaicforest.recurrence import SchlafliSymbol, layer_counts

GOLDEN = Path(__file__).parent / "golden"


def union_find_spanning(n_vertices, edges):
    parent = list(range(n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False, 0  # cycle
        parent[ru] = rv
    return True, len({find(x) for x in range(n_vertices)})


@pytest.fixture(scope="module")
def forest45():
    return grow(build(SchlafliSymbol(4, 5), 7))


def test_counts_match_reference(forest45):
    rows = layer_counts(SchlafliSymbol(4, 5), 7)
    for i in range(8):
        assert forest45.counts(i) == (rows[i].a, rows[i].b)
    assert forest45.counts(4) == (355, 205)
    assert forest45.counts(0) == (0, 1)


def test_first_level_counts():
    for p, q in ((4, 5), (6, 4), (5, 7)):
        f = grow(build(SchlafliSymbol(p, q), 1))
        assert f.counts(1) == (q, q * (p - 3))


@pytest.mark.parametrize("p,q,levels", [(5, 4, 5), (4, 6, 4), (6, 4, 4), (5, 5, 4), (4, 4, 5)])
def test_counts_match_recursion(p, q, levels):
    symbol = SchlafliSymbol(p, q)
    f = grow(build(symbol, levels))
    rows = layer_counts(symbol, levels)
    assert [f.counts(i) for i in range(levels + 1)] == [(r.a, r.b) for r in rows]


def test_counts_out_of_range(forest45):
    with pytest.raises(ValueError):
        forest45.counts(8)


def test_histogram_laws(forest45):
    symbol = SchlafliSymbol(4, 5)
    rows = layer_counts(symbol, 7)
    q = 5
    for i in (3, 5, 7):
        hist = forest45.root_level_histogram(i)
        assert sum(hist.values()) == rows[i].total
        assert hist[i] == rows[i].b
        assert hist[0] == q * (q - 3) ** (i - 1)
        for j in range(1, i):
            assert hist[j] == rows[j].b * (q - 2) * (q - 3) ** (i - j - 1)


def test_histogram_reference_numerators(forest45):
    assert forest45.root_level_histogram(7)[0] == 320
    f10 = grow(build(SchlafliSymbol(4, 5), 10))
    assert f10.root_level_histogram(10)[0] == 2560


def test_histogram_matches_exact_distribution():
    symbol = SchlafliSymbol(4, 5)
    f = grow(build(symbol, 5))
    rows = layer_counts(symbol, 5)
    hist = f.root_level_histogram(5)
    dist = exact_distribution(symbol, 5, rows)
    for j in range(6):
        assert Fraction(hist.get(j, 0), rows[5].total) == dist.point_mass(j)


def test_main_root_descendants(forest45):
    assert forest45.root_level_histogram(1)[0] == 5
    assert forest45.root_level_histogram(7)[0] == 320
    f46 = grow(build(SchlafliSymbol(4, 6), 4))
    assert f46.root_level_histogram(4)[0] == 6 * 3**3  # enumeration agrees with q(q-3)^(i-1)


def test_fanout_law(forest45):
    q = 5
    children = Counter(forest45.parent)
    for i in range(7):
        for v in forest45.mosaic.layers[i]:
            n_children = children[v]
            if v == 0:  # the main root
                assert n_children == q
            elif forest45.parent[v] is not None:
                assert n_children == q - 3
            else:
                assert n_children == q - 2


def test_no_same_layer_edges_and_parents_below(forest45):
    layers = forest45.mosaic.layers
    for u, v in forest45.tree_edges():
        i = next(i for i, layer in enumerate(layers) if v in layer)
        assert u in layers[i - 1]


def test_no_leaves_below_final_layer(forest45):
    children = Counter(forest45.parent)
    for i in range(7):
        for v in forest45.mosaic.layers[i]:
            assert children[v]


def test_root_chains_terminate_at_roots(forest45):
    f = forest45
    for v in range(f.mosaic.vertex_count):
        u = v
        while f.parent[u] is not None:
            u = f.parent[u]
        assert u in f.mosaic.layers[f.root_level[v]]


@pytest.mark.parametrize("p,q,levels", [(4, 5, 3), (4, 5, 5), (5, 4, 4), (4, 4, 4)])
def test_spanning_tree(p, q, levels):
    f = grow(build(SchlafliSymbol(p, q), levels))
    tree, connectors = f.spanning_tree()
    edges = tree + connectors
    n = f.mosaic.vertex_count
    assert len(edges) == n - 1
    acyclic, components = union_find_spanning(n, edges)
    assert acyclic and components == 1
    # connectors only join roots sideways; removing them re-yields the forest
    assert len(connectors) == sum(f.counts(i)[1] for i in range(1, levels + 1))
    assert tree == f.tree_edges()
    for r, nbr in connectors:
        assert f.parent[r] is None
        assert any(r in layer and nbr in layer for layer in f.mosaic.layers)
        assert nbr in f.mosaic.rot[r]


def test_levels_validation():
    f = grow(build(SchlafliSymbol(4, 5), 2))
    for i in (-1, 3):
        with pytest.raises(ValueError, match=f"level {i} outside"):
            f.counts(i)
    assert f.counts(0) == (0, 1)
    assert f.counts(2) == (25, 15)


def test_q3_rejected():
    m = build(SchlafliSymbol(7, 3), 2)
    with pytest.raises(DegenerateForestError, match="q = 3"):
        grow(m)


def test_double_lower_neighbour_is_hard_error():
    # a second lower neighbour cannot happen on a real build for p >= 4;
    # if the map claims one, growing must fail rather than tie-break
    from mosaicforest.errors import StructureError

    m = build(SchlafliSymbol(4, 5), 2)

    def below(w):
        return [u for u in m.rot[w] if u in m.layers[1]]

    v = next(w for w in m.layers[2] if len(below(w)) == 1)
    other = next(u for u in m.layers[1] if u != below(v)[0])
    m.rot[v] = (*m.rot[v], other)
    with pytest.raises(StructureError, match=f"vertex {v}"):
        grow(m)


def test_p3_needs_opt_in():
    m = build(SchlafliSymbol(3, 7), 3)
    with pytest.raises(DegenerateForestError, match="allow_triangles"):
        grow(m)
    f = grow(m, allow_triangles=True)
    # a single tree: no roots beyond the main one, every vertex reaches it
    for i in range(1, 4):
        assert f.counts(i)[1] == 0
    for v in range(m.vertex_count):
        while f.parent[v] is not None:
            v = f.parent[v]
        assert v == 0
    # and nothing is left dangling on inner levels
    children = Counter(f.parent)
    for i in range(3):
        for v in m.layers[i]:
            assert children[v]


def test_allow_triangles_is_keyword_only():
    # a leftover positional level count must not switch triangle mode on
    with pytest.raises(TypeError):
        grow(build(SchlafliSymbol(4, 5), 2), 2)
    f = grow(build(SchlafliSymbol(3, 7), 2), allow_triangles=True)
    assert f.counts(2) == (len(f.mosaic.layers[2]), 0)


def test_p3_greedy_is_deterministic():
    m = build(SchlafliSymbol(3, 7), 3)
    f1 = grow(m, allow_triangles=True)
    f2 = grow(m, allow_triangles=True)
    assert f1.parent == f2.parent


class TestDotExport:
    def _golden(self, name):
        return (GOLDEN / name).read_text()

    def test_45_three_levels(self):
        f = grow(build(SchlafliSymbol(4, 5), 3))
        assert f.to_dot() == self._golden("forest_4_5_L3.dot")

    def test_44_three_levels(self):
        f = grow(build(SchlafliSymbol(4, 4), 3))
        assert f.to_dot() == self._golden("forest_4_4_L3.dot")

    def test_deterministic(self):
        a = grow(build(SchlafliSymbol(5, 4), 3)).to_dot()
        b = grow(build(SchlafliSymbol(5, 4), 3)).to_dot()
        assert a == b


def _dot_line_by_line(forest):
    s = forest.mosaic.symbol
    lines = [f'digraph "forest_{s.p}_{s.q}_{forest.levels}" {{', "  node [fontsize=10];"]
    for i, layer in enumerate(forest.mosaic.layers):
        for v in layer:
            if forest.parent[v] is not None:
                label, shape = "A", "circle"
            else:
                label, shape = "B", "doublecircle" if i == 0 else "box"
            lines.append(f'  v{v} [label="{v} L{i} {label}" shape={shape}];')
    lines += [f"  v{u} -> v{v};" for u, v in forest.tree_edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _edge_list_line_by_line(mosaic):
    s = mosaic.symbol
    lines = [f"# p={s.p} q={s.q} belts={mosaic.belts} vertices={mosaic.vertex_count}"]
    lines += [f"{u} {v}" for u, v in mosaic.edges()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("p,q,belts", [(4, 5, 7), (3, 7, 9)])
def test_block_joined_exports_match_a_line_by_line_rendering(p, q, belts):
    m = build(SchlafliSymbol(p, q), belts)
    assert m.vertex_count > 3 * _TEXT_BLOCK
    f = grow(m, allow_triangles=p == 3)
    assert f.to_dot() == _dot_line_by_line(f)
    assert m.edge_list_text() == _edge_list_line_by_line(m)
