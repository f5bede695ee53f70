"""Properties over random hyperbolic {p,q} with p, q <= 12.

Each symbol is built to the most belts that stay within 20,000 vertices.
The mosaic must validate, and its layer sizes must follow the trace
recursion L[i+1] = c*L[i] - L[i-1], c = (p-2)(q-2) - 2, from level 2 on,
p = 3 and q = 3 included.  For p, q >= 4 the grown forest must agree with
the count recursion and with the exact root-level law.

The layers, Euclidean {4,4} included, are consecutive runs of vertex ids
that cover every vertex, and each edge joins a layer to itself or to a
neighbouring layer.

A forest grows on every level of its mosaic, and a build with fewer belts
is a prefix of one with more: cut to the ids of its first j+1 layers, the
forest on k belts is the forest on j belts, p = 3 included.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mosaicforest import SchlafliSymbol, build, grow, layer_counts, validate
from mosaicforest.errors import SizeLimitError
from mosaicforest.probability import exact_distribution

VERTEX_BUDGET = 20_000

hyperbolic = (
    st.tuples(st.integers(3, 12), st.integers(3, 12))
    .filter(lambda pq: (pq[0] - 2) * (pq[1] - 2) > 4)
    .map(lambda pq: SchlafliSymbol(*pq))
)


def _largest_build(symbol, budget=VERTEX_BUDGET, most=None):
    """The mosaic with the most belts, up to `most`, that stays within `budget` vertices.

    A 2-belt build gives the first layer sizes, and the trace recursion
    (from level 2 on) extends them to the deepest level within the budget,
    so the mosaic is built once more at that depth rather than once per belt.
    The tests assert the recursion on the real build.
    """
    try:
        mosaic = build(symbol, 2, budget)
    except SizeLimitError:
        return build(symbol, 1, budget)  # belt 1 holds at most 12 * 10 vertices
    sizes, c = mosaic.layer_sizes, symbol.trace
    total = sum(sizes)
    while len(sizes) - 1 != most:
        size = c * sizes[-1] - sizes[-2]
        if total + size > budget:
            break
        sizes.append(size)
        total += size
    belts = len(sizes) - 1
    return mosaic if belts == 2 else build(symbol, belts, budget)


@given(hyperbolic)
@example(SchlafliSymbol(3, 7))
@example(SchlafliSymbol(7, 3))
@settings(max_examples=30, deadline=None)
def test_random_hyperbolic_symbol(symbol):
    mosaic = _largest_build(symbol)
    report = validate(mosaic)
    assert report.passed, str(report)
    sizes, c = mosaic.layer_sizes, symbol.trace
    for i in range(2, mosaic.belts):  # level 1 does not follow it
        assert sizes[i + 1] == c * sizes[i] - sizes[i - 1], (symbol, i)
    if min(symbol.p, symbol.q) < 4:
        return  # the count recursion covers p, q >= 4 only
    levels = mosaic.belts
    forest = grow(mosaic)
    rows = layer_counts(symbol, levels)
    assert [forest.counts(i) for i in range(levels + 1)] == [(r.a, r.b) for r in rows]
    for i in range(1, levels + 1):
        hist = forest.root_level_histogram(i)
        law = exact_distribution(symbol, i, rows)
        assert set(hist) <= set(range(i + 1))
        for j in range(i + 1):
            assert Fraction(hist.get(j, 0), rows[i].total) == law.point_mass(j)


@given(
    st.tuples(st.integers(3, 12), st.integers(3, 12))
    .filter(lambda pq: (pq[0] - 2) * (pq[1] - 2) >= 4)
    .map(lambda pq: SchlafliSymbol(*pq))
)
@example(SchlafliSymbol(3, 7))
@example(SchlafliSymbol(7, 3))
@example(SchlafliSymbol(3, 12))
@example(SchlafliSymbol(12, 3))
@example(SchlafliSymbol(4, 4))
@settings(max_examples=30, deadline=None)
def test_layers_are_consecutive_id_runs(symbol):
    mosaic = _largest_build(symbol, 3_000)
    layers = mosaic.layers
    assert layers[0] == range(1)
    assert all(a.stop == b.start for a, b in zip(layers, layers[1:]))
    assert layers[-1].stop == mosaic.vertex_count
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        near = range(layers[max(i - 1, 0)].start, layers[min(i + 1, last)].stop)
        for v in layer:
            assert all(w in near for w in mosaic.rot[v]), (symbol, i, v)


@given(
    st.tuples(st.integers(3, 12), st.integers(4, 12))
    .filter(lambda pq: (pq[0] - 2) * (pq[1] - 2) >= 4)
    .map(lambda pq: SchlafliSymbol(*pq)),
    st.integers(0, 10**6),
)
@example(SchlafliSymbol(3, 7), 0)
@example(SchlafliSymbol(3, 8), 1)
@example(SchlafliSymbol(3, 12), 0)
@example(SchlafliSymbol(4, 4), 5)
@settings(max_examples=30, deadline=None)
def test_fewer_belts_grow_a_prefix(symbol, cut):
    big = _largest_build(symbol, most=12)  # Euclidean belts grow slowly: stop at 12
    k = big.belts
    j = 1 + cut % (k - 1)  # any belt count in 1..k-1
    triangles = symbol.p == 3
    small = grow(build(symbol, j), allow_triangles=triangles)
    whole = grow(big, allow_triangles=triangles)
    assert big.layers[: j + 1] == small.mosaic.layers, (symbol, j, k)
    stop = big.layers[j].stop
    assert whole.parent[:stop] == small.parent, (symbol, j, k)
    assert whole.root_level[:stop] == small.root_level, (symbol, j, k)
