"""A property over random hyperbolic {p,q} with p, q <= 12.

Each symbol is built to the most belts that stay within 20,000 vertices.
The mosaic must validate, and for p, q >= 4 the grown forest must agree
with the count recursion and with the exact root-level law.
"""

from fractions import Fraction
from itertools import count

from hypothesis import given, settings
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


def _largest_build(symbol):
    """The mosaic with the most belts that stays within VERTEX_BUDGET vertices."""
    mosaic = build(symbol, 1, VERTEX_BUDGET)  # belt 1 holds at most 12 * 10 vertices
    for belts in count(2):
        try:
            mosaic = build(symbol, belts, VERTEX_BUDGET)
        except SizeLimitError:
            return mosaic


@given(hyperbolic)
@settings(max_examples=30, deadline=None)
def test_random_hyperbolic_symbol(symbol):
    mosaic = _largest_build(symbol)
    report = validate(mosaic)
    assert report.passed, str(report)
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
