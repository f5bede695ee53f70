"""Source mutants that a test-only reader must catch.

Each mutant is a patched copy of one function's or method's source, compiled
in its module's namespace.  The export it makes must disagree with the
reader that checks that export, not only with a digest of its bytes, while
the unpatched export agrees.
"""

import inspect
import sys
import textwrap

import pytest
from test_forest import _dot_counts_and_histograms, _spanning_text_agrees
from test_mosaic import _edge_list_agrees

from mosaicforest.forest import Forest, grow
from mosaicforest.mosaic import Mosaic, build
from mosaicforest.recurrence import SchlafliSymbol, layer_counts

SYMBOLS = [(4, 5, 5), (5, 4, 5), (4, 7, 4), (6, 6, 3)]


def mutant(func, old, new):
    """`func` compiled from its source with `old` replaced by `new`, in its module's namespace."""
    source = textwrap.dedent(inspect.getsource(func))
    assert old in source, (func.__qualname__, old)
    module = sys.modules[func.__module__]
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[func.__name__]


@pytest.mark.parametrize("p,q,levels", SYMBOLS)
def test_dot_with_a_and_b_labels_swapped_is_caught(p, q, levels):
    # every A vertex is written as a B root (boxed) and every B as A
    swapped = mutant(Forest.to_dot, "if parent[v] is not None", "if parent[v] is None")
    symbol = SchlafliSymbol(p, q)
    f = grow(build(symbol, levels))
    counts = [(r.a, r.b) for r in layer_counts(symbol, levels)]
    assert _dot_counts_and_histograms(f.to_dot())[0] == counts
    assert _dot_counts_and_histograms(swapped(f))[0] != counts


@pytest.mark.parametrize("p,q,levels", SYMBOLS)  # p = 3 grows no root to connect
def test_connector_to_the_previous_vertex_is_caught(p, q, levels, monkeypatch):
    m = build(SchlafliSymbol(p, q), levels)
    f = grow(m)
    assert _spanning_text_agrees(f.spanning_tree_text(), m)
    backwards = mutant(Forest._connectors, "layer[(k + 1) % m]", "layer[k - 1]")
    monkeypatch.setattr(Forest, "_connectors", backwards)
    assert not _spanning_text_agrees(f.spanning_tree_text(), m)


@pytest.mark.parametrize("p,q,levels", SYMBOLS + [(3, 7, 5), (7, 3, 5)])
def test_edge_list_without_its_order_filter_is_caught(p, q, levels):
    m = build(SchlafliSymbol(p, q), levels)
    assert _edge_list_agrees(m.edge_list_text(), m)
    both_ways = mutant(Mosaic.edge_list_text, " if u < v)", ")")
    assert not _edge_list_agrees(both_ways(m), m)
