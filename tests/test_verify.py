import pytest

from mosaicforest import SchlafliSymbol, build, cross_check, grow

NAMES = ["layer-sizes", "forest-counts", "closed-form", "histogram"]


def grown(p, q, levels):
    return grow(build(SchlafliSymbol(p, q), levels), levels)


@pytest.mark.parametrize("p,q", [(4, 5), (4, 4)])
def test_passes(p, q):
    report = cross_check(grown(p, q, 4))
    assert [c.name for c in report.checks] == NAMES
    assert report.passed, str(report)


@pytest.mark.parametrize("p,q", [(4, 5), (4, 4)])
def test_corrupted_root_level_fails_only_histogram(p, q):
    levels = 4
    forest = grown(p, q, levels)
    victim = forest.mosaic.layers[levels][0]
    forest.root_level[victim] = (forest.root_level[victim] + 1) % (levels + 1)
    report = cross_check(forest)
    assert [c.name for c in report.failures()] == ["histogram"]


def test_unparented_vertex_fails_only_forest_counts():
    # a forest edited after grow is checked as it stands: one A vertex on
    # the last layer turned into a root changes (a_4, b_4) and nothing else
    levels = 4
    forest = grown(4, 5, levels)
    victim = next(v for v in forest.mosaic.layers[levels] if forest.parent[v] is not None)
    forest.parent[victim] = None
    report = cross_check(forest)
    assert [c.name for c in report.failures()] == ["forest-counts"]
