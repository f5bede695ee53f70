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
