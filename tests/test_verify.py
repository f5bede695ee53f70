import dataclasses
from fractions import Fraction

import pytest

from mosaicforest import SchlafliSymbol, Series, build, cross_check, grow, verify
from mosaicforest.recurrence import spectral_constants

NAMES = ["layer-sizes", "forest-counts", "closed-form", "histogram"]


def grown(p, q, levels):
    return grow(build(SchlafliSymbol(p, q), levels))


@pytest.mark.parametrize("p,q", [(4, 5), (4, 4)])
def test_passes(p, q):
    report = cross_check(grown(p, q, 4))
    assert [c.name for c in report.checks] == NAMES
    assert report.passed, str(report)


@pytest.mark.parametrize("p,q", [(4, 5), (4, 4)])
def test_corrupted_root_level_fails_only_histogram(p, q):
    # on the first and on the last level, which every check must reach
    levels = 4
    for level in (1, levels):
        forest = grown(p, q, levels)
        victim = forest.mosaic.layers[level][0]
        forest.root_level[victim] = (forest.root_level[victim] + 1) % (levels + 1)
        report = cross_check(forest)
        assert [c.name for c in report.failures()] == ["histogram"], level


def test_unparented_vertex_fails_only_forest_counts():
    # a forest edited after grow is checked as it stands: one A vertex on
    # the last layer turned into a root changes (a_4, b_4) and nothing else
    levels = 4
    forest = grown(4, 5, levels)
    victim = next(v for v in forest.mosaic.layers[levels] if forest.parent[v] is not None)
    forest.parent[victim] = None
    report = cross_check(forest)
    assert [c.name for c in report.failures()] == ["forest-counts"]


@pytest.mark.parametrize("shift,series", [(1, Series.A), (1, Series.B), (-1, Series.ALL)])
def test_shifted_lead_fails_only_closed_form(shift, series, monkeypatch):
    # an integer shift keeps every closed-form count an integer but moves it
    def shifted(symbol):
        c = spectral_constants(symbol)
        lead = dict(c.lead_coefficients)
        lead[series] += shift
        return dataclasses.replace(c, lead_coefficients=lead)

    monkeypatch.setattr(verify, "spectral_constants", shifted)
    report = cross_check(grown(4, 5, 3))
    assert [c.name for c in report.failures()] == ["closed-form"]


def test_non_integer_lead_raises_as_closed_form_count_does(monkeypatch):
    def off(symbol):
        c = spectral_constants(symbol)
        lead = dict(c.lead_coefficients)
        lead[Series.B] += Fraction(1, 3)
        return dataclasses.replace(c, lead_coefficients=lead)

    monkeypatch.setattr(verify, "spectral_constants", off)
    with pytest.raises(ArithmeticError, match="non-integer .* at level 1$"):
        cross_check(grown(4, 5, 3))
