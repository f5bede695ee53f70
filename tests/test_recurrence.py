from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosaicforest.errors import DegenerateForestError, RepeatedEigenvalueError
from mosaicforest.quadratic import QuadraticNumber
from mosaicforest.recurrence import (
    Geometry,
    SchlafliSymbol,
    Series,
    closed_form_count,
    cumulative_root_limit,
    cumulative_root_ratio,
    euclidean_counts,
    growth_ratio,
    growth_ratio_error,
    layer_counts,
    spectral_constants,
)

S45 = SchlafliSymbol(4, 5)
S44 = SchlafliSymbol(4, 4)

# Reference counts for {4,5}, levels 0..10.  Pinned against three independent
# routes (recursion, closed form, mosaic enumeration); the level-4 sums also
# pin a_4 = 355 via b_4 = 205 and a_4 + b_4 = 560.
REF_A_45 = [0, 5, 25, 95, 355, 1325, 4945, 18455, 68875, 257045, 959305]
REF_B_45 = [1, 5, 15, 55, 205, 765, 2855, 10655, 39765, 148405, 553855]
REF_T_45 = [1, 10, 40, 150, 560, 2090, 7800, 29110, 108640, 405450, 1513160]

symbols_grid = st.builds(
    SchlafliSymbol, st.integers(min_value=4, max_value=12), st.integers(min_value=4, max_value=12)
)


class TestSchlafliSymbol:
    def test_geometry_classes(self):
        assert SchlafliSymbol(4, 5).geometry is Geometry.HYPERBOLIC
        assert SchlafliSymbol(4, 4).geometry is Geometry.EUCLIDEAN
        assert SchlafliSymbol(3, 6).geometry is Geometry.EUCLIDEAN
        assert SchlafliSymbol(3, 5).geometry is Geometry.SPHERICAL
        assert SchlafliSymbol(3, 7).geometry is Geometry.HYPERBOLIC

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            SchlafliSymbol(2, 5)
        with pytest.raises(ValueError):
            SchlafliSymbol(5, 2)

    def test_trace(self):
        assert S45.trace == 4
        assert SchlafliSymbol(4, 6).trace == 6
        assert S44.trace == 2


class TestLayerCounts:
    def test_reference_table_45(self):
        rows = layer_counts(S45, 10)
        assert [r.a for r in rows] == REF_A_45
        assert [r.b for r in rows] == REF_B_45
        assert [r.total for r in rows] == REF_T_45

    def test_level_zero_only(self):
        rows = layer_counts(S45, 0)
        assert len(rows) == 1
        assert (rows[0].a, rows[0].b) == (0, 1)

    @given(symbols_grid)
    def test_initial_values(self, symbol):
        rows = layer_counts(symbol, 1)
        assert (rows[0].a, rows[0].b) == (0, 1)
        assert (rows[1].a, rows[1].b) == (symbol.q, symbol.q * (symbol.p - 3))

    @given(symbols_grid, st.integers(min_value=2, max_value=30))
    def test_recursion_holds(self, symbol, n):
        p, q = symbol.p, symbol.q
        rows = layer_counts(symbol, n)
        for i in range(1, n):
            assert rows[i + 1].a == (q - 3) * rows[i].a + (q - 2) * rows[i].b
            assert rows[i + 1].b == ((q - 3) * (p - 3) - 1) * rows[i].a + (
                (q - 2) * (p - 3) - 1
            ) * rows[i].b

    def test_euclidean_case(self):
        rows = layer_counts(S44, 5)
        assert [r.a for r in rows[1:]] == [8 * i - 4 for i in range(1, 6)]
        assert all(r.b == 4 for r in rows[1:])
        # a_{i+1} = a_i + 8, b constant
        for i in range(1, 5):
            assert rows[i + 1].a == rows[i].a + 8
            assert rows[i + 1].b == rows[i].b

    def test_degenerate_symbols_rejected(self):
        with pytest.raises(DegenerateForestError, match="q = 3"):
            layer_counts(SchlafliSymbol(7, 3), 4)
        with pytest.raises(DegenerateForestError, match="p = 3"):
            layer_counts(SchlafliSymbol(3, 7), 4)

    def test_positive_counts(self):
        for symbol in (S45, SchlafliSymbol(9, 4), SchlafliSymbol(4, 9)):
            rows = layer_counts(symbol, 12)
            assert all(r.a > 0 and r.b > 0 for r in rows[1:])

    def test_negative_levels(self):
        with pytest.raises(ValueError):
            layer_counts(S45, -1)


class TestEuclideanCounts:
    def test_values(self):
        assert (euclidean_counts(1).a, euclidean_counts(1).b) == (4, 4)
        assert (euclidean_counts(10).a, euclidean_counts(10).b) == (76, 4)

    def test_matches_recursion(self):
        rows = layer_counts(S44, 5)
        for i in range(1, 6):
            assert (euclidean_counts(i).a, euclidean_counts(i).b) == (rows[i].a, rows[i].b)

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            euclidean_counts(0)


class TestSpectralConstants:
    def test_exact_forms_45(self):
        c = spectral_constants(S45)
        assert c.trace == 4 and c.radicand == 12
        assert c.growth == QuadraticNumber(2, 1, 3)
        assert c.decay == QuadraticNumber(2, -1, 3)
        assert c.lead(Series.A) == QuadraticNumber(Fraction(-5, 2), Fraction(5, 2), 3)
        assert c.lead(Series.B) == QuadraticNumber(Fraction(5, 2), Fraction(-5, 6), 3)
        assert c.lead(Series.ALL) == QuadraticNumber(0, Fraction(5, 3), 3)
        assert c.root_nonroot_limit == QuadraticNumber(0, Fraction(1, 3), 3)
        assert c.root_share == QuadraticNumber(Fraction(-1, 2), Fraction(1, 2), 3)
        assert c.step_share == QuadraticNumber(-3, 2, 3)
        assert c.fanout_ratio == Fraction(3, 2)

    def test_six_decimal_views_45(self):
        d = spectral_constants(S45).decimals(6)
        assert d["growth"] == "3.732051"
        assert d["lead_a"] == "1.830127"
        assert d["lead_b"] == "1.056624"
        assert d["lead_ab"] == "2.886751"
        assert d["root_nonroot_limit"] == "0.577350"
        assert d["root_share"] == "0.366025"
        assert d["step_share"] == "0.464102"

    def test_46_growth(self):
        c = spectral_constants(SchlafliSymbol(4, 6))
        assert c.trace == 6
        assert c.growth == QuadraticNumber(3, 2, 2)  # 3 + 2*sqrt(2)

    @given(symbols_grid)
    def test_eigen_identities(self, symbol):
        if symbol.geometry is not Geometry.HYPERBOLIC:
            return
        c = spectral_constants(symbol)
        assert c.growth * c.decay == 1
        assert c.growth + c.decay == c.trace
        assert c.growth > 1 > c.decay > 0
        # K = L/(1+L) and M = hL/(1+hL) hold exactly
        L = c.root_nonroot_limit
        assert c.root_share == L / (1 + L)
        hL = c.fanout_ratio * L
        assert c.step_share == hL / (1 + hL)

    def test_euclidean_rejected(self):
        with pytest.raises(RepeatedEigenvalueError, match="euclidean_counts"):
            spectral_constants(S44)

    def test_decay_is_conjugate_of_growth(self):
        # closed_form_count takes decay**i as the conjugate of growth**i
        for p in range(4, 13):
            for q in range(4, 13):
                symbol = SchlafliSymbol(p, q)
                if symbol.geometry is Geometry.HYPERBOLIC:
                    c = spectral_constants(symbol)
                    assert c.decay == c.growth.conjugate()


class TestClosedForm:
    def test_reference_values(self):
        c = spectral_constants(S45)
        assert closed_form_count(c, 10, Series.ALL) == 1513160
        assert closed_form_count(c, 1, Series.A) == 5

    @settings(max_examples=30, deadline=None)
    @given(symbols_grid, st.integers(min_value=1, max_value=60))
    def test_matches_recursion(self, symbol, level):
        if symbol.geometry is not Geometry.HYPERBOLIC:
            return
        c = spectral_constants(symbol)
        rows = layer_counts(symbol, level)
        assert closed_form_count(c, level, Series.A) == rows[level].a
        assert closed_form_count(c, level, Series.B) == rows[level].b
        assert closed_form_count(c, level, Series.ALL) == rows[level].total

    def test_54_matches_recursion(self):
        symbol = SchlafliSymbol(5, 4)
        c = spectral_constants(symbol)
        rows = layer_counts(symbol, 8)
        assert closed_form_count(c, 8, Series.B) == rows[8].b

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            closed_form_count(spectral_constants(S45), 0, Series.A)


class TestClosedFormSweep:
    @pytest.mark.parametrize("p,q", [(4, 5), (5, 4), (4, 6), (6, 4), (5, 5)])
    def test_matches_recursion_to_level_200(self, p, q):
        symbol = SchlafliSymbol(p, q)
        rows = layer_counts(symbol, 200)
        c = spectral_constants(symbol)
        sweep = [
            tuple(closed_form_count(c, i, s) for s in (Series.A, Series.B, Series.ALL))
            for i in range(1, 201)
        ]
        assert sweep == [(r.a, r.b, r.total) for r in rows[1:]]


class TestGrowthRatio:
    def test_exact_value(self):
        assert growth_ratio(S45, 10, Series.A) == Fraction(3580175, 959305)

    def test_close_to_growth_at_10(self):
        err = growth_ratio_error(S45, 10, Series.A)
        assert err < Fraction(1, 10**9)

    def test_deep_convergence(self):
        err = growth_ratio_error(S45, 100, Series.ALL)
        assert err < Fraction(1, 10**113)

    def test_euclidean_allowed_tends_to_one(self):
        # ratios approach 1 instead of a hyperbolic constant
        r = growth_ratio(S44, 50, Series.A)
        assert abs(r - 1) < Fraction(1, 10)
        assert growth_ratio(S44, 5, Series.B) == 1

    def test_monotone_error_decrease(self):
        for series in Series:
            errors = [growth_ratio_error(S45, i, series) for i in range(2, 30)]
            assert all(errors[k + 1] < errors[k] for k in range(len(errors) - 1))

    @pytest.mark.parametrize(
        "p,q,level",
        [(4, 5, 1), (4, 5, 40), (6, 5, 3), (4, 5, 0), (4, 4, 1), (4, 4, 0), (3, 7, 2),
         (7, 3, 0)],
    )
    def test_error_agrees_with_spectral_constants_route(self, p, q, level):
        symbol = SchlafliSymbol(p, q)

        def through_spectral_constants():
            constants = spectral_constants(symbol)
            return abs(growth_ratio(symbol, level, Series.ALL) - constants.growth)

        try:
            want = through_spectral_constants()
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                growth_ratio_error(symbol, level, Series.ALL)
            assert type(got.value) is type(exc)
        else:
            assert growth_ratio_error(symbol, level, Series.ALL) == want

    def test_monotone_error_decrease_other_symbols(self):
        for symbol in (SchlafliSymbol(5, 4), SchlafliSymbol(6, 5)):
            errors = [growth_ratio_error(symbol, i, Series.ALL) for i in range(2, 15)]
            assert all(errors[k + 1] < errors[k] for k in range(len(errors) - 1))


class TestCumulativeRootRatio:
    def test_exact_value_at_10(self):
        # direct summation of the b column: 1+5+15+...+553855 = 756581
        assert sum(REF_B_45) == 756581
        assert cumulative_root_ratio(S45, 10) == Fraction(553855, 756581)

    def test_limit_value(self):
        lim = cumulative_root_limit(S45)
        assert lim == QuadraticNumber(-1, 1, 3)  # sqrt(3) - 1 = 1 - decay
        assert lim.decimal(6) == "0.732051"

    def test_convergence(self):
        lim = cumulative_root_limit(S45)
        # within 1e-6 by level 12, within 1e-9 by level 16
        assert abs(cumulative_root_ratio(S45, 12) - lim) < Fraction(1, 10**6)
        assert abs(cumulative_root_ratio(S45, 16) - lim) < Fraction(1, 10**9)

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            cumulative_root_ratio(S45, 0)

    def test_euclidean_rejected(self):
        with pytest.raises(RepeatedEigenvalueError):
            cumulative_root_ratio(S44, 5)
