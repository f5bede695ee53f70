import dataclasses
import inspect
import textwrap
import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mosaicforest import quadratic, recurrence
from mosaicforest.errors import DegenerateForestError, RepeatedEigenvalueError
from mosaicforest.quadratic import QuadraticNumber, square_free_split
from mosaicforest.recurrence import (
    Geometry,
    SchlafliSymbol,
    Series,
    closed_form_count,
    cumulative_root_limit,
    cumulative_root_ratio,
    euclidean_counts,
    first_level_reaching,
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


def reference_pairs(symbol):
    """The first-order matrix step (a, b) -> M(a, b), kept as the oracle for `_pairs`."""
    yield 0, 1
    p, q = symbol.p, symbol.q
    a, b = q, q * (p - 3)
    m00, m01 = q - 3, q - 2
    m10, m11 = (q - 3) * (p - 3) - 1, (q - 2) * (p - 3) - 1
    while True:
        yield a, b
        a, b = m00 * a + m01 * b, m10 * a + m11 * b


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
        assert c.lead_coefficients[Series.A] == QuadraticNumber(Fraction(-5, 2), Fraction(5, 2), 3)
        assert c.lead_coefficients[Series.B] == QuadraticNumber(Fraction(5, 2), Fraction(-5, 6), 3)
        assert c.lead_coefficients[Series.ALL] == QuadraticNumber(0, Fraction(5, 3), 3)
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

    def test_radicand_is_split_one_factor_at_a_time(self, monkeypatch):
        # c*c - 4 has 25 digits here, too many for trial division to finish
        symbol = SchlafliSymbol(1000000000065, 4)
        c = symbol.trace
        seen = []

        def counting_split(n):
            seen.append(n)
            return square_free_split(n)

        monkeypatch.setattr(recurrence, "square_free_split", counting_split)
        monkeypatch.setattr(quadratic, "square_free_split", counting_split)
        # raises unless K, M and lim b/a equal their eigenvector forms
        constants = spectral_constants(symbol)
        assert seen and max(seen) <= c + 2
        assert constants.radicand == c * c - 4
        assert constants.growth * constants.decay == 1
        assert constants.growth + constants.decay == c

    def test_factor_splits_agree_with_the_whole_radicand(self):
        for c in range(3, 400):
            growth, decay = recurrence._eigenvalues(SchlafliSymbol(c + 4, 3))  # trace c
            half = Fraction(1, 2)
            assert growth == QuadraticNumber(Fraction(c, 2), half, c * c - 4), c
            assert decay == QuadraticNumber(Fraction(c, 2), -half, c * c - 4), c

    def test_decay_is_conjugate_of_growth(self):
        # closed_form_count relies on decay**i being the conjugate of growth**i
        for p in range(4, 13):
            for q in range(4, 13):
                symbol = SchlafliSymbol(p, q)
                if symbol.geometry is Geometry.HYPERBOLIC:
                    c = spectral_constants(symbol)
                    assert c.decay == c.growth.conjugate()

    def test_sub_with_growth_and_decay_swapped_is_caught(self):
        # spectral_constants derives sub on its own and checks it against
        # lead's conjugate; a mutant formula must not get through
        source = textwrap.dedent(inspect.getsource(recurrence.spectral_constants))
        formula = "(growth * r1 - r2) / (decay * gap)"
        assert formula in source
        mutant = source.replace(formula, "(decay * r1 - r2) / (growth * gap)")
        namespace = dict(vars(recurrence))
        exec(compile(mutant, recurrence.__file__, "exec"), namespace)
        for symbol in (S45, SchlafliSymbol(5, 4), SchlafliSymbol(7, 7)):
            with pytest.raises(ArithmeticError, match="conjugate"):
                namespace["spectral_constants"](symbol)

    def test_step_share_off_its_eigenvector_form_is_caught(self):
        # the limit constants are checked against their eigenvector forms;
        # a mutant that passes verify today must not get through
        source = textwrap.dedent(inspect.getsource(recurrence.spectral_constants))
        formula = "step_share = scaled / (1 + scaled)"
        assert formula in source
        mutant = source.replace(formula, "step_share = scaled / (2 + scaled)")
        namespace = dict(vars(recurrence))
        exec(compile(mutant, recurrence.__file__, "exec"), namespace)
        for symbol in (S45, SchlafliSymbol(5, 4), SchlafliSymbol(7, 7)):
            with pytest.raises(ArithmeticError, match="step_share"):
                namespace["spectral_constants"](symbol)


class TestFirstLevelReaching:
    @pytest.mark.parametrize("p,q", [(p, q) for p in range(4, 9) for q in range(4, 9)])
    def test_first_row_at_or_above(self, p, q):
        symbol, levels = SchlafliSymbol(p, q), 6
        rows = layer_counts(symbol, levels)
        # 1, every level's total and one past it; the last one past is reached by none
        thresholds = {1} | {r.total for r in rows} | {r.total + 1 for r in rows}
        for t in sorted(thresholds):
            want = next((r.level for r in rows if r.total >= t), None)
            assert first_level_reaching(symbol, t, levels) == want, t
        assert first_level_reaching(symbol, 1, levels) == 0
        assert first_level_reaching(symbol, rows[3].total, levels) == 3
        assert first_level_reaching(symbol, rows[3].total + 1, levels) == 4
        assert first_level_reaching(symbol, rows[levels].total + 1, levels) is None

    @pytest.mark.parametrize("p,q", [(3, 7), (3, 6), (7, 3), (6, 3)])
    def test_degenerate_forest_rejected(self, p, q):
        with pytest.raises(DegenerateForestError):
            first_level_reaching(SchlafliSymbol(p, q), 1, 3)


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

    def test_non_integer_closed_form_raises(self):
        c = spectral_constants(S45)
        lead = dict(c.lead_coefficients)
        lead[Series.A] += Fraction(1, 3)
        off = dataclasses.replace(c, lead_coefficients=lead)
        with pytest.raises(ArithmeticError, match="non-integer .* at level 5"):
            closed_form_count(off, 5, Series.A)


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

    def test_deep_ratio_keeps_two_rows(self):
        # the jump to `level` holds a few integers at a time, never a row list
        tracemalloc.start()
        try:
            growth_ratio(S45, 10**4, Series.ALL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"{peak} bytes"

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


class TestKernel:
    """`_pairs` steps x' = c*x - x_prev and `growth_ratio` jumps; the matrix step is the oracle."""

    @pytest.mark.parametrize("p,q", [(p, q) for p in range(4, 13) for q in range(4, 13)])
    def test_pairs_match_matrix_step(self, p, q):
        symbol = SchlafliSymbol(p, q)
        got = list(islice(recurrence._pairs(symbol), 301))
        assert got == list(islice(reference_pairs(symbol), 301))

    @settings(deadline=None)
    @given(
        st.integers(min_value=4, max_value=30),
        st.integers(min_value=4, max_value=30),
        st.integers(min_value=1, max_value=2000),
        st.sampled_from(Series),
    )
    @example(4, 4, 1, Series.A)
    @example(4, 4, 2000, Series.B)
    @example(4, 5, 1, Series.ALL)
    @example(30, 30, 2000, Series.ALL)
    def test_ratio_jump_matches_matrix_step(self, p, q, level, series):
        symbol = SchlafliSymbol(p, q)
        now, after = islice(reference_pairs(symbol), level, level + 2)
        value = recurrence._series_value
        want = Fraction(value(*after, series), value(*now, series))
        assert growth_ratio(symbol, level, series) == want

    def test_deep_ratio_matches_closed_form(self):
        c, level = spectral_constants(S45), 10**5
        want = Fraction(
            closed_form_count(c, level + 1, Series.ALL), closed_form_count(c, level, Series.ALL)
        )
        assert growth_ratio(S45, level, Series.ALL) == want

    @pytest.mark.parametrize("shift", [1, -1, 3])
    def test_kernel_does_not_read_symbol_trace(self, shift, monkeypatch):
        # the closed form is built on `trace`; the kernel takes c from the
        # matrix entries, so a wrong trace breaks the closed form alone
        true_trace = SchlafliSymbol.trace.fget
        monkeypatch.setattr(SchlafliSymbol, "trace", property(lambda s: true_trace(s) + shift))
        for symbol in (S45, S44, SchlafliSymbol(5, 4), SchlafliSymbol(7, 7)):
            got = list(islice(recurrence._pairs(symbol), 200))
            assert got == list(islice(reference_pairs(symbol), 200)), symbol
            now, after = islice(reference_pairs(symbol), 150, 152)
            assert growth_ratio(symbol, 150, Series.ALL) == Fraction(sum(after), sum(now))
        for symbol in (S45, SchlafliSymbol(5, 4), SchlafliSymbol(7, 7)):
            with pytest.raises(ArithmeticError):
                spectral_constants(symbol)


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
