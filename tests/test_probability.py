from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosaicforest import build, grow
from mosaicforest.errors import DegenerateForestError, RepeatedEigenvalueError
from mosaicforest.probability import (
    DistributionKind,
    asymptotic_distribution,
    distribution_error_report,
    exact_distribution,
)
from mosaicforest.quadratic import QuadraticNumber, decimal
from mosaicforest.recurrence import (
    SchlafliSymbol,
    layer_counts,
    spectral_constants,
)

S45 = SchlafliSymbol(4, 5)
S44 = SchlafliSymbol(4, 4)

# Six-decimal reference values for the limiting law on {4,5}; keys are root
# levels j.  The same quantity appears once with its final digit rounded the
# other way (j=9 below), so compare within 1e-6 rather than by string equality.
REF_ASYM_7 = {
    7: "0.366025",
    6: "0.294229",
    5: "0.157677",
    4: "0.084499",
    3: "0.045283",
    2: "0.024267",
    1: "0.013005",
    0: "0.015016",
}
REF_ASYM_10 = {
    10: "0.366025",
    9: "0.294228",
    8: "0.157677",
    7: "0.084499",
    6: "0.045283",
    5: "0.024267",
    4: "0.013005",
    3: "0.006969",
    2: "0.003735",
    1: "0.002001",
    0: "0.002311",
}

symbols_grid = st.builds(
    SchlafliSymbol, st.integers(min_value=4, max_value=8), st.integers(min_value=4, max_value=8)
)


def as_fraction(decimal_text: str) -> Fraction:
    return Fraction(decimal_text)


class TestAsymptotic:
    @pytest.mark.parametrize("level,ref", [(7, REF_ASYM_7), (10, REF_ASYM_10)])
    def test_reference_six_decimals(self, level, ref):
        d = asymptotic_distribution(spectral_constants(S45), level)
        rendered = d.decimals(6)
        for j, want in ref.items():
            assert abs(as_fraction(rendered[j]) - as_fraction(want)) <= Fraction(1, 10**6)

    def test_level_one_masses(self):
        c = spectral_constants(S45)
        d = asymptotic_distribution(c, 1)
        assert d.point_mass(1) == c.root_share
        assert d.point_mass(0) == 1 - c.root_share
        assert d.cumulative_below(d.level) == 1

    @given(symbols_grid, st.integers(min_value=1, max_value=25))
    @settings(max_examples=40, deadline=None)
    def test_sums_to_one_exactly(self, symbol, level):
        try:
            c = spectral_constants(symbol)
        except RepeatedEigenvalueError:
            return
        d = asymptotic_distribution(c, level)
        assert d.cumulative_below(d.level) == 1

    def test_cumulative_closed_form(self):
        # cumulative_below(j) telescopes to (1-K)(1-M)**(i-j-1)
        c = spectral_constants(S45)
        d = asymptotic_distribution(c, 9)
        rest = 1 - c.root_share
        keep = 1 - c.step_share
        for j in range(9):
            assert d.cumulative_below(j) == rest * keep ** (9 - j - 1)

    def test_masses_in_unit_interval(self):
        d = asymptotic_distribution(spectral_constants(SchlafliSymbol(7, 7)), 12)
        for j in range(13):
            assert 0 < d.point_mass(j) < 1

    def test_euclidean_rejected(self):
        # the limit law would be all-zero mass; the constants themselves are
        # refused upstream, so no asymptotic model exists for {4,4}
        with pytest.raises(RepeatedEigenvalueError):
            spectral_constants(S44)
        with pytest.raises(ValueError):
            asymptotic_distribution(spectral_constants(S45), 0)

    def test_kind(self):
        d = asymptotic_distribution(spectral_constants(S45), 3)
        assert d.kind is DistributionKind.ASYMPTOTIC

    @pytest.mark.parametrize(
        "p,q", [(p, q) for p in range(4, 9) for q in range(4, 9) if (p, q) != (4, 4)]
    )
    def test_limit_is_the_exact_cascade_with_ratio_q3_over_g(self, p, q):
        # the exact cascade has ratio q-3 and tails b_j*(q-2); over a_i+b_i,
        # with b_j/(a_i+b_i) -> K*g**(j-i), its ratio tends to (q-3)/g and
        # its tails to K*(q-2)/g
        c = spectral_constants(SchlafliSymbol(p, q))
        share, step, g = c.root_share, c.step_share, c.growth
        assert 1 - step == (q - 3) / g
        assert (1 - share) * step == share * (q - 2) / g


class TestExact:
    def test_reference_main_root_masses(self):
        assert exact_distribution(S45, 7).point_mass(0) == Fraction(320, 29110)
        assert exact_distribution(S45, 10).point_mass(0) == Fraction(2560, 1513160)

    def test_level3_masses(self):
        d = exact_distribution(S45, 3)
        assert d.masses == (
            Fraction(20, 150),
            Fraction(30, 150),
            Fraction(45, 150),
            Fraction(55, 150),
        )
        assert d.cumulative_below(d.level) == 1

    def test_top_mass_is_root_share_of_level(self):
        rows = layer_counts(S45, 9)
        d = exact_distribution(S45, 9, rows)
        assert d.point_mass(9) == Fraction(rows[9].b, rows[9].total)

    @given(symbols_grid, st.integers(min_value=1, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_sums_to_one_exactly(self, symbol, level):
        d = exact_distribution(symbol, level)
        assert d.cumulative_below(d.level) == 1
        assert all(0 < m <= 1 for m in d.masses)

    def test_counts_identity(self):
        # q(q-3)^(i-1) + sum b_j (q-2)(q-3)^(i-j-1) + b_i == a_i + b_i
        for symbol in (S45, SchlafliSymbol(6, 5), SchlafliSymbol(5, 6)):
            q = symbol.q
            rows = layer_counts(symbol, 12)
            for i in range(1, 13):
                total = q * (q - 3) ** (i - 1) + rows[i].b
                total += sum(
                    rows[j].b * (q - 2) * (q - 3) ** (i - j - 1) for j in range(1, i)
                )
                assert total == rows[i].total

    def test_euclidean_exact_law(self):
        for i in (2, 5, 17, 100):
            d = exact_distribution(S44, i)
            assert d.point_mass(i) == d.point_mass(0) == Fraction(1, 2 * i)
            for j in range(1, i):
                assert d.cumulative_below(j) == Fraction(8 * j + 4, 8 * i)

    def test_short_counts_rejected(self):
        with pytest.raises(ValueError, match="cover levels"):
            exact_distribution(S45, 5, layer_counts(S45, 4))

    def test_degenerate_symbols_rejected(self):
        with pytest.raises(DegenerateForestError, match="q = 3"):
            exact_distribution(SchlafliSymbol(7, 3), 3)
        with pytest.raises(DegenerateForestError, match="p = 3"):
            exact_distribution(SchlafliSymbol(3, 7), 3)


class TestWeights:
    @pytest.mark.parametrize(
        "symbol,levels",
        [(S45, 6), (SchlafliSymbol(5, 4), 5), (SchlafliSymbol(4, 6), 5), (S44, 8)],
    )
    def test_exact_weights_are_the_grown_histogram(self, symbol, levels):
        forest = grow(build(symbol, levels))
        rows = layer_counts(symbol, levels)
        for i in range(1, levels + 1):
            d = exact_distribution(symbol, i, rows)
            hist = forest.root_level_histogram(i)
            assert set(hist) <= set(range(i + 1))
            assert d.weights == tuple(hist.get(j, 0) for j in range(i + 1))
            assert all(type(w) is int for w in d.weights)
            assert d.total == rows[i].total

    def test_exact_cumulative_is_an_integer_prefix_over_total(self):
        d = exact_distribution(S45, 40)
        for j in range(41):
            assert d.cumulative_below(j) == Fraction(sum(d.weights[: j + 1]), d.total)

    def test_limiting_law_has_total_one(self):
        d = asymptotic_distribution(spectral_constants(S45), 12)
        assert d.total == 1
        assert d.masses == d.weights

    def test_public_reads_keep_their_types(self):
        exact = exact_distribution(S45, 9)
        asym = asymptotic_distribution(spectral_constants(S45), 9)
        for d, mass_type in ((exact, Fraction), (asym, QuadraticNumber)):
            reads = list(d.masses)
            reads += [d.point_mass(j) for j in range(10)]
            reads += [d.cumulative_below(j) for j in range(10)]
            assert all(type(m) is mass_type for m in reads)
            assert d.decimals(6) == [decimal(m, 6) for m in d.masses]
        assert exact.masses == tuple(Fraction(w, exact.total) for w in exact.weights)


class TestCumulativeBelow:
    @pytest.mark.parametrize("symbol", [S45, SchlafliSymbol(5, 6)])
    def test_prefix_sums_of_both_laws_at_level_200(self, symbol):
        laws = (
            exact_distribution(symbol, 200),
            asymptotic_distribution(spectral_constants(symbol), 200),
        )
        for d in laws:
            prefix = list(accumulate(d.masses))
            assert [d.cumulative_below(j) for j in range(201)] == prefix
            assert prefix[-1] == d.cumulative_below(d.level) == 1

    def test_euclidean_case_at_level_200(self):
        d = exact_distribution(S44, 200)
        for j in range(1, 200):
            assert d.cumulative_below(j) == Fraction(8 * j + 4, 8 * 200)

    def test_out_of_range_rejected(self):
        d = exact_distribution(S45, 5)
        for j in (-1, 6):
            with pytest.raises(ValueError, match="outside"):
                d.cumulative_below(j)


class TestErrorReport:
    def test_gap_at_top_level(self):
        c = spectral_constants(S45)
        r7 = distribution_error_report(
            asymptotic_distribution(c, 7), exact_distribution(S45, 7)
        )
        assert r7.rows[7].difference < Fraction(1, 10**6)
        r10 = distribution_error_report(
            asymptotic_distribution(c, 10), exact_distribution(S45, 10)
        )
        # |K - b_10/(a_10+b_10)|
        assert r10.rows[10].difference < Fraction(1, 10**10)

    def test_orders_at_main_root(self):
        c = spectral_constants(S45)
        for level, want in ((7, -3), (10, -4), (100, -28)):
            rep = distribution_error_report(
                asymptotic_distribution(c, level), exact_distribution(S45, level)
            )
            assert rep.rows[0].order == want

    def test_monotone_improvement_toward_top(self):
        c = spectral_constants(S45)
        for level in range(2, 13):
            rep = distribution_error_report(
                asymptotic_distribution(c, level), exact_distribution(S45, level)
            )
            diffs = [row.difference for row in rep.rows[1:]]
            assert all(diffs[k + 1] <= diffs[k] for k in range(len(diffs) - 1))

    def test_mismatched_inputs_rejected(self):
        c = spectral_constants(S45)
        a7 = asymptotic_distribution(c, 7)
        with pytest.raises(ValueError, match="mismatched"):
            distribution_error_report(a7, exact_distribution(S45, 8))
        with pytest.raises(ValueError, match="mismatched"):
            distribution_error_report(a7, exact_distribution(SchlafliSymbol(4, 6), 7))
        with pytest.raises(ValueError, match="asymptotic"):
            distribution_error_report(a7, a7)

    def test_rows_cover_all_levels(self):
        c = spectral_constants(S45)
        rep = distribution_error_report(
            asymptotic_distribution(c, 5), exact_distribution(S45, 5)
        )
        assert [row.root_level for row in rep.rows] == list(range(6))
