"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Tolerances are pinned here, not configurable.
"""

import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

from mosaicforest.forest import grow
from mosaicforest.mosaic import build
from mosaicforest.probability import (
    asymptotic_distribution,
    distribution_error_report,
    exact_distribution,
)
from mosaicforest.quadratic import QuadraticNumber
from mosaicforest.recurrence import (
    Geometry,
    SchlafliSymbol,
    Series,
    closed_form_count,
    euclidean_counts,
    growth_ratio,
    layer_counts,
    spectral_constants,
)

S45 = SchlafliSymbol(4, 5)

# Level counts for {4,5}, pinned by three independent routes (recursion,
# closed form, mosaic enumeration).  The totals row pins a_4 = 355 through
# b_4 = 205 and total 560; a digit-swapped 335 fails that sum check.
T45_A = [0, 5, 25, 95, 355, 1325, 4945, 18455, 68875, 257045, 959305]
T45_B = [1, 5, 15, 55, 205, 765, 2855, 10655, 39765, 148405, 553855]
T45_T = [1, 10, 40, 150, 560, 2090, 7800, 29110, 108640, 405450, 1513160]

# Six-decimal reference columns for the limiting root-level law on {4,5}.
T_PROB_7 = {7: "0.366025", 6: "0.294229", 5: "0.157677", 4: "0.084499",
            3: "0.045283", 2: "0.024267", 1: "0.013005", 0: "0.015016"}
T_PROB_10 = {10: "0.366025", 9: "0.294228", 8: "0.157677", 7: "0.084499",
             6: "0.045283", 5: "0.024267", 4: "0.013005", 3: "0.006969",
             2: "0.003735", 1: "0.002001", 0: "0.002311"}


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS: {description}")


def best_of(n, fn):
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_count_table_reproduction():
    with criterion(1, "level-count table for {4,5} to level 10, exact, < 1 ms"):
        rows = layer_counts(S45, 10)
        assert [r.a for r in rows] == T45_A
        assert [r.b for r in rows] == T45_B
        assert [r.total for r in rows] == T45_T
        assert best_of(5, lambda: layer_counts(S45, 10)) < 1e-3


def test_criterion_2_spectral_constants():
    with criterion(2, "{4,5} constants: 6-decimal values within 5e-7, radicals exact"):
        c = spectral_constants(S45)
        tol = 5e-7
        for value, want in (
            (c.growth, 3.732051),
            (c.lead_coefficients[Series.A], 1.830127),
            (c.lead_coefficients[Series.B], 1.056624),
            (c.lead_coefficients[Series.ALL], 2.886751),
            (c.root_nonroot_limit, 0.577350),
            (c.root_share, 0.366025),
            (c.step_share, 0.464102),
        ):
            assert abs(float(value) - want) <= tol
        assert c.growth == QuadraticNumber(2, 1, 3)
        assert c.lead_coefficients[Series.A] == QuadraticNumber(Fraction(-5, 2), Fraction(5, 2), 3)
        assert c.lead_coefficients[Series.B] == QuadraticNumber(Fraction(5, 2), Fraction(-5, 6), 3)
        assert c.lead_coefficients[Series.ALL] == QuadraticNumber(0, Fraction(5, 3), 3)
        assert c.root_nonroot_limit == QuadraticNumber(0, Fraction(1, 3), 3)
        assert c.root_share == QuadraticNumber(Fraction(-1, 2), Fraction(1, 2), 3)
        assert c.step_share == QuadraticNumber(-3, 2, 3)


def test_criterion_3_ratio_convergence():
    with criterion(3, "ratio convergence: 1e-9 at level 10, 1e-113 at level 100, < 1 s"):
        t0 = time.perf_counter()
        growth = spectral_constants(S45).growth
        assert abs(growth_ratio(S45, 10, Series.A) - growth) < Fraction(1, 10**9)
        deep_err = abs(growth_ratio(S45, 100, Series.ALL) - growth)
        assert deep_err < Fraction(1, 10**113)
        # the comparison is exact; a 150-digit rendering shows the margin
        assert deep_err.decimal(150).startswith("0." + "0" * 113)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_4_probability_table_reproduction():
    with criterion(4, "limiting law tables for {4,5} at levels 7 and 10, within 1e-6"):
        c = spectral_constants(S45)
        for level, table in ((7, T_PROB_7), (10, T_PROB_10)):
            rendered = asymptotic_distribution(c, level).decimals(6)
            for j, want in table.items():
                assert abs(Fraction(rendered[j]) - Fraction(want)) <= Fraction(1, 10**6)


def test_criterion_5_exact_vs_asymptotic_gaps():
    with criterion(5, "exact vs limiting gaps: top-level 1e-10, main-root masses exact"):
        c = spectral_constants(S45)
        rows = layer_counts(S45, 10)
        assert abs(c.root_share - Fraction(rows[10].b, rows[10].total)) < Fraction(1, 10**10)
        e7 = exact_distribution(S45, 7)
        e10 = exact_distribution(S45, 10)
        assert e7.point_mass(0) == Fraction(320, 29110)
        assert e10.point_mass(0) == Fraction(2560, 1513160)
        r7 = distribution_error_report(asymptotic_distribution(c, 7), e7)
        r10 = distribution_error_report(asymptotic_distribution(c, 10), e10)
        assert r7.rows[7].difference < Fraction(1, 10**6)
        assert r7.rows[0].order == -3
        assert r10.rows[0].order == -4


def test_criterion_6_three_way_oracle_equivalence():
    with criterion(6, "three-way equivalence on 5 symbols at 6 belts, exact, < 60 s"):
        t0 = time.perf_counter()
        total_vertices = 0
        for p, q in ((4, 5), (5, 4), (4, 6), (6, 4), (5, 5)):
            symbol = SchlafliSymbol(p, q)
            rows = layer_counts(symbol, 200)
            mosaic = build(symbol, 6)
            total_vertices += mosaic.vertex_count
            forest = grow(mosaic)
            # (a) mosaic layer sizes = recursion totals
            assert mosaic.layer_sizes == [rows[i].total for i in range(7)]
            # (b) forest empirical counts = recursion
            assert all(forest.counts(i) == (rows[i].a, rows[i].b) for i in range(7))
            # (c) closed form = recursion for levels 1..200
            constants = spectral_constants(symbol)
            for i in range(1, 201):
                assert closed_form_count(constants, i, Series.A) == rows[i].a
                assert closed_form_count(constants, i, Series.B) == rows[i].b
                assert closed_form_count(constants, i, Series.ALL) == rows[i].total
            # (d) histogram / total = exact distribution, as exact rationals
            for i in range(1, 7):
                hist = forest.root_level_histogram(i)
                dist = exact_distribution(symbol, i, rows)
                for j in range(i + 1):
                    assert Fraction(hist.get(j, 0), rows[i].total) == dist.point_mass(j)
        assert total_vertices < 10**7
        assert time.perf_counter() - t0 < 60.0


def test_criterion_7_normalization():
    with criterion(7, "mass normalization: exact sums equal 1, rendered sums within 1e-12"):
        for p, q in ((4, 5), (5, 4), (4, 6), (6, 5), (7, 7), (4, 4)):
            symbol = SchlafliSymbol(p, q)
            for level in (1, 2, 5, 11, 23, 40):
                assert exact_distribution(symbol, level).cumulative_below(level) == 1
            if symbol.geometry is Geometry.HYPERBOLIC:
                c = spectral_constants(symbol)
                for level in (1, 2, 5, 11, 23, 40):
                    d = asymptotic_distribution(c, level)
                    assert d.cumulative_below(level) == 1
                    rendered = sum(Fraction(text) for text in d.decimals(14))
                    assert abs(rendered - 1) < Fraction(1, 10**12)


def test_criterion_8_euclidean_case():
    with criterion(8, "{4,4}: affine counts to level 100, cumulative law, enumeration"):
        s44 = SchlafliSymbol(4, 4)
        rows = layer_counts(s44, 100)
        for i in range(1, 101):
            assert (rows[i].a, rows[i].b) == (8 * i - 4, 4)
            assert (rows[i].a, rows[i].b) == (euclidean_counts(i).a, euclidean_counts(i).b)
        for i in (2, 7, 31, 100):
            d = exact_distribution(s44, i, rows)
            for j in range(1, i):
                assert d.cumulative_below(j) == Fraction(8 * j + 4, 8 * i)
        forest = grow(build(s44, 6))
        assert all(forest.counts(i) == (rows[i].a, rows[i].b) for i in range(7))


def _capped_levels(symbol, most=5, budget=120_000):
    rows = layer_counts(symbol, most)
    total = 1
    levels = 0
    for i in range(1, most + 1):
        total += rows[i].total
        if total > budget:
            break
        levels = i
    return max(levels, 1)


def test_criterion_9_structural_invariants():
    with criterion(9, "forest structure laws over the 4<=p,q<=8 grid, levels <= 5"):
        for p in range(4, 9):
            for q in range(4, 9):
                symbol = SchlafliSymbol(p, q)
                levels = _capped_levels(symbol)
                forest = grow(build(symbol, levels))
                mosaic = forest.mosaic
                for i in range(1, levels + 1):
                    below = mosaic.layers[i - 1]
                    for v in mosaic.layers[i]:
                        assert sum(w in below for w in mosaic.rot[v]) <= 1  # forced parenthood
                        u = forest.parent[v]
                        assert u is None or u in below  # never same-layer
                children = Counter(forest.parent)
                for i in range(levels):
                    for v in mosaic.layers[i]:
                        n_children = children[v]
                        if v == 0:  # the main root
                            assert n_children == q
                        elif forest.parent[v] is not None:
                            assert n_children == q - 3
                        else:
                            assert n_children == q - 2
                        assert n_children >= 1  # no leaves below the final layer
                for i in range(1, levels + 1):
                    assert forest.root_level_histogram(i)[0] == q * (q - 3) ** (i - 1)


def test_criterion_10_spanning_tree():
    with criterion(10, "forest plus connectors spans: connected, acyclic, |E| = |V|-1"):
        for p, q, levels in ((4, 5, 5), (5, 4, 5), (4, 6, 4), (6, 4, 4), (5, 5, 4), (4, 4, 6)):
            forest = grow(build(SchlafliSymbol(p, q), levels))
            tree, connectors = forest.spanning_tree()
            edges = [*tree, *connectors]
            n = forest.mosaic.vertex_count
            assert len(edges) == n - 1
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for u, v in edges:
                ru, rv = find(u), find(v)
                assert ru != rv  # acyclic
                parent[ru] = rv
            assert len({find(x) for x in range(n)}) == 1  # connected
