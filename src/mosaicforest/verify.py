"""The three-way cross-check of a grown forest.

Enumeration on the mosaic, the exact integer recursion and the closed form
must give the same layer counts, and the forest's root-level histogram must
equal the exact root-level law as rationals.  Any mismatch is a bug in one
of the routes; agreement is strong evidence for all of them.
"""

from __future__ import annotations

from fractions import Fraction

from .forest import Forest
from .mosaic import CheckResult, ValidationReport
from .probability import exact_distribution
from .recurrence import (
    Geometry,
    Series,
    closed_form_count,
    euclidean_counts,
    layer_counts,
    spectral_constants,
)

CLOSED_FORM_LEVELS = 200


def cross_check(forest: Forest) -> ValidationReport:
    """Check a grown forest and its mosaic against the exact routes.

    Checks, by name: `layer-sizes` (mosaic layer sizes vs the recursion),
    `forest-counts` (empirical a_i, b_i vs the recursion), `closed-form`
    (the affine form for Euclidean symbols over the grown levels, the eigen
    closed form for hyperbolic ones over levels 1..200) and `histogram`
    (the root-level histogram of every grown level vs the exact law).
    """
    mosaic, levels = forest.mosaic, forest.levels
    symbol = mosaic.symbol
    euclidean = symbol.geometry is Geometry.EUCLIDEAN
    rows = layer_counts(symbol, levels if euclidean else max(levels, CLOSED_FORM_LEVELS))
    grown = range(levels + 1)
    checks = [
        CheckResult(
            "layer-sizes",
            all(len(mosaic.layers[i]) == rows[i].total for i in grown),
            "mosaic layer sizes vs recursion",
        ),
        CheckResult(
            "forest-counts",
            all(forest.counts(i) == (rows[i].a, rows[i].b) for i in grown),
            "empirical counts vs recursion",
        ),
    ]

    if euclidean:
        ok = all(rows[i] == euclidean_counts(i) for i in range(1, levels + 1))
        checks.append(CheckResult("closed-form", ok, "affine closed form vs recursion"))
    else:
        constants = spectral_constants(symbol)
        ok = all(
            [closed_form_count(constants, i, s) for s in (Series.A, Series.B, Series.ALL)]
            == [rows[i].a, rows[i].b, rows[i].total]
            for i in range(1, CLOSED_FORM_LEVELS + 1)
        )
        checks.append(
            CheckResult(
                "closed-form", ok, f"eigen closed form vs recursion, levels 1..{CLOSED_FORM_LEVELS}"
            )
        )

    def law_holds(i: int) -> bool:
        hist = forest.root_level_histogram(i)
        law = exact_distribution(symbol, i, rows)
        return all(
            Fraction(hist.get(j, 0), rows[i].total) == law.point_mass(j) for j in range(i + 1)
        )

    ok = all(law_holds(i) for i in range(1, levels + 1))
    checks.append(CheckResult("histogram", ok, "root-level histogram vs exact distribution"))
    return ValidationReport(tuple(checks))
