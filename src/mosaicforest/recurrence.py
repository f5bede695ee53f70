"""Exact level-count sequences on regular {p,q} tilings and their closed forms.

Around a seed vertex of a {p,q} tiling, level i holds two kinds of vertices:
A vertices (one neighbour on the previous level, so they extend an existing
tree) and B vertices (roots of fresh trees).  Their counts (a_i, b_i) obey a
2x2 integer linear recursion; this module computes the sequences exactly, the
eigen-decomposed closed forms over Q[sqrt(trace^2 - 4)], and the limiting
growth constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import count, islice
from types import MappingProxyType
from typing import Iterator, Mapping

from .errors import DegenerateForestError, RepeatedEigenvalueError
from .quadratic import QuadraticNumber, decimal


class Geometry(Enum):
    SPHERICAL = "spherical"
    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True, order=True)
class SchlafliSymbol:
    """A {p,q} tiling: p-gons, q around every vertex."""

    p: int
    q: int

    def __post_init__(self):
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise TypeError("p and q must be integers")
        if self.p < 3 or self.q < 3:
            raise ValueError(f"p and q must be >= 3, got {{{self.p},{self.q}}}")

    @property
    def geometry(self) -> Geometry:
        t = (self.p - 2) * (self.q - 2)
        if t == 4:
            return Geometry.EUCLIDEAN
        return Geometry.HYPERBOLIC if t > 4 else Geometry.SPHERICAL

    @property
    def trace(self) -> int:
        """Trace of the level-recursion matrix: (p-2)(q-2) - 2."""
        return (self.p - 2) * (self.q - 2) - 2

    def __str__(self) -> str:
        return f"{{{self.p},{self.q}}}"


def forest_domain_reason(symbol: SchlafliSymbol) -> str | None:
    """Why the level-count recursion does not apply to `symbol`, or None.

    Every spherical symbol has p = 3 or q = 3, so it gets a reason too.
    """
    if symbol.q == 3:
        return (
            "with q = 3 a level vertex keeps only one free edge toward "
            "the next level, so no trees exist and the count recursion is undefined"
        )
    if symbol.p == 3:
        return (
            "with p = 3 no level produces roots besides the main one; "
            "the two-sequence recursion does not apply"
        )
    return None


def _require_forest_domain(symbol: SchlafliSymbol) -> None:
    reason = forest_domain_reason(symbol)
    if reason is not None:
        raise DegenerateForestError(f"{symbol}: {reason}")


@dataclass(frozen=True)
class LayerCounts:
    """Exact counts on one level: `a` tree-extending vertices, `b` roots."""

    level: int
    a: int
    b: int

    @property
    def total(self) -> int:
        return self.a + self.b


class Series(Enum):
    """Which count sequence an operation refers to."""

    A = "a"
    B = "b"
    ALL = "ab"


def _rows(symbol: SchlafliSymbol) -> Iterator[LayerCounts]:
    """The rows of `layer_counts` for i = 0, 1, 2, ... without end."""
    yield LayerCounts(0, 0, 1)
    p, q = symbol.p, symbol.q
    a, b = q, q * (p - 3)
    m00, m01 = q - 3, q - 2
    m10, m11 = (q - 3) * (p - 3) - 1, (q - 2) * (p - 3) - 1
    for i in count(1):
        yield LayerCounts(i, a, b)
        a, b = m00 * a + m01 * b, m10 * a + m11 * b


def layer_counts(symbol: SchlafliSymbol, levels: int) -> list[LayerCounts]:
    """Exact (a_i, b_i) for i = 0..levels.

    Level 0 is the seed vertex (a=0, b=1); level 1 holds q A vertices and
    q(p-3) roots; from level 1 on the counts follow the linear recursion
    a' = (q-3)a + (q-2)b, b' = ((q-3)(p-3)-1)a + ((q-2)(p-3)-1)b.
    """
    _require_forest_domain(symbol)
    if levels < 0:
        raise ValueError("levels must be >= 0")
    return list(islice(_rows(symbol), levels + 1))


def first_level_reaching(symbol: SchlafliSymbol, total: int, levels: int) -> int | None:
    """The first level in 0..levels whose a_i + b_i is at least `total`, or None.

    It walks the recursion of `layer_counts` one row at a time and keeps
    none, so it stops at that level with the memory of two counts.
    """
    _require_forest_domain(symbol)
    return next((r.level for r in islice(_rows(symbol), levels + 1) if r.total >= total), None)


def euclidean_counts(level: int) -> LayerCounts:
    """Closed form for the one Euclidean case {4,4}: a_i = 8i-4, b_i = 4."""
    if level < 1:
        raise ValueError("level must be >= 1")
    return LayerCounts(level, 8 * level - 4, 4)


def _series_value(row: LayerCounts, series: Series) -> int:
    if series is Series.A:
        return row.a
    if series is Series.B:
        return row.b
    return row.total


@dataclass(frozen=True)
class SpectralConstants:
    """Eigen data of the level recursion plus the derived limit constants.

    Everything lives exactly in Q[sqrt(radicand)]; `decimals` renders views
    to any number of digits on demand.
    """

    symbol: SchlafliSymbol
    trace: int
    radicand: int  # trace**2 - 4; growth.d is its square-free part
    growth: QuadraticNumber  # dominant eigenvalue; the crystal-growing ratio
    decay: QuadraticNumber  # second eigenvalue; growth * decay == 1
    lead_coefficients: Mapping[Series, QuadraticNumber]
    sub_coefficients: Mapping[Series, QuadraticNumber]
    fanout_ratio: Fraction  # (q-2)/(q-3): root fan-out over A fan-out
    root_nonroot_limit: QuadraticNumber  # lim b_i / a_i
    root_share: QuadraticNumber  # lim b_i / (a_i + b_i)
    step_share: QuadraticNumber  # per-level share in the root-level law

    def lead(self, series: Series) -> QuadraticNumber:
        return self.lead_coefficients[series]

    def sub(self, series: Series) -> QuadraticNumber:
        return self.sub_coefficients[series]

    def named(self) -> dict[str, QuadraticNumber | Fraction]:
        return {
            "growth": self.growth,
            "decay": self.decay,
            "lead_a": self.lead(Series.A),
            "lead_b": self.lead(Series.B),
            "lead_ab": self.lead(Series.ALL),
            "sub_a": self.sub(Series.A),
            "sub_b": self.sub(Series.B),
            "sub_ab": self.sub(Series.ALL),
            "fanout_ratio": self.fanout_ratio,
            "root_nonroot_limit": self.root_nonroot_limit,
            "root_share": self.root_share,
            "step_share": self.step_share,
        }

    def decimals(self, digits: int) -> dict[str, str]:
        return {name: decimal(value, digits) for name, value in self.named().items()}


def _eigenvalues(symbol: SchlafliSymbol) -> tuple[QuadraticNumber, QuadraticNumber]:
    """(growth, decay) = (c +- sqrt(c*c - 4)) / 2 for the trace c of `symbol`."""
    c = symbol.trace
    if c == 2:
        raise RepeatedEigenvalueError(
            f"{symbol} is Euclidean: both eigenvalues equal 1, the closed form "
            "degenerates; use euclidean_counts for the affine formulas"
        )
    half = Fraction(1, 2)
    d = c * c - 4
    return QuadraticNumber(Fraction(c, 2), half, d), QuadraticNumber(Fraction(c, 2), -half, d)


def spectral_constants(symbol: SchlafliSymbol) -> SpectralConstants:
    """Eigenvalues, closed-form coefficients and limit constants for `symbol`.

    Requires a hyperbolic symbol with p, q >= 4.  The Euclidean {4,4} has a
    repeated eigenvalue 1 and is served by `euclidean_counts` instead.
    """
    _require_forest_domain(symbol)
    growth, decay = _eigenvalues(symbol)
    gap = growth - decay

    rows = layer_counts(symbol, 2)
    firsts = {
        Series.A: (rows[1].a, rows[2].a),
        Series.B: (rows[1].b, rows[2].b),
        Series.ALL: (rows[1].total, rows[2].total),
    }
    lead = {}
    sub = {}
    for series, (r1, r2) in firsts.items():
        lead[series] = (r2 - decay * r1) / (growth * gap)
        sub[series] = (growth * r1 - r2) / (decay * gap)

    q = symbol.q
    fanout = Fraction(q - 2, q - 3)
    nonroot_limit = lead[Series.B] / lead[Series.A]
    root_share = nonroot_limit / (1 + nonroot_limit)
    scaled = fanout * nonroot_limit
    step_share = scaled / (1 + scaled)

    return SpectralConstants(
        symbol=symbol,
        trace=symbol.trace,
        radicand=symbol.trace**2 - 4,
        growth=growth,
        decay=decay,
        lead_coefficients=MappingProxyType(lead),
        sub_coefficients=MappingProxyType(sub),
        fanout_ratio=fanout,
        root_nonroot_limit=nonroot_limit,
        root_share=root_share,
        step_share=step_share,
    )


def closed_form_count(constants: SpectralConstants, level: int, series: Series) -> int:
    """Evaluate lead*growth**i + sub*decay**i exactly; the result is an integer.

    decay is growth's conjugate, so decay**i is the conjugate of growth**i.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    power = constants.growth**level
    value = constants.lead(series) * power + constants.sub(series) * power.conjugate()
    fr = value.as_fraction()  # irrational parts cancel by construction
    if fr.denominator != 1:
        raise ArithmeticError(f"closed form produced non-integer {fr} at level {level}")
    return fr.numerator


def growth_ratio(symbol: SchlafliSymbol, level: int, series: Series) -> Fraction:
    """Exact ratio r_{i+1}/r_i of consecutive counts.

    Euclidean symbols are allowed; their ratios tend to 1 instead of a
    hyperbolic growth constant.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    rows = layer_counts(symbol, level + 1)
    return Fraction(_series_value(rows[level + 1], series), _series_value(rows[level], series))


def growth_ratio_error(symbol: SchlafliSymbol, level: int, series: Series) -> QuadraticNumber:
    """|r_{i+1}/r_i - growth|, exactly; strictly decreasing in the level."""
    _require_forest_domain(symbol)
    growth, _ = _eigenvalues(symbol)
    return abs(growth_ratio(symbol, level, series) - growth)


def cumulative_root_ratio(symbol: SchlafliSymbol, level: int) -> Fraction:
    """Exact b_i / sum(b_0..b_i); tends to (growth-1)/growth for hyperbolic symbols."""
    if level < 1:
        raise ValueError("level must be >= 1")
    if symbol.geometry is not Geometry.HYPERBOLIC:
        raise RepeatedEigenvalueError(
            f"{symbol}: the cumulative-root limit requires hyperbolic growth"
        )
    rows = layer_counts(symbol, level)
    return Fraction(rows[level].b, sum(r.b for r in rows))


def cumulative_root_limit(symbol: SchlafliSymbol) -> QuadraticNumber:
    """(growth - 1)/growth, the limit of cumulative_root_ratio."""
    constants = spectral_constants(symbol)
    return (constants.growth - 1) / constants.growth
