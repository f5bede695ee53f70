"""Exact level-count sequences on regular {p,q} tilings and their closed forms.

Around a seed vertex of a {p,q} tiling, level i holds two kinds of vertices:
A vertices (one neighbour on the previous level, so they extend an existing
tree) and B vertices (roots of fresh trees).  Their counts (a_i, b_i) obey a
2x2 integer linear recursion; this module computes the sequences exactly, the
eigen-decomposed closed forms over Q[sqrt(trace^2 - 4)], and the limiting
growth constants.

The recursion's matrix has determinant 1 and trace c, so by Cayley-Hamilton
each series also obeys x_{i+1} = c*x_i - x_{i-1} from level 1 on; that is the
recursion the kernel steps, and `growth_ratio` jumps along it to level i in
O(log i) multiplications.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from .errors import DegenerateForestError, RepeatedEigenvalueError
from .quadratic import QuadraticNumber, _reduced, decimal, square_free_split


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


class LayerCounts(NamedTuple):
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


def _start(symbol: SchlafliSymbol) -> tuple[tuple[int, int], tuple[int, int], int]:
    """(a_1, b_1), (a_2, b_2) and the trace c of the level-recursion matrix.

    c is read off the matrix entries, not `SchlafliSymbol.trace`, which the
    closed form is built on, so the two routes stay independent.
    """
    p, q = symbol.p, symbol.q
    a, b = q, q * (p - 3)
    m00, m01 = q - 3, q - 2
    m10, m11 = (q - 3) * (p - 3) - 1, (q - 2) * (p - 3) - 1
    return (a, b), (m00 * a + m01 * b, m10 * a + m11 * b), m00 + m11


def _pairs(symbol: SchlafliSymbol) -> Iterator[tuple[int, int]]:
    """(a_i, b_i) of `layer_counts` for i = 0, 1, 2, ... without end.

    From level 2 on each series steps by x' = c*x - x_prev.
    """
    yield 0, 1
    (a0, b0), (a, b), c = _start(symbol)
    yield a0, b0
    while True:
        yield a, b
        a0, a, b0, b = a, c * a - a0, b, c * b - b0


def layer_counts(symbol: SchlafliSymbol, levels: int) -> list[LayerCounts]:
    """Exact (a_i, b_i) for i = 0..levels.

    Level 0 is the seed vertex (a=0, b=1); level 1 holds q A vertices and
    q(p-3) roots; from level 1 on the counts follow the linear recursion
    a' = (q-3)a + (q-2)b, b' = ((q-3)(p-3)-1)a + ((q-2)(p-3)-1)b, so each
    series also obeys x_{i+1} = c*x_i - x_{i-1} with c the matrix's trace.
    """
    _require_forest_domain(symbol)
    if levels < 0:
        raise ValueError("levels must be >= 0")
    return [LayerCounts(i, a, b) for i, (a, b) in zip(range(levels + 1), _pairs(symbol))]


def first_level_reaching(symbol: SchlafliSymbol, total: int, levels: int) -> int | None:
    """The first level in 0..levels whose a_i + b_i is at least `total`, or None.

    It walks the recursion of `layer_counts` one pair at a time and keeps
    none, so it stops at that level with the memory of two counts.
    """
    _require_forest_domain(symbol)
    pairs = zip(range(levels + 1), _pairs(symbol))
    return next((i for i, (a, b) in pairs if a + b >= total), None)


def euclidean_counts(level: int) -> LayerCounts:
    """Closed form for the one Euclidean case {4,4}: a_i = 8i-4, b_i = 4."""
    if level < 1:
        raise ValueError("level must be >= 1")
    return LayerCounts(level, 8 * level - 4, 4)


def _series_value(a: int, b: int, series: Series) -> int:
    if series is Series.A:
        return a
    if series is Series.B:
        return b
    return a + b


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

    def named(self) -> dict[str, QuadraticNumber | Fraction]:
        return {
            "growth": self.growth,
            "decay": self.decay,
            **{f"lead_{series.value}": self.lead_coefficients[series] for series in Series},
            **{f"sub_{series.value}": self.sub_coefficients[series] for series in Series},
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
    # c*c - 4 = (c-2)(c+2): split each factor, then move their common
    # square-free part g into the square, so no split sees the product
    s1, f1 = square_free_split(c - 2)
    s2, f2 = square_free_split(c + 2)
    g = gcd(f1, f2)
    s, f = s1 * s2 * g, (f1 // g) * (f2 // g)
    return _reduced(c, s, 2, f), _reduced(c, -s, 2, f)


def spectral_constants(symbol: SchlafliSymbol) -> SpectralConstants:
    """Eigenvalues, closed-form coefficients and limit constants for `symbol`.

    Requires a hyperbolic symbol with p, q >= 4.  The Euclidean {4,4} has a
    repeated eigenvalue 1 and is served by `euclidean_counts` instead.
    """
    _require_forest_domain(symbol)
    growth, decay = _eigenvalues(symbol)
    gap = growth - decay

    one, two, _ = _start(symbol)
    lead = {}
    sub = {}
    for series in Series:
        r1, r2 = _series_value(*one, series), _series_value(*two, series)
        lead[series] = (r2 - decay * r1) / (growth * gap)
        sub[series] = (growth * r1 - r2) / (decay * gap)
        if sub[series] != lead[series].conjugate():
            raise ArithmeticError(f"{symbol}: sub_{series.value} is not lead's conjugate")

    q = symbol.q
    fanout = Fraction(q - 2, q - 3)
    nonroot_limit = lead[Series.B] / lead[Series.A]
    root_share = nonroot_limit / (1 + nonroot_limit)
    scaled = fanout * nonroot_limit
    step_share = scaled / (1 + scaled)
    # the dominant eigenvector gives each limit in growth alone
    excess = growth - q + 3
    forms = {
        "root_nonroot_limit": (nonroot_limit, excess / (q - 2)),
        "root_share": (root_share, excess / (growth + 1)),
        "step_share": (step_share, excess / growth),
    }
    for name, (value, form) in forms.items():
        if value != form:
            raise ArithmeticError(f"{symbol}: {name} is not its eigenvector form")

    constants = SpectralConstants(
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
    # the eigenvalues are (c +- sqrt(radicand)) / 2, so their gap squares to it
    if gap * gap != constants.radicand:
        raise ArithmeticError(f"{symbol}: radicand is not (growth - decay)**2")
    return constants


def _closed_form_integer(value: QuadraticNumber, level: int) -> int:
    """value + value.conjugate() for value = lead*growth**level: its count.

    That sum is twice the rational part of `value`, and must be an integer.
    """
    n, rem = divmod(2 * value._a, value._m)
    if rem:
        raise ArithmeticError(
            f"closed form produced non-integer {Fraction(2 * value._a, value._m)} "
            f"at level {level}"
        )
    return n


def closed_form_count(constants: SpectralConstants, level: int, series: Series) -> int:
    """Evaluate lead*growth**i + sub*decay**i exactly; the result is an integer.

    sub and decay are the conjugates of lead and growth, so the sum is twice
    the rational part of lead*growth**i.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    value = constants.lead_coefficients[series] * constants.growth**level
    return _closed_form_integer(value, level)


def _jump(symbol: SchlafliSymbol, level: int, series: Series) -> tuple[int, int]:
    """(r_level, r_level+1) of `series` for level >= 1 in O(log level) multiplications.

    From level 1 on r_{1+k} = U_k*r_2 - U_{k-1}*r_1, where U_0 = 0, U_1 = 1
    and U_{k+1} = c*U_k - U_{k-1}.  Fast doubling reads (U_{2k-1}, U_{2k})
    off (U_{k-1}, U_k) as (U_k^2 - U_{k-1}^2, U_k*(c*U_k - 2*U_{k-1})).
    """
    one, two, c = _start(symbol)
    r1, r2 = _series_value(*one, series), _series_value(*two, series)
    u0, u1 = -1, 0  # (U_{k-1}, U_k) at k = 0
    for bit in bin(level - 1)[2:]:
        u0, u1 = u1 * u1 - u0 * u0, u1 * (c * u1 - 2 * u0)
        if bit == "1":
            u0, u1 = u1, c * u1 - u0
    # now k = level - 1
    return u1 * r2 - u0 * r1, (c * u1 - u0) * r2 - u1 * r1


def growth_ratio(symbol: SchlafliSymbol, level: int, series: Series) -> Fraction:
    """Exact ratio r_{i+1}/r_i of consecutive counts.

    It jumps to the level in O(log level) multiplications.  Euclidean
    symbols are allowed; their ratios tend to 1 instead of a hyperbolic
    growth constant.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    _require_forest_domain(symbol)
    now, after = _jump(symbol, level, series)
    return Fraction(after, now)


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
