"""Root-level probability distributions for a vertex picked on level i.

Pick a vertex uniformly among the a_i + b_i vertices of level i and ask on
which level the root of its tree sits.  Two models are provided:

* the exact finite-i distribution, whose weights are the level's vertex
  counts per root level, derived from the forced tree fan-outs (the main
  root has q children, other roots q-2, A vertices q-3), and
* the limiting model driven by the constants K = root_share and
  M = step_share, whose masses telescope to 1 identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence, Union

from .quadratic import QuadraticNumber, decimal, order_of_magnitude
from .recurrence import (
    LayerCounts,
    SchlafliSymbol,
    SpectralConstants,
    _require_forest_domain,
    layer_counts,
)

Mass = Union[Fraction, QuadraticNumber]


class DistributionKind(Enum):
    ASYMPTOTIC = "asymptotic"
    EXACT = "exact"


@dataclass(frozen=True)
class RootDistribution:
    """Point masses over root levels j = 0..level for one (symbol, level).

    Mass j is weights[j] / total: for the exact law, integer vertex counts
    over a_i + b_i; for the limiting law, masses in Q[sqrt d] over 1.
    """

    symbol: SchlafliSymbol
    level: int
    kind: DistributionKind
    weights: tuple[Union[int, QuadraticNumber], ...]
    total: int = 1

    # cached_property writes to the instance __dict__, left writable when frozen
    @cached_property
    def masses(self) -> tuple[Mass, ...]:
        return self._over_total(self.weights)

    def point_mass(self, j: int) -> Mass:
        if not 0 <= j <= self.level:
            raise ValueError(f"root level {j} outside 0..{self.level}")
        return self.masses[j]

    def cumulative_below(self, j: int) -> Mass:
        """Probability that the root sits on level j or any level below."""
        if not 0 <= j <= self.level:
            raise ValueError(f"root level {j} outside 0..{self.level}")
        return self._cumulative[j]

    @cached_property
    def _cumulative(self) -> tuple[Mass, ...]:
        # prefix sums of the weights, so the exact law adds integers
        return self._over_total(accumulate(self.weights))

    def _over_total(self, weights: Iterable) -> tuple[Mass, ...]:
        if self.kind is DistributionKind.ASYMPTOTIC:
            return tuple(weights)
        return tuple(Fraction(w, self.total) for w in weights)

    def decimals(self, digits: int = 6) -> list[str]:
        return [decimal(m, digits) for m in self.masses]


def asymptotic_distribution(constants: SpectralConstants, level: int) -> RootDistribution:
    """Limiting root-level law: mass K at level i, then a geometric cascade.

    mass(i) = K, mass(j) = (1-K)*M*(1-M)**(i-j-1) for 0 < j < i, and
    mass(0) = (1-K)*(1-M)**(i-1).  The masses sum to 1 identically.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    share = constants.root_share
    step = constants.step_share
    rest = 1 - share
    keep = 1 - step
    masses: list[Mass] = [None] * (level + 1)  # type: ignore[list-item]
    masses[level] = share
    running = rest * step
    for j in range(level - 1, 0, -1):
        masses[j] = running
        running = running * keep
    masses[0] = rest * keep ** (level - 1)
    return RootDistribution(
        symbol=constants.symbol,
        level=level,
        kind=DistributionKind.ASYMPTOTIC,
        weights=tuple(masses),
    )


def exact_distribution(
    symbol: SchlafliSymbol,
    level: int,
    counts: Sequence[LayerCounts] | None = None,
) -> RootDistribution:
    """Exact root-level law for a uniformly chosen level-`level` vertex.

    The main root keeps q(q-3)**(i-1) descendants on level i; a root born on
    level j keeps b_j*(q-2)*(q-3)**(i-j-1); the level's own roots are their
    own roots.  These counts are the weights, and they sum to a_i + b_i.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    _require_forest_domain(symbol)
    if counts is None:
        counts = layer_counts(symbol, level)
    if len(counts) <= level:
        raise ValueError(f"counts must cover levels 0..{level}")
    q = symbol.q
    denom = counts[level].total
    # from j = level - 1 down, each weight carries one more factor q - 3
    numerators = [counts[level].b]
    power = 1  # (q - 3) ** (level - j - 1)
    for j in range(level - 1, 0, -1):
        numerators.append(counts[j].b * (q - 2) * power)
        power *= q - 3
    numerators.append(q * power)
    numerators.reverse()
    total = sum(numerators)
    if total != denom:
        raise ArithmeticError(f"exact masses summed to {Fraction(total, denom)}, not 1")
    return RootDistribution(
        symbol=symbol,
        level=level,
        kind=DistributionKind.EXACT,
        weights=tuple(numerators),
        total=denom,
    )


@dataclass(frozen=True)
class ErrorRow:
    root_level: int
    difference: QuadraticNumber
    order: int | None  # floor(log10 |difference|), None for a zero difference


@dataclass(frozen=True)
class DistributionErrorReport:
    """Per-level absolute gaps between the limiting and the exact law."""

    level: int
    rows: tuple[ErrorRow, ...]


def distribution_error_report(
    asym: RootDistribution, exact: RootDistribution
) -> DistributionErrorReport:
    if asym.kind is not DistributionKind.ASYMPTOTIC or exact.kind is not DistributionKind.EXACT:
        raise ValueError("expected one asymptotic and one exact distribution, in that order")
    if asym.symbol != exact.symbol or asym.level != exact.level:
        raise ValueError(
            f"mismatched distributions: {asym.symbol}@{asym.level} vs "
            f"{exact.symbol}@{exact.level}"
        )
    rows = []
    for j in range(asym.level + 1):
        diff = abs(asym.point_mass(j) - exact.point_mass(j))
        rows.append(
            ErrorRow(
                root_level=j,
                difference=diff,
                order=order_of_magnitude(diff) if diff else None,
            )
        )
    return DistributionErrorReport(level=asym.level, rows=tuple(rows))
