"""Root-level probability distributions for a vertex picked on level i.

Pick a vertex uniformly among the a_i + b_i vertices of level i and ask on
which level the root of its tree sits.  Both laws are one cascade: a head
on level i, a tail on each level below it that shrinks by a fixed ratio,
and a base on level 0.

* The exact law counts the level's vertices per root level from the forced
  tree fan-outs (the main root has q children, other roots q-2, A vertices
  q-3): head b_i, tails b_j*(q-2), ratio q-3 and base q.
* The limiting law, for K = root_share and M = step_share, has head K,
  tails (1-K)*M, ratio 1-M and base 1-K; its masses sum to 1 identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from operator import mul
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


def _cascade(head, tails: Sequence, base, ratio) -> tuple:
    """Weights of root levels 0..i, for i = len(tails) + 1: `head` on level i,
    tails[j-1] * ratio**(i-1-j) on each level 0 < j < i and base * ratio**(i-1) on 0.
    """
    powers = accumulate(repeat(ratio, len(tails)), mul, initial=1)
    # levels i-1 .. 1 take ratio**0 .. ratio**(i-2); zip stops at the last
    # tail, so the next power, ratio**(i-1), is the base's
    down = [t * r for t, r in zip(reversed(tails), powers)]
    return (base * next(powers), *reversed(down), head)


def asymptotic_distribution(constants: SpectralConstants, level: int) -> RootDistribution:
    """Limiting root-level law: the exact cascade with b_j/(a_i+b_i) -> K*g**(j-i)."""
    if level < 1:
        raise ValueError("level must be >= 1")
    share, step = constants.root_share, constants.step_share
    return RootDistribution(
        symbol=constants.symbol,
        level=level,
        kind=DistributionKind.ASYMPTOTIC,
        weights=_cascade(share, [(1 - share) * step] * (level - 1), 1 - share, 1 - step),
    )


def exact_distribution(
    symbol: SchlafliSymbol,
    level: int,
    counts: Sequence[LayerCounts] | None = None,
) -> RootDistribution:
    """Exact root-level law: the level-i vertices per root level, over a_i + b_i."""
    if level < 1:
        raise ValueError("level must be >= 1")
    _require_forest_domain(symbol)
    if counts is None:
        counts = layer_counts(symbol, level)
    if len(counts) <= level:
        raise ValueError(f"counts must cover levels 0..{level}")
    q, denom = symbol.q, counts[level].total
    weights = _cascade(counts[level].b, [counts[j].b * (q - 2) for j in range(1, level)], q, q - 3)
    total = sum(weights)
    if total != denom:
        raise ArithmeticError(f"exact masses summed to {Fraction(total, denom)}, not 1")
    return RootDistribution(
        symbol=symbol,
        level=level,
        kind=DistributionKind.EXACT,
        weights=weights,
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
