"""Closed forms over a quadratic field, checked against the recursion.

The level recursion has matrix trace c = (p-2)(q-2) - 2 and determinant 1,
so its eigenvalues are (c +- sqrt(c^2 - 4))/2.  All constants live exactly
in Q[sqrt(c^2 - 4)]: no floats, which is why the level-100 ratio can be
certified to 113 decimal places below.
"""

from fractions import Fraction

from mosaicforest import (
    SchlafliSymbol,
    Series,
    closed_form_count,
    growth_ratio,
    layer_counts,
    spectral_constants,
)

for p, q in ((4, 5), (4, 6), (5, 5), (6, 7)):
    symbol = SchlafliSymbol(p, q)
    c = spectral_constants(symbol)
    print(f"== {symbol} (trace {c.trace}) ==")
    for name, value in c.named().items():
        if isinstance(value, Fraction):
            print(f"  {name:>20}: {value}")
        else:
            print(f"  {name:>20}: {str(value):>24} = {value.decimal(10)}")
    print(f"  eigenvalue identities: product = {c.growth * c.decay}, "
          f"sum = {c.growth + c.decay}")
    rows = layer_counts(symbol, 30)
    agree = all(
        [closed_form_count(c, r.level, s) for s in (Series.A, Series.B, Series.ALL)]
        == [r.a, r.b, r.total]
        for r in rows[1:]
    )
    print(f"  closed form == recursion for levels 1..30: {agree}\n")

print("== deep convergence on {4,5} ==")
s45 = SchlafliSymbol(4, 5)
growth = spectral_constants(s45).growth
err = abs(growth_ratio(s45, 100, Series.ALL) - growth)
print("|ratio(100) - growth| rendered to 120 places:")
print(" ", err.decimal(120))
