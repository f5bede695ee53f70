"""Where does the tree under a random vertex start?

Pick a vertex uniformly on level i and follow its tree down to the root.
The exact law has rational masses built from the forced fan-outs; the
limiting law needs only two constants (the root share K and the per-level
step share M) and telescopes to 1.  We print both for {4,5} and show how
the gap shrinks as j approaches i.
"""

from mosaicforest import (
    SchlafliSymbol,
    asymptotic_distribution,
    distribution_error_report,
    exact_distribution,
    spectral_constants,
)

s45 = SchlafliSymbol(4, 5)
constants = spectral_constants(s45)

for level in (7, 10):
    asym = asymptotic_distribution(constants, level)
    exact = exact_distribution(s45, level)
    report = distribution_error_report(asym, exact)
    print(f"== {s45}, level {level} ==")
    print(f"{'j':>3} {'limiting':>10} {'exact':>10} {'|gap|':>14} {'order':>6}")
    a6, e6 = asym.decimals(6), exact.decimals(6)
    for j in range(level, -1, -1):
        row = report.rows[j]
        order = f"1e{row.order}" if row.order is not None else "0"
        print(f"{j:>3} {a6[j]:>10} {e6[j]:>10} {row.difference.decimal(12):>14} {order:>6}")
    print(f"  exact masses sum to {exact.cumulative_below(level)}, "
          f"limiting masses sum to {asym.cumulative_below(level)}\n")

print("main-root mass p_{i,0} = q(q-3)^(i-1) / (a_i+b_i):")
for level in (7, 10, 100):
    m = exact_distribution(s45, level).point_mass(0)
    print(f"  i={level:>3}: {m.numerator}/{m.denominator} "
          f"~ {float(m):.3e}")

print("\nthe {4,4} grid keeps an exact closed cumulative law (8j+4)/(8i):")
d = exact_distribution(SchlafliSymbol(4, 4), 10)
for j in (1, 4, 9):
    print(f"  P(root <= {j} | i=10) = {d.cumulative_below(j)}")
