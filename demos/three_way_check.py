"""The three-way cross-validation, end to end.

Three independent routes produce the same numbers: (1) brute enumeration
on the built mosaic, (2) the exact integer recursion, (3) the eigenvalue
closed form.  On top of that, the forest's root-level histogram must equal
the exact probability law as rationals.  Any mismatch anywhere is a bug in
one of the routes; agreement is strong evidence for all three.
"""

import time

from mosaicforest import SchlafliSymbol, build, cross_check, grow

SYMBOLS = ((4, 5), (5, 4), (4, 6), (6, 4), (5, 5), (4, 4))
LEVELS = 5

t0 = time.perf_counter()
for p, q in SYMBOLS:
    symbol = SchlafliSymbol(p, q)
    mosaic = build(symbol, LEVELS)
    report = cross_check(grow(mosaic, LEVELS))
    checks = " ".join(f"{c.name}={c.passed}" for c in report.checks)
    print(f"{symbol}: {checks} ({mosaic.vertex_count} vertices)")

print(f"\ntotal time: {time.perf_counter() - t0:.2f}s")
print("`mosaicforest verify` prints the same cross_check per symbol; "
      "tests/test_acceptance.py checks criterion 6 independently")
