"""Exact arithmetic in a real quadratic field Q[sqrt(d)].

A value is one integer triple (a, b, m) meaning (a + b*sqrt(d)) / m, with d
a fixed square-free integer >= 2 (1 for a rational value), m > 0 and
gcd(m, a, b) == 1, so equal values have equal parts.  Every operation reads
and writes the integers and reduces its result once.  Every quotient (`/`
and negative powers) is the conjugate over the norm in `_over`, and `<=`,
`>` and `>=` derive from `__lt__`.  Comparisons, floors and decimal
renderings are all exact integer arithmetic.  Operands of the operators,
`decimal` and `order_of_magnitude` pass through `_coerce` and constructor
parts must be rational, so anything but an int, a Fraction or a
QuadraticNumber raises TypeError: no floating point enters anywhere, which
is what makes assertions at the 1e-113 scale possible.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, total_ordering
from math import gcd, isqrt

Rational = int | Fraction


@lru_cache(maxsize=None)
def square_free_split(n: int) -> tuple[int, int]:
    """Write n = s*s*f with f square-free; return (s, f)."""
    if n <= 0:
        raise ValueError(f"positive integer required, got {n}")
    s, f, m, k = 1, 1, n, 2
    while k * k * k <= m:
        e = 0
        while m % k == 0:
            m //= k
            e += 1
        s *= k ** (e // 2)
        if e % 2:
            f *= k
        k += 1
    # every prime factor of m exceeds its cube root, so m is 1, a prime, a
    # product of two distinct primes or the square of a prime
    r = isqrt(m)
    return (s * r, f) if r * r == m else (s, f * m)


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


def _operator(method):
    """`method` with its operand taken through `_coerce`, or NotImplemented for another type."""

    def operator(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return method(self, other)

    return operator


@total_ordering
class QuadraticNumber:
    """Immutable exact number (a + b*sqrt(d)) / m on integers in lowest terms.

    m > 0, gcd(m, a, b) == 1 and d is square-free, with d == 1 exactly when
    b == 0; so equal values have equal parts.  `x` and `y` read the value as
    x + y*sqrt(d) with rational x = a/m and y = b/m.
    """

    __slots__ = ("_a", "_b", "_m", "_d")

    def __init__(self, x: Rational, y: Rational = 0, d: int = 1):
        if not (isinstance(x, Rational) and isinstance(y, Rational)):
            raise TypeError(f"parts must be int or Fraction, got {x!r} and {y!r}")
        x = Fraction(x)
        y = Fraction(y)
        if y:
            s, f = square_free_split(d) if d >= 2 else (1, 1)
            if f == 1:
                raise ValueError(f"radicand must be a non-square integer >= 2, got {d}")
            if s > 1:  # sqrt(s*s*f) = s*sqrt(f)
                y *= s
            d = f
        else:
            d = 1
        # over m = lcm of the two denominators, gcd(m, a, b) is already 1
        xm, ym = x.denominator, y.denominator
        m = xm // gcd(xm, ym) * ym
        self._a = x.numerator * (m // xm)
        self._b = y.numerator * (m // ym)
        self._m = m
        self._d = d

    @property
    def x(self) -> Fraction:
        return Fraction(self._a, self._m)

    @property
    def y(self) -> Fraction:
        return Fraction(self._b, self._m)

    @property
    def d(self) -> int:
        return self._d

    # -- structure ---------------------------------------------------------

    def conjugate(self) -> "QuadraticNumber":
        return _canonical(self._a, -self._b, self._m, self._d)

    def _join_d(self, other: "QuadraticNumber") -> int:
        if self._b and other._b and self._d != other._d:
            raise ValueError(f"mixed radicands {self._d} and {other._d}")
        return self._d if self._b else other._d

    # -- arithmetic ----------------------------------------------------------

    @_operator
    def __add__(self, o):
        return self._plus(o._a, o._b, o._m, self._join_d(o))

    __radd__ = __add__

    def __neg__(self):
        return _canonical(-self._a, -self._b, self._m, self._d)

    def _minus(self, o: "QuadraticNumber") -> "QuadraticNumber":
        return self._plus(-o._a, -o._b, o._m, self._join_d(o))

    __sub__ = _operator(_minus)

    @_operator
    def __rsub__(self, o):
        return o._minus(self)

    def _plus(self, c: int, e: int, n: int, d: int) -> "QuadraticNumber":
        """self + (c + e*sqrt(d)) / n, where c, e and n are canonical parts.

        Over lcm(m, n) = s*t*g with g = gcd(m, n), the sum's parts are
        A = a*t + c*s and B = b*t + e*s.  A prime that divides m to a higher
        power than n divides s but not t, so it divides A and B only if it
        divides a and b, which gcd(m, a, b) == 1 rules out; the same holds
        the other way round.  So the sum reduces by gcd(g, A, B) alone, as
        Fraction adds (Knuth, TAOCP vol. 2, 4.5.1).
        """
        g = gcd(self._m, n)
        s, t = self._m // g, n // g
        a, b = self._a * t + c * s, self._b * t + e * s
        h = gcd(g, a, b)
        if h != 1:
            a, b, g = a // h, b // h, g // h
        return _canonical(a, b, s * t * g, d if b else 1)

    @_operator
    def __mul__(self, o):
        d = self._join_d(o)
        a, b, c, e = self._a, self._b, o._a, o._b
        return _reduced(a * c + b * e * d, a * e + b * c, self._m * o._m, d)

    __rmul__ = __mul__

    def _over(self, o: "QuadraticNumber") -> "QuadraticNumber":
        """self / o: multiply by o's conjugate over o's norm."""
        d = self._join_d(o)
        a, b, c, e, n = self._a, self._b, o._a, o._b, o._m
        # c*c - e*e*d: n*n times the product of o and its conjugate
        norm = c * c - e * e * d
        if not norm:
            raise ZeroDivisionError("division by zero element")
        return _reduced(n * (a * c - b * e * d), n * (b * c - a * e), self._m * norm, d)

    __truediv__ = _operator(_over)

    @_operator
    def __rtruediv__(self, o):
        return o._over(self)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (1 / self) ** -n
        # square and multiply (a + b*sqrt(d)) on integers; divide by m**n once
        a, b, d = self._a, self._b, self._d
        ra, rb = 1, 0
        scale = self._m**n
        while n:
            if n & 1:
                ra, rb = ra * a + rb * b * d, ra * b + rb * a
            n >>= 1
            if n:
                a, b = a * a + b * b * d, 2 * a * b
        return _reduced(ra, rb, scale, d)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __bool__(self):
        return bool(self._a or self._b)

    # -- exact ordering ------------------------------------------------------

    def sign(self) -> int:
        a, b = self._a, self._b
        sa, sb = _sgn(a), _sgn(b)
        if sa * sb >= 0:
            return sa or sb
        # opposite signs: the larger of |a| and |b|*sqrt(d) wins, and the two
        # are never equal, since d is not a square
        return sa if a * a > b * b * self._d else sb

    def _cmp(self, other) -> int:
        return self._minus(_coerce(other)).sign()

    @_operator
    def __eq__(self, o):
        return (
            self._a == o._a and self._b == o._b and self._m == o._m and self._d == o._d
        )

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __hash__(self):
        if not self._b:
            return hash(self.x)
        return hash((self.x, self.y, self._d))

    # -- rendering -----------------------------------------------------------

    def _floor_scaled(self, num: int, den: int) -> int:
        """floor(self * num / den) for integers num and den > 0, exactly.

        With self * num / den = (A + B*sqrt(d)) / M and M > 0, B*sqrt(d) is
        irrational unless B = 0, so its floor is isqrt(B*B*d) for B >= 0 and
        -isqrt(B*B*d) - 1 for B < 0; and floor(z / M) = floor(floor(z) / M)
        for an integer M > 0 (Concrete Mathematics, section 3.2).
        """
        a, b, m = self._a * num, self._b * num, self._m * den
        root = isqrt(b * b * self._d)
        return (a + root) // m if b >= 0 else (a - root - 1) // m

    def __floor__(self) -> int:
        return self._floor_scaled(1, 1)

    def decimal(self, digits: int) -> str:
        """Fixed-point decimal string, round-half-even at `digits` places."""
        if digits < 0:
            raise ValueError("digits must be >= 0")
        scale = 10**digits
        if self._b:
            # an irrational value is never halfway, so floor(v + 1/2) is nearest
            n = (self._floor_scaled(2 * scale, 1) + 1) // 2
        else:
            # a rational value rounds half to even: up past the half, or at
            # the half from an odd n
            n, r = divmod(self._a * scale, self._m)
            if 2 * r + (n & 1) > self._m:
                n += 1
        whole, frac = divmod(abs(n), scale)
        body = f"{whole}.{frac:0{digits}d}" if digits else str(whole)
        return "-" + body if n < 0 else body

    def __float__(self) -> float:
        return float(self.x) + float(self.y) * (self._d**0.5)

    def __repr__(self) -> str:
        if not self._b:
            return f"QuadraticNumber({self.x})"
        return f"QuadraticNumber({self.x}, {self.y}, {self._d})"

    def __str__(self) -> str:
        x, y = self.x, self.y
        if not y:
            return str(x)
        root = f"sqrt({self._d})" if abs(y) == 1 else f"{abs(y)}*sqrt({self._d})"
        if not x:
            return root if y > 0 else f"-{root}"
        op = "+" if y > 0 else "-"
        return f"{x} {op} {root}"


_new = object.__new__


def _canonical(a: int, b: int, m: int, d: int) -> QuadraticNumber:
    """(a + b*sqrt(d)) / m from parts already in lowest terms, with m > 0."""
    v = _new(QuadraticNumber)
    v._a = a
    v._b = b
    v._m = m
    v._d = d
    return v


def _reduced(a: int, b: int, m: int, d: int) -> QuadraticNumber:
    """(a + b*sqrt(d)) / m in lowest terms, for integers and m != 0.

    d must be square-free, as the callers' radicands are.  gcd takes m
    first: it stops at 1, so a small m costs one remainder per wide part.
    """
    g = gcd(m, a, b)
    if m < 0:
        g = -g
    if g != 1:
        a //= g
        b //= g
        m //= g
    return _canonical(a, b, m, d if b else 1)


def _coerce(value) -> QuadraticNumber:
    """`value` as a QuadraticNumber: the one way an int or a Fraction operand gets in."""
    if isinstance(value, QuadraticNumber):
        return value
    if isinstance(value, int):
        return _canonical(value, 0, 1, 1)
    if isinstance(value, Fraction):
        return _canonical(value.numerator, 0, value.denominator, 1)
    raise TypeError(f"expected int, Fraction or QuadraticNumber, got {type(value).__name__}")


def decimal(value: Rational | QuadraticNumber, digits: int) -> str:
    """`value` as a fixed-point decimal string, round-half-even at `digits` places."""
    return _coerce(value).decimal(digits)


# floor(log10(2) * 2**32): bits times this, shifted right by 32, estimate
# decimal digits to well within one for any bit length below about 10**9
_LOG10_2_Q32 = 1292913986


def order_of_magnitude(value) -> int:
    """Exponent e with 10**e <= |value| < 10**(e+1), computed exactly.

    Bit lengths of an integer quotient near |value| estimate e to within
    one; one exact floor of |value| / 10**e then settles it, so the cost
    does not grow with |e|.
    """
    v = abs(_coerce(value))
    if not v:
        raise ValueError("zero has no order of magnitude")
    a, b, m, d = v._a, v._b, v._m, v._d
    root = isqrt(b * b * d)  # |b|*sqrt(d) - 1 < root <= |b|*sqrt(d)
    if a >= 0 and b >= 0:
        num, den = a + root, m
    else:
        # opposite signs: divide the norm by the conjugate's size instead of
        # subtracting two nearly equal magnitudes
        num, den = abs(a * a - b * b * d), m * (abs(a) + root)
    # num/den is within a factor 2 of v, so log2(v) lies within 2 of bits
    bits = num.bit_length() - den.bit_length()
    e = (bits * _LOG10_2_Q32) >> 32
    n = v._floor_scaled(10**-e, 1) if e < 0 else v._floor_scaled(1, 10**e)
    # e is within one of the exponent, so n is 0 (e is one too high), lies in
    # 1..9 (e is right) or in 10..99 (e is one too low)
    return e - (n == 0) + (n >= 10)
