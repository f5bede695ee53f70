"""Exact arithmetic in a real quadratic field Q[sqrt(d)].

A value is a pair of rationals (x, y) meaning x + y*sqrt(d), with d a fixed
square-free integer >= 2 (1 for a rational value), so equal values have equal
parts.  Comparisons, floors and decimal renderings are all exact integer
arithmetic; no floating point enters anywhere, which is what makes assertions
at the 1e-113 scale possible.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

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


class QuadraticNumber:
    """Immutable exact number x + y*sqrt(d); d is stored square-free."""

    __slots__ = ("x", "y", "d")

    def __init__(self, x: Rational, y: Rational = 0, d: int = 1):
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
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticNumber is immutable")

    @classmethod
    def sqrt(cls, d: int) -> "QuadraticNumber":
        return cls(0, 1, d)

    # -- structure ---------------------------------------------------------

    def conjugate(self) -> "QuadraticNumber":
        return QuadraticNumber(self.x, -self.y, self.d)

    def _integer_parts(self) -> tuple[int, int, int]:
        """(a, b, m) with integers a, b and m > 0 and self = (a + b*sqrt(d)) / m."""
        x, y = self.x, self.y
        return (
            x.numerator * y.denominator,
            y.numerator * x.denominator,
            x.denominator * y.denominator,
        )

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QuadraticNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticNumber(other)
        return None

    def _join_d(self, other: "QuadraticNumber") -> int:
        if self.y and other.y and self.d != other.d:
            raise ValueError(f"mixed radicands {self.d} and {other.d}")
        return self.d if self.y else other.d

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadraticNumber(self.x + o.x, self.y + o.y, self._join_d(o))

    __radd__ = __add__

    def __neg__(self):
        return QuadraticNumber(-self.x, -self.y, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join_d(o)
        return QuadraticNumber(
            self.x * o.x + self.y * o.y * d,
            self.x * o.y + self.y * o.x,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticNumber":
        norm = self.x * self.x - self.y * self.y * self.d
        if not norm:
            raise ZeroDivisionError("division by zero element")
        return QuadraticNumber(self.x / norm, -self.y / norm, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._join_d(o)
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        # square and multiply (a + b*sqrt(d)) on integers; divide by m**n once
        a, b, m = self._integer_parts()
        d = self.d
        ra, rb = 1, 0
        scale = m**n
        while n:
            if n & 1:
                ra, rb = ra * a + rb * b * d, ra * b + rb * a
            n >>= 1
            if n:
                a, b = a * a + b * b * d, 2 * a * b
        return QuadraticNumber(Fraction(ra, scale), Fraction(rb, scale), d)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __bool__(self):
        return bool(self.x or self.y)

    # -- exact ordering ------------------------------------------------------

    def sign(self) -> int:
        a, b, _ = self._integer_parts()
        sa, sb = _sgn(a), _sgn(b)
        if sa * sb >= 0:
            return sa or sb
        # opposite signs: the larger of |a| and |b|*sqrt(d) wins, and the two
        # are never equal, since d is not a square
        return sa if a * a > b * b * self.d else sb

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare QuadraticNumber with {type(other)!r}")
        return (self - o).sign()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.x, self.y, self.d) == (o.x, o.y, o.d)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        if not self.y:
            return hash(self.x)
        return hash((self.x, self.y, self.d))

    # -- rendering -----------------------------------------------------------

    def _floor_scaled(self, num: int, den: int) -> int:
        """floor(self * num / den) for integers num and den > 0, exactly.

        With self * num / den = (A + B*sqrt(d)) / M and M > 0, B*sqrt(d) is
        irrational unless B = 0, so its floor is isqrt(B*B*d) for B >= 0 and
        -isqrt(B*B*d) - 1 for B < 0; and floor(z / M) = floor(floor(z) / M)
        for an integer M > 0 (Concrete Mathematics, section 3.2).
        """
        a, b, m = self._integer_parts()
        a, b, m = a * num, b * num, m * den
        root = isqrt(b * b * self.d)
        return (a + root) // m if b >= 0 else (a - root - 1) // m

    def __floor__(self) -> int:
        return self._floor_scaled(1, 1)

    def decimal(self, digits: int) -> str:
        """Fixed-point decimal string, round-half-even at `digits` places."""
        if digits < 0:
            raise ValueError("digits must be >= 0")
        scale = 10**digits
        if self.y:
            # an irrational value is never halfway, so floor(v + 1/2) is nearest
            n = (self._floor_scaled(2 * scale, 1) + 1) // 2
        else:
            n = round(self.x * scale)  # Fraction rounds half to even
        whole, frac = divmod(abs(n), scale)
        body = f"{whole}.{frac:0{digits}d}" if digits else str(whole)
        return "-" + body if n < 0 else body

    def __float__(self) -> float:
        return float(self.x) + float(self.y) * (self.d**0.5)

    def __repr__(self) -> str:
        if not self.y:
            return f"QuadraticNumber({self.x})"
        return f"QuadraticNumber({self.x}, {self.y}, {self.d})"

    def __str__(self) -> str:
        x, y = self.x, self.y
        if not y:
            return str(x)
        root = f"sqrt({self.d})" if abs(y) == 1 else f"{abs(y)}*sqrt({self.d})"
        if not x:
            return root if y > 0 else f"-{root}"
        op = "+" if y > 0 else "-"
        return f"{x} {op} {root}"


def decimal(value: Rational | QuadraticNumber, digits: int) -> str:
    """`value` as a fixed-point decimal string, round-half-even at `digits` places."""
    v = value if isinstance(value, QuadraticNumber) else QuadraticNumber(value)
    return v.decimal(digits)


# floor(log10(2) * 2**32): bits times this, shifted right by 32, estimate
# decimal digits to well within one for any bit length below about 10**9
_LOG10_2_Q32 = 1292913986


def order_of_magnitude(value) -> int:
    """Exponent e with 10**e <= |value| < 10**(e+1), computed exactly.

    Bit lengths of an integer quotient near |value| estimate e to within
    one; one exact floor of |value| / 10**e then settles it, so the cost
    does not grow with |e|.
    """
    v = value if isinstance(value, QuadraticNumber) else QuadraticNumber(value)
    v = abs(v)
    if not v:
        raise ValueError("zero has no order of magnitude")
    a, b, m = v._integer_parts()
    root = isqrt(b * b * v.d)  # |b|*sqrt(d) - 1 < root <= |b|*sqrt(d)
    if a >= 0 and b >= 0:
        num, den = a + root, m
    else:
        # opposite signs: divide the norm by the conjugate's size instead of
        # subtracting two nearly equal magnitudes
        num, den = abs(a * a - b * b * v.d), m * (abs(a) + root)
    # num/den is within a factor 2 of v, so log2(v) lies within 2 of bits
    bits = num.bit_length() - den.bit_length()
    e = (bits * _LOG10_2_Q32) >> 32
    n = v._floor_scaled(10**-e, 1) if e < 0 else v._floor_scaled(1, 10**e)
    # e is within one of the exponent, so n is 0 (e is one too high), lies in
    # 1..9 (e is right) or in 10..99 (e is one too low)
    return e - (n == 0) + (n >= 10)
