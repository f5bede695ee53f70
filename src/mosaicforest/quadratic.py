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

    @property
    def is_rational(self) -> bool:
        return not self.y

    def as_fraction(self) -> Fraction:
        if self.y:
            raise ValueError(f"{self} has a nonzero irrational part")
        return self.x

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
        sx, sy = _sgn(self.x), _sgn(self.y)
        if sy == 0:
            return sx
        if sx == 0 or sx == sy:
            return sy
        # opposite signs: |x| vs |y|*sqrt(d) decided by squaring
        lhs = self.x * self.x
        rhs = self.y * self.y * self.d
        if lhs == rhs:  # impossible for non-square d
            raise ArithmeticError(f"degenerate radicand {self.d}")
        return sx if lhs > rhs else sy

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

    def __floor__(self) -> int:
        if not self.y:
            return self.x.numerator // self.x.denominator
        a, b, m = self._integer_parts()
        s = isqrt(b * b * self.d)
        n = (a + s) // m if b > 0 else (a - s - 1) // m
        # the isqrt bound can land one integer short; fix up exactly
        while self._cmp(n + 1) >= 0:
            n += 1
        while self._cmp(n) < 0:
            n -= 1
        return n

    def decimal(self, digits: int) -> str:
        """Fixed-point decimal string, round-half-even at `digits` places."""
        if digits < 0:
            raise ValueError("digits must be >= 0")
        negative = self.sign() < 0
        mag = -self if negative else self
        scale = 10**digits
        scaled = mag * scale
        n = scaled.__floor__()
        c = scaled._cmp(Fraction(2 * n + 1, 2))
        if c > 0 or (c == 0 and n % 2 == 1):
            n += 1
        if digits == 0:
            body = str(n)
        else:
            whole, frac = divmod(n, scale)
            body = f"{whole}.{frac:0{digits}d}"
        return "-" + body if negative and n > 0 else body

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
    one; exact comparisons with 10**e and 10**(e+1) then settle it, so the
    cost does not grow with |e|.
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
    ten = Fraction(10)
    while v._cmp(ten**e) < 0:
        e -= 1
    while v._cmp(ten ** (e + 1)) >= 0:
        e += 1
    return e
