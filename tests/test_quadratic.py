import math
import operator
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mosaicforest.quadratic import (
    QuadraticNumber,
    decimal,
    order_of_magnitude,
    square_free_split,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)
radicands = st.sampled_from([2, 3, 5, 12, 21, 1932, 9212])


def qn(x, y, d):
    return QuadraticNumber(x, y, d)


@given(rationals, rationals, rationals, rationals, radicands)
def test_field_axioms(x1, y1, x2, y2, d):
    a = qn(x1, y1, d)
    b = qn(x2, y2, d)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + 1) == a * b + a
    assert (a - b) + b == a
    if b:
        assert (a / b) * b == a


@given(rationals, rationals, radicands)
def test_sign_agrees_with_float(x, y, d):
    v = qn(x, y, d)
    approx = float(x) + float(y) * math.sqrt(d)
    if abs(approx) > 1e-9:
        assert v.sign() == (1 if approx > 0 else -1)


def test_rational_collapse_and_equality():
    assert qn(3, 0, 12) == Fraction(3)
    assert qn(Fraction(1, 2), 0, 7) == Fraction(1, 2)
    assert QuadraticNumber(2) + QuadraticNumber(0, 1, 3) == qn(2, 1, 3)
    # sqrt(12) == 2*sqrt(3) across different radicands
    assert QuadraticNumber(0, 1, 12) == qn(0, 2, 3)
    assert hash(QuadraticNumber(0, 1, 12)) == hash(qn(0, 2, 3))
    assert qn(1, 1, 2) != qn(1, 1, 3)


def test_normalized():
    # the radicand is stored square-free: 2 + 1/2*sqrt(12) is 2 + sqrt(3)
    v = qn(2, Fraction(1, 2), 12)
    assert (v.x, v.y, v.d) == (Fraction(2), Fraction(1), 3)
    assert (qn(0, 1, 45).y, qn(0, 1, 45).d) == (3, 5)
    assert str(qn(2, Fraction(1, 2), 12)) == "2 + sqrt(3)"
    assert str(qn(Fraction(5, 2), Fraction(-5, 6), 3)) == "5/2 - 5/6*sqrt(3)"


def test_radicands_with_one_square_free_part_mix():
    # sqrt(12) = 2*sqrt(3), so they add and compare within Q[sqrt(3)]
    assert QuadraticNumber(0, 1, 12) + QuadraticNumber(0, 1, 3) == qn(0, 3, 3)
    assert QuadraticNumber(0, 1, 3) < QuadraticNumber(0, 1, 12)
    assert not QuadraticNumber(0, 1, 12) < QuadraticNumber(0, 1, 3)
    assert QuadraticNumber(0, 1, 12) * QuadraticNumber(0, 1, 3) == 6


def test_mixed_radicand_arithmetic_rejected():
    with pytest.raises(ValueError):
        qn(1, 1, 2) + qn(1, 1, 3)
    with pytest.raises(ValueError):
        qn(1, 1, 2) < qn(1, 1, 3)


def test_square_radicand_rejected():
    with pytest.raises(ValueError):
        qn(0, 1, 9)
    with pytest.raises(ValueError):
        qn(0, 1, 1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        qn(1, 1, 3) / qn(0, 0, 3)


def test_powers():
    z = qn(2, 1, 3)
    assert z**0 == 1
    assert z**2 == qn(7, 4, 3)
    assert z**-1 == qn(2, -1, 3)  # conjugate, since the norm is 1
    assert z**5 * z**-5 == 1
    assert QuadraticNumber(0) ** 0 == 1
    with pytest.raises(ZeroDivisionError):
        QuadraticNumber(0) ** -1


@given(rationals, rationals, radicands, st.integers(min_value=-6, max_value=30))
def test_power_is_repeated_multiplication(x, y, d, n):
    z = qn(x, y, d)
    if n < 0 and not z:
        return
    factor = z if n >= 0 else 1 / z
    expected = QuadraticNumber(1)
    for _ in range(abs(n)):
        expected = expected * factor
    assert z**n == expected


def test_decimal_rendering():
    root3 = QuadraticNumber(0, 1, 3)
    assert root3.decimal(6) == "1.732051"
    assert (2 + root3).decimal(6) == "3.732051"
    assert (-root3).decimal(3) == "-1.732"
    assert QuadraticNumber(Fraction(1, 4)).decimal(1) == "0.2"  # half-even ties
    assert QuadraticNumber(Fraction(3, 4)).decimal(1) == "0.8"
    assert QuadraticNumber(Fraction(-1, 8)).decimal(2) == "-0.12"
    assert QuadraticNumber(0).decimal(4) == "0.0000"
    # the module function renders ints and Fractions as well
    assert decimal(2 + root3, 6) == "3.732051"
    assert decimal(Fraction(1, 4), 1) == "0.2"
    assert decimal(3, 2) == "3.00"
    # 150-digit rendering stays exact: check against a published-precision square root
    assert root3.decimal(30) == "1.732050807568877293527446341506"


def test_decimal_never_negative_zero():
    tiny = qn(0, Fraction(-1, 10**9), 2)
    assert tiny.decimal(3) == "0.000"


def test_order_of_magnitude():
    assert order_of_magnitude(Fraction(1, 1000)) == -3
    assert order_of_magnitude(Fraction(999, 1000)) == -1
    assert order_of_magnitude(1) == 0
    assert order_of_magnitude(QuadraticNumber(0, 1, 2) / 10**7) == -7
    assert order_of_magnitude(Fraction(4023, 10**6)) == -3
    with pytest.raises(ValueError):
        order_of_magnitude(0)


def order_of_magnitude_by_scaling(value) -> int:
    """The original loop: scale by 10 until the value lies in [1, 10)."""
    v = value if isinstance(value, QuadraticNumber) else QuadraticNumber(value)
    v = abs(v)
    if not v:
        raise ValueError("zero has no order of magnitude")
    e = 0
    while v._cmp(1) < 0:
        v = v * 10
        e -= 1
    while v._cmp(10) >= 0:
        v = v / 10
        e += 1
    return e


wide_rationals = st.builds(
    Fraction,
    st.integers(min_value=-(10**40), max_value=10**40),
    st.integers(min_value=1, max_value=10**40),
)
# 12 and 32 are not square-free, so these also exercise unnormalised fields
om_radicands = st.sampled_from([2, 3, 5, 12, 21, 32, 1932])


def powers_of_ten_and_neighbours():
    def build(k, j, side):
        power = Fraction(10) ** k
        return power + side * Fraction(1, 10**j)

    return st.builds(
        build,
        st.integers(min_value=-60, max_value=60),
        st.integers(min_value=1, max_value=80),
        st.sampled_from([-1, 0, 1]),
    )


def near_cancelling():
    """x + y*sqrt(d) with x within a few units of -y*sqrt(d)."""

    def build(y, d, shift, scale):
        x = -math.isqrt(y * y * d) + shift
        return QuadraticNumber(Fraction(x, scale), Fraction(y, scale), d)

    return st.builds(
        build,
        st.integers(min_value=-(10**50), max_value=10**50).filter(bool),
        om_radicands,
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=1, max_value=10**30),
    )


nonzero_values = st.one_of(
    wide_rationals,
    st.builds(QuadraticNumber, wide_rationals, wide_rationals, om_radicands),
    powers_of_ten_and_neighbours(),
    near_cancelling(),
).filter(bool)


# small values (zero among them) and every kind of nonzero_values, all as QuadraticNumbers
values = st.one_of(st.builds(qn, rationals, rationals, radicands), nonzero_values).map(
    lambda v: v if isinstance(v, QuadraticNumber) else QuadraticNumber(v)
)


@given(values, st.booleans())
@example(QuadraticNumber(-1393, 985, 2), False)  # 985*sqrt(2) ~ 1393
@example(QuadraticNumber(0, Fraction(-1, 10**9), 2), False)
@example(QuadraticNumber(3, -1, 3), False)  # 1.27: flooring the sqrt part up gives 2
def test_floor(v, negate):
    if negate:
        v = -v
    n = math.floor(v)
    assert v >= n
    assert v < n + 1


@given(values, st.booleans(), st.integers(min_value=0, max_value=30))
@example(QuadraticNumber(Fraction(1, 4)), False, 1)
@example(QuadraticNumber(Fraction(3, 4)), False, 1)
@example(QuadraticNumber(Fraction(-1, 8)), False, 2)
@example(QuadraticNumber(Fraction(5, 2)), True, 0)
@example(QuadraticNumber(0, Fraction(-1, 10**9), 2), False, 3)
@example(QuadraticNumber(-1393, 985, 2), False, 3)
@example(QuadraticNumber(3, -1, 3), False, 0)  # 1.27 rounds to 1, not 2
def test_decimal_is_nearest_and_ties_go_to_even(v, negate, digits):
    if negate:
        v = -v
    text = v.decimal(digits)
    assert len(text.partition(".")[2]) == digits
    printed = Fraction(text)
    c = abs(v - printed)._cmp(Fraction(1, 2 * 10**digits))
    assert c <= 0
    if c == 0:  # a tie, which only a rational value can make
        assert not v.y
        assert int(text[-1]) % 2 == 0
    assert not (printed == 0 and text.startswith("-"))


def sign_on_fractions(v: QuadraticNumber) -> int:
    """The original sign: compare x*x with y*y*d as Fractions."""
    sx, sy = (v.x > 0) - (v.x < 0), (v.y > 0) - (v.y < 0)
    if sy == 0:
        return sx
    if sx == 0 or sx == sy:
        return sy
    lhs = v.x * v.x
    rhs = v.y * v.y * v.d
    assert lhs != rhs  # impossible for non-square d
    return sx if lhs > rhs else sy


@given(values, st.booleans())
@example(QuadraticNumber(-1393, 985, 2), False)
@example(QuadraticNumber(0), False)
def test_sign_matches_fraction_sign(v, negate):
    if negate:
        v = -v
    assert v.sign() == sign_on_fractions(v)


@given(nonzero_values, st.booleans())
@example(Fraction(1, 10**400), False)
@example(QuadraticNumber(0, Fraction(1, 10**300), 32), True)
@example(QuadraticNumber(-1393, Fraction(985, 1), 2), False)  # 985*sqrt(2) ~ 1393
def test_order_of_magnitude_matches_scaling_loop(value, negate):
    if negate:
        value = -value
    assert order_of_magnitude(value) == order_of_magnitude_by_scaling(value)


@pytest.mark.parametrize("zero", [0, Fraction(0), QuadraticNumber(0), QuadraticNumber(0, 0, 12)])
def test_order_of_magnitude_of_zero_raises(zero):
    with pytest.raises(ValueError):
        order_of_magnitude(zero)


def test_square_free_split():
    assert square_free_split(12) == (2, 3)
    assert square_free_split(9) == (3, 1)
    assert square_free_split(30) == (1, 30)
    assert square_free_split(144) == (12, 1)
    assert square_free_split(145) == (1, 145)
    # cofactors above the trial-division bound: a prime square, two primes
    big, other = 1000003, 1000033
    assert square_free_split(12 * big * big) == (2 * big, 3)
    assert square_free_split(5 * big * other) == (1, 5 * big * other)


def test_nonsquare_radicand_family():
    # trace**2 - 4 is strictly between (trace-1)**2 and trace**2 for trace >= 3
    for c in range(3, 200):
        assert square_free_split(c * c - 4)[1] != 1


def test_comparisons_total_order():
    z1 = qn(2, 1, 3)
    z2 = qn(2, -1, 3)
    assert z2 < 1 < z1
    assert z1 > Fraction(37, 10)
    assert z1 < Fraction(38, 10)
    assert abs(z2) == z2
    assert sorted([z1, z2, QuadraticNumber(1)]) == [z2, QuadraticNumber(1), z1]


# ------------------------------------------------ one coercion rule for every operand

ARITHMETIC = [operator.add, operator.sub, operator.mul, operator.truediv]
QN_OPERANDS = [QuadraticNumber(Fraction(-2, 3)), QuadraticNumber(1, Fraction(1, 2), 5)]


def outcome(op, u, v):
    """op(u, v), or the type of the ArithmeticError it raises."""
    try:
        return op(u, v)
    except ArithmeticError as exc:
        return type(exc)


@pytest.mark.parametrize("v", QN_OPERANDS, ids=["rational", "irrational"])
@pytest.mark.parametrize("r", [0, 1, -7, Fraction(5, 3), Fraction(-1, 4)], ids=repr)
def test_int_or_fraction_operand_acts_as_its_quadratic_number(v, r):
    rq = QuadraticNumber(r)
    for op in ARITHMETIC + [operator.eq]:
        assert outcome(op, v, r) == outcome(op, v, rq), op
        assert outcome(op, r, v) == outcome(op, rq, v), op
    assert (v < r) == (v < rq) and (r < v) == (rq < v)


@pytest.mark.parametrize("v", QN_OPERANDS, ids=["rational", "irrational"])
@pytest.mark.parametrize("other", [0.5, "1/3", Decimal("0.1"), 1j, None], ids=repr)
def test_inexact_operand_is_refused(v, other):
    for op in ARITHMETIC:
        with pytest.raises(TypeError):
            op(v, other)
        with pytest.raises(TypeError):
            op(other, v)
    with pytest.raises(TypeError):
        v < other
    assert not v == other and not other == v


@pytest.mark.parametrize(
    "call,args",
    [
        pytest.param(QuadraticNumber, (0.1,), id="QuadraticNumber(0.1)"),
        pytest.param(QuadraticNumber, ("1/3",), id="QuadraticNumber('1/3')"),
        pytest.param(QuadraticNumber, (Decimal("0.1"),), id="QuadraticNumber(Decimal('0.1'))"),
        pytest.param(QuadraticNumber, (1, 0.5, 2), id="QuadraticNumber(1, 0.5, 2)"),
        pytest.param(decimal, (0.1, 20), id="decimal(0.1, 20)"),
        pytest.param(order_of_magnitude, ("5",), id="order_of_magnitude('5')"),
    ],
)
def test_inexact_value_is_refused(call, args):
    with pytest.raises(TypeError):
        call(*args)


# ------------------------------------------------ the Fraction-pair reference


class ReferenceQuadratic:
    """x + y*sqrt(d) as a pair of Fractions: the oracle for QuadraticNumber.

    Every operation runs on the two rational parts, each with its own gcds,
    the way QuadraticNumber computed before it moved to one integer triple
    (a + b*sqrt(d)) / m.  QuadraticNumber must agree with it on every value,
    result and rendering.
    """

    __slots__ = ("x", "y", "d")

    def __init__(self, x, y=0, d=1):
        x, y = Fraction(x), Fraction(y)
        if y:
            s, f = square_free_split(d) if d >= 2 else (1, 1)
            if f == 1:
                raise ValueError(f"radicand must be a non-square integer >= 2, got {d}")
            y *= s
            d = f
        else:
            d = 1
        self.x, self.y, self.d = x, y, d

    def _integer_parts(self):
        x, y = self.x, self.y
        return (
            x.numerator * y.denominator,
            y.numerator * x.denominator,
            x.denominator * y.denominator,
        )

    def _coerce(self, other):
        return other if isinstance(other, ReferenceQuadratic) else ReferenceQuadratic(other)

    def _join_d(self, other):
        if self.y and other.y and self.d != other.d:
            raise ValueError(f"mixed radicands {self.d} and {other.d}")
        return self.d if self.y else other.d

    def __add__(self, other):
        o = self._coerce(other)
        return ReferenceQuadratic(self.x + o.x, self.y + o.y, self._join_d(o))

    __radd__ = __add__

    def __neg__(self):
        return ReferenceQuadratic(-self.x, -self.y, self.d)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        d = self._join_d(o)
        return ReferenceQuadratic(
            self.x * o.x + self.y * o.y * d, self.x * o.y + self.y * o.x, d
        )

    __rmul__ = __mul__

    def inverse(self):
        norm = self.x * self.x - self.y * self.y * self.d
        if not norm:
            raise ZeroDivisionError("division by zero element")
        return ReferenceQuadratic(self.x / norm, -self.y / norm, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        self._join_d(o)
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n):
        result = ReferenceQuadratic(1)
        factor = self if n >= 0 else self.inverse()
        for _ in range(abs(n)):
            result = result * factor
        return result

    def __bool__(self):
        return bool(self.x or self.y)

    def sign(self):
        a, b, _ = self._integer_parts()
        sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
        if sa * sb >= 0:
            return sa or sb
        return sa if a * a > b * b * self.d else sb

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __eq__(self, other):
        o = self._coerce(other)
        return (self.x, self.y, self.d) == (o.x, o.y, o.d)

    def __hash__(self):
        return hash(self.x) if not self.y else hash((self.x, self.y, self.d))

    def _floor_scaled(self, num, den):
        a, b, m = self._integer_parts()
        a, b, m = a * num, b * num, m * den
        root = math.isqrt(b * b * self.d)
        return (a + root) // m if b >= 0 else (a - root - 1) // m

    def __floor__(self):
        return self._floor_scaled(1, 1)

    def decimal(self, digits):
        scale = 10**digits
        if self.y:
            n = (self._floor_scaled(2 * scale, 1) + 1) // 2
        else:
            n = round(self.x * scale)
        whole, frac = divmod(abs(n), scale)
        body = f"{whole}.{frac:0{digits}d}" if digits else str(whole)
        return "-" + body if n < 0 else body

    def order_of_magnitude(self):
        """The exponent e with 10**e <= |self| < 10**(e+1), by comparing with powers of 10."""
        v = abs(self)
        e = 0
        while (v - ReferenceQuadratic(Fraction(10) ** e)).sign() < 0:
            e -= 1
        while (v - ReferenceQuadratic(Fraction(10) ** (e + 1))).sign() >= 0:
            e += 1
        return e

    def __str__(self):
        x, y = self.x, self.y
        if not y:
            return str(x)
        root = f"sqrt({self.d})" if abs(y) == 1 else f"{abs(y)}*sqrt({self.d})"
        if not x:
            return root if y > 0 else f"-{root}"
        return f"{x} {'+' if y > 0 else '-'} {root}"


def assert_canonical(v: QuadraticNumber) -> None:
    """(a + b*sqrt(d)) / m with m > 0, gcd(m, a, b) == 1, d square-free, d == 1 iff b == 0."""
    a, b, m, d = v._a, v._b, v._m, v._d
    assert all(type(part) is int for part in (a, b, m, d))
    assert m > 0
    assert math.gcd(m, a, b) == 1
    assert (d == 1) == (b == 0)
    assert d == 1 or square_free_split(d)[0] == 1


def assert_same(got, ref: ReferenceQuadratic) -> None:
    assert isinstance(got, QuadraticNumber)
    assert_canonical(got)
    assert (got.x, got.y, got.d) == (ref.x, ref.y, ref.d)
    assert hash(got) == hash(ref)


def both(ref: ReferenceQuadratic) -> tuple[QuadraticNumber, ReferenceQuadratic]:
    return QuadraticNumber(ref.x, ref.y, ref.d), ref


@st.composite
def oracle_values(draw, d):
    """A value of Q[sqrt(d)], as a reference: small, wide, a 300+ digit power or near-cancelling."""
    kind = draw(st.sampled_from(["small", "wide", "power", "near"]))
    if kind == "small":
        return ReferenceQuadratic(draw(rationals), draw(rationals), d)
    if kind == "wide":
        return ReferenceQuadratic(draw(wide_rationals), draw(wide_rationals), d)
    # powers of (u + v*sqrt(d))/w: parts of several hundred digits by n = 400
    base = ReferenceQuadratic(
        Fraction(draw(st.integers(1, 9)), draw(st.integers(2, 9))),
        Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9))),
        d,
    )
    power = base ** draw(st.integers(0, 400))
    if kind == "power":
        return power
    # minus a rational within 10**-k of it: the difference cancels k digits
    k = draw(st.integers(0, 120))
    close = Fraction(power._floor_scaled(10**k, 1) + draw(st.integers(-1, 2)), 10**k)
    return power - close


@st.composite
def oracle_pairs(draw):
    d = draw(st.sampled_from([2, 3, 5, 12, 21, 1932]))
    return draw(oracle_values(d)), draw(oracle_values(d))


def test_reference_agrees_on_a_wide_power():
    g = ReferenceQuadratic(Fraction(2, 7), Fraction(1, 7), 3)
    got, ref = both(g**300)
    assert len(str(ref.x.denominator)) > 250
    assert_same(got, ref)
    assert_same(QuadraticNumber(Fraction(2, 7), Fraction(1, 7), 3) ** 300, ref)


@settings(max_examples=150, deadline=None)
@given(oracle_pairs(), st.integers(min_value=-3, max_value=4), st.integers(0, 40), rationals)
@example(
    (ReferenceQuadratic(-1393, 985, 2), ReferenceQuadratic(Fraction(1, 2), Fraction(1, 2), 2)),
    -3, 3, Fraction(0),
)
@example((ReferenceQuadratic(0), ReferenceQuadratic(0, 1, 12)), 0, 0, Fraction(1, 4))
@example(  # equal a and b over different m
    (
        ReferenceQuadratic(Fraction(1, 2), Fraction(1, 2), 3),
        ReferenceQuadratic(Fraction(1, 3), Fraction(1, 3), 3),
    ),
    2, 5, Fraction(1, 3),
)
def test_every_operation_matches_the_fraction_pair_reference(pair, n, digits, r):
    ru, rv = pair
    (u, ru), (v, rv) = both(ru), both(rv)
    assert_same(u, ru)
    assert_same(v, rv)
    assert_same(u + v, ru + rv)
    assert_same(u - v, ru - rv)
    assert_same(u * v, ru * rv)
    assert_same(-u, -ru)
    assert_same(abs(u), abs(ru))
    assert_same(u.conjugate(), ReferenceQuadratic(ru.x, -ru.y, ru.d))
    assert_same(u + r, ru + r)
    assert_same(r - u, r - ru)
    assert_same(u * r, ru * r)
    if v:
        assert_same(u / v, ru / rv)
        assert_same(r / v, r / rv)
        assert_same(1 / v, rv.inverse())
    if r:
        assert_same(u / r, ru / r)
    if u or n >= 0:
        assert_same(u**n, ru**n)
    assert (u == v) is (ru == rv)
    assert (u == r) is (ru == r)
    # each ordering against the sign of the reference difference, r reflected too
    for (x, y), s in [
        ((u, v), (ru - rv).sign()),
        ((u, r), (ru - r).sign()),
        ((r, u), -(ru - r).sign()),
    ]:
        assert (x < y, x <= y, x > y, x >= y) == (s < 0, s <= 0, s > 0, s >= 0)
    assert bool(u) is bool(ru)
    assert u.sign() == ru.sign()
    assert math.floor(u) == math.floor(ru)
    assert u.decimal(digits) == ru.decimal(digits)
    assert str(u) == str(ru)
    if u:
        assert order_of_magnitude(u) == ru.order_of_magnitude()


def test_rational_hashes_like_its_fraction():
    assert hash(QuadraticNumber(Fraction(1, 3))) == hash(Fraction(1, 3))
    assert hash(QuadraticNumber(Fraction(-7, 2), 0, 5)) == hash(Fraction(-7, 2))
    assert hash(QuadraticNumber(5)) == hash(5)
    # sqrt(3)**2 is the rational 3, whatever route reaches it
    assert hash(QuadraticNumber(0, 1, 3) ** 2) == hash(3)


def test_one_value_by_two_routes_has_equal_parts():
    half_root = QuadraticNumber(Fraction(1, 2), Fraction(1, 2), 3)  # (1 + sqrt(3))/2
    routes = [
        half_root**2,  # (4 + 2*sqrt(3))/4
        QuadraticNumber(1, Fraction(1, 2), 3),
        QuadraticNumber(1, Fraction(1, 4), 12),
        (QuadraticNumber(2) + QuadraticNumber(0, 1, 3)) / 2,
        1 / (4 - 2 * QuadraticNumber(0, 1, 3)),
        # (2 + sqrt(3))**2 over twice (2 + sqrt(3))
        QuadraticNumber(7, 4, 3) / (QuadraticNumber(0, 1, 3) * 2 + 4),
    ]
    parts = {(v._a, v._b, v._m, v._d) for v in routes}
    assert parts == {(2, 1, 2, 3)}
    assert len({hash(v) for v in routes}) == 1


@settings(max_examples=100, deadline=None)
@given(oracle_pairs())
def test_round_trips_land_on_the_same_parts(pair):
    u, v = (QuadraticNumber(r.x, r.y, r.d) for r in pair)
    for w in [(u + v) - v, (u - v) + v, -(-u), u.conjugate().conjugate()] + (
        [(u * v) / v, (u / v) * v] if v else []
    ):
        assert_canonical(w)
        assert (w._a, w._b, w._m, w._d) == (u._a, u._b, u._m, u._d)
        assert hash(w) == hash(u)
