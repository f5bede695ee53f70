import math
from fractions import Fraction

import pytest
from hypothesis import example, given
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
    assert QuadraticNumber.sqrt(12) == qn(0, 2, 3)
    assert hash(QuadraticNumber.sqrt(12)) == hash(qn(0, 2, 3))
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
    assert QuadraticNumber.sqrt(12) + QuadraticNumber.sqrt(3) == qn(0, 3, 3)
    assert QuadraticNumber.sqrt(3) < QuadraticNumber.sqrt(12)
    assert not QuadraticNumber.sqrt(12) < QuadraticNumber.sqrt(3)
    assert QuadraticNumber.sqrt(12) * QuadraticNumber.sqrt(3) == 6


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
    factor = z if n >= 0 else z.inverse()
    expected = QuadraticNumber(1)
    for _ in range(abs(n)):
        expected = expected * factor
    assert z**n == expected


def test_decimal_rendering():
    root3 = QuadraticNumber.sqrt(3)
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
    assert order_of_magnitude(QuadraticNumber.sqrt(2) / 10**7) == -7
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
