"""Tests for the precision context, arbitrary-precision scalars, exact
rationals, and elementary function evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from almostid import (
    BigReal,
    DomainError,
    ExactTarget,
    PrecisionContext,
    const_pi,
    elem,
    rational,
)
from almostid.precision import to_mpf
from conftest import NOT_INTS

# 50-digit reference constants, checked against any standard table.
PI_50 = "3.1415926535897932384626433832795028841971693993751"
LN2_50 = "0.69314718055994530941723212145817656807550013436026"


def _parse(text, digits):
    """A decimal string read back at the given precision."""
    with mp.workdps(digits):
        return BigReal(mp.mpf(text), digits)


class TestPrecisionContext:
    def test_working_digits_is_sum_of_digits_and_guard(self):
        assert PrecisionContext(digits=30).working_digits == 45

    @pytest.mark.parametrize("digits", [0, -3])
    def test_rejects_nonpositive_digits(self, digits):
        with pytest.raises(DomainError):
            PrecisionContext(digits=digits)

    @pytest.mark.parametrize("digits", [2.5, "30", *NOT_INTS])
    def test_rejects_non_integer_digits(self, digits):
        with pytest.raises(DomainError):
            PrecisionContext(digits=digits)


class TestConstants:
    def test_pi_matches_reference_digits(self, ctx40):
        # the 50-digit literal itself carries ~6e-51 truncation error
        p = const_pi(ctx40)
        with mp.workdps(80):
            ref = mp.mpf(PI_50)
            assert abs(p.value - ref) < mp.mpf(10) ** (-49)

    def test_pi_deterministic(self, ctx40):
        a = const_pi(ctx40)
        b = const_pi(ctx40)
        assert a.value == b.value
        assert a.decimal() == b.decimal()

    def test_pi_precision_tracks_context(self):
        lo = const_pi(PrecisionContext(digits=20))
        hi = const_pi(PrecisionContext(digits=60))
        with mp.workdps(100):
            ref = mp.mpf(PI_50)
            assert abs(lo.value - ref) < mp.mpf(10) ** (-33)
            assert abs(hi.value - ref) < mp.mpf(10) ** (-49)


class TestElem:
    def test_ln_two_matches_reference(self, ctx40):
        # literal truncation error ~5e-51 dominates the backend's
        v = elem("ln", 2, ctx40)
        with mp.workdps(80):
            assert abs(v.value - mp.mpf(LN2_50)) < mp.mpf(10) ** (-50)

    def test_arctan_one_is_quarter_pi(self, ctx40):
        a = elem("arctan", 1, ctx40)
        with mp.workdps(60):
            assert abs(a.value - const_pi(ctx40).value / 4) < mp.mpf(10) ** (-53)

    def test_exp_ln_round_trip(self, ctx40):
        x = _parse("2.71", ctx40.working_digits)
        back = elem("exp", elem("ln", x, ctx40), ctx40)
        with mp.workdps(60):
            assert abs(back.value - x.value) < mp.mpf(10) ** (-52)

    def test_sqrt_squares_back(self, ctx40):
        r = elem("sqrt", 7, ctx40)
        with mp.workdps(60):
            assert abs(r.value * r.value - 7) < mp.mpf(10) ** (-51)

    @pytest.mark.parametrize(
        "fn,x",
        [("ln", -1), ("ln", 0), ("sqrt", -2)],
    )
    def test_domain_errors(self, fn, x, ctx30):
        with pytest.raises(DomainError) as err:
            elem(fn, x, ctx30)
        assert fn in str(err.value)

    def test_unknown_function_id(self, ctx30):
        with pytest.raises(DomainError):
            elem("tanh", 1, ctx30)

    @given(x=st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=20, deadline=None)
    def test_sinh_cosh_consistent_with_exp(self, x):
        # sinh and cosh must agree with their exponential definitions to
        # within the context tail tolerance, relatively.
        ctx = PrecisionContext(digits=30)
        s = elem("sinh", x, ctx)
        c = elem("cosh", x, ctx)
        with mp.workdps(ctx.working_digits + 10):
            e_plus = mp.exp(mp.mpf(x))
            e_minus = mp.exp(-mp.mpf(x))
            tol = mp.mpf(10) ** (-ctx.working_digits + 2)
            assert abs(s.value - (e_plus - e_minus) / 2) <= tol * abs(s.value)
            assert abs(c.value - (e_plus + e_minus) / 2) <= tol * abs(c.value)

    @given(x=st.floats(min_value=-20.0, max_value=20.0))
    @settings(max_examples=20, deadline=None)
    def test_sin_cos_pythagoras(self, x):
        ctx = PrecisionContext(digits=30)
        s = elem("sin", x, ctx)
        c = elem("cos", x, ctx)
        with mp.workdps(ctx.working_digits + 10):
            assert abs(s.value**2 + c.value**2 - 1) < mp.mpf(10) ** (-40)


class TestBigReal:
    def test_decimal_round_trip_simple(self, ctx30):
        x = _parse("0.125", ctx30.working_digits)
        y = _parse(x.decimal(), ctx30.working_digits)
        assert x.value == y.value

    @given(mantissa=st.integers(min_value=-(10**18), max_value=10**18),
           exponent=st.integers(min_value=-25, max_value=25))
    @settings(max_examples=30, deadline=None)
    def test_decimal_round_trip_property(self, mantissa, exponent):
        # mantissa * 10^exponent has at most 19 significant digits, so a
        # 45-digit working precision must reproduce it exactly through text.
        digits = PrecisionContext(digits=30).working_digits
        text = f"{mantissa}e{exponent}"
        x = _parse(text, digits)
        y = _parse(x.decimal(), digits)
        assert x.value == y.value

    def test_zero_round_trip(self, ctx30):
        x = _parse("0", ctx30.working_digits)
        assert _parse(x.decimal(), ctx30.working_digits).value == 0

    def test_unconvertible_operand_is_domain_error(self, ctx30):
        with pytest.raises(DomainError):
            elem("exp", object(), ctx30)

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf", float("nan"), float("inf"),
                                   mp.mpf("-inf")])
    def test_non_finite_operand_is_domain_error(self, x):
        with pytest.raises(DomainError, match="not a finite real number"):
            to_mpf(x)


class TestRationals:
    def test_construction_reduces(self):
        q = rational(4, 20)
        assert q == Fraction(1, 5)
        assert q.denominator == 5

    def test_zero_denominator(self):
        with pytest.raises(DomainError):
            rational(1, 0)

    @given(a=st.integers(-1000, 1000), b=st.integers(1, 1000),
           c=st.integers(-1000, 1000), d=st.integers(1, 1000))
    @settings(max_examples=40, deadline=None)
    def test_arithmetic_always_lowest_terms(self, a, b, c, d):
        import math
        q = rational(a, b) + rational(c, d)
        assert q.denominator > 0
        assert math.gcd(abs(q.numerator), q.denominator) == 1
        p = rational(a, b) * rational(c, d)
        assert math.gcd(abs(p.numerator), p.denominator) == 1


class TestExactTarget:
    def test_to_real_pi_multiple(self, ctx40):
        t = ExactTarget(q=Fraction(3, 128), has_pi=True)
        v = t.to_real(ctx40)
        with mp.workdps(60):
            ref = 3 * const_pi(ctx40).value / 128
            assert abs(v.value - ref) < mp.mpf(10) ** (-52)

    def test_to_real_plain_rational(self, ctx40):
        t = ExactTarget(q=Fraction(1, 30), has_pi=False)
        with mp.workdps(60):
            assert abs(t.to_real(ctx40).value - mp.mpf(1) / 30) < mp.mpf(10) ** (-53)

    def test_rational_text(self):
        assert ExactTarget(q=Fraction(3, 128), has_pi=True).rational_text() == "3/128"
        assert ExactTarget(q=Fraction(1, 1), has_pi=False).rational_text() == "1/1"


class TestPrecisionScaling:
    @pytest.mark.parametrize("fn,x", [("exp", "0.37"), ("ln", 5), ("cosh", "2.25")])
    def test_elem_agrees_across_contexts(self, fn, x):
        lo = elem(fn, x, PrecisionContext(digits=30))
        hi = elem(fn, x, PrecisionContext(digits=40))
        with mp.workdps(80):
            assert abs(lo.value - hi.value) <= mp.mpf(10) ** (-42) * abs(hi.value)
