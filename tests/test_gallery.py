"""Tests for the near-integer gallery: Heegner exponentials, the chord-length
and e^pi constants, the Gaussian-theta sum, and factorial/ordered-Bell
quotients."""

import math
import re

import pytest
from mpmath import mp, mpf

from almostid import (
    ConvergenceError,
    DomainError,
    PrecisionContext,
    borwein_sum,
    hickerson,
    misc_constant,
    ordered_bell,
    ramanujan_constant,
)
import almostid.gallery as gallery_mod
from conftest import NOT_INTS, leading_digits

# Published nearest integers and the leading three digits of each gap.
RAMANUJAN_TABLE = {
    37: (199148648, (219, -5)),
    58: (24591257752, (177, -7)),
    163: (262537412640768744, (749, -13)),
}

# Ordered Bell numbers a(1)..a(6) from any combinatorics table, plus the
# large entries the rounding identity is judged against.
FUBINI_SMALL = [1, 3, 13, 75, 541, 4683]
FUBINI_16 = 5315654681981355
FUBINI_17 = 130370767029135901
FUBINI_18 = 3385534663256845323


class TestRamanujan:
    @pytest.mark.parametrize("d", sorted(RAMANUJAN_TABLE))
    def test_reference_and_gap(self, d, ctx50):
        ref_int, lead3 = RAMANUJAN_TABLE[d]
        entry = ramanujan_constant(d, ctx50)
        assert entry.reference == ref_int
        assert entry.delta.value < 0  # all three sit just below the integer
        assert leading_digits(entry.delta.value, 3) == lead3
        assert entry.digits == 50
        assert entry.id == f"ramanujan{d}"

    def test_value_consistent_with_delta(self, ctx50):
        entry = ramanujan_constant(163, ctx50)
        with mp.workdps(80):
            assert abs((entry.value.value - entry.reference) - entry.delta.value) \
                < mpf(10) ** (-40)

    def test_unsupported_discriminant(self, ctx50):
        with pytest.raises(DomainError):
            ramanujan_constant(5, ctx50)

    def test_digit_floor(self):
        with pytest.raises(DomainError):
            ramanujan_constant(163, PrecisionContext(digits=39))

    def test_stable_across_precision(self):
        a = ramanujan_constant(163, PrecisionContext(digits=50))
        b = ramanujan_constant(163, PrecisionContext(digits=60))
        with mp.workdps(90):
            scale = abs(b.value.value)
            assert abs(a.value.value - b.value.value) < mpf(10) ** (-50) * scale
            assert abs(a.delta.value - b.delta.value) < mpf(10) ** (-50) * scale


class TestMiscConstants:
    def test_e_pi_minus_pi(self, ctx50):
        entry = misc_constant("e_pi_minus_pi", ctx50)
        assert entry.value.decimal().startswith("19.999099979")
        with mp.workdps(60):
            assert entry.reference.value == 20

    def test_triangle_length(self, ctx50):
        entry = misc_constant("triangle_l", ctx50)
        assert entry.value.decimal().startswith("0.414293302595")
        # gap magnitude ~0.8e-4 and the value sits ABOVE sqrt(2)-1
        assert entry.delta.value > 0
        with mp.workdps(60):
            assert mpf("0.7e-4") < entry.delta.value < mpf("0.9e-4")

    def test_unknown_id(self, ctx50):
        with pytest.raises(DomainError):
            misc_constant("golden_ratio", ctx50)


class TestBorwein:
    def test_hundred_digit_agreement(self):
        ctx = PrecisionContext(digits=100)
        entry = borwein_sum(ctx)
        with mp.workdps(140):
            assert abs(entry.delta.value) < mpf(10) ** (-100)
        assert 116 < entry.value.value < 117  # ~ 100 sqrt(pi/ln 10)

    def test_value_against_naive_partial_sum(self, ctx30):
        # Recompute the theta sum without the incremental-power trick.
        entry = borwein_sum(ctx30)
        with mp.workdps(ctx30.working_digits):
            naive = mpf(1)
            k = 0
            while True:
                k += 1
                e = (mpf(k) / 100) ** 2
                if e > ctx30.working_digits + 1:
                    break
                naive += 2 * mpf(10) ** (-e)
            assert abs(entry.value.value - naive) < mpf(10) ** (-40) * naive

    @pytest.mark.parametrize("digits", [2000, 1920])
    def test_integer_loop_against_mpf_loop(self, digits):
        # The same recurrence in mpf at 20 extra digits, with the stop test
        # on (k/100)^2.  At 1920 digits (k/100)^2 equals working_digits + 1
        # at k = 4400, the one k where the stop test meets equality.
        ctx = PrecisionContext(digits=digits)
        entry = borwein_sum(ctx)
        with mp.workdps(ctx.working_digits + 20):
            q = mpf(10) ** (-mpf(1) / 10_000)
            q2 = q * q
            power, step, total = mpf(1), q, mpf(1)
            k = 0
            while True:
                k += 1
                power *= step
                step *= q2
                total += 2 * power
                if (mpf(k) / 100) ** 2 > ctx.working_digits + 1:
                    break
            assert abs(entry.value.value - total) < mpf(10) ** (-digits) * total

    def test_digit_cap(self):
        with pytest.raises(DomainError):
            borwein_sum(PrecisionContext(digits=2001))


class TestOrderedBell:
    def test_small_table(self):
        assert ordered_bell(0) == 1
        for n, a in enumerate(FUBINI_SMALL, start=1):
            assert ordered_bell(n) == a

    def test_large_entries(self):
        assert ordered_bell(16) == FUBINI_16
        assert ordered_bell(17) == FUBINI_17
        assert ordered_bell(18) == FUBINI_18

    def test_series_cross_check(self):
        # a(n) = sum_{j>=0} j^n/2^{j+1}; exact integers must match the float
        # sum to well under 1/2.
        with mp.workdps(60):
            for n in (5, 10, 17):
                s = mpf(0)
                for j in range(0, 400):
                    s += mpf(j) ** n / mpf(2) ** (j + 1)
                assert abs(s - ordered_bell(n)) < mpf("1e-20") * max(1, s)

    def test_domain(self):
        with pytest.raises(DomainError):
            ordered_bell(-1)
        for n in (2.5, *NOT_INTS):
            with pytest.raises(DomainError):
                ordered_bell(n)


class TestHickerson:
    @pytest.mark.parametrize("n", list(range(1, 17)))
    def test_rounds_to_ordered_bell_up_to_16(self, n, ctx50):
        entry = hickerson(n, ctx50)
        assert entry.reference == ordered_bell(n)
        with mp.workdps(80):
            assert abs(entry.delta.value) < mpf("0.5")
            assert int(mp.nint(entry.value.value)) == entry.reference

    def test_gap_grows_toward_half(self, ctx50):
        # |delta| creeps upward as the conjugate pole pair gains weight.
        g15 = abs(hickerson(15, ctx50).delta.value)
        g16 = abs(hickerson(16, ctx50).delta.value)
        with mp.workdps(80):
            assert g16 > g15
            assert mpf("0.48") < g16 < mpf("0.5")

    def test_seventeen_breaks_the_rounding_identity(self, ctx50):
        # n = 17 is inside the accepted domain, but the quotient lands 0.542
        # below a(17), so rounding reports a(17) - 1 and the operation
        # refuses to return a "near integer" entry.
        with pytest.raises(ConvergenceError) as err:
            hickerson(17, ctx50)
        assert "n=17" in str(err.value)
        assert str(FUBINI_17) in str(err.value)

    def test_seventeen_gap_value(self, ctx50):
        # Direct computation of the gap the exception reports.
        with mp.workdps(80):
            v = mpf(math.factorial(17)) / (2 * mp.ln(2) ** 18)
            gap = v - FUBINI_17
            assert mpf("-0.55") < gap < mpf("-0.54")

    @pytest.mark.parametrize("n", [0, 18, -1, 2.5, *NOT_INTS])
    def test_domain(self, n, ctx50):
        with pytest.raises(DomainError):
            hickerson(n, ctx50)

    def test_low_digits_refused_or_right(self):
        # every cell accepted at 1..20 digits has the 60-digit verdict and a
        # gap within 1e-3 of the 60-digit gap; unrefused, n = 16 at 1 digit
        # reads -1.0 instead of -0.487 and fails
        def outcome(n, digits):
            try:
                return True, hickerson(n, PrecisionContext(digits=digits)).delta.value
            except ConvergenceError as err:
                return False, mpf(re.search(r"value - a\(n\) = (\S+),", str(err)).group(1))

        for n in range(1, 18):
            passed, delta = outcome(n, 60)
            for digits in range(1, 21):
                try:
                    low_passed, low_delta = outcome(n, digits)
                except DomainError:
                    assert digits < 10, (n, digits)
                    continue
                assert low_passed == passed, (n, digits)
                assert abs(low_delta - delta) <= mpf("1e-3"), (n, digits)
        with pytest.raises(DomainError, match="hickerson16 needs digits >= 6"):
            hickerson(16, PrecisionContext(digits=1))


class TestCatalogue:
    @pytest.mark.parametrize("item", gallery_mod.NAMED + gallery_mod.HICKERSON)
    def test_entry_id_is_item(self, item, ctx50):
        if item == "hickerson17":
            with pytest.raises(ConvergenceError):
                gallery_mod.entry(item, ctx50)
        else:
            assert gallery_mod.entry(item, ctx50).id == item

    @pytest.mark.parametrize("item", ["hickerson", "hickerson18", "ramanujan5", "feigenbaum"])
    def test_unknown_item(self, item, ctx50):
        with pytest.raises(DomainError, match="unknown gallery item"):
            gallery_mod.entry(item, ctx50)
