"""Tests for the bilateral sums, exact targets, hyperbolic correction
series, the recurrence, and the per-cell identity check."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from almostid import (
    ConvergenceError,
    DomainError,
    IdentityReport,
    PrecisionContext,
    check_recurrence,
    coeff_b,
    coeff_c,
    predicted_correction,
    r_correction,
    recurrence_factor,
    target,
    u_direct,
    verify_identity,
)
from almostid.precision import to_mpf
from conftest import NOT_INTS, leading_digits

# Published reference values for base 2: leading two digits of u_n - t_n,
# encoded as (two-digit mantissa, exponent of the leading digit).
BASE2_DELTA_TABLE = {
    1: (53, -12),
    2: (48, -11),
    3: (22, -10),
    4: (67, -10),
    5: (15, -9),
    6: (29, -9),
}

# Published correction values, accurate to a relative 1e-6.
R_REFERENCE = {
    (1, 2): "0.538914478e-11",
    (2, 2): "0.4885108992e-10",
    (10, 2): "0.7227399e-8",
}

# predicted_correction's terms_used at 30 digits: a rounding change inside
# a term must not move where the series stops
KERNEL_TERMS = {
    **{(n, 2): k for n, k in ((1, 5), (2, 5), (7, 5), (16, 6), (30, 7))},
    **{(n, 9): k for n, k in ((1, 13), (2, 13), (7, 15), (16, 17), (30, 20))},
    **{(n, 10**40): k for n, k in ((1, 478), (2, 498), (7, 569), (16, 663), (30, 778))},
    (200, 3): 20,
}
# r_correction's terms_used at the same cells: r_n alone stops later than
# the chain at base 10^40
R_KERNEL_TERMS = {**KERNEL_TERMS, (7, 10**40): 578, (16, 10**40): 677, (30, 10**40): 797}
KERNEL_CELLS = ([pytest.param(n, m, True, id=f"{n}-{m}") for n, m in sorted(KERNEL_TERMS)]
                + [pytest.param(n, m, False, id=f"r-{n}-{m}") for n, m in sorted(R_KERNEL_TERMS)])


def _r_terms(n, m, ks, ctx):
    """Sum of the k-th terms of r_n(m) over ks, transcribed from the
    r_correction docstring through coeff_c/coeff_b and mp.sinh/mp.cosh."""
    lnm = mp.ln(m)
    beta = 2 * mp.pi**2 / lnm
    total = mpf(0)
    for k in ks:
        if n == 1:
            total += 2 * mp.pi / mp.cosh(k * beta)
        elif n % 2 == 0:
            total += coeff_c(n // 2, k, m, ctx).value * 2 * k * mp.pi / mp.sinh(k * beta)
        else:
            total += coeff_b(n // 2, k, m, ctx).value * 2 * k * mp.pi / mp.cosh(k * beta)
    return total if n == 1 else total * 2 * mp.pi / (lnm * (n - 1))


def _gamma_terms(n, m, ks, chain):
    """Sum over ks of the Poisson-summation terms, by mp.gamma at complex
    arguments: 2 |Gamma(n/2 + i omega_k)|^2 / (n-1)! for pred(n), and
    2 omega_k^2 |Gamma(n/2 - 1 + i omega_k)|^2 / (n-1)! for r_n, n >= 3,
    with omega_k = 2 pi k / ln m."""
    shift = 1 if not chain and n >= 3 else 0
    lnm = mp.ln(m)
    total = mpf(0)
    for k in ks:
        omega = 2 * mp.pi * k / lnm
        g2 = abs(mp.gamma(mpf(n) / 2 - shift + 1j * omega)) ** 2
        total += omega**2 * g2 if shift else g2
    return 2 * total / mp.factorial(n - 1)


def _pred_terms(n, m, ks, ctx):
    """Sum of the k-th terms of pred(n) over ks: sum_j F_j r_j, each r_j by
    _r_terms, weighted by the chain factors F_j."""
    total = mpf(0)
    factor = Fraction(1)
    for j in range(n, 0, -2):
        total += to_mpf(factor) * _r_terms(j, m, ks, ctx)
        if j > 2:
            factor *= recurrence_factor(j)
    return total


class TestUDirect:
    @pytest.mark.parametrize("n,expected", sorted(BASE2_DELTA_TABLE.items()))
    def test_base2_deltas_match_published_table(self, n, expected, ctx30):
        u = u_direct(n, 2, ctx30)
        t = target(n).to_real(ctx30)
        with mp.workdps(ctx30.working_digits):
            delta = u.value.value - t.value
        assert delta > 0
        assert leading_digits(delta, 2) == expected

    def test_symmetry_against_two_sided_sum(self, ctx30):
        # The one-sided fold must agree with a naive sum over k = -K..K.
        for n, m in [(1, 2), (3, 4), (6, 3)]:
            u = u_direct(n, m, ctx30)
            with mp.workdps(ctx30.working_digits):
                lnm = mp.ln(mpf(m))
                naive = mpf(0)
                K = 400
                for k in range(-K, K + 1):
                    p = mpf(m) ** (mpf(k) / 2)
                    naive += (p + 1 / p) ** (-n)
                naive *= lnm
                assert abs(u.value.value - naive) <= 2 * u.tail_bound.value + mpf(10) ** (-40)

    def test_tail_bound_is_honest(self):
        # Recompute with 20 extra digits; the coarse value must sit within
        # its own stated tail bound of the refined one.
        lo = PrecisionContext(digits=30)
        hi = PrecisionContext(digits=50)
        for n, m in [(1, 2), (2, 2), (5, 9), (12, 3)]:
            coarse = u_direct(n, m, lo)
            fine = u_direct(n, m, hi)
            with mp.workdps(80):
                assert abs(coarse.value.value - fine.value.value) <= (
                    coarse.tail_bound.value + mpf(10) ** (-44)
                )

    @pytest.mark.parametrize("n,m", [(1, 2), (30, 2), (100, 2), (1, 9), (30, 9), (1, 10**13)])
    def test_tail_bound_covers_truncation(self, n, m, ctx30):
        # As for r_correction: the terms past terms_used, up to where a
        # +40-digit run stops, summed from the definition at +40 digits,
        # must sum to at most the reported tail bound.  terms_used counts
        # k = 0, 1, ..., so the first dropped k is terms_used.
        u = u_direct(n, m, ctx30)
        fine = PrecisionContext(digits=ctx30.digits + 40)
        stop = u_direct(n, m, fine).terms_used
        with mp.workdps(fine.working_digits):
            dropped = 2 * mp.ln(m) * sum(
                (mpf(m) ** (mpf(k) / 2) + mpf(m) ** (-mpf(k) / 2)) ** -n
                for k in range(u.terms_used, stop))
            assert 0 < dropped <= u.tail_bound.value * (1 + mpf(10) ** (-ctx30.digits))

    def test_terms_used_positive_and_scales_down_with_n(self, ctx30):
        few = u_direct(20, 2, ctx30)
        many = u_direct(1, 2, ctx30)
        assert 1 <= few.terms_used < many.terms_used

    def test_term_cap_refuses_before_summing(self, ctx30, monkeypatch):
        # u_1(2) at 30 digits needs ~300 terms; the estimate alone must trip the cap
        import almostid.series as series_mod

        monkeypatch.setattr(series_mod, "_MAX_TERMS", 10)
        with pytest.raises(ConvergenceError, match=r"K = \d+ terms at n=1, m=2"):
            u_direct(1, 2, ctx30)

    @pytest.mark.parametrize("n", [0, -2, 2.5, *NOT_INTS])
    def test_bad_n(self, n, ctx30):
        with pytest.raises(DomainError):
            u_direct(n, 2, ctx30)

    @pytest.mark.parametrize("m", [1, 0, -3, *NOT_INTS])
    def test_bad_base(self, m, ctx30):
        with pytest.raises(DomainError):
            u_direct(3, m, ctx30)


class TestTarget:
    def test_known_chain(self):
        expected = {
            1: (Fraction(1), True),
            2: (Fraction(1), False),
            3: (Fraction(1, 8), True),
            4: (Fraction(1, 6), False),
            5: (Fraction(3, 128), True),
            6: (Fraction(1, 30), False),
        }
        for n, (q, has_pi) in expected.items():
            t = target(n)
            assert t.q == q
            assert t.has_pi is has_pi
        # the k = 0 term of the Poisson sum: t_n = Gamma(n/2)^2 / Gamma(n) = B(n/2, n/2)
        ctx = PrecisionContext(digits=45)
        with mp.workdps(ctx.working_digits):
            for n in range(1, 31):
                ref = mp.beta(mpf(n) / 2, mpf(n) / 2)
                assert abs(target(n).to_real(ctx).value - ref) <= mpf(10) ** (-55) * ref, n

    def test_recurrence_consistency_deep(self):
        for n in range(3, 40):
            assert target(n).q == recurrence_factor(n) * target(n - 2).q

    def test_has_pi_parity(self):
        for n in range(1, 20):
            assert target(n).has_pi is (n % 2 == 1)

    def test_bad_n(self):
        for n in (0, *NOT_INTS):
            with pytest.raises(DomainError):
                target(n)


class TestCoefficients:
    def test_even_empty_product(self, ctx40):
        # l = 1 product is empty and (2l-2)! = 1, so c_k = 1 for every k.
        for k in (1, 2, 7):
            assert coeff_c(1, k, 2, ctx40).value == 1

    def test_even_l2_transcription(self, ctx40):
        # l = 2: single factor j = 0 gives (4 pi^2 k^2 / ln(m)^2) / 2!.
        got = coeff_c(2, 3, 2, ctx40)
        with mp.workdps(ctx40.working_digits):
            ref = (2 * 3 * mp.pi / mp.ln(2)) ** 2 / 2
            assert abs(got.value - ref) < mpf(10) ** (-50) * ref

    def test_even_l2_scales_as_k_squared(self, ctx40):
        c1 = coeff_c(2, 1, 3, ctx40)
        c2 = coeff_c(2, 2, 3, ctx40)
        with mp.workdps(ctx40.working_digits):
            assert abs(c2.value - 4 * c1.value) < mpf(10) ** (-48) * c2.value

    def test_odd_empty_product(self, ctx40):
        # l = 1: b_k = 2 pi k / ln(m); linear in k.
        b1 = coeff_b(1, 1, 2, ctx40)
        b3 = coeff_b(1, 3, 2, ctx40)
        with mp.workdps(ctx40.working_digits):
            ref = 2 * mp.pi / mp.ln(2)
            assert abs(b1.value - ref) < mpf(10) ** (-50) * ref
            assert abs(b3.value - 3 * b1.value) < mpf(10) ** (-48) * b3.value

    def test_odd_l2_transcription(self, ctx40):
        # l = 2 (n = 5): 2 pi k ((1/2)^2 + 4 pi^2 k^2/ln(m)^2) / (ln(m) 3!).
        got = coeff_b(2, 2, 2, ctx40)
        with mp.workdps(ctx40.working_digits):
            w = (2 * 2 * mp.pi / mp.ln(2)) ** 2
            ref = 2 * mp.pi * 2 * (mpf(1) / 4 + w) / (mp.ln(2) * 6)
            assert abs(got.value - ref) < mpf(10) ** (-48) * ref

    def test_bad_arguments(self, ctx30):
        with pytest.raises(DomainError):
            coeff_c(0, 1, 2, ctx30)
        with pytest.raises(DomainError):
            coeff_b(1, 0, 2, ctx30)
        with pytest.raises(DomainError):
            coeff_c(1, 1, 1, ctx30)
        for coeff in (coeff_c, coeff_b):
            for bad in NOT_INTS:
                for args in ((bad, 1, 2), (1, bad, 2), (1, 1, bad)):
                    with pytest.raises(DomainError):
                        coeff(*args, ctx30)


class TestRCorrection:
    @pytest.mark.parametrize("key,ref", sorted(R_REFERENCE.items()))
    def test_published_values(self, key, ref, ctx40):
        n, m = key
        r = r_correction(n, m, ctx40)
        with mp.workdps(ctx40.working_digits):
            expected = mpf(ref)
            assert abs(r.value.value - expected) <= mpf(10) ** (-6) * expected

    def test_positive_with_sane_tail(self, ctx40):
        for n in (1, 2, 3, 8, 19, 30):
            r = r_correction(n, 2, ctx40)
            assert r.value.value > 0
            assert r.tail_bound.value >= 0
            assert r.terms_used >= 1

    def test_tail_bound_is_honest(self):
        lo = PrecisionContext(digits=30)
        hi = PrecisionContext(digits=55)
        for n, m in [(1, 2), (2, 9), (7, 3), (24, 2)]:
            coarse = r_correction(n, m, lo)
            fine = r_correction(n, m, hi)
            with mp.workdps(90):
                assert abs(coarse.value.value - fine.value.value) <= (
                    coarse.tail_bound.value + mpf(10) ** (-43) * fine.value.value
                )

    @pytest.mark.parametrize("m", [2, 10**13, 10**40])
    @pytest.mark.parametrize("n", [1, 2, 5, 30])
    def test_tail_bound_covers_truncation(self, n, m, ctx30):
        # The terms past terms_used, rebuilt one by one at +40 digits from
        # the docstring formulas up to where a +40-digit run stops, must sum
        # to at most the reported tail bound.  The factor 1 + 10^-digits
        # admits only the bound's own rounding: at m = 2 it is tight to far
        # more digits than the working precision holds.
        r = r_correction(n, m, ctx30)
        fine = PrecisionContext(digits=ctx30.digits + 40)
        stop = r_correction(n, m, fine).terms_used
        with mp.workdps(fine.working_digits):
            dropped = _r_terms(n, m, range(r.terms_used + 1, stop + 1), fine)
            assert 0 < dropped <= r.tail_bound.value * (1 + mpf(10) ** (-ctx30.digits))

    def test_even_path_matches_direct_transcription(self, ctx40):
        # Independent rewrite of the n = 2 series: l = 1, c_k = 1, so
        # r_2 = (2 pi / ln m) * sum_k 2 k pi / sinh(2 k pi^2 / ln m).
        r = r_correction(2, 2, ctx40)
        with mp.workdps(ctx40.working_digits):
            lnm = mp.ln(2)
            s = mpf(0)
            for k in range(1, 40):
                s += 2 * k * mp.pi / mp.sinh(2 * k * mp.pi**2 / lnm)
            ref = 2 * mp.pi / lnm * s
            assert abs(r.value.value - ref) < mpf(10) ** (-50) * ref

    def test_n1_path_matches_direct_transcription(self, ctx40):
        r = r_correction(1, 3, ctx40)
        with mp.workdps(ctx40.working_digits):
            lnm = mp.ln(3)
            s = mpf(0)
            for k in range(1, 60):
                s += 2 * mp.pi / mp.cosh(2 * k * mp.pi**2 / lnm)
            assert abs(r.value.value - s) < mpf(10) ** (-48) * s

    def test_odd_path_matches_direct_transcription(self, ctx40):
        # n = 5 means l = 2; rebuild the sum from coeff_b directly.
        r = r_correction(5, 2, ctx40)
        with mp.workdps(ctx40.working_digits):
            lnm = mp.ln(2)
            s = mpf(0)
            for k in range(1, 40):
                bk = coeff_b(2, k, 2, ctx40).value
                s += bk * 2 * k * mp.pi / mp.cosh(2 * k * mp.pi**2 / lnm)
            ref = 2 * mp.pi / (lnm * 4) * s
            assert abs(r.value.value - ref) < mpf(10) ** (-48) * ref

    def test_unimodal_over_n(self, ctx30):
        values = [r_correction(n, 2, ctx30).value.value for n in range(3, 13)]
        for a, b in zip(values, values[1:]):
            if b <= a:
                # peak reached; must keep decreasing (checked in acceptance
                # over the full window, spot-checked here)
                idx = values.index(a)
                for c, d in zip(values[idx:], values[idx + 1:]):
                    assert d < c
                break

    def test_bad_arguments(self, ctx30):
        with pytest.raises(DomainError):
            r_correction(0, 2, ctx30)
        with pytest.raises(DomainError):
            r_correction(3, 1, ctx30)
        for route in (r_correction, predicted_correction, verify_identity):
            for bad in NOT_INTS:
                with pytest.raises(DomainError):
                    route(bad, 2, ctx30)
                with pytest.raises(DomainError):
                    route(3, bad, ctx30)


class TestPredictedCorrection:
    def test_matches_delta_within_tails(self, ctx40):
        for n, m in [(1, 2), (2, 2), (4, 4), (7, 3), (10, 2)]:
            u = u_direct(n, m, ctx40)
            pred = predicted_correction(n, m, ctx40)
            with mp.workdps(ctx40.working_digits):
                delta = u.value.value - target(n).to_real(ctx40).value
                gap = abs(delta - pred.value.value)
                assert gap <= (u.tail_bound.value + pred.tail_bound.value
                               + mpf(10) ** (-ctx40.digits))

    def test_anchor_cases_equal_bare_correction(self, ctx40):
        for n in (1, 2):
            pred = predicted_correction(n, 2, ctx40)
            bare = r_correction(n, 2, ctx40)
            assert pred.value.value == bare.value.value

    def test_chain_unrolls_one_step(self, ctx40):
        # pred(n) = r_n + (n-2)/(4(n-1)) pred(n-2), to 1e-50 relative: the
        # one series over k agrees with the chain summed one r_n at a time.
        for n in (3, 4, 17, 30):
            for m in (2, 10**13, 10**40):
                pred = predicted_correction(n, m, ctx40)
                rn = r_correction(n, m, ctx40)
                below = predicted_correction(n - 2, m, ctx40)
                with mp.workdps(ctx40.working_digits):
                    ref = rn.value.value + to_mpf(recurrence_factor(n)) * below.value.value
                    assert abs(pred.value.value - ref) < mpf(10) ** (-50) * ref, (n, m)

    @pytest.mark.parametrize("m", [2, 10**13, 10**40])
    @pytest.mark.parametrize("n", [5, 30])
    def test_terms_used_at_most_r_n(self, n, m, ctx30):
        # the lower columns of the chain decay faster than column n, so the
        # one series over k stops no later than r_n alone
        assert (predicted_correction(n, m, ctx30).terms_used
                <= r_correction(n, m, ctx30).terms_used)

    @pytest.mark.parametrize("m", [2, 10**13, 10**40])
    @pytest.mark.parametrize("n", [1, 2, 5, 30])
    def test_tail_bound_covers_truncation(self, n, m, ctx30):
        # As for r_correction: the k past terms_used, up to where a
        # +40-digit run stops, rebuilt one r_j term at a time and weighted by
        # the chain factors, must sum to at most the reported tail bound.
        pred = predicted_correction(n, m, ctx30)
        fine = PrecisionContext(digits=ctx30.digits + 40)
        ks = range(pred.terms_used + 1, predicted_correction(n, m, fine).terms_used + 1)
        with mp.workdps(fine.working_digits):
            dropped = _pred_terms(n, m, ks, fine)
            assert 0 < dropped <= pred.tail_bound.value * (1 + mpf(10) ** (-ctx30.digits))

    @pytest.mark.parametrize("n,m,chain", KERNEL_CELLS)
    def test_matches_column_by_column_transcription(self, n, m, chain, ctx30):
        # pred(n) (or r_n) against two references at 20 extra digits: r_n, or
        # sum_j F_j r_j, rebuilt k by k from coeff_c/coeff_b and
        # mp.sinh/mp.cosh, and the Poisson sum of mp.gamma at complex
        # arguments, which shares no formula with the integer product.
        # (200, 3) takes 99 offsets per term, from 1/199! ~ 2^-1238 up, with
        # the integer product renormalised at every offset.
        series, terms = (predicted_correction, KERNEL_TERMS) if chain else (r_correction, R_KERNEL_TERMS)
        got = series(n, m, ctx30)
        assert got.terms_used == terms[(n, m)]
        fine = PrecisionContext(digits=ctx30.digits + 20)
        ks = range(1, series(n, m, fine).terms_used + 1)
        with mp.workdps(fine.working_digits):
            transcribed = _pred_terms(n, m, ks, fine) if chain else _r_terms(n, m, ks, fine)
            for ref in (transcribed, _gamma_terms(n, m, ks, chain)):
                slack = got.tail_bound.value + mpf(10) ** (-ctx30.digits) * ref
                assert abs(got.value.value - ref) <= slack

    def test_term_cap_refuses_huge_base_before_summing(self, ctx30):
        # beta = 2 pi^2 / ln(10^30000) asks for ~3.6e5 terms, over the cap;
        # the message names the base by its 30001 digits, which str() refuses
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match=r"n=1 and a base of 30001 digits"):
            predicted_correction(1, 10**30000, ctx30)
        assert time.perf_counter() - start < 1

    def test_term_cap_refuses_large_n_on_huge_base_before_summing(self, ctx30):
        # beta = 2 pi^2 / ln(10^1000): rho < 1 needs k > (n-1)/beta - 1, about
        # 3.5e5 at n = 3000, where summing to the cap took over a minute
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match=r"needs over 349833 terms at n=3000"):
            predicted_correction(3000, 10**1000, ctx30)
        assert time.perf_counter() - start < 1


class TestRecurrence:
    def test_factor_values(self):
        assert recurrence_factor(3) == Fraction(1, 8)
        assert recurrence_factor(4) == Fraction(1, 6)
        assert recurrence_factor(10) == Fraction(2, 9)
        for n in (2, *NOT_INTS):
            with pytest.raises(DomainError):
                recurrence_factor(n)

    @pytest.mark.parametrize("n,m", [(3, 2), (10, 2), (4, 4), (17, 9)])
    def test_residual_tiny_at_50_digits(self, n, m, ctx50):
        res = check_recurrence(n, m, ctx50)
        with mp.workdps(80):
            assert abs(res.value) < mpf(10) ** (-40)

    def test_residual_shrinks_with_precision(self):
        # The residual is pure truncation noise, so at 80 digits it must be
        # far below the 50-digit threshold.
        res = check_recurrence(6, 3, PrecisionContext(digits=80))
        with mp.workdps(120):
            assert abs(res.value) < mpf(10) ** (-70)


class TestVerifyIdentity:
    def test_report_fields(self, ctx40):
        rep = verify_identity(4, 2, ctx40)
        assert isinstance(rep, IdentityReport)
        assert rep.n == 4 and rep.base_m == 2 and rep.digits == 40
        assert rep.target.q == Fraction(1, 6)
        assert rep.target.has_pi is False
        assert rep.passed is True
        assert leading_digits(rep.delta.value, 2) == (67, -10)
        with mp.workdps(60):
            assert abs(rep.residual.value) < mpf(10) ** (-30)

    @pytest.mark.parametrize(
        "n,m,expected",
        [(1, 4, (82, -6)), (1, 9, (15, -3)), (2, 4, (37, -5))],
    )
    def test_other_bases_match_published_deltas(self, n, m, expected, ctx30):
        rep = verify_identity(n, m, ctx30)
        assert rep.delta.value > 0
        assert leading_digits(rep.delta.value, 2) == expected
        assert rep.passed is True

    def test_n_over_cap_refused_before_any_sum(self, ctx30, monkeypatch):
        import almostid.series as series_mod

        def unreachable(*args):
            raise AssertionError("summed past the cap")

        monkeypatch.setattr(series_mod, "u_direct", unreachable)
        with pytest.raises(DomainError, match="n = 10001 is over the cap 10000"):
            verify_identity(10_001, 2, ctx30)


class TestPrecisionScaling:
    @given(n=st.integers(min_value=1, max_value=12),
           m=st.sampled_from([2, 3, 4, 9]))
    @settings(max_examples=12, deadline=None)
    def test_u_and_r_agree_across_contexts(self, n, m):
        lo = PrecisionContext(digits=30)
        hi = PrecisionContext(digits=40)
        ulo, uhi = u_direct(n, m, lo), u_direct(n, m, hi)
        rlo, rhi = r_correction(n, m, lo), r_correction(n, m, hi)
        with mp.workdps(80):
            assert abs(ulo.value.value - uhi.value.value) <= (
                mpf(10) ** (-30) * abs(uhi.value.value))
            assert abs(rlo.value.value - rhi.value.value) <= (
                mpf(10) ** (-30) * abs(rhi.value.value))


@pytest.mark.parametrize("series", [predicted_correction, r_correction])
def test_correction_series_refuse_n_over_cap(series, ctx30):
    # n = 10 001 would sum for about a second, and the cost grows as ~n^2
    with pytest.raises(DomainError,
                       match=f"n = 10001 is over the cap 10000 of {series.__name__}"):
        series(10_001, 2, ctx30)
