"""The one verdict rule: every check record carries the bound its residual is
held to, and its ``passed`` is ``within(residual, bound)``, |residual| <= bound
with abs taken at the residual's own precision."""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from almostid import (
    BigReal,
    DomainError,
    borwein_sum,
    dual_check,
    harmonic_factor_check,
    hickerson,
    lemma_check,
    mellin_check,
    misc_constant,
    ramanujan_constant,
    verify_identity,
    within,
)
from almostid.mellin import lemma_step


def test_within_takes_abs_at_the_residual_precision():
    with mp.workprec(53):
        bound = mpf(10) ** -40
    with mp.workdps(70):
        residual = -(bound + bound * mpf(2) ** -70)  # exact: 123 bits
    with mp.workprec(53):
        assert abs(residual) <= bound  # abs rounds onto the bound
    assert not within(BigReal(residual, 70), BigReal(bound, 70))
    assert within(BigReal(-bound, 70), BigReal(bound, 70))


def test_identity_bound_is_tails_plus_slack(ctx30):
    report = verify_identity(4, 2, ctx30)
    with mp.workdps(ctx30.working_digits):
        tails = report.u.tail_bound.value + report.r_predicted.tail_bound.value
        assert report.bound.value == tails + mpf(10) ** -30
    assert report.passed == within(report.residual, report.bound)
    assert report.passed


@pytest.mark.parametrize("check", [
    lambda ctx: mellin_check("g1", Fraction(1, 4), ctx),
    lambda ctx: harmonic_factor_check("g2", Fraction(1, 4), ctx),
    lambda ctx: dual_check(1, "0.3", ctx),
], ids=["mellin", "harmonic", "dual"])
def test_quadrature_and_dual_bound_is_pass_threshold(check, ctx30):
    record = check(ctx30)
    with mp.workdps(ctx30.working_digits):
        assert record.bound.value == mpf(10) ** -25
    assert record.passed == within(record.abs_err, record.bound)
    assert record.passed


def test_harmonic_record_has_no_numeric_or_closed(ctx30):
    record = harmonic_factor_check("g2", Fraction(1, 4), ctx30)
    assert (record.kind, record.numeric, record.closed) == ("harmonic", None, None)
    assert mellin_check("g2", Fraction(1, 4), ctx30).kind == "transform"


@pytest.mark.parametrize("h", [None, "1e-6"])
def test_lemma_bound_is_ten_h_squared(h, ctx30):
    record = lemma_check(4, 1, "2.5", ctx30, h=h)
    with mp.workdps(ctx30.working_digits):
        step = lemma_step(ctx30) if h is None else mpf(h)
        assert record.h.value == step
        assert record.bound.value == 10 * step**2
    assert record.passed == within(record.residual, record.bound)
    assert record.passed
    assert record.u == "2.5"


def test_lemma_refuses_terms_below_the_bound(ctx30):
    # with h = 0.01 the bound is 1e-3: at n = 10, k = 4, u = 0 every term is
    # about p^8 = (4/17)^8 = 9.39e-6, so no residual could fail the row
    assert lemma_check(3, 0, "0", ctx30, h="0.01").passed  # p = 1/2
    with pytest.raises(DomainError, match=r"p\^\(n-2\) = 9\.39e-6, are below"):
        lemma_check(10, 4, "0", ctx30, h="0.01")


GALLERY = {
    "borwein": (borwein_sum, lambda: mpf(10) ** -50),
    "hickerson16": (lambda ctx: hickerson(16, ctx), lambda: mpf(1) / 2),
    "ramanujan163": (lambda ctx: ramanujan_constant(163, ctx), lambda: mp.inf),
    "triangle_l": (lambda ctx: misc_constant("triangle_l", ctx), lambda: mp.inf),
    "e_pi_minus_pi": (lambda ctx: misc_constant("e_pi_minus_pi", ctx), lambda: mp.inf),
}


@pytest.mark.parametrize("item", GALLERY)
def test_gallery_bound(item, ctx50):
    # borwein holds to 10^-digits and hickerson to 1/2; the rest claim no bound
    entry, bound = GALLERY[item]
    result = entry(ctx50)
    with mp.workdps(ctx50.working_digits):
        assert result.bound.value == bound()
    assert result.passed == within(result.delta, result.bound)
    assert result.passed
