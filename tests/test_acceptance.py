"""Acceptance suite: the ten numbered checks the package must satisfy.

Each test prints exactly one line

    ACCEPTANCE <id>: PASS|FAIL - <what was checked>

outside pytest's capture, so the lines appear on every run.  Check 9 has
three independent clauses and is split into 9a/9b/9c so each clause reports
its own line.

9c is EXPECTED TO FAIL and is red on purpose: the rounding identity
round(n!/(2 ln(2)^{n+1})) = a(n) is genuinely false at n = 17, where the
quotient lands 0.542 below the ordered Bell number (the neglected
conjugate-pole pair of the generating function crosses 1/2 between n = 16
and n = 17).  The check is asserted exactly as stated rather than weakened
to n <= 16; the build ledger holds the full blocking analysis.
"""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from almostid import (
    ConvergenceError,
    FUNCTION_GRID,
    PrecisionContext,
    borwein_sum,
    check_recurrence,
    coeff_b,
    coeff_c,
    const_pi,
    dual_check,
    elem,
    g_direct,
    g_expansion,
    harmonic_factor_check,
    hickerson,
    lemma_check,
    mellin_check,
    mellin_closed,
    mellin_numeric,
    misc_constant,
    ordered_bell,
    predicted_correction,
    r_correction,
    ramanujan_constant,
    recurrence_factor,
    target,
    u_direct,
    verify_identity,
)
from almostid.precision import to_mpf
from conftest import leading_digits

# Published leading-two-digit deltas u_n - t_n for base 2, n = 1..6,
# as (mantissa, exponent-of-leading-digit) pairs.
BASE2_TABLE = {
    1: (53, -12), 2: (48, -11), 3: (22, -10),
    4: (67, -10), 5: (15, -9), 6: (29, -9),
}

# Published correction values at base 2 (all printed digits; rel tol 1e-6).
R_TABLE = {1: "0.538914478e-11", 2: "0.4885108992e-10", 10: "0.7227399e-8"}

# Published base-m deltas as (n, m) -> leading two digits.
BASEM_TABLE = {(1, 4): (82, -6), (1, 9): (15, -3), (2, 4): (37, -5)}

# Published nearest integers and leading-three-digit gaps for exp(pi sqrt d).
RAMANUJAN_TABLE = {
    37: (199148648, (219, -5)),
    58: (24591257752, (177, -7)),
    163: (262537412640768744, (749, -13)),
}


def _report(capsys, tag, label, ok):
    with capsys.disabled():
        print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {label}", flush=True)


def test_criterion_1_base2_delta_table(capsys):
    ctx = PrecisionContext(digits=30)
    failures = []
    for n, expected in sorted(BASE2_TABLE.items()):
        u = u_direct(n, 2, ctx)
        with mp.workdps(ctx.working_digits):
            delta = u.value.value - target(n).to_real(ctx).value
        got = leading_digits(delta, 2)
        if got != expected:
            failures.append((n, got, expected))
    _report(capsys, 1, "base-2 deltas for n = 1..6 match the published table "
                       "to 2 leading digits at 30 digits", not failures)
    assert not failures, failures


def test_criterion_2_correction_reference_values(capsys):
    ctx = PrecisionContext(digits=40)
    failures = []
    with mp.workdps(ctx.working_digits):
        for n, text in sorted(R_TABLE.items()):
            got = r_correction(n, 2, ctx).value.value
            ref = mpf(text)
            if not abs(got - ref) <= mpf(10) ** (-6) * ref:
                failures.append((n, mp.nstr(got, 12), text))
    _report(capsys, 2, "correction series r_1, r_2, r_10 at base 2 match the "
                       "printed values to relative 1e-6", not failures)
    assert not failures, failures


def test_criterion_3_recurrence_residuals(capsys):
    ctx = PrecisionContext(digits=50)
    failures = []
    for m in (2, 3, 4, 9):
        for n in range(3, 31):
            res = check_recurrence(n, m, ctx)
            un = u_direct(n, m, ctx)
            un2 = u_direct(n - 2, m, ctx)
            rn = r_correction(n, m, ctx)
            with mp.workdps(ctx.working_digits):
                a = to_mpf(recurrence_factor(n))
                combined = (un.tail_bound.value + a * un2.tail_bound.value
                            + rn.tail_bound.value)
                if not (abs(res.value) < combined and abs(res.value) < mpf(10) ** (-40)):
                    failures.append((n, m, mp.nstr(res.value, 6), mp.nstr(combined, 6)))
    _report(capsys, 3, "recurrence residual below combined tail bounds and "
                       "1e-40 at 50 digits for n = 3..30, m in {2,3,4,9}",
            not failures)
    assert not failures, failures


def test_criterion_4_correction_monotonicity(capsys):
    ctx = PrecisionContext(digits=40)
    r = {n: r_correction(n, 2, ctx).value.value for n in range(1, 31)}
    ok = all(r[n] < r[n + 1] for n in range(3, 10))
    ok = ok and all(r[n] > r[n + 1] for n in range(10, 30))
    ok = ok and all(0 < r[n] <= r[10] for n in range(1, 31))
    _report(capsys, 4, "r_n at base 2 rises on 3..10, falls on 10..30, and "
                       "stays in (0, r_10] on 1..30", ok)
    assert ok


def test_criterion_5_base_m_deltas(capsys):
    ctx = PrecisionContext(digits=30)
    failures = []
    for (n, m), expected in sorted(BASEM_TABLE.items()):
        rep = verify_identity(n, m, ctx)
        got = leading_digits(rep.delta.value, 2)
        if got != expected or rep.delta.value <= 0:
            failures.append((n, m, got, expected))
    _report(capsys, 5, "base-4 and base-9 deltas match the published values "
                       "to 2 leading digits at 30 digits", not failures)
    assert not failures, failures


def test_criterion_6_transform_grid(capsys):
    ctx = PrecisionContext(digits=30)
    bound = mpf(10) ** (-25)
    failures = []
    for fid in FUNCTION_GRID:
        for s in (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)):
            check = mellin_check(fid, s, ctx)
            with mp.workdps(60):
                if not check.abs_err.value < bound:
                    failures.append(("transform", fid, str(s),
                                     mp.nstr(check.abs_err.value, 6)))
    for fid in ("g1", "g2"):
        err = harmonic_factor_check(fid, Fraction(1, 4), ctx).abs_err
        with mp.workdps(60):
            if not err.value < bound:
                failures.append(("harmonic", fid, "1/4", mp.nstr(err.value, 6)))
    _report(capsys, 6, "quadrature matches closed transforms below 1e-25 on "
                       "the 7x3 grid, and the dilate-sum factor checks for "
                       "g1, g2 at s = 1/4", not failures)
    assert not failures, failures


def test_criterion_7_dual_representations(capsys):
    ctx = PrecisionContext(digits=30)
    bound = mpf(10) ** (-25)
    failures = []
    for n in (1, 2):
        for x in ("0.1", "0.2", "0.3", "0.45"):
            check = dual_check(n, x, ctx)
            with mp.workdps(60):
                if not check.abs_err.value < bound:
                    failures.append((n, x, mp.nstr(check.abs_err.value, 6)))
    _report(capsys, 7, "direct dilate sums match residue expansions below "
                       "1e-25 for n in {1,2}, x in {0.1,0.2,0.3,0.45}",
            not failures)
    assert not failures, failures


def test_criterion_8_lemma_grid(capsys):
    ctx = PrecisionContext(digits=30)
    failures = []
    with mp.workdps(ctx.working_digits):
        h = mpf(10) ** (-mpf(ctx.digits) / 3)
        bound = 10 * h * h
    for n in (3, 4, 6, 10):
        for k in (0, 1, 4):
            for u in ("0", "2.5"):
                res = lemma_check(n, k, u, ctx).residual
                half = lemma_check(n, k, u, ctx, h=h / 2).residual
                with mp.workdps(60):
                    ratio = res.value / half.value
                    if not (res.value < bound and 2 < ratio < 8):
                        failures.append((n, k, u, mp.nstr(res.value, 6),
                                         mp.nstr(ratio, 6)))
    _report(capsys, 8, "finite-difference residual below 10 h^2 with the "
                       "expected 4x shrink under h halving across the "
                       "4x3x2 grid", not failures)
    assert not failures, failures


def test_criterion_9a_heegner_gaps(capsys):
    ctx = PrecisionContext(digits=50)
    failures = []
    for d, (ref, lead3) in sorted(RAMANUJAN_TABLE.items()):
        entry = ramanujan_constant(d, ctx)
        got = leading_digits(entry.delta.value, 3)
        if entry.reference != ref or got != lead3 or entry.delta.value >= 0:
            failures.append((d, entry.reference, got))
    _report(capsys, "9a", "exp(pi sqrt d) gaps match the published integers "
                          "and 3-digit deltas at 50 digits", not failures)
    assert not failures, failures


def test_criterion_9b_theta_sum(capsys):
    failures = []
    for digits in (100, 1000):
        entry = borwein_sum(PrecisionContext(digits=digits))
        with mp.workdps(digits + 30):
            if not abs(entry.delta.value) < mpf(10) ** (-digits):
                failures.append(digits)
    _report(capsys, "9b", "theta sum stays within 1e-D of 100 sqrt(pi/ln 10) "
                          "for D in {100, 1000}", not failures)
    assert not failures, failures


def test_criterion_9c_factorial_quotient_rounding(capsys):
    ctx = PrecisionContext(digits=50)
    mismatches = []
    for n in range(1, 18):
        try:
            entry = hickerson(n, ctx)
            if int(mp.nint(entry.value.value)) != ordered_bell(n):
                mismatches.append((n, "rounded away from the oracle"))
        except ConvergenceError as exc:
            mismatches.append((n, str(exc)))
    _report(capsys, "9c", "round(n!/(2 ln(2)^{n+1})) equals the ordered Bell "
                          "number for every n = 1..17", not mismatches)
    # Red on purpose: the identity is false at n = 17 (quotient - a(17) is
    # about -0.542, so rounding gives a(17) - 1).  Asserted as stated; see
    # the module docstring and the build ledger.
    assert not mismatches, mismatches


def _pairs(digits):
    """All public numeric results computed at ``digits``, keyed for
    comparison across precisions.

    Two kinds: 'value' entries must agree relatively; 'diff' entries are
    differences of nearly equal quantities (deltas, residuals, abs errors),
    whose information is their smallness, so they must agree absolutely at
    the scale of their parent values.  Excluded, with reasons: tail bounds
    and term counts (precision-driven control outputs, not numeric results),
    ordered_bell and integer references (exact integers), lemma_check under
    the default step (h itself varies with the context, so values at
    different digits measure different things; a pinned h is included
    instead), and the Heegner entries below their 40-digit domain floor
    (covered at D = 50).
    """
    ctx = PrecisionContext(digits=digits)
    out = {}

    def value(key, v):
        out[key] = ("value", to_mpf(v), mpf(1))

    def diff(key, v, scale):
        out[key] = ("diff", to_mpf(v), to_mpf(scale))

    value("pi", const_pi(ctx))
    value("exp(0.37)", elem("exp", "0.37", ctx))
    u4 = u_direct(4, 2, ctx)
    value("u(4,2)", u4.value)
    value("t5", target(5).to_real(ctx))
    value("c(3,2)", coeff_c(3, 2, 2, ctx))
    value("b(2,1)", coeff_b(2, 1, 2, ctx))
    value("r(10,2)", r_correction(10, 2, ctx).value)
    value("pred(6,2)", predicted_correction(6, 2, ctx).value)
    rep = verify_identity(4, 2, ctx)
    diff("delta(4,2)", rep.delta, abs(u4.value.value))
    diff("residual(4,2)", rep.residual, abs(u4.value.value))
    diff("recur(5,2)", check_recurrence(5, 2, ctx), 1)
    value("closed(g1,3/8)", mellin_closed("g1", Fraction(3, 8), ctx))
    value("numeric(g2,1/4)", mellin_numeric("g2", Fraction(1, 4), ctx))
    mc = mellin_check("fn4", Fraction(1, 4), ctx)
    diff("abs_err(fn4,1/4)", mc.abs_err, abs(mc.closed.value))
    diff("harmonic(g2,1/4)", harmonic_factor_check("g2", Fraction(1, 4), ctx).abs_err, 1)
    value("G1(0.3)", g_direct(1, "0.3", ctx).value)
    value("E2(0.3)", g_expansion(2, "0.3", ctx).value)
    diff("dual(1,0.2)", dual_check(1, "0.2", ctx).abs_err, 1)
    diff("lemma(4,1,2.5)", lemma_check(4, 1, "2.5", ctx, h="1e-10").residual, 1)
    tri = misc_constant("triangle_l", ctx)
    value("triangle", tri.value)
    diff("triangle.delta", tri.delta, abs(tri.value.value))
    epi = misc_constant("e_pi_minus_pi", ctx)
    value("e_pi", epi.value)
    diff("e_pi.delta", epi.delta, abs(epi.value.value))
    bor = borwein_sum(ctx)
    value("borwein", bor.value)
    diff("borwein.delta", bor.delta, abs(bor.value.value))
    hick = hickerson(5, ctx)
    value("hickerson5", hick.value)
    diff("hickerson5.delta", hick.delta, abs(hick.value.value))
    if digits >= 40:
        ram = ramanujan_constant(163, ctx)
        value("ramanujan163", ram.value)
        diff("ramanujan163.delta", ram.delta, abs(ram.value.value))
    return out


def test_criterion_10_precision_scaling(capsys):
    failures = []
    for digits in (30, 50):
        lo = _pairs(digits)
        hi = _pairs(digits + 10)
        for key, (kind, lo_v, scale) in sorted(lo.items()):
            if key not in hi:
                continue
            _, hi_v, _ = hi[key]
            with mp.workdps(120):
                gap = abs(lo_v - hi_v)
                allowed = (mpf(10) ** (-digits) * abs(hi_v) if kind == "value"
                           else mpf(10) ** (-digits) * max(mpf(1), scale))
                if not gap <= allowed:
                    failures.append((digits, key, mp.nstr(gap, 6),
                                     mp.nstr(allowed, 6)))
    _report(capsys, 10, "public numeric results at D and D+10 digits agree "
                        "to at least D digits for D in {30, 50}", not failures)
    assert not failures, failures
