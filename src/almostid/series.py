"""Bilateral sums, exact targets, correction series, and recurrence checks.

The central objects: the base-m sum

    u_n(m) = ln(m) * sum_{k in Z} (m^{k/2} + m^{-k/2})^{-n},

its exact limit t_n (pi, 1, and the rational chain t_n = (n-2)/(4(n-1)) * t_{n-2}),
and the hyperbolic correction series r_n(m) whose chained accumulation pred(n)
equals u_n - t_n.  By Poisson summation u_n(m) is
sum_{k in Z} |Gamma(n/2 + i omega_k)|^2 / Gamma(n), omega_k = 2 pi k / ln m:
its k = 0 term is t_n = Gamma(n/2)^2 / Gamma(n), and the rest is pred(n), one
Gamma product per k.  The truncated sums u_direct, r_correction and
predicted_correction return a bound on their truncation tail.  The bound does
not cover rounding error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import ConvergenceError, DomainError
from .precision import (
    BigReal,
    ExactRational,
    ExactTarget,
    PrecisionContext,
    rational,
    to_mpf,
    within,
    wrap,
)

_MAX_TERMS = 200_000
# largest n verify_identity and the correction series take: the series costs
# ~n^2 per call, and past n ~ 14 280 the denominator of t_n has more than
# 4300 digits, which Python refuses to print
_MAX_N = 10_000


@dataclass(frozen=True)
class SeriesValue:
    """A truncated sum, a bound on its truncation tail, and term count."""

    value: BigReal
    tail_bound: BigReal
    terms_used: int


@dataclass(frozen=True)
class IdentityReport:
    """Full verification record for one (n, base) cell.

    ``r_predicted`` is the recurrence-chained correction
    pred(n) = r_n + (n-2)/(4(n-1)) * pred(n-2) down to the n=1 or n=2 anchor;
    that chain is what u_n - t_n equals exactly, so ``residual`` collapses to
    truncation noise when everything is consistent.  pred(n) is summed as one
    series over k, so its ``terms_used`` is the number of k summed, and its
    tail bound is that series' one bound.  ``passed`` is within(residual,
    bound), with bound the two tail bounds plus 10^(-digits).
    """

    n: int
    base_m: int
    u: SeriesValue
    target: ExactTarget
    delta: BigReal
    r_predicted: SeriesValue
    residual: BigReal
    bound: BigReal
    digits: int
    passed: bool


def _check_n(n, minimum=1):
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError(f"n must be an integer, got {n!r}")
    if n == 0:
        raise DomainError("n = 0 diverges: every bilateral term equals ln(m)")
    if n < minimum:
        raise DomainError(f"n must be >= {minimum}, got {n}")


def _check_base(base_m):
    if not isinstance(base_m, int) or isinstance(base_m, bool) or base_m < 2:
        raise DomainError(f"base must be an integer >= 2, got {base_m!r}")


def _digit_count(m):
    """Decimal digits of an int m >= 1, without str(m), which Python refuses
    past 4300 digits; math.log10 is within one of the count."""
    d = int(math.log10(m)) + 1
    return d + (m >= 10**d) - (m < 10 ** (d - 1))


def u_direct(n: int, base_m: int, ctx: PrecisionContext) -> SeriesValue:
    """Bilateral sum via the k <-> -k symmetry: ln(m)*(2^-n + 2*sum_{k>=1}).

    Truncation at K uses the geometric comparison
    (m^{k/2}+m^{-k/2})^{-n} < m^{-nk/2}, giving the tail bound
    2*ln(m)*m^{-nK/2}/(1 - m^{-n/2}).  A K over _MAX_TERMS raises
    ConvergenceError before any term is summed.
    """
    _check_n(n)
    _check_base(base_m)
    with mp.workdps(ctx.working_digits):
        tol = mpf(10) ** (-ctx.working_digits)
        lnm = mp.ln(mpf(base_m))
        rho = mpf(base_m) ** (-mpf(n) / 2)  # per-term geometric ratio bound

        def bound(k):
            return 2 * lnm * rho**k / (1 - rho)

        # closed-form estimate for K, then bump past rounding in the estimate
        est = (mp.ln(2 * lnm / (tol * (1 - rho)))) / ((mpf(n) / 2) * lnm)
        K = max(1, int(mp.ceil(est)))
        while bound(K) >= tol:
            K += 1
        if K > _MAX_TERMS:
            raise ConvergenceError(
                f"u_direct needs K = {K} terms at n={n}, m={base_m}, over the cap {_MAX_TERMS}")

        sqrt_m = mp.sqrt(mpf(base_m))
        p = mpf(1)  # m^{k/2}
        acc = mpf(0)
        for _ in range(K):
            p *= sqrt_m
            acc += (p + 1 / p) ** (-n)
        value = lnm * (mpf(2) ** (-n) + 2 * acc)
        return SeriesValue(wrap(value, ctx), wrap(bound(K), ctx), K + 1)


def target(n: int) -> ExactTarget:
    """Exact limit t_n: anchors t_1 = pi, t_2 = 1; t_n = (n-2)/(4(n-1))*t_{n-2}."""
    _check_n(n)
    q = rational(1)
    j = 1 if n % 2 else 2
    while j < n:
        j += 2
        q *= recurrence_factor(j)
    return ExactTarget(q=q, has_pi=(n % 2 == 1))


def _check_lk(l, k):
    if not isinstance(l, int) or isinstance(l, bool) or l < 1:
        raise DomainError(f"l must be an integer >= 1, got {l!r}")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise DomainError(f"k must be a positive integer, got {k!r}")


def coeff_c(l: int, k: int, base_m: int, ctx: PrecisionContext) -> BigReal:
    """Even-index coefficient prod_{j=0}^{l-2} (j^2 + w) / (2l-2)!, with
    w = (2 pi k / ln m)^2; l = 1 is the empty product, c_k = 1."""
    _check_lk(l, k)
    _check_base(base_m)
    with mp.workdps(ctx.working_digits):
        w = (2 * k * mp.pi / mp.ln(mpf(base_m))) ** 2
        prod = mpf(1)
        for j in range(l - 1):
            prod *= mpf(j) ** 2 + w
        return wrap(prod / math.factorial(2 * l - 2), ctx)


def coeff_b(l: int, k: int, base_m: int, ctx: PrecisionContext) -> BigReal:
    """Odd-index coefficient 2 pi k prod_{j=0}^{l-2} ((j+1/2)^2 + w) / (ln(m) (2l-1)!),
    with w = (2 pi k / ln m)^2; l = 1 is the empty product, b_k = 2 pi k / ln(m)."""
    _check_lk(l, k)
    _check_base(base_m)
    with mp.workdps(ctx.working_digits):
        lnm = mp.ln(mpf(base_m))
        w = (2 * k * mp.pi / lnm) ** 2
        prod = mpf(1)
        for j in range(l - 1):
            prod *= (j + mpf(1) / 2) ** 2 + w
        return wrap(2 * mp.pi * k * prod / (lnm * math.factorial(2 * l - 1)), ctx)


def _correction_series(n: int, base_m: int, ctx: PrecisionContext, chain: bool) -> SeriesValue:
    """Sum over k >= 1 of one integer product per term: pred(n) when chain
    is true, r_n otherwise.

    With omega_k = 2 pi k / ln m, w = omega_k^2 and beta = 2 pi^2 / ln m,
    |Gamma(z+1)|^2 = |z|^2 |Gamma(z)|^2 and DLMF 5.4.3-5.4.4 turn the k-th
    terms 2 |Gamma(n/2 + i omega_k)|^2 / (n-1)! of pred(n) and
    2 w |Gamma(n/2 - 1 + i omega_k)|^2 / (n-1)! of r_n (n >= 3) into

        2 k beta / sinh(k beta) * prod_d (d + w) / (n-1)!    (n even)
        2 pi / cosh(k beta) * prod_d (d + w) / (n-1)!        (n odd)

    over the offsets d = ((j-2)/2)^2, j = n, n-2, ... >= 3, for pred(n), and
    over those of pred(n-2) and d = 0 for r_n: floor((n-1)/2) offsets either
    way (r_1 = pred(1), r_2 = pred(2)).  The stopping rule and tail bound are
    r_correction's; the product is a polynomial of degree n - 1 in k with
    coefficients >= 0.

    The product runs on Python integers at bits = working bits + 32.  Once
    per call, c2 = floor((2 pi / ln m)^2 2^bits) and 1/(n-1)! are floored, the
    latter to about bits bits; w = c2 k^2 and every d are then exact at scale
    2^bits.  Each offset multiplies the product by d + w and shifts it back
    to bits bits: one floor, below 2^(1-bits) relative as every factor is
    >= 0.  The product then becomes an mpf, rounded once, and is multiplied
    in mpf by 8 pi^2 / ln m or 4 pi and by k q^k / (1 - q^(2k)) or
    q^k / (1 + q^(2k)), q = e^(-beta) carried by one multiplication per term.
    """
    name = "predicted_correction" if chain else "r_correction"
    if n > _MAX_N:
        raise DomainError(f"n = {n} is over the cap {_MAX_N} of {name}")
    even = n % 2 == 0
    with mp.workdps(ctx.working_digits):
        tol = mpf(10) ** (-ctx.working_digits)
        lnm = mp.ln(mpf(base_m))
        beta = 2 * mp.pi**2 / lnm
        q = mp.exp(-beta)
        bits = mp.prec + 32
        c2 = int((2 * mp.pi / lnm) ** 2 * 2**bits)  # floor(c2 2^bits)
        # 2 e^(-x) / (1 -+ e^(-2x)) is 1/sinh or 1/cosh; its 2 goes in scale
        scale = 8 * mp.pi**2 / lnm if even else 4 * mp.pi
        # every product starts from 1/(n-1)! = s0 2^-e0, floored once to ~bits bits
        f = math.factorial(n - 1)
        e0 = bits + f.bit_length()
        s0 = (1 << e0) // f
        # the offsets d = (h/2)^2 at scale 2^bits, h = j - 2 for j = n, n-2, ... >= 3;
        # r_n takes those of pred(n-2) and h = 0
        halves = list(range(n - 2 if chain else n - 4, 0, -2))
        if not chain and n > 2:
            halves.append(0)
        offsets = [h * h << (bits - 2) for h in halves]

        # e^(-k beta) < 10^(-working digits) needs k > working digits * ln 10 / beta
        # whatever the polynomial does, so a base that large is refused unsummed
        at = f"n={n} and a base of {_digit_count(base_m)} digits"
        # and the stop rule's rho < 1 needs (n-1) ln(1 + 1/k) < beta, so
        # k > (n-1)/beta - 1
        k_min = max(ctx.working_digits * mp.ln10 / beta, (n - 1) / beta - 1)
        if k_min > _MAX_TERMS:
            raise ConvergenceError(
                f"{name} needs over {int(k_min)} terms at {at}, over the cap {_MAX_TERMS}")

        partial = mpf(0)
        prev = None
        qk = mpf(1)
        k = 0
        while True:
            k += 1
            if k > _MAX_TERMS:
                raise ConvergenceError(f"{name} stalled at {at}, over the cap {_MAX_TERMS}")
            qk *= q
            w = c2 * (k * k)
            s, e = s0, -e0  # the product is s 2^e
            for d in offsets:
                s *= d + w
                x = s.bit_length() - bits
                s >>= x
                e += x - bits
            q2k = qk * qk
            s = scale * mpf((s, e))
            t = s * k * qk / (1 - q2k) if even else s * qk / (1 + q2k)
            partial += t
            if prev is not None and t < prev and t < tol * partial:
                rho = (mpf(k + 1) / k) ** (n - 1) * q * (1 + q2k)
                if rho < 1:
                    break
            prev = t
        return SeriesValue(wrap(partial, ctx), wrap(t * rho / (1 - rho), ctx), k)


def r_correction(n: int, base_m: int, ctx: PrecisionContext) -> SeriesValue:
    """Hyperbolic correction series r_n(m).

    n = 1:        sum_{k>=1} 2 pi / cosh(2 k pi^2 / ln m)
    n = 2l:       (2 pi/(ln m (n-1))) * sum_k c_k * 2 k pi / sinh(2 k pi^2 / ln m)
    n = 2l+1 >= 3:(2 pi/(ln m (n-1))) * sum_k b_k * 2 k pi / cosh(2 k pi^2 / ln m)

    Terms are positive: a polynomial of degree n - 1 in k times
    1/cosh(k beta) or 1/sinh(k beta), beta = 2 pi^2 / ln m.  For large n the
    polynomial factor makes them grow before decaying, so the stopping rule
    requires the term both below 10^(-working_digits) * partial and
    decreasing.  From the last term k on, each ratio of consecutive terms is
    at most rho = ((k+1)/k)^(n-1) e^(-beta) (1 + e^(-2 k beta)), which falls
    with k; summing goes on until rho < 1, and the tail is reported as the
    last term times rho/(1 - rho), a bound on the truncation for every base.

    The k-th term (n >= 3) is 2 w |Gamma(n/2 - 1 + i omega_k)|^2 / (n-1)!,
    omega_k = 2 pi k / ln m, w = omega_k^2: one integer product of d + w over
    d = 0 and ((j-2)/2)^2, j = n-2, n-4, ... >= 3 (see _correction_series),
    with floor((n-1)/2) floors below 2^(1-bits) relative and one mpf rounding.
    An n over _MAX_N is a DomainError, raised before any term is summed.
    """
    _check_n(n)
    _check_base(base_m)
    return _correction_series(n, base_m, ctx, chain=False)


def recurrence_factor(n: int) -> ExactRational:
    """Exact factor (n-2)/(4(n-1)) linking u_n to u_{n-2}."""
    _check_n(n, minimum=3)
    return rational(n - 2, 4 * (n - 1))


def predicted_correction(n: int, base_m: int, ctx: PrecisionContext) -> SeriesValue:
    """Chained correction pred(n) = r_n + (n-2)/(4(n-1)) * pred(n-2).

    Anchored at pred(1) = r_1, pred(2) = r_2; equals u_n - t_n exactly, so it
    is the quantity an identity report compares delta against.  All r_j of
    the chain run over the same k with the same 1/sinh or 1/cosh, so pred(n)
    is summed as one series over k, with r_correction's stopping rule and tail
    bound; ``terms_used`` is the number of k summed.

    By Poisson summation the k-th term is 2 |Gamma(n/2 + i omega_k)|^2 / (n-1)!,
    omega_k = 2 pi k / ln m: one integer product of d + omega_k^2 over
    d = ((j-2)/2)^2, j = n, n-2, ... >= 3 (see _correction_series), with
    floor((n-1)/2) floors below 2^(1-bits) relative and one mpf rounding.
    An n over _MAX_N is a DomainError, raised before any term is summed.
    """
    _check_n(n)
    _check_base(base_m)
    return _correction_series(n, base_m, ctx, chain=True)


def verify_identity(n: int, base_m: int, ctx: PrecisionContext) -> IdentityReport:
    """End-to-end check of u_n = t_n + chained correction for one cell.

    The report's ``bound`` is the two reported tail bounds plus a slack of
    10^(-digits), and it passes when |residual| <= bound.  The tail bounds
    count truncation only; the slack absorbs rounding.  An n over _MAX_N is
    a DomainError, raised before any sum.
    """
    _check_n(n)
    if n > _MAX_N:
        raise DomainError(f"n = {n} is over the cap {_MAX_N} of verify_identity")
    u = u_direct(n, base_m, ctx)
    pred = predicted_correction(n, base_m, ctx)
    tgt = target(n)
    with mp.workdps(ctx.working_digits):
        delta = u.value.value - tgt.to_real(ctx).value
        residual = wrap(delta - pred.value.value, ctx)
        bound = wrap(u.tail_bound.value + pred.tail_bound.value
                     + mpf(10) ** (-ctx.digits), ctx)
        return IdentityReport(n, base_m, u, tgt, wrap(delta, ctx), pred, residual, bound,
                              ctx.digits, within(residual, bound))


def check_recurrence(n: int, base_m: int, ctx: PrecisionContext) -> BigReal:
    """Residual of u_n - (n-2)/(4(n-1)) * u_{n-2} - r_n; tiny when all agree.

    The three series are evaluated with extra internal guard digits.  Tail
    bounds reported at ctx are pure truncation bounds, and for fast-converging
    cells they can drop below the rounding floor of ctx-level arithmetic; the
    elevated evaluation keeps the returned residual dominated by how well the
    three formulas actually agree, so its magnitude sits under the ctx-level
    bounds whenever they do."""
    _check_n(n, minimum=3)
    _check_base(base_m)
    fine = PrecisionContext(digits=ctx.digits + 40)
    un = u_direct(n, base_m, fine)
    un2 = u_direct(n - 2, base_m, fine)
    rn = r_correction(n, base_m, fine)
    with mp.workdps(fine.working_digits):
        a = to_mpf(recurrence_factor(n))
        residual = un.value.value - a * un2.value.value - rn.value.value
    return wrap(residual, ctx)

