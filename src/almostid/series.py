"""Bilateral sums, exact targets, correction series, and recurrence checks.

The central objects: the base-m sum

    u_n(m) = ln(m) * sum_{k in Z} (m^{k/2} + m^{-k/2})^{-n},

its exact limit t_n (pi, 1, and the rational chain t_n = (n-2)/(4(n-1)) * t_{n-2}),
and the hyperbolic correction series r_n(m) whose chained accumulation pred(n)
equals u_n - t_n.  By Poisson summation u_n(m) is
sum_{k in Z} |Gamma(n/2 + i omega_k)|^2 / Gamma(n), omega_k = 2 pi k / ln m:
its k = 0 term is t_n = Gamma(n/2)^2 / Gamma(n), and the rest is pred(n), one
Gamma product per k.

Every series here and in mellin stops by the one rule of _ratio_sum: at the
first term t_k at most 10^(-working digits) times the running sum whose
ratio bound rho_k is below 1, with tail |t_k| rho_k/(1 - rho_k).  u_direct takes
rho_k = m^{-n/2} (1 + m^{-k})^n, r_correction and predicted_correction
((k+1)/k)^(n-1) e^(-beta) (1 + e^(-2 k beta)).  Tails omit rounding error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count

from mpmath import mp, mpf

from .errors import ConvergenceError, DomainError
from .precision import (
    BigReal,
    ExactRational,
    ExactTarget,
    PrecisionContext,
    rational,
    require_int,
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


def _ratio_sum(terms, ratio, ctx: PrecisionContext, name: str) -> SeriesValue:
    """Sum t_1, t_2, ... from ``terms`` up to the first t_k with
    |t_k| <= 10^(-working digits) |t_1 + ... + t_k| and rho = ratio(k, t_k) < 1.

    rho must bound every later |t_{j+1}/t_j|, so the tail |t_k| rho/(1 - rho)
    bounds the dropped terms (complex ones by modulus).  ratio runs only once
    the first test passes, while ``terms`` waits after t_k, and may read its
    state.  Past _MAX_TERMS terms: ConvergenceError.  Runs at the active precision.
    """
    tol = mpf(10) ** (-ctx.working_digits)
    # log2 |x| > mp.mag(x) - 3: a term gap above the sum in mp.mag fails the test
    gap = mp.mag(tol) + 4
    partial = mpf(0)
    for k, t in zip(range(1, _MAX_TERMS + 1), terms):
        partial += t
        if mp.mag(t) - mp.mag(partial) < gap and abs(t) <= tol * abs(partial):
            rho = ratio(k, t)
            if rho < 1:
                return SeriesValue(wrap(partial, ctx), wrap(abs(t) * rho / (1 - rho), ctx), k)
    raise ConvergenceError(f"{name} stalled, over the cap {_MAX_TERMS}")


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
    if require_int(n, "n") == 0:
        raise DomainError("n = 0 diverges: every bilateral term equals ln(m)")
    require_int(n, "n", minimum)


def _digit_count(m):
    """Decimal digits of an int m >= 1, without str(m), which Python refuses
    past 4300 digits; math.log10 is within one of the count."""
    d = int(math.log10(m)) + 1
    return d + (m >= 10**d) - (m < 10 ** (d - 1))


def u_direct(n: int, base_m: int, ctx: PrecisionContext) -> SeriesValue:
    """Bilateral sum via the k <-> -k symmetry: 2 ln(m) sum_{k>=0} t_k, with
    t_0 = 2^(-n-1) and t_k = c_k^(-n), c_k = m^{k/2} + m^{-k/2}, stopped at
    the first t_k <= 10^(-working digits) times the running sum with rho_k < 1.

    rho_k = m^{-n/2} (1 + m^{-k})^n: t_{j+1}/t_j = m^{-n/2} ((1 + m^{-j})/
    (1 + m^{-j-1}))^n < rho_j, which falls with j; the true ratio exceeds
    m^{-n/2}, which alone bounds no tail.  c_{k+1} = c_1 c_k - c_{k-1} carries
    c_k with no division, at about half a unit of rounding per term.  A K
    with m^{-nK/2} = 10^(-working digits) t_0 over _MAX_TERMS is refused.
    """
    _check_n(n)
    require_int(base_m, "base", 2)
    with mp.workdps(ctx.working_digits):
        lnm = mp.ln(mpf(base_m))
        K = int(mp.ceil(((n + 1) * mp.ln2 + ctx.working_digits * mp.ln10) / (n * lnm / 2)))
        if K > _MAX_TERMS:
            raise ConvergenceError(
                f"u_direct needs K = {K} terms at n={n}, m={base_m}, over the cap {_MAX_TERMS}")

        sqrt_m = mp.sqrt(mpf(base_m))
        c1 = sqrt_m + 1 / sqrt_m

        def terms():
            yield mpf(2) ** (-n - 1)
            prev, c = mpf(2), c1
            while True:
                yield c**-n
                prev, c = c, c1 * c - prev

        # the k-th term of the stream is t_{k-1}
        total = _ratio_sum(terms(), lambda k, t: ((1 + mpf(base_m) ** (1 - k)) / sqrt_m) ** n,
                           ctx, "u_direct")
        return SeriesValue(wrap(2 * lnm * total.value.value, ctx),
                           wrap(2 * lnm * total.tail_bound.value, ctx), total.terms_used)


def target(n: int) -> ExactTarget:
    """Exact limit t_n: anchors t_1 = pi, t_2 = 1; t_n = (n-2)/(4(n-1))*t_{n-2}."""
    _check_n(n)
    q = rational(1)
    j = 1 if n % 2 else 2
    while j < n:
        j += 2
        q *= recurrence_factor(j)
    return ExactTarget(q=q, has_pi=(n % 2 == 1))


def coeff_c(l: int, k: int, base_m: int, ctx: PrecisionContext) -> BigReal:
    """Even-index coefficient prod_{j=0}^{l-2} (j^2 + w) / (2l-2)!, with
    w = (2 pi k / ln m)^2; l = 1 is the empty product, c_k = 1."""
    require_int(l, "l", 1)
    require_int(k, "k", 1)
    require_int(base_m, "base", 2)
    with mp.workdps(ctx.working_digits):
        w = (2 * k * mp.pi / mp.ln(mpf(base_m))) ** 2
        prod = mpf(1)
        for j in range(l - 1):
            prod *= mpf(j) ** 2 + w
        return wrap(prod / math.factorial(2 * l - 2), ctx)


def coeff_b(l: int, k: int, base_m: int, ctx: PrecisionContext) -> BigReal:
    """Odd-index coefficient 2 pi k prod_{j=0}^{l-2} ((j+1/2)^2 + w) / (ln(m) (2l-1)!),
    with w = (2 pi k / ln m)^2; l = 1 is the empty product, b_k = 2 pi k / ln(m)."""
    require_int(l, "l", 1)
    require_int(k, "k", 1)
    require_int(base_m, "base", 2)
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
    way (r_1 = pred(1), r_2 = pred(2)).  The ratio bound and tail are
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

        qk = mpf(1)  # q^k of the last term, read by the ratio bound

        def terms():
            nonlocal qk
            for k in count(1):
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
                yield s * k * qk / (1 - q2k) if even else s * qk / (1 + q2k)

        return _ratio_sum(terms(), lambda k, t: (mpf(k + 1) / k) ** (n - 1) * q * (1 + qk * qk),
                          ctx, f"{name} at {at}")


def r_correction(n: int, base_m: int, ctx: PrecisionContext) -> SeriesValue:
    """Hyperbolic correction series r_n(m).

    n = 1:        sum_{k>=1} 2 pi / cosh(2 k pi^2 / ln m)
    n = 2l:       (2 pi/(ln m (n-1))) * sum_k c_k * 2 k pi / sinh(2 k pi^2 / ln m)
    n = 2l+1 >= 3:(2 pi/(ln m (n-1))) * sum_k b_k * 2 k pi / cosh(2 k pi^2 / ln m)

    Terms are positive: a polynomial of degree n - 1 in k times 1/cosh(k beta)
    or 1/sinh(k beta), beta = 2 pi^2 / ln m; for large n they grow before
    decaying.  From term j to j + 1 the polynomial grows by at most
    ((j+1)/j)^(n-1) and 1/cosh or 1/sinh by at most e^(-beta) (1 + e^(-2 j beta));
    both fall with j, so _ratio_sum's rho_k = ((k+1)/k)^(n-1) e^(-beta)
    (1 + e^(-2 k beta)) bounds every later ratio, the tail every truncation.

    The k-th term (n >= 3) is 2 w |Gamma(n/2 - 1 + i omega_k)|^2 / (n-1)!,
    omega_k = 2 pi k / ln m, w = omega_k^2: one integer product of d + w over
    d = 0 and ((j-2)/2)^2, j = n-2, n-4, ... >= 3 (see _correction_series),
    with floor((n-1)/2) floors below 2^(1-bits) relative and one mpf rounding.
    An n over _MAX_N is a DomainError, raised before any term is summed.
    """
    _check_n(n)
    require_int(base_m, "base", 2)
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
    require_int(base_m, "base", 2)
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
    require_int(base_m, "base", 2)
    fine = PrecisionContext(digits=ctx.digits + 40)
    un = u_direct(n, base_m, fine)
    un2 = u_direct(n - 2, base_m, fine)
    rn = r_correction(n, base_m, fine)
    with mp.workdps(fine.working_digits):
        a = to_mpf(recurrence_factor(n))
        residual = un.value.value - a * un2.value.value - rn.value.value
    return wrap(residual, ctx)

