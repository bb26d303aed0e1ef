"""Famous almost-identities as high-precision fixtures with exact oracles.

Each entry pairs a computed value with the nearby "nice" quantity (an integer,
a surd, or a closed form) and reports the tiny gap between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from mpmath import mp, mpf

from .errors import ConvergenceError, DomainError
from .precision import GUARD_DIGITS, BigReal, PrecisionContext, require_int, within, wrap

_RAMANUJAN_D = (37, 58, 163)
_BORWEIN_DIGIT_CAP = 2000
_HICKERSON_MAX = 17

# the catalogue's item ids, in report order
NAMED = (*(f"ramanujan{d}" for d in _RAMANUJAN_D), "triangle_l", "e_pi_minus_pi", "borwein")
HICKERSON = tuple(f"hickerson{n}" for n in range(1, _HICKERSON_MAX + 1))


@dataclass(frozen=True)
class GalleryEntry:
    """delta = value - reference, ``passed`` = within(delta, bound): bound is
    10^(-digits) for borwein, 1/2 for hickerson, +inf where none is claimed yet."""

    id: str
    description: str
    value: BigReal
    reference: Union[BigReal, int]
    delta: BigReal
    digits: int
    bound: BigReal
    passed: bool


def entry(item: str, ctx: PrecisionContext) -> GalleryEntry:
    """The entry of one NAMED or HICKERSON item id."""
    if item not in NAMED + HICKERSON:
        raise DomainError(f"unknown gallery item {item!r}")
    if item.startswith("ramanujan"):
        return ramanujan_constant(int(item[len("ramanujan"):]), ctx)
    if item.startswith("hickerson"):
        return hickerson(int(item[len("hickerson"):]), ctx)
    if item == "borwein":
        return borwein_sum(ctx)
    return misc_constant(item, ctx)


def _entry(id, description, value, reference, ctx, bound=mp.inf) -> GalleryEntry:
    """value against reference, an exact int or an mpf, with delta =
    value - reference held to bound; called under ctx's working precision."""
    delta = wrap(value - reference, ctx)
    bound = wrap(bound, ctx)
    if not isinstance(reference, int):
        reference = wrap(reference, ctx)
    return GalleryEntry(id, description, wrap(value, ctx), reference, delta, ctx.digits, bound,
                        within(delta, bound))


def ramanujan_constant(d: int, ctx: PrecisionContext) -> GalleryEntry:
    """exp(pi*sqrt(d)) against its nearest integer for d in {37, 58, 163}.

    The 163 gap is ~1e-12 on a 17-digit integer, so fewer than ~31 digits
    cannot even see it; the operation requires digits >= 40 for headroom.
    """
    if d not in _RAMANUJAN_D:
        raise DomainError(f"supported discriminants are {_RAMANUJAN_D}, got {d!r}")
    if ctx.digits < 40:
        raise DomainError(f"ramanujan entries need digits >= 40, got {ctx.digits}")
    with mp.workdps(ctx.working_digits):
        value = mp.exp(mp.pi * mp.sqrt(mpf(d)))
        return _entry(f"ramanujan{d}", f"exp(pi*sqrt({d})) vs nearest integer",
                      value, int(mp.nint(value)), ctx)


def misc_constant(id: str, ctx: PrecisionContext) -> GalleryEntry:
    """triangle_l: (1/30)(2 + 4 sqrt2 + (4+sqrt2) ln(1+sqrt2)) vs sqrt2 - 1;
    e_pi_minus_pi: e^pi - pi vs 20.

    ln(1+sqrt2) is arcsinh(1), written with ln to stay on the core backend.
    """
    with mp.workdps(ctx.working_digits):
        if id == "triangle_l":
            rt2 = mp.sqrt(mpf(2))
            value = (2 + 4 * rt2 + (4 + rt2) * mp.ln(1 + rt2)) / 30
            reference = rt2 - 1
            description = "mean chord length constant vs sqrt(2)-1"
        elif id == "e_pi_minus_pi":
            value = mp.exp(mp.pi) - mp.pi
            reference = mpf(20)
            description = "e^pi - pi vs 20"
        else:
            raise DomainError(f"unknown constant id {id!r}")
        return _entry(id, description, value, reference, ctx)


def borwein_sum(ctx: PrecisionContext) -> GalleryEntry:
    """1 + 2 sum_{k>=1} 10^{-(k/100)^2} against 100 sqrt(pi/ln 10).

    Agreement actually extends to thousands of digits; requested digits are
    capped at 2000 to keep this a desk-scale computation.  Truncation stops
    once (k/100)^2 exceeds working_digits + 1 (tested as k^2 > 10^4 (working
    digits + 1) in integers), where every further term is below
    10^{-(working_digits+1)}.  q^{k^2} advances by two multiplications per
    term via q^{k^2} = q^{(k-1)^2} * q^{2k-1}.

    The loop runs on Python integers at scale 2^bits, bits = working bits
    + 32.  q and q^2 are floored once from 20 extra digits; each term floors
    its two products once, 2 floors per term and 2K in all, each below
    2^-bits.  Every factor is below 1, so no carried error grows, but the
    floors of q^{2k-1} reach every later power: the sum 1 + 2 sum q^{k^2} is
    off by less than (K(K+1) + 2KS) 2^-bits, S = sum_{i>=0} (2i+1) q^{i^2}
    < 10^4/ln 10 + 2, which at 2000 digits (K = 4490) is below 2^(26-bits).
    The sum becomes an mpf once, at the end.  The entry's bound is
    10^(-digits), and a delta past it raises ConvergenceError.
    """
    if ctx.digits > _BORWEIN_DIGIT_CAP:
        raise DomainError(
            f"borwein sum capped at {_BORWEIN_DIGIT_CAP} digits, got {ctx.digits}"
        )
    with mp.workdps(ctx.working_digits):
        bits = mp.prec + 32
        # q^{k^2}, q^{2k-1} and q^2 at scale 2^bits, q = 10^{-(1/100)^2}
        with mp.extradps(20):
            q = mpf(10) ** (-mpf(1) / 10_000)
            step, q2 = int(q * 2**bits), int(q * q * 2**bits)
        power = 1 << bits
        total = 0  # sum of q^{k^2} over k >= 1 at scale 2^bits
        k = 0
        cutoff = ctx.working_digits + 1
        while True:
            k += 1
            power = power * step >> bits
            step = step * q2 >> bits
            total += power
            if k * k > 10_000 * cutoff:
                break
        result = _entry("borwein", "sum of 10^(-(k/100)^2) vs 100 sqrt(pi/ln 10)",
                        mpf(((1 << bits) + 2 * total, -bits)),
                        100 * mp.sqrt(mp.pi / mp.ln(mpf(10))), ctx, mpf(10) ** (-ctx.digits))
        if not result.passed:
            raise ConvergenceError(
                f"borwein agreement contract violated at {ctx.digits} digits"
            )
        return result


def ordered_bell(n: int) -> int:
    """Exact ordered Bell (Fubini) number by the binomial recurrence.

    a(0) = 1, a(n) = sum_{k=1}^{n} C(n,k) a(n-k): pure integer arithmetic,
    independent of any floating evaluation.
    """
    require_int(n, "ordered_bell n", 0)
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(math.comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


def hickerson(n: int, ctx: PrecisionContext) -> GalleryEntry:
    """n!/(2 ln(2)^{n+1}) against the exact ordered Bell number a(n).

    The quotient is the dominant term of the exact pole expansion of a(n), so
    it hugs the integer, but the neglected conjugate-pole pair grows to
    magnitude ~0.54 at n = 17, where round(value) lands one BELOW a(17).
    The advertised range 1..17 is kept as the accepted input domain.  The
    entry's bound is 1/2, so that passing means round(value) = a(n); that
    postcondition genuinely fails at n = 17, and this function raises
    ConvergenceError there rather than pretend.

    With fewer than 5 working digits past the digits of a(n) the gap can
    come out wrong (at n = 16 and 1 digit it reads -1.0, not -0.487), so
    such a cell is a DomainError; every n is accepted at 10 digits and more.
    """
    if require_int(n, "hickerson n", 1) > _HICKERSON_MAX:
        raise DomainError(f"hickerson supports 1 <= n <= {_HICKERSON_MAX}, got {n!r}")
    reference = ordered_bell(n)
    need = len(str(reference)) + 5 - GUARD_DIGITS
    if ctx.digits < need:
        raise DomainError(f"hickerson{n} needs digits >= {need} to resolve its gap to "
                          f"a({n}) = {reference}, got {ctx.digits}")
    with mp.workdps(ctx.working_digits):
        value = mpf(math.factorial(n)) / (2 * mp.ln(mpf(2)) ** (n + 1))
        result = _entry(f"hickerson{n}", f"{n}!/(2 ln(2)^{n + 1}) vs ordered Bell a({n})",
                        value, reference, ctx, mpf(1) / 2)
        if not result.passed:
            raise ConvergenceError(
                f"rounding identity fails at n={n}: value - a(n) = "
                f"{mp.nstr(result.delta.value, 10)}, "
                f"round(value) = {int(mp.nint(value))} but a({n}) = {result.reference}"
            )
        return result
