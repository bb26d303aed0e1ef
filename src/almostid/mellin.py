"""Mellin-transform verification: quadrature vs closed forms, dual expansions.

Routes verified against each other:
  * mellin_numeric  - the trapezoid rule for f(x) x^{s-1} along x = e^t,
    folded at x = 1, summed directly up to 2^K and in closed form past it
  * mellin_closed   - the trigonometric closed forms on the real axis
  * harmonic_factor_check - the transform of F(x) = sum_{k>=1} g(2^k x), built
    node by node from F(x) = g(2x) + F(2x) on 2^-K <= x <= 2^K and in closed
    form past both ends, against closed/(2^s - 1)
  * g_direct vs g_expansion - the dilate sums of g1 and g2, summed directly
    on 2^-K <= 2^k x < 2^K and from g's expansions past both ends, and as
    the residue sum of closed(s) x^{-s}/(2^s - 1), with the closed transform
    of _kernel read at complex s; _ratio_sum's rule stops each series, with
    rho growth(j)/y (expansion at infinity), growth(j) x (at 0) or
    2 e^{-2 pi^2/ln 2} (oscillating)
  * lemma_check     - the antiderivative identity via finite differences

All integrands become analytic in the strip |Im t| < pi after x = e^t,
where the trapezoid rule converges geometrically.  One trapezoid rule,
_refine_trapezoid, serves both quadratures: each level, of step ln2/2,
ln2/4, ..., is an infinite sum over t whose kernel calls lie on
|t| <= K ln 2, K = _DIRECT_BITS, the rest closed from _kernel's expansions,
and the step is halved until the strip bound (_strip_bound) is within
tolerance of the estimate.  _kernel is the one table of each function's f,
closed transform, strip, expansion at 0 and complex majorant.  Every f obeys
the reflection f(x) + f(1/x) = f(0), and both quadratures call f at x >= 1
only: mellin_numeric folds its integrand at x = 1, and the harmonic check
takes each g left of x = 1 from its mirror node's (see _dilate_nodes).

Grid abscissae are fixed multiples of one another, so most exponentials are
carried instead of called: mellin_numeric multiplies x and x^s by one factor
each from node to node of a level, and the harmonic check halves x and
multiplies x^s by 2^{-s} along each chain of nodes ln 2 apart.  The rounding
this adds stays within the guard digits (see _dilate_nodes and
mellin_numeric).
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass
from itertools import count
from typing import NamedTuple

from mpmath import mp, mpf

from .errors import ConvergenceError, DomainError
from .precision import BigReal, PrecisionContext, require_int, to_mpf, within, wrap
from .series import SeriesValue, _ratio_sum, recurrence_factor

FUNCTION_GRID = ("g1", "g2", "fn3", "fn4", "fn5", "fn6", "fn7")

_FN_RE = re.compile(r"^fn(\d+)$")

# both quadratures and g_direct call their kernel on 2^-K <= x <= 2^K only,
# K = _DIRECT_BITS; past that the expansions of _kernel close both ends to
# working precision
_DIRECT_BITS = 27
# the cap on the rate-bound span in t of either quadrature (see _exp_axis)
_MAX_SPAN = 5 * 10**4
# halvings _refine_trapezoid makes past its first level before giving up
_MAX_LEVELS = 14


@dataclass(frozen=True)
class MellinCheck:
    """What mellin_check ("transform") or harmonic_factor_check ("harmonic")
    returns at function_id and s, ``passed`` = within(abs_err, bound); a
    harmonic record has no numeric or closed value."""

    kind: str
    function_id: str
    s: BigReal
    numeric: BigReal | None
    closed: BigReal | None
    abs_err: BigReal
    bound: BigReal
    passed: bool


@dataclass(frozen=True)
class DualCheck:
    """g_direct against g_expansion at (n, x), ``passed`` = within(abs_err, bound)."""

    n: int
    x: BigReal
    direct: BigReal
    expansion: BigReal
    abs_err: BigReal
    bound: BigReal
    passed: bool


@dataclass(frozen=True)
class LemmaCheck:
    """What lemma_check returns at (n, k, u) with step h: ``passed`` =
    within(residual, bound), bound = 10 h^2; u is kept as a report shows it."""

    n: int
    k: int
    u: object
    h: BigReal
    residual: BigReal
    bound: BigReal
    passed: bool


def parse_function_id(function_id: str):
    """Split 'g1' | 'g2' | 'fn<n>' into (kind, n); n present only for fn."""
    if function_id in ("g1", "g2"):
        return function_id, None
    m = _FN_RE.match(function_id or "")
    if m:
        n = int(m.group(1))
        if n >= 3:
            return "fn", n
        raise DomainError(f"fn index must be >= 3 (n=1,2 are g1,g2), got {function_id!r}")
    raise DomainError(f"unknown function id {function_id!r}")


def _g1(x):
    # 2*atan(1/sqrt(x)), branch chosen to avoid cancellation at either extreme
    if x <= 1:
        return mp.pi - 2 * mp.atan(mp.sqrt(x))
    return 2 * mp.atan(1 / mp.sqrt(x))


def _g2(x):
    return 1 / (1 + x)


def _fn(n, x):
    return (mp.sqrt(x) / (1 + x)) ** (n - 2) * ((1 - x) / (1 + x))


def _fn_coef(n, j):
    """a_j of fn's expansion at 0 (see _kernel)."""
    return (-1) ** j * (math.comb(j + n - 2, n - 2) + math.comb(j + n - 3, n - 2))


def _off_pole(kind, trig, s):
    """trig(pi s), refused as a pole of the closed form where it vanishes to
    the active precision."""
    value = trig(mp.pi * s)
    if abs(value) < mpf(10) ** (-mp.dps):
        raise DomainError(f"{kind} closed form at a pole: s = {mp.nstr(s, 12)}")
    return value


def _fn_closed(n, s):
    """The closed transform of fn at real s (see mellin_closed)."""
    prod = mpf(1)
    for j in range((n - 2) // 2):
        prod *= (j + mpf(n % 2) / 2) ** 2 - s**2
    if n % 2 == 0:
        return 2 * mp.pi * prod / (math.factorial(n - 2) * _off_pole("fn", mp.sin, s))
    return 2 * (-mp.pi * s / _off_pole("fn", mp.cos, s)) * prod / math.factorial(n - 2)


class _Kernel(NamedTuple):
    f: object
    closed: object
    hi: object
    lam: object
    coef: object
    growth: object
    majorant: object
    c: int


def _kernel(function_id):
    """The _Kernel of a transform function: f itself, its closed transform
    at real s, the top of its strip (0, hi), its expansion at 0, and a
    majorant of f in the complex plane.  The one place a function id is read.

    Per-function strips: g2 extends to (0, 1), so s = 1/2 is interior there
    even though the family-wide common strip is (0, 1/2).

    Every f obeys the reflection f(x) + f(1/x) = f(0), read from f itself
    at 0: pi for g1, 1 for g2 and 0 for fn.

      g1: atan w + atan(1/w) = pi/2 for w = 1/sqrt x > 0;
      g2: 1/(1 + x) + x/(1 + x) = 1;
      fn: sqrt x/(1 + x) does not change under x -> 1/x, and (1 - x)/(1 + x)
          changes sign.

    The expansion is f(x) = f(0) + sum_{j>=0} a_j x^{lam + j} for 0 < x < 1,
    held as lam, coef(j) = a_j and growth(j) >= |a_{i+1}/a_i| for every
    i >= j; by the reflection, f(y) = -sum_j a_j y^{-(lam + j)} for y > 1:

      g1: lam = 1/2, a_j = -2 (-1)^j/(2j + 1)  (atan's series), growth 1
      g2: lam = 1, a_j = (-1)^{j+1}  (the geometric series), growth 1
      fn: lam = (n - 2)/2, a_j = (-1)^j [C(j+n-2, n-2) + C(j+n-3, n-2)]
          ((1 - x) times the binomial series of (1 + x)^{-(n-1)}), growth n
          at j = 0 and (j + n - 2)/j after, as C(i+m, m)/C(i-1+m, m) =
          (i + m)/i falls with i

    So f(e^t) e^{st} decays at rate lam - s to the right, and to the left at
    rate s where f(0) != 0 and s + lam where f(0) = 0.

    The majorant is f~ with |f(e^{t+iy})| <= f~(e^t)/cos(y/2)^c for
    |y| < pi, held as its transform M~(s) = int_0^oo f~(x) x^{s-1} dx, a Gamma
    product that shares no code with ``closed``, and the exponent c:

      g1: f~ = g1, M~ = Gamma(1/2 + s) Gamma(1/2 - s)/s, c = 1
      g2: f~ = g2, M~ = Gamma(s) Gamma(1 - s), c = 1
      fn: f~ = (sqrt x/(1 + x))^{n-2}, M~ = Gamma(h + s) Gamma(h - s)/Gamma(n - 2),
          h = (n - 2)/2, c = n - 1

    Proof, with z = rho e^{iy}: |1 + z| >= (1 + rho) cos(y/2) gives g2's
    bound, and for fn, with |1 - z| <= 1 + rho, one 1/cos(y/2) from each of
    its n - 2 factors sqrt z/(1 + z) and one from (1 - z)/(1 + z).  For g1,
    atan w = int_0^1 w/(1 + tau^2 w^2) dtau with w = z^{-1/2}, and
    |1 + tau^2 w^2| >= (1 + tau^2 |w|^2) cos(y/2) in the same way, so
    |atan w| <= atan|w|/cos(y/2).
    """
    kind, n = parse_function_id(function_id)
    if kind == "g1":
        return _Kernel(_g1, lambda s: mp.pi / (s * _off_pole(kind, mp.cos, s)), mpf(1) / 2,
                       mpf(1) / 2, lambda j: mpf(-2 * (-1) ** j) / (2 * j + 1), lambda j: 1,
                       lambda s: mp.gamma(mpf(1) / 2 + s) * mp.gamma(mpf(1) / 2 - s) / s, 1)
    if kind == "g2":
        return _Kernel(_g2, lambda s: mp.pi / _off_pole(kind, mp.sin, s), mpf(1),
                       mpf(1), lambda j: (-1) ** (j + 1), lambda j: 1,
                       lambda s: mp.gamma(s) * mp.gamma(1 - s), 1)
    half = mpf(n - 2) / 2
    return _Kernel((lambda x: _fn(n, x)), (lambda s: _fn_closed(n, s)), min(mpf(1) / 2, half),
                   half, lambda j: _fn_coef(n, j),
                   lambda j: mpf(j + n - 2) / j if j else n,
                   lambda s: mp.gamma(half + s) * mp.gamma(half - s) / mp.gamma(n - 2), n - 1)


def _check_strip(function_id, s):
    """The _kernel of function_id, once s is inside its strip."""
    kernel = _kernel(function_id)
    if not 0 < s < kernel.hi:
        raise DomainError(f"s = {mp.nstr(s, 12)} outside the strip "
                          f"(0.0, {mp.nstr(kernel.hi, 6)}) of {function_id}")
    return kernel


def _strip_bound(m0, c):
    """bound(h) of the infinite trapezoid sum of step h for an integrand
    analytic in |Im t| < pi whose integral along each line Im t = y,
    |y| <= a, is at most M = m0/cos(a/2)^c in modulus: the sum is within
    2M/(e^{2 pi a/h} - 1) of the integral for every 0 < a < pi (Trefethen
    and Weideman, SIAM Review 56, 2014, Thm 5.1), and a = 2 atan(4 pi/(c h))
    minimises that but for its -1."""

    def bound(h):
        a = 2 * mp.atan(4 * mp.pi / (c * h))
        return 2 * m0 / (mp.cos(a / 2) ** c * (mp.exp(2 * mp.pi * a / h) - 1))

    return bound


def _refine_trapezoid(values, n, h, tol, bound):
    """Trapezoid rule with step halving until bound(h) <= tol |I_h|.

    ``values(n, h, indices)`` yields the terms of one level's sum for the
    nodes of step h whose indices, out of 0..n, are in the range
    ``indices``; it may run that range in either direction, weighs the terms
    itself and adds the closed-form sums of the nodes past them.  The first
    level asks for every node, every later level only for the odd midpoints,
    and one running sum of the terms, times h, is the estimate I_h.
    ``bound(h)`` is a proved bound of the discretization error at step h
    (see _strip_bound), so no level is compared with another.  Past
    _MAX_LEVELS halvings it raises ConvergenceError.
    """
    acc, indices = mpf(0), range(n + 1)
    for _ in range(_MAX_LEVELS + 1):
        acc += sum(values(n, h, indices), mpf(0))
        if bound(h) <= tol * abs(acc * h):
            return acc * h
        n, h = 2 * n, h / 2
        indices = range(1, n, 2)
    raise ConvergenceError("trapezoid refinement did not meet its bound before the level cap")


def _exp_axis(function_id, s, ctx):
    """The _Kernel of function_id, f(0) and the tolerance of both
    quadratures, relative to their estimate.

    The one rule that refuses s near an edge of the strip, in both
    quadratures.  f(e^t) e^{st} decays to the left at rate s where
    f(0) != 0 and s + lam where f(0) = 0, and to the right at rate lam - s
    (see _kernel); a span in t over _MAX_SPAN for both rates to take it down
    to 10^-(digits + 10), with 25 e-folds to spare, is a DomainError.
    Neither quadrature cuts its sum there, but at the slow rates the factors
    1/(1 - e^{-rate H}) of their closed-form ends and M~(s) of their strip
    bound blow up.
    """
    kernel = _check_strip(function_id, s)
    f0 = kernel.f(mpf(0))
    decay = (ctx.digits + 10) * mp.ln(10) + 25
    span = decay / (s + (0 if f0 else kernel.lam)) + decay / (kernel.lam - s) + 10
    if span > _MAX_SPAN:
        raise DomainError(
            f"s = {mp.nstr(s, 12)} is too near an edge of the strip (0.0, "
            f"{mp.nstr(kernel.hi, 6)}) of {function_id}: its rate-bound span in t would be "
            f"{mp.nstr(span, 3)}, over the cap of {_MAX_SPAN}"
        )
    return kernel, f0, mpf(10) ** (-(ctx.digits + 5))


def _far_end(kernel, y, weight, ctx, name):
    """-sum_{j>=0} a_j y^{-mu_j} weight(mu_j), mu_j = lam + j, at y > 1: f(y)
    from its expansion at infinity (see _kernel), each power weighed.  One
    _ratio_sum stream: |a_{i+1}/a_i| <= growth(j) for i >= j and the weights
    must not grow with mu, so rho = growth(j)/y."""

    def terms():
        power = y**-kernel.lam
        for j in count():
            yield -kernel.coef(j) * power * weight(kernel.lam + j)
            power /= y

    return _ratio_sum(terms(), lambda k, t: kernel.growth(k - 1) / y, ctx, name)


def mellin_numeric(function_id: str, s, ctx: PrecisionContext) -> BigReal:
    """Quadrature of the transform integral along x = e^t, folded at x = 1.

    By _kernel's reflection f(1/x) = f(0) - f(x), the trapezoid sum of
    f(e^t) e^{st} over t = i h, i in Z, is h times f(1) = f(0)/2, which
    costs no call, plus sum_{i>=1} [f(x) x^s + (f(0) - f(x)) x^{-s}],
    x = e^{ih}.  Each level, of step ln2/2, ln2/4, ..., calls f on
    1 < x <= 2^K only, K = _DIRECT_BITS, and carries x and x^s from node to
    node by one product each.  The nodes t_1 + m H, m >= 0, past 2^K add,
    from f(y) = -sum_j a_j y^{-mu_j}, mu_j = lam + j,

      f(0) e^{-s t_1}/(1 - e^{-sH})
        - sum_j a_j [e^{(s - mu_j) t_1}/(1 - e^{(s - mu_j) H})
                     - e^{-(s + mu_j) t_1}/(1 - e^{-(s + mu_j) H})],

    the sum over j one _far_end stream; its weights, the brackets over
    e^{-mu_j t_1}, fall with mu, as the first fraction falls faster.  The
    strip bound (see _strip_bound) stops the refinement with
    M = M~(s)/cos(a/2)^c, _kernel's majorant.  s near an edge of the strip
    is refused up front (see _exp_axis).
    """
    with mp.workdps(ctx.working_digits):
        sv = to_mpf(s)
        kernel, f0, tol = _exp_axis(function_id, sv, ctx)
        f = kernel.f

        def values(n, h, indices):
            # x and x^s drift by one rounding per node: 2 to 3 guard digits
            step = indices.step * h
            x, w = mp.exp(indices.start * h), mp.exp(sv * indices.start * h)
            ratio, w_ratio = mp.exp(step), mp.exp(sv * step)
            for i in indices:
                if i:
                    fx = f(x)
                    yield fx * w + (f0 - fx) / w
                else:
                    yield f0 / 2
                x, w = x * ratio, w * w_ratio

            def weight(mu):  # x, w are now e^{t_1}, e^{s t_1}
                return w / -mp.expm1((sv - mu) * step) - 1 / (w * -mp.expm1(-(sv + mu) * step))

            far = _far_end(kernel, x, weight, ctx, "mellin_numeric")
            yield f0 / (w * -mp.expm1(-sv * step)) + far.value.value

        bound = _strip_bound(kernel.majorant(sv), kernel.c)
        return wrap(_refine_trapezoid(values, 2 * _DIRECT_BITS, mp.ln(2) / 2, tol, bound), ctx)


def mellin_closed(function_id: str, s, ctx: PrecisionContext) -> BigReal:
    """Real-axis closed forms:

    g1: pi/(s cos(pi s));  g2: pi/sin(pi s)
    fn: -2 s Gamma(h + s) Gamma(h - s) / (n-2)!, h = (n-2)/2, that is
        2/(n-2)! * prod_{j < floor(h)} ((j + h - floor(h))^2 - s^2) times
        pi/sin(pi s) for even n or -pi s/cos(pi s) for odd n
    """
    with mp.workdps(ctx.working_digits):
        sv = to_mpf(s)
        return wrap(_check_strip(function_id, sv).closed(sv), ctx)


def pass_threshold(ctx: PrecisionContext):
    with mp.workdps(ctx.working_digits):
        return mpf(10) ** (-(ctx.digits - 5))


def _mellin_record(kind, function_id, s, numeric, closed, abs_err, ctx) -> MellinCheck:
    """The MellinCheck of one cell, abs_err held to pass_threshold(ctx)."""
    bound = wrap(pass_threshold(ctx), ctx)
    with mp.workdps(ctx.working_digits):
        s_big = wrap(to_mpf(s), ctx)
    return MellinCheck(kind, function_id, s_big, numeric, closed, abs_err, bound,
                       within(abs_err, bound))


def mellin_check(function_id: str, s, ctx: PrecisionContext) -> MellinCheck:
    """|mellin_numeric - mellin_closed| held to pass_threshold(ctx)."""
    numeric = mellin_numeric(function_id, s, ctx)
    closed = mellin_closed(function_id, s, ctx)
    with mp.workdps(ctx.working_digits):
        err = wrap(abs(numeric.value - closed.value), ctx)
    return _mellin_record("transform", function_id, s, numeric, closed, err, ctx)


# ---------------------------------------------------------------------------
# dilate sums F(x) = sum_{k>=1} g(2^k x)


def _per_dilate(mu):
    """1/(2^mu - 1) = sum_{k>=1} 2^{-k mu}: the _far_end weight that gives
    F(y) = sum_{k>=1} f(2^k y) at y > 1."""
    return 1 / (mpf(2) ** mu - 1)


def _dilate_nodes(g, g0, s, h, top, bottom, stride, period, head):
    """Yield (j, x, F(x), x^s) at x = e^{jh} for j = top, top - stride, ...
    down to bottom.

    The first ``period`` nodes, the top ln 2 (period * stride * h = ln 2),
    take F = head(x) and call exp for x and x^s.  Every later node takes
    F(x) = g(2x) + F(2x), where 2x is the node ``period`` places back in the
    stream: its x is exactly that node's x halved, which is exact in binary,
    and its x^s that node's times 2^{-s}.  The residue chains j, j - ln2/h,
    ... are the only carries, each at most the stream's span over ln 2 long
    (~55 nodes in the harmonic check).

    Each later node calls g once, at the index k = j + period * stride of
    2x, unless k < 0 and the sweep has already called g at -k: then g at k
    is g0 = g(0) minus that value (_kernel's reflection).  On every level of
    the harmonic check -k is an index of the same sweep, as its span is
    symmetric about t = 0 and the later levels take odd indices only, whose
    mirrors are odd.  Held are the last ``period`` nodes and each g at a
    k > 0 whose mirror -k the sweep has yet to reach, dropped once it does.
    """
    half_s = mpf(2) ** (-s)
    shift = period * stride  # index of 2x less that of x
    low = bottom + shift  # the lowest index whose g the sweep needs
    mirrors = {}
    window = deque(maxlen=period)
    for j in range(top, bottom - 1, -stride):
        if len(window) < period:
            x, w = mp.exp(j * h), mp.exp(s * j * h)
            value = head(x)
        else:
            x2, f2, w2 = window[0]
            x, w = x2 / 2, w2 * half_s
            k = j + shift
            if -k in mirrors:
                gk = g0 - mirrors.pop(-k)
            else:
                gk = g(x2)
                if 0 < k <= -low:
                    mirrors[k] = gk
            value = gk + f2
        window.append((x, value, w))
        yield j, x, value, w


def harmonic_factor_check(function_id: str, s, ctx: PrecisionContext) -> MellinCheck:
    """|quadrature of the dilate sum  -  closed form/(2^s - 1)| held to
    pass_threshold(ctx), a "harmonic" MellinCheck.

    The identity holds for every function of the grid (Flajolet, Gourdon and
    Dumas, TCS 144, 1995).  Each level of the trapezoid rule on t = ln x,
    step ln2/2, ln2/4, ..., is an infinite sum of F(e^t) e^{st} over its
    nodes, with no end to halve and no cutoff: g is called only on the
    direct region 2^-K <= x <= 2^K, K = _DIRECT_BITS, and both geometric
    ends are closed from g's expansion (see _kernel), each one _ratio_sum
    stream.

      * In the region each node's F is g(2x) plus the F of the node ln 2 to
        its right, and its x and weight x^s are carried from that node too
        (see _dilate_nodes): past the region's top ln 2, whose F comes from
        _far_end, a node costs only its g.
      * Right end: the nodes t_1 + m H, m >= 0, past the region add
        -sum_j a_j/(2^{mu_j} - 1) e^{-(mu_j - s) t_1}/(1 - e^{-(mu_j - s) H}),
        mu_j = lam + j > s (_far_end, weighted by both fractions).
      * Left end: every node below the region is x/2^i, i >= 1, of a node x
        of the region's lowest ln 2, the window.  F(x/2^i) = F(x) +
        sum_{m<i} g(x/2^m), so with weights x^s q^i, q = 2^{-s}, the window
        node adds x^s q/(1 - q) [F(x) + G(x)], G(x) = sum_{m>=0} q^m g(x/2^m)
        = g(0)/(1 - q) + sum_j a_j x^{mu_j}/(1 - q 2^{-mu_j}); the power
        terms, summed over the window, are one stream with rho = growth(j)
        times the window's largest x.

    The refinement stops on the strip bound (see _strip_bound), relative to
    the estimate.  The integrand F(e^t) e^{st} is analytic in |Im t| < pi,
    and there, by _kernel's majorant applied term by term to F, its integral
    along each line Im t = y, |y| <= a, is at most
    M = M~(s)/((2^s - 1) cos(a/2)^c).  s near an edge of the strip is
    refused up front (see _exp_axis).
    """
    name = "harmonic_factor_check"
    with mp.workdps(ctx.working_digits):
        sv = to_mpf(s)
        h0 = mp.ln(2) / 2
        kernel, g0, tol = _exp_axis(function_id, sv, ctx)
        g, lam = kernel.f, kernel.lam
        q = mpf(2) ** -sv
        rest = -mp.expm1(-sv * mp.ln(2))  # 1 - q, without its cancellation at small s
        bound = _strip_bound(kernel.majorant(sv) / (mpf(2) ** sv - 1), kernel.c)

        def head(x):
            return _far_end(kernel, x, _per_dilate, ctx, name).value.value

        def right_end(t1, step):
            def weight(mu):
                return _per_dilate(mu) / -mp.expm1((sv - mu) * step)

            far = _far_end(kernel, mp.exp(t1), weight, ctx, name)
            return mp.exp(sv * t1) * far.value.value

        def left_end(window):
            top = max(x for x, _, _ in window)

            def powers():
                terms = [w * x**lam for x, _, w in window]
                qp = q * mpf(2) ** -lam
                for j in count():
                    yield kernel.coef(j) * sum(terms, mpf(0)) / (1 - qp)
                    terms = [t * x for t, (x, _, _) in zip(terms, window)]
                    qp /= 2

            series = _ratio_sum(powers(), lambda k, t: kernel.growth(k - 1) * top, ctx, name)
            weights = sum((w for _, _, w in window), mpf(0))
            values = sum((w * value for _, value, w in window), mpf(0))
            return q / rest * (values + g0 / rest * weights + series.value.value)

        span = 2 * _DIRECT_BITS  # the region is |t| <= span h0

        def values(n, h, indices):
            # node i of the level sits at t = (i - n/2) h; right to left
            scale = n // (2 * span)
            bottom, stride = -span * scale, indices.step
            period = 2 * scale // stride
            top = bottom + indices[-1]
            window = deque(maxlen=period)
            for _, x, value, weight in _dilate_nodes(g, g0, sv, h, top, bottom + indices[0],
                                                     stride, period, head):
                window.append((x, value, weight))
                yield value * weight
            yield right_end((top + stride) * h, stride * h)
            yield left_end(window)

        quad = _refine_trapezoid(values, 2 * span, h0, tol, bound)
        closed = mellin_closed(function_id, s, ctx).value / (mpf(2) ** sv - 1)
        err = wrap(abs(quad - closed), ctx)
    return _mellin_record("harmonic", function_id, s, None, None, err, ctx)


def _dilate_kernel(route, n, x):
    """x as mpf and the _Kernel of g_n, once n is the int 1 or 2 and x > 0."""
    if require_int(n, f"{route} n") not in (1, 2):
        raise DomainError(f"{route} supports n = 1 or 2, got {n!r}")
    xv = to_mpf(x)
    if xv <= 0:
        raise DomainError(f"{route} requires x > 0, got {mp.nstr(xv, 12)}")
    return xv, _kernel(f"g{n}")


def g_direct(n: int, x, ctx: PrecisionContext) -> SeriesValue:
    """Direct dilate sum F(x) = sum_{k>=1} g_n(2^k x), n = 1 or 2.

    g_n is called only on 2^-K <= 2^k x < 2^K, K = _DIRECT_BITS.  The k_0
    points 2^k x < 2^-K, read off x's binary exponent, add
    k_0 g_n(0) + sum_j a_j z^{mu_j} (1 - 2^{-k_0 mu_j})/(1 - 2^{-mu_j}),
    z = 2^{k_0} x, mu_j = lam + j (see _kernel), one _ratio_sum stream with
    rho = growth(j) z, as the partial geometric sums fall with mu.  Past the
    last point summed, y = 2^k x >= 2^{K-1} (or x itself), F(y) comes from
    _far_end.  The streams' tail bounds and terms are the ones reported,
    plus one term per g_n summed.
    """
    with mp.workdps(ctx.working_digits):
        xv, kernel = _dilate_kernel("g_direct", n, x)
        total, tail, k, y = mpf(0), mpf(0), 0, xv
        below = max(0, -_DIRECT_BITS - mp.frexp(xv)[1])  # k_0
        if below:
            y = mp.ldexp(xv, below)

            def powers():
                power, half = y**kernel.lam, mpf(2) ** -kernel.lam
                rest = half**below  # 2^{-k_0 mu}
                for j in count():
                    yield kernel.coef(j) * power * (1 - rest) / (1 - half)
                    power, half, rest = power * y, half / 2, mp.ldexp(rest, -below)

            near = _ratio_sum(powers(), lambda i, t: kernel.growth(i - 1) * y, ctx, "g_direct")
            total = below * kernel.f(mpf(0)) + near.value.value
            tail, k = near.tail_bound.value, near.terms_used
        while y < 2 ** (_DIRECT_BITS - 1):
            y *= 2
            total += kernel.f(y)
            k += 1
        far = _far_end(kernel, y, _per_dilate, ctx, "g_direct")
        return SeriesValue(wrap(total + far.value.value, ctx),
                           wrap(tail + far.tail_bound.value, ctx), k + far.terms_used)


def g_expansion(n: int, x, ctx: PrecisionContext) -> SeriesValue:
    """Residue expansion of the dilate sum F(x) = sum_{k>=1} g_n(2^k x).

    F has the transform M(s)/(2^s - 1), with M the closed transform of g_n
    in its _kernel, so F(x) is the sum of the residues of
    M(s) x^{-s}/(2^s - 1) left of the strip (Flajolet, Gourdon and Dumas,
    TCS 144, 1995).  Three kinds of pole:

      * s = -lam for each term a x^lam, lam > 0, of g_n's expansion at 0,
        where M has residue a: a x^lam/(2^{-lam} - 1);
      * the double pole at s = 0, from the constant a0 = g_n(0):
        a0 (-1/2 - log2 x), as M(s) - a0/s tends to 0 at s = 0 for g1
        and g2;
      * s = +-i w_k, w_k = 2 pi k/ln 2: (2/ln 2) Re[M(i w_k) x^{-i w_k}],
        with M at complex s.

    Restricted to 0 < x < 1/2.  The power and the oscillating terms are two
    series, tails and counts summed, each stopped at the first term <=
    10^(-working digits) times its running sum with ratio bound rho < 1.
    Power terms: rho = growth(j) x, which is x for g1 and g2 (see _kernel);
    x^lam and 2^{-lam} are carried.
    |M(i w_{k+1})/M(i w_k)| <= r = 2 e^{-beta}, beta = 2 pi^2/ln 2, so the
    complex terms M(i w_k) x^{-i w_k} take rho = r, and their tail bounds the
    moduli of the dropped terms, not only their real parts.
    """
    with mp.workdps(ctx.working_digits):
        xv, kernel = _dilate_kernel("g_expansion", n, x)
        if xv >= mpf(1) / 2:
            raise DomainError(
                f"g_expansion restricted to x < 1/2 (geometric tail bound), got {mp.nstr(xv, 12)}"
            )
        ln2 = mp.ln(mpf(2))
        w = 2 * mp.pi / ln2
        r = 2 * mp.exp(-mp.pi * w)  # beta = pi w_1
        turn = mp.expj(-w * mp.ln(xv))  # x^{-i w_1}

        def powers():
            power, half = xv**kernel.lam, mpf(2) ** -kernel.lam
            for j in count():
                yield kernel.coef(j) * power / (half - 1)
                power, half = power * xv, half / 2

        power = _ratio_sum(powers(), lambda k, t: kernel.growth(k - 1) * xv, ctx, "g_expansion")
        osc = _ratio_sum((2 * kernel.closed(mp.mpc(0, k * w)) * turn**k / ln2 for k in count(1)),
                         lambda k, t: r, ctx, "g_expansion")
        value = (kernel.f(mpf(0)) * (-mpf(1) / 2 - mp.ln(xv) / ln2)
                 + power.value.value + osc.value.value.real)
        tail = power.tail_bound.value + osc.tail_bound.value
        return SeriesValue(wrap(value, ctx), wrap(tail, ctx), power.terms_used + osc.terms_used)


def dual_check(n: int, x, ctx: PrecisionContext) -> DualCheck:
    """|g_direct - g_expansion| held to pass_threshold(ctx)."""
    direct = g_direct(n, x, ctx).value
    expansion = g_expansion(n, x, ctx).value
    bound = wrap(pass_threshold(ctx), ctx)
    with mp.workdps(ctx.working_digits):
        err = wrap(abs(direct.value - expansion.value), ctx)
        x_big = wrap(to_mpf(x), ctx)
    return DualCheck(n, x_big, direct, expansion, err, bound, within(err, bound))


def lemma_step(ctx: PrecisionContext):
    """The default finite-difference step of lemma_check, 10^(-digits/3)."""
    with mp.workdps(ctx.working_digits):
        return mpf(10) ** (-mpf(ctx.digits) / 3)


def lemma_check(n: int, k: int, u, ctx: PrecisionContext, h=None) -> LemmaCheck:
    """The antiderivative identity behind the recurrence, held to 10 h^2.

    With x = 2^{k-u} and p = sqrt(x)/(1+x), phi_j(u) = p^j and
    R(u) = _fn(n, x)/(2 ln2 (n-1)) = p^{n-2} (1-x)/(1+x)/(2 ln2 (n-1));
    the residual is |phi_n(u) - (n-2)/(4(n-1)) phi_{n-2}(u) - dR/du| with
    dR/du a central difference of step h (default lemma_step(ctx)); the exact
    identity makes the residual pure finite-difference error, O(h^2).

    ``h`` is overridable so the h^2 scaling itself can be observed.  An
    n |k - u| over 10^100, where every term is below 2^(-10^99), is a
    DomainError up front: past ~10^4300 Python cannot print the residual's
    exponent.  Every term is about p^{n-2}, so a cell where p^{n-2} is below
    10 h^2 would pass whatever the residual: once the residual is computed,
    it is a DomainError instead of a record.
    """
    require_int(n, "lemma check n", 3)
    require_int(k, "k")
    with mp.workdps(ctx.working_digits):
        uv = to_mpf(u)
        span = n * abs(k - uv)
        if span > 10**100:
            raise DomainError(f"lemma check needs n |k - u| <= 1e100, got {mp.nstr(span, 6)}")
        hv = lemma_step(ctx) if h is None else to_mpf(h)
        if hv <= 0:
            raise DomainError("finite-difference step must be positive")
        scale = 2 * mp.ln(mpf(2)) * (n - 1)

        def big_r(uu):
            return _fn(n, mpf(2) ** (k - uu)) / scale

        drdu = (big_r(uv + hv) - big_r(uv - hv)) / (2 * hv)
        x = mpf(2) ** (k - uv)
        p = mp.sqrt(x) / (1 + x)
        a = to_mpf(recurrence_factor(n))
        residual = wrap(abs(p**n - a * p ** (n - 2) - drdu), ctx)
        bound = wrap(10 * hv**2, ctx)
        size = p ** (n - 2)
        if size < bound.value:
            raise DomainError(f"lemma cell n={n}, k={k}, u={u} checks nothing: its terms, "
                              f"about p^(n-2) = {mp.nstr(size, 3)}, are below the bound "
                              f"10 h^2 = {mp.nstr(bound.value, 3)}")
    return LemmaCheck(n, k, u, wrap(hv, ctx), residual, bound, within(residual, bound))
