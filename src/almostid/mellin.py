"""Mellin-transform verification: quadrature vs closed forms, dual expansions.

Routes verified against each other:
  * mellin_numeric  - direct integration of f(x) x^{s-1} after x = e^t and
    the double-exponential map t = sinh u, folded at x = 1
  * mellin_closed   - the trigonometric closed forms on the real axis
  * harmonic_factor_check - the transform of F(x) = sum_{k>=1} g(2^k x), built
    node by node from F(x) = g(2x) + F(2x), against closed/(2^s - 1), its
    step halved until the strip bound is within tolerance
  * g_direct vs g_expansion - the dilate sums of g1 and g2, summed directly
    and as the residue sum of closed(s) x^{-s}/(2^s - 1), with the closed
    transform of _kernel read at complex s; _ratio_sum's rule stops each sum,
    with rho g(2^{k+1}x)/g(2^k x), x (power) or 2 e^{-2 pi^2/ln 2} (oscillating)
  * lemma_check     - the antiderivative identity via finite differences

All integrands become analytic and exponentially decaying in both directions
after x = e^t, where the trapezoid rule converges geometrically; t = sinh u
makes the decay of the transform integrand double-exponential, which shrinks
its grid from thousands of nodes to a few hundred.  One trapezoid rule,
_refine_trapezoid, serves both quadratures: it picks each level's nodes,
halves the ends, keeps the running sum, and halves the step until the
newest level is within tolerance.  The harmonic check stops on the
trapezoid rule's strip bound, a proved bound of the discretization error
relative to the estimate; mellin_numeric stops when two levels, or their
digit-doubling extrapolation, agree.  Each quadrature only yields integrand
values at the nodes asked for, in its own variable.  _kernel is the one
table of each function's f, closed transform, strip, decay rates and
complex majorant.  Every f obeys the reflection f(x) + f(1/x) = f(0) (see
_kernel), and both quadratures call f at x >= 1 only: mellin_numeric folds
its integrand at x = 1, and the harmonic check takes each g left of x = 1
from its mirror node's (see _dilate_nodes).

Grid abscissae are fixed multiples of one another, so most exponentials are
carried instead of called: mellin_numeric carries e^u from node to node of a
level, and the harmonic check halves x and multiplies e^{st} by 2^{-s} along
each chain of nodes ln 2 apart.  The rounding this adds stays within the
guard digits (see _dilate_nodes and mellin_numeric).
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import NamedTuple

from mpmath import mp, mpf

from .errors import ConvergenceError, DomainError
from .precision import BigReal, PrecisionContext, require_int, to_mpf, within, wrap
from .series import SeriesValue, _ratio_sum, recurrence_factor

FUNCTION_GRID = ("g1", "g2", "fn3", "fn4", "fn5", "fn6", "fn7")

_FN_RE = re.compile(r"^fn(\d+)$")

# first trapezoid step of mellin_numeric (in u), and the cap on the number of
# steps of that size the rate-bound span in t may take
_STEP = mpf("0.5")
_MAX_NODES = 10**5
# halvings _refine_trapezoid makes past its first level before giving up
_MAX_LEVELS = 14
# factor by which _refine_trapezoid inflates its digit-doubling error estimate
_DOUBLING_SAFETY = 10**3


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
    a: object
    b: object
    majorant: object
    c: int


def _kernel(function_id):
    """The _Kernel of a transform function: f itself, its closed transform
    at real s, the top of its strip (0, hi), the offsets a and b of the decay
    rates s + a and b - s of f(e^t) e^{st} to the left and right of t = 0,
    and a majorant of f in the complex plane.  The one place a function id
    is read.

    Per-function strips: g2 extends to (0, 1), so s = 1/2 is interior there
    even though the family-wide common strip is (0, 1/2).

    Every f obeys the reflection f(x) + f(1/x) = f(0), read from f itself
    at 0: pi for g1, 1 for g2 and 0 for fn.

      g1: atan w + atan(1/w) = pi/2 for w = 1/sqrt x > 0;
      g2: 1/(1 + x) + x/(1 + x) = 1;
      fn: sqrt x/(1 + x) does not change under x -> 1/x, and (1 - x)/(1 + x)
          changes sign.

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
        return _Kernel(_g1, lambda s: mp.pi / (s * _off_pole(kind, mp.cos, s)),
                       mpf(1) / 2, mpf(0), mpf(1) / 2,
                       lambda s: mp.gamma(mpf(1) / 2 + s) * mp.gamma(mpf(1) / 2 - s) / s, 1)
    if kind == "g2":
        return _Kernel(_g2, lambda s: mp.pi / _off_pole(kind, mp.sin, s), mpf(1), mpf(0), mpf(1),
                       lambda s: mp.gamma(s) * mp.gamma(1 - s), 1)
    half = mpf(n - 2) / 2
    return _Kernel((lambda x: _fn(n, x)), (lambda s: _fn_closed(n, s)),
                   min(mpf(1) / 2, half), half, half,
                   lambda s: mp.gamma(half + s) * mp.gamma(half - s) / mp.gamma(n - 2), n - 1)


def _check_strip(function_id, s):
    """The _kernel of function_id, once s is inside its strip."""
    kernel = _kernel(function_id)
    if not 0 < s < kernel.hi:
        raise DomainError(f"s = {mp.nstr(s, 12)} outside the strip "
                          f"(0.0, {mp.nstr(kernel.hi, 6)}) of {function_id}")
    return kernel


def _refine_trapezoid(values, n, h, tol, bound=None):
    """Trapezoid rule with step halving until the newest estimate is within tol.

    ``values(n, h, indices)`` yields the integrand, in whatever variable the
    use integrates over, at the nodes of step h whose indices, out of 0..n,
    are in the range ``indices``; it may run that range in either direction.
    The rule is applied here: the first level asks for every node and halves
    the two ends, every later level asks only for the odd midpoints, and one
    running sum of node values, times h, is the estimate.

    With ``bound``, a proved bound(h) on the discretization error at step h
    (see harmonic_factor_check), the first level I_h with
    bound(h) <= tol |I_h| is accepted, and no level is compared with another.

    Without it the stop is an estimate.  Every substituted integrand here is
    analytic in a strip around the real line, where the trapezoid error
    falls like e^{-c/h}: each halving about doubles the correct digits.  So
    with d_k = |I_k - I_{k-1}|, which is about the error of I_{k-1}, the
    error of I_k is about d_k^2 / d_{k-1} (the digit-doubling estimate of
    Bailey, Jeyabalan and Li, Exp. Math. 2005).  A level is accepted when
    d_k < tol, or when _DOUBLING_SAFETY * d_k^2 / d_{k-1} < tol; the second
    rule saves the last, confirming halving, which holds half of all nodes.

    Past _MAX_LEVELS halvings it raises ConvergenceError.
    """

    def level_sum(n, h, indices, ends):
        total = mpf(0)
        for i, term in enumerate(values(n, h, indices)):
            total += term / 2 if i in ends else term
        return total

    def levels(n, h):
        acc = level_sum(n, h, range(n + 1), (0, n))
        yield h, acc * h
        for _ in range(_MAX_LEVELS):
            n, h = 2 * n, h / 2
            acc += level_sum(n, h, range(1, n, 2), ())
            yield h, acc * h

    estimate = prev = None
    for step, new in levels(n, h):
        if bound is not None:
            if bound(step) <= tol * abs(new):
                return new
        elif estimate is not None:
            delta = abs(new - estimate)
            if delta < tol or (prev is not None and _DOUBLING_SAFETY * delta**2 < tol * prev):
                return new
            prev = delta
        estimate = new
    raise ConvergenceError("trapezoid refinement did not stabilize before the level cap")


def _exp_axis(function_id, s, ctx, step, dilate=False):
    """The _Kernel of function_id, the cutoffs t_left < t_right of
    f(e^t) e^{st}, and the agreement tolerance; a span t_right - t_left of
    more than _MAX_NODES steps of ``step`` is a DomainError.  With ``dilate`` the cutoffs are
    those of F(e^t) e^{st} for the dilate sum F, which tends to a bounded
    log-periodic function as x -> 0: its left decay rate is s, not s + a."""
    kernel = _check_strip(function_id, s)
    a, b = (0 if dilate else kernel.a), kernel.b
    # cutoffs sized so the dropped tails sit far below the agreement target;
    # the +25 absorbs constant and slowly-varying (logarithmic) prefactors
    target_exp = (ctx.digits + 10) * mp.ln(10)
    t_left = -((target_exp + 25) / (s + a) + 5)
    t_right = (target_exp + 25) / (b - s) + 5
    nodes = (t_right - t_left) / step
    if nodes > _MAX_NODES:
        raise DomainError(
            f"s = {mp.nstr(s, 12)} is too near an edge of the strip (0.0, "
            f"{mp.nstr(kernel.hi, 6)}) of {function_id}: its rate-bound span in t would take "
            f"{mp.nstr(nodes, 3)} steps of {mp.nstr(step, 3)}, over the cap of {_MAX_NODES}"
        )
    return kernel, t_left, t_right, mpf(10) ** (-(ctx.digits + 5))


def mellin_numeric(function_id: str, s, ctx: PrecisionContext) -> BigReal:
    """Quadrature of the transform integral along x = e^t, t = sinh u,
    folded at x = 1.

    The rate-bound cutoffs t_left < t_right become |u| <= U =
    asinh(max(-t_left, t_right)), where f(e^{sinh u}) e^{s sinh u} cosh u
    decays double-exponentially, so the trapezoid grid in u needs a few
    hundred nodes where one in t over the same span needs thousands.  By
    _kernel's reflection f(1/x) = f(0) - f(x), the integrand at -u and at u
    add up to psi(u) = cosh u [f(x) x^s + (f(0) - f(x)) x^{-s}], x =
    e^{sinh u}, and the trapezoid rule for psi on [0, U], ends halved, is
    the symmetric rule for the integrand on [-U, U].  f is only called at
    x >= 1, where f(0) - f(x) does not cancel.  Along each level e^u is
    carried from node to node: one exp at the level's first node, then one
    product by e^{stride h} per node, with sinh u and cosh u taken as
    (e^u -+ e^{-u})/2.  That leaves two exps per node pair, e^t and e^{st},
    plus what f itself calls.
    """
    with mp.workdps(ctx.working_digits):
        sv = to_mpf(s)
        kernel, t_left, t_right, tol = _exp_axis(function_id, sv, ctx, _STEP)
        f = kernel.f
        f0 = f(mpf(0))
        u_top = mp.asinh(max(-t_left, t_right))

        def values(n, h, indices):
            # e^u drifts by about one rounding per node, relative: log10 of the
            # level's node count in digits (3 at the ~10^3 nodes of a 200-digit
            # level) of the 15 guard digits.  A direct j h is itself off by up
            # to u <= 12 roundings.
            e = mp.exp(indices.start * h)
            ratio = mp.exp(indices.step * h)
            for _ in indices:
                inv = 1 / e
                t = (e - inv) / 2
                fx, w = f(mp.exp(t)), mp.exp(sv * t)
                yield (fx * w + (f0 - fx) / w) * (e + inv) / 2
                e *= ratio

        steps = max(8, int(mp.ceil(u_top / _STEP)))
        return wrap(_refine_trapezoid(values, steps, u_top / steps, tol), ctx)


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


def _dilate_nodes(g, s, h, top, bottom, stride, period):
    """Yield (j, x, F(x), x^s) at x = e^{jh} for j = top, top - stride, ...
    down to bottom.

    F(x) = g(2x) + F(2x) with F = 0 past ``top``: a literal partial sum of
    g(2^k x), where 2x is the node ``period`` places back in the stream
    (period * stride * h = ln 2).  That node's x is exactly 2x, so only the
    first ``period`` nodes call exp: every later x is the x one period back
    halved, which is exact in binary, and its x^s is that node's x^s times
    2^{-s}.  The residue chains j, j - ln2/h, ... are the only carries, each
    span/ln 2 long (~1.8*10^3 for g1 at s = 1/8 and 30 digits): under
    _MAX_NODES at most 5*10^4 products by 2^{-s}, a relative error of ~10^5
    roundings, 5 of the 15 guard digits.

    Each node calls g once, at the index k = j + period * stride of 2x,
    unless k < 0 and the sweep has already called g at -k: then g at k is
    g(0) minus that value (_kernel's reflection).  On every level of the
    harmonic check -k is an index of the same sweep, as the later levels
    take odd indices only, whose mirrors are odd.  Held are the last
    ``period`` nodes and each g at a k > 0 whose mirror -k the sweep has
    yet to reach, dropped once it does.
    """
    half_s = mpf(2) ** (-s)
    g0 = g(mpf(0))
    shift = period * stride  # index of 2x less that of x
    low = bottom + shift  # the lowest index whose g the sweep needs
    mirrors = {}
    window = deque(maxlen=period)
    for j in range(top, bottom - 1, -stride):
        k = j + shift
        if len(window) == period:
            x2, f2, w2 = window[0]
            x, w = x2 / 2, w2 * half_s
        else:
            x, w = mp.exp(j * h), mp.exp(s * j * h)
            x2, f2 = 2 * x, 0
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

    The grid on t = ln x has step ln2/2, ln2/4, ... and ends on whole
    multiples of ln2/2, so each node's F is g(2x) plus the F of the node ln 2
    to its right, and its x and weight e^{st} are carried from that node
    too (see _dilate_nodes): past the first ln 2 of a level, a node costs
    only its g.  Taking F = 0 past t_right drops about F(e^{t_right}) at
    every node, which integrates to about the integrand at t_right over s:
    the order of the interval truncation already accepted.  The identity
    holds for every function of the grid (Flajolet, Gourdon and Dumas, TCS
    144, 1995); the left cutoff uses F's decay rate s (see _exp_axis).

    The refinement stops on a proved bound of the discretization error,
    relative to the estimate (see _refine_trapezoid); the cutoffs are sized
    apart, by _exp_axis.  The integrand
    F(e^t) e^{st} is analytic in |Im t| < pi, and there, by _kernel's
    majorant applied term by term to F, its integral along each line
    Im t = y, |y| <= a, is at most M = M~(s)/((2^s - 1) cos(a/2)^c).  The
    trapezoid sum of step h is then within 2M/(e^{2 pi a/h} - 1) of the
    integral (Trefethen and Weideman, SIAM Review 56, 2014, Thm 5.1), and
    a = 2 atan(4 pi/(c h)) minimises that over 0 < a < pi.
    """
    with mp.workdps(ctx.working_digits):
        sv = to_mpf(s)
        h0 = mp.ln(2) / 2
        kernel, t_left, t_right, tol = _exp_axis(function_id, sv, ctx, h0, dilate=True)
        g, c = kernel.f, kernel.c
        m0 = kernel.majorant(sv) / (mpf(2) ** sv - 1)  # M at a = 0

        def bound(h):
            a = 2 * mp.atan(4 * mp.pi / (c * h))
            return 2 * m0 / (mp.cos(a / 2) ** c * (mp.exp(2 * mp.pi * a / h) - 1))

        lo = int(mp.floor(t_left / h0))
        hi = int(mp.ceil(t_right / h0))

        def values(n, h, indices):
            # node i of the level sits at t = (bottom + i) h; right to left
            scale = n // (hi - lo)
            bottom = lo * scale
            for _, _, value, weight in _dilate_nodes(
                    g, sv, h, bottom + indices[-1], bottom + indices[0], indices.step,
                    2 * scale // indices.step):
                yield value * weight

        quad = _refine_trapezoid(values, hi - lo, h0, tol, bound)
        closed = mellin_closed(function_id, s, ctx).value / (mpf(2) ** sv - 1)
        err = wrap(abs(quad - closed), ctx)
    return _mellin_record("harmonic", function_id, s, None, None, err, ctx)


# g1 and g2 beyond their _kernel, as (C, lam, a): g_n(y) <= C y^{-b}, and
# g_n(x) = g_n(0) + sum_{j>=0} a(j) x^{lam + j} near 0
_DILATE = {
    1: (2, Fraction(1, 2), lambda j: mpf(-2 * (-1) ** j) / (2 * j + 1)),
    2: (1, Fraction(1), lambda j: (-1) ** (j + 1)),
}


def _dilate_kernel(route, n, x):
    """x as mpf, then g, closed and b of g_n's _kernel, then C, lam and a of
    _DILATE, once n is the int 1 or 2 and x > 0."""
    if require_int(n, f"{route} n") not in _DILATE:
        raise DomainError(f"{route} supports n = 1 or 2, got {n!r}")
    xv = to_mpf(x)
    if xv <= 0:
        raise DomainError(f"{route} requires x > 0, got {mp.nstr(xv, 12)}")
    kernel = _kernel(f"g{n}")
    return (xv, kernel.f, kernel.closed, kernel.b, *_DILATE[n])


def g_direct(n: int, x, ctx: PrecisionContext) -> SeriesValue:
    """Direct dilate sum F(x) = sum_{k>=1} g_n(2^k x), n = 1 or 2, stopped at
    the first term <= 10^(-working digits) times the running sum with rho_k < 1.

    rho_k = g_n(2^{k+1} x)/g_n(2^k x): ln g_n(e^v) is concave in v for g1
    and g2, so g_n(2y)/g_n(y) falls as y grows.  Refused up front: a sum the
    estimate from g_n(y) <= C y^{-b} (2 y^{-1/2} for g1, y^{-1} for g2, b the
    right decay offset of g_n's _kernel) puts over 10^5 terms.
    """
    with mp.workdps(ctx.working_digits):
        xv, g, _, b, big_c, _, _ = _dilate_kernel("g_direct", n, x)
        est = (mp.log(big_c / (1 - mpf(2) ** (-b)), 2) + ctx.working_digits * mp.log(10, 2)) / b
        need = int(mp.ceil(est - mp.log(xv, 2) - 1))
        if need > 100_000:
            raise ConvergenceError(f"g_direct needs {need} terms, over the cap of 100000")

        def terms():
            y = xv
            while True:
                y *= 2
                yield g(y)

        return _ratio_sum(terms(), lambda k, t: g(xv * 2 ** (k + 1)) / t, ctx, "g_direct")


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
    Power terms: rho = x, above every ratio; x^lam and 2^{-lam} are carried.
    |M(i w_{k+1})/M(i w_k)| <= r = 2 e^{-beta}, beta = 2 pi^2/ln 2, so the
    complex terms M(i w_k) x^{-i w_k} take rho = r, and their tail bounds the
    moduli of the dropped terms, not only their real parts.
    """
    with mp.workdps(ctx.working_digits):
        xv, g, closed, _, _, lam, coef = _dilate_kernel("g_expansion", n, x)
        if xv >= mpf(1) / 2:
            raise DomainError(
                f"g_expansion restricted to x < 1/2 (geometric tail bound), got {mp.nstr(xv, 12)}"
            )
        ln2 = mp.ln(mpf(2))
        w = 2 * mp.pi / ln2
        r = 2 * mp.exp(-mp.pi * w)  # beta = pi w_1
        turn = mp.expj(-w * mp.ln(xv))  # x^{-i w_1}

        def powers():
            power, half = xv ** to_mpf(lam), mpf(2) ** -to_mpf(lam)
            for j in count():
                yield coef(j) * power / (half - 1)
                power, half = power * xv, half / 2

        power = _ratio_sum(powers(), lambda k, t: xv, ctx, "g_expansion")
        osc = _ratio_sum((2 * closed(mp.mpc(0, k * w)) * turn**k / ln2 for k in count(1)),
                         lambda k, t: r, ctx, "g_expansion")
        value = (g(mpf(0)) * (-mpf(1) / 2 - mp.ln(xv) / ln2)
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
