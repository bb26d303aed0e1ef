"""Arbitrary-precision substrate: contexts, reals, exact rationals, constants.

Every numeric operation in the package runs inside a precision context that
carries guard digits beyond the requested precision.  Boundary values are
immutable ``BigReal`` wrappers that serialize to decimal strings and round-trip
exactly at the precision they were produced under.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .errors import DomainError

ExactRational = Fraction

_ELEM_FNS = ("exp", "ln", "sqrt", "sin", "cos", "sinh", "cosh", "arctan")
GUARD_DIGITS = 15


def require_int(value, what: str, minimum: int | None = None) -> int:
    """value, once it is an int that is not a bool and, given a minimum, at
    least that minimum; anything else is a DomainError naming ``what``."""
    if not isinstance(value, int) or isinstance(value, bool) or (
            minimum is not None and value < minimum):
        at_least = "" if minimum is None else f" >= {minimum}"
        raise DomainError(f"{what} must be an integer{at_least}, got {value!r}")
    return value


@dataclass(frozen=True)
class PrecisionContext:
    """Requested decimal digits plus GUARD_DIGITS of working precision.

    ``working_digits = digits + GUARD_DIGITS`` is the precision every internal
    computation runs at.
    """

    digits: int

    def __post_init__(self):
        require_int(self.digits, "digits", 1)

    @property
    def working_digits(self) -> int:
        return self.digits + GUARD_DIGITS


@dataclass(frozen=True)
class BigReal:
    """An arbitrary-precision real plus the working precision that made it."""

    value: mpf
    precision_digits: int

    def decimal(self) -> str:
        """Decimal-string form carrying enough digits to round-trip exactly."""
        return mp.nstr(self.value, self.precision_digits + 5, strip_zeros=True)


def within(residual: BigReal, bound: BigReal) -> bool:
    """|residual| <= bound, the verdict of every check.  abs runs at the
    residual's own precision, where it is exact: at 53 bits it would round,
    and a residual of -bound (1 + 2^-70) would pass."""
    with mp.workdps(residual.precision_digits):
        return bool(abs(residual.value) <= bound.value)


def wrap(value, ctx: PrecisionContext) -> BigReal:
    """Tag an mpf computed under ctx's working precision as a BigReal."""
    return BigReal(value, ctx.working_digits)


def to_mpf(x) -> mpf:
    """Coerce a boundary value to mpf at the currently active precision.

    Accepts BigReal, ExactRational, int, str (decimal), float, and mpf.
    Decimal strings and rationals are rounded at the active working precision,
    which keeps results deterministic for a fixed context.  NaN and +-inf are
    a DomainError: no operation here is defined there.
    """
    if isinstance(x, BigReal):
        return x.value
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    try:
        v = mpf(x)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"cannot interpret {x!r} as a real number") from exc
    if not mp.isfinite(v):
        raise DomainError(f"{x!r} is not a finite real number")
    return v


def const_pi(ctx: PrecisionContext) -> BigReal:
    with mp.workdps(ctx.working_digits):
        return wrap(+mp.pi, ctx)


def elem(fn_id: str, x, ctx: PrecisionContext) -> BigReal:
    """Elementary function at working precision (backend: mpmath, few-ulp)."""
    if fn_id not in _ELEM_FNS:
        raise DomainError(f"unknown elementary function {fn_id!r}")
    with mp.workdps(ctx.working_digits):
        v = to_mpf(x)
        if fn_id == "ln" and v <= 0:
            raise DomainError(f"ln requires x > 0, got x = {mp.nstr(v, 12)}")
        if fn_id == "sqrt" and v < 0:
            raise DomainError(f"sqrt requires x >= 0, got x = {mp.nstr(v, 12)}")
        fn = {"exp": mp.exp, "ln": mp.ln, "sqrt": mp.sqrt, "sin": mp.sin,
              "cos": mp.cos, "sinh": mp.sinh, "cosh": mp.cosh, "arctan": mp.atan}[fn_id]
        return wrap(fn(v), ctx)


def rational(numerator: int, denominator: int = 1) -> ExactRational:
    """Exact rational in lowest terms with positive denominator."""
    try:
        return Fraction(numerator, denominator)
    except ZeroDivisionError as exc:
        raise DomainError("rational denominator must be nonzero") from exc


@dataclass(frozen=True)
class ExactTarget:
    """Exact limit value: q when has_pi is false, q*pi when true."""

    q: ExactRational
    has_pi: bool

    def to_real(self, ctx: PrecisionContext) -> BigReal:
        with mp.workdps(ctx.working_digits):
            v = to_mpf(self.q)
            if self.has_pi:
                v = v * mp.pi
            return wrap(v, ctx)

    def rational_text(self) -> str:
        return f"{self.q.numerator}/{self.q.denominator}"
