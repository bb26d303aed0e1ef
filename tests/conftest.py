import pytest
from mpmath import mp, mpf

from almostid import PrecisionContext

# a bool, a whole float and a numeric str: every integer parameter of the
# public API refuses each of them with DomainError
NOT_INTS = (True, 2.0, "3")


@pytest.fixture
def ctx30():
    return PrecisionContext(digits=30)


@pytest.fixture
def ctx40():
    return PrecisionContext(digits=40)


@pytest.fixture
def ctx50():
    return PrecisionContext(digits=50)


def leading_digits(x, count):
    """First ``count`` significant decimal digits of |x| and the exponent of
    the leading digit: leading_digits(5.389e-12, 2) == (53, -12).

    Truncation, not rounding, so '0.53...e-11' in a printed table compares
    as (53, -12) regardless of the digits behind it.
    """
    v = abs(mpf(x) if not hasattr(x, "value") else abs(x.value))
    assert v > 0
    e = int(mp.floor(mp.log10(v)))
    mant = int(v / mpf(10) ** (e - count + 1))
    # guard against floor(log10) landing one off at powers of ten
    while mant >= 10**count:
        mant //= 10
        e += 1
    while mant < 10 ** (count - 1):
        mant = int(v / mpf(10) ** (e - count))
        e -= 1
    return mant, e


def rel_agree_digits(a, b):
    """Number of significant decimal digits to which a and b agree."""
    av = a.value if hasattr(a, "value") else mpf(a)
    bv = b.value if hasattr(b, "value") else mpf(b)
    if av == bv:
        return 10**6
    return int(-mp.log10(abs(av - bv) / max(abs(av), abs(bv))))
