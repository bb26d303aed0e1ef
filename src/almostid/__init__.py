"""High-precision verification of almost-identity sums.

The library computes the bilateral sums u_n(m), their exact rational or
pi-rational targets, the hyperbolic correction series r_n(m), and checks
everything against everything: the recurrence between indices, numerically
integrated Mellin transforms against their closed forms, dilate sums against
residue expansions, and a gallery of famous near-integers against exact
integer oracles.
"""

from .errors import ConvergenceError, DomainError
from .gallery import (
    GalleryEntry,
    borwein_sum,
    hickerson,
    misc_constant,
    ordered_bell,
    ramanujan_constant,
)
from .mellin import (
    DualCheck,
    FUNCTION_GRID,
    LemmaCheck,
    MellinCheck,
    dual_check,
    g_direct,
    g_expansion,
    harmonic_factor_check,
    lemma_check,
    mellin_check,
    mellin_closed,
    mellin_numeric,
    parse_function_id,
    pass_threshold,
)
from .precision import (
    BigReal,
    ExactRational,
    ExactTarget,
    PrecisionContext,
    const_pi,
    elem,
    rational,
    within,
    wrap,
)
from .series import (
    IdentityReport,
    SeriesValue,
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

__version__ = "1.0.0"

__all__ = [
    "BigReal",
    "ConvergenceError",
    "DomainError",
    "DualCheck",
    "ExactRational",
    "ExactTarget",
    "FUNCTION_GRID",
    "GalleryEntry",
    "IdentityReport",
    "LemmaCheck",
    "MellinCheck",
    "PrecisionContext",
    "SeriesValue",
    "borwein_sum",
    "check_recurrence",
    "coeff_b",
    "coeff_c",
    "const_pi",
    "dual_check",
    "elem",
    "g_direct",
    "g_expansion",
    "harmonic_factor_check",
    "hickerson",
    "lemma_check",
    "mellin_check",
    "mellin_closed",
    "mellin_numeric",
    "misc_constant",
    "ordered_bell",
    "parse_function_id",
    "pass_threshold",
    "predicted_correction",
    "r_correction",
    "ramanujan_constant",
    "rational",
    "recurrence_factor",
    "target",
    "u_direct",
    "verify_identity",
    "within",
    "wrap",
]
