"""The benchmark's workloads: fixed grids of `almostid` invocations.

The grids come from the paper's tables and acceptance criteria, so no seed
changes them.  Each invocation lists the cells its report must hold, in
report order; one cell is one report row and one benchmark operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

SCAN_N = range(1, 31)
SCAN_BASES = (2, 3, 4, 9)
BIG_BASE = 10**40
MELLIN_FUNCTIONS = ("g1", "g2", "fn3", "fn4", "fn5", "fn6", "fn7")
MELLIN_S = (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8))
DUAL_X = (Fraction(1, 10), Fraction(1, 5), Fraction(3, 10), Fraction(9, 20))
LEMMA_U = (Fraction(0), Fraction(3, 2), Fraction(5, 2))
GALLERY = (("ramanujan37", 200), ("ramanujan58", 200), ("ramanujan163", 200),
           ("triangle_l", 200), ("e_pi_minus_pi", 200), ("borwein", 2000))


@dataclass(frozen=True)
class Invocation:
    """One `almostid` command line and the row keys its report must hold."""

    args: tuple
    kind: str  # row type: identity, mellin, dual, lemma or gallery
    cells: tuple

    @property
    def label(self) -> str:
        return " ".join(self.args)

    def option(self, name: str, default: str) -> str:
        return self.args[self.args.index(name) + 1] if name in self.args else default

    @property
    def digits(self) -> int:
        return int(self.option("--digits", "40"))

    @property
    def fmt(self) -> str:
        return self.option("--format", "text")


def _scan(digits):
    return Invocation(
        ("scan", "--n", "1..30", "--bases", "2,3,4,9", "--format", "json", "--digits", str(digits)),
        "identity", tuple((n, m) for m in SCAN_BASES for n in SCAN_N))


def _verify(n, base):
    return Invocation(("verify", "--n", str(n), "--base", str(base), "--digits", "200"),
                      "identity", ((n, base),))


def _mellin(functions, s_values, digits, *extra):
    args = ("mellin", "--functions", ",".join(functions),
            "--s", ",".join(str(s) for s in s_values), "--digits", str(digits)) + extra
    cells = [("transform", f, s) for f in functions for s in s_values]
    if "--harmonic" in extra:
        cells += [("harmonic", f, s) for f in functions if f in ("g1", "g2") for s in s_values]
    return Invocation(args, "mellin", tuple(cells))


def _gallery(item, digits):
    return Invocation(("gallery", "--item", item, "--digits", str(digits)), "gallery", (item,))


WORKLOADS = {
    # many cells with few series terms each; r_correction runs 8x per
    # distinct cell along the correction chain; no quadrature
    "identity_scan": (_scan(50), _scan(200)),
    # trapezoid quadrature on ~1e4-node grids, plus two dilate-sum checks
    # of ~15 s each; no series
    "transform_quadrature": (
        _mellin(MELLIN_FUNCTIONS, MELLIN_S, 30, "--format", "csv"),
        _mellin(("g1", "g2"), (Fraction(1, 4),), 30, "--harmonic"),
    ),
    # few cells with many terms per call: base 1e40 makes r_correction long,
    # and high digits make each term dear; also dual, lemma, gallery, text
    "high_precision": (
        _verify(30, 2), _verify(5, BIG_BASE), _verify(30, BIG_BASE),
        Invocation(("dual", "--digits", "200"), "dual",
                   tuple((n, x) for n in (1, 2) for x in DUAL_X)),
        Invocation(("lemma", "--n", "3..10", "--k", "0..4", "--u", "0,1.5,2.5", "--digits", "200"),
                   "lemma", tuple((n, k, u) for n in range(3, 11) for k in range(5) for u in LEMMA_U)),
        *(_gallery(item, digits) for item, digits in GALLERY),
        _mellin(("g1",), (Fraction(1, 8),), 60),
    ),
}
