"""Independent checks of every report row the benchmark workloads produce.

Nothing here imports almostid.  Each row is compared with a reference
computed apart from the program (a plain sum, an exact rational chain, a
Beta-function transform, a closed form) or with a property the method must
have, and never with a stored copy of an earlier report.  Checks run outside
the timed region.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from mpmath import mp, mpf

# Published figures from the paper.  Deltas u_n - t_n as (leading two digits,
# decimal exponent of the leading digit); correction values r_n(2); nearest
# integers of exp(pi sqrt d).
PUBLISHED_DELTAS = {
    (1, 2): (53, -12), (2, 2): (48, -11), (3, 2): (22, -10),
    (4, 2): (67, -10), (5, 2): (15, -9), (6, 2): (29, -9),
    (1, 4): (82, -6), (1, 9): (15, -3), (2, 4): (37, -5),
}
PUBLISHED_R = {1: "0.538914478e-11", 2: "0.4885108992e-10"}
# The paper prints r_1 and r_2 with a last digit that is off by about 1e-8
# relative, so they are held to 1e-7.
PUBLISHED_R_RTOL = mpf("1e-7")
HEEGNER = {37: 199148648, 58: 24591257752, 163: 262537412640768744}

EXTRA_DIGITS = 20
FLIP_FIELDS = ("u", "numeric", "value", "direct")


def parse_rows(fmt: str, text: str) -> list[dict]:
    """Report text in json, csv or text format -> list of {column: str}."""
    if fmt == "json":
        payload = json.loads(text)
        rows = payload if isinstance(payload, list) else [payload]
        return [{k: _cell(v) for k, v in row.items()} for row in rows]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    return [dict(field.split("=", 1) for field in line.split("  "))
            for line in text.splitlines() if line]


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def _num(text: str):
    try:
        return mpf(text)
    except (TypeError, ValueError):
        return None


def _frac(text: str) -> Fraction:
    return Fraction(text).limit_denominator(10**6)


def target_fraction(n: int) -> Fraction:
    """Exact t_n / pi^(n odd) from t_1 = pi, t_2 = 1, t_n = (n-2)/(4(n-1)) t_{n-2}."""
    q = Fraction(1)
    for j in range(n, 2, -2):
        q *= Fraction(j - 2, 4 * (j - 1))
    return q


def u_plain(n: int, base: int, digits: int):
    """ln m * sum_k (2 cosh(k ln m / 2))^(-n) over all integers k, summed
    outward from k = 0 until a term drops below 10^-(digits+10)."""
    with mp.workdps(digits + 10):
        half = mp.log(base) / 2
        eps = mpf(10) ** (-(digits + 10))
        total = mpf(2) ** (-n)
        k = 0
        while True:
            k += 1
            term = (2 * mp.cosh(k * half)) ** (-n)
            total += 2 * term
            if term < eps:
                return 2 * half * total


def dilate_plain(n: int, x, digits: int):
    """sum_{k>=1} g(2^k x), g = 2 atan(1/sqrt(y)) for n = 1, 1/(1+y) for n = 2,
    summed until the geometric bound on the remaining terms drops below
    10^-(digits+10)."""
    with mp.workdps(digits + 10):
        eps = mpf(10) ** (-(digits + 10))
        total = mpf(0)
        y = mpf(x)
        while True:
            y *= 2
            if n == 1:
                total += 2 * mp.atan(1 / mp.sqrt(y))
                rest = 2 / mp.sqrt(y) / (mp.sqrt(2) - 1)
            else:
                total += 1 / (1 + y)
                rest = 1 / y
            if rest < eps:
                return total


def mellin_beta(function_id: str, s: Fraction, digits: int):
    """Mellin transform of g1, g2 or fn<n> at s as Beta functions."""
    with mp.workdps(digits + 10):
        sv = mpf(s.numerator) / s.denominator
        if function_id == "g1":
            return mp.beta(sv + mpf(1) / 2, mpf(1) / 2 - sv) / sv
        if function_id == "g2":
            return mp.beta(sv, 1 - sv)
        n = int(function_id[2:])
        a = sv + mpf(n - 2) / 2
        return mp.beta(a, n - 1 - a) - mp.beta(a + 1, n - 2 - a)


def gallery_reference(item: str, digits: int):
    """Independent (value, reference) for one gallery item."""
    with mp.workdps(digits + 10):
        if item.startswith("ramanujan"):
            d = int(item[len("ramanujan"):])
            return mp.exp(mp.pi * mp.sqrt(d)), mpf(HEEGNER[d])
        if item == "triangle_l":
            rt2 = mp.sqrt(2)
            return (2 + 4 * rt2 + (4 + rt2) * mp.asinh(1)) / 30, rt2 - 1
        if item == "e_pi_minus_pi":
            return mp.e ** mp.pi - mp.pi, mpf(20)
        if item == "borwein":
            ref = 100 * mp.sqrt(mp.pi / mp.log(10))
            return ref, ref
    raise KeyError(item)


def _leading(value, count: int):
    """(first `count` significant digits, decimal exponent of the first)."""
    value = abs(value)
    exp = int(mp.floor(mp.log10(value)))
    if value >= mpf(10) ** (exp + 1):
        exp += 1
    elif value < mpf(10) ** exp:
        exp -= 1
    return int(value * mpf(10) ** (count - 1 - exp)), exp


class Checker:
    """Checks the rows of one invocation; references are computed once per
    cell and reused, so the self-test re-checks altered rows cheaply."""

    def __init__(self):
        self._refs = {}

    def _ref(self, key, compute):
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def check(self, inv, rows) -> list[str]:
        """Problems found in `rows` of invocation `inv`; empty when all hold."""
        if len(rows) != len(inv.cells):
            return [f"{inv.label}: {len(rows)} rows for {len(inv.cells)} requested cells"]
        return [p for i, row in enumerate(rows) for p in self._row_problems(inv, i, row)]

    def self_test(self, inv, rows) -> list[str]:
        """Flip one in-precision digit of each u / numeric / value / direct
        cell; every such change must make the check fail."""
        missed = []
        for i, row in enumerate(rows):
            for field in FLIP_FIELDS:
                if row.get(field):
                    altered = dict(row, **{field: flip_digit(row[field], inv.digits - 10)})
                    if not self._row_problems(inv, i, altered):
                        missed.append(f"{inv.label} row {i}: flipped {field} passed the check")
        return missed

    def _row_problems(self, inv, i, row) -> list[str]:
        try:
            key = _row_key(inv.kind, row)
            if key != inv.cells[i]:
                return [f"{inv.label}: row {i} is {key}, requested {inv.cells[i]}"]
            if row.get("pass") != "true":
                return [f"{inv.label} {key}: row reports pass={row.get('pass')} in a report that exited 0"]
            with mp.workdps(inv.digits + 2 * EXTRA_DIGITS):
                return [f"{inv.label} {key}: {p}" for p in getattr(self, f"_{inv.kind}")(row, inv.digits)]
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            return [f"{inv.label}: row {i} is malformed: {exc!r}"]

    def _identity(self, row, digits):
        n, base = int(row["n"]), int(row["base"])
        q = target_fraction(n)
        u, delta, pred, residual = (_num(row[c]) for c in ("u", "delta", "r_predicted", "residual"))
        if None in (u, delta, pred, residual):
            return ["unparsable number"]
        problems = []
        if Fraction(row["target_rational"]) != q:
            problems.append(f"target_rational {row['target_rational']} != {q}")
        if row["target_has_pi"] != ("true" if n % 2 else "false"):
            problems.append(f"target_has_pi {row['target_has_pi']} for n = {n}")
        t = q.numerator * (mp.pi if n % 2 else 1) / mpf(q.denominator)
        ref = self._ref(("u", n, base, digits), lambda: u_plain(n, base, digits + EXTRA_DIGITS))
        tol = mpf(10) ** (-digits) * max(1, abs(ref))
        if abs(u - ref) > tol:
            problems.append(f"u off the plain sum by {mp.nstr(abs(u - ref), 5)}")
        if abs(delta - (ref - t)) > tol:
            problems.append(f"delta off u - t_n by {mp.nstr(abs(delta - ref + t), 5)}")
        if abs(u - t - pred) > tol:
            problems.append(f"|u - t_n - r_predicted| = {mp.nstr(abs(u - t - pred), 5)}")
        if abs(residual) > tol:
            problems.append(f"|residual| = {mp.nstr(abs(residual), 5)}")
        if (n, base) in PUBLISHED_DELTAS and _leading(delta, 2) != PUBLISHED_DELTAS[(n, base)]:
            problems.append(f"delta {mp.nstr(delta, 5)} differs from the paper's "
                            f"{PUBLISHED_DELTAS[(n, base)]}")
        if base == 2 and n in PUBLISHED_R:
            published = mpf(PUBLISHED_R[n])
            if abs(pred / published - 1) > PUBLISHED_R_RTOL:
                problems.append(f"r_{n} = {mp.nstr(pred, 12)} differs from the paper's {PUBLISHED_R[n]}")
        return problems

    def _mellin(self, row, digits):
        tol = mpf(10) ** (-(digits - 5))
        abs_err = _num(row["abs_err"])
        if abs_err is None or not abs_err < tol:
            return [f"abs_err {row['abs_err']} not below {mp.nstr(tol, 3)}"]
        if row["kind"] == "harmonic":
            return []
        fid, s = row["function"], _frac(row["s"])
        ref = self._ref(("mellin", fid, s, digits), lambda: mellin_beta(fid, s, digits))
        problems = []
        for column in ("numeric", "closed"):
            value = _num(row[column])
            if value is None or abs(value - ref) > tol:
                problems.append(f"{column} {row[column]} off the Beta reference {mp.nstr(ref, 20)}")
        return problems

    def _dual(self, row, digits):
        n, x = int(row["n"]), _frac(row["x"])
        ref = self._ref(("dual", n, x, digits),
                        lambda: dilate_plain(n, mpf(x.numerator) / x.denominator, digits))
        tol = mpf(10) ** (-(digits - 5))
        problems = []
        for column in ("direct", "expansion"):
            value = _num(row[column])
            if value is None or abs(value - ref) > tol:
                problems.append(f"{column} {row[column]} off the plain dilate sum")
        return problems

    def _lemma(self, row, digits):
        h, residual = _num(row["h"]), _num(row["residual"])
        if h is None or residual is None:
            return ["unparsable number"]
        problems = []
        if abs(h / mpf(10) ** (-mpf(digits) / 3) - 1) > mpf(10) ** (-digits):
            problems.append(f"h {row['h']} is not 10^(-digits/3)")
        if not residual <= 10 * h**2:
            problems.append(f"residual {row['residual']} above 10 h^2")
        return problems

    def _gallery(self, row, digits):
        item = row["item"]
        value_ref, reference_ref = self._ref(("gallery", item, digits),
                                             lambda: gallery_reference(item, digits + EXTRA_DIGITS))
        value, reference, delta = (_num(row[c]) for c in ("value", "reference", "delta"))
        if None in (value, reference, delta):
            return ["unparsable number"]
        tol = mpf(10) ** (-digits) * max(1, abs(value_ref))
        problems = []
        if abs(value - value_ref) > tol:
            problems.append(f"value off the reference by {mp.nstr(abs(value - value_ref), 5)}")
        if abs(reference - reference_ref) > tol:
            problems.append(f"reference {row['reference']} is not the expected one")
        if abs(delta - (value_ref - reference_ref)) > tol:
            problems.append(f"delta {mp.nstr(delta, 8)} is not value - reference")
        if item == "borwein" and not abs(delta) < mpf(10) ** (-digits):
            problems.append(f"|delta| = {mp.nstr(abs(delta), 5)} not below 10^-{digits}")
        return problems


def _row_key(kind: str, row: dict):
    if kind == "identity":
        return int(row["n"]), int(row["base"])
    if kind == "mellin":
        return row["kind"], row["function"], _frac(row["s"])
    if kind == "dual":
        return int(row["n"]), _frac(row["x"])
    if kind == "lemma":
        return int(row["n"]), int(row["k"]), _frac(row["u"])
    return row["item"]


def flip_digit(text: str, position: int) -> str:
    """Change the significant digit at 1-based `position` (the last one when
    the number has fewer) to the next digit mod 10."""
    mantissa_end = next((i for i, c in enumerate(text) if c in "eE"), len(text))
    significant = [i for i in range(mantissa_end) if text[i].isdigit()]
    nonzero = next((j for j, i in enumerate(significant) if text[i] != "0"), 0)
    significant = significant[nonzero:]
    at = significant[min(max(position, 1), len(significant)) - 1]
    return text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]
