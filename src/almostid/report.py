"""Report rows and their JSON / CSV / text renderings.

Every numeric crosses the boundary as a decimal string (never a binary float),
field order is fixed per row type, and rendering is deterministic: identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json

from mpmath import mp

from .gallery import GalleryEntry
from .mellin import DualCheck, LemmaCheck, MellinCheck
from .precision import BigReal
from .series import IdentityReport

IDENTITY_COLUMNS = (
    "n", "base", "digits", "u", "target_rational", "target_has_pi",
    "delta", "r_predicted", "residual", "tail_bounds", "pass", "error",
)
MELLIN_COLUMNS = ("kind", "function", "s", "numeric", "closed", "abs_err", "pass", "error")
DUAL_COLUMNS = ("n", "x", "direct", "expansion", "abs_err", "pass", "error")
LEMMA_COLUMNS = ("n", "k", "u", "h", "residual", "bound", "pass", "error")
GALLERY_COLUMNS = ("item", "description", "digits", "value", "reference", "delta", "pass", "error")


def format_row(columns, passed, error="", **cells) -> dict:
    """A row of ``columns``, which end in "pass" and "error": ``cells`` give
    the others, a BigReal as its decimal string and one absent or None as
    empty."""
    row = {}
    for c in columns[:-2]:
        value = cells.get(c)
        if value is None:
            value = ""
        elif isinstance(value, BigReal):
            value = value.decimal()
        row[c] = value
    row["pass"] = passed
    row["error"] = error
    return row


def identity_row(r: IdentityReport) -> dict:
    bounds = mp.fadd(r.u.tail_bound.value, r.r_predicted.tail_bound.value,
                     dps=r.u.value.precision_digits)
    return format_row(
        IDENTITY_COLUMNS, r.passed, n=r.n, base=r.base_m, digits=r.digits, u=r.u.value,
        target_rational=r.target.rational_text(), target_has_pi=r.target.has_pi,
        delta=r.delta, r_predicted=r.r_predicted.value, residual=r.residual,
        tail_bounds=BigReal(bounds, r.u.value.precision_digits))


def mellin_row(check: MellinCheck) -> dict:
    return format_row(MELLIN_COLUMNS, check.passed, kind=check.kind,
                      function=check.function_id, s=check.s, numeric=check.numeric,
                      closed=check.closed, abs_err=check.abs_err)


def dual_row(check: DualCheck) -> dict:
    return format_row(DUAL_COLUMNS, check.passed, n=check.n, x=check.x, direct=check.direct,
                      expansion=check.expansion, abs_err=check.abs_err)


def lemma_row(check: LemmaCheck) -> dict:
    return format_row(LEMMA_COLUMNS, check.passed, n=check.n, k=check.k, u=check.u, h=check.h,
                      residual=check.residual, bound=check.bound)


def gallery_row(entry: GalleryEntry) -> dict:
    reference = (str(entry.reference) if isinstance(entry.reference, int)
                 else entry.reference)
    return format_row(GALLERY_COLUMNS, entry.passed, item=entry.id,
                      description=entry.description, digits=entry.digits,
                      value=entry.value, reference=reference, delta=entry.delta)


def render_json(payload) -> str:
    """payload: a single row dict or a list of row dicts; key order preserved."""
    return json.dumps(payload, indent=2)


def _csv_cell(value):
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def render_csv(rows, columns) -> str:
    """Header plus one record per row; RFC 4180 quoting and line endings."""
    out = io.StringIO()
    writer = csv.writer(out, quoting=csv.QUOTE_MINIMAL)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row[c]) for c in columns])
    return out.getvalue()


def render_text(rows, columns) -> str:
    lines = []
    for row in rows:
        lines.append("  ".join(f"{c}={_csv_cell(row[c])}" for c in columns))
    return "\n".join(lines) + ("\n" if lines else "")
