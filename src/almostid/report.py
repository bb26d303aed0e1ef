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
from .mellin import DualCheck, MellinCheck
from .precision import BigReal
from .series import IdentityReport, ScanError

IDENTITY_COLUMNS = (
    "n", "base", "digits", "u", "target_rational", "target_has_pi",
    "delta", "r_predicted", "residual", "tail_bounds", "pass", "error",
)
MELLIN_COLUMNS = ("kind", "function", "s", "numeric", "closed", "abs_err", "pass", "error")
DUAL_COLUMNS = ("n", "x", "direct", "expansion", "abs_err", "pass", "error")
LEMMA_COLUMNS = ("n", "k", "u", "h", "residual", "bound", "pass", "error")
GALLERY_COLUMNS = ("item", "description", "digits", "value", "reference", "delta", "pass", "error")


def identity_row(item) -> dict:
    if isinstance(item, ScanError):
        return error_row(IDENTITY_COLUMNS, n=item.n, base=item.base_m, error=item.message)
    r: IdentityReport = item
    with mp.workdps(r.u.value.precision_digits):
        bounds = r.u.tail_bound.value + r.r_predicted.tail_bound.value
        bounds_text = BigReal(bounds, r.u.value.precision_digits).decimal()
    return {
        "n": r.n,
        "base": r.base_m,
        "digits": r.digits,
        "u": r.u.value.decimal(),
        "target_rational": r.target.rational_text(),
        "target_has_pi": r.target.has_pi,
        "delta": r.delta.decimal(),
        "r_predicted": r.r_predicted.value.decimal(),
        "residual": r.residual.decimal(),
        "tail_bounds": bounds_text,
        "pass": r.passed,
        "error": "",
    }


def mellin_row(check: MellinCheck) -> dict:
    return {
        "kind": "transform",
        "function": check.function_id,
        "s": check.s.decimal(),
        "numeric": check.numeric.decimal(),
        "closed": check.closed.decimal(),
        "abs_err": check.abs_err.decimal(),
        "pass": check.passed,
        "error": "",
    }


def harmonic_row(function_id: str, s: BigReal, abs_err: BigReal, passed: bool) -> dict:
    return {
        "kind": "harmonic",
        "function": function_id,
        "s": s.decimal(),
        "numeric": "",
        "closed": "",
        "abs_err": abs_err.decimal(),
        "pass": passed,
        "error": "",
    }


def error_row(columns, **known) -> dict:
    """Row for a failed item; cells not named stay empty, pass is false."""
    row = {c: known.get(c, "") for c in columns}
    row["pass"] = False
    return row


def dual_row(check: DualCheck) -> dict:
    return {
        "n": check.n,
        "x": check.x.decimal(),
        "direct": check.direct.decimal(),
        "expansion": check.expansion.decimal(),
        "abs_err": check.abs_err.decimal(),
        "pass": check.passed,
        "error": "",
    }


def lemma_row(n: int, k: int, u_text: str, h: BigReal, residual: BigReal,
              bound: BigReal, passed: bool) -> dict:
    return {
        "n": n,
        "k": k,
        "u": u_text,
        "h": h.decimal(),
        "residual": residual.decimal(),
        "bound": bound.decimal(),
        "pass": passed,
        "error": "",
    }


def gallery_row(entry: GalleryEntry) -> dict:
    reference = (
        str(entry.reference) if isinstance(entry.reference, int)
        else entry.reference.decimal()
    )
    return {
        "item": entry.id,
        "description": entry.description,
        "digits": entry.digits,
        "value": entry.value.decimal(),
        "reference": reference,
        "delta": entry.delta.decimal(),
        "pass": True,
        "error": "",
    }


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
