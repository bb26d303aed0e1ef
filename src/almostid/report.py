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


def decimal_text(value: BigReal) -> str:
    return value.decimal()


def identity_row(item) -> dict:
    if isinstance(item, ScanError):
        return {
            "n": item.n, "base": item.base_m, "digits": None,
            "u": "", "target_rational": "", "target_has_pi": None,
            "delta": "", "r_predicted": "", "residual": "", "tail_bounds": "",
            "pass": False, "error": item.message,
        }
    r: IdentityReport = item
    with mp.workdps(r.u.value.precision_digits):
        bounds = r.u.tail_bound.value + r.r_predicted.tail_bound.value
        bounds_text = BigReal(bounds, r.u.value.precision_digits).decimal()
    return {
        "n": r.n,
        "base": r.base_m,
        "digits": r.digits,
        "u": decimal_text(r.u.value),
        "target_rational": r.target.rational_text(),
        "target_has_pi": r.target.has_pi,
        "delta": decimal_text(r.delta),
        "r_predicted": decimal_text(r.r_predicted.value),
        "residual": decimal_text(r.residual),
        "tail_bounds": bounds_text,
        "pass": r.passed,
        "error": "",
    }


def mellin_row(check: MellinCheck) -> dict:
    return {
        "kind": "transform",
        "function": check.function_id,
        "s": decimal_text(check.s),
        "numeric": decimal_text(check.numeric),
        "closed": decimal_text(check.closed),
        "abs_err": decimal_text(check.abs_err),
        "pass": check.passed,
        "error": "",
    }


def harmonic_row(function_id: str, s: BigReal, abs_err: BigReal, passed: bool) -> dict:
    return {
        "kind": "harmonic",
        "function": function_id,
        "s": decimal_text(s),
        "numeric": "",
        "closed": "",
        "abs_err": decimal_text(abs_err),
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
        "x": decimal_text(check.x),
        "direct": decimal_text(check.direct),
        "expansion": decimal_text(check.expansion),
        "abs_err": decimal_text(check.abs_err),
        "pass": check.passed,
        "error": "",
    }


def lemma_row(n: int, k: int, u_text: str, h: BigReal, residual: BigReal,
              bound: BigReal, passed: bool) -> dict:
    return {
        "n": n,
        "k": k,
        "u": u_text,
        "h": decimal_text(h),
        "residual": decimal_text(residual),
        "bound": decimal_text(bound),
        "pass": passed,
        "error": "",
    }


def gallery_row(entry: GalleryEntry) -> dict:
    reference = (
        str(entry.reference) if isinstance(entry.reference, int)
        else decimal_text(entry.reference)
    )
    return {
        "item": entry.id,
        "description": entry.description,
        "digits": entry.digits,
        "value": decimal_text(entry.value),
        "reference": reference,
        "delta": decimal_text(entry.delta),
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
    if value is None:
        return ""
    return str(value)


def render_csv(rows, columns) -> str:
    """Header plus one record per row; RFC 4180 quoting and line endings."""
    out = io.StringIO()
    writer = csv.writer(out, quoting=csv.QUOTE_MINIMAL)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(c)) for c in columns])
    return out.getvalue()


def render_text(rows, columns) -> str:
    lines = []
    for row in rows:
        lines.append("  ".join(f"{c}={_csv_cell(row.get(c))}" for c in columns))
    return "\n".join(lines) + ("\n" if lines else "")
