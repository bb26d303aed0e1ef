"""Command-line front end: verification runs, scans, Mellin checks, gallery.

Usage examples:

    almostid verify --n 4 --base 2 --digits 40 --format json
    almostid scan --n 1..6 --bases 2 --digits 30 --format csv
    almostid mellin --functions g1,g2,fn3 --s 1/8,1/4 --digits 30
    almostid dual --n 1..2 --x 0.1,0.3 --digits 30
    almostid lemma --n 3..6 --k 0..2 --u 0,2.5 --digits 30
    almostid gallery --item ramanujan163 --digits 50

Each row renders the record one library check returns (verify_identity,
mellin_check, harmonic_factor_check, dual_check, lemma_check or a gallery
entry), and the record's ``passed`` is the row's verdict.  Exit status: 0 when
every per-item check passed, 1 on any verification failure, 2 on usage or
domain errors.  In _rows, the one cell -> row loop, a cell that does not
converge, and in scan also one outside the domain, gets its own error row.
All numerics print as decimal strings; repeated runs with the same
configuration emit byte-identical reports.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import click
from mpmath import mp, mpf

from . import gallery as gallery_mod
from . import mellin as mellin_mod
from . import report as report_mod
from . import series as series_mod
from .errors import ConvergenceError, DomainError
from .precision import PrecisionContext, to_mpf

def parse_int_range(text: str):
    """'7' -> [7]; 'a..b' -> [a..b] inclusive (empty when b < a)."""
    text = text.strip()
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise DomainError(f"bad range {text!r}, expected 'a..b'")
        return list(range(lo, hi + 1))
    try:
        return [int(text)]
    except ValueError:
        raise DomainError(f"bad integer {text!r}")


def parse_int_list(text: str):
    values = []
    for piece in text.split(","):
        values.extend(parse_int_range(piece))
    if not values:
        raise DomainError("empty integer list")
    return values


def parse_str_list(text: str):
    values = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not values:
        raise DomainError("empty value list")
    return values


def _parse_s(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"bad s value {text!r}, expected a fraction or decimal")


def _parse_decimal(text: str, what: str):
    try:
        return to_mpf(text)
    except DomainError:
        raise DomainError(f"bad {what} {text!r}, expected a finite decimal")


def _identity_context(command: str, digits: int, residual_tol):
    """Context and parsed --residual-tol gate (None when absent) for verify/scan;
    a gate <= 0, which only an exact zero residual could meet, is refused."""
    if digits < 20:
        raise DomainError(f"{command} needs digits >= 20 to resolve the deltas, got {digits}")
    ctx = PrecisionContext(digits=digits)
    with mp.workdps(ctx.working_digits):
        gate = (None if residual_tol is None
                else _parse_decimal(residual_tol, "residual tolerance"))
    if gate is not None and gate <= 0:
        raise DomainError(f"residual tolerance must be positive, got {residual_tol!r}")
    return ctx, gate


def _rows(columns, keys, cells, row_of, errors=(ConvergenceError,)):
    """The cell -> row loop of every subcommand.

    row_of(cell) computes the one row of a cell.  An exception in ``errors``
    gives an error row whose key columns ``keys`` hold the cell's own values;
    any other failure propagates.  ``errors`` is ConvergenceError, and for
    scan also DomainError, so that a cell like n = 0 gets its own row.
    """
    rows = []
    for cell in cells:
        try:
            rows.append(row_of(cell))
        except errors as exc:
            rows.append(report_mod.format_row(columns, False, str(exc), **dict(zip(keys, cell))))
    return rows


def _emit(columns, rows, fmt, out_path, ok=True, single=False):
    """Render and write the report, then exit 0 when ``ok`` holds and every
    row passed, else 1.  ``single`` renders the one row as a JSON object."""
    if fmt == "json":
        text = report_mod.render_json(rows[0] if single else rows) + "\n"
    elif fmt == "csv":
        text = report_mod.render_csv(rows, columns)
    else:
        text = report_mod.render_text(rows, columns)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        click.echo(text, file=sys.stdout, nl=False)
    sys.exit(0 if ok and all(row["pass"] for row in rows) else 1)


def _emit_identity(cells, ctx, gate, fmt, out_path, errors=(ConvergenceError,), single=False):
    """_emit for the rows _rows makes of verify/scan cells with ``errors``;
    a --residual-tol gate also fails the exit status unless every computed
    |residual|, read back from its exact decimal column, is within it."""
    rows = _rows(report_mod.IDENTITY_COLUMNS, ("n", "base"), cells,
                 lambda cell: report_mod.identity_row(series_mod.verify_identity(*cell, ctx)),
                 errors)
    with mp.workdps(ctx.working_digits):
        ok = gate is None or all(abs(mpf(row["residual"])) <= gate
                                 for row in rows if row["residual"] != "")
    _emit(report_mod.IDENTITY_COLUMNS, rows, fmt, out_path, ok, single)


@contextmanager
def _usage_errors():
    # option parsing and the computation itself both raise DomainError,
    # which is a usage error: status 2
    try:
        yield
    except DomainError as exc:
        raise click.UsageError(str(exc))


def _common_options(fn):
    fn = click.option("--digits", type=int, default=40, show_default=True,
                      envvar="ALMOSTID_DIGITS",
                      help="Requested decimal digits (guard digits added on top).")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]),
                      default="text", show_default=True)(fn)
    fn = click.option("--out", "out_path", type=click.Path(dir_okay=False),
                      default=None, help="Write the report to a file instead of stdout.")(fn)
    return fn


@click.group()
@click.version_option(package_name="almostid")
def main():
    """High-precision verification of almost-identity sums and their errors."""


@main.command()
@click.option("--n", "n_text", required=True, help="Index n (single integer).")
@click.option("--base", type=int, default=2, show_default=True)
@click.option("--residual-tol", default=None,
              help="Extra exit-status gate: fail unless |residual| <= this decimal.")
@_common_options
def verify(n_text, base, residual_tol, digits, fmt, out_path):
    """Verify u_n = target + chained correction for one (n, base) cell."""
    with _usage_errors():
        values = parse_int_list(n_text)
        if len(values) != 1:
            raise DomainError("verify takes a single n; use scan for ranges")
        ctx, gate = _identity_context("verify", digits, residual_tol)
        _emit_identity([(values[0], base)], ctx, gate, fmt, out_path, single=True)


@main.command()
@click.option("--n", "n_text", required=True, help="Range 'a..b' or single n.")
@click.option("--bases", "bases_text", default="2", show_default=True,
              help="Comma list of bases m >= 2.")
@click.option("--residual-tol", default=None,
              help="Extra exit-status gate: fail unless every |residual| <= this decimal.")
@_common_options
def scan(n_text, bases_text, residual_tol, digits, fmt, out_path):
    """Verify a grid of cells ordered by (base, n)."""
    with _usage_errors():
        n_values = parse_int_range(n_text)
        bases = parse_int_list(bases_text)
        ctx, gate = _identity_context("scan", digits, residual_tol)
        # duplicates collapse; bases ascending, then n ascending
        cells = [(n, m) for m in sorted(set(bases)) for n in sorted(set(n_values))]
        _emit_identity(cells, ctx, gate, fmt, out_path, (DomainError, ConvergenceError))


@main.command()
@click.option("--functions", "functions_text", default=",".join(mellin_mod.FUNCTION_GRID),
              show_default=True, help="Comma list from g1, g2, fn<n>.")
@click.option("--s", "s_text", default="1/8,1/4,3/8", show_default=True,
              help="Comma list of s values (fractions or decimals).")
@click.option("--harmonic", is_flag=True, default=False,
              help="Also check the dilate-sum transform against closed/(2^s-1).")
@_common_options
def mellin(functions_text, s_text, harmonic, digits, fmt, out_path):
    """Compare quadrature against closed forms for the transform family."""
    with _usage_errors():
        functions = parse_str_list(functions_text)
        s_texts = parse_str_list(s_text)
        ctx = PrecisionContext(digits=digits)
        s_of = {text: _parse_s(text) for text in s_texts}
        check = {"transform": mellin_mod.mellin_check,
                 "harmonic": mellin_mod.harmonic_factor_check}
        cells = [("transform", fid, text) for fid in functions for text in s_texts]
        if harmonic:
            cells += [("harmonic", fid, text) for fid in functions for text in s_texts]
        columns = report_mod.MELLIN_COLUMNS
        rows = _rows(columns, ("kind", "function", "s"), cells, lambda cell: report_mod.mellin_row(
            check[cell[0]](cell[1], s_of[cell[2]], ctx)))
        _emit(columns, rows, fmt, out_path)


@main.command()
@click.option("--n", "n_text", default="1..2", show_default=True)
@click.option("--x", "x_text", default="0.1,0.2,0.3,0.45", show_default=True,
              help="Comma list of x values in (0, 1/2).")
@_common_options
def dual(n_text, x_text, digits, fmt, out_path):
    """Compare the dilate sums G_n against their residue expansions."""
    with _usage_errors():
        cells = [(n, x) for n in parse_int_range(n_text) for x in parse_str_list(x_text)]
        ctx = PrecisionContext(digits=digits)
        columns = report_mod.DUAL_COLUMNS
        rows = _rows(columns, ("n", "x"), cells,
                     lambda cell: report_mod.dual_row(mellin_mod.dual_check(*cell, ctx)))
        _emit(columns, rows, fmt, out_path)


@main.command()
@click.option("--n", "n_text", default="3..6", show_default=True)
@click.option("--k", "k_text", default="0..2", show_default=True)
@click.option("--u", "u_text", default="0,2.5", show_default=True)
@click.option("--h", "h_text", default=None,
              help="Finite-difference step override (default 10^(-digits/3)).")
@_common_options
def lemma(n_text, k_text, u_text, h_text, digits, fmt, out_path):
    """Check the antiderivative identity by central finite differences."""
    with _usage_errors():
        cells = [(n, k, u) for n in parse_int_range(n_text) for k in parse_int_range(k_text)
                 for u in parse_str_list(u_text)]
        ctx = PrecisionContext(digits=digits)
        with mp.workdps(ctx.working_digits):
            h = None if h_text is None else _parse_decimal(h_text, "step h")
        columns = report_mod.LEMMA_COLUMNS
        rows = _rows(columns, ("n", "k", "u"), cells, lambda cell: report_mod.lemma_row(
            mellin_mod.lemma_check(*cell, ctx, h=h)))
        _emit(columns, rows, fmt, out_path)


@main.command()
@click.option("--item", type=click.Choice(("all", *gallery_mod.NAMED, "hickerson")),
              default="all", show_default=True)
@_common_options
def gallery(item, digits, fmt, out_path):
    """Recompute the catalogue of famous almost identities."""
    with _usage_errors():
        ctx = PrecisionContext(digits=digits)
        items = {"all": gallery_mod.NAMED + gallery_mod.HICKERSON,
                 "hickerson": gallery_mod.HICKERSON}.get(item, (item,))
        columns = report_mod.GALLERY_COLUMNS
        rows = _rows(columns, ("item", "digits"), [(name, digits) for name in items],
                     lambda cell: report_mod.gallery_row(gallery_mod.entry(cell[0], ctx)))
        _emit(columns, rows, fmt, out_path)


if __name__ == "__main__":
    main()
