"""Benchmark of the `almostid` command line: time to a verified report.

    python3 perfbench/run.py --workload identity_scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

A run repeats whole rounds of its workload's invocations, in process and on
one thread, until --seconds have passed, then checks every row of every
report against independent references (see checks.py).  With --trace 0 it
reports the end-to-end metrics; with --trace 1 it times rounds untraced for
--seconds, then runs one traced round and reports the per-layer metrics and
the tracing overhead.  The last line of stdout is one JSON object.
--workload all runs each workload in a child process of its own and prints
a table of their metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 11
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); from almostid.cli import main; "
              "main(['verify', '--n', '1', '--digits', '20'])")
CHILD_TIMEOUT_S = 170


def invoke(main, args):
    """Run one CLI invocation in process -> (exit code or None if it raised, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            main(list(args), standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash fails the invocation's rows; the run goes on
            traceback.print_exc(file=sys.stderr)
            code = None
    return code, out.getvalue()


def run_round(main, invocations, tracer=None):
    """One pass over the workload -> (wall s, cpu s, [(code, text)])."""
    outputs = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for inv in invocations:
        if tracer is None:
            outputs.append(invoke(main, inv.args))
        else:
            with tracer.span("cli"):
                outputs.append(invoke(main, inv.args))
    return time.perf_counter() - wall0, time.process_time() - cpu0, outputs


def timed_rounds(main, invocations, seconds):
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(main, invocations))
    return rounds


def setup_seconds():
    """Median wall time of a fresh interpreter importing almostid.cli and
    finishing one trivial verify; one untimed start first writes bytecode."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or "pass=true" not in proc.stdout:
            raise RuntimeError(f"set-up verify failed ({proc.returncode}): {proc.stderr[-500:]}")
    return statistics.median(times[1:])


def check_outputs(invocations, rounds_outputs):
    """-> (attempted, failed, problems).  Rows of an invocation that exited
    non-zero or raised are failed; every other row is checked, each distinct
    report text once, and the checker self-test runs on the first round."""
    from checks import Checker, parse_rows

    checker = Checker()
    attempted = failed = 0
    problems = []
    seen = set()
    for round_no, outputs in enumerate(rounds_outputs):
        for inv, (code, text) in zip(invocations, outputs):
            attempted += len(inv.cells)
            if code != 0:
                failed += len(inv.cells)
                continue
            if text in seen:
                continue
            seen.add(text)
            try:
                rows = parse_rows(inv.fmt, text)
            except ValueError as exc:
                problems.append(f"{inv.label}: unparsable report: {exc}")
                continue
            problems += checker.check(inv, rows)
            if round_no == 0:
                problems += checker.self_test(inv, rows)
    return attempted, failed, problems


def layer_metrics(tracer, traced_wall, untraced_wall):
    from checks import target_fraction, u_plain
    from mpmath import mp

    totals = tracer.totals()

    def self_s(*names):
        return sum(totals[n][1] for n in names if n in totals)

    def prefixed_self_s(prefix):
        return sum(v[1] for n, v in totals.items() if n.startswith(prefix))

    r_calls = tracer.kept["series.r_correction"]
    r_cells = {(a[0], a[1], a[2].digits) for a, _ in r_calls}
    rows_names = [n for n in totals if n.startswith("report.") and not n.startswith("report.render_")]
    rendered = [res for n in ("report.render_json", "report.render_csv", "report.render_text")
                for _, res in tracer.kept[n]]

    # tail bounds against the plain sum at 60 extra digits; pred(n) = u_n - t_n
    misses = 0
    refs = {}
    for name in ("series.u_direct", "series.predicted_correction"):
        for (n, base, ctx), result in tracer.kept[name]:
            key = (n, base, ctx.digits)
            if key not in refs:
                refs[key] = u_plain(n, base, ctx.digits + 60)
            with mp.workdps(ctx.digits + 70):
                ref = refs[key]
                if name == "series.predicted_correction":
                    q = target_fraction(n)
                    ref = ref - q.numerator * (mp.pi if n % 2 else 1) / mp.mpf(q.denominator)
                if abs(result.value.value - ref) > result.tail_bound.value:
                    misses += 1

    def count(name, field=0):
        return totals[name][field] if name in totals else 0

    values = {
        "series.r_correction.calls": (len(r_calls), "count"),
        "series.r_correction.distinct_ratio": (len(r_cells) / len(r_calls) if r_calls else 0.0, "ratio"),
        "series.r_correction.terms": (sum(r.terms_used for _, r in r_calls), "count"),
        "series.r_correction.self_s": (self_s("series.r_correction"), "s"),
        "series.predicted_correction.self_s": (self_s("series.predicted_correction"), "s"),
        "series.u_direct.self_s": (self_s("series.u_direct"), "s"),
        "series.u_direct.terms": (sum(r.terms_used for _, r in tracer.kept["series.u_direct"]), "count"),
        "series.verify_identity.self_s": (self_s("series.verify_identity"), "s"),
        "series.tail_bound_misses": (misses, "count"),
        "mellin.mellin_numeric.calls": (count("mellin.mellin_numeric"), "count"),
        "mellin.mellin_numeric.self_s": (self_s("mellin.mellin_numeric"), "s"),
        "mellin.mellin_numeric.elem_calls": (count("mellin.mellin_numeric", 2), "count"),
        "mellin.harmonic_factor_check.self_s": (self_s("mellin.harmonic_factor_check"), "s"),
        "mellin.harmonic_factor_check.elem_calls": (count("mellin.harmonic_factor_check", 2), "count"),
        "mellin.mellin_closed.self_s": (self_s("mellin.mellin_closed"), "s"),
        "mellin.g_direct.self_s": (self_s("mellin.g_direct"), "s"),
        "mellin.g_expansion.self_s": (self_s("mellin.g_expansion"), "s"),
        "mellin.lemma_check.self_s": (self_s("mellin.lemma_check"), "s"),
        "gallery.self_s": (prefixed_self_s("gallery."), "s"),
        "gallery.borwein_sum.self_s": (self_s("gallery.borwein_sum"), "s"),
        "report.rows.self_s": (self_s(*rows_names), "s"),
        "report.render.self_s": (prefixed_self_s("report.render_"), "s"),
        "report.bytes": (sum(len(text.encode()) for text in rendered), "bytes"),
        "cli.invocations": (count("cli"), "count"),
        "cli.self_s": (self_s("cli"), "s"),
        "mpmath.elem_calls": (tracer.elem_calls, "count"),
        "trace.overhead": (traced_wall / untraced_wall, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run_workload(name, seconds, trace):
    import almostid
    from almostid.cli import main

    invocations = WORKLOADS[name]
    rows = sum(len(inv.cells) for inv in invocations)
    setup = None if trace else setup_seconds()
    rounds = timed_rounds(main, invocations, seconds)
    wall = statistics.median(r[0] for r in rounds)
    outputs = [r[2] for r in rounds]
    if trace:
        from spans import Tracer

        tracer = Tracer()
        with tracer.patch(almostid):
            traced = run_round(main, invocations, tracer)
        outputs.append(traced[2])
        metrics = layer_metrics(tracer, traced[0], wall)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "cpu_s": {"value": statistics.median(r[1] for r in rounds), "unit": "s"},
            "rows_per_s": {"value": rows / wall, "unit": "rows/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup, "unit": "s"},
        }
    attempted, failed, problems = check_outputs(invocations, outputs)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{name}: {rows} rows per round; untraced rounds took "
          + " ".join(f"{r[0]:.2f}" for r in rounds) + " s", file=sys.stderr)
    for metric, entry in metrics.items():
        print(f"  {metric:42s} {entry['value']:>16.6g} {entry['unit']}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(seed, seconds, trace):
    """Each workload in a child process, so that peak_rss_mb is its own."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'workload':22s} {'metric':42s} {'value':>14s} unit")
    for name, result in results.items():
        print(f"{name:22s} {'attempted / failed':42s} {result['attempted']:>7d} / {result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"{name:22s} {metric:42s} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps({"correct": all(r["correct"] for r in results.values()), "workloads": results}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0,
                        help="ignored: the workloads are fixed grids")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "almostid" / "cli.py").is_file():
        print(f"no almostid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
    else:
        print(json.dumps(run_workload(args.workload, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
