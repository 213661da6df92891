"""The ``python -m repro perf`` subcommands.

``perf run`` executes the timed suites and writes a schema-versioned
``BENCH_<n>.json``; ``perf compare`` gates a new file against a baseline
and exits non-zero on a wall-time regression or any rising ``work``
count (the CI bench job's contract); ``perf
history`` renders the committed trajectory.  Registered into the main
parser by :func:`repro.cli.build_parser`.
"""

from __future__ import annotations

import argparse
import sys

from repro.metrics import format_table
from repro.perf.report import (
    PerfReportError,
    collect_history,
    compare_reports,
    format_comparison,
    format_history,
    load_report,
    report_dict,
    save_report,
)
from repro.perf.suites import SUITE_NAMES, run_suites


def cmd_perf_run(args: argparse.Namespace) -> int:
    """Run the suites, print a summary table, write the JSON report."""
    if args.repeats is not None and args.repeats < 1:
        raise SystemExit("error: --repeats must be >= 1")
    try:
        results = run_suites(
            quick=args.quick,
            repeats=args.repeats,
            only=tuple(args.suite) if args.suite else None,
        )
    except ValueError as error:
        raise SystemExit(f"error: {error}") from None
    rows = [
        [
            r.name,
            f"{r.timing.wall_s:.4f}",
            f"{r.timing.mean_s:.4f}",
            r.timing.repeats,
            " ".join(f"{k}={v:.4g}" for k, v in sorted(r.rates.items())),
        ]
        for r in results
    ]
    print(
        format_table(
            ["suite", "wall (s)", "mean (s)", "repeats", "rates"],
            rows,
            title=f"perf run ({'quick' if args.quick else 'full'} workloads)",
        )
    )
    try:
        previous = load_report(args.out)
    except PerfReportError:
        previous = None
    if previous is not None and bool(previous.get("quick")) != args.quick:
        # The default --out is the committed baseline (the acceptance
        # contract), so warn before a quick run clobbers a full one.
        print(
            f"warning: overwriting {args.out} "
            f"({'full' if not previous.get('quick') else 'quick'} run) "
            f"with a {'quick' if args.quick else 'full'} run",
            file=sys.stderr,
        )
    out = save_report(args.out, report_dict(results, quick=args.quick))
    print(f"\nwrote {out}")
    return 0


def cmd_perf_compare(args: argparse.Namespace) -> int:
    """Gate NEW against OLD; exit 1 on regression, 2 on unusable input.

    A comparison that gated *zero* suites (every name or workload
    fingerprint differs) also exits 2: a gate that silently checks
    nothing would let the CI bench job stay green forever while
    guarding against nothing.
    """
    try:
        old = load_report(args.old)
        new = load_report(args.new)
        result = compare_reports(
            old, new, max_regression=args.max_regression
        )
    except PerfReportError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_comparison(result))
    if old.get("host") != new.get("host"):
        print(
            "note: reports come from different hosts — wall-clock ratios "
            "include hardware differences",
            file=sys.stderr,
        )
    if result.compared == 0:
        print(
            "error: no suite was actually gated (names or workload "
            "counters differ everywhere) — the comparison is vacuous",
            file=sys.stderr,
        )
        return 2
    return 1 if result.regressions else 0


def cmd_perf_history(args: argparse.Namespace) -> int:
    """Render the BENCH_*.json trajectory as a table."""
    try:
        history = collect_history(args.files or None, directory=args.dir)
    except PerfReportError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_history(history))
    return 0


def register_perf_parser(sub: argparse._SubParsersAction) -> None:
    """Attach the ``perf`` subcommand tree to the main CLI parser."""
    p_perf = sub.add_parser(
        "perf", help="performance tracking (run / compare / history)"
    )
    perf_sub = p_perf.add_subparsers(dest="perf_command", required=True)

    p_run = perf_sub.add_parser(
        "run", help="time the hot-path suites and write a BENCH json"
    )
    p_run.add_argument(
        "--quick", action="store_true",
        help="CI-sized workloads only (full runs include them too)",
    )
    p_run.add_argument(
        "--out", default="BENCH_8.json", metavar="FILE",
        help="report destination (default: %(default)s)",
    )
    p_run.add_argument(
        "--repeats", type=int, default=None, metavar="N",
        help="timed repetitions per suite (default: 3)",
    )
    p_run.add_argument(
        "--suite", nargs="+", choices=SUITE_NAMES, metavar="NAME",
        help=f"run only these suites ({', '.join(SUITE_NAMES)})",
    )
    p_run.set_defaults(func=cmd_perf_run)

    p_cmp = perf_sub.add_parser(
        "compare", help="gate a new report against a baseline"
    )
    p_cmp.add_argument("old", help="baseline BENCH json")
    p_cmp.add_argument("new", help="candidate BENCH json")
    p_cmp.add_argument(
        "--max-regression", type=float, default=0.2, metavar="FRACTION",
        help="allowed wall-time growth per suite (0.2 = 20%%; CI uses a "
        "generous value to absorb shared-runner noise); work counts get "
        "no tolerance",
    )
    p_cmp.set_defaults(func=cmd_perf_compare)

    p_hist = perf_sub.add_parser(
        "history", help="render the BENCH_*.json trajectory"
    )
    p_hist.add_argument(
        "files", nargs="*",
        help="report files in order (default: scan --dir for BENCH_<n>.json)",
    )
    p_hist.add_argument(
        "--dir", default=".", help="directory to scan (default: cwd)"
    )
    p_hist.set_defaults(func=cmd_perf_history)
