"""Schema-versioned perf reports: save, load, compare, history.

A report file (``BENCH_<n>.json``) is one run of the perf suites:

.. code-block:: json

    {
      "kind": "repro.perf",
      "schema_version": 1,
      "quick": false,
      "host": {"python": "3.11.9", "platform": "...", "cpu_count": 8},
      "suites": {
        "executor": {
          "timing": {"wall_s": 0.041, "mean_s": 0.043, "repeats": 2,
                     "warmup": 1},
          "rates": {"events_per_s": 512340.1},
          "counters": {"events": 21023, "executions": 8}
        }
      }
    }

``counters`` are deterministic and double as the workload fingerprint:
``compare`` only gates suites whose counters match exactly, so a quick CI
run checks cleanly against a committed full-run baseline (full runs
include every quick workload) and a workload change can never masquerade
as a speedup.  A suite's optional ``work`` section (stage invocation
counts such as ``plan_builds`` or ``feature_builds``) is gated exactly:
any count that rises over the baseline fails the suite, whatever the
wall clock says.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.metrics import format_table
from repro.perf.suites import SuiteResult
from repro.perf.timing import host_fingerprint

SCHEMA_KIND = "repro.perf"
SCHEMA_VERSION = 1

#: File-name pattern the history command collects, e.g. ``BENCH_5.json``.
BENCH_PATTERN = re.compile(r"^BENCH_(\d+)\.json$")


class PerfReportError(ValueError):
    """A perf report file is missing, malformed, or incompatible."""


def report_dict(
    results: list[SuiteResult], quick: bool
) -> dict[str, object]:
    """Assemble the schema-versioned report for one run."""
    return {
        "kind": SCHEMA_KIND,
        "schema_version": SCHEMA_VERSION,
        "quick": quick,
        "host": host_fingerprint(),
        "suites": {r.name: r.as_dict() for r in results},
    }


def save_report(path: str | Path, report: dict[str, object]) -> Path:
    """Write ``report`` as pretty JSON (trailing newline, sorted keys)."""
    out = Path(path)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out


def load_report(path: str | Path) -> dict[str, object]:
    """Load and validate one report file.

    Raises:
        PerfReportError: when the file is missing, is not JSON, is not a
            perf report, or carries a schema version this code cannot
            read (older *or* newer — v1 is the only schema so far).
    """
    source = Path(path)
    if not source.exists():
        raise PerfReportError(f"no such perf report: {source}")
    try:
        data = json.loads(source.read_text())
    except json.JSONDecodeError as error:
        raise PerfReportError(f"{source} is not valid JSON: {error}") from None
    if not isinstance(data, dict):
        raise PerfReportError(
            f"{source} is not a {SCHEMA_KIND} report (top level is "
            f"{type(data).__name__}, expected an object)"
        )
    if data.get("kind") != SCHEMA_KIND:
        raise PerfReportError(
            f"{source} is not a {SCHEMA_KIND} report "
            f"(kind={data.get('kind')!r})"
        )
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise PerfReportError(
            f"{source} has schema_version {version!r}; this tool reads "
            f"version {SCHEMA_VERSION} — re-generate the file with "
            "'python -m repro perf run'"
        )
    suites = data.get("suites")
    if not isinstance(suites, dict):
        raise PerfReportError(f"{source} has no 'suites' mapping")
    for name, suite in suites.items():
        if (
            not isinstance(suite, dict)
            or not isinstance(suite.get("timing"), dict)
            or not isinstance(suite["timing"].get("wall_s"), (int, float))
        ):
            raise PerfReportError(
                f"{source}: suite {name!r} lacks a timing.wall_s number"
            )
    return data


@dataclass(frozen=True)
class SuiteComparison:
    """Old-vs-new outcome for one suite.

    Attributes:
        name: suite name.
        status: ``"ok"``, ``"regression"`` (wall time),
            ``"work-regression"`` (a ``work`` count rose),
            ``"workload-changed"``, ``"old-only"`` or ``"new-only"``.
        old_wall_s / new_wall_s: measured walls (None when absent).
        ratio: ``new/old`` wall ratio (None when either side is absent
            or the workloads differ).
        work_rises: ``(name, old, new)`` for each work count that rose.
    """

    name: str
    status: str
    old_wall_s: float | None = None
    new_wall_s: float | None = None
    ratio: float | None = None
    work_rises: tuple[tuple[str, int, int], ...] = ()


#: Comparison statuses that fail the gate.
_FAILING = ("regression", "work-regression")


@dataclass
class ComparisonResult:
    """All suite comparisons of one ``perf compare`` invocation."""

    entries: list[SuiteComparison] = field(default_factory=list)
    max_regression: float = 0.2

    @property
    def regressions(self) -> list[SuiteComparison]:
        """The suites that failed: wall time past the allowed fraction,
        or any work count above the baseline."""
        return [e for e in self.entries if e.status in _FAILING]

    @property
    def compared(self) -> int:
        """Suites actually gated (matching name and workload)."""
        return sum(
            1 for e in self.entries if e.status == "ok" or e.status in _FAILING
        )


def _work_rises(old: dict, new: dict) -> tuple[tuple[str, int, int], ...]:
    """Work counts present on both sides that grew from ``old`` to ``new``."""
    old_work = old.get("work") or {}
    new_work = new.get("work") or {}
    return tuple(
        (key, old_work[key], new_work[key])
        for key in sorted(set(old_work) & set(new_work))
        if new_work[key] > old_work[key]
    )


def compare_reports(
    old: dict[str, object],
    new: dict[str, object],
    max_regression: float = 0.2,
) -> ComparisonResult:
    """Gate ``new`` against ``old``.

    A suite regresses when its wall time grows by more than
    ``max_regression`` (0.2 == 20% slower than the baseline), and
    work-regresses when any ``work`` count both sides report is higher
    than the baseline's (no tolerance: the counts are deterministic).
    Suites missing on either side, or whose deterministic ``counters``
    differ (a changed workload), are reported but never gated.

    Raises:
        PerfReportError: for a negative ``max_regression``.
    """
    if max_regression < 0:
        raise PerfReportError("--max-regression must be >= 0")
    old_suites: dict = old["suites"]  # type: ignore[assignment]
    new_suites: dict = new["suites"]  # type: ignore[assignment]
    result = ComparisonResult(max_regression=max_regression)
    for name in sorted(set(old_suites) | set(new_suites)):
        if name not in new_suites:
            result.entries.append(
                SuiteComparison(
                    name,
                    "old-only",
                    old_wall_s=old_suites[name]["timing"]["wall_s"],
                )
            )
            continue
        if name not in old_suites:
            result.entries.append(
                SuiteComparison(
                    name,
                    "new-only",
                    new_wall_s=new_suites[name]["timing"]["wall_s"],
                )
            )
            continue
        old_wall = old_suites[name]["timing"]["wall_s"]
        new_wall = new_suites[name]["timing"]["wall_s"]
        if old_suites[name].get("counters") != new_suites[name].get(
            "counters"
        ):
            result.entries.append(
                SuiteComparison(
                    name,
                    "workload-changed",
                    old_wall_s=old_wall,
                    new_wall_s=new_wall,
                )
            )
            continue
        if old_wall <= 0:
            raise PerfReportError(
                f"suite {name!r} has a non-positive baseline wall time"
            )
        ratio = new_wall / old_wall
        rises = _work_rises(old_suites[name], new_suites[name])
        if rises:
            status = "work-regression"
        elif ratio > 1.0 + max_regression:
            status = "regression"
        else:
            status = "ok"
        result.entries.append(
            SuiteComparison(
                name,
                status,
                old_wall_s=old_wall,
                new_wall_s=new_wall,
                ratio=ratio,
                work_rises=rises,
            )
        )
    return result


def format_comparison(result: ComparisonResult) -> str:
    """Render a comparison as an aligned table plus a verdict line."""
    rows = []
    for entry in result.entries:
        rows.append(
            [
                entry.name,
                "-" if entry.old_wall_s is None else f"{entry.old_wall_s:.4f}",
                "-" if entry.new_wall_s is None else f"{entry.new_wall_s:.4f}",
                "-" if entry.ratio is None else f"{entry.ratio:.3f}x",
                entry.status
                + "".join(
                    f" {key} {old}->{new}" for key, old, new in entry.work_rises
                ),
            ]
        )
    table = format_table(
        ["suite", "old wall (s)", "new wall (s)", "ratio", "status"],
        rows,
        title="perf comparison (ratio > "
        f"{1.0 + result.max_regression:.2f}x or any rising work count "
        "regresses)",
    )
    n_reg = len(result.regressions)
    verdict = (
        f"{result.compared} suite(s) gated, {n_reg} regression(s)"
        if result.compared
        else "no comparable suites (names or workloads differ everywhere)"
    )
    return f"{table}\n{verdict}"


def collect_history(
    paths: list[str | Path] | None = None, directory: str | Path = "."
) -> list[tuple[str, dict[str, object]]]:
    """Load the ``BENCH_*.json`` trajectory, ordered by PR number.

    Args:
        paths: explicit report files (kept in the given order); when
            omitted, ``directory`` is scanned for ``BENCH_<n>.json``.
        directory: where to scan when ``paths`` is omitted.

    Raises:
        PerfReportError: when a file fails to load, or nothing matches.
    """
    if paths:
        chosen = [Path(p) for p in paths]
    else:
        root = Path(directory)
        chosen = sorted(
            (p for p in root.iterdir() if BENCH_PATTERN.match(p.name)),
            key=lambda p: int(BENCH_PATTERN.match(p.name).group(1)),
        )
        if not chosen:
            raise PerfReportError(
                f"no BENCH_<n>.json files found in {root.resolve()}"
            )
    return [(p.name, load_report(p)) for p in chosen]


def format_history(
    history: list[tuple[str, dict[str, object]]]
) -> str:
    """Render the benchmark trajectory as one table (rows = files)."""
    names: list[str] = []
    for _file, report in history:
        for suite in report["suites"]:  # type: ignore[union-attr]
            if suite not in names:
                names.append(suite)
    rows = []
    for file, report in history:
        suites: dict = report["suites"]  # type: ignore[assignment]
        rows.append(
            [file, "quick" if report.get("quick") else "full"]
            + [
                f"{suites[n]['timing']['wall_s']:.4f}" if n in suites else "-"
                for n in names
            ]
        )
    return format_table(
        ["file", "mode", *names],
        rows,
        title="perf trajectory (wall seconds per suite, repeat-min)",
    )
