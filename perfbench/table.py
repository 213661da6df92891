"""Render the "where the time goes" table from traced runs' span files.

Usage: python3 perfbench/table.py [SPANS_JSON ...]

Reads the spans a ``--trace 1`` run wrote (by default every
``.perfbench_out/*.spans.json``) and prints one Markdown row per file:
the largest self times with their share of process time, and the
executor's share.  Nothing but the span files is consulted.
"""

import json
import sys
from collections import Counter
from pathlib import Path

from checkout import OUT
from layers import time_shares
from spans import NAME

#: Layers shown per workload, largest self time first.
TOP = 7


def row(path: Path) -> str:
    data = json.loads(path.read_text())
    spans = data["spans"]
    calls = Counter(span[NAME] for span in spans)
    shares = time_shares(spans)
    top = ", ".join(
        f"`{name}` {100 * share:.0f}% ({calls[name]} calls)"
        for name, _seconds, share in shares[:TOP]
    )
    executor = sum(share for name, _s, share in shares
                   if name == "dse.run_batch")
    return (f"| `{data['workload']}` seed {data['seed']}, "
            f"{data['wall_s']:.1f} s traced | {top} | {100 * executor:.1f}% |")


def main(paths: list[str]) -> None:
    files = [Path(p) for p in paths] or sorted(OUT.glob("*.spans.json"))
    print("| workload | largest self times (share of process time) "
          "| `dse.run_batch` share |")
    print("|---|---|---|")
    for path in files:
        print(row(path))


if __name__ == "__main__":
    main(sys.argv[1:])
