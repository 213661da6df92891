"""Locate the checkout the benchmark runs in and import ``repro`` from it.

The benchmark always measures the source tree next to it: ``src/`` of
the checkout holding ``perfbench/``.  Without that tree it exits with a
non-zero code instead of silently measuring some other installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space for stores, span files and result files.
OUT = ROOT / ".perfbench_out"


def use_checkout_source() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``, or exit 1."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'repro'}; run from the "
                 "root of a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's ``src/`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env
