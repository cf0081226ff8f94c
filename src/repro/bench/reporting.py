"""Plain-text reporting helpers for the experiment harness.

The paper reports tables (Tables 1-2) and relative-value charts
(Figures 3-4); these helpers render both as ASCII so the benchmark
output can be compared against the paper side by side.
:func:`provenance` records which host and commit produced a
``BENCH_*.json``, so two points on the trajectory can be compared.
"""

from __future__ import annotations

import os
import platform
from datetime import datetime, timezone
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Sequence


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render a simple aligned table."""
    columns = [list(map(_cell, column))
               for column in zip(headers, *rows)] if rows else \
        [[_cell(h)] for h in headers]
    widths = [max(len(value) for value in column) for column in columns]
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w)
                            for h, w in zip(map(_cell, headers), widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(_cell(v).ljust(w)
                               for v, w in zip(row, widths)))
    return "\n".join(lines)


def format_bars(labels: Sequence[str], values: Sequence[float],
                title: Optional[str] = None, width: int = 50,
                unit: str = "%") -> str:
    """Render horizontal bars of relative values (Figure 3/4 style)."""
    if len(labels) != len(values):
        raise ValueError("labels and values differ in length")
    peak = max(values) if values else 1.0
    peak = peak if peak > 0 else 1.0
    lines: List[str] = []
    if title:
        lines.append(title)
    label_width = max((len(label) for label in labels), default=0)
    for label, value in zip(labels, values):
        bar = "#" * max(0, int(round(width * value / peak)))
        lines.append(f"{label.ljust(label_width)}  "
                     f"{value * 100 if unit == '%' else value:8.1f}{unit}"
                     f"  {bar}")
    return "\n".join(lines)


def format_series(x_label: str, xs: Sequence[object], series: dict,
                  title: Optional[str] = None) -> str:
    """Render one row per x with one column per named series."""
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [series[name][i] for name in series])
    return format_table(headers, rows, title=title)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def provenance() -> Dict[str, object]:
    """The "experiment info" block of a bench report: git commit,
    Python and numpy versions, usable CPUs and the UTC time of the
    run. Standard library only; fields that cannot be determined
    (no checkout, numpy not installed as a distribution) are
    ``None``."""
    try:
        numpy_version: Optional[str] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "available_cpus": available_cpus(),
        "date_utc": datetime.now(timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"),
    }


def git_sha(start: Optional[Path] = None) -> Optional[str]:
    """The commit checked out in the git repository containing
    ``start`` (default: this source file), read straight from
    ``.git`` — HEAD, then the loose ref or ``packed-refs`` entry it
    names. ``None`` outside a checkout."""
    here = (start or Path(__file__)).resolve()
    for directory in (here, *here.parents):
        git_dir = directory / ".git"
        if git_dir.is_dir():
            return _resolve_head(git_dir)
    return None


def _resolve_head(git_dir: Path) -> Optional[str]:
    head = (git_dir / "HEAD").read_text().strip()
    if not head.startswith("ref:"):
        return head or None  # detached HEAD holds the SHA itself
    ref = head[len("ref:"):].strip()
    loose = git_dir / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = git_dir / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    return None
