"""Print the parent -> change medians recorded in every BENCH_*.json at the
root of the repository, one line per change, workload and metric.

Each of those files records one change's benchmark runs against its parent
commit: ``end_to_end.workloads.<workload>.metrics.<metric>`` holds the
``parent_median`` and ``change_median`` of ``perfbench/run.py``'s end-to-end
metrics.  A line reads

    label  workload  metric  parent_median -> change_median  change in %

Files are taken in name order.  Usage: ``python3 tools/bench_trajectory.py``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent


def rows(record: dict) -> Iterator[tuple[str, str, str, float, float]]:
    """(label, workload, metric, parent median, change median) for each
    end-to-end metric of one BENCH record."""
    for workload, runs in record["end_to_end"]["workloads"].items():
        for metric, m in runs["metrics"].items():
            yield record["label"], workload, metric, m["parent_median"], m["change_median"]


def line(label: str, workload: str, metric: str, parent: float, change: float) -> str:
    pct = f"{(change - parent) / parent:+.1%}"
    return f"{label:<12} {workload:<15} {metric:<12} {parent:>12.6g} -> {change:<12.6g} {pct:>7}"


def main() -> None:
    for path in sorted(ROOT.glob("BENCH_*.json")):
        for row in rows(json.loads(path.read_text())):
            print(line(*row))


if __name__ == "__main__":
    main()
