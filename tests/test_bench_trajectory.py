import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location(
    "bench_trajectory", ROOT / "tools" / "bench_trajectory.py")
bench_trajectory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_trajectory)

BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_bench_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_every_checked_in_file_parses(path):
    """Each file gives a parent and a change median of every end-to-end
    metric on each of the benchmark's three workloads."""
    rows = list(bench_trajectory.rows(json.loads(path.read_text())))
    assert {workload for _, workload, *_ in rows} == {"registry-sweep", "cli-jobs2", "long-perms"}
    for label, workload, metric, parent, change in rows:
        assert isinstance(label, str) and label
        assert parent > 0 and change > 0, (workload, metric)


def test_one_line_per_row(capsys):
    bench_trajectory.main()
    lines = capsys.readouterr().out.splitlines()
    want = sum(len(list(bench_trajectory.rows(json.loads(p.read_text())))) for p in BENCH_FILES)
    assert len(lines) == want
    assert lines[0].split()[4] == "->"


def test_line():
    assert bench_trajectory.line("scans", "long-perms", "wall_s", 0.5, 0.45).split() == [
        "scans", "long-perms", "wall_s", "0.5", "->", "0.45", "-10.0%"]
