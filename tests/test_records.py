"""The record classes, and what a fresh interpreter loads to import pss."""

import ast
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from pss.engine import DottedPattern, OrbitReport, TraceEvent
from pss.enumerator import RankRange, Row, VerificationReport

SRC = Path(__file__).resolve().parent.parent / "src"

# class, field values, a change that makes another value; every record is
# frozen, and so hashable
RECORDS = [
    (DottedPattern, {"base": 21, "dot_position": 2}, {"dot_position": 1}),
    (TraceEvent, {"op": "pop", "value": 3}, {"op": "push"}),
    (OrbitReport, {"tail_length": 2, "cycle_length": 1, "reaches_identity_at": None,
                   "is_periodic_point": False}, {"reaches_identity_at": 2}),
    (RankRange, {"n": 4, "lo": 2, "hi": 24}, {"hi": 23}),
    (Row, {"n": 5, "param": "t=1", "expected": "16", "observed": "16"}, {"observed": "15"}),
    (VerificationReport, {"claim": "T4_2", "n_min": 5, "n_max": 5,
                          "rows": (Row(5, "t=1", "16", "16"),)}, {"n_max": 6}),
]


@pytest.mark.parametrize("cls, fields, change", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_class(cls, fields, change):
    r = cls(*fields.values())
    assert r == cls(**fields)
    assert r != cls(**{**fields, **change})
    assert [getattr(r, k) for k in fields] == list(fields.values())
    assert repr(r) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    assert pickle.loads(pickle.dumps(r)) == r
    assert hash(r) == hash(cls(**fields))
    name, value = next(iter(change.items()))
    with pytest.raises(AttributeError):
        setattr(r, name, value)


def test_import_loads_neither_dataclasses_nor_multiprocessing():
    """``import pss`` loads neither module, and ``import pss.cli`` no
    ``multiprocessing``, until a pool starts.  The standard modules that pss
    imports are loaded first, so what a newer one of them loads itself is
    not counted against pss."""
    stdlib = set()
    for path in (SRC / "pss").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                stdlib.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                stdlib.add(node.module)
    stdlib -= {"__future__", "dataclasses", "multiprocessing"}
    script = (
        "import json, sys\n"
        f"for name in {sorted(stdlib)!r}:\n"
        "    __import__(name)\n"
        "def added(name):\n"
        "    before = set(sys.modules)\n"
        "    __import__(name)\n"
        "    return sorted(set(sys.modules) - before)\n"
        "out = {'pss': added('pss'), 'pss.cli': added('pss.cli')}\n"
        "from pss import verify_all\n"
        "out['jobs'] = [[r.to_dict() for r in verify_all(7, 7, jobs=jobs)] for jobs in (1, 2)]\n"
        "out['pool'] = 'multiprocessing' in sys.modules\n"
        "print(json.dumps(out))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert "pss.enumerator" in out["pss"]
    assert not {"dataclasses", "multiprocessing"} & set(out["pss"])
    assert "multiprocessing" not in out["pss.cli"]
    one, two = out["jobs"]
    assert len(one) == 15 and one == two
    # S_7 is two rank ranges, so two cores sweep it in a pool
    assert out["pool"] == ((os.cpu_count() or 1) > 1)
