import contextlib
import csv
import decimal
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pss import engine, formulas
from pss.cli import build_parser, main
from pss.engine import MapId, apply
from pss.enumerator import CLAIM_IDS
from pss.perms import format_perm, parse


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ROOT = Path(__file__).resolve().parent.parent


def _pinned_json_sha256():
    """``REPORT_SHA256`` of ``perfbench/workloads.py``, the digest of the
    JSON report that CI's report digest step and the benchmark check."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.REPORT_SHA256


# sha256 of `pss verify --claim all --n-max 8` in each format
REPORT_SHA256 = {
    "json": _pinned_json_sha256(),
    "csv": "a3b3e0ff98848b09e88bf62c202952df64ebe8af660171691e21dc16317b9eb7",
    "table": "ada50b705644f2a15532c570faeffb4986e9edc92b4baa6bc9af302f4608009e",
}


class TestSort:
    def test_s12_anchor(self, capsys):
        code, out, _ = run_cli(capsys, "sort", "--map", "s12", "2,4,1,3")
        assert code == 0 and out.strip() == "2,3,1,4"

    def test_machine_iterated(self, capsys):
        code, out, _ = run_cli(
            capsys, "sort", "--map", "m12", "--times", "2", "2,4,6,1,3,5"
        )
        assert code == 0 and out.strip() == "2,1,3,4,5,6"

    def test_west(self, capsys):
        code, out, _ = run_cli(capsys, "sort", "--map", "west", "3,2,1")
        assert code == 0 and out.strip() == "1,2,3"

    def test_trace(self, capsys):
        """The README's example: each event numbered by its step, then the
        pass's output."""
        code, out, _ = run_cli(capsys, "sort", "--map", "s12", "--trace", "2,4,3,1,5")
        assert code == 0
        assert out == (
            "   0 push 2\n"
            "   1 pop  2\n"
            "   2 push 4\n"
            "   3 push 3\n"
            "   4 push 1\n"
            "   5 pop  1\n"
            "   6 pop  3\n"
            "   7 pop  4\n"
            "   8 push 5\n"
            "   9 pop  5\n"
            "2,1,3,4,5\n"
        )

    def test_trace_needs_single_pass(self, capsys):
        code, _, err = run_cli(
            capsys, "sort", "--map", "s12", "--times", "2", "--trace", "2,1"
        )
        assert code == 2 and "trace" in err
        code, out, err = run_cli(capsys, "sort", "--map", "m12", "--trace", "3,1,2")
        assert code == 2 and out == ""
        assert err == "error: --trace is only available for single-pass maps\n"

    def test_parse_error_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sort", "--map", "s12", "2,2,1")
        assert code == 2 and "duplicate" in err

    def test_non_ascii_digits_are_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sort", "--map", "s12", "١,٢")
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_unknown_map(self, capsys):
        code, _, _ = run_cli(capsys, "sort", "--map", "s99", "1,2")
        assert code == 2

    @pytest.mark.parametrize("map_id", ["m21", "s21", "m12"])
    def test_huge_times_stops_at_the_cycle(self, capsys, map_id):
        _, want, _ = run_cli(capsys, "sort", "--map", map_id, "--times", "10", "3,1,2")
        start = time.monotonic()
        code, out, _ = run_cli(capsys, "sort", "--map", map_id, "--times", "100000000", "3,1,2")
        assert code == 0 and out == want
        assert time.monotonic() - start < 10

    @pytest.mark.parametrize("map_id", [m.value for m in MapId])
    def test_long_states_come_back_whole(self, capsys, map_id):
        """The walk drops a settled suffix from each state; the printed
        state has all n entries, as t passes of ``apply`` give them.  Each
        orbit here ends on a fixed point, so a t past the tail reads it."""
        n, times = 1500, (1, 2, 37, 10**8)
        p = list(range(1, n + 1))
        random.Random(1500).shuffle(p)
        want, x = {}, tuple(p)
        for step in range(1, 4 * n):
            y = apply(MapId(map_id), x)
            if step in times:
                want[step] = y
            if y == x:
                break
            x = y
        else:
            pytest.fail("no fixed point within 4n passes")
        for t in times:
            code, out, _ = run_cli(capsys, "sort", "--map", map_id, "--times", str(t),
                                   ",".join(map(str, p)))
            assert code == 0 and parse(out.strip()) == want.get(t, y), (map_id, t)

    def test_negative_times_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sort", "--map", "s12", "--times", "-1", "2,1")
        assert code == 2 and err.startswith("error:") and len(err.splitlines()) == 1


class TestRuns:
    def test_peak(self, capsys):
        code, out, _ = run_cli(capsys, "runs", "--kind", "peak", "2,4,3,1,5")
        assert code == 0 and out.strip() == "[2][4,3,1][5]"

    def test_valley(self, capsys):
        code, out, _ = run_cli(capsys, "runs", "--kind", "valley", "2,4,3,1,5")
        assert code == 0 and out.strip() == "[2,4,3][1,5]"

    def test_singletons(self, capsys):
        code, out, _ = run_cli(capsys, "runs", "--kind", "peak", "1,2,3")
        assert code == 0 and out.strip() == "[1][2][3]"


class TestVerifyCommand:
    def test_pass_json_validates_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "T3_4", "--n-min", "1", "--n-max", "5",
            "--jobs", "1", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        schema = json.loads(
            resources.files("pss").joinpath("schemas/verify_report.schema.json")
            .read_text()
        )
        jsonschema.validate(doc, schema)
        assert doc["overall_pass"] is True

    def test_csv_has_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "T4_2", "--n-max", "5", "--jobs", "1",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["claim", "n", "param", "expected", "observed", "pass"]
        assert all(r[5] == "true" for r in rows[1:])

    def test_table_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "T4_4", "--n-max", "5", "--jobs", "1"
        )
        assert code == 0 and "PASS" in out

    def test_stderr_is_empty_whether_claims_pass_or_fail(self, capsys, monkeypatch):
        """verify writes its reports to stdout and nothing to stderr, on a
        PASS (exit 0) and on a FAIL (exit 1); bad input gives one error line
        (exit 2)."""
        argv = ["verify", "--claim", "all", "--n-max", "5", "--jobs", "1"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and "PASS" in out and err == ""
        count = formulas.count_machine21_sortable
        monkeypatch.setattr(formulas, "count_machine21_sortable", lambda n: count(n) + 1)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and "T4_2: FAIL" in out and err == ""
        code, out, err = run_cli(capsys, "verify", "--claim", "all", "--n-min", "5",
                                 "--n-max", "3")
        assert code == 2 and out == "" and err.startswith("error:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("fmt, jobs", [("json", 1), ("json", 2), ("csv", 2), ("table", 2)])
    def test_report_bytes_are_pinned(self, fmt, jobs):
        """The report of every claim over n = 1..8, printed by a fresh
        process, has the pinned bytes, and nothing goes to stderr."""
        proc = subprocess.run(
            [sys.executable, "-m", "pss.cli", "verify", "--claim", "all", "--n-max", "8",
             "--format", fmt, "--jobs", str(jobs)],
            capture_output=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120,
        )
        assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == REPORT_SHA256[fmt]

    def test_guard_without_force(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--claim", "T3_4", "--n-max", "20", "--jobs", "1"
        )
        assert code == 2 and "guard" in err

    @pytest.mark.parametrize("argv", [
        ["--claim", "T4_2", "--n-min", "5", "--n-max", "3"],
        ["--claim", "T5_2", "--n-max", "3"],
        ["--claim", "T4_2", "--n-min", "0", "--n-max", "0"],
        ["--claim", "all", "--n-min", "0", "--n-max", "0"],
    ])
    def test_inverted_or_empty_range_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv, "--jobs", "1")
        assert code == 2 and out == "" and "PASS" not in err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_all_leaves_out_empty_reports(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "all", "--n-max", "3", "--jobs", "1",
            "--format", "json",
        )
        claims = [r["claim"] for r in json.loads(out)["reports"]]
        assert code == 0
        assert len(claims) == 13 and "T5_2" not in claims and "T5_4" not in claims

    def test_oversized_sweep_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr("pss.enumerator.KEY_CAP", 10)
        code, out, err = run_cli(
            capsys, "image", "--map", "west", "--n", "4", "--power", "0", "--jobs", "1"
        )
        assert code == 2 and out == "" and err.startswith("error:")
        assert len(err.splitlines()) == 1

    def test_round_trip_of_printed_permutations(self, capsys):
        code, out, _ = run_cli(
            capsys, "image", "--map", "m12", "--n", "5", "--power", "auto",
            "--jobs", "1",
        )
        assert code == 0
        perms = [parse(line) for line in out.strip().splitlines()]
        assert len(perms) == 5


class TestOtherCommands:
    def test_image_auto_s12(self, capsys):
        code, out, _ = run_cli(
            capsys, "image", "--map", "s12", "--n", "5", "--power", "auto",
            "--jobs", "1",
        )
        assert code == 0
        assert out.strip().splitlines() == ["1,2,3,4,5", "2,1,3,4,5"]

    def test_image_auto_undefined(self, capsys):
        code, _, err = run_cli(
            capsys, "image", "--map", "s21", "--n", "4", "--power", "auto"
        )
        assert code == 2

    def test_fixed_points_list(self, capsys):
        code, out, _ = run_cli(
            capsys, "fixed-points", "--machine", "m21", "--n", "3", "--list",
            "--jobs", "1",
        )
        assert code == 0 and out.strip() == "2: 1,2,3 | 2,1,3"

    def test_image_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "image", "--map", "s12", "--n", "4", "--power", "2",
            "--format", "json", "--jobs", "1",
        )
        assert code == 0
        assert json.loads(out) == {"map": "s12", "n": 4, "power": 2, "size": "2",
                                   "image": ["1,2,3,4", "2,1,3,4"]}

    @pytest.mark.parametrize("listed", [False, True])
    def test_fixed_points_json(self, capsys, listed):
        code, out, _ = run_cli(
            capsys, "fixed-points", "--machine", "m21", "--n", "3", "--format", "json",
            "--jobs", "1", *(["--list"] if listed else []),
        )
        want = {"machine": "m21", "n": 3, "count": "2"}
        if listed:
            want["fixed_points"] = ["1,2,3", "2,1,3"]
        assert code == 0 and json.loads(out) == want

    def test_fixed_points_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "fixed-points", "--machine", "m21", "--n", "5", "--jobs", "1"
        )
        assert code == 0 and out == "9\n"

    def test_orbit(self, capsys):
        code, out, _ = run_cli(capsys, "orbit", "--map", "s12", "2,3,1")
        assert code == 0
        assert out.strip() == "tail=2 cycle=1 reaches_identity_at=2 periodic=no"

    def test_orbit_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "orbit", "--map", "m21", "--format", "json", "2,1,3"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["tail_length"] == 0 and doc["is_periodic_point"] is True

    def test_long_rotation_orbit_json(self, capsys):
        """The rotation 2..n,1 settles one entry per s12 pass."""
        rotation = ",".join(map(str, [*range(2, 2001), 1]))
        code, out, _ = run_cli(capsys, "orbit", "--map", "s12", "--format", "json", rotation)
        doc = json.loads(out)
        assert code == 0
        assert (doc["tail_length"], doc["cycle_length"], doc["reaches_identity_at"]) == (1999, 1, 1999)

    def test_witness_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "witness", "--family", "pi312", "--n", "5", "--check"
        )
        assert code == 0 and out.strip() == "3,5,1,2,4 → 3,1,2,4,5 PASS"

    def test_witness(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--family", "pi312", "--n", "5")
        assert code == 0 and out == "3,5,1,2,4\n"

    def test_witness_without_check_makes_no_pass(self, capsys, monkeypatch):
        """Only --check iterates the machine: with its two stages made to
        raise, the witness still prints, and --check fails loudly."""
        def no_pass(p):
            raise AssertionError("a machine pass was made")

        for name in ("s12_closed_form", "west_pass"):
            monkeypatch.setattr(engine, name, no_pass)
        code, out, _ = run_cli(capsys, "witness", "--family", "even", "--n", "16000")
        evens_then_odds = [*range(2, 16001, 2), *range(1, 16000, 2)]
        assert code == 0 and out == ",".join(map(str, evens_then_odds)) + "\n"
        with pytest.raises(AssertionError):
            main(["witness", "--family", "pi312", "--n", "5", "--check"])

    @pytest.mark.parametrize("family, n", [("even", 8), ("cycle", 9), ("pi213", 9),
                                           ("pi132", 7), ("pi312", 11)])
    def test_witness_check_reads_the_machine(self, capsys, family, n):
        w, target, actual = formulas.machine12_witness_check(family, n)
        assert target == actual
        code, out, _ = run_cli(capsys, "witness", "--family", family, "--n", str(n), "--check")
        assert code == 0 and out == f"{format_perm(w)} → {format_perm(actual)} PASS\n"

    @pytest.mark.parametrize("argv", [
        ["image", "--map", "s12", "--n", "3", "--power", "abc"],
        ["count", "--claim", "T4_2", "--n", "0"],
        ["count", "--claim", "T4_2", "--n", "1001"],
        ["fixed-points", "--machine", "s12", "--n", "3"],
        ["sort", "--map", "s12", "2," + "1" * 5000],
        ["orbit", "--map", "s12", "2," + "1" * 5000],
    ])
    def test_bad_value_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "error:" in err

    def test_witness_bad_parity(self, capsys):
        code, _, _ = run_cli(capsys, "witness", "--family", "even", "--n", "5")
        assert code == 2

    def test_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--claim", "T3_4", "--n", "9", "--t", "3"
        )
        assert code == 0 and out.strip() == "24576"

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_count_prints_every_digit(self, capsys, fmt):
        """999! has 2,565 digits, past an int-to-str limit of 640, the least
        that PYTHONINTMAXSTRDIGITS may set; the limit is lifted for the
        count alone."""
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: 640)
        set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
        limit = get_limit()
        set_limit(640)
        try:
            code, out, err = run_cli(
                capsys, "count", "--claim", "C5_1_min", "--n", "1000", "--format", fmt
            )
            assert get_limit() == 640
        finally:
            set_limit(limit)
        assert code == 0 and err == ""
        digits = json.loads(out)["count"] if fmt == "json" else out.strip()
        assert digits == str(decimal.Decimal(math.factorial(999)))

    def test_count_missing_t(self, capsys):
        code, _, _ = run_cli(capsys, "count", "--claim", "T3_4", "--n", "9")
        assert code == 2

    def test_count_rejects_stray_t(self, capsys):
        code, out, err = run_cli(
            capsys, "count", "--claim", "T4_2", "--n", "3", "--t", "5"
        )
        assert code == 2 and out == "" and err.startswith("error:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["image", "--map", "s12", "--n", "-1", "--power", "1"],
        ["fixed-points", "--machine", "m21", "--n", "-1"],
    ])
    def test_negative_n_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--jobs", "1")
        assert code == 2 and out == "" and err == "error: --n must be >= 1, got -1\n"

    @pytest.mark.parametrize("n", ["0", "-4"])
    @pytest.mark.parametrize("argv", [
        ["image", "--map", "s12"],
        ["image", "--map", "m12"],
        ["image", "--map", "s21"],
        ["image", "--map", "s12", "--power", "3"],
        ["fixed-points", "--machine", "m21"],
        ["image", "--map", "s12", "--power", "1"],
    ])
    def test_n_below_one_names_n(self, capsys, argv, n):
        """--n is checked before anything derived from it, such as --power
        auto, and before the sweep, which would take S_0."""
        code, out, err = run_cli(capsys, *argv, "--n", n, "--jobs", "1")
        assert code == 2 and out == "" and err == f"error: --n must be >= 1, got {n}\n"

    @pytest.mark.parametrize("argv", [
        ["image", "--map", "s12", "--n", "1", "--power", "auto"],
        ["image", "--map", "m12", "--n", "1", "--power", "auto"],
        ["image", "--map", "m12", "--n", "1"],
    ])
    def test_negative_auto_power_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--jobs", "1")
        assert code == 2 and out == ""
        assert err == "error: --power auto gives a negative power (-1) at --n 1\n"

    def test_negative_power_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "image", "--map", "s12", "--n", "3", "--power", "-2", "--jobs", "1"
        )
        assert code == 2 and out == "" and err == "error: --power must be nonnegative, got -2\n"

    @pytest.mark.parametrize("argv", [
        ["verify", "--claim", "T4_2", "--n-max", "3"],
        ["image", "--map", "s12", "--n", "3"],
        ["fixed-points", "--machine", "m21", "--n", "3"],
    ])
    @pytest.mark.parametrize("jobs", ["0", "-1", "two"])
    def test_jobs_below_one_is_usage_error(self, capsys, argv, jobs):
        code, out, err = run_cli(capsys, *argv, "--jobs", jobs)
        errors = [line for line in err.splitlines() if "error:" in line]
        assert code == 2 and out == ""
        assert len(errors) == 1 and "--jobs" in errors[0]

    @pytest.mark.parametrize("argv", [
        ["verify", "--claim", "T4_2"],
        ["image", "--map", "s12", "--n", "3"],
        ["fixed-points", "--machine", "m21", "--n", "3"],
    ])
    def test_jobs_defaults_to_every_core(self, argv):
        assert build_parser().parse_args(argv).jobs == (os.cpu_count() or 1)

    @pytest.mark.parametrize("argv", [
        ["image", "--map", "s12", "--n", "3", "--jobs", "1"],
        ["fixed-points", "--machine", "m21", "--n", "3", "--jobs", "1"],
        ["orbit", "--map", "s12", "2,3,1"],
        ["count", "--claim", "T4_2", "--n", "3"],
    ])
    def test_csv_is_offered_on_verify_only(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 2 and out == "" and "invalid choice: 'csv'" in err

    def test_count_json_uses_decimal_strings(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--claim", "T4_4", "--n", "30", "--format", "json"
        )
        doc = json.loads(out)
        assert code == 0 and isinstance(doc["count"], str)
        assert int(doc["count"]) > 10**15


# -- random argv ---------------------------------------------------------------

SMALL_INT = st.integers(-2, 6).map(str)
PERM = st.integers(1, 5).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(lambda p: ",".join(map(str, p))))
JUNK = st.sampled_from(["", "-", "--", "--bogus", "x", "1.5", "1,1", "3,1", "auto", "all",
                        "--help", "--n", "s99", "²"])
MAP = st.sampled_from([m.value for m in MapId])
CLAIM = st.sampled_from(CLAIM_IDS)
# csv is offered on verify only; the other commands reject it while parsing
FORMAT = ("--format", st.sampled_from(["table", "json"]))
SWEEP = [("--jobs", st.just("1")), ("--force", None)]

# subcommand -> its options, each with a strategy for its value (None for a
# flag); "" is the positional permutation
GRAMMAR = {
    "sort": [("--map", MAP), ("--times", SMALL_INT), ("--trace", None), ("", PERM)],
    "runs": [("--kind", st.sampled_from(["peak", "valley"])), ("", PERM)],
    "verify": [("--claim", st.one_of(CLAIM, st.just("all"))), ("--n-min", SMALL_INT), *SWEEP,
               ("--format", st.sampled_from(["table", "json", "csv"]))],
    "image": [("--map", MAP), ("--n", SMALL_INT),
              ("--power", st.one_of(SMALL_INT, st.just("auto"))), *SWEEP, FORMAT],
    "fixed-points": [("--machine", MAP), ("--n", SMALL_INT), ("--list", None), *SWEEP, FORMAT],
    "orbit": [("--map", MAP), ("", PERM), FORMAT],
    "witness": [("--family", st.sampled_from(["even", "cycle", "pi213", "pi132", "pi312"])),
                ("--n", SMALL_INT), ("--check", None)],
    "count": [("--claim", CLAIM), ("--n", SMALL_INT), ("--t", SMALL_INT), FORMAT],
}


@st.composite
def argvs(draw):
    """An argv from GRAMMAR: each option kept with probability 3/4, in any
    order, and up to two junk tokens anywhere.  verify always ends with an
    --n-max of at most 6, so no run is long."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    words = []
    for option, value in draw(st.permutations(GRAMMAR[command])):
        if draw(st.integers(0, 3)):
            words.append(([option] if option else []) + ([draw(value)] if value is not None else []))
    for junk in draw(st.lists(JUNK, max_size=2)):
        words.insert(draw(st.integers(0, len(words))), [junk])
    if command == "verify":
        words.append(["--n-max", draw(SMALL_INT)])
    return [command] + [token for word in words for token in word]


@given(argvs())
@example(["image", "--map", "s12", "--n", "1", "--power", "auto"])
@example(["image", "--map", "m12", "--n", "1", "--power", "auto"])
@settings(max_examples=150, deadline=None)
def test_random_argv_exits_cleanly(argv):
    """Exit code 0, 1 or 2 and never a traceback.  The examples are known
    failures that a conjunction of four draws makes too rare to find at
    random in 150 runs."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
