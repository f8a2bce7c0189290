import ast
import hashlib
from math import factorial
from pathlib import Path

import pytest

from pss import formulas
from pss.cli import main
from pss.engine import MapId, apply, iterate, s21_closed_form
from pss.perms import all_perms, identity, reverse_identity, valley_runs


def imported_modules(source):
    """The module of every import in ``source``, and each name that a
    ``from`` import takes from it as a submodule, relative imports read
    inside pss."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["pss" if node.level else "", node.module]))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def brute_force_imports(source):
    return [m for m in imported_modules(source)
            if m.split(".")[:2] in (["pss", "engine"], ["pss", "enumerator"])]


@pytest.mark.parametrize("source", [
    "from .engine import MapId, iterate",
    "from . import enumerator",
    "import pss.engine",
    "from pss.enumerator import brute_image",
])
def test_a_brute_force_import_is_found(source):
    assert brute_force_imports(source)


def test_formulas_imports_no_brute_force():
    """The closed forms share no code with the sweep or the passes: no
    import of formulas.py reaches pss.engine or pss.enumerator."""
    source = Path(formulas.__file__).read_text(encoding="utf-8")
    assert "pss.perms" in imported_modules(source)
    assert brute_force_imports(source) == []


@pytest.mark.parametrize("call", [
    lambda: formulas.count_t_sortable_s12(0, 1),
    lambda: formulas.count_t_sortable_s12(3, 0),
    lambda: formulas.count_t_sortable_s21(0),
    lambda: formulas.count_machine21_sortable(0),
    lambda: formulas.count_machine21_fixed_points(-1),
    lambda: formulas.count_highly_sorted_s12(1),
    lambda: formulas.image_s12_power(1),
    lambda: formulas.machine12_bound(1),
    lambda: formulas.image_machine12(3),
    lambda: formulas.machine12_witness("odd", 5),
], ids=["s12-n", "s12-t", "s21", "m21-sortable", "m21-fixed", "highly-sorted",
        "s12-image", "m12-bound", "m12-image", "witness-family"])
def test_a_closed_form_refuses_its_domain_edge(call):
    with pytest.raises(ValueError):
        call()


def fixed_shape_by_segments(p):
    """The definition of the m21 fixed-point shape, read off the valley
    runs: every run increases, and each run's last entry exceeds
    everything in the previous run."""
    runs = valley_runs(p)
    for run in runs:
        if any(run[i] >= run[i + 1] for i in range(len(run) - 1)):
            return False
    for prev, nxt in zip(runs, runs[1:]):
        if nxt[-1] <= max(prev):
            return False
    return True


class TestSortableCounts:
    def test_s12_anchors(self):
        assert formulas.count_t_sortable_s12(4, 4) == 24
        assert formulas.count_t_sortable_s12(3, 1) == 4
        assert formulas.count_t_sortable_s12(9, 3) == 24576

    def test_s12_brute_anchor_n3_t1(self):
        sortable = {p for p in all_perms(3) if iterate(MapId.S12, p, 1) == identity(3)}
        assert sortable == {(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 2, 1)}

    @pytest.mark.parametrize("n", range(1, 12))
    def test_monotone_in_t_and_saturates(self, n):
        values = [formulas.count_t_sortable_s12(n, t) for t in range(1, n + 2)]
        assert values == sorted(values)
        for t in range(max(1, n - 1), n + 2):
            assert formulas.count_t_sortable_s12(n, t) == factorial(n)

    def test_s21(self):
        assert formulas.count_t_sortable_s21(1) == 1
        assert formulas.count_t_sortable_s21(2) == 0
        assert formulas.count_t_sortable_s21(9) == 0


class TestMachine21:
    def test_sortable_counts(self):
        assert formulas.count_machine21_sortable(1) == 1
        assert formulas.count_machine21_sortable(3) == 4
        assert formulas.count_machine21_sortable(9) == 256

    def test_sortable_anchor_set_n3(self):
        sortable = {p for p in all_perms(3) if formulas.is_machine21_sortable(p)}
        assert sortable == {(1, 2, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)}

    def test_is_sortable_examples(self):
        assert formulas.is_machine21_sortable((1, 2, 3))
        assert not formulas.is_machine21_sortable((1, 3, 2))
        for n in (1, 2, 5, 8):
            assert formulas.is_machine21_sortable(identity(n))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_characterization_matches_machine(self, n):
        ident = identity(n)
        for p in all_perms(n):
            assert formulas.is_machine21_sortable(p) == (
                apply(MapId.MACHINE21, p) == ident
            )

    @pytest.mark.parametrize("n", range(0, 9))
    def test_sortable_is_its_reversal_definition(self, n):
        """The structural scan against the characterization it replaced: the
        valley-run reversal of p is the decreasing permutation."""
        rev = reverse_identity(n)
        accepted = 0
        for p in all_perms(n):
            sortable = formulas.is_machine21_sortable(p)
            assert sortable == (s21_closed_form(p) == rev), p
            accepted += sortable
        assert accepted == (2 ** (n - 1) if n else 1)

    def test_fixed_shape_examples(self):
        assert formulas.is_machine21_fixed_shape((2, 1, 3))
        assert not formulas.is_machine21_fixed_shape((3, 1, 2))
        for n in (1, 3, 6):
            assert formulas.is_machine21_fixed_shape(identity(n))

    @pytest.mark.parametrize("n", range(0, 9))
    def test_fixed_shape_is_its_segment_definition(self, n):
        for p in all_perms(n):
            assert formulas.is_machine21_fixed_shape(p) == fixed_shape_by_segments(p), p

    @pytest.mark.parametrize("n", range(1, 9))
    def test_fixed_shape_matches_machine(self, n):
        for p in all_perms(n):
            assert formulas.is_machine21_fixed_shape(p) == (
                apply(MapId.MACHINE21, p) == p
            )

    def test_fixed_point_recurrence_anchors(self):
        got = [formulas.count_machine21_fixed_points(n) for n in range(6)]
        assert got == [1, 1, 1, 2, 4, 9]

    def test_fixed_point_set_n3(self):
        fixed = {p for p in all_perms(3) if apply(MapId.MACHINE21, p) == p}
        assert fixed == {(1, 2, 3), (2, 1, 3)}

    @pytest.mark.parametrize("n", range(2, 31))
    def test_recurrence_self_consistent(self, n):
        from math import comb

        lhs = formulas.count_machine21_fixed_points(n)
        rhs = sum(
            comb(n - 2, k) * formulas.count_machine21_fixed_points(k)
            for k in range(n - 1)
        )
        assert lhs == rhs

    def test_fixed_points_at_n_1000(self, capsys):
        """a_1000, 1,686 digits, against the sha256 of the digits that the
        recursive form sum(comb(n - 2, k) * a_k) gave, directly and through
        ``pss count``."""
        want = "d574e6cbc28eb6eb3e1026025f76f1951684d4ec82a036cba8ba38a8d63d1594"
        digits = str(formulas.count_machine21_fixed_points(1000))
        assert hashlib.sha256(digits.encode()).hexdigest() == want
        assert main(["count", "--claim", "T4_4", "--n", "1000"]) == 0
        assert capsys.readouterr().out == digits + "\n"


class TestHighlyMinimally:
    def test_anchors(self):
        assert formulas.count_min_sorted_s12(3) == 2
        assert formulas.count_highly_sorted_s12(3) == 4
        assert formulas.count_min_sorted_s12(2) == 1
        assert formulas.count_highly_sorted_s12(2) == 1
        assert formulas.count_min_sorted_s12(9) == 40320
        assert formulas.count_highly_sorted_s12(9) == 322560

    @pytest.mark.parametrize("n", range(2, 20))
    def test_partition_of_Sn(self, n):
        assert (
            formulas.count_min_sorted_s12(n) + formulas.count_highly_sorted_s12(n)
            == factorial(n)
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            formulas.count_min_sorted_s12(1)


class TestImages:
    def test_s12_power_image(self):
        assert formulas.image_s12_power(4) == {(1, 2, 3, 4), (2, 1, 3, 4)}
        assert formulas.image_s12_power(2) == {(1, 2), (2, 1)}

    def test_machine12_bound(self):
        assert formulas.machine12_bound(2) == 1
        assert formulas.machine12_bound(5) == 2
        assert formulas.machine12_bound(9) == 4

    @pytest.mark.parametrize("n", range(1, 10))
    def test_terminal_powers(self, n):
        """Plain arithmetic at every n, n = 1 included, so ``--power auto``
        reports a negative power itself."""
        assert formulas.s12_terminal_power(n) == n - 2
        assert formulas.machine12_terminal_power(n) == n // 2 - 1
        if n >= 2:
            assert formulas.machine12_terminal_power(n) == formulas.machine12_bound(n) - 1

    def test_machine12_image_odd(self):
        assert formulas.image_machine12(5) == {
            (1, 2, 3, 4, 5),
            (1, 3, 2, 4, 5),
            (2, 1, 3, 4, 5),
            (2, 3, 1, 4, 5),
            (3, 1, 2, 4, 5),
        }
        assert all(p[5:] == (6, 7) for p in formulas.image_machine12(7))
        assert len(formulas.image_machine12(7)) == 5

    def test_machine12_image_even(self):
        assert formulas.image_machine12(6) == {
            (1, 2, 3, 4, 5, 6),
            (2, 1, 3, 4, 5, 6),
        }


class TestWitnesses:
    def test_even_family(self):
        assert formulas.witness_even(4) == (2, 4, 1, 3)
        assert formulas.witness_even(6) == (2, 4, 6, 1, 3, 5)
        assert iterate(MapId.MACHINE12, (2, 4, 6, 1, 3, 5), 2) == (2, 1, 3, 4, 5, 6)

    def test_cycle_family(self):
        assert formulas.witness_cycle(5) == (2, 3, 4, 5, 1)
        assert apply(MapId.MACHINE12, (2, 3, 4, 5, 1)) == (2, 3, 1, 4, 5)
        assert formulas.witness_cycle(7) == (2, 3, 4, 5, 6, 7, 1)
        assert iterate(MapId.MACHINE12, formulas.witness_cycle(7), 2) == (
            2, 3, 1, 4, 5, 6, 7,
        )

    def test_pi_families(self):
        assert formulas.witness_pi(5, (2, 1, 3)) == (2, 4, 1, 3, 5)
        assert apply(MapId.MACHINE12, (2, 4, 1, 3, 5)) == (2, 1, 3, 4, 5)
        assert formulas.witness_pi(5, (3, 1, 2)) == (3, 5, 1, 2, 4)
        assert apply(MapId.MACHINE12, (3, 5, 1, 2, 4)) == (3, 1, 2, 4, 5)
        assert formulas.witness_pi(3, (1, 3, 2)) == (1, 3, 2)

    @pytest.mark.parametrize("seed, split", [((2, 1, 3), ((2,), (1, 3))),
                                             ((1, 3, 2), ((1, 3), (2,))),
                                             ((3, 1, 2), ((3,), (1, 2)))])
    def test_pi_family_is_the_stepped_halves(self, seed, split):
        """The oracle is the family's definition: from the seed's split
        (tau, sigma), each of (n - 3) / 2 steps appends the last entry
        plus 2 to both halves."""
        for n in range(3, 402, 2):
            tau, sigma = split
            for _ in range((n - 3) // 2):
                tau, sigma = tau + (tau[-1] + 2,), sigma + (sigma[-1] + 2,)
            assert formulas.witness_pi(n, seed) == tau + sigma, (seed, n)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            formulas.witness_even(5)
        with pytest.raises(ValueError):
            formulas.witness_cycle(6)
        with pytest.raises(ValueError):
            formulas.witness_pi(4, (2, 1, 3))
        with pytest.raises(ValueError):
            formulas.witness_pi(5, (1, 2, 3))

    @pytest.mark.parametrize("n", range(4, 14))
    def test_every_family_hits_its_claimed_image(self, n):
        families = (
            ["even"] if n % 2 == 0 else ["cycle", "pi213", "pi132", "pi312"]
        )
        for fam in families:
            w, target = formulas.machine12_witness(fam, n)
            assert iterate(MapId.MACHINE12, w, n // 2 - 1) == target, (fam, n)
