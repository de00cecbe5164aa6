"""The acceptance suite: one check per criterion, with stated bounds.

Each test prints its own pass/fail line (run with ``pytest -s`` to see
them; the ``selftest`` CLI command prints the same lines).  One test is
expected to fail: ``test_criterion_10_selftest_exit_code``.  Criterion 3's
verdict includes an involution clause that no duality with the retraction
property can meet, so ``selftest`` exits 1 whatever criteria 1, 2 and 4-9
report.  The duality satisfying the retraction formula squares to
conjugation by the successor automorphism, never to the identity; the
exhaustive search in ``tests/test_paracat.py``
(``TestDualize::test_no_retraction_duality_is_an_involution_at_n2``) finds
exactly two retraction dualities on the cyclic category truncated at N=2,
neither an involution, and a retraction duality at any N >= 2 restricts to
one of them.
``test_criterion_3_duality_involution`` checks the exact law instead.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from paracyclic import selftest


def _run(number, bound=None):
    start = time.perf_counter()
    report = selftest.CRITERIA[number](seed=0)
    elapsed = time.perf_counter() - start
    verdict = "PASS" if report["passed"] else "FAIL"
    print(f"criterion {number}: {verdict} - {report['title']} ({elapsed:.1f}s)")
    if bound is not None:
        assert elapsed < bound, f"criterion {number} exceeded {bound}s"
    return report


def test_criterion_1_hom_count_table():
    report = _run(1, bound=10)
    assert report["passed"], report["details"]["mismatches"]
    assert report["details"]["table"]["3,3"] == 140


def test_criterion_2_category_axioms():
    report = _run(2, bound=60)
    assert report["passed"], report["details"]["failures"]


def test_criterion_2_does_a_fixed_amount_of_work(monkeypatch):
    """73,309 scalar composites and 256 associativity quadruples covering
    10,672,510 triples, counted through patched ``compose`` and
    ``np.array_equal``: a faster criterion 2 checks no less."""
    compose, array_equal = selftest.compose, np.array_equal
    composites, sides = [0], []

    def counting_compose(g, f):
        composites[0] += 1
        return compose(g, f)

    def counting_array_equal(left, right):
        sides.append(left.size)
        return array_equal(left, right)

    monkeypatch.setattr(selftest, "compose", counting_compose)
    monkeypatch.setattr(np, "array_equal", counting_array_equal)
    assert selftest.criterion_2(0)["passed"]
    assert composites[0] == 73309
    assert len(sides) == 256 and sum(sides) == 10672510


def test_criterion_3_duality_involution():
    """Applying the duality twice, checked against the law it satisfies.

    The double dual is not the identity and cannot be (see the module
    docstring); it is conjugation by the successor automorphism, exactly,
    and iterating the duality 2(n + 1) times fixes End(Par(n)).  Criterion 3
    reports both laws outside its verdict.
    """
    report = _run(3)
    details = report["details"]
    assert details["clauses"]["objects_fixed"]
    for law in ("double_dual_is_successor_conjugation", "period_power_fixes_endomorphisms"):
        assert details["laws"][law], (
            f"{law} fails; counterexamples: {details['law_counterexamples'][law]}"
        )


def test_criterion_3_duality_swaps_classification():
    report = selftest.criterion_3(seed=0)
    assert report["details"]["clauses"]["swaps_classification"]


def test_criterion_3_duality_retraction():
    report = selftest.criterion_3(seed=0)
    assert report["details"]["clauses"]["retraction_for_injections"]


def test_criterion_4_convex_relation_counts():
    report = _run(4)
    assert report["passed"], report["details"]["failures"]


def test_criterion_5_corner_functoriality():
    report = _run(5)
    assert report["passed"], report["details"]["failures"]


def test_criterion_6_localization_adjunction():
    report = _run(6)
    assert report["passed"], report["details"]


def test_criterion_7_round_trip():
    report = _run(7, bound=120)
    assert report["passed"], report["details"]["failures"]


def test_criterion_8_sheaf_gluing():
    report = _run(8)
    assert report["passed"], report["details"]["failures"]
    assert report["details"]["pairs_checked"] > 70000


def test_criterion_9_rotation_periodicity():
    report = _run(9, bound=60)
    assert report["passed"], report["details"]["failures"]


_SELFTEST_CACHE = {}


def _run_selftest_cli(seed, fresh=False, out=None):
    if not fresh and seed in _SELFTEST_CACHE:
        return _SELFTEST_CACHE[seed]
    command = [sys.executable, "-m", "paracyclic.cli", "selftest", "--seed", str(seed)]
    if out is not None:
        command += ["--out", str(out)]
    start = time.perf_counter()
    result = subprocess.run(
        command,
        capture_output=True,
        text=True,
        timeout=600,
    )
    _SELFTEST_CACHE[seed] = (result, time.perf_counter() - start)
    return _SELFTEST_CACHE[seed]


def test_criterion_10_selftest_runs_end_to_end_deterministically(tmp_path):
    reports = [tmp_path / "first.json", tmp_path / "second.json"]
    first, elapsed = _run_selftest_cli(7, fresh=True, out=reports[0])
    second, _ = _run_selftest_cli(7, fresh=True, out=reports[1])
    print(f"criterion 10 (run + determinism): PASS ({elapsed:.0f}s)")
    for number in range(1, 10):
        assert f"criterion {number}:" in first.stdout
    assert first.stdout == second.stdout, "selftest output is not deterministic"
    report = reports[0].read_bytes()
    assert [r["id"] for r in json.loads(report)["reports"]] == list(range(1, 10))
    assert report == reports[1].read_bytes(), "selftest --out report is not deterministic"
    assert elapsed < 300, "selftest exceeded the five-minute budget"


def test_criterion_10_selftest_exit_code():
    """Exit 0 requires every criterion to pass; criterion 3 cannot."""
    result, _ = _run_selftest_cli(7)
    assert result.returncode == 0, (
        "selftest exits 1 because criterion 3's involution clause is "
        "mathematically unattainable; see README and the criterion 3 tests"
    )
