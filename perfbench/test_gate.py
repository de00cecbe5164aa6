"""The benchmark's correctness gate can fail.

Run with ``python3 -m pytest perfbench/test_gate.py``.
"""

import copy
import json
import os
import random
import sys
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gate import Gate, Op  # noqa: E402
from paracyclic import _linalg, sdot  # noqa: E402

SEED = 7


def _report(criterion, passed, details):
    return {"seed": SEED, "passed": passed,
            "reports": [{"id": criterion, "passed": passed, "details": details}]}


GOOD = {
    1: (0, _report(1, True, {"table": {f"{m},{n}": (m + 1) * comb(m + n + 1, m + 1)
                                       for m in range(4) for n in range(4)}})),
    3: (1, _report(3, False, {"clauses": dict(gate.C3_CLAUSES)})),
    5: (0, _report(5, True, {"failures": []})),
    8: (0, _report(8, True, {"pairs_checked": 71180, "failures": []})),
}


def _selftest_op(criterion, exit_code, result):
    return Op(lambda: (exit_code, result),
              lambda out: gate.check_selftest(criterion, SEED, *out))


def _run(ops):
    g = Gate()
    g.run(ops)
    return g


def test_expected_outputs_pass():
    g = _run([_selftest_op(k, *GOOD[k]) for k in GOOD])
    assert (g.attempted, g.failed) == (4, 0), g.problems


def test_wrong_verdict_fails():
    exit_code, result = copy.deepcopy(GOOD[5])
    result["reports"][0]["passed"] = False
    assert _run([_selftest_op(5, exit_code, result)]).failed == 1
    exit_code, result = copy.deepcopy(GOOD[3])
    result["reports"][0]["details"]["clauses"]["involution_on_morphisms"] = True
    assert _run([_selftest_op(3, exit_code, result)]).failed == 1
    assert _run([_selftest_op(5, 1, GOOD[5][1])]).failed == 1


def test_wrong_count_fails():
    exit_code, result = copy.deepcopy(GOOD[8])
    result["reports"][0]["details"]["pairs_checked"] = 71179
    assert _run([_selftest_op(8, exit_code, result)]).failed == 1
    exit_code, result = copy.deepcopy(GOOD[1])
    result["reports"][0]["details"]["table"]["3,3"] += 1
    assert _run([_selftest_op(1, exit_code, result)]).failed == 1
    good_pair = {"passed": True, "dim_union": 1, "dim_fiber_product": 1}
    g = _run([Op(lambda: [good_pair] * (gate.PAR3_PAIRS - 1), gate.check_gluing,
                 weight=gate.PAR3_PAIRS)])
    assert (g.attempted, g.failed) == (gate.PAR3_PAIRS, 1)


def test_raised_exception_fails_every_operation_it_stands_for():
    def boom():
        raise RuntimeError("boom")

    g = _run([Op(boom, lambda out: []), Op(boom, lambda out: [], weight=3),
              Op(lambda: {}, lambda out: out["missing"]), _selftest_op(5, *GOOD[5])])
    assert (g.attempted, g.failed) == (6, 5)
    assert "boom" in g.problems[0] and "missing" in g.problems[2]


def test_fingerprint_oracle_agrees_with_library_and_catches_a_wrong_one():
    for field, p, length in ((_linalg.PrimeField(101), 101, 3), (_linalg.QQ, None, 2)):
        filtration = workloads._filtration(random.Random(SEED), field, length)
        report = sdot.rotation_periodicity_check(filtration)
        expected = gate.expected_fingerprint(filtration, p)
        assert gate.check_rotation(report, expected) == []
        steps, cones = expected
        wrong = (steps, (cones[0][::-1] if cones[0][0] != cones[0][1]
                         else (cones[0][0] + 1, cones[0][1]),) + cones[1:])
        assert len(gate.check_rotation(report, wrong)) == 1


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.metric_units())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
