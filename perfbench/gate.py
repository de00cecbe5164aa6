"""Correctness gate: every timed output is checked against expectations that
do not come from the code being timed.

An operation is one selftest criterion, one periodicity check, or one
gluing pair.  It fails when it raises or when its output differs from the
expected one.  Criterion 3's red ``involution_on_morphisms`` clause is
expected output (see the package README), not a failure.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import comb
from typing import Callable, List, NamedTuple, Optional

# Up-sets of the stratum poset of Par(n) for n = 0..3: the Dedekind numbers
# M(n + 1) minus one (OEIS A000372).
UPSETS_PER_BASE = (2, 5, 19, 167)
SHEAVES_PER_BASE = 5
C8_PAIRS = SHEAVES_PER_BASE * sum(u * (u + 1) // 2 for u in UPSETS_PER_BASE)  # 71,180
PAR3_PAIRS = UPSETS_PER_BASE[3] * (UPSETS_PER_BASE[3] + 1) // 2                 # 14,028

C3_CLAUSES = {
    "objects_fixed": True,
    "involution_on_morphisms": False,
    "swaps_classification": True,
    "retraction_for_injections": True,
}


class Op(NamedTuple):
    """A timed call and the check of its output.

    ``weight`` is how many operations the call stands for; ``check``
    returns one problem string per failed operation, and a call or check
    that raises fails all of them.
    """

    call: Callable[[], object]
    check: Callable[[object], List[str]]
    weight: int = 1


class Gate:
    """Counts operations attempted and failed, keeping the first few problems."""

    KEEP = 5

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def run(self, ops: List[Op]) -> float:
        """Run ops in order, return their wall time, then check each output."""
        outputs = []
        start = time.perf_counter()
        for op in ops:
            try:
                outputs.append((op.call(), None))
            except Exception as error:  # a raising operation is a failed one
                outputs.append((None, error))
        elapsed = time.perf_counter() - start
        for op, (output, error) in zip(ops, outputs):
            if error is None:
                try:
                    problems = op.check(output)
                except Exception as check_error:  # malformed output
                    error = check_error
            if error is not None:
                self.record(op.weight, op.weight, [f"raised {error!r}"])
            else:
                self.record(op.weight, min(op.weight, len(problems)), problems)
        return elapsed

    def record(self, attempted: int, failed: int, problems: List[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems[: max(0, self.KEEP - len(self.problems))])


# -- selftest ------------------------------------------------------------------

def check_selftest(criterion: int, seed: int, exit_code: int, result: dict) -> List[str]:
    """Check one ``selftest --only k --out FILE`` run: exit code and report."""
    expect_pass = criterion != 3
    problems = []
    if exit_code != (0 if expect_pass else 1):
        problems.append(f"c{criterion}: exit code {exit_code}")
    reports = result.get("reports", [])
    if result.get("seed") != seed or [r.get("id") for r in reports] != [criterion]:
        return problems + [f"c{criterion}: report is for another run"]
    report = reports[0]
    if report.get("passed") is not expect_pass:
        problems.append(f"c{criterion}: verdict {report.get('passed')}")
    details = report.get("details", {})
    if criterion == 1:
        expected = {f"{m},{n}": (m + 1) * comb(m + n + 1, m + 1)
                    for m in range(4) for n in range(4)}
        if details.get("table") != expected:
            problems.append("c1: hom-count table differs from (m+1)C(m+n+1,m+1)")
    if criterion == 3 and details.get("clauses") != C3_CLAUSES:
        problems.append(f"c3: clauses {details.get('clauses')}")
    if criterion == 8 and details.get("pairs_checked") != C8_PAIRS:
        problems.append(f"c8: pairs_checked {details.get('pairs_checked')}")
    return problems


# -- rotation ------------------------------------------------------------------

def _rank(rows: List[list], p: Optional[int]) -> int:
    """Rank by Gaussian elimination over F_p, or over Q when p is None."""
    mat = [[(int(x) % p) if p else Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p) if p else 1 / mat[rank][col]
        for r in range(rank + 1, len(mat)):
            factor = mat[r][col] * inv
            if factor:
                mat[r] = [(a - factor * b) % p if p else a - factor * b
                          for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _matmul(a: List[list], b: List[list], cols: int, p: Optional[int]) -> List[list]:
    inner = range(len(b))
    out = [[sum(row[k] * b[k][j] for k in inner) for j in range(cols)] for row in a]
    return [[x % p for x in row] for row in out] if p else out


def _homology(d0: List[list], d1: List[list], v0: int, v1: int, p) -> tuple:
    r0, r1 = _rank(d0, p), _rank(d1, p)
    return (v0 - r0 - r1, v1 - r1 - r0)


def _block(a: List[list], b: List[list], c: List[list], cols_c: int) -> List[list]:
    """[[a, 0], [b, c]] where c has cols_c columns."""
    top = [list(row) + [0] * cols_c for row in a]
    bottom = [list(rb) + list(rc) for rb, rc in zip(b, c)]
    return top + bottom


def expected_fingerprint(filtration, p: Optional[int]) -> tuple:
    """Homology dimensions of every step and of the cone of every composite.

    Written from the definitions with plain lists, independently of the
    library's rank, cone and composite code.  Block signs are dropped: a
    row of blocks scaled by -1 keeps the rank.
    """
    objs = [(x.d0.tolist(), x.d1.tolist(), *x.dims) for x in filtration.objects]
    maps = [(m.f0.tolist(), m.f1.tolist()) for m in filtration.maps]
    steps = tuple(_homology(d0, d1, v0, v1, p) for d0, d1, v0, v1 in objs)
    cones = []
    n = len(objs)
    for i in range(n):
        f0 = [[int(r == c) for c in range(objs[i][2])] for r in range(objs[i][2])]
        f1 = [[int(r == c) for c in range(objs[i][3])] for r in range(objs[i][3])]
        for j in range(i + 1, n):
            sd0, sd1, s0, s1 = objs[i]
            td0, td1, t0, t1 = objs[j]
            f0 = _matmul(maps[j - 1][0], f0, s0, p)
            f1 = _matmul(maps[j - 1][1], f1, s1, p)
            # cone degree 0 is src_1 + tgt_0, degree 1 is src_0 + tgt_1
            d0 = _block(sd1, f1, td0, t0)
            d1 = _block(sd0, f0, td1, t1)
            cones.append(_homology(d0, d1, s1 + t0, s0 + t1, p))
    return (steps, tuple(cones))


def check_rotation(report: dict, expected: tuple) -> List[str]:
    problems = []
    if report.get("passed") is not True:
        problems.append(f"length {report.get('length')}: periodicity check failed")
    if report.get("fingerprint_before") != expected:
        problems.append(f"length {report.get('length')}: fingerprint_before "
                        f"{report.get('fingerprint_before')} != {expected}")
    return problems


# -- gluing --------------------------------------------------------------------

def check_gluing(reports: List[dict]) -> List[str]:
    """Every up-set pair of Par(3) glues; there are exactly 14,028 pairs."""
    problems = [f"pair {i}: {r}" for i, r in enumerate(reports)
                if not (r.get("passed") is True
                        and r.get("dim_union") == r.get("dim_fiber_product"))]
    if len(reports) != PAR3_PAIRS:
        problems.append(f"{len(reports)} gluing pairs, expected {PAR3_PAIRS}")
    return problems
