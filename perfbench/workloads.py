"""Seeded inputs and timed parts of the three benchmark workloads.

A workload is a list of parts; a part is a list of gate operations that
are timed together and repeated.  All inputs come from ``--seed`` and are
built before timing; the library receives only these inputs, and every
call goes through a module attribute so that the tracer's wrappers apply.

- ``selftest``: criteria 1-9, one per ``paracyclic.cli.main`` call with
  ``--out``, so argument parsing and report writing are timed and the
  written report is what gets checked.  It is the product, and it is
  dominated by the combinatorial layers (preord, equivalence, consheaf).
- ``rotation``: ``rotation_periodicity_check`` on filtrations over F_101 of
  lengths 1-5.  ``_linalg`` (int64 matmul and rref) carries almost all of
  the time; the combinatorial layers do no work.
- ``rational``: the field layer through the Q backend, where the cost is
  Python-level Fraction arithmetic: gluing over all 14,028 up-set pairs of
  one Par(3) sheaf, and rotations of lengths 1-2.

Input sizes are fixed so that every seed asks for the same amount of work:
each filtration step has dimensions (3, 3), drawn from ``random_complex``
until it has them (the entries stay seeded), and the Q sheaf is drawn from
``random_sheaf`` until it has one-dimensional stalks on the four strata of
``SHEAF_SUPPORT``, up to turning the gap labels, and nowhere else.  Without
this the cost of one length-5 check varied from 0.9 s to 5.7 s between
seeds, and gluing over sheaves whose stalk dimensions merely summed to 4
from 1.7 s to 3.0 s.  The
selftest seed is drawn from ``--seed`` until criterion 8's five Par(3)
sheaves have stalk dimensions summing to 11, the median over seeds 0-59:
the sum ranged over 0-20 there, and criterion 8 took about 5 s at seed 0
(sum 4) but 8.5 s at seed 11 (sum 11).
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List, NamedTuple

from paracyclic import _linalg, cli, consheaf, sdot
from paracyclic.preord import ParaPreorder

import gate
from gate import Op

WORKLOADS = ("selftest", "rotation", "rational")
STEP_DIMS = (3, 3)
ROTATION_COUNTS = {1: 6, 2: 6, 3: 6, 4: 4, 5: 2}
RATIONAL_COUNTS = {1: 6, 2: 6}
SHEAF_SUPPORT = {(0, 1, 2, 3), (0, 1, 2), (0, 2, 3), (0, 2)}
C8_PAR3_DIMS = 11


class Part(NamedTuple):
    name: str
    ops: List[Op]


def _filtration(rng, field, length):
    objects = []
    for _ in range(length):
        while True:
            x = sdot.random_complex(rng, field, max(STEP_DIMS))
            if x.dims == STEP_DIMS:
                break
        objects.append(x)
    maps = [sdot.random_chain_map(rng, field, objects[i], objects[i + 1])
            for i in range(length - 1)]
    return sdot.FilteredObject(field, tuple(objects), tuple(maps))


def _rotation_parts(rng, field, counts: Dict[int, int]) -> List[Part]:
    p = getattr(field, "p", None)    # None for Q
    parts = []
    for length, count in counts.items():
        ops = []
        for _ in range(count):
            filtration = _filtration(rng, field, length)
            expected = []   # filled on first check, outside the timed region

            def check(report, filtration=filtration, expected=expected):
                if not expected:
                    expected.append(gate.expected_fingerprint(filtration, p))
                return gate.check_rotation(report, expected[0])

            ops.append(Op(lambda f=filtration: sdot.rotation_periodicity_check(f), check))
        parts.append(Part(f"len{length}", ops))
    return parts


def _c8_par3_dims(selftest_seed: int) -> int:
    """Summed stalk dimensions of criterion 8's five Par(3) sheaves, drawn as
    criterion 8 draws them: five sheaves per base Par(0)..Par(3) from one rng."""
    rng = random.Random(selftest_seed)
    field = _linalg.PrimeField(101)
    total = 0
    for n in range(4):
        base = ParaPreorder.from_parasimplex(n)
        for _ in range(5):
            sheaf = consheaf.random_sheaf(rng, base, field)
            if n == 3:
                total += sum(sheaf.dims.values())
    return total


def selftest_seed(seed: int) -> int:
    """The first seed drawn from ``seed`` whose criterion 8 has the median size."""
    rng = random.Random(seed)
    while True:
        candidate = rng.randrange(2 ** 31)
        if _c8_par3_dims(candidate) == C8_PAR3_DIMS:
            return candidate


def _selftest_parts(seed: int, out_dir: str) -> List[Part]:
    seed = selftest_seed(seed)
    parts = []
    for k in range(1, 10):
        path = os.path.join(out_dir, f"selftest-c{k}.json")
        argv = ["selftest", "--seed", str(seed), "--only", str(k), "--out", path]

        def check(exit_code, k=k, path=path):
            with open(path) as handle:
                result = json.load(handle)
            os.remove(path)    # a later run that writes no report must not pass
            return gate.check_selftest(k, seed, exit_code, result)

        parts.append(Part(f"c{k}", [Op(lambda argv=argv: cli.main(argv), check)]))
    return parts


def _has_sheaf_shape(dims: dict, period: int) -> bool:
    """Stalks of dimension 1 exactly on SHEAF_SUPPORT, up to turning the gap
    labels, which is an automorphism of the stratum poset."""
    if any(d > 1 for d in dims.values()):
        return False
    support = [gaps for gaps, d in dims.items() if d]
    return any({tuple(sorted((g + turn) % period for g in gaps)) for gaps in support}
               == SHEAF_SUPPORT for turn in range(period))


def _glue_part(rng) -> Part:
    base = ParaPreorder.from_parasimplex(3)
    while True:
        sheaf = consheaf.random_sheaf(rng, base, _linalg.QQ)
        if _has_sheaf_shape(sheaf.dims, base.period):
            break

    def glue_all():
        upsets = consheaf.enumerate_upsets(base)
        cache: dict = {}
        return [consheaf.gluing_check(sheaf, u1, u2, section_cache=cache)
                for i, u1 in enumerate(upsets) for u2 in upsets[i:]]

    return Part("glue", [Op(glue_all, gate.check_gluing, weight=gate.PAR3_PAIRS)])


def build(workload: str, seed: int, out_dir: str) -> List[Part]:
    """The workload's parts, with every input generated from the seed."""
    rng = random.Random(seed)
    if workload == "selftest":
        return _selftest_parts(seed, out_dir)
    if workload == "rotation":
        return _rotation_parts(rng, _linalg.PrimeField(101), ROTATION_COUNTS)
    if workload == "rational":
        rotations = _rotation_parts(rng, _linalg.QQ, RATIONAL_COUNTS)
        return [_glue_part(rng), Part("rotate", [op for part in rotations for op in part.ops])]
    raise ValueError(f"unknown workload {workload!r}")
