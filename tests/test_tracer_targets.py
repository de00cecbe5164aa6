"""The tracer of ``perfbench/tracing.py`` still finds and restores its targets.

``--trace 1`` looks each function of ``tracing.WRAPPED`` up through its
holder's ``__dict__``, so moving one (``Field.rref`` into a backend, or a
backend's ``matmul`` into ``Field``) would break traced runs; nothing else in
the test suite installs the tracer.
"""

import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import paracyclic.cli  # noqa: E402,F401  loads every module the tracer patches, as run.py does
import tracing  # noqa: E402
from paracyclic import consheaf  # noqa: E402
from paracyclic._linalg import QQ, Field, PrimeField, Rationals  # noqa: E402
from paracyclic.paracat import Parasimplex  # noqa: E402


def bindings() -> dict:
    """Every attribute of every paracyclic module and field class."""
    holders = [module for name, module in sys.modules.items()
               if name == "paracyclic" or name.startswith("paracyclic.")]
    holders += [Field, PrimeField, Rationals]
    return {(id(holder), attr): value for holder in holders
            for attr, value in list(vars(holder).items())}


def test_linalg_targets_count_calls_and_are_restored():
    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for calls, field in enumerate((PrimeField(101), QQ), start=1):
            a = field.matrix([[1, 2], [3, 4]])
            field.matmul(a, a)
            field.rref(a)
            assert tracer.stats["linalg.matmul"][0] == calls, field.name
            assert tracer.stats["linalg.rref"][0] == calls, field.name
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_gluing_rows_reaches_the_traced_sections():
    """Criterion 8's gluing reads each up-set's sections through the
    ``consheaf.sections`` binding that the tracer wraps: 19 up-sets over
    Par(2), 19 calls."""
    sheaf = consheaf.random_sheaf(random.Random(3), Parasimplex(2), PrimeField(101))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for _ in consheaf.gluing_rows(sheaf):
            pass
        assert tracer.stats["consheaf.sections"][0] == len(consheaf.enumerate_upsets(sheaf.base)) == 19
    finally:
        tracer.uninstall()
