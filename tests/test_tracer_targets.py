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
from paracyclic import consheaf, equivalence, preord  # noqa: E402
from paracyclic._linalg import QQ, Field, PrimeField, Rationals  # noqa: E402
from paracyclic.paracat import ParaPreorder, Parasimplex  # noqa: E402


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


def test_first_gluing_check_reaches_the_traced_sections_once_per_up_set():
    """The first ``gluing_check`` on a sheaf builds its section table through
    the traced ``consheaf.sections``, inside the traced ``gluing_check``:
    167 calls over Par(3), one per up-set, each counted as a miss of the
    ``consheaf.section_cache.hit_ratio`` metric.  Later checks of the same
    sheaf reach ``sections`` 0 times."""
    sheaf = consheaf.random_sheaf(random.Random(5), Parasimplex(3), PrimeField(101))
    upsets = consheaf.enumerate_upsets(sheaf.base)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        consheaf.gluing_check(sheaf, upsets[10], upsets[20])
        assert tracer.stats["consheaf.sections"][0] == tracer.cache_misses == len(upsets) == 167
        for u1, u2 in zip(upsets[::7], upsets[::-5]):
            consheaf.gluing_check(sheaf, u1, u2)
        assert tracer.stats["consheaf.sections"][0] == tracer.cache_misses == 167
    finally:
        tracer.uninstall()


def test_preord_maps_count_their_maps_and_reach_the_traced_hom_sets():
    """One ``enumerate_preord_maps`` call on an emptied memo counts one call
    and its tuple's length in ``preord.enumerate_preord_maps.maps``, and
    reads its class surjections through the traced ``paracat.enumerate_hom``."""
    before = bindings()
    preord.enumerate_preord_maps.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        maps = preord.enumerate_preord_maps(ParaPreorder((2, 1)), ParaPreorder((1, 2)))
        assert tracer.stats["preord.enumerate_preord_maps"][0] == 1
        assert tracer.counts["preord.enumerate_preord_maps.maps"] == len(maps) > 0
        assert tracer.stats["paracat.enumerate_hom"][0] == 1
    finally:
        tracer.uninstall()
        preord.enumerate_preord_maps.cache_clear()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_conv_tilde_counts_its_edge_rows():
    """One ``build_conv_tilde(3)`` on an emptied memo counts one call and
    its 1,499 edge rows in ``equivalence.build_conv_tilde.edges``."""
    before = bindings()
    equivalence.build_conv_tilde.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        equivalence.build_conv_tilde(3)
        assert tracer.stats["equivalence.build_conv_tilde"][0] == 1
        assert tracer.counts["equivalence.build_conv_tilde.edges"] == 1499
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
