import random
import time

import numpy as np
import pytest

from paracyclic import sdot
from paracyclic._linalg import VECTOR_MIN_ROWS, Field, PrimeField, QQ
from paracyclic.errors import IndexOutOfRange, NotAComplex, ResourceBound
from paracyclic.sdot import (
    ComplexMap,
    FilteredObject,
    TwoPeriodicComplex,
    cone,
    cone_boundary_map,
    degeneracy,
    euler_characteristic,
    face,
    fingerprint,
    homology_dims,
    identity_chain_map,
    is_quasi_iso,
    random_chain_map,
    random_complex,
    random_filtration,
    rotate,
    rotated_total_dim,
    rotation_periodicity_check,
    shift,
    shift_map,
    zero_chain_map,
    zero_complex,
)

from oracles import (
    oracle_chain_map_rows,
    oracle_fingerprint,
    oracle_kernel_dim_by_enumeration,
)

F2 = PrimeField(2)
F5 = PrimeField(5)
F101 = PrimeField(101)


def complexes_equal(x, y):
    return x.field.equal(x.d0, y.d0) and x.field.equal(x.d1, y.d1)


def one_zero(field):
    """V0 = k, V1 = 0; homology (1, 0)."""
    return TwoPeriodicComplex.from_dims(field, 1, 0)


def fully_rotated(filt):
    """The (n + 1)-fold rotation of a length-n filtration."""
    for _ in range(filt.length + 1):
        filt = rotate(filt)
    return filt


def fingerprint_mismatches(field):
    """Seeded filtrations of lengths 1-3, and their (n + 1)-fold rotations,
    on which ``fingerprint`` and ``oracle_fingerprint`` differ."""
    rng = random.Random(40)
    out = []
    for trial in range(12):
        filt = random_filtration(rng, field, 1 + trial % 3, max_dim=3)
        out += [(trial, rotations) for rotations, g in enumerate((filt, fully_rotated(filt)))
                if fingerprint(g) != oracle_fingerprint(g)]
    return out


def edge_case_filtrations(field):
    """Zero complexes, steps of dimensions (0, k) and (k, 0), zero maps,
    identity maps, and every degeneracy of a seeded filtration."""
    rng = random.Random(41)
    zero = zero_complex(field)
    x = TwoPeriodicComplex.from_dims(field, 2, 1)
    y = random_complex(rng, field, 3)
    only_odd, only_even = (TwoPeriodicComplex.from_dims(field, 0, 2),
                           TwoPeriodicComplex.from_dims(field, 3, 0))
    lopsided = (only_odd, y, only_even)
    seeded = random_filtration(rng, field, 2, max_dim=3)
    return [
        FilteredObject(field, (zero,) * 3, (zero_chain_map(zero, zero),) * 2),
        FilteredObject(field, lopsided, tuple(random_chain_map(rng, field, a, b)
                                              for a, b in zip(lopsided, lopsided[1:]))),
        FilteredObject(field, (x, y, x), (zero_chain_map(x, y), zero_chain_map(y, x))),
        FilteredObject(field, (x,) * 3, (identity_chain_map(x),) * 2),
    ] + [degeneracy(seeded, i) for i in range(seeded.length + 1)]


def steps_of_dims_three(field, length, seed, zero_first):
    """A length-n filtration with (3, 3) steps, each drawn by
    ``random_complex`` until its dimensions are (3, 3), as the rotation
    benchmark draws them.  With zero_first the first step has zero
    differentials instead, so that the fingerprint carries nonzero
    homology."""
    rng = random.Random(seed)
    objects = [TwoPeriodicComplex.from_dims(field, 3, 3)] if zero_first else []
    while len(objects) < length:
        x = random_complex(rng, field, 3)
        if x.dims == (3, 3):
            objects.append(x)
    maps = tuple(random_chain_map(rng, field, objects[i], objects[i + 1])
                 for i in range(length - 1))
    return FilteredObject(field, tuple(objects), maps)


class TestComplexes:
    def test_d_squared_enforced(self):
        with pytest.raises(NotAComplex):
            TwoPeriodicComplex(F5, F5.matrix([[1]]), F5.matrix([[1]]))

    def test_zero_complex(self):
        assert homology_dims(zero_complex(F5)) == (0, 0)

    def test_one_dim(self):
        assert homology_dims(one_zero(F5)) == (1, 0)

    def test_exact_complex(self):
        x = TwoPeriodicComplex(F5, F5.matrix([[1]]), F5.zeros(1, 1))
        assert homology_dims(x) == (0, 0)

    def test_homology_matches_enumeration_oracle(self):
        rng = random.Random(13)
        for _ in range(10):
            x = random_complex(rng, F2, max_dim=3)
            v0, v1 = x.dims
            h0, h1 = homology_dims(x)
            ker0 = oracle_kernel_dim_by_enumeration(
                [list(map(int, row)) for row in x.d0], v0, 2
            )
            ker1 = oracle_kernel_dim_by_enumeration(
                [list(map(int, row)) for row in x.d1], v1, 2
            )
            rank0, rank1 = v0 - ker0, v1 - ker1
            assert h0 == ker0 - rank1
            assert h1 == ker1 - rank0

    def test_json_round_trip(self):
        rng = random.Random(14)
        x = random_complex(rng, F5)
        assert complexes_equal(TwoPeriodicComplex.from_json(x.to_json()), x)


class TestShift:
    def test_involution_on_the_nose(self):
        rng = random.Random(15)
        for _ in range(5):
            x = random_complex(rng, F5)
            assert complexes_equal(shift(shift(x)), x)

    def test_homology_swaps(self):
        rng = random.Random(16)
        for _ in range(5):
            x = random_complex(rng, F5)
            h0, h1 = homology_dims(x)
            assert homology_dims(shift(x)) == (h1, h0)

    def test_cone_commutes_with_shift_up_to_signs(self):
        # the canonical reindexing negates the target block in both degrees
        rng = random.Random(17)
        for _ in range(5):
            x, y = random_complex(rng, F5, 3), random_complex(rng, F5, 3)
            f = random_chain_map(rng, F5, x, y)
            left = cone(shift_map(f))
            right = shift(cone(f))
            s0, s1 = x.dims
            t0, t1 = y.dims
            u0 = F5.identity(s0 + t1)
            u0[s0:, s0:] = F5.neg(F5.identity(t1))
            u1 = F5.identity(s1 + t0)
            u1[s1:, s1:] = F5.neg(F5.identity(t0))
            assert F5.equal(F5.matmul(u1, left.d0), F5.matmul(right.d0, u0))
            assert F5.equal(F5.matmul(u0, left.d1), F5.matmul(right.d1, u1))


class TestCone:
    def test_cone_of_identity_acyclic(self):
        x = one_zero(F5)
        assert homology_dims(x) != (0, 0)
        assert homology_dims(cone(identity_chain_map(x))) == (0, 0)

    def test_cone_from_zero_is_target(self):
        rng = random.Random(18)
        x = random_complex(rng, F5)
        c = cone(zero_chain_map(zero_complex(F5), x))
        assert complexes_equal(c, x)

    def test_cone_to_zero_is_shifted_source(self):
        rng = random.Random(19)
        x = random_complex(rng, F5)
        c = cone(zero_chain_map(x, zero_complex(F5)))
        assert complexes_equal(c, shift(x))

    def test_cone_of_line_inclusion(self):
        x = one_zero(F5)
        y = TwoPeriodicComplex.from_dims(F5, 2, 0)
        inclusion = ComplexMap(x, y, F5.matrix([[1], [0]]), F5.zeros(0, 0))
        assert homology_dims(cone(inclusion)) == (1, 0)

    def test_d_squared_after_constructions(self):
        rng = random.Random(20)
        for _ in range(10):
            x, y = random_complex(rng, F2), random_complex(rng, F2)
            f = random_chain_map(rng, F2, x, y)
            cone(f)  # constructor asserts d^2 = 0
            shift(x)

    def test_euler_additivity(self):
        rng = random.Random(21)
        for _ in range(100):
            x, y = random_complex(rng, F2, 3), random_complex(rng, F2, 3)
            f = random_chain_map(rng, F2, x, y)
            assert euler_characteristic(cone(f)) == (
                euler_characteristic(y) - euler_characteristic(x)
            )


class TestRandomChainMap:
    @pytest.mark.parametrize("field", [F2, F101, QQ], ids=["F2", "F101", "Q"])
    def test_samples_the_kernel_of_the_index_loop_system(self, field):
        """The map is the kernel basis of the loop-built equations, scaled by
        one random_scalar draw per basis row, and the rng ends in step."""
        for seed in range(40):
            rng = random.Random(seed)
            x = random_complex(rng, field, 4 if seed % 4 else 0)
            y = random_complex(rng, field)
            before = rng.getstate()
            f = random_chain_map(rng, field, x, y)
            after = rng.getstate()
            rows, width = oracle_chain_map_rows(x, y)
            basis = field.right_kernel(field.matrix(rows) if rows else field.zeros(0, width))
            rng.setstate(before)
            scales = field.matrix([[field.random_scalar(rng) for _ in range(len(basis))]])
            flat = np.concatenate([f.f0.reshape(-1), f.f1.reshape(-1)])
            assert field.equal(flat, field.matmul(scales, basis)[0]), seed
            assert rng.getstate() == after, seed


class TestQuasiIso:
    def test_identity(self):
        assert is_quasi_iso(identity_chain_map(one_zero(F5)))

    def test_zero_map_between_nontrivial(self):
        x = one_zero(F5)
        assert not is_quasi_iso(zero_chain_map(x, x))

    def test_inclusion_of_summand_complement(self):
        # X (+) acyclic -> X is a quasi-isomorphism
        x = one_zero(F5)
        acyclic = TwoPeriodicComplex(F5, F5.matrix([[1]]), F5.zeros(1, 1))
        padded = TwoPeriodicComplex(
            F5,
            F5.matrix([[0, 1]]),
            F5.zeros(2, 1),
        )
        projection = ComplexMap(padded, x, F5.matrix([[1, 0]]), F5.zeros(0, 1))
        assert homology_dims(padded) == homology_dims(x)
        assert is_quasi_iso(projection)

    def test_respects_composition_with_quasi_isos(self):
        rng = random.Random(22)
        x = random_complex(rng, F5, 3)
        ident = identity_chain_map(x)
        assert is_quasi_iso(ident)


class TestFacesAndDegeneracies:
    def test_face_last_drops(self):
        rng = random.Random(23)
        filt = random_filtration(rng, F2, 2)
        reduced = face(filt, 2)
        assert reduced.objects == filt.objects[:1]

    def test_face_zero_is_cone(self):
        rng = random.Random(24)
        filt = random_filtration(rng, F2, 2)
        quotient = face(filt, 0)
        assert complexes_equal(quotient.objects[0], cone(filt.maps[0]))

    def test_index_range(self):
        rng = random.Random(25)
        filt = random_filtration(rng, F2, 2)
        with pytest.raises(IndexOutOfRange):
            face(filt, 3)
        with pytest.raises(IndexOutOfRange):
            degeneracy(filt, -1)

    def test_simplicial_deletion_identities_exact(self):
        rng = random.Random(26)
        for _ in range(8):
            filt = random_filtration(rng, F2, 3)
            for i in range(1, filt.length + 1):
                inserted = degeneracy(filt, i)
                assert face(inserted, i).objects == filt.objects
                assert face(inserted, i).maps == filt.maps
                assert face(inserted, i + 1).objects == filt.objects
                assert face(inserted, i + 1).maps == filt.maps
        filt = random_filtration(random.Random(27), F2, 2)
        padded = degeneracy(filt, 0)
        dropped = face(padded, 0)
        assert all(
            complexes_equal(a, b) for a, b in zip(dropped.objects, filt.objects)
        )
        assert all(
            F2.equal(a.f0, b.f0) and F2.equal(a.f1, b.f1)
            for a, b in zip(dropped.maps, filt.maps)
        )

    def test_face_commutation_pure_deletions(self):
        rng = random.Random(28)
        for _ in range(8):
            filt = random_filtration(rng, F2, 3)
            for i in range(1, filt.length + 1):
                for j in range(i + 1, filt.length + 1):
                    one = face(face(filt, j), i)
                    two = face(face(filt, i), j - 1)
                    assert one.objects == two.objects
                    for a, b in zip(one.maps, two.maps):
                        assert F2.equal(a.f0, b.f0) and F2.equal(a.f1, b.f1)

    def test_face_zero_of_length_one_is_empty(self):
        filt = FilteredObject(F5, (one_zero(F5),), ())
        assert face(filt, 0) == FilteredObject(F5, (), ())

    def test_face_commutation_with_zero_at_fingerprint_level(self):
        rng = random.Random(29)
        for _ in range(6):
            filt = random_filtration(rng, F2, 3)
            for j in range(1, filt.length + 1):
                one = face(face(filt, j), 0)
                two = face(face(filt, 0), j - 1)
                assert fingerprint(one) == fingerprint(two)


class TestRotate:
    def test_length_one_is_shift(self):
        x = one_zero(F5)
        filt = FilteredObject(F5, (x,), ())
        assert complexes_equal(rotate(filt).objects[0], shift(x))
        assert complexes_equal(rotate(rotate(filt)).objects[0], x)

    def test_length_two_rotation_pieces(self):
        x1 = one_zero(F5)
        x2 = TwoPeriodicComplex.from_dims(F5, 2, 0)
        inclusion = ComplexMap(x1, x2, F5.matrix([[1], [0]]), F5.zeros(0, 0))
        filt = FilteredObject(F5, (x1, x2), (inclusion,))
        rotated = rotate(filt)
        assert [homology_dims(x) for x in rotated.objects] == [(1, 0), (0, 1)]

    def test_preserves_validity(self):
        rng = random.Random(30)
        for _ in range(6):
            filt = random_filtration(rng, F2, 3)
            rotate(filt)  # constructors validate everything

    def test_zero_filtration_trivially_periodic(self):
        zero = zero_complex(F2)
        filt = FilteredObject(
            F2, (zero, zero), (zero_chain_map(zero, zero),)
        )
        assert rotation_periodicity_check(filt)["passed"]

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_periodicity_random(self, length):
        rng = random.Random(31 + length)
        for _ in range(6):
            filt = random_filtration(rng, F2, length, max_dim=4)
            report = rotation_periodicity_check(filt)
            assert report["passed"], report

    def test_periodicity_length_six_over_f101(self):
        """Length 6 with (3, 3) steps: cones of up to about 750 rows after
        the 7 rotations.  The first step has zero differentials, so the
        fingerprint carries nonzero homology.  Bound: 30 s (0.5-0.7 s on a
        2-vCPU VM; 1.9 s while the fingerprint built the cone of every
        composite, 42 s before the vectorized prime-field kernels)."""
        filt = steps_of_dims_three(F101, 6, 36, zero_first=True)
        start = time.perf_counter()
        report = rotation_periodicity_check(filt)
        elapsed = time.perf_counter() - start
        assert report["passed"], report
        assert report["fingerprint_before"][0][0] == (3, 3)
        assert elapsed < 30, f"length-6 periodicity check took {elapsed:.1f}s"

    def test_periodicity_length_seven_over_f101(self):
        """Length 7 with (3, 3) steps, seeded as at length 6: the 8 rotations
        reach total dimension 9,186.  Bound: 30 s (about 2.4 s on a 2-vCPU
        VM; 12.6 s while the fingerprint built the cone of every composite)."""
        filt = steps_of_dims_three(F101, 7, 36, zero_first=True)
        assert rotated_total_dim(filt) == 9186
        start = time.perf_counter()
        report = rotation_periodicity_check(filt)
        elapsed = time.perf_counter() - start
        assert report["passed"], report
        assert report["fingerprint_before"][0][0] == (3, 3)
        assert elapsed < 30, f"length-7 periodicity check took {elapsed:.1f}s"

    def test_length_one_certificate(self):
        x = one_zero(F2)
        filt = FilteredObject(F2, (x,), ())
        report = rotation_periodicity_check(filt)
        assert report["double_rotation_is_identity"]
        assert report["certificate_is_quasi_iso"]

    def test_length_one_certificate_fails_on_a_wrong_double_rotation(self, monkeypatch):
        # a rotation that also doubles d0 keeps the homology, so the
        # fingerprints agree, but the double rotation carries 4 d0 and the
        # identity is then no chain map back to the input
        def scaling_rotate(filt):
            x = filt.objects[0]
            scaled = TwoPeriodicComplex(x.field, x.field.reduce(2 * x.d0), x.d1)
            return FilteredObject(filt.field, (shift(scaled),), ())

        monkeypatch.setattr(sdot, "rotate", scaling_rotate)
        x = TwoPeriodicComplex(F101, F101.matrix([[1]]), F101.zeros(1, 1))
        report = rotation_periodicity_check(FilteredObject(F101, (x,), ()))
        assert report["fingerprint_before"] == report["fingerprint_after"]
        assert not report["double_rotation_is_identity"]
        assert not report["certificate_is_quasi_iso"]

    def test_fault_injected_rotation_detected(self):
        # a broken rotation that forgets to shift the carried-over first
        # step; the fingerprint flags it whenever that step has asymmetric
        # homology (sign faults are invisible over F_2, and cone(-f) is
        # even isomorphic to cone(f), so the shift is the honest target)
        def broken_rotate(filt):
            good = rotate(filt)
            return FilteredObject(
                filt.field,
                good.objects[:-1] + (filt.objects[0],),
                good.maps[:-1]
                + (zero_chain_map(good.objects[-2], filt.objects[0]),),
            )

        x1 = one_zero(F2)
        x2 = TwoPeriodicComplex.from_dims(F2, 2, 0)
        inclusion = ComplexMap(x1, x2, F2.matrix([[1], [0]]), F2.zeros(0, 0))
        filt = FilteredObject(F2, (x1, x2), (inclusion,))
        assert fingerprint(broken_rotate(filt)) != fingerprint(rotate(filt))
        bad = filt
        for _ in range(filt.length + 1):
            bad = broken_rotate(bad)
        assert fingerprint(bad) != fingerprint(filt)


class TestFingerprint:
    @pytest.mark.parametrize("field", [F2, F101, QQ], ids=["F2", "F101", "Q"])
    def test_matches_the_cone_oracle(self, field):
        assert fingerprint_mismatches(field) == []

    @pytest.mark.parametrize("field", [F2, F101, QQ], ids=["F2", "F101", "Q"])
    def test_edge_cases_match_the_cone_oracle(self, field):
        for k, filt in enumerate(edge_case_filtrations(field)):
            for g in (filt, fully_rotated(filt)):
                assert fingerprint(g) == oracle_fingerprint(g), k
            assert rotation_periodicity_check(filt)["passed"], k

    @pytest.mark.parametrize("field, length", [(F2, 3), (F2, 4), (F101, 3), (F101, 4), (QQ, 3)],
                             ids=["F2-3", "F2-4", "F101-3", "F101-4", "Q-3"])
    def test_rotated_steps_of_dims_three_match_the_cone_oracle(self, field, length):
        """Fully rotated filtrations with (3, 3) steps, drawn as the rotation
        benchmark draws them, and again with a first step of zero
        differentials.  Their steps reach 39 rows at length 3 and 87 at
        length 4, past ``VECTOR_MIN_ROWS``, so over a prime field the
        differentials go through the broadcast elimination, which the
        seeded filtrations above never reach.  The length-4 oracle takes
        about 0.4 s, the length-3 one over Q about 1.1 s."""
        for zero_first in (False, True):
            turned = fully_rotated(steps_of_dims_three(field, length, 45, zero_first))
            assert max(max(x.dims) for x in turned.objects) >= VECTOR_MIN_ROWS
            assert fingerprint(turned) == oracle_fingerprint(turned), zero_first

    def test_steps_are_the_homology_dims(self):
        rng = random.Random(43)
        for field in (F2, F101, QQ):
            filt = fully_rotated(random_filtration(rng, field, 3, max_dim=4))
            assert fingerprint(filt)[0] == tuple(homology_dims(x) for x in filt.objects)

    def test_builds_no_cone_and_no_composite(self, monkeypatch):
        filt = random_filtration(random.Random(42), F101, 4, max_dim=3)
        turned = fully_rotated(filt)
        expected = [oracle_fingerprint(filt), oracle_fingerprint(turned)]

        def refuse(*args):
            raise AssertionError("the fingerprint built a cone or a composite")

        monkeypatch.setattr(sdot, "cone", refuse)
        monkeypatch.setattr(sdot, "compose_chain_maps", refuse)
        assert [fingerprint(filt), fingerprint(turned)] == expected

    def test_eliminates_each_differential_once(self, monkeypatch):
        """``Field.rref`` runs on each differential once, on each degree's
        boundaries once in kernel coordinates, an r x z matrix, and on each
        degree of each induced composite once: 4n + n(n - 1) calls on a
        length-n filtration none of whose matrices is empty and every one of
        whose degrees has homology.  Each step is k^3 in both degrees with
        d0 and d1 of rank 1, so its boundaries are 1 x 2 and its homology is
        (1, 1).  On a fully rotated random filtration, where empty matrices
        and the boundaries of degrees without homology are skipped, the
        count stays within that bound."""
        n = 4
        x = TwoPeriodicComplex(F101, F101.matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
                               F101.matrix([[0, 0, 0], [0, 1, 0], [0, 0, 0]]))
        rng = random.Random(46)
        filt = FilteredObject(F101, (x,) * n,
                              tuple(random_chain_map(rng, F101, x, x) for _ in range(n - 1)))
        turned = fully_rotated(random_filtration(random.Random(42), F101, n, max_dim=3))
        shapes = []
        rref = Field.rref

        def counting(self, a):
            shapes.append(a.shape)
            return rref(self, a)

        monkeypatch.setattr(Field, "rref", counting)
        assert fingerprint(filt)[0] == ((1, 1),) * n
        assert shapes == [(3, 3), (3, 3), (1, 2), (1, 2)] * n + [(1, 1)] * (n * (n - 1))
        shapes.clear()
        fingerprint(turned)
        assert 0 < len(shapes) <= 4 * n + n * (n - 1)


class TestRotationCap:
    """rotation_periodicity_check refuses, before any rotation, a filtration
    whose n + 1 rotations exceed the backend's total-dimension cap."""

    def test_total_dim_is_the_largest_total_of_the_rotations(self):
        rng = random.Random(44)
        for length in (1, 2, 3, 4):
            filt = random_filtration(rng, F2, length, max_dim=4)
            totals, turned = [], filt
            for _ in range(length + 1):
                turned = rotate(turned)
                totals.append(sum(sum(x.dims) for x in turned.objects))
            assert rotated_total_dim(filt) == max(totals) == totals[-1]
        assert rotated_total_dim(FilteredObject(F2, (), ())) == 0

    @pytest.mark.parametrize("field, length, total", [(F2, 9, 70680), (QQ, 6, 5694)],
                             ids=["F2", "Q"])
    def test_refused_before_rotating(self, field, length, total, monkeypatch):
        filt = random_filtration(random.Random(0), field, length, max_dim=6)
        assert rotated_total_dim(filt) == total
        monkeypatch.setattr(sdot, "rotate", lambda filt: pytest.fail("rotated"))
        start = time.perf_counter()
        with pytest.raises(ResourceBound, match=str(total)):
            rotation_periodicity_check(filt)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("field, length", [(F2, 8), (QQ, 5)], ids=["F2", "Q"])
    def test_accepted_below_the_cap(self, field, length, monkeypatch):
        """F_2 at length 8 (total 30,938) and Q at length 5 (2,279) pass the
        cap and go on to rotate."""
        filt = random_filtration(random.Random(0), field, length, max_dim=6)

        class Rotated(Exception):
            pass

        def stop(filt):
            raise Rotated

        monkeypatch.setattr(sdot, "rotate", stop)
        with pytest.raises(Rotated):
            rotation_periodicity_check(filt)


class TestCyclicRelations:
    """The relations of the cyclic category that hold on the nose:
    d_n tau = d_0 and s_n tau = tau^2 s_0 on a length-n filtration."""

    @staticmethod
    def filtrations(field):
        rng = random.Random(37)
        return [random_filtration(rng, field, 1 + k % 4, max_dim=3) for k in range(20)]

    @pytest.mark.parametrize("field", [F2, F101, QQ], ids=["F2", "F101", "Q"])
    def test_last_face_of_rotation_is_face_zero(self, field):
        for filt in self.filtrations(field):
            assert face(rotate(filt), filt.length) == face(filt, 0)

    @pytest.mark.parametrize("field", [F2, F101, QQ], ids=["F2", "F101", "Q"])
    def test_last_degeneracy_of_rotation_is_double_rotation_of_first(self, field):
        for filt in self.filtrations(field):
            assert (degeneracy(rotate(filt), filt.length)
                    == rotate(rotate(degeneracy(filt, 0))))


class TestJson:
    def test_filtration_round_trip(self):
        rng = random.Random(33)
        filt = random_filtration(rng, F2, 3)
        again = FilteredObject.from_json(filt.to_json())
        assert fingerprint(again) == fingerprint(filt)
        for a, b in zip(again.objects, filt.objects):
            assert complexes_equal(a, b)


class TestLargePrime:
    def test_rotation_at_the_largest_common_word_size_prime(self):
        """At p = 2^31 - 1 a product of int64 entries overflows; random
        filtrations must still be valid complexes and rotate periodically."""
        field = PrimeField(2**31 - 1)
        for seed in range(5):
            filt = random_filtration(random.Random(seed), field, 3, max_dim=4)
            assert rotation_periodicity_check(filt)["passed"]


class TestRationalsBackend:
    def test_cone_and_rotation_over_q(self):
        rng = random.Random(34)
        filt = random_filtration(rng, QQ, 2, max_dim=3)
        assert rotation_periodicity_check(filt)["passed"]

    def test_length_three_periodicity_over_q(self):
        """Four seeded length-3 filtrations with steps of dimension up to 6:
        cones of iterated cones, checked in exact rationals.  Bound: 15 s in
        all (1.0-1.5 s on a 2-vCPU VM; 75 s, 3.2-33.1 s per seed, when Q
        products and eliminations worked one Fraction at a time)."""
        start = time.perf_counter()
        for seed in range(4):
            filt = random_filtration(random.Random(seed), QQ, 3, max_dim=6)
            report = rotation_periodicity_check(filt)
            assert report["passed"], (seed, report)
        elapsed = time.perf_counter() - start
        assert elapsed < 15, f"four length-3 Q periodicity checks took {elapsed:.1f}s"
