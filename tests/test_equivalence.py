import dataclasses
import itertools
import json
import random
import subprocess
import sys

import pytest

from paracyclic import equivalence, selftest
from paracyclic._linalg import PrimeField, QQ
from paracyclic.consheaf import StratSheaf, gap_key, stalk, pullback_sheaf, validate_sheaf
from paracyclic.equivalence import (
    ParaRep,
    SheafSystem,
    build_conv_tilde,
    cell_rep,
    character_rep,
    check_localization_adjunction,
    conjugate_rep,
    constant_rep,
    direct_sum,
    induced_on_quotients,
    random_rep,
    realize_sheaf,
    realization_plan,
    realize_system,
    recover_rep,
    rep_mismatches,
    validate_rep,
    validate_system,
)
from paracyclic.errors import BaseMismatch, IncompleteSystem, TruncationExceeded
from paracyclic.paracat import ParaMap, Parasimplex, compose, enumerate_hom, shift_action
from paracyclic.preord import (
    ConvexRelation,
    ParaPreorder,
    enumerate_conv,
    enumerate_preord_maps,
    least_relation,
    preorders_up_to,
    pullback_relation,
)

from oracles import (
    comparison_iso,
    oracle_composition_violations,
    oracle_missing_marked_composites,
    oracle_related,
)

F101 = PrimeField(101)


def reps_equal(a: ParaRep, b: ParaRep) -> bool:
    if (a.N, a.dims) != (b.N, b.dims):
        return False
    for key, table in a.gen.items():
        for values, mat in table.items():
            if not a.field.equal(mat, b.gen[key][values]):
                return False
    return all(a.field.equal(s, t) for s, t in zip(a.shifts, b.shifts))


class TestValidateRep:
    def test_zero_rep_valid(self):
        rep = constant_rep(0, F101, 2)
        assert validate_rep(rep)["passed"]

    def test_constant_rep_valid(self):
        rep = constant_rep(1, F101, 3)
        assert validate_rep(rep)["passed"]

    def test_structured_reps_valid(self):
        for n in range(3):
            assert validate_rep(cell_rep(n, 7, F101, 3))["passed"]
        assert validate_rep(character_rep(5, F101, 3))["passed"]
        assert validate_rep(character_rep(5, QQ, 2))["passed"]

    def test_random_matrices_usually_invalid(self):
        rng = random.Random(0)
        rep = constant_rep(2, F101, 2)
        gen = {key: dict(table) for key, table in rep.gen.items()}
        victim = enumerate_hom(2, 1, "surj")[0]
        gen[(2, 1)][victim.values] = F101.random_matrix(rng, 2, 2)
        broken = ParaRep(2, F101, rep.dims, gen, rep.shifts)
        report = validate_rep(broken)
        assert not report["passed"]
        assert any(v[0] == "composition" for v in report["violations"])

    def test_random_reps_valid(self):
        rng = random.Random(1)
        for _ in range(6):
            assert validate_rep(random_rep(rng, F101, 2))["passed"]
            assert validate_rep(random_rep(rng, F101, 2, cyclic=True))["passed"]

    def test_bad_shape_is_reported_not_raised(self):
        rep = cell_rep(1, 3, F101, 2)
        gen = {key: dict(table) for key, table in rep.gen.items()}
        victim = enumerate_hom(2, 1, "surj")[0].values
        gen[(2, 1)][victim] = F101.identity(5)
        report = validate_rep(ParaRep(2, F101, rep.dims, gen, rep.shifts))
        assert report["violations"] == [("bad-shape", (2, 1), victim)]

    def test_bad_shift_shape_is_reported_not_raised(self):
        rep = cell_rep(1, 3, F101, 2)
        shifts = (rep.shifts[0], F101.identity(rep.dims[1] + 1), rep.shifts[2])
        report = validate_rep(ParaRep(2, F101, rep.dims, rep.gen, shifts))
        assert report["violations"] == [("bad-shape", "shift", 1)]

    def test_missing_map_is_reported_not_raised(self):
        rep = cell_rep(1, 3, F101, 2)
        gen = {key: dict(table) for key, table in rep.gen.items()}
        victim = enumerate_hom(2, 1, "surj")[1].values
        del gen[(2, 1)][victim]
        report = validate_rep(ParaRep(2, F101, rep.dims, gen, rep.shifts))
        assert report["violations"] == [("missing-map", (2, 1), victim)]

    def test_missing_identity_is_reported_once(self):
        rep = cell_rep(1, 3, F101, 2)
        gen = {key: dict(table) for key, table in rep.gen.items()}
        del gen[(1, 1)][Parasimplex(1).identity().values]
        report = validate_rep(ParaRep(2, F101, rep.dims, gen, rep.shifts))
        assert report["violations"] == [("missing-identity", 1)]

    def test_missing_shift_is_reported_not_raised(self):
        rep = cell_rep(1, 3, F101, 2)
        report = validate_rep(ParaRep(2, F101, rep.dims, rep.gen, rep.shifts[:2]))
        assert report["violations"] == [("missing-shift", 2)]

    def test_map_beyond_the_truncation_is_reported_not_raised(self):
        rep = cell_rep(1, 3, F101, 2)
        gen = {key: dict(table) for key, table in rep.gen.items()}
        gen[(3, 1)] = {(0, 0, 1, 1): F101.zeros(rep.dims[1], 1)}
        report = validate_rep(ParaRep(2, F101, rep.dims, gen, rep.shifts))
        assert report["violations"] == [("outside-truncation", (3, 1))]

    @pytest.mark.parametrize("field,N", [(F101, 3), (QQ, 2)])
    def test_composition_violations_match_the_per_pair_oracle(self, field, N):
        """Seeded valid reps, and the same reps with one matrix, one shift
        or one whole hom-set replaced by random matrices."""
        rng = random.Random(17)
        corrupted = 0
        for trial in range(8):
            rep = random_rep(rng, field, N, cyclic=trial % 2 == 1)
            gen = {key: dict(table) for key, table in rep.gen.items()}
            shifts = list(rep.shifts)
            m = rng.randrange(1, N + 1)
            n = rng.randrange(m)
            if trial % 4 == 1:
                victim = rng.choice(enumerate_hom(m, n, "surj")).values
                gen[(m, n)][victim] = field.random_matrix(rng, rep.dims[n], rep.dims[m])
            elif trial % 4 == 2:
                shifts[n] = field.random_invertible(rng, rep.dims[n])
            elif trial % 4 == 3:
                for values in gen[(m, n)]:
                    gen[(m, n)][values] = field.random_matrix(rng, rep.dims[n], rep.dims[m])
            broken = ParaRep(N, field, rep.dims, gen, tuple(shifts))
            violations = validate_rep(broken)["violations"]
            expected = oracle_composition_violations(broken)
            assert [v for v in violations if v[0] == "composition"] == expected
            corrupted += bool(expected)
        assert corrupted >= 4


class TestRealizeSheaf:
    def test_constant_rep_realizes_constant_sheaf(self):
        rep = constant_rep(2, F101, 2)
        sheaf = realize_sheaf(rep, ParaPreorder((1, 1, 1)))
        assert set(sheaf.dims.values()) == {2}
        for mat in sheaf.maps.values():
            assert F101.equal(mat, F101.identity(2))

    def test_stalk_at_least_stratum(self):
        rng = random.Random(3)
        rep = random_rep(rng, F101, 3)
        for sizes in [(1, 1), (2, 1), (1, 1, 1), (1, 2, 1)]:
            base = ParaPreorder(sizes)
            sheaf = realize_sheaf(rep, base)
            assert stalk(sheaf, least_relation(base)).dim == rep.dims[base.k]

    def test_stalks_match_quotient_label(self):
        rng = random.Random(4)
        rep = random_rep(rng, F101, 3)
        base = ParaPreorder((2, 1, 1))
        sheaf = realize_sheaf(rep, base)
        for rel in enumerate_conv(base):
            assert stalk(sheaf, rel).dim == rep.dims[len(rel.gaps) - 1]

    @pytest.mark.parametrize("field", [F101, QQ])
    def test_edge_maps_match_the_induced_quotients(self, field):
        """Every covering edge of every base of period <= 4 against the
        representation applied to the induced quotient map, computed here."""
        rep = random_rep(random.Random(12), field, 3)
        for base in preorders_up_to(4):
            sheaf = realize_sheaf(rep, base)
            for fine, coarse in itertools.product(enumerate_conv(base), repeat=2):
                if len(coarse.gaps) + 1 != len(fine.gaps) or not coarse.gaps <= fine.gaps:
                    continue
                expected = rep.evaluate(induced_on_quotients(base.identity(), fine, coarse))
                assert field.equal(sheaf.maps[(gap_key(fine), gap_key(coarse))], expected)

    def test_output_is_validated(self):
        rng = random.Random(5)
        rep = random_rep(rng, F101, 2)
        sheaf = realize_sheaf(rep, ParaPreorder((1, 1, 1)))
        validate_sheaf(sheaf.base, sheaf.field, sheaf.dims, sheaf.maps)

    def test_truncation_enforced(self):
        rep = constant_rep(1, F101, 1)
        with pytest.raises(TruncationExceeded):
            realize_sheaf(rep, ParaPreorder((1, 1, 1)))


class TestSystemAndRoundTrip:
    def test_realized_system_validates(self):
        rng = random.Random(6)
        rep = random_rep(rng, F101, 2)
        system = realize_system(rep)
        report = validate_system(system)
        assert report["passed"], report["violations"][:3]

    def test_realized_system_validates_at_N3(self):
        rep = random_rep(random.Random(13), F101, 3)
        report = validate_system(realize_system(rep))
        assert report["passed"], report["violations"][:3]

    @pytest.mark.parametrize("field", [F101, QQ])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_numbered_comparisons_match_comparison_iso(self, field, N):
        """The morphisms listed here, and at each of their strata the
        comparison computed afresh by ``comparison_iso``."""
        rep = random_rep(random.Random(14 + N), field, N)
        system = realize_system(rep)
        bases = [Parasimplex(n) for n in range(N + 1)]
        morphisms = {base.shift_map() for base in bases}
        for m, n in itertools.product(range(N + 1), repeat=2):
            for c in enumerate_hom(m, n, "surj"):
                morphisms |= {c.rep, shift_action(c.rep, 1)}
        assert set(system.comparisons) == morphisms
        for r in morphisms:
            assert set(system.comparisons[r]) == {gap_key(rel) for rel in enumerate_conv(r.tgt)}
            for rel in enumerate_conv(r.tgt):
                assert field.equal(system.comparison(r, rel), comparison_iso(rep, r, rel))

    def test_nothing_is_planned_at_import(self):
        script = (
            "import paracyclic\n"
            "from paracyclic import equivalence\n"
            "print(equivalence.realization_plan.cache_info().currsize,\n"
            "      equivalence.covering_quotients.cache_info().currsize)\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.split() == ["0", "0"]

    def test_comparison_off_the_target_is_refused(self):
        """A relation over Par(2) asked of a morphism into Par(1): its gap
        key (0, 1) is a key of the morphism too, so a lookup by key alone
        would read the comparison of another relation."""
        system = realize_system(random_rep(random.Random(15), F101, 2))
        r = Parasimplex(1).shift_map()
        rel = ConvexRelation(Parasimplex(2), frozenset({0, 1}))
        assert gap_key(rel) in system.comparisons[r]
        with pytest.raises(BaseMismatch):
            system.comparison(r, rel)

    def test_missing_comparison_is_incomplete(self):
        system = realize_system(random_rep(random.Random(16), F101, 2))
        r = Parasimplex(2).shift_map()
        least = least_relation(r.tgt)
        comparisons = {s: dict(table) for s, table in system.comparisons.items()}
        del comparisons[r][gap_key(least)]
        broken = SheafSystem(system.field, system.sheaves, comparisons)
        with pytest.raises(IncompleteSystem):
            broken.comparison(r, least)
        with pytest.raises(IncompleteSystem):
            recover_rep(broken, 2)

    def test_map_without_a_matrix_is_incomplete(self):
        """``evaluate`` on a map that is no surjection, and the realization
        of a rep with one generator deleted, raise IncompleteSystem naming
        the hom-set and the values."""
        rep = random_rep(random.Random(0), F101, 2)
        with pytest.raises(IncompleteSystem, match=r"0->1 with values \(0,\)"):
            rep.evaluate(ParaMap(Parasimplex(0), Parasimplex(1), (0,)))
        gen = {key: table for key, table in rep.gen.items() if key != (0, 0)}
        with pytest.raises(IncompleteSystem, match=r"0->0 with values \(0,\)"):
            realize_system(dataclasses.replace(rep, gen=gen))

    def test_criterion_7_reports_a_trial_that_raises(self, monkeypatch):
        """Reps drawn without their Par(0) -> Par(0) generator: each trial
        raises IncompleteSystem, reported as the failure (kind, trial,
        message)."""
        draw = selftest.random_rep

        def mutant(rng, field, N, cyclic=False):
            rep = draw(rng, field, N, cyclic=cyclic)
            return dataclasses.replace(
                rep, gen={key: table for key, table in rep.gen.items() if key != (0, 0)})

        monkeypatch.setattr(selftest, "random_rep", mutant)
        report = selftest.criterion_7(0)
        assert not report["passed"]
        assert report["details"]["failures"][:2] == [
            ("para", trial, "no matrix for the map 0->0 with values (0,)") for trial in (0, 1)]

    def test_comparisons_are_read_only(self):
        """At N = 2 the comparisons share matrices with one another and with
        the rep's ``gen``: an in-place write to any of them raises and
        changes neither the system nor the rep."""
        rep = random_rep(random.Random(0), F101, 2)
        gen = {key: {values: mat.copy() for values, mat in table.items()}
               for key, table in rep.gen.items()}
        system = realize_system(rep)
        mats = [mat for table in system.comparisons.values() for mat in table.values()]
        assert len({id(mat.base) for mat in mats}) < len(mats)
        for mat in mats:
            with pytest.raises(ValueError):
                mat += 1
        assert all(F101.equal(mat, gen[key][values])
                   for key, table in rep.gen.items() for values, mat in table.items())
        assert all(mat.flags.writeable for table in rep.gen.values() for mat in table.values())
        assert validate_system(system)["passed"]

    def test_cocycle_violations_match_the_all_pairs_scan(self):
        """A system with one comparison doubled: the cocycle violations, in
        order, as a scan over every ordered pair of morphisms finds them."""
        system = realize_system(random_rep(random.Random(17), F101, 2))
        victim = next(r for r in system.comparisons if r.src.k == 2 and r.tgt.k == 1)
        comparisons = {r: dict(table) for r, table in system.comparisons.items()}
        for key, mat in comparisons[victim].items():
            comparisons[victim][key] = (2 * mat) % 101
        broken = SheafSystem(system.field, system.sheaves, comparisons)
        expected = []
        for r2, r in itertools.product(comparisons, repeat=2):
            if r2.tgt != r.src or compose(r, r2) not in comparisons:
                continue
            for rel in enumerate_conv(r.tgt):
                rhs = F101.matmul(broken.comparison(r, rel),
                                  broken.comparison(r2, pullback_relation(r, rel)))
                if not F101.equal(broken.comparison(compose(r, r2), rel), rhs):
                    expected.append(("cocycle", r2, r, gap_key(rel)))
        violations = validate_system(broken)["violations"]
        assert expected
        assert [v for v in violations if v[0] == "cocycle"] == expected

    def test_criterion_7_cold_within_two_seconds(self):
        """Criterion 7 from a fresh interpreter, the realization plan and
        every check included, in under 2 s (about 0.2 s on a 2-vCPU VM);
        the import is not timed."""
        script = (
            "import time\n"
            "from paracyclic import selftest\n"
            "start = time.perf_counter()\n"
            "assert selftest.CRITERIA[7](0)['passed']\n"
            "print(time.perf_counter() - start)\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, check=True, timeout=120)
        assert float(out.stdout) < 2.0

    def test_round_trip_small(self):
        rng = random.Random(7)
        for _ in range(3):
            rep = random_rep(rng, F101, 2)
            recovered = recover_rep(realize_system(rep), 2)
            assert reps_equal(rep, recovered)

    def test_structure_maps_are_read_once_per_level_and_kernel(self, monkeypatch):
        """At N = 3 the 49 canonical surjections have 26 distinct (source
        level, kernel) pairs: ``recover_rep`` reads each structure map once
        and still recovers the rep exactly."""
        rep = random_rep(random.Random(7), F101, 3)
        system = realize_system(rep)
        pairs = {(m, kernel) for (m, _), surjections in realization_plan(3).kernels.items()
                 for _, _, kernel in surjections}
        calls = []
        edge_map = StratSheaf.edge_map
        monkeypatch.setattr(StratSheaf, "edge_map", lambda sheaf, fine, coarse: (
            calls.append((fine, coarse)) or edge_map(sheaf, fine, coarse)))
        recovered = recover_rep(system, 3)
        assert (len(calls), len(pairs)) == (26, 26)
        assert rep_mismatches(rep, recovered) == []

    def test_round_trip_cyclic(self):
        rng = random.Random(8)
        rep = random_rep(rng, F101, 2, cyclic=True)
        recovered = recover_rep(realize_system(rep), 2)
        assert recovered.is_cyclic
        assert reps_equal(rep, recovered)
        assert all(F101.equal(t, F101.identity(t.shape[0])) for t in recovered.shifts)

    def test_round_trip_rationals(self):
        rng = random.Random(9)
        rep = random_rep(rng, QQ, 2)
        recovered = recover_rep(realize_system(rep), 2)
        assert reps_equal(rep, recovered)

    def test_constant_system_recovers_constant(self):
        rep = constant_rep(3, F101, 2)
        recovered = recover_rep(realize_system(rep), 2)
        assert reps_equal(rep, recovered)

    def test_perturbed_comparison_detected(self):
        rng = random.Random(10)
        rep = random_rep(rng, F101, 2)
        system = realize_system(rep)
        victim = next(
            r for r in system.comparisons
            if r.src.k == 2 and r.tgt.k == 1 and r.shift == 0
        )
        comparisons = {r: dict(table) for r, table in system.comparisons.items()}
        target = gap_key(least_relation(victim.tgt))
        comparisons[victim][target] = (2 * comparisons[victim][target]) % 101
        broken = SheafSystem(system.field, system.sheaves, comparisons)
        recovered = recover_rep(broken, 2)
        report = validate_rep(recovered)
        assert not report["passed"]
        named = [v for v in report["violations"] if v[0] == "composition"]
        assert named, report["violations"]
        kinds = {v[0] for v in validate_system(broken)["violations"]}
        assert {"comparison-square", "cocycle"} <= kinds, kinds

    def test_pullback_of_realized_agrees_via_comparisons(self):
        rng = random.Random(11)
        rep = random_rep(rng, F101, 2)
        src = ParaPreorder((1, 1, 1))
        tgt = ParaPreorder((1, 1))
        sheaf_src = realize_sheaf(rep, src)
        sheaf_tgt = realize_sheaf(rep, tgt)
        for r in enumerate_preord_maps(src, tgt)[:4]:
            pulled = pullback_sheaf(r, sheaf_src)
            for rel in enumerate_conv(tgt):
                phi = comparison_iso(rep, r, rel)
                key = gap_key(rel)
                assert pulled.dims[key] == phi.shape[1]
                assert sheaf_tgt.dims[key] == phi.shape[0]
            # comparison isos intertwine the structure maps
            for (src_key, dst_key) in sheaf_tgt.maps:
                rel_s = ConvexRelation(tgt, frozenset(src_key))
                rel_d = ConvexRelation(tgt, frozenset(dst_key))
                lhs = F101.matmul(comparison_iso(rep, r, rel_d),
                                  pulled.maps[(src_key, dst_key)])
                rhs = F101.matmul(sheaf_tgt.maps[(src_key, dst_key)],
                                  comparison_iso(rep, r, rel_s))
                assert F101.equal(lhs, rhs)


class TestConvTilde:
    def test_objects_over_par1(self):
        tilde = build_conv_tilde(2)
        par1_objects = [gap_key(o) for o in tilde.objects if o.base.sizes == (1, 1)]
        assert (0, 1) in par1_objects
        assert (0,) in par1_objects and (1,) in par1_objects

    def test_unit_edges_are_cartesian(self):
        # the projection (I, E) -> (I/E, least) has isomorphic quotients
        from paracyclic.preord import quotient_by_relation

        tilde = build_conv_tilde(2)
        point = least_relation(ParaPreorder((1,)))
        for gaps in [(0,), (1,)]:
            base = ParaPreorder((1, 1))
            rel = ConvexRelation(base, frozenset(gaps))
            _, proj = quotient_by_relation(base, rel)
            units = [
                e for e in tilde.edges
                if e.src == rel and e.tgt == point and e.map == proj
            ]
            assert len(units) == 1 and units[0].cartesian

    def test_edge_count_against_raw_oracle(self):
        # independent path: raw value tuples filtered by direct definitions
        tilde = build_conv_tilde(2)
        counted = {}
        for e in tilde.edges:
            counted[(e.src, e.tgt)] = counted.get((e.src, e.tgt), 0) + 1
        for (rel_s, rel_t), count in counted.items():
            src, tgt = rel_s.base, rel_t.base
            oracle = 0
            for values in itertools.product(range(2 * tgt.period), repeat=src.period):
                if not 0 <= values[0] < tgt.period:
                    continue
                ok = all(
                    tgt.class_position(values[a]) <= tgt.class_position(values[a + 1])
                    and (src.class_position(a) != src.class_position(a + 1)
                         or tgt.class_position(values[a]) == tgt.class_position(values[a + 1]))
                    for a in range(src.period - 1)
                )
                ok = ok and tgt.class_position(values[-1]) <= tgt.class_position(
                    values[0] + tgt.period
                )
                ok = ok and {tgt.class_position(v) % tgt.num_classes for v in values} == set(
                    range(tgt.num_classes)
                )
                if not ok:
                    continue
                everything = list(values) + [values[0] + tgt.period]
                respects = all(
                    not oracle_related(src.sizes, rel_s.gaps, a, a + 1)
                    or oracle_related(tgt.sizes, rel_t.gaps, everything[a], everything[a + 1])
                    for a in range(src.period)
                )
                if respects:
                    oracle += 1
            assert count == oracle, (rel_s, rel_t)


    @pytest.mark.parametrize("N, objects, edges", [(1, 1, 1), (2, 5, 38), (3, 19, 1499)])
    def test_pinned_sizes(self, N, objects, edges):
        tilde = build_conv_tilde(N)
        assert (len(tilde.objects), len(tilde.edges)) == (objects, edges)


class TestAdjunction:
    @pytest.mark.parametrize("variant", ["para", "cyc"])
    @pytest.mark.parametrize("N", [1, 2])
    def test_adjunction_passes(self, N, variant):
        report = check_localization_adjunction(N, variant)
        assert report["passed"], report["failures"][:5]

    def test_triangle_at_merged_pair(self):
        report = check_localization_adjunction(3, "para")
        assert report["passed"], report["failures"][:5]

    @pytest.mark.parametrize("variant", ["para", "cyc"])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_reports_are_pinned(self, N, variant):
        """The whole report, as each variant's separate pass gave it before
        the cyclic verdict was read off the paracyclic pass."""
        objects, edges = {1: (1, 1), 2: (5, 38), 3: (19, 1499)}[N]
        assert check_localization_adjunction(N, variant) == {
            "passed": True, "variant": variant, "N": N,
            "objects": objects, "edges": edges, "failures": []}

    @pytest.mark.parametrize("N, variant", [(2, "bogus"), (2, "Para"), (0, "para"), (-1, "cyc")])
    def test_unknown_variant_and_empty_truncation_are_refused(self, N, variant):
        with pytest.raises(ValueError):
            check_localization_adjunction(N, variant)

    def test_cyclic_verdict_drops_only_the_shift_clause(self, monkeypatch):
        """Under the shifted quotient without its shift (the committed
        mutant), every paracyclic entry of criterion 6 reports
        shift-equivariance, and every derived cyclic entry passes."""
        induced = equivalence.induced_on_quotients
        monkeypatch.setattr(equivalence, "induced_on_quotients",
                            lambda r, rel_src, rel_tgt: induced(r.canonical(), rel_src, rel_tgt))
        details = selftest.criterion_6(0)["details"]
        for N in (1, 2, 3):
            kinds = {failure[0] for failure in details[f"para-{N}"]["failures"]}
            assert kinds == {"shift-equivariance"}
            assert details[f"cyc-{N}"] == {**details[f"para-{N}"], "passed": True,
                                           "failures": []}

    def test_adjunction_at_N4_within_its_bound(self):
        """The adjunction at N = 4, 65 objects and 63,096 edges, in a
        fresh interpreter with the edge cap raised there alone, build
        included, in under 60 s (about 5 s and 90 MB on a 2-vCPU VM).  The
        peak RSS stays under 300 MB because the composites are gathered
        in chunks of ``equivalence.COMPOSITE_CHUNK`` pairs."""
        script = (
            "import json, resource, time\n"
            "from paracyclic import equivalence\n"
            "equivalence.CONV_TILDE_EDGE_CAP = 10**5\n"
            "start = time.perf_counter()\n"
            "report = equivalence.check_localization_adjunction(4, 'para')\n"
            "elapsed = time.perf_counter() - start\n"
            "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
            "print(json.dumps([report['passed'], report['objects'], report['edges'],\n"
            "                  report['failures'][:3], elapsed, peak]))\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, check=True, timeout=300)
        passed, objects, edges, failures, elapsed, peak_mb = json.loads(out.stdout)
        assert passed, failures
        assert (objects, edges) == (65, 63096)
        assert elapsed < 60
        assert peak_mb < 300
        assert equivalence.CONV_TILDE_EDGE_CAP == 20000

    def test_criterion_6_cold_within_two_seconds(self):
        """Criterion 6 from a fresh interpreter, the conv-tilde builds
        included, in under 2 s (about 0.3 s on a 2-vCPU VM); the import is
        not timed."""
        script = (
            "import time\n"
            "from paracyclic import selftest\n"
            "start = time.perf_counter()\n"
            "assert selftest.CRITERIA[6](0)['passed']\n"
            "print(time.perf_counter() - start)\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, check=True, timeout=120)
        assert float(out.stdout) < 2.0


def unmarked(tilde, count):
    """A copy of ``tilde`` with ``count`` seeded Cartesian edges unmarked."""
    cartesian = [i for i, e in enumerate(tilde.edges) if e.cartesian]
    chosen = set(random.Random(count).sample(cartesian, count))
    return dataclasses.replace(tilde, edges=tuple(
        dataclasses.replace(e, cartesian=False) if i in chosen else e
        for i, e in enumerate(tilde.edges)))


class TestEdgeNumbering:
    def test_codes_are_distinct_and_flag_every_edge(self):
        tilde = build_conv_tilde(3)
        num = tilde.numbering
        assert len(set(num.codes.tolist())) == len(tilde.edges) == 1499
        assert num.codes.min() >= 0
        assert num.cartesian.tolist() == [e.cartesian for e in tilde.edges]

    def test_codes_lead_with_the_ends(self):
        tilde = build_conv_tilde(3)
        num = tilde.numbering
        ends = [num.object_id[e.src] * 19 + num.object_id[e.tgt] for e in tilde.edges]
        assert (num.codes // 6**3).tolist() == ends


class TestMarkedComposites:
    # N = 1 has one edge, the identity of its one object
    @pytest.mark.parametrize("N, count", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 3),
                                          (3, 0), (3, 1), (3, 3)])
    def test_gather_matches_the_scalar_loop(self, N, count):
        copy = unmarked(build_conv_tilde(N), count)
        expected = oracle_missing_marked_composites(copy)
        assert equivalence._missing_marked_composites(copy) == expected
        assert bool(expected) == (count > 0 and N > 1)

    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_chunking_leaves_the_failures_alone(self, monkeypatch, chunk):
        copy = unmarked(build_conv_tilde(3), 3)
        expected = oracle_missing_marked_composites(copy)
        monkeypatch.setattr(equivalence, "COMPOSITE_CHUNK", chunk)
        assert equivalence._missing_marked_composites(copy) == expected

    def test_numbering_is_built_once_per_memoized_tilde(self):
        tilde = build_conv_tilde(3)
        assert tilde.numbering is build_conv_tilde(3).numbering
        assert len(tilde.numbering.src) == sum(e.cartesian for e in tilde.edges)
        assert build_conv_tilde(0).numbering.values.shape == (0, 0)

    @pytest.mark.parametrize("N", [2, 3])
    def test_cyclic_report_of_unmarked_copies(self, monkeypatch, N):
        """With Cartesian edges unmarked both variants fail alike: the
        cyclic report is the paracyclic one, relabelled."""
        monkeypatch.setattr(equivalence, "build_conv_tilde",
                            lambda n: unmarked(build_conv_tilde(n), 3))
        para = check_localization_adjunction(N, "para")
        assert not para["passed"]
        assert check_localization_adjunction(N, "cyc") == {**para, "variant": "cyc"}
