import itertools
import time

import pytest

from paracyclic import preord
from paracyclic.equivalence import induced_on_quotients
from paracyclic.errors import (
    BaseMismatch,
    NotEssentiallySurjective,
    NotMonotone,
    ResourceBound,
)
from paracyclic.paracat import ParaMap, Parasimplex, shift_action
from paracyclic.preord import (
    CONV_CLASS_CAP,
    ConvexRelation,
    ParaPreorder,
    compose_preord,
    enumerate_conv,
    enumerate_preord_maps,
    is_valid_morphism,
    least_relation,
    preorders_up_to,
    pullback_relation,
    quotient_by_relation,
)

from oracles import (
    class_oracle_mismatches,
    oracle_preord_map_values,
    oracle_preord_maps_by_search,
    oracle_related,
)

PAR2 = ParaPreorder((1, 1, 1))
PAR1 = ParaPreorder((1, 1))
PAR0 = ParaPreorder((1,))


def small_preorders(max_period=3):
    out = []
    for total in range(1, max_period + 1):
        for cuts in itertools.product([0, 1], repeat=total - 1):
            sizes, run = [], 1
            for c in cuts:
                if c:
                    sizes.append(run)
                    run = 1
                else:
                    run += 1
            sizes.append(run)
            out.append(ParaPreorder(tuple(sizes)))
    return out


def relation_oracle_mismatches(bases) -> list:
    """Where ``related`` of a relation over one of ``bases``, or the kernel
    of its quotient projection, disagrees with ``oracle_related``, for i in
    period 0 and j over three periods from minus one period."""
    out = []
    for base in bases:
        for rel in enumerate_conv(base):
            _, proj = quotient_by_relation(base, rel)
            for i in range(base.period):
                for j in range(-base.period, 2 * base.period):
                    expected = oracle_related(base.sizes, rel.gaps, i, j)
                    if rel.related(i, j) != expected:
                        out.append((base.sizes, sorted(rel.gaps), "related", i, j))
                    if proj.tgt.equivalent(proj(i), proj(j)) != expected:
                        out.append((base.sizes, sorted(rel.gaps), "projection", i, j))
    return out


class TestParaPreorder:
    def test_class_structure(self):
        base = ParaPreorder((2, 1))
        assert base.period == 3 and base.k == 1
        assert base.leq(0, 1) and base.leq(1, 0)
        assert base.leq(1, 2) and not base.leq(2, 1)
        assert base.leq(2, 3) and not base.leq(3, 2)

    def test_quotient_is_strict(self):
        base = ParaPreorder((2, 1))
        # class positions strictly increase from one class to the next
        assert base.class_position(2) < base.class_position(3)

    def test_json_round_trip(self):
        base = ParaPreorder((2, 1))
        assert ParaPreorder.from_json(base.to_json()) == base

    def test_class_lookups_match_linear_scan_oracle(self):
        bases = preorders_up_to(6)
        assert len(bases) == 63
        assert class_oracle_mismatches(bases) == []


class TestQuotientBySim:
    def test_all_singletons(self):
        quotient, proj = quotient_by_relation(PAR2, least_relation(PAR2))
        assert quotient == Parasimplex(2)
        assert proj.values == (0, 1, 2)

    def test_two_one(self):
        base = ParaPreorder((2, 1))
        quotient, proj = quotient_by_relation(base, least_relation(base))
        assert quotient == Parasimplex(1)
        assert proj.values == (0, 0, 1)

    def test_single_class(self):
        base = ParaPreorder((3,))
        quotient, proj = quotient_by_relation(base, least_relation(base))
        assert quotient == Parasimplex(0)
        assert proj.values == (0, 0, 0)


class TestEnumerateConv:
    def test_par2_has_seven(self):
        assert len(enumerate_conv(PAR2)) == 7

    def test_two_boundaries(self):
        assert len(enumerate_conv(ParaPreorder((2, 1)))) == 3

    def test_point(self):
        poset = enumerate_conv(PAR0)
        assert len(poset) == 1
        assert poset[0] == least_relation(PAR0)
        assert poset[0].gaps == frozenset({0})

    @pytest.mark.parametrize("sizes", [(1,), (2, 1), (1, 1, 1), (2, 2, 1, 1)])
    def test_size_formula(self, sizes):
        base = ParaPreorder(sizes)
        assert len(enumerate_conv(base)) == 2 ** base.num_classes - 1

    def test_bases_beyond_the_class_cap_are_refused(self):
        with pytest.raises(ResourceBound):
            enumerate_conv(ParaPreorder((1,) * (CONV_CLASS_CAP + 1)))

    def test_least_element_below_everything(self):
        poset = enumerate_conv(PAR2)
        assert poset[0] == least_relation(PAR2)
        for rel in poset:
            assert least_relation(PAR2).leq(rel)

    def test_gap_count_matches_quotient(self):
        for rel in enumerate_conv(PAR2):
            quotient, _ = quotient_by_relation(PAR2, rel)
            assert quotient.k + 1 == len(rel.gaps)


class TestQuotientByRelation:
    def test_least_is_class_quotient(self):
        # on a parasimplex the class relation is trivial: the projection is the identity
        assert quotient_by_relation(PAR2, least_relation(PAR2)) == (
            Parasimplex(2), PAR2.identity())

    def test_total_merge(self):
        quotient, proj = quotient_by_relation(PAR2, ConvexRelation(PAR2, frozenset({2})))
        assert quotient == Parasimplex(0)
        assert proj.values == (0, 0, 0)

    def test_partial_merge(self):
        rel = ConvexRelation(PAR2, frozenset({0, 2}))
        quotient, proj = quotient_by_relation(PAR2, rel)
        assert quotient == Parasimplex(1)
        assert proj.values == (0, 1, 1)

    def test_kernel_is_the_relation(self):
        assert relation_oracle_mismatches(small_preorders()) == []

    def test_base_mismatch(self):
        with pytest.raises(BaseMismatch):
            quotient_by_relation(PAR1, least_relation(PAR2))


class TestPullbackRelation:
    def test_identity(self):
        for rel in enumerate_conv(PAR2):
            assert pullback_relation(PAR2.identity(), rel) == rel

    def test_projection_pullback_of_diagonal(self):
        _, proj = quotient_by_relation(PAR2, ConvexRelation(PAR2, frozenset({1, 2})))
        assert proj.tgt == PAR1
        back = pullback_relation(proj, least_relation(PAR1))
        assert back.gaps == frozenset({1, 2})

    def test_never_total(self):
        for src in small_preorders():
            for tgt in small_preorders():
                for r in oracle_preord_maps_by_search(src, tgt):
                    for rel in enumerate_conv(tgt):
                        assert pullback_relation(r, rel).gaps

    def test_functorial_and_monotone(self):
        bases = small_preorders()
        for a, b, c in itertools.product(bases, repeat=3):
            maps_ab = oracle_preord_maps_by_search(a, b)
            maps_bc = oracle_preord_maps_by_search(b, c)
            if not maps_ab or not maps_bc:
                continue
            for f, g in itertools.product(maps_ab[:2], maps_bc[:2]):
                gf = compose_preord(g, f)
                rels = list(enumerate_conv(c))
                for rel in rels:
                    assert pullback_relation(gf, rel) == pullback_relation(
                        f, pullback_relation(g, rel)
                    )
                for r1, r2 in itertools.product(rels, rels):
                    if r1.leq(r2):
                        assert pullback_relation(g, r1).leq(pullback_relation(g, r2))


class TestInducedQuotientMap:
    """The surjection base/fine -> base/coarse, induced by the identity."""

    def test_canonical_surjection(self):
        fine = least_relation(PAR2)
        coarse = ConvexRelation(PAR2, frozenset({0, 2}))
        q = induced_on_quotients(PAR2.identity(), fine, coarse)
        assert q.m == 2 and q.n == 1 and q.shift == 0
        assert q.values == (0, 1, 1)

    def test_compatible_with_projections(self):
        for base in small_preorders():
            rels = list(enumerate_conv(base))
            for fine, coarse in itertools.product(rels, rels):
                if not fine.leq(coarse):
                    continue
                q = induced_on_quotients(base.identity(), fine, coarse)
                _, p_fine = quotient_by_relation(base, fine)
                _, p_coarse = quotient_by_relation(base, coarse)
                for el in range(2 * base.period):
                    assert q(p_fine(el)) == p_coarse(el)


class TestIsValidMorphism:
    def test_identity_valid(self):
        assert is_valid_morphism(PAR1, PAR1, (0, 1)) == PAR1.identity()

    def test_not_essentially_surjective(self):
        with pytest.raises(NotEssentiallySurjective):
            is_valid_morphism(PAR1, PAR1, (0, 0))

    def test_tearing_a_class_apart_is_not_monotone(self):
        # e_0 and e_1 are equivalent in the source, so they cannot map to
        # strictly ordered classes: weak monotonicity fails in one direction
        src = ParaPreorder((2,))
        with pytest.raises(NotMonotone):
            is_valid_morphism(src, PAR1, (0, 1))

    def test_collapse_two_classes_onto_one_period(self):
        src = ParaPreorder((1, 1))
        f = is_valid_morphism(src, ParaPreorder((2,)), (0, 1))
        assert f.values == (0, 1)

    def test_not_monotone(self):
        with pytest.raises(NotMonotone):
            is_valid_morphism(PAR1, PAR1, (1, 0))

    def test_wrap_violation(self):
        with pytest.raises(NotMonotone):
            is_valid_morphism(PAR1, PAR1, (0, 4))

    def test_empty_value_list_is_a_wrong_length(self):
        with pytest.raises(NotMonotone, match="expected 1 values, got 0"):
            is_valid_morphism(PAR0, PAR0, ())


class TestValidationByKind:
    """The two kinds of map against ``oracle_preord_map_values``, which is
    built from the definitions: ``ParaMap`` accepts exactly the
    preorder-preserving shift-equivariant maps, and the morphisms of
    preorders are those of them that are essentially surjective.  The
    enumeration is also compared in order with the search of
    ``oracle_preord_maps_by_search``, and swept to period 5."""

    def test_enumeration_matches_the_oracle(self):
        for src, tgt in itertools.product(preorders_up_to(3), repeat=2):
            found = [r.values for r in enumerate_preord_maps(src, tgt)]
            assert len(set(found)) == len(found)
            assert sorted(found) == oracle_preord_map_values(src.sizes, tgt.sizes), (src, tgt)

    def test_enumeration_matches_the_search_in_order(self):
        """The maps read off the class surjections of ``enumerate_hom``,
        value tuple by value tuple and in order, against the recursive
        search over value prefixes, on all 225 pairs of period <= 4."""
        pairs = list(itertools.product(preorders_up_to(4), repeat=2))
        assert len(pairs) == 225
        for src, tgt in pairs:
            found = [r.values for r in enumerate_preord_maps(src, tgt)]
            expected = [r.values for r in oracle_preord_maps_by_search(src, tgt)]
            assert found == expected, (src, tgt)

    def test_every_pair_of_period_at_most_five(self):
        """All 961 pairs of the 31 preorders of period <= 5: 302,865
        morphisms, distinct within each pair, in under 30 s (about 2 s on a
        2-vCPU VM).  The uncached function keeps the 56 MB of maps out of
        the memo."""
        start = time.perf_counter()
        total = 0
        for src, tgt in itertools.product(preorders_up_to(5), repeat=2):
            values = [r.values for r in enumerate_preord_maps.__wrapped__(src, tgt)]
            assert len(set(values)) == len(values), (src, tgt)
            total += len(values)
        elapsed = time.perf_counter() - start
        assert total == 302865
        assert elapsed < 30, f"period <= 5 took {elapsed:.1f}s"

    @pytest.mark.parametrize("m, n, count", [(12, 7, 10296), (10, 10, 11)])
    def test_surjections_beyond_the_hom_cap_within_their_bound(self, m, n, count):
        """Par(12) -> Par(7) and Par(10) -> Par(10) have 1,007,760 and
        3,879,876 canonical maps, past ``paracat.DEFAULT_HOM_CAP``, but
        only ``count`` surjections, which are read in under 10 s (0.3 s
        and 0.001 s on a 2-vCPU VM)."""
        start = time.perf_counter()
        maps = enumerate_preord_maps.__wrapped__(Parasimplex(m), Parasimplex(n))
        elapsed = time.perf_counter() - start
        assert len(maps) == count
        assert elapsed < 10, f"Par({m}) -> Par({n}) took {elapsed:.1f}s"

    def test_cap_is_checked_before_any_map_is_built(self, monkeypatch):
        """(2, 2) -> (3,) has 162 morphisms; under a cap of 100 the
        enumeration raises without constructing a single ``ParaMap``."""
        built = []
        post_init = ParaMap.__post_init__

        def counted(self):
            built.append(self.values)
            post_init(self)

        monkeypatch.setattr(preord, "PREORD_MAP_CAP", 100)
        monkeypatch.setattr(ParaMap, "__post_init__", counted)
        with pytest.raises(ResourceBound):
            enumerate_preord_maps.__wrapped__(ParaPreorder((2, 2)), ParaPreorder((3,)))
        assert built == []
        monkeypatch.undo()
        assert len(enumerate_preord_maps.__wrapped__(ParaPreorder((2, 2)), ParaPreorder((3,)))) == 162

    def test_para_map_accepts_exactly_the_monotone_maps(self):
        for src, tgt in itertools.product(preorders_up_to(3), repeat=2):
            accepted = []
            for values in itertools.product(range(-tgt.period, 3 * tgt.period),
                                            repeat=src.period):
                try:
                    accepted.append(ParaMap(src, tgt, values).values)
                except NotMonotone:
                    pass
            expected = oracle_preord_map_values(src.sizes, tgt.sizes, onto=False)
            assert accepted == expected, (src, tgt)


class TestComposePreord:
    def test_identity_neutral(self):
        for f in oracle_preord_maps_by_search(ParaPreorder((2, 1)), PAR1):
            assert compose_preord(PAR1.identity(), f) == f

    def test_shift_composition(self):
        two = compose_preord(PAR1.shift_map(), PAR1.shift_map())
        assert two.canonical() == PAR1.identity() and two.shift == 2

    def test_pointwise(self):
        """g o f agrees with g after f on three periods of the source, for
        every composable pair of maps between the small preorders, each
        factor with offsets -1, 0 and 2."""
        objs = small_preorders()
        maps = {(a, b): oracle_preord_maps_by_search(a, b) for a, b in itertools.product(objs, repeat=2)}
        for a, b, c in itertools.product(objs, repeat=3):
            for f, g in itertools.product(maps[(a, b)], maps[(b, c)]):
                for kf, kg in itertools.product((-1, 0, 2), repeat=2):
                    fk, gk = shift_action(f, kf), shift_action(g, kg)
                    gf = compose_preord(gk, fk)
                    for el in range(-a.period, 2 * a.period):
                        assert gf(el) == gk(fk(el))


class TestCrossModuleConsistency:
    @pytest.mark.parametrize("m", range(4))
    @pytest.mark.parametrize("n", range(4))
    def test_parasimplex_morphisms_are_the_surjections(self, m, n):
        # essential surjectivity between parasimplices is plain surjectivity,
        # and every class is one element: the preorder maps are the
        # surjections of enumerate_hom, one for one
        from paracyclic.paracat import enumerate_hom
        from paracyclic.preord import enumerate_preord_maps

        preord_homs = {
            r.values
            for r in enumerate_preord_maps(
                ParaPreorder.from_parasimplex(m), ParaPreorder.from_parasimplex(n)
            )
        }
        surjections = {c.values for c in enumerate_hom(m, n, "surj")}
        assert preord_homs == surjections
