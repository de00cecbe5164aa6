import itertools
from fractions import Fraction

import pytest

from paracyclic.corner import (
    CornerPoint,
    FiberPoint,
    alpha_eval,
    distance,
    fiber_invariants,
    fixed_point,
    pullback_point,
    section_point,
    stratum_of,
    validate_point,
    witness_point,
)
from paracyclic.errors import (
    BaseMismatch,
    InfiniteGapInsideClass,
    MalformedInput,
    NoInfinityGap,
    NotAnArrow,
    UndefinedAtFixedDiagonal,
)
from paracyclic.extreal import ExtReal, NEG_INF, POS_INF, ZERO
from paracyclic.preord import (
    ParaPreorder,
    compose_preord,
    enumerate_conv,
    pullback_relation,
)

from oracles import oracle_preord_maps_by_search
from test_preord import small_preorders

PAR1 = ParaPreorder((1, 1))
PAR2 = ParaPreorder((1, 1, 1))


def pt(sizes, gaps):
    return validate_point(ParaPreorder(sizes), gaps)


class TestValidatePoint:
    def test_valid_mixed(self):
        point = pt((1, 1), ["3/1", "inf"])
        assert point.gaps == (ExtReal(3), POS_INF)

    def test_corner_stratum(self):
        assert pt((1, 1), ["inf", "inf"]).gaps == (POS_INF, POS_INF)

    def test_no_infinity_gap(self):
        with pytest.raises(NoInfinityGap):
            pt((1, 1), ["2/1", "5/1"])

    def test_infinite_gap_inside_class(self):
        with pytest.raises(InfiniteGapInsideClass):
            pt((2, 1), ["inf", "1/1", "inf"])

    def test_negative_gaps_allowed(self):
        point = pt((1, 1), ["-7/2", "inf"])
        assert point.gaps[0] == ExtReal(Fraction(-7, 2))

    def test_json_round_trip(self):
        point = pt((2, 1), ["1/2", "3/1", "inf"])
        assert CornerPoint.from_json(point.to_json()) == point


class TestAlphaEval:
    def test_single_gap(self):
        point = pt((1, 1), ["3/1", "inf"])
        assert alpha_eval(point, (0, 0), (0, 1)) == ExtReal(3)

    def test_full_period_is_infinite(self):
        point = pt((1, 1), ["3/1", "inf"])
        assert alpha_eval(point, (0, 0), (1, 0)) == POS_INF

    def test_shift_equivariance(self):
        point = pt((1, 1), ["3/1", "inf"])
        assert alpha_eval(point, (1, 0), (1, 1)) == ExtReal(3)
        assert alpha_eval(point, (-2, 0), (-2, 1)) == ExtReal(3)

    def test_reflexive_zero(self):
        point = pt((2, 1), ["1/1", "2/1", "inf"])
        assert alpha_eval(point, (0, 1), (0, 1)) == ZERO

    def test_within_class_reverse_order(self):
        point = pt((2, 1), ["5/1", "2/1", "inf"])
        assert alpha_eval(point, (0, 0), (0, 1)) == ExtReal(5)
        assert alpha_eval(point, (0, 1), (0, 0)) == ExtReal(-5)

    def test_not_an_arrow(self):
        point = pt((1, 1), ["3/1", "inf"])
        with pytest.raises(NotAnArrow):
            alpha_eval(point, (0, 1), (0, 0))

    @pytest.mark.parametrize("slot", [-1, 2, 5])
    def test_slots_outside_the_period_are_refused(self, slot):
        point = pt((1, 1), ["3/1", "inf"])
        with pytest.raises(MalformedInput):
            alpha_eval(point, (0, 0), (0, slot))
        with pytest.raises(MalformedInput):
            alpha_eval(point, (0, slot), (1, 1))

    def test_cocycle_identity(self):
        point = pt((2, 1), ["1/2", "3/1", "inf"])
        for i, j, k in itertools.combinations(range(-2, 6), 3):
            base = point.base
            if not (base.leq(i, j) and base.leq(j, k)):
                continue
            lhs = alpha_eval(point, i, j) + alpha_eval(point, j, k)
            assert lhs == alpha_eval(point, i, k)


class TestStratum:
    def test_single_merge(self):
        point = pt((1, 1), ["3/1", "inf"])
        assert stratum_of(point).gaps == frozenset({1})

    def test_diagonal(self):
        point = pt((1, 1), ["inf", "inf"])
        assert stratum_of(point).gaps == frozenset({0, 1})

    def test_every_stratum_has_a_witness(self):
        for base in small_preorders():
            for rel in enumerate_conv(base):
                assert stratum_of(witness_point(rel)) == rel

    def test_stratum_lands_in_conv(self):
        for base in small_preorders():
            members = set(enumerate_conv(base))
            for rel in enumerate_conv(base):
                assert stratum_of(witness_point(rel)) in members


class TestPullbackPoint:
    def test_identity(self):
        point = pt((1, 1), ["3/1", "inf"])
        assert pullback_point(point.base.identity(), point) == point

    def test_merge_map_pullback_gaps(self):
        point = pt((1, 1), ["3/1", "inf"])
        maps = [
            r for r in oracle_preord_maps_by_search(PAR2, PAR1)
            if r.values == (0, 0, 1)
        ]
        assert len(maps) == 1
        pulled = pullback_point(maps[0], point)
        assert pulled.gaps == (ZERO, ExtReal(3), POS_INF)

    def test_base_mismatch(self):
        point = pt((1, 1), ["3/1", "inf"])
        with pytest.raises(BaseMismatch):
            pullback_point(PAR2.identity(), point)

    def test_contravariant_functorial(self):
        for a, b, c in itertools.product(small_preorders(), repeat=3):
            for f in oracle_preord_maps_by_search(a, b)[:3]:
                for g in oracle_preord_maps_by_search(b, c)[:3]:
                    for rel in enumerate_conv(c):
                        point = witness_point(rel)
                        via = pullback_point(f, pullback_point(g, point))
                        direct = pullback_point(compose_preord(g, f), point)
                        assert via == direct

    def test_commutes_with_stratum(self):
        for a, b in itertools.product(small_preorders(), repeat=2):
            for f in oracle_preord_maps_by_search(a, b):
                for rel in enumerate_conv(b):
                    point = witness_point(rel)
                    assert stratum_of(pullback_point(f, point)) == pullback_relation(
                        f, stratum_of(point)
                    )


class TestFiberInvariants:
    def test_one_infinite_gap(self):
        assert fiber_invariants(pt((1, 1), ["3/1", "inf"])) == (0, 1)

    def test_two_infinite_gaps(self):
        assert fiber_invariants(pt((1, 1), ["inf", "inf"])) == (1, 2)

    def test_matches_stratum_quotient(self):
        for base in small_preorders():
            for rel in enumerate_conv(base):
                point = witness_point(rel)
                n, fixed = fiber_invariants(point)
                assert fixed == len(rel.gaps)
                assert n == len(rel.gaps) - 1

    def test_invariant_under_periodwise_bijection(self):
        point = pt((1, 1), ["3/1", "inf"])
        for r in oracle_preord_maps_by_search(PAR1, PAR1):
            if len(set(v % 2 for v in r.values)) == 2:
                assert fiber_invariants(pullback_point(r, point)) == fiber_invariants(point)


class TestSectionPoint:
    def test_section_through_second_element(self):
        point = pt((1, 1), ["3/1", "inf"])
        beta = section_point(point, (0, 1))
        assert beta.coordinate(1) == ZERO           # element e_1
        assert beta.coordinate(0) == ExtReal(3)     # element e_0
        assert beta.coordinate(2) == NEG_INF        # e_0 + 1, right of the window
        assert beta.coordinate(-1) == POS_INF       # left of the period's infinite gap

    @pytest.mark.parametrize("slot", [-1, 2, 7])
    def test_slots_outside_the_period_are_refused(self, slot):
        with pytest.raises(MalformedInput):
            section_point(pt((1, 1), ["3/1", "inf"]), (0, slot))

    def test_zero_at_base_point(self):
        for base in small_preorders():
            for rel in enumerate_conv(base):
                point = witness_point(rel)
                for slot in range(base.period):
                    assert section_point(point, slot).coordinate(slot) == ZERO

    def test_distance_recovers_alpha(self):
        for base in small_preorders():
            for rel in enumerate_conv(base):
                point = witness_point(rel)
                for i in range(base.period):
                    for j in range(i, i + 2 * base.period):
                        if not base.leq(i, j):
                            continue
                        alpha = alpha_eval(point, i, j)
                        if alpha.is_pos_inf:
                            continue
                        d = distance(section_point(point, i), section_point(point, j))
                        assert d == alpha


class TestFiberPoints:
    def test_window_must_align(self):
        point = pt((1, 1), ["3/1", "inf"])
        with pytest.raises(ValueError):
            FiberPoint(point, 1, 1, (Fraction(0),))  # gap 0 is finite, not a boundary

    def test_fixed_point_needs_infinite_gap(self):
        point = pt((1, 1), ["3/1", "inf"])
        fp = fixed_point(point, 1)
        assert fp.is_fixed
        with pytest.raises(ValueError):
            fixed_point(point, 0)

    def test_both_infinities_attained(self):
        point = pt((1, 1), ["3/1", "inf"])
        beta = section_point(point, (0, 0))
        assert any(beta.coordinate(t) == POS_INF for t in range(-3, 4))
        assert any(beta.coordinate(t) == NEG_INF for t in range(-3, 4))

    def test_translation_action(self):
        point = pt((1, 1), ["3/1", "inf"])
        beta = section_point(point, (0, 0))
        moved = beta.translate(5)
        assert distance(beta, moved) == ExtReal(5)

    def test_action_preserves_invariants_and_distance(self):
        point = pt((2, 1), ["1/2", "inf", "inf"])
        b = section_point(point, (0, 0))
        c = section_point(point, (0, 2))
        for n, t in [(0, 0), (1, Fraction(1, 3)), (-2, -7)]:
            bn, cn = b.act(n, t), c.act(n, t)
            assert distance(bn, cn) == distance(b, c)

    def test_distance_skew_symmetric(self):
        point = pt((2, 1), ["1/2", "inf", "inf"])
        points = [
            section_point(point, (0, 0)),
            section_point(point, (0, 2)).translate(Fraction(5, 7)),
            section_point(point, (1, 0)),
            fixed_point(point, 1),
            fixed_point(point, 2),
        ]
        for b, c in itertools.permutations(points, 2):
            assert distance(b, c) == -distance(c, b)

    def test_fixed_diagonal_undefined(self):
        point = pt((1, 1), ["3/1", "inf"])
        fp = fixed_point(point, 1)
        with pytest.raises(UndefinedAtFixedDiagonal):
            distance(fp, fp)

    def test_zero_distance_on_equal_movable_points(self):
        point = pt((1, 1), ["3/1", "inf"])
        beta = section_point(point, (0, 0))
        assert distance(beta, beta) == ZERO

    def test_fiber_has_expected_orbit_count(self):
        # one movable segment and one fixed point per infinite gap, per period
        point = pt((1, 1), ["inf", "inf"])
        segments = {section_point(point, t)._segment_key() for t in range(2)}
        cuts = {fixed_point(point, t)._segment_key() for t in range(2)}
        assert len(segments) == 2 and len(cuts) == 2 and not segments & cuts

    def test_json_shape(self):
        point = pt((1, 1), ["3/1", "inf"])
        data = section_point(point, (0, 1)).to_json()
        assert data == {"window": [0, 1], "coords": ["3/1", "0/1"]}

    def test_json_round_trip(self):
        point = pt((2, 1), ["1/2", "inf", "inf"])
        for beta in [section_point(point, (0, 0)), fixed_point(point, 2)]:
            again = FiberPoint.from_json(point, beta.to_json())
            assert again == beta
