import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from paracyclic import consheaf
from paracyclic._linalg import QQ, Field, PrimeField
from paracyclic.consheaf import (
    UPSET_CLASS_CAP,
    SectionSpace,
    StratSheaf,
    UpSet,
    constant_sheaf,
    enumerate_upsets,
    gap_key,
    gluing_check,
    gluing_rows,
    pullback_sheaf,
    random_sheaf,
    sections,
    stalk,
    strata,
    up_closure,
    validate_sheaf,
    whole_space,
)
from paracyclic.errors import (
    BaseMismatch,
    DimensionMismatch,
    MalformedInput,
    NotFunctorial,
    NotUpwardClosed,
    ResourceBound,
)
from paracyclic.preord import (
    ConvexRelation,
    ParaPreorder,
    enumerate_conv,
    least_relation,
)

from oracles import (
    oracle_kernel_basis,
    oracle_kernel_dim_by_enumeration,
    oracle_rref_fraction,
    oracle_rref_mod,
    oracle_strata,
    oracle_upsets_by_mask,
)
from test_preord import all_preord_maps, small_preorders

F5 = PrimeField(5)
F101 = PrimeField(101)
PAR1 = ParaPreorder((1, 1))
PAR2 = ParaPreorder((1, 1, 1))
PAR3 = ParaPreorder.from_parasimplex(3)
PAR4 = ParaPreorder.from_parasimplex(4)


def nonzero_sheaf(rng, base, field, **kwargs):
    """``random_sheaf`` redrawn until some stalk is nonzero, at most 20 times:
    on the zero sheaf every gluing report passes, whatever the code does."""
    for _ in range(20):
        sheaf = random_sheaf(rng, base, field, **kwargs)
        if any(sheaf.dims.values()):
            return sheaf
    raise AssertionError(f"20 draws over {base.sizes} gave only zero sheaves")


def coordinates(sheaf, members):
    """Offset of each member's block in the sorted key layout, and the width."""
    offsets, width = {}, 0
    for key in sorted(members):
        offsets[key] = width
        width += sheaf.dims[key]
    return offsets, width


def constraint_rows(sheaf, members, p=None):
    """The compatibility constraints of sections over ``members`` as rows,
    one block per covering edge inside the set, laid out in sorted key
    order: integers mod p, or Fractions when p is None; returns the rows and
    their width."""
    scalar = Fraction if p is None else (lambda x: int(x) % p)
    offsets, width = coordinates(sheaf, members)
    rows = []
    for (src, dst), mat in sheaf.maps.items():
        if src not in members or dst not in members:
            continue
        for r in range(sheaf.dims[dst]):
            row = [scalar(0)] * width
            for c in range(sheaf.dims[src]):
                row[offsets[src] + c] = scalar(mat[r, c])
            row[offsets[dst] + r] = scalar(row[offsets[dst] + r] - 1)
            rows.append(row)
    return rows, width


def section_mismatches(sheaf, p=None):
    """The members of the up-sets over which ``sections`` differs from the
    kernel of ``constraint_rows``, in dimension or in row space: the basis
    is moved to sorted key order and both are brought to reduced echelon
    form by the list oracles.  ``sections`` is looked up in its module at
    each call, so that a patched one is the one checked."""
    rref = oracle_rref_fraction if p is None else (lambda rows: oracle_rref_mod(rows, p))
    wrong = []
    for up in enumerate_upsets(sheaf.base):
        space = consheaf.sections(sheaf, up)
        rows, width = constraint_rows(sheaf, up.members, p)
        expected = oracle_kernel_basis(rows, width, p)
        offsets, _ = coordinates(sheaf, up.members)
        order = [offsets[key] + c for key in space.layout for c in range(sheaf.dims[key])]
        if space.basis.shape != (len(expected), width):
            wrong.append(sorted(up.members))
        elif rref([[row[order.index(c)] for c in range(width)]
                   for row in space.basis.tolist()])[0] != rref(expected)[0]:
            wrong.append(sorted(up.members))
    return wrong


def oracle_rank(rows, p=None):
    """Rank over F_p, or over Q when p is None, by the list oracles."""
    return len((oracle_rref_fraction(rows) if p is None else oracle_rref_mod(rows, p))[1])


def oracle_gluing_dims(sheaf, u1, u2, p=None):
    """The dimensions a gluing report states, from the member sets alone.

    Each section dimension is the width of its constraint rows minus their
    rank.  The fiber product pairs a section over U1 with one over U2 that
    agrees with it on the overlap's coordinates: with both section bases
    restricted to those coordinates and stacked, its dimension is
    dim_left + dim_right minus the rank of the stack."""
    sets = {"dim_union": u1.members | u2.members, "dim_left": u1.members,
            "dim_right": u2.members, "dim_overlap": u1.members & u2.members}
    dims = {}
    for name, members in sets.items():
        rows, width = constraint_rows(sheaf, members, p)
        dims[name] = width - oracle_rank(rows, p)
    overlap = sorted(sets["dim_overlap"])
    stacked = []
    for members in (u1.members, u2.members):
        offsets, _ = coordinates(sheaf, members)
        for vec in oracle_kernel_basis(*constraint_rows(sheaf, members, p), p):
            stacked.append([x for key in overlap
                            for x in vec[offsets[key]:offsets[key] + sheaf.dims[key]]])
    dims["dim_fiber_product"] = dims["dim_left"] + dims["dim_right"] - oracle_rank(stacked, p)
    return dims


def row_mismatches(sheaf):
    """The pairs (i, j) of up-set positions whose ``gluing_rows`` report
    differs from ``gluing_check``'s, key order included, and the number of
    pairs compared, which must be every pair j >= i."""
    upsets = enumerate_upsets(sheaf.base)
    wrong, compared = [], 0
    for row in gluing_rows(sheaf):
        for k in range(len(row.passed)):
            j = row.left + k
            expected = gluing_check(sheaf, upsets[row.left], upsets[j])
            found = row.report(k)
            if list(found.items()) != list(expected.items()):
                wrong.append((row.left, j))
            compared += 1
    assert compared == len(upsets) * (len(upsets) + 1) // 2
    return wrong


def restriction(sheaf, big, small):
    """The restriction from the up-set ``big`` onto ``small`` as the sheaf's
    section table gathers it, without its padding: (dim big, dim small)."""
    table = sheaf.section_table
    b, s = np.searchsorted(table.masks, [big.mask, small.mask])
    return table.restrictions(np.array([b]), np.array([s]))[0][:table.dims[b], :table.dims[s]]


def twin(sheaf):
    """The same sheaf as a new object, whose section table is not built yet."""
    return StratSheaf(sheaf.base, sheaf.field, sheaf.dims, sheaf.maps)


def oracle_mask(base, members):
    """The mask that numbers ``members``: bit i for the i-th stratum of
    ``enumerate_conv(base)``."""
    return sum(1 << i for i, rel in enumerate(enumerate_conv(base))
               if gap_key(rel) in members)


def mask_mismatches(base):
    """Members of the up-sets of ``base`` whose mask is not the one their
    members define: the enumerated up-sets, the same sets rebuilt by the
    constructor, every meet and join, and the whole space."""
    upsets = enumerate_upsets(base)
    expected = {up.members: oracle_mask(base, up.members) for up in upsets}
    found = upsets + [UpSet(base, up.members) for up in upsets] + [whole_space(base)]
    for i, a in enumerate(upsets):
        for b in upsets[i:]:
            found += [a & b, a | b]
    return [sorted(up.members) for up in found if up.mask != expected[up.members]]


def strata_mismatches(base, poset):
    """The parts of ``poset``, a stratum poset of ``base``, that disagree
    with the subset oracle: the keys and their order, the mask bits, the
    faces, the covering edges, and the relation behind each key."""
    keys, bits, faces, covers = oracle_strata(base.num_classes)
    wrong = []
    if list(poset.keys) != keys:
        wrong.append("keys")
    if dict(poset.bit) != bits:
        wrong.append("bits")
    if {key: dict(face) for key, face in poset.faces.items()} != faces:
        wrong.append("faces")
    if sorted(poset.edges) != sorted(covers) or len(set(poset.edges)) != len(covers):
        wrong.append("edges")
    if list(poset.relation) != keys or any(
            rel.base != base or rel.gaps != set(key) for key, rel in poset.relation.items()):
        wrong.append("relations")
    return wrong


class TestStrata:
    @pytest.mark.parametrize("sizes", [(1,) * (n + 1) for n in range(5)]
                             + [(2, 1), (1, 2, 1), (3,)])
    def test_matches_the_subset_oracle(self, sizes):
        base = ParaPreorder(sizes)
        keys = oracle_strata(base.num_classes)[0]
        assert keys == sorted(keys, key=lambda key: (-len(key), key))
        assert not strata_mismatches(base, strata(base))

    def test_built_once_per_base(self):
        assert strata(ParaPreorder((2, 1))) is strata(ParaPreorder((2, 1)))


class TestConstraintSystem:
    @pytest.mark.parametrize("field, p", [(F101, 101), (QQ, None)], ids=["F101", "QQ"])
    @pytest.mark.parametrize("n", range(4))
    def test_sections_match_the_list_built_constraints(self, field, p, n):
        """Every up-set over Par(n): the sections cut from the sheaf's one
        constraint matrix span the kernel of the constraints built edge by
        edge from lists."""
        rng = random.Random(83 + n)
        base = ParaPreorder.from_parasimplex(n)
        for _ in range(2 if n < 3 else 1):
            assert not section_mismatches(nonzero_sheaf(rng, base, field), p)

    def test_drawing_and_validating_build_no_constraints(self, monkeypatch):
        """The constraint matrix is built by the first ``sections`` call,
        never by ``random_sheaf``, ``validate_sheaf`` or ``from_json``."""
        def refuse(self):
            raise AssertionError("a constraint matrix was built")

        monkeypatch.setattr(StratSheaf, "constraints", property(refuse))
        sheaf = nonzero_sheaf(random.Random(89), PAR3, F101)
        again = validate_sheaf(PAR3, F101, sheaf.dims, sheaf.maps)
        StratSheaf.from_json(again.to_json())
        with pytest.raises(AssertionError):
            sections(again, whole_space(PAR3))

    def test_built_once_per_sheaf(self):
        sheaf = nonzero_sheaf(random.Random(97), PAR2, F101)
        assert sheaf.constraints is sheaf.constraints
        assert sheaf.constraints.matrix.shape == (
            sum(sheaf.dims[dst] for _, dst in strata(PAR2).edges), sum(sheaf.dims.values()))


class TestValidateSheaf:
    def test_constant_valid(self):
        sheaf = constant_sheaf(PAR2, F5, 2)
        assert validate_sheaf(sheaf.base, sheaf.field, sheaf.dims, sheaf.maps)

    def test_noncommuting_diamond_rejected(self):
        sheaf = constant_sheaf(PAR1, F5, 1)
        maps = dict(sheaf.maps)
        maps[((0, 1), (0,))] = F5.matrix([[2]])
        # (0,1) -> (0,) -> none; only diamonds of height 2 exist on Par(2)
        sheaf2 = constant_sheaf(PAR2, F5, 1)
        maps2 = dict(sheaf2.maps)
        maps2[((0, 1, 2), (0, 1))] = F5.matrix([[3]])
        with pytest.raises(NotFunctorial):
            validate_sheaf(PAR2, F5, sheaf2.dims, maps2)

    def test_missing_edges_rejected(self):
        sheaf = constant_sheaf(PAR1, F5, 1)
        maps = dict(sheaf.maps)
        maps.popitem()
        with pytest.raises(DimensionMismatch):
            validate_sheaf(PAR1, F5, sheaf.dims, maps)

    def test_wrong_shape_rejected(self):
        sheaf = constant_sheaf(PAR1, F5, 1)
        maps = dict(sheaf.maps)
        maps[((0, 1), (0,))] = F5.zeros(2, 1)
        with pytest.raises(DimensionMismatch):
            validate_sheaf(PAR1, F5, sheaf.dims, maps)

    def test_random_sheaves_valid(self):
        rng = random.Random(11)
        for base in [PAR1, PAR2, ParaPreorder((2, 1))]:
            for _ in range(5):
                random_sheaf(rng, base, F5)

    def test_json_round_trip(self):
        rng = random.Random(3)
        sheaf = random_sheaf(rng, PAR1, F5)
        again = StratSheaf.from_json(sheaf.to_json())
        assert again.dims == sheaf.dims
        for edge in sheaf.maps:
            assert F5.equal(again.maps[edge], sheaf.maps[edge])


class TestUpSets:
    def test_rejects_non_upward_closed(self):
        with pytest.raises(NotUpwardClosed):
            UpSet(PAR1, frozenset({(0, 1)}))
        # holds the face (1,) of (0, 1) but not the face (0,)
        with pytest.raises(NotUpwardClosed):
            UpSet(PAR1, frozenset({(0, 1), (1,)}))

    def test_closure(self):
        up = up_closure(PAR1, [(0, 1)])
        assert up.members == {(0, 1), (0,), (1,)}

    def test_enumerate_counts(self):
        # antichain counts of the boolean poset minus its top: the Dedekind
        # numbers M(n + 1) - 1 (OEIS A000372)
        assert len(enumerate_upsets(ParaPreorder((1,)))) == 2
        assert len(enumerate_upsets(PAR1)) == 5
        assert len(enumerate_upsets(PAR2)) == 19
        assert len(enumerate_upsets(PAR3)) == 167
        assert len(enumerate_upsets(PAR4)) == 7580

    def test_up_sets_beyond_the_class_cap_are_refused(self):
        """Six classes would give 7,828,353 up-sets; the refusal comes first,
        also from a gluing check, which looks its up-sets up by mask."""
        base = ParaPreorder((1,) * (UPSET_CLASS_CAP + 1))
        with pytest.raises(ResourceBound):
            enumerate_upsets(base)
        top = whole_space(base)
        with pytest.raises(ResourceBound):
            gluing_check(constant_sheaf(base, F5, 1), top, top)

    @pytest.mark.parametrize("n", range(4))
    def test_enumerate_matches_mask_scan_in_order(self, n):
        base = ParaPreorder.from_parasimplex(n)
        keys = [gap_key(rel) for rel in enumerate_conv(base)]
        found = enumerate_upsets(base)
        assert all(up.base == base for up in found)
        assert [up.members for up in found] == oracle_upsets_by_mask(keys)

    def test_meets_and_joins_of_par3_up_sets_pass_validation(self):
        # & and | skip the constructor's checks; this is the invariant they rely on
        upsets = enumerate_upsets(PAR3)
        for i, a in enumerate(upsets):
            for b in upsets[i:]:
                for result in (a & b, a | b):
                    assert UpSet(PAR3, result.members) == result

    @pytest.mark.parametrize("n", range(4))
    def test_masks_number_the_members(self, n):
        assert not mask_mismatches(ParaPreorder.from_parasimplex(n))

    def test_maximal_pair_is_up_closed(self):
        UpSet(PAR1, frozenset({(0,), (1,)}))

    @pytest.mark.parametrize("key", [(2,), (5,), (0, 2), (0, 0)])
    def test_rejects_strata_of_another_base(self, key):
        with pytest.raises(BaseMismatch):
            UpSet(PAR1, frozenset({key}))

    def test_meet_and_join_reject_different_bases(self):
        small, large = whole_space(PAR1), up_closure(PAR2, [(2,)])
        with pytest.raises(BaseMismatch):
            small | large
        with pytest.raises(BaseMismatch):
            small & large


class TestSections:
    def test_constant_over_everything_is_value_at_least(self):
        sheaf = constant_sheaf(PAR1, F5, 3)
        space = sections(sheaf, whole_space(PAR1))
        assert space.dim == 3

    def test_two_maximal_strata_give_product(self):
        sheaf = constant_sheaf(PAR1, F5, 2)
        space = sections(sheaf, UpSet(PAR1, frozenset({(0,), (1,)})))
        assert space.dim == 4

    def test_empty_up_set(self):
        sheaf = constant_sheaf(PAR1, F5, 2)
        assert sections(sheaf, UpSet(PAR1, frozenset())).dim == 0

    def test_up_set_containing_least_sees_only_least(self):
        rng = random.Random(5)
        for _ in range(5):
            sheaf = random_sheaf(rng, PAR2, F5)
            total = sections(sheaf, whole_space(PAR2))
            assert total.dim == sheaf.dims[gap_key(least_relation(PAR2))]

    def test_dim_matches_enumeration_oracle(self):
        rng = random.Random(17)
        F2 = PrimeField(2)
        base = PAR1
        for _ in range(4):
            sheaf = random_sheaf(rng, base, F2, max_intervals=2)
            for up in enumerate_upsets(base):
                space = sections(sheaf, up)
                rows, width = constraint_rows(sheaf, up.members, 2)
                if width == 0 or width > 10:
                    continue
                assert space.dim == oracle_kernel_dim_by_enumeration(rows, width, 2)

    def test_restriction_monotone(self):
        # restrictions factor: whole -> mid -> small equals whole -> small
        rng = random.Random(23)
        sheaf = random_sheaf(rng, PAR2, F5)
        whole = whole_space(PAR2)
        big = sections(sheaf, whole)
        upsets = enumerate_upsets(PAR2)
        for mid_set in upsets[:10]:
            mid = sections(sheaf, mid_set)
            to_mid = restriction(sheaf, whole, mid_set)
            assert to_mid.shape == (big.dim, mid.dim)
            for small_set in upsets:
                if not small_set.members <= mid_set.members:
                    continue
                direct = restriction(sheaf, whole, small_set)
                via = restriction(sheaf, mid_set, small_set)
                assert F5.equal(F5.matmul(via.T, to_mid.T), direct.T)

    @pytest.mark.parametrize("field", [F5, QQ], ids=["F5", "Q"])
    def test_restriction_matches_solve_in_span(self, field):
        """Every contained pair of Par(2) up-sets on two nonzero sheaves:
        the coordinates the section table gathers at the free columns are
        the ones an elimination per restricted vector finds."""
        rng = random.Random(41)
        upsets = enumerate_upsets(PAR2)
        for _ in range(2):
            sheaf = nonzero_sheaf(rng, PAR2, field)
            spaces = {up.mask: sections(sheaf, up) for up in upsets}
            for big_set in upsets:
                big = spaces[big_set.mask]
                blocks = dict(zip(big.layout, zip(big.offsets, big.offsets[1:])))
                for small_set in upsets:
                    if not small_set.members <= big_set.members:
                        continue
                    small = spaces[small_set.mask]
                    expected = field.zeros(big.dim, small.dim)
                    for i in range(big.dim):
                        vector = field.matrix([[x for key in small.layout
                                                for x in big.basis[i, slice(*blocks[key])]]])
                        expected[i] = field.solve_in_span(small.basis, vector[0])
                    assert field.equal(restriction(sheaf, big_set, small_set), expected)

    def test_restriction_outside_the_span_raises(self, monkeypatch):
        """The sections over V = {(0,), (1,)} of the constant sheaf replaced
        by a smaller span, then by none: the section (1, 1, 1) over the
        whole space restricts to (1, 1) on V, which neither replacement
        holds, so building the section table raises.  Unreplaced, the
        gather reads the restriction's coordinates (1, 1)."""
        sheaf = constant_sheaf(PAR1, F5, 1)
        small_set = UpSet(PAR1, frozenset({(0,), (1,)}))
        assert restriction(sheaf, whole_space(PAR1), small_set).tolist() == [[1, 1]]
        compute = sections
        for replacement in ([[1, 0]], []):
            def mutant(sheaf, open_set, replacement=replacement):
                space = compute(sheaf, open_set)
                if open_set.mask == small_set.mask:
                    basis = F5.matrix(replacement).reshape(len(replacement), 2)
                    space = SectionSpace(F5, space.layout, space.offsets, basis)
                return space

            monkeypatch.setattr(consheaf, "sections", mutant)
            with pytest.raises(NotFunctorial):
                twin(sheaf).section_table


class TestStalk:
    def test_constant(self):
        sheaf = constant_sheaf(PAR2, F5, 2)
        for rel in enumerate_conv(PAR2):
            assert stalk(sheaf, rel).dim == 2

    def test_least_stratum_equals_global_sections(self):
        rng = random.Random(29)
        for _ in range(3):
            sheaf = random_sheaf(rng, PAR1, F5)
            assert stalk(sheaf, least_relation(PAR1)).dim == sections(
                sheaf, whole_space(PAR1)
            ).dim

    def test_base_mismatch(self):
        sheaf = constant_sheaf(PAR2, F5, 1)
        with pytest.raises(BaseMismatch):
            stalk(sheaf, least_relation(PAR1))


class TestEdgeMap:
    def test_coarse_not_below_fine_is_malformed(self):
        sheaf = constant_sheaf(PAR2, F5, 1)
        with pytest.raises(MalformedInput, match="finer to coarser"):
            sheaf.edge_map((0,), (0, 1))

    @pytest.mark.parametrize("fine, coarse", [((0, 3), (0,)), ((0, 1), ())],
                             ids=["fine", "coarse"])
    def test_key_that_is_no_stratum_is_malformed(self, fine, coarse):
        sheaf = constant_sheaf(PAR2, F5, 1)
        with pytest.raises(MalformedInput, match="not a stratum"):
            sheaf.edge_map(fine, coarse)


class TestPullbackSheaf:
    def test_identity(self):
        rng = random.Random(31)
        sheaf = random_sheaf(rng, PAR1, F5)
        pulled = pullback_sheaf(PAR1.identity(), sheaf)
        assert pulled.dims == sheaf.dims
        for edge in sheaf.maps:
            assert F5.equal(pulled.maps[edge], sheaf.maps[edge])

    def test_constant_stays_constant(self):
        for f in all_preord_maps(PAR2, PAR1):
            pulled = pullback_sheaf(f, constant_sheaf(PAR2, F5, 2))
            assert set(pulled.dims.values()) == {2}

    def test_stalks_match_image_stratum(self):
        from paracyclic.preord import pullback_relation

        rng = random.Random(37)
        for src in small_preorders():
            for tgt in small_preorders():
                for f in all_preord_maps(src, tgt)[:2]:
                    sheaf = random_sheaf(rng, src, F5, max_intervals=2)
                    pulled = pullback_sheaf(f, sheaf)
                    for rel in enumerate_conv(tgt):
                        assert stalk(pulled, rel).dim == stalk(
                            sheaf, pullback_relation(f, rel)
                        ).dim

    def test_preserves_validity(self):
        rng = random.Random(41)
        for f in all_preord_maps(PAR2, PAR1)[:4]:
            sheaf = random_sheaf(rng, PAR2, F5)
            pulled = pullback_sheaf(f, sheaf)
            validate_sheaf(pulled.base, pulled.field, pulled.dims, pulled.maps)


class TestGluing:
    def test_disjoint_union_is_direct_sum(self):
        sheaf = constant_sheaf(PAR1, F5, 2)
        u1 = UpSet(PAR1, frozenset({(0,)}))
        u2 = UpSet(PAR1, frozenset({(1,)}))
        report = gluing_check(sheaf, u1, u2)
        assert report["passed"]
        assert report["dim_union"] == report["dim_left"] + report["dim_right"] == 4

    def test_nested_up_sets(self):
        sheaf = constant_sheaf(PAR2, F5, 3)
        u2 = whole_space(PAR2)
        u1 = up_closure(PAR2, [(0, 1)])
        report = gluing_check(sheaf, u1, u2)
        assert report["passed"] and report["dim_union"] == report["dim_right"]

    def test_random_pairs_pass(self):
        rng = random.Random(43)
        upsets = enumerate_upsets(PAR2)
        for _ in range(4):
            sheaf = nonzero_sheaf(rng, PAR2, F5)
            for u1, u2 in itertools.islice(itertools.combinations(upsets, 2), 40):
                assert gluing_check(sheaf, u1, u2)["passed"]

    def test_rationals_backend(self):
        rng = random.Random(47)
        sheaf = nonzero_sheaf(rng, PAR1, QQ, max_intervals=2)
        for u1, u2 in itertools.combinations(enumerate_upsets(PAR1), 2):
            assert gluing_check(sheaf, u1, u2)["passed"]

    @pytest.mark.parametrize("field", [F5, QQ], ids=["F5", "QQ"])
    def test_shared_cache_gives_the_same_reports(self, field):
        """Every pair shares the sheaf's one section table, whichever pair
        builds it: pairs asked in a shuffled order give the same reports,
        key order included, as the same pairs asked in ascending order of
        a twin sheaf."""
        rng = random.Random(53)
        upsets = enumerate_upsets(PAR2)
        pairs = [(i, j) for i in range(len(upsets)) for j in range(i, len(upsets))]
        for _ in range(3):
            sheaf = nonzero_sheaf(rng, PAR2, field)
            ascending = {(i, j): list(gluing_check(sheaf, upsets[i], upsets[j]).items())
                         for i, j in pairs}
            other = twin(sheaf)
            shuffled = {(i, j): list(gluing_check(other, upsets[i], upsets[j]).items())
                        for i, j in rng.sample(pairs, len(pairs))}
            assert shuffled == ascending
            assert all(dict(report)["passed"] for report in ascending.values())


class TestGluingRows:
    @pytest.mark.parametrize("field, n", [(F101, n) for n in range(4)] + [(QQ, n) for n in range(3)],
                             ids=[f"F101-par{n}" for n in range(4)] + [f"Q-par{n}" for n in range(3)])
    def test_every_pair_matches_gluing_check(self, field, n):
        rng = random.Random(67 + n)
        base = ParaPreorder.from_parasimplex(n)
        for _ in range(2 if n < 3 else 1):
            assert not row_mismatches(nonzero_sheaf(rng, base, field))

    @pytest.mark.parametrize("n", range(3))
    def test_every_pair_matches_gluing_check_at_a_large_prime(self, n):
        """At p = 2^31 - 1 a stacked product with inner dimension 3 or more
        leaves int64 for Python ints; with up to eight intervals the draws
        over Par(0) and Par(1) have section spaces that large."""
        rng = random.Random(79 + n)
        base = ParaPreorder.from_parasimplex(n)
        for _ in range(2):
            sheaf = nonzero_sheaf(rng, base, PrimeField(2**31 - 1), max_intervals=8)
            assert not row_mismatches(sheaf)

    @pytest.mark.parametrize("n", range(4))
    def test_zero_sheaf_passes_without_elimination(self, monkeypatch, n):
        """Every stalk is 0, so the padded width is 0 and no overlap has
        sections: every pair passes and nothing is eliminated."""
        def refuse(*args):
            raise AssertionError("an elimination ran on the zero sheaf")

        for name in ("rref", "stacked_rank", "stacked_matmul"):
            monkeypatch.setattr(Field, name, refuse)
        base = ParaPreorder.from_parasimplex(n)
        rows = list(gluing_rows(constant_sheaf(base, F101, 0)))
        count = len(enumerate_upsets(base))
        assert sum(len(row.passed) for row in rows) == count * (count + 1) // 2
        assert all(row.passed.all() for row in rows)

    def test_rows_never_take_the_single_pair_arithmetic(self, monkeypatch):
        """Pairs whose overlap has sections are checked in batches, never
        by ``gluing_check``'s ``_fiber_product``."""
        def refuse(*args):
            raise AssertionError("a pair went through _fiber_product")

        monkeypatch.setattr(consheaf, "_fiber_product", refuse)
        rows = list(gluing_rows(nonzero_sheaf(random.Random(73), PAR2, F5)))
        assert any(row.dim_overlap.any() for row in rows)

    @pytest.mark.parametrize("field, p", [(F5, 5), (QQ, None)], ids=["F5", "QQ"])
    def test_every_par2_pair_matches_the_oracle(self, field, p):
        rng = random.Random(71)
        upsets = enumerate_upsets(PAR2)
        for _ in range(2):
            sheaf = nonzero_sheaf(rng, PAR2, field)
            for row in gluing_rows(sheaf):
                for k in range(len(row.passed)):
                    u1, u2 = upsets[row.left], upsets[row.left + k]
                    expected = {**oracle_gluing_dims(sheaf, u1, u2, p),
                                "passed": True, "restrictions_agree": True}
                    assert row.report(k) == expected, (sorted(u1.members), sorted(u2.members))

    @pytest.mark.parametrize("column", [0, 2], ids=["onto-no-sections", "onto-sections"])
    def test_corrupted_section_basis_raises(self, monkeypatch, column):
        """A section basis over W = {(0, 1), (0,), (1,), (2,)} with 1 added
        in one column.  The sheaf lives on the three maximal strata, so the
        sections over W are the families on (2,) alone, the row (0, 0, 1).
        With the 1 on (0,), W's restriction onto the up-set of (0, 1), which
        has no sections, is no longer zero.  With the 1 on (2,), the row
        reads 2 where its own echelon column needs 1, so its restriction
        onto W itself is no section."""
        dims = {key: int(len(key) == 1) for key in strata(PAR2).keys}
        maps = {(src, dst): F5.zeros(dims[dst], dims[src]) for src, dst in strata(PAR2).edges}
        sheaf = validate_sheaf(PAR2, F5, dims, maps)
        corrupted = up_closure(PAR2, [(0, 1), (2,)]).mask
        compute = sections

        def mutant(sheaf, open_set):
            space = compute(sheaf, open_set)
            if open_set.mask == corrupted:
                basis = space.basis.copy()
                basis[0, column] += 1
                space = SectionSpace(space.field, space.layout, space.offsets, basis)
            return space

        monkeypatch.setattr(consheaf, "sections", mutant)
        upsets = enumerate_upsets(PAR2)
        with pytest.raises(NotFunctorial):
            gluing_check(sheaf, upsets[0], upsets[0])
        with pytest.raises(NotFunctorial):
            list(gluing_rows(sheaf))


class TestSectionTable:
    def test_only_gluing_builds_the_table(self, monkeypatch):
        """``random_sheaf``, ``validate_sheaf``, ``from_json`` and
        ``sections`` never build the section table; the first gluing does."""
        def refuse(self):
            raise AssertionError("a section table was built")

        monkeypatch.setattr(StratSheaf, "section_table", property(refuse))
        sheaf = nonzero_sheaf(random.Random(79), PAR2, F5)
        again = StratSheaf.from_json(validate_sheaf(PAR2, F5, sheaf.dims, sheaf.maps).to_json())
        sections(again, whole_space(PAR2))
        for glue in (lambda: gluing_check(again, whole_space(PAR2), whole_space(PAR2)),
                     lambda: next(gluing_rows(again))):
            with pytest.raises(AssertionError):
                glue()

    def test_sections_are_computed_once_per_sheaf(self, monkeypatch):
        """The first gluing of a sheaf computes every up-set's sections
        once; later gluings of the same sheaf compute none, and a twin
        sheaf computes its own."""
        calls = []
        compute = sections
        monkeypatch.setattr(consheaf, "sections",
                            lambda sheaf, up: calls.append(up.mask) or compute(sheaf, up))
        sheaf = nonzero_sheaf(random.Random(73), PAR2, F5)
        upsets = enumerate_upsets(PAR2)
        masks = [up.mask for up in upsets]
        list(gluing_rows(sheaf))
        assert calls == masks
        list(gluing_rows(sheaf))
        gluing_check(sheaf, upsets[3], upsets[7])
        assert calls == masks
        gluing_check(twin(sheaf), upsets[3], upsets[7])
        assert calls == masks * 2

    def test_restrictions_are_verified_once_per_sheaf(self, monkeypatch):
        """One verification product per sheaf, over exactly the pairs
        (U, U) and (U, U minus one stratum that leaves an up-set) whose U
        has sections.  Its right factors are bases in whole-space columns,
        T + 1 of them; the rows' composites have w.  Later gluings of the
        same sheaf verify nothing."""
        shapes = []
        product = Field.stacked_matmul
        monkeypatch.setattr(Field, "stacked_matmul",
                            lambda self, a, b: shapes.append(b.shape) or product(self, a, b))
        sheaf = nonzero_sheaf(random.Random(101), PAR3, F101)
        total = sum(sheaf.dims.values())
        upsets = enumerate_upsets(PAR3)
        members = {up.members for up in upsets}
        expected = sum(1 + sum(up.members - {key} in members for key in up.members)
                       for up in upsets if sections(sheaf, up).dim)
        assert expected

        def verifications():
            return [count for count, _, columns in shapes if columns == total + 1]

        gluing_check(sheaf, upsets[40], upsets[90])
        assert verifications() == [expected]
        list(gluing_rows(sheaf))
        gluing_check(sheaf, upsets[90], upsets[40])
        assert verifications() == [expected]
        list(gluing_rows(twin(sheaf)))
        assert verifications() == [expected, expected]


class TestPar4:
    def test_par4_all_sections_and_a_gluing_sample(self):
        """Sheaves over Par(4): the section dimensions that gluing reads,
        over all 7,580 up-sets, against an independent rank, then gluing on
        a seeded sample of 2,000 of the 28.7M up-set pairs (a sample, not
        every pair)."""
        start = time.perf_counter()
        sheaf = random_sheaf(random.Random(34), PAR4, F101)
        assert sum(sheaf.dims.values()) >= 20
        upsets = enumerate_upsets(PAR4)
        assert len(upsets) == 7580
        for up, dim in zip(upsets, sheaf.section_table.dims.tolist(), strict=True):
            rows, width = constraint_rows(sheaf, up.members, 101)
            _, pivots = oracle_rref_mod(rows, 101)
            assert dim == width - len(pivots), sorted(up.members)
        rng = random.Random(4)
        for _ in range(2000):
            u1, u2 = rng.choice(upsets), rng.choice(upsets)
            report = gluing_check(sheaf, u1, u2)
            assert report["passed"], (sorted(u1.members), sorted(u2.members), report)
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"Par(4) sections and gluing sample took {elapsed:.1f}s"

    def test_first_par4_rows_pass_and_hold_no_growing_memory(self):
        """The first 20 rows of gluing over the seed-34 Par(4) sheaf, 151,410
        pairs, all passing within 20 s (about 2 s on a 2-vCPU VM).  From the
        second row on, the memory traced between rows is the yielded row's
        arrays, about 250 KB that shrink with the row: it may not grow by a
        quarter of that over the rows, as a store of restrictions read by
        earlier rows would make it."""
        start = time.perf_counter()
        rows = gluing_rows(random_sheaf(random.Random(34), PAR4, F101))
        first = next(rows)
        passed, pairs = bool(first.passed.all()), len(first.passed)
        held = []
        tracemalloc.start()
        try:
            for row in itertools.islice(rows, 19):
                passed &= bool(row.passed.all())
                pairs += len(row.passed)
                held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        elapsed = time.perf_counter() - start
        assert passed and pairs == 151410
        assert max(held) - held[0] < 2**16, [size // 1024 for size in held]
        assert elapsed < 20, f"20 Par(4) rows took {elapsed:.1f}s"


class TestGluingOracle:
    """Every number of a gluing report against ``oracle_gluing_dims``,
    which reads member sets and ranks by list elimination, not masks or
    ``Field``."""

    @staticmethod
    def check_pairs(sheaf, pairs, p):
        reports = []
        for u1, u2 in pairs:
            report = gluing_check(sheaf, u1, u2)
            expected = {**oracle_gluing_dims(sheaf, u1, u2, p),
                        "passed": True, "restrictions_agree": True}
            assert report == expected, (sorted(u1.members), sorted(u2.members))
            reports.append(report)
        return reports

    @pytest.mark.parametrize("field, p", [(F5, 5), (QQ, None)], ids=["F5", "QQ"])
    def test_every_par2_pair(self, field, p):
        rng = random.Random(59)
        upsets = enumerate_upsets(PAR2)
        pairs = [(u1, u2) for i, u1 in enumerate(upsets) for u2 in upsets[i:]]
        for _ in range(2):
            self.check_pairs(nonzero_sheaf(rng, PAR2, field), pairs, p)

    @pytest.mark.parametrize("field, p", [(F5, 5), (QQ, None)], ids=["F5", "QQ"])
    def test_par3_sample_with_empty_and_nonempty_products(self, field, p):
        """A seeded sample of 150 of the 14,028 Par(3) pairs per sheaf."""
        rng = random.Random(61)
        upsets = enumerate_upsets(PAR3)
        empty = []
        for _ in range(2):
            sheaf = nonzero_sheaf(rng, PAR3, field)
            pairs = [(rng.choice(upsets), rng.choice(upsets)) for _ in range(150)]
            empty += [r["dim_overlap"] == 0 or r["dim_union"] == 0
                      for r in self.check_pairs(sheaf, pairs, p)]
        assert any(empty) and not all(empty)
