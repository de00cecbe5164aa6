"""Committed mutants: each one breaks the library on purpose, through
monkeypatch, and asserts that the check named for it goes red.

A check that stays green under its mutant has lost the power to fail.
Each mutant runs against the smallest entry point that should catch it.
"""

import dataclasses
import functools
import inspect
import random
import textwrap
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from paracyclic import _linalg, consheaf, equivalence, paracat, preord, sdot, selftest
from paracyclic._linalg import (
    BLAS_MIN_MULTS,
    Q_INT_MIN_MULTS,
    QQ,
    VECTOR_MIN_ROWS,
    PrimeField,
    Rationals,
)
from paracyclic.consheaf import UpSet, gap_key
from paracyclic.equivalence import (
    cell_rep,
    check_localization_adjunction,
    random_rep,
    realize_system,
    recover_rep,
    validate_rep,
)
from paracyclic.errors import (
    MalformedInput,
    NotAComplex,
    NotEssentiallySurjective,
    NotFunctorial,
    NotMonotone,
)
from paracyclic.paracat import ParaMap, Parasimplex
from paracyclic.preord import (
    ConvexRelation,
    ParaPreorder,
    enumerate_conv,
    is_valid_morphism,
    preorders_up_to,
    pullback_relation,
)
from paracyclic.sdot import face, random_filtration

from oracles import (
    class_oracle_mismatches,
    oracle_matmul_fraction,
    oracle_matmul_mod,
    oracle_rref_fraction,
    oracle_rref_mod,
    oracle_upsets_by_mask,
)
import test_consheaf
import test_paracat
import test_preord
from test_consheaf import mask_mismatches, nonzero_sheaf, section_mismatches, strata_mismatches
from test_paracat import code_collisions
from test_preord import relation_oracle_mismatches
from test_sdot import fingerprint_mismatches


def failure_kinds(report):
    return {failure[0] for failure in report["failures"]}


def test_dropped_marked_key_is_caught(monkeypatch):
    """The closure of the marked edges with the code of the last Cartesian
    edge dropped from the marked codes and its runs left alone: its
    composite with an identity is missing."""
    source_mutant(monkeypatch, equivalence, "_missing_marked_composites",
                  ("codes = _edge_codes(objects, marked)", "codes = _edge_codes(objects, marked)[:-1]"))
    report = check_localization_adjunction(3, "para")
    assert "marked-composite-missing" in failure_kinds(report)


def test_composites_without_their_lead_normalization_are_caught(monkeypatch, patch_tables):
    """``paracat.compose_rows`` keeping the lead period of each composite:
    a composite whose first value passes its target's period codes no
    edge, in the conv-tilde's closure of the marked edges."""
    namespace = source_mutant(monkeypatch, paracat, "compose_rows", ("raw - wrap * p_c,", "raw,"))
    patch_tables("compose_rows", namespace["compose_rows"])
    report = check_localization_adjunction(3, "para")
    assert "marked-composite-missing" in failure_kinds(report)


def test_second_edges_from_the_run_of_the_source_are_caught(monkeypatch):
    source_mutant(monkeypatch, equivalence, "_missing_marked_composites",
                  ("run_len[tgt], run_start[tgt]", "run_len[src], run_start[src]"))
    report = check_localization_adjunction(3, "para")
    assert "marked-composite-missing" in failure_kinds(report)


def test_full_faithfulness_read_with_its_ends_swapped_is_caught(monkeypatch):
    """Clause (b) reading the codes of the edges from (Par(j'), least) to
    (Par(j), least) for the pair (j, j'): between distinct levels they are
    the surjections the other way, so the code sets differ."""
    source_mutant(monkeypatch, equivalence, "check_localization_adjunction",
                  ("pairs == s * objects + t", "pairs == t * objects + s"))
    report = equivalence.check_localization_adjunction(2, "para")
    assert failure_kinds(report) == {"not-fully-faithful"}


def test_unit_followed_by_the_successor_is_caught(monkeypatch):
    """``quotient_by_relation`` returning the projection followed by the
    quotient's successor automorphism: the unit is still a morphism, but
    the quotient of the unit is not the identity (triangle-L), nor is the
    unit at a parasimplex with its least relation (triangle-R)."""
    namespace = source_mutant(
        monkeypatch, preord, "quotient_by_relation",
        ("return quotient, ParaMap.from_values(base, quotient, values)",
         "return quotient, compose(quotient.successor_map(),\n"
         "                         ParaMap.from_values(base, quotient, values))"))
    monkeypatch.setattr(equivalence, "quotient_by_relation", namespace["quotient_by_relation"])
    report = check_localization_adjunction(3, "para")
    assert failure_kinds(report) == {"triangle-L", "triangle-R"}


def test_shifted_class_table_is_caught(monkeypatch):
    post_init = ParaPreorder.__post_init__

    def mutant(self):
        post_init(self)
        table = self._class_of
        object.__setattr__(self, "_class_of", table[1:] + table[:1])

    monkeypatch.setattr(ParaPreorder, "__post_init__", mutant)
    assert class_oracle_mismatches(preorders_up_to(6))


def test_boundary_counted_at_its_own_class_is_caught(monkeypatch):
    """quotient_class counting the surviving boundaries b <= c in place of
    b < c: every surviving boundary moves up by one class."""

    def mutant(self, abs_index):
        period, c = divmod(self.base.class_position(abs_index), self.base.num_classes)
        return period * len(self.gaps) + sum(1 for b in self.gaps if b <= c)

    monkeypatch.setattr(ConvexRelation, "quotient_class", mutant)
    assert relation_oracle_mismatches([ParaPreorder.from_parasimplex(1)])


def test_comparison_memo_keyed_on_relation_alone_is_caught(monkeypatch):
    """comparison_map memoized on the relation alone, so that every morphism
    into a base reads the comparison of the first one.  The realization
    plan reads comparison_map once per truncation, so the plan is rebuilt
    here under the mutant, in a memo of its own: the mutant is reached
    whatever ran before, and the shared plan is left as it was."""
    compute = equivalence.comparison_map
    memo = {}

    def mutant(r, rel):
        if rel not in memo:
            memo[rel] = compute(r, rel)
        return memo[rel]

    monkeypatch.setattr(equivalence, "comparison_map", mutant)
    monkeypatch.setattr(equivalence, "realization_plan",
                        functools.cache(equivalence.realization_plan.__wrapped__))
    field = PrimeField(101)
    # a surjection cell: the automorphisms of Par(n) act on it faithfully,
    # so comparisons along different morphisms differ
    rep = cell_rep(1, 3, field, 2)
    recovered = recover_rep(realize_system(rep), 2)
    assert any(
        not field.equal(mat, recovered.gen[key][values])
        for key, table in rep.gen.items() for values, mat in table.items()
    ) or any(not field.equal(s, t) for s, t in zip(rep.shifts, recovered.shifts))


def test_comparison_read_from_the_neighbouring_map_is_caught(monkeypatch):
    """Every comparison of the realization plan numbered as the next
    distinct comparison map of the same parasimplex, cyclically (so the
    shapes still fit): criterion 7's round trip goes red."""
    plan = equivalence.realization_plan.__wrapped__(3)
    by_size = {}
    for i, q in enumerate(plan.maps):
        by_size.setdefault(q.src, []).append(i)
    neighbour = {group[j]: group[(j + 1) % len(group)]
                 for group in by_size.values() for j in range(len(group))}
    assert all(neighbour[i] != i for i in neighbour)
    comparisons = {r: {key: neighbour[i] for key, i in numbers.items()}
                   for r, numbers in plan.comparisons.items()}
    mutant = dataclasses.replace(plan, comparisons=comparisons)
    monkeypatch.setattr(equivalence, "realization_plan", lambda N: mutant)
    report = selftest.criterion_7(0)
    assert not report["passed"]
    assert any(failure[2] in ("generator", "shift") for failure in report["details"]["failures"])


def test_kernel_of_the_neighbouring_surjection_is_caught(monkeypatch):
    """Every surjection of the realization plan given the kernel relation
    of the next surjection in its hom-set, cyclically: recover_rep reads the
    wrong structure maps, and the round trip goes red."""
    plan = equivalence.realization_plan.__wrapped__(2)
    kernels = {key: tuple((values, r, rows[(j + 1) % len(rows)][2])
                          for j, (values, r, _) in enumerate(rows))
               for key, rows in plan.kernels.items()}
    assert kernels != plan.kernels
    mutant = dataclasses.replace(plan, kernels=kernels)
    monkeypatch.setattr(equivalence, "realization_plan", lambda N: mutant)
    field = PrimeField(101)
    rep = random_rep(random.Random(0), field, 2)
    recovered = recover_rep(realize_system(rep), 2)
    assert any(not field.equal(mat, recovered.gen[key][values])
               for key, table in rep.gen.items() for values, mat in table.items())


def dualize_map_min(f: ParaMap) -> ParaMap:
    """The min formula f^v(x') = min { x | f(x) >= x' }: also a retraction
    duality, but its square is conjugation by the successor, not the
    predecessor."""
    src_period, tgt_period = f.src.period, f.tgt.period
    raw = []
    for x_prime in range(tgt_period):
        # smallest k with values[a] + (k + shift) * tgt_period >= x'
        raw.append(min(
            (-((f.values[a] - x_prime) // tgt_period) - f.shift) * src_period + a
            for a in range(src_period)
        ))
    return ParaMap.from_values(f.tgt, f.src, raw)


def test_min_formula_duality_is_caught(monkeypatch):
    monkeypatch.setattr(paracat, "dualize_map", dualize_map_min)
    monkeypatch.setattr(selftest, "dualize_map", dualize_map_min)
    details = selftest.criterion_3(0)["details"]
    assert details["clauses"]["swaps_classification"]
    assert details["clauses"]["retraction_for_injections"]
    assert not details["laws"]["double_dual_is_successor_conjugation"]


def test_shifted_quotient_without_its_shift_is_caught(monkeypatch):
    induced = equivalence.induced_on_quotients
    monkeypatch.setattr(equivalence, "induced_on_quotients",
                        lambda r, rel_src, rel_tgt: induced(r.canonical(), rel_src, rel_tgt))
    report = check_localization_adjunction(2, "para")
    assert "shift-equivariance" in failure_kinds(report)


def test_quotient_classes_read_on_the_source_are_caught(monkeypatch):
    """induced_on_quotients reading each class through the source relation
    in place of the target's: at N = 2 the values form no monotone map."""

    def mutant(r, rel_src, rel_tgt):
        values = tuple(rel_src.quotient_class(r(slot))
                       for slot in equivalence._quotient_class_representatives(rel_src))
        return ParaMap.from_values(Parasimplex(len(rel_src.gaps) - 1),
                                   Parasimplex(len(rel_tgt.gaps) - 1), values)

    monkeypatch.setattr(equivalence, "induced_on_quotients", mutant)
    with pytest.raises(NotMonotone):
        check_localization_adjunction(2, "para")


def preord_maps_mutant(monkeypatch, *edits):
    """``enumerate_preord_maps`` rebuilt by ``source_mutant`` with ``edits``
    and bound in ``preord``, ``equivalence``, ``selftest`` and
    ``test_preord``; the rebuilt function has a memo of its own."""
    namespace = source_mutant(monkeypatch, preord, "enumerate_preord_maps", *edits)
    for module in (equivalence, selftest, test_preord):
        monkeypatch.setattr(module, "enumerate_preord_maps", namespace["enumerate_preord_maps"])


ALL_CLASS_MAPS = ('enumerate_hom(src.k, tgt.k, "surj")', 'enumerate_hom(src.k, tgt.k, "all")')


def test_morphisms_that_miss_a_class_are_caught(monkeypatch):
    """The enumeration reading every class map of ``enumerate_hom``, with
    ``is_valid_morphism`` without its essential surjectivity: every ParaMap
    between preorders counts as a morphism.  Between parasimplices the
    enumerated morphisms are then all maps, not just the surjections, and
    the full-faithfulness comparison of the adjunction check goes red.  The
    memos built on the enumeration are emptied before and after."""
    memos = (preord.enumerate_preord_maps, equivalence.build_conv_tilde)
    for memo in memos:
        memo.cache_clear()
    monkeypatch.setattr(preord, "is_valid_morphism", ParaMap.from_values)
    preord_maps_mutant(monkeypatch, ALL_CLASS_MAPS)
    try:
        report = check_localization_adjunction(2, "para")
    finally:
        monkeypatch.undo()
        for memo in memos:
            memo.cache_clear()
    assert "not-fully-faithful" in failure_kinds(report)


def test_class_maps_that_are_not_surjections_are_refused(monkeypatch):
    """The enumeration reading every class map of ``enumerate_hom``:
    ``is_valid_morphism`` refuses the first one that misses a class."""
    preord_maps_mutant(monkeypatch, ALL_CLASS_MAPS)
    with pytest.raises(NotEssentiallySurjective):
        preord.enumerate_preord_maps(Parasimplex(1), Parasimplex(1))


def test_maps_left_in_class_map_order_are_caught(monkeypatch):
    """The enumeration without its final sort lists the maps of each class
    surjection together, which is not the order of values once the first
    element can reach more than one element of its class: 61 of the 225
    pairs of period <= 4 come out reordered, caught by the ordered
    comparison with the search."""
    preord_maps_mutant(monkeypatch, ("return tuple(sorted(maps, key=lambda f: f.values))",
                                     "return tuple(maps)"))
    with pytest.raises(AssertionError):
        test_preord.TestValidationByKind().test_enumeration_matches_the_search_in_order()


# The memos built on enumerate_hom, emptied around a mutant of it.
HOM_MEMOS = (paracat.composition_table, equivalence.realization_plan,
             equivalence.build_conv_tilde, preord.enumerate_preord_maps)


@pytest.fixture
def hom_mutant(monkeypatch):
    """``paracat._hom_set``, the memo behind ``enumerate_hom``, rebuilt by
    ``source_mutant`` with the given edits, with a memo of its own.  The
    memos built on ``enumerate_hom`` are emptied before, so that they are
    built under the mutant, and after, so that none of them is left
    behind."""
    def patch(*edits):
        for memo in HOM_MEMOS:
            memo.cache_clear()
        source_mutant(monkeypatch, paracat, "_hom_set", *edits)

    yield patch
    monkeypatch.undo()
    for memo in HOM_MEMOS:
        memo.cache_clear()


def test_surjections_left_in_descending_order_are_caught(hom_mutant):
    """``enumerate_hom`` without the reversal of its choices of unit steps
    lists the surjections of each lead in descending order.  No criterion
    reads this order: under this mutant all nine verdicts of ``selftest``
    stayed as they were.  The ordered comparison with the oracle goes red."""
    hom_mutant(("reversed(list(itertools.combinations(range(m + 1), n + 1)))",
                "itertools.combinations(range(m + 1), n + 1)"))
    with pytest.raises(AssertionError):
        test_paracat.TestEnumerateHom().test_every_kind_in_the_oracle_order(2, 1)


def test_surjections_without_a_unit_wrap_step_are_caught(hom_mutant):
    """``enumerate_hom`` choosing the unit steps of a surjection among the
    first m only: every surjection it lists ends on its lead plus the
    period, so the identities are missing.  Criterion 6 finds them
    unmarked, and criterion 7's realizations ask for matrices that the
    drawn reps do not have."""
    hom_mutant(("combinations(range(m + 1), n + 1)", "combinations(range(m), n + 1)"))
    details = selftest.criterion_6(0)["details"]
    assert "identity-not-marked" in {f[0] for report in details.values() for f in report["failures"]}
    report = selftest.criterion_7(0)
    assert not report["passed"]
    assert all("no matrix for the map" in f[2] for f in report["details"]["failures"])


def test_torn_classes_are_caught(monkeypatch):
    """ParaMap validating every source as the parasimplex of its period, so
    that a class of the source may be torn apart.  Pulling a relation back
    along such a map can then merge every boundary, which no convex
    relation does (``TestPullbackRelation::test_never_total`` goes red, and
    so does the oracle comparison of ``TestValidationByKind``)."""
    post_init = ParaMap.__post_init__

    def mutant(self):
        post_init(SimpleNamespace(src=Parasimplex(self.src.period - 1),
                                  tgt=self.tgt, values=self.values))

    monkeypatch.setattr(ParaMap, "__post_init__", mutant)
    src, tgt = ParaPreorder((2,)), Parasimplex(1)
    torn = is_valid_morphism(src, tgt, (0, 1))
    with pytest.raises(MalformedInput, match="non-empty"):
        pullback_relation(torn, ConvexRelation(tgt, frozenset({0})))


def test_doubled_restrictions_are_caught(monkeypatch):
    """``gluing_check`` reading twice the coordinates its restrictions
    gather from the verified section table: every shape and dimension stays
    right over F_5, so only the comparison of the composite restrictions
    with the direct one (``restrictions_agree``) and the oracle's expected
    report catch it."""
    source_mutant(monkeypatch, consheaf, "gluing_check",
                  ("gathered = table.restrictions(big, small)",
                   "gathered = sheaf.field.reduce(2 * table.restrictions(big, small))"))
    monkeypatch.setattr(test_consheaf, "gluing_check", consheaf.gluing_check)
    base = ParaPreorder.from_parasimplex(2)
    upsets = consheaf.enumerate_upsets(base)
    sheaf = nonzero_sheaf(random.Random(53), base, PrimeField(5))
    pairs = [(u1, u2) for i, u1 in enumerate(upsets) for u2 in upsets[i:]]
    reports = [consheaf.gluing_check(sheaf, u1, u2) for u1, u2 in pairs]
    assert any(not r["restrictions_agree"] and r["dim_union"] == r["dim_fiber_product"]
               for r in reports)
    with pytest.raises(AssertionError):
        test_consheaf.TestGluingOracle.check_pairs(sheaf, pairs, 5)


def test_basis_broken_off_its_own_checks_is_caught(monkeypatch):
    """The sections (1, 1, 1) of the constant sheaf over Par(2) on
    U = {(0, 1), (0,), (1,)} read as (2, 1, 1), which is no section.  The 2
    sits on U's one minimal stratum, which U's covering pair onto
    {(0,), (1,)} drops, and off U's free column, so the checks from U,
    onto itself and onto what it covers, pass.  The restrictions onto U
    now rebuild (2, 1, 1) where they should rebuild (1, 1, 1); among them
    is the one from the whole space, which the gluing of (U, whole space)
    reads and the table never checks, as it is no covering pair.  The
    build catches it through transitivity, at the covering pair into U."""
    base = ParaPreorder.from_parasimplex(2)
    corrupted = consheaf.up_closure(base, [(0, 1)])
    compute = consheaf.sections

    def mutant(sheaf, open_set):
        space = compute(sheaf, open_set)
        if open_set.mask == corrupted.mask:
            assert space.layout[0] == (0, 1) and space.basis.tolist() == [[1, 1, 1]]
            basis = space.field.matrix([[2, 1, 1]])
            space = consheaf.SectionSpace(space.field, space.layout, space.offsets, basis)
        return space

    monkeypatch.setattr(consheaf, "sections", mutant)
    sheaf = consheaf.constant_sheaf(base, PrimeField(5), 1)
    with pytest.raises(NotFunctorial):
        consheaf.gluing_check(sheaf, corrupted, consheaf.whole_space(base))
    with pytest.raises(NotFunctorial):
        list(consheaf.gluing_rows(sheaf))


def test_corrupted_sections_are_reported_by_criterion_8(monkeypatch):
    """Every section basis read with its first row doubled at its own free
    column, so no up-set with sections passes its check onto itself:
    criterion 8 reports each sheaf with sections as a failure
    (n, trial, message) and does not raise."""
    compute = consheaf.sections

    def mutant(sheaf, open_set):
        space = compute(sheaf, open_set)
        if space.dim:
            basis = space.basis.copy()
            basis[0, np.flatnonzero(basis[0])[-1]] *= 2
            space = consheaf.SectionSpace(space.field, space.layout, space.offsets, basis)
        return space

    monkeypatch.setattr(consheaf, "sections", mutant)
    report = selftest.criterion_8(0)
    assert report["passed"] is False
    assert report["details"]["failures"]
    assert all(len(f) == 3 and f[2] == "restriction of a section is not a section"
               for f in report["details"]["failures"])


def row_gluing_failures(n):
    """The number of pairs that ``gluing_rows`` reports failing on one
    valid sheaf over Par(n)."""
    sheaf = nonzero_sheaf(random.Random(53), Parasimplex(n), PrimeField(5))
    return sum(int((~row.passed).sum()) for row in consheaf.gluing_rows(sheaf))


def test_free_columns_read_one_column_on_are_caught(monkeypatch):
    """Each restriction's coordinates read from the column after each free
    column of the smaller up-set (column T, which is zero, after the
    last).  On a valid sheaf over Par(1) the coordinates then rebuild no
    section, and the section table's build raises."""
    source_mutant(monkeypatch, consheaf.SectionTable, "restrictions",
                  ("self.free[small][:, None, :]",
                   "np.minimum(self.free[small] + 1, self.basis.shape[2] - 1)[:, None, :]"))
    with pytest.raises(NotFunctorial):
        row_gluing_failures(1)


def test_intersection_positions_off_by_one_are_caught(monkeypatch):
    """Each intersection's position read one place on, cyclically: over
    Par(0), whose two up-sets give three pairs, a pair fails."""
    positions = consheaf._row_positions

    def mutant(masks, i):
        union, inter = positions(masks, i)
        return union, (inter + 1) % len(masks)

    monkeypatch.setattr(consheaf, "_row_positions", mutant)
    assert row_gluing_failures(0)


def test_arithmetic_skipped_at_one_dimensional_overlaps_is_caught(monkeypatch):
    """The row gluing taking the direct sum as the fiber product wherever
    the overlap has at most one dimension of sections, not only none.
    The mutant is ``_glue_row``'s own source, the row of ``gluing_rows``,
    with that one condition changed; pairs over Par(1) then fail."""
    source = inspect.getsource(consheaf._glue_row)
    shortcut = "np.flatnonzero(dim_overlap)"
    assert source.count(shortcut) == 1
    namespace = dict(vars(consheaf))
    exec(source.replace(shortcut, "np.flatnonzero(dim_overlap > 1)"), namespace)
    monkeypatch.setattr(consheaf, "_glue_row", namespace["_glue_row"])
    assert row_gluing_failures(1)


def source_mutant(monkeypatch, owner, name, *edits):
    """``owner.name`` rebuilt from its own source, in a copy of its module's
    namespace taken now, with each (old, new) of ``edits`` applied: ``old``,
    which must occur once, replaced by ``new``; returns that namespace."""
    original = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(original))
    for old, new in edits:
        assert source.count(old) == 1
        source = source.replace(old, new)
    namespace = dict(vars(inspect.getmodule(original)))
    exec(source, namespace)
    monkeypatch.setattr(owner, name, namespace[name])
    return namespace


def test_stacked_elimination_without_its_row_swap_is_caught(monkeypatch):
    """``Field.stacked_rank`` without its row swap.  The first column's
    pivot sits in the second row, so the first row, zero there, is taken
    for the pivot row, and the third row is scaled by its zero lead: the
    rank comes out 2, not 3.  On the valid sheaves tried, ``gluing_rows``
    reported no failing pair under this mutant, so the check is the oracle
    rank."""
    source_mutant(monkeypatch, _linalg.Field, "stacked_rank",
                  ("mat[live, top], mat[live, pivot] = mat[live, pivot], mat[live, top]\n", "\n"))
    field = PrimeField(101)
    stack = field.matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]).reshape(1, 3, 3)
    assert field.stacked_rank(stack).tolist() != [len(oracle_rref_mod(stack[0].tolist(), 101)[1])]


# The five restrictions of each arithmetic pair read as twice the
# coordinates gathered from the verified section table: every shape,
# dimension and rank stays right over F_5.
DOUBLED_GATHER = ("np.split(gathered, 5)", "np.split(fld.reduce(2 * gathered), 5)")


def rows_flag_restrictions_alone():
    """Whether ``gluing_rows`` reports, on a valid sheaf over Par(2), a pair
    whose restrictions disagree though its dimensions are right."""
    sheaf = nonzero_sheaf(random.Random(53), Parasimplex(2), PrimeField(5))
    return any(not row.restrictions_agree[k] and row.dim_union[k] == row.dim_fiber_product[k]
               for row in consheaf.gluing_rows(sheaf) for k in range(len(row.passed)))


def test_doubled_gathers_are_caught_by_the_rows(monkeypatch):
    source_mutant(monkeypatch, consheaf, "_glue_row", DOUBLED_GATHER)
    assert rows_flag_restrictions_alone()


def test_composites_compared_only_with_each_other_are_caught(monkeypatch):
    """``gluing_rows`` comparing the two composite restrictions with each
    other but not with the direct one.  Under doubled gathers both
    composites are four times the true one and the direct one twice, so
    the check of ``test_doubled_gathers_are_caught_by_the_rows`` goes red."""
    source_mutant(monkeypatch, consheaf, "_glue_row", DOUBLED_GATHER,
                  ("(via_left == r_ut) & (via_right == r_ut)", "via_left == via_right"))
    assert not rows_flag_restrictions_alone()


def test_doubled_gathers_fail_criterion_8_pair_by_pair(monkeypatch):
    """Under doubled gathers criterion 8 reports each failing pair as
    (n, trial, left up-set, right up-set, report), its first three kept,
    and each report has restrictions that disagree."""
    source_mutant(monkeypatch, consheaf, "_glue_row", DOUBLED_GATHER)
    report = selftest.criterion_8(0)
    failures = report["details"]["failures"]
    assert not report["passed"] and len(failures) == 3
    assert all(len(f) == 5 and f[4]["restrictions_agree"] is False for f in failures)


def test_constraint_rows_with_one_end_inside_are_caught(monkeypatch):
    """``sections`` taking the constraint rows of every edge with one end in
    the up-set, not both: the other end's columns are dropped, so the row
    asks the kept end alone to vanish.  Sections over Par(2) then differ
    from the list-built constraints."""
    source_mutant(monkeypatch, consheaf, "sections",
                  ("inside[system.row_ends].all(axis=1)", "inside[system.row_ends].any(axis=1)"))
    assert section_mismatches(nonzero_sheaf(random.Random(53), Parasimplex(2), PrimeField(5)), 5)


def test_column_mask_shifted_by_one_stratum_is_caught(monkeypatch):
    """``sections`` taking the columns of each stratum when the stratum
    before it in ``strata(base).keys`` is in the up-set.  Sections over
    Par(2) then differ from the list-built constraints."""
    source_mutant(monkeypatch, consheaf, "sections",
                  ("inside[system.column_stratum]", "inside[system.column_stratum - 1]"))
    assert section_mismatches(nonzero_sheaf(random.Random(53), Parasimplex(2), PrimeField(5)), 5)


def enumerate_upsets_any_face(base):
    """enumerate_upsets adding a stratum when any one of its faces is a
    member, not all of them."""
    poset = consheaf.strata(base)
    bit = poset.bit
    masks = [0]
    for key in sorted(poset.keys, key=len):
        faces = sum(bit[face] for face in poset.faces[key].values())
        masks += [m | bit[key] for m in masks if m & faces or not faces]
    return [UpSet._closed(base, frozenset(k for k in poset.keys if m & bit[k]), m)
            for m in sorted(masks)]


def test_up_sets_from_any_one_face_are_caught(monkeypatch):
    monkeypatch.setattr(consheaf, "enumerate_upsets", enumerate_upsets_any_face)
    base = ParaPreorder.from_parasimplex(1)
    keys = [gap_key(rel) for rel in enumerate_conv(base)]
    found = [up.members for up in consheaf.enumerate_upsets(base)]
    assert found != oracle_upsets_by_mask(keys)


def test_faces_dropping_the_wrong_gap_are_caught(monkeypatch):
    """strata whose faces[key][b] drop the key's first gap, whatever b is.
    The up-set enumeration then takes sets that are not upward closed, such
    as {(0, 1), (1,)} over Par(1): the mask-scan comparison of
    ``TestUpSets::test_enumerate_matches_mask_scan_in_order`` goes red, and
    so does the subset oracle of ``TestStrata``.  The constructor accepts
    that set, so its second case in ``TestUpSets::test_rejects_non_upward_closed``
    goes red too; {(0, 1)} alone is still refused."""
    build = consheaf.strata.__wrapped__

    def mutant(base):
        poset = build(base)
        faces = {key: {b: key[1:] for b in face} for key, face in poset.faces.items()}
        return dataclasses.replace(poset, faces=faces)

    monkeypatch.setattr(consheaf, "strata", mutant)
    monkeypatch.setattr(consheaf, "_upsets_by_mask",
                        functools.cache(consheaf._upsets_by_mask.__wrapped__))
    base = ParaPreorder.from_parasimplex(1)
    keys = [gap_key(rel) for rel in enumerate_conv(base)]
    found = [up.members for up in consheaf.enumerate_upsets(base)]
    assert found != oracle_upsets_by_mask(keys)
    assert "faces" in strata_mismatches(base, consheaf.strata(base))
    assert UpSet(base, frozenset({(0, 1), (1,)})).members == {(0, 1), (1,)}


def test_constructor_mask_shifted_by_one_is_caught(monkeypatch):
    """The constructor numbering stratum i by bit i + 1, while the
    enumeration, meets and joins keep bit i."""
    post_init = UpSet.__post_init__

    def mutant(self):
        post_init(self)
        object.__setattr__(self, "mask", self.mask << 1)

    monkeypatch.setattr(UpSet, "__post_init__", mutant)
    assert mask_mismatches(ParaPreorder.from_parasimplex(1))


def float_path_matmul(reduce):
    """PrimeField.matmul whose float64 BLAS path ends in ``reduce`` in place
    of the int64 ``% p``; the int64 and Python-int paths are unchanged."""
    matmul = PrimeField.matmul

    def mutant(self, a, b):
        m, k = a.shape
        if m * k * b.shape[1] >= BLAS_MIN_MULTS:
            if k * int(np.abs(a).max()) * int(np.abs(b).max()) < 2 ** 53:
                product = a.astype(np.float64) @ b.astype(np.float64)
                return reduce(product.astype(np.int64), self.p)
        return matmul(self, a, b)

    return mutant


def float_product_is_wrong(p):
    """Whether a product at the BLAS crossover, with a negated left operand
    as a cone block has before reduction, disagrees with the oracle."""
    rng = np.random.default_rng(p)
    side = round(BLAS_MIN_MULTS ** (1 / 3))
    a = -rng.integers(0, p, size=(side, side), dtype=np.int64)
    b = rng.integers(0, p, size=(side, side), dtype=np.int64)
    expected = np.array(oracle_matmul_mod(a.tolist(), b.tolist(), p, side), dtype=np.int64)
    return not np.array_equal(PrimeField(p).matmul(a, b), expected)


def test_float_path_reduced_by_fmod_is_caught(monkeypatch):
    monkeypatch.setattr(PrimeField, "matmul", float_path_matmul(np.fmod))
    assert float_product_is_wrong(101)


def test_float_path_without_its_final_reduction_is_caught(monkeypatch):
    monkeypatch.setattr(PrimeField, "matmul", float_path_matmul(lambda product, p: product))
    assert float_product_is_wrong(101)


def test_row_loop_without_reduce_is_caught(monkeypatch):
    """The row-by-row elimination with every ``reduce`` a no-op, at p = 101."""
    monkeypatch.setattr(PrimeField, "reduce", lambda self, a: a)
    rng = np.random.default_rng(101)
    a = rng.integers(0, 101, size=(VECTOR_MIN_ROWS - 1, VECTOR_MIN_ROWS + 2), dtype=np.int64)
    reduced, pivots = PrimeField(101).rref(a)
    assert (reduced.tolist(), pivots) != oracle_rref_mod(a.tolist(), 101)


matmul_q = Rationals.matmul


def left_scale_only_matmul(self, a, b):
    """Rationals.matmul whose integer product is divided by the left
    operand's scale alone; products below the crossover are unchanged."""
    if a.shape[0] * a.shape[1] * b.shape[1] < Q_INT_MIN_MULTS:
        return matmul_q(self, a, b)
    left, left_scale = _linalg._integer_scaled(a.ravel().tolist())
    right, _ = _linalg._integer_scaled(b.ravel().tolist())
    product = _linalg._object_array(left, a.shape) @ _linalg._object_array(right, b.shape)
    return self.matrix([[Fraction(x, left_scale) for x in row] for row in product.tolist()])


def test_q_product_divided_by_the_left_scale_only_is_caught(monkeypatch):
    """A product at the crossover whose right operand has denominators."""
    monkeypatch.setattr(Rationals, "matmul", left_scale_only_matmul)
    a = QQ.matrix([[Fraction(1, 2), 3], [-1, Fraction(2, 3)]])
    b = QQ.matrix([[Fraction(1, 5)] * Q_INT_MIN_MULTS, [2] * Q_INT_MIN_MULTS])
    expected = oracle_matmul_fraction(a.tolist(), b.tolist(), b.shape[1])
    assert QQ.matmul(a, b).tolist() != expected


def test_q_elimination_without_its_division_pass_is_caught(monkeypatch):
    """The integer rows handed back as they are: the first pivot stays 2,
    because the first row is primitive, 2 1 0."""
    monkeypatch.setattr(Rationals, "_unit_pivots", lambda self, mat, pivots, cols:
                        _linalg._object_array([Fraction(y) for row in mat for y in row],
                                              (len(mat), cols)))
    a = QQ.matrix([[2, 1, 0], [4, 2, 3], [Fraction(1, 2), Fraction(1, 4), 0]])
    reduced, pivots = QQ.rref(a)
    assert (reduced.tolist(), pivots) != oracle_rref_fraction(a.tolist())


def test_cones_of_single_steps_are_caught(monkeypatch):
    quotients = sdot._quotients_by_first

    def mutant(filtration):
        composites, _, maps = quotients(filtration)
        return composites, [sdot.cone(step) for step in filtration.maps], maps

    monkeypatch.setattr(sdot, "_quotients_by_first", mutant)
    filt = random_filtration(random.Random(38), PrimeField(101), 3)
    with pytest.raises(ValueError, match="does not connect"):
        face(filt, 0)


def test_shift_without_negation_is_caught(monkeypatch):
    """``sdot.shift`` that swaps the degrees but keeps the signs.  Over F_2
    the two agree, so only an odd characteristic can catch it: the
    connecting map of a cone then stops commuting with the differentials."""
    monkeypatch.setattr(sdot, "shift", lambda x: sdot.TwoPeriodicComplex(x.field, x.d1, x.d0))
    filt = random_filtration(random.Random(0), PrimeField(101), 3)
    with pytest.raises(NotAComplex):
        sdot.rotate(filt)


def test_long_exact_sequence_without_the_degree_swap_is_caught(monkeypatch):
    """The cone's homology read with the source's degrees left unswapped:
    h_0(X) where h_1(X) belongs, and the other way round.  The cone oracle
    comparison ``TestFingerprint::test_matches_the_cone_oracle`` goes red,
    and so does criterion 9, which compares each fingerprint with one built
    from the cones."""
    def mutant(src, tgt, ranks):
        (x0, x1), (y0, y1), (r0, r1) = src, tgt, ranks
        return (y0 - r0 + x0 - r1, y1 - r1 + x1 - r0)

    monkeypatch.setattr(sdot, "_cone_homology", mutant)
    assert fingerprint_mismatches(PrimeField(101))
    assert not selftest.criterion_9(0)["passed"]


def test_homology_representatives_not_reduced_modulo_boundaries_are_caught(monkeypatch):
    """Every kernel coordinate taken as a representative of H, the
    boundaries' echelon skipped: wherever B is smaller than Z the steps
    then count dim Z.  The cone oracle comparison
    ``TestFingerprint::test_matches_the_cone_oracle`` goes red."""
    source_mutant(monkeypatch, sdot, "_degree_homology",
                  ("_echelon(field, boundaries)", "(boundaries[:0], [])"))
    assert fingerprint_mismatches(PrimeField(101))


def test_boundaries_read_at_the_pivot_columns_are_caught(monkeypatch):
    """The boundaries' kernel coordinates read at the pivot column of each
    kernel basis row, its first nonzero entry, instead of its free column,
    its last; the two differ wherever a row has an entry at a pivot of the
    differential.  The cone oracle comparison
    ``TestFingerprint::test_matches_the_cone_oracle`` goes red."""
    source_mutant(monkeypatch, sdot, "_degree_homology",
                  ("np.ix_(free, in_pivots)",
                   "np.ix_([int(np.flatnonzero(row)[0]) for row in kernel], in_pivots)"))
    assert fingerprint_mismatches(PrimeField(101))


@pytest.fixture
def patch_tables(monkeypatch):
    """Patch a helper of ``paracat``, there and in ``equivalence`` where it
    is imported, and empty the table memo, so that the tables are built
    under the mutant; the memo is emptied again afterwards, so that none of
    them is left behind."""
    def patch(name, mutant):
        monkeypatch.setattr(paracat, name, mutant)
        if hasattr(equivalence, name):
            monkeypatch.setattr(equivalence, name, mutant)
        paracat.composition_table.cache_clear()

    yield patch
    monkeypatch.undo()
    paracat.composition_table.cache_clear()


def test_composition_tables_without_their_wrap_are_caught(patch_tables):
    """Composites whose wrap is always 0.  Units and associativity hold for
    the tables (every wrap reads 0 on both sides); criterion 2's comparison
    of each scalar composite's shift with wrap + the offsets goes red."""
    rows = paracat.compose_rows

    def mutant(g, f, p_b, p_c):
        values, wrap = rows(g, f, p_b, p_c)
        return values, np.zeros_like(wrap)

    patch_tables("compose_rows", mutant)
    report = selftest.criterion_2(0)
    assert not report["passed"]
    assert failure_kinds(report["details"]) == {"table"}


def criterion_2_with_one_cell(monkeypatch, key, edit):
    """``selftest.criterion_2(0)`` with the composition table of the triple
    ``key`` replaced by a copy that ``edit(idx, wrap)`` changes; the memo
    keeps the table as built."""
    table = selftest.composition_table

    def mutant(a, b, c, kind="all"):
        idx, wrap = table(a, b, c, kind)
        if (a, b, c) == key:
            idx, wrap = idx.copy(), wrap.copy()
            edit(idx, wrap)
        return idx, wrap

    monkeypatch.setattr(selftest, "composition_table", mutant)
    report = selftest.criterion_2(0)
    assert not report["passed"]
    return failure_kinds(report["details"])


def test_a_composite_re_pointed_to_another_map_is_caught(monkeypatch):
    """One cell of the table of Par(3) -> Par(3) -> Par(3) names the next
    map of H(3, 3).  Only the seeded scalar draws reach that table, after
    the exhaustive associativity check has reported it."""
    def edit(idx, wrap):
        idx[0, 0] = (idx[0, 0] + 1) % idx.shape[1]

    assert criterion_2_with_one_cell(monkeypatch, (3, 3, 3), edit) == {"associativity"}


def test_a_flipped_wrap_is_caught(monkeypatch):
    """One cell's wrap flipped between 0 and 1: its packed code moves to
    the other wrap of the same map, and associativity goes red."""
    def edit(idx, wrap):
        wrap[0, 0] ^= 1

    assert criterion_2_with_one_cell(monkeypatch, (1, 2, 3), edit) == {"associativity"}


def test_a_cell_repacked_to_its_own_code_is_caught(monkeypatch):
    """One cell moved one position on and its wrap 4 down, which leaves its
    packed code, 4 * position + wrap, as it was.  The wrap is outside
    {0, 1}, so the table is reported unpackable and no quadruple reading
    it is packed."""
    def edit(idx, wrap):
        idx[0, 0] += 1
        wrap[0, 0] -= 4

    assert criterion_2_with_one_cell(monkeypatch, (3, 3, 3), edit) == {"unpackable"}


def test_compose_without_the_inner_shift_is_caught(monkeypatch):
    """The scalar ``compose`` dropping f.shift from the composite's shift:
    each composite with a shifted inner factor disagrees with the table's
    wrap + the offsets."""
    namespace = source_mutant(monkeypatch, paracat, "compose",
                              ("lead + g.shift + f.shift", "lead + g.shift"))
    monkeypatch.setattr(selftest, "compose", namespace["compose"])
    report = selftest.criterion_2(0)
    assert not report["passed"]
    assert failure_kinds(report["details"]) == {"table"}


def test_codes_summing_their_digits_are_caught(monkeypatch, patch_tables):
    """``paracat.row_codes`` with every digit weighted 1: distinct value
    rows of one hom-set share a code."""
    namespace = source_mutant(monkeypatch, paracat, "row_codes",
                              ("[prod(radix[k + 1:]) for", "[1 for"))
    patch_tables("row_codes", namespace["row_codes"])
    assert code_collisions()


def test_rank_lookup_off_by_one_is_caught(patch_tables):
    """Each composite's position read one place on, cyclically, against a
    surjection cell, on which the maps of each hom-set act differently."""
    positions = paracat._positions

    def mutant(rows, queries, c):
        return (positions(rows, queries, c) + 1) % len(rows)

    rep = cell_rep(1, 3, PrimeField(101), 2)
    patch_tables("_positions", mutant)
    assert any(v[0] == "composition" for v in validate_rep(rep)["violations"])


def test_blocks_assembled_with_i_and_j_swapped_are_caught(monkeypatch):
    """validate_rep's gathered blocks laid out f-major instead of g-major."""
    def mutant(blocks):
        rows, cols, p, q = blocks.shape
        return blocks.transpose(1, 2, 0, 3).reshape(rows * p, cols * q)

    rep = random_rep(random.Random(5), PrimeField(101), 2)
    monkeypatch.setattr(equivalence, "_block_matrix", mutant)
    assert any(v[0] == "composition" for v in validate_rep(rep)["violations"])
