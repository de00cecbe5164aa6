import itertools
import subprocess
import sys
from math import comb

import numpy as np
import pytest

from paracyclic import paracat
from paracyclic.errors import NotFunctorial, NotMonotone, ResourceBound, TypeMismatch
from paracyclic.paracat import (
    CycMap,
    ParaMap,
    ParaPreorder,
    Parasimplex,
    classify,
    compose,
    compose_cyc,
    composition_table,
    cyc_canonicalize,
    dualize_map,
    enumerate_hom,
    hom_count,
    shift_action,
)

from oracles import (
    is_injective,
    oracle_compose_values,
    oracle_hom_count,
    oracle_hom_values,
    oracle_hom_values_of_kind,
)


def all_maps(m, n, kind="all"):
    return [c.rep for c in enumerate_hom(m, n, kind)]


class TestParasimplex:
    def test_element_codec(self):
        par = Parasimplex(2)
        assert par.abs_of((0, 0)) == 0
        assert par.abs_of((1, 2)) == 5
        assert par.element_of(-1) == (-1, 2)

    def test_identity_and_shift(self):
        par = Parasimplex(2)
        ident = par.identity()
        assert ident.values == (0, 1, 2) and ident.shift == 0
        assert par.shift_map(3)(0) == 9

    def test_successor_is_an_automorphism(self):
        par = Parasimplex(1)
        succ = par.successor_map()
        assert classify(succ) == "both"
        assert compose(succ, succ) == par.shift_map(1)


class TestParaMapValidation:
    def test_rejects_non_monotone(self):
        with pytest.raises(NotMonotone):
            ParaMap(Parasimplex(1), Parasimplex(1), (1, 0), 0)

    def test_rejects_wrap_violation(self):
        with pytest.raises(NotMonotone):
            ParaMap(Parasimplex(1), Parasimplex(1), (0, 3), 0)

    def test_rejects_non_canonical(self):
        with pytest.raises(NotMonotone):
            ParaMap(Parasimplex(0), Parasimplex(1), (2,), 0)

    def test_from_values_normalizes(self):
        f = ParaMap.from_values(Parasimplex(1), Parasimplex(1), (3, 4))
        assert f.values == (1, 2) and f.shift == 1

    @pytest.mark.parametrize("m", range(4))
    @pytest.mark.parametrize("n", range(4))
    def test_accepts_exactly_the_oracle_homs(self, m, n):
        src, tgt = Parasimplex(m), Parasimplex(n)
        accepted = []
        for values in itertools.product(range(-(n + 1), 3 * (n + 1)), repeat=m + 1):
            try:
                accepted.append(ParaMap(src, tgt, values).values)
            except NotMonotone:
                pass
        assert accepted == sorted(oracle_hom_values(m, n))

    def test_json_round_trip(self):
        f = ParaMap(Parasimplex(1), Parasimplex(2), (1, 3), -2)
        assert ParaMap.from_json(f.to_json()) == f
        assert f.to_json()["values"] == [[0, 1], [1, 0]]

    def test_json_refuses_maps_of_other_preorders(self):
        f = ParaMap(ParaPreorder((2, 1)), Parasimplex(1), (0, 0, 1))
        with pytest.raises(TypeMismatch):
            f.to_json()


class TestCompose:
    def test_identity_neutral(self):
        for f in all_maps(1, 2):
            assert compose(Parasimplex(2).identity(), f) == f
            assert compose(f, Parasimplex(1).identity()) == f

    def test_shift_accumulates(self):
        par = Parasimplex(2)
        f = compose(par.shift_map(1), par.shift_map(1))
        assert f.canonical() == par.identity() and f.shift == 2

    def test_type_mismatch(self):
        with pytest.raises(TypeMismatch):
            compose(all_maps(1, 1)[0], all_maps(1, 2)[0])

    def test_surjection_composites_match_pointwise_oracle(self):
        surjections = all_maps(1, 0, "surj")
        injections = all_maps(0, 1, "inj")
        assert len(surjections) == 2 and len(injections) == 2
        for g in surjections:
            for f in injections:
                composite = compose(g, f)
                values, lead = oracle_compose_values(g.values, g.shift, f.values, f.shift, 0, 1, 0)
                assert composite.values == values and composite.shift == lead

    @pytest.mark.parametrize("m,n,p", [(0, 1, 0), (1, 1, 1), (2, 1, 2)])
    def test_compose_matches_pointwise_oracle(self, m, n, p):
        for g in all_maps(n, p):
            for f in all_maps(m, n):
                for kf, kg in [(0, 0), (1, -1), (2, 1)]:
                    fs, gs = shift_action(f, kf), shift_action(g, kg)
                    composite = compose(gs, fs)
                    values, lead = oracle_compose_values(
                        gs.values, gs.shift, fs.values, fs.shift, m, n, p
                    )
                    assert composite.values == values and composite.shift == lead

    def test_associative_exhaustive_small(self):
        maps01 = all_maps(0, 1)
        maps11 = all_maps(1, 1)
        maps10 = all_maps(1, 0)
        for f, g, h in itertools.product(maps01, maps11[:3], maps11):
            assert compose(h, compose(g, f)) == compose(compose(h, g), f)
        for f, g, h in itertools.product(maps11, maps10, maps01):
            assert compose(h, compose(g, f)) == compose(compose(h, g), f)


class TestClassify:
    def test_identity_both(self):
        assert classify(Parasimplex(2).identity()) == "both"

    def test_injection(self):
        f = ParaMap(Parasimplex(0), Parasimplex(1), (0,), 0)
        assert classify(f) == "injective"

    def test_constant_per_period_surjection(self):
        f = ParaMap(Parasimplex(1), Parasimplex(0), (0, 0), 0)
        # image meets every element of the target
        assert {f(x) for x in range(-4, 4)} >= {-1, 0, 1}
        assert classify(f) == "surjective"


class TestEnumerateHom:
    @pytest.mark.parametrize("m", range(4))
    @pytest.mark.parametrize("n", range(4))
    def test_count_matches_closed_form_and_oracle(self, m, n):
        reps = enumerate_hom(m, n)
        assert len(reps) == (m + 1) * comb(m + n + 1, m + 1)
        assert len(reps) == oracle_hom_count(m, n)
        assert len(set(reps)) == len(reps)
        assert sorted(r.values for r in reps) == sorted(oracle_hom_values(m, n))

    def test_known_small_counts(self):
        assert len(enumerate_hom(0, 0)) == 1
        assert len(enumerate_hom(1, 1)) == 6
        assert len(enumerate_hom(0, 1, "surj")) == 0
        assert len(enumerate_hom(0, 1, "inj")) == 2
        assert len(enumerate_hom(1, 0, "surj")) == 2

    @pytest.mark.parametrize("m", range(4))
    @pytest.mark.parametrize("n", range(4))
    def test_kind_counts_match_oracle(self, m, n):
        assert len(enumerate_hom(m, n, "inj")) == oracle_hom_count(m, n, "inj")
        assert len(enumerate_hom(m, n, "surj")) == oracle_hom_count(m, n, "surj")
        assert hom_count(m, n, "inj") == oracle_hom_count(m, n, "inj")
        assert hom_count(m, n, "surj") == oracle_hom_count(m, n, "surj")
        assert hom_count(m, n, "all") == oracle_hom_count(m, n, "all")

    @pytest.mark.parametrize("m", range(5))
    @pytest.mark.parametrize("n", range(5))
    def test_every_kind_in_the_oracle_order(self, m, n):
        """Each kind lists exactly the raw-filtered value tuples of its
        definition, in their ascending order."""
        for kind in ("all", "inj", "surj"):
            found = [c.values for c in enumerate_hom(m, n, kind)]
            assert found == oracle_hom_values_of_kind(m, n, kind), kind

    def test_cap_is_on_the_count_of_the_kind(self, monkeypatch):
        """Par(5) -> Par(2) has 168 canonical maps and 60 surjections: the
        surjections are listed under a cap of 60, and refused under 59
        before any ``CycMap`` is built."""
        assert len(enumerate_hom(5, 2, "surj", cap=60)) == 60
        built = []
        monkeypatch.setattr(paracat, "CycMap", lambda *args: built.append(args))
        with pytest.raises(ResourceBound, match="has 60 surj"):
            enumerate_hom(5, 2, "surj", cap=59)
        assert built == []

    @pytest.mark.parametrize("m,n", [(1, 2), (2, 3), (0, 3), (3, 3)])
    def test_inj_surj_duality_of_counts(self, m, n):
        assert len(enumerate_hom(m, n, "inj")) == len(enumerate_hom(n, m, "surj"))

    def test_resource_bound(self):
        with pytest.raises(ResourceBound):
            enumerate_hom(3, 3, cap=10)

    def test_unknown_kind_is_refused_before_the_cap_and_the_memo(self):
        before = enumerate_hom.cache_info().currsize
        for cap in (10**5, 1):
            with pytest.raises(ValueError, match="unknown kind"):
                enumerate_hom(1, 1, "bogus", cap=cap)
        assert enumerate_hom.cache_info().currsize == before


# Offsets (kg, kf) put on the pairs of a table in turn: each pair is checked
# unshifted and with the next of these.
TABLE_OFFSETS = [(1, -1), (-2, 0), (0, 3), (2, 2), (-1, -3)]


class TestCompositionTable:
    @pytest.mark.parametrize("kind", ["all", "inj", "surj"])
    def test_matches_the_pointwise_oracle_and_compose(self, kind):
        """Every composable pair with objects <= Par(3): the table's
        composite, shifted by the offsets, is the oracle's and compose's."""
        checked = 0
        for a, b, c in itertools.product(range(4), repeat=3):
            idx, wrap = composition_table(a, b, c, kind)
            fs, gs, hs = all_maps(a, b, kind), all_maps(b, c, kind), all_maps(a, c, kind)
            assert idx.shape == wrap.shape == (len(gs), len(fs))
            for (i, g), (j, f) in itertools.product(enumerate(gs), enumerate(fs)):
                for kg, kf in [(0, 0), TABLE_OFFSETS[checked % len(TABLE_OFFSETS)]]:
                    expected = (hs[idx[i, j]].values, int(wrap[i, j]) + kg + kf)
                    assert oracle_compose_values(g.values, kg, f.values, kf, a, b, c) == expected
                    h = compose(shift_action(g, kg), shift_action(f, kf))
                    assert (h.values, h.shift) == expected
                checked += 1
        assert checked == sum(hom_count(b, c, kind) * hom_count(a, b, kind)
                              for a, b, c in itertools.product(range(4), repeat=3))
        assert checked == {"all": 62901, "inj": 398, "surj": 398}[kind]

    def test_tables_are_read_only_and_memoized(self):
        idx, wrap = composition_table(2, 1, 3)
        assert composition_table(2, 1, 3) is composition_table(2, 1, 3)
        for table in (idx, wrap):
            with pytest.raises(ValueError):
                table[0, 0] = 1

    def test_empty_hom_sets_give_empty_tables(self):
        idx, wrap = composition_table(1, 2, 0, "surj")
        assert idx.shape == wrap.shape == (len(enumerate_hom(2, 0, "surj")), 0)

    def test_unknown_kind_is_refused_before_the_memo(self):
        before = composition_table.cache_info().currsize, enumerate_hom.cache_info().currsize
        with pytest.raises(ValueError, match="unknown kind"):
            composition_table(1, 1, 1, "bogus")
        after = composition_table.cache_info().currsize, enumerate_hom.cache_info().currsize
        assert after == before

    def test_cell_cap_is_checked_before_any_enumeration(self, monkeypatch):
        before = enumerate_hom.cache_info().currsize
        # |H(7, 7)|**2 * 8 = 1,171,200,800 cells
        with pytest.raises(ResourceBound, match="cells"):
            composition_table(7, 7, 7)
        # a gather of 21**3 = 9,261 cells into the target H(20, 20), whose
        # value rows hold 21 * |H(20, 20)| = 21 * 21 * C(41, 21) cells
        with pytest.raises(ResourceBound, match="cells"):
            composition_table(20, 0, 20)
        # an empty gather, H(20, 21) having no surjection, whose other two
        # hom-sets, H(40, 20) and H(40, 21), would still be enumerated
        with pytest.raises(ResourceBound, match="cells"):
            composition_table(40, 20, 21, "surj")
        # |H(1, 1)| * |H(1, 1)| * 2 = 72 cells; the memo is emptied so that
        # the cap is read afresh
        composition_table.cache_clear()
        monkeypatch.setattr(paracat, "DEFAULT_TABLE_CELL_CAP", 71)
        with pytest.raises(ResourceBound):
            composition_table(1, 1, 1)
        assert enumerate_hom.cache_info().currsize == before
        monkeypatch.setattr(paracat, "DEFAULT_TABLE_CELL_CAP", 72)
        assert composition_table(1, 1, 1)[0].shape == (6, 6)

    def test_a_composite_outside_the_target_is_refused(self):
        rows = np.array([[0, 1], [1, 2]])
        assert paracat._positions(rows, np.array([[1, 2], [0, 1]]), 1).tolist() == [1, 0]
        with pytest.raises(NotFunctorial):
            paracat._positions(rows, np.array([[0, 2]]), 1)
        with pytest.raises(NotFunctorial):
            paracat._positions(rows[:0], np.array([[0, 2]]), 1)

    def test_codes_too_wide_for_int64_stay_exact(self):
        """Rows of 32 values into Par(1) read as 32 digits base 4 exceed
        int64; the codes then fall back to Python ints."""
        rows = np.array([[0] * 31 + [d] for d in range(4)])
        assert paracat._positions(rows, rows[::-1], 1).tolist() == [3, 2, 1, 0]
        idx, wrap = composition_table(31, 0, 1)
        assert idx.shape == (len(enumerate_hom(0, 1)), len(enumerate_hom(31, 0)))

    def test_fresh_process_builds_every_table_to_par3_within_a_second(self):
        """All 192 tables of the three kinds with objects <= Par(3), from a
        fresh interpreter, in under 1 s (about 15 ms on a 2-vCPU VM);
        the import is not timed."""
        script = (
            "import itertools, time\n"
            "from paracyclic.paracat import composition_table\n"
            "start = time.perf_counter()\n"
            "for kind in ('all', 'inj', 'surj'):\n"
            "    for a, b, c in itertools.product(range(4), repeat=3):\n"
            "        composition_table(a, b, c, kind)\n"
            "print(time.perf_counter() - start)\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, check=True)
        assert float(out.stdout) < 1.0


def code_collisions() -> list:
    """The (m, n, kind) of each hom-set with objects <= Par(3) whose value
    rows do not get distinct, nonnegative ``paracat.row_codes`` base
    2(n + 1)."""
    out = []
    for kind in ("all", "inj", "surj"):
        for m, n in itertools.product(range(4), repeat=2):
            codes = paracat.row_codes(paracat._value_rows(m, n, kind), 2 * (n + 1)).tolist()
            if len(set(codes)) != len(codes) or min(codes, default=0) < 0:
                out.append((m, n, kind))
    return out


class TestSharedRows:
    """``compose_rows`` and ``row_codes``, the row format of canonical maps
    that the composition tables and the conv-tilde numbering share."""

    def test_gather_is_scalar_compose_on_every_pair_to_par3(self):
        checked = 0
        for a, b, c in itertools.product(range(4), repeat=3):
            fs, gs = all_maps(a, b), all_maps(b, c)
            g_rows, f_rows = paracat._value_rows(b, c, "all"), paracat._value_rows(a, b, "all")
            values, wrap = paracat.compose_rows(g_rows[:, None], f_rows[None], b + 1, c + 1)
            composites = [[compose(g, f) for f in fs] for g in gs]
            assert values.tolist() == [[list(h.values) for h in row] for row in composites]
            assert wrap.tolist() == [[h.shift for h in row] for row in composites]
            checked += len(fs) * len(gs)
        assert checked == 62901

    def test_codes_are_distinct_on_every_hom_set_to_par3(self):
        assert code_collisions() == []

    def test_rows_out_of_range_code_minus_one(self):
        rows = np.array([[0, 1], [3, 0], [-1, 0], [0, 4]])
        assert paracat.row_codes(rows, 4).tolist() == [1, 12, -1, -1]

    def test_codes_take_one_base_per_column(self):
        rows = np.array([[1, 0, 5], [0, 2, 5], [0, 3, 0], [0, 0, 6]])
        assert paracat.row_codes(rows, (2, 3, 6)).tolist() == [23, 17, -1, -1]

    def test_codes_past_int64_are_python_ints(self):
        codes = paracat.row_codes(np.array([[3] * 32, [0] * 31 + [1]]), 4)
        assert codes.dtype == object and codes.tolist() == [4**32 - 1, 1]


class TestShiftActionAndCyc:
    def test_zero_is_identity(self):
        f = all_maps(1, 1)[2]
        assert shift_action(f, 0) == f

    def test_group_action(self):
        f = all_maps(1, 1)[2]
        assert shift_action(shift_action(f, 1), -1) == f

    def test_canonicalize_collapses_orbit(self):
        for f in all_maps(1, 1):
            for k in range(-2, 3):
                assert cyc_canonicalize(shift_action(f, k)) == cyc_canonicalize(f)

    def test_cyc_composition_independent_of_representatives(self):
        for m, n, p in [(0, 1, 1), (1, 1, 2), (2, 2, 1)]:
            for cg in enumerate_hom(n, p):
                for cf in enumerate_hom(m, n):
                    expected = cyc_canonicalize(compose(cg.rep, cf.rep))
                    for kf, kg in itertools.product((-2, 0, 2), (-1, 1)):
                        shifted = compose(shift_action(cg.rep, kg), shift_action(cf.rep, kf))
                        assert cyc_canonicalize(shifted) == expected
                    assert compose_cyc(cg, cf) == expected


def min_dual(f):
    """f_!(x') = min { x | f(x) >= x' }, pointwise, for a canonical (shift 0) f."""
    raw = []
    for x_prime in range(f.n + 1):
        x = -2 * (f.m + 1)  # f(x) = values[0] - 2(n + 1) < 0 here
        while f(x) < x_prime:
            x += 1
        raw.append(x)
    return ParaMap.from_values(f.tgt, f.src, raw)


def retraction_dualities(N):
    """Every identity-on-objects contravariant functor D on the cyclic
    category truncated at Par(N) with D(f) o f = id for injective f.

    Each functor is returned as its table of images of all morphisms.  D is
    assigned generator by generator: tau_1, a face and a degeneracy between
    each pair of neighbouring objects, then tau_2, ..., tau_N.  A partial
    assignment is dropped as soon as a generator fails the retraction or the
    subcategory it generates gets two images for one morphism.
    """
    ident = {n: cyc_canonicalize(Parasimplex(n).identity()) for n in range(N + 1)}
    gens = [cyc_canonicalize(Parasimplex(1).successor_map())]
    for n in range(N):
        gens.append(CycMap(n, n + 1, tuple(range(n + 1))))
        gens.append(CycMap(n + 1, n, tuple(range(n + 1)) + (n,)))
    gens += [cyc_canonicalize(Parasimplex(n).successor_map()) for n in range(2, N + 1)]

    def generated(assigned):
        # D(s o h) = D(h) o D(s) for every generator s, from the identities up
        image = {i: i for i in ident.values()}
        frontier = list(image)
        while frontier:
            reached = []
            for h in frontier:
                for s, ds in assigned:
                    if s.m != h.n:
                        continue
                    composite, dual = compose_cyc(s, h), compose_cyc(image[h], ds)
                    if composite not in image:
                        image[composite] = dual
                        reached.append(composite)
                    elif image[composite] != dual:
                        return None
            frontier = reached
        return image

    survivors = []

    def extend(assigned):
        if len(assigned) == len(gens):
            survivors.append(generated(assigned))
            return
        s = gens[len(assigned)]
        for ds in enumerate_hom(s.n, s.m):
            if is_injective(s.rep) and compose_cyc(ds, s) != ident[s.m]:
                continue
            if generated(assigned + [(s, ds)]) is not None:
                extend(assigned + [(s, ds)])

    extend([])
    return survivors


class TestDualize:
    def test_no_retraction_duality_is_an_involution_at_n2(self):
        """Exhaustive search on the cyclic category truncated at N=2.

        Exactly two contravariant functors retract every injection: the max
        formula of dualize_map and the min formula f_!(x') = min { x | f(x) >= x' }.
        Neither squares to the identity.  A retraction duality at any N >= 2
        restricts to one at N=2, so none squares to the identity.
        """
        morphisms = [c for m in range(3) for n in range(3) for c in enumerate_hom(m, n)]
        survivors = retraction_dualities(2)
        by_max = {c: cyc_canonicalize(dualize_map(c.rep)) for c in morphisms}
        by_min = {c: cyc_canonicalize(min_dual(c.rep)) for c in morphisms}
        assert by_max != by_min
        assert len(survivors) == 2 and by_max in survivors and by_min in survivors
        for dual in survivors:
            for c in morphisms:
                if is_injective(c.rep):
                    assert compose_cyc(dual[c], c) == cyc_canonicalize(Parasimplex(c.m).identity())
            assert any(dual[dual[c]] != c for c in morphisms)

    def test_identity(self):
        ident = Parasimplex(2).identity()
        assert dualize_map(ident) == ident

    def test_point_injection_dualizes_to_constant_surjection(self):
        f = ParaMap(Parasimplex(0), Parasimplex(1), (0,), 0)
        fd = dualize_map(f)
        # f^v sends both (0,0) and (0,1) to (0,0): the constant-per-period surjection
        assert fd.m == 1 and fd.n == 0
        assert fd.values == (0, 0) and fd.shift == 0
        assert classify(fd) == "surjective"
        assert compose(fd, f) == Parasimplex(0).identity()

    def test_contravariant_functor(self):
        for m, n, p in [(0, 1, 1), (1, 1, 1), (1, 2, 1), (2, 1, 2)]:
            for g in all_maps(n, p):
                for f in all_maps(m, n):
                    assert dualize_map(compose(g, f)) == compose(dualize_map(f), dualize_map(g))

    @pytest.mark.parametrize("m,n", [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
    def test_swaps_injective_and_surjective(self, m, n):
        swap = {"injective": "surjective", "surjective": "injective", "both": "both", "neither": "neither"}
        for f in all_maps(m, n):
            assert classify(dualize_map(f)) == swap[classify(f)]

    @pytest.mark.parametrize("m,n", [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 2)])
    def test_retraction_for_injections(self, m, n):
        for f in all_maps(m, n, "inj"):
            assert compose(dualize_map(f), f) == Parasimplex(m).identity()

    @pytest.mark.parametrize("m,n", [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)])
    def test_double_dual_is_successor_conjugation(self, m, n):
        """The square of the duality conjugates by the successor automorphism."""
        pred_tgt = ParaMap.from_values(Parasimplex(n), Parasimplex(n), range(-1, n))
        succ_src = Parasimplex(m).successor_map()
        for f in all_maps(m, n):
            assert dualize_map(dualize_map(f)) == compose(pred_tgt, compose(f, succ_src))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_power_two_period_plus_two_fixes_endomorphisms(self, n):
        """Iterating the duality 2(n+1) times is the identity on End(Par(n))."""
        for f in all_maps(n, n):
            g = f
            for _ in range(2 * (n + 1)):
                g = dualize_map(g)
            assert g == f

    def test_dual_commutes_with_shift(self):
        for f in all_maps(1, 1):
            assert dualize_map(shift_action(f, 2)) == shift_action(dualize_map(f), -2)

