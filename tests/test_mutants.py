"""Committed mutants: each one breaks the library on purpose, through
monkeypatch, and asserts that the check named for it goes red.

A check that stays green under its mutant has lost the power to fail.
Each mutant runs against the smallest entry point that should catch it.
"""

from paracyclic import equivalence, paracat, selftest
from paracyclic._linalg import PrimeField
from paracyclic.equivalence import (
    ConvTilde,
    cell_rep,
    check_localization_adjunction,
    realize_system,
    recover_rep,
)
from paracyclic.paracat import ParaMap
from paracyclic.preord import ParaPreorder, preorders_up_to

from oracles import class_oracle_mismatches


def failure_kinds(report):
    return {failure[0] for failure in report["failures"]}


def test_dropped_marked_key_is_caught(monkeypatch):
    marked = ConvTilde.marked.fget

    def mutant(self):
        keys = marked(self)
        return keys - {min(keys, key=repr)}

    monkeypatch.setattr(ConvTilde, "marked", property(mutant))
    report = check_localization_adjunction(3, "para")
    assert "marked-composite-missing" in failure_kinds(report)


def test_shifted_class_table_is_caught(monkeypatch):
    post_init = ParaPreorder.__post_init__

    def mutant(self):
        post_init(self)
        table = self._class_of
        object.__setattr__(self, "_class_of", table[1:] + table[:1])

    monkeypatch.setattr(ParaPreorder, "__post_init__", mutant)
    assert class_oracle_mismatches(preorders_up_to(6))


def test_comparison_memo_keyed_on_relation_alone_is_caught(monkeypatch):
    compute = equivalence.comparison_map.__wrapped__
    memo = {}

    def mutant(r, rel):
        if rel not in memo:
            memo[rel] = compute(r, rel)
        return memo[rel]

    monkeypatch.setattr(equivalence, "comparison_map", mutant)
    field = PrimeField(101)
    # a surjection cell: the automorphisms of Par(n) act on it faithfully,
    # so comparisons along different morphisms differ
    rep = cell_rep(1, 3, field, 2)
    recovered = recover_rep(realize_system(rep), 2)
    assert any(
        not field.equal(mat, recovered.gen[key][values])
        for key, table in rep.gen.items() for values, mat in table.items()
    ) or any(not field.equal(s, t) for s, t in zip(rep.shifts, recovered.shifts))


def dualize_map_min(f: ParaMap) -> ParaMap:
    """The min formula f^v(x') = min { x | f(x) >= x' }: also a retraction
    duality, but its square is conjugation by the successor, not the
    predecessor."""
    src_period, tgt_period = f.m + 1, f.n + 1
    raw = []
    for x_prime in range(tgt_period):
        # smallest k with values[a] + (k + shift) * tgt_period >= x'
        raw.append(min(
            (-((f.values[a] - x_prime) // tgt_period) - f.shift) * src_period + a
            for a in range(src_period)
        ))
    return ParaMap.from_values(f.n, f.m, raw)


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

