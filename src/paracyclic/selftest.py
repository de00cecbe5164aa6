"""The full verification suite behind the ``selftest`` command.

Each criterion function returns a report dictionary with a boolean
``passed``; ``run_all`` executes every criterion with one seed and
aggregates.  Every randomized check derives its generator from the seed,
so two runs with the same seed produce identical reports.

Criterion 3 is expected to fail in its involution clause: the duality
that satisfies the published retraction formula squares to conjugation by
the successor automorphism, and from truncation N = 2 on no functorial
duality with the retraction property squares to the identity on the nose
(see README).  The failure is reported honestly rather than patched over,
and the exact laws the duality does satisfy are reported beside it.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from math import comb
from typing import Callable, Dict, List, Optional

import numpy as np

from ._linalg import PrimeField
from .consheaf import (
    enumerate_upsets,
    gluing_rows,
    random_sheaf,
    stalk,
)
from .corner import (
    pullback_point,
    stratum_of,
    validate_point,
    witness_point,
)
from .equivalence import (
    check_localization_adjunction,
    cyclic_report,
    random_rep,
    realize_sheaf,
    realize_system,
    recover_rep,
    rep_mismatches,
    validate_rep,
)
from .errors import NotFunctorial, PackageError
from .extreal import ExtReal, POS_INF
from .paracat import (
    ParaMap,
    ParaPreorder,
    Parasimplex,
    classify,
    compose,
    composition_table,
    dualize_map,
    enumerate_hom,
    shift_action,
)
from .preord import (
    enumerate_conv,
    enumerate_preord_maps,
    preorders_up_to,
    pullback_relation,
    quotient_by_relation,
)
from .sdot import (
    compose_chain_maps,
    cone,
    euler_characteristic,
    homology_dims,
    identity_chain_map,
    random_chain_map,
    random_complex,
    random_filtration,
    rotation_periodicity_check,
)


def _brute_force_hom_values(m: int, n: int) -> List[tuple]:
    """Independent enumerator: raw tuples filtered by the definitions."""
    period = n + 1
    out = []
    for values in itertools.product(range(2 * period), repeat=m + 1):
        if not 0 <= values[0] < period:
            continue
        if any(values[a] > values[a + 1] for a in range(m)):
            continue
        if values[-1] > values[0] + period:
            continue
        out.append(values)
    return out


def criterion_1(seed: int = 0) -> dict:
    """Hom-count table against the brute-force enumerator and closed form."""
    mismatches = []
    table = {}
    for m in range(4):
        for n in range(4):
            generated = enumerate_hom(m, n)
            closed = (m + 1) * comb(m + n + 1, m + 1)
            brute = _brute_force_hom_values(m, n)
            table[f"{m},{n}"] = len(generated)
            if not (len(generated) == closed == len(brute)):
                mismatches.append((m, n, len(generated), closed, len(brute)))
            if sorted(c.values for c in generated) != sorted(brute):
                mismatches.append((m, n, "value sets differ"))
    return {
        "id": 1,
        "title": "cyclic hom-set counts",
        "passed": not mismatches,
        "details": {"table": table, "mismatches": mismatches},
    }


def criterion_2(seed: int = 0) -> dict:
    """Category axioms via the composition tables plus scalar spot checks.

    ``paracat.composition_table`` gives canonical composite and wrap offset
    for every composable pair with objects <= Par(3).  Associativity of
    arbitrary shift offsets reduces to associativity of the tables because
    offsets enter composition additively; the unit and associativity
    identities below are therefore exhaustive over all offsets at once.
    Associativity packs each cell into one int16 code, 4 * position + wrap.
    A wrap is 0 or 1 and a side sums two, so the code stays one to one; a
    table with a position outside its hom-set or a wrap outside {0, 1} is
    reported ``"unpackable"``, not packed.  Each side of each quadruple of objects is then one gather and
    one add, and the two sides one comparison.
    The scalar ``compose`` checks each composite it forms against the
    table's prediction (values = table row, shift = wrap + the offsets),
    through the idx rows, wrap rows and target value tuples bound once per
    triple: offset associativity exhaustively on objects <= Par(1) with
    offsets |k| <= 2, independence of cyclic representatives exhaustively
    on objects <= Par(2), and 2,000 seeded triples at full size.
    """
    rng = random.Random(seed)
    objs = range(4)
    reps = {}
    index = {}
    # shifted[key][k][i] is the i-th map of the hom-set key with offset k,
    # built once for every offset the scalar checks use, |k| <= 2
    shifted = {}
    for a in objs:
        for b in objs:
            reps[(a, b)] = [c.rep for c in enumerate_hom(a, b)]
            index[(a, b)] = {f.values: i for i, f in enumerate(reps[(a, b)])}
            shifted[(a, b)] = {k: [shift_action(f, k) for f in reps[(a, b)]]
                               for k in range(-2, 3)}
    # per triple: the table, and its idx rows, wrap rows and target values as lists
    tables, rows = {}, {}
    for a, b, c in itertools.product(objs, repeat=3):
        idx, wrap = tables[(a, b, c)] = composition_table(a, b, c)
        rows[(a, b, c)] = (idx.tolist(), wrap.tolist(), [h.values for h in reps[(a, c)]])

    failures = []

    def composite(key, i, j, g, f):
        """compose(g, f) for g the i-th map of H(b, c) and f the j-th of
        H(a, b), key = (a, b, c), each with any shift, checked against the
        table; returns the position of its canonical map in H(a, c) and
        the composite."""
        idx, wrap, values = rows[key]
        k = idx[i][j]
        h = compose(g, f)
        if h.values != values[k] or h.shift != wrap[i][j] + g.shift + f.shift:
            failures.append(("table",) + key)
        return k, h

    # units
    for a, b in itertools.product(objs, repeat=2):
        ident_a = index[(a, a)][Parasimplex(a).identity().values]
        ident_b = index[(b, b)][Parasimplex(b).identity().values]
        n_ab = len(reps[(a, b)])
        (right_idx, right_wrap), (left_idx, left_wrap) = tables[(a, a, b)], tables[(a, b, b)]
        if not (right_idx[:, ident_a] == np.arange(n_ab)).all():
            failures.append(("unit-right", a, b))
        if not (left_idx[ident_b, :] == np.arange(n_ab)).all():
            failures.append(("unit-left", a, b))
        if right_wrap[:, ident_a].any() or left_wrap[ident_b, :].any():
            failures.append(("unit-wrap", a, b))
    # associativity, vectorized over all triples: entry (h, g, f) of each
    # side is the code of h(gf), resp. (hg)f
    codes = {}
    for (a, b, c), (idx, wrap) in tables.items():
        n_ac = len(reps[(a, c)])
        if (4 * n_ac <= np.iinfo(np.int16).max and ((idx >= 0) & (idx < n_ac)).all()
                and ((wrap == 0) | (wrap == 1)).all()):
            codes[(a, b, c)] = (4 * idx + wrap).astype(np.int16)
        else:
            failures.append(("unpackable", a, b, c))
    for a, b, c, d in itertools.product(objs, repeat=4):
        sides = ((a, b, c), (b, c, d), (a, c, d), (a, b, d))
        if not all(key in codes for key in sides):
            continue
        (gf_idx, gf_wrap), (hg_idx, hg_wrap) = tables[(a, b, c)], tables[(b, c, d)]
        left = codes[(a, c, d)][:, gf_idx] + gf_wrap                  # (n_cd, n_bc, n_ab)
        right = codes[(a, b, d)][hg_idx] + hg_wrap[:, :, None]
        if not np.array_equal(left, right):
            failures.append(("associativity", a, b, c, d))

    def associates(a, b, c, d, i_h, i_g, i_f, h, g, f):
        k_gf, gf = composite((a, b, c), i_g, i_f, g, f)
        k_hg, hg = composite((b, c, d), i_h, i_g, h, g)
        return (composite((a, c, d), i_h, k_gf, h, gf)[1]
                == composite((a, b, d), k_hg, i_f, hg, f)[1])

    # object-level composition with explicit offsets: exhaustive on Par(<=1)
    small = [0, 1]
    for a, b, c, d in itertools.product(small, repeat=4):
        for i_f, i_g, i_h in itertools.product(
                range(len(reps[(a, b)])), range(len(reps[(b, c)])), range(len(reps[(c, d)]))):
            for kf, kg, kh in itertools.product((-2, 0, 2), (-1, 1), (0, 2)):
                fs, gs = shifted[(a, b)][kf][i_f], shifted[(b, c)][kg][i_g]
                hs = shifted[(c, d)][kh][i_h]
                if not associates(a, b, c, d, i_h, i_g, i_f, hs, gs, fs):
                    failures.append(("offset-associativity", a, b, c, d))

    def draw(key):
        i = rng.randrange(len(reps[key]))
        return i, shifted[key][rng.randrange(-2, 3)][i]

    # seeded spot checks at full size
    for _ in range(2000):
        a, b, c, d = (rng.randrange(4) for _ in range(4))
        (i_f, f), (i_g, g), (i_h, h) = draw((a, b)), draw((b, c)), draw((c, d))
        if not associates(a, b, c, d, i_h, i_g, i_f, h, g, f):
            failures.append(("sampled-associativity", a, b, c, d))
    # cyclic composition is independent of representatives (objects <= 2)
    for key in itertools.product(range(3), repeat=3):
        a, b, c = key
        for (i_g, g), (i_f, f) in itertools.product(enumerate(reps[(b, c)]),
                                                    enumerate(reps[(a, b)])):
            expected = composite(key, i_g, i_f, g, f)[1].values
            for kf, kg in itertools.product((-2, -1, 1, 2), repeat=2):
                got = composite(key, i_g, i_f, shifted[(b, c)][kg][i_g],
                                shifted[(a, b)][kf][i_f])
                if got[1].values != expected:
                    failures.append(("cyc-representative", a, b, c))
    return {
        "id": 2,
        "title": "category axioms (paracyclic and cyclic)",
        "passed": not failures,
        "details": {"failures": failures[:10]},
    }


def criterion_3(seed: int = 0) -> dict:
    """Duality: involution clause, classification swap, retraction.

    The involution clause is checked exactly as stated and fails: the
    double dual is conjugation by the successor automorphism.  The other
    two clauses pass exhaustively.  ``details["laws"]`` reports, outside
    the verdict, the exact laws in place of the involution: the double
    dual of f : Par(m) -> Par(n) is pred_n o f o succ_m, and the
    2(n + 1)-th power of the duality fixes every endomorphism of Par(n).
    """
    involution_failures = []
    conjugation_failures = []
    period_failures = []
    swap_failures = []
    retraction_failures = []
    swap = {"injective": "surjective", "surjective": "injective",
            "both": "both", "neither": "neither"}
    succ = {n: Parasimplex(n).successor_map() for n in range(4)}
    pred = {n: ParaMap.from_values(Parasimplex(n), Parasimplex(n), range(-1, n))
            for n in range(4)}
    for m in range(4):
        for n in range(4):
            for c in enumerate_hom(m, n):
                f = c.rep
                double = dualize_map(dualize_map(f))
                if double != f:
                    involution_failures.append((m, n, f.values))
                if double != compose(pred[n], compose(f, succ[m])):
                    conjugation_failures.append((m, n, f.values))
                if classify(dualize_map(f)) != swap[classify(f)]:
                    swap_failures.append((m, n, f.values))
                if classify(f) in ("injective", "both"):
                    if compose(dualize_map(f), f) != Parasimplex(m).identity():
                        retraction_failures.append((m, n, f.values))
    for n in range(4):
        for c in enumerate_hom(n, n):
            g = c.rep
            for _ in range(2 * (n + 1)):
                g = dualize_map(g)
            if g != c.rep:
                period_failures.append((n, c.values))
    # objects are fixed by the duality on the nose
    objects_fixed = all(
        dualize_map(Parasimplex(n).identity()) == Parasimplex(n).identity()
        for n in range(4)
    )
    clauses = {
        "objects_fixed": objects_fixed,
        "involution_on_morphisms": not involution_failures,
        "swaps_classification": not swap_failures,
        "retraction_for_injections": not retraction_failures,
    }
    return {
        "id": 3,
        "title": "duality (involution, swap, retraction)",
        "passed": all(clauses.values()),
        "details": {
            "clauses": clauses,
            "involution_counterexamples": involution_failures[:3],
            "laws": {
                "double_dual_is_successor_conjugation": not conjugation_failures,
                "period_power_fixes_endomorphisms": not period_failures,
            },
            "law_counterexamples": {
                "double_dual_is_successor_conjugation": conjugation_failures[:3],
                "period_power_fixes_endomorphisms": period_failures[:3],
            },
            "note": (
                "the involution clause cannot hold for any functorial duality "
                "with the retraction property: the double dual equals "
                "conjugation by the successor automorphism (see laws)"
            ),
        },
    }


def criterion_4(seed: int = 0) -> dict:
    """Stratum counts and gap-count bookkeeping up to Par(6)."""
    failures = []
    for n in range(7):
        base = Parasimplex(n)
        poset = enumerate_conv(base)
        if len(poset) != 2 ** (n + 1) - 1:
            failures.append(("count", n, len(poset)))
        for rel in poset:
            quotient, _ = quotient_by_relation(base, rel)
            if quotient.k + 1 != len(rel.gaps):
                failures.append(("gap-count", n, sorted(rel.gaps)))
    return {
        "id": 4,
        "title": "convex relation posets",
        "passed": not failures,
        "details": {"failures": failures},
    }


def _sample_points(rng, base: ParaPreorder) -> list:
    """A witness point per stratum plus a seeded rational perturbation of it."""
    points = []
    for rel in enumerate_conv(base):
        witness = witness_point(rel)
        gaps = [POS_INF if g.is_pos_inf
                else ExtReal(Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)))
                for g in witness.gaps]
        points += [witness, validate_point(base, gaps)]
    return points


def criterion_5(seed: int = 0) -> dict:
    """Corner-space functoriality for fundamental-domain periods <= 3."""
    rng = random.Random(seed)
    bases = preorders_up_to(3)
    points = {base.sizes: _sample_points(rng, base) for base in bases}
    failures = []
    for src in bases:
        for tgt in bases:
            for r in enumerate_preord_maps(src, tgt):
                for point in points[tgt.sizes]:
                    pulled = pullback_point(r, point)
                    if stratum_of(pulled) != pullback_relation(r, stratum_of(point)):
                        failures.append(("square", src.sizes, tgt.sizes, r.values))
    for a in bases:
        for b in bases:
            for c in bases:
                for f in enumerate_preord_maps(a, b)[:3]:
                    for g in enumerate_preord_maps(b, c)[:3]:
                        gf = compose(g, f)
                        for point in points[c.sizes][:4]:
                            if pullback_point(f, pullback_point(g, point)) != (
                                pullback_point(gf, point)
                            ):
                                failures.append(
                                    ("composition", a.sizes, b.sizes, c.sizes)
                                )
    return {
        "id": 5,
        "title": "corner-space functoriality",
        "passed": not failures,
        "details": {"failures": failures[:10]},
    }


def criterion_6(seed: int = 0) -> dict:
    """Localization adjunction in both variants for periods <= 3, from one
    paracyclic pass per period: the cyclic verdict is that pass without its
    shift-equivariance failures (``equivalence.cyclic_report``)."""
    para = [check_localization_adjunction(N, "para") for N in (1, 2, 3)]
    reports = {
        f"{report['variant']}-{report['N']}": {
            "passed": report["passed"],
            "objects": report["objects"],
            "edges": report["edges"],
            "failures": report["failures"][:3],
        }
        for report in para + [cyclic_report(report) for report in para]
    }
    return {
        "id": 6,
        "title": "localization adjunction",
        "passed": all(report["passed"] for report in reports.values()),
        "details": reports,
    }


def criterion_7(seed: int = 0) -> dict:
    """Round trip of representations through sheaf systems, N = 3, F_101; a
    trial's domain error is its failure (kind, trial, message)."""
    rng = random.Random(seed)
    field = PrimeField(101)
    failures = []
    stalk_bases = [Parasimplex(n) for n in range(4)] + [
        ParaPreorder((2, 1)), ParaPreorder((1, 2, 1)),
    ]
    for kind in ("para", "cyc"):
        for trial in range(20):
            rep = random_rep(rng, field, 3, cyclic=(kind == "cyc"))
            try:
                recovered = recover_rep(realize_system(rep), 3)
                mismatches = rep_mismatches(rep, recovered)
                failures += [(kind, trial, *m) for m in mismatches]
                if ("dims",) in mismatches:
                    continue
                if not validate_rep(recovered)["passed"]:
                    failures.append((kind, trial, "recovered-invalid"))
                if kind == "cyc" and not recovered.is_cyclic:
                    failures.append((kind, trial, "not-cyclic"))
                # stalks of realized sheaves match the representation values
                if trial < 3:
                    for base in stalk_bases:
                        sheaf = realize_sheaf(rep, base)
                        for rel in enumerate_conv(base):
                            expected = rep.dims[len(rel.gaps) - 1]
                            if stalk(sheaf, rel).dim != expected:
                                failures.append((kind, trial, "stalk", base.sizes))
            except PackageError as exc:
                failures.append((kind, trial, str(exc)))
    return {
        "id": 7,
        "title": "representation round trip and stalks",
        "passed": not failures,
        "details": {"failures": failures[:10]},
    }


def criterion_8(seed: int = 0) -> dict:
    """Sheaf gluing over every up-set pair, 20 seeded random sheaves.

    The twenty sheaves are spread five per base Par(0)..Par(3); for each
    the check runs over all unordered pairs of up-sets, a row of pairs at
    a time (``gluing_rows``).  A sheaf whose restrictions fail their
    verification is reported as the failure (n, trial, message).
    """
    rng = random.Random(seed)
    field = PrimeField(101)
    failures = []
    checked = 0
    for n in range(4):
        base = Parasimplex(n)
        upsets = enumerate_upsets(base)
        for trial in range(5):
            sheaf = random_sheaf(rng, base, field)
            try:
                for row in gluing_rows(sheaf):
                    checked += len(row.passed)
                    for k in np.flatnonzero(~row.passed).tolist():
                        failures.append((n, trial, sorted(upsets[row.left].members),
                                         sorted(upsets[row.left + k].members), row.report(k)))
            except NotFunctorial as exc:
                failures.append((n, trial, str(exc)))
    return {
        "id": 8,
        "title": "sheaf gluing over all up-set pairs",
        "passed": not failures,
        "details": {"pairs_checked": checked, "failures": failures[:3]},
    }


def _cone_fingerprint(filtration) -> tuple:
    """``sdot.fingerprint`` from its definition: the homology of every step
    and of the cone of every composite X_i -> X_j (i < j), each cone built
    and reduced."""
    steps = tuple(homology_dims(x) for x in filtration.objects)
    cones = []
    for i, x in enumerate(filtration.objects):
        composite = identity_chain_map(x)
        for step in filtration.maps[i:]:
            composite = compose_chain_maps(step, composite)
            cones.append(homology_dims(cone(composite)))
    return (steps, tuple(cones))


def criterion_9(seed: int = 0) -> dict:
    """Rotation periodicity and cone additivity for filtered complexes.

    The periodicity check compares the fingerprint with itself before and
    after the rotations, so each fingerprint before is also compared with
    one built from the cones themselves (``_cone_fingerprint``)."""
    rng = random.Random(seed)
    field = PrimeField(2)
    failures = []
    # explicit double rotation at length 1
    for trial in range(5):
        filt = random_filtration(rng, field, 1, max_dim=6)
        report = rotation_periodicity_check(filt)
        if not (report["passed"] and report["double_rotation_is_identity"]
                and report["certificate_is_quasi_iso"]):
            failures.append(("length-1", report))
        if report["fingerprint_before"] != _cone_fingerprint(filt):
            failures.append(("fingerprint-by-cones", "length-1", trial))
    # fingerprints across fifty seeded random filtrations
    for trial in range(50):
        length = 1 + trial % 3
        filt = random_filtration(rng, field, length, max_dim=6)
        report = rotation_periodicity_check(filt)
        if not report["passed"]:
            failures.append(("fingerprint", trial, length))
        if report["fingerprint_before"] != _cone_fingerprint(filt):
            failures.append(("fingerprint-by-cones", trial, length))
    # Euler additivity of mapping cones
    for trial in range(100):
        x = random_complex(rng, field, 4)
        y = random_complex(rng, field, 4)
        f = random_chain_map(rng, field, x, y)
        if euler_characteristic(cone(f)) != (
            euler_characteristic(y) - euler_characteristic(x)
        ):
            failures.append(("euler", trial))
    return {
        "id": 9,
        "title": "filtration rotation periodicity",
        "passed": not failures,
        "details": {"failures": failures[:5]},
    }


CRITERIA: Dict[int, Callable[[int], dict]] = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
}


def run_all(seed: int = 0, only: Optional[List[int]] = None) -> dict:
    """Run the verification suite; deterministic for a fixed seed."""
    chosen = sorted(only) if only else sorted(CRITERIA)
    reports = []
    for number in chosen:
        start = time.perf_counter()
        report = CRITERIA[number](seed)
        report["seconds"] = round(time.perf_counter() - start, 3)
        reports.append(report)
    return {
        "seed": seed,
        "passed": all(r["passed"] for r in reports),
        "reports": reports,
    }
