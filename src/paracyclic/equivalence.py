"""Representations of the surjection subcategory versus sheaf systems.

A representation assigns a vector space to every object Par(n), n <= N, a
matrix to every canonical surjection representative, and an invertible
"shift" matrix per object recording the action of the shift automorphism;
an arbitrary truncated surjection (canonical, k) acts by t^k M(canonical).

``realize_sheaf`` turns a representation into a constructible sheaf on the
corner space of any preorder, stratum by stratum through the quotient
parasimplices.  A compatible family of such sheaves over many preorders,
together with comparison isomorphisms along preorder maps, is a
``SheafSystem``; ``recover_rep`` extracts the representation back from the
system, exactly.  Everything in a realization that does not depend on the
representation (the morphisms, the distinct comparison maps, numbered once,
and the kernel relations of the surjections) is a ``RealizationPlan``, built
once per truncation on first use (``realization_plan``).
``build_conv_tilde`` and ``check_localization_adjunction`` verify that
collapsing the marked (Cartesian) edges of the stratum-pair category is
the surjection subcategory, through the adjunction with fully faithful
right adjoint.
The conv-tilde numbers its objects and edges once, as int arrays
(``ConvTilde.numbering``): each edge has an integer code and a Cartesian
flag.  Closure of the marked edges under composition is one chunked
``paracat.compose_rows`` gather over all composable pairs and one membership
test among the codes, and full faithfulness an equality of code sets.  The
cyclic verdict is the paracyclic one without its shift clause
(``cyclic_report``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ._linalg import Field
from .consheaf import StratSheaf, gap_key, strata, validate_sheaf
from .errors import (
    BaseMismatch,
    IncompleteSystem,
    ResourceBound,
    TruncationExceeded,
)
from .paracat import (
    ParaMap,
    ParaPreorder,
    Parasimplex,
    classify,
    compose,
    compose_rows,
    composition_table,
    enumerate_hom,
    row_codes,
    shift_action,
)
from .preord import (
    ConvexRelation,
    enumerate_conv,
    enumerate_preord_maps,
    least_relation,
    preorders_up_to,
    pullback_relation,
    quotient_by_relation,
)

GapKey = Tuple[int, ...]

# Beyond this many edges build_conv_tilde raises ResourceBound.
CONV_TILDE_EDGE_CAP = 20000


@dataclass(frozen=True, eq=False)
class ParaRep:
    """A functor from the truncated surjection subcategory to matrices.

    ``gen[(m, n)]`` maps the value tuple of each canonical surjection
    representative Par(m) -> Par(n) to its matrix (shape dims[n] x dims[m]);
    ``shifts[n]`` is the invertible image of the shift automorphism.
    """

    N: int
    field: Field
    dims: Tuple[int, ...]
    gen: Mapping[Tuple[int, int], Mapping[Tuple[int, ...], np.ndarray]]
    shifts: Tuple[np.ndarray, ...]

    @property
    def is_cyclic(self) -> bool:
        return all(self.field.equal(t, self.field.identity(t.shape[0]))
                   for t in self.shifts)

    def shift_power(self, n: int, k: int) -> np.ndarray:
        t = self.shifts[n]
        if k < 0:
            t, k = self.field.inverse(t), -k
        out = self.field.identity(self.dims[n])
        for _ in range(k):
            out = self.field.matmul(t, out)
        return out

    def evaluate(self, f: ParaMap) -> np.ndarray:
        """The matrix of an arbitrary truncated surjection (canonical, k)."""
        m, n = f.m, f.n
        if m > self.N or n > self.N:
            raise TruncationExceeded(f"map {m}->{n} outside truncation {self.N}")
        base = self.gen.get((m, n), {}).get(f.values)
        if base is None:
            raise IncompleteSystem(f"no matrix for the map {m}->{n} with values {f.values}")
        if f.shift == 0:
            return base
        return self.field.matmul(self.shift_power(n, f.shift), base)


def _block_matrix(blocks: np.ndarray) -> np.ndarray:
    """The matrix whose (i, j) block is blocks[i, j], from an array of shape
    (rows, cols, p, q)."""
    rows, cols, p, q = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(rows * p, cols * q)


def validate_rep(rep: ParaRep) -> dict:
    """Exhaustively check functoriality over the truncation; returns a report.

    A matrix of the wrong shape is reported as ``bad-shape``, a canonical
    surjection without a matrix as ``missing-map`` (or ``missing-identity``,
    once, for an identity), a level without a shift matrix as
    ``missing-shift`` and a ``gen`` key beyond the truncation as
    ``outside-truncation``; the checks that would multiply or index any of
    them are skipped.  Composition is checked per triple (m, n, p)
    by one block product: vstack(G_i) @ hstack(F_j) against the blocks
    T_p^wrap H_idx read from ``composition_table``.  The failing pairs are
    located only on a mismatch, and reported g by g, then f by f.
    """
    violations = []
    fld = rep.field
    levels = range(rep.N + 1)
    shift_ok = [n < len(rep.shifts) and rep.shifts[n].shape == (rep.dims[n],) * 2
                for n in levels]
    no_identity = set()     # (n, values) of each identity reported missing
    for n in levels:
        if n >= len(rep.shifts):
            violations.append(("missing-shift", n))
        elif not shift_ok[n]:
            violations.append(("bad-shape", "shift", n))
        elif not fld.is_invertible(rep.shifts[n]):
            violations.append(("shift-not-invertible", n))
        ident = Parasimplex(n).identity()
        table = rep.gen.get((n, n), {})
        if ident.values not in table:
            violations.append(("missing-identity", n))
            no_identity.add((n, ident.values))
        elif not fld.equal(table[ident.values], fld.identity(rep.dims[n])):
            violations.append(("identity-not-identity", n))
    for (m, n), table in rep.gen.items():
        if not (0 <= m <= rep.N and 0 <= n <= rep.N):
            violations.append(("outside-truncation", (m, n)))
            continue
        for values, mat in table.items():
            if mat.shape != (rep.dims[n], rep.dims[m]):
                violations.append(("bad-shape", (m, n), values))
            elif shift_ok[m] and shift_ok[n]:
                # the shift automorphism is central: t_n M = M t_m
                left = fld.matmul(rep.shifts[n], mat)
                right = fld.matmul(mat, rep.shifts[m])
                if not fld.equal(left, right):
                    violations.append(("shift-not-natural", (m, n), values))
    # per hom-set, the matrices in enumerate_hom order, a zero block standing
    # in for each missing or misshapen one, and which of them are usable
    surjections = {}
    for m, n in itertools.product(levels, repeat=2):
        table, blank = rep.gen.get((m, n), {}), fld.zeros(rep.dims[n], rep.dims[m])
        mats, usable = [], []
        for c in enumerate_hom(m, n, "surj"):
            mat = table.get(c.values)
            if mat is None and (m != n or (n, c.values) not in no_identity):
                violations.append(("missing-map", (m, n), c.values))
            usable.append(mat is not None and mat.shape == blank.shape)
            mats.append(mat if usable[-1] else blank)
        surjections[(m, n)] = (mats, np.array(usable, dtype=bool))
    for m, n, p in itertools.product(levels, repeat=3):
        (fs, f_ok), (gs, g_ok), (hs, h_ok) = (
            surjections[(m, n)], surjections[(n, p)], surjections[(m, p)])
        if not fs or not gs:
            continue
        idx, wrap = composition_table(m, n, p, "surj")
        lhs = fld.matmul(np.vstack(gs), np.hstack(fs))
        # T_p^w [H_0 | H_1 | ...] for each wrap w, cut into its blocks
        hs_row, wraps = np.hstack(hs), np.unique(wrap)
        stack = np.stack([fld.matmul(rep.shift_power(p, int(w)), hs_row)
                          if w and shift_ok[p] else hs_row for w in wraps])
        stack = stack.reshape(len(wraps), rep.dims[p], len(hs), rep.dims[m])
        rhs = _block_matrix(stack.transpose(0, 2, 1, 3)[np.searchsorted(wraps, wrap), idx])
        checked = g_ok[:, None] & f_ok[None, :] & h_ok[idx] & (shift_ok[p] | (wrap == 0))
        if checked.all() and fld.equal(lhs, rhs):
            continue
        differs = (lhs != rhs).reshape(len(gs), rep.dims[p], len(fs), rep.dims[m])
        for i, j in np.argwhere(differs.any(axis=(1, 3)) & checked):
            violations.append(("composition", (m, n, p), enumerate_hom(m, n, "surj")[j].values,
                               enumerate_hom(n, p, "surj")[i].values))
    return {"passed": not violations, "violations": violations}


# ---------------------------------------------------------------------------
# realization: representations to sheaves
# ---------------------------------------------------------------------------

def realize_sheaf(rep: ParaRep, base: ParaPreorder) -> StratSheaf:
    """The constructible sheaf with stalk V_{n(E)} at stratum E.

    The map along a covering edge is the representation applied to the
    induced surjection of quotient parasimplices (``covering_quotients``).
    """
    if base.k > rep.N:
        raise TruncationExceeded(
            f"quotients of {base.sizes} reach Par({base.k}) > Par({rep.N})"
        )
    dims = {key: rep.dims[len(key) - 1] for key in strata(base).keys}
    maps = {edge: rep.evaluate(q) for edge, q in covering_quotients(base).items()}
    return validate_sheaf(base, rep.field, dims, maps)


@functools.cache
def covering_quotients(base: ParaPreorder) -> Mapping[Tuple[GapKey, GapKey], ParaMap]:
    """The induced surjection of quotient parasimplices along each covering
    edge of the stratum poset of ``base``; memoized per base."""
    poset, ident = strata(base), base.identity()
    return {(src, dst): induced_on_quotients(ident, poset.relation[src], poset.relation[dst])
            for src, dst in poset.edges}


def _quotient_class_representatives(rel: ConvexRelation) -> List[int]:
    """One period-zero element per quotient class, in quotient order."""
    classes = [rel.quotient_class(slot) for slot in range(rel.base.period)]
    return [classes.index(c) for c in range(rel.num_quotient_classes)]


def comparison_map(r: ParaMap, rel: ConvexRelation) -> ParaMap:
    """The iso I'/pullback(rel) -> I/rel of quotient parasimplices."""
    return induced_on_quotients(r, pullback_relation(r, rel), rel)


@dataclass(frozen=True, eq=False)
class SheafSystem:
    """Sheaves over a family of preorders plus comparison isomorphisms.

    ``sheaves[base]`` is the sheaf over each preorder of the family.  The
    morphisms of the family are the keys of ``comparisons``:
    ``comparisons[r][gap key of E]`` is the iso from the sheaf value over
    the source at pullback(E) to the sheaf value over the target at E.
    """

    field: Field
    sheaves: Mapping[ParaPreorder, StratSheaf]
    comparisons: Mapping[ParaMap, Mapping[GapKey, np.ndarray]]

    def sheaf_over(self, base: ParaPreorder) -> StratSheaf:
        try:
            return self.sheaves[base]
        except KeyError:
            raise IncompleteSystem(f"no sheaf over {base.sizes}") from None

    def comparison(self, r: ParaMap, rel: ConvexRelation) -> np.ndarray:
        """The comparison of r at rel; raises BaseMismatch for a relation
        off the target of r, IncompleteSystem for missing data."""
        if r not in self.comparisons:
            raise IncompleteSystem(f"no comparison data for morphism {r}")
        if rel.base != r.tgt:
            raise BaseMismatch("relation does not live over the target of r")
        try:
            return self.comparisons[r][gap_key(rel)]
        except KeyError:
            raise IncompleteSystem(
                f"no comparison for morphism {r} at stratum {gap_key(rel)}") from None


@dataclass(frozen=True, eq=False)
class RealizationPlan:
    """The part of a realization over Par(0..N) that does not depend on the
    representation; ``realization_plan(N)`` builds it once.

    The morphisms are the keys of ``comparisons``: the shift automorphisms,
    the canonical surjection representatives and their shifts by one.
    ``maps`` numbers the distinct comparison maps, in order of first use,
    and ``comparisons[r][gap key of E]`` is the number of
    ``comparison_map(r, E)``.  ``kernels[(m, n)]`` holds, per canonical
    surjection c: Par(m) -> Par(n) in ``enumerate_hom`` order, its values,
    its representative and the gap key of its kernel relation, the
    pullback of the least relation of Par(n).
    """

    N: int
    objects: Tuple[ParaPreorder, ...]
    maps: Tuple[ParaMap, ...]
    comparisons: Mapping[ParaMap, Mapping[GapKey, int]]
    kernels: Mapping[Tuple[int, int], Tuple[Tuple[Tuple[int, ...], ParaMap, GapKey], ...]]


@functools.cache
def realization_plan(N: int) -> RealizationPlan:
    """The realization plan of the truncation N; built on first use and
    memoized (at N = 3: 98 morphisms, 470 comparisons, 23 distinct maps)."""
    objects = tuple(Parasimplex(n) for n in range(N + 1))
    morphisms = []
    for tgt in objects:
        morphisms.append(tgt.shift_map())
        for src in objects:
            for c in enumerate_hom(src.k, tgt.k, "surj"):
                morphisms += [c.rep, shift_action(c.rep, 1)]
    number: Dict[ParaMap, int] = {}
    # the shift automorphism of Par(n) is also the identity shifted by one
    comparisons = {
        r: {key: number.setdefault(comparison_map(r, rel), len(number))
            for key, rel in strata(r.tgt).relation.items()}
        for r in dict.fromkeys(morphisms)
    }
    least = [least_relation(base) for base in objects]
    kernels = {
        (m, n): tuple((c.values, c.rep, gap_key(pullback_relation(c.rep, least[n])))
                      for c in enumerate_hom(m, n, "surj"))
        for m, n in itertools.product(range(N + 1), repeat=2)
    }
    return RealizationPlan(N, objects, tuple(number), comparisons, kernels)


def realize_system(rep: ParaRep) -> SheafSystem:
    """The sheaf system realized by a representation over the parasimplex
    preorders Par(0..N), with all canonical surjection representatives, their
    shifts by one, and the shift automorphisms between them.

    The morphisms and comparison maps come from ``realization_plan(N)``:
    each distinct comparison map is evaluated once, and the comparisons
    are filled in by its number (so comparisons with one map share one
    matrix).  Each matrix is handed out as a read-only view, since one may
    be the rep's own ``gen`` matrix and is shared by many comparisons.
    """
    plan = realization_plan(rep.N)
    mats = [rep.evaluate(q).view() for q in plan.maps]
    for mat in mats:
        mat.setflags(write=False)
    sheaves = {base: realize_sheaf(rep, base) for base in plan.objects}
    comparisons = {r: {key: mats[i] for key, i in numbers.items()}
                   for r, numbers in plan.comparisons.items()}
    return SheafSystem(rep.field, sheaves, comparisons)


def validate_system(system: SheafSystem) -> dict:
    """Check comparison squares and the cocycle law on composable pairs.

    Each relation is pulled back along each morphism once.  The pairs r2
    then r are visited r2 by r2, each with the morphisms leaving its
    target, both in ``comparisons`` order.
    """
    violations = []
    fld = system.field
    pulled: Dict[ParaMap, Dict[GapKey, ConvexRelation]] = {}
    for r in system.comparisons:
        sheaf_src = system.sheaf_over(r.src)
        sheaf_tgt = system.sheaf_over(r.tgt)
        poset = strata(r.tgt)
        back = pulled[r] = {key: pullback_relation(r, rel) for key, rel in poset.relation.items()}
        for rel in poset.relation.values():
            if not fld.is_invertible(system.comparison(r, rel)):
                violations.append(("comparison-not-iso", r))
        for src_key, dst_key in poset.edges:
            one = fld.matmul(system.comparison(r, poset.relation[dst_key]),
                             sheaf_src.edge_map(back[src_key], back[dst_key]))
            two = fld.matmul(sheaf_tgt.maps[(src_key, dst_key)],
                             system.comparison(r, poset.relation[src_key]))
            if not fld.equal(one, two):
                violations.append(("comparison-square", r, src_key))
    leaving: Dict[ParaPreorder, List[ParaMap]] = {}
    for r in system.comparisons:
        leaving.setdefault(r.src, []).append(r)
    for r2 in system.comparisons:
        for r in leaving.get(r2.tgt, ()):
            composite = compose(r, r2)
            if composite not in system.comparisons:
                continue
            for key, rel in strata(r.tgt).relation.items():
                lhs = system.comparison(composite, rel)
                rhs = fld.matmul(system.comparison(r, rel),
                                 system.comparison(r2, pulled[r][key]))
                if not fld.equal(lhs, rhs):
                    violations.append(("cocycle", r2, r, key))
    return {"passed": not violations, "violations": violations}


def recover_rep(system: SheafSystem, N: int) -> ParaRep:
    """Extract the representation from a sheaf system, exactly.

    The space at n is the stalk at the least stratum over Par(n); the
    matrix of a canonical surjection q is the structure map of the source
    sheaf from its least stratum to the kernel relation of q, composed with
    the comparison; the shift matrix is the comparison of the shift
    automorphism at the least stratum.  The surjections and their kernel
    relations are read from ``realization_plan(N)``; every matrix is read
    from ``system``, which need not be one that ``realize_system`` built.
    """
    plan = realization_plan(N)
    sheaves = [system.sheaf_over(base) for base in plan.objects]
    least = [least_relation(base) for base in plan.objects]
    fld = system.field
    dims = tuple(sheaf.dims[gap_key(rel)] for sheaf, rel in zip(sheaves, least))
    # each structure map once: 26 (level, kernel) pairs for 49 surjections at N = 3
    kernels = dict.fromkeys((m, kernel) for (m, _), surjections in plan.kernels.items()
                            for _, _, kernel in surjections)
    structure = {(m, kernel): sheaves[m].edge_map(least[m], kernel) for m, kernel in kernels}
    gen: Dict[Tuple[int, int], Dict[Tuple[int, ...], np.ndarray]] = {}
    for (m, n), surjections in plan.kernels.items():
        if surjections:
            gen[(m, n)] = {
                values: fld.matmul(system.comparison(r, least[n]), structure[(m, kernel)])
                for values, r, kernel in surjections
            }
    shifts = tuple(system.comparison(base.shift_map(), rel)
                   for base, rel in zip(plan.objects, least))
    return ParaRep(N, fld, dims, gen, shifts)


def rep_mismatches(rep: ParaRep, recovered: ParaRep) -> list:
    """Where ``recovered`` differs from ``rep``: ("dims",) alone, or one
    ("generator", (m, n), values) or ("shift", n) per differing matrix."""
    if rep.dims != recovered.dims:
        return [("dims",)]
    fld = rep.field
    out: list = [("generator", key, values)
                 for key, table in rep.gen.items() for values, mat in table.items()
                 if not fld.equal(mat, recovered.gen[key][values])]
    return out + [("shift", n) for n in range(rep.N + 1)
                  if not fld.equal(rep.shifts[n], recovered.shifts[n])]


# ---------------------------------------------------------------------------
# the marked category of stratum pairs and its localization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvTildeEdge:
    src: ConvexRelation
    tgt: ConvexRelation
    map: ParaMap
    cartesian: bool


@dataclass(frozen=True, eq=False)
class EdgeNumbering:
    """The edges of a ``ConvTilde`` as int arrays; object i is
    ``objects[i]``, of period ``period[i]``.  ``codes`` (``_edge_codes``) and
    ``cartesian`` run over every edge, in edge order; the rest over the
    Cartesian edges, numbered in edge order: their ends, their values
    padded with zeros to the largest period, and the run of those leaving
    object i, ``out[run_start[i]:run_start[i] + run_len[i]]``.
    """

    object_id: Mapping[ConvexRelation, int]
    period: np.ndarray
    codes: np.ndarray
    cartesian: np.ndarray
    src: np.ndarray
    tgt: np.ndarray
    values: np.ndarray
    out: np.ndarray
    run_start: np.ndarray
    run_len: np.ndarray


def _edge_codes(objects: int, src, tgt, values: np.ndarray) -> np.ndarray:
    """The ``paracat.row_codes`` of the rows (src, tgt, values), values padded
    with zeros to the largest period w, in the radix (objects, objects,
    2w, ..., 2w): code // (2w) ** w is src * objects + tgt."""
    width = values.shape[1]
    rows = np.empty((len(values), 2 + width), dtype=np.int64)
    rows[:, 0], rows[:, 1], rows[:, 2:] = src, tgt, values
    return row_codes(rows, (objects, objects) + (2 * width,) * width)


@dataclass(frozen=True)
class ConvTilde:
    """Objects (preorder, relation), held as relations over their preorders,
    and morphisms compatible with relations, listed by canonical
    representative: in the paracyclic variant the full hom-sets are
    representatives times the shift action, in the cyclic variant the
    representatives are the orbits themselves.  Both variants share the
    edges.  An edge is marked Cartesian exactly when the induced map of
    quotient parasimplices is an isomorphism; ``numbering`` holds every
    edge's integer code and Cartesian flag.
    """

    N: int
    objects: Tuple[ConvexRelation, ...]
    edges: Tuple[ConvTildeEdge, ...]

    @functools.cached_property
    def numbering(self) -> EdgeNumbering:
        """The edges as int arrays; built on first use, once per instance
        (so once per memoized ``build_conv_tilde(N)``)."""
        object_id = {rel: i for i, rel in enumerate(self.objects)}
        period = np.array([rel.base.period for rel in self.objects], dtype=np.int64)
        width = int(period.max(initial=0))
        ends = np.array([(object_id[e.src], object_id[e.tgt]) for e in self.edges],
                        dtype=np.int64).reshape(len(self.edges), 2)
        values = np.array([e.map.values + (0,) * (width - len(e.map.values)) for e in self.edges],
                          dtype=np.int64).reshape(len(self.edges), width)
        cartesian = np.array([e.cartesian for e in self.edges], dtype=bool)
        src, tgt = ends[cartesian].T
        out = np.argsort(src, kind="stable")
        run_len = np.bincount(src, minlength=len(self.objects))
        arrays = (period, _edge_codes(len(self.objects), *ends.T, values), cartesian, src, tgt,
                  values[cartesian], out, np.cumsum(run_len) - run_len, run_len)
        for array in arrays:
            array.setflags(write=False)
        return EdgeNumbering(object_id, *arrays)


# Pairs of Cartesian edges composed per gather by _missing_marked_composites.
# At N = 4 there are 4.57M pairs, and each int64 array of one value column
# per pair and per period slot holds 146 MB of them; a chunk's holds 4 MB.
COMPOSITE_CHUNK = 2**17


def respects_relations(r: ParaMap, rel_src: ConvexRelation,
                       rel_tgt: ConvexRelation) -> bool:
    """Whether r descends to a map of quotients I/E -> J/E': E lies in the
    pullback of E'."""
    return rel_src.leq(pullback_relation(r, rel_tgt))


def induced_on_quotients(r: ParaMap, rel_src: ConvexRelation,
                         rel_tgt: ConvexRelation) -> ParaMap:
    """The induced map of quotient parasimplices for a relation-respecting r."""
    values = tuple(
        rel_tgt.quotient_class(r(slot)) for slot in _quotient_class_representatives(rel_src)
    )
    return ParaMap.from_values(
        Parasimplex(len(rel_src.gaps) - 1), Parasimplex(len(rel_tgt.gaps) - 1), values
    )


def _named(rel: ConvexRelation) -> Tuple[Tuple[int, ...], GapKey]:
    """How a failure names a conv-tilde object: (class sizes, gap key)."""
    return rel.base.sizes, gap_key(rel)


@functools.cache
def build_conv_tilde(N: int) -> ConvTilde:
    """All objects with period <= N, with relation-respecting morphisms; memoized."""
    rels = tuple(rel for base in preorders_up_to(N) for rel in enumerate_conv(base))
    edges = []
    for rel_src, rel_tgt in itertools.product(rels, repeat=2):
        # the induced quotient map is onto, so it is invertible exactly
        # when the two quotients have the same size
        cartesian = len(rel_src.gaps) == len(rel_tgt.gaps)
        for r in enumerate_preord_maps(rel_src.base, rel_tgt.base):
            if respects_relations(r, rel_src, rel_tgt):
                edges.append(ConvTildeEdge(rel_src, rel_tgt, r, cartesian))
                if len(edges) > CONV_TILDE_EDGE_CAP:
                    raise ResourceBound(f"edge enumeration exceeded cap {CONV_TILDE_EDGE_CAP}")
    return ConvTilde(N, rels, tuple(edges))


def _missing_marked_composites(tilde: ConvTilde) -> list:
    """A ``marked-composite-missing`` failure for every composable pair of
    Cartesian edges, e then e2, whose composite is not a Cartesian edge;
    e runs in edge order, and e2 through the run of edges leaving e's
    target.  No ``ParaMap`` is built: per chunk of about
    ``COMPOSITE_CHUNK`` pairs, one ``paracat.compose_rows`` gather, and the
    composites' ``_edge_codes`` looked up among the Cartesian edges' codes
    with ``np.isin``, on every call.
    """
    num, objects = tilde.numbering, tilde.objects
    marked = num.codes[num.cartesian]
    # the partners of e: the run of edges leaving its target
    counts, starts = num.run_len[num.tgt], num.run_start[num.tgt]
    ends = np.cumsum(counts)
    before = ends - counts
    columns = np.arange(num.values.shape[1])
    failures = []
    lo = 0
    while lo < len(counts):
        hi = max(lo + 1, int(np.searchsorted(ends, before[lo] + COMPOSITE_CHUNK, "right")))
        e = np.repeat(np.arange(lo, hi), counts[lo:hi])
        within = np.arange(len(e)) - np.repeat(before[lo:hi] - before[lo], counts[lo:hi])
        e2 = num.out[np.repeat(starts[lo:hi], counts[lo:hi]) + within]
        values, _ = compose_rows(num.values[e2], num.values[e], num.period[num.tgt[e], None],
                                 num.period[num.tgt[e2], None])
        values[columns >= num.period[num.src[e], None]] = 0
        codes = _edge_codes(len(objects), num.src[e], num.tgt[e2], values)
        missing = np.isin(codes, marked, invert=True)
        failures += [("marked-composite-missing", _named(objects[a]), _named(objects[b]))
                     for a, b in zip(num.src[e[missing]], num.tgt[e2[missing]])]
        lo = hi
    return failures


def cyclic_report(report: dict) -> dict:
    """The cyclic verdict read off a paracyclic report of
    ``check_localization_adjunction``: its failures without
    ``shift-equivariance``."""
    failures = [f for f in report["failures"] if f[0] != "shift-equivariance"]
    return {**report, "passed": not failures, "variant": "cyc", "failures": failures}


def check_localization_adjunction(N: int, variant: str = "para") -> dict:
    """Verify the quotient / least-stratum adjunction and its localization.

    Checks, exhaustively over the truncation N >= 1:
      (a) both triangle identities for the unit (projection to the
          quotient) and the identity counit;
      (b) the right adjoint J |-> (J, least) is fully faithful: morphisms
          between images are exactly the surjections of parasimplices;
      (c) the marked (Cartesian) edges are precisely those inverted by the
          quotient functor, are closed under composition, and include the
          identities; the quotient functor commutes with the shift action
          on every edge.
    Every clause is evaluated in both variants.  The cyclic variant shares
    the objects and edges: an edge stands for its orbit under the period
    shift, which is a morphism of the cyclic category, and only the shift
    clause sees more of an orbit than its canonical representative.  So
    the cyclic verdict is the paracyclic one without its
    ``shift-equivariance`` failures (``cyclic_report``).
    """
    if variant not in ("para", "cyc"):
        raise ValueError(f"unknown variant {variant!r}; expected 'para' or 'cyc'")
    if N < 1:
        raise ValueError(f"the truncation needs N >= 1, got {N}")
    tilde = build_conv_tilde(N)
    failures = []

    # (a) triangle identities
    for rel in tilde.objects:
        quotient, proj = quotient_by_relation(rel.base, rel)
        # unit edge: (I, E) -> (I/E, least); it must respect relations
        target_rel = least_relation(proj.tgt)
        if not respects_relations(proj, rel, target_rel):
            failures.append(("unit-not-a-morphism", _named(rel)))
            continue
        # L(unit) must be the identity of I/E (counit is the identity)
        bar = induced_on_quotients(proj, rel, target_rel)
        if bar != quotient.identity():
            failures.append(("triangle-L", _named(rel)))
        # second triangle: the unit at (J, least) must be the identity map
        if rel.base.is_parasimplex and rel == least_relation(rel.base):
            if proj != rel.base.identity():
                failures.append(("triangle-R", _named(rel)))

    # (b) full faithfulness of J -> (J, least): the codes of the edges
    # between the images (read off their leading digits) are the surjections'
    num, objects = tilde.numbering, len(tilde.objects)
    width = num.values.shape[1]
    pairs = num.codes // (2 * width) ** width
    parasimplices = [b for b in preorders_up_to(N) if b.is_parasimplex]
    for j_obj, j_prime in itertools.product(parasimplices, repeat=2):
        s, t = num.object_id[least_relation(j_obj)], num.object_id[least_relation(j_prime)]
        surj = [c.values + (0,) * (width - j_obj.period)
                for c in enumerate_hom(j_obj.k, j_prime.k, "surj")]
        expected = _edge_codes(objects, s, t, np.array(surj, dtype=np.int64).reshape(-1, width))
        if not np.array_equal(np.sort(num.codes[pairs == s * objects + t]), np.sort(expected)):
            failures.append(("not-fully-faithful", j_obj.sizes, j_prime.sizes))

    # (c) Cartesian edges: marked iff inverted by L; closed under composition
    for e in tilde.edges:
        bar = induced_on_quotients(e.map, e.src, e.tgt)
        if (classify(bar) == "both") != e.cartesian:
            failures.append(("marking-mismatch", _named(e.src), _named(e.tgt), e.map.values))
        # the quotient functor commutes with the shift action on hom-sets
        bar_shifted = induced_on_quotients(shift_action(e.map, 1), e.src, e.tgt)
        if bar_shifted != shift_action(bar, 1):
            failures.append(("shift-equivariance", _named(e.src), _named(e.tgt),
                             e.map.values))
    ids, columns = np.arange(objects), np.arange(width)
    identities = _edge_codes(objects, ids, ids, np.where(columns < num.period[:, None], columns, 0))
    # distinct edges have distinct codes
    unmarked = np.isin(identities, num.codes[num.cartesian], assume_unique=True, invert=True)
    failures += [("identity-not-marked", _named(tilde.objects[i]))
                 for i in np.flatnonzero(unmarked)]
    failures += _missing_marked_composites(tilde)

    report = {
        "passed": not failures,
        "variant": "para",
        "N": N,
        "objects": len(tilde.objects),
        "edges": len(tilde.edges),
        "failures": failures,
    }
    return cyclic_report(report) if variant == "cyc" else report


# ---------------------------------------------------------------------------
# structured random representations
# ---------------------------------------------------------------------------

def cell_rep(j: int, scale, field: Field, N: int) -> ParaRep:
    """The representation spanned by surjections out of Par(j).

    Basis of the space at n: canonical surjection representatives
    Par(j) -> Par(n); a map acts by postcomposition, picking up ``scale``
    to the power of the shift offset, so the shift matrix is scale times
    the identity.
    """
    dims = tuple(len(enumerate_hom(j, n, "surj")) for n in range(N + 1))
    gen = {}
    for m in range(N + 1):
        for n in range(N + 1):
            # column b of c's matrix: the composite c o b, at its row of the basis
            idx, wrap = composition_table(j, m, n, "surj")
            table = {}
            for c, rows, shifts in zip(enumerate_hom(m, n, "surj"), idx, wrap):
                mat = field.zeros(dims[n], dims[m])
                mat[rows, np.arange(dims[m])] = [field.scalar_power(scale, int(k)) for k in shifts]
                table[c.values] = mat
            gen[(m, n)] = table
    shifts = tuple(
        field.scalar_matrix(scale, dims[n]) for n in range(N + 1)
    )
    return ParaRep(N, field, dims, gen, shifts)


def character_rep(scale, field: Field, N: int) -> ParaRep:
    """The one-dimensional representation f |-> scale^(m - n)."""
    dims = (1,) * (N + 1)
    gen = {}
    for m in range(N + 1):
        for n in range(N + 1):
            value = field.scalar_power(scale, m - n)
            gen[(m, n)] = {
                c.values: field.scalar_matrix(value, 1)
                for c in enumerate_hom(m, n, "surj")
            }
    shifts = tuple(field.identity(1) for _ in range(N + 1))
    return ParaRep(N, field, dims, gen, shifts)


def constant_rep(dim: int, field: Field, N: int) -> ParaRep:
    dims = (dim,) * (N + 1)
    gen = {
        (m, n): {c.values: field.identity(dim) for c in enumerate_hom(m, n, "surj")}
        for m in range(N + 1) for n in range(N + 1)
    }
    shifts = tuple(field.identity(dim) for _ in range(N + 1))
    return ParaRep(N, field, dims, gen, shifts)


def _block_diagonal(field: Field, blocks: Sequence[np.ndarray]) -> np.ndarray:
    out = field.zeros(sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks))
    row = col = 0
    for b in blocks:
        out[row:row + b.shape[0], col:col + b.shape[1]] = b
        row += b.shape[0]
        col += b.shape[1]
    return out


def direct_sum(reps: Sequence[ParaRep]) -> ParaRep:
    first = reps[0]
    field, N = first.field, first.N
    dims = tuple(sum(r.dims[n] for r in reps) for n in range(N + 1))
    gen = {
        (m, n): {c.values: _block_diagonal(field, [r.gen[(m, n)][c.values] for r in reps])
                 for c in enumerate_hom(m, n, "surj")}
        for m in range(N + 1) for n in range(N + 1)
    }
    shifts = tuple(_block_diagonal(field, [r.shifts[n] for r in reps]) for n in range(N + 1))
    return ParaRep(N, field, dims, gen, shifts)


def conjugate_rep(rep: ParaRep, conjugators: Sequence[np.ndarray]) -> ParaRep:
    field = rep.field
    inverses = [field.inverse(u) for u in conjugators]
    gen = {
        (m, n): {
            values: field.matmul(conjugators[n], field.matmul(mat, inverses[m]))
            for values, mat in table.items()
        }
        for (m, n), table in rep.gen.items()
    }
    shifts = tuple(
        field.matmul(conjugators[n], field.matmul(rep.shifts[n], inverses[n]))
        for n in range(rep.N + 1)
    )
    return ParaRep(rep.N, field, rep.dims, gen, shifts)


def random_rep(rng, field: Field, N: int, cyclic: bool = False) -> ParaRep:
    """A seeded random valid representation with dims <= 4 at every level.

    Built as a direct sum of characters, a surjection cell, and constants
    (a menu keeping every dimension at most 4), then conjugated by random
    isomorphisms so the matrices carry no visible block structure.
    """
    def char():
        return character_rep(field.random_unit(rng), field, N)

    def cell():
        scale = field.one if cyclic else field.random_unit(rng)
        return cell_rep(1, scale, field, N)

    def const():
        return constant_rep(1, field, N)

    menu = [
        lambda: [char()],
        lambda: [char(), char()],
        lambda: [char(), cell()],
        lambda: [char(), char(), cell()],
        lambda: [char(), char(), const()],
        lambda: [char(), cell(), const()],
    ]
    pieces = rng.choice(menu)()
    total = direct_sum(pieces)
    conjugators = [field.random_invertible(rng, total.dims[n]) for n in range(N + 1)]
    return conjugate_rep(total, conjugators)
