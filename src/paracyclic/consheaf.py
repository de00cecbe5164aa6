"""Constructible sheaves on corner spaces as poset representations.

Because exit paths of a corner space are captured by its poset of convex
relations, a constructible sheaf valued in finite-dimensional vector spaces
is the same thing as a functor from that poset to matrices.  A sheaf stores
one vector-space dimension per stratum and one matrix per covering edge
(dropping a single surviving boundary); the only law is path independence
around the diamonds of the poset.

``strata(base)`` is the one derivation of that poset: it numbers the strata
and gives each one's relation, faces and covering edges, once per base.

Each sheaf owns one matrix of compatibility constraints in whole-space
coordinates, the coordinates of all its strata in ``strata(base).keys``
order, built on first use.  Sections over an open union of strata (an
upward closed set) are the kernel of the rows and columns of that matrix
which the up-set's mask selects; bases are returned in reduced echelon
form so repeated runs agree exactly.

Gluing compares the sections over a union U1 u U2 with the fiber product
of the sections over U1 and U2 over their intersection.  ``gluing_check``
checks one pair, and can share a cache across pairs.  ``gluing_rows``
checks every pair of a sheaf, a row of pairs at a time, with every
section basis embedded once in whole-space coordinates: each restriction
is a gather of the bigger basis at the smaller one's free columns, the
restrictions of a row are verified by one stacked product, and only pairs
whose overlap has sections reach arithmetic, those of a row by one
stacked product and one stacked elimination.  Both give the same reports.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, NamedTuple, Tuple

import numpy as np

from ._linalg import Field, field_from_token
from .errors import (
    BaseMismatch,
    DimensionMismatch,
    MalformedInput,
    NotFunctorial,
    NotUpwardClosed,
    ResourceBound,
)
from .paracat import ParaMap, ParaPreorder
from .preord import ConvexRelation, enumerate_conv, pullback_relation

GapKey = Tuple[int, ...]

# Beyond this many classes the up-sets of a base are not built: ResourceBound
# is raised before any work.  Five classes (Par(4)) give 7,580 up-sets, six
# would give 7,828,353, one less than the Dedekind number M(6).
UPSET_CLASS_CAP = 5


def gap_key(rel_or_gaps) -> GapKey:
    if isinstance(rel_or_gaps, ConvexRelation):
        return tuple(sorted(rel_or_gaps.gaps))
    return tuple(sorted(rel_or_gaps))


@dataclass(frozen=True, eq=False)
class StratumPoset:
    """The convex relations of a base as a poset of gap keys.

    ``keys`` lists the strata in ``enumerate_conv`` order, least stratum
    (most gaps) first.  ``relation[key]`` is the relation behind a key,
    ``bit[key]`` its up-set mask bit, 1 << its position in ``keys``, and
    ``faces[key][b]`` the stratum that drops gap b (none for one gap).
    ``edges`` are the covering edges (key, face), in key and gap order.
    """

    keys: Tuple[GapKey, ...]
    relation: Mapping[GapKey, ConvexRelation]
    bit: Mapping[GapKey, int]
    faces: Mapping[GapKey, Mapping[int, GapKey]]
    edges: Tuple[Tuple[GapKey, GapKey], ...]


@functools.cache
def strata(base: ParaPreorder) -> StratumPoset:
    """The stratum poset of ``base``; memoized."""
    relation = {gap_key(rel): rel for rel in enumerate_conv(base)}
    bit = {key: 1 << i for i, key in enumerate(relation)}
    faces = {key: {b: tuple(x for x in key if x != b) for b in key} if len(key) > 1 else {}
             for key in relation}
    edges = tuple((key, face) for key in relation for face in faces[key].values())
    return StratumPoset(tuple(relation), relation, bit, faces, edges)


@dataclass(frozen=True)
class FinVect:
    """A finite-dimensional vector space over a prime field or the rationals."""

    field: Field
    dim: int


class ConstraintSystem(NamedTuple):
    """The compatibility constraints of a sheaf in whole-space coordinates.

    The columns are those of every stratum, in ``strata(base).keys`` order;
    the rows come in one block per covering edge (src, dst), in
    ``strata(base).edges`` order, holding the edge's matrix in the columns
    of src and minus the identity in those of dst.  ``row_ends[r]`` is the
    pair of positions in ``keys`` of the ends of row r's edge, and
    ``column_stratum[c]`` the position of column c's stratum.  The
    constraints over an up-set are the rows whose two ends it holds, in the
    columns of its strata.
    """

    matrix: np.ndarray
    row_ends: np.ndarray
    column_stratum: np.ndarray


@dataclass(frozen=True, eq=False)
class StratSheaf:
    """A functor from the convex-relation poset to matrices over a field.

    ``dims`` assigns a dimension to every stratum (keyed by the sorted gap
    tuple); ``maps`` holds one matrix per covering edge, keyed by
    (finer key, coarser key) where the coarser key drops exactly one gap.
    ``constraints`` is built on first use, by ``sections``.
    """

    base: ParaPreorder
    field: Field
    dims: Mapping[GapKey, int]
    maps: Mapping[Tuple[GapKey, GapKey], np.ndarray]

    @functools.cached_property
    def constraints(self) -> ConstraintSystem:
        """The constraint matrix over the whole space; see ``ConstraintSystem``."""
        poset = strata(self.base)
        sizes = [self.dims[key] for key in poset.keys]
        offsets = np.cumsum([0] + sizes)
        position = {key: s for s, key in enumerate(poset.keys)}
        fld = self.field
        matrix = fld.zeros(sum(self.dims[dst] for _, dst in poset.edges), int(offsets[-1]))
        row_ends = []
        for src, dst in poset.edges:
            s, t = position[src], position[dst]
            rows = slice(len(row_ends), len(row_ends) + self.dims[dst])
            matrix[rows, offsets[s]:offsets[s + 1]] = self.maps[(src, dst)]
            matrix[rows, offsets[t]:offsets[t + 1]] = fld.neg(fld.identity(self.dims[dst]))
            row_ends += [(s, t)] * self.dims[dst]
        return ConstraintSystem(matrix, np.array(row_ends, dtype=np.int64).reshape(-1, 2),
                                np.repeat(np.arange(len(sizes)), sizes))

    def value(self, stratum) -> FinVect:
        return FinVect(self.field, self.dims[gap_key(stratum)])

    def edge_map(self, fine, coarse) -> np.ndarray:
        """The functor on an arbitrary relation fine <= coarse.

        Composes covering-edge matrices along the chain that drops the
        largest surplus gap first; path independence makes the chain
        irrelevant.
        """
        fine, coarse = gap_key(fine), gap_key(coarse)
        for key in (fine, coarse):
            if key not in self.dims:
                raise MalformedInput(f"{key} is not a stratum of the base {self.base.sizes}")
        if not set(coarse) <= set(fine):
            raise MalformedInput("edge goes from finer to coarser strata only")
        faces = strata(self.base).faces
        matrix = self.field.identity(self.dims[fine])
        current = fine
        for dropped in sorted(set(fine) - set(coarse), reverse=True):
            nxt = faces[current][dropped]
            matrix = self.field.matmul(self.maps[(current, nxt)], matrix)
            current = nxt
        return matrix

    def to_json(self) -> dict:
        return {
            "base": self.base.to_json(),
            "field": self.field.name,
            "values": {",".join(map(str, k)): self.dims[k] for k in strata(self.base).keys},
            "maps": [
                {
                    "from": list(src),
                    "to": list(dst),
                    "matrix": self.field.mat_to_json(mat),
                }
                for (src, dst), mat in sorted(self.maps.items())
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "StratSheaf":
        base = ParaPreorder.from_json(data["base"])
        fld = field_from_token(data["field"])
        dims = {
            tuple(int(b) for b in key.split(",")): int(dim)
            for key, dim in data["values"].items()
        }
        maps = {}
        for entry in data["maps"]:
            src, dst = tuple(entry["from"]), tuple(entry["to"])
            maps[(src, dst)] = fld.mat_from_json(
                entry["matrix"], (dims[dst], dims[src])
            )
        return validate_sheaf(base, fld, dims, maps)


def validate_sheaf(base, field, dims, maps) -> StratSheaf:
    """Check shapes and path independence on all diamonds; raises on failure."""
    poset = strata(base)
    if set(dims) != set(poset.keys):
        raise DimensionMismatch("dimension table does not cover the stratum poset")
    if any(d < 0 for d in dims.values()):
        raise DimensionMismatch("negative dimension")
    if set(maps) != set(poset.edges):
        raise DimensionMismatch("matrix table does not match the covering edges")
    for (src, dst), mat in maps.items():
        if mat.shape != (dims[dst], dims[src]):
            raise DimensionMismatch(
                f"edge {src}->{dst} expects shape {(dims[dst], dims[src])}, got {mat.shape}"
            )
    for key in poset.keys:
        if len(key) < 3:
            continue
        faces = poset.faces[key]
        for b1, b2 in itertools.combinations(key, 2):
            mid1, mid2 = faces[b1], faces[b2]
            bottom = poset.faces[mid1][b2]
            one = field.matmul(maps[(mid1, bottom)], maps[(key, mid1)])
            two = field.matmul(maps[(mid2, bottom)], maps[(key, mid2)])
            if not field.equal(one, two):
                raise NotFunctorial(f"diamond {key} -> {bottom} does not commute")
    return StratSheaf(base, field, dict(dims), dict(maps))


def constant_sheaf(base: ParaPreorder, field: Field, dim: int) -> StratSheaf:
    poset = strata(base)
    maps = {edge: field.identity(dim) for edge in poset.edges}
    return StratSheaf(base, field, dict.fromkeys(poset.keys, dim), maps)


def stalk(sheaf: StratSheaf, rel: ConvexRelation) -> FinVect:
    if rel.base != sheaf.base:
        raise BaseMismatch("stratum lives over a different base")
    return sheaf.value(rel)


# ---------------------------------------------------------------------------
# open unions of strata
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UpSet:
    """An upward closed set of strata: the open unions of the stratification.

    The constructor checks that every member is a stratum of ``base`` and
    that the set is upward closed.  Intersections and unions of up-sets are
    up-sets, so ``&`` and ``|`` build their results without re-checking.

    ``mask`` numbers the up-set among those of its base: it is the sum of
    its members' bits in ``strata(base)``.  Meets and joins of masks are
    ``&`` and ``|`` of integers, which is how ``gluing_check`` forms them
    and keys its section cache.
    """

    base: ParaPreorder
    members: FrozenSet[GapKey]
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(gap_key(k) for k in self.members))
        poset = strata(self.base)
        mask = 0
        for key in self.members:
            if key not in poset.bit:
                raise BaseMismatch(f"{key} is not a stratum of the base {self.base.sizes}")
            for smaller in poset.faces[key].values():
                if smaller not in self.members:
                    raise NotUpwardClosed(
                        f"{key} is a member but the larger stratum {smaller} is not"
                    )
            mask |= poset.bit[key]
        object.__setattr__(self, "mask", mask)

    @classmethod
    def _closed(cls, base: ParaPreorder, members: FrozenSet[GapKey], mask: int) -> "UpSet":
        """An up-set whose members are upward closed by construction, with
        ``mask`` their number."""
        up = object.__new__(cls)
        object.__setattr__(up, "base", base)
        object.__setattr__(up, "members", members)
        object.__setattr__(up, "mask", mask)
        return up

    def __contains__(self, key):
        return gap_key(key) in self.members

    def _same_base(self, other: "UpSet") -> ParaPreorder:
        if other.base is not self.base and other.base != self.base:
            raise BaseMismatch("up-sets live over different bases")
        return self.base

    def __and__(self, other: "UpSet") -> "UpSet":
        return UpSet._closed(self._same_base(other), self.members & other.members,
                             self.mask & other.mask)

    def __or__(self, other: "UpSet") -> "UpSet":
        return UpSet._closed(self._same_base(other), self.members | other.members,
                             self.mask | other.mask)


def up_closure(base: ParaPreorder, seeds: Iterable) -> UpSet:
    """The least up-set holding ``seeds``; the constructor rejects non-strata."""
    faces = strata(base).faces
    members = set()
    stack = [gap_key(s) for s in seeds]
    while stack:
        key = stack.pop()
        if key in members or not key:
            continue
        members.add(key)
        stack.extend(faces.get(key, {}).values())
    return UpSet(base, frozenset(members))


def whole_space(base: ParaPreorder) -> UpSet:
    keys = strata(base).keys
    return UpSet._closed(base, frozenset(keys), (1 << len(keys)) - 1)


@functools.cache
def _upsets_by_mask(base: ParaPreorder) -> Dict[int, UpSet]:
    """Every up-set of ``base``, keyed by its mask in ascending order;
    memoized.  Up-sets are generated directly, adding the strata by
    increasing number of gaps and a stratum only when all its one-gap-smaller
    faces are members, so the cost grows with the number of up-sets (7,580
    at Par(4)), not with the 2^(number of strata) subsets."""
    if base.num_classes > UPSET_CLASS_CAP:
        raise ResourceBound(
            f"{base.num_classes} classes exceed the cap of {UPSET_CLASS_CAP} for up-sets")
    poset = strata(base)
    bit = poset.bit
    masks = [0]
    for key in sorted(poset.keys, key=len):
        faces = sum(bit[face] for face in poset.faces[key].values())
        masks += [m | bit[key] for m in masks if m & faces == faces]
    return {m: UpSet._closed(base, frozenset(k for k in poset.keys if m & bit[k]), m)
            for m in sorted(masks)}


def enumerate_upsets(base: ParaPreorder) -> List[UpSet]:
    """Every upward closed set of strata, the empty one included, in mask
    order: masks ascend (see ``UpSet``).  The up-sets are built once per
    base and shared between calls."""
    return list(_upsets_by_mask(base).values())


@dataclass(frozen=True, eq=False)
class SectionSpace:
    """Solutions of the compatibility constraints over an up-set.

    ``layout`` lists the strata in coordinate order, their order in
    ``strata(base)``; ``basis`` rows are the compatible families in reduced
    echelon form.
    """

    field: Field
    layout: Tuple[GapKey, ...]
    offsets: Tuple[int, ...]
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def sections(sheaf: StratSheaf, open_set: UpSet) -> SectionSpace:
    """The limit of the sheaf over an up-set, as an explicit kernel: the
    right kernel of the rows and columns of ``sheaf.constraints`` that
    belong to the up-set."""
    if open_set.base != sheaf.base:
        raise BaseMismatch("up-set lives over a different base")
    keys = strata(sheaf.base).keys
    inside = np.array([open_set.mask >> s & 1 for s in range(len(keys))], dtype=bool)
    layout = tuple(itertools.compress(keys, inside))
    offsets = [0]
    for key in layout:
        offsets.append(offsets[-1] + sheaf.dims[key])
    system = sheaf.constraints
    rows = inside[system.row_ends].all(axis=1)
    columns = inside[system.column_stratum]
    basis = sheaf.field.right_kernel(system.matrix[rows][:, columns])
    return SectionSpace(sheaf.field, layout, tuple(offsets), basis)


def restriction_matrix(sheaf: StratSheaf, big: SectionSpace, small: SectionSpace) -> np.ndarray:
    """Coordinates of restricted basis vectors in the smaller section basis.

    The smaller basis comes from ``right_kernel``: each row has a 1 in its
    own free column, its last nonzero entry, and every other row has a 0
    there.  So the coordinates of a vector in its span are the vector's
    entries at those columns, and one product checks that they rebuild
    every restricted vector.
    """
    fld = sheaf.field
    if big.dim == 0:
        return fld.zeros(0, small.dim)
    columns: List[int] = []
    for key in small.layout:
        i = big.layout.index(key)
        columns += range(big.offsets[i], big.offsets[i + 1])
    restricted = big.basis[:, columns]
    if small.dim == 0:
        agree = not restricted.any()
        coords = fld.zeros(big.dim, 0)
    else:
        free = [np.flatnonzero(row)[-1] for row in small.basis != 0]
        coords = restricted[:, free]
        agree = fld.equal(fld.matmul(coords, small.basis), restricted)
    if not agree:
        raise NotFunctorial("restriction of a section is not a section")
    return coords


def pullback_sheaf(r: ParaMap, sheaf: StratSheaf) -> StratSheaf:
    """Pull a sheaf on the source's corner space back along the point map.

    For r: I' -> I, precomposition maps the corner space of I into the one
    of I', so a sheaf over I' induces one over I whose stratum values are
    read off through the relation pullback.
    """
    if sheaf.base != r.src:
        raise BaseMismatch("sheaf does not live over the source of the map")
    poset = strata(r.tgt)
    back = {key: gap_key(pullback_relation(r, rel)) for key, rel in poset.relation.items()}
    dims = {key: sheaf.dims[back[key]] for key in back}
    maps = {(src, dst): sheaf.edge_map(back[src], back[dst]) for src, dst in poset.edges}
    return StratSheaf(r.tgt, sheaf.field, dims, maps)


def gluing_check(sheaf: StratSheaf, u1: UpSet, u2: UpSet,
                 section_cache: dict = None) -> dict:
    """Verify sections(U1 u U2) is the fiber product over the intersection.

    The comparison map is a coordinate projection, hence injective; the
    check is exact equality of dimensions plus explicit restriction
    compatibility of bases.  Pass a dict as ``section_cache`` to reuse work
    across many pairs over the same sheaf: it holds the section space of
    each up-set, keyed by its mask, and the restriction matrix of each
    (bigger, smaller) pair of up-sets, keyed by the pair of masks.  The
    union and the intersection are formed as ``|`` and ``&`` of the masks;
    an ``UpSet`` is looked up for a mask only when its section space is
    missing.  One dict serves one sheaf.

    The five restrictions must have the shapes that the four section
    dimensions give them; if any does not, ``restrictions_agree`` is False
    and ``dim_fiber_product`` is None.  When the overlap or the union has
    no sections, both composites of restrictions are empty, so agreeing
    shapes are all there is to compare, and an overlap without sections
    makes the fiber product the direct sum.  Every other pair is checked
    by elimination and matrix products (``_fiber_product``).

    This is the single-pair path.  To check every pair of up-sets of a
    sheaf, ``gluing_rows`` gives the same reports a row at a time.
    """
    cache = {} if section_cache is None else section_cache
    base = u1._same_base(u2)
    if base is not sheaf.base and base != sheaf.base:
        raise BaseMismatch("up-sets live over a different base than the sheaf")
    upsets = _upsets_by_mask(base)

    def cached_sections(mask: int) -> SectionSpace:
        space = cache.get(mask)
        if space is None:
            space = cache[mask] = sections(sheaf, upsets[mask])
        return space

    def restriction(big: int, small: int) -> np.ndarray:
        key = (big, small)
        matrix = cache.get(key)
        if matrix is None:
            matrix = cache[key] = restriction_matrix(sheaf, cache[big], cache[small])
        return matrix

    m1, m2 = u1.mask, u2.mask
    union, inter = m1 | m2, m1 & m2
    dim_union = cached_sections(union).dim
    dim_left = cached_sections(m1).dim
    dim_right = cached_sections(m2).dim
    dim_overlap = cached_sections(inter).dim

    r1 = restriction(union, m1)               # (dim union, dim U1)
    r2 = restriction(union, m2)
    r_inter = restriction(union, inter)
    r1_to_inter = restriction(m1, inter)      # (dim U1, dim overlap)
    r2_to_inter = restriction(m2, inter)

    if not (r1.shape == (dim_union, dim_left) and r2.shape == (dim_union, dim_right)
            and r_inter.shape == (dim_union, dim_overlap)
            and r1_to_inter.shape == (dim_left, dim_overlap)
            and r2_to_inter.shape == (dim_right, dim_overlap)):
        fp_dim, compatible = None, False
    elif dim_overlap == 0:
        fp_dim, compatible = dim_left + dim_right, True
    else:
        fp_dim, compatible = _fiber_product(sheaf.field, r1, r2, r_inter,
                                            r1_to_inter, r2_to_inter)
    passed = (dim_union == fp_dim) and compatible
    return {
        "passed": bool(passed),
        "dim_union": dim_union,
        "dim_fiber_product": fp_dim,
        "dim_left": dim_left,
        "dim_right": dim_right,
        "dim_overlap": dim_overlap,
        "restrictions_agree": bool(compatible),
    }


def _fiber_product(fld: Field, r1, r2, r_inter, r1_to_inter, r2_to_inter) -> Tuple[int, bool]:
    """The fiber product over an overlap that has sections.

    The restrictions go from the union to U1, to U2 and to the overlap, and
    from U1 and U2 to the overlap, with the shapes that the section
    dimensions give them.  Returns the dimension of the fiber product of
    the sections over U1 and U2, and whether both composite restrictions
    from the union to the overlap equal the direct one.
    """
    pair_constraints = np.concatenate([r1_to_inter.T, fld.neg(r2_to_inter.T)], axis=1)
    fp_dim = r1_to_inter.shape[0] + r2_to_inter.shape[0] - fld.rank(pair_constraints)
    compatible = True
    if r1.shape[0]:
        via_u1 = fld.matmul(r1_to_inter.T, r1.T)
        via_u2 = fld.matmul(r2_to_inter.T, r2.T)
        compatible = fld.equal(via_u1, via_u2) and fld.equal(via_u1, r_inter.T)
    return fp_dim, compatible


class GluingRow(NamedTuple):
    """The gluing reports of one row of up-set pairs, as arrays.

    ``left`` is the position i of U1 in ``enumerate_upsets``; entry k of
    every array belongs to the pair whose U2 is at position i + k.
    """

    left: int
    dim_union: np.ndarray
    dim_left: np.ndarray
    dim_right: np.ndarray
    dim_overlap: np.ndarray
    dim_fiber_product: np.ndarray
    restrictions_agree: np.ndarray
    passed: np.ndarray

    def report(self, k: int) -> dict:
        """Entry k as the dict that ``gluing_check`` returns for its pair."""
        return {
            "passed": bool(self.passed[k]),
            "dim_union": int(self.dim_union[k]),
            "dim_fiber_product": int(self.dim_fiber_product[k]),
            "dim_left": int(self.dim_left[k]),
            "dim_right": int(self.dim_right[k]),
            "dim_overlap": int(self.dim_overlap[k]),
            "restrictions_agree": bool(self.restrictions_agree[k]),
        }


def _row_positions(masks: np.ndarray, i: int) -> Tuple[np.ndarray, np.ndarray]:
    """Positions in the ascending ``masks`` of the unions and of the
    intersections of up-set i with the up-sets i, i + 1, ..."""
    row = masks[i:]
    return np.searchsorted(masks, masks[i] | row), np.searchsorted(masks, masks[i] & row)


def gluing_rows(sheaf: StratSheaf) -> Iterator[GluingRow]:
    """``gluing_check`` over every pair of up-sets, a row of pairs at a time.

    Yields one ``GluingRow`` per up-set position i, in ``enumerate_upsets``
    order, over the columns j >= i; ``row.report(k)`` equals
    ``gluing_check(sheaf, U_i, U_{i+k})``.  The section space of every
    up-set is computed once per call, and kept in whole-space coordinates,
    the T columns of ``sheaf.constraints``: one array of shape
    (up-sets, w, T + 1) holds each basis, padded with zero rows to the
    largest section dimension w, in the columns of its up-set's strata;
    column T lies in no up-set and is zero.  Beside it each up-set's free
    columns, the last nonzero entry of each basis row (as
    ``restriction_matrix`` reads them), are kept in whole-space numbering,
    padded with T.  The restriction from U to V is then the gather of U's
    basis at V's free columns, a (w, w) matrix padded with zeros, which
    changes no product and no rank.  Each row finds its unions and
    intersections with one ``np.searchsorted`` over the ascending masks.

    Every restriction that ``gluing_check`` reads is checked to be a
    section, and ``NotFunctorial`` is raised where it raises: the distinct
    restrictions of a row from up-sets with sections are checked by one
    ``Field.stacked_matmul``, which rebuilds from their coordinates the
    bigger basis on the smaller up-set's columns.  Onto an up-set without
    sections the rebuilt basis is zero, so the check is that the bigger
    basis vanishes there, as in ``restriction_matrix``.

    A pair whose overlap has no sections is decided by the arrays: its
    fiber product is the direct sum.  The other pairs of a row are checked
    in one batch, with their five restrictions gathered from the row's:
    both composites from the union to the overlap come from one
    ``Field.stacked_matmul`` and are compared with the direct restriction,
    and the fiber product dimensions from one ``Field.stacked_rank`` of
    the (w, 2w) matrices [R_1^T | -R_2^T] of the restrictions R_1 and R_2
    from U1 and U2 onto the overlap.  Over a prime field the products stay
    in int64 while w (p - 1)^2 < 2^63 and go through Python ints above
    that; the elimination stays in int64 for every accepted prime (see
    ``_linalg``).  Nothing outlives the call, and of each row only its
    ``GluingRow`` outlives it.
    """
    upsets = enumerate_upsets(sheaf.base)
    spaces = [sections(sheaf, up) for up in upsets]
    n = len(spaces)
    dims = np.array([space.dim for space in spaces], dtype=np.int64)
    masks = np.array([up.mask for up in upsets], dtype=np.int64)
    fld = sheaf.field
    width = int(dims.max())
    column_stratum = sheaf.constraints.column_stratum
    total = len(column_stratum)
    columns = np.zeros((n, total + 1), dtype=bool)
    columns[:, :total] = masks[:, None] >> column_stratum & 1
    basis = fld.zeros(n * width, total + 1).reshape(n, width, total + 1)
    for u, space in enumerate(spaces):
        basis[u][:space.dim, columns[u]] = space.basis
    free = total - np.argmax((basis != 0)[:, :, ::-1], axis=2)
    for i in range(n):
        yield _glue_row(fld, masks, dims, columns, basis, free, i)


def _glue_row(fld: Field, masks, dims, columns, basis, free, i: int) -> GluingRow:
    """Row i of ``gluing_rows``, from its whole-space arrays; the row's
    restrictions and products die with the call, so between rows only the
    yielded reports are held."""
    n, width = basis.shape[:2]
    union, inter = _row_positions(masks, i)
    right = np.arange(i, n)
    left = np.full(n - i, i)
    # the five (big, small) restrictions that each pair of the row reads
    big = np.concatenate([union, union, union, left, right])
    small = np.concatenate([left, right, inter, inter, inter])
    pairs, index = np.unique(big * n + small, return_inverse=True)
    b, s = np.divmod(pairs, n)
    coords = basis[b[:, None, None], np.arange(width)[:, None], free[s][:, None, :]]
    live = dims[b] > 0
    if live.any():
        b, s = b[live], s[live]
        rebuilt = fld.stacked_matmul(coords[live], basis[s])
        if not np.array_equal(rebuilt, np.where(columns[s][:, None, :], basis[b], 0)):
            raise NotFunctorial("restriction of a section is not a section")
    dim_union, dim_left, dim_right, dim_overlap = dims[union], dims[left], dims[i:], dims[inter]
    fp_dim = dim_left + dim_right
    agree = np.ones(n - i, dtype=bool)
    arithmetic = np.flatnonzero(dim_overlap)
    if arithmetic.size:
        r_ui, r_uj, r_ut, r_it, r_jt = coords[index.reshape(5, -1)[:, arithmetic]]
        via_left, via_right = np.split(
            fld.stacked_matmul(np.concatenate([r_ui, r_uj]), np.concatenate([r_it, r_jt])), 2)
        agree[arithmetic] = ((via_left == r_ut) & (via_right == r_ut)).all(axis=(1, 2))
        constraints = np.concatenate([r_it.transpose(0, 2, 1),
                                      fld.neg(r_jt.transpose(0, 2, 1))], axis=2)
        fp_dim[arithmetic] -= fld.stacked_rank(constraints)
    return GluingRow(i, dim_union, dim_left, dim_right, dim_overlap, fp_dim, agree,
                     (dim_union == fp_dim) & agree)


# ---------------------------------------------------------------------------
# random valid sheaves (interval modules conjugated by isomorphisms)
# ---------------------------------------------------------------------------

def random_sheaf(rng, base: ParaPreorder, field: Field, max_intervals: int = 4) -> StratSheaf:
    """A random functor: a sum of interval modules, conjugated stratum-wise.

    An interval module is supported on an order-convex set of strata with
    identity edge maps inside and zero maps outside; sums of these satisfy
    path independence, and conjugation by random isomorphisms keeps that
    while scrambling the matrices.
    """
    poset = strata(base)
    keys, rel_of = poset.keys, poset.relation

    supports = []
    for _ in range(rng.randrange(1, max_intervals + 1)):
        # a down-set intersected with an up-set is order convex
        lower, upper = rng.choice(keys), rng.choice(keys)
        supports.append({
            k for k in keys
            if rel_of[k].leq(rel_of[lower]) and rel_of[upper].leq(rel_of[k])
        })

    dims = {k: sum(1 for s in supports if k in s) for k in keys}
    maps = {}
    for src, dst in poset.edges:
        mat = field.zeros(dims[dst], dims[src])
        src_rows = [i for i, s in enumerate(supports) if src in s]
        dst_rows = [i for i, s in enumerate(supports) if dst in s]
        for j, interval in enumerate(src_rows):
            if interval in dst_rows:
                mat[dst_rows.index(interval), j] = field.one
        maps[(src, dst)] = mat
    conjugators = {k: field.random_invertible(rng, dims[k]) for k in keys}
    # an edge with a zero dimension holds the empty matrix, which conjugation keeps
    maps = {
        (src, dst): field.matmul(
            conjugators[dst], field.matmul(mat, field.inverse(conjugators[src]))
        ) if mat.size else mat
        for (src, dst), mat in maps.items()
    }
    return validate_sheaf(base, field, dims, maps)
