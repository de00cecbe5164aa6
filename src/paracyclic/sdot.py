"""Filtered 2-periodic chain complexes and the row-shift rotation.

A 2-periodic complex is a pair of spaces V0, V1 with differentials in both
directions squaring to zero; the shift swaps the degrees and negates the
differentials, so the double shift is the identity on the nose.  A
filtration is a chain of complexes; faces delete a step (quotienting by
the first step via mapping cones), degeneracies repeat one, and the
rotation replaces the chain by its quotients by the first step followed by
the shifted first step.  Face 0 and the rotation share one construction,
the quotients by the first step with the maps between them; the rotation
appends the shifted first step.  Iterating the rotation n + 1 times
returns the original filtration up to quasi-isomorphism, which the
homology fingerprint certifies degree by degree.  Each step is reduced
once: each differential is eliminated once, and its rref gives both its
kernel, in a basis that is the identity on the free columns, and the
columns of it that span its image.  A degree's boundaries, read at its
kernel's free columns, are one narrow echelon away from representatives
of its homology, and need none when they are as many as the cycles.  Each
map induces a small matrix on the representatives, and the homology of
the cone of every composite follows from the ranks of the induced
products by the long exact sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from ._linalg import Field, Rationals, field_from_token
from .errors import IndexOutOfRange, MalformedInput, NotAComplex, ResourceBound

Dims = Tuple[int, int]

# Beyond this total dimension of the (n + 1)-fold rotation,
# rotation_periodicity_check raises ResourceBound before rotating.  One cap
# per backend kind, since Q arithmetic on Python ints costs far more than
# int64 arithmetic mod p.  Near the caps a check takes about half a minute on
# a 2-vCPU Xeon VM: 30.6 s over F_2 at total 30,938 (length 8, 1.7 GB peak)
# and 31.5 s over Q at total 2,703 (length 5).
PRIME_ROTATION_DIM_CAP = 32768
Q_ROTATION_DIM_CAP = 3000


@dataclass(frozen=True, eq=False)
class TwoPeriodicComplex:
    """Spaces V0, V1 with d0: V0 -> V1 and d1: V1 -> V0, both composites zero."""

    field: Field
    d0: np.ndarray
    d1: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, TwoPeriodicComplex):
            return NotImplemented
        return (self.field == other.field
                and self.field.equal(self.d0, other.d0)
                and self.field.equal(self.d1, other.d1))

    def __post_init__(self):
        v1, v0 = self.d0.shape
        if self.d1.shape != (v0, v1):
            raise NotAComplex(f"differential shapes {self.d0.shape}, {self.d1.shape} disagree")
        fld = self.field
        if self.d1.size and self.d0.size:
            if (fld.matmul(self.d1, self.d0).any()
                    or fld.matmul(self.d0, self.d1).any()):
                raise NotAComplex("differentials do not square to zero")

    @property
    def dims(self) -> Dims:
        return (self.d0.shape[1], self.d0.shape[0])

    @classmethod
    def from_dims(cls, field: Field, v0: int, v1: int):
        """Zero differentials on spaces of dimensions v0, v1."""
        return cls(field, field.zeros(v1, v0), field.zeros(v0, v1))

    def to_json(self) -> dict:
        return {
            "field": self.field.name,
            "dims": list(self.dims),
            "d0": self.field.mat_to_json(self.d0),
            "d1": self.field.mat_to_json(self.d1),
        }

    @classmethod
    def from_json(cls, data: dict) -> "TwoPeriodicComplex":
        fld = field_from_token(data["field"])
        v0, v1 = data["dims"]
        return cls(
            fld,
            fld.mat_from_json(data["d0"], (v1, v0)),
            fld.mat_from_json(data["d1"], (v0, v1)),
        )


def zero_complex(field: Field) -> TwoPeriodicComplex:
    return TwoPeriodicComplex.from_dims(field, 0, 0)


@dataclass(frozen=True, eq=False)
class ComplexMap:
    """A chain map between 2-periodic complexes."""

    src: TwoPeriodicComplex
    tgt: TwoPeriodicComplex
    f0: np.ndarray
    f1: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, ComplexMap):
            return NotImplemented
        fld = self.src.field
        return (self.src == other.src and self.tgt == other.tgt
                and fld.equal(self.f0, other.f0) and fld.equal(self.f1, other.f1))

    def __post_init__(self):
        fld = self.src.field
        s0, s1 = self.src.dims
        t0, t1 = self.tgt.dims
        if self.f0.shape != (t0, s0) or self.f1.shape != (t1, s1):
            raise NotAComplex("chain map has wrong shapes")
        if not fld.equal(fld.matmul(self.f1, self.src.d0),
                         fld.matmul(self.tgt.d0, self.f0)):
            raise NotAComplex("map does not commute with d0")
        if not fld.equal(fld.matmul(self.f0, self.src.d1),
                         fld.matmul(self.tgt.d1, self.f1)):
            raise NotAComplex("map does not commute with d1")

    def to_json(self) -> dict:
        fld = self.src.field
        return {"f0": fld.mat_to_json(self.f0), "f1": fld.mat_to_json(self.f1)}


def identity_chain_map(x: TwoPeriodicComplex) -> ComplexMap:
    v0, v1 = x.dims
    return ComplexMap(x, x, x.field.identity(v0), x.field.identity(v1))


def zero_chain_map(src: TwoPeriodicComplex, tgt: TwoPeriodicComplex) -> ComplexMap:
    fld = src.field
    return ComplexMap(src, tgt, fld.zeros(tgt.dims[0], src.dims[0]),
                      fld.zeros(tgt.dims[1], src.dims[1]))


def compose_chain_maps(g: ComplexMap, f: ComplexMap) -> ComplexMap:
    fld = f.src.field
    return ComplexMap(f.src, g.tgt, fld.matmul(g.f0, f.f0), fld.matmul(g.f1, f.f1))


def shift(x: TwoPeriodicComplex) -> TwoPeriodicComplex:
    """Swap the degrees and negate both differentials; shift o shift = id."""
    fld = x.field
    return TwoPeriodicComplex(fld, fld.neg(x.d1), fld.neg(x.d0))


def shift_map(f: ComplexMap) -> ComplexMap:
    return ComplexMap(shift(f.src), shift(f.tgt), f.f1, f.f0)


def _block(rows: Sequence[Sequence[np.ndarray]]) -> np.ndarray:
    parts = [np.concatenate(list(row), axis=1) for row in rows]
    return np.concatenate(parts, axis=0)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices as one broadcast product, which took 3.6 us
    against np.kron's 26.5 us on 3 x 3 operands (2-vCPU Xeon VM)."""
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def cone(f: ComplexMap) -> TwoPeriodicComplex:
    """The mapping cone: degree i is src_{i+1} (+) tgt_i."""
    fld = f.src.field
    s0, s1 = f.src.dims
    t0, t1 = f.tgt.dims
    d0 = _block([
        [fld.neg(f.src.d1), fld.zeros(s0, t0)],
        [f.f1, f.tgt.d0],
    ])
    d1 = _block([
        [fld.neg(f.src.d0), fld.zeros(s1, t1)],
        [f.f0, f.tgt.d1],
    ])
    return TwoPeriodicComplex(fld, d0, d1)


def cone_boundary_map(f: ComplexMap, cone_of_f: TwoPeriodicComplex) -> ComplexMap:
    """The connecting projection cone(f) -> shift(src), given cone(f)."""
    fld = f.src.field
    s0, s1 = f.src.dims
    t0, t1 = f.tgt.dims
    h0 = _block([[fld.identity(s1), fld.zeros(s1, t0)]])
    h1 = _block([[fld.identity(s0), fld.zeros(s0, t1)]])
    return ComplexMap(cone_of_f, shift(f.src), h0, h1)


def homology_dims(x: TwoPeriodicComplex) -> Dims:
    fld = x.field
    v0, v1 = x.dims
    r0, r1 = fld.rank(x.d0), fld.rank(x.d1)
    return (v0 - r0 - r1, v1 - r1 - r0)


def euler_characteristic(x: TwoPeriodicComplex) -> int:
    h0, h1 = homology_dims(x)
    return h0 - h1


def is_quasi_iso(f: ComplexMap) -> bool:
    return homology_dims(cone(f)) == (0, 0)


# ---------------------------------------------------------------------------
# filtrations
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FilteredObject:
    """A chain X_1 -> X_2 -> ... -> X_n of 2-periodic complexes."""

    field: Field
    objects: Tuple[TwoPeriodicComplex, ...]
    maps: Tuple[ComplexMap, ...]

    def __eq__(self, other):
        if not isinstance(other, FilteredObject):
            return NotImplemented
        return self.objects == other.objects and self.maps == other.maps

    def __post_init__(self):
        if len(self.maps) != max(len(self.objects) - 1, 0):
            raise ValueError("a chain of n objects needs n - 1 maps")
        for i, m in enumerate(self.maps):
            if m.src != self.objects[i] or m.tgt != self.objects[i + 1]:
                raise ValueError(f"map {i} does not connect its neighbours")

    @property
    def length(self) -> int:
        return len(self.objects)

    def to_json(self) -> dict:
        return {
            "field": self.field.name,
            "objects": [x.to_json() for x in self.objects],
            "maps": [m.to_json() for m in self.maps],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FilteredObject":
        fld = field_from_token(data["field"])
        objects = tuple(TwoPeriodicComplex.from_json(x) for x in data["objects"])
        if len(data["maps"]) != max(len(objects) - 1, 0):
            raise MalformedInput(f"{len(objects)} objects and {len(data['maps'])} maps")
        maps = tuple(
            ComplexMap(src, tgt,
                       fld.mat_from_json(entry["f0"], (tgt.dims[0], src.dims[0])),
                       fld.mat_from_json(entry["f1"], (tgt.dims[1], src.dims[1])))
            for entry, src, tgt in zip(data["maps"], objects, objects[1:]))
        return cls(fld, objects, maps)


def _quotients_by_first(
    filtration: FilteredObject,
) -> Tuple[List[ComplexMap], List[TwoPeriodicComplex], List[ComplexMap]]:
    """The composites X_1 -> X_j for j = 2..n, their cones X_j / X_1, and the
    maps X_j / X_1 -> X_{j+1} / X_1 between consecutive cones, which act by
    the identity on the X_1 part and by X_j -> X_{j+1} on the rest."""
    fld = filtration.field
    composites: List[ComplexMap] = []
    for step in filtration.maps:
        composites.append(compose_chain_maps(step, composites[-1]) if composites else step)
    cones = [cone(f) for f in composites]
    maps = []
    for k, through in enumerate(filtration.maps[1:]):
        f = composites[k]
        s0, s1 = f.src.dims
        h0 = _block([
            [fld.identity(s1), fld.zeros(s1, f.tgt.dims[0])],
            [fld.zeros(through.tgt.dims[0], s1), through.f0],
        ])
        h1 = _block([
            [fld.identity(s0), fld.zeros(s0, f.tgt.dims[1])],
            [fld.zeros(through.tgt.dims[1], s0), through.f1],
        ])
        maps.append(ComplexMap(cones[k], cones[k + 1], h0, h1))
    return composites, cones, maps


def face(filtration: FilteredObject, i: int) -> FilteredObject:
    """Delete the i-th step (0-based faces on a length-n filtration).

    Face 0 quotients every later step by the first (as mapping cones);
    faces 1..n-1 skip a step and compose through; face n drops the last.
    """
    n = filtration.length
    if n < 1:
        raise IndexOutOfRange("cannot take a face of the empty filtration")
    if not 0 <= i <= n:
        raise IndexOutOfRange(f"face index {i} outside 0..{n}")
    fld = filtration.field
    if i == 0:
        _, cones, maps = _quotients_by_first(filtration)
        return FilteredObject(fld, tuple(cones), tuple(maps))
    if i == n:
        return FilteredObject(fld, filtration.objects[:-1], filtration.maps[:-1])
    t = i - 1  # zero-based position of the deleted object, 0 <= t <= n - 2
    objects = filtration.objects[:t] + filtration.objects[t + 1:]
    if t == 0:
        maps = filtration.maps[1:]
    else:
        maps = (
            filtration.maps[:t - 1]
            + (compose_chain_maps(filtration.maps[t], filtration.maps[t - 1]),)
            + filtration.maps[t + 1:]
        )
    return FilteredObject(fld, objects, maps)


def degeneracy(filtration: FilteredObject, i: int) -> FilteredObject:
    """Insert a redundant step: repeat X_i (i >= 1) or prepend zero (i = 0)."""
    n = filtration.length
    if not 0 <= i <= n:
        raise IndexOutOfRange(f"degeneracy index {i} outside 0..{n}")
    fld = filtration.field
    if i == 0:
        zero = zero_complex(fld)
        return FilteredObject(
            fld,
            (zero,) + filtration.objects,
            (zero_chain_map(zero, filtration.objects[0]),) + filtration.maps
            if filtration.objects else (),
        )
    objects = (
        filtration.objects[:i]
        + (filtration.objects[i - 1],)
        + filtration.objects[i:]
    )
    maps = (
        filtration.maps[:i - 1]
        + (identity_chain_map(filtration.objects[i - 1]),)
        + filtration.maps[i - 1:]
    )
    return FilteredObject(fld, objects, maps)


def rotate(filtration: FilteredObject) -> FilteredObject:
    """Shift the rows: (X_2/X_1 -> ... -> X_n/X_1 -> X_1 shifted)."""
    n = filtration.length
    if n < 1:
        raise IndexOutOfRange("cannot rotate the empty filtration")
    composites, quotients, maps = _quotients_by_first(filtration)
    if composites:
        maps.append(cone_boundary_map(composites[-1], quotients[-1]))
    objects = tuple(quotients) + (shift(filtration.objects[0]),)
    return FilteredObject(filtration.field, objects, tuple(maps))


class _DegreeHomology(NamedTuple):
    """H_i = Z_i / B_i of one degree in kernel coordinates.  The kernel
    basis of Z_i read off the rref of d_i is the identity on its free
    columns, so a cycle's coordinates in it are its entries there, and B_i
    is an echelon basis of r_i rows in those coordinates.  H_i is
    represented by the kernel basis vectors at the coordinates that are not
    B_i's pivots: ``reps`` holds them as rows, ``free`` their columns of
    V_i, ``pivots`` the columns of V_i at B_i's pivots and ``clear`` B_i's
    echelon rows read at the representatives."""

    reps: np.ndarray
    free: List[int]
    pivots: List[int]
    clear: np.ndarray

    def coordinates(self, field: Field, cycles: np.ndarray) -> np.ndarray:
        """The H_i coordinates of the rows of cycles: their entries at the
        representatives' columns, less the combination of B_i that clears
        its pivots."""
        at_reps = cycles[:, self.free]
        if not self.pivots:
            return at_reps
        return field.reduce(at_reps - field.matmul(cycles[:, self.pivots], self.clear))


def _echelon(field: Field, a: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """a's reduced echelon form and pivot columns; an empty a is its own."""
    return field.rref(a) if a.size else (a, [])


def _degree_homology(field: Field, kernel: np.ndarray, free: List[int],
                     d_in: np.ndarray, in_pivots: List[int]) -> _DegreeHomology:
    """The degree whose cycles are spanned by the rows of kernel, the basis
    with free columns free, and whose boundaries by the columns of d_in at
    its pivot columns in_pivots.  The boundaries' kernel coordinates, an
    r x z matrix, are reduced to echelon form; the coordinates that are not
    its pivots give the representatives.  When r = z the boundaries fill
    the cycles, H = 0, and no echelon is needed."""
    boundaries = d_in[np.ix_(free, in_pivots)].T
    if len(in_pivots) < len(free):
        reduced, pivots = _echelon(field, boundaries)
    else:
        reduced, pivots = boundaries, list(range(len(free)))
    pivot_set = set(pivots)
    homology = [c for c in range(len(free)) if c not in pivot_set]
    return _DegreeHomology(kernel[homology], [free[c] for c in homology],
                           [free[c] for c in pivots], reduced[:len(pivots), homology])


def _step_homology(field: Field, x: TwoPeriodicComplex) -> Tuple[_DegreeHomology, _DegreeHomology]:
    """Both degrees of a step from one elimination of each differential:
    its kernel gives one degree's cycles, and its columns at its pivots
    span the other degree's boundaries."""
    (reduced0, pivots0), (reduced1, pivots1) = _echelon(field, x.d0), _echelon(field, x.d1)
    return (_degree_homology(field, *field.kernel_of_rref(reduced0, pivots0), x.d1, pivots1),
            _degree_homology(field, *field.kernel_of_rref(reduced1, pivots1), x.d0, pivots0))


def _cone_homology(src: Dims, tgt: Dims, ranks: Dims) -> Dims:
    """Homology dimensions of cone(f) from the long exact sequence, given
    those of f's source and target and the ranks of H_0 f and H_1 f: degree i
    of the cone is src_{i+1} (+) tgt_i, so h_i(cone) = coker H_i f + ker H_{i+1} f."""
    (x0, x1), (y0, y1), (r0, r1) = src, tgt, ranks
    return (y0 - r0 + x1 - r1, y1 - r1 + x0 - r0)


def fingerprint(filtration: FilteredObject) -> tuple:
    """Homology dimensions of every step and of every composite's cone.

    Each step's two differentials are eliminated once each
    (``_step_homology``), and each degree's boundaries once more in kernel
    coordinates, unless they fill the cycles; each map induces a small
    matrix on homology, the coordinates of its images of the source's
    representatives; the map a composite induces is the product of these,
    and the cone's homology follows from its ranks by the long exact
    sequence.  No cone is built."""
    fld = filtration.field
    reduced = [_step_homology(fld, x) for x in filtration.objects]
    steps = tuple((len(h0.free), len(h1.free)) for h0, h1 in reduced)
    induced = [
        [tgt.coordinates(fld, fld.matmul(src.reps, f.T))
         for src, tgt, f in zip(reduced[k], reduced[k + 1], (m.f0, m.f1))]
        for k, m in enumerate(filtration.maps)
    ]
    cones = []
    for i in range(filtration.length - 1):
        composite = induced[i]
        for j in range(i + 1, filtration.length):
            if j > i + 1:
                composite = [fld.matmul(a, b) for a, b in zip(composite, induced[j - 1])]
            ranks = tuple(fld.rank(m) for m in composite)
            cones.append(_cone_homology(steps[i], steps[j], ranks))
    return (steps, tuple(cones))


def rotated_total_dim(filtration: FilteredObject) -> int:
    """The total dimension of the (n + 1)-fold rotation, from the step
    dimensions alone: X_j / X_1 has dimensions (s1 + t0, s0 + t1), and the
    shifted X_1 swaps its two.  A rotation adds n - 1 times the dimension of
    X_1 to the total, so this is the largest total the rotations reach."""
    dims = [x.dims for x in filtration.objects]
    for _ in range(len(dims) + 1 if dims else 0):
        (s0, s1), rest = dims[0], dims[1:]
        dims = [(s1 + t0, s0 + t1) for t0, t1 in rest] + [(s1, s0)]
    return sum(map(sum, dims))


def rotation_periodicity_check(filtration: FilteredObject) -> dict:
    """Compare the fingerprint after n + 1 rotations with the original.

    For length 1 the n + 1 = 2 rotations are the double shift, the identity
    on the nose; the report also certifies, by is_quasi_iso, that the
    identity matrices form a chain map from the double rotation to the
    input, which they do exactly when the two complexes agree.  A filtration
    whose rotations would exceed the backend's cap (PRIME_ROTATION_DIM_CAP, or
    Q_ROTATION_DIM_CAP over Q) raises ResourceBound before any rotation.
    """
    n, fld = filtration.length, filtration.field
    cap = Q_ROTATION_DIM_CAP if isinstance(fld, Rationals) else PRIME_ROTATION_DIM_CAP
    total = rotated_total_dim(filtration)
    if total > cap:
        raise ResourceBound(
            f"{n + 1} rotations reach total dimension {total}, cap is {cap}")
    rotated = filtration
    for _ in range(n + 1):
        rotated = rotate(rotated)
    before = fingerprint(filtration)
    after = fingerprint(rotated)
    report = {
        "length": n,
        "fingerprint_before": before,
        "fingerprint_after": after,
        "passed": before == after,
    }
    if n == 1:
        x, back = filtration.objects[0], rotated.objects[0]
        on_the_nose = fld.equal(back.d0, x.d0) and fld.equal(back.d1, x.d1)
        try:
            certificate = ComplexMap(back, x, fld.identity(x.dims[0]), fld.identity(x.dims[1]))
        except NotAComplex:
            certificate = None
        report["double_rotation_is_identity"] = bool(on_the_nose)
        report["certificate_is_quasi_iso"] = (
            certificate is not None and bool(is_quasi_iso(certificate)))
        report["passed"] = report["passed"] and on_the_nose
    return report


# ---------------------------------------------------------------------------
# seeded random complexes, chain maps, and filtrations
# ---------------------------------------------------------------------------

def random_complex(rng, field: Field, max_dim: int = 4) -> TwoPeriodicComplex:
    """A random complex: d1 is sampled from the exact solution space."""
    v0 = rng.randrange(0, max_dim + 1)
    v1 = rng.randrange(0, max_dim + 1)
    d0 = field.random_matrix(rng, v1, v0)
    kernel = field.right_kernel(d0)              # rows span ker d0
    left_kernel = field.right_kernel(d0.T)       # rows span ker d0^T
    coeffs = field.random_matrix(rng, kernel.shape[0], left_kernel.shape[0])
    d1 = field.matmul(kernel.T, field.matmul(coeffs, left_kernel))
    if 0 in d1.shape or kernel.shape[0] == 0 or left_kernel.shape[0] == 0:
        d1 = field.zeros(v0, v1)
    return TwoPeriodicComplex(field, d0, d1)


def random_chain_map(rng, field: Field, src: TwoPeriodicComplex,
                     tgt: TwoPeriodicComplex) -> ComplexMap:
    """A random solution of the chain-map equations, via one exact kernel."""
    s0, s1 = src.dims
    t0, t1 = tgt.dims
    # f1 d0 = d0' f0 and f0 d1 = d1' f1 on f0, f1 flattened row-major,
    # through vec(A X B) = (A (x) B^T) vec(X)
    system = field.reduce(_block([
        [-_kron(tgt.d0, field.identity(s0)), _kron(field.identity(t1), src.d0.T)],
        [_kron(field.identity(t0), src.d1.T), -_kron(tgt.d1, field.identity(s1))],
    ]))
    basis = field.right_kernel(system)
    scales = field.matrix([[field.random_scalar(rng) for _ in range(basis.shape[0])]])
    flat = field.matmul(scales, basis)[0]
    f0 = flat[:t0 * s0].reshape(t0, s0) if t0 * s0 else field.zeros(t0, s0)
    f1 = flat[t0 * s0:].reshape(t1, s1) if t1 * s1 else field.zeros(t1, s1)
    return ComplexMap(src, tgt, f0, f1)


def random_filtration(rng, field: Field, length: int, max_dim: int = 4) -> FilteredObject:
    objects = [random_complex(rng, field, max_dim) for _ in range(length)]
    maps = [
        random_chain_map(rng, field, objects[i], objects[i + 1])
        for i in range(length - 1)
    ]
    return FilteredObject(field, tuple(objects), tuple(maps))
