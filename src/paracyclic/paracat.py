"""Paracyclic preorders, the paracyclic category at a finite truncation,
and its cyclic quotient.

A paracyclic preorder with finite fundamental domain is stored by the tuple
of its class sizes: ``sizes = (s_0, ..., s_k)`` means one period has
``sum(sizes)`` elements grouped into k + 1 consecutive equivalence classes,
classes strictly ordered, and the shift action moving everything by one
period.  Elements are encoded as absolute integers e = p * period + slot,
so the shift action is addition of the period.  The parasimplex
Par(n) = ZZ x [n], with the dictionary order, is the preorder of n + 1
singleton classes; ``Parasimplex(n)`` returns it, built once.

``ParaMap`` is the one kind of arrow: a shift-equivariant map that is
weakly monotone on classes.  It is determined by the images
v_0, ..., v_m of one period, and every such map is uniquely a canonical
map (v_0 in the zeroth period of the target) followed by a power of the
shift; ``ParaMap`` stores exactly that decomposition.  Between
parasimplices these are the morphisms of the paracyclic category, and
erasing the power of the shift gives the cyclic category, whose morphisms
``CycMap`` are the shift orbits.  The morphisms of paracyclic preorders are
the ParaMaps that are also essentially surjective, which
``preord.is_valid_morphism`` checks.  ``enumerate_hom`` lists the canonical
maps of one kind exactly, by that kind's rule on the steps between values.

The duality ``dualize_map`` sends f to f^v(x') = max { x | f(x) <= x' },
which exchanges injections and surjections and retracts injections.  Its
square is conjugation by the successor automorphism (not the identity), so
its 2(n + 1)-th power is the identity on the endomorphisms of Par(n).

``compose_rows`` (one broadcast gather composing value rows and splitting
off the wrap) and ``row_codes`` (the integer code of a value row) own the
format of a canonical map as an integer row, for the tables here and the
conv-tilde numbering of ``equivalence``.  ``composition_table(a, b, c, kind)``
is composition of canonical representatives as integer arrays over
``enumerate_hom`` order: one gather and one code lookup per triple, built on
first use and memoized.  Shift offsets enter composition additively,
(g + k) o (f + l) = (g o f) + k + l, so the table's wrap column covers every
offset at once.  Criterion 2 reads these tables for its unit identities on
objects <= Par(3) and, with each cell packed into one int16 code
4 * position + wrap, for associativity: one gather and one add per side of
each quadruple of objects.  It compares its scalar ``compose`` calls (all on
objects <= Par(2), a seeded sample at Par(3)) with them, through the rows of
each triple's table and the value tuples of its target hom-set, bound once.
``compose`` itself is one pass over the inner map's values.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from math import comb, prod
from typing import Literal, Sequence, Tuple, get_args

import numpy as np

from .errors import MalformedInput, NotFunctorial, NotMonotone, ResourceBound, TypeMismatch

DEFAULT_HOM_CAP = 10**6

# composition_table refuses a triple whose gather, |H(b, c)| * |H(a, b)| *
# (a + 1) cells, or one of whose hom-sets H(s, t) as value rows, |H(s, t)| *
# (s + 1) cells, passes this; the largest triple of Lambda_4, (4, 4, 4),
# holds 1,984,500 and Lambda_5's (5, 5, 5) 46,103,904.
DEFAULT_TABLE_CELL_CAP = 4 * 10**6

# ParaMap.from_json refuses a map Par(m) -> Par(n) with (m + 1) * (n + 1)
# above this, before building either parasimplex: dualize_map takes that
# many steps.  Uncapped, (m, n) = (0, 10**6) took 7.2 s and wrote 38 MB
# through ``paracyclic dualize``; at the cap it takes about 0.1 s.
JSON_MAP_CELL_CAP = 10**4

Kind = Literal["all", "inj", "surj"]


@dataclass(frozen=True)
class ParaPreorder:
    """A linear preorder with free shift action and finite fundamental domain.

    ``period``, the slot -> class table and whether every class is a single
    element are computed once, at construction, so class lookups on
    absolute codes cost one ``divmod``.
    """

    sizes: Tuple[int, ...]
    period: int = field(init=False, repr=False, compare=False)
    num_classes: int = field(init=False, repr=False, compare=False)
    is_parasimplex: bool = field(init=False, repr=False, compare=False)
    _class_of: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.sizes or any(s <= 0 for s in self.sizes):
            raise ValueError("sizes must be a non-empty tuple of positive integers")
        object.__setattr__(self, "sizes", tuple(self.sizes))
        object.__setattr__(self, "period", sum(self.sizes))
        object.__setattr__(self, "num_classes", len(self.sizes))
        object.__setattr__(self, "is_parasimplex", self.num_classes == self.period)
        object.__setattr__(self, "_class_of", tuple(
            c for c, s in enumerate(self.sizes) for _ in range(s)))

    @classmethod
    def from_parasimplex(cls, n: int) -> "ParaPreorder":
        return Parasimplex(n)

    @property
    def k(self) -> int:
        return len(self.sizes) - 1

    def class_position(self, abs_index: int) -> int:
        """Absolute class index period * (k+1) + class of the element."""
        period, slot = divmod(abs_index, self.period)
        return period * self.num_classes + self._class_of[slot]

    def leq(self, i: int, j: int) -> bool:
        return self.class_position(i) <= self.class_position(j)

    def equivalent(self, i: int, j: int) -> bool:
        return self.class_position(i) == self.class_position(j)

    def boundary_slot(self, b: int) -> int:
        """Slot of the last element of class b; the gap after it crosses boundary b."""
        return sum(self.sizes[: b + 1]) - 1

    def abs_of(self, element: Sequence[int]) -> int:
        period, slot = element
        if not 0 <= slot < self.period:
            raise MalformedInput(f"slot {slot} out of range for a period of {self.period}")
        return period * self.period + slot

    def element_of(self, abs_index: int) -> Tuple[int, int]:
        """The (period, slot) pair of an absolute code."""
        return divmod(abs_index, self.period)

    def identity(self) -> "ParaMap":
        return ParaMap(self, self, tuple(range(self.period)))

    def successor_map(self) -> "ParaMap":
        """The automorphism x |-> x + 1 in the element order (not the shift);
        a morphism only on a parasimplex."""
        return ParaMap.from_values(self, self, tuple(range(1, self.period + 1)))

    def shift_map(self, k: int = 1) -> "ParaMap":
        """The shift automorphism x |-> x + k * period."""
        return ParaMap(self, self, tuple(range(self.period)), k)

    def to_json(self) -> dict:
        return {"sizes": list(self.sizes)}

    @classmethod
    def from_json(cls, data: dict) -> "ParaPreorder":
        return cls(tuple(int(s) for s in data["sizes"]))


@functools.cache
def Parasimplex(n: int) -> ParaPreorder:
    """The parasimplex Par(n) = ZZ x [n]: n + 1 singleton classes; built once."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return ParaPreorder((1,) * (n + 1))


@dataclass(frozen=True)
class ParaMap:
    """A shift-equivariant map src -> tgt, weakly monotone on classes.

    ``values`` is the canonical representative: absolute images of the
    elements of period zero, with values[0] in the zeroth period of the
    target.  ``shift`` is the power of the shift composed after the
    canonical map, so the map acts by
    e |-> values[e mod P] + (e div P + shift) * Q for P, Q the periods.
    Between parasimplices Par(m) -> Par(n) this is a morphism of the
    paracyclic category; ``m`` and ``n`` are the periods less one.
    """

    src: ParaPreorder
    tgt: ParaPreorder
    values: Tuple[int, ...]
    shift: int = 0

    def __post_init__(self):
        src, tgt, values = self.src, self.tgt, self.values
        if len(values) != src.period:
            raise NotMonotone(f"expected {src.period} values, got {len(values)}")
        if not 0 <= values[0] < tgt.period:
            raise NotMonotone("canonical form requires values[0] in the zeroth period")
        # the class positions of the values; on a parasimplex, the values
        pos = values if tgt.is_parasimplex else [tgt.class_position(v) for v in values]
        for a in range(len(pos) - 1):
            if pos[a] > pos[a + 1]:
                raise NotMonotone(f"values not weakly monotone at position {a}")
        if not src.is_parasimplex:
            # equivalent elements must stay equivalent (monotone both ways)
            classes = src._class_of
            for a in range(len(pos) - 1):
                if classes[a] == classes[a + 1] and pos[a] != pos[a + 1]:
                    raise NotMonotone(f"class of positions {a}, {a + 1} is torn apart")
        # values[0] + period sits exactly one period of classes above values[0]
        if pos[-1] > pos[0] + tgt.num_classes:
            raise NotMonotone("period wrap constraint violated")

    @classmethod
    def from_values(cls, src: ParaPreorder, tgt: ParaPreorder, raw_values: Sequence[int],
                    shift: int = 0) -> "ParaMap":
        """Build from any one-period value list, normalizing to canonical form."""
        period = tgt.period
        # an empty list is left to the constructor's length check
        lead = raw_values[0] // period if raw_values else 0
        return cls(src, tgt, tuple(v - lead * period for v in raw_values), shift + lead)

    @property
    def m(self) -> int:
        return self.src.period - 1

    @property
    def n(self) -> int:
        return self.tgt.period - 1

    def __call__(self, abs_index: int) -> int:
        period, slot = divmod(abs_index, self.src.period)
        return self.values[slot] + (period + self.shift) * self.tgt.period

    def canonical(self) -> "ParaMap":
        return ParaMap(self.src, self.tgt, self.values)

    def to_json(self) -> dict:
        """Maps of parasimplices only: the codec names objects by m and n."""
        if not (self.src.is_parasimplex and self.tgt.is_parasimplex):
            raise TypeMismatch(f"no JSON for a map {self.src.sizes} -> {self.tgt.sizes}")
        return {
            "m": self.m,
            "n": self.n,
            "values": [list(self.tgt.element_of(v)) for v in self.values],
            "shift": self.shift,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ParaMap":
        """A map of parasimplices; (m + 1) * (n + 1) above
        ``JSON_MAP_CELL_CAP`` is refused before either is built."""
        m, n = int(data["m"]), int(data["n"])
        if min(m, n) < 0:
            raise MalformedInput(f"objects need m, n >= 0, got m = {m}, n = {n}")
        if (m + 1) * (n + 1) > JSON_MAP_CELL_CAP:
            raise ResourceBound(f"a map Par({m}) -> Par({n}) has (m + 1)(n + 1) = "
                                f"{(m + 1) * (n + 1)} cells, cap is {JSON_MAP_CELL_CAP}")
        tgt = Parasimplex(n)
        values = tuple(tgt.abs_of(v) for v in data["values"])
        return cls(Parasimplex(m), tgt, values, int(data.get("shift", 0)))


@dataclass(frozen=True)
class CycMap:
    """A morphism of the cyclic category: the shift orbit of a ParaMap."""

    m: int
    n: int
    values: Tuple[int, ...]

    @property
    def rep(self) -> ParaMap:
        return ParaMap(Parasimplex(self.m), Parasimplex(self.n), self.values)


def compose(g: ParaMap, f: ParaMap) -> ParaMap:
    """The composite g after f; strictly associative on the nose."""
    if f.tgt is not g.src and f.tgt != g.src:
        raise TypeMismatch(f"cannot compose {f.src.sizes} -> {f.tgt.sizes} "
                           f"with {g.src.sizes} -> {g.tgt.sizes}")
    gv, fv, p, q = g.values, f.values, g.src.period, g.tgt.period
    # g(v) less its shift is gv[v mod p] + (v div p) q; the composite's lead
    # period, that of its first value, comes off every value and onto the shift
    lead = (gv[fv[0] % p] + fv[0] // p * q) // q
    base = -lead * q
    values = tuple([gv[v % p] + v // p * q + base for v in fv])
    return ParaMap(f.src, g.tgt, values, lead + g.shift + f.shift)


def compose_cyc(g: CycMap, f: CycMap) -> CycMap:
    return cyc_canonicalize(compose(g.rep, f.rep))


def shift_action(f: ParaMap, k: int) -> ParaMap:
    return ParaMap(f.src, f.tgt, f.values, f.shift + k)


def cyc_canonicalize(f: ParaMap) -> CycMap:
    return CycMap(f.m, f.n, f.values)


def classify(f: ParaMap) -> str:
    """One of 'injective', 'surjective', 'both', 'neither'."""
    tgt_period = f.tgt.period
    strict = all(f.values[a] < f.values[a + 1] for a in range(f.src.period - 1)) and (
        f.values[-1] < f.values[0] + tgt_period
    )
    onto = {v % tgt_period for v in f.values} == set(range(tgt_period))
    if strict and onto:
        return "both"
    if strict:
        return "injective"
    if onto:
        return "surjective"
    return "neither"


def hom_count(m: int, n: int, kind: Kind = "all") -> int:
    """Closed-form count of the canonical representatives of one kind, the
    cap of ``enumerate_hom``; injections and surjections swap under the
    duality, so their counts mirror one another."""
    if kind == "all":
        return (m + 1) * comb(m + n + 1, m + 1)
    if kind == "inj":
        return (n + 1) * comb(n, m) if m <= n else 0
    if kind == "surj":
        return (m + 1) * comb(m, n) if n <= m else 0
    raise ValueError(f"unknown kind {kind!r}")


@functools.cache
def enumerate_hom(m: int, n: int, kind: Kind = "all",
                  cap: int = DEFAULT_HOM_CAP) -> Tuple[CycMap, ...]:
    """The canonical representatives of Hom(Par(m), Par(n)) / shift of one
    kind, ascending by value tuple; memoized; refused before any is built
    when their count ``hom_count(m, n, kind)`` passes ``cap``.

    A map is its lead v_0 in [0, n] and its m + 1 steps v_1 - v_0, ...,
    v_0 + n + 1 - v_m, summing to n + 1: any steps for all maps, steps >= 1
    for injections, steps in {0, 1} for surjections.
    """
    if m < 0 or n < 0:
        raise ValueError("objects need m, n >= 0")
    if kind not in get_args(Kind):
        raise ValueError(f"unknown kind {kind!r}")
    bound = hom_count(m, n, kind)
    if bound > cap:
        raise ResourceBound(f"hom-set has {bound} {kind} representatives, cap is {cap}")
    if kind == "surj":
        # v_1 - v_0, ..., v_m - v_0 per choice of unit steps; reversed, they ascend
        rises = [tuple(itertools.accumulate(k in ones for k in range(m)))
                 for ones in reversed(list(itertools.combinations(range(m + 1), n + 1)))]
    out = []
    for lead in range(n + 1):
        if kind == "all":
            tails = itertools.combinations_with_replacement(range(lead, lead + n + 2), m)
        elif kind == "inj":
            tails = itertools.combinations(range(lead + 1, lead + n + 1), m)
        else:
            tails = (tuple(lead + r for r in rise) for rise in rises)
        out.extend(CycMap(m, n, (lead,) + tail) for tail in tails)
    return tuple(out)


def _value_rows(m: int, n: int, kind: Kind) -> np.ndarray:
    """The value tuples of ``enumerate_hom(m, n, kind)`` as int64 rows."""
    values = [c.values for c in enumerate_hom(m, n, kind)]
    return np.array(values, dtype=np.int64).reshape(len(values), m + 1)


def compose_rows(g: np.ndarray, f: np.ndarray, p_b, p_c) -> Tuple[np.ndarray, np.ndarray]:
    """The composites g o f of canonical maps Par(a) -> Par(b) -> Par(c), as
    value rows broadcast over the leading axes (and the periods p_b, p_c):
    g[f mod p_b] + (f div p_b) p_c less its lead period, and that wrap."""
    raw = np.take_along_axis(g, f % p_b, -1) + (f // p_b) * p_c
    wrap = raw[..., :1] // p_c
    return raw - wrap * p_c, wrap[..., 0]


def row_codes(rows: np.ndarray, radix) -> np.ndarray:
    """Each row of the 2-D ``rows`` as one integer, its digits most
    significant first in ``radix`` (one base, or one per column); -1 for a
    digit outside [0, its base).  Base 2(c + 1) codes the canonical maps
    into Par(c) one to one.  Python ints past int64."""
    radix = [int(r) for r in np.broadcast_to(radix, rows.shape[1])]
    weights = [prod(radix[k + 1:]) for k in range(len(radix))]
    dtype = np.int64 if prod(radix) < 2**63 else object
    codes = rows.astype(dtype, copy=False) @ np.array(weights, dtype=dtype)
    inside = np.logical_and.reduce([(col >= 0) & (col < r) for col, r in zip(rows.T, radix)])
    return np.where(inside, codes, -1)


def _positions(rows: np.ndarray, queries: np.ndarray, c: int) -> np.ndarray:
    """The position in ``rows`` of each query row, maps into Par(c), by one
    searchsorted over their ``row_codes``; raises if one is missing."""
    codes, wanted = row_codes(rows, 2 * (c + 1)), row_codes(queries, 2 * (c + 1))
    order = np.argsort(codes, kind="stable")
    ranked = np.append(codes[order], -2)    # -2 is no code: a miss lands on it
    at = np.searchsorted(ranked[:-1], wanted)
    if (ranked[at] != wanted).any():
        raise NotFunctorial("a composite lies outside the target hom-set")
    return order[at]


@functools.cache
def composition_table(a: int, b: int, c: int, kind: Kind = "all") -> Tuple[np.ndarray, np.ndarray]:
    """Composition of canonical representatives Par(a) -> Par(b) -> Par(c)
    of the given kind, as read-only arrays (idx, wrap), int32 and int8, of shape
    (|H(b, c)|, |H(a, b)|) over ``enumerate_hom`` order: the i-th map g of
    H(b, c) after the j-th map f of H(a, b) is the idx[i, j]-th map of
    H(a, c) followed by the shift to the power wrap[i, j].  No ``ParaMap`` is
    built.  Built on first use and memoized; a triple whose gather, or one of
    whose three hom-sets as value rows, would hold more than
    ``DEFAULT_TABLE_CELL_CAP`` cells raises ResourceBound before any
    enumeration."""
    if kind not in get_args(Kind):
        raise ValueError(f"unknown kind {kind!r}")
    if min(a, b, c) < 0:
        raise ValueError("objects need a, b, c >= 0")
    rows = max(hom_count(s, t, kind) * (s + 1) for s, t in ((a, b), (b, c), (a, c)))
    cells = max(rows, hom_count(b, c, kind) * hom_count(a, b, kind) * (a + 1))
    if cells > DEFAULT_TABLE_CELL_CAP:
        raise ResourceBound(f"composition table has {cells} cells, "
                            f"cap is {DEFAULT_TABLE_CELL_CAP}")
    values, wrap = compose_rows(_value_rows(b, c, kind)[:, None], _value_rows(a, b, kind)[None],
                                b + 1, c + 1)
    idx = _positions(_value_rows(a, c, kind), values.reshape(-1, a + 1), c)
    # hom-sets are capped below 2**31 maps, and a canonical composite's wrap
    # is 0 or 1; the narrow types halve the gathers that read the tables
    tables = (idx.reshape(wrap.shape).astype(np.int32), wrap.astype(np.int8))
    for table in tables:
        table.setflags(write=False)
    return tables


def dualize_map(f: ParaMap) -> ParaMap:
    """The dual map f^v : Par(n) -> Par(m), f^v(x') = max { x | f(x) <= x' }.

    Contravariantly functorial and exchanges the injective and surjective
    classifications; for injective f it retracts: dualize_map(f) o f = id.
    """
    src_period, tgt_period = f.src.period, f.tgt.period
    raw = []
    for x_prime in range(tgt_period):
        best = None
        for a in range(src_period):
            # largest k with values[a] + (k + shift) * tgt_period <= x'
            k = (x_prime - f.values[a]) // tgt_period - f.shift
            candidate = k * src_period + a
            if best is None or candidate > best:
                best = candidate
        raw.append(best)
    return ParaMap.from_values(f.tgt, f.src, raw)

