"""The paracyclic category at a finite truncation, and its cyclic quotient.

Objects are parasimplices: for n >= 0 the ordered set ZZ x [n] with the
dictionary order and the shift action (k, a) + 1 = (k + 1, a).  Elements are
encoded as absolute integers e = k * (n + 1) + a, so the order is the integer
order and the shift action is addition of n + 1.

A morphism Par(m) -> Par(n) is a weakly monotone, shift-equivariant map.  It
is determined by the images v_0 <= v_1 <= ... <= v_m <= v_0 + (n + 1) of one
period, and every such map is uniquely a canonical map (v_0 in the zeroth
period, 0 <= v_0 <= n) followed by a power of the shift.  ``ParaMap`` stores
exactly that decomposition; erasing the power of the shift gives the cyclic
category, whose morphisms ``CycMap`` are the shift orbits.

The duality ``dualize_map`` sends f to f^v(x') = max { x | f(x) <= x' },
which exchanges injections and surjections and retracts injections.  Its
square is conjugation by the successor automorphism (not the identity), so
its 2(n + 1)-th power is the identity on the endomorphisms of Par(n).

``composition_table(a, b, c, kind)`` compiles composition of canonical
representatives to integer arrays over ``enumerate_hom`` order, one numpy
gather per triple, built on first use and memoized.  Shift offsets enter
composition additively, (g + k) o (f + l) = (g o f) + k + l, so the table's
wrap column covers every offset at once.  Criterion 2 of the self test reads
these tables for its unit and associativity identities, exhaustively on
objects <= Par(3); its scalar ``compose`` calls, exhaustive on objects
<= Par(2) and a seeded sample at Par(3), are each compared with the table.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb
from typing import Literal, Sequence, Tuple, get_args

import numpy as np

from .errors import MalformedInput, NotFunctorial, NotMonotone, ResourceBound, TypeMismatch

DEFAULT_HOM_CAP = 10**6

# composition_table refuses a triple whose gather, |H(b, c)| * |H(a, b)| *
# (a + 1) cells, or one of whose hom-sets H(s, t) as value rows, |H(s, t)| *
# (s + 1) cells, passes this; the largest triple of Lambda_4, (4, 4, 4),
# holds 1,984,500 and Lambda_5's (5, 5, 5) 46,103,904.
DEFAULT_TABLE_CELL_CAP = 4 * 10**6

Kind = Literal["all", "inj", "surj"]


@dataclass(frozen=True)
class Parasimplex:
    """The parasimplex ZZ x [n]; elements are pairs (period, slot)."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be non-negative")

    @property
    def period(self) -> int:
        return self.n + 1

    def abs_of(self, element: Sequence[int]) -> int:
        period, slot = element
        if not 0 <= slot <= self.n:
            raise MalformedInput(f"slot {slot} out of range for Par({self.n})")
        return period * self.period + slot

    def element_of(self, abs_index: int) -> Tuple[int, int]:
        period, slot = divmod(abs_index, self.period)
        return (period, slot)

    def identity(self) -> "ParaMap":
        return ParaMap(self.n, self.n, tuple(range(self.period)), 0)

    def successor_map(self) -> "ParaMap":
        """The automorphism x |-> x + 1 in the element order (not the shift)."""
        return ParaMap.from_values(self.n, self.n, tuple(range(1, self.period + 1)))

    def shift_map(self, k: int = 1) -> "ParaMap":
        """The shift automorphism x |-> x + k * (n + 1)."""
        return ParaMap(self.n, self.n, tuple(range(self.period)), k)


@dataclass(frozen=True)
class ParaMap:
    """A shift-equivariant weakly monotone map Par(m) -> Par(n).

    ``values`` is the canonical representative: absolute images of the
    elements (0, 0), ..., (0, m), with values[0] in the zeroth period.
    ``shift`` is the power of the shift composed after the canonical map,
    so the map acts by e |-> values[e mod (m+1)] + (e div (m+1) + shift)*(n+1).
    """

    m: int
    n: int
    values: Tuple[int, ...]
    shift: int = 0

    def __post_init__(self):
        src_period, tgt_period = self.m + 1, self.n + 1
        if len(self.values) != src_period:
            raise NotMonotone(f"expected {src_period} values, got {len(self.values)}")
        if not 0 <= self.values[0] < tgt_period:
            raise NotMonotone("canonical form requires values[0] in the zeroth period")
        for a in range(src_period - 1):
            if self.values[a] > self.values[a + 1]:
                raise NotMonotone(f"values not weakly increasing at position {a}")
        if self.values[-1] > self.values[0] + tgt_period:
            raise NotMonotone("period wrap constraint v_m <= v_0 + 1 violated")

    @classmethod
    def from_values(cls, m: int, n: int, raw_values: Sequence[int], shift: int = 0) -> "ParaMap":
        """Build from any one-period value list, normalizing to canonical form."""
        tgt_period = n + 1
        lead_period = raw_values[0] // tgt_period
        canonical = tuple(v - lead_period * tgt_period for v in raw_values)
        return cls(m, n, canonical, shift + lead_period)

    @property
    def src(self) -> Parasimplex:
        return Parasimplex(self.m)

    @property
    def tgt(self) -> Parasimplex:
        return Parasimplex(self.n)

    def __call__(self, abs_index: int) -> int:
        period, slot = divmod(abs_index, self.m + 1)
        return self.values[slot] + (period + self.shift) * (self.n + 1)

    def canonical(self) -> "ParaMap":
        return ParaMap(self.m, self.n, self.values, 0)

    def to_json(self) -> dict:
        tgt = self.tgt
        return {
            "m": self.m,
            "n": self.n,
            "values": [list(tgt.element_of(v)) for v in self.values],
            "shift": self.shift,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ParaMap":
        src, tgt = Parasimplex(int(data["m"])), Parasimplex(int(data["n"]))
        values = tuple(tgt.abs_of(v) for v in data["values"])
        return cls(src.n, tgt.n, values, int(data.get("shift", 0)))


@dataclass(frozen=True)
class CycMap:
    """A morphism of the cyclic category: the shift orbit of a ParaMap."""

    m: int
    n: int
    values: Tuple[int, ...]

    @property
    def rep(self) -> ParaMap:
        return ParaMap(self.m, self.n, self.values, 0)


def compose(g: ParaMap, f: ParaMap) -> ParaMap:
    """The composite g after f; strictly associative on the nose."""
    if f.n != g.m:
        raise TypeMismatch(f"cannot compose Par({f.m})->Par({f.n}) with Par({g.m})->Par({g.n})")
    raw = [g(v) + f.shift * (g.n + 1) for v in f.values]
    return ParaMap.from_values(f.m, g.n, raw)


def compose_cyc(g: CycMap, f: CycMap) -> CycMap:
    return cyc_canonicalize(compose(g.rep, f.rep))


def shift_action(f: ParaMap, k: int) -> ParaMap:
    return ParaMap(f.m, f.n, f.values, f.shift + k)


def cyc_canonicalize(f: ParaMap) -> CycMap:
    return CycMap(f.m, f.n, f.values)


def classify(f: ParaMap) -> str:
    """One of 'injective', 'surjective', 'both', 'neither'."""
    tgt_period = f.n + 1
    strict = all(f.values[a] < f.values[a + 1] for a in range(f.m)) and (
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


def is_injective(f: ParaMap) -> bool:
    return classify(f) in ("injective", "both")


def hom_count(m: int, n: int, kind: Kind = "all") -> int:
    """Closed-form size of the cyclic hom-set (canonical representatives).

    Injections and surjections swap under the duality, so their counts are
    mirror images of one another; all three forms are cross-checked against
    the enumerator in the tests.
    """
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
    """Duplicate-free canonical representatives of Hom(Par(m), Par(n)) /
    shift, capped by the size of the whole hom-set; memoized.

    The full paracyclic hom-set is this tuple times the shift action.
    """
    if m < 0 or n < 0:
        raise ValueError("objects need m, n >= 0")
    if kind not in get_args(Kind):
        raise ValueError(f"unknown kind {kind!r}")
    bound = hom_count(m, n)
    if bound > cap:
        raise ResourceBound(f"hom-set has {bound} representatives, cap is {cap}")
    tgt_period = n + 1
    out = []
    for lead in range(tgt_period):
        # remaining values live in the closed interval [lead, lead + period]
        window = range(lead, lead + tgt_period + 1)
        if kind == "inj":
            tail_pool = range(lead + 1, lead + tgt_period)
            out.extend(CycMap(m, n, (lead,) + tail)
                       for tail in itertools.combinations(tail_pool, m))
            continue
        for tail in itertools.combinations_with_replacement(window, m):
            if tail and tail[0] < lead:
                continue
            values = (lead,) + tail
            if kind == "surj" and {v % tgt_period for v in values} != set(range(tgt_period)):
                continue
            out.append(CycMap(m, n, values))
    return tuple(out)


def _value_rows(m: int, n: int, kind: Kind) -> np.ndarray:
    """The value tuples of ``enumerate_hom(m, n, kind)`` as int64 rows."""
    values = [c.values for c in enumerate_hom(m, n, kind)]
    return np.array(values, dtype=np.int64).reshape(len(values), m + 1)


def _compose_rows(g_rows: np.ndarray, f_rows: np.ndarray, b: int, c: int):
    """Every composite g o f of canonical maps Par(a) -> Par(b) -> Par(c) at
    once: values of shape (len(g_rows), len(f_rows), a + 1), canonical,
    and the wrap, the power of the shift split off each."""
    raw = g_rows[:, f_rows % (b + 1)] + (f_rows // (b + 1)) * (c + 1)
    wrap = raw[..., 0] // (c + 1)
    return raw - wrap[..., None] * (c + 1), wrap


def _positions(rows: np.ndarray, queries: np.ndarray, c: int) -> np.ndarray:
    """The position in ``rows`` of each query row, by one searchsorted over
    integer codes (the rows read as digits base 2(c + 1), which bounds the
    canonical values of maps into Par(c)); raises if one is missing."""
    base, width = 2 * (c + 1), rows.shape[1]
    dtype = np.int64 if base ** width < 2**63 else object
    weights = np.array([base ** k for k in range(width - 1, -1, -1)], dtype=dtype)
    codes = rows.astype(dtype) @ weights
    wanted = queries.astype(dtype) @ weights
    order = np.argsort(codes, kind="stable")
    ranked = np.append(codes[order], -1)    # -1 is no code: a miss lands on it
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
    values, wrap = _compose_rows(_value_rows(b, c, kind), _value_rows(a, b, kind), b, c)
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
    src_period, tgt_period = f.m + 1, f.n + 1
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
    return ParaMap.from_values(f.n, f.m, raw)


def embed_simplex(slot_images: Sequence[int], n: int) -> ParaMap:
    """Embed a weakly monotone map [m] -> [n] as a zero-period paracyclic map."""
    m = len(slot_images) - 1
    if m < 0:
        raise NotMonotone("empty map data")
    for a in range(m):
        if slot_images[a] > slot_images[a + 1]:
            raise NotMonotone(f"not weakly monotone at position {a}")
    if not all(0 <= v <= n for v in slot_images):
        raise NotMonotone(f"values must lie in [0, {n}]")
    return ParaMap(m, n, tuple(slot_images), 0)
