"""Paracyclic preorders and their convex equivalence relations.

A paracyclic preorder with finite fundamental domain is stored by the tuple
of its class sizes: ``sizes = (s_0, ..., s_k)`` means one period has
``m + 1 = sum(sizes)`` elements e_0, ..., e_m grouped into k + 1 consecutive
equivalence classes, classes strictly ordered, and the shift action moving
everything by one period.  Elements are coded as absolute integers
``e = period_index * (m + 1) + slot`` just like parasimplex elements.

A convex shift-equivariant equivalence relation containing the class
relation is stored by its set of surviving class boundaries (``gaps``):
boundary ``b`` sits after class ``b``, cyclically, and two elements are
related exactly when no surviving boundary separates them.  The poset of
all such relations under inclusion is then literally the poset of
non-empty subsets of {0, ..., k} under reverse inclusion.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from .errors import (
    BaseMismatch,
    MalformedInput,
    NotEssentiallySurjective,
    NotMonotone,
    ResourceBound,
)
from .paracat import Parasimplex

# Beyond this many canonical morphisms enumerate_preord_maps raises ResourceBound.
PREORD_MAP_CAP = 10**5

# Beyond this many classes enumerate_conv raises ResourceBound before any
# work: a base with k + 1 classes has 2^(k+1) - 1 convex relations, which
# took 0.51 s to build at 16 classes (2-vCPU Xeon VM).
CONV_CLASS_CAP = 16


@dataclass(frozen=True)
class ParaPreorder:
    """A linear preorder with free shift action and finite fundamental domain.

    ``period`` and the slot -> class table are computed once, at
    construction, so class lookups on absolute codes cost one ``divmod``.
    """

    sizes: Tuple[int, ...]
    period: int = field(init=False, repr=False, compare=False)
    num_classes: int = field(init=False, repr=False, compare=False)
    _class_of: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.sizes or any(s <= 0 for s in self.sizes):
            raise ValueError("sizes must be a non-empty tuple of positive integers")
        object.__setattr__(self, "sizes", tuple(self.sizes))
        object.__setattr__(self, "period", sum(self.sizes))
        object.__setattr__(self, "num_classes", len(self.sizes))
        object.__setattr__(self, "_class_of", tuple(
            c for c, s in enumerate(self.sizes) for _ in range(s)))

    @classmethod
    def from_parasimplex(cls, n: int) -> "ParaPreorder":
        return cls((1,) * (n + 1))

    @property
    def k(self) -> int:
        return len(self.sizes) - 1

    @property
    def is_parasimplex(self) -> bool:
        return all(s == 1 for s in self.sizes)

    def class_of_slot(self, slot: int) -> int:
        if not 0 <= slot < self.period:
            raise ValueError(f"slot {slot} out of range")
        return self._class_of[slot]

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

    def to_json(self) -> dict:
        return {"sizes": list(self.sizes)}

    @classmethod
    def from_json(cls, data: dict) -> "ParaPreorder":
        return cls(tuple(int(s) for s in data["sizes"]))


@dataclass(frozen=True)
class PreordMap:
    """A shift-equivariant, weakly monotone, essentially surjective map.

    Stored like ParaMap: canonical one-period value list (values[0] in the
    zeroth period of the target) plus a shift offset.
    """

    src: ParaPreorder
    tgt: ParaPreorder
    values: Tuple[int, ...]
    shift: int = 0

    def __post_init__(self):
        validate_map_data(self.src, self.tgt, self.values)

    @classmethod
    def from_values(cls, src, tgt, raw_values: Sequence[int], shift: int = 0) -> "PreordMap":
        lead = raw_values[0] // tgt.period
        canonical = tuple(v - lead * tgt.period for v in raw_values)
        return cls(src, tgt, canonical, shift + lead)

    def __call__(self, abs_index: int) -> int:
        period, slot = divmod(abs_index, self.src.period)
        return self.values[slot] + (period + self.shift) * self.tgt.period

    def canonical(self) -> "PreordMap":
        return PreordMap(self.src, self.tgt, self.values, 0)


def validate_map_data(src: ParaPreorder, tgt: ParaPreorder, values: Sequence[int]) -> None:
    if len(values) != src.period:
        raise NotMonotone(f"expected {src.period} values, got {len(values)}")
    if not 0 <= values[0] < tgt.period:
        raise NotMonotone("canonical form requires values[0] in the zeroth period")
    pos = [tgt.class_position(v) for v in values]
    for a in range(len(values) - 1):
        if pos[a] > pos[a + 1]:
            raise NotMonotone(f"values not weakly monotone at position {a}")
        # equivalent elements must stay equivalent (monotone both ways)
        if src._class_of[a] == src._class_of[a + 1] and pos[a] != pos[a + 1]:
            raise NotMonotone(f"class of positions {a}, {a + 1} is torn apart")
    # values[0] + period sits exactly one period of classes above values[0]
    if pos[-1] > pos[0] + tgt.num_classes:
        raise NotMonotone("period wrap constraint violated")
    hit = {p % tgt.num_classes for p in pos}
    if hit != set(range(tgt.num_classes)):
        raise NotEssentiallySurjective(
            f"classes {sorted(set(range(tgt.num_classes)) - hit)} of the target are not hit"
        )


def is_valid_morphism(src: ParaPreorder, tgt: ParaPreorder, raw_values: Sequence[int],
                      shift: int = 0) -> PreordMap:
    """Validate raw map data; raises NotMonotone or NotEssentiallySurjective."""
    return PreordMap.from_values(src, tgt, raw_values, shift)


def compose_preord(g: PreordMap, f: PreordMap) -> PreordMap:
    if f.tgt != g.src:
        raise BaseMismatch("cannot compose: middle objects disagree")
    raw = [g(v) + f.shift * g.tgt.period for v in f.values]
    return PreordMap.from_values(f.src, g.tgt, raw)


def identity_map(base: ParaPreorder) -> PreordMap:
    return PreordMap(base, base, tuple(range(base.period)), 0)


def shift_map(base: ParaPreorder, k: int = 1) -> PreordMap:
    return PreordMap(base, base, tuple(range(base.period)), k)


# ---------------------------------------------------------------------------
# convex relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexRelation:
    """A convex shift-equivariant equivalence relation containing the classes.

    ``gaps`` lists the class boundaries that survive (stay unmerged); it is
    never empty, so the shift of an element is never related to the element.
    """

    base: ParaPreorder
    gaps: frozenset

    def __post_init__(self):
        object.__setattr__(self, "gaps", frozenset(self.gaps))
        if not self.gaps:
            raise MalformedInput("gap set must be non-empty")
        if not all(0 <= b <= self.base.k for b in self.gaps):
            raise MalformedInput("gap out of boundary range")

    def related(self, i: int, j: int) -> bool:
        """Whether elements i, j (absolute codes) are merged by the relation."""
        return self.quotient_class(i) == self.quotient_class(j)

    def quotient_class(self, abs_index: int) -> int:
        """Index of the merged class, counted from the one starting at boundary
        max(gaps): the surviving boundaries below the element's class."""
        period, c = divmod(self.base.class_position(abs_index), self.base.num_classes)
        return period * len(self.gaps) + sum(1 for b in self.gaps if b < c)

    @property
    def num_quotient_classes(self) -> int:
        return len(self.gaps)

    def leq(self, other: "ConvexRelation") -> bool:
        """Inclusion of relations: fewer surviving boundaries means larger."""
        if self.base != other.base:
            raise BaseMismatch("relations over different bases")
        return other.gaps <= self.gaps

    def to_json(self) -> dict:
        return {"sizes": list(self.base.sizes), "gaps": sorted(self.gaps)}

    @classmethod
    def from_json(cls, data: dict) -> "ConvexRelation":
        return cls(ParaPreorder(tuple(data["sizes"])), frozenset(data["gaps"]))


def least_relation(base: ParaPreorder) -> ConvexRelation:
    """The class relation itself: every boundary survives."""
    return ConvexRelation(base, frozenset(range(base.num_classes)))


def preorders_up_to(period: int) -> List[ParaPreorder]:
    """Every preorder with period at most ``period``, as the class sizes of
    each composition of each period, shorter periods first."""
    out = []
    for total in range(1, period + 1):
        for cuts in itertools.product((0, 1), repeat=total - 1):
            sizes, run = [], 1
            for cut in cuts:
                if cut:
                    sizes.append(run)
                    run = 1
                else:
                    run += 1
            sizes.append(run)
            out.append(ParaPreorder(tuple(sizes)))
    return out


@functools.cache
def enumerate_conv(base: ParaPreorder) -> Tuple[ConvexRelation, ...]:
    """All convex relations, the non-empty subsets of the k + 1 class
    boundaries, largest gap sets first (the least relation leads); memoized."""
    if base.num_classes > CONV_CLASS_CAP:
        raise ResourceBound(
            f"{base.num_classes} classes exceed the cap of {CONV_CLASS_CAP} for convex relations")
    boundaries = range(base.num_classes)
    members = []
    for size in range(base.num_classes, 0, -1):
        for gaps in itertools.combinations(boundaries, size):
            members.append(ConvexRelation(base, frozenset(gaps)))
    return tuple(members)


def quotient_by_relation(base: ParaPreorder, rel: ConvexRelation) -> Tuple[Parasimplex, PreordMap]:
    """Quotient parasimplex Par(|gaps| - 1) and the class projection.

    The projection's kernel relation is exactly ``rel``.
    """
    if rel.base != base:
        raise BaseMismatch("relation lives over a different base")
    quotient = Parasimplex(rel.num_quotient_classes - 1)
    target = ParaPreorder.from_parasimplex(quotient.n)
    values = tuple(rel.quotient_class(slot) for slot in range(base.period))
    return quotient, PreordMap.from_values(base, target, values)


def pullback_relation(r: PreordMap, rel: ConvexRelation) -> ConvexRelation:
    """Pull a relation on the target back along r: a ~ b iff r(a) ~ r(b)."""
    if rel.base != r.tgt:
        raise BaseMismatch("relation does not live over the target of the map")
    src = r.src
    gaps = set()
    for b in range(src.num_classes):
        last = src.boundary_slot(b)
        # last + 1 is the first element of the next class (next period at the wrap)
        if not rel.related(r(last), r(last + 1)):
            gaps.add(b)
    return ConvexRelation(src, frozenset(gaps))


@functools.cache
def enumerate_preord_maps(src: ParaPreorder, tgt: ParaPreorder) -> Tuple[PreordMap, ...]:
    """Canonical representatives of all morphisms src -> tgt; memoized.

    The full hom-set is this tuple times the shift action (postcomposition
    with powers of the shift).
    """
    found: List[PreordMap] = []

    def extend(prefix: Tuple[int, ...]):
        if len(found) > PREORD_MAP_CAP:
            raise ResourceBound(f"morphism enumeration exceeded cap {PREORD_MAP_CAP}")
        if len(prefix) == src.period:
            try:
                found.append(PreordMap(src, tgt, prefix))
            except (NotMonotone, NotEssentiallySurjective):
                pass
            return
        if not prefix:
            for v in range(tgt.period):
                extend((v,))
            return
        # the wrap bound is a preorder bound: inside the wrapping class the
        # absolute code may exceed values[0] + period, so scan generously
        # and let the constructor reject overshoots
        for v in range(prefix[-1] - tgt.period, prefix[0] + 2 * tgt.period):
            if tgt.leq(prefix[-1], v) and tgt.leq(v, prefix[0] + tgt.period):
                extend(prefix + (v,))

    extend(())
    return tuple(found)
