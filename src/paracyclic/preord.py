"""Morphisms of paracyclic preorders and convex equivalence relations.

The preorders themselves, and the one map type ``ParaMap``, live in
``paracat`` (``ParaPreorder`` is imported back here).  A morphism of
paracyclic preorders is a ``ParaMap`` that is essentially surjective: it
hits every class of the target, which ``is_valid_morphism`` checks.  On
classes it is a surjection of the paracyclic category, so
``enumerate_preord_maps`` lists the morphisms from the surjections of
``paracat.enumerate_hom``.

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
from dataclasses import dataclass
from math import prod
from typing import List, Sequence, Tuple

from .errors import BaseMismatch, MalformedInput, NotEssentiallySurjective, ResourceBound
from .paracat import ParaMap, ParaPreorder, Parasimplex, compose, enumerate_hom

# Beyond this many canonical morphisms enumerate_preord_maps raises
# ResourceBound before any map is built.
PREORD_MAP_CAP = 10**5

# Beyond this many classes enumerate_conv raises ResourceBound before any
# work: a base with k + 1 classes has 2^(k+1) - 1 convex relations, which
# took 0.51 s to build at 16 classes (2-vCPU Xeon VM).
CONV_CLASS_CAP = 16


def is_valid_morphism(src: ParaPreorder, tgt: ParaPreorder, raw_values: Sequence[int],
                      shift: int = 0) -> ParaMap:
    """The morphism of preorders with these values: a ParaMap that hits
    every class of the target; raises NotMonotone or NotEssentiallySurjective."""
    f = ParaMap.from_values(src, tgt, raw_values, shift)
    hit = {tgt.class_position(v) % tgt.num_classes for v in f.values}
    if len(hit) != tgt.num_classes:
        raise NotEssentiallySurjective(
            f"classes {sorted(set(range(tgt.num_classes)) - hit)} of the target are not hit"
        )
    return f


def compose_preord(g: ParaMap, f: ParaMap) -> ParaMap:
    if f.tgt != g.src:
        raise BaseMismatch("cannot compose: middle objects disagree")
    return compose(g, f)


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


def quotient_by_relation(base: ParaPreorder, rel: ConvexRelation) -> Tuple[ParaPreorder, ParaMap]:
    """Quotient parasimplex Par(|gaps| - 1) and the class projection onto it.

    The projection's kernel relation is exactly ``rel``.
    """
    if rel.base != base:
        raise BaseMismatch("relation lives over a different base")
    quotient = Parasimplex(rel.num_quotient_classes - 1)
    values = tuple(rel.quotient_class(slot) for slot in range(base.period))
    return quotient, ParaMap.from_values(base, quotient, values)


def pullback_relation(r: ParaMap, rel: ConvexRelation) -> ConvexRelation:
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
def enumerate_preord_maps(src: ParaPreorder, tgt: ParaPreorder) -> Tuple[ParaMap, ...]:
    """Canonical representatives of all morphisms src -> tgt, sorted by
    values; memoized.

    A morphism is a surjection c : Par(k) -> Par(k') of ``enumerate_hom``
    on classes, with each element of source class j sent to some element of
    target class c(j).  The full hom-set is this tuple times the shift
    action (postcomposition with powers of the shift).  More than
    ``PREORD_MAP_CAP`` morphisms raise ResourceBound before any is built.
    """
    period, width = tgt.period, tgt.num_classes
    starts = (0, *itertools.accumulate(tgt.sizes[:-1]))
    choices = []
    for c in enumerate_hom(src.k, tgt.k, "surj"):
        ranges = []
        for v, size in zip(c.values, src.sizes):
            # class position v is class v mod (k' + 1) of period v div (k' + 1)
            lead, cls = divmod(v, width)
            first = lead * period + starts[cls]
            ranges += [range(first, first + tgt.sizes[cls])] * size
        choices.append(ranges)
    count = sum(prod(map(len, ranges)) for ranges in choices)
    if count > PREORD_MAP_CAP:
        raise ResourceBound(f"{count} morphisms exceed the cap of {PREORD_MAP_CAP}")
    maps = [is_valid_morphism(src, tgt, values)
            for ranges in choices for values in itertools.product(*ranges)]
    return tuple(sorted(maps, key=lambda f: f.values))
