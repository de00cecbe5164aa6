"""Exact points of the stratified corner spaces and their fiber lines.

A point over a paracyclic preorder is the vector of consecutive gaps
``g_j = alpha(e_j, e_{j+1})`` along one period (the last gap wraps to the
shifted copy of e_0).  Storing only one period of gaps makes the cocycle
identity and shift equivariance of the induced ``alpha`` true by
construction.  Gaps live in (-inf, inf]; at least one gap per period is
infinite, and gaps between elements of the same class are finite.  Finite
gaps may be negative: no positivity is assumed anywhere.

Every point determines a fiber line: a broken, shift-equivariant copy of
the extended reals.  Its points are windows of finite coordinates bounded
by infinite gaps, with +inf to the left of the window and -inf to the
right; translation distance between fiber points is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .errors import (
    BaseMismatch,
    InfiniteGapInsideClass,
    MalformedInput,
    NoInfinityGap,
    NotAnArrow,
    UndefinedAtFixedDiagonal,
)
from .extreal import ExtReal, NEG_INF, POS_INF, ZERO, as_ext, ext_sum, require_upper
from .paracat import ParaMap, ParaPreorder
from .preord import ConvexRelation


@dataclass(frozen=True)
class CornerPoint:
    """A shift-equivariant additive cocycle, stored as one period of gaps."""

    base: ParaPreorder
    gaps: Tuple[ExtReal, ...]

    def __post_init__(self):
        object.__setattr__(self, "gaps", tuple(as_ext(g) for g in self.gaps))

    def gap(self, abs_index: int) -> ExtReal:
        return self.gaps[abs_index % self.base.period]

    def to_json(self) -> dict:
        return {"base": self.base.to_json(), "gaps": [g.token() for g in self.gaps]}

    @classmethod
    def from_json(cls, data: dict) -> "CornerPoint":
        base = ParaPreorder.from_json(data["base"])
        return validate_point(base, [as_ext(g) for g in data["gaps"]])


def validate_point(base: ParaPreorder, gaps: Sequence) -> CornerPoint:
    """Check the defining clauses and return the point.

    Raises NoInfinityGap if no gap of the period is infinite, and
    InfiniteGapInsideClass if an infinite gap separates two elements of the
    same class (their cocycle values must stay finite).
    """
    gaps = tuple(as_ext(g) for g in gaps)
    if len(gaps) != base.period:
        raise MalformedInput(f"expected {base.period} gaps, got {len(gaps)}")
    for g in gaps:
        require_upper(g)
    if not any(g.is_pos_inf for g in gaps):
        raise NoInfinityGap("some gap of the period must be infinite")
    boundary_slots = {base.boundary_slot(b) for b in range(base.num_classes)}
    for j, g in enumerate(gaps):
        if g.is_pos_inf and j not in boundary_slots:
            raise InfiniteGapInsideClass(
                f"gap {j} lies inside a class and must be finite"
            )
    return CornerPoint(base, gaps)


def alpha_eval(point: CornerPoint, i, j) -> ExtReal:
    """The cocycle alpha(i, j) for i <= j, as the sum of intervening gaps.

    Elements may be given as absolute codes or (period, slot) pairs.  For
    i <= j that are listed in reverse enumeration order (possible only
    inside one class) the value is the negated finite sum.
    """
    base = point.base
    ti = i if isinstance(i, int) else base.abs_of(i)
    tj = j if isinstance(j, int) else base.abs_of(j)
    if not base.leq(ti, tj):
        raise NotAnArrow("alpha is defined only on pairs i <= j")
    if ti <= tj:
        return ext_sum(point.gap(t) for t in range(ti, tj))
    return -ext_sum(point.gap(t) for t in range(tj, ti))


def stratum_of(point: CornerPoint) -> ConvexRelation:
    """The convex relation merging elements at finite cocycle distance."""
    base = point.base
    gaps = frozenset(
        b for b in range(base.num_classes)
        if point.gap(base.boundary_slot(b)).is_pos_inf
    )
    return ConvexRelation(base, gaps)


def pullback_point(r: ParaMap, point: CornerPoint) -> CornerPoint:
    """Precompose the cocycle with a preorder map: alpha'(a, b) = alpha(ra, rb)."""
    if r.tgt != point.base:
        raise BaseMismatch("point does not live over the target of the map")
    src = r.src
    gaps = tuple(alpha_eval(point, r(t), r(t + 1)) for t in range(src.period))
    return validate_point(src, gaps)


def fiber_invariants(point: CornerPoint) -> Tuple[int, int]:
    """(n, fixed points per period) of the fiber line over the point.

    The number of fixed points per period equals the number of infinite
    gaps, and n is one less: the label of the stratum's quotient object.
    """
    fixed = sum(1 for g in point.gaps if g.is_pos_inf)
    return fixed - 1, fixed


def witness_point(rel: ConvexRelation) -> CornerPoint:
    """A point whose stratum is the given relation.

    Gaps are 0 inside classes, 1 across merged boundaries, and infinite on
    the surviving boundaries.
    """
    base = rel.base
    boundary = {base.boundary_slot(b): b for b in range(base.num_classes)}
    gaps = []
    for j in range(base.period):
        if j not in boundary:
            gaps.append(ZERO)
        elif boundary[j] in rel.gaps:
            gaps.append(POS_INF)
        else:
            gaps.append(ExtReal(1))
    return validate_point(base, gaps)


# ---------------------------------------------------------------------------
# fiber points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberPoint:
    """A point of the fiber line over a corner point.

    Coordinates are +inf strictly left of the window, finite rationals on
    the window [lo, hi], and -inf strictly right of it.  An empty window
    (lo = hi + 1) is a fixed point of the translation action, sitting at
    the cut after element hi.  Both infinities are always attained.  A
    window that breaks these rules raises MalformedInput.
    """

    base: CornerPoint
    lo: int
    hi: int
    coords: Tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))
        if self.hi - self.lo + 1 != len(self.coords):
            raise MalformedInput("window size disagrees with coordinate count")
        point = self.base
        if self.is_fixed:
            if not point.gap(self.hi).is_pos_inf:
                raise MalformedInput("fixed point must sit at an infinite gap")
            return
        # windows are maximal finite segments between infinite gaps
        if not point.gap(self.lo - 1).is_pos_inf or not point.gap(self.hi).is_pos_inf:
            raise MalformedInput("window must be bounded by infinite gaps")
        for t in range(self.lo, self.hi):
            step = point.gap(t)
            if step.is_pos_inf:
                raise MalformedInput("window crosses an infinite gap")
            if self.coords[t - self.lo] - self.coords[t - self.lo + 1] != step.finite:
                raise MalformedInput("coordinates must decrease by the gaps")

    @property
    def is_fixed(self) -> bool:
        return not self.coords

    def coordinate(self, abs_index: int) -> ExtReal:
        if abs_index < self.lo:
            return POS_INF
        if abs_index > self.hi:
            return NEG_INF
        return ExtReal(self.coords[abs_index - self.lo])

    def _segment_key(self) -> Tuple[int, int]:
        # fixed point at cut c sorts just before the window starting at c + 1
        return (self.lo, 0 if self.is_fixed else 1)

    def translate(self, t) -> "FiberPoint":
        """The translation action: add t to every finite coordinate."""
        t = Fraction(t)
        return FiberPoint(self.base, self.lo, self.hi,
                          tuple(c + t for c in self.coords))

    def shift(self, n: int) -> "FiberPoint":
        """The deck action: reindex coordinates by n periods."""
        period = self.base.base.period
        return FiberPoint(self.base, self.lo - n * period, self.hi - n * period,
                          self.coords)

    def act(self, n: int, t) -> "FiberPoint":
        return self.shift(n).translate(t)

    def to_json(self) -> dict:
        return {
            "window": [self.lo, self.hi],
            "coords": [ExtReal(c).token() for c in self.coords],
        }

    @classmethod
    def from_json(cls, base: CornerPoint, data: dict) -> "FiberPoint":
        """The point ``to_json`` writes; a window that is not a list of two
        ints (bools excluded) raises MalformedInput."""
        window = data.get("window")
        if (not isinstance(window, list) or len(window) != 2
                or any(isinstance(x, bool) or not isinstance(x, int) for x in window)):
            raise MalformedInput(f"a window is a list of two ints, got {window!r}")
        lo, hi = window
        coords = tuple(as_ext(c).finite for c in data["coords"])
        return cls(base, lo, hi, coords)


def section_point(point: CornerPoint, i0) -> FiberPoint:
    """The canonical fiber point with coordinate 0 at element i0.

    Coordinates are beta_j = alpha(j, i0) left of i0 and -alpha(i0, j)
    right of it, truncated to the finite window around i0.
    """
    base = point.base
    t0 = i0 if isinstance(i0, int) else base.abs_of(i0)
    lo = t0
    while not point.gap(lo - 1).is_pos_inf:
        lo -= 1
    hi = t0
    while not point.gap(hi).is_pos_inf:
        hi += 1
    coords = [Fraction(0)] * (hi - lo + 1)
    for t in range(t0 - 1, lo - 1, -1):
        coords[t - lo] = coords[t - lo + 1] + point.gap(t).finite
    for t in range(t0, hi):
        coords[t - lo + 1] = coords[t - lo] - point.gap(t).finite
    return FiberPoint(point, lo, hi, tuple(coords))


def fixed_point(point: CornerPoint, cut: int) -> FiberPoint:
    """The translation-fixed fiber point at the cut after element ``cut``."""
    return FiberPoint(point, cut + 1, cut, ())


def distance(b: FiberPoint, c: FiberPoint) -> ExtReal:
    """Translation distance from b to c: the t with translate(b, t) = c.

    Returns +inf / -inf when no translation of b reaches c, and is
    undefined when both points are the same fixed point.
    """
    if b.base != c.base:
        raise BaseMismatch("fiber points over different corner points")
    if b._segment_key() == c._segment_key():
        if b.is_fixed:
            raise UndefinedAtFixedDiagonal(
                "distance is undefined on the diagonal of fixed points"
            )
        return ExtReal(c.coords[0] - b.coords[0])
    return POS_INF if b._segment_key() < c._segment_key() else NEG_INF
