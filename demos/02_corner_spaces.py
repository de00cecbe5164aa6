"""Corner spaces: gap cocycles over a preorder and their strata.

A point assigns an extended-real gap to each consecutive pair of elements
in one period; at least one gap per period is infinite.  Finiteness of the
accumulated gaps defines a convex equivalence relation, and these
relations stratify the space: the poset of strata is the poset of
non-empty boundary subsets under reverse inclusion.
"""

from fractions import Fraction

from paracyclic import (
    ParaPreorder,
    alpha_eval,
    distance,
    enumerate_conv,
    fiber_invariants,
    fixed_point,
    quotient_by_relation,
    section_point,
    stratum_of,
    validate_point,
    witness_point,
)

base = ParaPreorder((1, 1))   # the parasimplex Par(1) viewed as a preorder
print("=== strata over Par(1) ===")
for rel in enumerate_conv(base):
    witness = witness_point(rel)
    quotient, _ = quotient_by_relation(base, rel)
    print(f"gaps {sorted(rel.gaps)}:  witness point "
          f"{[g.token() for g in witness.gaps]}  quotient Par({quotient.k})")

print("\n=== a point and its cocycle ===")
point = validate_point(base, ["3/1", "inf"])
print("gaps:", [g.token() for g in point.gaps])
print("alpha(e0, e1) =", alpha_eval(point, (0, 0), (0, 1)).token())
print("alpha(e0, e0 + shift) =", alpha_eval(point, (0, 0), (1, 0)).token())
print("alpha is shift-equivariant:",
      alpha_eval(point, (2, 0), (2, 1)) == alpha_eval(point, (0, 0), (0, 1)))
print("stratum:", sorted(stratum_of(point).gaps))
n, fixed = fiber_invariants(point)
print(f"fiber line: {fixed} fixed point(s) per period, labelled n = {n}")

print("\n=== points of the fiber line ===")
beta = section_point(point, (0, 1))
print("the section through e1:", beta.to_json())
print("coordinates run +inf | finite window | -inf:")
for t in range(-1, 3):
    print(f"  beta_{t} = {beta.coordinate(t).token()}")

other = section_point(point, (0, 0))
print("\ntranslation distance from the e0-section to the e1-section:",
      distance(other, beta).token(), "(= alpha(e0, e1))")
moved = beta.translate(Fraction(5, 2))
print("after translating by 5/2:", distance(beta, moved).token())

cut = fixed_point(point, 1)
print("a fixed point sits at the infinite gap; distance from it to the "
      "section is", distance(cut, beta).token())
