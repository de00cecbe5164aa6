"""A tour of the paracyclic and cyclic categories at small truncation.

Objects are the parasimplices Par(n) (the integers times {0..n} with the
dictionary order); maps are weakly monotone and commute with the shift.
Every map is a canonical representative plus a power of the shift, and
forgetting the power gives the cyclic category.
"""

from paracyclic import (
    ParaMap,
    Parasimplex,
    classify,
    compose,
    dualize_map,
    enumerate_hom,
    shift_action,
)

print("=== hom-set sizes in the cyclic category ===")
print("|Hom(Par(m), Par(n))| modulo the shift action:\n")
header = "      " + "".join(f"n={n:<6}" for n in range(4))
print(header)
for m in range(4):
    row = "".join(f"{len(enumerate_hom(m, n)):<8}" for n in range(4))
    print(f"m={m}   {row}")

print("\nEvery count equals (m+1) * C(m+n+1, m+1); for example"
      f" Hom(Par(1), Par(1)) has {len(enumerate_hom(1, 1))} orbits.")

print("\n=== composition and the shift ===")
par2 = Parasimplex(2)
succ = par2.successor_map()
print("successor map on Par(2):", succ.to_json())
print("successor cubed equals the shift:",
      compose(succ, compose(succ, succ)) == par2.shift_map(1))

# the injection of a point at slot 0
f = ParaMap(Parasimplex(0), Parasimplex(1), (0,))
print("\n=== duality ===")
print("injection:", f.to_json(), "->", classify(f))
fd = dualize_map(f)
print("its dual:", fd.to_json(), "->", classify(fd))
print("dual retracts the injection:", compose(fd, f) == Parasimplex(0).identity())

print("\nThe double dual is NOT the identity; it conjugates by the successor:")
fdd = dualize_map(fd)
print("double dual:", fdd.to_json(), " (the injection at slot 1, not slot 0)")
pred = dualize_map(Parasimplex(1).successor_map())
via_conjugation = compose(pred, compose(f, Parasimplex(0).successor_map()))
print("equals successor conjugation:", fdd == via_conjugation)

print("\nShift action on hom-sets is free; canonical forms erase it:")
g = shift_action(f, 5)
print("shifted map:", g.to_json(), " canonical:", g.canonical().to_json())
