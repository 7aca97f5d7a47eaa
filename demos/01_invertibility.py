#!/usr/bin/env python3
"""Deciding invertibility of a set collection.

A permutation pi of the ground set inverts a set S when pi(S) lands
entirely outside S.  A collection is invertible when a single permutation
inverts every member at once.  The decision reduces to perfect matching:
pair up each element i with a partner j such that no member set contains
both, and the pairing (read as a permutation) inverts everything.
"""
from setpack import (
    Collection,
    check_disjoint_criterion,
    check_halfsize_conditions,
    check_triple,
    decide_invertible,
    inverts,
)

print("=== two disjoint pairs on 4 points ===")
c = Collection.of(4, [[0, 1], [2, 3]])
result = decide_invertible(c)
print("invertible:", result.invertible)
print("witness permutation:", list(result.matched.image))
for s in c.sets:
    print(f"  pi({s.elements()}) avoids it:", inverts(result.matched, s))

print()
print("=== element 0 in every set: stuck ===")
c = Collection.of(4, [[0, 1], [0, 2], [0, 3]])
result = decide_invertible(c)
print("invertible:", result.invertible)
print("deficient set of left vertices:", result.certificate.elements())
nbhd = result.neighbourhood.elements()
print(f"its neighbourhood {nbhd} is smaller: "
      f"{len(nbhd)} < {result.certificate.cardinality()}")

print()
print("=== closed forms for special shapes ===")
# disjoint sets: invertible exactly when every set fits in half the ground
c = Collection.of(10, [[0, 1, 2], [3, 4, 5, 6], [7, 8]])
print("disjoint, all sizes <= n/2:", check_disjoint_criterion(c))

# three equal-size sets: a sandwich condition on the two triple intersections
c = Collection.of(6, [[0], [1], [2]])
print("three singletons on 6 points:", check_triple(c))
c = Collection.of(4, [[0, 1], [0, 2], [0, 3]])
print("three pairs through one point:", check_triple(c))

# half-size sets on an even ground set: complementary membership atoms
# must come in equal-sized pairs
c = Collection.of(4, [[0, 1], [0, 2]])
print("two half-size sets, symmetric atoms:", check_halfsize_conditions(c))
