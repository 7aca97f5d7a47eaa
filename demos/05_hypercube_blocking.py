#!/usr/bin/env python3
"""Square-blocking edge sets in hypercubes, with inversion assistance.

Removing a square-blocking set leaves the n-cube free of 4-cycles.  The
doubling construction mirrors a blocking set of Q_{n-1} into both halves
of Q_n and patches the remaining cross squares with a minimum vertex
cover.  Mirroring through a direction permutation that inverts the
uncovered direction sets at heavy vertices thins the residual further:
set inversion applied to graph surgery.
"""
from setpack import (
    inversion_assisted_blocking,
    is_square_blocking,
    recursive_blocking_set,
)
from setpack.qcube import direction_collection, serialize_cube_edges

print("=== square counts ===")
for n in range(2, 8):
    count = n * (n - 1) // 2 * (1 << (n - 2))  # C(n,2) * 2^(n-2)
    print(f"  Q_{n}: {count} squares")

print()
print("=== doubling construction ===")
print(f"{'n':>3} {'size':>6} {'ceiling':>8} {'floor':>6}")
for n in range(2, 8):
    m = recursive_blocking_set(n)
    assert is_square_blocking(m)
    ceiling = (n - 1) * (1 << (n - 2))
    squares = n * (n - 1) // 2 * (1 << (n - 2))
    floor = -(-squares // (n - 1))
    print(f"{n:>3} {len(m):>6} {ceiling:>8} {floor:>6}")

print()
print("=== the blocking set of Q_3, edge by edge ===")
print(serialize_cube_edges(recursive_blocking_set(3)), end="")

print()
print("=== what the assisted variant inverts ===")
base = recursive_blocking_set(4)
col = direction_collection(base)
print(f"Q_4 blocking set: {len(col.sets)} heavy vertices, "
      f"direction sets {[s.elements() for s in col.sets[:6]]} ...")

print()
print("=== savings from inversion-assisted mirroring ===")
print(f"{'n':>3} {'plain':>6} {'assisted':>9} {'saved':>6}")
for n in range(3, 8):
    plain = recursive_blocking_set(n)
    assisted, saved = inversion_assisted_blocking(n)
    assert is_square_blocking(assisted)
    print(f"{n:>3} {len(plain):>6} {len(assisted):>9} {saved:>6}")
