"""Itinerary coding and exact cylinder sets.

Points near the bottom corner S visit two coding triangles (letter 0 on
the left, letter 1 on the right).  The set of points sharing a given
letter prefix — a cylinder — is computed by exact clipping.
Depth by depth the full binary tree of words stays alive (2^n nonempty
cylinders), while each cylinder's horizontal extent collapses at least
four-fold per letter.
"""

from pam import (
    census,
    coding_triangles,
    confined_start,
    cylinder,
    fiber_width,
    iterate,
    standard_map,
)

t = standard_map()
tri = coding_triangles(t)

print("full branching: nonempty cylinders per depth")
for n, count in enumerate(census(t, 8, tri).counts, 1):
    print(f"  depth {n}: {count} (= 2^{n})")
print()

word = "0110100110"
print(f"cylinder chain for the word {word!r}:")
chain = cylinder(t, word, tri)
for n in range(chain.depth + 1):
    width = fiber_width(chain, n)
    print(
        f"  C_{n}: {len(chain.polygons(n))} convex cell(s), "
        f"widest horizontal chord {width} ~ {float(width):.3e}"
    )
print()

print("a point realizing that word, found from the sector coordinate:")
start = confined_start(word)
record = iterate(t, start, len(word) - 1, tri)
letters = "".join(str(c) for c in record.coding)
print(f"  start  ({start.x}, {start.y})")
print(f"  coding {letters}")
assert letters == word
