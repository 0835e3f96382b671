"""Entropy of the bounded-drift languages, against closed forms.

Words over {0, 1} act as ±1 increments on a height level; bounding the
level's excursion by M cuts the full shift down to a subshift whose
entropy is log of the largest eigenvalue of a path-graph adjacency
matrix.  That eigenvalue has the closed form 2·cos(pi / (2M + 2)), which
is what `sigma_entropy` evaluates.  The exact word counts are an
independent check: their two-step growth ratio converges to the same
eigenvalue (slowly for large M, where the spectral gap is small).  The
ladder climbs to log 2 without ever reaching it.
"""

import math

from pam import block_entropy, sigma_entropy, word_count

LOG2 = math.log(2.0)

print("full-shift block entropy (central binomial estimate):")
for n in (16, 128, 1024):
    h = block_entropy(n)
    print(f"  n = {n:5d}: {h:.6f} (gap to log 2: {LOG2 - h:.2e})")
print()

n = 4000
print(f" M  entropy      growth at n={n}  difference   gap to log 2")
for m in (1, 2, 4, 8, 16, 32, 64):
    computed = sigma_entropy(m)
    growth = math.log(word_count(m, n + 2) / word_count(m, n)) / 2
    print(
        f"{m:3d}  {computed:.9f}  {growth:.9f}       {abs(computed - growth):.1e}"
        f"   {LOG2 - computed:.2e}"
    )
print()

print("admissible word counts double more slowly when M is small:")
header = ["n"] + [f"M={m}" for m in (1, 2, 3, 4)] + ["2^n"]
print("\t".join(header))
for n in (4, 8, 12, 16):
    row = [str(n)] + [str(word_count(m, n)) for m in (1, 2, 3, 4)] + [str(2**n)]
    print("\t".join(row))
