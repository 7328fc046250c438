#!/usr/bin/env python3
"""Characters, centrality, the fusion ring, and the map f(phi) = phi Lambda.

Characters come from the idempotent-integral identity
chi_V = (dim H / dim V) e_V lambda, never from representation matrices."""

from hopfkit import Pipeline, builtin_group, drinfeld_double, group_algebra, is_central_character
from hopfkit.characters import f_map
from hopfkit.hopf import format_vector

pipe = Pipeline(group_algebra(builtin_group("S3")))
table, fusion = pipe.table, pipe.fusion

print("== character table of k[S3] (basis e, r, r^2, s, rs, r^2 s) ==")
for label, deg, chi in zip(table.labels, table.degrees, table.characters):
    central = is_central_character(chi, pipe.H)
    print(f"  chi_{label} (dim {deg}, central in H*: {central}) = {format_vector(chi)}")

print()
print("== fusion ring G0 ==")
for v, lv in enumerate(fusion.labels):
    for w, lw in enumerate(fusion.labels):
        if v > w:
            continue
        terms = [f"{'' if n == 1 else str(n) + ' '}chi_{fusion.labels[u]}"
                 for u, n in enumerate(fusion.tensor[v][w]) if n]
        print(f"  chi_{lv} * chi_{lw} = " + " + ".join(terms))
print("  duality permutation V -> V*:", list(fusion.dual_map))

print()
print("== f(phi) = phi Lambda transports characters onto the center ==")
for label, deg, chi in zip(table.labels, table.degrees, table.characters):
    image = f_map(pipe.H.dual.apply_antipode(chi), pipe.integrals, pipe.H)
    print(f"  f(S* chi_{label}) = (dim H / {deg}) e_{label} = {format_vector(image)}")

print()
print("== centrality is genuinely a hypothesis: the double D(S3) ==")
dpipe = Pipeline(drinfeld_double(builtin_group("S3")))
flags = [is_central_character(chi, dpipe.H) for chi in dpipe.table.characters]
for label, deg, flag in zip(dpipe.table.labels, dpipe.table.degrees, flags):
    print(f"  block {label} (dim {deg}): central character: {flag}")
print("  (divisibility dim V | dim H still holds on every block here:",
      all(dpipe.H.dim % d == 0 for d in dpipe.table.degrees), ")")
