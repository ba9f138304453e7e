"""
Geometric orthogonalisation of the cascade
==========================================

The cascade state drifts away from the no-avalanche reference (only the
seed electron excited) at a fixed geometric rate: one factor of
sqrt(1 - |eta|^2) per generation.  Against the all-ground register the
overlap is exactly zero at every depth, because the seed electron never
de-excites; either engine reads it as the all-ground amplitude.  The
structured engine's closed-form block overlaps make the no-avalanche
overlap O(n), so the decay can be followed to macroscopic electron counts.
"""

import time

from sectorsim import (
    AvalancheParams,
    dense_avalanche,
    overlap_no_avalanche,
    structured_amplitude,
    structured_avalanche,
)

# %%
# Desk scale first: structured engine vs dense inner products
# -----------------------------------------------------------

params = AvalancheParams(n_dopants=8, eta=0.6, n_max=3)
print("n  M   structured     dense          closed form 0.8^n")
for n in range(4):
    structured = overlap_no_avalanche(params, n)
    dense = dense_avalanche(params, n).amps[1]  # seed excited, the rest ground
    print(f"{n}  {1 << n:<3d} {structured.real:<14.10f} {dense.real:<14.10f}"
          f" {0.8 ** n:<.10f}")

print("\nground overlap (the all-ground amplitude) stays pinned at zero:")
all_ground = (0,) * params.n_dopants
for n in range(4):
    structured = structured_amplitude(structured_avalanche(params, n), all_ground)
    print(f"  n={n}: structured {structured}, dense {dense_avalanche(params, n).amps[0]}")

# %%
# Macroscopic depth
# -----------------
# Thirty generations excite 2^30 (about a billion) electrons; the dense
# vector would need 2^(2^30) amplitudes.  The closed form answers instantly.

depth = 30
big = AvalancheParams(n_dopants=1 << depth, eta=0.6, n_max=depth)
start = time.perf_counter()
overlap = overlap_no_avalanche(big, depth)
elapsed = time.perf_counter() - start
print(f"\nn = {depth} (M = {1 << depth} electrons):")
print(f"  overlap  {overlap.real:.6e}")
print(f"  0.8^{depth}   {0.8 ** depth:.6e}")
print(f"  computed in {elapsed * 1e6:.0f} microseconds")

# %%
# The rate depends only on |eta|: stronger collisions orthogonalise faster.

print("\n|overlap| after 10 generations, by eta:")
for eta in (0.2, 0.4, 0.6, 0.8, 0.95):
    params = AvalancheParams(1 << 10, eta, 10)
    print(f"  eta={eta:.2f}: {abs(overlap_no_avalanche(params, 10)):.6e}")
