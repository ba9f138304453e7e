"""
Anatomy of a doubling cascade
=============================

One seeded electron collides its way through a register of dopant
electrons: each generation, every conduction electron promotes one fresh
partner with amplitude eta, so the excited population doubles.  This
script walks through the gate, the collision schedule, the dense state,
and the structured form that organises it.
"""

import numpy as np

from sectorsim import (
    AvalancheParams,
    dense_avalanche,
    generation_pairs,
    scattering_matrix,
    structured_amplitude,
    structured_avalanche,
)

np.set_printoptions(precision=4, suppress=True)

# %%
# The collision gate
# ------------------
# Two electrons, basis (ground,ground), (excited,ground), (ground,excited),
# (excited,excited).  An excited exciter meeting a ground partner splits:
# the partner stays put with amplitude sqrt(1 - |eta|^2) or is promoted
# with amplitude eta.  Ground pairs are left alone.

eta = 0.6
gate = scattering_matrix(eta)
print("collision gate at eta = 0.6:")
print(gate.real)
print("unitarity deviation:",
      np.linalg.norm(gate.conj().T @ gate - np.eye(4), 2))

# %%
# The collision schedule
# ----------------------
# Generation n pairs each of the 2^(n-1) excited electrons with a partner
# offset by 2^(n-1), so the excited set doubles: 1, 2, 4, 8, ...

for generation in (1, 2, 3):
    print(f"generation {generation} pairs:", generation_pairs(generation))

# %%
# Dense evolution
# ---------------
# Eight dopant electrons, electron 0 seeded, three generations.  The state
# lives on all 2^8 labels but only a handful of configurations carry
# amplitude; every reachable configuration keeps electron 0 excited.

params = AvalancheParams(n_dopants=8, eta=0.6, n_max=3)
state = dense_avalanche(params, 3)
print("\nnorm after three generations:", state.norm())

support = [(flat, abs(amp)) for flat, amp in enumerate(state.amps)
           if abs(amp) > 1e-12]
print("configurations with amplitude:", len(support))
print("largest few |amplitude|, as excited-electron sets:")
for flat, weight in sorted(support, key=lambda kv: -kv[1])[:6]:
    excited = tuple(s for s in range(8) if (flat >> s) & 1)
    print(f"  electrons {excited}: {weight:.6f}")

# %%
# The structured form
# -------------------
# The same state factorises over blocks: the seed block holds electron 0,
# and level l holds the subtree of the seed's partner 2^(n-l).  Descendants
# only add higher bits, so block membership follows the trailing-zero rule:
# electron e > 0 joins level n - (number of trailing zero bits of e).

structured = structured_avalanche(params, 3)
for level, members in enumerate(structured.partition.levels):
    print(f"level {level} block:", tuple(members))
print("untouched remainder:", list(structured.partition.remainder))

# %%
# Any amplitude can be read off the structure without the dense vector.
# Compare a few against the dense engine:

for flat, _ in support[:4]:
    bits = tuple((flat >> s) & 1 for s in range(8))
    direct = structured_amplitude(structured, bits)
    print(f"labels {bits}: structured {direct:.6f}  dense {state.amps[flat]:.6f}")

# %%
# Deep amplitudes
# ---------------
# The structured fold scans the labels once and multiplies only along the
# subtrees that hold an excited electron, so one configuration of a
# 2^20-electron register costs no dense vector.  With
# s = sqrt(1 - |eta|^2), the seed alone has amplitude s^n, and the seed
# with its last partner, electron 2^(n-1), has eta * s^(n-1).

n = 20
deep = structured_avalanche(AvalancheParams(n_dopants=1 << n, eta=eta, n_max=n), n)
s = np.sqrt(1.0 - abs(eta) ** 2)
seed_only = np.eye(1, 1 << n, dtype=np.uint8)[0]
with_partner = seed_only.copy()
with_partner[1 << (n - 1)] = 1
print(f"\nn = {n}:")
for name, bits, closed in (("seed only", seed_only, s ** n),
                           (f"seed + electron 2^{n - 1}", with_partner, eta * s ** (n - 1))):
    print(f"  {name:<22} structured {structured_amplitude(deep, bits):.12f}"
          f"  closed form {closed:.12f}")
