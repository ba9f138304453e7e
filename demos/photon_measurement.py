"""
A polarisation measurement, end to end
======================================

A photon in superposition h|H> + v|V> meets a polarising splitter; each
output port feeds a register of dopant electrons.  Absorption promotes a
seed electron with amplitude delta, the seed ignites a doubling cascade,
and the sector parameter of the joint register reads out which port
fired.  The pointer expectation lands on |delta|^2 (|h|^2 - |v|^2) - the
classical readout - and the structured evaluation follows it to register
sizes no dense vector could hold.
"""

from sectorsim import (
    MeasurementSetup,
    PhotonPolarisation,
    density_terms,
    evolve,
    sector_parameter_sweep,
)

# %%
# The setup: a tilted photon, 70/30 between the ports, half-efficient
# absorption (|delta|^2 = 0.25), collision amplitude 0.6, four dopant
# electrons behind each port.

setup = MeasurementSetup(
    pol=PhotonPolarisation(0.7 ** 0.5, 0.3 ** 0.5),
    delta=0.5,
    eta=0.6,
    n_dopants_h=4,
    n_dopants_v=4,
    n_max=2,
)

# %%
# Three storylines in superposition
# ---------------------------------
# After the absorption step the joint state carries a no-click branch
# (photon survives), an H-seeded branch, and a V-seeded branch.

state = evolve(setup, 0)
print("norm after absorption:", state.norm())
terms = density_terms(setup, 0)
print("branch weights:")
print("  no click :", terms["no_click_diagonal"])
print("  H cascade:", terms["h_diagonal"])
print("  V cascade:", terms["v_diagonal"])

# %%
# The cross families vanish identically - the registers make the branches
# distinguishable, killing photon-side interference:

print("cross terms:", terms["no_click_h_cross"], terms["no_click_v_cross"],
      terms["h_v_cross"])

# %%
# The pointer expectation
# -----------------------
# The direct route sandwiches the sector parameter in the dense state;
# the closed form needs only the two cascade overlaps.  Under the ground
# reference they agree at every generation, already sitting on the limit
# |delta|^2 (|h|^2 - |v|^2) = 0.25 * 0.4 = 0.1.

print("\nground reference:")
print("n  M  direct           formula          limit")
for rec in sector_parameter_sweep(setup, compute_direct=True):
    print(f"{rec.n}  {rec.m_electrons}  {rec.expectation_direct:<16.12f}"
          f" {rec.expectation_formula:<16.12f} {rec.limit}")

# %%
# The no-avalanche reference tells the convergence story instead: read
# against the seed-only configuration, the expectation approaches the
# same limit at the geometric rate set by eta.

print("\nno-avalanche reference:")
print("n  formula          limit")
for rec in sector_parameter_sweep(setup, reference="no_avalanche"):
    print(f"{rec.n}  {rec.expectation_formula:<16.12f} {rec.limit}")

# %%
# Macroscopic registers
# ---------------------
# The closed form keeps working when each register holds 2^30 electrons.

big = MeasurementSetup(
    pol=PhotonPolarisation(0.7 ** 0.5, 0.3 ** 0.5),
    delta=0.5,
    eta=0.6,
    n_dopants_h=1 << 30,
    n_dopants_v=1 << 30,
    n_max=30,
)
rec = sector_parameter_sweep(big, reference="no_avalanche")[30]
print(f"\nn = 30, M = {rec.m_electrons} electrons per register:")
print("  formula:", rec.expectation_formula)
print("  limit:  ", rec.limit)
