"""Photon polarisation measurement with two avalanche registers.

The joint system is one three-level photon site (``PHOTON_VAC`` = 0,
``PHOTON_H`` = 1, ``PHOTON_V`` = 2) followed by the H register's
electrons and then the V register's electrons, in that site order.

The story: a polarised photon h|H> + v|V> meets a polarising splitter;
with amplitude delta it is absorbed and excites the seed electron of the
matching register, after which the cascade runs n generations in
whichever register was seeded.  Absorption, like a collision, is a
two-site rotation gate completed to a unitary, so it also acts on the
photon-vacuum sector instead of passing it through.

The two-outcome pointer observable

    P = |H click><H click| - |V click><V click|

is built from the cascaded register against the other register's ground
state.  Because a cascade state is exactly orthogonal to the all-ground
register, the pointer expectation is |delta|^2 (|h|^2 - |v|^2) at every
generation when the ground reference is used; the no_avalanche reference
instead tracks the seeded-but-frozen register overlap, giving the factor
1 - (1-|eta|^2)**(2n) that converges to the same limit as n grows.  Both
storylines are reported side by side and agree only under the ground
reference.  A ``MeasurementRecord`` stores n, the dense sandwich, the
reference overlap and the limit; M = 2^n and the closed-form expectation
are derived from those on read, so a record cannot contradict itself.

``sector_parameter_sweep`` is the one driver, which the CLI's measurement
sweep and oracle check use and whose record n ``sector_parameter_expectation``
returns, on both routes.  Each route walks the generations once: the
structured overlap gains one block factor per generation, and the dense
route photoexcites once, then advances the joint state and the two
cascaded pointer registers with the gates a rebuild would apply.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import astuple, dataclass, replace

import numpy as np

from .avalanche import (
    AvalancheParams,
    _check_amplitude,
    _check_generation,
    _no_avalanche_overlaps,
    _rotation,
    _survival,
    cascade_generations,
    dense_avalanche,
    ground_register,
    seeded_register,
)
from .hilbert import (
    DenseState,
    TwoSiteGate,
    _integral,
    apply_two_site_gate,
    basis_state,
    check_guard,
    tensor_product,
)

__all__ = [
    "PHOTON_H",
    "PHOTON_V",
    "PHOTON_VAC",
    "MeasurementRecord",
    "MeasurementSetup",
    "PhotonPolarisation",
    "QndOutcome",
    "ScaleReport",
    "density_terms",
    "evolve",
    "initial_state",
    "photoexcite",
    "physical_scales",
    "qnd_outcome",
    "qnd_premeasure",
    "qnd_sample",
    "sector_parameter_expectation",
    "sector_parameter_sweep",
]

PHOTON_VAC = 0
PHOTON_H = 1
PHOTON_V = 2

POLARISATION_NORM_TOL = 1e-12

REFERENCES = ("ground", "no_avalanche")


@dataclass(frozen=True)
class PhotonPolarisation:
    """Normalized photon amplitudes h|H> + v|V>."""

    h: complex
    v: complex

    def __post_init__(self):
        h = complex(self.h)
        v = complex(self.v)
        try:
            drift = abs(abs(h) ** 2 + abs(v) ** 2 - 1.0)
        except OverflowError:  # |h| or |v| near the double-precision limit
            drift = math.inf
        if not drift <= POLARISATION_NORM_TOL:
            raise ValueError(f"|h|^2 + |v|^2 must be 1, off by {drift:.3e}")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "v", v)


@dataclass(frozen=True)
class MeasurementSetup:
    """Photon, absorption amplitude, collision amplitude, register sizes.

    ``registers`` holds the H and V registers' ``AvalancheParams``, H first,
    derived from the fields when read;
    ``seed_sites`` are the two seed electrons' sites in the joint state.
    """

    pol: PhotonPolarisation
    delta: complex
    eta: complex
    n_dopants_h: int
    n_dopants_v: int
    n_max: int

    def __post_init__(self):
        delta = _check_amplitude(self.delta, "delta")
        # the register-side validation covers eta, the sizes and the depth
        h, v = self.registers
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "eta", h.eta)
        object.__setattr__(self, "n_dopants_h", h.n_dopants)
        object.__setattr__(self, "n_dopants_v", v.n_dopants)
        object.__setattr__(self, "n_max", h.n_max)

    @property
    def registers(self) -> tuple[AvalancheParams, AvalancheParams]:
        return (AvalancheParams(self.n_dopants_h, self.eta, self.n_max),
                AvalancheParams(self.n_dopants_v, self.eta, self.n_max))

    @property
    def dims(self) -> tuple[int, ...]:
        return (3,) + (2,) * self.n_dopants_h + (2,) * self.n_dopants_v

    @property
    def seed_sites(self) -> tuple[int, int]:
        return (1, 1 + self.n_dopants_h)


@dataclass(frozen=True)
class MeasurementRecord:
    """One generation's worth of pointer-observable numbers.

    A record stores what the sweep measured: the depth ``n``,
    ``expectation_direct``, the dense sandwich <Psi_n| P |Psi_n> (None when
    the dense engine was not run), the selected reference ``overlap`` and
    the n -> infinity value ``limit`` = |delta|^2 (|h|^2 - |v|^2).  Both
    registers cascade with the same eta to the same depth, so they share one
    ``overlap``, x_H = x_V.  ``m_electrons`` and ``expectation_formula`` are
    derived from those on read.  The two expectations coincide only under
    the ground reference.
    """

    n: int
    expectation_direct: float | None
    overlap: complex
    limit: float

    @property
    def m_electrons(self) -> int:
        """Cascade electrons per register, M = 2^n."""
        return 1 << self.n

    @property
    def expectation_formula(self) -> float:
        """The closed form |delta|^2 (|h|^2 - |v|^2) (1 - |x_H x_V|^2)."""
        return self.limit * (1.0 - abs(self.overlap * self.overlap) ** 2)


def _photon_ket(pol: PhotonPolarisation) -> DenseState:
    return DenseState((3,), np.array([0.0, pol.h, pol.v], dtype=np.complex128))


def initial_state(setup: MeasurementSetup) -> DenseState:
    """Photon (x) ground H register (x) ground V register."""
    photon = _photon_ket(setup.pol)
    with_h = tensor_product(photon, ground_register(setup.n_dopants_h))
    return tensor_product(with_h, ground_register(setup.n_dopants_v))


def photoexcite(setup: MeasurementSetup, state: DenseState) -> DenseState:
    """Absorb the photon into the matching register's seed electron.

    A gate on (photon, H seed) maps |H photon, seed ground> to
    sqrt(1-|delta|^2) |same> + delta |vacuum, seed excited>, completed to a
    unitary the way the collision gate is: |vacuum, seed excited> picks up
    -conj(delta) |H photon, seed ground>.  The mirror gate for V follows.
    """
    if state.dims != setup.dims:
        raise ValueError(f"state sites {state.dims} do not match setup {setup.dims}")
    for photon, seed in zip((PHOTON_H, PHOTON_V), setup.seed_sites):
        # pair label: photon + 3 * seed bit, photon fastest
        absorb = _rotation(6, photon, PHOTON_VAC + 3, setup.delta)
        state = apply_two_site_gate(state, TwoSiteGate((0, seed), absorb))
    return state


def evolve(setup: MeasurementSetup, n: int) -> DenseState:
    """Dense joint state after photoexcitation and n cascade generations.

    The collision schedule runs in both registers; on branches whose
    register holds no excited seed the gates act as the identity, so this
    equals seeding only the clicked register.
    """
    n = _check_generation(setup.registers[0], n)
    # the generator is the start state's only holder; islice drops each generation it passes
    return next(itertools.islice(cascade_generations(
        photoexcite(setup, initial_state(setup)), setup.eta, setup.seed_sites), n, None))


def _pointer_expectation(setup: MeasurementSetup, psi: DenseState, registers) -> float:
    """Dense sandwich <psi| P |psi>, ``registers`` holding the H and V
    registers cascaded to psi's generation.

    Each pointer ket is vacuum (x) one cascaded register (x) the other
    port's all-ground register.  The vacuum and the all-ground register are
    basis vectors with flat index 0, so the ket's inner product with psi is
    the cascaded register's inner product with a strided slice of psi: no
    joint-size ket is built.
    """
    # psi's sites are photon, H register, V register, photon fastest
    grid = psi.amps.reshape(1 << setup.n_dopants_v, 1 << setup.n_dopants_h, 3)
    amp_h = np.vdot(registers[0].amps, grid[0, :, PHOTON_VAC])
    amp_v = np.vdot(registers[1].amps, grid[:, 0, PHOTON_VAC])
    return float(abs(amp_h) ** 2 - abs(amp_v) ** 2)


def sector_parameter_expectation(
    setup: MeasurementSetup,
    n: int,
    reference: str = "ground",
    compute_direct: bool = False,
) -> MeasurementRecord:
    """Pointer expectation after n generations, by formula and (optionally) dense sandwich.

    Record n of :func:`sector_parameter_sweep` run to depth n, on both routes.
    The dense sandwich over 3 * 2**(A_H + A_V) amplitudes raises
    ``DimensionLimitError`` beyond the guard; the guard never picks the route.
    """
    n = _check_generation(setup.registers[0], n)
    return sector_parameter_sweep(replace(setup, n_max=n), reference, compute_direct)[n]


def sector_parameter_sweep(
    setup: MeasurementSetup,
    reference: str = "ground",
    compute_direct: bool = False,
) -> list[MeasurementRecord]:
    """Records for generations 0..n_max, each holding its reference overlap.

    Both routes walk the generations once.  Each generation reads one overlap,
    shared by both registers; the no_avalanche one gains one block factor.
    With ``compute_direct`` the dense route photoexcites once, then carries the
    joint and pointer states forward with a rebuild's gates, in a rebuild's order.
    """
    if reference not in REFERENCES:
        raise ValueError(f"reference must be one of {REFERENCES}, got {reference!r}")
    pol = setup.pol
    limit = abs(setup.delta) ** 2 * (abs(pol.h) ** 2 - abs(pol.v) ** 2)
    generations = range(setup.n_max + 1)
    # the seed never de-excites, so no generation overlaps the all-ground register
    overlaps = itertools.repeat(0j) if reference == "ground" else _no_avalanche_overlaps(setup.eta)
    directs = itertools.repeat(None)
    if compute_direct:
        joint = cascade_generations(photoexcite(setup, initial_state(setup)), setup.eta,
                                    setup.seed_sites)
        pointers = [cascade_generations(seeded_register(params.n_dopants), params.eta, (0,))
                    for params in setup.registers]
        # each state goes straight into the sandwich and is bound to no name, so
        # no generation is held here while the next one is built
        directs = (_pointer_expectation(setup, next(joint), [next(r) for r in pointers])
                   for _ in generations)
    # zip asks generations first, so no stream builds a generation past n_max
    return [MeasurementRecord(n, direct, overlap, limit)
            for n, overlap, direct in zip(generations, overlaps, directs)]


def density_terms(setup: MeasurementSetup, n: int) -> dict[str, float]:
    """Modulus of each branch family of the generation-n density operator.

    Each entry is |branch coefficient| times the modulus of the trace of
    the family's bra-ket overlap, computed from dense register states.
    The photon vacuum is orthogonal to any surviving photon, and a
    cascade state is orthogonal to the all-ground register, so all three
    cross families vanish identically.
    """
    pol = setup.pol
    delta = setup.delta
    keep = _survival(delta)
    photon_vac = abs(_photon_ket(pol).amps[PHOTON_VAC])
    click = [abs(amp * delta) for amp in (pol.h, pol.v)]
    ground_cascade = [abs(dense_avalanche(params, n).amps[0]) for params in setup.registers]
    cross = [c * keep * photon_vac * g for c, g in zip(click, ground_cascade)]
    return {
        "no_click_diagonal": float(keep ** 2),
        "h_diagonal": float(click[0] ** 2),
        "v_diagonal": float(click[1] ** 2),
        "no_click_h_cross": float(cross[0]),
        "no_click_v_cross": float(cross[1]),
        "h_v_cross": float(
            abs(delta) ** 2 * abs(pol.h * pol.v) * ground_cascade[0] * ground_cascade[1]
        ),
    }


@dataclass(frozen=True)
class QndOutcome:
    """Exact outcome distribution and post-measurement photon states."""

    probabilities: dict[str, float]
    post_states: dict[str, DenseState]


def qnd_premeasure(pol: PhotonPolarisation) -> DenseState:
    """Entangle the photon with a polarisation meter: h|HH> + v|VV>.

    Both sites are two-level (H = 0, V = 1); site 0 is the photon, site 1
    the meter.  The Schmidt coefficients are (|h|, |v|).
    """
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = pol.h  # (H, H)
    amps[3] = pol.v  # (V, V)
    return DenseState((2, 2), amps)


def qnd_outcome(pol: PhotonPolarisation) -> QndOutcome:
    """Reading the meter gives H with |h|^2, V with |v|^2, and leaves the photon definite."""
    return QndOutcome(
        probabilities={"H": float(abs(pol.h) ** 2), "V": float(abs(pol.v) ** 2)},
        post_states={
            "H": basis_state((2,), (0,)),
            "V": basis_state((2,), (1,)),
        },
    )


def qnd_sample(pol: PhotonPolarisation, shots: int, seed: int) -> dict[str, int]:
    """Seeded outcome counts over ``shots`` independent meter readings."""
    shots = _integral(shots, "shot counts")
    if shots < 1:
        raise ValueError(f"need at least one shot, got {shots}")
    check_guard((shots,), f"{shots} shots draw {shots} numbers")
    rng = np.random.default_rng(seed)
    n_h = int(np.count_nonzero(rng.random(shots) < abs(pol.h) ** 2))
    return {"H": n_h, "V": shots - n_h}


@dataclass(frozen=True)
class ScaleReport:
    """Device numbers for a biased diode: mean free path, depth, size, work."""

    l_over_a: float
    mean_free_path_m: float
    generations: float
    cascade_electrons: float
    work_ev: float


def physical_scales(bias_voltage_v: float, gap_energy_ev: float, lattice_m: float,
                    n_dopants: int) -> ScaleReport:
    """Scales for a register of ``n_dopants`` electrons a gap ``gap_energy_ev``
    below the conduction band under bias ``bias_voltage_v`` (e = 1, volts
    match electron-volts).

    An electron gains the gap energy over l = a * gap / (U e), each free
    flight multiplies the cascade by 2, so the depth is g = U e / gap and
    the cascade saturates at min(n_dopants, 2**g) electrons; the work
    extracted is gap * that count.
    """
    bias = float(bias_voltage_v)
    gap = float(gap_energy_ev)
    lattice = float(lattice_m)
    n_dopants = _integral(n_dopants, "register sizes")
    if (not all(0 < x < math.inf for x in (bias, gap, lattice))
            or not 1 <= n_dopants <= sys.float_info.max):
        raise ValueError("bias, gap, lattice constant must be finite and positive "
                         "and 1 <= n_dopants <= the largest double")
    l_over_a = gap / bias
    generations = bias / gap
    # 2.0 ** g raises OverflowError from g = 1024 on
    cascade = 2.0 ** generations if generations < 1024 else math.inf
    report = ScaleReport(
        l_over_a=l_over_a,
        mean_free_path_m=lattice * l_over_a,
        generations=generations,
        cascade_electrons=cascade,
        work_ev=gap * min(float(n_dopants), cascade),
    )
    if not all(map(math.isfinite, astuple(report))):
        raise ValueError(f"a scale overflows double precision: {report}")
    return report
