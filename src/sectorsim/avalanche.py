"""Avalanche cascade inside a single detector register.

A register holds ``n_dopants`` two-level electrons (``GROUND`` = 0,
``EXCITED`` = 1).  A cascade starts from one seed electron in the excited
state; at each generation every touched electron scatters a fresh
ground-state partner through the two-site collision gate, so generation n
has touched exactly 2**n electrons.  The schedule pairs electron k with
electron k + 2**(n-1).

The collision gate with amplitude eta acts as

    |excited, ground>  ->  |excited> (x) (sqrt(1-|eta|^2)|ground> + eta|excited>)
    |ground,  ground>  ->  unchanged

These two rows fix the physics; the remaining two columns are completed
to the nearest unitary that leaves them intact, namely the rotation
|ground, excited> -> itself and
|excited, excited> -> sqrt(1-|eta|^2)|excited,excited> - conj(eta)|excited,ground>.
The naive completion (mapping |ground,excited> onto |ground,ground>)
collides with the ground row and is not unitary for any eta; cascade
dynamics never exercise the completed columns because every collision
partner starts in the ground state.

Besides the dense state-vector engine there is an exact factorised
engine built on one rule: electron j > 0 was excited by j with its top
bit cleared, at the generation that bit names.  A label is settled by
the collision that makes its electron a partner and never changes after,
so the amplitude of a configuration is a product of one factor per
(exciter, partner) edge,

    [[1, 0], [sqrt(1-|eta|^2), eta]][exciter bit][partner bit],

for an excited seed, and 0 otherwise.  Descendants only add higher bits,
so electron j > 0 lies in the subtree of the seed's partner
2**trailing_zeros(j); that subtree is block Z_l with
l = n - trailing_zeros(j).  Electrons at and beyond 2**n form an
untouched remainder.  Each block is

    Z_0 = |excited seed>
    Z_l = sqrt(1-|eta|^2) * |all ground> + eta * Z_0 (x) Z_1 (x) ... (x) Z_{l-1}

where, inside Z_l, Z_0 is the subtree's root and Z_1 .. Z_{l-1} are the
subtrees of its partners, latest first.  This gives the cascade/no-cascade
overlap in closed form,
|<seed, all ground | state_n>| = (1 - |eta|^2)**(n/2).  Every block is
an arithmetic progression of electron indices, so the partition is stored
as ranges and costs O(n), as do the overlaps; an amplitude reads all 2**n
touched labels and costs O(2**n).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    DenseState,
    TwoSiteGate,
    _integral,
    apply_two_site_gate,
    basis_state,
    check_guard,
    flat_index,
)

__all__ = [
    "EXCITED",
    "GROUND",
    "AvalancheParams",
    "StructuredAvalancheState",
    "ZBlockPartition",
    "block_ground_overlap",
    "dense_avalanche",
    "dense_ground_overlap",
    "dense_no_avalanche_overlap",
    "generation_pairs",
    "ground_register",
    "overlap_ground",
    "overlap_no_avalanche",
    "scattering_gate",
    "scattering_matrix",
    "seeded_register",
    "structured_amplitude",
    "structured_avalanche",
]

GROUND = 0
EXCITED = 1

ETA_TOL = 1e-12


def _check_amplitude(x: complex, name: str) -> complex:
    """``x`` as a complex with |x| <= 1.  An overshoot of at most ``ETA_TOL``
    is scaled onto the unit circle; a larger |x|, NaN, or a part or modulus
    past the largest double raises ValueError naming ``name``."""
    try:
        x = complex(x)
        modulus = abs(x)
    except OverflowError:
        modulus = math.inf
    if not modulus <= 1.0 + ETA_TOL:
        raise ValueError(f"amplitude needs |{name}| <= 1, got |{name}| = {modulus}")
    if modulus > 1.0:
        x /= modulus
        while abs(x) > 1.0:  # x / |x| can land an ulp outside the circle
            x *= 1.0 - 2.0**-52
    return x


def _survival(eta: complex) -> float:
    """sqrt(1 - |eta|^2), clamped against roundoff at the boundary."""
    return math.sqrt(max(0.0, 1.0 - abs(eta) ** 2))


@dataclass(frozen=True)
class AvalancheParams:
    """Register size, collision amplitude, and deepest generation."""

    n_dopants: int
    eta: complex
    n_max: int

    def __post_init__(self):
        n_dopants = _integral(self.n_dopants, "register sizes")
        n_max = _integral(self.n_max, "generations")
        eta = _check_amplitude(self.eta, "eta")
        if n_dopants < 1:
            raise ValueError(f"need at least one dopant electron, got {n_dopants}")
        if n_max < 0:
            raise ValueError(f"generation count must be >= 0, got {n_max}")
        if n_max >= n_dopants.bit_length():  # 2**n_max > n_dopants, never built
            raise ValueError(
                f"generation {n_max} touches 2**{n_max} electrons but the "
                f"register only has {n_dopants}"
            )
        object.__setattr__(self, "n_dopants", n_dopants)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "n_max", n_max)


def _check_generation(params: AvalancheParams, n: int) -> int:
    n = _integral(n, "generations")
    if n < 0:
        raise ValueError(f"generation must be >= 0, got {n}")
    if n > params.n_max:
        raise ValueError(f"generation {n} exceeds configured n_max = {params.n_max}")
    return n


def _rotation(dim: int, src: int, dst: int, amp: complex) -> np.ndarray:
    """``dim`` x ``dim`` identity except for the rotation of |src>, |dst>:
    |src> -> s|src> + amp|dst> and |dst> -> s|dst> - conj(amp)|src>, with
    s = sqrt(1 - |amp|^2)."""
    s = _survival(amp)
    mat = np.eye(dim, dtype=np.complex128)
    mat[src, src] = mat[dst, dst] = s
    mat[dst, src] = amp
    mat[src, dst] = -np.conj(amp)
    return mat


def scattering_matrix(eta: complex) -> np.ndarray:
    """4x4 collision unitary in the (exciter, partner) product basis.

    Basis order (exciter fastest): gg=0, eg=1, ge=2, ee=3.
    """
    return _rotation(4, 1, 3, _check_amplitude(eta, "eta"))


def scattering_gate(eta: complex, exciter: int, partner: int) -> TwoSiteGate:
    """Collision gate bound to an (exciter, partner) site pair."""
    return TwoSiteGate((exciter, partner), scattering_matrix(eta))


def generation_pairs(n: int) -> list[tuple[int, int]]:
    """Collision pairs fired at generation n >= 1: (k, k + 2**(n-1))."""
    n = _integral(n, "generations")
    if n < 1:
        raise ValueError(f"collisions start at generation 1, got {n}")
    half = 1 << (n - 1)
    return [(k, k + half) for k in range(half)]


def _register_size(n_dopants: int) -> int:
    """``n_dopants`` as an int, refused beyond the dimension guard before
    any per-site tuple is built."""
    n_dopants = _integral(n_dopants, "register sizes")
    check_guard((2 for _ in range(n_dopants)),
                f"a register of {n_dopants} electrons needs 2**{n_dopants} amplitudes")
    return n_dopants


def ground_register(n_dopants: int) -> DenseState:
    """All-ground register state."""
    n_dopants = _register_size(n_dopants)
    return basis_state((2,) * n_dopants, (GROUND,) * n_dopants)


def seeded_register(n_dopants: int) -> DenseState:
    """Register with the seed electron (site 0) excited, rest ground."""
    n_dopants = _register_size(n_dopants)
    return basis_state((2,) * n_dopants, (EXCITED,) + (GROUND,) * (n_dopants - 1))


def cascade_generations(state: DenseState, eta: complex, n: int,
                        offsets: tuple[int, ...]) -> Iterator[DenseState]:
    """Yield ``state`` after generations 0, 1, ..., n of the collision
    schedule, each built from the one before.

    ``offsets`` holds the site index of each register's electron 0; every
    collision pair fires in each register in ``offsets`` order before the
    next pair.  Only the latest generation is held here, so a caller that
    drops each yielded state before asking for the next keeps one
    generation alive, as a rebuild from generation 0 would.
    """
    yield state
    for g in range(1, n + 1):
        for exciter, partner in generation_pairs(g):
            for offset in offsets:
                state = apply_two_site_gate(
                    state, scattering_gate(eta, offset + exciter, offset + partner)
                )
        yield state


def apply_cascade(state: DenseState, eta: complex, n: int, offsets: tuple[int, ...]) -> DenseState:
    """Run generations 1..n of the collision schedule on a dense state."""
    generations = cascade_generations(state, eta, n, offsets)
    del state  # the generator holds the input only until its first gate
    # islice drops generations 0..n-1 as it passes them
    return next(itertools.islice(generations, n, None))


def dense_avalanche(params: AvalancheParams, n: int) -> DenseState:
    """State vector after n cascade generations from the seeded register."""
    n = _check_generation(params, n)
    return apply_cascade(seeded_register(params.n_dopants), params.eta, n, (0,))


@dataclass(frozen=True)
class ZBlockPartition:
    """Which electrons belong to which entangled block after n generations.

    ``levels[l]`` is the ascending range of block Z_l's electrons;
    electrons at and beyond 2**n form the untouched ``remainder``.  Ranges
    keep the partition O(n) in time and memory at any depth.  The depth n
    itself is ``StructuredAvalancheState.generation``.
    """

    levels: tuple[range, ...]
    remainder: range


@dataclass(frozen=True)
class StructuredAvalancheState:
    """Factorised cascade state: parameters plus its block partition."""

    params: AvalancheParams
    generation: int
    partition: ZBlockPartition


def structured_avalanche(params: AvalancheParams, n: int) -> StructuredAvalancheState:
    """Factorised representation of the cascade after n generations.

    Level l >= 1 holds the electrons with exactly n - l trailing zero bits.
    """
    n = _check_generation(params, n)
    size = 1 << n
    levels = (range(1),) + tuple(
        range(size >> l, size, size >> (l - 1)) for l in range(1, n + 1)
    )
    partition = ZBlockPartition(levels=levels, remainder=range(size, params.n_dopants))
    return StructuredAvalancheState(params=params, generation=n, partition=partition)


def structured_amplitude(state: StructuredAvalancheState, labels):
    """Amplitude of full-register basis configurations, no dense vector.

    ``labels`` holds one 0/1 entry per dopant electron, shape ``(A,)`` for
    one configuration (returns a complex) or ``(B, A)`` for a batch
    (returns B amplitudes).  Exact for every configuration, though a row's
    last bit can differ between a 1-D call and the same row in a batch.

    Generations n, n-1, ..., 1 fold each partner's subtree into its
    exciter, latest first, so every exciter multiplies in its children in
    the order the Z-block recursion does.  Each edge contributes
    ``[[1, 0], [sqrt(1-|eta|^2), eta]][exciter bit][partner bit]``.
    """
    params = state.params
    bits = np.asarray(labels)
    if bits.ndim not in (1, 2) or bits.shape[-1] != params.n_dopants:
        raise ValueError(
            f"need {params.n_dopants} electron labels per row, got shape {bits.shape}"
        )
    if not np.all((bits == 0) | (bits == 1)):
        raise ValueError("electron labels must be 0 (ground) or 1 (excited)")
    batch = bits.reshape(-1, params.n_dopants).astype(np.uint8, copy=False)
    n = state.generation
    table = np.array([1.0, 0.0, _survival(params.eta), params.eta], dtype=np.complex128)
    one = np.complex128(1.0)
    # acc[:, j]: product of the subtrees folded into electron j so far.  A
    # flat left-to-right product would round, and underflow, differently.
    acc = np.full((len(batch), 1), one)
    for g in range(n, 0, -1):
        lo = 1 << (g - 1)
        idx = batch[:, :lo] << 1
        idx += batch[:, lo : 2 * lo]
        if g == n:
            # every subtree is still 1 here: fold it into the 4-entry table
            # once, in the operand order of the general step
            acc = (one * (table * one)).take(idx)
        else:
            edge = table.take(idx)
            edge *= acc[:, lo:]
            acc = np.multiply(acc[:, :lo], edge, out=edge)  # electrons [0, lo) remain
    seeded = (batch[:, 0] == 1) & ~batch[:, 1 << n :].any(axis=1)
    amps = np.where(seeded, acc[:, 0], 0j)
    return complex(amps[0]) if bits.ndim == 1 else amps


def block_ground_overlap(level: int, eta: complex) -> complex:
    """<all ground | Z_level>, in closed form.

    Level 0 is the seed block, orthogonal to the ground state, so its
    overlap is 0.  Every higher block's product term contains that seed
    factor, so only its all-ground term survives: sqrt(1 - |eta|^2) for
    all levels >= 1.
    """
    level = _integral(level, "block levels")
    if level < 0:
        raise ValueError(f"block level must be >= 0, got {level}")
    eta = _check_amplitude(eta, "eta")
    return complex(_survival(eta)) if level else 0j


def overlap_no_avalanche(params: AvalancheParams, n: int) -> complex:
    """<seed excited, all others ground | state_n>, evaluated in O(n).

    The seed block contributes 1 and each of the n higher blocks
    contributes its closed-form ground overlap sqrt(1 - |eta|^2), so the
    result is (1 - |eta|^2)**(n/2).  The dense engine reproduces this
    exponent.
    """
    n = _check_generation(params, n)
    result = 1.0 + 0j
    for level in range(1, n + 1):
        result *= block_ground_overlap(level, params.eta)
    return complex(result)


def overlap_ground(params: AvalancheParams, n: int) -> complex:
    """<all ground | state_n>; exactly 0 because the seed stays excited."""
    _check_generation(params, n)
    return 0j


def _seed_only_amplitude(state: DenseState) -> complex:
    """Amplitude of the seed excited and every other electron ground."""
    labels = (EXCITED,) + (GROUND,) * (state.n_sites - 1)
    return complex(state.amps[flat_index(state.dims, labels)])


def _all_ground_amplitude(state: DenseState) -> complex:
    """Amplitude of every electron ground."""
    return complex(state.amps[0])


def dense_no_avalanche_overlap(params: AvalancheParams, n: int) -> complex:
    """Dense-engine twin of :func:`overlap_no_avalanche` (oracle route)."""
    return _seed_only_amplitude(dense_avalanche(params, n))


def dense_ground_overlap(params: AvalancheParams, n: int) -> complex:
    """Dense-engine twin of :func:`overlap_ground` (oracle route)."""
    return _all_ground_amplitude(dense_avalanche(params, n))
