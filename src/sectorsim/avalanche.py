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
an arithmetic progression of electron indices, so the partition is read
as ranges and costs O(n), as do the overlaps.  An amplitude scans its
2**n touched labels once, O(2**n) bytes; its complex work and scratch grow
with the subtrees that hold an excited label, plus the last few dense
levels, and a row with its seed ground or an electron beyond 2**n excited
costs no fold at all.  A structured state is its parameters plus its
depth.  The engines share validated inputs and never a formula: no dense
gate or dense amplitude calls ``_survival``.
"""

from __future__ import annotations

import itertools
import math
import operator
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
)

__all__ = [
    "EXCITED",
    "GROUND",
    "AvalancheParams",
    "StructuredAvalancheState",
    "ZBlockPartition",
    "block_ground_overlap",
    "dense_avalanche",
    "dense_no_avalanche_overlap",
    "generation_pairs",
    "ground_register",
    "overlap_no_avalanche",
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
    s = sqrt(1 - |amp|^2), computed here: the dense gates borrow no structured formula."""
    s = math.sqrt(max(0.0, 1.0 - abs(amp) ** 2))
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


def generation_pairs(n: int) -> list[tuple[int, int]]:
    """Collision pairs fired at generation n >= 1: (k, k + 2**(n-1)).

    Each pair is charged as 16 amplitudes (a listed pair takes the bytes
    of about 8), and a depth past the guard is refused before any is built."""
    n = _integral(n, "generations")
    if n < 1:
        raise ValueError(f"collisions start at generation 1, got {n}")
    half = check_guard(itertools.chain((16,), (2 for _ in range(n - 1))),
                       f"generation {n} fires 2**{n - 1} collisions") // 16
    return [(k, k + half) for k in range(half)]


def _register(n_dopants: int, seed_label: int) -> DenseState:
    """Register with site 0 in ``seed_label`` and the rest ground, refused
    beyond the dimension guard before any per-site tuple is built."""
    n_dopants = _integral(n_dopants, "register sizes")
    check_guard((2 for _ in range(n_dopants)),
                f"a register of {n_dopants} electrons needs 2**{n_dopants} amplitudes")
    return basis_state((2,) * n_dopants, (seed_label,) + (GROUND,) * (n_dopants - 1))


def ground_register(n_dopants: int) -> DenseState:
    """All-ground register state."""
    return _register(n_dopants, GROUND)


def seeded_register(n_dopants: int) -> DenseState:
    """Register with the seed electron (site 0) excited, rest ground."""
    return _register(n_dopants, EXCITED)


def cascade_generations(state: DenseState, eta: complex,
                        offsets: tuple[int, ...]) -> Iterator[DenseState]:
    """Yield ``state`` after generations 0, 1, 2, ... of the collision
    schedule, each built from the one before with one collision matrix, for
    as long as the reader asks.  ``offsets`` holds the site index of each
    register's electron 0, and a register runs to the next larger offset or
    the end of ``state``; every collision pair fires in each register in
    ``offsets`` order before the next pair.  Generation g raises ValueError,
    before its first gate, when its 2**g electrons exceed the smallest
    register.  Only the latest generation is held here, so a caller that
    drops each yielded state before asking for the next keeps one generation
    alive, as a rebuild would.
    """
    collision = scattering_matrix(eta)
    starts = sorted(offsets)
    smallest = min(end - start for start, end in zip(starts, starts[1:] + [state.n_sites]))
    yield state
    for g in itertools.count(1):
        if g >= smallest.bit_length():  # 2**g > smallest
            raise ValueError(f"generation {g} touches 2**{g} electrons but the "
                             f"smallest register only has {smallest}")
        for exciter, partner in generation_pairs(g):
            for offset in offsets:
                state = apply_two_site_gate(
                    state, TwoSiteGate((offset + exciter, offset + partner), collision))
        yield state


def dense_avalanche(params: AvalancheParams, n: int) -> DenseState:
    """Generation n of :func:`cascade_generations` from the seeded register."""
    n = _check_generation(params, n)
    # the generator is the seed's only holder; islice drops each generation it passes
    return next(itertools.islice(
        cascade_generations(seeded_register(params.n_dopants), params.eta, (0,)), n, None))


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
    """Factorised cascade state: parameters plus depth; ``partition`` derives its blocks in O(n)."""

    params: AvalancheParams
    generation: int

    def __post_init__(self):
        object.__setattr__(self, "generation", _check_generation(self.params, self.generation))

    @property
    def partition(self) -> ZBlockPartition:
        """Level l >= 1 holds the electrons with exactly n - l trailing zero bits."""
        size = 1 << self.generation
        levels = (range(1),) + tuple(
            range(size >> l, size, size >> (l - 1)) for l in range(1, self.generation + 1)
        )
        return ZBlockPartition(levels=levels, remainder=range(size, self.params.n_dopants))


def structured_avalanche(params: AvalancheParams, n: int) -> StructuredAvalancheState:
    """Factorised representation of the cascade after n generations, in O(1)."""
    return StructuredAvalancheState(params=params, generation=n)


# Levels of at least this many subtrees per row fold by key while few of
# them hold an excited label; narrower levels run the dense loop, so a fold
# shallower than log2(_KEYED_WIDTH), like the oracle's, never keys.
_KEYED_WIDTH = 1 << 8
# The keys hand over to the dense loop once they pass 1/_KEYED_SHARE of a level.
_KEYED_SHARE = 4


def _keyed_levels(labels: np.ndarray, n: int,
                  table: np.ndarray) -> tuple[int, np.ndarray | None]:
    """Generations n, n-1, ... of the fold in :func:`structured_amplitude` over
    the seeded rows ``labels`` (shape ``(B, 2**n)``), visiting only the
    subtrees that hold an excited label, while they stay sparse.

    A tracked subtree is a sorted flat key ``row * 2**n + electron`` with
    its product.  Every other subtree is all ground, and its product is the
    exact 1 + 0j the dense loop computes there; a tracked one takes the
    dense loop's operands in its order, so it is bit-identical.  Returns the
    next generation to fold and the products as dense rows of width
    2**generation.
    """
    if labels.shape[1] < _KEYED_WIDTH or _KEYED_SHARE * np.count_nonzero(labels) > labels.size:
        return n, None
    one = np.complex128(1.0)
    flat = np.ascontiguousarray(labels).reshape(-1)
    keys = np.flatnonzero(flat.view(bool))  # a 1-D bool scan is numpy's fast one
    products = np.full(len(keys), one)  # a lone electron's subtree: nothing folded in yet
    g = n
    while (1 << g) >= _KEYED_WIDTH and _KEYED_SHARE * len(keys) <= len(labels) << g:
        lo = 1 << (g - 1)
        partner = keys & lo  # an electron's partner subtree merges into it
        merged = keys ^ partner
        keys = np.sort(merged)  # deduplicated by hand: np.unique is far slower here
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        idx = flat.take(keys) << 1
        idx += flat.take(keys + lo)
        children = np.full((2, len(keys)), one)  # exciter and partner subtrees
        children[partner >> (g - 1), keys.searchsorted(merged)] = products
        edge = table.take(idx)
        edge *= children[1]
        products = np.multiply(children[0], edge, out=edge)
        g -= 1
    # keys index rows 2**n apart; at width 2**g each row keeps its first 2**g
    acc = np.full((len(labels), 1 << g), one)
    acc[keys >> n, keys & ((1 << g) - 1)] = products
    return g, acc


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

    The labels are scanned once, O(2**n) bytes per row.  A row with its
    seed ground, or an electron at or beyond 2**n excited, is 0 and costs
    no fold.  A deep fold multiplies only along the subtrees that hold an
    excited label, until they fill a quarter of a level, and then densely
    over the last few levels, so its complex work and scratch grow with the
    excited subtrees rather than with 2**n.
    """
    params = state.params
    bits = np.asarray(labels)
    if bits.ndim not in (1, 2) or bits.shape[-1] != params.n_dopants:
        raise ValueError(
            f"need {params.n_dopants} electron labels per row, got shape {bits.shape}"
        )
    if bits.dtype.kind in "biu" and bits.dtype.isnative:
        # one reduction: viewed as unsigned, a negative label is huge too;
        # 1-byte labels then need no copy
        bits = bits.view(f"u{bits.itemsize}")
        valid = bits.max(initial=0) <= 1
    else:
        valid = bits.dtype.kind != "c" and np.all((bits == 0) | (bits == 1))
    if not valid:
        raise ValueError("electron labels must be 0 (ground) or 1 (excited)")
    batch = bits.reshape(-1, params.n_dopants).astype(np.uint8, copy=False)
    n = state.generation
    size = 1 << n
    amps = np.zeros(len(batch), dtype=np.complex128)
    seeded = ((batch[:, 0] == 1) & ~batch[:, size:].any(axis=1)).nonzero()[0]
    if not seeded.size:  # _keyed_levels needs at least one row
        return 0j if bits.ndim == 1 else amps
    if seeded.size < len(batch):
        batch = batch.take(seeded, axis=0)
    table = np.array([1.0, 0.0, _survival(params.eta), params.eta], dtype=np.complex128)
    one = np.complex128(1.0)
    # acc[:, j]: product of the subtrees folded into electron j so far.  A
    # flat left-to-right product would round, and underflow, differently.
    top, keyed = _keyed_levels(batch[:, :size], n, table)
    acc = np.full((len(batch), 1), one) if keyed is None else keyed
    for g in range(top, 0, -1):
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
    amps[seeded] = acc[:, 0]
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


def _no_avalanche_overlaps(eta: complex) -> Iterator[complex]:
    """Yield :func:`overlap_no_avalanche` for n = 0, 1, 2, ... in one fold, as far as read."""
    return itertools.accumulate((block_ground_overlap(level, eta) for level in itertools.count(1)),
                                operator.mul, initial=1.0 + 0j)


def overlap_no_avalanche(params: AvalancheParams, n: int) -> complex:
    """<seed excited, all others ground | state_n>, evaluated in O(n).

    The seed block contributes 1 and each of the n higher blocks
    contributes its closed-form ground overlap sqrt(1 - |eta|^2), so the
    result is (1 - |eta|^2)**(n/2), the dense engine's exponent too.  A
    measurement sweep walks this fold once for all its generations.
    """
    n = _check_generation(params, n)
    return next(itertools.islice(_no_avalanche_overlaps(params.eta), n, None))


def dense_no_avalanche_overlap(params: AvalancheParams, n: int) -> complex:
    """Dense-engine twin of :func:`overlap_no_avalanche` (oracle route): with site 0
    fastest-varying, entry 1 is the seed excited and every other electron ground."""
    return complex(dense_avalanche(params, n).amps[1])
