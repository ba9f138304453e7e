"""Dense state vectors over small ordered collections of finite sites.

Conventions used throughout the package:

* Site 0 is the fastest-varying index of the flat amplitude vector, so a
  basis assignment (b_0, b_1, ..., b_{S-1}) lives at flat index
  sum_s b_s * prod_{s'<s} d_{s'}.
* Amplitudes are complex double precision.
* Site products, of state vectors or of per-site operators, are built by
  ``kron_sites``, the one fold that puts site 0 fastest-varying.  It folds
  with ``np.multiply.outer`` (a matrix factor's axes interleaved with the
  running product's) in ``np.kron``'s association order, so each entry is
  the same single product and the result equals ``np.kron``'s bit for bit.
* Two-site gates store their matrix in the product basis of the targeted
  pair with the first site of the pair fastest-varying, and must be
  unitary to within ``UNITARITY_TOL``.  Each distinct matrix, keyed on its
  size and bytes, is checked and planned once: the gate built from it and
  every gate applied with those bytes share one check and one row plan,
  while a refused matrix is checked again each time it is offered.
* Gates are applied out of place and never write their input.  The sites
  other than the pair span a sublattice (above, between, below the pair),
  which the kernel cuts into tiles of at most ``_TILE_AMPS // 4`` points,
  cutting the axis below the pair first, then the one between, then the
  one above, so a pair anywhere in the state is cut alike.  Each tile is
  copied from input to output; each input column a non-identity row reads
  is gathered once into a contiguous buffer; each row sums its products
  in a buffer and is written to its strided destination once.  The
  buffers of one tile hold at most ``_TILE_AMPS`` amplitudes (256 KiB),
  so a gate's scratch is a constant, whatever the state's size.
* A caller's ``DenseState(dims, amps)`` holds the caller's array, which the
  caller may still write, so it is scanned when built and has no bound.
  Every state the package builds (basis states, so every register, tensor
  products and gate outputs) comes from ``_owned`` with a read-only array
  and an upper bound on its sum of squares: its inputs' trusted bounds grown,
  or else a scan's (none if the sum overflows).

Dense objects are capped at ``dimension_guard()`` amplitudes (2**26 by
default).  The ``SECTORSIM_DIM_GUARD`` environment variable is the one
control of that cap, and ``check_guard`` is the one place that compares a
size against it: every dense amplitude vector, dense operator and sample
batch in the package is checked there before it is allocated, so an
accidental large request fails fast instead of paging.  It multiplies a
size's factors in order and refuses as soon as the running product passes
the cap, so however many the factors, it never forms the full product.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_DIM_GUARD",
    "DenseState",
    "DimensionLimitError",
    "TwoSiteGate",
    "apply_two_site_gate",
    "basis_state",
    "dimension_guard",
    "flat_index",
    "inner_product",
    "tensor_product",
]

DEFAULT_DIM_GUARD = 1 << 26
UNITARITY_TOL = 1e-12
# amplitudes of one gate tile's buffers: 256 KiB, well inside a per-core L2
_TILE_AMPS = 1 << 14
# the largest sum of squares a gate trusts without scanning its output: every
# amplitude is then at most 2**500, so no product or partial sum of a gate row
# comes near the largest double, and nor does the output's bound
_TRUSTED_BOUND = 2.0 ** 1000


class DimensionLimitError(ValueError):
    """A dense object would exceed the amplitude-count guard."""


def dimension_guard() -> int:
    """Active amplitude-count cap; SECTORSIM_DIM_GUARD overrides the default."""
    raw = os.environ.get("SECTORSIM_DIM_GUARD", "").strip()
    if not raw:
        return DEFAULT_DIM_GUARD
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"SECTORSIM_DIM_GUARD is not an integer: {raw!r}") from exc
    if value < 2:
        raise ValueError(f"SECTORSIM_DIM_GUARD must be >= 2, got {value}")
    return value


def check_guard(sizes, what: str) -> int:
    """Product of the non-negative ints ``sizes``, multiplied in order and
    refused as soon as the running product passes the guard.

    ``sizes`` may be lazy; no factor after the refusing one is read.
    ``what`` describes the request; the error reads "<what>, guard is <cap>".
    """
    limit = dimension_guard()
    total = 1
    for size in sizes:
        total *= size
        if total > limit:
            raise DimensionLimitError(f"{what}, guard is {limit}")
    return total


def kron_sites(factors, what: str) -> np.ndarray:
    """Kronecker product of one vector or one square matrix per site, site 0
    fastest-varying, as a new array; ``what`` names the request in a guard refusal."""
    check_guard((f.size for f in factors), f"{what} needs too many entries")
    # kron's second factor varies fastest, so fold from a copy of the last site
    # down, the running product on the left as kron has it; a matrix product is
    # written with row and column axes already interleaved, as kron does
    def fold(acc, f):
        if f.ndim == 1:
            return np.multiply.outer(acc, f).ravel()
        return np.multiply(acc[:, None, :, None], f[:, None, :]).reshape(
            acc.shape[0] * f.shape[0], -1)

    return functools.reduce(fold, reversed(factors[:-1]), factors[-1].copy())


def _integral(value, what: str) -> int:
    """``value`` as an int: ints, numpy ints and integral floats pass, while
    fractions, NaN and +-inf raise ValueError instead of being truncated."""
    try:
        return operator.index(value)
    except TypeError:
        pass
    as_float = float(value)
    if not as_float.is_integer():
        raise ValueError(f"{what} must be integers, got {value!r}")
    return int(as_float)


def _checked_dims(dims) -> tuple[tuple[int, ...], int]:
    """Validated site dimensions and the amplitude count they span."""
    dims = tuple(_integral(d, "site dimensions") for d in dims)
    if not dims:
        raise ValueError("a state needs at least one site")
    if any(d < 2 for d in dims):
        raise ValueError(f"every site dimension must be >= 2, got {dims}")
    return dims, check_guard(dims, f"a state over {len(dims)} sites needs too many amplitudes")


@dataclass(frozen=True)
class DenseState:
    """Flat complex amplitude vector plus the ordered site dimensions."""

    dims: tuple[int, ...]
    amps: np.ndarray

    # upper bound on sum |amp|^2, recorded only by _owned; None means unknown
    _bound = None

    def __post_init__(self):
        dims, size = _checked_dims(self.dims)
        amps = np.ascontiguousarray(self.amps, dtype=np.complex128)
        if amps.shape != (size,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, dims {dims} need ({size},)"
            )
        _sum_of_squares(amps)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)

    @property
    def n_sites(self) -> int:
        return len(self.dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def _sum_of_squares(amps: np.ndarray) -> float:
    """Sum of |amp|^2 over the complex vector ``amps``, inf when finite
    entries overflow it; ValueError if any entry is inf or NaN."""
    # any inf or NaN makes the sum non-finite, so a finite sum settles it in
    # one BLAS pass; only a non-finite sum, which finite entries give when it
    # overflows, needs the elementwise scan
    parts = amps.view(np.float64)
    with np.errstate(all="ignore"):
        total = float(np.dot(parts, parts))
    if not (math.isfinite(total) or np.all(np.isfinite(parts))):
        raise ValueError("amplitudes must be finite")
    return total


def _owned(dims: tuple[int, ...], amps: np.ndarray, bound: float | None = None) -> DenseState:
    """State over ``amps``, an array the package just allocated for the validated
    ``dims``, made read-only so that ``bound``, an upper bound on its sum of squares,
    stays true.  With none, ``amps`` is scanned: a dot product of m non-negative terms
    is at least (1 - gamma_m) times the exact sum, gamma_m = m*u/(1 - m*u) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 3.1), so the measured
    sum, with room for its own rounding, is recorded unless it overflows."""
    if bound is None:
        total = _sum_of_squares(amps)
        bound = total * (1 + (amps.size + 1) * 2.0**-51) if math.isfinite(total) else None
    amps.flags.writeable = False
    state = object.__new__(DenseState)
    object.__setattr__(state, "dims", dims)
    object.__setattr__(state, "amps", amps)
    object.__setattr__(state, "_bound", bound)
    return state


def _trusted(state: DenseState) -> bool:
    # a copy or an unpickled state can carry a bound on a writeable array
    return state._bound is not None and not state.amps.flags.writeable


@dataclass(frozen=True)
class TwoSiteGate:
    """Unitary acting on an ordered pair of sites.

    ``matrix`` is (d_i*d_j, d_i*d_j) in the pair's product basis with
    ``sites[0]`` fastest-varying; column index encodes the input.
    """

    sites: tuple[int, int]
    matrix: np.ndarray

    def __post_init__(self):
        i, j = (_integral(s, "gate sites") for s in self.sites)
        if i < 0 or j < 0:
            raise ValueError(f"gate sites must be non-negative, got ({i}, {j})")
        if i == j:
            raise ValueError(f"gate needs two distinct sites, got ({i}, {j})")
        mat = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"gate matrix must be square, got shape {mat.shape}")
        _gate_plan(mat.shape[0], mat.tobytes())  # refuses a non-unitary matrix
        object.__setattr__(self, "sites", (i, j))
        object.__setattr__(self, "matrix", mat)


@functools.lru_cache(maxsize=64)
def _gate_plan(size: int, raw: bytes):
    """Check the ``size`` x ``size`` complex gate matrix stored in ``raw``
    for unitarity, then plan its rows: the pair labels of the columns that
    non-identity rows read, in gather order, and each such row's label with
    its terms as (gather slot, 0-d coefficient).

    Memoised, so each distinct matrix is checked and planned once; a refusal
    raises and is not cached.  The coefficients are views of a read-only
    copy, so a caller that later writes its matrix cannot reach a plan.
    """
    mat = np.frombuffer(raw, dtype=np.complex128).reshape(size, size)
    deviation = np.max(np.abs(mat.conj().T @ mat - np.eye(size)))
    if not deviation <= UNITARITY_TOL:
        raise ValueError(f"gate matrix is not unitary (max deviation {deviation:.3e})")
    # rows and columns label pairs k = b_i + d_i*b_j; a coefficient kept as a
    # 0-d view multiplies without converting a Python scalar
    slots: dict[int, int] = {}
    updates = []
    for r, row in enumerate(mat.tolist()):
        terms = [(k, c) for k, c in enumerate(row) if c]
        if terms != [(r, 1)]:
            updates.append((r, tuple((slots.setdefault(k, len(slots)), mat[r, k, ...])
                                     for k, _ in terms)))
    return tuple(slots), tuple(updates)


def flat_index(dims, labels) -> int:
    """Flat position of a basis assignment, site 0 fastest-varying."""
    dims = tuple(_integral(d, "site dimensions") for d in dims)
    labels = tuple(_integral(b, "labels") for b in labels)
    if len(labels) != len(dims):
        raise ValueError(f"{len(dims)} sites but {len(labels)} labels")
    idx = 0
    stride = 1
    for b, d in zip(labels, dims):
        if not 0 <= b < d:
            raise ValueError(f"label {b} out of range for dimension {d}")
        idx += b * stride
        stride *= d
    return idx


def basis_state(dims, labels) -> DenseState:
    """Computational basis state with the given per-site labels."""
    dims, size = _checked_dims(dims)
    amps = np.zeros(size, dtype=np.complex128)
    amps[flat_index(dims, labels)] = 1.0
    return _owned(dims, amps, 1.0)


def tensor_product(a: DenseState, b: DenseState) -> DenseState:
    """Concatenate site lists; ``a``'s sites come first (fastest-varying)."""
    amps = kron_sites((a.amps, b.amps), "tensor product")
    # each entry is one complex product, within sqrt(5)*u of exact (Brent, Percival
    # and Zimmermann, Math. Comp. 76 (2007) 1469-1481); an overflowing bound is none
    bound = a._bound * b._bound * (1 + 2.0**-49) if _trusted(a) and _trusted(b) else None
    return _owned(a.dims + b.dims, amps, None if bound == math.inf else bound)


def inner_product(a: DenseState, b: DenseState) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.dims != b.dims:
        raise ValueError(f"site mismatch: {a.dims} vs {b.dims}")
    return complex(np.vdot(a.amps, b.amps))


def apply_two_site_gate(state: DenseState, gate: TwoSiteGate) -> DenseState:
    """Apply a two-site unitary, leaving all other sites untouched, into a new
    read-only state, scanned only when ``state`` carries no trusted bound."""
    i, j = gate.sites
    n = state.n_sites
    if i >= n or j >= n:
        raise ValueError(f"gate targets sites ({i}, {j}) but state has {n} sites")
    di, dj = state.dims[i], state.dims[j]
    if gate.matrix.shape[0] != di * dj:
        raise ValueError(
            f"gate matrix is {gate.matrix.shape[0]}x{gate.matrix.shape[0]}, "
            f"target sites have dimensions {di}x{dj}"
        )
    # C-order view (above hi, d_hi, between, d_lo, below lo), lo < hi
    lo, hi = sorted((i, j))
    dims = state.dims
    shape = (math.prod(dims[hi + 1:]), dims[hi], math.prod(dims[lo + 1:hi]),
             dims[lo], math.prod(dims[:lo]))
    # the sublattice (above, between, below) first, then site i's axis, then j's
    axes = (0, 2, 4, 3, 1) if i < j else (0, 2, 4, 1, 3)
    # keyed on the matrix's current bytes, so a matrix written since the gate
    # was built is checked and planned afresh
    slots, updates = _gate_plan(di * dj, gate.matrix.tobytes())
    out = np.empty_like(state.amps)
    src = state.amps.reshape(shape).transpose(axes)
    dst = out.reshape(shape).transpose(axes)
    columns = [src[..., k % di, k // di] for k in slots]
    rows = [(dst[..., r % di, r // di], terms) for r, terms in updates]
    # a tile fixes the sublattice axes before `cut`, takes `step` indices of
    # axis `cut` and all of each axis after it; its gathered columns and
    # the two row buffers hold at most _TILE_AMPS amplitudes
    sub = shape[0], shape[2], shape[4]
    tile = _TILE_AMPS // max(4, len(slots) + 2)
    cut = 2 if sub[2] > tile else 1 if sub[1] * sub[2] > tile else 0
    step = min(tile // math.prod(sub[cut + 1:]), sub[cut])
    scratch = np.empty((len(slots) + 2, step) + sub[cut + 1:], dtype=np.complex128)
    full = list(scratch)
    if cut == 0 and step == sub[0]:
        # one tile, the whole sublattice: a tiny state builds no per-tile key
        tiles = ((..., full),)
    else:
        last = list(scratch[:, :sub[cut] % step])
        tiles = ((outer + (slice(s, s + step),), full if s + step <= sub[cut] else last)
                 for outer in itertools.product(*map(range, sub[:cut]))
                 for s in range(0, sub[cut], step))
    for key, (*gathered, acc, tmp) in tiles:
        dst[key] = src[key]
        for buf, column in zip(gathered, columns):
            buf[...] = column[key]
        for target, ((slot, c), *rest) in rows:
            np.multiply(gathered[slot], c, out=acc)
            if not rest:
                # +0 turns the -0 a lone negative coefficient makes of a zero
                # (a collision at eta = +-1) back into +0, which records print
                np.add(acc, 0.0, out=acc)
            for slot, c in rest:
                np.multiply(gathered[slot], c, out=tmp)
                np.add(acc, tmp, out=acc)
            target[key] = acc
    grown = _trusted(state) and state._bound <= _TRUSTED_BOUND
    return _owned(dims, out, state._bound * _gate_growth(di * dj) if grown else None)


def _gate_growth(size: int) -> float:
    """Factor by which a gate with a ``size`` x ``size`` matrix that passed
    ``_gate_plan``'s check can raise a finite state's sum of squares, its
    kernel's rounding included (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., secs. 3.1 and 3.6, with u = 2**-53).

    A complex sum of at most ``size`` products is within c = (size+2)*4u of
    its terms' moduli summed.  So every entry of the exact U^H U - I is
    within t = UNITARITY_TOL + c of 0, and by Gershgorin ||U||_2^2 <= 1 +
    size*t.  A row's output is off by at most c * sum_k |U_rk||x_k|, so a
    pair block's output norm is at most (1 + c*sqrt(size)) ||U||_2 ||x||,
    and summed over blocks the sum of squares grows by at most
    (1 + size*t)(1 + c*sqrt(size))^2 <= 1 + size*(UNITARITY_TOL + 4c) +
    3c*size^2*t.  The extra size*c below covers that last term, while
    3*size*t < 1, and the few roundings of the bound itself.
    """
    return 1.0 + size * (UNITARITY_TOL + 5 * (size + 2) * 2.0**-51)
