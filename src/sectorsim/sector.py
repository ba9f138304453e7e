"""Sector parameter: the site-averaged projector onto an elementary family.

For a family of N normalized single-site states phi_alpha the sector
parameter is X = (1/N) sum_alpha |phi_alpha><phi_alpha| (x) identity.
Acting on a product state psi_1 (x) ... (x) psi_N it gives exactly

    X |Psi> = (1 - M/N) |Psi>
              + (1/N) sum_{alpha modified} <phi_a|psi_a> |Psi with site a -> phi_a>

where M counts the sites at which psi differs from phi.  The defining
product state is therefore an eigenvector with eigenvalue 1, and

    <Psi| X |Psi> = 1 + (1/N) sum_{alpha modified} (|<phi_a|psi_a>|^2 - 1).

Two sector parameters built on families phi, phi' satisfy an exact 1/N
commutator law: the site-alpha terms commute across sites, so
||[X, X']|| = (1/N^2) sum_alpha ||[P_alpha, P'_alpha]||, which for
site-repeated families is max_alpha ||[P_alpha, P'_alpha]|| / N.

The dense route checks that law without building an operator: it applies
X to a flat vector by one contraction per site (``_apply_sector``) and
finds the norm of the Hermitian i[X, X'] by Lanczos iteration on those
products.  ``dense_sector_operator`` assembles X as a matrix, the
small-N reference the tests hold the contraction to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import check_guard, kron_sites

__all__ = [
    "ElementaryFamily",
    "ProductState",
    "commutator_norm",
    "dense_action",
    "dense_product_state",
    "dense_sector_operator",
    "modified_sites",
    "sector_apply",
    "sector_expectation",
]

STATE_NORM_TOL = 1e-12
MODIFIED_SITE_TOL = 1e-12
_COEF_DROP_TOL = 1e-14
# Lanczos on i[X_a, X_b]: the step cap; then, as fractions of the operator's
# scale (the largest ||A q_j|| seen), the residual norm that means the Krylov
# space is invariant, the largest residual a returned Ritz pair may have and
# the largest departure from a Hermitian operator's Gram-Schmidt
# coefficients; and the seed of the start vector
_LANCZOS_STEPS = 60
_BREAKDOWN_TOL = 1e-13
_RITZ_RESIDUAL_TOL = 1e-10
_HERMITIAN_TOL = 1e-10
_LANCZOS_SEED = 20241216


@np.errstate(over="ignore")  # a norm past the largest double reads inf, and is refused
def _checked_site_vectors(vectors, what: str) -> tuple[np.ndarray, ...]:
    out = []
    for idx, vec in enumerate(vectors):
        arr = np.ascontiguousarray(vec, dtype=np.complex128)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError(f"{what}[{idx}] must be a vector of dimension >= 2")
        drift = abs(np.linalg.norm(arr) - 1.0)
        if not drift <= STATE_NORM_TOL:
            raise ValueError(f"{what}[{idx}] must be normalized, |norm - 1| = {drift:.3e}")
        out.append(arr)
    if not out:
        raise ValueError(f"{what} needs at least one site")
    return tuple(out)


@dataclass(frozen=True)
class ElementaryFamily:
    """One normalized reference state per site."""

    phi: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "phi", _checked_site_vectors(self.phi, "phi"))

    @property
    def n_sites(self) -> int:
        return len(self.phi)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(v.size for v in self.phi)


@dataclass(frozen=True)
class ProductState:
    """Unentangled state stored as one normalized vector per site."""

    psi: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "psi", _checked_site_vectors(self.psi, "psi"))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(v.size for v in self.psi)


def modified_sites(family: ElementaryFamily, state: ProductState) -> tuple[int, ...]:
    """Indices where the state's site vector differs from the family's."""
    if family.dims != state.dims:
        raise ValueError(
            f"family sites {family.dims} do not match state sites {state.dims}"
        )
    return tuple(
        alpha
        for alpha, (phi, psi) in enumerate(zip(family.phi, state.psi))
        if np.max(np.abs(phi - psi)) > MODIFIED_SITE_TOL
    )


def sector_expectation(family: ElementaryFamily, state: ProductState) -> float:
    """<Psi| X |Psi> = 1 + (1/N) sum over modified sites of (|<phi|psi>|^2 - 1)."""
    n = family.n_sites
    total = 1.0
    for alpha in modified_sites(family, state):
        overlap = np.vdot(family.phi[alpha], state.psi[alpha])
        total += (abs(overlap) ** 2 - 1.0) / n
    return float(total)


def sector_apply(family: ElementaryFamily,
                 state: ProductState) -> tuple[tuple[complex, ProductState], ...]:
    """Exact action of the sector parameter on a product state.

    Returns (coefficient, product state) pairs: the passthrough term
    (1 - M/N) |Psi> followed by one single-site replacement term per
    modified site; terms whose coefficient vanishes are dropped.
    """
    n = family.n_sites
    modified = modified_sites(family, state)
    terms: list[tuple[complex, ProductState]] = []
    passthrough = 1.0 - len(modified) / n
    if abs(passthrough) > _COEF_DROP_TOL:
        terms.append((complex(passthrough), state))
    for alpha in modified:
        coef = np.vdot(family.phi[alpha], state.psi[alpha]) / n
        if abs(coef) <= _COEF_DROP_TOL:
            continue
        replaced = list(state.psi)
        replaced[alpha] = family.phi[alpha]
        terms.append((complex(coef), ProductState(tuple(replaced))))
    return tuple(terms)


def dense_product_state(vectors) -> np.ndarray:
    """Flat amplitude vector of a product state, site 0 fastest-varying."""
    vecs = [np.ascontiguousarray(v, dtype=np.complex128) for v in vectors]
    if not vecs or any(v.ndim != 1 or v.size == 0 for v in vecs):
        raise ValueError("a product state needs one vector per site, none empty, "
                         "and at least one site")
    return kron_sites(vecs, f"product state over {len(vecs)} sites")


def dense_action(terms: tuple[tuple[complex, ProductState], ...]) -> np.ndarray:
    """Densify a sector action, the (coefficient, product state) pairs of
    :func:`sector_apply`, by expanding and summing its terms."""
    if not terms:
        raise ValueError("cannot densify an empty action without site dimensions")
    total = 0
    for coef, state in terms:
        total += coef * dense_product_state(state.psi)
    return total


def dense_sector_operator(family: ElementaryFamily) -> np.ndarray:
    """Assemble (1/N) sum_alpha |phi_a><phi_a| (x) identity as a dense matrix."""
    eyes = [np.eye(d, dtype=np.complex128) for d in family.dims]
    what = f"dense operator over {family.n_sites} sites"
    total = 0
    for alpha, phi in enumerate(family.phi):
        total += kron_sites(eyes[:alpha] + [np.outer(phi, phi.conj())] + eyes[alpha + 1:], what)
    return total / family.n_sites


def _apply_sector(family: ElementaryFamily, vec: np.ndarray) -> np.ndarray:
    """X @ vec for a flat vector over the family's sites, site 0 fastest.

    Each site alpha contracts <phi_alpha| with its own axis of a
    (above, d_alpha, below) view of ``vec`` and adds phi_alpha times that
    overlap back in; no operator is built.
    """
    out = np.zeros_like(vec)
    below = 1
    for phi in family.phi:
        shape = (vec.size // (below * phi.size), phi.size, below)
        overlap = phi.conj() @ vec.reshape(shape)
        view = out.reshape(shape)
        view += phi[:, None] * overlap[:, None, :]
        below *= phi.size
    out /= family.n_sites
    return out


def _lanczos_commutator_norm(family_a: ElementaryFamily, family_b: ElementaryFamily) -> float:
    """Largest |eigenvalue| of the Hermitian i(X_a X_b - X_b X_a), by Lanczos
    with full reorthogonalisation from a seeded start vector.

    Stops when the Krylov space is invariant or after ``_LANCZOS_STEPS``
    steps, and returns NaN unless the tridiagonal matrix is finite, the top
    Ritz pair's residual is at most ``_RITZ_RESIDUAL_TOL`` and the computed
    products kept the coefficients of a Hermitian operator (<q_j|A q_j> real,
    <q_{j-1}|A q_j> = beta_{j-1}, no component on older vectors) to within
    ``_HERMITIAN_TOL``, each relative to the largest ||A q_j||.  A norm
    below the products' rounding, which breaks that symmetry, so reads NaN,
    not a norm of the rounding.
    """
    dims = family_a.dims
    check_guard((_LANCZOS_STEPS + 1,) + dims,
                f"a Krylov basis of {_LANCZOS_STEPS + 1} vectors over {len(dims)} sites "
                "needs too many amplitudes")
    dim = math.prod(dims)
    rng = np.random.default_rng(_LANCZOS_SEED)
    start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    basis = np.empty((_LANCZOS_STEPS + 1, dim), dtype=np.complex128)
    basis[0] = start / np.linalg.norm(start)
    alphas: list[float] = []
    betas: list[float] = []
    scale = 0.0  # the largest ||A q_j||, a lower bound on ||A||
    skew = 0.0  # the largest departure from a Hermitian operator's coefficients
    for j in range(_LANCZOS_STEPS):
        q = basis[j]
        w = 1j * (_apply_sector(family_a, _apply_sector(family_b, q))
                  - _apply_sector(family_b, _apply_sector(family_a, q)))
        scale = max(scale, float(np.linalg.norm(w)))
        known = basis[:j + 1]
        coefs = np.zeros(j + 1, dtype=np.complex128)
        for _ in range(2):  # classical Gram-Schmidt, twice
            coef = (known @ w.conj()).conj()  # <q_i|w>, without conjugating the basis
            w -= coef @ known
            coefs += coef
        alphas.append(coefs[j].real)
        # a Hermitian A makes <q_j|A q_j> real, <q_{j-1}|A q_j> = beta_{j-1}
        # and every older coefficient 0: keep the departures from that
        coefs[j] -= coefs[j].real
        if j:
            coefs[j - 1] -= betas[j - 1]
        skew = max(skew, float(np.max(np.abs(coefs))))
        beta = float(np.linalg.norm(w))
        if not beta > _BREAKDOWN_TOL * scale:
            break
        betas.append(beta)
        basis[j + 1] = w / beta
    m = len(alphas)
    tridiagonal = np.diag(alphas) + np.diag(betas[:m - 1], 1) + np.diag(betas[:m - 1], -1)
    if not (np.all(np.isfinite(tridiagonal)) and math.isfinite(beta)
            and skew <= _HERMITIAN_TOL * scale):
        return math.nan
    ritz, vectors = np.linalg.eigh(tridiagonal)
    top = int(np.argmax(np.abs(ritz)))
    if not abs(beta * vectors[-1, top]) <= _RITZ_RESIDUAL_TOL * scale:
        return math.nan
    return float(abs(ritz[top]))


def commutator_norm(family_a: ElementaryFamily, family_b: ElementaryFamily,
                    method: str = "analytic") -> float:
    """Operator norm of [X_a, X_b] for two sector parameters.

    ``analytic`` sums the per-site commutator norms and divides by N^2;
    it is exact for any families and costs O(N d^3).  ``dense`` uses only
    the operators' definition: Lanczos on i[X_a, X_b], each step applying
    both sector parameters twice by per-site contraction, with a Krylov
    basis of ``_LANCZOS_STEPS + 1`` flat vectors checked against the
    dimension guard before it is allocated.  It returns NaN when Lanczos
    does not converge, or when the norm lies below the rounding of the
    sector products (against |0>, a family with |h| <= 1e-8 at each N
    in 2..6, and |1> from N = 5 on), so a comparison with the analytic
    route fails closed.  Uniform families converge within N + 1 steps; random
    families with distinct sites may not: the README's table counts the NaN
    norms of 25 random qubit pairs per N = 8..12 (seed 7).
    """
    if family_a.dims != family_b.dims:
        raise ValueError(
            f"families act on different sites: {family_a.dims} vs {family_b.dims}"
        )
    if method == "analytic":
        n = family_a.n_sites
        total = 0.0
        for phi, chi in zip(family_a.phi, family_b.phi):
            p = np.outer(phi, phi.conj())
            q = np.outer(chi, chi.conj())
            total += float(np.linalg.norm(p @ q - q @ p, 2))
        return total / (n * n)
    if method == "dense":
        return _lanczos_commutator_norm(family_a, family_b)
    raise ValueError(f"method must be 'analytic' or 'dense', got {method!r}")
