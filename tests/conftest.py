"""Shared helpers: random unitaries, qubits, and dense reference oracles."""

from __future__ import annotations

import cmath
import math

import numpy as np
from hypothesis import strategies as st

# collision amplitudes: zero, real, a unit-modulus complex point, full transfer
UNIT_PHASE = (0.6 + 0.2j) / abs(0.6 + 0.2j)
ETA_GRID = (0.0, 0.3, UNIT_PHASE, 1.0)

# amplitudes on the closed unit disc: signed zeros, a deep underflow, the
# unit circle
UNIT_DISC = st.one_of(
    st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                     1e-170, complex(-0.0, -0.5), complex(0.5, -0.0), 1.0, -1.0, -1j]),
    st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).filter(
        lambda z: abs(z) <= 1.0),
    st.floats(-math.pi, math.pi).map(lambda phi: cmath.rect(1.0, phi)),
)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with phase correction."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_qubit(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_state_vector(total_dim: int, rng: np.random.Generator) -> np.ndarray:
    vec = rng.normal(size=total_dim) + 1j * rng.normal(size=total_dim)
    return vec / np.linalg.norm(vec)


def embedded_gate_matrix(dims, i: int, j: int, gate: np.ndarray) -> np.ndarray:
    """Full-space matrix of a two-site gate, built by explicit index loops.

    Independent reference for apply_two_site_gate: no reshapes or axis
    moves, just the flat-index convention written out.
    """
    import math

    total = math.prod(dims)
    strides = []
    acc = 1
    for d in dims:
        strides.append(acc)
        acc *= d

    def labels_of(flat: int) -> list[int]:
        out = []
        for d in dims:
            out.append(flat % d)
            flat //= d
        return out

    full = np.zeros((total, total), dtype=np.complex128)
    di = dims[i]
    for row in range(total):
        rl = labels_of(row)
        for col in range(total):
            cl = labels_of(col)
            if any(rl[s] != cl[s] for s in range(len(dims)) if s not in (i, j)):
                continue
            full[row, col] = gate[rl[i] + di * rl[j], cl[i] + di * cl[j]]
    return full


# ---------------------------------------------------------------------------
# Acceptance reporting: one visible pass/fail line per criterion.
# ---------------------------------------------------------------------------

def _acceptance_label(nodeid: str) -> tuple[int, str] | None:
    marker = "test_criterion_"
    name = nodeid.rsplit("::", 1)[-1]
    if "test_acceptance" not in nodeid or not name.startswith(marker):
        return None
    number, _, slug = name[len(marker):].partition("_")
    try:
        return int(number), slug.replace("_", " ")
    except ValueError:
        return None


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, tuple[str, str]] = {}
    for status, verdict in (("passed", "PASS"), ("failed", "FAIL"),
                            ("error", "FAIL"), ("skipped", "SKIP")):
        for report in terminalreporter.stats.get(status, []):
            label = _acceptance_label(report.nodeid)
            if label is None:
                continue
            number, slug = label
            if verdict == "FAIL" or number not in outcomes:
                outcomes[number] = (slug, verdict)
    if not outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(outcomes):
        slug, verdict = outcomes[number]
        dots = "." * max(1, 52 - len(slug))
        terminalreporter.write_line(f"criterion {number} {slug} {dots} {verdict}")
