"""Acceptance gate: nine pinned criteria, one test per criterion.

Each test freezes the tolerance it must meet; the terminal summary hook in
conftest.py prints one pass/fail line per criterion at the end of the run.
"""

import math
import time

import numpy as np
import pytest

from sectorsim.avalanche import (
    AvalancheParams,
    block_ground_overlap,
    dense_avalanche,
    dense_no_avalanche_overlap,
    overlap_no_avalanche,
    scattering_matrix,
    structured_amplitude,
    structured_avalanche,
)
from sectorsim.cli import main as cli_main
from sectorsim.measurement import (
    MeasurementSetup,
    PhotonPolarisation,
    evolve,
    qnd_outcome,
    qnd_sample,
    sector_parameter_expectation,
)
from sectorsim.sector import (
    ElementaryFamily,
    ProductState,
    commutator_norm,
    dense_action,
    dense_product_state,
    dense_sector_operator,
    sector_apply,
    sector_expectation,
)

from conftest import random_qubit, traced_peak

UNIT_ETA = (0.6 + 0.64j) / abs(0.6 + 0.64j)
ETA_GRID = (0.0, 0.3, 0.6, UNIT_ETA)
DELTA_GRID = (0.0, 0.5, 1.0)
H_GRID = (0.0, math.sqrt(0.5), 1.0)
MEAS_ETA_GRID = (0.0, 0.6, 1.0)


def polarisation_from_h(h: float) -> PhotonPolarisation:
    return PhotonPolarisation(h, math.sqrt(max(0.0, 1.0 - h * h)))


def test_criterion_1_engine_equivalence():
    """Structured overlaps equal dense inner products to 1e-12 (A<=12, n<=3)."""
    start = time.perf_counter()
    for n_dopants in range(1, 13):
        for n in range(4):
            if (1 << n) > n_dopants:
                continue
            for eta in ETA_GRID:
                params = AvalancheParams(n_dopants, eta, n)
                assert abs(overlap_no_avalanche(params, n)
                           - dense_no_avalanche_overlap(params, n)) <= 1e-12
                zeros = np.zeros(n_dopants, dtype=np.uint8)
                assert abs(structured_amplitude(structured_avalanche(params, n), zeros)
                           - dense_avalanche(params, n).amps[0]) <= 1e-12
    # full amplitude cross-check at the largest register
    params = AvalancheParams(12, 0.6, 3)
    structured = structured_avalanche(params, 3)
    state = dense_avalanche(params, 3)
    for flat in range(1 << 12):
        bits = tuple((flat >> s) & 1 for s in range(12))
        assert abs(structured_amplitude(structured, bits)
                   - state.amps[flat]) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"engine-equivalence suite took {elapsed:.1f}s"


def test_criterion_2_orthogonalisation_decay():
    """Block-recursion overlap decays as (1-|eta|^2)^(n/2) to 1e-12, n<=30.

    The amplitude exponent is n/2 (one survival factor per generation), not
    (n-1)/2: at n=1, eta=0.6 the overlap is 0.8, not 1 — pinned here and
    confirmed against the dense oracle for n<=3.
    """
    for eta in (0.3, 0.6, UNIT_ETA):
        survival_sq = 1.0 - abs(eta) ** 2
        for n in range(31):
            params = AvalancheParams(1 << max(n, 0) if n else 1, eta, n)
            recursion = 1.0 + 0.0j
            for level in range(1, n + 1):
                recursion *= block_ground_overlap(level, eta)
            closed_form = survival_sq ** (n / 2.0)
            assert abs(recursion - closed_form) <= 1e-12
            assert abs(overlap_no_avalanche(params, n) - closed_form) <= 1e-12
    # exponent question: n = 1 must already decay by one survival factor
    one_gen = AvalancheParams(2, 0.6, 1)
    assert abs(overlap_no_avalanche(one_gen, 1) - 0.8) <= 1e-12
    assert abs(dense_no_avalanche_overlap(one_gen, 1) - 0.8) <= 1e-12
    # dense confirmation of the full curve at desk scale
    for eta in (0.3, 0.6):
        params = AvalancheParams(8, eta, 3)
        for n in range(4):
            assert abs(dense_no_avalanche_overlap(params, n)
                       - (1.0 - abs(eta) ** 2) ** (n / 2.0)) <= 1e-12


def test_criterion_3_sector_algebra():
    """Exact action, dense operator, and the expectation law agree to 1e-12
    for every register size N <= 8 and modification count M <= N."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260815)
    for n_sites in range(1, 9):
        family = ElementaryFamily(tuple(random_qubit(rng) for _ in range(n_sites)))
        op = dense_sector_operator(family)
        defining = dense_product_state(family.phi)
        # eigenvalue-1: the defining product state is fixed
        assert np.max(np.abs(op @ defining - defining)) <= 1e-12
        assert abs(sector_expectation(
            family, ProductState(family.phi)) - 1.0) <= 1e-12
        for m_modified in range(n_sites + 1):
            vecs = list(family.phi)
            for site in range(m_modified):
                vecs[site] = random_qubit(rng)
            state = ProductState(tuple(vecs))
            vec = dense_product_state(state.psi)
            # exact action vs dense operator
            action = sector_apply(family, state)
            applied = (dense_action(action) if action
                       else np.zeros_like(vec))
            assert np.max(np.abs(applied - op @ vec)) <= 1e-12
            # expectation law vs dense sandwich
            sandwich = np.vdot(vec, op @ vec).real
            assert abs(sector_expectation(family, state) - sandwich) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"sector-algebra suite took {elapsed:.1f}s"


def test_criterion_4_commutator_decay():
    """Dense commutator norm scales as 1/N (N * norm constant to 1e-10) for
    three family pairs; the analytic path matches dense to 1e-10."""
    rng = np.random.default_rng(7)
    ket0 = np.array([1.0, 0.0], dtype=np.complex128)
    plus = np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)
    tilted = np.array([math.sqrt(0.7), math.sqrt(0.3)], dtype=np.complex128)
    pairs = [(ket0, plus), (ket0, tilted),
             (random_qubit(rng), random_qubit(rng))]
    for site_a, site_b in pairs:
        scaled = []
        for n_sites in (2, 3, 4, 5):
            family_a = ElementaryFamily(tuple(site_a for _ in range(n_sites)))
            family_b = ElementaryFamily(tuple(site_b for _ in range(n_sites)))
            dense = commutator_norm(family_a, family_b, method="dense")
            analytic = commutator_norm(family_a, family_b, method="analytic")
            assert abs(analytic - dense) <= 1e-10
            scaled.append(n_sites * dense)
        for value in scaled[1:]:
            assert abs(value - scaled[0]) <= 1e-10


def test_criterion_5_measurement_convergence():
    """Direct dense sandwich equals the closed-form expectation to 1e-10 on
    the 27-point (delta, h, eta) grid with A_H = A_V <= 8, n <= 2, under the
    ground reference (where the identity is exact); every record's limit
    equals |delta|^2 (|h|^2 - |v|^2) to 1e-12 under both references."""
    for a_reg in (4, 6, 8):
        for delta in DELTA_GRID:
            for h in H_GRID:
                for eta in MEAS_ETA_GRID:
                    pol = polarisation_from_h(h)
                    setup = MeasurementSetup(pol=pol, delta=delta, eta=eta,
                                             n_dopants_h=a_reg,
                                             n_dopants_v=a_reg, n_max=2)
                    expected_limit = delta ** 2 * (abs(pol.h) ** 2
                                                   - abs(pol.v) ** 2)
                    for n in range(3):
                        rec = sector_parameter_expectation(
                            setup, n, reference="ground", compute_direct=True)
                        assert abs(rec.expectation_direct
                                   - rec.expectation_formula) <= 1e-10
                        assert abs(rec.limit - expected_limit) <= 1e-12
                        alt = sector_parameter_expectation(
                            setup, n, reference="no_avalanche",
                            compute_direct=False)
                        assert abs(alt.limit - expected_limit) <= 1e-12


def test_criterion_6_unitarity():
    """Norm 1 to 1e-10 along every dense evolution; the completed collision
    gate is unitary to 1e-12 for 20 eta values on the unit disk."""
    for n_dopants in (4, 8):
        for eta in ETA_GRID:
            params = AvalancheParams(n_dopants, eta, 2)
            for n in range(3):
                assert abs(dense_avalanche(params, n).norm() - 1.0) <= 1e-10
    for delta in DELTA_GRID:
        for h in H_GRID:
            for eta in MEAS_ETA_GRID:
                setup = MeasurementSetup(pol=polarisation_from_h(h),
                                         delta=delta, eta=eta,
                                         n_dopants_h=4, n_dopants_v=4,
                                         n_max=2)
                for n in range(3):
                    assert abs(evolve(setup, n).norm() - 1.0) <= 1e-10
    identity = np.eye(4)
    for k in range(10):
        boundary = np.exp(2j * math.pi * k / 10.0)
        interior = (k / 10.0) * np.exp(1j * (0.7 * k + 0.3))
        for eta in (boundary, interior):
            gate = scattering_matrix(eta)
            deviation = np.linalg.norm(gate.conj().T @ gate - identity, 2)
            assert deviation <= 1e-12


def test_criterion_7_qnd_statistics():
    """Outcome law is exactly (|h|^2, |v|^2); 1e5 seeded shots fall within
    3 sigma of the binomial; post-measurement states are exact basis states."""
    pol = PhotonPolarisation(math.sqrt(0.7), math.sqrt(0.3))
    outcome = qnd_outcome(pol)
    assert abs(outcome.probabilities["H"] - 0.7) <= 1e-15
    assert abs(outcome.probabilities["V"] - 0.3) <= 1e-15
    post_h = outcome.post_states["H"].amps
    post_v = outcome.post_states["V"].amps
    assert post_h[0] == 1.0 and np.count_nonzero(post_h) == 1
    assert post_v[1] == 1.0 and np.count_nonzero(post_v) == 1
    shots = 100000
    counts = qnd_sample(pol, shots=shots, seed=20260815)
    assert counts["H"] + counts["V"] == shots
    sigma = math.sqrt(shots * 0.7 * 0.3)
    assert abs(counts["H"] - shots * 0.7) <= 3.0 * sigma


def test_criterion_8_large_depth_performance():
    """Structured overlap and the pointer formula at n = 30 (2^30 cascade
    electrons) complete in under a second with O(n) memory."""
    depth = 30
    params = AvalancheParams(1 << depth, 0.6, depth)
    setup = MeasurementSetup(pol=polarisation_from_h(math.sqrt(0.7)),
                             delta=0.5, eta=0.6,
                             n_dopants_h=1 << depth, n_dopants_v=1 << depth,
                             n_max=depth)
    with traced_peak() as traced:
        start = time.perf_counter()
        overlap = overlap_no_avalanche(params, depth)
        rec_ground = sector_parameter_expectation(setup, depth,
                                                  reference="ground",
                                                  compute_direct=False)
        rec_alt = sector_parameter_expectation(setup, depth,
                                               reference="no_avalanche",
                                               compute_direct=False)
        elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"depth-30 evaluation took {elapsed:.3f}s"
    assert traced.peak < 8 * 1024 * 1024, f"depth-30 evaluation peaked at {traced.peak} bytes"
    assert abs(overlap - 0.8 ** depth) <= 1e-12
    assert abs(rec_ground.expectation_formula - 0.25 * 0.4) <= 1e-12
    assert abs(rec_alt.expectation_formula
               - 0.25 * 0.4 * (1.0 - 0.64 ** (2 * depth))) <= 1e-12
    assert rec_ground.m_electrons == 1 << depth


def test_criterion_9_cli_determinism(tmp_path, capsys):
    """Each shipped config reruns byte-for-byte identically and exits 0;
    'both' mode exits 0 on the default grid of every dual-engine kind."""
    import pathlib

    config_dir = pathlib.Path(__file__).resolve().parent.parent / "configs"
    shipped = sorted(config_dir.glob("*.cfg"))
    assert len(shipped) == 6, f"expected 6 shipped configs, found {shipped}"
    for cfg_path in shipped:
        kind = cfg_path.stem.replace("_", "-")
        outputs = []
        for attempt in (1, 2):
            for fmt in ("csv", "json"):
                out_file = tmp_path / f"{cfg_path.stem}.{attempt}.{fmt}"
                code = cli_main([kind, "--config", str(cfg_path),
                                 "--format", fmt, "--out", str(out_file)])
                capsys.readouterr()
                assert code == 0, f"{kind} exited {code}"
                outputs.append(out_file.read_bytes())
        first_csv, first_json, second_csv, second_json = outputs
        assert first_csv == second_csv
        assert first_json == second_json
    for kind in ("avalanche-sweep", "measurement-sweep", "sector-commutator"):
        code = cli_main([kind, "--set", "engine=both"])
        capsys.readouterr()
        assert code == 0, f"{kind} both-mode default grid exited {code}"
