"""Polarisation measurement: excitation, cascade, pointer statistics, QND."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import UNIT_DISC, UNIT_PHASE, embedded_gate_matrix, random_state_vector
from sectorsim.avalanche import AvalancheParams, dense_avalanche
from sectorsim.hilbert import (
    DenseState,
    DimensionLimitError,
    basis_state,
    flat_index,
    inner_product,
    tensor_product,
)
from sectorsim.measurement import (
    PHOTON_H,
    PHOTON_V,
    PHOTON_VAC,
    REFERENCES,
    MeasurementRecord,
    MeasurementSetup,
    PhotonPolarisation,
    _pointer_expectation,
    density_terms,
    evolve,
    initial_state,
    photoexcite,
    physical_scales,
    qnd_outcome,
    qnd_premeasure,
    qnd_sample,
    sector_parameter_expectation,
    sector_parameter_sweep,
)
from sectorsim.sector import ElementaryFamily, ProductState

H_ONLY = PhotonPolarisation(1.0, 0.0)
BALANCED = PhotonPolarisation(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
TILTED = PhotonPolarisation(math.sqrt(0.7), math.sqrt(0.3))


def small_setup(pol=TILTED, delta=0.5, eta=0.6, a_h=4, a_v=4, n_max=2):
    return MeasurementSetup(pol=pol, delta=delta, eta=eta,
                            n_dopants_h=a_h, n_dopants_v=a_v, n_max=n_max)


@st.composite
def unequal_registers(draw):
    """(A_H, A_V, n): unequal register sizes and a depth >= 1 both hold."""
    a_h = draw(st.integers(2, 5))
    a_v = draw(st.integers(2, 5).filter(lambda a: a != a_h))
    return a_h, a_v, draw(st.integers(1, min(a_h, a_v).bit_length() - 1))


def branch_weights(setup, state):
    """(no-click, H-seeded, V-seeded) probability weights by photon label."""
    arr = np.abs(state.amps.reshape(state.dims, order="F")) ** 2
    no_click = arr[PHOTON_H].sum() + arr[PHOTON_V].sum()
    vac = arr[PHOTON_VAC]
    h_axis, v_axis = 0, setup.n_dopants_h  # within the vacuum slice
    h_seeded = np.take(vac, 1, axis=h_axis).sum()
    v_seeded = np.take(np.take(vac, 0, axis=h_axis), 1, axis=v_axis - 1).sum()
    return float(no_click), float(h_seeded), float(v_seeded)


def slice_photoexcite(setup, state):
    """Reference absorption by slicing the Fortran-order joint array: the
    H and V rules applied to the photon-vacuum sector as it stands, which
    agrees with the absorption gates on every state the measurement reaches
    (vacuum amplitude 0)."""
    delta = setup.delta
    keep = math.sqrt(max(0.0, 1.0 - abs(delta) ** 2))
    n_axes = len(state.dims)

    def pick(photon_label, axis, bit):
        index = [slice(None)] * n_axes
        index[0] = photon_label
        index[axis] = bit
        return tuple(index)

    arr = state.amps.reshape(state.dims, order="F")
    out = arr.copy()
    for photon, axis in ((PHOTON_H, 1), (PHOTON_V, 1 + setup.n_dopants_h)):
        src = arr[pick(photon, axis, 0)].copy()
        out[pick(photon, axis, 0)] = keep * src
        out[pick(PHOTON_VAC, axis, 1)] += delta * src
    return DenseState(state.dims, out.reshape(-1, order="F"))


def absorption_matrix(photon, delta):
    """6x6 absorption unitary on (photon, seed), photon fastest, written out."""
    keep = math.sqrt(max(0.0, 1.0 - abs(delta) ** 2))
    src, dst = photon, PHOTON_VAC + 3  # |photon, ground>, |vacuum, excited>
    mat = np.eye(6, dtype=np.complex128)
    mat[src, src] = keep
    mat[dst, dst] = keep
    mat[dst, src] = delta
    mat[src, dst] = -np.conj(delta)
    return mat


class TestValidation:
    def test_polarisation_norm_enforced(self):
        with pytest.raises(ValueError):
            PhotonPolarisation(1.0, 0.1)

    def test_delta_bound_enforced(self):
        with pytest.raises(ValueError):
            small_setup(delta=1.001)

    def test_depth_needs_dopants(self):
        with pytest.raises(ValueError):
            small_setup(a_h=4, a_v=4, n_max=3)


class TestInitialState:
    def test_photon_times_ground_registers(self):
        setup = small_setup(pol=TILTED)
        state = initial_state(setup)
        assert state.dims == (3,) + (2,) * 8
        idx_h = flat_index(state.dims, (PHOTON_H,) + (0,) * 8)
        idx_v = flat_index(state.dims, (PHOTON_V,) + (0,) * 8)
        assert abs(state.amps[idx_h] - TILTED.h) <= 1e-15
        assert abs(state.amps[idx_v] - TILTED.v) <= 1e-15
        assert np.count_nonzero(state.amps) == 2


class TestPhotoexcite:
    def test_delta_zero_is_identity(self):
        setup = small_setup(delta=0.0)
        state = initial_state(setup)
        out = photoexcite(setup, state)
        assert np.max(np.abs(out.amps - state.amps)) == 0.0

    def test_full_absorption_pure_h(self):
        setup = small_setup(pol=H_ONLY, delta=1.0)
        out = photoexcite(setup, initial_state(setup))
        labels = (PHOTON_VAC, 1) + (0,) * 7
        assert abs(out.amps[flat_index(out.dims, labels)] - 1.0) <= 1e-15
        assert np.count_nonzero(np.abs(out.amps) > 1e-15) == 1

    def test_three_branch_weights(self):
        setup = small_setup(pol=BALANCED, delta=0.5)
        out = photoexcite(setup, initial_state(setup))
        no_click, h_seeded, v_seeded = branch_weights(setup, out)
        assert abs(no_click - 0.75) <= 1e-12
        assert abs(h_seeded - 0.125) <= 1e-12
        assert abs(v_seeded - 0.125) <= 1e-12

    def test_norm_preserved(self):
        for delta in (0.0, 0.3, 0.9, 1.0):
            setup = small_setup(delta=delta)
            out = photoexcite(setup, initial_state(setup))
            assert abs(out.norm() - 1.0) <= 1e-12

    def test_shape_mismatch_rejected(self):
        setup = small_setup()
        with pytest.raises(ValueError):
            photoexcite(setup, basis_state((3, 2, 2), (0, 0, 0)))


class TestAbsorptionGate:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(a_h=st.integers(1, 3), a_v=st.integers(1, 3), delta=UNIT_DISC,
           seed=st.integers(0, 2 ** 31))
    @example(a_h=1, a_v=1, delta=1.0, seed=0)
    @example(a_h=3, a_v=2, delta=1e-170, seed=1)
    def test_unitary_on_every_joint_state(self, a_h, a_v, delta, seed):
        setup = small_setup(delta=delta, a_h=a_h, a_v=a_v, n_max=0)
        rng = np.random.default_rng(seed)
        dims = setup.dims
        state = DenseState(dims, random_state_vector(math.prod(dims), rng))
        before = state.amps.copy()
        full = (embedded_gate_matrix(dims, 0, 1 + a_h, absorption_matrix(PHOTON_V, setup.delta))
                @ embedded_gate_matrix(dims, 0, 1, absorption_matrix(PHOTON_H, setup.delta)))
        out = photoexcite(setup, state)
        assert np.max(np.abs(out.amps - full @ state.amps)) <= 1e-12
        assert abs(out.norm() - 1.0) <= 1e-12
        assert np.array_equal(state.amps.view(np.uint64), before.view(np.uint64))

    @pytest.mark.parametrize("pol", [TILTED, BALANCED, H_ONLY, PhotonPolarisation(0.0, -1.0),
                                     PhotonPolarisation(-0.6, 0.8)])
    @pytest.mark.parametrize("delta", [0.0, 1e-170, 0.5, -0.3, 1.0])
    @pytest.mark.parametrize("a_h,a_v", [(4, 4), (1, 3), (3, 1)])
    def test_real_amplitudes_equal_slice_reference(self, pol, delta, a_h, a_v):
        setup = small_setup(pol=pol, delta=delta, a_h=a_h, a_v=a_v, n_max=0)
        state = initial_state(setup)
        got = photoexcite(setup, state).amps
        want = slice_photoexcite(setup, state).amps
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("pol", [TILTED, PhotonPolarisation(0.48 + 0.64j, 0.6),
                                     PhotonPolarisation(0.6j, -0.8j)])
    @pytest.mark.parametrize("delta", [UNIT_PHASE, 0.3 + 0.4j, -0.6 + 0.8j, 1j])
    @pytest.mark.parametrize("a_h,a_v", [(4, 4), (2, 1)])
    def test_complex_amplitudes_near_slice_reference(self, pol, delta, a_h, a_v):
        setup = small_setup(pol=pol, delta=delta, a_h=a_h, a_v=a_v, n_max=0)
        state = initial_state(setup)
        got = photoexcite(setup, state).amps
        want = slice_photoexcite(setup, state).amps
        assert np.max(np.abs(got - want)) <= 1e-15


class TestEvolve:
    def test_generation_zero_equals_photoexcite(self):
        setup = small_setup()
        expected = photoexcite(setup, initial_state(setup))
        out = evolve(setup, 0)
        assert np.max(np.abs(out.amps - expected.amps)) == 0.0

    def test_pure_h_click_runs_cascade_in_h_register(self):
        setup = small_setup(pol=H_ONLY, delta=1.0)
        out = evolve(setup, 2)
        photon = basis_state((3,), (PHOTON_VAC,))
        cascade = dense_avalanche(AvalancheParams(4, 0.6, 2), 2)
        ground_v = basis_state((2,) * 4, (0,) * 4)
        expected = tensor_product(tensor_product(photon, cascade), ground_v)
        assert np.max(np.abs(out.amps - expected.amps)) <= 1e-12

    def test_eta_zero_freezes_after_excitation(self):
        setup = small_setup(eta=0.0)
        frozen = photoexcite(setup, initial_state(setup))
        for n in range(3):
            out = evolve(setup, n)
            assert np.max(np.abs(out.amps - frozen.amps)) == 0.0

    def test_norm_one_along_evolution(self):
        setup = small_setup(pol=BALANCED, delta=0.7, eta=0.8)
        for n in range(3):
            assert abs(evolve(setup, n).norm() - 1.0) <= 1e-10

    def test_depth_beyond_n_max_rejected(self):
        with pytest.raises(ValueError):
            evolve(small_setup(), 3)


class TestPointerExpectation:
    def test_pure_h_full_absorption_reads_plus_one(self):
        setup = small_setup(pol=H_ONLY, delta=1.0)
        for n in range(3):
            rec = sector_parameter_expectation(setup, n, compute_direct=True)
            assert abs(rec.expectation_direct - 1.0) <= 1e-10
            assert abs(rec.expectation_formula - 1.0) <= 1e-12

    def test_balanced_photon_reads_zero(self):
        setup = small_setup(pol=BALANCED, delta=0.8)
        rec = sector_parameter_expectation(setup, 2, compute_direct=True)
        assert abs(rec.expectation_direct) <= 1e-12
        assert abs(rec.expectation_formula) <= 1e-12

    def test_tilted_photon_frozen_value(self):
        setup = small_setup(pol=TILTED, delta=0.5)
        rec = sector_parameter_expectation(setup, 2, compute_direct=True)
        # |delta|^2 (|h|^2 - |v|^2) = 0.25 * 0.4
        assert abs(rec.expectation_formula - 0.1) <= 1e-12
        assert abs(rec.expectation_direct - 0.1) <= 1e-10

    def test_direct_equals_formula_on_dense_grid(self):
        for a_reg in (4, 8):
            for delta in (0.0, 0.5, 1.0):
                for h_sq in (0.0, 0.5, 1.0):
                    for eta in (0.0, 0.6, 1.0):
                        pol = PhotonPolarisation(math.sqrt(h_sq), math.sqrt(1 - h_sq))
                        setup = small_setup(pol=pol, delta=delta, eta=eta,
                                            a_h=a_reg, a_v=a_reg)
                        for n in range(3):
                            rec = sector_parameter_expectation(
                                setup, n, compute_direct=True)
                            assert abs(rec.expectation_direct
                                       - rec.expectation_formula) <= 1e-10

    def test_ground_reference_constant_in_n_and_eta(self):
        values = []
        for eta in (0.2, 0.6, 0.95):
            setup = small_setup(pol=TILTED, delta=0.5, eta=eta)
            for n in range(3):
                rec = sector_parameter_expectation(setup, n, compute_direct=True)
                values.append((rec.expectation_direct, rec.expectation_formula))
        first = values[0]
        for direct, formula in values:
            assert abs(direct - first[0]) <= 1e-10
            assert abs(formula - first[1]) <= 1e-12

    def test_no_avalanche_reference_convergence_factor(self):
        setup = small_setup(pol=TILTED, delta=0.5, eta=0.6, a_h=8, a_v=8, n_max=3)
        for n in range(4):
            rec = sector_parameter_expectation(setup, n, reference="no_avalanche",
                                               compute_direct=False)
            factor = 1.0 - (1.0 - 0.36) ** (2 * n)
            assert abs(rec.expectation_formula - 0.1 * factor) <= 1e-12
            assert rec.expectation_direct is None

    def test_no_avalanche_approaches_limit(self):
        params_depth = 40
        setup = MeasurementSetup(pol=TILTED, delta=0.5, eta=0.6,
                                 n_dopants_h=1 << params_depth,
                                 n_dopants_v=1 << params_depth,
                                 n_max=params_depth)
        rec = sector_parameter_expectation(setup, params_depth,
                                           reference="no_avalanche",
                                           compute_direct=False)
        assert abs(rec.expectation_formula - rec.limit) <= 1e-12

    def test_limit_field(self):
        setup = small_setup(pol=TILTED, delta=0.5)
        rec = sector_parameter_expectation(setup, 1, compute_direct=False)
        assert abs(rec.limit - 0.1) <= 1e-15

    def test_direct_bounded_by_absorption(self):
        setup = small_setup(pol=TILTED, delta=0.7)
        rec = sector_parameter_expectation(setup, 2, compute_direct=True)
        assert abs(rec.expectation_direct) <= abs(0.7) ** 2 + 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(sizes=unequal_registers(), eta=UNIT_DISC, delta=UNIT_DISC,
           tilt=st.floats(0.0, math.pi / 2), phase_h=st.floats(-math.pi, math.pi),
           phase_v=st.floats(-math.pi, math.pi))
    @example(sizes=(2, 5, 1), eta=0.36 + 0.48j, delta=0.3 + 0.4j, tilt=0.6,
             phase_h=0.9, phase_v=-2.0)
    def test_unequal_registers_mirror(self, sizes, eta, delta, tilt, phase_h, phase_v):
        """Swapping the photon's amplitudes and the register sizes negates
        the pointer and swaps the diagonals, so a register mix-up shows."""
        a_h, a_v, n = sizes
        h = cmath.rect(math.cos(tilt), phase_h)
        v = cmath.rect(math.sin(tilt), phase_v)
        setup = small_setup(pol=PhotonPolarisation(h, v), delta=delta, eta=eta,
                            a_h=a_h, a_v=a_v, n_max=n)
        mirror = small_setup(pol=PhotonPolarisation(v, h), delta=delta, eta=eta,
                             a_h=a_v, a_v=a_h, n_max=n)
        rec = sector_parameter_expectation(setup, n, compute_direct=True)
        rec_mirror = sector_parameter_expectation(mirror, n, compute_direct=True)
        assert abs(rec.expectation_direct - rec.expectation_formula) <= 1e-12
        assert abs(rec.expectation_direct + rec_mirror.expectation_direct) <= 1e-12
        terms, terms_mirror = density_terms(setup, n), density_terms(mirror, n)
        assert terms["h_diagonal"] == terms_mirror["v_diagonal"]
        assert terms["v_diagonal"] == terms_mirror["h_diagonal"]

    def test_unknown_reference_rejected(self):
        with pytest.raises(ValueError):
            sector_parameter_expectation(small_setup(), 1, reference="mystery")


class TestDensityTerms:
    def test_cross_families_vanish(self):
        setup = small_setup(pol=BALANCED, delta=0.5)
        for n in range(3):
            terms = density_terms(setup, n)
            assert terms["no_click_h_cross"] == 0.0
            assert terms["no_click_v_cross"] == 0.0
            assert terms["h_v_cross"] == 0.0

    def test_diagonal_weights(self):
        setup = small_setup(pol=TILTED, delta=0.5)
        terms = density_terms(setup, 2)
        assert abs(terms["no_click_diagonal"] - 0.75) <= 1e-12
        assert abs(terms["h_diagonal"] - 0.25 * 0.7) <= 1e-12
        assert abs(terms["v_diagonal"] - 0.25 * 0.3) <= 1e-12

    def test_diagonals_reproduce_pointer_expectation(self):
        setup = small_setup(pol=TILTED, delta=0.5)
        terms = density_terms(setup, 2)
        rec = sector_parameter_expectation(setup, 2, compute_direct=True)
        assert abs((terms["h_diagonal"] - terms["v_diagonal"])
                   - rec.expectation_direct) <= 1e-10

    def test_certain_absorption_empties_no_click(self):
        setup = small_setup(pol=TILTED, delta=1.0)
        assert density_terms(setup, 1)["no_click_diagonal"] == 0.0


class TestQnd:
    def test_premeasure_amplitudes(self):
        state = qnd_premeasure(TILTED)
        assert state.dims == (2, 2)
        assert abs(state.amps[0] - TILTED.h) <= 1e-15
        assert abs(state.amps[3] - TILTED.v) <= 1e-15
        assert state.amps[1] == 0.0 and state.amps[2] == 0.0

    def test_pure_photon_stays_product(self):
        state = qnd_premeasure(H_ONLY)
        mat = state.amps.reshape(2, 2, order="F")
        assert np.linalg.matrix_rank(mat) == 1

    def test_schmidt_coefficients_match_svd_oracle(self):
        for pol in (TILTED, BALANCED, H_ONLY):
            state = qnd_premeasure(pol)
            mat = state.amps.reshape(2, 2, order="F")
            singular = np.linalg.svd(mat, compute_uv=False)
            expected = sorted([abs(pol.h), abs(pol.v)], reverse=True)
            assert np.max(np.abs(singular - expected)) <= 1e-12

    def test_outcome_distribution_exact(self):
        out = qnd_outcome(TILTED)
        assert out.probabilities["H"] == pytest.approx(0.7, abs=1e-15)
        assert out.probabilities["V"] == pytest.approx(0.3, abs=1e-15)
        assert out.post_states["H"].amps[0] == 1.0
        assert out.post_states["V"].amps[1] == 1.0

    def test_sampling_is_seed_deterministic(self):
        a = qnd_sample(TILTED, shots=1000, seed=42)
        b = qnd_sample(TILTED, shots=1000, seed=42)
        assert a == b
        assert a["H"] + a["V"] == 1000

    def test_shots_beyond_guard_rejected(self, monkeypatch):
        monkeypatch.setenv("SECTORSIM_DIM_GUARD", "1024")
        assert sum(qnd_sample(TILTED, shots=1024, seed=3).values()) == 1024
        with pytest.raises(DimensionLimitError):
            qnd_sample(TILTED, shots=1025, seed=3)

    def test_sampling_within_three_sigma(self):
        shots = 20000
        counts = qnd_sample(TILTED, shots=shots, seed=7)
        sigma = math.sqrt(shots * 0.7 * 0.3)
        assert abs(counts["H"] - shots * 0.7) <= 3 * sigma


class TestPhysicalScales:
    def test_reference_point(self):
        report = physical_scales(2.0, 0.5, 1e-6, 10)
        assert report.l_over_a == 0.25
        assert report.generations == 4.0
        assert report.cascade_electrons == 16.0
        assert report.work_ev == 5.0  # register saturates at 10 electrons
        assert report.mean_free_path_m == pytest.approx(2.5e-7)

    def test_gap_equal_to_bias(self):
        report = physical_scales(1.0, 1.0, 2e-6, 100)
        assert report.l_over_a == 1.0
        assert report.generations == 1.0
        assert report.cascade_electrons == 2.0
        assert report.work_ev == 2.0

    def test_noninteger_depth_allowed(self):
        report = physical_scales(1.5, 1.0, 1e-6, 1000)
        assert report.cascade_electrons == pytest.approx(2.0 ** 1.5)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            physical_scales(-1.0, 0.5, 1e-6, 10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("position", range(3))
    def test_non_finite_input_rejected(self, position, bad):
        args = [2.0, 0.5, 1e-6]
        args[position] = bad
        with pytest.raises(ValueError):
            physical_scales(*args, 10)

    @pytest.mark.parametrize("args", [
        (1024.0, 1.0, 1e-6),      # 2**1024 overflows
        (1e308, 1e-308, 1e-6),    # depth itself overflows
        (1e-300, 1e300, 1e300),   # mean free path overflows
    ])
    def test_overflowing_scale_rejected(self, args):
        with pytest.raises(ValueError):
            physical_scales(*args, 10)


def ket_sandwich(setup, psi, registers):
    """<psi| P |psi> from the two pointer kets, each built in full."""
    vacuum = basis_state((3,), (PHOTON_VAC,))
    ground_h, ground_v = (basis_state((2,) * a, (0,) * a)
                          for a in (setup.n_dopants_h, setup.n_dopants_v))
    amp_h = inner_product(tensor_product(tensor_product(vacuum, registers[0]), ground_v), psi)
    amp_v = inner_product(tensor_product(tensor_product(vacuum, ground_h), registers[1]), psi)
    return abs(amp_h) ** 2 - abs(amp_v) ** 2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    a_h=st.integers(min_value=1, max_value=5),
    a_v=st.integers(min_value=1, max_value=5),
    depth=st.integers(min_value=0, max_value=2),
    eta=UNIT_DISC,
    delta=UNIT_DISC,
    theta=st.floats(0.0, math.pi / 2),
    phases=st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
)
def test_sliced_sandwich_equals_ket_sandwich(a_h, a_v, depth, eta, delta, theta, phases):
    n = min(depth, min(a_h, a_v).bit_length() - 1)  # 2**n <= both registers
    pol = PhotonPolarisation(cmath.rect(math.cos(theta), phases[0]),
                             cmath.rect(math.sin(theta), phases[1]))
    setup = MeasurementSetup(pol, delta, eta, a_h, a_v, n)
    psi = evolve(setup, n)
    registers = [dense_avalanche(params, n) for params in setup.registers]
    assert abs(_pointer_expectation(setup, psi, registers)
               - ket_sandwich(setup, psi, registers)) <= 1e-15


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sizes=unequal_registers(), eta=UNIT_DISC, delta=UNIT_DISC,
       theta=st.floats(0.0, math.pi / 2),
       phases=st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
       reference=st.sampled_from(REFERENCES), compute_direct=st.booleans())
@example(sizes=(4, 2, 1), eta=0.3 - 0.4j, delta=0.36 + 0.48j, theta=math.acos(0.8),
         phases=(0.9, -2.0), reference="no_avalanche", compute_direct=True)
def test_records_store_four_fields_and_derive_m_and_the_formula(
        sizes, eta, delta, theta, phases, reference, compute_direct):
    """A record holds n, the dense sandwich, the overlap and the limit;
    M = 2^n and the closed form are read from those, and cannot be passed in."""
    a_h, a_v, n_max = sizes
    pol = PhotonPolarisation(cmath.rect(math.cos(theta), phases[0]),
                             cmath.rect(math.sin(theta), phases[1]))
    setup = MeasurementSetup(pol, delta, eta, a_h, a_v, n_max)
    records = sector_parameter_sweep(setup, reference, compute_direct)
    assert [rec.n for rec in records] == list(range(n_max + 1))
    for rec in records:
        assert rec.m_electrons == 1 << rec.n
        want = rec.limit * (1.0 - abs(rec.overlap * rec.overlap) ** 2)
        assert type(rec.expectation_formula) is float
        assert rec.expectation_formula.hex() == want.hex(), rec
        assert (rec.expectation_direct is None) == (not compute_direct)
        stored = {f.name: getattr(rec, f.name) for f in dataclasses.fields(rec)}
        assert list(stored) == ["n", "expectation_direct", "overlap", "limit"]
        assert MeasurementRecord(**stored) == rec
        derived = {"m_electrons": rec.m_electrons,
                   "expectation_formula": rec.expectation_formula}
        for extra in [{name: value} for name, value in derived.items()] + [derived]:
            with pytest.raises(TypeError):
                MeasurementRecord(**stored, **extra)


def test_setups_store_six_fields_and_derive_the_registers():
    """A setup holds the photon, the two amplitudes, the two sizes and the
    depth; the H and V registers are built from those normalised fields
    whenever they are read, and cannot be passed in."""
    overshoot = (0.6 + 0.8j) * (1.0 + 5e-13)
    setups = [MeasurementSetup(TILTED, 0.5, 0.6, 4.0, np.int64(8), 2),
              MeasurementSetup(BALANCED, 0.3j, overshoot, np.int64(8), 4.0, 1)]
    setups.append(dataclasses.replace(setups[0], n_max=1))
    for setup in setups:
        stored = {f.name: getattr(setup, f.name) for f in dataclasses.fields(setup)}
        assert list(stored) == ["pol", "delta", "eta", "n_dopants_h", "n_dopants_v", "n_max"]
        assert MeasurementSetup(**stored) == setup
        with pytest.raises(TypeError):
            MeasurementSetup(**stored, registers=setup.registers)
        assert type(setup.n_dopants_h) is type(setup.n_dopants_v) is int
        assert abs(setup.eta) <= 1.0
        assert setup.registers == (AvalancheParams(setup.n_dopants_h, setup.eta, setup.n_max),
                                   AvalancheParams(setup.n_dopants_v, setup.eta, setup.n_max))
    assert [setup.n_max for setup in setups] == [2, 1, 1]
    assert setups[1].eta != overshoot
    assert [params.n_dopants for params in setups[2].registers] == [4, 8]
    # a product state's site count is len(psi); the family keeps its own,
    # which sector_expectation and sector_apply read
    assert not hasattr(ProductState, "n_sites")
    assert hasattr(ElementaryFamily, "n_sites")
