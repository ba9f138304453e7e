"""Dense state plumbing: flat-index convention, products, gates, guard."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ETA_GRID, embedded_gate_matrix, haar_unitary, random_state_vector
from sectorsim.avalanche import scattering_matrix
from sectorsim.hilbert import (
    DenseState,
    DimensionLimitError,
    TwoSiteGate,
    apply_two_site_gate,
    basis_state,
    dimension_guard,
    flat_index,
    inner_product,
    tensor_product,
)


class TestFlatIndexConvention:
    def test_site_zero_fastest(self):
        # dims (2, 3): flat = b0 + 2*b1
        assert flat_index((2, 3), (0, 0)) == 0
        assert flat_index((2, 3), (1, 0)) == 1
        assert flat_index((2, 3), (0, 1)) == 2
        assert flat_index((2, 3), (1, 2)) == 5

    def test_roundtrip_all_labels(self):
        dims = (2, 3, 2)
        seen = set()
        for b2 in range(2):
            for b1 in range(3):
                for b0 in range(2):
                    seen.add(flat_index(dims, (b0, b1, b2)))
        assert seen == set(range(12))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            flat_index((2, 2), (2, 0))

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            flat_index((2, 2), (0, 0, 0))


class TestBasisState:
    def test_places_single_one(self):
        state = basis_state((2, 2), (1, 0))
        assert state.amps[1] == 1.0
        assert np.count_nonzero(state.amps) == 1
        assert state.norm() == 1.0

    def test_three_level_site(self):
        state = basis_state((3, 2), (2, 1))
        assert state.amps[flat_index((3, 2), (2, 1))] == 1.0


class TestDenseStateValidation:
    def test_amp_length_checked(self):
        with pytest.raises(ValueError):
            DenseState((2, 2), np.zeros(3, dtype=complex))

    def test_nonfinite_rejected(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = np.nan
        with pytest.raises(ValueError):
            DenseState((2, 2), amps)

    def test_site_dimension_floor(self):
        with pytest.raises(ValueError):
            DenseState((1, 2), np.zeros(2, dtype=complex))


class TestTensorProduct:
    def test_basis_case(self):
        a = basis_state((2,), (1,))
        b = basis_state((2,), (0,))
        prod = tensor_product(a, b)
        assert prod.dims == (2, 2)
        assert prod.amps[1] == 1.0  # site 0 (from a) fastest

    def test_against_index_formula(self):
        rng = np.random.default_rng(7)
        a = DenseState((2, 3), random_state_vector(6, rng))
        b = DenseState((2,), random_state_vector(2, rng))
        prod = tensor_product(a, b)
        dim_a = 6
        for x in range(6):
            for y in range(2):
                expected = a.amps[x] * b.amps[y]
                assert abs(prod.amps[x + y * dim_a] - expected) <= 1e-15

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(8)
        a = DenseState((2, 2), 0.25 * random_state_vector(4, rng))
        b = DenseState((3,), 2.0 * random_state_vector(3, rng))
        assert abs(tensor_product(a, b).norm() - a.norm() * b.norm()) <= 1e-12

    def test_associative_on_basis_states(self):
        a = basis_state((2,), (1,))
        b = basis_state((3,), (2,))
        c = basis_state((2,), (0,))
        left = tensor_product(tensor_product(a, b), c)
        right = tensor_product(a, tensor_product(b, c))
        assert left.dims == right.dims
        assert np.array_equal(left.amps, right.amps)

    def test_associative_on_random_states(self):
        rng = np.random.default_rng(9)
        a = DenseState((2,), random_state_vector(2, rng))
        b = DenseState((3,), random_state_vector(3, rng))
        c = DenseState((2,), random_state_vector(2, rng))
        left = tensor_product(tensor_product(a, b), c)
        right = tensor_product(a, tensor_product(b, c))
        assert np.max(np.abs(left.amps - right.amps)) <= 1e-15

    def test_guard_enforced(self, monkeypatch):
        monkeypatch.setenv("SECTORSIM_DIM_GUARD", str(2 ** 12))
        a = basis_state((2,) * 10, (0,) * 10)
        b = basis_state((2,) * 10, (0,) * 10)
        with pytest.raises(DimensionLimitError):
            tensor_product(a, b)


class TestInnerProduct:
    def test_orthonormal_basis(self):
        a = basis_state((2, 2), (0, 1))
        b = basis_state((2, 2), (1, 0))
        assert inner_product(a, a) == 1.0
        assert inner_product(a, b) == 0.0

    def test_conjugate_linear_first_argument(self):
        rng = np.random.default_rng(10)
        a = DenseState((2, 2), random_state_vector(4, rng))
        b = DenseState((2, 2), random_state_vector(4, rng))
        assert abs(inner_product(a, b) - np.conj(inner_product(b, a))) <= 1e-15

    def test_factorises_over_tensor_product(self):
        rng = np.random.default_rng(11)
        a1 = DenseState((2,), random_state_vector(2, rng))
        a2 = DenseState((3,), random_state_vector(3, rng))
        b1 = DenseState((2,), random_state_vector(2, rng))
        b2 = DenseState((3,), random_state_vector(3, rng))
        lhs = inner_product(tensor_product(a1, a2), tensor_product(b1, b2))
        rhs = inner_product(a1, b1) * inner_product(a2, b2)
        assert abs(lhs - rhs) <= 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            inner_product(basis_state((2,), (0,)), basis_state((3,), (0,)))


class TestTwoSiteGate:
    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            TwoSiteGate((0, 1), np.ones((4, 4)))

    def test_same_site_rejected(self):
        with pytest.raises(ValueError):
            TwoSiteGate((1, 1), np.eye(4))

    def test_identity_accepted(self):
        gate = TwoSiteGate((0, 2), np.eye(4))
        assert gate.sites == (0, 2)


class TestApplyTwoSiteGate:
    def test_identity_gate_is_noop(self):
        rng = np.random.default_rng(12)
        state = DenseState((2, 2, 2), random_state_vector(8, rng))
        out = apply_two_site_gate(state, TwoSiteGate((0, 2), np.eye(4)))
        assert np.max(np.abs(out.amps - state.amps)) == 0.0

    @pytest.mark.parametrize("pair", [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2)])
    def test_against_embedded_matrix(self, pair):
        rng = np.random.default_rng(sum(pair) + 13)
        dims = (2, 3, 2)
        i, j = pair
        d = dims[i] * dims[j]
        gate_mat = haar_unitary(d, rng)
        state = DenseState(dims, random_state_vector(12, rng))
        out = apply_two_site_gate(state, TwoSiteGate(pair, gate_mat))
        full = embedded_gate_matrix(dims, i, j, gate_mat)
        assert np.max(np.abs(out.amps - full @ state.amps)) <= 1e-12

    def test_norm_preserved_over_one_thousand_random_pairs(self):
        rng = np.random.default_rng(14)
        dims = (2, 2, 3)
        for _ in range(1000):
            i, j = rng.choice(3, size=2, replace=False)
            gate = TwoSiteGate((int(i), int(j)), haar_unitary(dims[i] * dims[j], rng))
            state = DenseState(dims, random_state_vector(12, rng))
            out = apply_two_site_gate(state, gate)
            assert abs(out.norm() - 1.0) <= 1e-12

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(15)
        state = DenseState((2, 3), random_state_vector(6, rng))
        with pytest.raises(ValueError):
            apply_two_site_gate(state, TwoSiteGate((0, 1), np.eye(4)))

    def test_site_out_of_range_rejected(self):
        state = basis_state((2, 2), (0, 0))
        with pytest.raises(ValueError):
            apply_two_site_gate(state, TwoSiteGate((0, 5), np.eye(4)))


class TestDimensionGuard:
    def test_default_guard(self, monkeypatch):
        monkeypatch.delenv("SECTORSIM_DIM_GUARD", raising=False)
        assert dimension_guard() == 1 << 26

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("SECTORSIM_DIM_GUARD", "1024")
        assert dimension_guard() == 1024
        with pytest.raises(DimensionLimitError):
            basis_state((2,) * 11, (0,) * 11)

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("SECTORSIM_DIM_GUARD", "potato")
        with pytest.raises(ValueError):
            dimension_guard()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 31),
    dims=st.lists(st.sampled_from([2, 3]), min_size=2, max_size=4),
)
def test_gate_application_preserves_norm(seed, dims):
    rng = np.random.default_rng(seed)
    dims = tuple(dims)
    i, j = rng.choice(len(dims), size=2, replace=False)
    gate = TwoSiteGate((int(i), int(j)), haar_unitary(dims[i] * dims[j], rng))
    state = DenseState(dims, random_state_vector(math.prod(dims), rng))
    assert abs(apply_two_site_gate(state, gate).norm() - 1.0) <= 1e-12


def _sparse_gate(kind: str, di: int, dj: int, eta: complex, rng) -> np.ndarray:
    """Gates whose rows hit the kernel's skip and single-term branches."""
    d = di * dj
    if kind == "permutation":
        return np.eye(d)[rng.permutation(d)]
    if kind == "phases":
        # some rows stay exact identity rows, the others pick up a phase
        keep = rng.random(d) < 0.5
        return np.diag(np.where(keep, 1.0, np.exp(2j * np.pi * rng.random(d))))
    if kind == "scattering":
        return scattering_matrix(eta)
    # one unitary per site, or the identity; site i is fastest, so it is
    # the second Kronecker factor
    u_i, u_j = (haar_unitary(d_s, rng) if rng.random() < 0.7 else np.eye(d_s)
                for d_s in (di, dj))
    return np.kron(u_j, u_i)


@pytest.mark.parametrize("kind", ["permutation", "phases", "scattering", "kron"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 31),
    dims=st.lists(st.sampled_from([2, 3]), min_size=2, max_size=4),
    order=st.data(),
    eta=st.sampled_from(ETA_GRID),
)
def test_block_kernel_on_sparse_gates(kind, seed, dims, order, eta):
    # both site orders, adjacent and separated pairs
    n = len(dims)
    i, j = order.draw(st.sampled_from([(a, b) for a in range(n) for b in range(n) if a != b]),
                      label="sites")
    if kind == "scattering":
        dims[i] = dims[j] = 2
    dims = tuple(dims)
    rng = np.random.default_rng(seed)
    gate_mat = _sparse_gate(kind, dims[i], dims[j], eta, rng)
    state = DenseState(dims, random_state_vector(math.prod(dims), rng))
    before = state.amps.copy()
    out = apply_two_site_gate(state, TwoSiteGate((i, j), gate_mat))
    full = embedded_gate_matrix(dims, i, j, gate_mat)
    assert np.max(np.abs(out.amps - full @ state.amps)) <= 1e-12
    assert np.array_equal(state.amps.view(np.uint64), before.view(np.uint64))
    assert not np.shares_memory(out.amps, state.amps)
