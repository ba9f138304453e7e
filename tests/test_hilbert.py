"""Dense state plumbing: flat-index convention, products, gates, guard."""

import cmath
import copy
import functools
import math
import pickle
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    ETA_GRID,
    UNIT_DISC,
    counted_scans,
    embedded_gate_matrix,
    haar_unitary,
    random_state_vector,
    traced_peak,
)
from sectorsim import hilbert
from sectorsim.avalanche import (
    AvalancheParams,
    _rotation,
    cascade_generations,
    dense_avalanche,
    ground_register,
    scattering_matrix,
    seeded_register,
)
from sectorsim.hilbert import (
    _TILE_AMPS,
    UNITARITY_TOL,
    DenseState,
    DimensionLimitError,
    TwoSiteGate,
    apply_two_site_gate,
    basis_state,
    dimension_guard,
    flat_index,
    inner_product,
    kron_sites,
    tensor_product,
)
from sectorsim.measurement import (
    MeasurementSetup,
    PhotonPolarisation,
    _photon_ket,
    initial_state,
    photoexcite,
    qnd_premeasure,
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 31),
    dims=st.sampled_from([(2, 2), (2, 3), (3, 3, 2), (2,) * 12]),
    scale=st.sampled_from([1.0, 1e200]),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    data=st.data(),
)
def test_finiteness_verdict_on_both_routes(seed, dims, scale, bad, data):
    # at scale 1e200 the sum of squares overflows, so the verdict comes
    # from the elementwise scan; at scale 1 only the bad entry makes it
    # non-finite
    rng = np.random.default_rng(seed)
    amps = random_state_vector(math.prod(dims), rng) * scale
    parts = amps.view(np.float64)
    with np.errstate(over="ignore"):
        assert math.isfinite(np.dot(parts, parts)) == (scale == 1.0)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        assert DenseState(dims, amps).amps.tobytes() == amps.tobytes()
        parts[data.draw(st.integers(0, parts.size - 1), label="position")] = bad
        with pytest.raises(ValueError, match="must be finite"):
            DenseState(dims, amps)


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


# signed zeros, subnormals and ordinary magnitudes, all products finite
FOLD_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-309, 1.0, -1.0]),
    st.floats(-2.0, 2.0),
)


@st.composite
def site_factors(draw):
    """1 to 14 vectors of site dimension 2 or 3; the draw stops early once
    the product would pass 2**16 entries."""
    factors = []
    entries = 1
    for _ in range(draw(st.integers(1, 14))):
        d = draw(st.sampled_from([2, 3]))
        if entries * d > 1 << 16 and factors:
            break
        entries *= d
        factors.append(draw(hnp.arrays(np.complex128, (d,),
                                       elements=st.builds(complex, FOLD_PARTS, FOLD_PARTS))))
    return factors


@settings(max_examples=100, deadline=None, derandomize=True)
@given(factors=site_factors())
def test_kron_sites_equals_the_kron_fold_bit_for_bit(factors):
    want = functools.reduce(np.kron, reversed(factors))
    got = kron_sites(factors, "test product")
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("factor", [np.array([0.6, -0.8j]),
                                    np.array([[0.0, 1.0], [1j, -0.0]], dtype=np.complex128)])
def test_kron_sites_of_one_factor_is_a_new_array(factor):
    """Writing a one-site product leaves the caller's factor as it was."""
    before = factor.tobytes()
    got = kron_sites([factor], "one site")
    assert got is not factor and not np.shares_memory(got, factor)
    assert got.tobytes() == before
    got[...] = 7.0
    assert factor.tobytes() == before


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

    @pytest.mark.parametrize("matrix", [np.ones((4, 4)), np.full((4, 4), np.nan)])
    def test_refusal_is_never_remembered(self, matrix):
        for _ in range(3):
            with pytest.raises(ValueError, match="not unitary"):
                TwoSiteGate((0, 1), matrix)

    def test_matrix_written_into_a_non_unitary_one_is_refused_when_applied(self):
        gate = TwoSiteGate((0, 1), scattering_matrix(0.6))
        state = basis_state((2, 2), (1, 0))
        apply_two_site_gate(state, gate)
        gate.matrix[3, 1] = 0.7
        with pytest.raises(ValueError, match="not unitary"):
            apply_two_site_gate(state, gate)

    def test_matrix_written_into_another_unitary_applies_the_new_one(self):
        rng = np.random.default_rng(17)
        state = DenseState((2, 3, 2), random_state_vector(12, rng))
        gate = TwoSiteGate((2, 0), np.eye(4, dtype=np.complex128))
        assert apply_two_site_gate(state, gate).amps.tobytes() == state.amps.tobytes()
        gate.matrix[...] = haar_unitary(4, rng)
        fresh = TwoSiteGate((2, 0), gate.matrix.copy())
        out = apply_two_site_gate(state, gate)
        assert out.amps.tobytes() == apply_two_site_gate(state, fresh).amps.tobytes()
        full = embedded_gate_matrix(state.dims, 2, 0, gate.matrix)
        assert np.max(np.abs(out.amps - full @ state.amps)) <= 1e-12


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


def _copy_and_strided_kernel(state: DenseState, gate: TwoSiteGate) -> np.ndarray:
    """Reference gate kernel: one copy of the whole state, then strided
    updates of every block a non-identity row writes."""
    i, j = gate.sites
    di, dj = state.dims[i], state.dims[j]
    lo, hi = sorted((i, j))
    dims = state.dims
    shape = (math.prod(dims[hi + 1:]), dims[hi], math.prod(dims[lo + 1:hi]),
             dims[lo], math.prod(dims[:lo]))
    axes = (3, 1, 0, 2, 4) if i < j else (1, 3, 0, 2, 4)

    def blocks(amps):
        view = amps.reshape(shape).transpose(axes)
        return [view[k % di, k // di] for k in range(di * dj)]

    out = state.amps.copy()
    src, dst = blocks(state.amps), blocks(out)
    tmp = np.empty_like(dst[0])
    for r, row in enumerate(gate.matrix.tolist()):
        terms = [(k, c) for k, c in enumerate(row) if c]
        if terms == [(r, 1)]:
            continue
        (k, c), *rest = terms
        np.multiply(src[k], c, out=dst[r])
        if not rest:
            np.add(dst[r], 0.0, out=dst[r])
        for k, c in rest:
            np.multiply(src[k], c, out=tmp)
            np.add(dst[r], tmp, out=dst[r])
    return out


def _gate_case(kind, dims, i, j, eta, seed):
    """A state with exact zeros of both signs, so that a lone -1 coefficient
    makes -0 from them, and a sparse gate on sites (i, j)."""
    rng = np.random.default_rng(seed)
    amps = random_state_vector(math.prod(dims), rng)
    amps[rng.random(amps.size) < 0.3] = 0.0
    amps[rng.random(amps.size) < 0.1] = complex(-0.0, -0.0)
    gate_mat = _sparse_gate(kind, dims[i], dims[j], eta, rng)
    return DenseState(dims, amps), TwoSiteGate((i, j), gate_mat)


def _assert_matches_reference(state, gate):
    before = state.amps.tobytes()
    out = apply_two_site_gate(state, gate).amps.tobytes()
    assert out == _copy_and_strided_kernel(state, gate).tobytes()
    assert state.amps.tobytes() == before
    # the benchmark's memory probe applies a gate to the same input again
    assert apply_two_site_gate(state, gate).amps.tobytes() == out


KINDS = ["permutation", "phases", "scattering", "kron"]


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 31),
    sites=st.lists(st.sampled_from([2, 3]), min_size=16, max_size=16),
    extra=st.integers(0, 1),
    order=st.data(),
    eta=st.sampled_from(ETA_GRID + (-1.0,)),
)
def test_tiled_kernel_matches_copy_and_strided_kernel(kind, seed, sites, extra, order, eta):
    # the shortest prefix that outgrows one tile's buffers, and maybe one site more
    n = next(m for m in range(1, len(sites) + 1) if math.prod(sites[:m]) > _TILE_AMPS)
    dims = sites[:n + extra]
    i, j = order.draw(st.sampled_from([(a, b) for a in range(len(dims))
                                       for b in range(len(dims)) if a != b]), label="sites")
    if kind == "scattering":
        dims[i] = dims[j] = 2
    _assert_matches_reference(*_gate_case(kind, tuple(dims), i, j, eta, seed))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("eta", [1.0, -1.0])
@pytest.mark.parametrize("pair", [(0, 1), (1, 0), (2, 3), (3, 0), (0, 3), (8, 0), (1, 8)])
def test_tiled_kernel_with_a_partial_last_tile_above_the_pair(kind, eta, pair):
    # with the upper site at 3 (8), the sites up to it span 16 (512)
    # amplitudes, so a gate that reads two columns takes tiles of `step` =
    # 1024 (32) of the 7776 (243) indices of the axis above the pair: eight
    # tiles, the last one partial
    dims = (2,) * 9 + (3,) * 5
    i, j = pair
    above = math.prod(dims[max(pair) + 1:])
    step = max(1, _TILE_AMPS // math.prod(dims[:max(pair) + 1]))
    assert above // step == 7 and above % step
    _assert_matches_reference(*_gate_case(kind, dims, i, j, eta, sum(pair)))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 31),
    threes=st.sets(st.integers(0, 15), max_size=2),
    order=st.data(),
    eta=st.sampled_from(ETA_GRID + (-1.0,)),
)
def test_tiled_kernel_matches_reference_where_tiles_cut_below_the_upper_site(
        kind, seed, threes, order, eta):
    # the upper site is the last one, or the lower site is at least 13, so
    # the sublattice below the upper site outgrows a tile and the tiles cut
    # the axis between the pair or the one below it; a 3-level site often
    # makes the last tile partial
    n = 16
    i, j = order.draw(st.sampled_from([(a, b) for a in range(n) for b in range(n)
                                       if a != b and (max(a, b) == n - 1 or min(a, b) >= 13)]),
                      label="sites")
    dims = [3 if s in threes else 2 for s in range(n)]
    if kind == "scattering":
        dims[i] = dims[j] = 2
    lo, hi = sorted((i, j))
    assert math.prod(dims[:hi]) // dims[lo] > _TILE_AMPS // 4
    _assert_matches_reference(*_gate_case(kind, tuple(dims), i, j, eta, seed))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("pair", [(13, 14), (14, 13), (12, 13), (1, 14), (14, 2)])
def test_tiled_kernel_with_a_partial_last_tile(kind, pair):
    # two 3-level sites: below site 12 or 13 lie 9 * 2**10 or 9 * 2**11
    # amplitudes, which tiles of _TILE_AMPS // 4 cut into pieces of the
    # axis below with a partial last one; with 3 or 9 amplitudes below and
    # 2**12 or 2**11 indices between, they cut the axis between the pair
    dims = [3, 3] + [2] * 13
    i, j = pair
    if kind == "scattering":
        dims[i] = dims[j] = 2
    below = math.prod(dims[:min(pair)])
    between = math.prod(dims[min(pair) + 1:max(pair)])
    assert below * between > _TILE_AMPS // 4
    assert (below % (_TILE_AMPS // 4) if below > _TILE_AMPS // 4
            else between % (_TILE_AMPS // 4 // below))
    _assert_matches_reference(*_gate_case(kind, tuple(dims), i, j, -1.0, sum(pair)))


@pytest.mark.parametrize("dims, pair", [
    ((2,) * 18, (0, 17)),
    ((3,) + (2,) * 16, (9, 16)),
    ((3,) + (2,) * 16, (0, 9)),
])
def test_gate_scratch_is_bounded_by_a_constant(dims, pair):
    # beyond its output, one gate holds at most a 256 KiB tile of scratch,
    # whatever the state's size and wherever the pair sits
    rng = np.random.default_rng(16)
    i, j = pair
    gate_mat = (scattering_matrix(0.6) if dims[i] == dims[j] == 2
                else haar_unitary(dims[i] * dims[j], rng))
    state = DenseState(dims, random_state_vector(math.prod(dims), rng))
    gate = TwoSiteGate(pair, gate_mat)
    with traced_peak() as traced:
        out = apply_two_site_gate(state, gate)
    assert traced.peak - out.amps.nbytes <= 16 * _TILE_AMPS + 64 * 1024


# -- package-built states carry a bound; caller-built states are scanned ------

def _sum_of_squares_exact(state) -> float:
    """Sum of |amp|^2 with one rounding per square and none in the sum."""
    parts = state.amps.view(np.float64)
    return math.fsum((parts * parts).tolist())


def _edge_unitary(size, rng):
    """A Haar unitary times sqrt(I + c J), J all ones and c just under
    UNITARITY_TOL: every entry of U^H U - I is c, so the gate passes its
    check and ||U||_2^2 = 1 + size*c, Gershgorin's worst case."""
    c = 0.99 * UNITARITY_TOL
    root = np.eye(size) + (math.sqrt(1.0 + c * size) - 1.0) / size * np.ones((size, size))
    return haar_unitary(size, rng) @ root


def _assert_trusted(state):
    assert not state.amps.flags.writeable
    assert np.all(np.isfinite(state.amps))
    assert math.isfinite(state._bound) and state._bound >= _sum_of_squares_exact(state)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 31),
    # a qubit gives every pair it is in a matrix of at most 6x6
    dims=st.lists(st.sampled_from([2, 3]), min_size=2, max_size=5).filter(lambda d: 2 in d),
    data=st.data(),
)
def test_package_built_chains_carry_a_bound_and_are_never_scanned(seed, dims, data):
    # collision (4x4), absorption (6x6, photon site first) and random
    # unitaries at the tolerance edge (up to 6x6) on a basis state
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(len(dims)) for j in range(len(dims))
             if i != j and dims[i] * dims[j] <= 6]
    labels = [data.draw(st.integers(0, d - 1), label="label") for d in dims]
    state = basis_state(tuple(dims), labels)
    _assert_trusted(state)
    with counted_scans() as scan:
        for _ in range(data.draw(st.integers(1, 12), label="gates")):
            i, j = data.draw(st.sampled_from(pairs), label="pair")
            kind = data.draw(st.sampled_from(["collision", "absorption", "edge"]), label="kind")
            if kind == "collision" and dims[i] == dims[j] == 2:
                matrix = scattering_matrix(data.draw(st.sampled_from(ETA_GRID), label="eta"))
            elif kind == "absorption" and (dims[i], dims[j]) == (3, 2):
                photon = data.draw(st.sampled_from([1, 2]), label="photon")
                matrix = _rotation(6, photon, 3, data.draw(UNIT_DISC, label="delta"))
            else:
                matrix = _edge_unitary(dims[i] * dims[j], rng)
            state = apply_two_site_gate(state, TwoSiteGate((i, j), matrix))
            _assert_trusted(state)
    assert scan.call_count == 0


def test_the_bound_covers_gershgorins_worst_case():
    # F spreads the pair's ground label over all six pair labels, the
    # eigenvector of the edge gate's sqrt(I + c J) with eigenvalue
    # sqrt(1 + 6c), so each of 50 edge gates raises the sum by 1 + 6c
    c = 0.99 * UNITARITY_TOL
    fourier = np.fft.fft(np.eye(6)) / math.sqrt(6.0)
    edge = np.eye(6) + (math.sqrt(1.0 + 6 * c) - 1.0) / 6 * np.ones((6, 6))
    state = apply_two_site_gate(basis_state((2, 3, 2), (1, 0, 0)), TwoSiteGate((1, 2), fourier))
    for _ in range(50):
        state = apply_two_site_gate(state, TwoSiteGate((1, 2), edge))
        _assert_trusted(state)
    assert _sum_of_squares_exact(state) > (1.0 + 6 * c) ** 49


@pytest.mark.parametrize("scale, scans", [
    (1.0, 1),  # the construction is scanned and records its measured bound
    (1e200, 5),  # the sum of squares overflows, so the construction and each gate scan
    (2.0 ** 501, 1),  # a bound past 2**1000 is finite, so it is trusted too
])
def test_caller_states_are_scanned_until_a_bound_is_trusted(scale, scans):
    rng = np.random.default_rng(3)
    amps = random_state_vector(12, rng) * scale
    gate = TwoSiteGate((2, 1), haar_unitary(6, rng))
    with counted_scans() as scan:
        state = DenseState((2, 3, 2), amps)
        for _ in range(4):
            state = apply_two_site_gate(state, gate)
            assert not state.amps.flags.writeable
    assert scan.call_count == scans
    if scale == 1e200:
        assert math.isinf(state._bound)
    else:
        _assert_trusted(state)
    if scale == 2.0 ** 501:
        assert 2.0 ** 1000 < _sum_of_squares_exact(state) <= state._bound


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2 ** 31),
    dims=st.sampled_from([(2, 2), (2, 3), (3, 3, 2)]),
    scale=st.floats(1e-150, 1e150),
    written=st.sampled_from([math.nan, math.inf, -math.inf, 0.5]),
    data=st.data(),
)
def test_a_callers_state_is_sealed_against_later_writes(seed, dims, scale, written, data):
    # the state copies the caller's array when built, so a later write into
    # that array, finite or not, leaves its bytes and its bound true
    rng = np.random.default_rng(seed)
    amps = random_state_vector(math.prod(dims), rng) * scale
    before = amps.tobytes()
    state = DenseState(dims, amps)
    amps.view(np.float64)[data.draw(st.integers(0, 2 * amps.size - 1), label="position")] = written
    assert state.amps.tobytes() == before
    _assert_trusted(state)
    with counted_scans() as scan:
        apply_two_site_gate(state, TwoSiteGate((0, 1), haar_unitary(dims[0] * dims[1], rng)))
    assert scan.call_count == 0
    with pytest.raises(ValueError):
        state.amps.flags.writeable = True


# every ordered pair of sites of (2, 3, 2), once each
ALL_PAIRS = [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 31), k=st.integers(0, 511),
       chain=st.lists(st.sampled_from(ALL_PAIRS), min_size=1, max_size=6))
@example(seed=3, k=500, chain=ALL_PAIRS)
@example(seed=3, k=505, chain=ALL_PAIRS)
@example(seed=3, k=511, chain=ALL_PAIRS)
def test_a_finite_bound_at_any_scale_spares_every_later_scan(seed, k, chain):
    # a sum of squares up to 2**1022 keeps every amplitude below 2**511, so
    # edge gates grow each output's bound and scan nothing after the construction
    rng = np.random.default_rng(seed)
    with counted_scans() as scan:
        state = DenseState((2, 3, 2), random_state_vector(12, rng) * 2.0 ** k)
        for i, j in chain:
            gate = TwoSiteGate((i, j), _edge_unitary(state.dims[i] * state.dims[j], rng))
            state = apply_two_site_gate(state, gate)
            _assert_trusted(state)
    assert scan.call_count == 1


@pytest.mark.parametrize("build", [
    lambda s: apply_two_site_gate(s, TwoSiteGate((0, 1), np.eye(4))),
    lambda s: tensor_product(basis_state((2,), (0,)), s),
], ids=["gate", "tensor_product"])
def test_a_scanned_sum_at_the_largest_double_records_no_bound(build):
    # the sum of squares is finite, but the scan's rounding margin on top of
    # it overflows, and an infinite bound is no bound
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = math.sqrt(np.finfo(np.float64).max)
    out = build(DenseState((2, 2), amps))
    assert math.isfinite(_sum_of_squares_exact(out))
    assert not out.amps.flags.writeable and math.isinf(out._bound)


def test_a_gate_that_overflows_a_caller_state_fails_closed():
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = amps[1] = 1.5e308  # finite entries whose sum of squares overflows
    state = DenseState((2, 2), amps)
    gate = TwoSiteGate((0, 1), _rotation(4, 0, 1, math.sqrt(0.5)))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="amplitudes must be finite"):
        apply_two_site_gate(state, gate)


def test_nan_written_into_a_callers_array_is_caught_by_the_next_gate():
    # the state keeps its own copy, so no later write into the caller's
    # array, NaN or finite, reaches it or the next gate's output
    amps = random_state_vector(8, np.random.default_rng(5))
    state, twin = DenseState((2, 2, 2), amps), DenseState((2, 2, 2), amps.copy())
    gate = TwoSiteGate((0, 2), scattering_matrix(0.6))
    want = apply_two_site_gate(twin, gate).amps.tobytes()
    for value in (np.nan, 0.5):
        amps[5] = value
        assert apply_two_site_gate(state, gate).amps.tobytes() == want


@pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))])
def test_a_copied_state_on_a_writeable_array_is_scanned(duplicate):
    # a copy or an unpickled state is rebuilt through the constructor, so it
    # holds a sealed array of the same bytes and a bound its one scan measured
    state = dense_avalanche(AvalancheParams(4, 0.6, 2), 2)
    with counted_scans() as scan:
        copied = duplicate(state)
    assert scan.call_count == 1
    assert copied.amps.tobytes() == state.amps.tobytes()
    _assert_trusted(copied)
    with pytest.raises(ValueError, match="read-only"):
        copied.amps[3] = np.nan
    with pytest.raises(ValueError):
        copied.amps.flags.writeable = True


def test_a_carried_cascade_validates_no_state(monkeypatch):
    original = DenseState.__post_init__
    inits = []

    def counting(self):
        inits.append(self.dims)
        original(self)

    monkeypatch.setattr(DenseState, "__post_init__", counting)
    generations = cascade_generations(seeded_register(8), 0.36 + 0.48j, (0,))
    for _ in range(4):
        _assert_trusted(next(generations))
    assert inits == []
    amps = dense_avalanche(AvalancheParams(8, 0.6, 3), 3).amps
    with pytest.raises(ValueError, match="read-only"):
        amps[0] = 1.0


def _polarisation(h, phase):
    return PhotonPolarisation(h, cmath.rect(math.sqrt(max(0.0, 1.0 - abs(h) ** 2)), phase))


@st.composite
def package_built_states(draw):
    """A state the package builds, of at most 16 amplitudes: a register, a
    cascade generation, an edge gate's output or a photon ket."""
    kind = draw(st.sampled_from(["register", "cascade", "edge", "photon"]))
    if kind == "register":
        return draw(st.sampled_from([ground_register, seeded_register]))(draw(st.integers(1, 4)))
    if kind == "cascade":
        n_dopants = draw(st.integers(2, 4))
        n = draw(st.integers(1, n_dopants.bit_length() - 1))
        return dense_avalanche(AvalancheParams(n_dopants, draw(UNIT_DISC), n), n)
    if kind == "edge":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
        gate = TwoSiteGate((0, 1), _edge_unitary(6, rng))
        return apply_two_site_gate(basis_state((2, 3), (1, 2)), gate)
    return _photon_ket(_polarisation(draw(UNIT_DISC), draw(st.floats(-math.pi, math.pi))))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(factors=st.lists(package_built_states(), min_size=2, max_size=3))
def test_products_of_package_built_states_carry_a_bound_and_are_never_scanned(factors):
    with counted_scans() as scan:
        product = functools.reduce(tensor_product, factors)
    assert scan.call_count == 0
    assert product.dims == sum((f.dims for f in factors), ())
    _assert_trusted(product)


@pytest.mark.parametrize("duplicate", [lambda s: DenseState(s.dims, s.amps.copy()), copy.deepcopy])
def test_a_product_with_a_callers_factor_is_scanned(duplicate):
    # a caller's state, or a copy of one, carries a bound of its own, so the
    # product scans nothing, and a later write into the array the caller
    # built it from reaches neither
    amps = dense_avalanche(AvalancheParams(4, 0.6, 2), 2).amps.copy()
    state = duplicate(DenseState((2,) * 4, amps))
    with counted_scans() as scan:
        product = tensor_product(seeded_register(2), state)
    assert scan.call_count == 0
    _assert_trusted(product)
    want = product.amps.tobytes()
    amps[3] = np.nan
    assert product.amps.tobytes() == want


def test_a_product_whose_bound_overflows_is_scanned():
    # each factor's bound is about 1e300, so their product's overflows; the
    # output's sum of squares overflows too, so it records no bound
    rng = np.random.default_rng(9)
    big = apply_two_site_gate(DenseState((2, 2), random_state_vector(4, rng) * 1e150),
                              TwoSiteGate((0, 1), scattering_matrix(0.6)))
    _assert_trusted(big)
    with counted_scans() as scan:
        product = tensor_product(big, big)
    assert scan.call_count == 1
    assert not product.amps.flags.writeable and math.isinf(product._bound)
    assert np.all(np.isfinite(product.amps))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(factors=st.lists(package_built_states(), min_size=2, max_size=3))
def test_no_package_built_state_can_be_made_writeable_again(factors):
    # each holds a view of a read-only array, a product's an outer product's
    for state in factors + [functools.reduce(tensor_product, factors)]:
        with pytest.raises(ValueError, match="WRITEABLE"):
            state.amps.flags.writeable = True


def _sum_of_squares_as_fraction(amps) -> Fraction:
    """Sum of |amp|^2 with no rounding at all."""
    return sum((Fraction(part) ** 2 for part in amps.view(np.float64).tolist()), Fraction(0))


def _rounded_up(value: Fraction) -> float:
    nearest = float(value)
    return nearest if Fraction(nearest) >= value else math.nextafter(nearest, math.inf)


def test_a_products_bound_covers_its_exact_sum_of_squares():
    # each factor's bound is its exact sum rounded up, with no slack, so the
    # product's bound holds only by the margin tensor_product grows it by
    rng = random.Random(7)
    for _ in range(300):
        factors = []
        for size in (4, 2):
            amps = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                             for _ in range(size)])
            factors.append(hilbert._owned((size,), amps,
                                          _rounded_up(_sum_of_squares_as_fraction(amps))))
        product = tensor_product(*factors)
        assert Fraction(product._bound) >= _sum_of_squares_as_fraction(product.amps)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(h=UNIT_DISC, phase=st.floats(-math.pi, math.pi), a_h=st.integers(1, 4),
       a_v=st.integers(1, 4), delta=UNIT_DISC)
def test_measurement_states_carry_a_bound_and_absorption_scans_nothing(h, phase, a_h, a_v, delta):
    pol = _polarisation(h, phase)
    _assert_trusted(qnd_premeasure(pol))
    setup = MeasurementSetup(pol, delta, 0.6, a_h, a_v, 0)
    joint = initial_state(setup)
    _assert_trusted(joint)
    with counted_scans() as scan:
        _assert_trusted(photoexcite(setup, joint))
    assert scan.call_count == 0
