"""Cascade engines: collision gate, schedule, block structure, overlaps."""

import cmath
import math
import time
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ETA_GRID, UNIT_DISC, UNIT_PHASE, traced_peak
from sectorsim.avalanche import (
    AvalancheParams,
    StructuredAvalancheState,
    block_ground_overlap,
    dense_avalanche,
    dense_no_avalanche_overlap,
    generation_pairs,
    overlap_no_avalanche,
    scattering_matrix,
    structured_amplitude,
    structured_avalanche,
)
from sectorsim.hilbert import flat_index


def survival(eta):
    return math.sqrt(max(0.0, 1.0 - abs(eta) ** 2))


class TestScatteringGate:
    def test_ground_pair_fixed(self):
        mat = scattering_matrix(0.6)
        assert mat[0, 0] == 1.0
        assert np.count_nonzero(mat[:, 0]) == 1

    def test_excitation_column(self):
        mat = scattering_matrix(0.6)
        # input (excited, ground) = index 1; outputs at 1 and 3
        assert abs(mat[1, 1] - 0.8) <= 1e-15
        assert abs(mat[3, 1] - 0.6) <= 1e-15

    def test_eta_zero_is_identity(self):
        assert np.max(np.abs(scattering_matrix(0.0) - np.eye(4))) == 0.0

    def test_eta_one_transfers_fully(self):
        mat = scattering_matrix(1.0)
        assert abs(mat[3, 1] - 1.0) <= 1e-15
        assert abs(mat[1, 1]) <= 1e-15

    @pytest.mark.parametrize("eta", [
        0.0, 0.1, 0.5, 0.99, 1.0,
        0.3 + 0.4j, 0.6 + 0.64j, -0.7, 0.5j, UNIT_PHASE,
    ])
    def test_unitary_on_disk(self, eta):
        mat = scattering_matrix(eta)
        assert np.max(np.abs(mat.conj().T @ mat - np.eye(4))) <= 1e-12

    def test_modulus_above_one_rejected(self):
        with pytest.raises(ValueError):
            scattering_matrix(1.0 + 1e-6)


class TestGenerationPairs:
    def test_first_three_generations(self):
        assert generation_pairs(1) == [(0, 1)]
        assert generation_pairs(2) == [(0, 2), (1, 3)]
        assert generation_pairs(3) == [(0, 4), (1, 5), (2, 6), (3, 7)]

    def test_doubling_structure(self):
        for n in range(1, 8):
            pairs = generation_pairs(n)
            assert len(pairs) == 1 << (n - 1)
            touched = {k for pair in pairs for k in pair}
            assert touched == set(range(1 << n))

    def test_generation_zero_invalid(self):
        with pytest.raises(ValueError):
            generation_pairs(0)


class TestParamsValidation:
    def test_insufficient_dopants(self):
        with pytest.raises(ValueError):
            AvalancheParams(7, 0.6, 3)

    def test_generation_beyond_n_max(self):
        params = AvalancheParams(8, 0.6, 2)
        with pytest.raises(ValueError):
            dense_avalanche(params, 3)


class TestDenseAvalanche:
    def test_generation_zero_is_seeded_register(self):
        state = dense_avalanche(AvalancheParams(4, 0.6, 2), 0)
        assert state.amps[flat_index(state.dims, (1, 0, 0, 0))] == 1.0
        assert np.count_nonzero(state.amps) == 1

    def test_eta_zero_never_spreads(self):
        params = AvalancheParams(8, 0.0, 3)
        state = dense_avalanche(params, 3)
        assert state.amps[flat_index(state.dims, (1,) + (0,) * 7)] == 1.0
        assert np.count_nonzero(state.amps) == 1

    def test_two_generations_match_block_expansion(self):
        # independent oracle: assemble the A=4 state directly from the
        # block definitions, no gates involved
        eta = 0.6
        s = survival(eta)
        z1 = np.array([s, eta])                 # electron 2
        z2 = s * np.outer(np.array([1, 0]), np.array([1, 0])) \
            + eta * np.outer(np.array([0, 1]), z1)  # electrons (1, 3): [b1, b3]
        expected = np.zeros(16, dtype=complex)
        dims = (2, 2, 2, 2)
        for b1 in range(2):
            for b2 in range(2):
                for b3 in range(2):
                    amp = z1[b2] * z2[b1, b3]
                    expected[flat_index(dims, (1, b1, b2, b3))] = amp
        state = dense_avalanche(AvalancheParams(4, eta, 2), 2)
        assert np.max(np.abs(state.amps - expected)) <= 1e-15

    @pytest.mark.parametrize("eta", ETA_GRID)
    def test_norm_preserved_along_evolution(self, eta):
        params = AvalancheParams(8, eta, 3)
        for n in range(4):
            assert abs(dense_avalanche(params, n).norm() - 1.0) <= 1e-10

    @pytest.mark.parametrize("eta", [1.0, -1.0])
    def test_full_transfer_leaves_no_negative_zero(self, eta):
        # a collision at |eta| = 1 has one term per moving row; a -0 there
        # would print as "-0" in an avalanche-sweep record
        parts = dense_avalanche(AvalancheParams(8, eta, 3), 3).amps.view(np.float64)
        assert not np.any(np.signbit(parts[parts == 0]))


class TestZBlockPartition:
    def test_known_partitions(self):
        params = AvalancheParams(8, 0.6, 3)
        def members(n):
            return tuple(map(tuple, structured_avalanche(params, n).partition.levels))

        assert members(1) == ((0,), (1,))
        assert members(2) == ((0,), (2,), (1, 3))
        assert members(3) == ((0,), (4,), (2, 6), (1, 3, 5, 7))

    def test_remainder_untouched(self):
        params = AvalancheParams(11, 0.6, 3)
        part = structured_avalanche(params, 3).partition
        assert part.remainder == range(8, 11)

    @pytest.mark.parametrize("n", range(0, 21))
    def test_wellformed_against_trailing_zero_rule(self, n):
        # closed-form oracle: electron e > 0 sits in level n - trailing_zeros(e)
        params = AvalancheParams(1 << n if n else 1, 0.5, n)
        part = structured_avalanche(params, n).partition
        assert tuple(part.levels[0]) == (0,)
        sizes = [len(lv) for lv in part.levels]
        assert sizes == [1] + [1 << max(0, l - 1) for l in range(1, n + 1)]
        seen = set()
        for level, indices in enumerate(part.levels):
            assert list(indices) == sorted(indices)
            for e in indices:
                assert e not in seen
                seen.add(e)
                if e > 0:
                    assert level == n - (e & -e).bit_length() + 1
        assert seen == set(range(1 << n))

    def test_partition_is_o_n_at_any_depth(self):
        # a partition of 2**20 electrons fits in a few hundred bytes per level
        deep = AvalancheParams(1 << 20, 0.6, 20)
        with traced_peak() as traced:
            structured_avalanche(deep, 20)
        assert traced.peak < 64 * 1024, f"n = 20 partition peaked at {traced.peak} bytes"
        deepest = AvalancheParams(1 << 60, 0.6, 60)
        timings = []
        for _ in range(5):
            start = time.perf_counter()
            part = structured_avalanche(deepest, 60).partition
            timings.append(time.perf_counter() - start)
        assert min(timings) < 1e-3, f"n = 60 partition took {min(timings):.2e} s"
        assert sum(map(len, part.levels)) == 1 << 60
        assert part.levels[60] == range(1, 1 << 60, 2)

    def test_partition_is_derived_from_the_depth(self):
        # a state is its parameters plus its depth, so it takes no partition,
        # and the one it reads always has that depth
        params = AvalancheParams(8, 0.6, 3)
        other_depth = structured_avalanche(params, 2).partition
        with pytest.raises(TypeError):
            StructuredAvalancheState(params, 3, other_depth)
        with pytest.raises(TypeError):
            StructuredAvalancheState(params=params, generation=3, partition=other_depth)
        assert [f.name for f in fields(StructuredAvalancheState)] == ["params", "generation"]
        # the partition is built on read, and a read at n = 20 stays O(n)
        deep = structured_avalanche(AvalancheParams(1 << 20, 0.6, 20), 20)
        with traced_peak() as traced:
            assert len(deep.partition.levels) == 21
        assert traced.peak < 64 * 1024, f"n = 20 partition read peaked at {traced.peak} bytes"
        for n_dopants in (1, 5, 8, (1 << 20) + 3):
            params = AvalancheParams(n_dopants, 0.6, n_dopants.bit_length() - 1)
            for n in range(params.n_max + 1):
                part = structured_avalanche(params, n).partition
                assert len(part.levels) == n + 1
                members = np.concatenate([np.arange(r.start, r.stop, r.step)
                                          for r in part.levels])
                assert np.array_equal(np.sort(members), np.arange(1 << n))
                assert part.remainder == range(1 << n, n_dopants)


def broadcast_ones_fold(params, n, batch):
    """Reference fold: every subtree product starts as a broadcast 1 and
    generation n multiplies its gathered edges by it like any other."""
    table = np.array([1.0, 0.0, survival(params.eta), params.eta], dtype=np.complex128)
    acc = np.broadcast_to(np.complex128(1.0), (len(batch), 1 << n))
    for g in range(n, 0, -1):
        lo = 1 << (g - 1)
        edge = table[2 * batch[:, :lo] + batch[:, lo : 2 * lo]]
        edge *= acc[:, lo:]
        acc = np.multiply(acc[:, :lo], edge, out=edge)
    seeded = (batch[:, 0] == 1) & ~batch[:, 1 << n :].any(axis=1)
    return np.where(seeded, acc[:, 0], 0j)


@st.composite
def label_batches(draw, max_dopants=12):
    """(A, n, labels): free rows and rows the cascade can reach."""
    n_dopants = draw(st.integers(1, max_dopants))
    n = draw(st.integers(0, n_dopants.bit_length() - 1))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = draw(st.lists(st.integers(0, 1), min_size=n_dopants, max_size=n_dopants))
        if draw(st.booleans()):
            # exciter rule: j > 0 can be excited only if j minus its top bit is
            row[0] = 1
            for j in range(1, 1 << n):
                row[j] &= row[j & ~(1 << (j.bit_length() - 1))]
            row[1 << n :] = [0] * (n_dopants - (1 << n))
        rows.append(row)
    return n_dopants, n, np.array(rows, dtype=np.uint8)


class TestStructuredFoldBits:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(eta=UNIT_DISC, case=label_batches())
    @example(eta=complex(-0.0, -0.5), case=(8, 3, np.eye(1, 8, dtype=np.uint8)))
    def test_bit_identical_to_broadcast_ones_fold(self, eta, case):
        n_dopants, n, batch = case
        params = AvalancheParams(n_dopants, eta, n)
        state = structured_avalanche(params, n)
        want = broadcast_ones_fold(params, n, batch)
        got = structured_amplitude(state, batch)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # numpy may round a one-row product differently from a batch, so a
        # single configuration is held to the reference's single row
        for k, row in enumerate(batch):
            want = broadcast_ones_fold(params, n, batch[k : k + 1])
            got = np.array([structured_amplitude(state, row)])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    # signed zeros and the unit circle's axes, where an operand order shows
    KEYED_ETAS = ETA_GRID + (-1.0, 1j, -1j, complex(-0.0, -0.5), complex(-0.0, -0.0))

    @pytest.mark.parametrize("eta", KEYED_ETAS)
    @pytest.mark.parametrize("n", range(8, 17))
    def test_bit_identical_where_levels_fold_by_key(self, eta, n):
        # deep sparse rows fold by key before the dense loop; every kind of
        # row must still match the reference bit for bit, in a batch and alone
        n_dopants = (1 << n) + n - 8
        params = AvalancheParams(n_dopants, eta, n)
        state = structured_avalanche(params, n)
        rng = np.random.default_rng(n)
        seed_only = np.eye(1, n_dopants, dtype=np.uint8)[0]
        reachable = [cascade_row(rng, n, n_dopants, p) for p in (0.05, 0.2, 0.5)]
        free = []
        for density in (1e-3, 1e-2, 0.5):
            row = (rng.random(n_dopants) < density).astype(np.uint8)
            row[0], row[1 << n :] = 1, 0
            free.append(row)
        ground_seed = free[-1].copy()
        ground_seed[0] = 0
        beyond = seed_only.copy()
        beyond[-1] = 1  # electron 2**n - 1 when the register has no remainder
        batches = [np.array([seed_only] + reachable + free[:2]),
                   np.array([seed_only, ground_seed] + reachable + free + [beyond]),
                   np.array([ground_seed, ground_seed.copy()]),
                   np.zeros((0, n_dopants), dtype=np.uint8)]
        for batch in batches:
            want = broadcast_ones_fold(params, n, batch)
            got = structured_amplitude(state, batch)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for k, row in enumerate(batches[1]):
            want = broadcast_ones_fold(params, n, batches[1][k : k + 1])
            got = np.array([structured_amplitude(state, row)])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_deep_seed_only_row_peaks_below_three_label_copies(self):
        # at n = 20 a fold over every touched label holds 2**19 complex
        # products (8 MiB); following the one excited label needs none
        n, eta = 20, 0.36 + 0.48j
        params = AvalancheParams((1 << n) + 3, eta, n)
        state = structured_avalanche(params, n)
        row = np.eye(1, params.n_dopants, dtype=np.uint8)[0]
        want = broadcast_ones_fold(params, n, row[None, :])
        with traced_peak() as traced:
            got = structured_amplitude(state, row)
        assert traced.peak < 3 * row.nbytes, (
            f"peaked at {traced.peak} bytes for {row.nbytes} label bytes")
        assert np.array_equal(np.array([got]).view(np.uint64), want.view(np.uint64))
        closed = (1.0 - abs(eta) ** 2) ** (n / 2)
        assert abs(got - closed) <= 1e-12 * closed


def cascade_row(rng, n, n_dopants, p):
    """A row the cascade can reach: each partner of an excited electron is
    excited with probability ``p``, and nothing from 2**n on."""
    row = np.zeros(n_dopants, dtype=np.uint8)
    row[0] = 1
    for g in range(1, n + 1):
        lo = 1 << (g - 1)
        row[lo : 2 * lo] = row[:lo] & (rng.random(lo) < p)
    return row


class TestStructuredDepth:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_constructor_refuses_depths_outside_the_register(self, data):
        n_max = data.draw(st.integers(0, 6), label="n_max")
        params = AvalancheParams(1 << n_max, 0.6, n_max)
        depth = data.draw(st.one_of(
            st.integers(max_value=-1),
            st.integers(min_value=n_max + 1),
            st.floats().filter(lambda x: not x.is_integer()),
        ), label="depth")
        with pytest.raises(ValueError):
            StructuredAvalancheState(params, depth)

    def test_constructor_keeps_an_integral_depth_as_int(self):
        state = StructuredAvalancheState(AvalancheParams(8, 0.6, 3), 2.0)
        assert state.generation == 2 and type(state.generation) is int


class TestStructuredAmplitude:
    @pytest.mark.parametrize("eta", ETA_GRID)
    @pytest.mark.parametrize("n", range(0, 4))
    def test_matches_dense_on_every_basis_state(self, eta, n):
        n_dopants = 8
        params = AvalancheParams(n_dopants, eta, n)
        dense = dense_avalanche(params, n)
        st = structured_avalanche(params, n)
        for idx in range(1 << n_dopants):
            bits = [(idx >> k) & 1 for k in range(n_dopants)]
            assert abs(dense.amps[idx] - structured_amplitude(st, bits)) <= 1e-12

    @pytest.mark.parametrize("eta", ETA_GRID)
    @pytest.mark.parametrize("n", range(0, 5))
    def test_batch_matches_dense(self, eta, n):
        n_dopants = 16
        params = AvalancheParams(n_dopants, eta, n)
        dense = dense_avalanche(params, n)
        st = structured_avalanche(params, n)
        labels = (np.arange(1 << n_dopants)[:, None] >> np.arange(n_dopants)) & 1
        batch = structured_amplitude(st, labels)
        assert batch.shape == (1 << n_dopants,)
        assert np.max(np.abs(batch - dense.amps)) <= 1e-12
        # single-row calls: the whole support plus every 64th configuration
        rows = np.union1d(np.flatnonzero(dense.amps), np.arange(0, 1 << n_dopants, 64))
        for idx in rows:
            single = structured_amplitude(st, labels[idx])
            assert isinstance(single, complex)
            assert abs(single - batch[idx]) <= 1e-15 * abs(batch[idx])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(eta=UNIT_DISC, case=label_batches(max_dopants=16))
    @example(eta=cmath.rect(1.0, 0.5),
             case=(6, 2, np.array([[0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 0, 0]], dtype=np.uint8)))
    def test_single_row_matches_its_batch_row(self, eta, case):
        # the last bit may depend on the call shape (see structured_amplitude)
        n_dopants, n, batch = case
        st = structured_avalanche(AvalancheParams(n_dopants, eta, n), n)
        amps = structured_amplitude(st, batch)
        for row, amp in zip(batch, amps):
            assert abs(structured_amplitude(st, row) - amp) <= 1e-15 * abs(amp)

    def test_label_validation(self):
        st = structured_avalanche(AvalancheParams(4, 0.6, 1), 1)
        with pytest.raises(ValueError):
            structured_amplitude(st, [0, 1, 2, 0])
        with pytest.raises(ValueError):
            structured_amplitude(st, [0, 1])

    @pytest.mark.parametrize("labels", [[1 + 0j, 0, 0, 0],
                                        np.array([[1, 0, 0, 0]], dtype=np.complex64)])
    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_complex_labels_are_refused_like_any_other_non_label(self, labels, action):
        # with warnings as errors or ignored, a complex label raises the
        # documented error rather than a ComplexWarning or a value
        st = structured_avalanche(AvalancheParams(4, 0.6, 1), 1)
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(ValueError, match=r"must be 0 \(ground\) or 1 \(excited\)"):
                structured_amplitude(st, labels)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(eta=UNIT_DISC, case=label_batches(),
           dtype=st.sampled_from([np.int8, np.int16, np.int64, np.uint8, np.bool_, np.float64]),
           strided=st.booleans(), data=st.data())
    def test_labels_of_every_dtype(self, eta, case, dtype, strided, data):
        # integer and bool labels take the one-reduction check, float labels
        # the elementwise one; each dtype gives the float labels' bits, and
        # each label it can hold that is not 0 or 1 is refused without a warning
        n_dopants, n, batch = case
        state = structured_avalanche(AvalancheParams(n_dopants, eta, n), n)
        labels = batch.astype(dtype)
        if strided:
            labels = np.repeat(labels, 2, axis=1)[:, ::2]
        want = structured_amplitude(state, batch.astype(np.float64))
        assert structured_amplitude(state, labels).tobytes() == want.tobytes()
        assert structured_amplitude(state, labels[0]) == structured_amplitude(
            state, batch[0].astype(np.float64))
        bad = [2, -1, 256, 0.5, math.nan, math.inf, -math.inf]
        if labels.dtype.kind in "iu":
            info = np.iinfo(dtype)
            bad = [v for v in bad + [info.min, info.max]
                   if v not in (0, 1) and float(v).is_integer() and info.min <= v <= info.max]
        elif labels.dtype.kind == "b":
            bad = []
        for value in bad:
            row = data.draw(st.integers(0, len(batch) - 1), label="row")
            site = data.draw(st.integers(0, n_dopants - 1), label="site")
            wrong = labels.copy()
            wrong[row, site] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=r"must be 0 \(ground\) or 1 \(excited\)"):
                    structured_amplitude(state, wrong)
                with pytest.raises(ValueError, match=r"must be 0 \(ground\) or 1 \(excited\)"):
                    structured_amplitude(state, wrong[row])


class TestBlockGroundOverlap:
    def test_seed_block_orthogonal(self):
        assert block_ground_overlap(0, 0.6) == 0.0

    def test_level_one_survival_amplitude(self):
        assert abs(block_ground_overlap(1, 0.6) - 0.8) <= 1e-15

    @pytest.mark.parametrize("level", range(1, 12))
    def test_higher_levels_equal_survival(self, level):
        for eta in (0.3, 0.9, UNIT_PHASE):
            assert abs(block_ground_overlap(level, eta) - survival(eta)) <= 1e-15

    def test_full_transfer_kills_overlap(self):
        assert block_ground_overlap(3, 1.0) == 0.0


class TestOverlaps:
    def test_no_avalanche_closed_form_to_n30(self):
        for eta in (0.3, 0.6, 0.9, UNIT_PHASE):
            params = AvalancheParams(1 << 30, eta, 30)
            for n in range(31):
                value = overlap_no_avalanche(params, n)
                closed = (1.0 - abs(eta) ** 2) ** (n / 2.0)
                assert abs(value - closed) <= 1e-12

    def test_exponent_is_generation_count(self):
        # one generation already decays the overlap; the exponent is n, not n-1
        params = AvalancheParams(2, 0.6, 1)
        assert abs(overlap_no_avalanche(params, 1) - 0.8) <= 1e-15

    @pytest.mark.parametrize("eta", ETA_GRID)
    @pytest.mark.parametrize("n", range(0, 4))
    def test_recursion_matches_dense_engine(self, eta, n):
        params = AvalancheParams(8, eta, n)
        structured = overlap_no_avalanche(params, n)
        dense = dense_no_avalanche_overlap(params, n)
        assert abs(structured - dense) <= 1e-12

    @pytest.mark.parametrize("n", range(0, 4))
    def test_ground_overlap_exactly_zero(self, n):
        params = AvalancheParams(8, 0.6, 3)
        zeros = np.zeros(8, dtype=np.uint8)
        assert structured_amplitude(structured_avalanche(params, n), zeros) == 0.0
        assert abs(dense_avalanche(params, n).amps[0]) <= 1e-15

    def test_monotone_decay_in_generation(self):
        params = AvalancheParams(1 << 12, 0.45, 12)
        values = [abs(overlap_no_avalanche(params, n)) for n in range(13)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_deep_overlap_fast_and_finite(self):
        params = AvalancheParams(1 << 30, 0.6, 30)
        start = time.perf_counter()
        value = overlap_no_avalanche(params, 30)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert abs(value - 0.8 ** 30) <= 1e-12
