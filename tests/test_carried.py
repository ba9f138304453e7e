"""Carried cascades: every generation a sweep reads is built from the one
before, bit-identical to a rebuild from generation 0, and no route keeps
an earlier generation alive while it builds the next."""

import cmath
import dataclasses
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import UNIT_DISC
from sectorsim import avalanche, hilbert
from sectorsim.avalanche import (
    AvalancheParams,
    block_ground_overlap,
    cascade_generations,
    dense_avalanche,
    generation_pairs,
    overlap_no_avalanche,
    scattering_matrix,
    seeded_register,
)
from sectorsim.hilbert import TwoSiteGate, apply_two_site_gate
from sectorsim.measurement import (
    MeasurementSetup,
    PhotonPolarisation,
    _pointer_expectation,
    density_terms,
    evolve,
    initial_state,
    photoexcite,
    sector_parameter_expectation,
    sector_parameter_sweep,
)


def rebuilt(state, eta, n, offsets):
    """Generation n from generation 0, one collision at a time."""
    for g in range(1, n + 1):
        for exciter, partner in generation_pairs(g):
            for offset in offsets:
                state = apply_two_site_gate(state, TwoSiteGate(
                    (offset + exciter, offset + partner), scattering_matrix(eta)))
    return state


def bits(value):
    """A field's type and bit pattern, so that -0.0 and 0.0 differ."""
    if isinstance(value, (float, complex)):
        return type(value), np.array([value], dtype=np.complex128).view(np.uint64).tolist()
    return type(value), value


# |h|^2 + |v|^2 = 1 with each phase free and signed-zero parts reachable
POLARISATIONS = st.one_of(
    st.sampled_from([(1.0, 0.0), (complex(-0.0, 1.0), complex(0.0, -0.0)), (0.0, -1.0)]),
    st.builds(lambda t, a, b: (cmath.rect(math.cos(t), a), cmath.rect(math.sin(t), b)),
              st.floats(0.0, math.pi / 2), st.floats(-math.pi, math.pi),
              st.floats(-math.pi, math.pi)),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_dopants=st.integers(1, 10), eta=UNIT_DISC)
@example(n_dopants=8, eta=1.0)
@example(n_dopants=8, eta=-1.0)
def test_generations_match_a_rebuild_bit_for_bit(n_dopants, eta):
    n_max = n_dopants.bit_length() - 1
    params = AvalancheParams(n_dopants, eta, n_max)
    start = seeded_register(n_dopants)
    carried = list(itertools.islice(cascade_generations(start, params.eta, (0,)), n_max + 1))
    assert len(carried) == n_max + 1
    for n, state in enumerate(carried):
        want = dense_avalanche(params, n).amps.view(np.uint64)
        assert np.array_equal(state.amps.view(np.uint64), want)
        want = rebuilt(start, params.eta, n, (0,)).amps.view(np.uint64)
        assert np.array_equal(state.amps.view(np.uint64), want)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a_h=st.integers(1, 6), a_v=st.integers(1, 6), eta=UNIT_DISC, delta=UNIT_DISC,
       pol=POLARISATIONS, reference=st.sampled_from(["ground", "no_avalanche"]),
       compute_direct=st.booleans())
@example(a_h=4, a_v=6, eta=1.0, delta=-1j, pol=(0.6, 0.8), reference="ground",
         compute_direct=True)
def test_sweep_records_match_per_generation_records(a_h, a_v, eta, delta, pol,
                                                     reference, compute_direct):
    n_max = min(a_h, a_v).bit_length() - 1
    setup = MeasurementSetup(PhotonPolarisation(*pol), delta, eta, a_h, a_v, n_max)
    sweep = sector_parameter_sweep(setup, reference, compute_direct)
    assert [rec.n for rec in sweep] == list(range(n_max + 1))
    for rec in sweep:
        want = sector_parameter_expectation(setup, rec.n, reference, compute_direct)
        for field in dataclasses.fields(rec):
            got, expected = getattr(rec, field.name), getattr(want, field.name)
            assert bits(got) == bits(expected), (rec.n, field.name, got, expected)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(a_h=st.integers(1, 6), a_v=st.integers(1, 6), eta=UNIT_DISC, delta=UNIT_DISC,
       pol=POLARISATIONS)
@example(a_h=4, a_v=6, eta=1.0, delta=-1j, pol=(0.6, 0.8))
def test_sweep_sandwich_matches_a_gate_by_gate_rebuild(a_h, a_v, eta, delta, pol):
    # the per-generation call reads the sweep, so this rebuild is the
    # reference that holds both of them
    n_max = min(a_h, a_v).bit_length() - 1
    setup = MeasurementSetup(PhotonPolarisation(*pol), delta, eta, a_h, a_v, n_max)
    joint = photoexcite(setup, initial_state(setup))
    for rec in sector_parameter_sweep(setup, compute_direct=True):
        psi = rebuilt(joint, setup.eta, rec.n, setup.seed_sites)
        pointers = [rebuilt(seeded_register(params.n_dopants), params.eta, rec.n, (0,))
                    for params in setup.registers]
        want = _pointer_expectation(setup, psi, pointers)
        assert bits(rec.expectation_direct) == bits(want), (rec.n, rec.expectation_direct, want)


def peak_bytes(call):
    call()  # warm caches, so only the call's own arrays are traced
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_holds_no_more_than_one_generation():
    setup = MeasurementSetup(PhotonPolarisation(math.sqrt(0.7), math.sqrt(0.3)),
                             0.5, 0.6, 8, 8, 3)
    single = peak_bytes(lambda: sector_parameter_expectation(setup, 3, compute_direct=True))
    sweep = peak_bytes(lambda: sector_parameter_sweep(setup, compute_direct=True))
    assert sweep <= single + (64 << 10), (sweep, single)


def test_per_generation_record_holds_no_more_than_a_rebuild():
    setup = MeasurementSetup(PhotonPolarisation(math.sqrt(0.7), math.sqrt(0.3)),
                             0.5, 0.6, 8, 8, 3)
    record = peak_bytes(lambda: sector_parameter_expectation(setup, 3, compute_direct=True))
    rebuild = peak_bytes(lambda: _pointer_expectation(
        setup, evolve(setup, 3), [dense_avalanche(params, 3) for params in setup.registers]))
    assert record <= rebuild + (64 << 10), (record, rebuild)


def test_dense_avalanche_holds_two_and_a_half_states():
    # input and output of one gate plus its quarter-size scratch block
    params = AvalancheParams(16, 0.6, 4)
    state_bytes = 16 << 16
    peak = peak_bytes(lambda: dense_avalanche(params, 4))
    assert peak <= 2.5 * state_bytes + (64 << 10), peak / state_bytes


@pytest.mark.parametrize("offsets", [(0,), (0, 8)])
def test_cascade_builds_its_collision_matrix_once(offsets):
    counted = mock.Mock(wraps=avalanche.scattering_matrix)
    with mock.patch.object(avalanche, "scattering_matrix", counted):
        generations = cascade_generations(seeded_register(16), 0.6, offsets)
        next(generations)
        assert counted.call_count == 1
        assert len(list(itertools.islice(generations, 3))) == 3
    assert counted.call_count == 1


def checks_and_builds(call):
    """(unitarity checks, ``TwoSiteGate`` builds) during ``call()``, counted
    from an empty plan cache: every check is a cache miss."""
    hilbert._gate_plan.cache_clear()
    built = mock.Mock(wraps=TwoSiteGate.__post_init__)
    with mock.patch.object(TwoSiteGate, "__post_init__", lambda gate: built(gate)):
        call()
    return hilbert._gate_plan.cache_info().misses, built.call_count


def test_each_distinct_gate_matrix_is_checked_once():
    # one collision matrix over 1 + 2 + 4 pairs; evolve adds the H and V
    # absorption matrices and runs the 7 pairs in both registers
    assert checks_and_builds(lambda: dense_avalanche(AvalancheParams(8, 0.6, 3), 3)) == (1, 7)
    setup = MeasurementSetup(PhotonPolarisation(0.6, 0.8), 0.5, 0.6, 8, 8, 3)
    assert checks_and_builds(lambda: evolve(setup, 3)) == (3, 16)


def test_evolve_holds_two_and_a_half_joint_states():
    # input and output of one gate plus its scratch block, the start state dropped
    setup = MeasurementSetup(PhotonPolarisation(math.sqrt(0.7), math.sqrt(0.3)),
                             0.5, 0.6, 7, 7, 2)
    state_bytes = 16 * 3 << 14
    peak = peak_bytes(lambda: evolve(setup, 2))
    assert peak <= 2.5 * state_bytes + (64 << 10), peak / state_bytes


@pytest.mark.parametrize("depth", [0, 1, 5, 40])
def test_structured_sweep_folds_each_block_once(depth):
    setup = MeasurementSetup(PhotonPolarisation(0.6, 0.8), 0.5, 0.6, 1 << depth,
                             3 << depth, depth)
    counted = mock.Mock(wraps=avalanche.block_ground_overlap)
    with mock.patch.object(avalanche, "block_ground_overlap", counted):
        sector_parameter_sweep(setup, "no_avalanche")
    assert counted.call_count == depth
    assert calls_made(lambda: sector_parameter_sweep(setup, "ground")) == (0, 0)


def calls_made(call):
    """(gates applied through ``avalanche``, block factors) during ``call()``."""
    gates = mock.Mock(wraps=avalanche.apply_two_site_gate)
    factors = mock.Mock(wraps=avalanche.block_ground_overlap)
    with mock.patch.object(avalanche, "apply_two_site_gate", gates), \
            mock.patch.object(avalanche, "block_ground_overlap", factors):
        call()
    return gates.call_count, factors.call_count


@pytest.mark.parametrize("n", range(4))
def test_each_reader_takes_exactly_generation_n(n):
    # the streams have no depth of their own, so a reader that asks for one
    # generation too many builds it; A = 8 holds generation 3 and no more
    setup = MeasurementSetup(PhotonPolarisation(0.6, 0.8), 0.5, 0.36 + 0.48j, 8, 8, n)
    params = setup.registers[0]
    cascade = (1 << n) - 1  # collisions in generations 1..n of one register
    assert calls_made(lambda: dense_avalanche(params, n)) == (cascade, 0)
    assert calls_made(lambda: overlap_no_avalanche(params, n)) == (0, n)
    assert calls_made(lambda: evolve(setup, n)) == (2 * cascade, 0)
    assert calls_made(lambda: sector_parameter_sweep(setup, "no_avalanche", True)) == \
        (4 * cascade, n)


@pytest.mark.parametrize("sizes", [(2, 8), (8, 2), (3,)])
def test_cascade_refuses_a_generation_past_its_smallest_register(sizes):
    # generation 2 touches 4 electrons per register, more than the smallest
    # holds, so it must be refused before any of its gates: an earlier
    # register's pairs would land in the next register's sites
    if len(sizes) == 2:
        setup = MeasurementSetup(PhotonPolarisation(0.6, 0.8), 0.5, 0.6, *sizes, 1)
        state, offsets = photoexcite(setup, initial_state(setup)), setup.seed_sites
    else:
        state, offsets = seeded_register(*sizes), (0,)
    generations = cascade_generations(state, 0.6, offsets)
    assert len(list(itertools.islice(generations, 2))) == 2  # generations 0 and 1 fit

    def read_generation_2():
        with pytest.raises(ValueError, match="smallest register only has"):
            next(generations)

    assert calls_made(read_generation_2) == (0, 0)


def test_density_terms_refuses_a_generation_past_n_max_before_any_gate():
    # A = 8 holds generation 3, so only the n_max check can refuse it
    setup = MeasurementSetup(PhotonPolarisation(0.6, 0.8), 0.5, 0.6, 8, 8, 2)

    def read_past_n_max():
        with pytest.raises(ValueError, match="exceeds configured n_max"):
            density_terms(setup, setup.n_max + 1)

    assert calls_made(read_past_n_max) == (0, 0)


def folded(eta, n):
    """overlap_no_avalanche as one explicit product over the blocks."""
    result = 1.0 + 0j
    for level in range(1, n + 1):
        result *= block_ground_overlap(level, eta)
    return result


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a_h=st.integers(1, 1 << 12), a_v=st.integers(1, 1 << 12), eta=UNIT_DISC,
       delta=UNIT_DISC, pol=POLARISATIONS,
       reference=st.sampled_from(["ground", "no_avalanche"]))
@example(a_h=8, a_v=1 << 12, eta=1e-170, delta=1.0, pol=(0.6, 0.8), reference="no_avalanche")
@example(a_h=4, a_v=9, eta=complex(-0.0, -0.0), delta=-1j, pol=(0.0, -1.0),
         reference="no_avalanche")
def test_carried_overlaps_keep_the_per_register_bits(a_h, a_v, eta, delta, pol, reference):
    assume(a_h != a_v)
    n_max = min(a_h, a_v).bit_length() - 1
    setup = MeasurementSetup(PhotonPolarisation(*pol), delta, eta, a_h, a_v, n_max)
    overlap = (lambda params, n: 0j) if reference == "ground" else overlap_no_avalanche
    contrast = abs(setup.delta) ** 2 * (abs(setup.pol.h) ** 2 - abs(setup.pol.v) ** 2)
    for rec in sector_parameter_sweep(setup, reference):
        x_h, x_v = (overlap(params, rec.n) for params in setup.registers)
        assert bits(rec.overlap) == bits(x_h) == bits(x_v), rec
        want = float(contrast * (1.0 - abs(x_h * x_v) ** 2))
        assert bits(rec.expectation_formula) == bits(want), (rec, want)
        for params in setup.registers:
            assert bits(overlap_no_avalanche(params, rec.n)) == \
                bits(folded(params.eta, rec.n)), (params, rec.n)
