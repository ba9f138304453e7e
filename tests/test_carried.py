"""Carried cascades: every generation a sweep reads is built from the one
before, bit-identical to a rebuild from generation 0, and no route keeps
an earlier generation alive while it builds the next."""

import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import UNIT_DISC
from sectorsim.avalanche import (
    AvalancheParams,
    cascade_generations,
    dense_avalanche,
    generation_pairs,
    scattering_gate,
    seeded_register,
)
from sectorsim.hilbert import apply_two_site_gate
from sectorsim.measurement import (
    MeasurementSetup,
    PhotonPolarisation,
    _pointer_expectation,
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
                state = apply_two_site_gate(
                    state, scattering_gate(eta, offset + exciter, offset + partner))
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
    carried = list(cascade_generations(start, params.eta, n_max, (0,)))
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
