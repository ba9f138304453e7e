"""Input guards fail closed: a NaN in any number a constructor checks is
rejected, and so is a non-integral basis label, size or depth.  An
amplitude a rounding error above 1 is projected onto the unit circle, the
same for both engines.
Every dense route refuses a request beyond the dimension guard before it
allocates."""

import cmath
import contextlib
import functools
import io
import json
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from sectorsim.avalanche import (
    ETA_TOL,
    AvalancheParams,
    block_ground_overlap,
    dense_avalanche,
    generation_pairs,
    ground_register,
    overlap_no_avalanche,
    seeded_register,
    structured_amplitude,
    structured_avalanche,
)
from sectorsim.cli import main
from sectorsim.hilbert import (
    DenseState,
    DimensionLimitError,
    TwoSiteGate,
    basis_state,
    dimension_guard,
    flat_index,
    tensor_product,
)
from sectorsim.measurement import (
    MeasurementSetup,
    PhotonPolarisation,
    density_terms,
    evolve,
    physical_scales,
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
)

# constructor taking a flat list of complex components, and valid components
CASES = {
    "avalanche_params": (lambda z: AvalancheParams(4, z[0], 2), [0.6]),
    "measurement_setup": (
        lambda z: MeasurementSetup(PhotonPolarisation(z[0], z[1]), z[2], z[3], 2, 2, 1),
        [0.6, 0.8j, 0.5, 0.6],
    ),
    "elementary_family": (
        lambda z: ElementaryFamily((np.array(z[:2]), np.array(z[2:]))),
        [0.6, 0.8j, 1.0, 0.0],
    ),
    "product_state": (
        lambda z: ProductState((np.array(z[:2]), np.array(z[2:]))),
        [0.6, 0.8j, 1.0, 0.0],
    ),
    "two_site_gate": (
        lambda z: TwoSiteGate((0, 1), np.reshape(z, (4, 4))),
        np.eye(4).ravel().tolist(),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_nan_in_any_component_is_rejected(name, data):
    build, valid = CASES[name]
    build(valid)
    k = data.draw(st.integers(min_value=0, max_value=len(valid) - 1))
    nan = data.draw(st.sampled_from([math.nan, -math.nan]))
    z = [complex(c) for c in valid]
    if data.draw(st.booleans()):
        z[k] = complex(nan, z[k].imag)
    else:
        z[k] = complex(z[k].real, nan)
    with pytest.raises(ValueError):
        build(z)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_non_integral_label_is_rejected(data):
    n = data.draw(st.integers(min_value=0, max_value=2))
    n_dopants = data.draw(st.integers(min_value=1 << n, max_value=6))
    labels = data.draw(st.lists(st.integers(0, 1), min_size=n_dopants, max_size=n_dopants))
    k = data.draw(st.integers(min_value=0, max_value=n_dopants - 1))
    bad = data.draw(st.floats().filter(lambda x: not x.is_integer()))
    row = np.array(labels, dtype=np.float64)
    row[k] = bad
    with pytest.raises(ValueError, match="integers"):
        flat_index((2,) * n_dopants, row.tolist())
    state = structured_avalanche(AvalancheParams(n_dopants, 0.6, n), n)
    with pytest.raises(ValueError, match="0 \\(ground\\) or 1"):
        structured_amplitude(state, row)
    batch = np.zeros((3, n_dopants))
    batch[data.draw(st.integers(min_value=0, max_value=2))] = row
    with pytest.raises(ValueError, match="0 \\(ground\\) or 1"):
        structured_amplitude(state, batch)


# each takes one size, depth or index and accepts the integers 2 and 3
WHOLE_NUMBER_INPUTS = {
    "AvalancheParams.n_dopants": lambda x: AvalancheParams(x, 0.6, 0),
    "AvalancheParams.n_max": lambda x: AvalancheParams(8, 0.6, x),
    "MeasurementSetup.n_max": lambda x: MeasurementSetup(
        PhotonPolarisation(1.0, 0.0), 1.0, 0.6, 8, 8, x),
    "structured_avalanche": lambda x: structured_avalanche(AvalancheParams(8, 0.6, 3), x),
    "dense_avalanche": lambda x: dense_avalanche(AvalancheParams(8, 0.6, 3), x),
    "overlap_no_avalanche": lambda x: overlap_no_avalanche(AvalancheParams(8, 0.6, 3), x),
    "generation_pairs": generation_pairs,
    "block_ground_overlap": lambda x: block_ground_overlap(x, 0.6),
    "ground_register": ground_register,
    "seeded_register": seeded_register,
    "basis_state": lambda x: basis_state((x, 2), (0, 0)),
    "flat_index": lambda x: flat_index((x, 2), (0, 0)),
    "TwoSiteGate": lambda x: TwoSiteGate((0, x), np.eye(4)),
    "qnd_sample": lambda x: qnd_sample(PhotonPolarisation(1.0, 0.0), x, 7),
    "physical_scales": lambda x: physical_scales(1.0, 0.5, 1e-9, x),
}


@pytest.mark.parametrize("name", sorted(WHOLE_NUMBER_INPUTS))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    whole=st.integers(min_value=2, max_value=3),
    bad=st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.floats(min_value=-8.0, max_value=8.0).filter(lambda x: not x.is_integer()),
    ),
)
@example(whole=2, bad=2.5)
def test_non_integral_size_or_depth_is_rejected(name, whole, bad):
    call = WHOLE_NUMBER_INPUTS[name]
    for value in (whole, float(whole), np.int64(whole)):
        call(value)
    with pytest.raises(ValueError, match="integers"):
        call(bad)


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    eps=st.floats(min_value=0.0, max_value=ETA_TOL, exclude_min=True),
    phase=st.floats(min_value=-math.pi, max_value=math.pi),
)
@example(eps=8e-13, phase=0.0)
@example(eps=5e-13, phase=0.5273)  # here x / |x| lands an ulp outside the circle
def test_amplitude_just_above_one_is_accepted_by_both_engines(eps, phase):
    x = cmath.rect(1.0 + eps, phase)
    assume(1.0 < abs(x) <= 1.0 + ETA_TOL)
    assert abs(AvalancheParams(4, x, 2).eta) <= 1.0
    setup = MeasurementSetup(PhotonPolarisation(1.0, 0.0), x, x, 4, 4, 2)
    assert abs(setup.eta) <= 1.0
    assert abs(setup.delta) <= 1.0
    amp = ("--set", f"eta_re={x.real!r}", "--set", f"eta_im={x.imag!r}")
    code, _, err = _cli("avalanche-sweep", *amp, "--set", "A=4", "--set", "n_max=2",
                        "--set", "engine=both")
    assert code == 0, err
    code, out, err = _cli("measurement-sweep", *amp, "--set", f"delta_re={x.real!r}",
                          "--set", f"delta_im={x.imag!r}", "--set", "engine=both",
                          "--format", "json")
    assert code == 0, err
    for record in json.loads(out)["records"]:
        assert record["expectation_direct"] <= 1.0 + 1e-15


def _register(sites):
    return basis_state((2,) * sites, (0,) * sites)


def _setup(n_dopants_h, n_dopants_v):
    return MeasurementSetup(PhotonPolarisation(1.0, 0.0), 1.0, 0.6,
                            n_dopants_h, n_dopants_v, 2)


def _family(sites):
    return ElementaryFamily((np.array([1.0, 0.0]),) * sites)


def _one_modification_action(sites):
    state = ProductState((np.array([0.6, 0.8]),) + (np.array([1.0, 0.0]),) * (sites - 1))
    return sector_apply(_family(sites), state)


# each builds its (small) inputs, then returns the call that asks for ~2**20
OVERSIZED = {
    "basis_state": lambda: functools.partial(_register, 20),
    "tensor_product": lambda: functools.partial(tensor_product, _register(10), _register(10)),
    "dense_avalanche": lambda: functools.partial(
        dense_avalanche, AvalancheParams(20, 0.6, 2), 2),
    "evolve": lambda: functools.partial(evolve, _setup(9, 9), 2),
    "sector_parameter_expectation": lambda: functools.partial(
        sector_parameter_expectation, _setup(9, 9), 2, compute_direct=True),
    "density_terms": lambda: functools.partial(density_terms, _setup(20, 4), 2),
    "dense_product_state": lambda: functools.partial(
        dense_product_state, (np.array([1.0, 0.0]),) * 20),
    "dense_action": lambda: functools.partial(dense_action, _one_modification_action(20)),
    "dense_sector_operator": lambda: functools.partial(dense_sector_operator, _family(10)),
    "commutator_norm": lambda: functools.partial(
        commutator_norm, _family(10), _family(10), method="dense"),
    "qnd_sample": lambda: functools.partial(
        qnd_sample, PhotonPolarisation(1.0, 0.0), 1 << 20, 7),
    # registers whose per-site tuple alone would take 80 MB
    "ground_register_1e7": lambda: functools.partial(ground_register, 10**7),
    "seeded_register_1e7": lambda: functools.partial(seeded_register, 10**7),
    "dense_avalanche_1e7": lambda: functools.partial(
        dense_avalanche, AvalancheParams(10**7, 0.6, 2), 2),
    # site lists whose full size has more than 4300 digits
    "basis_state_20000_sites": lambda: functools.partial(
        basis_state, (2,) * 20000, (0,) * 20000),
    "DenseState_20000_sites": lambda: functools.partial(
        DenseState, (2,) * 20000, np.zeros(2)),
}


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_oversized_dense_request_refused_before_allocating(name, monkeypatch):
    monkeypatch.setenv("SECTORSIM_DIM_GUARD", "1024")
    call = OVERSIZED[name]()
    with traced_peak() as traced, pytest.raises(DimensionLimitError, match="guard is 1024"):
        call()
    assert traced.peak < 1 << 20


# each would overflow double precision inside the check meant to reject it
OVERFLOWING = {
    "PhotonPolarisation": lambda: PhotonPolarisation(1e200, 0),
    "AvalancheParams": lambda: AvalancheParams(8, 10**400, 2),
    "MeasurementSetup": lambda: MeasurementSetup(
        PhotonPolarisation(1.0, 0.0), complex(1.7e308, 1.7e308), 0.6, 2, 2, 1),
    "physical_scales": lambda: physical_scales(2.0, 0.5, 1e-6, 10**400),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_overflowing_input_is_rejected(name):
    with pytest.raises(ValueError):
        OVERFLOWING[name]()


@pytest.mark.parametrize("vectors", [
    [],
    [np.eye(2)],
    [np.array([1.0, 0.0]), np.eye(2)],
    [np.zeros(0)],
    [np.ones(2)] * 12 + [np.zeros(0)],
], ids=["no_sites", "matrix", "vector_then_matrix", "empty", "empty_after_twelve"])
def test_dense_product_state_needs_one_vector_per_site(vectors):
    with pytest.raises(ValueError, match="one vector per site"):
        dense_product_state(vectors)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n_dopants=st.integers(1, 64), n_max=st.integers(0, 10**30))
@example(n_dopants=8, n_max=3)
@example(n_dopants=8, n_max=10**6)
@example(n_dopants=8, n_max=10**22)
def test_depth_bound_is_checked_without_building_two_to_the_depth(n_dopants, n_max):
    n_max = max(n_max, n_dopants.bit_length())  # the shallowest refused depth and up
    builds = (lambda: AvalancheParams(n_dopants, 0.6, n_max),
              lambda: MeasurementSetup(PhotonPolarisation(1.0, 0.0), 1.0, 0.6,
                                       n_dopants, n_dopants, n_max))
    for build in builds:
        with traced_peak() as traced, pytest.raises(ValueError, match="register only has"):
            build()
        assert traced.peak < 64 << 10


def test_generation_pairs_refuses_a_depth_past_the_guard_before_building():
    # 10**22 first: a build without the bound fails on it at once, before
    # n = 40 could try to list 2**39 pairs
    for n in (10**22, 40):
        with (traced_peak() as traced,
              pytest.raises(DimensionLimitError, match=f"generation {n} fires")):
            generation_pairs(n)
        assert traced.peak < 64 << 10


def test_generation_pairs_admits_no_list_larger_than_the_guard_in_amplitudes(monkeypatch):
    guard = 1 << 14
    monkeypatch.setenv("SECTORSIM_DIM_GUARD", str(guard))
    deepest = 1
    while True:
        try:
            generation_pairs(deepest + 1)
        except DimensionLimitError:
            break
        deepest += 1
    with traced_peak() as traced:
        generation_pairs(deepest)
    assert traced.peak < 16 * guard, (deepest, traced.peak)
    with pytest.raises(DimensionLimitError, match=f"generation {deepest + 1} fires"):
        generation_pairs(deepest + 1)


def _under_guard(value, call):
    with mock.patch.dict(os.environ, {"SECTORSIM_DIM_GUARD": value}):
        return call()


# each call raises a ValueError whose message holds the fragment; each
# argument list makes the CLI exit with the code
REFUSALS = {
    "no_dopants": (lambda: AvalancheParams(0, 0.6, 0), "at least one dopant"),
    "negative_depth": (lambda: AvalancheParams(4, 0.6, -1), "generation count must be >= 0"),
    "negative_generation": (lambda: dense_avalanche(AvalancheParams(4, 0.6, 2), -1),
                            "generation must be >= 0"),
    "negative_block_level": (lambda: block_ground_overlap(-1, 0.6), "block level must be >= 0"),
    "guard_below_two": (lambda: _under_guard("1", dimension_guard), "must be >= 2"),
    "basis_state_without_sites": (lambda: basis_state((), ()), "at least one site"),
    "gate_on_negative_site": (lambda: TwoSiteGate((-1, 0), np.eye(4)), "non-negative"),
    "non_square_gate": (lambda: TwoSiteGate((0, 1), np.ones((4, 2))), "must be square"),
    "no_shots": (lambda: qnd_sample(PhotonPolarisation(1.0, 0.0), 0, 7), "at least one shot"),
    "one_level_site": (lambda: ElementaryFamily((np.array([1.0]),)), "dimension >= 2"),
    "matrix_site": (lambda: ElementaryFamily((np.eye(2),)), "dimension >= 2"),
    "family_without_sites": (lambda: ElementaryFamily(()), "at least one site"),
    "empty_action": (lambda: dense_action(()), "empty action"),
    "families_over_different_sites": (lambda: commutator_norm(_family(2), _family(3)),
                                      "different sites"),
    "commutator_of_one_site": (("sector-commutator", "--set", "N=1"), 2),
    "help": (("--help",), 0),
    "unknown_kind": (("no-such-kind",), 2),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_reaches_its_check(name):
    call, expected = REFUSALS[name]
    if isinstance(expected, int):
        assert _cli(*call)[0] == expected
    else:
        with pytest.raises(ValueError, match=expected):
            call()
