"""Input guards fail closed: a NaN in any number a constructor checks is
rejected, and so is a non-integral basis label."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorsim.avalanche import AvalancheParams, structured_amplitude, structured_avalanche
from sectorsim.hilbert import TwoSiteGate, flat_index
from sectorsim.measurement import MeasurementSetup, PhotonPolarisation
from sectorsim.sector import ElementaryFamily, ProductState

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
