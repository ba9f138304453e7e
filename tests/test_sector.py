"""Sector-parameter algebra against dense-operator and eigenvalue oracles."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_qubit, random_state_vector
from sectorsim.hilbert import DimensionLimitError
from sectorsim.sector import (
    ElementaryFamily,
    ProductState,
    _apply_sector,
    commutator_norm,
    dense_action,
    dense_product_state,
    dense_sector_operator,
    modified_sites,
    sector_apply,
    sector_expectation,
)

KET0 = np.array([1.0, 0.0], dtype=np.complex128)
KET1 = np.array([0.0, 1.0], dtype=np.complex128)
PLUS = np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)


def uniform_family(vec, n_sites):
    return ElementaryFamily(tuple(vec for _ in range(n_sites)))


def qubit_commutator_norm_eigen(phi, chi):
    """Independent 2x2 oracle: |[P, Q]| from eigenvalues of i[P, Q]."""
    p = np.outer(phi, phi.conj())
    q = np.outer(chi, chi.conj())
    return float(np.max(np.abs(np.linalg.eigvalsh(1j * (p @ q - q @ p)))))


class TestValidation:
    def test_unnormalized_family_rejected(self):
        with pytest.raises(ValueError):
            ElementaryFamily((np.array([1.0, 1.0]),))

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError):
            ProductState((np.array([0.5, 0.5]),))

    def test_site_count_mismatch_rejected(self):
        family = uniform_family(KET0, 3)
        state = ProductState((KET0, KET0))
        with pytest.raises(ValueError):
            sector_expectation(family, state)


class TestModifiedSites:
    def test_defining_state_has_none(self):
        family = uniform_family(KET0, 4)
        state = ProductState(tuple(family.phi))
        assert modified_sites(family, state) == ()

    def test_detects_changed_sites(self):
        family = uniform_family(KET0, 4)
        psi = [KET0, KET1, KET0, PLUS]
        state = ProductState(tuple(psi))
        assert modified_sites(family, state) == (1, 3)


class TestSectorExpectation:
    def test_defining_state_gives_one(self):
        family = uniform_family(PLUS, 5)
        assert sector_expectation(family, ProductState(tuple(family.phi))) == 1.0

    def test_one_orthogonal_replacement_n4(self):
        family = uniform_family(KET0, 4)
        psi = [KET0, KET0, KET1, KET0]
        assert abs(sector_expectation(family, ProductState(tuple(psi))) - 0.75) <= 1e-15

    def test_half_overlap_replacement_n2(self):
        # replaced site overlaps the family state with amplitude 1/sqrt(2)
        family = uniform_family(KET0, 2)
        state = ProductState((PLUS, KET0))
        assert abs(sector_expectation(family, state) - 0.75) <= 1e-15

    def test_bounded_by_modification_count(self):
        rng = np.random.default_rng(21)
        for n_sites in range(1, 9):
            family = ElementaryFamily(tuple(random_qubit(rng) for _ in range(n_sites)))
            psi = list(family.phi)
            n_mod = int(rng.integers(0, n_sites + 1))
            for alpha in rng.choice(n_sites, size=n_mod, replace=False):
                psi[alpha] = random_qubit(rng)
            state = ProductState(tuple(psi))
            value = sector_expectation(family, state)
            m = len(modified_sites(family, state))
            assert 0.0 - 1e-12 <= value <= 1.0 + 1e-12
            assert abs(value - 1.0) <= m / n_sites + 1e-12


class TestSectorApply:
    def test_unmodified_state_single_term(self):
        family = uniform_family(KET0, 3)
        state = ProductState(tuple(family.phi))
        terms = sector_apply(family, state)
        assert len(terms) == 1
        coef, term_state = terms[0]
        assert coef == 1.0
        assert term_state is state

    def test_single_modification_two_terms(self):
        family = uniform_family(KET0, 4)
        state = ProductState((KET0, PLUS, KET0, KET0))
        terms = sector_apply(family, state)
        assert len(terms) == 2
        passthrough, replaced = terms
        assert abs(passthrough[0] - 0.75) <= 1e-15
        assert abs(replaced[0] - (1.0 / math.sqrt(2.0)) / 4.0) <= 1e-15
        assert np.array_equal(replaced[1].psi[1], KET0)

    def test_orthogonal_modifications_collapse_to_passthrough(self):
        family = uniform_family(KET0, 5)
        state = ProductState((KET1, KET0, KET1, KET0, KET0))
        terms = sector_apply(family, state)
        assert len(terms) == 1
        assert abs(terms[0][0] - (1.0 - 2.0 / 5.0)) <= 1e-15

    def test_fully_orthogonal_state_annihilated(self):
        family = uniform_family(KET0, 2)
        state = ProductState((KET1, KET1))
        assert sector_apply(family, state) == ()


class TestDenseSectorOperator:
    def test_single_site_is_projector(self):
        family = ElementaryFamily((PLUS,))
        op = dense_sector_operator(family)
        assert np.max(np.abs(op - np.outer(PLUS, PLUS.conj()))) <= 1e-15

    def test_two_site_diagonal(self):
        family = uniform_family(KET0, 2)
        op = dense_sector_operator(family)
        assert np.max(np.abs(op - np.diag([1.0, 0.5, 0.5, 0.0]))) <= 1e-15

    def test_hermitian_with_spectrum_in_unit_interval(self):
        rng = np.random.default_rng(22)
        for n_sites in (2, 3, 5):
            family = ElementaryFamily(tuple(random_qubit(rng) for _ in range(n_sites)))
            op = dense_sector_operator(family)
            assert np.max(np.abs(op - op.conj().T)) <= 1e-12
            eigs = np.linalg.eigvalsh(op)
            assert eigs.min() >= -1e-10
            assert eigs.max() <= 1.0 + 1e-10

    def test_defining_state_is_eigenvector(self):
        rng = np.random.default_rng(23)
        family = ElementaryFamily(tuple(random_qubit(rng) for _ in range(6)))
        op = dense_sector_operator(family)
        vec = dense_product_state(family.phi)
        assert np.max(np.abs(op @ vec - vec)) <= 1e-12

    def test_operator_guard(self, monkeypatch):
        monkeypatch.setenv("SECTORSIM_DIM_GUARD", str(2 ** 10))
        family = uniform_family(KET0, 8)
        with pytest.raises(DimensionLimitError):
            dense_sector_operator(family)


class TestOracleEquivalence:
    @pytest.mark.parametrize("n_sites", range(1, 9))
    def test_expectation_and_action_match_dense(self, n_sites):
        rng = np.random.default_rng(100 + n_sites)
        for n_mod in range(n_sites + 1):
            family = ElementaryFamily(tuple(random_qubit(rng) for _ in range(n_sites)))
            psi = list(family.phi)
            for alpha in rng.choice(n_sites, size=n_mod, replace=False):
                psi[alpha] = random_qubit(rng)
            state = ProductState(tuple(psi))
            op = dense_sector_operator(family)
            vec = dense_product_state(state.psi)
            sandwich = float(np.real(np.vdot(vec, op @ vec)))
            assert abs(sector_expectation(family, state) - sandwich) <= 1e-12
            expanded = dense_action(sector_apply(family, state)) if sector_apply(
                family, state) else np.zeros_like(vec)
            assert np.max(np.abs(expanded - op @ vec)) <= 1e-12

    def test_mixed_dimension_sites(self):
        rng = np.random.default_rng(31)
        family = ElementaryFamily((random_qubit(rng), random_qubit(rng, 3), random_qubit(rng)))
        psi = list(family.phi)
        psi[1] = random_qubit(rng, 3)
        state = ProductState(tuple(psi))
        op = dense_sector_operator(family)
        vec = dense_product_state(state.psi)
        assert abs(sector_expectation(family, state)
                   - float(np.real(np.vdot(vec, op @ vec)))) <= 1e-12


class TestCommutatorNorm:
    def test_identical_families_commute(self):
        family = uniform_family(PLUS, 4)
        assert commutator_norm(family, family) <= 1e-15
        assert commutator_norm(family, family, method="dense") <= 1e-12

    def test_uniform_half_overlap_n5(self):
        family_a = uniform_family(KET0, 5)
        family_b = uniform_family(PLUS, 5)
        assert abs(commutator_norm(family_a, family_b) - 0.1) <= 1e-15
        assert abs(commutator_norm(family_a, family_b, method="dense") - 0.1) <= 1e-10

    def test_matches_single_site_eigen_oracle(self):
        rng = np.random.default_rng(41)
        phi = random_qubit(rng)
        chi = random_qubit(rng)
        per_site = qubit_commutator_norm_eigen(phi, chi)
        t = abs(np.vdot(phi, chi))
        assert abs(per_site - t * math.sqrt(max(0.0, 1.0 - t * t))) <= 1e-12
        for n_sites in (2, 4):
            family_a = uniform_family(phi, n_sites)
            family_b = uniform_family(chi, n_sites)
            assert abs(commutator_norm(family_a, family_b) - per_site / n_sites) <= 1e-12

    @pytest.mark.parametrize("n_sites", [2, 3, 4, 5])
    def test_analytic_matches_dense_even_for_varied_families(self, n_sites):
        rng = np.random.default_rng(50 + n_sites)
        family_a = ElementaryFamily(tuple(random_qubit(rng) for _ in range(n_sites)))
        family_b = ElementaryFamily(tuple(random_qubit(rng) for _ in range(n_sites)))
        analytic = commutator_norm(family_a, family_b)
        dense = commutator_norm(family_a, family_b, method="dense")
        assert abs(analytic - dense) <= 1e-10

    def test_doubling_sites_halves_norm(self):
        rng = np.random.default_rng(61)
        phi, chi = random_qubit(rng), random_qubit(rng)
        small = commutator_norm(uniform_family(phi, 3), uniform_family(chi, 3))
        large = commutator_norm(uniform_family(phi, 6), uniform_family(chi, 6))
        assert abs(large - small / 2.0) <= 1e-14

    def test_unknown_method_rejected(self):
        family = uniform_family(KET0, 2)
        with pytest.raises(ValueError):
            commutator_norm(family, family, method="magic")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 31),
    n_sites=st.integers(min_value=1, max_value=6),
)
def test_expectation_agrees_with_dense_sandwich(seed, n_sites):
    rng = np.random.default_rng(seed)
    family = ElementaryFamily(tuple(random_qubit(rng) for _ in range(n_sites)))
    psi = tuple(
        random_qubit(rng) if rng.random() < 0.5 else family.phi[alpha]
        for alpha in range(n_sites)
    )
    state = ProductState(psi)
    op = dense_sector_operator(family)
    vec = dense_product_state(state.psi)
    assert abs(sector_expectation(family, state)
               - float(np.real(np.vdot(vec, op @ vec)))) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 31),
    dims=st.lists(st.integers(min_value=2, max_value=3), min_size=1, max_size=6),
)
def test_contraction_matches_dense_operator(seed, dims):
    rng = np.random.default_rng(seed)
    family = ElementaryFamily(tuple(random_qubit(rng, d) for d in dims))
    vec = random_state_vector(math.prod(dims), rng) * rng.uniform(0.5, 4.0)
    want = dense_sector_operator(family) @ vec
    assert np.max(np.abs(_apply_sector(family, vec) - want)) <= 1e-13


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 31),
    n_sites=st.integers(min_value=1, max_value=8),
)
def test_lanczos_norm_matches_matrix_spectral_norm(seed, n_sites):
    rng = np.random.default_rng(seed)
    family_a = ElementaryFamily(tuple(random_qubit(rng) for _ in range(n_sites)))
    family_b = ElementaryFamily(tuple(random_qubit(rng) for _ in range(n_sites)))
    op_a, op_b = dense_sector_operator(family_a), dense_sector_operator(family_b)
    want = float(np.linalg.norm(op_a @ op_b - op_b @ op_a, 2))
    assert abs(commutator_norm(family_a, family_b, method="dense") - want) <= 1e-12


def test_one_site_product_state_is_not_the_callers_vector():
    vec = PLUS.copy()
    out = dense_product_state([vec])
    assert out is not vec and not np.shares_memory(out, vec)
    out[0] = 0.0
    assert vec.tobytes() == PLUS.tobytes()


def test_families_and_product_states_keep_read_only_copies():
    # a write into the caller's vector after validation cannot undo the
    # normalisation the constructor checked: the expectation stays 0.36
    vec, ket = np.array([0.6, 0.8], dtype=np.complex128), KET0.copy()
    family, state = ElementaryFamily((ket,)), ProductState((vec,))
    vec[0] = 3.0
    ket[:] = KET1
    assert abs(sector_expectation(family, state) - 0.36) <= 1e-15
    for held in family.phi + state.psi:
        assert not held.flags.writeable


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    log_h=st.floats(min_value=-150.0, max_value=0.0),
    n_sites=st.integers(min_value=2, max_value=6),
    phase=st.floats(min_value=-math.pi, max_value=math.pi),
)
@example(log_h=-13.0, n_sites=2, phase=0.0)  # 96% low before the tests were relative
@example(log_h=-20.0, n_sites=5, phase=0.0)  # a norm of the rounding, 2e2 times too high
def test_dense_commutator_resolves_a_tiny_norm_or_returns_nan(log_h, n_sites, phase):
    # |0> against (h e^{i phase}, 1), normalised as the CLI does: the dense
    # route matches the analytic norm h / (N (1 + h^2)) or declines
    other = np.array([10.0 ** log_h * cmath.rect(1.0, phase), 1.0], dtype=np.complex128)
    other /= np.linalg.norm(other)
    family_a, family_b = uniform_family(KET0, n_sites), uniform_family(other, n_sites)
    analytic = commutator_norm(family_a, family_b)
    dense = commutator_norm(family_a, family_b, method="dense")
    assert math.isnan(dense) or abs(dense - analytic) <= 1e-8 * analytic
