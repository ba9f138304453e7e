"""Planted defects that ``oracle-check`` must catch.

Each defect replaces one name in every package namespace that binds it,
so no caller keeps the intact function, and the oracle must then report
``cascade_engines`` as failed and exit 4.  The grid must see phases and
the V register's size: a conjugated or swapped edge table fails
``cascade_engines``, a V seed counted from the wrong register fails
``measurement_pointer``.  The engines share no formula: negating the
survival amplitude sqrt(1 - |eta|^2) of either one alone fails
``cascade_engines``.  The dense commutator must fail closed the same
way: a sector product that turns NaN, or a Lanczos step cap too low to
converge, makes ``sector-commutator engine=both`` and ``oracle-check``
exit 4.
"""

import contextlib
import csv
import inspect
import io
import math

import numpy as np
import pytest

from sectorsim import avalanche, cli, measurement, sector
from sectorsim.avalanche import block_ground_overlap
from sectorsim.hilbert import DenseState


def short_overlap(params, n):
    """One block factor short: (1 - |eta|^2)**((n - 1) / 2) from n = 1 on."""
    return complex(math.prod(block_ground_overlap(level, params.eta)
                             for level in range(2, n + 1)))


def shifted_pairs(n):
    """Exciter k paired with k + 2**(n-1) + 1, wrapped into the partners'
    range [2**(n-1), 2**n)."""
    half = 1 << (n - 1)
    return [(k, half + (k + 1) % half) for k in range(half)]


PLANTED = {
    "overlap_no_avalanche": short_overlap,
    "generation_pairs": shifted_pairs,
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_oracle_check_fails_on_planted_defect(name, monkeypatch):
    bound = [module for module in (avalanche, measurement, cli) if hasattr(module, name)]
    for module in bound:
        monkeypatch.setattr(module, name, PLANTED[name])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["oracle-check"])
    assert code == 4
    status = {r["check"]: r["status"] for r in csv.DictReader(out.getvalue().splitlines())}
    assert status["cascade_engines"] == "fail"
    assert "engine disagreement" in err.getvalue()


def edited(function, old, new):
    """``function`` recompiled from its source with ``old`` replaced by ``new``,
    its globals still its module's."""
    source = inspect.getsource(function)
    assert source.count(old) == 1, old
    namespace = {}
    exec(source.replace(old, new), vars(inspect.getmodule(function)), namespace)
    return namespace[function.__name__]


TABLE = "[1.0, 0.0, _survival(params.eta), params.eta]"
CONJUGATED_ETA = edited(avalanche.structured_amplitude, TABLE,
                        "[1.0, 0.0, _survival(params.eta), np.conj(params.eta)]")
SWAPPED_TABLE = edited(avalanche.structured_amplitude, TABLE,
                       "[1.0, 0.0, params.eta, _survival(params.eta)]")

# each plants one defect as (owner, name, value) replacements, and names the
# one oracle check that must then fail
GRID_PLANTS = {
    "conjugated_eta_table": ([(avalanche, "structured_amplitude", CONJUGATED_ETA),
                              (cli, "structured_amplitude", CONJUGATED_ETA)], "cascade_engines"),
    "eta_and_survival_swapped": ([(avalanche, "structured_amplitude", SWAPPED_TABLE),
                                  (cli, "structured_amplitude", SWAPPED_TABLE)],
                                 "cascade_engines"),
    "v_seed_counted_from_v": ([(measurement.MeasurementSetup, "seed_sites",
                                property(lambda setup: (1, 1 + setup.n_dopants_v)))],
                              "measurement_pointer"),
}


@pytest.mark.parametrize("name", sorted(GRID_PLANTS))
def test_oracle_grid_sees_phases_and_register_sizes(name, monkeypatch):
    replacements, failing = GRID_PLANTS[name]
    for owner, attr, value in replacements:
        monkeypatch.setattr(owner, attr, value)
    code, rows, err = _run("oracle-check")
    assert code == 4, err
    assert {r["check"] for r in rows if r["status"] == "fail"} == {failing}


def negated_survival():
    """The structured engine's survival amplitude, negated."""
    survival = avalanche._survival
    return [(avalanche, "_survival", lambda eta: -survival(eta))]


def negated_rotation():
    """The dense gates' own survival amplitude, negated in every gate."""
    rotation = edited(avalanche._rotation, "s = math.sqrt(", "s = -math.sqrt(")
    return [(avalanche, "_rotation", rotation), (measurement, "_rotation", rotation)]


# each negates sqrt(1 - |eta|^2) in one engine only; built per test, so a
# source edit that no longer applies fails its own case alone
ENGINE_LINE_PLANTS = {
    "structured_survival_negated": negated_survival,
    "dense_rotation_survival_negated": negated_rotation,
}


@pytest.mark.parametrize("name", sorted(ENGINE_LINE_PLANTS))
def test_engines_share_no_survival_formula(name, monkeypatch):
    for owner, attr, value in ENGINE_LINE_PLANTS[name]():
        monkeypatch.setattr(owner, attr, value)
    code, rows, err = _run("oracle-check")
    assert code == 4, err
    assert {r["check"] for r in rows if r["status"] == "fail"} == {"cascade_engines"}
    code, _, err = _run("avalanche-sweep", "--set", "engine=both", "--set", "A=8",
                        "--set", "n_max=3")
    assert code == 4, err
    assert "engine disagreement" in err


def leaky_register(n_dopants):
    """A seeded register that leaves 1e-6 on the all-ground configuration."""
    amps = np.zeros(1 << n_dopants, dtype=np.complex128)
    amps[0], amps[1] = 1e-6, math.sqrt(1.0 - 1e-12)
    return DenseState((2,) * n_dopants, amps)


def test_oracle_check_fails_on_all_ground_leakage(monkeypatch):
    # no check reads the all-ground amplitude on its own: it is row 0 of the
    # every-configuration comparison, which must catch the leak by itself
    monkeypatch.setattr(cli, "seeded_register", leaky_register)
    code, rows, err = _run("oracle-check")
    assert code == 4, err
    status = {r["check"]: r for r in rows}
    assert {check for check, r in status.items() if r["status"] == "fail"} == {"cascade_engines"}
    assert float(status["cascade_engines"]["max_abs_error"]) == pytest.approx(1e-6)


def nan_product(family, vec):
    """A sector product that has gone NaN."""
    return np.full_like(vec, np.nan)


# each plants one defect in the dense commutator as (module, name, value)
# replacements, and names the oracle checks that must then fail
COMMUTATOR_PLANTS = {
    "nan_sector_product": ([(sector, "_apply_sector", nan_product),
                            (cli, "_apply_sector", nan_product)],
                           {"sector_algebra", "commutator_decay"}),
    "lanczos_cap_too_low": ([(sector, "_LANCZOS_STEPS", 2)], {"commutator_decay"}),
}


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, list(csv.DictReader(out.getvalue().splitlines())), err.getvalue()


@pytest.mark.parametrize("name", sorted(COMMUTATOR_PLANTS))
def test_dense_commutator_fails_closed(name, monkeypatch):
    replacements, failing = COMMUTATOR_PLANTS[name]
    for module, attr, value in replacements:
        monkeypatch.setattr(module, attr, value)
    code, rows, err = _run("sector-commutator", "--set", "N=5", "--set", "engine=both",
                           "--set", "h_re=0.6", "--set", "v_re=0.8")
    assert code == 4, err
    assert any(math.isnan(float(r["dense_norm"])) for r in rows)
    code, rows, err = _run("oracle-check")
    assert code == 4, err
    status = {r["check"]: r["status"] for r in rows}
    assert {check for check, verdict in status.items() if verdict == "fail"} == failing
