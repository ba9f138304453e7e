"""Planted defects that ``oracle-check`` must catch.

Each defect replaces one name in every package namespace that binds it,
so no caller keeps the intact function, and the oracle must then report
``cascade_engines`` as failed and exit 4.
"""

import contextlib
import csv
import io
import math

import pytest

from sectorsim import avalanche, cli, measurement
from sectorsim.avalanche import block_ground_overlap


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
