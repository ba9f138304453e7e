"""Command-line driver: config parsing, rendering, determinism, exit codes."""

import contextlib
import csv
import importlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import counted_scans
from sectorsim import cli
from sectorsim.hilbert import DenseState, dimension_guard
from sectorsim.cli import (
    ConfigError,
    ExperimentConfig,
    build_config,
    main,
    parse_config_file,
    run_experiment,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_key_value_with_comments(self, tmp_path):
        path = write_config(tmp_path, """
        # cascade sweep
        eta_re = 0.6   # amplitude
        n_max = 3

        A = 8
        """)
        assert parse_config_file(path) == {"eta_re": "0.6", "n_max": "3", "A": "8"}

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError):
            parse_config_file("/nonexistent/run.cfg")

    def test_line_without_equals_rejected(self, tmp_path):
        path = write_config(tmp_path, "eta_re 0.6\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_config("avalanche-sweep", {"bogus": "1"})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            build_config("avalanche-sweep", {"A": "eight"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            build_config("mystery", {})

    def test_engine_and_reference_validated(self):
        with pytest.raises(ConfigError):
            build_config("avalanche-sweep", {"engine": "quantum"})
        with pytest.raises(ConfigError):
            build_config("measurement-sweep", {"reference": "mystery"})

    def test_typed_defaults(self):
        cfg = build_config("avalanche-sweep", {"eta_re": "0.3", "seed": "7"})
        assert cfg.eta == 0.3 + 0j
        assert cfg.seed == 7
        assert cfg.engine == "structured"

    @pytest.mark.parametrize(
        "field", [f.name for f in fields(ExperimentConfig) if f.name != "kind"]
    )
    def test_string_value_coerced_to_annotated_type(self, field):
        default = getattr(ExperimentConfig(), field)
        value = getattr(build_config("avalanche-sweep", {field: str(default)}), field)
        assert type(value) is get_type_hints(ExperimentConfig)[field]
        assert value == default


class TestAvalancheSweep:
    def test_overlap_column_decays_geometrically(self, capsys):
        code, out, err = run_cli(capsys, "avalanche-sweep",
                                 "--set", "eta_re=0.6", "--set", "n_max=5",
                                 "--set", "A=32")
        assert code == 0 and err == ""
        rows = list(csv.DictReader(out.splitlines()))
        assert [r["n"] for r in rows] == ["0", "1", "2", "3", "4", "5"]
        assert [r["M"] for r in rows] == ["1", "2", "4", "8", "16", "32"]
        for row in rows:
            expected = 0.8 ** int(row["n"])
            assert abs(float(row["overlap_abs"]) - expected) <= 1e-12

    def test_both_engine_adds_zero_diff_column(self, capsys):
        code, out, _ = run_cli(capsys, "avalanche-sweep",
                               "--set", "engine=both", "--set", "A=8",
                               "--set", "n_max=3")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert all("abs_diff" in r for r in rows)
        assert all(float(r["abs_diff"]) <= 1e-12 for r in rows)


class TestMeasurementSweep:
    def test_certain_h_photon_reads_plus_one(self, capsys):
        code, out, _ = run_cli(capsys, "measurement-sweep",
                               "--set", "delta_re=1", "--set", "h_re=1",
                               "--set", "v_re=0", "--set", "engine=dense")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        for row in rows:
            assert abs(float(row["expectation_direct"]) - 1.0) <= 1e-10
            assert abs(float(row["expectation_formula"]) - 1.0) <= 1e-12
            assert abs(float(row["limit"]) - 1.0) <= 1e-12

    def test_structured_engine_leaves_direct_empty(self, capsys):
        code, out, _ = run_cli(capsys, "measurement-sweep",
                               "--set", "engine=structured")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert all(row["expectation_direct"] == "nan" for row in rows)

    def test_structured_nan_becomes_json_null(self, capsys):
        code, out, _ = run_cli(capsys, "measurement-sweep",
                               "--set", "engine=structured", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(rec["expectation_direct"] is None
                   for rec in payload["records"])

    @pytest.mark.parametrize("engine", ["structured", "dense"])
    def test_no_avalanche_overlap_column_is_joint_survival(self, capsys, engine):
        # the column is |x_H x_V|, each x being (1 - |eta|^2)**(n/2)
        code, out, _ = run_cli(capsys, "measurement-sweep",
                               "--set", "reference=no_avalanche", "--set", "A_H=4",
                               "--set", "A_V=8", "--set", "n_max=2",
                               "--set", "eta_re=0.36", "--set", "eta_im=0.48",
                               "--set", f"engine={engine}")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert [r["n"] for r in rows] == ["0", "1", "2"]
        for row in rows:
            expected = 0.64 ** int(row["n"])
            assert abs(float(row["overlap_abs"]) - expected) <= 1e-12 * expected

    def test_both_mode_direct_matches_dense_only_run(self, capsys):
        overrides = ["--set", "delta_re=0.5", "--set", "h_re=0.83666002653407555",
                     "--set", "v_re=0.54772255750516607", "--set", "eta_re=0.6"]
        code_a, out_a, _ = run_cli(capsys, "measurement-sweep",
                                   "--set", "engine=dense", *overrides)
        code_b, out_b, _ = run_cli(capsys, "measurement-sweep",
                                   "--set", "engine=both", *overrides)
        assert code_a == 0 and code_b == 0
        rows_a = list(csv.DictReader(out_a.splitlines()))
        rows_b = list(csv.DictReader(out_b.splitlines()))
        for ra, rb in zip(rows_a, rows_b):
            assert ra["expectation_direct"] == rb["expectation_direct"]
            assert ra["expectation_formula"] == rb["expectation_formula"]


class TestOtherKinds:
    def test_sector_commutator_engines_agree(self, capsys):
        code, out, _ = run_cli(capsys, "sector-commutator",
                               "--set", "N=5", "--set", "engine=both",
                               "--set", "h_re=0.70710678118654752",
                               "--set", "v_re=0.70710678118654752")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert [r["N"] for r in rows] == ["2", "3", "4", "5"]
        for row in rows:
            assert abs(float(row["analytic_norm"])
                       - float(row["dense_norm"])) <= 1e-10
            expected = 0.5 / int(row["N"])
            assert abs(float(row["analytic_norm"]) - expected) <= 1e-12

    # |h| |v| of the default polarisation (1, 0) and of (0.6, 0.8i)
    @pytest.mark.parametrize("sets, h_times_v", [
        ((), 0.0),
        (("h_re=0.6", "v_re=0", "v_im=0.8"), 0.48),
    ])
    def test_dense_commutator_at_n12_matches_closed_form(self, capsys, sets, h_times_v):
        argv = ["sector-commutator", "--set", "N=12", "--set", "engine=both"]
        for pair in sets:
            argv += ["--set", pair]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        rows = list(csv.DictReader(out.splitlines()))
        assert [int(r["N"]) for r in rows] == list(range(2, 13))
        for row in rows:
            assert abs(float(row["dense_norm"]) - h_times_v / int(row["N"])) <= 1e-12

    def test_dense_commutator_below_its_rounding_exits_4(self, capsys):
        # the dense route cannot resolve 2e-21 from products of order 1, so
        # it reads NaN and engine=both fails closed
        code, out, err = run_cli(capsys, "sector-commutator", "--set", "N=5",
                                 "--set", "h_re=1e-20", "--set", "v_re=1",
                                 "--set", "engine=both")
        assert code == 4, err
        rows = list(csv.DictReader(out.splitlines()))
        assert [float(r["analytic_norm"]) for r in rows] == pytest.approx(
            [1e-20 / n for n in range(2, 6)], rel=1e-12)
        assert all(math.isnan(float(r["dense_norm"])) for r in rows)

    def test_qnd_demo_probabilities_and_sampling(self, capsys):
        code, out, _ = run_cli(capsys, "qnd-demo",
                               "--set", "h_re=0.83666002653407555",
                               "--set", "v_re=0.54772255750516607",
                               "--set", "shots=20000", "--set", "seed=11")
        assert code == 0
        rows = {r["outcome"]: r for r in csv.DictReader(out.splitlines())}
        assert abs(float(rows["H"]["probability"]) - 0.7) <= 1e-12
        assert abs(float(rows["V"]["probability"]) - 0.3) <= 1e-12
        sigma = math.sqrt(20000 * 0.7 * 0.3) / 20000
        assert abs(float(rows["H"]["sample_frequency"]) - 0.7) <= 3 * sigma

    def test_scales_reference_point(self, capsys):
        code, out, _ = run_cli(capsys, "scales",
                               "--set", "U=2.0", "--set", "Delta=0.5",
                               "--set", "a=1e-6", "--set", "A=10")
        assert code == 0
        row = next(csv.DictReader(out.splitlines()))
        assert float(row["l_over_a"]) == 0.25
        assert float(row["generations"]) == 4.0
        assert float(row["cascade_electrons"]) == 16.0
        assert float(row["work_ev"]) == 5.0

    def test_oracle_check_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        names = {r["check"] for r in rows}
        assert names == {"cascade_engines", "sector_algebra",
                         "commutator_decay", "measurement_pointer"}
        assert all(r["status"] == "ok" for r in rows)
        assert all(float(r["max_abs_error"]) <= float(r["tolerance"])
                   for r in rows)

    def test_oracle_check_nan_error_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "structured_amplitude", lambda st, bits: complex("nan"))
        code, out, err = run_cli(capsys, "oracle-check")
        assert code == 4
        status = {r["check"]: r["status"] for r in csv.DictReader(out.splitlines())}
        assert status["cascade_engines"] == "fail"
        assert "engine disagreement" in err

    def test_oracle_check_ignores_user_keys(self, capsys):
        # every check fixes each key its sweep reads, so only the seed
        # reaches the oracle
        overrides = ["reference=no_avalanche", "engine=structured", "A_H=2", "A_V=3",
                     "n_max=1", "h_re=0", "v_re=1", "delta_re=0.2", "eta_re=0.1",
                     "eta_im=0.2", "N=9"]
        plain = run_cli(capsys, "oracle-check", "--set", "seed=3")
        sets = [arg for pair in overrides for arg in ("--set", pair)]
        assert run_cli(capsys, "oracle-check", "--set", "seed=3", *sets) == plain
        assert plain[0] == 0


class TestEngineRule:
    """structured runs no dense engine, dense and both run it, and only both
    adds abs_diff and gates on it."""

    @pytest.mark.parametrize("engine", cli.ENGINES)
    @pytest.mark.parametrize("kind, dense_column", [
        ("measurement-sweep", "expectation_direct"),
        ("sector-commutator", "dense_norm"),
    ])
    def test_dense_column_and_abs_diff_follow_the_engine(self, capsys, kind, dense_column,
                                                         engine):
        code, out, err = run_cli(capsys, kind, "--set", f"engine={engine}")
        assert code == 0, err
        rows = list(csv.DictReader(out.splitlines()))
        assert all(math.isnan(float(r[dense_column])) == (engine == "structured") for r in rows)
        assert all(("abs_diff" in r) == (engine == "both") for r in rows)

    def test_dense_engine_does_not_gate(self, capsys):
        # the no_avalanche formula differs from the dense sandwich, which
        # exits 4 under both (test_engine_disagreement_exits_4)
        code, out, err = run_cli(capsys, "measurement-sweep", "--set", "engine=dense",
                                 "--set", "reference=no_avalanche", "--set", "delta_re=0.5")
        assert code == 0 and err == ""
        assert "abs_diff" not in out.splitlines()[0]


class TestRendering:
    def test_csv_floats_round_trip_exactly(self, capsys):
        cfg = build_config("avalanche-sweep",
                           {"eta_re": "0.6", "n_max": "4", "A": "16"})
        records, _ = run_experiment(cfg)
        _, out, _ = run_cli(capsys, "avalanche-sweep",
                            "--set", "eta_re=0.6", "--set", "n_max=4",
                            "--set", "A=16")
        rows = list(csv.DictReader(out.splitlines()))
        for row, record in zip(rows, records):
            for key in ("overlap_re", "overlap_im", "overlap_abs"):
                assert float(row[key]) == record[key]

    def test_json_echoes_full_config(self, capsys):
        _, out, _ = run_cli(capsys, "scales", "--format", "json",
                            "--set", "U=3.0")
        payload = json.loads(out)
        assert payload["config"]["kind"] == "scales"
        assert payload["config"]["U"] == 3.0
        assert payload["config"]["seed"] == 12345
        assert len(payload["records"]) == 1

    def test_byte_identical_reruns(self, tmp_path, capsys):
        paths = [str(tmp_path / f"run{i}.csv") for i in (1, 2)]
        for path in paths:
            code, _, _ = run_cli(capsys, "measurement-sweep",
                                 "--set", "engine=both", "--out", path)
            assert code == 0
        first, second = (open(p, "rb").read() for p in paths)
        assert first == second
        assert first.endswith(b"\n")

    def test_byte_identical_json_reruns(self, tmp_path, capsys):
        paths = [str(tmp_path / f"run{i}.json") for i in (1, 2)]
        for path in paths:
            code, _, _ = run_cli(capsys, "qnd-demo", "--format", "json",
                                 "--out", path)
            assert code == 0
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


# every shipped config (the three dual-engine ones set engine=both), then
# those kinds' defaults under engine=both and engine=structured
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
CSV_RUNS = [(path.stem.replace("_", "-"), path, ()) for path in sorted(CONFIG_DIR.glob("*.cfg"))]
CSV_RUNS += [(kind, None, (f"engine={engine}",))
             for kind in ("avalanche-sweep", "measurement-sweep", "sector-commutator")
             for engine in ("both", "structured")]


class TestCsvCells:
    """The CSV writer joins formatted cells with commas and quotes nothing,
    which holds only while no cell carries a comma, quote or line break."""

    @pytest.mark.parametrize("kind, config, sets", CSV_RUNS,
                             ids=["-".join([kind, *sets]) for kind, _, sets in CSV_RUNS])
    def test_csv_reads_back_as_the_formatted_record_values(self, capsys, kind, config, sets):
        pairs = parse_config_file(str(config)) if config else {}
        pairs.update(pair.split("=", 1) for pair in sets)
        records, _ = run_experiment(build_config(kind, pairs))
        argv = [kind, *(["--config", str(config)] if config else []),
                *(arg for pair in sets for arg in ("--set", pair))]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        header = list(records[0])
        assert all(list(record) == header for record in records)
        values = [value for record in records for value in record.values()]
        assert all(isinstance(value, (int, float, str)) for value in values)
        rows = [[cli._format_cell(value) for value in record.values()] for record in records]
        assert all(not set(cell) & set(',"\r\n') for row in [header, *rows] for cell in row)
        assert list(csv.reader(io.StringIO(out, newline=""))) == [header, *rows]

    @pytest.mark.parametrize("value, text", [
        (0.0, "0"),
        (-0.0, "-0"),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (math.nan, "nan"),
        (5e-324, "4.9406564584124654e-324"),
        (0.1, "0.10000000000000001"),
        (np.float64(0.1), "0.10000000000000001"),
        (25.0, "25"),
        (2**64, "18446744073709551616"),
        ("ok", "ok"),
    ])
    def test_format_cell(self, value, text):
        assert cli._format_cell(value) == text


class TestPrecedence:
    def test_set_overrides_config_file(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "eta_re = 0.3\nn_max = 2\n")
        _, out, _ = run_cli(capsys, "avalanche-sweep", "--config", cfg_path,
                            "--set", "eta_re=0.6", "--format", "json")
        payload = json.loads(out)
        assert payload["config"]["eta_re"] == 0.6
        assert payload["config"]["n_max"] == 2
        overlap = payload["records"][1]["overlap_abs"]
        assert abs(overlap - 0.8) <= 1e-12


class TestExitCodes:
    def test_unknown_key_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "avalanche-sweep", "--set", "bogus=1")
        assert code == 2
        assert "config error" in err

    def test_invalid_physics_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "avalanche-sweep", "--set", "eta_re=1.5")
        assert code == 2
        assert "config error" in err

    def test_dimension_guard_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv("SECTORSIM_DIM_GUARD", "16")
        code, _, err = run_cli(capsys, "measurement-sweep",
                               "--set", "engine=dense")
        assert code == 3
        assert "dimension guard" in err

    @pytest.mark.parametrize("key", ["A", "A_H"])
    def test_oversized_register_exits_3(self, capsys, key):
        kind = "avalanche-sweep" if key == "A" else "measurement-sweep"
        code, _, err = run_cli(capsys, kind, "--set", f"{key}=1" + "0" * 400,
                               "--set", "engine=dense")
        assert code == 3
        assert "dimension guard" in err
        assert err.rstrip().endswith(f"guard is {dimension_guard()}")

    def test_engine_disagreement_exits_4(self, capsys):
        # The no-avalanche reference formula deliberately differs from the
        # direct dense sandwich, so 'both' must flag the mismatch.
        code, out, err = run_cli(capsys, "measurement-sweep",
                                 "--set", "engine=both",
                                 "--set", "reference=no_avalanche",
                                 "--set", "delta_re=0.5")
        assert code == 4
        assert "engine disagreement" in err
        assert out.startswith("n,")  # records still emitted for inspection

    def test_nan_disagreement_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "overlap_no_avalanche", lambda params, n: complex("nan"))
        code, _, err = run_cli(capsys, "avalanche-sweep", "--set", "engine=both")
        assert code == 4
        assert "engine disagreement" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("plant, argv, offending", [
        ("structured_amplitude", ("oracle-check",), "max_abs_error"),
        ("overlap_no_avalanche", ("avalanche-sweep", "--set", "engine=both"), "abs_diff"),
    ])
    def test_non_finite_disagreement_exits_4_with_records(self, capsys, monkeypatch, plant,
                                                          argv, offending, value, fmt):
        monkeypatch.setattr(cli, plant, lambda *args: complex(value))
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert code == 4
        assert "engine disagreement" in err
        if fmt == "csv":
            assert list(csv.DictReader(out.splitlines()))
            return
        records = json.loads(out)["records"]
        if plant == "structured_amplitude":
            records = [r for r in records if r["check"] == "cascade_engines"]
        assert records and all(r[offending] is None for r in records)

    @pytest.mark.parametrize("plant, argv, named", [
        (("overlap_no_avalanche", lambda params, n, real=cli.overlap_no_avalanche:
          complex("nan") if n == 2 else real(params, n)),
         ("avalanche-sweep", "--set", "engine=both"), ("n", "2")),
        # cascade_engines comes first and passes, so the record named is the
        # first that fails, not the first
        (("_apply_sector", lambda family, vec: np.full_like(vec, np.nan)),
         ("oracle-check",), ("check", "sector_algebra")),
        (None, ("measurement-sweep", "--set", "engine=both", "--set", "reference=no_avalanche",
                "--set", "delta_re=0.5"), ("n", "0")),
    ], ids=["nan_at_n2", "sector_algebra_nan", "no_avalanche"])
    def test_disagreement_names_the_first_failing_record(self, capsys, monkeypatch, plant,
                                                         argv, named):
        if plant:
            monkeypatch.setattr(cli, *plant)
        code, out, err = run_cli(capsys, *argv)
        assert code == 4
        rows = list(csv.DictReader(out.splitlines()))
        lines = [", ".join(f"{key}={cell}" for key, cell in row.items()) for row in rows]
        # one stderr line, the named row's cells exactly as the CSV prints them
        assert err.startswith("engine disagreement: ") and err.count("\n") == 1, err
        at = lines.index(err[len("engine disagreement: "):-1])
        key, value = named
        assert rows[at][key] == value
        assert all(row.get("status", "ok") == "ok"
                   and float(row.get("abs_diff", 0)) <= cli.DISAGREEMENT_TOL
                   for row in rows[:at])

    @pytest.mark.parametrize("argv", [
        ("avalanche-sweep", "--set", "eta_re=nan", "--set", "n_max=2"),
        ("measurement-sweep", "--set", "delta_re=nan"),
        ("measurement-sweep", "--set", "h_re=1e200"),
        ("qnd-demo", "--set", "h_re=1e200"),
    ])
    def test_nan_input_exits_2(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "config error" in err

    def test_qnd_shots_over_guard_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv("SECTORSIM_DIM_GUARD", "1024")
        code, _, err = run_cli(capsys, "qnd-demo", "--set", "shots=1025")
        assert code == 3
        assert "dimension guard" in err

    @pytest.mark.parametrize("argv", [
        ("--set", "U=1e10"),
        ("--set", "U=1e-300", "--set", "Delta=1e300", "--set", "a=1e300"),
        ("--set", "A=1" + "0" * 400),
    ])
    def test_overflowing_scale_exits_2(self, capsys, argv):
        code, _, err = run_cli(capsys, "scales", "--format", "json", *argv)
        assert code == 2
        assert "config error" in err

    def test_unwritable_output_exits_5(self, capsys, tmp_path):
        target = str(tmp_path / "missing_dir" / "out.csv")
        code, _, err = run_cli(capsys, "avalanche-sweep", "--out", target)
        assert code == 5
        assert "output error" in err

    def test_bad_set_syntax_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "avalanche-sweep", "--set", "eta_re")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_runner_bug_raises_instead_of_exiting_2(self, monkeypatch, fmt):
        # a runner returning no records is a program bug, not bad input, and
        # both formats fail the same way before anything is written
        monkeypatch.setitem(cli._RUNNERS, "scales", lambda cfg: [])
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(cli.NoRecordsError):
            main(["scales", "--format", fmt])
        assert out.getvalue() == ""


FLOAT_KEYS = sorted(k for k, kind in get_type_hints(ExperimentConfig).items() if kind is float)
NON_FINITE = {
    "nan": ["nan", "NaN", "-nan", "+NAN"],
    "inf": ["inf", "+inf", "Infinity", "INF"],
    "-inf": ["-inf", "-Infinity", "-INF"],
}


@pytest.mark.parametrize("value", sorted(NON_FINITE))
@pytest.mark.parametrize("key", FLOAT_KEYS)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_non_finite_float_exits_2(key, value, data):
    spelling = data.draw(st.sampled_from(NON_FINITE[value]), label="spelling")
    kind = data.draw(st.sampled_from(cli.KINDS), label="kind")
    fmt = data.draw(st.sampled_from(["csv", "json"]), label="format")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([kind, "--set", f"{key}={spelling}", "--format", fmt])
    assert code == 2
    assert "config error" in err.getvalue()
    assert out.getvalue() == ""


# --set values: whole numbers up to +-1e30, signed zeros, subnormals, the
# largest doubles, non-finite spellings, amplitudes, route names, garbage
SET_VALUES = st.one_of(
    st.integers(-10**30, 10**30).map(str),
    st.sampled_from(["0", "-0", "0.0", "-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308",
                     "1.7e308", "-1.7e308", "1e308", "nan", "inf", "-inf",
                     "dense", "both", "no_avalanche"]),
    st.floats(-2.0, 2.0).map(repr),
    st.text(max_size=6),
)
SWEEPS = ("avalanche-sweep", "measurement-sweep", "sector-commutator")
SET_PAIRS = st.lists(st.tuples(st.sampled_from(sorted(cli._KEY_TYPES)), SET_VALUES),
                     min_size=1, max_size=2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=st.sampled_from(cli.KINDS), pairs=SET_PAIRS)
@example(kind="avalanche-sweep", pairs=[("eta_re", "1.7e308"), ("eta_im", "1.7e308")])
@example(kind="measurement-sweep", pairs=[("delta_re", "1.7e308"), ("delta_im", "1.7e308")])
@example(kind="avalanche-sweep", pairs=[("n_max", "1" + "0" * 22)])
@example(kind="measurement-sweep", pairs=[("n_max", "1" + "0" * 22)])
@example(kind="sector-commutator", pairs=[("h_re", "1e308")])
def test_any_set_value_gives_a_documented_exit_code(kind, pairs):
    argv = [kind, "--out", "-"]
    for key, value in pairs:
        argv += ["--set", f"{key}={value}"]
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.dict(os.environ, {"SECTORSIM_DIM_GUARD": "4096"}),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5), (code, err.getvalue())
    # the engine rule: only both compares engines in a sweep, so only both,
    # or the oracle check, can report a disagreement
    engine = dict(pairs).get("engine", "structured").strip()
    assert code != 4 or engine == "both" or kind == "oracle-check", (code, err.getvalue())
    if code != 0:
        return
    # structured runs no dense engine, so its dense columns print NaN, and
    # only both adds the abs_diff column
    no_dense = {"expectation_direct", "dense_norm"} if engine == "structured" else set()
    reader = csv.DictReader(io.StringIO(out.getvalue()))
    assert ("abs_diff" in reader.fieldnames) == (engine == "both" and kind in SWEEPS), (
        reader.fieldnames)
    for row in reader:
        for column, cell in row.items():
            try:
                number = float(cell)
            except ValueError:
                continue  # a label such as "ok" or "H"
            assert math.isfinite(number) or column in no_dense, (column, cell)


def _config_built_by(argv):
    """Exit code of ``main(argv)`` and the repr of the config it built,
    None if it built none; no runner runs."""
    built = []

    def record(cfg):
        built.append(repr(cfg))
        return [{"status": "ok"}], None

    with (mock.patch.object(cli, "run_experiment", record),
          contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO())):
        code = main(argv)
    return code, built[0] if built else None


# text that a config line carries unchanged: no line break, no comment mark
LINE_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="\r\n#"), max_size=6)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(cli.KINDS),
       key=st.one_of(st.sampled_from(sorted(cli._KEY_TYPES)), LINE_TEXT),
       value=st.one_of(SET_VALUES.filter(lambda v: not set(v) & set("\r\n#")), LINE_TEXT),
       pad=st.sampled_from(["", " ", "  ", "\t"]))
@example(kind="avalanche-sweep", key="eta_re", value="-0.0", pad=" ")
@example(kind="scales", key="engine", value="a=b", pad="")
@example(kind="measurement-sweep", key="reference", value="no_avalanche", pad="\t")
def test_config_line_and_set_flag_build_the_same_config(tmp_path, kind, key, value, pad):
    # one key = value grammar: the same text as a config-file line and as a
    # --set flag builds the same config, or fails as configuration on both
    text = f"{key}{pad}={pad}{value}"
    from_file = _config_built_by([kind, "--config", write_config(tmp_path, text + "\n")])
    from_flag = _config_built_by([kind, "--set", text])
    assert from_file == from_flag
    assert from_file[0] in (0, 2)


@pytest.mark.parametrize("source", ["file", "flag"])
def test_missing_equals_names_where_and_what(tmp_path, capsys, source):
    argv = (["--config", write_config(tmp_path, "\neta_re 0.6  # amplitude\n")]
            if source == "file" else ["--set", "eta_re 0.6"])
    code, out, err = run_cli(capsys, "avalanche-sweep", *argv)
    where = f"{tmp_path / 'run.cfg'}:2" if source == "file" else "--set"
    shown = "eta_re 0.6  # amplitude" if source == "file" else "eta_re 0.6"
    assert code == 2 and out == ""
    assert f"{where}: expected 'key = value', got {shown!r}" in err


@st.composite
def deep_structured_runs(draw):
    """A sweep kind and its size keys, far past any dense vector: registers
    of up to 2**1000 electrons at depths up to 64, or up to 64 sites."""
    kind = draw(st.sampled_from(SWEEPS))
    if kind == "sector-commutator":
        return kind, {"N": draw(st.integers(2, 64))}
    keys = ("A",) if kind == "avalanche-sweep" else ("A_H", "A_V")
    sets = {key: draw(st.integers(1, 2**1000)) for key in keys}
    deepest = min(64, min(sets.values()).bit_length() - 1)  # 2**n_max <= each size
    return kind, {**sets, "n_max": draw(st.integers(0, deepest))}


# under a guard of 2 amplitudes any dense allocation would exit 3
@settings(max_examples=60, deadline=None, derandomize=True)
@given(run=deep_structured_runs())
@example(run=("avalanche-sweep", {"A": 2**1000, "n_max": 64}))
@example(run=("measurement-sweep", {"A_H": 2**1000, "A_V": 2**1000, "n_max": 64}))
@example(run=("sector-commutator", {"N": 64}))
def test_structured_sweeps_run_no_dense_engine(run):
    kind, sets = run
    argv = [kind, "--set", "engine=structured"]
    for key, value in sets.items():
        argv += ["--set", f"{key}={value}"]
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.dict(os.environ, {"SECTORSIM_DIM_GUARD": "2"}),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        code = main(argv)
    assert code == 0, (code, err.getvalue())
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    assert len(rows) == (sets["N"] - 1 if kind == "sector-commutator" else sets["n_max"] + 1)


@pytest.mark.skipif(shutil.which("simulate") is None,
                    reason="console script not on PATH")
class TestConsoleScript:
    def test_installed_entry_point_runs(self):
        proc = subprocess.run(
            ["simulate", "avalanche-sweep", "--set", "n_max=1"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("n,M,overlap_re")


def test_module_entry_point_runs():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = [sys.executable, "-m", "sectorsim.cli", "avalanche-sweep", "--set"]
    proc = subprocess.run(argv + ["n_max=1"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("n,M,overlap_re")
    proc = subprocess.run(argv + ["bogus=1"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 2, proc.stderr


@pytest.mark.parametrize("sets, code", [
    (("n_max=1",), 0),
    (("bogus=1",), 2),
    (("A=11", "engine=dense"), 3),
])
def test_console_script_target_exits_with_mains_code(sets, code, capsys, monkeypatch):
    # runs the [project.scripts] target as the installer's wrapper does, without an install
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, attr = re.search(r'^simulate = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    target = getattr(importlib.import_module(module), attr)
    argv = ["simulate", "avalanche-sweep"] + [arg for item in sets for arg in ("--set", item)]
    monkeypatch.setattr(sys, "argv", argv)
    monkeypatch.setenv("SECTORSIM_DIM_GUARD", "1024")
    with pytest.raises(SystemExit) as exc:
        sys.exit(target())
    assert exc.value.code == code
    if code == 0:
        assert capsys.readouterr().out.startswith("n,M,overlap_re")


# the shipped runs, and the 8/8 dense measurement sweep whatever its config says
TRUSTED_RUNS = [[path.stem.replace("_", "-"), "--config", str(path)] for path in
                sorted(CONFIG_DIR.glob("*.cfg"))] + [
    ["measurement-sweep", "--set", "A_H=8", "--set", "A_V=8", "--set", "n_max=3",
     "--set", "engine=both"]]


def test_no_run_validates_a_state_or_scans_a_joint_state(monkeypatch):
    # every dense state a run builds is package-built, so none passes through
    # DenseState's validation, and the 3 * 2**16-amplitude joint state of the
    # 8/8 sweep is never scanned: only the photon ket is
    original = DenseState.__post_init__
    validated = []

    def counting(self):
        validated.append(self.dims)
        original(self)

    monkeypatch.setattr(DenseState, "__post_init__", counting)
    with counted_scans() as scan:
        for argv in TRUSTED_RUNS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
    assert validated == []
    assert max(call.args[0].size for call in scan.call_args_list) == 3
