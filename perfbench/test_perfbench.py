"""Self-tests of the benchmark's own code.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from sectorsim import avalanche, hilbert  # noqa: E402


def first_job(workload: str, job_type: str, **sizes) -> W.Job:
    for job in W.make_jobs(workload, 3, 4 * len(W.CYCLES[workload])):
        if job.type == job_type and all(job.get(k) == v for k, v in sizes.items()):
            return job
    raise LookupError(job_type)


def failures_of(job: W.Job, result) -> list:
    """Run a job through run.run_pass with its output replaced by ``result``."""
    failures = []
    original = W.execute
    W.execute = lambda job, inputs: result
    try:
        run.run_pass(W, [job], failures)
    finally:
        W.execute = original
    return failures


# -- generator ---------------------------------------------------------------

@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_generator_is_a_function_of_the_seed(workload):
    n = 3 * len(W.CYCLES[workload])
    assert W.make_jobs(workload, 7, n) == W.make_jobs(workload, 7, n)
    assert W.make_warmups(workload, 7) == W.make_warmups(workload, 7)
    assert W.make_jobs(workload, 7, n) != W.make_jobs(workload, 8, n)
    assert [W.prepare(j) for j in W.make_jobs(workload, 7, 2)
            if j.type != "structured-amplitudes"] == \
        [W.prepare(j) for j in W.make_jobs(workload, 7, 2) if j.type != "structured-amplitudes"]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_every_cycle_holds_the_same_job_mix(workload):
    cycle = W.CYCLES[workload]
    want = sorted((t, sorted(s.items())) for t, s in cycle)
    jobs = W.make_jobs(workload, 5, 3 * len(cycle))
    for k in range(3):
        block = jobs[k * len(cycle):(k + 1) * len(cycle)]
        got = sorted((j.type, [(key, j.get(key)) for key in sorted(W.WARMUP_SIZES[j.type])])
                     for j in block)
        assert got == want


def test_amplitude_inputs_are_deterministic():
    job = first_job("structured-deep", "structured-amplitudes", n=16)
    a, b = W.amplitude_inputs(job), W.amplitude_inputs(job)
    assert all(np.array_equal(x, y) and u == v for (x, u), (y, v) in zip(a, b))


def test_sampled_configuration_amplitude_matches_dense_engine():
    import random

    n, n_dopants, eta = 3, 10, 0.5 + 0.4j
    dense = avalanche.dense_avalanche(avalanche.AvalancheParams(n_dopants, eta, n), n)
    rng = random.Random(4)
    for k in range(20):
        bits, amp = W.sample_cascade_configuration(W.block_slots(n), n_dopants, eta, rng, k % 2)
        want = dense.amps[hilbert.flat_index(dense.dims, bits.tolist())]
        assert abs(amp - want) <= 1e-12


# -- checks fail closed --------------------------------------------------------

@pytest.fixture(scope="module")
def sweep():
    job = first_job("dense-oracle", "avalanche-sweep", A=16)
    return job, W.execute(job, W.prepare(job))


@pytest.fixture(scope="module")
def oracle():
    job = first_job("oracle-battery", "oracle-check")
    return job, W.execute(job, W.prepare(job))


def test_genuine_outputs_pass(sweep, oracle):
    for job, result in (sweep, oracle):
        assert failures_of(job, result) == []


def test_corrupted_csv_is_a_failed_job(sweep):
    job, (code, out, err) = sweep
    lines = out.splitlines()
    assert failures_of(job, (code, "\n".join(lines[:-1]) + "\n", err))  # a row missing
    assert failures_of(job, (code, out.replace(",", ";"), err))  # no columns
    assert failures_of(job, (code, "", err))
    garbled = lines[2].split(",")
    garbled[2] = "0.5x"
    assert failures_of(job, (code, "\n".join(lines[:2] + [",".join(garbled)] + lines[3:]), err))


def test_nan_abs_diff_is_a_failed_job(sweep):
    job, (code, out, err) = sweep
    header, *rows = out.splitlines()
    column = header.split(",").index("abs_diff")
    cells = rows[-1].split(",")
    cells[column] = "nan"
    corrupted = "\n".join([header, *rows[:-1], ",".join(cells)]) + "\n"
    assert code == 0
    assert failures_of(job, (code, corrupted, err))


def test_nonzero_exit_is_a_failed_job(sweep):
    job, (_, out, err) = sweep
    assert failures_of(job, (4, out, err))


def test_failed_oracle_row_is_a_failed_job(oracle):
    job, (code, out, err) = oracle
    assert out.count(",ok") == len(W.ORACLE_CHECKS)
    assert failures_of(job, (code, out.replace(",ok", ",fail", 1), err))
    header, first, *rest = out.splitlines()
    cells = first.split(",")
    cells[header.split(",").index("max_abs_error")] = "nan"
    assert failures_of(job, (code, "\n".join([header, ",".join(cells), *rest]) + "\n", err))


def test_wrong_or_nan_amplitude_is_a_failed_job():
    job = first_job("structured-deep", "structured-amplitudes", n=16)
    inputs = W.amplitude_inputs(job)
    state, amps = W.execute(job, inputs)
    assert failures_of(job, (state, amps)) == []
    for k, bad in ((0, amps[0] * (1 + 1e-9)), (1, 1e-300 + 0j), (3, complex(math.nan))):
        assert failures_of(job, (state, amps[:k] + [bad] + amps[k + 1:]))


def test_raising_job_is_a_failed_job():
    job = first_job("oracle-battery", "oracle-check")

    def boom(job, inputs):
        raise RuntimeError("boom")

    original = W.execute
    W.execute = boom
    try:
        failures = []
        run.run_pass(W, [job], failures)
    finally:
        W.execute = original
    assert "boom" in failures[0][1]


# -- arithmetic ---------------------------------------------------------------

def test_percentile_matches_hand_computed_values():
    assert run.percentile([4, 1, 3, 2], 50) == 2.5
    assert run.percentile([10, 20, 30, 40, 50], 90) == pytest.approx(46.0)
    assert run.percentile([10, 20, 30, 40, 50], 0) == 10
    assert run.percentile([10, 20, 30, 40, 50], 100) == 50
    assert run.percentile([7], 90) == 7
    assert run.percentile(range(1, 101), 90) == pytest.approx(90.1)
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    assert tracing.self_times(parent, start, end).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_gates_needed_counts_carried_registers():
    tracer = tracing.Tracer()
    tracer.cascades = {(0, "register", 16, 0.5): 4, (0, "evolve", "setup"): 3,
                       (1, "register", 16, 0.5): 2}
    assert tracer.gates_needed() == 15 + 2 * 7 + 3


# -- tracing from outside -------------------------------------------------------

def traced(jobs):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        failures = []
        times = run.run_pass(W, jobs, failures, tracer)
    finally:
        tracer.uninstall()
    assert failures == []
    return tracer, tracer.metrics(sum(times), sum(times))


def test_tracing_sees_internal_calls_and_uninstalls():
    original_gate = hilbert.apply_two_site_gate
    original_init = hilbert.DenseState.__dict__["__post_init__"]
    tracer, metrics = traced([first_job("dense-oracle", "avalanche-sweep", A=16)])
    # n_max = 4 rebuilds generations 0..4 from scratch: 0 + 1 + 3 + 7 + 15 gates
    assert metrics["hilbert.apply_two_site_gate.calls"] == 26
    assert metrics["hilbert.TwoSiteGate.inits"] == 26
    assert metrics["hilbert.apply_two_site_gate.amps"] == 26 << 16
    assert metrics["avalanche.gate_useful_ratio"] == 15 / 26
    assert metrics["avalanche.dense_avalanche.calls"] == 5
    assert metrics["cli.run_experiment.calls"] == 1
    assert metrics["cli.emit.bytes"] > 0
    assert metrics["hilbert.apply_two_site_gate.copies_per_call"] > 1
    assert 0.9 < metrics["trace.coverage_frac"] <= 1.0
    for module in (avalanche, hilbert, sys.modules["sectorsim.measurement"], sys.modules["sectorsim"]):
        if "apply_two_site_gate" in vars(module):
            assert module.apply_two_site_gate is original_gate
    assert hilbert.DenseState.__dict__["__post_init__"] is original_init
    assert set(tracer.names) <= set(tracing.SPANS) | {"trace.tracemalloc_probe"}


def test_structured_jobs_apply_no_gate():
    _, metrics = traced([first_job("structured-deep", "structured-avalanche-sweep", n_max=48)])
    assert metrics["hilbert.apply_two_site_gate.calls"] == 0
    assert metrics["avalanche.overlap_no_avalanche.calls"] == 49
    # overlap at generation n calls block_ground_overlap for levels 1..n
    assert metrics["avalanche.block_ground_overlap.calls"] == sum(range(49))


def test_spans_are_written_out(tmp_path):
    tracer, _ = traced([first_job("structured-deep", "structured-avalanche-sweep", n_max=48)])
    tracer.save(tmp_path / "spans.npz")
    with np.load(tmp_path / "spans.npz") as spans:
        assert set(spans.files) == {"names", "name", "parent", "job", "start", "end"}
        assert len(spans["name"]) == len(tracer.name) > 0
        assert (spans["end"] >= spans["start"]).all()


# -- contract ---------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        list(tracing.PER_LAYER)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle-battery",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
