"""Seeded job lists for the benchmark workloads, job execution, and the
checks that decide whether each job's output is correct.

A job is one call into the package: either ``sectorsim.cli.main`` with
generated arguments, or one structured-engine API sequence.  Everything a
job needs is derived from the workload seed, so the same seed always
gives the same job list.  The package only ever sees the generated
arguments.

Every check fails closed: a job counts as correct only if each expected
row or value is present, finite where it must be, and within tolerance of
a value the benchmark computes itself.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import time
from dataclasses import dataclass

import numpy as np

from sectorsim import avalanche, cli

WORKLOADS = ("dense-oracle", "structured-deep", "oracle-battery")

# Job types of each workload, one entry per job of one cycle; the order
# inside a cycle is shuffled by the seed, the multiset is fixed.  The
# multiplicities place job_s.p50 and job_s.p90 inside a cluster of
# similar job times rather than in the gap between two job types:
# dense-oracle puts the four A=19 sweeps in the top fifth of job times and
# the six measurement sweeps around the median; structured-deep puts the
# five amplitude batches at n = 18 in its top fifth and spreads the sweep
# depths evenly, so job times near its median have no gap.
CYCLES = {
    "dense-oracle": (
        [("avalanche-sweep", {"A": 16})] * 4
        + [("avalanche-sweep", {"A": 17})]
        + [("avalanche-sweep", {"A": 18})]
        + [("avalanche-sweep", {"A": 19})] * 4
        + [("measurement-sweep", {"A_H": 8, "A_V": 8})] * 6
        + [("sector-commutator", {"N": 8})] * 3
        + [("sector-commutator", {"N": 9})]
    ),
    "structured-deep": (
        [("structured-avalanche-sweep", {"n_max": n}) for n in range(48, 65, 2)]
        + [("structured-measurement-sweep", {"n_max": n}) for n in range(48, 65, 2)]
        + [("structured-amplitudes", {"n": n}) for n in (16, 17, 18, 18, 18, 18, 18)]
    ),
    "oracle-battery": [("oracle-check", {})] * 10,
}

# One untimed warm-up job per job type, at the type's smallest size.
WARMUP_SIZES = {
    "avalanche-sweep": {"A": 16},
    "measurement-sweep": {"A_H": 8, "A_V": 8},
    "sector-commutator": {"N": 8},
    "structured-avalanche-sweep": {"n_max": 48},
    "structured-measurement-sweep": {"n_max": 48},
    "structured-amplitudes": {"n": 16},
    "oracle-check": {},
}

DENSE_N_MAX = 4
MEASUREMENT_N_MAX = 3
AMPLITUDE_BATCH = 9  # configurations per structured-amplitudes job: 3 fixed, 6 sampled

DISAGREEMENT_TOL = 1e-10  # engine=both abs_diff rows
CLOSED_FORM_RTOL = 1e-12  # structured values against closed forms
DENSE_RTOL = 1e-10  # dense values against closed forms


@dataclass(frozen=True)
class Job:
    """One benchmark operation: a job type plus its seeded parameters."""

    type: str
    params: tuple[tuple[str, object], ...]

    def get(self, key):
        return dict(self.params)[key]


def _phase(rng: random.Random, magnitude: float) -> tuple[float, float]:
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return magnitude * math.cos(angle), magnitude * math.sin(angle)


def _seeded_values(rng: random.Random) -> dict:
    """eta, delta and a normalised polarisation (h, v), away from the
    degenerate points |eta| in {0, 1} and |h| = |v|."""
    eta_re, eta_im = _phase(rng, rng.uniform(0.3, 0.9))
    delta_re, delta_im = _phase(rng, rng.uniform(0.3, 1.0))
    h_sq = rng.choice((rng.uniform(0.05, 0.4), rng.uniform(0.6, 0.95)))
    h_re, h_im = _phase(rng, math.sqrt(h_sq))
    return {
        "eta_re": eta_re, "eta_im": eta_im,
        "delta_re": delta_re, "delta_im": delta_im,
        "h_re": h_re, "h_im": h_im,
        "v_re": math.sqrt(1.0 - h_sq), "v_im": 0.0,
    }


def _job(rng: random.Random, job_type: str, sizes: dict) -> Job:
    params = dict(sizes)
    params.update(_seeded_values(rng))
    if job_type == "oracle-check":
        params["seed"] = rng.randrange(1 << 31)
    if job_type == "structured-amplitudes":
        params["extra"] = rng.randrange(2, 65)  # electrons beyond 2**n
        params["config_seed"] = rng.randrange(1 << 31)
    return Job(job_type, tuple(sorted(params.items())))


def make_jobs(workload: str, seed: int, count: int) -> list[Job]:
    """The first ``count`` jobs of a workload; a pure function of the seed."""
    if workload not in CYCLES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    jobs: list[Job] = []
    while len(jobs) < count:
        cycle = list(CYCLES[workload])
        rng.shuffle(cycle)
        jobs.extend(_job(rng, job_type, sizes) for job_type, sizes in cycle)
    return jobs[:count]


def make_warmups(workload: str, seed: int) -> list[Job]:
    """One job of each type in the workload, at that type's smallest size."""
    rng = random.Random(f"{workload}:{seed}:warmup")
    types = sorted({job_type for job_type, _ in CYCLES[workload]})
    return [_job(rng, job_type, WARMUP_SIZES[job_type]) for job_type in types]


def working_set_bytes(workload: str) -> dict[str, int]:
    """Bytes of the largest array each job type of a workload allocates."""
    out = {}
    for job_type, sizes in CYCLES[workload]:
        label = job_type + "".join(f"[{k}={v}]" for k, v in sizes.items())
        if job_type == "avalanche-sweep":
            out[label] = 16 << sizes["A"]  # one complex state vector
        elif job_type == "measurement-sweep":
            out[label] = 16 * 3 << (sizes["A_H"] + sizes["A_V"])  # joint photon+registers
        elif job_type == "sector-commutator":
            out[label] = 16 << (2 * sizes["N"])  # one dense 2^N x 2^N operator
        elif job_type == "structured-amplitudes":
            out[label] = 8 << sizes["n"]  # int64 block partition; int8 labels add 2^n B each
        elif job_type == "oracle-check":
            out[label] = 16 << 12  # its largest object, a 2^6 x 2^6 sector operator
        else:
            out[label] = 16 * (sizes["n_max"] + 1)  # O(n) scalars per sweep
    return out


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------

def _eta(job: Job) -> complex:
    return complex(job.get("eta_re"), job.get("eta_im"))


def closed_form_overlap(eta: complex, n: int) -> float:
    """<seed, all ground | state_n> = (1 - |eta|^2)^(n/2)."""
    return (1.0 - abs(eta) ** 2) ** (n / 2)


def contrast(job: Job) -> float:
    """Limit of the pointer expectation, |delta|^2 (|h|^2 - |v|^2)."""
    delta = complex(job.get("delta_re"), job.get("delta_im"))
    h = complex(job.get("h_re"), job.get("h_im"))
    v = complex(job.get("v_re"), job.get("v_im"))
    return abs(delta) ** 2 * (abs(h) ** 2 - abs(v) ** 2)


def block_slots(n: int) -> list[np.ndarray]:
    """Electron indices of blocks Z_0 .. Z_n in construction (slot) order.

    Each generation with offset d interleaves every block Z_l >= 1 with
    its copy shifted by d to form Z_{l+1}; the seed block stays and spawns
    a fresh Z_1 at index d.
    """
    levels = [np.zeros(1, dtype=np.int64)]
    for g in range(1, n + 1):
        d = 1 << (g - 1)
        grown = [np.stack([old, old + d], axis=1).reshape(-1) for old in levels[1:]]
        levels = [levels[0], np.array([d], dtype=np.int64)] + grown
    return levels


def sample_cascade_configuration(slots: list[np.ndarray], n_dopants: int, eta: complex,
                                 rng: random.Random, parity: int) -> tuple[np.ndarray, complex]:
    """A configuration from the cascade's support, with its exact amplitude.

    Block Z_l is either all ground (factor sqrt(1-|eta|^2)) or excites its
    first slot and splits positionally into Z_0 | Z_1 | ... | Z_{l-1}
    (factor eta).  The two branches are orthogonal, so the amplitude of
    the sampled configuration is the product of the chosen factors.
    Sub-blocks take a random branch; the top-level blocks alternate, all
    ground where ``level % 2 == parity``, since an all-ground block costs
    the structured engine a scan of every slot, and pairing both parities
    in a job keeps its cost nearly the same from seed to seed.
    """
    s = math.sqrt(1.0 - abs(eta) ** 2)
    bits = np.zeros(n_dopants, dtype=np.int8)

    def block(level: int, idx: np.ndarray, ground: bool) -> complex:
        if level == 0:
            bits[idx[0]] = 1
            return 1.0
        if ground:
            return s
        amp = eta
        for m in range(level):
            amp *= block(m, idx[:1] if m == 0 else idx[1 << (m - 1):1 << m], rng.random() < 0.5)
        return amp

    amp = 1.0 + 0j
    for level, idx in enumerate(slots):
        amp *= block(level, idx, level % 2 == parity)
    return bits, complex(amp)


def amplitude_inputs(job: Job) -> list[tuple[np.ndarray, complex]]:
    """Configurations for a structured-amplitudes job and their exact amplitudes:
    the seed-only configuration, one with the seed in the ground state, one
    with an excited electron beyond 2**n, and cascade-support samples."""
    n = job.get("n")
    n_dopants = (1 << n) + job.get("extra")
    eta = _eta(job)
    rng = random.Random(job.get("config_seed"))
    bit_rng = np.random.default_rng(job.get("config_seed"))
    seed_only = np.zeros(n_dopants, dtype=np.int8)
    seed_only[0] = 1
    ground_seed = np.zeros(n_dopants, dtype=np.int8)
    ground_seed[1:1 << n] = bit_rng.integers(0, 2, (1 << n) - 1)
    beyond = seed_only.copy()
    beyond[rng.randrange(1 << n, n_dopants)] = 1
    cases = [(seed_only, complex(closed_form_overlap(eta, n))), (ground_seed, 0j), (beyond, 0j)]
    slots = block_slots(n)
    while len(cases) < AMPLITUDE_BATCH:
        cases.append(sample_cascade_configuration(slots, n_dopants, eta, rng, len(cases) % 2))
    return cases


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def cli_argv(job: Job) -> list[str]:
    """Command-line arguments for a CLI job."""
    p = dict(job.params)
    if job.type == "oracle-check":
        return ["oracle-check", "--set", f"seed={p['seed']}"]
    keys = ["eta_re", "eta_im"]
    if job.type == "avalanche-sweep":
        kind, sets = "avalanche-sweep", {"A": p["A"], "n_max": DENSE_N_MAX, "engine": "both"}
    elif job.type == "measurement-sweep":
        kind = "measurement-sweep"
        sets = {"A_H": p["A_H"], "A_V": p["A_V"], "n_max": MEASUREMENT_N_MAX,
                "engine": "both", "reference": "ground"}
        keys += ["delta_re", "delta_im", "h_re", "h_im", "v_re", "v_im"]
    elif job.type == "sector-commutator":
        kind, sets = "sector-commutator", {"N": p["N"], "engine": "both"}
        keys = ["h_re", "h_im", "v_re", "v_im"]
    elif job.type == "structured-avalanche-sweep":
        kind = "avalanche-sweep"
        sets = {"A": 1 << p["n_max"], "n_max": p["n_max"], "engine": "structured"}
    elif job.type == "structured-measurement-sweep":
        kind = "measurement-sweep"
        sets = {"A_H": 1 << p["n_max"], "A_V": 1 << p["n_max"], "n_max": p["n_max"],
                "engine": "structured", "reference": "no_avalanche"}
        keys += ["delta_re", "delta_im", "h_re", "h_im", "v_re", "v_im"]
    else:
        raise ValueError(f"{job.type} is not a CLI job")
    sets.update((k, p[k]) for k in keys)
    argv = [kind]
    for key, value in sets.items():
        argv += ["--set", f"{key}={_fmt(value)}"]
    return argv


def prepare(job: Job):
    """Untimed inputs of a job: CLI arguments or amplitude configurations."""
    if job.type == "structured-amplitudes":
        return amplitude_inputs(job)
    return cli_argv(job)


def execute(job: Job, inputs):
    """The timed operation.  Package functions are looked up on their module
    at call time, so a traced run sees the calls."""
    if job.type == "structured-amplitudes":
        n = job.get("n")
        params = avalanche.AvalancheParams((1 << n) + job.get("extra"), _eta(job), n)
        state = avalanche.structured_avalanche(params, n)
        return state, [avalanche.structured_amplitude(state, bits) for bits, _ in inputs]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(inputs)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

class CheckFailed(Exception):
    """A job's output is missing, malformed, non-finite or wrong."""


def _close(got: complex, want: complex, rtol: float, what: str) -> None:
    """Relative comparison; an expected 0 must come back exactly 0.  Written
    so that NaN fails: every comparison with NaN is False."""
    if not abs(got - want) <= rtol * abs(want):
        raise CheckFailed(f"{what}: got {got!r}, want {want!r} (rtol {rtol:g})")


def _small(value: float, tol: float, what: str) -> None:
    if not abs(value) <= tol:
        raise CheckFailed(f"{what} = {value!r} exceeds {tol:g}")


def parse_csv(text: str) -> list[dict[str, str]]:
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        raise CheckFailed("no CSV rows")
    return rows


def _num(row: dict, key: str) -> float:
    try:
        return float(row[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"column {key!r} missing or not a number in {row}") from exc


def _expect_index(rows: list[dict], key: str, values) -> None:
    got = [row.get(key) for row in rows]
    if got != [str(v) for v in values]:
        raise CheckFailed(f"column {key!r} is {got}, want {list(values)}")


def _check_avalanche_sweep(job: Job, rows: list[dict], structured: bool) -> None:
    n_max = job.get("n_max") if structured else DENSE_N_MAX
    eta = _eta(job)
    _expect_index(rows, "n", range(n_max + 1))
    _expect_index(rows, "M", [1 << n for n in range(n_max + 1)])
    rtol = CLOSED_FORM_RTOL if structured else DENSE_RTOL
    for n, row in enumerate(rows):
        want = closed_form_overlap(eta, n)
        got = complex(_num(row, "overlap_re"), _num(row, "overlap_im"))
        _close(got, want, rtol, f"overlap at n={n}")
        _close(_num(row, "overlap_abs"), want, rtol, f"overlap_abs at n={n}")
        if not structured:
            _small(_num(row, "abs_diff"), DISAGREEMENT_TOL, f"abs_diff at n={n}")


def _check_measurement_sweep(job: Job, rows: list[dict], structured: bool) -> None:
    n_max = job.get("n_max") if structured else MEASUREMENT_N_MAX
    eta = _eta(job)
    limit = contrast(job)
    _expect_index(rows, "n", range(n_max + 1))
    _expect_index(rows, "M", [1 << n for n in range(n_max + 1)])
    for n, row in enumerate(rows):
        # ground reference: the overlap is exactly 0; no_avalanche: (1-|eta|^2)^n
        overlap = closed_form_overlap(eta, 2 * n) if structured else 0.0
        _close(_num(row, "overlap_abs"), overlap, CLOSED_FORM_RTOL, f"overlap_abs at n={n}")
        _close(_num(row, "limit"), limit, CLOSED_FORM_RTOL, f"limit at n={n}")
        _close(_num(row, "expectation_formula"), limit * (1.0 - overlap ** 2),
               CLOSED_FORM_RTOL, f"expectation_formula at n={n}")
        if not structured:
            _close(_num(row, "expectation_direct"), limit, DENSE_RTOL,
                   f"expectation_direct at n={n}")
            _small(_num(row, "abs_diff"), DISAGREEMENT_TOL, f"abs_diff at n={n}")


def _check_sector_commutator(job: Job, rows: list[dict]) -> None:
    n_sites = job.get("N")
    h = complex(job.get("h_re"), job.get("h_im"))
    v = complex(job.get("v_re"), job.get("v_im"))
    _expect_index(rows, "N", range(2, n_sites + 1))
    for row in rows:
        # ||[P, Q]|| for rank-one projectors is |<phi|chi>| sqrt(1 - |<phi|chi>|^2)
        want = abs(h) * abs(v) / int(row["N"])
        _close(_num(row, "analytic_norm"), want, DENSE_RTOL, f"analytic_norm at N={row['N']}")
        _close(_num(row, "dense_norm"), want, DENSE_RTOL, f"dense_norm at N={row['N']}")
        _small(_num(row, "abs_diff"), DISAGREEMENT_TOL, f"abs_diff at N={row['N']}")


ORACLE_CHECKS = ("cascade_engines", "sector_algebra", "commutator_decay", "measurement_pointer")


def _check_oracle(rows: list[dict]) -> None:
    _expect_index(rows, "check", ORACLE_CHECKS)
    for row in rows:
        if row.get("status") != "ok":
            raise CheckFailed(f"oracle check {row.get('check')} has status {row.get('status')!r}")
        if not _num(row, "cases") >= 1:
            raise CheckFailed(f"oracle check {row['check']} ran no cases")
        _small(_num(row, "max_abs_error"), _num(row, "tolerance"),
               f"{row['check']} max_abs_error")


def _check_amplitudes(job: Job, inputs, result) -> None:
    state, amps = result
    n = job.get("n")
    levels = state.partition.levels
    if len(levels) != n + 1 or sum(len(lv) for lv in levels) != 1 << n:
        raise CheckFailed(f"block partition has {len(levels)} levels over "
                          f"{sum(len(lv) for lv in levels)} electrons, want {n + 1} over {1 << n}")
    if state.partition.remainder != range(1 << n, (1 << n) + job.get("extra")):
        raise CheckFailed(f"remainder is {state.partition.remainder}")
    if len(amps) != len(inputs):
        raise CheckFailed(f"{len(amps)} amplitudes for {len(inputs)} configurations")
    for k, ((_, want), got) in enumerate(zip(inputs, amps)):
        _close(complex(got), want, CLOSED_FORM_RTOL, f"amplitude {k}")


def check(job: Job, inputs, result) -> None:
    """Raise CheckFailed unless the job's result is correct."""
    if job.type == "structured-amplitudes":
        _check_amplitudes(job, inputs, result)
        return
    code, out, err = result
    if code != 0:
        raise CheckFailed(f"exit code {code}: {err.strip()}")
    rows = parse_csv(out)
    if job.type == "oracle-check":
        _check_oracle(rows)
    elif job.type == "sector-commutator":
        _check_sector_commutator(job, rows)
    elif job.type.endswith("avalanche-sweep"):
        _check_avalanche_sweep(job, rows, structured=job.type.startswith("structured"))
    elif job.type.endswith("measurement-sweep"):
        _check_measurement_sweep(job, rows, structured=job.type.startswith("structured"))
    else:
        raise CheckFailed(f"no check for job type {job.type}")


def run_job(job: Job, inputs) -> tuple[float, str | None]:
    """Time one job and check it; returns (seconds, failure reason or None)."""
    t0 = time.perf_counter()
    try:
        result = execute(job, inputs)
    except Exception as exc:  # a raising job is a failed job, not a crash
        return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    try:
        check(job, inputs, result)
    except CheckFailed as exc:
        return elapsed, str(exc)
    return elapsed, None
