"""Command-line front end: deterministic sweeps written as CSV or JSON.

    simulate <kind> --config <path> [--set key=value ...] [--out <path>] [--format csv|json]

Kinds: avalanche-sweep, measurement-sweep, sector-commutator, qnd-demo,
oracle-check, scales.  The config file holds ``key = value`` lines;
``--set`` flags win over file entries.  Exit codes: 0 success, 2 bad
configuration, 3 dimension guard exceeded, 4 engine disagreement,
5 output I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from typing import get_type_hints

import numpy as np

from .avalanche import (
    AvalancheParams,
    cascade_generations,
    dense_no_avalanche_overlap,
    overlap_no_avalanche,
    seeded_register,
    structured_amplitude,
    structured_avalanche,
)
from .hilbert import DimensionLimitError
from .measurement import (
    REFERENCES,
    MeasurementSetup,
    PhotonPolarisation,
    physical_scales,
    qnd_outcome,
    qnd_sample,
    sector_parameter_sweep,
)
from .sector import (
    ElementaryFamily,
    ProductState,
    _apply_sector,
    commutator_norm,
    dense_action,
    dense_product_state,
    sector_apply,
    sector_expectation,
)

ENGINES = ("structured", "dense", "both")
DISAGREEMENT_TOL = 1e-10


class ConfigError(ValueError):
    """Bad key, value, or combination in the experiment configuration."""


class NoRecordsError(RuntimeError):
    """A runner returned no records: a fault in the program, not in the input."""


@dataclass
class ExperimentConfig:
    kind: str = "oracle-check"
    eta_re: float = 0.6
    eta_im: float = 0.0
    delta_re: float = 1.0
    delta_im: float = 0.0
    h_re: float = 1.0
    h_im: float = 0.0
    v_re: float = 0.0
    v_im: float = 0.0
    A: int = 8
    A_H: int = 4
    A_V: int = 4
    n_max: int = 2
    N: int = 5
    engine: str = "structured"
    reference: str = "ground"
    seed: int = 12345
    shots: int = 100000
    U: float = 2.0
    Delta: float = 0.5
    a: float = 1e-06

    @property
    def eta(self) -> complex:
        return complex(self.eta_re, self.eta_im)

    @property
    def delta(self) -> complex:
        return complex(self.delta_re, self.delta_im)

    @property
    def h(self) -> complex:
        return complex(self.h_re, self.h_im)

    @property
    def v(self) -> complex:
        return complex(self.v_re, self.v_im)


# int, float or str per settable key, read from the field annotations
_KEY_TYPES = {
    name: kind for name, kind in get_type_hints(ExperimentConfig).items() if name != "kind"
}


def _split_pair(text: str, where: str, shown: str) -> tuple[str, str]:
    """Stripped key and value of ``key = value``; no '=' raises ConfigError at ``where``."""
    key, eq, value = text.partition("=")
    if not eq:
        raise ConfigError(f"{where}: expected 'key = value', got {shown!r}")
    return key.strip(), value.strip()


def parse_config_file(path: str) -> dict[str, str]:
    """Read ``key = value`` lines; '#' starts a comment, blanks ignored."""
    pairs: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if line:
                    key, value = _split_pair(line, f"{path}:{lineno}", raw.rstrip())
                    pairs[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return pairs


def build_config(kind: str, pairs: dict[str, str]) -> ExperimentConfig:
    """Typed config from string pairs; unknown keys and bad values are rejected."""
    if kind not in KINDS:
        raise ConfigError(f"unknown kind {kind!r}; choose from {', '.join(KINDS)}")
    cfg = ExperimentConfig(kind=kind)
    for key, value in pairs.items():
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            typed = _KEY_TYPES[key](value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
        if isinstance(typed, float) and not math.isfinite(typed):
            raise ConfigError(f"{key!r} must be finite, got {value!r}")
        setattr(cfg, key, typed)
    if cfg.engine not in ENGINES:
        raise ConfigError(f"engine must be one of {ENGINES}, got {cfg.engine!r}")
    if cfg.reference not in REFERENCES:
        raise ConfigError(f"reference must be one of {REFERENCES}, got {cfg.reference!r}")
    return cfg


def _run_avalanche_sweep(cfg: ExperimentConfig) -> list[dict]:
    params = AvalancheParams(cfg.A, cfg.eta, cfg.n_max)
    records = []
    for n in range(cfg.n_max + 1):
        if cfg.engine == "structured":
            ovl = overlap_no_avalanche(params, n)
        else:
            ovl = dense_no_avalanche_overlap(params, n)
        row = {
            "n": n,
            "M": 1 << n,
            "overlap_re": ovl.real,
            "overlap_im": ovl.imag,
            "overlap_abs": abs(ovl),
        }
        if cfg.engine == "both":
            row["abs_diff"] = abs(ovl - overlap_no_avalanche(params, n))
        records.append(row)
    return records


def _run_measurement_sweep(cfg: ExperimentConfig) -> list[dict]:
    setup = MeasurementSetup(
        pol=PhotonPolarisation(cfg.h, cfg.v),
        delta=cfg.delta,
        eta=cfg.eta,
        n_dopants_h=cfg.A_H,
        n_dopants_v=cfg.A_V,
        n_max=cfg.n_max,
    )
    want_direct = cfg.engine in ("dense", "both")
    records = []
    for rec in sector_parameter_sweep(setup, reference=cfg.reference,
                                      compute_direct=want_direct):
        direct = math.nan if rec.expectation_direct is None else rec.expectation_direct
        row = {
            "n": rec.n,
            "M": rec.m_electrons,
            "overlap_abs": abs(rec.overlap * rec.overlap),
            "expectation_direct": direct,
            "expectation_formula": rec.expectation_formula,
            "limit": rec.limit,
        }
        if cfg.engine == "both":
            row["abs_diff"] = abs(direct - rec.expectation_formula)
        records.append(row)
    return records


def _run_sector_commutator(cfg: ExperimentConfig) -> list[dict]:
    if cfg.N < 2:
        raise ConfigError(f"sector-commutator needs N >= 2, got {cfg.N}")
    base = np.array([1.0, 0.0], dtype=np.complex128)
    other = np.array([cfg.h, cfg.v], dtype=np.complex128)
    records = []
    for n_sites in range(2, cfg.N + 1):
        family_a = ElementaryFamily(tuple(base for _ in range(n_sites)))
        family_b = ElementaryFamily(tuple(other for _ in range(n_sites)))
        analytic = commutator_norm(family_a, family_b, method="analytic")
        dense = (math.nan if cfg.engine == "structured"
                 else commutator_norm(family_a, family_b, method="dense"))
        row = {"N": n_sites, "analytic_norm": analytic, "dense_norm": dense}
        if cfg.engine == "both":
            row["abs_diff"] = abs(analytic - dense)
        records.append(row)
    return records


def _run_qnd_demo(cfg: ExperimentConfig) -> list[dict]:
    pol = PhotonPolarisation(cfg.h, cfg.v)
    outcome = qnd_outcome(pol)
    counts = qnd_sample(pol, cfg.shots, cfg.seed)
    records = []
    for label in ("H", "V"):
        records.append({
            "outcome": label,
            "probability": outcome.probabilities[label],
            "sample_frequency": counts[label] / cfg.shots,
            "shots": cfg.shots,
        })
    return records


def _run_scales(cfg: ExperimentConfig) -> list[dict]:
    report = physical_scales(cfg.U, cfg.Delta, cfg.a, cfg.A)
    return [{"bias_voltage_v": cfg.U, "gap_energy_ev": cfg.Delta, "lattice_m": cfg.a,
             "n_dopants": cfg.A, **asdict(report)}]


def _run_oracle_check(cfg: ExperimentConfig) -> list[dict]:
    records = []

    # cascade: structured amplitudes and overlaps against the dense engine
    errors = []
    cases = 0
    for n_dopants in (4, 6, 8):
        # row idx holds the labels of flat index idx, electron 0 fastest
        every_config = (np.arange(1 << n_dopants)[:, None] >> np.arange(n_dopants)) & 1
        deepest = min(3, n_dopants.bit_length() - 1)  # 2**n <= n_dopants
        for eta in (0.0, 0.3, 0.36 + 0.48j, 1.0):
            # one dense cascade per register and eta, read at every generation:
            # all amplitudes, all-ground included, then the no-avalanche overlap
            params = AvalancheParams(n_dopants, eta, deepest)
            generations = cascade_generations(seeded_register(n_dopants), params.eta, (0,))
            for n, dense in zip(range(deepest + 1), generations):
                st = structured_avalanche(params, n)
                errors.append(np.max(np.abs(dense.amps - structured_amplitude(st, every_config))))
                errors.append(abs(overlap_no_avalanche(params, n) - complex(dense.amps[1])))
                cases += len(every_config)
    records.append(_check_row("cascade_engines", cases, errors, 1e-12))

    # sector algebra against the operator's definition, applied to dense vectors
    rng = np.random.default_rng(cfg.seed)
    errors = []
    cases = 0
    for n_sites in range(2, 7):
        family = ElementaryFamily(tuple(_random_qubit(rng) for _ in range(n_sites)))
        psi = list(family.phi)
        for alpha in range(0, n_sites, 2):
            psi[alpha] = _random_qubit(rng)
        state = ProductState(tuple(psi))
        vec = dense_product_state(state.psi)
        applied = _apply_sector(family, vec)
        errors.append(abs(sector_expectation(family, state)
                          - float(np.real(np.vdot(vec, applied)))))
        errors.append(float(np.max(np.abs(dense_action(sector_apply(family, state))
                                          - applied))))
        defining = dense_product_state(family.phi)
        errors.append(float(np.max(np.abs(_apply_sector(family, defining) - defining))))
        cases += 1
    records.append(_check_row("sector_algebra", cases, errors, 1e-12))

    # commutator 1/N law: the sector-commutator sweep on tilted qubits, whose
    # rows compare analytic with dense, and N * norm held at its N = 2 value
    t = 1.0 / math.sqrt(2.0)
    rows = _run_sector_commutator(replace(cfg, h_re=t, h_im=0.0, v_re=t, v_im=0.0, N=5,
                                          engine="both"))
    errors = [r["abs_diff"] for r in rows]
    errors += [abs(r["N"] * r["dense_norm"] - 2 * rows[0]["dense_norm"]) for r in rows]
    records.append(_check_row("commutator_decay", len(rows), errors, 1e-10))

    # measurement: the measurement sweep's dense sandwich against the closed
    # form (ground reference), one replace per (delta, |h|^2) point; complex
    # amplitudes show phases, unequal registers show where the V seed sits
    points = [replace(cfg, h_re=math.sqrt(h_sq), h_im=0.0, v_re=math.sqrt(1.0 - h_sq),
                      v_im=0.0, delta_re=delta.real, delta_im=delta.imag, eta_re=0.36,
                      eta_im=0.48, A_H=4, A_V=a_v, n_max=2, engine="both", reference="ground")
              for delta, a_v in ((0.36 + 0.48j, 4), (1j, 5)) for h_sq in (0.3, 1.0)]
    rows = [row for point in points for row in _run_measurement_sweep(point)]
    records.append(_check_row("measurement_pointer", len(rows),
                              [r["abs_diff"] for r in rows], 1e-10))
    return records


def _worst(errors: list[float]) -> float:
    """Largest error, 0 for none; NaN if any is NaN, which max() would drop."""
    return float(np.max(errors)) if errors else 0.0


def _check_row(name: str, cases: int, errors: list[float], tol: float) -> dict:
    worst = _worst(errors)
    return {
        "check": name,
        "cases": cases,
        "max_abs_error": worst,
        "tolerance": tol,
        "status": "ok" if worst <= tol else "fail",
    }


def _random_qubit(rng: np.random.Generator) -> np.ndarray:
    vec = rng.normal(size=2) + 1j * rng.normal(size=2)
    return vec / np.linalg.norm(vec)


_RUNNERS = {
    "avalanche-sweep": _run_avalanche_sweep,
    "measurement-sweep": _run_measurement_sweep,
    "sector-commutator": _run_sector_commutator,
    "qnd-demo": _run_qnd_demo,
    "oracle-check": _run_oracle_check,
    "scales": _run_scales,
}
KINDS = tuple(_RUNNERS)


def run_experiment(cfg: ExperimentConfig) -> tuple[list[dict], float]:
    """Produce the sweep's records and the worst engine disagreement.

    The disagreement is the largest ``abs_diff`` (NaN if any row's is
    NaN), and 0 when no row carries one; only ``engine=both`` adds that
    column, and the oracle check never does.  A runner that
    returns no records raises ``NoRecordsError``, which ``main`` lets
    surface, so no output format reports it as success or as bad input.
    """
    records = _RUNNERS[cfg.kind](cfg)
    if not records:
        raise NoRecordsError(f"the {cfg.kind} runner returned no records")
    return records, _worst([r["abs_diff"] for r in records if "abs_diff" in r])


def _format_cell(value) -> str:
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _render_csv(records: list[dict]) -> str:
    # every cell is a number or a package label (ok/fail, check names, H/V),
    # none holding a comma, quote or line break, so no cell needs quoting
    rows = [records[0].keys()] + [map(_format_cell, r.values()) for r in records]
    return "".join(",".join(row) + "\n" for row in rows)


def _render_json(records: list[dict], cfg: ExperimentConfig) -> str:
    def clean(value):
        if isinstance(value, float) and not math.isfinite(value):
            return None
        return value

    payload = {
        "config": asdict(cfg),
        "records": [{k: clean(v) for k, v in rec.items()} for rec in records],
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def emit(records: list[dict], fmt: str, path: str | None, cfg: ExperimentConfig) -> None:
    """Serialise records deterministically as csv or json (floats at 17 significant digits)."""
    text = _render_csv(records) if fmt == "csv" else _render_json(records, cfg)
    if not path or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Run a deterministic sweep and write CSV or JSON records.",
    )
    parser.add_argument("kind", choices=KINDS)
    parser.add_argument("--config", help="key = value text file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config entry (repeatable; wins over the file)")
    parser.add_argument("--out", help="output path ('-' or omitted: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        pairs: dict[str, str] = {}
        if args.config:
            pairs.update(parse_config_file(args.config))
        pairs.update(_split_pair(item, "--set", item) for item in args.set)
        cfg = build_config(args.kind, pairs)
        records, disagreement = run_experiment(cfg)
    except DimensionLimitError as exc:
        print(f"dimension guard: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        emit(records, args.format, args.out, cfg)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 5
    if cfg.kind == "oracle-check" and any(r["status"] == "fail" for r in records):
        print("engine disagreement: one or more oracle checks failed", file=sys.stderr)
        return 4
    if not disagreement <= DISAGREEMENT_TOL:
        print(
            f"engine disagreement: max |difference| = {disagreement:.3e} "
            f"exceeds {DISAGREEMENT_TOL:.1e}",
            file=sys.stderr,
        )
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
