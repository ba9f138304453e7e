#!/usr/bin/env python3
"""Compare the CLI records of a base revision with those of the working tree.

    python tools/compare_records.py BASE_REV

Every shipped ``configs/*.cfg`` runs in
both formats, and so does each variant in ``VARIANTS``, once against the
base revision's ``src/`` and once against the working tree's, with the
working tree's configs for both.  The base sources are extracted with
``git archive`` into a temporary directory, so the repository's git
metadata is never touched.

The script prints every output file whose bytes differ between the two
sides, and marks ``(config only)`` a JSON file whose ``records`` are the
same on both sides.  It exits 1 if a file differs that no
``Records-changed:`` trailer in ``BASE_REV..HEAD`` declares, if a declared
file does not differ, or if any run in either tree exits nonzero or raises
(a RuntimeWarning or DeprecationWarning counts as raising), and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (tag, config stem, overrides); each run's kind is its stem with "-" for
# "_".  The shipped configs use only real amplitudes and equal registers,
# so these also run complex, unit-modulus, overshooting, unequal-register,
# signed-zero, benchmark-size and other-route inputs, the deepest structured
# fold the benchmark times (n_max = 64), and a commutator below the dense
# route's rounding.  That one runs engine=dense: under engine=both its NaN
# dense norms exit 4, and every run here must exit 0.  Each kind runs at
# least twice; the qnd_demo and scales variants carry label cells, an
# integer past 2**64 and e-notation floats.
VARIANTS = (
    ("complex", "measurement_sweep",
     "eta_re=0.36 eta_im=0.48 delta_re=0.3 delta_im=0.4 h_re=0.48 h_im=0.64 v_re=0.6"),
    ("delta_phase", "measurement_sweep", "delta_re=-0.6 delta_im=0.8"),
    ("delta_one", "measurement_sweep", "delta_re=1.0"),
    ("eta_overshoot", "measurement_sweep", "eta_re=0.6 eta_im=0.8000000000001 engine=both"),
    ("delta_i_dense", "measurement_sweep", "delta_re=0 delta_im=1.0 engine=dense"),
    ("v_only", "measurement_sweep", "h_re=0 v_re=1 delta_re=0.3 delta_im=0.4"),
    ("unequal", "measurement_sweep", "A_H=3 A_V=5 n_max=1 eta_re=0.3 eta_im=-0.5"),
    ("unequal_deep", "measurement_sweep",
     "A_H=4 A_V=6 n_max=2 eta_re=0.3 eta_im=-0.5 delta_re=0.3 delta_im=0.4 "
     "h_re=0.48 h_im=0.64 v_re=0.6 engine=both"),
    ("v_smaller", "measurement_sweep", "A_H=6 A_V=2 n_max=1 eta_re=0.3 eta_im=-0.5 engine=both"),
    ("no_avalanche_structured", "measurement_sweep", "reference=no_avalanche engine=structured"),
    ("no_avalanche_complex", "measurement_sweep",
     "reference=no_avalanche engine=structured eta_re=0.3 eta_im=-0.4 delta_re=0.36 "
     "delta_im=0.48 h_re=0.48 h_im=0.64 v_re=0.6 A_H=4 A_V=6 n_max=2"),
    ("ground_structured", "measurement_sweep",
     "engine=structured A_H=1024 A_V=4096 n_max=10 eta_re=0.36 eta_im=0.48"),
    ("no_avalanche_dense", "measurement_sweep",
     "reference=no_avalanche engine=dense eta_re=0.36 eta_im=0.48"),
    ("complex_families", "sector_commutator", "h_re=0.6 h_im=0 v_re=0 v_im=0.8 N=7"),
    ("structured", "sector_commutator", "engine=structured N=12"),
    ("tiny_commutator", "sector_commutator", "h_re=1e-20 v_re=1 N=5 engine=dense"),
    ("seed7", "oracle_check", "seed=7"),
    ("seed_max", "oracle_check", "seed=2147483647"),
    ("oracle_overrides", "oracle_check",
     "seed=3 reference=no_avalanche engine=structured A_H=2 A_V=3 n_max=1 "
     "h_re=0 v_re=1 delta_re=0.2 eta_re=0.1 eta_im=0.2 N=9"),
    ("eta_one_dense", "avalanche_sweep", "eta_re=1.0 engine=dense"),
    ("complex_both", "avalanche_sweep", "eta_re=0.3 eta_im=0.4 engine=both"),
    ("a17_complex", "avalanche_sweep", "A=17 eta_re=0.3 eta_im=-0.4 engine=both"),
    ("deep_structured", "avalanche_sweep",
     "A=18446744073709551616 n_max=64 eta_re=0.31 eta_im=-0.44 engine=structured"),
    ("h_minus", "measurement_sweep",
     "h_re=-0.6 h_im=-0.0 v_re=0 v_im=-0.8 engine=dense delta_re=-0.0 delta_im=-1"),
    ("h_minus_unequal", "measurement_sweep",
     "A_H=3 A_V=5 n_max=1 h_re=-0.6 h_im=-0.0 v_re=0 v_im=-0.8 delta_re=-0.0 delta_im=-1 "
     "eta_re=0.3 eta_im=-0.5 engine=both"),
    ("dense_big", "measurement_sweep",
     "A_H=8 A_V=8 n_max=3 engine=both eta_re=-0.5 eta_im=-0.5 delta_re=0.7 "
     "delta_im=-0.2 h_re=0.6 h_im=-0.1 v_re=0.7937253933193772"),
    ("complex_h", "qnd_demo", "h_re=0.6 h_im=0.48 v_re=0 v_im=0.64 shots=777 seed=3"),
    ("big_register", "scales", "U=7.5 Delta=0.3 a=5.43e-10 A=123456789012345678901"),
)

# The child interpreter's warning filters, the same as CI's quick-start and
# demo steps use: a run that warns is recorded as the exception the warning
# raised, not as exit 0.
WARNINGS_AS_ERRORS = ("-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning")

# Runs the jobs read from stdin against the sectorsim found on PYTHONPATH,
# one call of cli.main each, and prints every exit code, or the exception a
# run raised, as one JSON object.
CHILD = """
import json, sys
from pathlib import Path
import sectorsim
from sectorsim.cli import main
src, out = Path(sys.argv[1]).resolve(), Path(sys.argv[2])
if src not in Path(sectorsim.__file__).resolve().parents:
    sys.exit(f"imported sectorsim from {sectorsim.__file__}, not from {src}")
codes = {}
for name, argv in json.load(sys.stdin):
    try:
        codes[name] = main(argv + ["--out", str(out / name)])
    except Exception as exc:
        codes[name] = f"{type(exc).__name__}: {exc}"
print(json.dumps(codes))
"""


def jobs() -> list[tuple[str, list[str]]]:
    """(output file name, CLI arguments) for every comparison run."""
    runs = [(cfg.stem, cfg.stem, "") for cfg in sorted((ROOT / "configs").glob("*.cfg"))]
    runs += [(f"{stem}_{tag}", stem, pairs) for tag, stem, pairs in VARIANTS]
    out = []
    for name, stem, pairs in runs:
        sets = [arg for pair in pairs.split() for arg in ("--set", pair)]
        for fmt in ("csv", "json"):
            out.append((f"{name}.{fmt}", [stem.replace("_", "-"), "--config",
                                          f"configs/{stem}.cfg", *sets, "--format", fmt]))
    return out


def run_tree(src: Path, out: Path, runs) -> dict[str, int | str]:
    """Write the output of every run in ``runs`` under ``out`` with the
    package in ``src``; return each run's exit code."""
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    child = subprocess.run([sys.executable, *WARNINGS_AS_ERRORS, "-c", CHILD, str(src), str(out)],
                           cwd=ROOT, env=env, input=json.dumps(runs), stdout=subprocess.PIPE,
                           text=True, check=True)
    return json.loads(child.stdout)


def differing(base: Path, head: Path) -> list[str]:
    """Names of record files present on one side only or with different bytes."""
    names = sorted({p.name for p in base.iterdir()} | {p.name for p in head.iterdir()})
    return [name for name in names
            if not ((base / name).is_file() and (head / name).is_file()
                    and (base / name).read_bytes() == (head / name).read_bytes())]


def config_only(base: Path, head: Path) -> bool:
    """Whether two JSON record files both exist and hold the same ``records``,
    so only their echoed config differs; signed zeros count as different."""
    if base.suffix != ".json" or not (base.is_file() and head.is_file()):
        return False
    base_records, head_records = (json.dumps(json.loads(path.read_text(encoding="utf-8"))["records"])
                                  for path in (base, head))
    return base_records == head_records


def declared(base_rev: str, repo: Path = ROOT) -> set[str]:
    """Names in the space-separated ``Records-changed:`` trailers of ``base_rev..HEAD``."""
    return set(subprocess.run(["git", "log", "--format=%(trailers:key=Records-changed,valueonly)",
                               f"{base_rev}..HEAD"], cwd=repo, capture_output=True, text=True,
                              check=True).stdout.split())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_rev", help="git revision whose src/ is the base side")
    args = parser.parse_args(argv)
    expect = declared(args.base_rev)
    runs = jobs()
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", "--format=tar", args.base_rev, "src"],
                                 cwd=ROOT, capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        outputs = Path(tmp) / "out"
        codes = {side: run_tree(src, outputs / side, runs)
                 for side, src in (("base", Path(tmp) / "src"), ("head", ROOT / "src"))}
        changed = differing(outputs / "base", outputs / "head")
        same_records = {name for name in changed
                        if config_only(outputs / "base" / name, outputs / "head" / name)}
    failed = [f"{side}: {name} exited {code}" for side, by_name in codes.items()
              for name, code in by_name.items() if code != 0]
    for name in changed:
        print(f"differs: {name}" + (" (declared)" if name in expect else "")
              + (" (config only)" if name in same_records else ""))
    for line in failed:
        print(f"nonzero exit in {line}")
    unexpected = [name for name in changed if name not in expect]
    stale = sorted(expect - set(changed))
    for name in stale:
        print(f"declared but does not differ: {name}")
    print(f"{len(runs)} files compared, {len(changed)} differ, "
          f"{len(unexpected)} undeclared, {len(stale)} declared ones do not; "
          f"{len(failed)} nonzero exits")
    return 1 if unexpected or stale or failed else 0


if __name__ == "__main__":
    sys.exit(main())
