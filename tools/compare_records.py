#!/usr/bin/env python3
"""Compare the CLI records of a base revision with those of the working tree.

    python tools/compare_records.py BASE_REV [--expect FILE ...]

Every shipped ``configs/*.cfg`` runs in
both formats, and so does each variant in ``VARIANTS``, once against the
base revision's ``src/`` and once against the working tree's, with the
working tree's configs for both.  The base sources are extracted with
``git archive`` into a temporary directory, so the repository's git
metadata is never touched.

The script prints every output file whose bytes differ between the two
sides.  It exits 1 if a file differs that no ``--expect`` names, or if
any run in either tree exits nonzero, and 0 otherwise.
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

SWEEP = ("measurement-sweep", "configs/measurement_sweep.cfg")
CASCADE = ("avalanche-sweep", "configs/avalanche_sweep.cfg")
COMMUTATOR = ("sector-commutator", "configs/sector_commutator.cfg")
ORACLE = ("oracle-check", "configs/oracle_check.cfg")

# (tag, (kind, config), overrides).  The shipped configs use only real
# amplitudes and equal registers, so these also run complex, unit-modulus,
# unequal-register, signed-zero, benchmark-size and other-route inputs.
VARIANTS = (
    ("complex", SWEEP, "eta_re=0.36 eta_im=0.48 delta_re=0.3 delta_im=0.4 h_re=0.48 h_im=0.64 v_re=0.6"),
    ("delta_phase", SWEEP, "delta_re=-0.6 delta_im=0.8"),
    ("delta_one", SWEEP, "delta_re=1.0"),
    ("delta_i_dense", SWEEP, "delta_re=0 delta_im=1.0 engine=dense"),
    ("v_only", SWEEP, "h_re=0 v_re=1 delta_re=0.3 delta_im=0.4"),
    ("unequal", SWEEP, "A_H=3 A_V=5 n_max=1 eta_re=0.3 eta_im=-0.5"),
    ("unequal_deep", SWEEP, "A_H=4 A_V=6 n_max=2 eta_re=0.3 eta_im=-0.5 delta_re=0.3 delta_im=0.4 "
                            "h_re=0.48 h_im=0.64 v_re=0.6 engine=both"),
    ("no_avalanche_structured", SWEEP, "reference=no_avalanche engine=structured"),
    ("no_avalanche_dense", SWEEP, "reference=no_avalanche engine=dense eta_re=0.36 eta_im=0.48"),
    ("complex_families", COMMUTATOR, "h_re=0.6 h_im=0 v_re=0 v_im=0.8 N=7"),
    ("seed7", ORACLE, "seed=7"),
    ("oracle_overrides", ORACLE, "seed=3 reference=no_avalanche engine=structured A_H=2 A_V=3 n_max=1 "
                                 "h_re=0 v_re=1 delta_re=0.2 eta_re=0.1 eta_im=0.2 N=9"),
    ("eta_one_dense", CASCADE, "eta_re=1.0 engine=dense"),
    ("complex_both", CASCADE, "eta_re=0.3 eta_im=0.4 engine=both"),
    ("h_minus", SWEEP, "h_re=-0.6 h_im=-0.0 v_re=0 v_im=-0.8 engine=dense delta_re=-0.0 delta_im=-1"),
    ("dense_big", SWEEP, "A_H=8 A_V=8 n_max=3 engine=both eta_re=-0.5 eta_im=-0.5 delta_re=0.7 "
                         "delta_im=-0.2 h_re=0.6 h_im=-0.1 v_re=0.7937253933193772"),
)

# Runs the jobs read from stdin against the sectorsim found on PYTHONPATH,
# one call of cli.main each, and prints every exit code as one JSON object.
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
        codes[name] = type(exc).__name__
print(json.dumps(codes))
"""


def jobs() -> list[tuple[str, list[str]]]:
    """(output file name, CLI arguments) for every comparison run."""
    out = []
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        for fmt in ("csv", "json"):
            out.append((f"{cfg.stem}.{fmt}", [cfg.stem.replace("_", "-"),
                                              "--config", f"configs/{cfg.name}", "--format", fmt]))
    for tag, (kind, cfg), pairs in VARIANTS:
        sets = [arg for pair in pairs.split() for arg in ("--set", pair)]
        for fmt in ("csv", "json"):
            out.append((f"{Path(cfg).stem}_{tag}.{fmt}",
                        [kind, "--config", cfg, *sets, "--format", fmt]))
    return out


def run_tree(src: Path, out: Path, runs) -> dict[str, int | str]:
    """Write the output of every run in ``runs`` under ``out`` with the
    package in ``src``; return each run's exit code."""
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    child = subprocess.run([sys.executable, "-c", CHILD, str(src), str(out)], cwd=ROOT, env=env,
                           input=json.dumps(runs), stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(child.stdout)


def differing(base: Path, head: Path) -> list[str]:
    """Names of record files present on one side only or with different bytes."""
    names = sorted({p.name for p in base.iterdir()} | {p.name for p in head.iterdir()})
    return [name for name in names
            if not ((base / name).is_file() and (head / name).is_file()
                    and (base / name).read_bytes() == (head / name).read_bytes())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_rev", help="git revision whose src/ is the base side")
    parser.add_argument("--expect", nargs="+", default=[], metavar="FILE",
                        help="output files that are expected to differ")
    args = parser.parse_args(argv)
    runs = jobs()
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", "--format=tar", args.base_rev, "src"],
                                 cwd=ROOT, capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        outputs = Path(tmp) / "out"
        codes = {side: run_tree(src, outputs / side, runs)
                 for side, src in (("base", Path(tmp) / "src"), ("head", ROOT / "src"))}
        changed = differing(outputs / "base", outputs / "head")
    failed = [f"{side}: {name} exited {code}" for side, by_name in codes.items()
              for name, code in by_name.items() if code != 0]
    for name in changed:
        print(f"differs: {name}" + (" (expected)" if name in args.expect else ""))
    for line in failed:
        print(f"nonzero exit in {line}")
    unexpected = [name for name in changed if name not in args.expect]
    print(f"{len(runs)} files compared, {len(changed)} differ, "
          f"{len(unexpected)} unexpectedly; {len(failed)} nonzero exits")
    return 1 if unexpected or failed else 0


if __name__ == "__main__":
    sys.exit(main())
