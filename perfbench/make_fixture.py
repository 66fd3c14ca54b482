"""Rebuild the labeled 8x3 fixtures that the train-8x3 workload trains on.

Runs the program's own pipeline in-process: `cfgnn gen-data` draws the
channel realisations and `cfgnn --threads 1 solve` labels them with the
exact solver.  The seeds and counts below are the ones recorded in
perfbench/README.md; rebuilding with them reproduces the committed files
byte for byte.

    python3 perfbench/make_fixture.py            # rewrite the fixtures
    python3 perfbench/make_fixture.py --check    # rebuild in a temp dir and diff
"""

from __future__ import annotations

import argparse
import filecmp
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURE_DIR = HERE / "fixtures"
# name -> (gen-data seed, samples)
FIXTURES = {"train_8x3.jsonl": (815, 256), "heldout_8x3.jsonl": (816, 64)}
SCENARIO = "8x3:urban"


def build(out_dir: Path) -> None:
    from cfgnn.cli import main
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (seed, count) in FIXTURES.items():
        raw = out_dir / f"raw_{name}"
        target = out_dir / name
        for argv in (["--threads", "1", "gen-data", "--scenarios", SCENARIO,
                      "--count", str(count), "--out", str(raw),
                      "--seed", str(seed)],
                     ["--threads", "1", "solve", "--in", str(raw),
                      "--out", str(target)]):
            if main(argv) != 0:
                raise SystemExit(f"cfgnn {' '.join(argv)} failed")
        raw.unlink()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="rebuild into a temporary directory and compare "
                             "with the committed fixtures")
    args = parser.parse_args()
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(HERE.parent / "src"))
    if not args.check:
        build(FIXTURE_DIR)
        return 0
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        build(Path(tmp))
        stale = [name for name in FIXTURES
                 if not filecmp.cmp(Path(tmp) / name, FIXTURE_DIR / name,
                                    shallow=False)]
    for name in stale:
        print(f"fixture {name} differs from a fresh build", file=sys.stderr)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
