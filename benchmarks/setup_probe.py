"""Set-up of one benchmark run, and a fresh-process probe that times it.

prepare() writes the identification config and the seeded control config
into a run directory, points sidmpc's relative output directory there and
loads both once.  Run as a script,

    python3 benchmarks/setup_probe.py <workload> <seed> <run_dir> <launch>

it does the whole set-up in a fresh interpreter: import NumPy and sidmpc,
prepare(), and for track and reject the identify command that produces their
model bank.  It then prints the set-up time, time.monotonic() minus the
parent's <launch> stamp (CLOCK_MONOTONIC is system-wide on Linux), and exits.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
if not (SRC / "sidmpc" / "__init__.py").is_file():
    # the benchmark runs the program from this checkout's sources only
    raise ImportError(f"no sidmpc sources under {SRC}")
for _p in (str(SRC), str(BENCH)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import numpy  # noqa: E402,F401  (part of what set-up pays for)
from sidmpc import cli  # noqa: E402
from sidmpc.config import OUTPUT_ROOT_ENV, load_experiment_config  # noqa: E402

from workloads import IDENTIFY_CONFIG, make_config  # noqa: E402


def prepare(workload: str, seed: int, run_dir: Path):
    """Write and load the configs; returns (identify config, control config)."""
    run_dir.mkdir(parents=True, exist_ok=True)
    os.environ[OUTPUT_ROOT_ENV] = str(run_dir)
    paths = (run_dir / "identify.ini", run_dir / f"control-{workload}.ini")
    for path, text in zip(paths, (IDENTIFY_CONFIG, make_config(workload, seed))):
        path.write_text(text)
        load_experiment_config(path)
    return paths


def run_quiet(argv, log) -> int:
    """One CLI command in this process, its console output sent to log."""
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        return cli.main(argv)


def main(argv) -> int:
    workload, seed, run_dir, launch = argv[0], int(argv[1]), Path(argv[2]), float(argv[3])
    ident_cfg, _ = prepare(workload, seed, run_dir)
    if workload != "identify":
        with open(run_dir / "console.log", "w") as log:
            rc = run_quiet(["identify", str(ident_cfg)], log)
        if rc != 0:
            return rc
    print(repr(time.monotonic() - launch), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
