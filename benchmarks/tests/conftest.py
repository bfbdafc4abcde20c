"""Puts the benchmark modules and the sidmpc sources on sys.path, and runs one
short traced chain (identify, control single, control multi) on a truncated
track config for the tests that need real outputs."""

import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
for _p in (str(BENCH.parent / "src"), str(BENCH)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from sidmpc.config import OUTPUT_ROOT_ENV  # noqa: E402

from setup_probe import run_quiet  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import DURATION, IDENTIFY_CONFIG, make_config  # noqa: E402

SHORT_DURATION = 40.0     # covers the first setpoint step of track


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """(output directory, Tracer) of one traced chain on a short track run."""
    run_dir = tmp_path_factory.mktemp("chain")
    ident = run_dir / "identify.ini"
    ident.write_text(IDENTIFY_CONFIG)
    cfg = run_dir / "track.ini"
    cfg.write_text(make_config("track", 0).replace(
        f"duration = {DURATION:g}", f"duration = {SHORT_DURATION:g}"))
    old = os.environ.get(OUTPUT_ROOT_ENV)
    os.environ[OUTPUT_ROOT_ENV] = str(run_dir)
    tracer = Tracer()
    try:
        with open(run_dir / "console.log", "w") as log, tracer.installed():
            for argv in (["identify", ident], ["control", "--mode", "single", cfg],
                         ["control", "--mode", "multi", cfg]):
                assert run_quiet([str(a) for a in argv], log) == 0
    finally:
        if old is None:
            os.environ.pop(OUTPUT_ROOT_ENV)
        else:
            os.environ[OUTPUT_ROOT_ENV] = old
    return run_dir / "out", tracer
