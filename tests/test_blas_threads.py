"""Thread-count reproducibility of the shipped tracking chain.

The output files are byte-reproducible only for a fixed BLAS thread count:
OpenBLAS splits its reductions by thread, so one and two threads may round
the identified models differently in the last bits.  The chain is run as
the CLI runs it, in fresh interpreters with OPENBLAS_NUM_THREADS set to 1
and to 2, and the results must agree wherever rounding cannot show: the
excitation record exactly, the bank's selections exactly, and the IAE to
1e-9 relative (the measured spread is about 1e-11).
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import sidmpc

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "fccu-tracking.ini"
IAE_RTOL = 1e-9


def _run_chain(tmp_path, threads):
    root = tmp_path / f"threads-{threads}"
    config = root / "tracking.ini"
    root.mkdir()
    config.write_text(CONFIG.read_text().replace(
        "directory = out/fccu-tracking", f"directory = {root / 'out'}"))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=str(Path(sidmpc.__file__).resolve().parent.parent))
    env.pop("SIDMPC_OUTPUT_ROOT", None)
    for argv in (["identify"], ["control", "--mode", "single"],
                 ["control", "--mode", "multi"]):
        subprocess.run([sys.executable, "-m", "sidmpc.cli", argv[0], str(config),
                        *argv[1:]], env=env, check=True, capture_output=True)
    return root / "out"


def _model_ids(run_dir):
    with open(run_dir / "trajectory.csv") as fh:
        return [row["model_id"] for row in csv.DictReader(fh)]


def test_one_and_two_blas_threads_agree(tmp_path):
    one, two = _run_chain(tmp_path, 1), _run_chain(tmp_path, 2)
    dataset = "ident/dataset.csv"
    assert (one / dataset).read_bytes() == (two / dataset).read_bytes()
    for mode in ("single", "multi"):
        run = f"control-{mode}"
        assert _model_ids(one / run) == _model_ids(two / run)
        s1, s2 = (json.loads((d / run / "summary.json").read_text())
                  for d in (one, two))
        assert s1["selection_counts"] == s2["selection_counts"]
        np.testing.assert_allclose(s2["iae"], s1["iae"], rtol=IAE_RTOL, atol=0)
