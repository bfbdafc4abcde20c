"""QP work of the shipped runs, pinned.

Each shipped config runs `identify`, then `control` in single and in multi
mode, as the CLI does.  Counting the solves, the solves that end with a
non-empty active set and the active rows over all solves makes any change in
the work the controller does show up here as a diff, next to the timings.
"""

from pathlib import Path

import pytest

import sidmpc.mpc as mpc
from sidmpc.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# (solves, solves with an active row, active rows over all solves)
PINNED = {
    "fccu-tracking.ini": {"single": (240, 15, 69), "multi": (480, 30, 137)},
    "fccu-disturbance.ini": {"single": (320, 0, 0), "multi": (640, 0, 0)},
}


@pytest.mark.parametrize("config", sorted(PINNED))
def test_shipped_runs_do_the_pinned_qp_work(config, tmp_path, monkeypatch):
    monkeypatch.setenv("SIDMPC_OUTPUT_ROOT", str(tmp_path))
    path = str(CONFIG_DIR / config)
    assert main(["identify", path]) == 0
    real = mpc.solve_qp
    for mode, pinned in PINNED[config].items():
        actives = []

        def counted(qp, **kwargs):
            out = real(qp, **kwargs)
            actives.append(len(out[1]))
            return out

        monkeypatch.setattr(mpc, "solve_qp", counted)
        assert main(["control", path, "--mode", mode]) == 0
        work = (len(actives), sum(1 for a in actives if a), sum(actives))
        assert work == pinned, f"{config} {mode}: (solves, constrained, rows) {work}"
