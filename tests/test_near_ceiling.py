"""Closed loop three units below the y1 ceiling.

The shipped tracking setup (identification and controller) with setpoint
steps that take y1 to 797 against its 800 ceiling and y2 up by about ten:
with zero move weight every step saturates the move limit, so its QPs carry
the largest working sets the controller meets (up to about 15 rows of 800).
The loop runs with a small budget of QP work and no wall-clock bound; every
solve is checked against an NNLS KKT oracle that shares nothing with the
solver.
"""

from pathlib import Path

import numpy as np
import pytest
from qp_oracle import kkt_violation

import sidmpc.mpc as mpc
from sidmpc.cli import excitation_record
from sidmpc.config import load_experiment_config
from sidmpc.mpc import MpcController
from sidmpc.multimodel import ModelBank
from sidmpc.runner import Schedule, run_closed_loop, run_open_loop
from sidmpc.signals import split
from sidmpc.subspace import estimate_n4sid

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "fccu-tracking.ini"
QP_MAX_ITER = 100          # working-set changes per solve
KKT_TOL = 1e-9             # relative, the tolerance the controller solves to
Y_SS = (777.0, 965.0)
STEPS = [(19.6, 976.2), (117.9, 973.9), (216.2, 975.9), (311.3, 973.4), (411.3, 976.8)]
SCHEDULE = Schedule([row for t, y2 in STEPS
                     for row in ((t, [797.0, y2]), (np.floor(t / 100) * 100 + 60, Y_SS))])
NOISE_SEED = 1121323793


@pytest.fixture(scope="module")
def setup():
    exp = load_experiment_config(CONFIG)
    plant = exp.plant
    data = run_open_loop(plant, excitation_record(exp), seed=exp.run.seed)
    train, valid = split(data.shifted(plant.u_ss, plant.y_ss), exp.split_fraction)
    models = {mid: estimate_n4sid(train, cfg, valid).model
              for mid, cfg in exp.id_configs.items()}
    return exp, models, exp.controller


@pytest.mark.parametrize("mode", ["single", "multi"])
def test_near_ceiling_steps_solve_exactly_within_budget(setup, mode, monkeypatch):
    exp, models, cfg = setup
    solves = []
    real = mpc.solve_qp

    def recorded(qp, **kwargs):
        out = real(qp, **kwargs)
        solves.append((qp.H, qp.f.copy(), qp.A_ineq, qp.b_ineq.copy(), out[0], out[1]))
        return out

    monkeypatch.setattr(mpc, "solve_qp", recorded)
    if mode == "single":
        ctrl = MpcController(models["default"], cfg, qp_max_iter=QP_MAX_ITER)
    else:
        ctrl = ModelBank([(mid, MpcController(models[mid], cfg, qp_max_iter=QP_MAX_ITER))
                          for mid in exp.bank_ids])
    res = run_closed_loop(exp.plant, ctrl, 500.0, setpoints=SCHEDULE, seed=NOISE_SEED)

    assert not res.fallback.any() and not res.fallback_failed.any()
    assert res.warnings == []
    assert np.max(res.y[:, 0]) > 797.0          # the ceiling region was reached
    assert np.all(res.y <= cfg.y_max + exp.plant.y_ss + 1e-6)
    assert np.all(np.abs(res.du) <= cfg.du_max + 1e-9)
    u_dev = res.u - exp.plant.u_ss
    assert np.all((u_dev >= cfg.u_min) & (u_dev <= cfg.u_max))

    per_instant = 2 if mode == "multi" else 1
    assert len(solves) == per_instant * 1000
    worst = [kkt_violation(*s) for s in solves]
    assert sum(1 for s in solves if s[-1]) >= 80 * per_instant
    assert max(worst) <= KKT_TOL, \
        f"{sum(w > KKT_TOL for w in worst)} solves fail KKT, worst {max(worst):.3g}"
