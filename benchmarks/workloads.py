"""INI configs for the three benchmark workloads.

Every workload keeps the shipped identification and controller settings of
configs/fccu-tracking.ini.  Identification always runs on IDENTIFY_CONFIG,
with the shipped plant-noise seed: with noise drawn from the seed, 1 of 30
seeds tried (seed 9) gave an `asym` model with an unstable predictor, on which
the bank's first QP ran for minutes.  make_config(workload, seed) gives the
control config, which shares the output directory (and so the model bank);
its closed-loop noise and schedule are drawn from the seed, and the same seed
always gives the same text.

* identify: no schedule; the closed loop holds the operating point (every QP
  exits unconstrained).
* track: CYCLES setpoint cycles; each steps y1 up by about 13, to within
  about 10 units of the 800 ceiling, and y2 up by about 10, then back to the
  operating point.  The move limit du_max binds on every constrained instant.
  Its inputs are drawn from TRACK_SEED whatever the seed: the shipped
  controller overshoots du_max by up to a few 1e-9 on some of those instants,
  on about half of all seeds, and the benchmark counts each such instant as a
  failed operation, which needs the same instants to fail in every run.
* reject: held at the operating point; each cycle switches an output
  disturbance on and then off, with alternating sign.  Its size is half the
  shipped 2.0: at 2.0 the first move after a step meets du_max on most steps,
  and reject is meant to keep every QP unconstrained.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("identify", "track", "reject")

# operating point of the default-fccu preset
U_SS = (50.0, 30.0)
Y_SS = (777.0, 965.0)
U_MIN = (0.0, 0.0)
U_MAX = (100.0, 60.0)
DU_MAX = (2.0, 2.0)
SPLIT_FRACTION = 0.7

DURATION = 500.0          # 1000 instants at ts = 0.5 s
CYCLES = 5
CYCLE = DURATION / CYCLES
DISTURBANCE = 1.0
TRACK_SEED = 0
IDENTIFY_NOISE_SEED = 0   # [run] seed of configs/fccu-tracking.ini

_BASE = """\
[plant]
preset = default-fccu
noise_std = 0.3 0.3

[excitation]
register_length = 9
total_length = 3000
clock_period = 2
amplitude = 2.0 2.0
seed = 1

[identification]
split_fraction = {split}
models = default asym

[identification.default]
f = 25
p = 25
order_min = 2
order_max = 5

[identification.asym]
f = 30
p = 45
order = 3

[controller]
prediction_horizon = 100
control_horizon = 50
q_weights = 1 1
r_weights = 0 0
y_min = 0 0
y_max = 800 1150
u_min = {u_min}
u_max = {u_max}
du_max = {du_max}
single_model = default

[multimodel]
sync_mode = kalman-only
bank = default asym

[run]
duration = {duration:g}
seed = {noise_seed}
{schedule}
[output]
directory = out
"""


def _vec(v) -> str:
    return " ".join(f"{x:g}" for x in v)


def _rows(name: str, rows) -> str:
    lines = [f"{name} ="] + [f"    {t:.1f} " + " ".join(f"{v:.3f}" for v in vals)
                             for t, vals in rows]
    return "\n".join(lines) + "\n"


def make_config(workload: str, seed: int) -> str:
    """Control config of one workload run; deterministic in (workload, seed)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if workload == "track":
        seed = TRACK_SEED
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    noise_seed = int(rng.integers(0, 2**31 - 1))
    schedule = ""
    if workload == "track":
        rows = []
        for c in range(CYCLES):
            t0 = c * CYCLE
            up = (Y_SS[0] + rng.uniform(12.0, 14.0), Y_SS[1] + rng.uniform(8.0, 12.0))
            rows.append((t0 + rng.uniform(10.0, 20.0), up))
            rows.append((t0 + 60.0, Y_SS))
        schedule = _rows("setpoints", rows)
    elif workload == "reject":
        rows = []
        for c in range(CYCLES):
            t0 = c * CYCLE
            sign = 1.0 if c % 2 == 0 else -1.0
            rows.append((t0 + rng.uniform(10.0, 20.0), (sign * DISTURBANCE,)))
            rows.append((t0 + 60.0, (0.0,)))
        schedule = _rows("disturbances", rows)
    return _config(noise_seed, schedule)


def _config(noise_seed: int, schedule: str) -> str:
    return _BASE.format(split=SPLIT_FRACTION, u_min=_vec(U_MIN), u_max=_vec(U_MAX),
                        du_max=_vec(DU_MAX), duration=DURATION,
                        noise_seed=noise_seed, schedule=schedule)


IDENTIFY_CONFIG = _config(IDENTIFY_NOISE_SEED, "")
