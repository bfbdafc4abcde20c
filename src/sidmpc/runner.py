"""Experiment engine: open-loop excitation, closed-loop runs, and metrics.

The controller side works in deviation variables around the plant's
configured operating point; this module owns the translation between
absolute engineering units (plant, schedules, logs) and deviations
(models, controllers).

Timing convention for one closed-loop instant at time t:
  measure y(t) -> controller computes u(t) -> plant advances to t + ts
under u(t) and the disturbance value at t + ts, producing y(t + ts).
A disturbance step scheduled at 84 s therefore first affects the sample
stamped 84 s.  Disturbance schedules act in closed-loop runs only; the
open loop drives the undisturbed plant.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import ConfigError
from .mpc import MpcController
from .multimodel import ModelBank, mm_control_step
from .plant import PlantConfig, make_state, plant_output, plant_step
from .signals import Dataset

VIOLATION_TOL = 1e-6
MAX_INSTANTS = 10**7


@dataclass
class Schedule:
    """Piecewise-constant vector signal: value of the last row with time <= t."""

    rows: list  # list of (time, np.ndarray), strictly increasing times

    def __post_init__(self):
        rows = [(float(t), np.asarray(v, dtype=float).reshape(-1))
                for t, v in self.rows]
        rows.sort(key=lambda r: r[0])
        for (t0, _), (t1, _) in zip(rows, rows[1:]):
            if t1 <= t0:
                raise ConfigError(f"schedule times must be strictly increasing "
                                  f"({t0} then {t1})")
        widths = {v.shape[0] for _, v in rows}
        if len(widths) > 1:
            raise ConfigError(f"schedule rows have mixed widths {sorted(widths)}")
        self.rows = rows
        self._times = [t for t, _ in rows]

    def value_at(self, t: float, default: np.ndarray) -> np.ndarray:
        i = bisect.bisect_right(self._times, t) - 1
        if i < 0:
            return default
        return self.rows[i][1]

    @property
    def first_time(self) -> Optional[float]:
        return self._times[0] if self._times else None


def parse_schedule(text: str, width: int, name: str) -> Optional[Schedule]:
    """Rows of 't v1 ... vw' separated by newlines; blank text means none."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != width + 1:
            raise ConfigError(
                f"{name} row {lineno} has {len(parts)} fields, expected "
                f"{width + 1} (time plus {width} values)"
            )
        try:
            vals = [float(v) for v in parts]
        except ValueError as exc:
            raise ConfigError(f"{name} row {lineno}: {exc}") from None
        if not np.all(np.isfinite(vals)):
            raise ConfigError(f"{name} row {lineno}: values must be finite")
        rows.append((vals[0], np.array(vals[1:])))
    return Schedule(rows) if rows else None


def run_open_loop(plant_cfg: PlantConfig, U_abs: np.ndarray,
                  seed: Optional[int] = None) -> Dataset:
    """Drive the undisturbed plant with a fixed input record, collect the measurements.

    Sample k pairs the input applied over [k ts, (k+1) ts) with the
    measurement taken at k ts, so y[k] reflects inputs up to u[k-1].
    """
    U_abs = np.asarray(U_abs, dtype=float)
    if U_abs.ndim == 1:
        U_abs = U_abs[:, None]
    if U_abs.shape[1] != plant_cfg.m:
        raise ConfigError(
            f"input record has {U_abs.shape[1]} channels, plant expects {plant_cfg.m}"
        )
    state = make_state(plant_cfg, seed)
    N = U_abs.shape[0]
    Y = np.empty((N, plant_cfg.p))
    Y[0] = plant_output(state, U_abs[0])
    for k in range(N - 1):
        state, Y[k + 1] = plant_step(state, U_abs[k])
    return Dataset(U_abs.copy(), Y, plant_cfg.ts)


def _step_count(duration: float, ts: float) -> int:
    """Instants in a run; ConfigError unless duration is ts times 1..MAX_INSTANTS."""
    ratio = duration / ts
    n = int(round(ratio)) if np.isfinite(ratio) else 0
    if n < 1 or abs(n * ts - duration) > 1e-9 * max(1.0, abs(duration)):
        raise ConfigError(f"duration {duration} is not a positive multiple of ts {ts}")
    if n > MAX_INSTANTS:
        raise ConfigError(f"duration {duration} exceeds {MAX_INSTANTS} instants of ts {ts}")
    return n


@dataclass
class RunResult:
    t: np.ndarray
    r: np.ndarray          # absolute setpoints, N x p
    y: np.ndarray          # absolute measurements, N x p
    u: np.ndarray          # absolute inputs, N x m
    du: np.ndarray         # input moves, N x m
    J: np.ndarray          # horizon cost of the applied controller
    model_id: np.ndarray   # selected model per instant
    yhat: np.ndarray       # one-step-ahead prediction (absolute), N x p
    fallback: np.ndarray   # bool, soft constraint fallback engaged
    fallback_failed: np.ndarray
    ts: float
    y_bounds_abs: tuple
    disturbance_time: Optional[float] = None
    warnings: list = field(default_factory=list)


def run_closed_loop(
    plant_cfg: PlantConfig,
    controller: Union[MpcController, ModelBank],
    duration: float,
    setpoints: Optional[Schedule] = None,
    disturbances: Optional[Schedule] = None,
    seed: Optional[int] = None,
    single_model_id=0,
) -> RunResult:
    """Receding-horizon loop against the surrogate plant.

    `controller` is a single MpcController or a ModelBank; the reference
    over the horizon is the current setpoint held constant.
    """
    ts = plant_cfg.ts
    n_steps = _step_count(duration, ts)
    is_bank = isinstance(controller, ModelBank)
    first = controller.entries[0][1] if is_bank else controller
    m, p = first.model.m, first.model.p
    if (m, p) != (plant_cfg.m, plant_cfg.p):
        raise ConfigError("controller and plant disagree on channel counts")

    u_ss, y_ss = plant_cfg.u_ss, plant_cfg.y_ss
    y_lo_abs = first.cfg.y_min + y_ss
    y_hi_abs = first.cfg.y_max + y_ss

    state = make_state(plant_cfg, seed)
    d_zero = None if plant_cfg.disturbance_gain is None else \
        np.zeros(plant_cfg.disturbance_gain.shape[1])
    d0 = None if disturbances is None else disturbances.value_at(0.0, d_zero)
    y_abs = plant_output(state, u_ss, d0)

    t = np.arange(n_steps) * ts
    R = np.empty((n_steps, p))
    Y = np.empty((n_steps, p))
    U = np.empty((n_steps, m))
    DU = np.empty((n_steps, m))
    J = np.empty(n_steps)
    MID = np.empty(n_steps, dtype=object)
    YH = np.empty((n_steps, p))
    FB = np.zeros(n_steps, dtype=bool)
    FBF = np.zeros(n_steps, dtype=bool)
    warnings_log = []

    for k in range(n_steps):
        tk = t[k]
        r_abs = y_ss if setpoints is None else setpoints.value_at(tk, y_ss)
        ref_dev = r_abs - y_ss
        y_dev = y_abs - y_ss
        if is_bank:
            prev_dev = controller.entries[0][1].u_prev.copy()
            u_dev, _, _ = mm_control_step(controller, y_dev, ref_dev)
            diag = controller.last_diagnostics[controller.incumbent]
            mid = controller.entries[controller.incumbent][0]
        else:
            prev_dev = controller.u_prev.copy()
            u_dev, diag = controller.control_step(y_dev, ref_dev)
            mid = single_model_id
        if diag["fallback"]:
            warnings_log.append(
                f"t={tk:.6g}: output constraints softened "
                f"(max slack {diag['slack_max']:.6g})"
            )
        if diag["fallback_failed"]:
            warnings_log.append(f"t={tk:.6g}: {diag['held']}; input held")
        R[k] = r_abs
        Y[k] = y_abs
        U[k] = u_ss + u_dev
        DU[k] = u_dev - prev_dev
        J[k] = diag["J"]
        MID[k] = mid
        YH[k] = diag["yhat"][:p] + y_ss
        FB[k] = diag["fallback"]
        FBF[k] = diag["fallback_failed"]

        d = None if disturbances is None else disturbances.value_at(tk + ts, d_zero)
        state, y_abs = plant_step(state, U[k], d)

    return RunResult(
        t=t, r=R, y=Y, u=U, du=DU, J=J, model_id=MID, yhat=YH,
        fallback=FB, fallback_failed=FBF, ts=ts,
        y_bounds_abs=(y_lo_abs, y_hi_abs),
        disturbance_time=None if disturbances is None else disturbances.first_time,
        warnings=warnings_log,
    )


def iae(result: RunResult, t_start: Optional[float] = None,
        t_end: Optional[float] = None) -> np.ndarray:
    """Integral of absolute tracking error per channel over [t_start, t_end]."""
    mask = np.ones(result.t.shape[0], dtype=bool)
    if t_start is not None:
        mask &= result.t >= t_start
    if t_end is not None:
        mask &= result.t <= t_end
    err = np.abs(result.y[mask] - result.r[mask])
    return err.sum(axis=0) * result.ts


def step_metrics(result: RunResult) -> list:
    """Rise time (10-90%), settling time (2% band), overshoot % per channel.

    Metrics refer to the first setpoint step of each channel; channels
    without a step report None entries.
    """
    out = []
    for j in range(result.r.shape[1]):
        r = result.r[:, j]
        changes = np.flatnonzero(np.diff(r) != 0)
        if changes.size == 0:
            out.append({"rise_time": None, "settling_time": None,
                        "overshoot_pct": None})
            continue
        i0 = int(changes[0]) + 1
        old, new = float(r[i0 - 1]), float(r[i0])
        delta = new - old
        y = result.y[i0:, j]
        tt = result.t[i0:]
        sgn = np.sign(delta)
        v = y * sgn
        hit90 = v >= (old + 0.9 * delta) * sgn
        rise = None
        if hit90.any():
            rise = float(tt[np.argmax(hit90)] - tt[np.argmax(v >= (old + 0.1 * delta) * sgn)])
        # settled from the sample after the last one outside the 2% band
        outside = np.flatnonzero(~(np.abs(y - new) <= 0.02 * abs(delta)))
        k = outside[-1] + 1 if outside.size else 0
        settle = float(tt[k] - result.t[i0]) if k < y.shape[0] else None
        over = float(max(np.max((y - new) * sgn), 0.0) / abs(delta) * 100.0)
        out.append({"rise_time": rise, "settling_time": settle,
                    "overshoot_pct": over})
    return out


def count_violations(result: RunResult) -> np.ndarray:
    """Instants per channel where the measurement leaves the hard window."""
    lo, hi = result.y_bounds_abs
    below = result.y < lo - VIOLATION_TOL
    above = result.y > hi + VIOLATION_TOL
    return (below | above).sum(axis=0)


def summarize(result: RunResult) -> dict:
    """JSON-ready per-run summary."""
    iae_full = iae(result)
    metrics = step_metrics(result)
    violations = count_violations(result)
    ids, counts = np.unique(result.model_id.astype(str), return_counts=True)
    summary = {
        "n_steps": int(result.t.shape[0]),
        "ts": float(result.ts),
        "iae": [float(v) for v in iae_full],
        "channels": [
            {
                "iae": float(iae_full[j]),
                "rise_time": metrics[j]["rise_time"],
                "settling_time": metrics[j]["settling_time"],
                "overshoot_pct": metrics[j]["overshoot_pct"],
                "violations": int(violations[j]),
            }
            for j in range(result.y.shape[1])
        ],
        "violation_instants": int(np.sum(violations)),
        "fallback_count": int(np.sum(result.fallback)),
        "fallback_failed_count": int(np.sum(result.fallback_failed)),
        "selection_counts": {str(i): int(c) for i, c in zip(ids, counts)},
        "warnings": list(result.warnings),
    }
    if result.disturbance_time is not None:
        post = iae(result, t_start=result.disturbance_time)
        summary["post_disturbance_iae"] = [float(v) for v in post]
        summary["disturbance_time"] = float(result.disturbance_time)
    return summary
