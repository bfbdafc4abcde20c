"""Configurable 2x2 nonlinear surrogate of a cracking unit.

The truth system for closed-loop studies.  Two stable linear cores (a low
and a high operating regime) are blended by a sigmoid weight driven by the
regenerator-temperature proxy state, followed by a saturating static output
map.  Inputs are catalyst flow and air flow; outputs are riser outlet
temperature and regenerator temperature.  All dynamics are expressed in
deviations around the configured steady state, so the configured
(u_ss, y_ss) pair is an exact equilibrium.

`plant_output` measures the current state, `plant_step` the next one; both
form the input deviation (with any input-side disturbance) in
`_deviation_input` and take the output map, output-side disturbance and
seeded noise from `_measure`.

Parameter values are artifact configuration chosen for plausible gains,
time constants, and cross-coupling; they do not reproduce any published
plant model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DivergenceError

STATE_NORM_LIMIT = 1e9


def _spectral_radius(A) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(A))))


@dataclass
class PlantConfig:
    a_low: np.ndarray
    b_low: np.ndarray
    c_low: np.ndarray
    d_low: np.ndarray
    a_high: np.ndarray
    b_high: np.ndarray
    c_high: np.ndarray
    d_high: np.ndarray
    blend_vector: np.ndarray       # proxy = blend_vector . x
    blend_sharpness: float
    nonlin_scale: np.ndarray       # per-output tanh saturation half-range
    u_ss: np.ndarray
    y_ss: np.ndarray
    ts: float
    noise_std: np.ndarray = None
    disturbance_gain: np.ndarray = None
    disturbance_entry: str = "output"

    def __post_init__(self):
        for name in ("a_low", "b_low", "c_low", "d_low",
                     "a_high", "b_high", "c_high", "d_high"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        self.blend_vector = np.asarray(self.blend_vector, dtype=float).reshape(-1)
        self.nonlin_scale = np.asarray(self.nonlin_scale, dtype=float).reshape(-1)
        self.u_ss = np.asarray(self.u_ss, dtype=float).reshape(-1)
        self.y_ss = np.asarray(self.y_ss, dtype=float).reshape(-1)
        n = self.a_low.shape[0]
        m = self.b_low.shape[1]
        p = self.c_low.shape[0]
        if self.a_low.shape != (n, n) or self.a_high.shape != (n, n):
            raise ConfigError(f"regime state matrices must be {(n, n)}")
        if self.b_low.shape != (n, m) or self.b_high.shape != (n, m):
            raise ConfigError(f"regime input matrices must be {(n, m)}")
        if self.c_low.shape != (p, n) or self.c_high.shape != (p, n):
            raise ConfigError(f"regime output matrices must be {(p, n)}")
        if self.d_low.shape != (p, m) or self.d_high.shape != (p, m):
            raise ConfigError(f"d blocks must be {(p, m)}")
        if self.blend_vector.shape[0] != n:
            raise ConfigError(f"blend_vector must have length {n}")
        if self.nonlin_scale.shape[0] != p or np.any(self.nonlin_scale <= 0):
            raise ConfigError("nonlin_scale must be positive per output")
        if self.u_ss.shape[0] != m or self.y_ss.shape[0] != p:
            raise ConfigError("u_ss / y_ss lengths disagree with the cores")
        if self.noise_std is None:
            self.noise_std = np.zeros(p)
        self.noise_std = np.asarray(self.noise_std, dtype=float).reshape(-1)
        if self.noise_std.shape[0] != p or np.any(self.noise_std < 0):
            raise ConfigError(f"noise_std needs {p} nonnegative values, one per output")
        if self.disturbance_gain is not None:
            self.disturbance_gain = np.asarray(self.disturbance_gain, dtype=float)
            if self.disturbance_gain.ndim == 1:
                self.disturbance_gain = self.disturbance_gain[:, None]
            rows = p if self.disturbance_entry == "output" else m
            if self.disturbance_gain.shape[0] != rows:
                raise ConfigError(
                    f"disturbance_gain needs {rows} rows for "
                    f"{self.disturbance_entry}-side entry"
                )
        if self.disturbance_entry not in ("output", "input"):
            raise ConfigError(
                f"disturbance_entry must be 'output' or 'input', got "
                f"{self.disturbance_entry!r}"
            )
        for name, A in (("a_low", self.a_low), ("a_high", self.a_high)):
            rho = _spectral_radius(A)
            if rho >= 1.0:
                raise ConfigError(f"regime core {name} is unstable (radius {rho:.4f})")
        if not self.ts > 0:
            raise ConfigError(f"ts must be positive, got {self.ts}")

    @property
    def n(self) -> int:
        return self.a_low.shape[0]

    @property
    def m(self) -> int:
        return self.b_low.shape[1]

    @property
    def p(self) -> int:
        return self.c_low.shape[0]


@dataclass
class PlantState:
    config: PlantConfig
    x: np.ndarray
    t: float = 0.0
    rng: Optional[np.random.Generator] = None


def make_state(config: PlantConfig, seed: Optional[int] = None) -> PlantState:
    """Fresh state at the configured equilibrium."""
    return PlantState(
        config=config,
        x=np.zeros(config.n),
        t=0.0,
        rng=np.random.default_rng(seed),
    )


def blend_weight(config: PlantConfig, x) -> float:
    """Sigmoid regime weight; 0 deep in the low regime, 1 in the high."""
    z = config.blend_sharpness * float(config.blend_vector @ np.asarray(x))
    # guard the exponential on wild states
    if z > 500:
        return 1.0
    if z < -500:
        return 0.0
    return 1.0 / (1.0 + np.exp(-z))


def plant_output(state: PlantState, u, d=None) -> np.ndarray:
    """Measurement at the current state without advancing time."""
    return _measure(state, *_deviation_input(state.config, u, d))


def _deviation_input(cfg: PlantConfig, u, d):
    """(u_dev, d): u's deviation from u_ss, plus the input-side disturbance,
    and d checked against the disturbance gain."""
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.shape[0] != cfg.m:
        raise ConfigError(f"input has length {u.shape[0]}, plant expects {cfg.m}")
    u_dev = u - cfg.u_ss
    d = _as_disturbance(cfg, d)
    if d is not None and cfg.disturbance_entry == "input" \
            and cfg.disturbance_gain is not None:
        u_dev = u_dev + cfg.disturbance_gain @ d
    return u_dev, d


def _measure(state: PlantState, u_dev, d) -> np.ndarray:
    """Blended output, output-side disturbance, tanh map and noise at state.x."""
    cfg, x = state.config, state.x
    w = blend_weight(cfg, x)
    y_lin = (1.0 - w) * (cfg.c_low @ x + cfg.d_low @ u_dev) \
        + w * (cfg.c_high @ x + cfg.d_high @ u_dev)
    if d is not None and cfg.disturbance_entry == "output" \
            and cfg.disturbance_gain is not None:
        y_lin = y_lin + cfg.disturbance_gain @ d
    s = cfg.nonlin_scale
    y = cfg.y_ss + s * np.tanh(y_lin / s)
    # the same numbers as rng.normal(0.0, noise_std), at a fraction of the cost
    if cfg.noise_std.any() and state.rng is not None:
        y = y + cfg.noise_std * state.rng.standard_normal(cfg.p)
    return y


def _as_disturbance(cfg: PlantConfig, d):
    if d is None:
        return None
    d = np.asarray(d, dtype=float).reshape(-1)
    if cfg.disturbance_gain is not None \
            and d.shape[0] != cfg.disturbance_gain.shape[1]:
        raise ConfigError(
            f"disturbance has {d.shape[0]} channels, gain expects "
            f"{cfg.disturbance_gain.shape[1]}"
        )
    return d


def plant_step(state: PlantState, u, d=None):
    """Advance one sampling interval under input u and disturbance d.

    Mutates and returns the state together with the measurement taken at
    the new time.  The disturbance argument is the value acting during
    this interval (and on the new measurement for output-side entry).
    """
    cfg = state.config
    u_dev, d = _deviation_input(cfg, u, d)
    w = blend_weight(cfg, state.x)
    x_next = (1.0 - w) * (cfg.a_low @ state.x + cfg.b_low @ u_dev) \
        + w * (cfg.a_high @ state.x + cfg.b_high @ u_dev)
    t_next = state.t + cfg.ts
    # one comparison; a nan or inf entry fails it too
    if not np.linalg.norm(x_next) <= STATE_NORM_LIMIT:
        raise DivergenceError(f"plant state diverged at t = {t_next:.6g} s", t=t_next)
    state.x = x_next
    state.t = t_next
    return state, _measure(state, u_dev, d)


def make_default_fccu(noise_std=None, blend_sharpness: float = 0.1,
                      disturbance_entry: str = "output") -> PlantConfig:
    """The repository's canonical surrogate configuration.

    Equilibrium (777, 965) sits inside the constraint windows [0, 800] and
    [0, 1150] close enough to the riser ceiling that upward setpoint steps
    meet the bound.  The high regime carries about 40 percent more gain
    than the low regime, and both cores couple the channels.
    """
    a_low = np.array([
        [0.88, 0.05, 0.02],
        [0.03, 0.96, 0.03],
        [0.00, 0.02, 0.90],
    ])
    b_low = np.array([
        [0.55, 0.08],
        [-0.12, 0.26],
        [0.05, 0.10],
    ])
    c_low = np.array([
        [1.00, 0.18, 0.10],
        [0.20, 1.00, 0.30],
    ])
    d_low = np.zeros((2, 2))
    # faster, hotter regime with clearly larger gains
    a_high = np.array([
        [0.85, 0.06, 0.02],
        [0.03, 0.94, 0.02],
        [0.00, 0.02, 0.87],
    ])
    b_high = 1.40 * b_low
    c_high = c_low.copy()
    d_high = np.zeros((2, 2))
    return PlantConfig(
        a_low=a_low, b_low=b_low, c_low=c_low, d_low=d_low,
        a_high=a_high, b_high=b_high, c_high=c_high, d_high=d_high,
        blend_vector=np.array([0.0, 1.0, 0.0]),
        blend_sharpness=blend_sharpness,
        nonlin_scale=np.array([60.0, 90.0]),
        u_ss=np.array([50.0, 30.0]),
        y_ss=np.array([777.0, 965.0]),
        ts=0.5,
        noise_std=noise_std,
        disturbance_gain=np.array([[1.2], [3.0]]),
        disturbance_entry=disturbance_entry,
    )
