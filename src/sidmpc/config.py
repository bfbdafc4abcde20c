"""Experiment configuration: one INI file drives every CLI subcommand.

Sections:
  [plant]           surrogate preset plus optional overrides
  [excitation]      PRBS register, clock, length, per-channel amplitudes
  [identification]  split fraction and the list of bank model ids
  [identification.<id>]  horizons and order policy per bank model
  [controller]      horizons, weights, constraint windows (absolute units,
                    loaded as an MpcConfig in deviations from the plant's
                    operating point)
  [multimodel]      bank composition and switching hysteresis; every
                    member keeps its own Kalman state, so a sync_mode key,
                    kept by older configs, may only say kalman-only
  [run]             duration, seed, setpoint and disturbance schedules
  [output]          run directory (re-rooted by SIDMPC_OUTPUT_ROOT if set)

Schedules are multi-line values, one row per line: a time in seconds
followed by one value per channel.  A section or key missing from
SECTION_KEYS is refused, so a misspelled name cannot drop a setting.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError
from .mpc import MpcConfig
from .plant import PlantConfig, make_default_fccu
from .runner import MAX_INSTANTS, Schedule, _step_count, parse_schedule
from .signals import PrbsSpec, _read_text
from .subspace import N4sidConfig

OUTPUT_ROOT_ENV = "SIDMPC_OUTPUT_ROOT"
# largest prediction or control horizon, in steps: every controller matrix
# grows with it (the shipped configs use 100 and 50)
MAX_HORIZON = 500


@dataclass
class RunSettings:
    duration: float
    seed: int = 0
    setpoints: Optional[Schedule] = None
    disturbances: Optional[Schedule] = None


@dataclass
class ExperimentConfig:
    plant: PlantConfig
    excitation: Optional[list]        # one PrbsSpec per input channel
    split_fraction: float
    id_configs: dict                  # model id -> N4sidConfig, insertion order
    controller: Optional[MpcConfig]
    switch_threshold: float
    bank_ids: list
    run: Optional[RunSettings]
    output_dir: Path
    single_model: Optional[str] = None
    source_text: str = field(default="", repr=False)


def _section(cp: configparser.ConfigParser, name: str) -> configparser.SectionProxy:
    if not cp.has_section(name):
        raise ConfigError(f"missing required section [{name}]")
    return cp[name]


def _get(sec, key: str, cast, required: bool = True, default=None):
    if key not in sec:
        if required:
            raise ConfigError(f"[{sec.name}] is missing key '{key}'")
        return default
    raw = sec[key].strip()
    try:
        return cast(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{sec.name}] {key} = {raw!r}: {exc}") from None


def _float(raw: str) -> float:
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError("must be finite")
    return v


def _floats(raw: str, count: Optional[int] = None) -> np.ndarray:
    v = np.array([_float(t) for t in raw.split()])
    if count is not None and v.shape[0] != count:
        raise ValueError(f"needs {count} values")
    return v


def _ints(raw: str) -> tuple:
    return tuple(int(v) for v in raw.split())


def _int_at_most(limit: int):
    """Parser of an integer no larger than limit, for keys that size arrays."""
    def cast(raw: str) -> int:
        v = int(raw)
        if v > limit:
            raise ValueError(f"exceeds {limit}")
        return v
    return cast


# the [plant] keys that override the preset, with their parsers
PLANT_OVERRIDES = {"noise_std": _floats, "blend_sharpness": _float,
                   "disturbance_entry": str, "disturbance_gain": _floats}

# the keys each section accepts; every [identification.<id>] shares one entry
SECTION_KEYS = {
    "plant": {"preset", *PLANT_OVERRIDES},
    "excitation": {"register_length", "total_length", "amplitude", "clock_period",
                   "seed", "taps"},
    "identification": {"split_fraction", "models"},
    "identification.<id>": {"f", "p", "order", "order_min", "order_max"},
    "controller": {"prediction_horizon", "control_horizon", "q_weights", "r_weights",
                   "y_min", "y_max", "u_min", "u_max", "du_max", "single_model"},
    "multimodel": {"sync_mode", "switch_threshold", "bank"},
    "run": {"duration", "seed", "setpoints", "disturbances"},
    "output": {"directory"},
}


def load_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    # values are read literally: a '%' is text, not an interpolation
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                   interpolation=None)
    text = _read_text(path)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    plant = _build_plant(cp)
    excitation = _build_excitation(cp, plant) if cp.has_section("excitation") else None

    split_fraction = 0.5
    id_configs: dict = {}
    if cp.has_section("identification"):
        ident = cp["identification"]
        split_fraction = _get(ident, "split_fraction", _float,
                              required=False, default=0.5)
        if not 0.0 < split_fraction < 1.0:
            raise ConfigError(f"[identification] split_fraction = {split_fraction!r} "
                              "must lie in (0, 1)")
        model_ids = _get(ident, "models", lambda r: r.split(),
                         required=False, default=[])
        for mid in model_ids:
            id_configs[mid] = _build_n4sid(cp, mid)

    controller = _build_controller(cp, plant) if cp.has_section("controller") else None
    single_model = cp.get("controller", "single_model", fallback=None)

    switch_threshold = 0.0
    bank_ids: list = list(id_configs)
    if cp.has_section("multimodel"):
        mm = cp["multimodel"]
        sync_mode = _get(mm, "sync_mode", str, required=False,
                         default="kalman-only")
        if sync_mode != "kalman-only":
            raise ConfigError(f"[multimodel] sync_mode = {sync_mode!r}: only "
                              "'kalman-only' is supported (the key may be omitted)")
        switch_threshold = _get(mm, "switch_threshold", _float,
                                required=False, default=0.0)
        bank_ids = _get(mm, "bank", lambda r: r.split(), required=False,
                        default=bank_ids)

    run = _build_run(cp, plant) if cp.has_section("run") else None

    out = _section(cp, "output")
    directory = _get(out, "directory", str)
    output_dir = resolve_output_dir(directory)
    _refuse_unknown_names(cp)

    return ExperimentConfig(
        plant=plant,
        excitation=excitation,
        split_fraction=split_fraction,
        id_configs=id_configs,
        controller=controller,
        switch_threshold=switch_threshold,
        bank_ids=bank_ids,
        run=run,
        output_dir=output_dir,
        single_model=single_model,
        source_text=text,
    )


def _refuse_unknown_names(cp) -> None:
    # a [DEFAULT] key would otherwise show up in, and be blamed on, every section
    if cp.defaults():
        raise ConfigError(f"unknown section [{cp.default_section}]")
    for name in cp.sections():
        kind = "identification.<id>" if name.startswith("identification.") else name
        if kind not in SECTION_KEYS:
            raise ConfigError(f"unknown section [{name}]")
        for key in cp[name]:
            if key not in SECTION_KEYS[kind]:
                raise ConfigError(f"[{name}] {key} is not a key of this section")


def resolve_output_dir(directory: str) -> Path:
    root = os.environ.get(OUTPUT_ROOT_ENV)
    d = Path(directory)
    if root and not d.is_absolute():
        return Path(root) / d
    return d


def _build_plant(cp) -> PlantConfig:
    sec = _section(cp, "plant")
    preset = _get(sec, "preset", str, required=False, default="default-fccu")
    if preset != "default-fccu":
        raise ConfigError(f"[plant] unknown preset {preset!r}; "
                          "only 'default-fccu' is available")
    overrides = {key: _get(sec, key, cast) for key, cast in PLANT_OVERRIDES.items()
                 if key in sec}
    try:
        return dataclasses.replace(make_default_fccu(), **overrides)
    except ConfigError as exc:
        raise ConfigError(f"[plant] {exc}") from None


def _build_excitation(cp, plant: PlantConfig) -> list:
    """One PrbsSpec per input channel.

    All channels share one maximal-length register; channel j discards
    j * (period // m) leading bits so the channels are decorrelated over
    the record instead of being near copies of each other.
    """
    sec = _section(cp, "excitation")
    n = _get(sec, "register_length", int)
    amplitude = _get(sec, "amplitude", lambda r: _floats(r, plant.m))
    if not np.all(amplitude > 0):
        raise ConfigError(f"[excitation] amplitude = {amplitude.tolist()} must be positive")
    common = dict(
        register_length=n,
        total_length=_get(sec, "total_length", _int_at_most(MAX_INSTANTS)),
        clock_period=_get(sec, "clock_period", int, required=False, default=1),
        seed=_get(sec, "seed", int, required=False, default=1),
        taps=_get(sec, "taps", _ints, required=False, default=None),
    )
    try:
        specs = [PrbsSpec(levels=(-a, a), **common) for a in amplitude.tolist()]
    except ConfigError as exc:
        raise ConfigError(f"[excitation] {exc}") from None
    # the period is taken only once PrbsSpec has checked register_length
    for j, spec in enumerate(specs):
        spec.phase = j * (((1 << n) - 1) // plant.m)
    return specs


def _build_n4sid(cp, mid: str) -> N4sidConfig:
    name = f"identification.{mid}"
    sec = _section(cp, name)
    f = _get(sec, "f", int)
    p = _get(sec, "p", int)
    order = _get(sec, "order", int, required=False, default=None)
    omin = _get(sec, "order_min", int, required=False, default=None)
    omax = _get(sec, "order_max", int, required=False, default=None)
    if order is not None:
        if omin is not None or omax is not None:
            raise ConfigError(f"[{name}] give either order or order_min/order_max")
        return N4sidConfig(f=f, p=p, order=order)
    if omin is None or omax is None:
        raise ConfigError(f"[{name}] needs order, or both order_min and order_max")
    return N4sidConfig(f=f, p=p, order_range=(omin, omax))


def _build_controller(cp, plant: PlantConfig) -> MpcConfig:
    """The controller section, shifted from absolute to deviation units."""
    sec = _section(cp, "controller")
    p, m = plant.p, plant.m

    def vec(key, count, offset=0.0, required=True):
        v = _get(sec, key, lambda r: _floats(r, count), required=required)
        return None if v is None else v - offset

    try:
        return MpcConfig(
            P=_get(sec, "prediction_horizon", _int_at_most(MAX_HORIZON)),
            M=_get(sec, "control_horizon", _int_at_most(MAX_HORIZON)),
            Q_weights=vec("q_weights", p),
            R_weights=vec("r_weights", m),
            y_min=vec("y_min", p, plant.y_ss),
            y_max=vec("y_max", p, plant.y_ss),
            u_min=vec("u_min", m, plant.u_ss, required=False),
            u_max=vec("u_max", m, plant.u_ss, required=False),
            du_max=vec("du_max", m, required=False),
            ts=plant.ts,
        )
    except ValueError as exc:
        raise ConfigError(f"[controller] {exc}") from None


def _build_run(cp, plant: PlantConfig) -> RunSettings:
    sec = _section(cp, "run")
    duration = _get(sec, "duration", _float)
    try:
        _step_count(duration, plant.ts)
    except ConfigError as exc:
        raise ConfigError(f"[run] {exc}") from None
    seed = _get(sec, "seed", int, required=False, default=0)
    if seed < 0:
        raise ConfigError(f"[run] seed = {seed} must be nonnegative")
    sp_text = sec.get("setpoints", "")
    setpoints = parse_schedule(sp_text, plant.p, "[run] setpoints") if sp_text.strip() else None
    nd = 1 if plant.disturbance_gain is None else plant.disturbance_gain.shape[1]
    d_text = sec.get("disturbances", "")
    disturbances = parse_schedule(d_text, nd, "[run] disturbances") if d_text.strip() else None
    return RunSettings(duration=duration, seed=seed,
                       setpoints=setpoints, disturbances=disturbances)

