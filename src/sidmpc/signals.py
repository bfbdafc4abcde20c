"""PRBS excitation signals and sampled dataset handling.

A pseudo-random binary sequence is produced by a Fibonacci linear feedback
shift register.  The register is clocked once per bit; the output bit is the
most significant register bit and the feedback bit is the XOR of the tapped
stages.  With a primitive feedback polynomial the bit sequence is maximal
length: it repeats with period 2^n - 1 and contains 2^(n-1) ones and
2^(n-1) - 1 zeros per period.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError

# Primitive feedback taps (1-indexed stage numbers, stage 1 = output stage)
# for every supported register length.  User-supplied taps are accepted but
# always validated by measuring the generated period.
PRIMITIVE_TAPS = {
    2: (2, 1),
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 11, 10, 4),
    13: (13, 12, 11, 8),
    14: (14, 13, 12, 2),
    15: (15, 14),
    16: (16, 14, 13, 11),
}


@dataclass
class PrbsSpec:
    """Parameters of one PRBS excitation channel.

    levels maps bit 1 -> high and bit 0 -> low.  clock_period holds each bit
    for that many consecutive samples before the next register clock.
    """

    register_length: int
    taps: Optional[Sequence[int]] = None
    levels: tuple[float, float] = (-1.0, 1.0)
    clock_period: int = 1
    total_length: int = 1
    seed: int = 1
    phase: int = 0  # bits discarded before the first emitted sample

    def __post_init__(self):
        n = self.register_length
        if not 2 <= n <= 16:
            raise ConfigError(f"register_length must be in 2..16, got {n}")
        if self.taps is None:
            self.taps = PRIMITIVE_TAPS[n]
        self.taps = tuple(sorted(set(int(t) for t in self.taps), reverse=True))
        if any(t < 1 or t > n for t in self.taps):
            raise ConfigError(f"tap positions must lie in 1..{n}, got {self.taps}")
        low, high = self.levels
        if not low < high:
            raise ConfigError(f"levels must satisfy low < high, got {self.levels}")
        if self.clock_period < 1:
            raise ConfigError("clock_period must be >= 1")
        if self.total_length < 1:
            raise ConfigError("total_length must be >= 1")
        if self.seed == 0 or not 0 < self.seed < (1 << n):
            raise ConfigError(
                f"seed must be a nonzero {n}-bit register state, got {self.seed}"
            )
        if self.phase < 0:
            raise ConfigError("phase must be >= 0")


def _lfsr_bits(n: int, taps: Sequence[int], seed: int, count: int) -> np.ndarray:
    """Clock the register `count` times and return the output bits.

    Tap t selects the stage holding the bit clocked in t steps earlier; in
    the left-shifting state word that is bit position t - 1.  The emitted
    bit is the oldest stage (position n - 1).
    """
    state = seed
    mask = (1 << n) - 1
    shifts = [t - 1 for t in taps]
    out = np.empty(count, dtype=np.int8)
    for i in range(count):
        out[i] = (state >> (n - 1)) & 1
        fb = 0
        for s in shifts:
            fb ^= (state >> s) & 1
        state = ((state << 1) | fb) & mask
    return out


def measure_period(n: int, taps: Sequence[int], seed: int) -> int:
    """Length of the register state cycle containing `seed`.

    Returns 0 if the register falls into the absorbing all-zero state.
    """
    state = seed
    mask = (1 << n) - 1
    shifts = [t - 1 for t in taps]
    for step in range(1, (1 << n) + 1):
        fb = 0
        for s in shifts:
            fb ^= (state >> s) & 1
        state = ((state << 1) | fb) & mask
        if state == 0:
            return 0
        if state == seed:
            return step
    return 0


def prbs_generate(spec: PrbsSpec) -> np.ndarray:
    """Generate `total_length` samples of the two-level PRBS signal.

    The underlying bit sequence is validated to be maximal length (period
    exactly 2^n - 1); non-primitive taps are rejected.
    """
    n = spec.register_length
    period = measure_period(n, spec.taps, spec.seed)
    expected = (1 << n) - 1
    if period != expected:
        raise ConfigError(
            f"taps {spec.taps} are not primitive for register length {n}: "
            f"measured period {period}, expected {expected}"
        )
    nbits = spec.phase + (spec.total_length + spec.clock_period - 1) // spec.clock_period
    bits = _lfsr_bits(n, spec.taps, spec.seed, nbits)[spec.phase:]
    held = np.repeat(bits, spec.clock_period)[: spec.total_length]
    low, high = spec.levels
    return np.where(held == 1, float(high), float(low))


@dataclass
class Dataset:
    """Sampled multichannel input/output record with one sampling interval."""

    u: np.ndarray  # N x m
    y: np.ndarray  # N x p
    ts: float
    channel_names: Optional[list[str]] = None

    def __post_init__(self):
        # 1-D arrays are single-channel columns of N samples
        self.u = np.asarray(self.u, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.u.ndim == 1:
            self.u = self.u[:, None]
        if self.y.ndim == 1:
            self.y = self.y[:, None]
        if self.u.ndim != 2 or self.y.ndim != 2:
            raise ConfigError("u and y must be 1-D or 2-D arrays")
        if self.u.shape[0] != self.y.shape[0]:
            raise ConfigError(
                f"u has {self.u.shape[0]} rows but y has {self.y.shape[0]}"
            )
        if self.u.shape[0] < 1:
            raise ConfigError("dataset must contain at least one sample")
        if not self.ts > 0:
            raise ConfigError(f"sampling interval must be positive, got {self.ts}")
        self.ts = float(self.ts)

    @property
    def N(self) -> int:
        return self.u.shape[0]

    @property
    def m(self) -> int:
        return self.u.shape[1]

    @property
    def p(self) -> int:
        return self.y.shape[1]

    def shifted(self, u_offset, y_offset) -> "Dataset":
        """Same record expressed as deviations from (u_offset, y_offset)."""
        return Dataset(
            self.u - np.asarray(u_offset, dtype=float),
            self.y - np.asarray(y_offset, dtype=float),
            self.ts,
            self.channel_names,
        )


def split(d: Dataset, fraction: float) -> tuple[Dataset, Dataset]:
    """Contiguous prefix/suffix split; no shuffling, ts preserved."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"split fraction must lie in (0, 1), got {fraction}")
    n_train = int(np.floor(d.N * fraction))
    if n_train < 1 or d.N - n_train < 1:
        raise ConfigError(
            f"split of {d.N} samples at fraction {fraction} leaves an empty part"
        )
    train = Dataset(d.u[:n_train].copy(), d.y[:n_train].copy(), d.ts, d.channel_names)
    valid = Dataset(d.u[n_train:].copy(), d.y[n_train:].copy(), d.ts, d.channel_names)
    return train, valid


def _format(v: float) -> str:
    # repr of a Python float is the shortest decimal that round-trips exactly
    return repr(float(v))


def _read_text(path) -> str:
    """The file's text; bytes that do not decode raise ConfigError naming the path."""
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: byte {exc.start} is not {exc.encoding} text") from None


def _write_columns(path, header, columns) -> None:
    """CSV of a header row and equal-length array columns."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*(_cells(c) for c in columns)))


def _cells(column: np.ndarray) -> list:
    """Floats in exact round-trip form, flags as 1/0, model ids through str."""
    if column.dtype == bool:
        return ["1" if v else "0" for v in column]
    if column.dtype.kind == "f":
        return [_format(v) for v in column]
    return [str(v) for v in column]


def save_csv(d: Dataset, path) -> None:
    """Write a dataset as t, u..., y... columns in full double precision."""
    if d.channel_names is not None and len(d.channel_names) == d.m + d.p:
        names = list(d.channel_names)
    else:
        names = [f"u{i + 1}" for i in range(d.m)] + [f"y{i + 1}" for i in range(d.p)]
    _write_columns(path, ["t"] + names, [np.arange(d.N) * d.ts, *d.u.T, *d.y.T])


def load_csv(path) -> Dataset:
    """Read a dataset written by save_csv (or hand-authored in that layout).

    The header must contain a 't' column plus channels prefixed 'u' / 'y'.
    Row numbers in error messages count data rows from 1, so row k is line
    k + 1 of the file.  Every value must be finite.
    """
    reader = csv.reader(io.StringIO(_read_text(path)))
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError(f"{path}: empty file, missing header") from None
    header = [h.strip() for h in header]
    if "t" not in header:
        raise ConfigError(f"{path}: header lacks a 't' column: {header}")
    t_idx = header.index("t")
    u_idx = [i for i, h in enumerate(header) if i != t_idx and h.startswith("u")]
    y_idx = [i for i, h in enumerate(header) if i != t_idx and h.startswith("y")]
    if not u_idx or not y_idx:
        raise ConfigError(
            f"{path}: header must name u-prefixed and y-prefixed columns, got {header}"
        )
    ncol = len(header)
    t_vals, u_rows, y_rows = [], [], []
    for rownum, row in enumerate(reader, start=1):
        if len(row) != ncol:
            raise ConfigError(
                f"{path}: row {rownum} has {len(row)} fields, expected {ncol}"
            )
        try:
            vals = [float(v) for v in row]
        except ValueError as exc:
            raise ConfigError(f"{path}: row {rownum}: {exc}") from None
        if not all(np.isfinite(vals)):
            raise ConfigError(f"{path}: row {rownum}: non-finite value in {row}")
        t_vals.append(vals[t_idx])
        u_rows.append([vals[i] for i in u_idx])
        y_rows.append([vals[i] for i in y_idx])
    if len(t_vals) < 2:
        raise ConfigError(f"{path}: need at least 2 data rows to infer the sampling interval")
    t = np.asarray(t_vals)
    ts = t[1] - t[0]
    if not ts > 0:
        raise ConfigError(f"{path}: t column must be strictly increasing from row 1")
    scale = max(abs(ts), 1e-30)
    for k in range(1, len(t)):
        if abs((t[k] - t[k - 1]) - ts) > 1e-9 * scale:
            raise ConfigError(
                f"{path}: non-uniform t spacing at row {k + 1}: "
                f"step {t[k] - t[k - 1]!r} vs {ts!r}"
            )
    names = [header[i] for i in u_idx] + [header[i] for i in y_idx]
    return Dataset(np.asarray(u_rows), np.asarray(y_rows), float(ts), names)
