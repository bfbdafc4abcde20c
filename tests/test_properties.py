"""Property tests of the file boundaries.

A model file either round-trips exactly or is refused with a ConfigError;
an experiment config either loads or is refused with an error of the
package's own kinds; a schedule either is refused with a ConfigError or
reads back every row at the times that select it.  Any other exception
escaping a loader is a bug in it.
"""

import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sidmpc.config import load_experiment_config
from sidmpc.errors import ConfigError, SidmpcError
from sidmpc.runner import Schedule, parse_schedule
from sidmpc.ssmodel import StateSpaceModel, load_model, predictor_radius, save_model

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
BOUNDED = settings(max_examples=100, deadline=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                   allow_infinity=False)


def matrix(draw, rows, cols):
    return np.array(draw(st.lists(finite, min_size=rows * cols, max_size=rows * cols)),
                    dtype=float).reshape(rows, cols)


@st.composite
def stable_models(draw):
    """Models whose predictor A - K C has spectral radius at most 0.9."""
    n, m, p = (draw(st.integers(1, hi)) for hi in (4, 3, 3))
    A_K = matrix(draw, n, n)
    rho = np.max(np.abs(np.linalg.eigvals(A_K)))
    if rho > 0.9:
        A_K *= 0.9 / rho
    B, C, D, K = (matrix(draw, *shape) for shape in ((n, m), (p, n), (p, m), (n, p)))
    ts = draw(st.floats(min_value=1e-6, max_value=1e3))
    return StateSpaceModel(A_K + K @ C, B, C, D, K, ts)


@BOUNDED
@given(model=stable_models())
def test_model_file_round_trips_exactly(tmp_path, model):
    path = tmp_path / "model.txt"
    save_model(model, path)
    back = load_model(path)
    assert back.ts == model.ts
    for name in "ABCDK":
        np.testing.assert_array_equal(getattr(back, name), getattr(model, name))


def _model_file_bytes(tmp_path_factory):
    """save_model's text of a model shaped like the shipped order-2 one."""
    model = StateSpaceModel(
        np.array([[0.97, 0.03], [0.01, 0.85]]), np.array([[-0.02, -0.05], [0.07, -0.01]]),
        np.array([[-4.8, 7.9], [-6.5, -2.4]]), np.array([[0.005, 0.006], [-0.006, 0.003]]),
        np.array([[-0.011, -0.016], [-0.0007, -0.0025]]), 0.5)
    path = tmp_path_factory.mktemp("model") / "model.txt"
    save_model(model, path)
    return path.read_bytes()


NUMBER = re.compile(rb"-?\d[\d.e+-]*")
POISON = [b"nan", b"inf", b"-inf", b"NaN", b"1e999", b"1e308", b"-1e308", b"0", b"-0.0"]


@st.composite
def corrupted(draw, text: bytes):
    kind = draw(st.sampled_from(["truncate", "flip", "poison", "huge", "undecodable"]))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "flip":
        i = draw(st.integers(0, len(text) - 1))
        return text[:i] + bytes([draw(st.integers(0, 255))]) + text[i + 1:]
    spans = [mt.span() for mt in NUMBER.finditer(text)]
    if kind == "poison":
        picked = draw(st.lists(st.sampled_from(spans), min_size=1, max_size=3, unique=True))
    elif kind == "huge":
        # every matrix entry from some point on, so products can overflow
        picked = spans[draw(st.integers(5, len(spans) - 1)):]
    if kind in ("poison", "huge"):
        out = text
        for a, b in sorted(picked, reverse=True):
            token = POISON if kind == "poison" else [b"1e308", b"-1e308", b"1e200"]
            out = out[:a] + draw(st.sampled_from(token)) + out[b:]
        return out
    i = draw(st.integers(0, len(text)))
    return text[:i] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xe2\x82"])) + text[i:]


def test_overflowing_model_file_is_refused(tmp_path):
    path = tmp_path / "model.txt"
    save_model(StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[0.0]], [[0.1]], 1.0), path)
    path.write_text(path.read_text().replace("0.5", "-1e308").replace("0.1", "1e308"))
    with pytest.raises(ConfigError, match="A - K C overflows"):
        load_model(path)


@BOUNDED
@given(data=st.data())
def test_corrupt_model_file_raises_only_config_error(tmp_path_factory, data):
    text = _model_file_bytes(tmp_path_factory)
    path = tmp_path_factory.mktemp("bad") / "model.txt"
    path.write_bytes(data.draw(corrupted(text)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            model = load_model(path)
        except ConfigError as exc:
            assert str(path) in str(exc)
            return
    # a corruption that still parses gives a finite model
    assert all(np.isfinite(getattr(model, name)).all() for name in "ABCDK")
    assert np.isfinite(predictor_radius(model))


INI_VALUES = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["1e308", "-1e308", "1e-320", "nan", "inf", "-0", "0", ""]),
    st.integers(-10**6, 10**6).map(str),
    st.integers(-10**30, 10**30).map(str),
    st.lists(st.floats(-1e6, 1e6).map(repr), min_size=1, max_size=4).map(" ".join),
    st.text(max_size=12),
)


@st.composite
def mutated_ini(draw, text: str):
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        # values are mutated twice as often as whole lines
        kind = draw(st.sampled_from(["value", "value", "delete", "duplicate", "insert"]))
        keyed = [j for j, line in enumerate(lines) if "=" in line]
        if kind == "value" and keyed:
            i = draw(st.sampled_from(keyed))
            key = lines[i].split("=", 1)[0]
            lines[i] = f"{key}= {draw(INI_VALUES)}"
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "insert":
            lines.insert(i, draw(st.text(max_size=20)))
        if not lines:
            lines = [""]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("config", ["fccu-tracking.ini", "fccu-disturbance.ini"])
@BOUNDED
@given(data=st.data())
def test_mutated_config_raises_only_package_errors(tmp_path_factory, config, data):
    text = (CONFIG_DIR / config).read_text()
    path = tmp_path_factory.mktemp("ini") / config
    path.write_text(data.draw(mutated_ini(text)), errors="surrogateescape")
    try:
        load_experiment_config(path)
    except SidmpcError:
        pass


# ---------------------------------------------------------------------------
# schedules

# times on a coarse grid, so that duplicates are drawn often
SCHEDULE_TIMES = st.integers(-20, 20).map(lambda i: i / 4)


@st.composite
def schedule_rows(draw):
    """(width, rows): unsorted rows that now and then repeat a time or
    change width."""
    width = draw(st.integers(1, 3))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        w = draw(st.sampled_from([width] * 5 + [width + 1]))
        rows.append((draw(SCHEDULE_TIMES), [draw(finite) for _ in range(w)]))
    return width, rows


def last_row_at(rows, t, default):
    """Value of the row with the latest time <= t, else default."""
    due = [(time, v) for time, v in rows if time <= t]
    return max(due, key=lambda r: r[0])[1] if due else default


def probe_times(rows):
    times = sorted({time for time, _ in rows}) or [0.0]
    return times + [t + d for t in times for d in (-0.1, 0.1)] + [times[0] - 100.0]


def assert_matches_oracle(schedule, rows, width):
    default = np.full(width, -7.5)
    for t in probe_times(rows):
        np.testing.assert_array_equal(schedule.value_at(t, default),
                                      last_row_at(rows, t, default))


def repeats_a_time(rows):
    times = [time for time, _ in rows]
    return len(set(times)) < len(times)


@BOUNDED
@given(drawn=schedule_rows())
def test_schedule_reads_the_last_due_row_or_refuses(drawn):
    width, rows = drawn
    faulty = repeats_a_time(rows) or len({len(v) for _, v in rows}) > 1
    try:
        schedule = Schedule(rows)
    except ConfigError:
        assert faulty
        return
    assert not faulty
    assert_matches_oracle(schedule, rows, width)


@BOUNDED
@given(drawn=schedule_rows(), blank=st.lists(st.booleans(), max_size=6))
def test_parsed_schedule_reads_the_last_due_row_or_refuses(drawn, blank):
    width, rows = drawn
    faulty = repeats_a_time(rows) or any(len(v) != width for _, v in rows)
    lines = []
    for (time, v), gap in zip(rows, blank + [False] * len(rows)):
        lines += [" ".join(repr(float(x)) for x in (time, *v))] + ([""] if gap else [])
    try:
        schedule = parse_schedule("\n".join(lines), width, "[run] setpoints")
    except ConfigError:
        assert faulty
        return
    assert not faulty
    if not rows:
        assert schedule is None
        return
    assert_matches_oracle(schedule, rows, width)
