"""Tests for schedules, the open/closed-loop engine, and run metrics."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from sidmpc.cli import excitation_record
from sidmpc.config import load_experiment_config
from sidmpc.errors import ConfigError
from sidmpc.mpc import MpcConfig, MpcController
from sidmpc.multimodel import ModelBank
from sidmpc.plant import blend_weight, make_default_fccu, make_state, plant_step
from sidmpc.runner import (RunResult, Schedule, count_violations, iae,
                           parse_schedule, run_closed_loop, run_open_loop,
                           step_metrics, summarize)
from sidmpc.ssmodel import StateSpaceModel, solve_dare

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def half_blend_model(plant_cfg):
    """Linearization of the surrogate at its equilibrium (blend = 0.5)."""
    A = 0.5 * (plant_cfg.a_low + plant_cfg.a_high)
    B = 0.5 * (plant_cfg.b_low + plant_cfg.b_high)
    C = 0.5 * (plant_cfg.c_low + plant_cfg.c_high)
    D = np.zeros((plant_cfg.p, plant_cfg.m))
    P, K = solve_dare(A, C, 0.1 * np.eye(3), np.eye(2))
    return StateSpaceModel(A, B, C, D, K, ts=plant_cfg.ts)


def fccu_controller(plant_cfg, P=15, M=5):
    cfg = MpcConfig(
        P=P, M=M, Q_weights=[1.0, 1.0], R_weights=[0.1, 0.1],
        y_min=np.array([0.0, 0.0]) - plant_cfg.y_ss,
        y_max=np.array([800.0, 1150.0]) - plant_cfg.y_ss,
        du_max=[4.0, 4.0], ts=plant_cfg.ts,
    )
    return MpcController(half_blend_model(plant_cfg), cfg)


# ---------------------------------------------------------------------------
# schedules


def test_schedule_holds_last_row():
    s = Schedule([(5.0, [1.0]), (10.0, [2.0])])
    default = np.array([0.0])
    assert np.array_equal(s.value_at(0.0, default), [0.0])
    assert np.array_equal(s.value_at(5.0, default), [1.0])
    assert np.array_equal(s.value_at(7.5, default), [1.0])
    assert np.array_equal(s.value_at(10.0, default), [2.0])
    assert np.array_equal(s.value_at(99.0, default), [2.0])
    assert s.first_time == 5.0


def test_schedule_sorts_rows():
    s = Schedule([(10.0, [2.0]), (5.0, [1.0])])
    assert [t for t, _ in s.rows] == [5.0, 10.0]


def test_schedule_rejects_equal_times():
    with pytest.raises(ConfigError, match="strictly increasing"):
        Schedule([(5.0, [1.0]), (5.0, [2.0])])


def test_schedule_rejects_mixed_widths():
    with pytest.raises(ConfigError, match="mixed widths"):
        Schedule([(1.0, [1.0]), (2.0, [1.0, 2.0])])


def test_parse_schedule_round_trip():
    s = parse_schedule("0 1 2\n10 3 4\n", width=2, name="setpoints")
    assert len(s.rows) == 2
    assert np.array_equal(s.rows[0][1], [1.0, 2.0])
    assert np.array_equal(s.rows[1][1], [3.0, 4.0])


def test_parse_schedule_skips_blank_lines():
    s = parse_schedule("\n0 1\n\n5 2\n", width=1, name="setpoints")
    assert [t for t, _ in s.rows] == [0.0, 5.0]


def test_parse_schedule_empty_means_none():
    assert parse_schedule("", width=2, name="setpoints") is None
    assert parse_schedule("   \n  ", width=2, name="setpoints") is None


def test_parse_schedule_field_count_error():
    with pytest.raises(ConfigError, match=r"row 2 has 2 fields, expected 3"):
        parse_schedule("0 1 2\n10 3", width=2, name="setpoints")


def test_parse_schedule_float_error_names_row():
    with pytest.raises(ConfigError, match="disturbances row 1"):
        parse_schedule("0 x", width=1, name="disturbances")


# ---------------------------------------------------------------------------
# open loop


def test_open_loop_measurement_lags_input():
    cfg = make_default_fccu()
    U = np.tile(cfg.u_ss, (6, 1))
    U[0] += [10.0, 0.0]
    data = run_open_loop(cfg, U)
    # y[0] is taken before any input acts; y[1] sees one step of U[0]
    assert np.array_equal(data.y[0], cfg.y_ss)
    x1 = 1.2 * cfg.b_low @ np.array([10.0, 0.0])
    w = blend_weight(cfg, x1)
    y_lin = (1 - w) * (cfg.c_low @ x1) + w * (cfg.c_high @ x1)
    expected = cfg.y_ss + cfg.nonlin_scale * np.tanh(y_lin / cfg.nonlin_scale)
    assert np.allclose(data.y[1], expected, atol=1e-12)
    assert data.ts == cfg.ts
    assert data.u.shape == (6, 2) and data.y.shape == (6, 2)


def test_open_loop_channel_mismatch():
    cfg = make_default_fccu()
    with pytest.raises(ConfigError, match="plant expects 2"):
        run_open_loop(cfg, np.zeros((10, 3)))


def test_open_loop_seeded_noise_reproducible():
    cfg = make_default_fccu(noise_std=[0.3, 0.3])
    U = np.tile(cfg.u_ss, (40, 1))
    d1 = run_open_loop(cfg, U, seed=7)
    d2 = run_open_loop(cfg, U, seed=7)
    d3 = run_open_loop(cfg, U, seed=8)
    assert np.array_equal(d1.y, d2.y)
    assert not np.array_equal(d1.y, d3.y)


@pytest.mark.parametrize("seed", [0, 2])
def test_open_loop_noise_is_one_standard_normal_stream(seed):
    # y = noise-free y + one block draw of the same seeded stream
    exp = load_experiment_config(CONFIG_DIR / "fccu-tracking.ini")
    U = excitation_record(exp)
    noisy = run_open_loop(exp.plant, U, seed=seed).y
    clean = run_open_loop(dataclasses.replace(exp.plant, noise_std=None), U).y
    noise = np.random.default_rng(seed).normal(0.0, exp.plant.noise_std, size=clean.shape)
    assert np.array_equal(noisy, clean + noise)


# ---------------------------------------------------------------------------
# closed loop


def test_closed_loop_at_equilibrium_is_quiet():
    plant = make_default_fccu()
    ctrl = fccu_controller(plant)
    res = run_closed_loop(plant, ctrl, duration=15.0)
    assert np.array_equal(res.y, np.tile(plant.y_ss, (30, 1)))
    assert np.array_equal(res.u, np.tile(plant.u_ss, (30, 1)))
    assert np.all(iae(res) == 0.0)
    assert res.warnings == []
    assert not res.fallback.any() and not res.fallback_failed.any()
    assert all(mid == 0 for mid in res.model_id)


def test_closed_loop_duration_validation():
    plant = make_default_fccu()
    ctrl = fccu_controller(plant)
    with pytest.raises(ConfigError, match="not a positive multiple"):
        run_closed_loop(plant, ctrl, duration=0.7)
    with pytest.raises(ConfigError, match="not a positive multiple"):
        run_closed_loop(plant, ctrl, duration=0.0)


def test_closed_loop_channel_mismatch():
    plant = make_default_fccu()
    scalar = StateSpaceModel(np.array([[0.9]]), np.array([[1.0]]),
                             np.array([[1.0]]), np.zeros((1, 1)),
                             np.zeros((1, 1)), ts=0.5)
    cfg = MpcConfig(P=5, M=2, Q_weights=[1.0], R_weights=[0.1],
                    y_min=[-10.0], y_max=[10.0], ts=0.5)
    with pytest.raises(ConfigError, match="channel counts"):
        run_closed_loop(plant, MpcController(scalar, cfg), duration=5.0)


def test_closed_loop_tracks_setpoint_change():
    plant = make_default_fccu()
    ctrl = fccu_controller(plant)
    sched = Schedule([(5.0, [782.0, 975.0])])
    res = run_closed_loop(plant, ctrl, duration=60.0, setpoints=sched)
    k_change = int(round(5.0 / plant.ts))
    assert np.array_equal(res.r[k_change - 1], plant.y_ss)
    assert np.array_equal(res.r[k_change], [782.0, 975.0])
    err_end = np.abs(res.y[-1] - res.r[-1])
    assert np.all(err_end < 0.5)


def test_closed_loop_disturbance_alignment_and_recovery():
    plant = make_default_fccu()
    ctrl = fccu_controller(plant)
    sched = Schedule([(3.0, [2.0])])
    res = run_closed_loop(plant, ctrl, duration=30.0, disturbances=sched)
    k_hit = int(round(3.0 / plant.ts))
    assert np.array_equal(res.y[:k_hit], np.tile(plant.y_ss, (k_hit, 1)))
    s = plant.nonlin_scale
    onset = plant.y_ss + s * np.tanh((plant.disturbance_gain @ [2.0]) / s)
    assert np.allclose(res.y[k_hit], onset, atol=1e-10)
    assert res.disturbance_time == 3.0
    err_onset = np.abs(res.y[k_hit] - plant.y_ss)
    err_end = np.abs(res.y[-1] - plant.y_ss)
    assert np.all(err_end < 0.8 * err_onset)


def test_closed_loop_records_moves_consistently():
    plant = make_default_fccu()
    ctrl = fccu_controller(plant)
    sched = Schedule([(2.0, [780.0, 970.0])])
    res = run_closed_loop(plant, ctrl, duration=20.0, setpoints=sched)
    rebuilt = np.vstack([plant.u_ss, res.u[:-1]]) + res.du
    assert np.allclose(rebuilt, res.u, atol=1e-12)
    assert np.all(np.abs(res.du) <= 4.0 + 1e-9)


def test_closed_loop_with_duplicate_bank_matches_single():
    plant = make_default_fccu()
    sched = Schedule([(2.0, [780.0, 970.0])])
    single = fccu_controller(plant)
    bank = ModelBank([("a", fccu_controller(plant)),
                      ("b", fccu_controller(plant))])
    res_s = run_closed_loop(plant, single, duration=10.0, setpoints=sched)
    res_b = run_closed_loop(plant, bank, duration=10.0, setpoints=sched)
    assert np.array_equal(res_s.u, res_b.u)
    assert np.array_equal(res_s.y, res_b.y)
    assert all(mid == "a" for mid in res_b.model_id)


def test_non_finite_measurement_holds_the_input(monkeypatch):
    import sidmpc.runner as runner
    plant = make_default_fccu()
    real_step = runner.plant_step
    k_nan = 6

    def step(state, u, d):
        state, y = real_step(state, u, d)
        if abs(state.t - k_nan * plant.ts) < 1e-9:
            y = np.array([y[0], np.nan])
        return state, y

    monkeypatch.setattr(runner, "plant_step", step)
    sched = Schedule([(1.0, [780.0, 970.0])])
    single = fccu_controller(plant)
    bank = ModelBank([("a", fccu_controller(plant)), ("b", fccu_controller(plant))])
    for ctrl in (single, bank):
        res = run_closed_loop(plant, ctrl, duration=10.0, setpoints=sched)
        assert np.isnan(res.y[k_nan, 1])
        assert np.flatnonzero(res.fallback_failed).tolist() == [k_nan]
        assert not res.fallback.any()
        assert np.array_equal(res.u[k_nan], res.u[k_nan - 1])
        assert np.isnan(res.J[k_nan]) and np.isnan(res.yhat[k_nan]).all()
        assert res.warnings == ["t=3: controller failed: measurement y_k[1] = nan "
                                "is not finite; input held"]
        # the estimators never saw the NaN: the next instant moves again
        assert np.all(np.isfinite(res.du[k_nan + 1:])) and np.any(res.du[k_nan + 1] != 0)
        assert np.all(np.isfinite(np.delete(res.J, k_nan)))
        assert summarize(res)["fallback_failed_count"] == 1


# ---------------------------------------------------------------------------
# metrics


def _manual_result(r, y, ts=0.5, bounds=None):
    r = np.asarray(r, dtype=float)
    y = np.asarray(y, dtype=float)
    if r.ndim == 1:
        r = r[:, None]
    if y.ndim == 1:
        y = y[:, None]
    N, p = y.shape
    if bounds is None:
        bounds = (np.full(p, -np.inf), np.full(p, np.inf))
    return RunResult(
        t=np.arange(N) * ts, r=r, y=y,
        u=np.zeros((N, 1)), du=np.zeros((N, 1)), J=np.zeros(N),
        model_id=np.zeros(N, dtype=object), yhat=y.copy(),
        fallback=np.zeros(N, dtype=bool), fallback_failed=np.zeros(N, dtype=bool),
        ts=ts, y_bounds_abs=bounds,
    )


def test_iae_hand_value_and_windowing():
    r = np.zeros(4)
    y = np.array([1.0, -2.0, 3.0, -4.0])
    res = _manual_result(r, y, ts=0.5)
    assert iae(res)[0] == pytest.approx(10.0 * 0.5)
    # window bounds are inclusive on both ends
    assert iae(res, t_start=0.5, t_end=1.0)[0] == pytest.approx(5.0 * 0.5)
    assert iae(res, t_start=1.5)[0] == pytest.approx(4.0 * 0.5)


def test_step_metrics_rising_step():
    pre = [0.0] * 4
    post = [0.0, 0.05, 0.12, 0.5, 0.85, 0.92, 0.97, 1.01, 0.99, 1.0, 1.0, 1.0]
    r = np.array([0.0] * 4 + [1.0] * len(post))
    y = np.array(pre + post)
    m = step_metrics(_manual_result(r, y, ts=0.5))[0]
    # 10% crossing at offset 2, 90% at offset 5 -> rise 3 samples
    assert m["rise_time"] == pytest.approx(1.5)
    # first instant from which |y - 1| <= 0.02 holds is offset 7
    assert m["settling_time"] == pytest.approx(3.5)
    assert m["overshoot_pct"] == pytest.approx(1.0)


def test_step_metrics_falling_step():
    post = [0.0, -0.5, -1.9, -2.05, -1.98, -2.0, -2.0]
    r = np.array([0.0] * 3 + [-2.0] * len(post))
    y = np.array([0.0] * 3 + post)
    m = step_metrics(_manual_result(r, y, ts=0.5))[0]
    assert m["rise_time"] == pytest.approx(0.5)
    assert m["settling_time"] == pytest.approx(2.0)
    assert m["overshoot_pct"] == pytest.approx(2.5)


def test_step_metrics_without_step_reports_none():
    res = _manual_result(np.zeros(10), np.zeros(10))
    m = step_metrics(res)[0]
    assert m == {"rise_time": None, "settling_time": None, "overshoot_pct": None}


def _loop_step_metrics(result):
    """Per-sample reference for step_metrics: scan each response forward
    for the 10% and 90% crossings and for the first sample from which it
    stays inside the 2% band."""
    out = []
    for j in range(result.r.shape[1]):
        r = result.r[:, j]
        changes = np.nonzero(np.diff(r) != 0)[0]
        if changes.size == 0:
            out.append({"rise_time": None, "settling_time": None,
                        "overshoot_pct": None})
            continue
        i0 = int(changes[0]) + 1
        old, new = float(r[i0 - 1]), float(r[i0])
        delta = new - old
        y, tt, sgn = result.y[i0:, j], result.t[i0:], np.sign(delta)
        lo, hi = old + 0.1 * delta, old + 0.9 * delta
        t10 = t90 = None
        for k in range(y.shape[0]):
            v = y[k] * sgn
            if t10 is None and v >= lo * sgn:
                t10 = tt[k]
            if v >= hi * sgn:
                t90 = tt[k]
                break
        rise = None if (t10 is None or t90 is None) else float(t90 - t10)
        inside = np.abs(y - new) <= 0.02 * abs(delta)
        settle = None
        for k in range(inside.shape[0]):
            if inside[k:].all():
                settle = float(tt[k] - result.t[i0])
                break
        over = float(max(np.max((y - new) * sgn), 0.0) / abs(delta) * 100.0)
        out.append({"rise_time": rise, "settling_time": settle,
                    "overshoot_pct": over})
    return out


def _random_step_response(rng, case):
    """Seeded response to one setpoint step, shaped to exercise one branch."""
    n_pre, n_post = int(rng.integers(1, 6)), int(rng.integers(5, 60))
    old = rng.uniform(-50.0, 50.0)
    delta = rng.uniform(0.5, 20.0) * (-1.0 if case == "falling" else 1.0)
    k = np.arange(n_post)
    reach = {"never-90": rng.uniform(0.3, 0.85)}.get(case, 1.0)
    y = old + reach * delta * (1.0 - rng.uniform(0.3, 0.95) ** k)
    y += rng.normal(0.0, 0.01, n_post) * abs(delta)
    if case == "never-settles":
        y[-1] = old + delta * rng.choice([0.9, 1.1])
    if case == "inside-at-once":
        y = old + delta + rng.uniform(-0.015, 0.015, n_post) * abs(delta)
    r = np.r_[np.full(n_pre, old), np.full(n_post, old + delta)]
    return _manual_result(r, np.r_[old + rng.normal(0.0, 0.1, n_pre), y])


@pytest.mark.parametrize("seed, case", enumerate(
    ["rising", "falling", "never-90", "never-settles", "inside-at-once"]))
def test_step_metrics_matches_per_sample_reference(seed, case):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        res = _random_step_response(rng, case)
        got, want = step_metrics(res)[0], _loop_step_metrics(res)[0]
        assert got == want
        if case == "never-90":
            assert got["rise_time"] is None
        if case == "never-settles":
            assert got["settling_time"] is None
        if case == "inside-at-once":
            assert got["settling_time"] == 0.0


def test_count_violations_uses_tolerance():
    bounds = (np.array([0.0]), np.array([1.0]))
    y = np.array([0.5, 1.0 + 5e-7, 1.1, -0.2])
    res = _manual_result(np.zeros(4), y, bounds=bounds)
    assert count_violations(res)[0] == 2


def test_summarize_structure():
    plant = make_default_fccu()
    ctrl = fccu_controller(plant)
    sched = Schedule([(3.0, [2.0])])
    res = run_closed_loop(plant, ctrl, duration=10.0, disturbances=sched)
    s = summarize(res)
    assert s["n_steps"] == 20
    assert s["ts"] == 0.5
    assert len(s["channels"]) == 2
    assert set(s["channels"][0]) == {"iae", "rise_time", "settling_time",
                                     "overshoot_pct", "violations"}
    assert s["selection_counts"] == {"0": 20}
    assert s["fallback_count"] == 0
    assert s["disturbance_time"] == 3.0
    assert len(s["post_disturbance_iae"]) == 2
    assert s["post_disturbance_iae"][1] > 0.0


def test_manual_plant_walk_matches_open_loop():
    # same trajectory rebuilt with raw plant_step calls
    cfg = make_default_fccu()
    rng = np.random.default_rng(5)
    U = np.tile(cfg.u_ss, (30, 1)) + rng.normal(0.0, 2.0, size=(30, 2))
    data = run_open_loop(cfg, U)
    state = make_state(cfg, seed=None)
    assert np.allclose(data.y[0], cfg.y_ss)
    for k in range(29):
        state, yk = plant_step(state, U[k])
        assert np.allclose(data.y[k + 1], yk, atol=1e-14)
