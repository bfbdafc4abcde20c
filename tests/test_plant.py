"""Tests for the blended two-regime surrogate plant."""

import numpy as np
import pytest

from sidmpc.errors import ConfigError, DivergenceError
from sidmpc.plant import (PlantConfig, blend_weight, make_default_fccu,
                          make_state, plant_output, plant_step)


def tiny_config(**overrides):
    """Minimal 1-state, 1-in, 1-out config for validation tests."""
    base = dict(
        a_low=[[0.8]], b_low=[[1.0]], c_low=[[1.0]], d_low=[[0.0]],
        a_high=[[0.5]], b_high=[[1.5]], c_high=[[1.0]], d_high=[[0.0]],
        blend_vector=[1.0], blend_sharpness=0.1,
        nonlin_scale=[10.0], u_ss=[0.0], y_ss=[5.0], ts=1.0,
    )
    base.update(overrides)
    return PlantConfig(**base)


# ---------------------------------------------------------------------------
# equilibrium and defaults


def test_equilibrium_is_exact():
    cfg = make_default_fccu()
    state = make_state(cfg, seed=0)
    for _ in range(20):
        state, y = plant_step(state, cfg.u_ss)
        assert np.array_equal(y, cfg.y_ss)
        assert np.array_equal(state.x, np.zeros(3))


def test_default_configuration_values():
    cfg = make_default_fccu()
    assert (cfg.n, cfg.m, cfg.p) == (3, 2, 2)
    assert cfg.ts == 0.5
    assert np.array_equal(cfg.u_ss, [50.0, 30.0])
    assert np.array_equal(cfg.y_ss, [777.0, 965.0])
    assert np.array_equal(cfg.nonlin_scale, [60.0, 90.0])


def test_default_cores_are_stable():
    cfg = make_default_fccu()
    for A in (cfg.a_low, cfg.a_high):
        assert np.max(np.abs(np.linalg.eigvals(A))) < 1.0


# ---------------------------------------------------------------------------
# regime blending


def test_blend_weight_half_at_zero_proxy():
    cfg = make_default_fccu()
    assert blend_weight(cfg, np.zeros(3)) == 0.5


def test_blend_weight_hand_value_and_monotone():
    cfg = make_default_fccu()  # proxy is x[1], sharpness 0.1
    x = np.array([0.0, 3.0, 0.0])
    assert blend_weight(cfg, x) == pytest.approx(1.0 / (1.0 + np.exp(-0.3)), abs=1e-15)
    proxies = np.linspace(-40.0, 40.0, 17)
    ws = [blend_weight(cfg, np.array([0.0, v, 0.0])) for v in proxies]
    assert all(b > a for a, b in zip(ws, ws[1:]))


def test_blend_weight_clamps_extremes():
    cfg = make_default_fccu()
    assert blend_weight(cfg, np.array([0.0, 1e5, 0.0])) == 1.0
    assert blend_weight(cfg, np.array([0.0, -1e5, 0.0])) == 0.0


def test_one_step_from_equilibrium_uses_half_blend():
    # at x = 0 the blend is exactly 0.5, so the step uses 1.2 * b_low
    cfg = make_default_fccu()
    state = make_state(cfg, seed=None)
    u_dev = np.array([2.0, -1.0])
    state, _ = plant_step(state, cfg.u_ss + u_dev)
    expected = 0.5 * (cfg.b_low @ u_dev) + 0.5 * (cfg.b_high @ u_dev)
    assert np.allclose(state.x, expected, atol=1e-14)
    assert np.allclose(expected, 1.2 * cfg.b_low @ u_dev, atol=1e-14)


# ---------------------------------------------------------------------------
# output saturation


def test_outputs_stay_inside_saturation_band():
    cfg = make_default_fccu()
    state = make_state(cfg, seed=None)
    worst = np.zeros(2)
    for _ in range(60):
        state, y = plant_step(state, [500.0, 400.0])
        dev = np.abs(y - cfg.y_ss)
        # float tanh reaches 1.0 exactly once the argument passes ~19
        assert np.all(dev <= cfg.nonlin_scale)
        worst = np.maximum(worst, dev)
    # the drive is large enough to actually reach the saturated region
    assert np.all(worst > 0.9 * cfg.nonlin_scale)


def test_small_signal_output_is_nearly_linear():
    cfg = make_default_fccu()
    state = make_state(cfg, seed=None)
    u_dev = np.array([0.01, 0.005])
    state, y = plant_step(state, cfg.u_ss + u_dev)
    w = blend_weight(cfg, state.x)
    y_lin = (1 - w) * (cfg.c_low @ state.x) + w * (cfg.c_high @ state.x)
    # tanh(z) = z - z^3/3 + ...; at this amplitude the cubic term is ~1e-9
    assert np.allclose(y - cfg.y_ss, y_lin, atol=1e-8)


# ---------------------------------------------------------------------------
# regime gain separation


def dc_gain(cfg, regime):
    """Steady-state gain matrix of one regime core."""
    A, B, C, D = {
        "low": (cfg.a_low, cfg.b_low, cfg.c_low, cfg.d_low),
        "high": (cfg.a_high, cfg.b_high, cfg.c_high, cfg.d_high),
    }[regime]
    return C @ np.linalg.solve(np.eye(cfg.n) - A, B) + D


def test_dc_gain_matches_long_step_response():
    cfg = make_default_fccu()
    for regime, A, B, C, D in (
        ("low", cfg.a_low, cfg.b_low, cfg.c_low, cfg.d_low),
        ("high", cfg.a_high, cfg.b_high, cfg.c_high, cfg.d_high),
    ):
        G = dc_gain(cfg, regime)
        for j in range(cfg.m):
            u = np.zeros(cfg.m)
            u[j] = 1.0
            x = np.zeros(cfg.n)
            for _ in range(2000):
                x = A @ x + B @ u
            assert np.allclose(C @ x + D @ u, G[:, j], atol=1e-8)


def test_regime_gains_differ_by_at_least_thirty_percent():
    cfg = make_default_fccu()
    G_low = dc_gain(cfg, "low")
    G_high = dc_gain(cfg, "high")
    split = np.linalg.norm(G_high - G_low) / np.linalg.norm(G_low)
    assert split >= 0.30
    assert split < 1.0


# ---------------------------------------------------------------------------
# disturbances


def test_output_side_disturbance_hand_value():
    cfg = make_default_fccu()
    state = make_state(cfg, seed=None)
    d = [2.0]
    y = plant_output(state, cfg.u_ss, d=d)
    s = cfg.nonlin_scale
    expected = cfg.y_ss + s * np.tanh((cfg.disturbance_gain @ [2.0]) / s)
    assert np.allclose(y, expected, atol=1e-14)


def test_output_side_disturbance_leaves_state_untouched():
    cfg = make_default_fccu()
    state = make_state(cfg, seed=None)
    for _ in range(10):
        state, y = plant_step(state, cfg.u_ss, d=[5.0])
        assert np.array_equal(state.x, np.zeros(3))
        assert np.all(y != cfg.y_ss)


def test_input_side_disturbance_drives_the_state():
    cfg = make_default_fccu(disturbance_entry="input")
    state = make_state(cfg, seed=None)
    state, y = plant_step(state, cfg.u_ss, d=[3.0])
    u_dev = cfg.disturbance_gain @ [3.0]
    expected_x = 1.2 * cfg.b_low @ u_dev
    assert np.allclose(state.x, expected_x, atol=1e-12)
    assert np.any(state.x != 0.0)


def test_output_and_step_share_the_input_path():
    # input-side disturbance with a direct feedthrough: plant_output at the
    # stepped state must measure what plant_step measured there
    cfg = make_default_fccu(disturbance_entry="input")
    cfg.d_low = np.array([[0.3, -0.1], [0.2, 0.4]])
    cfg.d_high = 1.5 * cfg.d_low
    state = make_state(cfg, seed=None)
    u, d = [52.0, 31.0], [3.0]
    for _ in range(3):
        state, y = plant_step(state, u, d)
    assert np.array_equal(plant_output(state, u, d), y)
    assert not np.array_equal(plant_output(state, u), y)
    with pytest.raises(ConfigError, match="plant expects 2"):
        plant_output(state, [50.0], d)


def test_disturbance_channel_mismatch():
    cfg = make_default_fccu()
    state = make_state(cfg, seed=None)
    with pytest.raises(ConfigError, match="gain expects 1"):
        plant_step(state, cfg.u_ss, d=[1.0, 2.0])


def test_disturbance_gain_row_check():
    with pytest.raises(ConfigError, match="disturbance_gain needs"):
        tiny_config(disturbance_gain=[[1.0], [2.0]], disturbance_entry="input")


# ---------------------------------------------------------------------------
# noise and reproducibility


def test_seeded_noise_is_reproducible():
    cfg = make_default_fccu(noise_std=[0.3, 0.3])
    runs = []
    for _ in range(2):
        state = make_state(cfg, seed=42)
        ys = [plant_step(state, cfg.u_ss)[1] for _ in range(30)]
        runs.append(np.array(ys))
    assert np.array_equal(runs[0], runs[1])
    other = make_state(cfg, seed=43)
    ys_other = np.array([plant_step(other, cfg.u_ss)[1] for _ in range(30)])
    assert not np.array_equal(runs[0], ys_other)


def test_noise_free_by_default():
    cfg = make_default_fccu()
    assert np.array_equal(cfg.noise_std, np.zeros(2))
    s1 = make_state(cfg, seed=1)
    s2 = make_state(cfg, seed=2)
    _, y1 = plant_step(s1, [52.0, 31.0])
    _, y2 = plant_step(s2, [52.0, 31.0])
    assert np.array_equal(y1, y2)


# ---------------------------------------------------------------------------
# stepping semantics


def test_plant_output_does_not_advance_time():
    cfg = make_default_fccu()
    state = make_state(cfg, seed=None)
    plant_step(state, [52.0, 31.0])
    x_before, t_before = state.x.copy(), state.t
    y1 = plant_output(state, cfg.u_ss)
    y2 = plant_output(state, cfg.u_ss)
    assert np.array_equal(y1, y2)
    assert np.array_equal(state.x, x_before)
    assert state.t == t_before


def test_plant_step_advances_clock_by_ts():
    cfg = make_default_fccu()
    state = make_state(cfg, seed=None)
    for k in range(1, 6):
        state, _ = plant_step(state, cfg.u_ss)
        assert state.t == pytest.approx(k * 0.5)


def test_wrong_input_length():
    cfg = make_default_fccu()
    state = make_state(cfg, seed=None)
    with pytest.raises(ConfigError, match="plant expects 2"):
        plant_step(state, [50.0])


@pytest.mark.parametrize("entry", [1e10, np.nan, np.inf], ids=["1e10", "nan", "inf"])
def test_divergence_guard(entry):
    cfg = make_default_fccu()
    state = make_state(cfg, seed=None)
    state.x = np.array([0.0, entry, 0.0])
    x_before = state.x.copy()
    # an inf state makes NumPy warn of inf * 0 on the way to the guard
    with pytest.raises(DivergenceError, match="diverged") as exc, \
            np.errstate(invalid="ignore"):
        plant_step(state, cfg.u_ss)
    assert exc.value.t == pytest.approx(0.5)
    assert np.array_equal(state.x, x_before, equal_nan=True)
    assert state.t == 0.0


# ---------------------------------------------------------------------------
# configuration validation


def test_unstable_core_rejected():
    with pytest.raises(ConfigError, match="a_low is unstable"):
        tiny_config(a_low=[[1.0]])
    with pytest.raises(ConfigError, match="a_high is unstable"):
        tiny_config(a_high=[[-1.2]])


def test_shape_checks():
    with pytest.raises(ConfigError, match="input matrices"):
        tiny_config(b_high=[[1.0], [2.0]])
    with pytest.raises(ConfigError, match="blend_vector"):
        tiny_config(blend_vector=[1.0, 0.0])
    with pytest.raises(ConfigError, match="nonlin_scale"):
        tiny_config(nonlin_scale=[-1.0])


def test_noise_std_must_be_nonnegative():
    with pytest.raises(ConfigError, match="noise_std"):
        tiny_config(noise_std=[-0.1])


def test_bad_disturbance_entry_rejected():
    with pytest.raises(ConfigError, match="disturbance_entry"):
        tiny_config(disturbance_entry="sideways", disturbance_gain=None)


def test_ts_must_be_positive():
    with pytest.raises(ConfigError, match="ts must be positive"):
        tiny_config(ts=0.0)
