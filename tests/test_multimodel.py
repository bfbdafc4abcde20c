"""Tests for the supervisory controller bank and its selection rule."""

from pathlib import Path

import numpy as np
import pytest

from sidmpc.config import load_experiment_config
from sidmpc.errors import ConfigError
from sidmpc.mpc import MpcConfig, MpcController
from sidmpc.multimodel import ModelBank, mm_control_step
from sidmpc.ssmodel import KalmanState, StateSpaceModel, kalman_step, solve_dare

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "fccu-tracking.ini"
WIDE = dict(y_min=[-1e6], y_max=[1e6])


def scalar_model(a, b, c=1.0, d=0.0):
    A = np.array([[a]])
    C = np.array([[c]])
    P, K = solve_dare(A, C, 0.1 * np.eye(1), np.eye(1))
    return StateSpaceModel(A, np.array([[b]]), C, np.array([[d]]), K)


def loop_cfg(**overrides):
    base = dict(P=8, M=3, Q_weights=[1.0], R_weights=[0.05],
                du_max=[0.2], **WIDE)
    base.update(overrides)
    return MpcConfig(**base)


def make_ctrl(model, cfg=None):
    return MpcController(model, cfg if cfg is not None else loop_cfg())


def plant_loop(bank, n_steps, a=0.9, b=1.0, ref_fn=None):
    """Drive a noise-free scalar plant with the bank; return the histories."""
    if ref_fn is None:
        ref_fn = lambda k: [1.0 if (k // 15) % 2 == 0 else -0.5]
    x = np.zeros(1)
    us, sels, Js = [], [], []
    for k in range(n_steps):
        u, sel, J = mm_control_step(bank, x.copy(), ref_fn(k))
        x = a * x + b * u
        us.append(u.copy())
        sels.append(sel)
        Js.append(J.copy())
    return us, sels, Js


# ---------------------------------------------------------------------------
# transparency: duplicate banks reproduce the single-controller loop


def test_duplicate_pair_matches_single_controller():
    cfg = loop_cfg()
    single = make_ctrl(scalar_model(0.9, 1.0), cfg)
    bank = ModelBank([("a", make_ctrl(scalar_model(0.9, 1.0), cfg)),
                      ("b", make_ctrl(scalar_model(0.9, 1.0), cfg))])
    rng = np.random.default_rng(11)
    ys = rng.normal(size=40)
    for k in range(40):
        ref = [np.sin(0.2 * k)]
        u_b, sel, J = mm_control_step(bank, [ys[k]], ref)
        u_s, _ = single.control_step([ys[k]], ref)
        assert np.array_equal(u_b, u_s)  # bitwise, not merely close
        assert sel == "a"
        assert J[0] == J[1]


def test_single_entry_bank_is_transparent():
    cfg = loop_cfg()
    single = make_ctrl(scalar_model(0.8, 0.7), cfg)
    bank = ModelBank([("only", make_ctrl(scalar_model(0.8, 0.7), cfg))])
    for k in range(25):
        y = [0.3 * np.cos(0.4 * k)]
        u_b, sel, _ = mm_control_step(bank, y, [1.0])
        u_s, _ = single.control_step(y, [1.0])
        assert np.array_equal(u_b, u_s)
        assert sel == "only"


def test_exact_cost_tie_selects_first_entry():
    # ids deliberately out of sorted order: the tie break is bank position
    bank = ModelBank([(7, make_ctrl(scalar_model(0.9, 1.0))),
                      (3, make_ctrl(scalar_model(0.9, 1.0)))])
    _, sels, Js = plant_loop(bank, 20)
    assert all(s == 7 for s in sels)
    assert all(J[0] == J[1] for J in Js)


# ---------------------------------------------------------------------------
# selection rule


def test_selected_cost_is_the_minimum():
    bank = ModelBank([("one", make_ctrl(scalar_model(0.9, 1.0))),
                      ("two", make_ctrl(scalar_model(0.7, 0.5)))])
    ids = [mid for mid, _ in bank.entries]
    _, sels, Js = plant_loop(bank, 40)
    for sel, J in zip(sels, Js):
        assert J[ids.index(sel)] == J.min()


def test_exact_model_wins_against_perturbed():
    bank = ModelBank([("exact", make_ctrl(scalar_model(0.9, 1.0))),
                      ("off", make_ctrl(scalar_model(0.9, 0.4)))])
    _, sels, _ = plant_loop(bank, 60)
    settled = sels[5:]
    frac = sum(s == "exact" for s in settled) / len(settled)
    assert frac >= 0.9
    # away from the reference switches the exact model should always win
    for k, s in enumerate(sels):
        if k >= 5 and k % 15 != 0:
            assert s == "exact"


def test_selection_log_records_ids():
    # the selection log is the ids mm_control_step returns, one per instant
    bank = ModelBank([("exact", make_ctrl(scalar_model(0.9, 1.0))),
                      ("off", make_ctrl(scalar_model(0.9, 0.4)))])
    _, sels, _ = plant_loop(bank, 12)
    assert len(sels) == 12
    assert set(sels) <= {"exact", "off"}


def test_uprev_tracks_applied_input_on_all_entries():
    bank = ModelBank([("one", make_ctrl(scalar_model(0.9, 1.0))),
                      ("two", make_ctrl(scalar_model(0.7, 0.5)))])
    x = np.zeros(1)
    for k in range(15):
        u, sel, _ = mm_control_step(bank, x.copy(), [1.0])
        x = 0.9 * x + u
        for _, ctrl in bank.entries:
            assert np.array_equal(ctrl.u_prev, u)


# ---------------------------------------------------------------------------
# estimator synchronization modes


def test_kalman_only_matches_standalone_filters():
    m1 = scalar_model(0.9, 1.0)
    m2 = scalar_model(0.7, 0.5)
    bank = ModelBank([("one", make_ctrl(m1)), ("two", make_ctrl(m2))])
    shadow = [KalmanState(m1), KalmanState(m2)]
    u_applied = np.zeros(1)
    rng = np.random.default_rng(3)
    for k in range(30):
        y = [rng.normal()]
        for ks in shadow:
            kalman_step(ks, u_applied, y)
        u_applied, sel, _ = mm_control_step(bank, y, [0.5])
        for ks, (_, ctrl) in zip(shadow, bank.entries):
            assert np.array_equal(ks.xhat, ctrl.estimator.xhat)


def test_kalman_only_keeps_distinct_states():
    bank = ModelBank([("one", make_ctrl(scalar_model(0.9, 1.0))),
                      ("two", make_ctrl(scalar_model(0.7, 0.5)))])
    plant_loop(bank, 10)
    x1 = bank.entries[0][1].estimator.xhat
    x2 = bank.entries[1][1].estimator.xhat
    assert not np.array_equal(x1, x2)


# ---------------------------------------------------------------------------
# hysteresis


def _stub(ctrl, j_schedule):
    """Replace a controller's inner step with a scripted cost sequence."""
    it = iter(j_schedule)

    def fake(y_k, ref):
        return np.array([0.0]), {"J": next(it), "fallback_failed": False}

    ctrl._step_core = fake


def test_threshold_zero_switches_immediately():
    c1, c2 = make_ctrl(scalar_model(0.9, 1.0)), make_ctrl(scalar_model(0.9, 1.0))
    bank = ModelBank([("a", c1), ("b", c2)], switch_threshold=0.0)
    _stub(c1, [0.5, 1.0, 1.0])
    _stub(c2, [1.0, 0.8, 0.6])
    sels = [mm_control_step(bank, [0.0], [0.0])[1] for _ in range(3)]
    assert sels == ["a", "b", "b"]


def test_threshold_keeps_incumbent_inside_margin():
    c1, c2 = make_ctrl(scalar_model(0.9, 1.0)), make_ctrl(scalar_model(0.9, 1.0))
    bank = ModelBank([("a", c1), ("b", c2)], switch_threshold=0.3)
    # challenger at 0.8 is not below 1.0 * (1 - 0.3); at 0.6 it is
    _stub(c1, [0.5, 1.0, 1.0])
    _stub(c2, [1.0, 0.8, 0.6])
    sels = [mm_control_step(bank, [0.0], [0.0])[1] for _ in range(3)]
    assert sels == ["a", "a", "b"]


def test_threshold_bounds_validated():
    entries = [("a", make_ctrl(scalar_model(0.9, 1.0)))]
    with pytest.raises(ConfigError, match="switch_threshold"):
        ModelBank(entries, switch_threshold=-0.1)
    with pytest.raises(ConfigError, match="switch_threshold"):
        ModelBank(entries, switch_threshold=1.0)


# ---------------------------------------------------------------------------
# failure handling


def test_all_failed_holds_previous_input():
    c1, c2 = make_ctrl(scalar_model(0.9, 1.0)), make_ctrl(scalar_model(0.7, 0.5))
    bank = ModelBank([("a", c1), ("b", c2)])
    plant_loop(bank, 5)
    held = bank.entries[0][1].u_prev.copy()
    # every estimator refuses the measurement, so every member holds
    u, sel, J = mm_control_step(bank, [np.nan], [1.0])
    assert np.array_equal(u, held)
    assert sel is None
    assert not np.any(np.isfinite(J))
    for d in bank.last_diagnostics:
        assert d["fallback_failed"] and "not finite" in d["held"]
        assert np.isnan(d["J"]) and np.isnan(d["yhat"]).all()
    assert all(np.array_equal(c.u_prev, held) for c in (c1, c2))


def test_partial_failure_selects_survivor():
    c1 = MpcController(scalar_model(0.9, 1.0), loop_cfg(), x0=[np.inf])
    c2 = make_ctrl(scalar_model(0.7, 0.5))
    bank = ModelBank([("a", c1), ("b", c2)])
    # c1's state makes its QP data non-finite: it holds, c2 supplies the move
    with np.errstate(invalid="ignore"):
        u, sel, J = mm_control_step(bank, [0.3], [1.0])
    assert sel == "b"
    assert not np.isfinite(J[0]) and np.isfinite(J[1])
    assert "QP data f has a non-finite entry" in bank.last_diagnostics[0]["held"]
    assert np.array_equal(u, c1.u_prev) and np.array_equal(u, c2.u_prev)


def test_held_member_never_beats_one_that_solved():
    # member a's outputs start above the ceiling and its solver may make no
    # working-set change, so both its hard and its softened QP fail; its cost
    # at a zero move (about 26) is below b's optimum (about 98), but a hold
    # must not win over a member that solved
    cfg = loop_cfg(y_min=[-1.0], y_max=[1.0])
    md = scalar_model(0.9, 1.0)
    a = MpcController(md, cfg, x0=[5.0], qp_max_iter=0)
    bank = ModelBank([("a", a), ("b", MpcController(md, cfg))])
    u_b, diag_b = MpcController(md, cfg).control_step([4.5], [4.5])
    u, sel, J = mm_control_step(bank, [4.5], [4.5])
    assert sel == "b" and np.array_equal(u, u_b) and u[0] != 0.0
    assert J[0] == np.inf and J[1] == diag_b["J"]
    diag_a = bank.last_diagnostics[0]
    assert diag_a["fallback"] and diag_a["fallback_failed"]
    assert "change cap 0" in diag_a["held"]


# ---------------------------------------------------------------------------
# construction checks


def test_empty_bank_rejected():
    with pytest.raises(ConfigError, match="at least one"):
        ModelBank([])


def test_bad_sync_mode_rejected(tmp_path):
    # members never share states; the loader keeps accepting the one mode
    # older configs name and refuses any other instead of ignoring it
    text = CONFIG.read_text().replace("bank = default asym",
                                      "sync_mode = {}\nbank = default asym")
    path = tmp_path / "bank.ini"
    path.write_text(text.format("kalman-only"))
    assert load_experiment_config(path).bank_ids == ["default", "asym"]
    for mode in ("state-copy", "mirror"):
        path.write_text(text.format(mode))
        with pytest.raises(ConfigError, match=r"\[multimodel\] sync_mode = '" + mode):
            load_experiment_config(path)


def test_duplicate_ids_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        ModelBank([("a", make_ctrl(scalar_model(0.9, 1.0))),
                   ("a", make_ctrl(scalar_model(0.7, 0.5)))])


def test_non_controller_entry_rejected():
    with pytest.raises(ConfigError, match="not an MpcController"):
        ModelBank([("a", scalar_model(0.9, 1.0))])


def test_mismatched_timestep_rejected():
    m_fast = StateSpaceModel(np.array([[0.9]]), np.array([[1.0]]),
                             np.array([[1.0]]), np.zeros((1, 1)),
                             np.zeros((1, 1)), ts=0.5)
    cfg_fast = loop_cfg(ts=0.5)
    with pytest.raises(ConfigError, match="channel counts or ts"):
        ModelBank([("a", make_ctrl(scalar_model(0.9, 1.0))),
                   ("b", MpcController(m_fast, cfg_fast))])


def test_mismatched_loop_config_rejected():
    other = loop_cfg(P=6, M=2)
    with pytest.raises(ConfigError, match="horizons, weights, or"):
        ModelBank([("a", make_ctrl(scalar_model(0.9, 1.0))),
                   ("b", make_ctrl(scalar_model(0.7, 0.5), other))])
