"""Acceptance gate: one test per shipped correctness criterion.

`pytest -v tests/test_acceptance.py` prints one PASSED/FAILED line per
criterion.  Closed-loop runs are shared through module fixtures so the
constraint audit (criterion 8) sees every trajectory the gate produced.
"""

import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from qp_oracle import enumerate_qp, random_feasible_qp

from sidmpc.cli import excitation_record
from sidmpc.config import load_experiment_config
from sidmpc.mpc import MpcConfig, MpcController, build_prediction
from sidmpc.multimodel import ModelBank
from sidmpc.plant import make_default_fccu
from sidmpc.qp import QpProblem, solve_qp
from sidmpc.runner import Schedule, iae, run_closed_loop, run_open_loop
from sidmpc.signals import Dataset, PrbsSpec, prbs_generate, split
from sidmpc.ssmodel import StateSpaceModel, simulate, solve_dare
from sidmpc.subspace import N4sidConfig, estimate_n4sid

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# every closed-loop trajectory produced by this module, audited by
# criterion 8
ALL_RUNS: list = []


def _register(name: str, result) -> None:
    ALL_RUNS.append((name, result))


# ---------------------------------------------------------------------------
# shared builders


def random_stable_system(rng, n, m=2, p=2):
    """Stable (A, B, C, 0) with well-separated eigenvalues."""
    while True:
        A = rng.normal(size=(n, n))
        eigs = np.linalg.eigvals(A)
        A = A * (rng.uniform(0.6, 0.85) / max(1e-9, np.max(np.abs(eigs))))
        eigs = np.linalg.eigvals(A)
        if np.min(np.abs(eigs[:, None] - eigs[None, :]) + np.eye(n)) > 0.05:
            break
    B = rng.normal(size=(n, m))
    C = rng.normal(size=(p, n))
    return StateSpaceModel(A, B, C, np.zeros((p, m)), np.zeros((n, p)))


def two_channel_prbs(N, amp=1.0, register_length=10):
    period = (1 << register_length) - 1
    cols = []
    for j in range(2):
        spec = PrbsSpec(register_length=register_length, levels=(-amp, amp),
                        total_length=N, seed=1, phase=j * (period // 2))
        cols.append(prbs_generate(spec))
    return np.column_stack(cols)


def impulse_terms(A, B, C, D, count=50):
    out = [np.asarray(D, dtype=float)]
    Ak = np.eye(A.shape[0])
    for _ in range(count - 1):
        out.append(C @ Ak @ B)
        Ak = A @ Ak
    return out


def half_blend_model(plant_cfg):
    """Controller model matched to the surrogate at its operating point."""
    A = 0.5 * (plant_cfg.a_low + plant_cfg.a_high)
    B = 0.5 * (plant_cfg.b_low + plant_cfg.b_high)
    C = 0.5 * (plant_cfg.c_low + plant_cfg.c_high)
    D = np.zeros((plant_cfg.p, plant_cfg.m))
    P, K = solve_dare(A, C, 0.1 * np.eye(plant_cfg.n), np.eye(plant_cfg.p))
    return StateSpaceModel(A, B, C, D, K, ts=plant_cfg.ts)


def window_mpc_config(plant_cfg, P=15, M=5):
    return MpcConfig(
        P=P, M=M, Q_weights=[1.0, 1.0], R_weights=[0.1, 0.1],
        y_min=plant_cfg.y_window_low - plant_cfg.y_ss,
        y_max=plant_cfg.y_window_high - plant_cfg.y_ss,
        du_max=[2.0, 2.0], ts=plant_cfg.ts,
    )


def run_config_pair(path, seed=None):
    """Identify from one config, then run single and multi closed loops."""
    exp = load_experiment_config(path)
    plant = exp.plant
    run_seed = exp.run.seed if seed is None else seed
    data = run_open_loop(plant, excitation_record(exp), seed=run_seed)
    dev = data.shifted(plant.u_ss, plant.y_ss)
    train, valid = split(dev, exp.split_fraction)
    reports = {mid: estimate_n4sid(train, cfg, valid)
               for mid, cfg in exp.id_configs.items()}
    models = {mid: r.model for mid, r in reports.items()}

    sid = exp.single_model or exp.bank_ids[0]
    single = MpcController(models[sid], exp.controller)
    res_single = run_closed_loop(
        plant, single, exp.run.duration, setpoints=exp.run.setpoints,
        disturbances=exp.run.disturbances, seed=run_seed, single_model_id=sid)

    bank = ModelBank([(mid, MpcController(models[mid], exp.controller))
                      for mid in exp.bank_ids],
                     sync_mode=exp.sync_mode,
                     switch_threshold=exp.switch_threshold)
    res_multi = run_closed_loop(
        plant, bank, exp.run.duration, setpoints=exp.run.setpoints,
        disturbances=exp.run.disturbances, seed=run_seed,
        single_model_id=exp.bank_ids[0])
    return exp, reports, res_single, res_multi


# ---------------------------------------------------------------------------
# shared closed-loop runs


@pytest.fixture(scope="module")
def equilibrium_run():
    t0 = time.monotonic()
    plant = make_default_fccu()
    ctrl = MpcController(half_blend_model(plant), window_mpc_config(plant))
    res = run_closed_loop(plant, ctrl, duration=200 * plant.ts, seed=0)
    elapsed = time.monotonic() - t0
    _register("equilibrium", res)
    return res, elapsed


@pytest.fixture(scope="module")
def duplicate_runs():
    t0 = time.monotonic()
    plant = make_default_fccu(noise_std=[0.3, 0.3])
    cfg = window_mpc_config(plant)
    sched = Schedule([(10.0, [782.0, 975.0]), (120.0, [779.0, 983.0])])
    single = MpcController(half_blend_model(plant), cfg)
    bank = ModelBank([("a", MpcController(half_blend_model(plant), cfg)),
                      ("b", MpcController(half_blend_model(plant), cfg))])
    res_s = run_closed_loop(plant, single, 250.0, setpoints=sched, seed=9)
    res_b = run_closed_loop(plant, bank, 250.0, setpoints=sched, seed=9)
    elapsed = time.monotonic() - t0
    _register("duplicate-single", res_s)
    _register("duplicate-bank", res_b)
    return res_s, res_b, elapsed


@pytest.fixture(scope="module")
def shipped_runs():
    out = {}
    for key, fname in (("tracking", "fccu-tracking.ini"),
                       ("disturbance", "fccu-disturbance.ini")):
        exp, reports, res_s, res_m = run_config_pair(CONFIG_DIR / fname)
        _register(f"{key}-single", res_s)
        _register(f"{key}-multi", res_m)
        out[key] = {"exp": exp, "reports": reports,
                    "single": res_s, "multi": res_m}
    return out


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_subspace_recovery():
    t0 = time.monotonic()
    rng = np.random.default_rng(12345)
    U = two_channel_prbs(3000)
    eig_errs, imp_errs, fits = [], [], []
    for i in range(20):
        n = (2, 3, 4)[i % 3]
        true = random_stable_system(rng, n)
        Y = simulate(true, U)
        cfg = N4sidConfig(f=15, p=15, order=n)
        model = estimate_n4sid(Dataset(U, Y, 1.0), cfg).model

        e_true = np.sort_complex(np.linalg.eigvals(true.A))
        e_hat = np.sort_complex(np.linalg.eigvals(model.A))
        eig_errs.append(np.max(np.abs(e_true - e_hat)))
        g_true = impulse_terms(true.A, true.B, true.C, true.D)
        g_hat = impulse_terms(model.A, model.B, model.C, model.D)
        scale = max(np.linalg.norm(g) for g in g_true)
        imp_errs.append(max(np.linalg.norm(a - b)
                            for a, b in zip(g_true, g_hat)) / scale)

        noisy = Y + rng.normal(size=Y.shape) * (0.01 * Y.std(axis=0))
        train, valid = split(Dataset(U, noisy, 1.0), 0.6)
        fits.append(estimate_n4sid(train, cfg, valid).fit_valid)
    elapsed = time.monotonic() - t0

    assert max(eig_errs) <= 1e-6
    assert max(imp_errs) <= 1e-6
    median_fit = np.median(np.array(fits), axis=0)
    assert np.all(median_fit >= 95.0)
    assert elapsed < 60.0


def test_criterion_2_surrogate_identification_fit():
    t0 = time.monotonic()
    exp = load_experiment_config(CONFIG_DIR / "fccu-tracking.ini")
    data = run_open_loop(exp.plant, excitation_record(exp), seed=exp.run.seed)
    dev = data.shifted(exp.plant.u_ss, exp.plant.y_ss)
    train, valid = split(dev, exp.split_fraction)
    for mid, cfg in exp.id_configs.items():
        report = estimate_n4sid(train, cfg, valid)
        assert np.all(report.fit_valid >= 80.0), \
            f"model {mid} validation fit {report.fit_valid}"
    assert time.monotonic() - t0 < 30.0


def test_criterion_3_qp_matches_enumeration():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(1000):
        H, f, A, b = random_feasible_qp(rng, d_max=4, r_max=6)
        oracle = enumerate_qp(H, f, A, b)
        assert oracle is not None
        u_ref, val_ref, _ = oracle
        u, _, val = solve_qp(QpProblem(H, f, A, b))
        assert abs(val - val_ref) <= 1e-6
        assert np.linalg.norm(u - u_ref) <= 1e-5
        checked += 1
    assert checked == 1000
    assert time.monotonic() - t0 < 30.0


def test_criterion_4_prediction_consistency():
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        A = rng.normal(size=(n, n))
        A *= 0.9 / max(1e-9, np.max(np.abs(np.linalg.eigvals(A))))
        model = StateSpaceModel(A, rng.normal(size=(n, m)),
                                rng.normal(size=(p, n)),
                                rng.normal(size=(p, m)), np.zeros((n, p)))
        P = int(rng.integers(1, 11))
        M = int(rng.integers(1, P + 1)) if P <= 5 else int(rng.integers(1, 6))
        cfg = MpcConfig(P=P, M=M, Q_weights=np.ones(p), R_weights=np.ones(m),
                        y_min=-1e6 * np.ones(p), y_max=1e6 * np.ones(p))
        Phi, Psi, Theta = build_prediction(model, cfg)
        xhat = rng.normal(size=n)
        u_prev = rng.normal(size=m)
        dU = rng.normal(size=M * m)
        stacked = Phi @ xhat + Psi @ u_prev + Theta @ dU

        moves = dU.reshape(M, m)
        u = u_prev.copy()
        u_seq = []
        for i in range(P + 1):
            if i < M:
                u = u + moves[i]
            u_seq.append(u.copy())
        x = xhat.copy()
        ys = []
        for i in range(P):
            x = model.A @ x + model.B @ u_seq[i]
            ys.append(model.C @ x + model.D @ u_seq[i + 1])
        recursive = np.concatenate(ys)
        worst = max(worst, float(np.max(np.abs(stacked - recursive))))
    assert worst <= 1e-12
    assert time.monotonic() - t0 < 5.0


def test_criterion_5_equilibrium_fixed_point(equilibrium_run):
    res, elapsed = equilibrium_run
    assert res.t.shape[0] == 200
    assert np.max(np.abs(res.du)) < 1e-9
    assert np.array_equal(res.u, np.tile([50.0, 30.0], (200, 1)))
    assert elapsed < 5.0


def test_criterion_6_duplicate_bank_is_bitwise_single(duplicate_runs):
    res_s, res_b, elapsed = duplicate_runs
    assert res_s.t.shape[0] == 500
    assert np.array_equal(res_s.u, res_b.u)
    assert np.array_equal(res_s.y, res_b.y)
    assert np.array_equal(res_s.du, res_b.du)
    assert elapsed < 10.0


def test_criterion_7_multimodel_benefit(shipped_runs):
    track = shipped_runs["tracking"]
    iae_s, iae_m = iae(track["single"]), iae(track["multi"])
    assert np.all(iae_m <= iae_s), \
        f"tracking IAE multi {iae_m} vs single {iae_s}"

    dist = shipped_runs["disturbance"]
    t_dist = dist["single"].disturbance_time
    assert t_dist == 84.0
    post_s = iae(dist["single"], t_start=t_dist)
    post_m = iae(dist["multi"], t_start=t_dist)
    assert np.all(post_m <= post_s), \
        f"post-disturbance IAE multi {post_m} vs single {post_s}"

    # alternative seeds are informative only: supervisory switching is
    # not guaranteed to dominate for every noise realization
    for fname, alt_seed, window in (("fccu-tracking.ini", 1, None),
                                    ("fccu-disturbance.ini", 3, 84.0)):
        _, _, alt_s, alt_m = run_config_pair(CONFIG_DIR / fname, seed=alt_seed)
        _register(f"alt-{fname}-seed{alt_seed}-single", alt_s)
        _register(f"alt-{fname}-seed{alt_seed}-multi", alt_m)
        a = iae(alt_s, t_start=window)
        b = iae(alt_m, t_start=window)
        if not np.all(b <= a):
            warnings.warn(
                f"{fname} seed {alt_seed}: multi-model IAE {b} did not "
                f"dominate single-model IAE {a}", stacklevel=1)


def test_criterion_8_constraints_hold_outside_fallback(
        equilibrium_run, duplicate_runs, shipped_runs):
    assert len(ALL_RUNS) >= 7
    for name, res in ALL_RUNS:
        lo, hi = res.y_bounds_abs
        outside = np.any((res.y < lo - 1e-6) | (res.y > hi + 1e-6), axis=1)
        unexcused = outside & ~res.fallback
        assert not unexcused.any(), \
            f"run {name}: hard bound violated at t={res.t[unexcused]}"
        softened = sum("softened" in w for w in res.warnings)
        failed = sum("failed" in w for w in res.warnings)
        assert softened == int(res.fallback.sum()), \
            f"run {name}: fallback engagements not all logged"
        assert failed == int(res.fallback_failed.sum()), \
            f"run {name}: fallback failures not all logged"


def test_criterion_9_dare_gain_and_stability():
    t0 = time.monotonic()
    # scalar case against the closed-form fixed point of the recursion
    P, K = solve_dare(np.array([[0.5]]), np.array([[1.0]]),
                      np.eye(1), np.eye(1))
    p_ref = (0.25 + np.sqrt(0.0625 + 4.0)) / 2.0  # root of p^2 - p/4 - 1
    assert abs(P[0, 0] - p_ref) <= 1e-6
    assert P[0, 0] == pytest.approx(1.13278, abs=1e-5)

    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        p = int(rng.integers(1, 3))
        A = rng.normal(size=(n, n))
        A *= rng.uniform(0.3, 0.95) / max(1e-9, np.max(np.abs(np.linalg.eigvals(A))))
        C = rng.normal(size=(p, n))
        G = rng.normal(size=(n, n))
        Q = G @ G.T + 0.1 * np.eye(n)
        H = rng.normal(size=(p, p))
        R = H @ H.T + np.eye(p)
        _, K = solve_dare(A, C, Q, R)
        radius = np.max(np.abs(np.linalg.eigvals(A - K @ C)))
        assert radius < 1.0
    assert time.monotonic() - t0 < 5.0
