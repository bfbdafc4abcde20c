"""Single-model MPC tests.

The prediction oracle simulates the model step by step under the held-input
move parameterization and never touches the stacked matrices.
"""

import numpy as np
import pytest

import sidmpc.mpc as mpc
from sidmpc.errors import ConfigError
from sidmpc.mpc import SOFT_PENALTY, MpcConfig, MpcController, build_prediction
from sidmpc.qp import QpProblem, solve_qp
from sidmpc.ssmodel import StateSpaceModel, simulate

WIDE = dict(y_min=[-1e6], y_max=[1e6])


def scalar_model(a=0.8, b=1.0, c=1.0, d=0.0, k=0.0):
    return StateSpaceModel(a, b, c, d, k)


def simulate_prediction(model, P, M, xhat, u_prev, dU):
    """Independent oracle: run the recursion with inputs held after M-1."""
    m = model.m
    moves = np.asarray(dU, dtype=float).reshape(M, m)
    u = np.asarray(u_prev, dtype=float).astype(float).copy()
    u_seq = []
    for i in range(P + 1):
        if i < M:
            u = u + moves[i]
        u_seq.append(u.copy())
    x = np.asarray(xhat, dtype=float).copy()
    ys = []
    for i in range(P):
        x = model.A @ x + model.B @ u_seq[i]
        ys.append(model.C @ x + model.D @ u_seq[i + 1])
    return np.concatenate(ys)


def test_build_prediction_one_step():
    md = StateSpaceModel([[0.5, 0.1], [0.0, 0.3]], [[1.0], [0.5]],
                         [[1.0, 2.0]], [[0.25]], np.zeros((2, 1)))
    cfg = MpcConfig(P=1, M=1, Q_weights=[1.0], R_weights=[0.0], **WIDE)
    Phi, Psi, Theta = build_prediction(md, cfg)
    np.testing.assert_allclose(Phi, md.C @ md.A, atol=1e-15)
    np.testing.assert_allclose(Theta, md.C @ md.B + md.D, atol=1e-15)
    np.testing.assert_allclose(Psi, md.C @ md.B + md.D, atol=1e-15)


def test_zero_moves_give_free_response():
    rng = np.random.default_rng(3)
    md = StateSpaceModel(0.5 * np.eye(2), rng.normal(size=(2, 2)),
                         rng.normal(size=(2, 2)), np.zeros((2, 2)),
                         np.zeros((2, 2)))
    cfg = MpcConfig(P=4, M=2, Q_weights=[1, 1], R_weights=[0, 0],
                    y_min=[-1e6] * 2, y_max=[1e6] * 2)
    Phi, Psi, Theta = build_prediction(md, cfg)
    xhat = rng.normal(size=2)
    u_prev = rng.normal(size=2)
    stacked = Phi @ xhat + Psi @ u_prev + Theta @ np.zeros(4)
    oracle = simulate_prediction(md, 4, 2, xhat, u_prev, np.zeros(4))
    np.testing.assert_allclose(stacked, oracle, rtol=0, atol=1e-12)


def test_prediction_dual_path_p5_m3():
    rng = np.random.default_rng(14)
    A = rng.normal(size=(2, 2))
    A *= 0.85 / np.max(np.abs(np.linalg.eigvals(A)))
    md = StateSpaceModel(A, rng.normal(size=(2, 2)), rng.normal(size=(2, 2)),
                         rng.normal(size=(2, 2)), np.zeros((2, 2)))
    cfg = MpcConfig(P=5, M=3, Q_weights=[1, 1], R_weights=[0, 0],
                    y_min=[-1e6] * 2, y_max=[1e6] * 2)
    Phi, Psi, Theta = build_prediction(md, cfg)
    for _ in range(10):
        xhat = rng.normal(size=2)
        u_prev = rng.normal(size=2)
        dU = rng.normal(size=6)
        stacked = Phi @ xhat + Psi @ u_prev + Theta @ dU
        oracle = simulate_prediction(md, 5, 3, xhat, u_prev, dU)
        np.testing.assert_allclose(stacked, oracle, rtol=0, atol=1e-12)


def test_prediction_consistency_random_instances():
    rng = np.random.default_rng(62)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        P = int(rng.integers(1, 11))
        M = int(rng.integers(1, min(P, 5) + 1))
        A = rng.normal(size=(n, n))
        A *= 0.9 / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-12)
        md = StateSpaceModel(A, rng.normal(size=(n, m)),
                             rng.normal(size=(p, n)), rng.normal(size=(p, m)),
                             np.zeros((n, p)))
        cfg = MpcConfig(P=P, M=M, Q_weights=np.ones(p), R_weights=np.zeros(m),
                        y_min=-1e6 * np.ones(p), y_max=1e6 * np.ones(p))
        Phi, Psi, Theta = build_prediction(md, cfg)
        xhat = rng.normal(size=n)
        u_prev = rng.normal(size=m)
        dU = rng.normal(size=M * m)
        stacked = Phi @ xhat + Psi @ u_prev + Theta @ dU
        oracle = simulate_prediction(md, P, M, xhat, u_prev, dU)
        np.testing.assert_allclose(stacked, oracle, rtol=0, atol=1e-12)


def test_theta_block_lower_triangular():
    md = StateSpaceModel(0.5 * np.eye(2), np.eye(2), np.eye(2),
                         np.zeros((2, 2)), np.zeros((2, 2)))
    cfg = MpcConfig(P=4, M=3, Q_weights=[1, 1], R_weights=[0, 0],
                    y_min=[-9e9] * 2, y_max=[9e9] * 2)
    _, _, Theta = build_prediction(md, cfg)
    for i in range(4):
        for l in range(3):
            if l > i:
                block = Theta[i * 2:(i + 1) * 2, l * 2:(l + 1) * 2]
                assert np.max(np.abs(block)) == 0.0


def test_assemble_qp_matches_hand_expansion():
    # scalar one-step problem: H = 2((cb+d)^2 q + r), f = 2(cb+d) q (free-ref)
    a, b, c, d, q, r = 0.7, 1.3, 0.9, 0.2, 2.0, 0.5
    md = scalar_model(a, b, c, d)
    cfg = MpcConfig(P=1, M=1, Q_weights=[q], R_weights=[r], **WIDE)
    ctrl = MpcController(md, cfg, x0=[1.5], u_prev=[0.4])
    ref = np.array([2.0])
    qp = ctrl.assemble_qp(np.array([1.5]), ref)
    g1 = c * b + d
    free = c * a * 1.5 + g1 * 0.4
    assert qp.H[0, 0] == pytest.approx(2.0 * (g1 * g1 * q + r), abs=1e-6)
    assert qp.f[0] == pytest.approx(2.0 * g1 * q * (free - ref[0]), abs=1e-9)


def test_assemble_qp_rows_track_state_input_and_reference(monkeypatch):
    # b_ineq and f are rewritten in place each instant over constants built
    # once; check every row against a hand expansion on successive instants
    # whose u_prev, xhat and reference all change, the held setpoint given
    # twice, then a new one, then the first again
    rng = np.random.default_rng(17)
    md = StateSpaceModel([[0.6, 0.2], [-0.1, 0.7]], rng.normal(size=(2, 2)),
                         rng.normal(size=(2, 2)), 0.1 * rng.normal(size=(2, 2)),
                         np.zeros((2, 2)))
    P, M = 4, 2
    y_min, y_max = np.array([-3.0, -4.0]), np.array([5.0, 2.5])
    u_min, u_max, du_max = np.array([-1.0, -2.0]), np.array([1.5, 0.5]), np.array([0.3, 0.2])
    cfg = MpcConfig(P=P, M=M, Q_weights=[1.5, 0.7], R_weights=[0.2, 0.1],
                    y_min=y_min, y_max=y_max, u_min=u_min, u_max=u_max, du_max=du_max)
    ctrl = MpcController(md, cfg, u_prev=[0.2, -0.1])
    seen = []
    real = mpc.solve_qp

    def recorded(qp, **kwargs):
        seen.append((ctrl.estimator.xhat.copy(), ctrl.u_prev.copy(),
                     qp.f.copy(), qp.b_ineq.copy()))
        return real(qp, **kwargs)

    monkeypatch.setattr(mpc, "solve_qp", recorded)
    r_a, r_b = np.array([1.0, -0.5]), np.array([-0.4, 0.8])
    refs = [r_a, r_a, r_b, r_a]
    for ref in refs:
        ctrl.control_step(rng.normal(size=2), ref)
    qbar = np.tile([1.5, 0.7], P)
    for (xhat, u_prev, f, b), ref in zip(seen, refs):
        free = simulate_prediction(md, P, M, xhat, u_prev, np.zeros(M * 2))
        r = np.tile(ref, P)
        want = np.concatenate([np.tile(y_max, P) - free, free - np.tile(y_min, P),
                               np.tile(u_max - u_prev, M), np.tile(u_prev - u_min, M),
                               np.tile(du_max, 2 * M)])
        np.testing.assert_allclose(b, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(f, 2.0 * ctrl.Theta.T @ (qbar * (free - r)),
                                   rtol=0, atol=1e-12)
    # the instants differ in what the rows depend on
    assert len({s[1].tobytes() for s in seen}) == 4
    assert len({s[0].tobytes() for s in seen}) == 4


def test_assemble_qp_reference_equal_free_response():
    # from the steady state of u_prev the free response is constant, so a
    # setpoint at that level leaves nothing to track
    md = scalar_model()
    cfg = MpcConfig(P=3, M=2, Q_weights=[1.0], R_weights=[0.1], **WIDE)
    ctrl = MpcController(md, cfg, u_prev=[0.3])
    xhat = np.linalg.solve(np.eye(1) - md.A, md.B @ ctrl.u_prev)
    free = ctrl.Phi @ xhat + ctrl.Psi @ ctrl.u_prev
    np.testing.assert_allclose(free, free[0], rtol=0, atol=1e-12)
    qp = ctrl.assemble_qp(xhat, free[:1])
    np.testing.assert_allclose(qp.f, 0.0, atol=1e-12)
    from sidmpc.qp import solve_qp
    dU, _, _ = solve_qp(qp)
    np.testing.assert_allclose(dU, 0.0, atol=1e-9)


def test_assemble_qp_unit_q_zero_r_is_tracking_least_squares():
    md = scalar_model()
    cfg = MpcConfig(P=3, M=2, Q_weights=[1.0], R_weights=[0.0], **WIDE)
    ctrl = MpcController(md, cfg, u_prev=[0.0])
    xhat = np.array([0.7])
    qp = ctrl.assemble_qp(xhat, [1.0])
    free = ctrl.Phi @ xhat + ctrl.Psi @ ctrl.u_prev
    np.testing.assert_allclose(qp.f, 2.0 * ctrl.Theta.T @ (free - 1.0),
                               rtol=0, atol=1e-12)


def test_control_step_equilibrium_fixed_point():
    # consistent steady pair: zero innovation, zero tracking error, zero move
    md = StateSpaceModel([[0.6, 0.1], [0.0, 0.5]], [[1.0], [0.4]],
                         [[1.0, 1.0]], [[0.0]], [[0.2], [0.1]])
    u_ss = np.array([1.0])
    x_ss = np.linalg.solve(np.eye(2) - md.A, md.B @ u_ss)
    y_ss = md.C @ x_ss + md.D @ u_ss
    cfg = MpcConfig(P=6, M=3, Q_weights=[1.0], R_weights=[0.0], **WIDE)
    ctrl = MpcController(md, cfg, x0=x_ss, u_prev=u_ss)
    for _ in range(5):
        u_k, diag = ctrl.control_step(y_ss, y_ss)
        np.testing.assert_allclose(u_k, u_ss, rtol=0, atol=1e-9)
        np.testing.assert_allclose(diag["du"], 0.0, atol=1e-9)


def test_control_step_deadbeat_closed_form():
    # K=0 keeps xhat at zero, so u_k = (r - CA xhat)/(CB) = r/(CB)
    md = scalar_model(a=0.8, b=2.0, c=1.5, d=0.0, k=0.0)
    cfg = MpcConfig(P=1, M=1, Q_weights=[1.0], R_weights=[0.0], **WIDE)
    ctrl = MpcController(md, cfg, x0=[0.0], u_prev=[0.0])
    r = 3.0
    u_k, _ = ctrl.control_step([0.0], [r])
    cb = 1.5 * 2.0
    assert u_k[0] == pytest.approx(r / cb, abs=1e-7)


def test_output_bound_below_setpoint_rides_bound():
    md = scalar_model(a=0.8, b=1.0, c=1.0, d=0.0, k=0.3)
    cfg = MpcConfig(P=8, M=3, Q_weights=[1.0], R_weights=[0.01],
                    y_min=[-10.0], y_max=[2.0])
    ctrl = MpcController(md, cfg)
    x = 0.0
    y = 0.0
    for _ in range(60):
        u, _ = ctrl.control_step([y], [5.0])
        x = 0.8 * x + u[0]
        y = x
    assert 1.75 <= y <= 2.0 + 1e-6


def test_unconstrained_move_matches_analytic_first_block():
    rng = np.random.default_rng(31)
    md = StateSpaceModel(0.6 * np.eye(2), rng.normal(size=(2, 2)),
                         rng.normal(size=(2, 2)), np.zeros((2, 2)),
                         np.zeros((2, 2)))
    cfg = MpcConfig(P=6, M=3, Q_weights=[1, 1], R_weights=[0.2, 0.2],
                    y_min=[-1e7] * 2, y_max=[1e7] * 2)
    ctrl = MpcController(md, cfg, u_prev=[0.1, -0.2])
    y_k = rng.normal(size=2)
    ref = rng.normal(size=2)
    # replicate the estimator update to predict the analytic solution
    import copy
    est = copy.deepcopy(ctrl.estimator)
    from sidmpc.ssmodel import kalman_step
    kalman_step(est, ctrl.u_prev, y_k)
    free = ctrl.Phi @ est.xhat + ctrl.Psi @ ctrl.u_prev
    f = 2.0 * ctrl.Theta.T @ (ctrl.qbar * (free - np.tile(ref, 6)))
    dU_ref = -np.linalg.solve(ctrl._qp.H, f)
    u_prev = ctrl.u_prev.copy()
    u_k, diag = ctrl.control_step(y_k, ref)
    np.testing.assert_allclose(u_k - u_prev, dU_ref[:2], rtol=0, atol=1e-8)


def test_receding_horizon_applies_first_move_only():
    md = scalar_model(k=0.2)
    cfg = MpcConfig(P=5, M=3, Q_weights=[1.0], R_weights=[0.1], **WIDE)
    ctrl = MpcController(md, cfg)
    u_prev = ctrl.u_prev.copy()
    u_k, diag = ctrl.control_step([0.5], [1.0])
    assert u_k[0] == pytest.approx(u_prev[0] + diag["du"][0], abs=1e-15)
    assert ctrl.u_prev[0] == u_k[0]


def test_infeasible_step_engages_soft_fallback():
    # the estimator pins the output far above a tight bound; no admissible
    # move sequence can honor the output window, so the slack path engages
    with pytest.warns(RuntimeWarning, match="spectral radius"):
        md = scalar_model(a=1.0, b=0.05, c=1.0, d=0.0, k=0.0)
    cfg = MpcConfig(P=3, M=1, Q_weights=[1.0], R_weights=[0.0],
                    y_min=[-0.5], y_max=[0.5], du_max=[0.1])
    ctrl = MpcController(md, cfg, x0=[50.0], u_prev=[0.0])
    u_k, diag = ctrl.control_step([50.0], [0.0])
    assert diag["fallback"] is True
    assert diag["fallback_failed"] is False
    assert diag["slack_max"] > 1.0
    assert np.isfinite(u_k[0])


def test_unrecoverable_step_holds_input():
    # u_prev stranded far outside the input box: even the softened problem
    # keeps hard input rows, so the step reports failure and holds
    md = scalar_model(a=0.5)
    cfg = MpcConfig(P=3, M=1, Q_weights=[1.0], R_weights=[0.0],
                    y_min=[-1e6], y_max=[1e6],
                    u_min=[-1.0], u_max=[1.0], du_max=[0.1])
    ctrl = MpcController(md, cfg, u_prev=[5.0])
    u_k, diag = ctrl.control_step([0.0], [0.0])
    assert diag["fallback"] is True
    assert diag["fallback_failed"] is True
    assert "infeasible" in diag["held"] and np.isnan(diag["J"])
    assert u_k[0] == 5.0 and ctrl.u_prev[0] == 5.0


def test_soft_problem_built_once_and_matches_a_fresh_one(monkeypatch):
    with pytest.warns(RuntimeWarning, match="spectral radius"):
        md = scalar_model(a=1.0, b=0.05, c=1.0, d=0.0, k=0.0)
    cfg = MpcConfig(P=3, M=2, Q_weights=[1.0], R_weights=[0.0],
                    y_min=[-0.5], y_max=[0.5], u_min=[-5.0], u_max=[5.0],
                    du_max=[0.1])
    ctrl = MpcController(md, cfg, x0=[50.0], u_prev=[0.0])
    built = []

    def counting(*args):
        built.append(args)
        return QpProblem(*args)

    monkeypatch.setattr(mpc, "QpProblem", counting)
    ns, eye = 3, np.eye(3)
    for y in (50.0, 49.0):
        _, diag = ctrl.control_step([y], [0.0])
        assert diag["fallback"] and not diag["fallback_failed"]
        # the same softened problem, built from scratch from this instant's QP
        qp = ctrl._qp
        H = np.zeros((5, 5))
        H[:2, :2] = qp.H
        H[2:, 2:] = 2.0 * SOFT_PENALTY * eye
        A = np.vstack([np.hstack([ctrl.Theta, -eye]), np.hstack([-ctrl.Theta, -eye]),
                       np.hstack([np.zeros((ns, 2)), -eye]),
                       np.hstack([qp.A_ineq[2 * ns:], np.zeros((8, ns))])])
        b = np.concatenate([qp.b_ineq[:2 * ns], np.zeros(ns), qp.b_ineq[2 * ns:]])
        fresh, _, _ = solve_qp(QpProblem(H, np.concatenate([qp.f, np.zeros(ns)]), A, b))
        dU, slack, _ = ctrl._solve_soft(qp)
        np.testing.assert_allclose(np.concatenate([dU, slack]), fresh, rtol=1e-9, atol=1e-12)
        assert diag["slack_max"] == pytest.approx(np.max(fresh[2:]), rel=1e-9)
    assert len(built) == 1


def test_non_finite_measurement_leaves_the_controller_unchanged():
    md = scalar_model(k=0.1)
    cfg = MpcConfig(P=4, M=2, Q_weights=[1.0], R_weights=[0.1], **WIDE)
    ctrl = MpcController(md, cfg)
    ctrl.control_step([0.2], [1.0])
    x, u = ctrl.estimator.xhat.copy(), ctrl.u_prev.copy()
    u_k, diag = ctrl.control_step([np.nan], [1.0])
    assert diag["fallback_failed"] and not diag["fallback"]
    assert diag["held"] == "controller failed: measurement y_k[0] = nan is not finite"
    assert np.isnan(diag["J"]) and np.isnan(diag["yhat"]).all()
    assert np.array_equal(u_k, u)
    assert np.array_equal(ctrl.estimator.xhat, x)
    assert np.array_equal(ctrl.u_prev, u)
    u_k, diag = ctrl.control_step([0.3], [1.0])
    assert np.all(np.isfinite(u_k)) and np.isfinite(diag["J"])


def test_applied_move_keeps_the_move_limit_exactly(monkeypatch):
    # the QP solver meets rows only to within its tolerance; a solution that
    # passes du_max by 1e-9 is applied on the limit itself
    def overshooting(qp, **kwargs):
        return np.array([0.1 + 1e-9, -0.1 - 1e-9]), [0], 1

    md = scalar_model()
    cfg = MpcConfig(P=3, M=2, Q_weights=[1.0], R_weights=[0.0],
                    du_max=[0.1], **WIDE)
    ctrl = MpcController(md, cfg)
    monkeypatch.setattr(mpc, "solve_qp", overshooting)
    u_k, diag = ctrl.control_step([0.0], [1.0])
    assert diag["du"][0] == 0.1 and u_k[0] == 0.1


def test_time_varying_weights_refused():
    # weights are one per channel and the setpoint one p-vector, held over
    # the horizon; a per-step array of either is refused by its shape
    md = scalar_model()
    Q = np.linspace(1.0, 2.0, 4).reshape(4, 1)
    with pytest.raises(ValueError, match=r"Q_weights must have shape \(1,\), got \(4, 1\)"):
        MpcController(md, MpcConfig(P=4, M=2, Q_weights=Q, R_weights=[0.0], **WIDE))
    with pytest.raises(ValueError, match=r"R_weights must have shape \(1,\), got \(2, 1\)"):
        MpcController(md, MpcConfig(P=4, M=2, Q_weights=[1.0], R_weights=np.zeros((2, 1)),
                                    **WIDE))
    ctrl = MpcController(md, MpcConfig(P=4, M=2, Q_weights=[1.0], R_weights=[0.0], **WIDE))
    with pytest.raises(ValueError, match=r"ref must have shape \(1,\), got \(4,\)"):
        ctrl.control_step([0.1], np.ones(4))


def test_non_finite_initial_state_or_input_refused():
    md = StateSpaceModel(0.5 * np.eye(2), np.ones((2, 1)), np.ones((1, 2)),
                         np.zeros((1, 1)), np.zeros((2, 1)))
    cfg = MpcConfig(P=3, M=1, Q_weights=[1.0], R_weights=[0.1], **WIDE)
    with pytest.raises(ConfigError, match=r"initial state xhat\[1\] = inf is not finite"):
        MpcController(md, cfg, x0=[0.0, np.inf])
    with pytest.raises(ConfigError, match=r"initial input u_prev\[0\] = nan is not finite"):
        MpcController(md, cfg, u_prev=[np.nan])


def test_config_validation():
    with pytest.raises(ValueError, match="M"):
        MpcConfig(P=2, M=3, Q_weights=[1.0], R_weights=[0.0], **WIDE)
    with pytest.raises(ValueError, match="weights"):
        MpcConfig(P=2, M=1, Q_weights=[-1.0], R_weights=[0.0], **WIDE)
    with pytest.raises(ValueError, match="y_min"):
        MpcConfig(P=2, M=1, Q_weights=[1.0], R_weights=[0.0],
                  y_min=[1.0], y_max=[1.0])
    with pytest.raises(ValueError, match="together"):
        MpcConfig(P=2, M=1, Q_weights=[1.0], R_weights=[0.0],
                  u_min=[0.0], **WIDE)
    with pytest.raises(ValueError, match="du_max"):
        MpcConfig(P=2, M=1, Q_weights=[1.0], R_weights=[0.0],
                  du_max=[0.0], **WIDE)


def test_controller_dimension_checks():
    md = scalar_model()
    cfg = MpcConfig(P=2, M=1, Q_weights=[1.0], R_weights=[0.0],
                    y_min=[-1.0, -1.0], y_max=[1.0, 1.0])
    with pytest.raises(ValueError, match="y bounds"):
        MpcController(md, cfg)
    cfg2 = MpcConfig(P=2, M=1, Q_weights=[1.0], R_weights=[0.0],
                     ts=0.5, **WIDE)
    with pytest.raises(ValueError, match="ts"):
        MpcController(md, cfg2)


def test_diagnostics_contents():
    md = scalar_model(k=0.1)
    cfg = MpcConfig(P=4, M=2, Q_weights=[1.0], R_weights=[0.1], **WIDE)
    ctrl = MpcController(md, cfg)
    _, diag = ctrl.control_step([0.2], [1.0])
    assert diag["J"] >= 0.0
    assert diag["yhat"].shape == (4,)
    assert diag["du"].shape == (1,)
    assert diag["fallback"] is False


def test_j_is_objective_at_optimum():
    # with zero move weights the reported J is exactly the weighted tracking
    # error of the predicted trajectory the solver settled on
    md = scalar_model(k=0.1)
    cfg = MpcConfig(P=4, M=2, Q_weights=[2.0], R_weights=[0.0], **WIDE)
    ctrl = MpcController(md, cfg)
    _, diag = ctrl.control_step([0.2], [1.0])
    err = np.tile([1.0], 4) - diag["yhat"]
    assert diag["J"] == pytest.approx(float(err @ (ctrl.qbar * err)),
                                      abs=1e-10)
