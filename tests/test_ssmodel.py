"""State-space model, Riccati solver and Kalman filter tests.

Oracles: an independent convolution of the impulse-response sequence for
simulate, a dual-path predictor-form run for the innovation recursion, and
a scalar fixed-point iteration run to 1e-12 for the Riccati equation.
"""

import numpy as np
import pytest

from sidmpc.errors import ConfigError, ConvergenceError, NumericalError
from sidmpc.signals import Dataset
from sidmpc.ssmodel import (
    KalmanState,
    StateSpaceModel,
    estimate_initial_state,
    fit_percent,
    kalman_step,
    load_model,
    predictor_form,
    save_model,
    simulate,
    solve_dare,
)


def random_stable_model(rng, n, m, p, radius=0.9, with_k=True):
    A = rng.normal(size=(n, n))
    A *= radius / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-12)
    C = rng.normal(size=(p, n))
    K = np.zeros((n, p))
    if with_k:
        cand = 0.1 * rng.normal(size=(n, p))
        if np.max(np.abs(np.linalg.eigvals(A - cand @ C))) < 1.0:
            K = cand
    return StateSpaceModel(A, rng.normal(size=(n, m)), C,
                           rng.normal(size=(p, m)), K)


def test_simulate_unit_delay():
    md = StateSpaceModel(0.0, 1.0, 1.0, 0.0, 0.0)
    y = simulate(md, np.array([1.0, 0.0, 0.0]))
    np.testing.assert_array_equal(y[:, 0], [0.0, 1.0, 0.0])


def test_simulate_geometric_impulse():
    md = StateSpaceModel(0.5, 1.0, 1.0, 0.0, 0.0)
    u = np.zeros(6)
    u[0] = 1.0
    y = simulate(md, u)
    np.testing.assert_allclose(y[:, 0], [0.0, 1.0, 0.5, 0.25, 0.125, 0.0625],
                               rtol=0, atol=1e-15)


def test_simulate_matches_convolution_oracle():
    rng = np.random.default_rng(7)
    md = random_stable_model(rng, 3, 2, 2, with_k=False)
    N = 60
    U = rng.normal(size=(N, 2))
    # the same model driven also by innovations E through K, from x0
    mk = StateSpaceModel(md.A, md.B, md.C, md.D, 0.1 * rng.normal(size=(3, 2)))
    E = rng.normal(size=(N, 2))
    x0 = rng.normal(size=3)
    # Markov parameters D, CB, CAB, CA^2 B, ..., those of the innovation
    # I, CK, CAK, ..., and the free response C A^k x0
    H, G, Y_free = [md.D], [np.eye(2)], np.empty((N, 2))
    Ak = np.eye(3)
    for k in range(N):
        H.append(md.C @ Ak @ md.B)
        G.append(md.C @ Ak @ mk.K)
        Y_free[k] = md.C @ Ak @ x0
        Ak = md.A @ Ak
    Y_ref = np.zeros((N, 2))
    Y_ref_e = Y_free.copy()
    for k in range(N):
        for j in range(k + 1):
            Y_ref[k] += H[j] @ U[k - j]
            Y_ref_e[k] += G[j] @ E[k - j]
    Y = simulate(md, U)
    np.testing.assert_allclose(Y, Y_ref, rtol=0, atol=1e-10)
    np.testing.assert_allclose(simulate(mk, U, x0=x0, E=E), Y_ref + Y_ref_e,
                               rtol=0, atol=1e-10)


def test_simulate_dimension_errors_name_operand():
    md = StateSpaceModel(0.5, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="U"):
        simulate(md, np.zeros((4, 2)))
    with pytest.raises(ValueError, match="x0"):
        simulate(md, np.zeros(4), x0=np.zeros(2))
    with pytest.raises(ValueError, match="E"):
        simulate(md, np.zeros(4), E=np.zeros((3, 1)))


def test_predictor_form_zero_gain():
    md = StateSpaceModel(np.eye(2) * 0.5, np.ones((2, 1)), np.ones((1, 2)),
                         0.0, np.zeros((2, 1)))
    A_K, B_K = predictor_form(md)
    np.testing.assert_array_equal(A_K, md.A)
    np.testing.assert_array_equal(B_K, np.hstack([md.B, np.zeros((2, 1))]))


def test_predictor_form_scalar_substitution():
    md = StateSpaceModel(0.9, 1.0, 1.0, 0.0, 0.4)
    A_K, B_K = predictor_form(md)
    assert A_K[0, 0] == pytest.approx(0.5)
    np.testing.assert_allclose(B_K, [[1.0, 0.4]])


def test_innovation_and_predictor_paths_agree():
    # run the same innovations through both recursions
    rng = np.random.default_rng(12)
    md = random_stable_model(rng, 4, 2, 2)
    N = 200
    U = rng.normal(size=(N, 2))
    E = 0.3 * rng.normal(size=(N, 2))
    Y = simulate(md, U, E=E)
    A_K, B_K = predictor_form(md)
    x = np.zeros(4)
    Y2 = np.empty_like(Y)
    for k in range(N):
        Y2[k] = md.C @ x + md.D @ U[k] + E[k]
        x = A_K @ x + B_K @ np.concatenate([U[k], Y[k]])
    np.testing.assert_allclose(Y2, Y, rtol=0, atol=1e-12)


def test_dare_zero_a_one_step_fixed_point():
    Q = np.diag([2.0, 3.0])
    P, K = solve_dare(np.zeros((2, 2)), np.eye(2), Q, np.eye(2))
    np.testing.assert_allclose(P, Q, rtol=0, atol=1e-12)
    # gain A P C'(C P C' + R)^-1 vanishes with A = 0
    np.testing.assert_allclose(K, np.zeros((2, 2)), rtol=0, atol=1e-12)


def test_dare_scalar_against_fixed_point_oracle():
    P, K = solve_dare(0.5, 1.0, 1.0, 1.0)
    # closed form: p^2 = 0.25 p + 1
    p_ref = (0.25 + np.sqrt(0.0625 + 4.0)) / 2.0
    assert P[0, 0] == pytest.approx(p_ref, abs=1e-9)
    assert P[0, 0] == pytest.approx(1.13278, abs=1e-5)
    # independent plain-loop iteration run to stall
    p = 1.0
    for _ in range(200):
        p = 0.25 * p - 0.25 * p * p / (p + 1.0) + 1.0
    assert P[0, 0] == pytest.approx(p, abs=1e-12)
    assert K[0, 0] == pytest.approx(0.5 * p / (p + 1.0), abs=1e-9)


def test_dare_zero_q_noise_free_limit():
    P, K = solve_dare(np.eye(2) * 0.5, np.eye(2), np.zeros((2, 2)), np.eye(2))
    np.testing.assert_allclose(P, np.zeros((2, 2)), rtol=0, atol=1e-10)
    np.testing.assert_allclose(K, np.zeros((2, 2)), rtol=0, atol=1e-10)


def test_dare_residual_and_stability_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = rng.integers(1, 5)
        p = rng.integers(1, 3)
        A = rng.normal(size=(n, n))
        A *= 0.95 / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-12)
        C = rng.normal(size=(p, n))
        G = rng.normal(size=(n, n))
        Q = G @ G.T
        R = np.eye(p)
        P, K = solve_dare(A, C, Q, R)
        M = A @ P @ C.T
        P_next = A @ P @ A.T - M @ np.linalg.solve(C @ P @ C.T + R, M.T) + Q
        num = np.linalg.norm(P_next - P, 2)
        assert num / max(1.0, np.linalg.norm(P, 2)) < 1e-9
        assert np.max(np.abs(np.linalg.eigvals(A - K @ C))) < 1.0


def test_dare_rejects_indefinite_r():
    with pytest.raises(ValueError, match="R"):
        solve_dare(0.5, 1.0, 1.0, -1.0)


def test_dare_nonconvergence_carries_residual():
    # unobservable unstable pair: P <- 4P + 1 diverges, residual stays ~0.75
    with pytest.raises(ConvergenceError) as exc:
        solve_dare(2.0, 0.0, 1.0, 1.0, max_iter=50)
    assert exc.value.residual is not None
    assert exc.value.residual > 0.5


def test_kalman_step_zero_innovation():
    md = StateSpaceModel(np.eye(2) * 0.5, np.ones((2, 1)), np.eye(2)[0:1],
                         0.0, 0.1 * np.ones((2, 1)))
    ks = KalmanState(md, xhat=np.array([1.0, -1.0]))
    y = md.C @ ks.xhat + md.D @ np.array([2.0])
    x_next, e, yhat = kalman_step(ks, [2.0], y)
    np.testing.assert_allclose(e, 0.0, atol=1e-15)
    np.testing.assert_allclose(x_next, md.A @ [1.0, -1.0] + md.B @ [2.0])
    np.testing.assert_array_equal(yhat, y)


def test_kalman_step_refuses_non_finite_measurement():
    md = StateSpaceModel(np.eye(2) * 0.5, np.ones((2, 1)), np.eye(2),
                         np.zeros((2, 1)), 0.1 * np.eye(2))
    ks = KalmanState(md, xhat=np.array([1.0, -1.0]))
    with pytest.raises(NumericalError, match=r"y_k\[1\] = nan is not finite"):
        kalman_step(ks, [2.0], [0.5, np.nan])
    np.testing.assert_array_equal(ks.xhat, [1.0, -1.0])


def test_kalman_step_zero_gain_is_open_loop():
    md = StateSpaceModel(0.7, 1.0, 1.0, 0.0, 0.0)
    ks = KalmanState(md)
    U = np.array([1.0, -0.5, 2.0])
    for u in U:
        kalman_step(ks, [u], [99.0])  # measured y must be ignored
    x = 0.0
    for u in U:
        x = 0.7 * x + u
    assert ks.xhat[0] == pytest.approx(x)


def test_kalman_recovers_generating_innovations():
    rng = np.random.default_rng(21)
    md = random_stable_model(rng, 3, 2, 2)
    N = 400
    U = rng.normal(size=(N, 2))
    E = 0.2 * rng.normal(size=(N, 2))
    Y = simulate(md, U, E=E)
    ks = KalmanState(md)
    rec = np.empty_like(E)
    for k in range(N):
        _, rec[k], _ = kalman_step(ks, U[k], Y[k])
    # after the filter forgets x0 the innovations match the generator's
    np.testing.assert_allclose(rec[100:], E[100:], rtol=0, atol=1e-10)


def test_innovation_covariance_approaches_steady_state():
    rng = np.random.default_rng(33)
    A = np.array([[0.8, 0.1], [0.0, 0.6]])
    C = np.array([[1.0, 0.5]])
    Qw = np.diag([0.04, 0.09])
    Rv = np.array([[0.25]])
    P, K = solve_dare(A, C, Qw, Rv)
    md = StateSpaceModel(A, np.zeros((2, 1)), C, np.zeros((1, 1)), K)
    N = 40000
    x = np.zeros(2)
    W = rng.multivariate_normal(np.zeros(2), Qw, size=N)
    V = rng.normal(0.0, 0.5, size=N)
    ks = KalmanState(md)
    acc = 0.0
    for k in range(N):
        y = C @ x + V[k]
        _, e, _ = kalman_step(ks, [0.0], y)
        if k >= 500:
            acc += e[0] * e[0]
        x = A @ x + W[k]
    var = acc / (N - 500)
    target = (C @ P @ C.T + Rv).item()
    assert abs(var - target) / target < 0.10


def test_fit_percent_endpoints():
    y = np.array([[1.0], [3.0], [2.0]])
    assert fit_percent(y, y)[0] == pytest.approx(100.0)
    mean_pred = np.full_like(y, y.mean())
    assert fit_percent(y, mean_pred)[0] == pytest.approx(0.0)


def test_fit_percent_hand_case():
    got = fit_percent(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
    assert got[0] == pytest.approx(0.0)


def test_fit_percent_constant_channel_named():
    y = np.column_stack([np.ones(4), np.arange(4.0)])
    with pytest.raises(ValueError, match="channel 0"):
        fit_percent(y, y)


def test_unstable_predictor_warns():
    with pytest.warns(RuntimeWarning, match="spectral radius"):
        StateSpaceModel(1.5, 1.0, 1.0, 0.0, 0.0)


def test_estimate_initial_state_recovers_x0():
    rng = np.random.default_rng(8)
    md = random_stable_model(rng, 3, 2, 2, with_k=False)
    x0 = np.array([1.0, -2.0, 0.5])
    U = rng.normal(size=(120, 2))
    Y = simulate(md, U, x0=x0)
    d = Dataset(U, Y, 1.0)
    np.testing.assert_allclose(estimate_initial_state(md, d), x0,
                               rtol=0, atol=1e-8)


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    md = random_stable_model(rng, 3, 2, 2)
    path = tmp_path / "m.txt"
    save_model(md, path)
    back = load_model(path)
    for name in ("A", "B", "C", "D", "K"):
        np.testing.assert_array_equal(getattr(back, name), getattr(md, name))
    assert back.ts == md.ts


def _corrupt(lines, case):
    """One malformed variant of a saved model file, and the line it names."""
    a_row = lines.index("A") + 1
    if case == "empty":
        return [], "after line 0"
    if case == "header only":
        return lines[:1], "after line 1"
    if case == "cut inside A":
        return lines[: a_row + 1], f"after line {a_row + 1}"
    if case == "wide row":
        return lines[:a_row] + [lines[a_row] + " 1.0"] + lines[a_row + 1:], \
            f"line {a_row + 1}"
    if case == "nan entry":
        bad = " ".join(["nan"] + lines[a_row].split()[1:])
        return lines[:a_row] + [bad] + lines[a_row + 1:], f"line {a_row + 1}"
    if case == "missing matrix B":
        b = lines.index("B")
        return lines[:b] + lines[b + 1:], f"line {b + 1}"
    if case == "not a model":
        return ["hello"] + lines[1:], "line 1"
    if case == "bad dims":
        return lines[:2] + ["dims 3 x 2"] + lines[3:], "line 3"
    raise AssertionError(case)


@pytest.mark.parametrize("case", ["empty", "header only", "cut inside A",
                                  "wide row", "nan entry", "missing matrix B",
                                  "not a model", "bad dims"])
def test_load_model_malformed_names_path_and_line(tmp_path, case):
    rng = np.random.default_rng(3)
    good = tmp_path / "good.txt"
    save_model(random_stable_model(rng, 3, 2, 2), good)
    lines, where = _corrupt(good.read_text().splitlines(), case)
    path = tmp_path / "bad.txt"
    path.write_text("".join(ln + "\n" for ln in lines))
    with pytest.raises(ConfigError) as info:
        load_model(path)
    assert str(path) in str(info.value)
    assert where in str(info.value)

