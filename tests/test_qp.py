"""Quadratic-program solver tests against an active-set enumeration oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from qp_oracle import enumerate_qp, kkt_violation, random_feasible_qp

from sidmpc.errors import ConvergenceError, InfeasibleError, NumericalError
from sidmpc.qp import QpProblem, solve_qp


def test_unconstrained_closed_form():
    u, active, val = solve_qp(QpProblem(2.0 * np.eye(2), [-2.0, -4.0]))
    np.testing.assert_allclose(u, [1.0, 2.0], rtol=0, atol=1e-12)
    assert active == []
    assert val == pytest.approx(-5.0)


def test_single_active_bound_hand_kkt():
    qp = QpProblem(2.0 * np.eye(2), [-2.0, -4.0], [[0.0, 1.0]], [1.0])
    u, active, val = solve_qp(qp)
    np.testing.assert_allclose(u, [1.0, 1.0], rtol=0, atol=1e-7)
    assert active == [0]
    # recover the multiplier from stationarity: A' lam = -(H u + f)
    lam = np.linalg.lstsq(qp.A_ineq[active].T,
                          -(qp.H @ u + qp.f), rcond=None)[0]
    assert lam[0] == pytest.approx(2.0, abs=1e-6)
    assert val == pytest.approx(-4.0, abs=1e-7)


def test_contradictory_bounds_infeasible():
    qp = QpProblem(np.eye(1), [0.0], [[1.0], [-1.0]], [0.0, -1.0])
    with pytest.raises(InfeasibleError):
        solve_qp(qp)


def test_contradictory_multirow_infeasible():
    # u1 + u2 <= 0 and -u1 - u2 <= -2 cannot both hold
    qp = QpProblem(np.eye(2), [1.0, -1.0],
                   [[1.0, 1.0], [-1.0, -1.0]], [0.0, -2.0])
    with pytest.raises(InfeasibleError):
        solve_qp(qp)


def test_zero_row_vacuous_or_infeasible():
    u, _, _ = solve_qp(QpProblem(np.eye(1), [-1.0], [[0.0]], [5.0]))
    assert u[0] == pytest.approx(1.0)
    with pytest.raises(InfeasibleError, match="row 0"):
        solve_qp(QpProblem(np.eye(1), [-1.0], [[0.0]], [-5.0]))


def test_matches_enumeration_oracle():
    rng = np.random.default_rng(100)
    checked = 0
    for _ in range(300):
        H, f, A, b = random_feasible_qp(rng)
        ref = enumerate_qp(H, f, A, b)
        assert ref is not None
        u, _, val = solve_qp(QpProblem(H, f, A, b))
        assert val == pytest.approx(ref[1], abs=1e-6 * (1.0 + abs(ref[1])))
        assert np.linalg.norm(u - ref[0]) < 1e-5 * (1.0 + np.linalg.norm(ref[0]))
        checked += 1
    assert checked == 300


def test_kkt_postconditions_on_random_problems():
    # feasibility from the solver's point; stationarity and complementary
    # slackness certified with the oracle's nonnegative multipliers
    rng = np.random.default_rng(42)
    tol = 1e-8
    for _ in range(100):
        H, f, A, b = random_feasible_qp(rng)
        qp = QpProblem(H, f, A, b)
        u, _, _ = solve_qp(qp, tol=tol)
        feas = tol * (1.0 + np.max(np.abs(b)))
        assert np.max(qp.A_ineq @ u - qp.b_ineq, initial=-np.inf) <= feas
        ref = enumerate_qp(qp.H, qp.f, qp.A_ineq, qp.b_ineq)
        lam = ref[2]
        assert np.min(lam, initial=0.0) >= -1e-9
        stat = np.max(np.abs(qp.H @ u + qp.f + qp.A_ineq.T @ lam))
        assert stat <= 1e-5 * (1.0 + np.max(np.abs(qp.f)))
        comp = np.max(np.abs(lam * (qp.A_ineq @ u - qp.b_ineq)), initial=0.0)
        assert comp <= 1e-5 * (1.0 + np.max(np.abs(b)))


def test_removing_constraint_never_worsens_objective():
    rng = np.random.default_rng(55)
    for _ in range(50):
        H, f, A, b = random_feasible_qp(rng, d_max=3, r_max=5)
        _, _, full_val = solve_qp(QpProblem(H, f, A, b))
        drop = int(rng.integers(0, A.shape[0]))
        Ad = np.delete(A, drop, axis=0)
        bd = np.delete(b, drop)
        if Ad.shape[0] == 0:
            Ad, bd = None, None
        _, _, sub_val = solve_qp(QpProblem(H, f, Ad, bd))
        assert sub_val <= full_val + 1e-8 * (1.0 + abs(full_val))


def test_unconstrained_consistency_tight():
    rng = np.random.default_rng(77)
    for _ in range(20):
        G = rng.normal(size=(4, 4))
        H = G @ G.T + np.eye(4)
        f = rng.normal(size=4)
        u, _, _ = solve_qp(QpProblem(H, f))
        ref = -np.linalg.solve(H, f)
        assert np.linalg.norm(u - ref) <= 1e-9 * (1.0 + np.linalg.norm(ref))


def test_singular_h_regularized():
    # zero move weight leaves a zero eigenvalue; regularization keeps the
    # problem solvable and barely perturbs the strongly convex directions
    H = np.diag([2.0, 0.0])
    qp = QpProblem(H, [-2.0, 0.0], [[0.0, 1.0]], [3.0])
    u, _, _ = solve_qp(qp)
    assert u[0] == pytest.approx(1.0, abs=1e-6)
    assert abs(u[1]) <= 3.0 + 1e-8


def test_duplicate_rows_handled():
    qp = QpProblem(2.0 * np.eye(2), [-2.0, -4.0],
                   [[0.0, 1.0], [0.0, 1.0]], [1.0, 1.0])
    u, active, _ = solve_qp(qp)
    np.testing.assert_allclose(u, [1.0, 1.0], rtol=0, atol=1e-6)
    assert set(active) == {0, 1}


def test_repeated_solves_with_rewritten_f_and_b():
    # the documented mutation contract: H and A fixed, f and b rewritten
    rng = np.random.default_rng(8)
    G = rng.normal(size=(3, 3))
    H = G @ G.T + np.eye(3)
    A = rng.normal(size=(4, 3))
    qp = QpProblem(H, np.zeros(3), A, np.ones(4))
    for _ in range(10):
        f = rng.normal(size=3) * 2.0
        b = A @ rng.normal(size=3) + np.abs(rng.normal(size=4))
        qp.f[:] = f
        qp.b_ineq[:] = b
        u_cached, _, val_cached = solve_qp(qp)
        u_fresh, _, val_fresh = solve_qp(QpProblem(H, f, A, b))
        np.testing.assert_allclose(u_cached, u_fresh, rtol=0, atol=1e-9)
        assert val_cached == pytest.approx(val_fresh, abs=1e-10)


def test_validation_errors():
    with pytest.raises(ValueError, match="square"):
        QpProblem(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError, match="trace"):
        QpProblem(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="f has length"):
        QpProblem(np.eye(2), np.zeros(3))
    with pytest.raises(ValueError, match="columns"):
        QpProblem(np.eye(2), np.zeros(2), np.zeros((1, 3)), [0.0])
    with pytest.raises(ValueError, match="tol"):
        solve_qp(QpProblem(np.eye(1), [0.0]), tol=0.0)


def test_active_set_indices_refer_to_original_rows():
    # the vacuous zero row keeps its index slot; tight rows report correctly
    qp = QpProblem(2.0 * np.eye(2), [-2.0, -4.0],
                   [[0.0, 0.0], [0.0, 1.0]], [9.0, 1.0])
    u, active, _ = solve_qp(qp)
    np.testing.assert_allclose(u, [1.0, 1.0], rtol=0, atol=1e-6)
    assert active == [1]


def test_non_finite_data_is_an_error_naming_the_entry():
    qp = QpProblem(np.eye(2), [0.0, 1.0], [[1.0, 0.0]], [1.0])
    solve_qp(qp)
    # f and b are rewritten in place between solves, so every solve checks
    qp.f[:] = [np.nan, 1.0]
    with pytest.raises(NumericalError, match=r"f has a non-finite entry nan at index 0"):
        solve_qp(qp)
    qp.f[:] = [0.0, 1.0]
    qp.b_ineq[:] = [np.inf]
    with pytest.raises(NumericalError, match=r"b_ineq has a non-finite entry inf at index 0"):
        solve_qp(qp)
    with pytest.raises(NumericalError, match=r"b_ineq .* index 1"):
        solve_qp(QpProblem(np.eye(1), [0.0], [[1.0], [-1.0]], [1.0, np.nan]))
    with pytest.raises(NumericalError, match=r"H has a non-finite entry nan at index 3"):
        QpProblem(np.array([[1.0, 0.0], [0.0, np.nan]]), [0.0, 0.0])
    with pytest.raises(NumericalError, match=r"A_ineq .* index 1"):
        QpProblem(np.eye(2), [0.0, 0.0], [[0.0, -np.inf]], [1.0])


def test_max_iter_caps_active_set_changes():
    # three bounds active at the optimum need three working-set changes
    qp = QpProblem(np.eye(3), [-5.0, -5.0, -5.0], np.eye(3), np.ones(3))
    u, active, _ = solve_qp(qp, max_iter=3)
    assert active == [0, 1, 2]
    with pytest.raises(ConvergenceError, match="change cap 2") as err:
        solve_qp(qp, max_iter=2)
    assert err.value.iterate.shape == (3,)


def test_inverse_cached_per_problem():
    rng = np.random.default_rng(3)
    H, f, A, b = random_feasible_qp(rng, d_max=4, r_max=6)
    qp = QpProblem(H, f, A, b)
    solve_qp(qp)
    Hinv = qp._Hinv
    solve_qp(qp)
    assert qp._Hinv is Hinv
    np.testing.assert_allclose(Hinv @ qp.H, np.eye(qp.d), atol=1e-10)



def test_constrained_solve_factors_only_working_set_blocks(monkeypatch):
    # with H^-1 cached, a solve that ends with k active rows of 100 variables
    # solves and inverts nothing larger than k x k: no (100 + k)-square KKT
    rng = np.random.default_rng(11)
    d, r = 100, 30
    G = rng.normal(size=(d, d))
    H = G @ G.T / d + np.eye(d)
    A = rng.normal(size=(r, d))
    u_free = rng.normal(size=d)
    qp = QpProblem(H, -H @ u_free, A, A @ u_free - rng.uniform(0.5, 2.0, r))
    u_first, active, _ = solve_qp(qp)
    k = len(active)
    assert k >= 5
    calls = []
    for name in ("solve", "inv"):
        orig = getattr(np.linalg, name)

        def wrapped(*args, _orig=orig, **kwargs):
            calls.append([np.shape(a) for a in args])
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapped)
    u, again, _ = solve_qp(qp)
    assert again == active and np.array_equal(u, u_first)
    assert calls, "the constrained path solves its working-set systems"
    assert max(max(shape) for shapes in calls for shape in shapes) <= k


@st.composite
def small_qps(draw):
    """(H, f, A, b, infeasible): a strictly convex objective in d <= 4
    variables under r <= 6 rows.  The rows hold at a drawn point with
    nonnegative slack, unless the problem is drawn infeasible: then row 1 is
    -(row 0) and asks for a gap of at least 0.1 beyond row 0's bound.

    Row entries are quarters in [-3, 3], so zero, repeated and parallel rows
    occur but no nonzero row is scaled below 0.25: feasibility is judged
    within tol (1 + max|b|) whatever a row's scale, so a row like
    1e-8 u <= 0 is met by points the oracle and the solver may pick apart.
    """
    def array(elements, *shape):
        n = int(np.prod(shape))
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)),
                        dtype=float).reshape(shape)

    real, quarter = st.floats(-3.0, 3.0), st.integers(-12, 12).map(lambda k: k / 4)
    d, infeasible = draw(st.integers(1, 4)), draw(st.booleans())
    r = draw(st.integers(2 if infeasible else 1, 6))
    G = array(real, d, d)
    H = G @ G.T + draw(st.floats(0.1, 2.0)) * np.eye(d)
    A = array(quarter, r, d)
    b = A @ array(real, d) + array(st.floats(0.0, 3.0), r)
    if infeasible:
        A[1] = -A[0]
        b[1] = -b[0] - draw(st.floats(0.1, 2.0))
    return H, array(real, d), A, b, infeasible


@settings(max_examples=200, deadline=None)
@given(small_qps())
def test_solve_qp_is_optimal_or_refuses_only_infeasible_problems(drawn):
    # at the defaults the controller runs with: a finite KKT point at the
    # enumeration oracle's objective, or InfeasibleError exactly where the
    # oracle finds no feasible point
    H, f, A, b, infeasible = drawn
    qp = QpProblem(H, f, A, b)
    ref = enumerate_qp(qp.H, qp.f, qp.A_ineq, qp.b_ineq)
    assert (ref is None) == infeasible
    try:
        u, active, val = solve_qp(qp)
    except InfeasibleError:
        assert ref is None
        return
    assert ref is not None
    assert np.isfinite(u).all() and np.isfinite(val)
    assert kkt_violation(qp.H, qp.f, qp.A_ineq, qp.b_ineq, u, active) <= 1e-9
    assert val == pytest.approx(ref[1], abs=1e-6 * (1.0 + abs(ref[1])))
