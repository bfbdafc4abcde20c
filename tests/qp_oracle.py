"""Reference solver for small inequality-constrained QPs.

Exhaustive active-set enumeration: solve the equality-constrained KKT
system for every subset of constraints and keep the feasible point with
nonnegative multipliers and the smallest objective.  Exponential in the
row count, so only usable for tiny problems; that is the point, it shares
nothing with the production solver.
"""

import itertools

import numpy as np
from scipy.optimize import nnls


def enumerate_qp(H, f, A, b, feas_tol=1e-9):
    """Return (u_star, objective, multipliers) or None when infeasible.

    The multiplier vector is embedded in a full-length r-vector with zeros
    on the inactive rows.
    """
    H = np.asarray(H, dtype=float)
    f = np.asarray(f, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    d = H.shape[0]
    r = A.shape[0]
    best = None
    for k in range(r + 1):
        for subset in itertools.combinations(range(r), k):
            S = list(subset)
            As = A[S]
            KKT = np.block([[H, As.T], [As, np.zeros((k, k))]])
            rhs = np.concatenate([-f, b[S]])
            try:
                sol = np.linalg.solve(KKT, rhs)
            except np.linalg.LinAlgError:
                continue
            if not np.all(np.isfinite(sol)):
                continue
            u = sol[:d]
            lam = sol[d:]
            if lam.size and np.min(lam) < -feas_tol:
                continue
            if r and np.max(A @ u - b) > feas_tol * (1.0 + np.max(np.abs(b))):
                continue
            val = float(f @ u + 0.5 * u @ H @ u)
            if best is None or val < best[1]:
                lam_full = np.zeros(r)
                lam_full[S] = lam
                best = (u, val, lam_full)
    return best


def random_feasible_qp(rng, d_max=4, r_max=6):
    """Strictly convex objective with a guaranteed-feasible constraint set."""
    d = int(rng.integers(1, d_max + 1))
    r = int(rng.integers(1, r_max + 1))
    G = rng.normal(size=(d, d))
    H = G @ G.T + (0.5 + rng.uniform()) * np.eye(d)
    f = rng.normal(size=d) * 3.0
    A = rng.normal(size=(r, d))
    u_feas = rng.normal(size=d)
    slack = np.abs(rng.normal(size=r)) * rng.uniform(0.1, 2.0)
    b = A @ u_feas + slack
    return H, f, A, b


def kkt_violation(H, f, A, b, u, active):
    """Largest relative KKT defect of a claimed optimum, 0 when exact.

    Primal feasibility is measured against 1 + max|b|; stationarity uses
    the nonnegative multipliers on the claimed active rows that NNLS finds
    for H u + f + A_S' lam = 0, measured against the size of its terms.
    """
    viol = max(float(np.max(A @ u - b, initial=0.0)), 0.0)
    grad = H @ u + f
    pull = np.zeros_like(grad)
    if len(active):
        AS = A[list(active)]
        lam, _ = nnls(AS.T, -grad, maxiter=50 * AS.shape[0] + 100)
        pull = AS.T @ lam
    scale = 1.0 + np.max(np.abs(f)) + np.max(np.abs(pull))
    return max(viol / (1.0 + np.max(np.abs(b), initial=0.0)),
               float(np.max(np.abs(grad + pull))) / scale)
