"""Dense convex quadratic programming by the dual active-set method of
Goldfarb and Idnani (Math. Prog. 27, 1983).

Solves min_u  0.5 u' H u + f' u  subject to  A u <= b.

The iteration starts at the unconstrained optimum, which is dual feasible,
and repeatedly adds the most violated row p to a working set W whose rows it
keeps tight.  Raising p's multiplier moves the point along the direction that
keeps stationarity and W tight, found from the small Schur block
A_W H^-1 A_W'.  A step cut short by a multiplier of W reaching zero drops
that row and continues with p.  When p depends linearly on W and no
multiplier of W can give way, no primal or dual step exists: the constraint
set is infeasible.  The final point is recomputed from the same Schur block
with W held tight, which removes the drift of the incremental steps.

A QpProblem treats H and A_ineq as immutable after construction; callers
re-solving the same problem shape may rewrite f and b_ineq in place between
solves (the receding-horizon loop does exactly that).  The inverse of H, the
row scales of A_ineq and the rows of A_ineq H^-1 the solver has used are
cached on the problem the first time a solve needs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, InfeasibleError, NumericalError

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 20000
# a candidate row whose curvature along the projected direction is below this
# share of its curvature without W depends linearly on the rows of W
DEPENDENT = 1e-10


def _require_finite(name: str, v: np.ndarray) -> None:
    if not np.isfinite(v).all():
        i = int(np.flatnonzero(~np.isfinite(v))[0])
        raise NumericalError(
            f"QP data {name} has a non-finite entry {float(v.flat[i])} at index {i}")


@dataclass
class QpProblem:
    H: np.ndarray
    f: np.ndarray
    A_ineq: Optional[np.ndarray] = None
    b_ineq: Optional[np.ndarray] = None

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        if H.ndim == 0:
            H = H.reshape(1, 1)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError(f"H must be square, got shape {H.shape}")
        _require_finite("H", H)
        d = H.shape[0]
        H = (H + H.T) / 2.0
        tr = np.trace(H)
        if not tr > 0:
            raise ValueError("H must have positive trace (nonzero PSD matrix)")
        # a zero move-weight block can leave H singular; lift the spectrum
        # just enough to keep the problem strictly convex
        eps = 1e-8 * tr / d
        w_min = np.min(np.linalg.eigvalsh(H))
        if w_min < eps:
            H = H + eps * np.eye(d)
            w_min = w_min + eps
        if w_min <= 0:
            raise ValueError(f"H is not convex even after regularization "
                             f"(min eigenvalue {w_min:.3e})")
        self.H = H
        self.f = np.asarray(self.f, dtype=float).reshape(-1)
        if self.f.shape[0] != d:
            raise ValueError(f"f has length {self.f.shape[0]}, H is {d}x{d}")
        if self.A_ineq is None or np.size(self.A_ineq) == 0:
            self.A_ineq = np.zeros((0, d))
            self.b_ineq = np.zeros(0)
        else:
            A = np.asarray(self.A_ineq, dtype=float)
            if A.ndim == 1:
                A = A.reshape(1, -1)
            if A.shape[1] != d:
                raise ValueError(f"A_ineq has {A.shape[1]} columns, H is {d}x{d}")
            _require_finite("A_ineq", A)
            b = np.asarray(self.b_ineq, dtype=float).reshape(-1)
            if b.shape[0] != A.shape[0]:
                raise ValueError(
                    f"b_ineq has length {b.shape[0]}, A_ineq has {A.shape[0]} rows"
                )
            self.A_ineq = A
            self.b_ineq = b
        self._Hinv = None

    @property
    def d(self) -> int:
        return self.H.shape[0]

    @property
    def r(self) -> int:
        return self.A_ineq.shape[0]

    def _cached_inverse(self) -> np.ndarray:
        """H^-1, computed at the first solve together with the row scales,
        the zero rows' indices and an empty store for rows of A_ineq H^-1."""
        if self._Hinv is None:
            self._Hinv = np.linalg.inv(self.H)
            scale = np.max(np.abs(self.A_ineq), axis=1, initial=0.0)
            self._zero_rows = np.flatnonzero(scale == 0.0)   # usually none
            self._row_scale = np.where(scale == 0.0, 1.0, scale)
            self._AHinv = np.empty((self.r, self.d))   # row j: a_j H^-1
            self._have = np.zeros(self.r, dtype=bool)
        return self._Hinv

    def _ahinv_rows(self, rows: np.ndarray) -> np.ndarray:
        new = rows[~self._have[rows]]
        if new.size:
            self._AHinv[new] = self.A_ineq[new] @ self._Hinv
            self._have[new] = True
        return self._AHinv[rows]


def solve_qp(qp: QpProblem, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER):
    """Returns (u_star, active_set, objective_value).

    active_set lists the indices of constraints tight at the solution.
    Raises NumericalError for non-finite f or b_ineq, InfeasibleError for
    empty constraint sets and ConvergenceError (carrying the last iterate)
    when more than max_iter working-set changes were needed.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    H, f, A, b = qp.H, qp.f, qp.A_ineq, qp.b_ineq
    _require_finite("f", f)
    _require_finite("b_ineq", b)
    Hinv = qp._cached_inverse()
    u = -(Hinv @ f)
    u -= Hinv @ (H @ u + f)       # H is ill conditioned; refine once
    feas_tol = tol * (1.0 + np.max(np.abs(b), initial=0.0))
    # constant rows constrain nothing; they are either vacuous or infeasible
    if qp._zero_rows.size:
        bad = qp._zero_rows[b[qp._zero_rows] < -feas_tol]
        if bad.size:
            i = int(bad[0])
            raise InfeasibleError(f"constraint row {i} is 0 <= {b[i]!r}, which cannot hold")

    W = np.zeros(0, dtype=int)    # working set, rows held tight
    lam = np.zeros(0)             # their multipliers
    changes = 0
    while True:
        viol = A @ u - b
        over = viol > feas_tol
        if not over.any():
            break
        p = int(np.argmax(np.where(over, viol / qp._row_scale, -np.inf)))
        lam_p = 0.0
        while True:               # raise lam_p until row p is tight
            changes += 1
            if changes > max_iter:
                resid = float(A[p] @ u - b[p])
                raise ConvergenceError(
                    f"active-set change cap {max_iter} reached "
                    f"(violation {resid:.3e} on row {p})",
                    residual=resid, iterate=u.copy())
            G = qp._ahinv_rows(np.append(W, p))
            a_p, y = A[p], G[-1]
            z, r = y, np.zeros(0)
            if W.size:
                A_W = A[W]
                r = np.linalg.solve(A_W @ G[:-1].T, A_W @ y)
                z = y - r @ G[:-1]
            curv = float(a_p @ z)
            t_full = (float(a_p @ u) - b[p]) / curv \
                if curv > DEPENDENT * float(a_p @ y) else np.inf
            # largest step before a multiplier of W reaches zero; the
            # appended inf stands for "no multiplier gives way"
            give = r > 0
            ratios = np.append(np.where(give, lam / np.where(give, r, 1.0), np.inf), np.inf)
            k = int(np.argmin(ratios))
            t_part = ratios[k]
            if t_full == np.inf and t_part == np.inf:
                raise InfeasibleError(
                    f"constraint set is infeasible: row {p} cannot be met "
                    f"together with rows {W.tolist()}")
            t = min(t_full, t_part)
            if t_full < np.inf:
                u = u - t * z
            lam = np.maximum(lam - t * r, 0.0)
            lam_p += t
            if t_full <= t_part:
                W, lam = np.append(W, p), np.append(lam, lam_p)
                break
            W, lam = np.delete(W, k), np.delete(lam, k)
    if W.size:
        # the point with W tight from the cached rows G = A_W H^-1:
        # (A_W G') lam = -(b_W + G f), u = -(H^-1 f + G' lam), refined once
        G, A_W = qp._ahinv_rows(W), A[W]
        S = A_W @ G.T
        lam = np.linalg.solve(S, -(b[W] + G @ f))
        u = -(Hinv @ f + G.T @ lam)
        r = -(H @ u + f + A_W.T @ lam)     # one KKT refinement step through S
        dlam = np.linalg.solve(S, G @ r - (b[W] - A_W @ u))
        u += Hinv @ r - G.T @ dlam
        viol = A @ u - b
    active = [int(i) for i in np.flatnonzero(np.abs(viol) <= feas_tol)]
    return u, active, float(f @ u + 0.5 * u @ H @ u)
