"""Receding-horizon MPC over a velocity-form input parameterization.

The optimizer works on the stacked move vector DU = [du_0; ...; du_{M-1}]
with inputs held constant after the control horizon:

    u(k+i) = u_prev + du_0 + ... + du_min(i, M-1)

Predicted outputs over the prediction horizon P stack as

    Yhat = Phi xhat + Psi u_prev + Theta DU

and the tracking objective  sum_i |r - yhat|^2_Q + sum_j |du_j|^2_R  becomes
a convex QP in DU.  Output bounds are hard by default; when they make the
QP infeasible the step is re-solved with slack variables on the output
bounds under a large quadratic penalty, and that engagement is flagged.
An instant that still yields no move holds the previous input.

A controller builds everything that does not change between instants once:
Phi, Psi, Theta, H, the constraint matrix, the gradient map
2 Theta' diag(qbar), the tiled output windows and the move-limit rows of the
constraint bounds.  Each instant writes in place only what depends on the
state estimate, the last input and the reference (the linear term and the
output and input rows of the bounds), tiles a held setpoint over the horizon
only when it changes, and forms the predicted trajectory
free + Theta DU once for both the reported cost and the diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, ConvergenceError, InfeasibleError, NumericalError
from .qp import DEFAULT_MAX_ITER, QpProblem, solve_qp
from .ssmodel import (KalmanState, StateSpaceModel, _observability_stack,
                      _require_finite, kalman_step)

SOFT_PENALTY = 1e6


@dataclass
class MpcConfig:
    """Horizons, weights, and constraint windows, all in deviation units.

    Q_weights is one weight per output channel and R_weights one per
    input, each held over its horizon.  y bounds are mandatory, input and
    move bounds optional.
    """

    P: int
    M: int
    Q_weights: np.ndarray
    R_weights: np.ndarray
    y_min: np.ndarray
    y_max: np.ndarray
    u_min: Optional[np.ndarray] = None
    u_max: Optional[np.ndarray] = None
    du_max: Optional[np.ndarray] = None
    ts: float = 1.0

    def __post_init__(self):
        if not 1 <= self.M <= self.P:
            raise ValueError(f"need 1 <= M <= P, got M={self.M} P={self.P}")
        self.Q_weights = np.asarray(self.Q_weights, dtype=float)
        self.R_weights = np.asarray(self.R_weights, dtype=float)
        if np.any(self.Q_weights < 0) or np.any(self.R_weights < 0):
            raise ValueError("weights must be nonnegative")
        self.y_min = np.asarray(self.y_min, dtype=float).reshape(-1)
        self.y_max = np.asarray(self.y_max, dtype=float).reshape(-1)
        if self.y_min.shape != self.y_max.shape or np.any(self.y_min >= self.y_max):
            raise ValueError("y_min must be strictly below y_max componentwise")
        for name in ("u_min", "u_max", "du_max"):
            v = getattr(self, name)
            if v is not None:
                setattr(self, name, np.asarray(v, dtype=float).reshape(-1))
        if (self.u_min is None) != (self.u_max is None):
            raise ValueError("give u_min and u_max together or not at all")
        if self.u_min is not None and np.any(self.u_min >= self.u_max):
            raise ValueError("u_min must be strictly below u_max componentwise")
        if self.du_max is not None and np.any(self.du_max <= 0):
            raise ValueError("du_max must be positive componentwise")
        if not self.ts > 0:
            raise ValueError(f"ts must be positive, got {self.ts}")


def build_prediction(model: StateSpaceModel, cfg: MpcConfig):
    """Stacked prediction matrices (Phi, Psi, Theta) for Yhat over horizon P.

    Row block i (i = 1..P) of Phi is C A^i.  The step gains
    G_t = D + C (I + A + ... + A^(t-1)) B map a step change applied t samples
    ago to the current output; Psi stacks G_1..G_P and Theta places G_(i-l)
    at row block i, move l.
    """
    p, m = model.p, model.m
    P_, M_ = cfg.P, cfg.M
    CA = _observability_stack(model.A, model.C, P_ + 1)
    G = model.D + np.cumsum(np.concatenate([np.zeros((1, p, m)), CA[:P_] @ model.B]),
                            axis=0)
    Phi = CA[1:].reshape(P_ * p, model.n)
    Psi = G[1:].reshape(P_ * p, m)
    Theta = np.zeros((P_ * p, M_ * m))
    for l in range(M_):
        i0 = max(l, 1)  # first row block that move l reaches
        Theta[(i0 - 1) * p:, l * m:(l + 1) * m] = G[i0 - l:P_ + 1 - l].reshape(-1, m)
    return Phi, Psi, Theta


class MpcController:
    """Single-model receding-horizon controller with a built-in estimator.

    Mutable across instants: the Kalman state and the last applied input
    evolve with each control_step call.  The QP template (H, A and the move
    rows of b) is built here; assemble_qp rewrites its f and the rest of b
    in place every instant, so a returned QpProblem is valid until the next.
    """

    def __init__(self, model: StateSpaceModel, cfg: MpcConfig,
                 x0=None, u_prev=None, qp_max_iter: int = DEFAULT_MAX_ITER):
        if abs(model.ts - cfg.ts) > 1e-12 * max(model.ts, cfg.ts):
            raise ValueError(f"model ts {model.ts} differs from config ts {cfg.ts}")
        self.model = model
        self.cfg = cfg
        self.qp_max_iter = qp_max_iter
        n, m, p = model.n, model.m, model.p
        if cfg.y_min.shape[0] != p:
            raise ValueError(f"y bounds have length {cfg.y_min.shape[0]}, model p={p}")
        for name in ("u_min", "u_max", "du_max"):
            v = getattr(cfg, name)
            if v is not None and v.shape[0] != m:
                raise ValueError(f"{name} has length {v.shape[0]}, model m={m}")

        self.estimator = KalmanState(model, x0)
        self.u_prev = (np.zeros(m) if u_prev is None
                       else np.asarray(u_prev, dtype=float).reshape(m).copy())
        _require_finite("initial input u_prev", self.u_prev, ConfigError)

        self.Phi, self.Psi, self.Theta = build_prediction(model, cfg)
        self.qbar = self._stack_weights(cfg.Q_weights, cfg.P, p, "Q_weights")
        self.rbar = self._stack_weights(cfg.R_weights, cfg.M, m, "R_weights")

        H = 2.0 * (self.Theta.T @ (self.qbar[:, None] * self.Theta)
                   + np.diag(self.rbar))
        # template problem; f and the state-dependent rows of b are rewritten
        # in place every instant, the move rows hold du_max from here on
        self._qp = QpProblem(H, np.zeros(cfg.M * m), *self._constraint_rows())
        self._soft: Optional[QpProblem] = None
        # f = 2 Theta' diag(qbar) (free - ref); transposed view, same BLAS path as Theta.T
        self._grad = (2.0 * self.qbar[:, None] * self.Theta).T
        self._ymax = np.tile(cfg.y_max, cfg.P)
        self._ymin = np.tile(cfg.y_min, cfg.P)
        self._ref_tiled = np.full(cfg.P * p, np.nan)   # last held setpoint, tiled
        self._free, self._err = np.empty((2, cfg.P * p))

    @staticmethod
    def _stack_weights(w: np.ndarray, steps: int, width: int, name: str):
        if w.shape != (width,):
            raise ValueError(f"{name} must have shape ({width},), got {w.shape}")
        return np.tile(w, steps)

    def _constraint_rows(self):
        cfg, m = self.cfg, self.model.m
        blocks, b = [self.Theta, -self.Theta], [np.zeros(2 * self.Theta.shape[0])]
        if cfg.u_min is not None:
            Tm = np.kron(np.tril(np.ones((cfg.M, cfg.M))), np.eye(m))
            blocks += [Tm, -Tm]
            b.append(np.zeros(2 * cfg.M * m))
        if cfg.du_max is not None:
            eye = np.eye(cfg.M * m)
            blocks += [eye, -eye]
            b.append(np.tile(cfg.du_max, 2 * cfg.M))
        return np.vstack(blocks), np.concatenate(b)

    def assemble_qp(self, xhat, ref) -> QpProblem:
        """QP over DU for the given state estimate and setpoint (a p-vector,
        held over the horizon).  Writes f and the output and input rows of b
        in place; the move rows were set at build."""
        ref = np.asarray(ref, dtype=float)
        p, P_, M_ = self.model.p, self.cfg.P, self.cfg.M
        if ref.shape != (p,):
            raise ValueError(f"ref must have shape ({p},), got {ref.shape}")
        if not (ref == self._ref_tiled[:p]).all():
            self._ref_tiled = np.tile(ref, P_)
        free, qp, ny = self._free, self._qp, P_ * p
        np.matmul(self.Phi, np.asarray(xhat, dtype=float).reshape(-1), out=free)
        free += self.Psi @ self.u_prev
        np.matmul(self._grad, np.subtract(free, self._ref_tiled, out=self._err), out=qp.f)
        b = qp.b_ineq
        np.subtract(self._ymax, free, out=b[:ny])
        np.subtract(free, self._ymin, out=b[ny:2 * ny])
        if self.cfg.u_min is not None:
            u_rows = b[2 * ny:2 * ny + 2 * M_ * self.model.m].reshape(2, M_, -1)
            np.subtract(self.cfg.u_max, self.u_prev, out=u_rows[0])
            np.subtract(self.u_prev, self.cfg.u_min, out=u_rows[1])
        return qp

    def _soft_problem(self) -> QpProblem:
        """Template of the softened QP, built at the first engagement: the
        hard rows over variables [DU; slack], one slack column per output
        row entering both of its window rows with -1, the input and move
        rows kept hard.  No s >= 0 row is needed: the window rows bound s
        below by the violation and the penalty then puts s at
        max(violation, 0).  Its f and b are rewritten per engagement."""
        if self._soft is None:
            qp, ns = self._qp, self.cfg.P * self.model.p
            H = np.zeros((qp.d + ns, qp.d + ns))
            H[:qp.d, :qp.d] = qp.H
            H[qp.d:, qp.d:] = 2.0 * SOFT_PENALTY * np.eye(ns)
            S = np.zeros((qp.r, ns))
            S[:2 * ns] = np.tile(-np.eye(ns), (2, 1))
            self._soft = QpProblem(H, np.zeros(qp.d + ns), np.hstack([qp.A_ineq, S]),
                                   np.zeros(qp.r))
        return self._soft

    def _solve_soft(self, qp: QpProblem):
        """Re-solve with slack on the output bounds, penalty SOFT_PENALTY.

        The working-set budget scales with the variable count (DU plus one
        slack per output row), so the softened problem gets the hard
        problem's budget per variable.
        """
        soft, d = self._soft_problem(), qp.d
        soft.f[:d] = qp.f
        soft.b_ineq[:] = qp.b_ineq
        sol, active, _ = solve_qp(soft, max_iter=self.qp_max_iter * soft.d // d)
        return sol[:d], sol[d:], active

    def _step_core(self, y_k, ref):
        """Estimator update plus one QP solve; does not commit u_prev.

        The one place a failed instant is decided: a measurement the
        estimator refuses, non-finite QP data or a softened retry that is
        infeasible or capped holds u_prev, with J and yhat nan,
        fallback_failed set and the reason under "held".
        """
        diag = {"fallback": False, "fallback_failed": False, "slack_max": 0.0}
        try:
            kalman_step(self.estimator, self.u_prev, y_k)
            qp = self.assemble_qp(self.estimator.xhat, ref)
            try:
                dU, active, _ = solve_qp(qp, max_iter=self.qp_max_iter)
            except (InfeasibleError, ConvergenceError):
                # a solve that hits its change cap is treated like
                # infeasibility: soften and retry
                diag["fallback"] = True
                dU, slack, active = self._solve_soft(qp)
                diag["slack_max"] = float(np.max(slack, initial=0.0))
        except NumericalError as exc:
            diag.update(fallback_failed=True, held=f"controller failed: {exc}",
                        J=np.nan, active=[], yhat=np.full(self._free.shape, np.nan),
                        du=np.zeros(self.model.m))
            return self.u_prev.copy(), diag
        m = self.model.m
        if self.cfg.du_max is not None:
            # solve_qp meets each row only to within its tolerance, so a move
            # on the move limit can pass it by about 1e-9; apply the limit
            dU[:m] = np.clip(dU[:m], -self.cfg.du_max, self.cfg.du_max)
        u_k = self.u_prev + dU[:m]
        yhat = self._free + self.Theta @ dU
        err = self._ref_tiled - yhat
        diag["J"] = float(err @ (self.qbar * err) + dU @ (self.rbar * dU))
        diag["active"] = active
        diag["yhat"] = yhat
        diag["du"] = dU[:m].copy()
        return u_k, diag

    def control_step(self, y_k, ref_trajectory):
        """One receding-horizon instant; applies and remembers the move."""
        u_k, diag = self._step_core(y_k, ref_trajectory)
        self.u_prev = u_k
        return u_k, diag
