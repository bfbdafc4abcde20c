"""Discrete-time innovation-form state-space models.

The model recursion is

    x(k+1) = A x(k) + B u(k) + K e(k)
    y(k)   = C x(k) + D u(k) + e(k)

with e the one-step innovation.  Rewriting with the measured output as an
input gives the predictor form

    x(k+1) = (A - K C) x(k) + (B - K D) u(k) + K y(k)

whose state matrix A - K C must be stable for the filter to forget its
initial condition.

Every open-loop use of a model goes through two private primitives:
`_linear_run` runs x(k+1) = A x(k) + B w(k), y(k) = C x(k) + D w(k) over a
record (simulate on w = [u; e], the predictor residuals on w = [u; y]), and
`_observability_stack` stacks C A^k (the x0 regressor, the MPC prediction
matrices).  Only `kalman_step` steps a model one measurement at a time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, ConvergenceError, NumericalError
from .signals import Dataset, _format, _read_text


def _as_matrix(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim == 0:
        M = M.reshape(1, 1)
    elif M.ndim == 1:
        M = M.reshape(1, -1)
    if M.ndim != 2:
        raise ValueError(f"{name} must be at most 2-dimensional")
    return M


@dataclass
class StateSpaceModel:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    K: np.ndarray
    ts: float = 1.0

    def __post_init__(self):
        self.A = _as_matrix(self.A, "A")
        n = self.A.shape[0]
        if self.A.shape[1] != n:
            raise ValueError(f"A must be square, got {self.A.shape}")
        self.B = _as_matrix(self.B, "B").reshape(n, -1)
        self.C = _as_matrix(self.C, "C").reshape(-1, n)
        p = self.C.shape[0]
        m = self.B.shape[1]
        self.D = _as_matrix(self.D, "D")
        if self.D.shape != (p, m):
            raise ValueError(f"D must be {p}x{m} to match C and B, got {self.D.shape}")
        self.K = _as_matrix(self.K, "K")
        if self.K.shape != (n, p):
            raise ValueError(f"K must be {n}x{p} to match A and C, got {self.K.shape}")
        if not self.ts > 0:
            raise ValueError(f"ts must be positive, got {self.ts}")
        rho = predictor_radius(self)
        if rho >= 1.0:
            warnings.warn(
                f"predictor matrix A - K C has spectral radius {rho:.6g} >= 1; "
                "the filter will not forget its initial state",
                RuntimeWarning,
                stacklevel=2,
            )

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


def predictor_radius(model: StateSpaceModel) -> float:
    """Spectral radius of A - K C."""
    return float(np.max(np.abs(np.linalg.eigvals(model.A - model.K @ model.C))))


def predictor_form(model: StateSpaceModel):
    """Return (A_K, B_K) with A_K = A - K C and B_K = [B - K D, K].

    Driving x(k+1) = A_K x(k) + B_K [u(k); y(k)] reproduces the innovation
    recursion exactly when y carries the same innovation sequence.
    """
    A_K = model.A - model.K @ model.C
    B_K = np.hstack([model.B - model.K @ model.D, model.K])
    return A_K, B_K


def simulate(
    model: StateSpaceModel,
    U: np.ndarray,
    x0: Optional[np.ndarray] = None,
    E: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Run the innovation recursion over an input record.

    U is N x m.  With E omitted the innovation is zero and the run is the
    deterministic response from x0 (default zero).
    """
    U = np.asarray(U, dtype=float)
    if U.ndim == 1:
        U = U[:, None]
    if U.shape[1] != model.m:
        raise ValueError(f"U has {U.shape[1]} columns, model expects m={model.m}")
    N = U.shape[0]
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        if x0.shape[0] != model.n:
            raise ValueError(f"x0 has length {x0.shape[0]}, model order is {model.n}")
    E = np.zeros((N, model.p)) if E is None else np.asarray(E, dtype=float)
    if E.ndim == 1:
        E = E[:, None]
    if E.shape != (N, model.p):
        raise ValueError(f"E must be {N}x{model.p}, got {E.shape}")
    return _linear_run(model.A, np.hstack([model.B, model.K]), model.C,
                       np.hstack([model.D, np.eye(model.p)]), np.hstack([U, E]), x0)


def _linear_run(A, B, C, D, W, x0=None) -> np.ndarray:
    """Outputs of x(k+1) = A x(k) + B w(k), y(k) = C x(k) + D w(k) over the
    rows w(k) of W, from x0 (default zero).

    The only per-sample loop carries the state alone; the input terms and
    the outputs are whole-record products.
    """
    BW = W @ B.T
    X = np.empty((W.shape[0], A.shape[0]))
    x = np.zeros(A.shape[0]) if x0 is None else x0
    for k in range(W.shape[0]):
        X[k] = x
        x = A @ x + BW[k]
    return X @ C.T + W @ D.T


def _observability_stack(A, C, N: int) -> np.ndarray:
    """The N blocks C, C A, ..., C A^(N-1) as an N x p x n array."""
    O = np.empty((N,) + C.shape)
    CAk = C
    for k in range(N):
        O[k] = CAk
        CAk = CAk @ A
    return O


def solve_dare(A, C, Q, R, S=None, tol: float = 1e-12, max_iter: int = 10000):
    """Fixed-point solution of the discrete Riccati equation for filtering.

    Iterates P <- A P A' - (A P C' + S)(C P C' + R)^-1 (A P C' + S)' + Q
    until the update stalls, then returns (P, K) with the steady-state
    one-step predictor gain K = (A P C' + S)(C P C' + R)^-1.
    """
    A = _as_matrix(A, "A")
    n = A.shape[0]
    C = _as_matrix(C, "C").reshape(-1, n)
    p = C.shape[0]
    Q = _as_matrix(Q, "Q").reshape(n, n)
    R = _as_matrix(R, "R").reshape(p, p)
    if S is None:
        S = np.zeros((n, p))
    else:
        S = _as_matrix(S, "S").reshape(n, p)
    if np.linalg.norm(Q - Q.T) > 1e-8 * max(1.0, np.linalg.norm(Q)):
        raise ValueError("Q must be symmetric")
    if np.linalg.norm(R - R.T) > 1e-8 * max(1.0, np.linalg.norm(R)):
        raise ValueError("R must be symmetric")
    if np.min(np.linalg.eigvalsh((Q + Q.T) / 2)) < -1e-10 * max(1.0, np.trace(Q)):
        raise ValueError("Q must be positive semidefinite")
    if np.min(np.linalg.eigvalsh((R + R.T) / 2)) <= 0:
        raise ValueError("R must be positive definite")
    P = Q.copy()
    residual = np.inf
    for _ in range(max_iter):
        M = A @ P @ C.T + S
        W = C @ P @ C.T + R
        P_next = A @ P @ A.T - M @ np.linalg.solve(W, M.T) + Q
        P_next = (P_next + P_next.T) / 2
        residual = np.linalg.norm(P_next - P) / max(1.0, np.linalg.norm(P_next))
        P = P_next
        if residual <= tol:
            break
    else:
        raise ConvergenceError(
            f"Riccati iteration did not converge in {max_iter} steps "
            f"(final residual {residual:.3e})",
            residual=residual,
            iterate=P,
        )
    K = (A @ P @ C.T + S) @ np.linalg.inv(C @ P @ C.T + R)
    return P, K


@dataclass
class KalmanState:
    """Single-owner mutable state of one steady-state Kalman filter."""

    model: StateSpaceModel
    xhat: np.ndarray = None

    def __post_init__(self):
        if self.xhat is None:
            self.xhat = np.zeros(self.model.n)
        else:
            self.xhat = np.asarray(self.xhat, dtype=float).reshape(-1).copy()
            if self.xhat.shape[0] != self.model.n:
                raise ValueError(
                    f"xhat has length {self.xhat.shape[0]}, model order is {self.model.n}"
                )


def kalman_step(ks: KalmanState, u_k, y_k):
    """One measurement update; mutates ks.xhat in place.

    Returns (xhat_next, innovation, yhat) where yhat is the one-step
    prediction C xhat + D u made before seeing y_k.  A non-finite y_k
    raises NumericalError and leaves ks.xhat as it was.
    """
    md = ks.model
    u_k = np.asarray(u_k, dtype=float).reshape(-1)
    y_k = np.asarray(y_k, dtype=float).reshape(-1)
    if u_k.shape[0] != md.m:
        raise ValueError(f"u_k has length {u_k.shape[0]}, model expects m={md.m}")
    if y_k.shape[0] != md.p:
        raise ValueError(f"y_k has length {y_k.shape[0]}, model expects p={md.p}")
    bad = np.flatnonzero(~np.isfinite(y_k))
    if bad.size:
        i = int(bad[0])
        raise NumericalError(f"measurement y_k[{i}] = {float(y_k[i])} is not finite")
    yhat = md.C @ ks.xhat + md.D @ u_k
    e = y_k - yhat
    ks.xhat = md.A @ ks.xhat + md.B @ u_k + md.K @ e
    return ks.xhat, e, yhat


def fit_percent(y_meas: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
    """Per-channel normalized fit: 100 (1 - |err| / |y - mean(y)|).

    100 means perfect reproduction, 0 matches a constant-mean predictor,
    negative values are possible.
    """
    y_meas = np.asarray(y_meas, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_meas.ndim == 1:
        y_meas = y_meas[:, None]
    if y_pred.ndim == 1:
        y_pred = y_pred[:, None]
    if y_meas.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_meas.shape} vs {y_pred.shape}")
    if y_meas.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    out = np.empty(y_meas.shape[1])
    for j in range(y_meas.shape[1]):
        denom = np.linalg.norm(y_meas[:, j] - np.mean(y_meas[:, j]))
        if denom == 0.0:
            raise ValueError(f"channel {j} is constant; fit is undefined")
        out[j] = 100.0 * (1.0 - np.linalg.norm(y_meas[:, j] - y_pred[:, j]) / denom)
    return out


def estimate_initial_state(model: StateSpaceModel, d: Dataset, n_samples: int = 200):
    """Least-squares x0 so the deterministic run of the model matches d.

    Subtracts the forced response from x0 = 0, then regresses the remainder
    onto the stacked maps C A^k.  Uses at most n_samples leading samples.
    """
    N = min(n_samples, d.N)
    forced = simulate(model, d.u[:N])
    resid = (d.y[:N] - forced).reshape(-1)
    G = _observability_stack(model.A, model.C, N).reshape(N * model.p, model.n)
    x0, *_ = np.linalg.lstsq(G, resid, rcond=None)
    return x0


def save_model(model: StateSpaceModel, path) -> None:
    """Plaintext serialization with exact round-trip floats."""
    lines = ["sidmpc-model 1", f"ts {_format(model.ts)}",
             f"dims {model.n} {model.m} {model.p}"]
    for name in ("A", "B", "C", "D", "K"):
        M = getattr(model, name)
        lines.append(name)
        for row in M:
            lines.append(" ".join(_format(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> StateSpaceModel:
    """Read a file written by save_model.

    Malformed content raises ConfigError naming the file and the line,
    counting every line of the file from 1, or naming the file when the
    matrices are too large to form the predictor A - K C.
    """
    text = _read_text(path).splitlines()
    lines = iter([(num, ln.split()) for num, ln in enumerate(text, start=1) if ln.strip()])

    def values(what: str, key, count: int, kind=float) -> list:
        """The `count` finite values on the next line, after `key` if given."""
        try:
            num, toks = next(lines)
        except StopIteration:
            raise ConfigError(
                f"{path}: file ends after line {len(text)}, before {what}"
            ) from None
        try:
            if key is not None and toks[:1] != [key]:
                raise ValueError
            vals = [kind(t) for t in toks[key is not None:]]
            # header values (version, ts, dims) must be positive
            ok = (len(vals) == count and all(abs(v) < np.inf for v in vals)
                  and (key is None or all(v > 0 for v in vals)))
        except ValueError:
            ok = False
        if not ok:
            raise ConfigError(f"{path}: line {num}: expected {what}, got {' '.join(toks)!r}")
        return vals

    values("the 'sidmpc-model' header", "sidmpc-model", 1, int)
    (ts,) = values("'ts' and a positive sampling interval", "ts", 1)
    n, m, p = values("'dims' and three positive integers", "dims", 3, int)
    mats = []
    for name, nr, nc in (("A", n, n), ("B", n, m), ("C", p, n), ("D", p, m), ("K", n, p)):
        values(f"matrix {name}", name, 0)
        mats.append(np.array([values(f"a row of {nc} finite numbers of matrix {name}",
                                     None, nc) for _ in range(nr)]))
    A, B, C, D, K = mats
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(A - K @ C).all():
            raise ConfigError(f"{path}: A - K C overflows; the entries are too large")
    return StateSpaceModel(*mats, ts)
