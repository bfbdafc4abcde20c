"""Output checks computed apart from the program.

Each check reads what a command wrote (or what a traced call returned) and
returns a list of problems; an empty list means the output passed.  Nothing
here calls back into sidmpc's numerics: models and datasets are parsed here,
re-simulated with scipy.signal.dlsim, and QP optimality is tested with
scipy.optimize.nnls.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import nnls
from scipy.signal import dlsim

MIN_FIT_PCT = 80.0
FIT_AGREE_PCT = 1e-6       # recomputed vs reported validation fit, in % points
X0_SAMPLES = 200
IAE_RTOL = 1e-9
LIMIT_TOL = 1e-9
KKT_TOL = 1e-9            # relative; the tolerance the controllers pass to solve_qp


def read_model(path: Path) -> dict:
    """Matrices A, B, C, D, K and ts of a saved model file."""
    lines = [ln.split() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if lines[0][0] != "sidmpc-model" or lines[1][0] != "ts" or lines[2][0] != "dims":
        raise ValueError(f"{path}: unexpected model header")
    n, m, p = (int(v) for v in lines[2][1:4])
    out = {"ts": float(lines[1][1])}
    i = 3
    for name, rows in (("A", n), ("B", n), ("C", p), ("D", p), ("K", n)):
        if lines[i] != [name]:
            raise ValueError(f"{path}: expected matrix {name} at line {i + 1}")
        out[name] = np.array([[float(v) for v in r] for r in lines[i + 1:i + 1 + rows]])
        i += 1 + rows
    return out


def read_report_fit(path: Path) -> np.ndarray:
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if parts and parts[0] == "fit_valid":
            return np.array([float(v) for v in parts[1:]])
    raise ValueError(f"{path}: no fit_valid line")


def read_columns(path: Path) -> dict:
    """CSV columns by header name; every column but model_id as floats."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: (np.array([r[i] for r in body]) if name == "model_id"
                   else np.array([float(r[i]) for r in body]))
            for i, name in enumerate(header)}


def _channels(cols: dict, prefix: str) -> np.ndarray:
    names = sorted(k for k in cols if k[:len(prefix)] == prefix and k[len(prefix):].isdigit())
    return np.column_stack([cols[k] for k in names])


def simulation_fit(model: dict, u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-channel fit of the model's deterministic run, x0 by least squares."""
    A, C = model["A"], model["C"]
    system = (A, model["B"], C, model["D"], model["ts"])
    _, y_forced, _ = dlsim(system, u, x0=np.zeros(A.shape[0]))
    n = min(X0_SAMPLES, u.shape[0])
    obs, Ak = [], np.eye(A.shape[0])
    for _ in range(n):
        obs.append(C @ Ak)
        Ak = A @ Ak
    x0, *_ = np.linalg.lstsq(np.vstack(obs), (y[:n] - y_forced[:n]).reshape(-1), rcond=None)
    _, y_hat, _ = dlsim(system, u, x0=x0)
    spread = np.linalg.norm(y - y.mean(axis=0), axis=0)
    return 100.0 * (1.0 - np.linalg.norm(y - y_hat, axis=0) / spread)


def check_identify(ident_dir: Path, model_ids, u_ss, y_ss, split_fraction) -> list:
    """Re-simulated validation fit and predictor stability of every model."""
    problems = []
    cols = read_columns(Path(ident_dir) / "dataset.csv")
    u = _channels(cols, "u") - np.asarray(u_ss)
    y = _channels(cols, "y") - np.asarray(y_ss)
    n_train = math.floor(u.shape[0] * split_fraction)
    u_v, y_v = u[n_train:], y[n_train:]
    for mid in model_ids:
        model = read_model(Path(ident_dir) / f"model_{mid}.txt")
        reported = read_report_fit(Path(ident_dir) / f"report_{mid}.txt")
        fit = simulation_fit(model, u_v, y_v)
        if fit.shape != reported.shape or np.max(np.abs(fit - reported)) > FIT_AGREE_PCT:
            problems.append(f"model {mid}: recomputed validation fit {fit} "
                            f"disagrees with reported {reported}")
        if np.min(fit) < MIN_FIT_PCT:
            problems.append(f"model {mid}: validation fit {fit} below {MIN_FIT_PCT}%")
        radius = np.max(np.abs(np.linalg.eigvals(model["A"] - model["K"] @ model["C"])))
        if not radius < 1.0:
            problems.append(f"model {mid}: spectral radius of A - KC is {radius:.6g}")
    return problems


def check_control(run_dir: Path) -> list:
    """IAE recomputed from trajectory.csv must equal summary.json."""
    cols = read_columns(Path(run_dir) / "trajectory.csv")
    summary = json.loads((Path(run_dir) / "summary.json").read_text())
    ts = cols["t"][1] - cols["t"][0]
    iae = np.abs(_channels(cols, "y") - _channels(cols, "r")).sum(axis=0) * ts
    if not np.allclose(iae, summary["iae"], rtol=IAE_RTOL, atol=0.0):
        return [f"IAE from trajectory {iae} != summary {summary['iae']}"]
    return []


def limit_violations(run_dir: Path, u_ss, u_min, u_max, du_max) -> np.ndarray:
    """Instants whose applied input breaks a hard limit by more than LIMIT_TOL:
    |du| > du_max (the du column, or the increments of the u column), or u
    outside [u_min, u_max]."""
    cols = read_columns(Path(run_dir) / "trajectory.csv")
    u = _channels(cols, "u")
    moves = np.diff(u, axis=0, prepend=np.asarray(u_ss, dtype=float)[None, :])
    excess = np.maximum.reduce([
        np.abs(_channels(cols, "du")) - du_max,
        np.abs(moves) - du_max,
        np.asarray(u_min) - u,
        u - np.asarray(u_max),
    ])
    return np.nonzero(np.max(excess, axis=1) > LIMIT_TOL)[0]


def check_kkt(H, f, A, b, u, active) -> list:
    """Primal feasibility, then nonnegative multipliers on the active rows
    (found by NNLS) that make the gradient vanish."""
    problems = []
    scale_b = 1.0 + np.max(np.abs(b), initial=0.0)
    viol = np.max(A @ u - b, initial=-np.inf)
    if viol > KKT_TOL * scale_b:
        problems.append(f"infeasible by {viol:.3g}")
    grad = H @ u + f
    if len(active):
        AS = A[list(active)]
        lam, _ = nnls(AS.T, -grad, maxiter=50 * AS.shape[0] + 100)
        pull = AS.T @ lam
    else:
        lam, pull = np.zeros(0), np.zeros_like(grad)
    if np.any(lam < 0):
        problems.append("negative multiplier")
    resid = np.max(np.abs(grad + pull))
    scale = 1.0 + np.max(np.abs(f)) + np.max(np.abs(pull), initial=0.0)
    if resid > KKT_TOL * scale:
        problems.append(f"stationarity residual {resid:.3g} (scale {scale:.3g}) "
                        f"with {len(active)} active rows")
    return problems


def check_selection(ids, J, selected) -> list:
    """The applied model must be the argmin of the members' horizon costs."""
    J = np.asarray(J, dtype=float)
    expected = ids[int(np.argmin(J))] if np.any(np.isfinite(J)) else None
    if selected != expected:
        return [f"selected {selected!r}, argmin of J {list(J)} is {expected!r}"]
    return []
