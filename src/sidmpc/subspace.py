"""Subspace identification of innovation-form models from input/output data.

Pipeline: stack past inputs/outputs Z_p, future inputs U_f and future
outputs Y_f into one block Hankel array W = [Z_p; U_f; Y_f] and factor it
once as W = L Q^T (a QR of W^T; Q is never formed).  `project_hfp`, run on
the leading columns of L, regresses Y_f jointly on [Z_p; U_f], checks that
the two row spaces do not overlap and keeps the past-coefficient block H_fp.
As H_fp Z_p = H_fp L_11 Q_1^T, the small H_fp L_11 has the singular values S
and left singular vectors U of H_fp Z_p.  Truncated to order n,
U_n S_n^{1/2} is the extended observability factor and
X_n = S_n^{-1/2} U_n^T H_fp Z_p the state sequence; the system matrices are
read off them:

  * C is the top block of the observability factor.
  * D comes from regressing y_k on (x_k, u_k).
  * One joint regression of x_{k+1} on (x_k, u_k, y_k) yields the predictor
    matrices (A - K C, B - K D, K); adding back the K terms gives A and B.

AIC on the one-step prediction residuals picks the order from a range, and
a model whose predictor A - K C is not stable is refused.  The separate
shift-invariance estimate on the observability factor serves as a
consistency diagnostic: its least-squares residual must vanish on
noise-free data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, NumericalError
from .signals import Dataset
from .ssmodel import (
    StateSpaceModel,
    _linear_run,
    estimate_initial_state,
    fit_percent,
    predictor_form,
    predictor_radius,
    simulate,
)

# Singular values below max * RANK_TOL count as zero when measuring ranks.
RANK_TOL = 1e-12


@dataclass
class N4sidConfig:
    """Horizons and order policy for one estimation run.

    Exactly one of `order` (fixed) and `order_range` (AIC selection over
    n_min..n_max inclusive) must be given.
    """

    f: int
    p: int
    order: Optional[int] = None
    order_range: Optional[tuple[int, int]] = None

    def __post_init__(self):
        if self.f < 1 or self.p < 1:
            raise ConfigError(f"horizons must be >= 1, got f={self.f} p={self.p}")
        if (self.order is None) == (self.order_range is None):
            raise ConfigError("give exactly one of order and order_range")
        if self.order is not None and self.order < 1:
            raise ConfigError(f"order must be >= 1, got {self.order}")
        if self.order_range is not None:
            lo, hi = self.order_range
            if not 1 <= lo <= hi:
                raise ConfigError(f"bad order_range {self.order_range}")
            self.order_range = (int(lo), int(hi))

    @property
    def n_max(self) -> int:
        return self.order if self.order is not None else self.order_range[1]

    def candidates(self) -> list[int]:
        if self.order is not None:
            return [self.order]
        lo, hi = self.order_range
        return list(range(lo, hi + 1))


@dataclass
class IdentificationReport:
    model: StateSpaceModel
    singular_values: np.ndarray
    chosen_order: int
    aic_scores: Optional[np.ndarray] = None
    fit_train: Optional[np.ndarray] = None
    fit_valid: Optional[np.ndarray] = None
    diagnostics: dict = field(default_factory=dict)


def block_hankel(data, start_row: int, block_rows: int, cols: int) -> np.ndarray:
    """Stack shifted windows of a multichannel record.

    data is N x c.  The result has block_rows blocks of c rows each; block
    (i, j) holds data row start_row + i + j, so each column j is the
    contiguous slice starting at row start_row + j.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    N, c = data.shape
    if start_row < 0 or block_rows < 1 or cols < 1:
        raise ConfigError(
            f"bad Hankel shape: start_row={start_row} block_rows={block_rows} cols={cols}"
        )
    need = start_row + block_rows + cols - 1
    if need > N:
        raise ConfigError(
            f"insufficient samples for Hankel block: need {need} rows, have {N}"
        )
    H = np.empty((block_rows * c, cols))
    for i in range(block_rows):
        H[i * c : (i + 1) * c, :] = data[start_row + i : start_row + i + cols].T
    return H


def _numerical_rank(s: np.ndarray) -> int:
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > s[0] * RANK_TOL))


def _lq(W: np.ndarray) -> np.ndarray:
    """Lower-triangular L of W = L Q^T, from the R of a QR of W^T."""
    return np.linalg.qr(W.T, mode="r").T


def project_hfp(Y_f, Z_p, U_f):
    """Past-block coefficient of the joint regression of Y_f on [Z_p; U_f].

    Equivalent to projecting out the future inputs and regressing on the
    past, but computed in one least-squares solve for conditioning.  The
    result depends only on the rows' inner products, so data with more
    columns than rows is first replaced by L in [Z_p; U_f; Y_f] = L Q^T.
    The past rows and the future-input rows must span independent
    directions; otherwise the future-input contribution cannot be separated
    and the excitation must be improved.
    """
    Y_f, Z_p, U_f = (np.asarray(a, dtype=float) for a in (Y_f, Z_p, U_f))
    if not (Y_f.shape[1] == Z_p.shape[1] == U_f.shape[1]):
        raise ConfigError(
            f"column counts differ: Y_f {Y_f.shape[1]}, Z_p {Z_p.shape[1]}, "
            f"U_f {U_f.shape[1]}"
        )
    kz, kr = Z_p.shape[0], Z_p.shape[0] + U_f.shape[0]
    W = np.vstack([Z_p, U_f, Y_f])
    if W.shape[1] > W.shape[0]:
        W = _lq(W)
    ranks = [_numerical_rank(np.linalg.svd(B, compute_uv=False))
             for B in (W[:kr], W[:kz], W[kz:kr])]
    if ranks[0] < ranks[1] + ranks[2]:
        raise NumericalError(
            "past and future-input row spaces overlap; the regression cannot "
            "separate them. Use richer excitation (longer record, or distinct "
            "phase offsets between input channels)."
        )
    coef, *_ = np.linalg.lstsq(W[:kr].T, W[kr:].T, rcond=None)
    return coef.T[:, :kz]


def aic_scores(residual_covariances, n_params, N: int):
    """AIC(n) = N log det(Sigma_e(n)) + 2 k(n) for each candidate order.

    Inputs are mappings keyed by order.  Orders whose residual covariance
    is singular (nonpositive determinant) are skipped; the skip list is
    returned alongside the scores.
    """
    scores: dict[int, float] = {}
    skipped: list[int] = []
    for order, cov in residual_covariances.items():
        cov = np.asarray(cov, dtype=float)
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0 or not np.isfinite(logdet):
            skipped.append(order)
            continue
        scores[order] = N * logdet + 2.0 * n_params[order]
    return scores, skipped


def aic_order_select(scores, skipped=()) -> int:
    """Order with the smallest AIC; ties break toward the smaller order.

    Takes the scores and skip list that aic_scores returns.
    """
    if not scores:
        raise NumericalError(
            f"all candidate orders had singular residual covariance: {list(skipped)}"
        )
    return min(scores, key=lambda n: (scores[n], n))


def _recover_order(n, U_, S, P, u, y, p_past):
    """System matrices for one truncation order from the SVD U_ S V^T of
    H_fp Z_p and the leading rows of P = U_^T H_fp Z_p = S V^T."""
    m = u.shape[1]
    py = y.shape[1]
    n_cols = P.shape[1]
    sq = np.sqrt(S[:n])
    Gam = U_[:, :n] * sq                # extended observability estimate
    X = P[:n] / sq[:, None]             # state sequence, n x n_cols
    C_hat = Gam[:py].copy()

    U_cur = u[p_past : p_past + n_cols].T
    Y_cur = y[p_past : p_past + n_cols].T

    reg_out = np.vstack([X, U_cur])
    CD, *_ = np.linalg.lstsq(reg_out.T, Y_cur.T, rcond=None)
    D_hat = CD.T[:, n:]

    reg_st = np.vstack([X[:, :-1], U_cur[:, :-1], Y_cur[:, :-1]])
    TH, *_ = np.linalg.lstsq(reg_st.T, X[:, 1:].T, rcond=None)
    A_K, B_1, K_hat = np.split(TH.T, [n, n + m], axis=1)

    A_hat = A_K + K_hat @ C_hat
    B_hat = B_1 + K_hat @ D_hat

    # diagnostic: the observability factor must be shift-invariant
    shift, *_ = np.linalg.lstsq(Gam[:-py], Gam[py:], rcond=None)
    denom = np.linalg.norm(Gam)
    shift_res = np.linalg.norm(Gam[:-py] @ shift - Gam[py:]) / denom if denom else 0.0
    return A_hat, B_hat, C_hat, D_hat, K_hat, float(shift_res)


def _residual_covariance(model: StateSpaceModel, d: Dataset, burn_in: int):
    """One-step prediction residual covariance of the model over a record;
    the residuals y - C x - D u are the outputs of the predictor on [u; y]."""
    A_K, B_K = predictor_form(model)
    E = _linear_run(A_K, B_K, -model.C, np.hstack([-model.D, np.eye(model.p)]),
                    np.hstack([d.u, d.y]))[burn_in:]
    return (E.T @ E) / max(1, E.shape[0])


def estimate_n4sid(
    d: Dataset, cfg: N4sidConfig, valid: Optional[Dataset] = None
) -> IdentificationReport:
    """Estimate a state-space model from a dataset.

    The record must already be expressed as deviations around the operating
    point (zero-mean in the ideal case); no centering is applied here.
    When `valid` is given, the report carries the deterministic-simulation
    fit on that record as well.  A chosen model whose predictor A - K C is
    not stable raises NumericalError.
    """
    f, p_past = cfg.f, cfg.p
    n_max = cfg.n_max
    if f < n_max + 1 or p_past < n_max + 1:
        raise ConfigError(
            f"horizons too short for order {n_max}: need f, p >= {n_max + 1}, "
            f"got f={f} p={p_past}"
        )
    m, py = d.m, d.p
    n_cols = d.N - f - p_past + 1
    min_cols = 10 * (m + py) * p_past
    if n_cols < min_cols:
        raise ConfigError(
            f"dataset too short: {n_cols} Hankel columns available, "
            f"need at least {min_cols} for f={f}, p={p_past}"
        )

    z = np.hstack([d.u, d.y])
    kz = (m + py) * p_past
    kr = kz + m * f
    # one array W = [Z_p; U_f; Y_f]; past block rows are ordered
    # z_{k-1}, z_{k-2}, ..., z_{k-p}
    W = np.vstack(
        [block_hankel(z, p_past - 1 - j, 1, n_cols) for j in range(p_past)]
        + [block_hankel(d.u, p_past, f, n_cols), block_hankel(d.y, p_past, f, n_cols)]
    )
    Z_p = W[:kz]
    L = _lq(W)

    H_fp = project_hfp(L[kr:, :kr], L[:kz, :kr], L[kz:kr, :kr])
    U_, S, _ = np.linalg.svd(H_fp @ L[:kz, :kz], full_matrices=False)
    rank = _numerical_rank(S)

    candidates = [n for n in cfg.candidates() if n <= rank]
    if not candidates:
        raise NumericalError(
            f"requested order(s) {cfg.candidates()} exceed the numerical rank "
            f"{rank} of the projected data"
        )
    P = (U_[:, : candidates[-1]].T @ H_fp) @ Z_p

    by_aic = len(candidates) > 1
    covs: dict[int, np.ndarray] = {}
    kparams: dict[int, int] = {}
    models: dict[int, StateSpaceModel] = {}
    shift_res: dict[int, float] = {}
    for n in candidates:
        *mats, shift_res[n] = _recover_order(n, U_, S, P, d.u, d.y, p_past)
        # an unstable chosen model is refused below; rejected ones stay silent
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            models[n] = StateSpaceModel(*mats, d.ts)
        if by_aic:
            covs[n] = _residual_covariance(models[n], d, burn_in=p_past)
            kparams[n] = n * (m + py) + n * py + py * m

    chosen, scores_vec = candidates[0], None
    if by_aic:
        scores, skipped = aic_scores(covs, kparams, d.N)
        chosen = aic_order_select(scores, skipped)
        scores_vec = np.array([scores.get(nn, np.nan) for nn in candidates])

    model = models[chosen]
    radius = predictor_radius(model)
    if radius >= 1.0:
        raise NumericalError(
            f"the order-{chosen} model has an unstable predictor: A - K C has "
            f"spectral radius {radius:.6g} >= 1"
        )

    fit_train = _simulation_fit(model, d)
    fit_valid = _simulation_fit(model, valid) if valid is not None else None

    return IdentificationReport(
        model=model,
        singular_values=S,
        chosen_order=int(chosen),
        aic_scores=scores_vec,
        fit_train=fit_train,
        fit_valid=fit_valid,
        diagnostics={
            "shift_residual": shift_res[chosen],
            "predictor_radius": radius,
            "numerical_rank": rank,
            "aic_candidates": candidates if by_aic else None,
        },
    )


def _simulation_fit(model: StateSpaceModel, d: Dataset) -> np.ndarray:
    x0 = estimate_initial_state(model, d)
    y_hat = simulate(model, d.u, x0)
    return fit_percent(d.y, y_hat)
