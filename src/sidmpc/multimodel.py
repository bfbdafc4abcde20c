"""Bank of MPC controllers with per-instant objective-based selection.

Every controller in the bank filters the same measurements and solves its
own QP each instant.  The controller whose optimal horizon cost is lowest
supplies the applied move; all controllers then adopt that move as their
last applied input so next instant's costs stay comparable.  Each
estimator keeps its own Kalman state: independently identified members
share no state basis, so no state passes between them.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .errors import ConfigError
from .mpc import MpcConfig, MpcController


class ModelBank:
    """Ordered collection of (model_id, MpcController) sharing one loop."""

    def __init__(self, entries, switch_threshold: float = 0.0):
        entries = list(entries)
        if not entries:
            raise ConfigError("model bank needs at least one entry")
        if not 0.0 <= switch_threshold < 1.0:
            raise ConfigError(
                f"switch_threshold must lie in [0, 1), got {switch_threshold}"
            )
        ids = [e[0] for e in entries]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate model ids in bank: {ids}")
        for mid, ctrl in entries:
            if not isinstance(ctrl, MpcController):
                raise ConfigError(f"bank entry {mid} is not an MpcController")
        ref = entries[0][1]
        for mid, ctrl in entries[1:]:
            md, mr = ctrl.model, ref.model
            if (md.m, md.p) != (mr.m, mr.p) or abs(md.ts - mr.ts) > 1e-12 * mr.ts:
                raise ConfigError(
                    f"bank entry {mid} disagrees on channel counts or ts"
                )
            if not _same_loop_config(ctrl.cfg, ref.cfg):
                raise ConfigError(
                    f"bank entry {mid} has different horizons, weights, or "
                    "constraints than the first entry"
                )
        self.entries = entries
        self.switch_threshold = float(switch_threshold)
        self.last_diagnostics: list = []
        # bank index of the member whose move (or hold) was last applied;
        # its diagnostics are last_diagnostics[incumbent]
        self.incumbent: "int | None" = None


def _same_loop_config(a: MpcConfig, b: MpcConfig) -> bool:
    # every field, so one added to MpcConfig is compared too; an absent bound
    # (None) equals only another absent one
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in fields(a))


def mm_control_step(bank: ModelBank, y_k, ref_trajectory):
    """One supervisory instant: all controllers propose, the cheapest wins.

    Returns (u_k, selected model_id, J_values in bank order).  A controller
    that held its input enters J as inf, so it never wins over one that
    solved; if every one held, the previous input stays and the id is None.
    """
    proposals, diags = zip(*(ctrl._step_core(y_k, ref_trajectory)
                             for _, ctrl in bank.entries))
    J = np.array([np.inf if d["fallback_failed"] else d["J"] for d in diags])
    sel = int(np.argmin(J))  # exact ties resolve to the lowest bank index
    inc = bank.incumbent
    if (bank.switch_threshold > 0.0 and inc is not None and sel != inc
            and not J[sel] < J[inc] * (1.0 - bank.switch_threshold)):
        # optional hysteresis: the incumbent keeps the loop unless the
        # challenger is better by the configured relative margin
        sel = inc
    u_k = proposals[sel]
    for _, ctrl in bank.entries:
        ctrl.u_prev = u_k.copy()
    bank.incumbent = sel
    bank.last_diagnostics = list(diags)
    return u_k, bank.entries[sel][0] if np.isfinite(J[sel]) else None, J
