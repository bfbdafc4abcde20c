"""Spans around calls into each sidmpc layer, recorded from outside the package.

Tracer.installed() replaces the listed functions and methods, wherever a
sidmpc module holds a reference to them, with wrappers that record a span
(name, start, end, parent) and restores the originals on exit.  Spans stay in
memory until the caller writes them out.  While estimate_n4sid runs,
numpy.linalg.svd and numpy.linalg.lstsq are wrapped too, so the counts cover
exactly the subspace layer's factorizations.

layer_metrics() turns the spans of one traced pass into the per-layer
metrics; a layer's self time is its span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time

import numpy as np

from stats import TailTooThin, percentile

# (module, attribute path, span name); an attribute path with a dot is a method
TRACED = [
    ("config", "load_experiment_config", "config.load"),
    ("cli", "cmd_identify", "cli.identify"),
    ("cli", "cmd_control", "cli.control"),
    ("cli", "excitation_record", "cli.excitation_record"),
    ("cli", "_load_bank", "cli.load_bank"),
    ("cli", "_write_report", "cli.write_report"),
    ("cli", "_write_trajectory", "cli.write_trajectory"),
    ("cli", "_write_diagnostics", "cli.write_diagnostics"),
    ("cli", "_write_config_copy", "cli.write_config_copy"),
    ("cli", "_write_meta", "cli.write_meta"),
    ("signals", "prbs_generate", "signals.prbs_generate"),
    ("signals", "save_csv", "signals.save_csv"),
    ("signals", "split", "signals.split"),
    ("plant", "make_state", "plant.make_state"),
    ("plant", "plant_step", "plant.step"),
    ("plant", "plant_output", "plant.output"),
    ("runner", "run_open_loop", "runner.run_open_loop"),
    ("runner", "run_closed_loop", "runner.run_closed_loop"),
    ("runner", "summarize", "runner.summarize"),
    ("subspace", "estimate_n4sid", "subspace.estimate_n4sid"),
    ("subspace", "project_hfp", "subspace.project_hfp"),
    ("subspace", "_recover_order", "subspace.recover_order"),
    ("subspace", "_residual_covariance", "subspace.residual_covariance"),
    ("ssmodel", "simulate", "ssmodel.simulate"),
    ("ssmodel", "estimate_initial_state", "ssmodel.estimate_initial_state"),
    ("ssmodel", "kalman_step", "ssmodel.kalman_step"),
    ("ssmodel", "save_model", "ssmodel.save_model"),
    ("ssmodel", "load_model", "ssmodel.load_model"),
    ("qp", "QpProblem.__post_init__", "qp.QpProblem"),
    ("qp", "solve_qp", "qp.solve_qp"),
    ("mpc", "MpcController.__init__", "mpc.build"),
    ("mpc", "MpcController.control_step", "mpc.control_step"),
    ("mpc", "MpcController._step_core", "mpc.step_core"),
    ("mpc", "MpcController.assemble_qp", "mpc.assemble_qp"),
    ("mpc", "MpcController._solve_soft", "mpc.solve_soft"),
    ("multimodel", "mm_control_step", "multimodel.mm_control_step"),
]
LINALG = ("svd", "lstsq")


class Tracer:
    """Spans and the call records the traced-run checks need."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.notes = {}          # span index -> simulated samples
        self.solves = []         # (span index, H, f, A, b, u, active)
        self.selections = []     # (bank ids, J, selected id)
        self._stack = []

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, out)
            return out

        return traced

    def _after_solve(self, idx, args, out):
        qp = args[0]
        u, active, _ = out
        self.solves.append((idx, qp.H, qp.f.copy(), qp.A_ineq, qp.b_ineq.copy(),
                            u.copy(), list(active)))

    def _after_select(self, idx, args, out):
        bank = args[0]
        self.selections.append(([mid for mid, _ in bank.entries], out[2].copy(), out[1]))

    def _after_simulate(self, idx, args, out):
        self.notes[idx] = out.shape[0]

    def _estimate_with_linalg(self, fn):
        linalg = np.linalg

        def estimate(*args, **kwargs):
            saved = {name: getattr(linalg, name) for name in LINALG}
            for name, orig in saved.items():
                setattr(linalg, name, self.wrap(f"linalg.{name}", orig))
            try:
                return fn(*args, **kwargs)
            finally:
                for name, orig in saved.items():
                    setattr(linalg, name, orig)

        return estimate

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TRACED callable for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "sidmpc" or n.startswith("sidmpc.")]
        restore = []
        after = {"qp.solve_qp": self._after_solve,
                 "multimodel.mm_control_step": self._after_select,
                 "ssmodel.simulate": self._after_simulate}
        try:
            for mod_name, path, name in TRACED:
                owner = importlib.import_module(f"sidmpc.{mod_name}")
                *cls, attr = path.split(".")
                if cls:
                    owner = getattr(owner, cls[0])
                orig = getattr(owner, attr)
                # a module function is replaced wherever a sidmpc module holds it
                places = [(owner, attr)] if cls else [
                    (m, k) for m in modules for k, v in list(vars(m).items()) if v is orig]
                fn = self._estimate_with_linalg(orig) if name == "subspace.estimate_n4sid" \
                    else orig
                wrapped = self.wrap(name, fn, after.get(name))
                for obj, key in places:
                    restore.append((obj, key, getattr(obj, key)))
                    setattr(obj, key, wrapped)
            yield self
        finally:
            for obj, key, orig in reversed(restore):
                setattr(obj, key, orig)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


def _pct_ms(values, q) -> float:
    """Percentile in ms, or 0.0 when the class has too few samples to name it."""
    try:
        return percentile(values, q) * 1e3
    except TailTooThin:
        return 0.0


def layer_metrics(tracer: Tracer, fallbacks: int) -> dict:
    """Per-layer metrics of one traced pass; times are totals per pass unless
    the name says per call (us) or a percentile."""
    spans = tracer.spans
    names = np.array([s[0] for s in spans])
    dur = np.array([s[2] - s[1] for s in spans])
    parent = np.array([s[3] for s in spans])
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(spans))
    self_time = dur - covered

    def pick(name):
        return names == name

    def total(name):
        return float(dur[pick(name)].sum())

    def count(name):
        return int(pick(name).sum())

    def mean_us(values):
        return float(np.mean(values)) * 1e6 if len(values) else 0.0

    # the write phase of a control command: everything after the closed loop
    # returns except summarize()
    write_s = 0.0
    for i in np.nonzero(pick("cli.control"))[0]:
        kids = np.nonzero(parent == i)[0]
        loop = kids[names[kids] == "runner.run_closed_loop"]
        summ = kids[names[kids] == "runner.summarize"]
        write_s += spans[i][2] - spans[loop[-1]][2] - dur[summ].sum()

    solve_ms = {True: [], False: []}
    for idx, *_rest, active in tracer.solves:
        solve_ms[bool(active)].append(dur[idx])

    switches = 0
    prev = None
    for ids, _, sel in tracer.selections:
        if prev is not None and sel != prev:
            switches += 1
        prev = sel

    sim = pick("ssmodel.simulate")
    return {
        "config.load_ms": total("config.load") / max(count("config.load"), 1) * 1e3,
        "cli.write_s": float(write_s),
        "signals.prbs_ms": total("signals.prbs_generate") * 1e3,
        "signals.save_csv_ms": total("signals.save_csv") * 1e3,
        "plant.step_calls": count("plant.step"),
        "plant.step_us": mean_us(self_time[pick("plant.step")]),
        "plant.open_loop_s": total("runner.run_open_loop"),
        "subspace.estimate_s": total("subspace.estimate_n4sid"),
        "subspace.project_s": total("subspace.project_hfp"),
        "subspace.svd_calls": count("linalg.svd"),
        "subspace.svd_s": total("linalg.svd"),
        "subspace.lstsq_calls": count("linalg.lstsq"),
        "subspace.lstsq_s": total("linalg.lstsq"),
        "subspace.residual_cov_s": total("subspace.residual_covariance"),
        "ssmodel.simulate_calls": int(sim.sum()),
        "ssmodel.simulate_samples": int(sum(tracer.notes.values())),
        "ssmodel.simulate_s": total("ssmodel.simulate"),
        "ssmodel.kalman_us": mean_us(dur[pick("ssmodel.kalman_step")]),
        "ssmodel.save_model_ms": total("ssmodel.save_model") * 1e3,
        "ssmodel.load_model_ms": total("ssmodel.load_model") * 1e3,
        "qp.solves": len(tracer.solves),
        "qp.constrained_solves": len(solve_ms[True]),
        "qp.constrained_ms_p50": _pct_ms(solve_ms[True], 50),
        "qp.constrained_ms_p90": _pct_ms(solve_ms[True], 90),
        "qp.unconstrained_ms_p50": _pct_ms(solve_ms[False], 50),
        "qp.solve_s": total("qp.solve_qp"),
        "qp.problems_built": count("qp.QpProblem"),
        "mpc.build_ms": total("mpc.build") * 1e3,
        "mpc.assemble_us": mean_us(dur[pick("mpc.assemble_qp")]),
        "mpc.step_self_us": mean_us(self_time[pick("mpc.step_core")]),
        "mpc.fallbacks": int(fallbacks),
        "multimodel.step_self_us": mean_us(self_time[pick("multimodel.mm_control_step")]),
        "multimodel.switches": switches,
        "runner.loop_self_s": float(self_time[pick("runner.run_closed_loop")].sum()),
        "runner.summarize_ms": total("runner.summarize") * 1e3,
    }
