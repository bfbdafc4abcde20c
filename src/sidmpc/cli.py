"""Command-line experiment runner.

Subcommands:
  identify      excite the surrogate plant, estimate the model bank
  control       closed-loop run, single-model or multi-model supervision
  compare       paired-run report with overlay series and metric deltas
  prbs-preview  inspect the excitation channels defined by a config

Every run directory is self-describing: it receives a copy of the config
that produced it plus a metadata sidecar.  All numeric output files are
byte-reproducible for the same config, seed, NumPy build and BLAS thread
count; wall-clock timestamps live only in the sidecar.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_experiment_config
from .errors import ConfigError, SidmpcError
from .mpc import MpcController
from .multimodel import ModelBank
from .runner import RunResult, run_closed_loop, run_open_loop, summarize
from .signals import (Dataset, _format, _read_text, _write_columns, prbs_generate,
                      save_csv, split)
from .ssmodel import load_model, save_model
from .subspace import estimate_n4sid


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _write_meta(run_dir: Path, command: str, config_path=None) -> None:
    """Sidecar with the wall-clock time and the environment the output
    bytes depend on: the NumPy build, its BLAS and the BLAS thread settings
    (null when unset)."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):   # NumPy before 1.26 only prints its config
        deps = {}
    blas = deps.get("blas", {})
    meta = {
        "command": command,
        "created": datetime.now(timezone.utc).isoformat(),
        "config": None if config_path is None else str(config_path),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    (run_dir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")


def _write_config_copy(run_dir: Path, exp: ExperimentConfig) -> None:
    (run_dir / "config.ini").write_text(exp.source_text)


def excitation_record(exp: ExperimentConfig) -> np.ndarray:
    """Absolute-units PRBS input record, one column per excitation channel."""
    return exp.plant.u_ss + np.column_stack([prbs_generate(s) for s in exp.excitation])


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def cmd_identify(config_path) -> int:
    exp = load_experiment_config(config_path)
    _require(exp.excitation is not None, "missing required section [excitation]")
    _require(bool(exp.id_configs),
             "[identification] must list at least one model (key 'models')")
    plant = exp.plant
    seed = exp.run.seed if exp.run is not None else 0

    U_abs = excitation_record(exp)
    data = run_open_loop(plant, U_abs, seed=seed)
    dev = data.shifted(plant.u_ss, plant.y_ss)
    train, valid = split(dev, exp.split_fraction)

    print(f"excitation: {data.N} samples at ts={data.ts} s "
          f"({train.N} train / {valid.N} validation)")
    # every model is estimated before any file is written, so a refused
    # model leaves an earlier bank in the directory as it was
    reports = {mid: estimate_n4sid(train, cfg, valid)
               for mid, cfg in exp.id_configs.items()}

    ident_dir = exp.output_dir / "ident"
    ident_dir.mkdir(parents=True, exist_ok=True)
    save_csv(data, ident_dir / "dataset.csv")
    for mid, cfg in exp.id_configs.items():
        report = reports[mid]
        save_model(report.model, ident_dir / f"model_{mid}.txt")
        _write_report(ident_dir / f"report_{mid}.txt", mid, report)
        fit_v = ", ".join(f"{v:.2f}%" for v in report.fit_valid)
        print(f"model {mid}: order {report.chosen_order} "
              f"(f={cfg.f}, p={cfg.p}), validation fit {fit_v}")

    _write_config_copy(ident_dir, exp)
    _write_meta(ident_dir, "identify", config_path)
    return 0


def _write_report(path: Path, mid: str, report) -> None:
    lines = ["sidmpc-report 1", f"model {mid}",
             f"chosen_order {report.chosen_order}",
             "singular_values " + " ".join(_format(v) for v in report.singular_values)]
    cand = report.diagnostics.get("aic_candidates")
    if cand and report.aic_scores is not None:
        lines.append("aic_scores " + " ".join(
            f"{n}:{_format(s)}" for n, s in zip(cand, report.aic_scores)))
    lines.append("fit_train " + " ".join(_format(v) for v in report.fit_train))
    if report.fit_valid is not None:
        lines.append("fit_valid " + " ".join(_format(v) for v in report.fit_valid))
    for key in ("shift_residual", "predictor_radius", "numerical_rank"):
        lines.append(f"{key} {report.diagnostics[key]!r}")
    path.write_text("\n".join(lines) + "\n")


def _load_bank(exp: ExperimentConfig, ids) -> dict:
    ident_dir = exp.output_dir / "ident"
    models = {}
    for mid in ids:
        mp = ident_dir / f"model_{mid}.txt"
        if not mp.exists():
            raise FileNotFoundError(
                f"model file {mp} not found; run identify first or pass --identify"
            )
        models[mid] = load_model(mp)
    return models


def cmd_control(config_path, mode: str, identify: bool = False) -> int:
    _require(mode in ("single", "multi"), f"unknown mode {mode!r}")
    if identify:
        cmd_identify(config_path)
    exp = load_experiment_config(config_path)
    _require(exp.controller is not None, "missing required section [controller]")
    _require(exp.run is not None, "missing required section [run]")
    _require(bool(exp.bank_ids), "no bank models configured "
             "([multimodel] bank or [identification] models)")

    single_id = exp.single_model or exp.bank_ids[0]
    if mode == "single":
        models = _load_bank(exp, [single_id])
        run_controller = MpcController(models[single_id], exp.controller)
    else:
        models = _load_bank(exp, exp.bank_ids)
        run_controller = ModelBank(
            [(mid, MpcController(models[mid], exp.controller)) for mid in exp.bank_ids],
            switch_threshold=exp.switch_threshold)

    result = run_closed_loop(
        exp.plant, run_controller,
        duration=exp.run.duration,
        setpoints=exp.run.setpoints,
        disturbances=exp.run.disturbances,
        seed=exp.run.seed,
        single_model_id=single_id,
    )

    run_dir = exp.output_dir / f"control-{mode}"
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_trajectory(run_dir / "trajectory.csv", result)
    _write_diagnostics(run_dir / "diagnostics.csv", result)
    summary = summarize(result)
    summary["mode"] = mode
    (run_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_config_copy(run_dir, exp)
    _write_meta(run_dir, f"control --mode {mode}", config_path)

    for j, ch in enumerate(summary["channels"]):
        print(f"y{j + 1}: IAE {ch['iae']:.4f}, violations {ch['violations']}")
    print(f"fallback engagements: {summary['fallback_count']}")
    for w in result.warnings:
        print(f"warning: {w}")
    print(f"run written to {run_dir}")
    return 0


def _write_trajectory(path: Path, result: RunResult) -> None:
    _write_run_columns(path, result, ("t", "r", "y", "u", "du", "J", "model_id"))


def _write_diagnostics(path: Path, result: RunResult) -> None:
    _write_run_columns(path, result,
                       ("t", "y", "yhat", "u", "du", "J", "model_id", "fallback"))


def _write_run_columns(path: Path, result: RunResult, fields) -> None:
    """One CSV row per instant of the named RunResult fields; an N x c field
    gives the columns name1..namec."""
    header, columns = [], []
    for name in fields:
        v = getattr(result, name)
        if v.ndim == 2:
            header += [f"{name}{j + 1}" for j in range(v.shape[1])]
            columns += list(v.T)
        else:
            header.append(name)
            columns.append(v)
    _write_columns(path, header, columns)


def _read_trajectory(run_dir: Path):
    tp = run_dir / "trajectory.csv"
    if not run_dir.is_dir():
        raise FileNotFoundError(f"run directory not found: {run_dir}")
    if not tp.exists():
        raise FileNotFoundError(f"{tp} not found; not a completed run directory")
    reader = csv.reader(io.StringIO(_read_text(tp)))
    header = next(reader, [])
    out = {name: [] for name in header}
    for row in reader:
        where = f"{tp} line {reader.line_num}"
        _require(len(row) == len(header),
                 f"{where}: {len(row)} fields, the header has {len(header)}")
        for name, v in zip(header, row):
            if name == "model_id":
                out[name].append(v)
                continue
            try:
                value = float(v)
            except ValueError:
                raise ConfigError(f"{where}: {name} = {v!r} is not a number") from None
            # J is nan on the instants whose input was held
            _require(math.isfinite(value) or (name == "J" and math.isnan(value)),
                     f"{where}: {name} = {v!r} is not finite")
            out[name].append(value)
    out = {name: v if name == "model_id" else np.array(v) for name, v in out.items()}
    sp = run_dir / "summary.json"
    try:
        summary = json.loads(_read_text(sp)) if sp.exists() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{sp} line {exc.lineno}: not valid JSON ({exc.msg})") from None
    _require(isinstance(summary, dict), f"{sp} line 1: not a JSON object")
    return out, summary, header


def cmd_compare(dir_a, dir_b, out=None) -> int:
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    traj_a, sum_a, hdr_a = _read_trajectory(dir_a)
    traj_b, sum_b, hdr_b = _read_trajectory(dir_b)
    if hdr_a != hdr_b:
        raise ConfigError("runs have different trajectory columns; not comparable")
    r_cols = [h for h in hdr_a if h.startswith("r")]
    need = ["t"] + [f"y{c[1:]}" for c in r_cols]
    _require(set(need) <= set(hdr_a), f"{dir_a / 'trajectory.csv'} line 1: lacks one of {need}")
    if traj_a["t"].shape != traj_b["t"].shape \
            or not np.array_equal(traj_a["t"], traj_b["t"]) \
            or any(not np.array_equal(traj_a[c], traj_b[c]) for c in r_cols):
        raise ConfigError(
            "setpoint schedules of the two runs differ; compare runs of the "
            "same experiment only"
        )

    out_dir = Path(out) if out is not None else \
        dir_a.parent / f"compare-{dir_a.name}-vs-{dir_b.name}"
    out_dir.mkdir(parents=True, exist_ok=True)

    p = len(r_cols)
    m = len([h for h in hdr_a if h.startswith("u") and not h.startswith("du")])
    t = traj_a["t"]
    for j in range(1, p + 1):
        _write_columns(out_dir / f"overlay_y{j}.csv",
                       ["t", f"r{j}", f"y{j}_a", f"y{j}_b"],
                       [t, traj_a[f"r{j}"], traj_a[f"y{j}"], traj_b[f"y{j}"]])
    for j in range(1, m + 1):
        _write_columns(out_dir / f"overlay_u{j}.csv",
                       ["t", f"u{j}_a", f"u{j}_b"],
                       [t, traj_a[f"u{j}"], traj_b[f"u{j}"]])

    deltas = _metric_deltas(sum_a, sum_b, p)
    report = {
        "run_a": str(dir_a),
        "run_b": str(dir_b),
        "channels": deltas,
    }
    if "post_disturbance_iae" in sum_a and "post_disturbance_iae" in sum_b:
        post = []
        for j in range(p):
            a = sum_a["post_disturbance_iae"][j]
            b = sum_b["post_disturbance_iae"][j]
            post.append({"delta": b - a, "winner": _winner(a, b)})
        report["post_disturbance_iae"] = post
    (out_dir / "comparison.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    _write_comparison_text(out_dir / "comparison.txt", report)

    for j, ch in enumerate(deltas):
        print(f"y{j + 1}: delta IAE {ch['iae']['delta']:+.6g} "
              f"(winner: {ch['iae']['winner']})")
    print(f"comparison written to {out_dir}")
    return 0


def _winner(a, b) -> str:
    if a is None or b is None:
        return "n/a"
    if a == b:
        return "tie"
    return "a" if a < b else "b"


def _metric_deltas(sum_a, sum_b, p) -> list:
    out = []
    for j in range(p):
        cha = (sum_a.get("channels") or [{}] * p)[j]
        chb = (sum_b.get("channels") or [{}] * p)[j]
        entry = {}
        for key in ("iae", "settling_time", "overshoot_pct"):
            a, b = cha.get(key), chb.get(key)
            entry[key] = {
                "a": a,
                "b": b,
                "delta": None if (a is None or b is None) else b - a,
                "winner": _winner(a, b),
            }
        out.append(entry)
    return out


def _write_comparison_text(path: Path, report: dict) -> None:
    lines = [f"run a: {report['run_a']}", f"run b: {report['run_b']}", ""]
    lines.append(f"{'channel':<9}{'metric':<16}{'a':>14}{'b':>14}"
                 f"{'delta':>14}  winner")
    for j, ch in enumerate(report["channels"]):
        for key, entry in ch.items():
            fmt = lambda v: "n/a" if v is None else f"{v:.6g}"
            lines.append(
                f"y{j + 1:<8}{key:<16}{fmt(entry['a']):>14}{fmt(entry['b']):>14}"
                f"{fmt(entry['delta']):>14}  {entry['winner']}"
            )
    if "post_disturbance_iae" in report:
        lines.append("")
        for j, entry in enumerate(report["post_disturbance_iae"]):
            lines.append(
                f"y{j + 1} post-disturbance IAE delta "
                f"{entry['delta']:+.6g} (winner: {entry['winner']})"
            )
    path.write_text("\n".join(lines) + "\n")


def cmd_prbs_preview(config_path, out=None) -> int:
    exp = load_experiment_config(config_path)
    _require(exp.excitation is not None, "missing required section [excitation]")
    exc = exp.excitation[0]
    period = (1 << exc.register_length) - 1
    U = excitation_record(exp)
    dev = U - exp.plant.u_ss
    print(f"register length {exc.register_length}, bit period {period}, "
          f"clock period {exc.clock_period}")
    for j in range(dev.shape[1]):
        col = dev[:, j]
        values = np.unique(col)
        switches = int(np.sum(col[1:] != col[:-1]))
        hi = int(np.sum(col == values.max()))
        lo = int(np.sum(col == values.min()))
        print(f"channel {j + 1}: levels {values.min():+g}/{values.max():+g}, "
              f"{hi} high / {lo} low samples, {switches} switches")
    if out is not None:
        d = Dataset(U, np.zeros((U.shape[0], 1)), exp.plant.ts)
        save_csv(d, out)
        print(f"preview written to {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sidmpc",
        description="subspace identification and multi-model MPC experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identify", help="excite the plant and fit the model bank")
    p_id.add_argument("config")

    p_ct = sub.add_parser("control", help="closed-loop MPC run")
    p_ct.add_argument("config")
    p_ct.add_argument("--mode", choices=("single", "multi"), default="single")
    p_ct.add_argument("--identify", action="store_true",
                      help="run identification first")

    p_cp = sub.add_parser("compare", help="compare two completed runs")
    p_cp.add_argument("dir_a")
    p_cp.add_argument("dir_b")
    p_cp.add_argument("--out", default=None)

    p_pv = sub.add_parser("prbs-preview", help="inspect the excitation channels")
    p_pv.add_argument("config")
    p_pv.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "identify":
            return cmd_identify(args.config)
        if args.command == "control":
            return cmd_control(args.config, args.mode, args.identify)
        if args.command == "compare":
            return cmd_compare(args.dir_a, args.dir_b, args.out)
        if args.command == "prbs-preview":
            return cmd_prbs_preview(args.config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except SidmpcError as exc:
        # every package error but ConfigError is a NumericalError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
