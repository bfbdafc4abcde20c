"""Benchmark of the sidmpc experiment chain.

    python3 benchmarks/run.py --workload identify|track|reject --seed N \
        --seconds S --trace 0|1

Writes INI configs (workloads.py) and runs the program's own CLI commands
on them in this process, one after another: `identify`,
`control --mode single`, `control --mode multi`.  Every command's outputs are
checked (checks.py).  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  An operation is a CLI command
or a closed-loop instant; an instant fails when its soft fallback fails or
when its applied input breaks a hard input or move limit by more than 1e-9.

--trace 0 measures the end-to-end metrics with tracing off.  Set-up is timed
in fresh child processes (setup_probe.py), since a process starts only once.
--trace 1 alternates untraced and traced passes of the whole chain (identify,
control single, control multi) and reports the per-layer metrics of the
traced passes (tracing.py) plus the tracing overhead.  Run outputs go to
benchmarks/out/<workload>-trace<n>/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from workloads import DU_MAX, SPLIT_FRACTION, U_MAX, U_MIN, U_SS, WORKLOADS, Y_SS

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

SETUP_PROBES = 3
IDENTIFY_REPEATS = 3      # track and reject: set-up identifies timed for identify_s
HOLD_ROUNDS = 5           # identify: hold-loop control pairs after the identify loop
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120
MIN_INSTANTS = 1000
MODES = ("single", "multi")
BANK = ("default", "asym")

END_TO_END = {
    "setup_s": "s",
    "identify_s": "s",
    "fit_pct": "%",
    "single.control_s": "s",
    "multi.control_s": "s",
    "single.step_ms_p50": "ms",
    "single.step_ms_p99": "ms",
    "multi.step_ms_p50": "ms",
    "multi.step_ms_p99": "ms",
    "single.iae": "y.s",
    "multi.iae": "y.s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "config.load_ms": "ms",
    "cli.import_s": "s",
    "cli.write_s": "s",
    "signals.prbs_ms": "ms",
    "signals.save_csv_ms": "ms",
    "plant.step_calls": "count",
    "plant.step_us": "us",
    "plant.open_loop_s": "s",
    "subspace.estimate_s": "s",
    "subspace.project_s": "s",
    "subspace.svd_calls": "count",
    "subspace.svd_s": "s",
    "subspace.lstsq_calls": "count",
    "subspace.lstsq_s": "s",
    "subspace.residual_cov_s": "s",
    "ssmodel.simulate_calls": "count",
    "ssmodel.simulate_samples": "count",
    "ssmodel.simulate_s": "s",
    "ssmodel.kalman_us": "us",
    "ssmodel.save_model_ms": "ms",
    "ssmodel.load_model_ms": "ms",
    "qp.solves": "count",
    "qp.constrained_solves": "count",
    "qp.constrained_ms_p50": "ms",
    "qp.constrained_ms_p90": "ms",
    "qp.unconstrained_ms_p50": "ms",
    "qp.solve_s": "s",
    "qp.problems_built": "count",
    "mpc.build_ms": "ms",
    "mpc.assemble_us": "us",
    "mpc.step_self_us": "us",
    "mpc.fallbacks": "count",
    "multimodel.step_self_us": "us",
    "multimodel.switches": "count",
    "runner.loop_self_s": "s",
    "runner.summarize_ms": "ms",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _child(cmd) -> str:
    """Run a child process to completion and return its stdout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:3]} exited with code {proc.returncode}")
    return out


def setup_probes(workload, seed, run_dir) -> list:
    """Set-up seconds of SETUP_PROBES fresh processes."""
    return [float(_child([sys.executable, str(BENCH / "setup_probe.py"), workload,
                          str(seed), str(run_dir / f"probe{i}"),
                          repr(time.monotonic())]).split()[-1])
            for i in range(SETUP_PROBES)]


def import_probes() -> list:
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import sidmpc.cli; "
            "print(repr(time.perf_counter() - t))")
    return [float(_child([sys.executable, "-c", code, str(SRC)]).split()[-1])
            for _ in range(IMPORT_PROBES)]


class StepTimer:
    """Wall time around each MpcController.control_step (single mode) and
    mm_control_step (the whole bank) call, and nothing else."""

    def __init__(self):
        self.samples = []

    @contextlib.contextmanager
    def installed(self):
        from sidmpc import mpc, runner
        samples, clock = self.samples, time.perf_counter
        step, bank_step = mpc.MpcController.control_step, runner.mm_control_step

        def timed(fn):
            def call(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                samples.append(clock() - t0)
                return out
            return call

        mpc.MpcController.control_step = timed(step)
        runner.mm_control_step = timed(bank_step)
        try:
            yield self
        finally:
            mpc.MpcController.control_step = step
            runner.mm_control_step = bank_step


class Bench:
    """CLI commands of one benchmark run, their outputs checked as they finish."""

    def __init__(self, workload, seed, run_dir):
        from setup_probe import prepare
        self.ident_cfg, self.cfg = prepare(workload, seed, run_dir)
        # on track and reject identify is set-up, not one of the operations
        self.count_identify = workload == "identify"
        self.out = run_dir / "out"
        self.log = open(run_dir / "console.log", "w")
        self.timer = StepTimer()
        self.attempted = 0
        self.failed = 0
        self.fallbacks = 0
        self.problems = []
        self.fit_pct = None
        self.steps = {m: [] for m in MODES}
        self.control_s = {m: [] for m in MODES}
        self.iae = {}
        self.broken = {m: 0 for m in MODES}

    def _cli(self, argv, cfg):
        from setup_probe import run_quiet
        t0 = time.perf_counter()
        rc = run_quiet(argv + [str(cfg)], self.log)
        return rc, time.perf_counter() - t0

    def identify(self):
        """Seconds taken by one identify command, or None if it failed."""
        import checks
        rc, dt = self._cli(["identify"], self.ident_cfg)
        if not self.count_identify and rc != 0:
            raise RuntimeError(f"set-up identify exited with code {rc}")
        self.attempted += self.count_identify
        if rc != 0:
            self.failed += 1
            return None
        ident = self.out / "ident"
        self.problems += checks.check_identify(ident, BANK, U_SS, Y_SS, SPLIT_FRACTION)
        self.fit_pct = min(float(min(checks.read_report_fit(ident / f"report_{mid}.txt")))
                           for mid in BANK)
        return dt

    def control(self, mode):
        """Seconds taken by one control command, or None if it failed."""
        import checks
        n0 = len(self.timer.samples)
        rc, dt = self._cli(["control", "--mode", mode], self.cfg)
        steps = self.timer.samples[n0:]
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            return None
        run_dir = self.out / f"control-{mode}"
        summary = json.loads((run_dir / "summary.json").read_text())
        self.attempted += summary["n_steps"]
        # an instant fails when its fallback fails (the input is then held) or
        # when its applied input breaks a hard limit
        broken = checks.limit_violations(run_dir, U_SS, U_MIN, U_MAX, DU_MAX)
        self.failed += summary["fallback_failed_count"] + len(broken)
        self.broken[mode] += len(broken)
        self.fallbacks += summary["fallback_count"]
        if summary["n_steps"] < MIN_INSTANTS:
            self.problems.append(f"{mode}: {summary['n_steps']} instants < {MIN_INSTANTS}")
        self.problems += [f"{mode}: {p}" for p in checks.check_control(run_dir)]
        self.steps[mode].append(steps)
        self.control_s[mode].append(dt)
        self.iae[mode] = float(sum(summary["iae"]))
        return dt

    def chain(self):
        """identify, control single, control multi; total command seconds."""
        times = [self.identify()] + [self.control(m) for m in MODES]
        return sum(t for t in times if t is not None)


def run_untraced(s: Bench, workload, seed, seconds, run_dir) -> dict:
    import numpy as np
    from stats import median, peak_rss_mb, percentile
    setup = setup_probes(workload, seed, run_dir)
    with s.timer.installed():
        if workload == "identify":
            identify_s = []
            t_end = time.perf_counter() + seconds
            while not identify_s or time.perf_counter() < t_end:
                identify_s.append(s.identify())
            # the hold loop gives this workload its control metrics
            for _ in range(HOLD_ROUNDS):
                for mode in MODES:
                    s.control(mode)
        else:
            # the last of these writes the bank the control commands load
            identify_s = [s.identify() for _ in range(IDENTIFY_REPEATS)]
            t_end = time.perf_counter() + seconds
            while not s.control_s["multi"] or time.perf_counter() < t_end:
                for mode in MODES:
                    s.control(mode)
    identify_s = [t for t in identify_s if t is not None]
    metrics = {"setup_s": median(setup), "identify_s": median(identify_s),
               "fit_pct": s.fit_pct}
    for mode in MODES:
        # every command of a run replays the same closed loop, so instant k
        # does the same work each time; its latency is the median over the
        # replays, which drops a stall that hits it in a minority of them
        replays = np.array(s.steps[mode]) * 1e3
        per_instant = np.median(replays, axis=0)
        print(f"{mode}: {replays.shape[0]} replays of {replays.shape[1]} instants, "
              f"{s.broken[mode]} instants breaking a limit")
        metrics[f"{mode}.control_s"] = median(s.control_s[mode])
        metrics[f"{mode}.step_ms_p50"] = percentile(per_instant, 50)
        metrics[f"{mode}.step_ms_p99"] = percentile(per_instant, 99)
        metrics[f"{mode}.iae"] = s.iae[mode]
    metrics["peak_rss_mb"] = peak_rss_mb()
    print(f"setup samples {len(setup)}, identify samples {len(identify_s)}")
    return metrics


def describe_modes(tracer) -> None:
    """Per control command of a traced pass: solves by class, slowest solve
    and slowest instant."""
    import bisect
    spans = tracer.spans
    tops = [i for i, sp in enumerate(spans) if sp[3] == -1]
    controls = [i for i in tops if spans[i][0] == "cli.control"]
    for mode, top in zip(MODES, controls):
        end = tops[tops.index(top) + 1] if top != tops[-1] else len(spans)
        mine = [(spans[i][2] - spans[i][1], active) for i, *_r, active in tracer.solves
                if tops[bisect.bisect_right(tops, i) - 1] == top]
        step = "mpc.control_step" if mode == "single" else "multimodel.mm_control_step"
        steps = [sp[2] - sp[1] for sp in spans[top:end] if sp[0] == step]
        n_con = sum(1 for _, active in mine if active)
        print(f"{mode}: {len(steps)} instants, {len(mine)} solves, {n_con} constrained "
              f"({100 * n_con / max(len(mine), 1):.1f} %), slowest solve "
              f"{1e3 * max(d for d, _ in mine):.1f} ms, slowest instant "
              f"{1e3 * max(steps):.1f} ms")


def run_traced(s: Bench, seconds, run_dir) -> dict:
    import checks
    from stats import median
    from tracing import Tracer, layer_metrics
    import_s = median(import_probes())
    plain, traced, layers = [], [], []
    t_end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < t_end:
        with s.timer.installed():
            plain.append(s.chain())
        tracer = Tracer()
        fallbacks = s.fallbacks
        with tracer.installed():
            traced.append(s.chain())
        layer = layer_metrics(tracer, s.fallbacks - fallbacks)
        layers.append(layer)
        for idx, H, f, A, b, u, active in tracer.solves:
            s.problems += [f"solve_qp span {idx}: {p}"
                           for p in checks.check_kkt(H, f, A, b, u, active)]
        for ids, J, sel in tracer.selections:
            s.problems += checks.check_selection(ids, J, sel)
        if len(layers) == 1:
            tracer.write_spans(run_dir / "spans.csv")
            describe_modes(tracer)
    metrics = {}
    for k in layers[0]:
        values = [layer[k] for layer in layers]
        # counts repeat exactly from pass to pass; keep them whole numbers
        metrics[k] = values[0] if len(set(values)) == 1 else median(values)
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_s"] = median(traced) - median(plain)
    metrics["trace.overhead_pct"] = 100.0 * metrics["trace.overhead_s"] / median(plain)
    (run_dir / "layers.json").write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    share = metrics["qp.constrained_solves"] / max(metrics["qp.solves"], 1)
    print(f"{len(traced)} traced and {len(plain)} untraced passes; "
          f"{metrics['qp.constrained_solves']} of {metrics['qp.solves']} solves "
          f"constrained ({100 * share:.1f} %)")
    return metrics


def cpu_times():
    """Machine-wide (busy, steal) jiffies from /proc/stat, or None off Linux."""
    try:
        fields = [int(v) for v in Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields) - fields[3] - fields[4], fields[7]


def main(argv=None) -> int:
    args = parse_args(argv)
    cpu0 = cpu_times()
    run_dir = OUT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    s = Bench(args.workload, args.seed, run_dir)
    try:
        if args.trace:
            metrics, units = run_traced(s, args.seconds, run_dir), PER_LAYER
        else:
            metrics, units = run_untraced(s, args.workload, args.seed, args.seconds,
                                          run_dir), END_TO_END
    finally:
        s.log.close()
    cpu1 = cpu_times()
    if cpu0 and cpu1 and cpu1[0] > cpu0[0]:
        # time the hypervisor gave to other guests shows up as slower runs
        print(f"cpu steal {100 * (cpu1[1] - cpu0[1]) / (cpu1[0] - cpu0[0]):.1f} % of busy time")
    for p in s.problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not s.problems,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
