"""Tests for INI experiment configs and the command-line runner."""

import json
from pathlib import Path

import numpy as np
import pytest

from sidmpc.cli import excitation_record, main
from sidmpc.config import load_experiment_config, resolve_output_dir
from sidmpc.errors import ConfigError
from sidmpc.mpc import MpcConfig
from sidmpc.signals import load_csv

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

BASE_INI = """\
[plant]
preset = default-fccu
noise_std = {noise}

[excitation]
register_length = 7
total_length = 900
amplitude = 2.0 1.5
clock_period = 1
seed = 1

[identification]
split_fraction = 0.5
models = {models}

[identification.a]
f = 10
p = 10
order = 2

[identification.b]
f = 10
p = 10
order = 2

[controller]
prediction_horizon = 15
control_horizon = 5
q_weights = 1.0 1.0
r_weights = 0.1 0.1
y_min = 0 0
y_max = 800 1150
du_max = 4 4

[multimodel]
sync_mode = kalman-only
bank = {bank}

[run]
duration = 10
seed = 0
setpoints ={setpoints}

[output]
directory = {outdir}
"""


def write_ini(tmp_path, name="exp.ini", noise="0.0 0.0", models="a b",
              bank="a b", setpoints="\n    2 780 970", outdir="runs/exp",
              extra=None):
    text = BASE_INI.format(noise=noise, models=models, bank=bank,
                           setpoints=setpoints, outdir=outdir)
    if extra is not None:
        text = extra(text)
    path = tmp_path / name
    path.write_text(text)
    return path


@pytest.fixture
def rooted(tmp_path, monkeypatch):
    monkeypatch.setenv("SIDMPC_OUTPUT_ROOT", str(tmp_path))
    return tmp_path


# ---------------------------------------------------------------------------
# config loading


def test_load_full_config(tmp_path, rooted):
    exp = load_experiment_config(write_ini(tmp_path))
    assert exp.plant.p == 2
    assert np.array_equal(exp.plant.noise_std, [0.0, 0.0])
    assert [s.register_length for s in exp.excitation] == [7, 7]
    assert [s.total_length for s in exp.excitation] == [900, 900]
    assert [s.levels for s in exp.excitation] == [(-2.0, 2.0), (-1.5, 1.5)]
    assert [s.phase for s in exp.excitation] == [0, 63]
    assert exp.split_fraction == 0.5
    assert list(exp.id_configs) == ["a", "b"]
    assert exp.id_configs["a"].order == 2
    assert exp.controller.P == 15 and exp.controller.M == 5
    assert exp.single_model is None
    assert exp.sync_mode == "kalman-only"
    assert exp.switch_threshold == 0.0
    assert exp.bank_ids == ["a", "b"]
    assert exp.run.duration == 10.0
    assert exp.run.setpoints is not None
    assert np.array_equal(exp.run.setpoints.value_at(3.0, None), [780.0, 970.0])
    assert exp.output_dir == rooted / "runs/exp"
    assert exp.source_text.startswith("[plant]")


def test_missing_section(tmp_path):
    path = write_ini(tmp_path, extra=lambda s: s.replace("[output]", "[outputs]"))
    with pytest.raises(ConfigError, match=r"missing required section \[output\]"):
        load_experiment_config(path)


def test_missing_key(tmp_path):
    path = write_ini(tmp_path,
                     extra=lambda s: s.replace("register_length = 7\n", ""))
    with pytest.raises(ConfigError, match=r"\[excitation\] is missing key"):
        load_experiment_config(path)


def test_bad_value_names_section_and_key(tmp_path):
    path = write_ini(tmp_path,
                     extra=lambda s: s.replace("duration = 10", "duration = soon"))
    with pytest.raises(ConfigError, match=r"\[run\] duration = 'soon'"):
        load_experiment_config(path)


def test_unknown_preset(tmp_path):
    path = write_ini(tmp_path,
                     extra=lambda s: s.replace("default-fccu", "other-plant"))
    with pytest.raises(ConfigError, match="unknown preset"):
        load_experiment_config(path)


def test_noise_std_length_check(tmp_path):
    path = write_ini(tmp_path, noise="0.1")
    with pytest.raises(ConfigError, match="noise_std needs 2"):
        load_experiment_config(path)


@pytest.mark.parametrize("noise", ["-1 -1", "-1 0.3"])
def test_negative_noise_std_exits_1(tmp_path, rooted, capsys, noise):
    # the overrides go through PlantConfig's own checks
    assert run_cli("identify", str(write_ini(tmp_path, noise=noise))) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: [plant] noise_std needs 2 nonnegative")
    assert not (rooted / "runs/exp/ident").exists()


def test_order_and_range_are_exclusive(tmp_path):
    path = write_ini(tmp_path, extra=lambda s: s.replace(
        "[identification.a]\nf = 10\np = 10\norder = 2",
        "[identification.a]\nf = 10\np = 10\norder = 2\norder_min = 1"))
    with pytest.raises(ConfigError, match="either order or order_min"):
        load_experiment_config(path)


def test_order_policy_required(tmp_path):
    path = write_ini(tmp_path, extra=lambda s: s.replace(
        "[identification.a]\nf = 10\np = 10\norder = 2",
        "[identification.a]\nf = 10\np = 10"))
    with pytest.raises(ConfigError, match="needs order, or both"):
        load_experiment_config(path)


def test_missing_config_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_experiment_config(tmp_path / "nope.ini")


# ---------------------------------------------------------------------------
# unit translation and output rooting


def test_controller_section_loads_in_deviation_units(tmp_path, rooted):
    path = write_ini(tmp_path, extra=lambda s: s.replace(
        "q_weights = 1.0 1.0\nr_weights = 0.1 0.1",
        "q_weights = 1.0 2.0\nr_weights = 0.1 0.2\nu_min = 0 0\nu_max = 100 60"
    ).replace("[controller]", "[controller]\nsingle_model = b"))
    exp = load_experiment_config(path)
    cfg = exp.controller
    assert isinstance(cfg, MpcConfig)
    assert np.array_equal(cfg.Q_weights, [1.0, 2.0])
    assert np.array_equal(cfg.R_weights, [0.1, 0.2])
    assert np.array_equal(cfg.y_min, [-777.0, -965.0])
    assert np.array_equal(cfg.y_max, [23.0, 185.0])
    assert np.array_equal(cfg.u_min, [-50.0, -30.0])
    assert np.array_equal(cfg.u_max, [50.0, 30.0])
    assert np.array_equal(cfg.du_max, [4.0, 4.0])
    assert cfg.ts == exp.plant.ts
    assert exp.single_model == "b"


def test_controller_validation_errors_name_the_section(tmp_path):
    path = write_ini(tmp_path, extra=lambda s: s.replace(
        "prediction_horizon = 15\ncontrol_horizon = 5",
        "prediction_horizon = 3\ncontrol_horizon = 10"))
    with pytest.raises(ConfigError, match=r"\[controller\].*M"):
        load_experiment_config(path)


def test_resolve_output_dir(monkeypatch, tmp_path):
    monkeypatch.setenv("SIDMPC_OUTPUT_ROOT", str(tmp_path))
    assert resolve_output_dir("runs/x") == tmp_path / "runs/x"
    assert resolve_output_dir("/abs/path") == Path("/abs/path")
    monkeypatch.delenv("SIDMPC_OUTPUT_ROOT")
    assert resolve_output_dir("runs/x") == Path("runs/x")


def test_excitation_channels_are_phase_shifted_copies(tmp_path, rooted):
    exp = load_experiment_config(write_ini(tmp_path, extra=lambda s: s.replace(
        "amplitude = 2.0 1.5", "amplitude = 2.0 2.0")))
    dev = excitation_record(exp) - exp.plant.u_ss
    period, offset = 127, 63
    assert np.array_equal(dev[: period - offset, 1], dev[offset:period, 0])
    assert set(np.unique(dev[:, 0])) == {-2.0, 2.0}


# ---------------------------------------------------------------------------
# CLI subcommands


def run_cli(*argv):
    return main(list(argv))


def test_identify_writes_artifacts(tmp_path, rooted, capsys):
    path = write_ini(tmp_path)
    assert run_cli("identify", str(path)) == 0
    out = capsys.readouterr().out
    assert "excitation: 900 samples" in out
    assert "450 train / 450 validation" in out
    assert "model a: order 2" in out
    ident = rooted / "runs/exp/ident"
    for fname in ("dataset.csv", "model_a.txt", "model_b.txt",
                  "report_a.txt", "report_b.txt", "config.ini", "meta.json"):
        assert (ident / fname).exists()
    assert (ident / "config.ini").read_text() == path.read_text()


def test_control_without_models_exits_3(tmp_path, rooted, capsys):
    path = write_ini(tmp_path)
    assert run_cli("control", str(path), "--mode", "single") == 3
    assert "run identify first" in capsys.readouterr().err


def test_control_single_and_multi(tmp_path, rooted, capsys):
    path = write_ini(tmp_path)
    assert run_cli("control", str(path), "--identify", "--mode", "single") == 0
    assert run_cli("control", str(path), "--mode", "multi") == 0
    out = capsys.readouterr().out
    assert "y1: IAE" in out and "fallback engagements" in out
    for mode in ("single", "multi"):
        run_dir = rooted / f"runs/exp/control-{mode}"
        for fname in ("trajectory.csv", "diagnostics.csv", "summary.json",
                      "config.ini", "meta.json"):
            assert (run_dir / fname).exists()
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["mode"] == mode
        assert summary["n_steps"] == 20
    multi = json.loads((rooted / "runs/exp/control-multi/summary.json").read_text())
    assert set(multi["selection_counts"]) <= {"a", "b"}


def test_duplicate_bank_matches_single_byte_for_byte(tmp_path, rooted):
    # models a and b come from identical settings, so the supervised run
    # must reproduce the single-model trajectory exactly
    path = write_ini(tmp_path)
    assert run_cli("control", str(path), "--identify", "--mode", "single") == 0
    assert run_cli("control", str(path), "--mode", "multi") == 0
    traj_s = (rooted / "runs/exp/control-single/trajectory.csv").read_bytes()
    traj_m = (rooted / "runs/exp/control-multi/trajectory.csv").read_bytes()
    assert traj_s == traj_m


def test_runs_are_byte_reproducible(tmp_path, monkeypatch):
    path = write_ini(tmp_path, noise="0.2 0.2")
    outputs = []
    for sub in ("one", "two"):
        root = tmp_path / sub
        monkeypatch.setenv("SIDMPC_OUTPUT_ROOT", str(root))
        assert run_cli("control", str(path), "--identify", "--mode", "multi") == 0
        outputs.append(root / "runs/exp")
    for rel in ("ident/dataset.csv", "ident/model_a.txt",
                "control-multi/trajectory.csv", "control-multi/diagnostics.csv",
                "control-multi/summary.json"):
        assert (outputs[0] / rel).read_bytes() == (outputs[1] / rel).read_bytes()


def test_quiet_run_without_setpoints(tmp_path, rooted):
    path = write_ini(tmp_path, setpoints="")
    assert run_cli("control", str(path), "--identify", "--mode", "single") == 0
    summary = json.loads(
        (rooted / "runs/exp/control-single/summary.json").read_text())
    assert all(v < 1e-6 for v in summary["iae"])
    assert summary["violation_instants"] == 0


def test_compare_runs_and_self_compare(tmp_path, rooted, capsys):
    path = write_ini(tmp_path)
    run_cli("control", str(path), "--identify", "--mode", "single")
    run_cli("control", str(path), "--mode", "multi")
    single = rooted / "runs/exp/control-single"
    multi = rooted / "runs/exp/control-multi"
    out_dir = rooted / "cmp"
    assert run_cli("compare", str(single), str(multi), "--out", str(out_dir)) == 0
    assert "delta IAE" in capsys.readouterr().out
    for fname in ("comparison.json", "comparison.txt",
                  "overlay_y1.csv", "overlay_y2.csv",
                  "overlay_u1.csv", "overlay_u2.csv"):
        assert (out_dir / fname).exists()
    report = json.loads((out_dir / "comparison.json").read_text())
    assert len(report["channels"]) == 2

    self_dir = rooted / "cmp-self"
    assert run_cli("compare", str(single), str(single), "--out", str(self_dir)) == 0
    self_report = json.loads((self_dir / "comparison.json").read_text())
    for ch in self_report["channels"]:
        assert ch["iae"]["delta"] == 0.0
        assert ch["iae"]["winner"] == "tie"


def _short_row(text):
    lines = text.splitlines(keepends=True)
    lines[3] = ",".join(lines[3].split(",")[:-2]) + "\n"
    return "".join(lines), "line 4: 9 fields, the header has 11"


def _non_numeric(text):
    lines = text.splitlines(keepends=True)
    lines[5] = lines[5].replace(",", ",x", 1)
    return "".join(lines), "line 6: r1 = 'x"


@pytest.mark.parametrize("fname, corrupt", [
    ("trajectory.csv", _short_row),
    ("trajectory.csv", _non_numeric),
    ("trajectory.csv", lambda text: (text.replace("y1", "z1", 1), "line 1: lacks one of")),
    ("summary.json", lambda text: (text[:-20], "summary.json line")),
])
def test_compare_malformed_run_exits_1(tmp_path, rooted, capsys, fname, corrupt):
    path = write_ini(tmp_path)
    run_cli("control", str(path), "--identify", "--mode", "single")
    good = rooted / "runs/exp/control-single"
    bad = tmp_path / "bad"
    bad.mkdir()
    for f in ("trajectory.csv", "summary.json"):
        (bad / f).write_bytes((good / f).read_bytes())
    text, message = corrupt((bad / fname).read_text())
    (bad / fname).write_text(text)
    capsys.readouterr()
    assert run_cli("compare", str(bad), str(bad), "--out", str(tmp_path / "cmp")) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(bad / fname) in err
    assert message in err


def _tracking_ini(tmp_path, old, new):
    text = (CONFIG_DIR / "fccu-tracking.ini").read_text()
    assert text.count(old) == 1
    path = tmp_path / "tracking.ini"
    path.write_text(text.replace(old, new).replace(
        "directory = out/fccu-tracking", "directory = runs/tracking"))
    return path


@pytest.mark.parametrize("old, new, key", [
    ("duration = 120", "duration = nan", "[run] duration = 'nan'"),
    ("duration = 120", "duration = inf", "[run] duration = 'inf'"),
    ("du_max = 2 2", "du_max = inf 2", "[controller] du_max = 'inf 2'"),
    ("70  779 983", "70  nan 983", "[run] setpoints row 3"),
    ("amplitude = 2.0 2.0", "amplitude = inf 2", "[excitation] amplitude = 'inf 2'"),
], ids=["duration-nan", "duration-inf", "du_max-inf", "setpoint-nan", "amplitude-inf"])
def test_non_finite_ini_number_exits_1(tmp_path, rooted, capsys, old, new, key):
    path = _tracking_ini(tmp_path, old, new)
    assert run_cli("control", str(path), "--identify", "--mode", "single") == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err and "finite" in err


def _identified_files(tmp_path, rooted):
    path = write_ini(tmp_path)
    run_cli("control", str(path), "--identify", "--mode", "single")
    run = rooted / "runs/exp"
    return {"config": path, "model": run / "ident/model_a.txt",
            "dataset": run / "ident/dataset.csv",
            "trajectory": run / "control-single/trajectory.csv",
            "summary": run / "control-single/summary.json"}


@pytest.mark.parametrize("which, argv", [
    ("config", ("identify", "{config}")),
    ("model", ("control", "{config}", "--mode", "single")),
    ("trajectory", ("compare", "{run}", "{run}", "--out", "{run}/cmp")),
    ("summary", ("compare", "{run}", "{run}", "--out", "{run}/cmp")),
], ids=["config", "model", "trajectory", "summary"])
def test_undecodable_byte_exits_1(tmp_path, rooted, capsys, which, argv):
    files = _identified_files(tmp_path, rooted)
    bad = files[which]
    bad.write_bytes(bad.read_bytes() + b"\xff")
    run_dir = files["trajectory"].parent
    capsys.readouterr()
    assert run_cli(*(a.format(config=files["config"], run=run_dir) for a in argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(bad) in err


def test_load_csv_refuses_an_undecodable_byte(tmp_path, rooted):
    dataset = _identified_files(tmp_path, rooted)["dataset"]
    assert load_csv(dataset).N == 900
    dataset.write_bytes(dataset.read_bytes() + b"\xff")
    with pytest.raises(ConfigError, match=str(dataset)):
        load_csv(dataset)


def test_compare_missing_dir_exits_3(tmp_path, rooted, capsys):
    assert run_cli("compare", str(tmp_path / "nope-a"), str(tmp_path / "nope-b")) == 3
    assert "not found" in capsys.readouterr().err


def test_missing_config_exits_3(tmp_path, capsys):
    assert run_cli("identify", str(tmp_path / "absent.ini")) == 3
    assert "not found" in capsys.readouterr().err


def test_config_error_exits_1(tmp_path, rooted, capsys):
    path = write_ini(tmp_path,
                     extra=lambda s: s.replace("default-fccu", "mystery"))
    assert run_cli("identify", str(path)) == 1
    assert "config error" in capsys.readouterr().err


def test_bad_taps_exit_1(tmp_path, rooted, capsys):
    path = write_ini(tmp_path, extra=lambda s: s.replace(
        "clock_period = 1", "clock_period = 1\ntaps = 4 2"))
    assert run_cli("identify", str(path)) == 1
    assert "not primitive" in capsys.readouterr().err


def test_control_on_truncated_model_exits_1(tmp_path, rooted, capsys):
    path = write_ini(tmp_path)
    assert run_cli("identify", str(path)) == 0
    model = rooted / "runs/exp/ident/model_a.txt"
    model.write_text("\n".join(model.read_text().splitlines()[:5]) + "\n")
    capsys.readouterr()
    assert run_cli("control", str(path), "--mode", "single") == 1
    err = capsys.readouterr().err
    assert "config error" in err and "model_a.txt" in err
    assert "Traceback" not in err


def test_identify_refuses_unstable_predictor(tmp_path, rooted, capsys):
    # shipped identification settings with this plant-noise seed give an
    # order-3 'asym' model whose predictor A - K C has radius 1.0107
    text = (CONFIG_DIR / "fccu-tracking.ini").read_text()
    assert text.count("seed = 0\n") == 1
    text = text.replace("seed = 0\n", "seed = 905266064\n")
    text = text.replace("directory = out/fccu-tracking", "directory = runs/unstable")
    path = tmp_path / "unstable.ini"
    path.write_text(text)
    assert run_cli("identify", str(path)) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "order-3" in err and "radius 1.01" in err
    assert "Traceback" not in err
    ident = rooted / "runs/unstable/ident"
    # 'default' is estimated fine, but no model of a refused bank is written
    assert list(ident.glob("model_*.txt")) == []


def test_refused_identify_leaves_the_earlier_bank_unchanged(tmp_path, rooted, capsys):
    # an earlier successful run of the shipped settings, then the seed whose
    # 'asym' model is refused, into the same output directory
    text = (CONFIG_DIR / "fccu-tracking.ini").read_text()
    text = text.replace("directory = out/fccu-tracking", "directory = runs/bank")
    path = tmp_path / "bank.ini"
    path.write_text(text)
    assert run_cli("identify", str(path)) == 0
    ident = rooted / "runs/bank/ident"
    before = {f.name: f.read_bytes() for f in ident.iterdir()}
    assert {"dataset.csv", "model_default.txt", "model_asym.txt"} <= set(before)
    path.write_text(text.replace("seed = 0\n", "seed = 905266064\n"))
    capsys.readouterr()
    assert run_cli("identify", str(path)) == 2
    assert "radius 1.01" in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in ident.iterdir()} == before


def test_prbs_preview(tmp_path, rooted, capsys):
    path = write_ini(tmp_path)
    csv_out = rooted / "preview.csv"
    assert run_cli("prbs-preview", str(path), "--out", str(csv_out)) == 0
    out = capsys.readouterr().out
    assert "register length 7, bit period 127" in out
    assert "channel 1: levels" in out and "switches" in out
    assert csv_out.exists()
