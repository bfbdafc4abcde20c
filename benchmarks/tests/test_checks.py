"""Every output check passes on real outputs and fails on a corrupted copy."""

import csv
import json
import shutil

import numpy as np
import pytest

import checks
from workloads import DU_MAX, SPLIT_FRACTION, U_MAX, U_MIN, U_SS, Y_SS

BANK = ("default", "asym")


@pytest.fixture
def ident(chain, tmp_path):
    out, _ = chain
    return shutil.copytree(out / "ident", tmp_path / "ident")


@pytest.fixture
def control(chain, tmp_path):
    out, _ = chain
    return shutil.copytree(out / "control-single", tmp_path / "control-single")


def _identify_problems(ident_dir):
    return checks.check_identify(ident_dir, BANK, U_SS, Y_SS, SPLIT_FRACTION)


def _rewrite_model(path, edit):
    model = checks.read_model(path)
    edit(model)
    lines = ["sidmpc-model 1", f"ts {model['ts']!r}",
             "dims {} {} {}".format(model["A"].shape[0], model["B"].shape[1],
                                    model["C"].shape[0])]
    for name in "ABCDK":
        lines.append(name)
        lines += [" ".join(repr(float(v)) for v in row) for row in model[name]]
    path.write_text("\n".join(lines) + "\n")


def _edit_csv(path, column, edits):
    """Overwrite column in the given data rows ({row: value})."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for row, value in edits.items():
        rows[row + 1][rows[0].index(column)] = repr(float(value))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_identify_outputs_pass(ident):
    assert _identify_problems(ident) == []


def test_perturbed_A_disagrees_with_the_reported_fit(ident):
    _rewrite_model(ident / "model_default.txt",
                   lambda m: m["A"].__setitem__((0, 0), m["A"][0, 0] + 1e-3))
    assert any("disagrees" in p for p in _identify_problems(ident))


def test_edited_report_fit_disagrees(ident):
    path = ident / "report_asym.txt"
    lines = ["fit_valid 99.5 99.5" if ln.startswith("fit_valid") else ln
             for ln in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    assert any("disagrees" in p for p in _identify_problems(ident))


def test_poor_fit_is_refused(ident):
    cols = checks.read_columns(ident / "dataset.csv")
    n = len(cols["t"])
    rng = np.random.default_rng(0)
    _edit_csv(ident / "dataset.csv", "y1", {k: cols["y1"][k] + rng.normal(0, 20)
                                            for k in range(int(n * SPLIT_FRACTION), n)})
    assert any("below" in p for p in _identify_problems(ident))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_unstable_predictor_is_refused(ident):
    _rewrite_model(ident / "model_asym.txt",
                   lambda m: m.__setitem__("A", m["A"] + 2.0 * np.eye(m["A"].shape[0])))
    assert any("spectral radius" in p for p in _identify_problems(ident))


def test_control_outputs_pass(control):
    assert checks.check_control(control) == []


def test_edited_summary_iae_is_refused(control):
    path = control / "summary.json"
    summary = json.loads(path.read_text())
    summary["iae"][1] *= 1.0 + 1e-6
    path.write_text(json.dumps(summary))
    assert checks.check_control(control) != []


def test_edited_trajectory_output_is_refused(control):
    cols = checks.read_columns(control / "trajectory.csv")
    _edit_csv(control / "trajectory.csv", "y2", {3: cols["y2"][3] + 0.01})
    assert checks.check_control(control) != []


def _violations(run_dir):
    return set(checks.limit_violations(run_dir, U_SS, U_MIN, U_MAX, DU_MAX).tolist())


@pytest.mark.parametrize("column,value", [
    ("du1", DU_MAX[0] + 1e-8), ("du2", -DU_MAX[1] - 1e-8),
])
def test_move_beyond_du_max_is_a_violation(control, column, value):
    before = _violations(control)
    _edit_csv(control / "trajectory.csv", column, {5: value})
    assert _violations(control) - before == {5}


@pytest.mark.parametrize("column,value", [("u1", U_MAX[0] + 1e-8), ("u2", U_MIN[1] - 1e-8)])
def test_input_outside_its_window_is_a_violation(control, column, value):
    _edit_csv(control / "trajectory.csv", column, {5: value})
    assert 5 in _violations(control)


def test_traced_solves_satisfy_kkt(chain):
    _, tracer = chain
    assert any(active for *_, active in tracer.solves)
    for _, H, f, A, b, u, active in tracer.solves:
        assert checks.check_kkt(H, f, A, b, u, active) == []


def test_traced_selections_are_the_argmin(chain):
    _, tracer = chain
    assert tracer.selections
    for ids, J, sel in tracer.selections:
        assert checks.check_selection(ids, J, sel) == []


# min 0.5 |u|^2 + f'u  s.t.  u1 <= 0.5; with f = (-1, -1) the optimum is
# (0.5, 1) with row 0 active and multiplier 0.5
H = np.eye(2)
F = np.array([-1.0, -1.0])
A = np.array([[1.0, 0.0]])
B = np.array([0.5])


def test_kkt_accepts_the_optimum():
    assert checks.check_kkt(H, F, A, B, np.array([0.5, 1.0]), [0]) == []


@pytest.mark.parametrize("u,active,what", [
    ((0.6, 1.0), [0], "infeasible"),
    ((0.5, 0.9), [0], "stationarity"),
    ((0.5, 1.0), [], "stationarity"),
])
def test_kkt_refuses_a_wrong_point(u, active, what):
    problems = checks.check_kkt(H, F, A, B, np.array(u), active)
    assert any(what in p for p in problems)


def test_kkt_refuses_a_point_that_needs_a_negative_multiplier():
    # f = (1, -1): the optimum (-1, 1) is interior; holding u1 at the bound
    # would need a negative multiplier, which NNLS cannot supply
    problems = checks.check_kkt(H, np.array([1.0, -1.0]), A, B, np.array([0.5, 1.0]), [0])
    assert any("stationarity" in p for p in problems)


def test_selection_must_be_the_argmin():
    assert checks.check_selection(["a", "b"], [2.0, 1.0], "b") == []
    assert checks.check_selection(["a", "b"], [2.0, 1.0], "a") != []
    assert checks.check_selection(["a", "b"], [np.inf, np.inf], None) == []
