import json
from pathlib import Path

import pytest
from sidmpc.config import load_experiment_config

import run
from workloads import WORKLOADS, make_config

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_config_is_deterministic_for_a_seed(workload):
    assert make_config(workload, 7) == make_config(workload, 7)


@pytest.mark.parametrize("workload", ["identify", "reject"])
def test_seed_changes_the_inputs(workload):
    assert make_config(workload, 1) != make_config(workload, 2)


def test_track_inputs_do_not_depend_on_the_seed():
    assert make_config("track", 1) == make_config("track", 2)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_config_loads_with_at_least_1000_instants(workload, tmp_path):
    path = tmp_path / "w.ini"
    path.write_text(make_config(workload, 3))
    exp = load_experiment_config(path)
    assert round(exp.run.duration / exp.plant.ts) >= run.MIN_INSTANTS
    assert list(exp.id_configs) == list(run.BANK)


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        make_config("nope", 1)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
