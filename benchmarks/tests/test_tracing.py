import numpy as np

import run
import sidmpc.mpc
import sidmpc.runner
from tracing import Tracer, layer_metrics


def test_installed_wrappers_are_removed_afterwards():
    before = (sidmpc.runner.plant_step, sidmpc.mpc.MpcController.control_step,
              np.linalg.svd)
    with Tracer().installed():
        assert sidmpc.runner.plant_step is not before[0]
        assert sidmpc.mpc.MpcController.control_step is not before[1]
    assert (sidmpc.runner.plant_step, sidmpc.mpc.MpcController.control_step,
            np.linalg.svd) == before


def test_spans_nest_and_self_time_excludes_children():
    tracer = Tracer()
    outer = tracer.wrap("outer", lambda: inner())
    inner = tracer.wrap("inner", lambda: sum(range(10000)))
    outer()
    (name0, s0, e0, p0), (name1, s1, e1, p1) = tracer.spans
    assert (name0, p0, name1, p1) == ("outer", -1, "inner", 0)
    assert s0 <= s1 <= e1 <= e0


def test_layer_metrics_of_a_traced_chain(chain):
    _, tracer = chain
    metrics = layer_metrics(tracer, fallbacks=0)
    traced_here = set(run.PER_LAYER) - {"cli.import_s", "trace.overhead_s",
                                        "trace.overhead_pct"}
    assert set(metrics) == traced_here
    # one identify (3000 samples, 2999 open-loop steps) plus two 80-instant loops
    assert metrics["plant.step_calls"] == 2999 + 2 * 80
    assert metrics["qp.solves"] == 80 + 2 * 80
    assert 0 < metrics["qp.constrained_solves"] < metrics["qp.solves"]
    assert metrics["subspace.svd_calls"] > 0 and metrics["subspace.lstsq_calls"] > 0
    assert metrics["qp.problems_built"] == 3
    for name, value in metrics.items():
        assert value >= 0, name
