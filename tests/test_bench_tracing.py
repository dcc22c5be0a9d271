"""The benchmark's tracer (bench/tracing.py) wraps package functions by owner
and attribute name.  A renamed or removed target would otherwise surface
only as a KeyError in bench/selfcheck.py or as an "attribute missing"
warning in a traced run; here it fails at once."""

import importlib.util
import os
import sys

import pytest

TRACING = os.path.join(os.path.dirname(__file__), "..", "bench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve names through it
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
NAMES = [(owner, attr) for owner, attr, _, _ in tracing.TARGETS] + list(tracing.COUNTED)


@pytest.mark.parametrize("owner, attr", NAMES,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr in NAMES])
def test_traced_name_is_owned_where_the_tracer_looks(owner, attr):
    assert attr in owner.__dict__


def test_traced_run_enters_the_step_and_send_spans(tmp_path):
    """A traced lossy crossing steps the fleet through runner.step_ugv and
    sends every message through StarBus.send: both spans are entered, and
    the tracer's sent and dropped counts equal the run's link statistics.
    Its built rows count each pairwise row call once and each wall call by
    its faces: a watcher tick makes one UAV (5 faces) and one UGV (4 faces)
    wall call, 7 more than its two calls."""
    from airground import run

    from scenario_helpers import crossing_scenario

    cfg = crossing_scenario(3, seed=5, duration=1.0,
                            network={"latency": 0.02, "jitter": 0.005, "drop": 0.2})
    tracer = tracing.Tracer("lossy")
    tracer.install()
    try:
        result = tracer.call(run, cfg, str(tmp_path))
    finally:
        tracer.restore()
    assert tracer.restored() and not tracer.missing
    stats = tracer.stats()
    steps = round(cfg.duration / cfg.dt)
    assert stats["agents.step"].count == 2 * steps   # step_uav and step_ugv
    links = result.link_stats.values()
    assert stats["netsim.send"].count == tracer.counters.sent == sum(s.sent for s in links)
    assert tracer.counters.dropped == sum(s.dropped for s in links) > 0
    watcher_ticks = stats["watcher.tick"].count
    assert watcher_ticks > 0
    assert tracer.counters.rows_built == stats["barriers.row"].count + 7 * watcher_ticks


def test_traced_run_spans_every_projection_and_relaxation(tmp_path):
    """The clustered fleet's UGVs relax from t=0.  The control loop reaches
    both solvers through qp.project_lanes, which looks them up as module
    globals: each empty polytope the projection reports is a relaxation
    span, and every relaxation follows a projection span."""
    from airground import run

    from scenario_helpers import clustered_scenario

    tracer = tracing.Tracer("relaxing")
    tracer.install()
    try:
        tracer.call(run, clustered_scenario(duration=3.0), str(tmp_path))
    finally:
        tracer.restore()
    assert tracer.restored() and not tracer.missing
    stats = tracer.stats()
    assert tracer.counters.qp_infeasible == stats["qp.relax"].count > 0
    assert stats["qp.project"].count >= stats["qp.relax"].count
