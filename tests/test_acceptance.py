"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured margin.  Tolerances are fixed here and
nowhere else; run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion report.
"""

import hashlib
import math
import os
import time

import numpy as np
import pytest

from airground.agents import nid_forward, nid_inverse, twist_from_wheels, wheel_speeds
from airground.barriers import (Bounds, RowKind, SafetyParams,
                                build_constraint_row, eval_landing,
                                eval_uav_other_ugv, eval_uav_uav,
                                eval_ugv_ugv, verify_validity)
from airground.runner import run
from airground.summary import summarize_dir

from oracles import oracle_solve
from qp_problems import filter_lanes, random_problem
from scenario_helpers import (clustered_scenario, crossing_scenario,
                              landing_scenario, single_pair)

SEPARATIONS = {"uav_uav": 0.5, "uav_other_ugv": 0.7, "ugv_ugv": 1.0}
INVARIANCE_TOL = {
    "workspace": 1e-3,
    "landing": 1e-3,
    "uav_uav": max(1e-3, 0.01 * SEPARATIONS["uav_uav"]),
    "uav_other_ugv": max(1e-3, 0.01 * SEPARATIONS["uav_other_ugv"]),
    "ugv_ugv": max(1e-3, 0.01 * SEPARATIONS["ugv_ugv"]),
}
STRESS_NETWORK = {"latency": 0.05, "jitter": 0.01, "drop": 0.05}


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


def check_metrics(out_dir: str, result, digest: str) -> None:
    """run()'s metrics equal summarize_dir's independent re-check of the
    same directory, and metrics.json holds the bytes recorded while run()
    still re-read its own logs."""
    assert summarize_dir(out_dir).to_json() == result.metrics.to_json()
    with open(os.path.join(out_dir, "metrics.json"), "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == digest


def invariance_suite(tmp_path, network=None) -> tuple[dict, float]:
    """20 seeded crossing scenarios, N=4, 60 s, dt=0.01; returns the worst
    barrier value per family and the wall time."""
    worst: dict[str, float] = {}
    t0 = time.perf_counter()
    for seed in range(20):
        kwargs = {"network": dict(network)} if network else {}
        cfg = crossing_scenario(4, seed=1000 + seed, duration=60.0, **kwargs)
        result = run(cfg, str(tmp_path / f"fi{seed}"))
        for fam, h in result.metrics.family_min_h.items():
            worst[fam] = min(worst.get(fam, math.inf), float(h))
    return worst, time.perf_counter() - t0


def test_c01_constraint_count_law(tmp_path):
    """Fully proximal N=3: every UAV matrix holds exactly 2N+4 = 10 active
    rows and every UGV exactly N+3 = 6, at every coordination tick."""
    t0 = time.perf_counter()
    cfg = clustered_scenario(duration=6.0)
    result = run(cfg, str(tmp_path))
    bad = [
        (r.time, r.agent_id, r.active_count)
        for r in result.watcher_records
        if r.active_count != (10 if r.agent_id.startswith("uav") else 6)
    ]
    elapsed = time.perf_counter() - t0
    ticks = len(result.watcher_records)
    report("constraint-count law", not bad and elapsed < 10.0,
           f"{ticks} agent-ticks checked, {len(bad)} off-count, {elapsed:.1f}s")


def test_c02_star_topology_law(tmp_path):
    """Every observed link touches the coordinator: exactly 2N agent links,
    zero agent-to-agent messages."""
    cfg = crossing_scenario(3, seed=77, duration=10.0,
                            network={"latency": 0.02, "jitter": 0.005,
                                     "drop": 0.02})
    result = run(cfg, str(tmp_path), trace=True)
    metrics = summarize_dir(str(tmp_path))
    check_metrics(str(tmp_path), result, "90eeebe85d7608bfa6362a9e5874d9d05371e740302b43f8c17dc62ca9be6a0a")
    n_agents = 2 * cfg.n_pairs
    ok = (metrics.active_links == n_agents
          and metrics.agent_to_agent_messages == 0)
    report("star-topology law", ok,
           f"links={metrics.active_links} (expected {n_agents}), "
           f"agent-to-agent={metrics.agent_to_agent_messages}")


def test_c03_forward_invariance(tmp_path):
    """20 seeded crossing scenarios: every barrier family stays above its
    discretization tolerance; whole suite under 2 minutes."""
    worst, elapsed = invariance_suite(tmp_path)
    bad = {f: v for f, v in worst.items() if v < -INVARIANCE_TOL[f]}
    detail = ", ".join(f"{f}={v:.5f}" for f, v in sorted(worst.items()))
    report("forward invariance", not bad and elapsed < 120.0,
           f"{detail}; {elapsed:.0f}s")


def test_c04_landing_on_moving_platform(tmp_path):
    """10 seeded scenarios, platform speeds 0.30-0.48 m/s: every UAV touches
    down within 40 s of its signal and the funnel barrier never drops below
    -1e-3 on the way down."""
    worst_h = 0.0
    worst_delay = 0.0
    failures = []
    for k in range(10):
        speed = 0.3 + 0.02 * k
        cfg = landing_scenario(2, seed=100 + k, ugv_speed=speed, duration=48.0)
        result = run(cfg, str(tmp_path / f"land{k}"))
        worst_h = min(worst_h, float(result.metrics.family_min_h["landing"]))
        signal_times = {e.pair: e.time for e in cfg.events}
        for pair in range(cfg.n_pairs):
            touchdown = result.touchdown_times.get(pair)
            if touchdown is None:
                failures.append((k, pair, "no touchdown"))
            else:
                worst_delay = max(worst_delay, touchdown - signal_times[pair])
                if touchdown - signal_times[pair] > 40.0:
                    failures.append((k, pair, f"late: {touchdown}"))
    ok = not failures and worst_h >= -1e-3
    report("landing on moving platform", ok,
           f"20 landings, slowest {worst_delay:.1f}s after signal, "
           f"min funnel h {worst_h:.5f}")


def test_c05_qp_oracle_equivalence():
    """1000 seeded random problems through the control loop's entry point
    (project_lanes, then solve_relaxed where a polytope is empty): the
    filter matches the enumeration oracle within 1e-5 and agrees exactly on
    feasibility, in under 5 s."""
    rng = np.random.default_rng(777)
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_obj_gap = 0.0
    flag_mismatches = 0
    feasible = relaxed = 0
    problems = [random_problem(rng) for _ in range(1000)]
    for (z, A, b, limit), (u, _, was_relaxed) in zip(problems, filter_lanes(problems)):
        want = oracle_solve(z, A, b, limit)
        relaxed += was_relaxed
        if was_relaxed != (want is None):
            flag_mismatches += 1
        elif want is not None:
            feasible += 1
            worst_gap = max(worst_gap, float(np.max(np.abs(u - want))))
            obj_got = float((u - z) @ (u - z))
            obj_want = float((want - z) @ (want - z))
            worst_obj_gap = max(worst_obj_gap, obj_got - obj_want)
    elapsed = time.perf_counter() - t0
    ok = (flag_mismatches == 0 and worst_gap <= 1e-5
          and worst_obj_gap <= 1e-8 and elapsed < 5.0)
    report("qp oracle equivalence", ok,
           f"{feasible} feasible, {relaxed} relaxed, worst gap {worst_gap:.2e}, "
           f"objective gap {worst_obj_gap:.2e}, {flag_mismatches} flag mismatches, "
           f"{elapsed:.1f}s")


def test_c06_gradients_and_time_terms():
    """All four barrier families: analytic spatial gradients within 1e-5 of
    central differences, landing time term within 1e-4 of finite differences
    under platform motion, 100 random states each."""
    params = SafetyParams(**{
        "uav_separation": 0.5, "uav_ugv_separation": 0.7, "ugv_separation": 1.0,
        "funnel_sharpness": 1.0, "funnel_height": 0.5, "hover_clearance": 0.2,
        "barrier_gain": 1.0, "uav_speed_limit": 1.0, "ugv_speed_limit": 0.6,
    })
    rng = np.random.default_rng(2718)
    eps = 1e-6
    worst_grad = 0.0
    worst_time = 0.0

    def grad_err(h_func, grad, point):
        numeric = np.array([
            (h_func(point + d) - h_func(point - d)) / (2 * eps)
            for d in np.eye(len(point)) * eps
        ])
        return float(np.linalg.norm(grad - numeric)
                     / max(1.0, np.linalg.norm(grad)))

    for _ in range(100):
        p_i, p_j = rng.uniform(-4, 4, 3), rng.uniform(-4, 4, 3)
        row = build_constraint_row(RowKind.UAV_UAV, p_i, p_j, np.zeros(3), params)
        worst_grad = max(worst_grad, grad_err(
            lambda p: eval_uav_uav(p, p_j, params.uav_separation), row.a, p_i))

        r_i, r_j = rng.uniform(-4, 4, 2), rng.uniform(-4, 4, 2)
        row = build_constraint_row(RowKind.UGV_UGV, r_i, r_j, np.zeros(2), params)
        worst_grad = max(worst_grad, grad_err(
            lambda p: eval_ugv_ugv(p, r_j, params.ugv_separation), row.a, r_i))

        g_j = rng.uniform(-4, 4, 2)
        g3 = np.array([g_j[0], g_j[1], 0.0])
        row = build_constraint_row(RowKind.UAV_OTHER_UGV, p_i, g_j,
                                   np.zeros(2), params)
        worst_grad = max(worst_grad, grad_err(
            lambda p: eval_uav_other_ugv(p, g3, params.uav_ugv_separation),
            row.a, p_i))

        row = build_constraint_row(RowKind.LANDING, p_i, g_j, np.zeros(2), params)
        worst_grad = max(worst_grad, grad_err(
            lambda p: eval_landing(p, g3, params.funnel_sharpness,
                                   params.funnel_height,
                                   params.hover_clearance)[0], row.a, p_i))

        vel = rng.uniform(-0.6, 0.6, 2)
        row = build_constraint_row(RowKind.LANDING, p_i, g_j, vel, params)
        analytic = row.b - params.barrier_gain * row.h_value
        step = np.array([vel[0], vel[1]]) * eps
        h_plus, _, _ = eval_landing(
            p_i, np.array([*(g_j + step), 0.0]), params.funnel_sharpness,
            params.funnel_height, params.hover_clearance)
        h_minus, _, _ = eval_landing(
            p_i, np.array([*(g_j - step), 0.0]), params.funnel_sharpness,
            params.funnel_height, params.hover_clearance)
        numeric = (h_plus - h_minus) / (2 * eps)
        worst_time = max(worst_time,
                         abs(analytic - numeric) / max(1.0, abs(analytic)))

    ok = worst_grad < 1e-5 and worst_time < 1e-4
    report("gradient and time-term checks", ok,
           f"worst gradient err {worst_grad:.2e}, worst time-term err "
           f"{worst_time:.2e}")


def test_c07_offset_and_wheel_map_exactness():
    """1000 random unicycle states: offset transform and wheel map both
    invert to 1e-12."""
    rng = np.random.default_rng(31415)
    worst = 0.0
    for _ in range(1000):
        theta = rng.uniform(-math.pi, math.pi)
        offset = rng.uniform(0.02, 0.5)
        v, omega = rng.uniform(-1.5, 1.5), rng.uniform(-4, 4)
        ov = nid_forward(theta, v, omega, offset)
        v2, om2 = nid_inverse(theta, ov, offset)
        worst = max(worst, abs(v2 - v), abs(om2 - omega))

        half_track = rng.uniform(0.05, 0.4)
        r1, r2 = wheel_speeds(v, omega, half_track)
        v3, om3 = twist_from_wheels(r1, r2, half_track)
        worst = max(worst, abs(v3 - v), abs(om3 - omega))
    report("offset/wheel-map exactness", worst <= 1e-12,
           f"worst round-trip error {worst:.2e}")


def test_c08_barrier_condition_sampling():
    """The landing-funnel row stays achievable inside the admissible box over
    a dense grid of relative states, with the platform moving adversarially
    at its speed bound.  Zero failures allowed."""
    params = SafetyParams(
        uav_separation=0.5, uav_ugv_separation=0.7, ugv_separation=1.0,
        funnel_sharpness=1.0, funnel_height=0.5, hover_clearance=0.2,
        barrier_gain=1.0, bounds=Bounds(-8, 8, -8, 8, 0, 3),
        uav_speed_limit=1.0, ugv_speed_limit=0.6,
    )
    diag_sq = params.bounds.horizontal_diag_sq()
    failures = 0
    samples = 0
    for r_z in np.linspace(params.hover_clearance, params.bounds.z_max, 61):
        for l in np.linspace(0.0, diag_sq, 201):
            p_uav = np.array([math.sqrt(l), 0.0, r_z])
            # The worst admissible platform motion flips sign with the funnel
            # slope; probing both radial directions covers the extreme.
            for direction in (-1.0, 1.0):
                vel = np.array([direction * params.ugv_speed_limit, 0.0])
                row = build_constraint_row(RowKind.LANDING, p_uav, (0.0, 0.0),
                                           vel, params)
                samples += 1
                if not verify_validity(row, params.uav_speed_limit):
                    failures += 1
    report("barrier condition sampling", failures == 0,
           f"{samples} grid points, {failures} failures")


def test_c09_degradation_under_network_stress(tmp_path):
    """With 50 ms latency, 10 ms jitter and 5% drop the invariance suite
    holds at the same tolerances; at 100% drop every agent parks in the
    zero-velocity hold within the 0.25 s staleness window."""
    worst, elapsed = invariance_suite(tmp_path, network=STRESS_NETWORK)
    bad = {f: v for f, v in worst.items() if v < -INVARIANCE_TOL[f]}

    cfg = single_pair(duration=2.0, uav_waypoints=[[3.0, 0.0, 1.5]],
                      network={"latency": 0.0, "jitter": 0.0, "drop": 1.0})
    result = run(cfg, str(tmp_path / "blackout"))
    moved = False
    held = True
    with open(result.trajectory_path) as f:
        next(f)
        for line in f:
            parts = line.split(",")
            t, status = float(parts[0]), parts[10]
            if t >= 0.25:
                if status != "hold":
                    held = False
                if any(float(parts[i]) != 0.0 for i in (7, 8, 9)):
                    moved = True
    detail = ", ".join(f"{f}={v:.5f}" for f, v in sorted(worst.items()))
    ok = not bad and held and not moved
    report("degradation under network stress", ok,
           f"{detail}; blackout hold={'yes' if held and not moved else 'no'}; "
           f"{elapsed:.0f}s")


def test_c10_determinism(tmp_path):
    """Identical config and seed reproduce the trajectory log and message
    trace byte for byte."""
    def one(tag):
        cfg = crossing_scenario(3, seed=424242, duration=10.0,
                                network={"latency": 0.03, "jitter": 0.01,
                                         "drop": 0.05})
        result = run(cfg, str(tmp_path / tag), trace=True)
        check_metrics(str(tmp_path / tag), result, "7a60e772e9b061c43e11c7e897b7368b1512f36903c893725539e53d81976684")
        with open(result.trajectory_path, "rb") as f:
            traj = f.read()
        with open(result.trace_path, "rb") as f:
            trace = f.read()
        return traj, trace

    traj_a, trace_a = one("a")
    traj_b, trace_b = one("b")
    ok = traj_a == traj_b and trace_a == trace_b
    report("determinism", ok,
           f"trajectory {len(traj_a)} bytes, trace {len(trace_a)} bytes, "
           f"both identical" if ok else "outputs differ")
