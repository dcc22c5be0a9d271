"""The array implementations of gating, barrier evaluation and velocity
estimation, and the QP entry points over project_with_box, against the code
they replaced (tests/oracles.py): equal results, bit for bit."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from airground.barriers import Bounds, SafetyParams
from airground.logfmt import fmt9
from airground.qp import QpStatus, filter_velocity, solve, solve_relaxed
from airground.runner import run
from airground.summary import (PhysicsView, Roster, summarize_dir,
                               tick_barriers)
from airground.watcher import (PairPhase, VelocityEstimator, Watcher,
                               WaypointTrack)

from oracles import (AgentVelocityEstimator, DictGates, Sample, VelQuality,
                     scalar_tick_barriers, stacked_filter_velocity,
                     stacked_solve, stacked_solve_relaxed)
from qp_problems import random_problem
from scenario_helpers import crossing_scenario

VIEW = PhysicsView(
    uav_separation=0.5, uav_ugv_separation=0.7, ugv_separation=1.0,
    funnel_sharpness=1.0, funnel_height=0.5, hover_clearance=0.2,
    x_min=-8.0, x_max=8.0, y_min=-8.0, y_max=8.0, z_min=0.0, z_max=3.0,
    ugv_offset=0.1, platform_height=0.0, n_pairs=5,
)

PARAMS = SafetyParams(
    uav_separation=0.5, uav_ugv_separation=0.7, ugv_separation=1.0,
    funnel_sharpness=1.0, funnel_height=0.5, hover_clearance=0.2,
    barrier_gain=1.0, bounds=Bounds(-6, 6, -6, 6, 0, 3),
    uav_speed_limit=1.0, ugv_speed_limit=0.6, turn_rate_limit=4.0,
)


def merge_min(into: dict, values: dict) -> None:
    for key, v in values.items():
        if v < into.get(key, math.inf):
            into[key] = v


def oracle_block(view, ids, x, y, z, theta, landed):
    """Per-tick scalar evaluation of a (T, M) block, aggregated like the
    array version: (T, M) per-agent minima, family and distance minima."""
    per_agent, family, dist = [], {}, {}
    for t in range(x.shape[0]):
        snapshot = {
            aid: Sample(aid[:3], x[t, c].item(), y[t, c].item(), z[t, c].item(),
                        theta[t, c].item(), "landed" if landed[t, c] else "optimal")
            for c, aid in enumerate(ids)
        }
        pa, fam, d = scalar_tick_barriers(view, snapshot)
        per_agent.append([pa[aid] for aid in ids])
        merge_min(family, fam)
        merge_min(dist, d)
    return per_agent, family, dist


@st.composite
def fleet_blocks(draw):
    """A roster of 1-5 pairs where a pair may lack its UAV or its UGV, and a
    block of 1-4 ticks of states, some UAVs landed."""
    n = draw(st.integers(1, 5))
    members = draw(st.lists(st.sampled_from(["both", "uav", "ugv"]),
                            min_size=n, max_size=n))
    ids = [f"{kind}{i}" for i, m in enumerate(members)
           for kind in ("uav", "ugv") if m in ("both", kind)]
    shape = (draw(st.integers(1, 4)), len(ids))
    # A coarse grid makes exact coincidences (zero distances) likely too.
    horizontal = st.one_of(st.floats(-9.0, 9.0), st.sampled_from([-1.0, 0.0, 0.5, 1.0]))
    x = draw(arrays(float, shape, elements=horizontal))
    y = draw(arrays(float, shape, elements=horizontal))
    z = draw(arrays(float, shape, elements=st.floats(0.0, 3.5)))
    theta = draw(arrays(float, shape, elements=st.floats(-4.0, 4.0)))
    landed = draw(arrays(bool, shape))
    return ids, x, y, z, theta, landed


@settings(max_examples=300, deadline=None)
@given(fleet_blocks())
def test_block_barriers_match_scalar_oracle(block):
    ids, x, y, z, theta, landed = block
    roster = Roster(tuple(ids), tuple(aid[:3] for aid in ids))
    per_agent, family, dist = tick_barriers(VIEW, roster, x, y, z, theta, landed)
    want_agent, want_family, want_dist = oracle_block(VIEW, ids, x, y, z, theta,
                                                      landed)
    assert per_agent.tolist() == want_agent
    assert family == want_family
    assert dist == want_dist


def test_single_pair_and_lone_uav():
    """N=1, and a UAV whose own UGV is absent, which drops its funnel term."""
    for ids in (["uav0", "ugv0"], ["uav0"], ["uav3", "ugv1"]):
        shape = (2, len(ids))
        x = np.linspace(-1.0, 1.0, shape[0] * shape[1]).reshape(shape)
        z = np.full(shape, 1.0)
        theta = np.full(shape, 0.3)
        landed = np.array([[False] * len(ids), [True] * len(ids)])
        roster = Roster(tuple(ids), tuple(a[:3] for a in ids))
        got = tick_barriers(VIEW, roster, x, -x, z, theta, landed)
        want = oracle_block(VIEW, ids, x, -x, z, theta, landed)
        assert got[0].tolist() == want[0]
        assert got[1:] == want[1:]


def test_summarize_follows_roster_changes(tmp_path):
    """Agents leave the log mid-run and come back: every tick is still
    checked against its own roster, and the metrics match the oracle."""
    cfg = crossing_scenario(3, seed=4, duration=4.0)
    run(cfg, str(tmp_path))
    path = tmp_path / "trajectory.csv"
    header, *lines = path.read_text().splitlines()
    ticks: dict[str, list[list[str]]] = {}
    for line in lines:
        fields = line.split(",")
        ticks.setdefault(fields[0], []).append(fields)

    def present(t: float, aid: str) -> bool:
        if aid == "ugv1":
            return not 1.0 <= t < 2.0
        if aid == "uav2":
            return t < 3.0
        return True

    view = PhysicsView.from_config(cfg)
    out, family, dist = [header], {}, {}
    for t_str, rows in ticks.items():
        rows = [r for r in rows if present(float(t_str), r[1])]
        snapshot = {r[1]: Sample(r[2], float(r[3]), float(r[4]), float(r[5]),
                                 float(r[6]), r[10]) for r in rows}
        per_agent, fam, d = scalar_tick_barriers(view, snapshot)
        merge_min(family, fam)
        merge_min(dist, d)
        for r in rows:
            out.append(",".join(r[:11] + [fmt9(per_agent[r[1]])]))
    path.write_text("\n".join(out) + "\n")

    summary = summarize_dir(str(tmp_path))
    assert summary.ticks == len(ticks)
    assert summary.family_min_h == family
    assert summary.min_pair_distance == dist


def static_tracks(n):
    tracks = {}
    for i in range(n):
        tracks[f"uav{i}"] = WaypointTrack([np.array([0.0, 0.0, 1.0])])
        tracks[f"ugv{i}"] = WaypointTrack([np.array([0.0, 0.0])])
    return tracks


@st.composite
def gate_runs(draw):
    """1-4 pairs packed so that most pair distances sit near the activation
    radius, then 1-6 ticks of small moves with random landed phases.  One
    UAV pair is placed exactly on the activation or deactivation radius."""
    n = draw(st.integers(1, 4))
    coord = st.floats(-1.4, 1.4)
    base_uav = draw(arrays(float, (n, 3), elements=coord)) + [0.0, 0.0, 1.6]
    base_ugv = draw(arrays(float, (n, 3), elements=coord))
    ticks = []
    for _ in range(draw(st.integers(1, 6))):
        move = st.floats(-0.12, 0.12)
        uav = base_uav + draw(arrays(float, (n, 3), elements=move))
        ugv = base_ugv + draw(arrays(float, (n, 3), elements=move))
        edge = draw(st.sampled_from([-1e-9, 0.0, 1e-9, 0.1, 0.1 + 1e-9]))
        landed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        ticks.append((uav, ugv, edge, landed))
    return n, ticks


@settings(max_examples=200, deadline=None)
@given(gate_runs())
def test_gate_matrices_match_dict_oracle(case):
    n, ticks = case
    w = Watcher(n, PARAMS, 2 * n + 4, static_tracks(n))
    oracle = DictGates(n, PARAMS, w.activation_margin, w.ugv_offset,
                       w.platform_height)
    activate_at = PARAMS.uav_separation + w.activation_margin
    for k, (uav, ugv, edge, landed) in enumerate(ticks):
        if n > 1:
            uav[1] = uav[0] + [activate_at + edge, 0.0, 0.0]
        poses = {}
        for i in range(n):
            poses[f"uav{i}"] = uav[i].copy()
            poses[f"ugv{i}"] = ugv[i].copy()
            w.phases[i] = PairPhase.LANDED if landed[i] else PairPhase.TASK
        now = 0.05 * k
        _, records = w.tick(now, poses)
        oracle.update(poses, landed)
        for rec in records:
            aid = rec.agent_id
            assert w.proximal_set(aid) == oracle.proximal_set(aid)
            assert rec.proximal == tuple(sorted(oracle.proximal_set(aid)))
            matrix = w.assemble_constraints(aid, now)
            assert matrix.other_ids == oracle.row_order(aid)


def test_qp_entry_points_match_stacked_oracle():
    rng = np.random.default_rng(5)
    statuses = set()
    for _ in range(2000):
        p = random_problem(rng)
        for got, want in ((solve(p), stacked_solve(p)),
                          (solve_relaxed(p), stacked_solve_relaxed(p)),
                          (filter_velocity(p), stacked_filter_velocity(p))):
            assert got.u_star.tobytes() == want.u_star.tobytes()
            assert got.status is want.status
            assert got.iterations == want.iterations
            assert got.max_violation == want.max_violation
            statuses.add(got.status)
    assert statuses == set(QpStatus)  # both solve outcomes and the relaxation


def test_fleet_estimator_matches_per_agent_oracle():
    """Each row of the fleet estimator is the per-agent estimator's value at
    the tick it was pushed, and the fleet is worst case exactly when the
    per-agent one says WORST_CASE (also across a repeated tick time)."""
    rng = np.random.default_rng(9)
    for n in (1, 3, 16):
        for dim, smoothing in ((3, 0.7), (2, 0.35), (2, 1.0)):
            fleet = VelocityEstimator(n, dim, smoothing)
            agents = [AgentVelocityEstimator(dim, smoothing) for _ in range(n)]
            steps = rng.uniform(0.01, 0.1, 12)
            # One repeated tick time: right after the first tick (no
            # difference yet, still worst case) or later on.
            steps[1 if dim == 3 else rng.integers(2, 12)] = 0.0
            positions = rng.normal(0.0, 2.0, (n, dim))
            qualities = set()
            for now in np.cumsum(steps).tolist():
                positions = positions + rng.normal(0.0, 0.05, (n, dim))
                fleet.push(now, positions)
                velocity, worst_case = fleet.estimate()
                for i, agent in enumerate(agents):
                    agent.push(now, positions[i])
                    want = agent.estimate(now)
                    assert velocity[i].tobytes() == want.v.tobytes()
                    assert worst_case == (want.quality is VelQuality.WORST_CASE)
                    qualities.add(want.quality)
            assert qualities == set(VelQuality)
