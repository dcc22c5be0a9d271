"""The array implementations of gating, barrier evaluation, constraint
assembly, velocity estimation and the fleet's kinematic steps, the QP entry
points over project_with_box and the projection's direct first step, the
control units of a kind held as arrays and filtered as one batch, the
reuse of a filtered command, the schedule that ticks only the units whose
output can change, the watcher's gate tables reused across ticks, the
block trajectory writer with its distinct-value formatting, the watcher
log's reused line tails and the bus's shape-read byte counts, against the
code they replaced (tests/oracles.py, or fmt9 per value): equal results,
bit for bit."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from airground import qp
from airground.agents import (UAV, UGV, AgentControlUnit, Command, Gains,
                              KindControl, wrap_angle)
from airground.barriers import (Bounds, ConstraintRow, RowKind, SafetyParams,
                                offset_points)
from airground.errors import CapacityError
from airground.logfmt import fmt9, fmt9_round_trip
from airground.netsim import WATCHER_ID, MsgType, StarBus, wire_bytes
from airground.qp import _project, project_with_box, solve_relaxed
from airground import runner
from airground.runner import _integrate, run
from airground.summary import (BLOCK_SAMPLES, WATCHER_HEADER, Roster,
                               TrajectoryWriter, summarize_dir, tick_barriers)
from airground.watcher import (ConstraintMatrix, PairPhase, TrackTable,
                               VelocityEstimator, Watcher, WaypointTrack)

from oracles import (AgentVelocityEstimator, DictGates, Sample,
                     ScalarControlUnit, UavState, UgvState, UncachedControlUnit,
                     VelQuality,
                     assemble_per_row, from_rows, integrate_per_agent,
                     per_agent_fanout, type_walk_payload_bytes, watcher_line,
                     waypoint_sample,
                     per_agent_kind_counts,
                     per_agent_trajectory_rows, project_reference,
                     scalar_tick_barriers, scalar_view,
                     stacked_project, stacked_solve_relaxed)
from qp_problems import random_problem
from scenario_helpers import crossing_scenario


def physics(platform_height: float = 0.0, ugv_offset: float = 0.1) -> SimpleNamespace:
    """The scenario fields tick_barriers reads."""
    return SimpleNamespace(
        safety=SafetyParams(
            uav_separation=0.5, uav_ugv_separation=0.7, ugv_separation=1.0,
            funnel_sharpness=1.0, funnel_height=0.5, hover_clearance=0.2,
            bounds=Bounds(-8.0, 8.0, -8.0, 8.0, 0.0, 3.0)),
        ugv_offset=ugv_offset, platform_height=platform_height)


PHYSICS = physics()

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


def oracle_block(cfg, ids, x, y, z, theta, landed):
    """Per-tick scalar evaluation of a (T, M) block, aggregated like the
    array version: (T, M) per-agent minima, family and distance minima."""
    view = scalar_view(cfg)
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
@given(fleet_blocks(), st.sampled_from([0.0, 0.1, 0.45]), st.sampled_from([0.1, 0.3]))
def test_block_barriers_match_scalar_oracle(block, platform_height, ugv_offset):
    """Raised decks move the funnel and cross-layer terms, and the offset
    moves the UGV walls and ground separation."""
    ids, x, y, z, theta, landed = block
    cfg = physics(platform_height, ugv_offset)
    roster = Roster(tuple(ids), tuple(aid[:3] for aid in ids))
    per_agent, family, dist = tick_barriers(cfg, roster, x, y, z, theta, landed)
    want_agent, want_family, want_dist = oracle_block(cfg, ids, x, y, z, theta,
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
        got = tick_barriers(PHYSICS, roster, x, -x, z, theta, landed)
        want = oracle_block(PHYSICS, ids, x, -x, z, theta, landed)
        assert got[0].tolist() == want[0]
        assert got[1:] == want[1:]


@pytest.mark.parametrize("case", ["none landed", "some landed", "uav without its ugv"])
def test_barrier_masks_match_scalar_oracle(case):
    """tick_barriers' in-place masks (self pairs, each UAV and its own UGV,
    landed UAVs' rows and columns) against the scalar oracle on a packed
    fleet of seven pairs: every per-agent h, family minimum and distance
    minimum equal, bit for bit."""
    rng = np.random.default_rng(23)
    ids = [f"{kind}{i}" for i in range(7) for kind in ("uav", "ugv")]
    if case == "uav without its ugv":
        ids.remove("ugv2")
        ids.remove("ugv5")
    shape = (6, len(ids))
    x, y = rng.uniform(-1.5, 1.5, shape), rng.uniform(-1.5, 1.5, shape)
    z, theta = rng.uniform(0.0, 1.5, shape), rng.uniform(-4.0, 4.0, shape)
    uav = np.array([aid.startswith("uav") for aid in ids])
    landed = np.zeros(shape, dtype=bool)
    if case != "none landed":
        landed[1:] = (rng.uniform(size=(5, len(ids))) < 0.3) & uav
        landed[-2:, ids.index("uav0")] = landed[-1, ids.index("uav2")] = True
    roster = Roster(tuple(ids), tuple(aid[:3] for aid in ids))
    per_agent, family, dist = tick_barriers(PHYSICS, roster, x, y, z, theta, landed)
    want_agent, want_family, want_dist = oracle_block(PHYSICS, ids, x, y, z, theta, landed)
    assert per_agent.tobytes() == np.array(want_agent).tobytes()
    assert (family, dist) == (want_family, want_dist)
    assert set(family) == {"workspace", "landing", "uav_uav", "uav_other_ugv", "ugv_ugv"}


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

    view = scalar_view(cfg)
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
        _, records = w.tick(now, uav, ugv)
        oracle.update(poses, landed)
        for rec in records:
            aid = rec.agent_id
            assert w.proximal_set(aid) == oracle.proximal_set(aid)
            assert rec.proximal == tuple(sorted(oracle.proximal_set(aid)))
            matrix = w.assemble_constraints(now)[aid]
            assert matrix.other_ids == oracle.row_order(aid)


@st.composite
def assembly_runs(draw):
    """1-6 pairs packed so that many gates are on, a platform height, a
    capacity that some agents may exceed, and 1-4 ticks of small moves with
    random landed phases.  The first tick's rows are worst case.  One UAV
    pair sits on the edges of its hysteresis band."""
    n = draw(st.integers(1, 6))
    platform_height = draw(st.sampled_from([0.0, 0.1, 0.45]))
    capacity = draw(st.integers(5, 2 * n + 4))
    coord = st.floats(-1.4, 1.4)
    base_uav = draw(arrays(float, (n, 3), elements=coord)) + [0.0, 0.0, 1.6]
    base_ugv = draw(arrays(float, (n, 3), elements=coord))
    ticks = []
    for _ in range(draw(st.integers(1, 4))):
        move = st.floats(-0.12, 0.12)
        uav = base_uav + draw(arrays(float, (n, 3), elements=move))
        ugv = base_ugv + draw(arrays(float, (n, 3), elements=move))
        edge = draw(st.sampled_from([-1e-9, 0.0, 1e-9, 0.1, 0.1 + 1e-9]))
        landed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        ticks.append((uav, ugv, edge, landed))
    return n, platform_height, capacity, ticks


def _clustered_ticks(n, landed):
    """Two ticks of n pairs all within each other's gates."""
    phi = 2 * math.pi * np.arange(n) / n
    uav = np.column_stack((0.3 * np.cos(phi), 0.3 * np.sin(phi), np.full(n, 1.0)))
    ugv = np.column_stack((0.4 * np.cos(phi), 0.4 * np.sin(phi), phi))
    return [(uav, ugv, 0.05, landed), (uav + 0.01, ugv + 0.01, 0.05, landed)]


# ugv0 (3 gated ground rows) overflows capacity 6 before uav1 (uav0 is landed).
@example((4, 0.1, 6, _clustered_ticks(4, [True, False, False, False])))
# six clustered pairs on a raised platform, at the largest capacity drawn
@example((6, 0.45, 16, _clustered_ticks(6, [False] * 6)))
@settings(max_examples=200, deadline=None)
@given(assembly_runs())
def test_array_assembly_matches_per_row_oracle(case):
    n, platform_height, capacity, ticks = case
    w = Watcher(n, PARAMS, capacity, static_tracks(n), platform_height=platform_height)
    activate_at = PARAMS.uav_separation + w.activation_margin
    for k, (uav, ugv, edge, landed) in enumerate(ticks):
        if n > 1:
            uav[1] = uav[0] + [activate_at + edge, 0.0, 0.0]
        for i in range(n):
            w.phases[i] = PairPhase.LANDED if landed[i] else PairPhase.TASK
        now = 0.05 * k
        ids = [aid for i in range(n) for aid in (f"uav{i}", f"ugv{i}")]
        try:
            outbound, records = w.tick(now, uav, ugv)
        except CapacityError as exc:
            # The oracle's message for its first overflowing agent.
            for aid in ids:
                try:
                    assemble_per_row(w, aid, now)
                except CapacityError as want:
                    assert str(exc) == str(want)
                    return
            raise AssertionError(f"the oracle fits every agent: {exc}")
        shipped = [payload[3] for msg_type, _, payload in outbound
                   if msg_type is MsgType.UPDATE]
        assert [m.agent_id for m in shipped] == ids
        for got in shipped:
            want = assemble_per_row(w, got.agent_id, now)
            assert got.a.tobytes() == want.a.tobytes()
            assert got.b.tobytes() == want.b.tobytes()
            assert got.kinds == want.kinds
            assert got.other_ids == want.other_ids
            assert got.active_count == want.active_count
            assert got.timestamp == want.timestamp
        # Row counts from the gate row sums, with the keys and key order of
        # one count per kind; a proximal set computed only where a gate is
        # on, equal to the one computed for every agent.
        assert [r.agent_id for r in records] == ids
        for rec, matrix in zip(records, shipped):
            assert (list(rec.kind_counts.items())
                    == list(per_agent_kind_counts(matrix.kinds).items()))
            assert rec.proximal == tuple(sorted(w.proximal_set(rec.agent_id)))


# Waypoints on a half-metre grid, -0.0 included: axis-aligned legs have
# exact lengths, so times at leg ends put s exactly on a leg's length;
# repeated waypoints give zero-length legs.
GRID_POINT = st.integers(-4, 4).map(lambda k: 0.5 * k) | st.just(-0.0)


@st.composite
def tracks(draw):
    dim = draw(st.sampled_from([2, 3]))
    waypoints = draw(st.lists(st.tuples(*[GRID_POINT] * dim), min_size=1, max_size=4))
    speed = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 0.3]) | st.floats(0.0, 5.0))
    return WaypointTrack([np.array(w) for w in waypoints], speed)


@st.composite
def track_times(draw, track_list):
    """Finite times at leg ends and whole loops of the first moving track,
    huge times, zero and ordinary ones: times the scalar walk accepts, so
    that every track's speed times t is finite (a subnormal first speed
    puts leg ends near the largest float)."""
    legs = next((t._legs for t in track_list if t._legs), [])
    ends = np.cumsum([0.0] + [leg[2] for leg in legs]).tolist()
    speed = next((t.speed for t in track_list if t._legs), 1.0)
    at_end = [e / speed + k * ends[-1] / speed for e in ends for k in (0, 1, 3)] if legs else []
    at_end = [t for t in at_end if all(math.isfinite(track.speed * t) for track in track_list)]
    return draw(st.lists(st.sampled_from(at_end + [0.0, 1e6, 1e15, 1e300, 7.25])
                         | st.floats(0.0, 100.0), min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(st.lists(tracks(), min_size=1, max_size=5).flatmap(
    lambda track_list: st.tuples(st.just(track_list), track_times(track_list))))
def test_track_table_matches_waypoint_samples(case):
    """Every row of one table sample is its track's scalar sample at t, bit
    for bit, with -0.0 waypoints and zero rates kept, in the track's
    dimensions; so is WaypointTrack.sample, a one-track table."""
    track_list, times = case
    table = TrackTable(track_list)
    for t in times:
        positions, rates = table.sample(t)
        for k, track in enumerate(track_list):
            want_position, want_rate = waypoint_sample(track, t)
            dim = len(want_position)
            assert positions[k, :dim].tobytes() == want_position.tobytes()
            assert rates[k, :dim].tobytes() == want_rate.tobytes()
            assert [x.tobytes() for x in track.sample(t)] == [want_position.tobytes(),
                                                              want_rate.tobytes()]


def test_track_table_keeps_signed_zeros_and_static_tracks():
    track_list = [WaypointTrack([np.array([-0.0, 0.0, -0.0])]),
                  WaypointTrack([np.array([-0.0, 1.0])], speed=2.0),
                  WaypointTrack([np.array([1.0, 1.0]), np.array([1.0, 1.0])], speed=1.0),
                  WaypointTrack([np.array([0.0, 0.0]), np.array([0.0, 0.0]),
                                 np.array([2.0, 0.0])], speed=1.0)]
    positions, rates = TrackTable(track_list).sample(2.0)
    for k, track in enumerate(track_list):
        want_position, want_rate = waypoint_sample(track, 2.0)
        dim = len(want_position)
        assert positions[k, :dim].tobytes() == want_position.tobytes()
        assert rates[k, :dim].tobytes() == want_rate.tobytes()
    assert np.signbit(positions[0, [0, 2]]).all() and not np.signbit(rates[0]).any()


@st.composite
def fanout_runs(draw):
    """1-5 or 12 pairs on random tracks, packed so that some gates are on
    (12 pairs put uav10 before uav2 in a proximal set), and 1-4 ticks of
    small moves, each with random task, landing or landed phases and an
    occasional landing signal.  The first tick's platform rates are worst
    case."""
    n = draw(st.integers(1, 5) | st.just(12))
    track_dict = {}
    for i in range(n):
        for kind, dim in (("uav", 3), ("ugv", 2)):
            track = draw(tracks())
            waypoints = [np.resize(w, dim) for w in track.waypoints]
            track_dict[f"{kind}{i}"] = WaypointTrack(waypoints, track.speed)
    coord = st.floats(-1.4, 1.4)
    base_uav = draw(arrays(float, (n, 3), elements=coord)) + [0.0, 0.0, 1.6]
    base_ugv = draw(arrays(float, (n, 3), elements=coord))
    ticks = []
    for _ in range(draw(st.integers(1, 4))):
        move = st.floats(-0.12, 0.12)
        phases = draw(st.lists(st.sampled_from(list(PairPhase)), min_size=n, max_size=n))
        signal = draw(st.none() | st.integers(0, n - 1))
        ticks.append((base_uav + draw(arrays(float, (n, 3), elements=move)),
                      base_ugv + draw(arrays(float, (n, 3), elements=move)), phases, signal))
    return n, track_dict, ticks


def assert_fanout_matches_oracle(w, now, outbound, records):
    """A tick's updates (order, types, destinations and payload bits), their
    wire sizes and its records equal the per-agent fan-out's."""
    want_updates, want_records = per_agent_fanout(w, now)
    pending = outbound[:len(outbound) - 2 * w.n_pairs]
    assert all(msg_type is MsgType.TOUCHDOWN_ACK for msg_type, _, _ in pending)
    updates = outbound[len(pending):]
    assert [update[:2] for update in updates] == [want[:2] for want in want_updates]
    for (_, _, got), (_, _, want) in zip(updates, want_updates):
        assert wire_bytes(MsgType.UPDATE, got) == type_walk_payload_bytes(want)
        assert [x.tobytes() for x in got[:3]] == [x.tobytes() for x in want[:3]]
        got, want = got[3], want[3]
        assert (got.a.tobytes(), got.b.tobytes()) == (want.a.tobytes(), want.b.tobytes())
        assert (got.agent_id, got.timestamp, got.active_count) == (
            want.agent_id, want.timestamp, want.active_count)
        assert (got.kinds, got.other_ids) == (want.kinds, want.other_ids)
    assert records == want_records
    assert ([list(r.kind_counts.items()) for r in records]
            == [list(r.kind_counts.items()) for r in want_records])


def landing_crossing():
    """8 s of three crossing pairs over a lossy link whose gates flip, and
    whose pair 1 lands (touchdown near 5.75 s)."""
    return crossing_scenario(3, 4, duration=8.0,
                             events=[{"time": 1.0, "type": "landing", "pair": 1}],
                             network={"latency": 0.02, "jitter": 0.005, "drop": 0.05})


def test_watcher_log_matches_per_record_lines(tmp_path):
    """Every watcher.csv line, its tail reused from the last tick whose gate
    tables or pair phases differed, equals the per-record formatting."""
    result = run(landing_crossing(), str(tmp_path))
    records = result.watcher_records
    lines = (tmp_path / "watcher.csv").read_text().splitlines()
    assert lines == [WATCHER_HEADER] + [watcher_line(fmt9(rec.time), rec) for rec in records]
    ticks = [records[k:k + 6] for k in range(0, len(records), 6)]
    phases = [[rec.phase for rec in tick] for tick in ticks]
    flips = [a[0].kind_counts is not b[0].kind_counts for a, b in zip(ticks, ticks[1:])]
    assert any(flip and p == q for flip, p, q in zip(flips, phases, phases[1:]))
    assert any(not flip and p != q for flip, p, q in zip(flips, phases, phases[1:]))
    assert {phase for tick in phases for phase in tick} == {"task", "landing", "landed"}


def test_link_bytes_match_type_walk(tmp_path, monkeypatch):
    """Each link's byte count, read off message types and array shapes,
    equals the type walk over every payload sent on it, acknowledgements
    and dropped updates included."""
    walked, types = {}, set()

    class WalkedBus(StarBus):
        def send(self, msg_type, src, dst, payload, now):
            agent = dst if src == WATCHER_ID else src
            walked[agent] = walked.get(agent, 0) + type_walk_payload_bytes(payload)
            types.add(msg_type)
            return super().send(msg_type, src, dst, payload, now)

    monkeypatch.setattr(runner, "StarBus", WalkedBus)
    result = run(landing_crossing(), str(tmp_path))
    assert {agent: s.bytes for agent, s in result.link_stats.items()} == walked
    assert types == set(MsgType)
    assert sum(s.dropped for s in result.link_stats.values()) > 0


@settings(max_examples=60, deadline=None)
@given(fanout_runs())
def test_fanout_matches_per_agent_oracle(case):
    n, track_dict, ticks = case
    w = Watcher(n, PARAMS, 2 * n + 4, track_dict)
    for k, (uav, ugv, phases, signal) in enumerate(ticks):
        now = 0.05 * k + 0.025
        w.phases.update(enumerate(phases))
        if signal is not None:
            w.handle_landing_signal(signal, now)
        outbound, records = w.tick(now, uav, ugv)
        assert_fanout_matches_oracle(w, now, outbound, records)


def test_gate_tables_rebuilt_only_when_a_gate_flips():
    """uav1 crosses uav0's hysteresis band, a ground gate and then a
    cross-layer gate flip alone, pair 0 lands, then pair 2 moves in until
    uav1 overflows its capacity.  Every tick matches the per-agent fan-out;
    the gate tables are rebuilt exactly on the ticks whose gates flipped;
    and the first overflowing tick raises the per-row oracle's
    CapacityError after a tick that reused its tables, as does the next."""
    w = Watcher(3, PARAMS, 8, static_tracks(3), touchdown_hold=0.09)
    on_at = PARAMS.uav_separation + w.activation_margin  # off again beyond on_at + 0.1
    ugv = np.array([[0.0, 0.0, 0.0], [0.0, 5.0, 0.0], [0.0, -5.0, 0.0]])
    far, hover, near = [0.0, -5.0, 1.6], [0.0, 0.0, 0.2], [0.3, 0.0, 0.9]
    # (uav0, uav1, ugv1's y, whether this tick's gates differ from the last's)
    ticks = [([0.0, 0.0, 1.6], [on_at + 0.9, 0.0, 1.6], 5.0, True),
             ([0.0, 0.0, 1.6], [on_at + 0.05, 0.0, 1.6], 5.0, False),
             ([0.0, 0.0, 1.6], [on_at - 0.05, 0.0, 1.6], 5.0, True),
             ([0.0, 0.0, 1.6], [on_at + 0.05, 0.0, 1.6], 5.0, False),
             ([0.0, 0.0, 1.6], [on_at + 0.09, 0.0, 1.6], 5.0, False),
             ([0.0, 0.0, 1.6], [on_at + 0.15, 0.0, 1.6], 5.0, True),
             ([0.0, 0.0, 1.6], [on_at + 0.05, 0.0, 1.6], 5.0, False),
             ([0.0, 0.0, 1.6], [on_at + 0.05, 0.0, 1.6], 1.5, True),   # ugv0-ugv1 only
             ([0.0, 0.0, 1.6], [0.9, 0.0, 0.9], 1.5, True),            # uav1-ugv0 only
             (hover, near, 1.5, True),   # landing signal; touchdown clock starts
             (hover, near, 1.5, False),
             (hover, near, 1.5, True),   # touchdown: uav0's aerial rows retire
             (hover, near, 1.5, False)]
    for k, (uav0, uav1, ugv1_y, flips) in enumerate(ticks):
        now = 0.05 * k
        if k == 9:
            w.handle_landing_signal(0, now)
        ugv[1, 1] = ugv1_y
        before = w.tables
        outbound, records = w.tick(now, np.array([uav0, uav1, far]), ugv)
        assert (w.tables is not before) == flips, k
        assert_fanout_matches_oracle(w, now, outbound, records)
    assert w.phases[0] is PairPhase.LANDED
    # Pair 2 joins uav1: two more rows overflow it, on this tick and the next.
    uav = np.array([hover, near, [0.3, 0.4, 0.9]])
    ugv[2] = [0.6, 0.5, 0.0]
    for k in (len(ticks), len(ticks) + 1):
        before = w.tables
        with pytest.raises(CapacityError) as exc:
            w.tick(0.05 * k, uav, ugv)
        assert (w.tables is not before) == (k == len(ticks))
        with pytest.raises(CapacityError) as want:
            for i in range(3):
                for aid in (f"uav{i}", f"ugv{i}"):
                    assemble_per_row(w, aid, 0.05 * k)
        assert str(exc.value) == str(want.value) == "uav1: 9 active rows exceed capacity 8"


def test_qp_entry_points_match_stacked_oracle():
    """project_with_box and solve_relaxed give the bits and iteration
    counts of the interleaved box encoding, on random problems whose
    polytopes are non-empty or empty, the relaxation using its slack."""
    rng = np.random.default_rng(5)
    empty = set()
    slack_used = 0
    for _ in range(2000):
        problem = random_problem(rng)
        outcomes = [(None if u is None else u.tobytes(), iters)
                    for u, iters in (project_with_box(*problem), stacked_project(*problem))]
        assert outcomes[0] == outcomes[1]
        empty.add(outcomes[0][0] is None)
        got, want = solve_relaxed(*problem), stacked_solve_relaxed(*problem)
        assert got.u_star.tobytes() == want.u_star.tobytes()
        assert got.iterations == want.iterations
        assert got.max_violation == want.max_violation
        slack_used += got.max_violation > 0
    assert empty == {False, True} and slack_used  # both projection outcomes


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


def random_matrix(rng, agent_id: str, dim: int, stamp: float,
                  infeasible: bool) -> ConstraintMatrix:
    """0-4 random rows, or a pair of rows no velocity satisfies
    (u_0 >= 0.4 and u_0 <= -0.4), which forces the slack relaxation."""
    if infeasible:
        e = np.eye(dim)[0]
        rows = [ConstraintRow(a=e, b=-0.4, kind=RowKind.UAV_UAV),
                ConstraintRow(a=-e, b=-0.4, kind=RowKind.UAV_UAV)]
    else:
        rows = [ConstraintRow(a=rng.normal(0.0, 1.0, dim),
                              b=float(rng.uniform(-0.5, 1.0)), kind=RowKind.UAV_UAV)
                for _ in range(rng.integers(0, 5))]
    return from_rows(agent_id, stamp, 8, dim, rows)


def message_run(rng, kind: str, hold_timeout: float):
    """A seeded sequence of (time, messages) for one control unit at 100 Hz.

    Updates arrive with up to 50 ms of latency, so some carry stamps older
    than the unit's and are ignored, and up to two land at one instant; some
    repeat the unit's stamp with new values; two silent gaps outlast
    hold_timeout; one matrix in five is infeasible; a touchdown
    acknowledgement comes at 80% of the run."""
    dim = 3 if kind == UAV else 2
    n_ticks = 400
    gaps = {int(rng.integers(40, 120)), int(rng.integers(200, 280))}
    latest = -math.inf
    silent_until = -1
    for k in range(n_ticks):
        t = k * 0.01
        if k in gaps:
            silent_until = k + round(hold_timeout / 0.01) + int(rng.integers(2, 10))
        messages = []
        for _ in range(2 if k > silent_until else 0):
            draw = rng.uniform()
            if draw < 0.5:
                continue
            if draw < 0.6 and latest > -math.inf:
                stamp = latest                              # equal stamp
            elif draw < 0.7 and latest > -math.inf:
                stamp = latest - 0.01                       # older: ignored
            else:
                stamp = t - float(rng.uniform(0.0, 0.05))
            latest = max(latest, stamp)
            update = (rng.uniform(-3.0, 3.0, 3),            # x, y, z or theta
                      rng.uniform(-3.0, 3.0, dim), rng.uniform(-0.3, 0.3, dim),
                      random_matrix(rng, f"{kind}0", dim, stamp, rng.uniform() < 0.2))
            messages.append(("update", update, stamp))
        if k == int(0.8 * n_ticks):
            messages.append(("touchdown", (), t))
        yield t, messages


def deliver(unit, what, value, stamp) -> None:
    if what == "update":
        unit.on_update(*value, stamp)
    else:
        unit.on_touchdown_ack()


def test_cached_control_unit_matches_per_tick_oracle():
    """Fed the same messages, the unit that solves once per kept update
    emits exactly the commands and telemetry of the one that solves on
    every tick, including holds, relaxations and the landed state."""
    for seed in range(6):
        for kind in (UAV, UGV):
            dim = 3 if kind == UAV else 2
            args = (f"{kind}0", kind, Gains.of(1.0, dim), PARAMS, 0.12)
            cached = AgentControlUnit(*args)
            oracle = UncachedControlUnit(*args)
            seen = []
            reused = 0
            for t, messages in message_run(np.random.default_rng(seed), kind, 0.12):
                for message in messages:
                    deliver(cached, *message)
                    deliver(oracle, *message)
                was_solved = bool(cached.lane.solved[0])
                got_cmd, got = cached.tick(t)
                want_cmd, want = oracle.tick(t)
                reused += was_solved and got.status in ("optimal", "relaxed")
                assert got_cmd.u.tobytes() == want_cmd.u.tobytes()
                assert got.u_applied.tobytes() == want.u_applied.tobytes()
                assert got_cmd.hold == want_cmd.hold
                assert (got.time, got.status, got.stale, got.qp_iterations,
                        got.max_violation) == (
                    want.time, want.status, want.stale, want.qp_iterations,
                    want.max_violation)
                seen.append(got.status)
            assert {"optimal", "relaxed", "hold"} <= set(seen)
            assert ("landed" in seen) == (kind == UAV)
            assert reused > 50  # ticks that reused a cached solution


def deliver_lane(control, k, what, value, stamp) -> None:
    """What the runner's router does with a message for unit k."""
    control.schedule.received[k] = True
    if what == "update":
        control.on_update(k, *value, stamp)
    else:
        control.on_touchdown_ack(k)


def test_scheduled_units_match_per_tick_oracle():
    """The units of a kind, held as arrays, ticked only when their schedule
    finds them due and filtered as one batch, hold exactly the commands and
    statuses of per-unit objects ticked on every control tick, through
    stale gaps, ignored old stamps, relaxations and a touchdown."""
    skipped = 0
    for seed in range(4):
        for kind, timeout in ((UAV, 0.12), (UGV, 0.09)):
            dim = 3 if kind == UAV else 2
            ids = [f"{kind}{k}" for k in range(3)]
            control = KindControl(ids, kind, Gains.of(1.0, dim), PARAMS, timeout)
            oracles = [UncachedControlUnit(aid, kind, Gains.of(1.0, dim), PARAMS, timeout)
                       for aid in ids]
            runs = [message_run(np.random.default_rng([seed, k]), kind, timeout)
                    for k in range(3)]
            for ticks in zip(*runs):
                t = ticks[0][0]
                for k, (_, messages) in enumerate(ticks):
                    for message in messages:
                        deliver_lane(control, k, *message)
                        deliver(oracles[k], *message)
                skipped += len(ids) - control.tick(t)
                for k, oracle in enumerate(oracles):
                    want_cmd, want = oracle.tick(t)
                    assert control.u[k].tobytes() == want_cmd.u.tobytes()
                    assert control.status[k] == want.status
    assert skipped > 1000


# Tolerance of a row whose largest gradient entry is at most 1.
TOL = 1e-10
EDGE_B = (-TOL, math.nextafter(-TOL, -1.0), math.nextafter(-TOL, 0.0))


@st.composite
def lane_fleets(draw):
    """One vehicle kind's units at one control instant, each in one of the
    states a unit can tick in, with its slots and a zero-padded matrix."""
    kind = draw(st.sampled_from([UAV, UGV]))
    dim = 3 if kind == UAV else 2
    coord = st.floats(-4.0, 4.0)
    units = []
    for _ in range(draw(st.integers(1, 12))):
        state = draw(st.sampled_from(
            ["fresh", "fresh", "fresh", "cached", "stale", "empty", "landed"]
            if kind == UAV else ["fresh", "fresh", "fresh", "cached", "stale", "empty"]))
        if kind == UAV:
            pose = draw(st.tuples(coord, coord, st.floats(0.0, 3.0)))
        else:  # headings beyond (-pi, pi], as noisy poses carry them
            theta = draw(st.sampled_from([math.pi, -math.pi, math.nextafter(math.pi, 4.0),
                                          3 * math.pi, -2.5 * math.pi])
                         | st.floats(-3 * math.pi, 3 * math.pi))
            pose = draw(st.tuples(coord, coord)) + (theta,)
        # at_setpoint: nominal input zero (or -0.0), and rows placed at -tol
        at_setpoint = draw(st.booleans())
        rate = draw(st.sampled_from([(0.0,) * dim, (-0.0,) * dim])
                    | st.tuples(*[st.floats(-0.5, 0.5)] * dim))
        rows = []
        for _ in range(draw(st.integers(0, 5))):
            a = draw(st.tuples(*[st.floats(-2.0, 2.0)] * dim))
            rows.append((a, draw(st.floats(-1.0, 1.5))))
        if at_setpoint:
            rate = draw(st.sampled_from([(0.0,) * dim, (-0.0,) * dim]))
            for b in draw(st.lists(st.sampled_from(EDGE_B), max_size=3)):
                axis = draw(st.integers(0, dim - 1))
                rows.append((tuple(float(j == axis) * draw(st.sampled_from([1.0, -1.0, 0.5]))
                                   for j in range(dim)), b))
        if rows and draw(st.booleans()):   # a duplicate row: an argmin tie
            rows.append(rows[draw(st.integers(0, len(rows) - 1))])
        if draw(st.integers(0, 5)) == 0:   # no velocity satisfies both: relaxed
            e = tuple(float(j == 0) for j in range(dim))
            rows += [(e, -0.4), (tuple(-x for x in e), -0.4)]
        setpoint = draw(st.tuples(*[coord] * dim))
        units.append((state, pose, at_setpoint, setpoint, rate, rows))
    return kind, units


_E = (1.0, 0.0, 0.0)
_HOME = ((0.0, 0.0, 1.0), False, (1.0, 0.0, 1.0), (0.0,) * 3)


# One batch with a landed, a stale, a cached, a relaxed, a binding and two
# trivially feasible units, one of them at the nominal input -0.0 and on
# two tied rows exactly at -tol.
@example((UAV, [("landed", *_HOME, []), ("stale", *_HOME, []), ("cached", *_HOME, []),
                ("fresh", *_HOME, [(_E, -0.4), ((-1.0, 0.0, 0.0), -0.4)]),
                ("fresh", *_HOME, [((-1.0, 0.0, 0.0), 0.5)]),
                ("fresh", (0.0, 0.0, 1.0), True, (0.0,) * 3, (-0.0,) * 3,
                 [(_E, -TOL), (_E, -TOL)]),
                ("fresh", *_HOME, [])]))
@settings(max_examples=200, deadline=None)
@given(lane_fleets())
def test_batched_instant_matches_scalar_units(fleet):
    """One control instant of a kind's units, ticked together, equals the
    per-unit reference ticked unit by unit: commands, statuses,
    iteration counts and slack, bit for bit, for landed, stale, cached,
    relaxed and fresh units in batches of 1 to 12 lanes.  A unit reaches
    project_with_box exactly when the reference's first feasibility check
    rejected its nominal input."""
    kind, units = fleet
    dim = 3 if kind == UAV else 2
    timeout, offset, t0, t1 = 0.2, 0.1, 1.0, 1.05
    ids = [f"{kind}{k}" for k in range(len(units))]
    control = KindControl(ids, kind, Gains.of(1.3, dim), PARAMS, timeout, offset)
    scalar = [ScalarControlUnit(aid, kind, Gains.of(1.3, dim), PARAMS, timeout, offset)
              for aid in ids]
    control.tick(t0)                        # every unit's first tick: a hold
    for k, (state, pose, at_setpoint, setpoint, rate, rows) in enumerate(units):
        if at_setpoint:
            point = np.array(pose) if kind == UAV else offset_points(np.array(pose), offset)
            setpoint = tuple(point.tolist())
        stamp = t1 - 0.5 if state == "stale" else t0
        matrix = from_rows(ids[k], stamp, 12, dim,
                           [ConstraintRow(a=np.array(a), b=b, kind=RowKind.UAV_UAV)
                            for a, b in rows])
        messages = [] if state == "empty" else [
            ("update", (pose, setpoint, rate, matrix), stamp)]
        if state == "landed":
            messages.append(("touchdown", (), stamp))
        for message in messages:
            deliver_lane(control, k, *message)
            deliver(scalar[k], *message)
    scans = []
    project = qp.project_with_box
    qp.project_with_box = lambda *args: scans.append(args) or project(*args)
    try:
        control.tick(t0)                    # the cached units solve here ...
        for k, (state, *_) in enumerate(units):
            if state != "cached":
                control.schedule.received[k] = True
        control.tick(t1)                    # ... and every other unit here
    finally:
        qp.project_with_box = project
    rejected = 0
    for k, unit in enumerate(scalar):
        cmd, tele = unit.tick(t1)
        assert control.u[k].tobytes() == cmd.u.tobytes()
        assert control.status[k] == tele.status
        if tele.status not in ("hold", "landed"):
            assert (control.sol_iters[k], control.sol_violation[k]) == (
                tele.qp_iterations, tele.max_violation)
            rejected += tele.status == "relaxed" or tele.qp_iterations > 1
    assert len(scans) == rejected


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(
    arrays(np.float64, n, elements=st.floats(-3.0, 3.0)),
    arrays(np.float64, st.tuples(st.integers(0, 8), st.just(n)),
           elements=st.floats(-2.0, 2.0)),
    st.floats(-1.5, 1.5), st.integers(0, 2**32 - 1))))
def test_first_step_matches_blocking_search(case):
    """_project's direct first step gives the bits, iteration counts and
    errors of the step through the blocking-step search, on random
    projections with the box and on ones with a NaN nominal input."""
    z, A, scale, seed = case
    rng = np.random.default_rng(seed)
    b = rng.normal(scale, 1.0, A.shape[0])
    n = len(z)
    A = np.concatenate([A, np.eye(n), -np.eye(n)])
    b = np.concatenate([b, np.full(2 * n, 1.0)])
    if seed % 7 == 0:
        z = z.copy()
        z[seed % n] = math.nan
    outcomes = []
    for project in (_project, project_reference):
        try:
            with np.errstate(invalid="ignore"):   # the NaN input's steps
                u, iters = project(z, A, b)
            outcomes.append((None if u is None else u.tobytes(), iters))
        except RuntimeError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def random_log_values(rng, shape) -> np.ndarray:
    """Log numbers with the formatting edge cases mixed in: -0.0,
    subnormals, magnitudes at and beyond 1e9, and ordinary values."""
    special = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e-300, 1e9, -1e9,
                        123456789.5, 9.999999995e9, -3.7e12, 1.234567891e15,
                        0.1, 1.0 / 3.0])
    values = rng.uniform(-20.0, 20.0, shape)
    pick = rng.uniform(size=shape) < 0.3
    values[pick] = rng.choice(special, int(pick.sum()))
    return values


# fmt9's edge cases as bit patterns: signed zeros, infinities, NaNs of both
# signs with default, signalling and other payloads, subnormals, 1e300.
LOG_EDGE_BITS = np.array(
    [0.0, -0.0, math.inf, -math.inf, 5e-324, -2.5e-310, 1e300, -1e300, 0.1, 1.0 / 3.0]
).view(np.uint64).tolist() + [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                               0xFFF4000000000123, 0x7FFFFFFFFFFFFFFF]


@st.composite
def log_arrays(draw):
    """Arrays of 1-3 dimensions filled from a pool of at most six bit
    patterns, edge cases and arbitrary floats, so values repeat heavily."""
    pool = draw(st.lists(st.sampled_from(LOG_EDGE_BITS)
                         | st.floats(width=64).map(lambda v: np.float64(v).view(np.uint64)),
                         min_size=1, max_size=6))
    shape = draw(array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=9))
    index = draw(arrays(np.intp, shape, elements=st.integers(0, len(pool) - 1)))
    return np.array(pool, dtype=np.uint64).view(float)[index]


@example(np.array(LOG_EDGE_BITS * 3, dtype=np.uint64).view(float).reshape(5, 9))
@settings(max_examples=300, deadline=None)
@given(log_arrays())
def test_fmt9_round_trip_matches_fmt9_per_value(values):
    """Each string is fmt9 of its value and each parsed value has the bits
    of float(fmt9(value)), in the input's shape."""
    text, parsed = fmt9_round_trip(values)
    assert text.shape == parsed.shape == values.shape
    assert parsed.dtype == float
    want = [fmt9(v) for v in values.ravel().tolist()]
    assert text.ravel().tolist() == want
    assert (parsed.ravel().view(np.uint64).tolist()
            == np.array(list(map(float, want)), dtype=float).view(np.uint64).tolist())


def _rounding_edges() -> list[float]:
    """Values on and next to 9-digit rounding boundaries: decimal halfway
    points (the double nearest each, and its neighbours), halfway points
    that are exact doubles, and boundaries that carry into a new digit."""
    halves = [float(f"{d}5e{e}") for d in (123456789, 100000000, 999999999, 314159265)
              for e in (-320, -310, -20, -9, 0, 5, 290)]
    exact = [123456789.5, 100000000.5, 999999999.5, 2.0 ** -30 * 3, 0.1 + 0.2]
    edges = halves + exact
    return edges + [math.nextafter(v, math.inf) for v in edges] + [
        math.nextafter(v, -math.inf) for v in edges]


FMT9_EDGES = (np.array(LOG_EDGE_BITS, dtype=np.uint64).view(float).tolist()
              + _rounding_edges() + [-v for v in _rounding_edges()])


@example(FMT9_EDGES)
@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(width=64) | st.sampled_from(FMT9_EDGES), max_size=30))
def test_fmt9_kernel_matches_str_format(values):
    """fmt9, and fmt9_round_trip's strings, equal "{:.9g}".format on signed
    zeros, NaNs of any payload, infinities, subnormals and values on
    9-digit rounding boundaries."""
    want = list(map("{:.9g}".format, values))
    assert list(map(fmt9, values)) == want
    assert fmt9_round_trip(np.array(values, dtype=float))[0].tolist() == want
    assert [fmt9(np.float64(v)) for v in values] == want
    assert fmt9(3) == "3" and fmt9(np.int64(-7)) == "-7"


def test_trajectory_writer_matches_per_agent_rows(tmp_path):
    """The block writer's lines equal the per-agent formatting of the same
    ticks, and its min_h column is evaluated from the same rounded states,
    for UAV and UGV rosters over several blocks."""
    rng = np.random.default_rng(11)
    statuses = ("optimal", "relaxed", "hold", "landed", "failed")

    def min_h(x, y, z, theta, landed):
        return np.where(landed | (x > 15.0), math.inf, x - y * z + np.abs(theta))

    for ids, kinds in ((("uav0", "ugv0"), ("uav", "ugv")),
                       (("uav0", "ugv0", "uav1", "ugv1", "uav2"),
                        ("uav", "ugv", "uav", "ugv", "uav")),
                       (("ugv3",), ("ugv",))):
        m = len(ids)
        writer = TrajectoryWriter(Roster(ids, kinds))
        n_ticks = 3 * (BLOCK_SAMPLES // m) + 7
        expected, block = [], []
        for tick in range(n_ticks):
            time_s = fmt9(tick * 0.02)
            logged = random_log_values(rng, (m, 4))
            inputs = random_log_values(rng, (m, 3))
            tick_statuses = [str(rng.choice(statuses)) for _ in ids]
            for k, kind in enumerate(kinds):  # what the runner logs per kind
                logged[k, 3 if kind == "uav" else 2] = 0.0
                if kind == "ugv":
                    inputs[k, 2] = 0.0
            writer.add_tick(time_s, logged, inputs, tick_statuses)
            block.append((time_s, logged.tolist(),
                          [u if kind == "uav" else u[:2]
                           for u, kind in zip(inputs.tolist(), kinds)],
                          tick_statuses))
            if writer.full() or tick == n_ticks - 1:
                def block_min_h(times, statuses, *states):
                    # The block's time strings and its statuses, tick by tick.
                    assert list(times) == [t for t, *_ in block]
                    assert list(statuses) == [s for *_, ss in block for s in ss]
                    return min_h(*states)
                writer.flush(block_min_h)
                expected += per_agent_trajectory_rows(block, ids, kinds, min_h)
                block = []
        path = tmp_path / "trajectory.csv"
        writer.write(str(path))
        lines = path.read_text().splitlines()
        assert lines[1:] == expected
        assert len(lines) == 1 + n_ticks * m
        assert any(line.endswith(",inf") for line in lines)
        assert any(",-0," in line for line in lines)


def test_fleet_integration_matches_per_agent_oracle():
    """The runner's fleet step (step_ugv, the UAV tracking lag, step_uav and
    the landed UAVs riding their platforms) against the per-agent loop over
    state objects, for 40 steps of random commands: every pose, position
    and tracked velocity equal, bit for bit.  Headings start on and next to
    +-pi and the turn rates carry them across it; the UGVs' offset-point
    velocities often imply turn rates beyond the clamp."""
    rng = np.random.default_rng(3)
    edges = [math.pi, math.nextafter(math.pi, 0.0), -math.pi + 1e-12,
             math.nextafter(-math.pi, 0.0) + 2 * math.pi, 0.0, -1e-300]
    crossed = 0
    for n, lag, dt, limit in ((1, 0.0, 0.01, 40.0), (6, 0.0, 0.01, 4.0),
                              (6, 0.1, 0.01, 40.0), (17, 0.05, 0.005, 40.0),
                              (17, 0.3, 0.02, 4.0)):
        cfg = SimpleNamespace(dt=dt, uav_velocity_lag=lag, platform_height=0.25,
                              ugv_offset=0.1, safety=SimpleNamespace(
                                  hover_clearance=0.2, turn_rate_limit=limit))
        deck_z = cfg.platform_height + cfg.safety.hover_clearance
        headings = rng.uniform(-math.pi, math.pi, n)
        headings[:min(n, len(edges))] = edges[:n]
        uav = rng.uniform(-5.0, 5.0, (n, 3))
        ugv = np.column_stack((rng.uniform(-5.0, 5.0, (n, 2)),
                               [wrap_angle(a) for a in headings.tolist()]))
        velocity = np.zeros((n, 3))
        uav_states = {f"uav{i}": UavState(p=uav[i].copy()) for i in range(n)}
        ugv_states = {f"ugv{i}": UgvState(*ugv[i].tolist(), offset=0.1) for i in range(n)}
        uav_velocity = {f"uav{i}": np.zeros(3) for i in range(n)}
        landed = np.zeros(n, dtype=bool)
        for step in range(40):
            u = rng.uniform(-1.0, 1.0, (n, 3))
            ugv_u = rng.uniform(-5.0, 5.0, (n, 2))
            ugv_u[rng.uniform(size=n) < 0.1] = 0.0   # held units
            if step in (5, 25):  # touchdowns; a landed UAV stays landed
                landed[(step // 20) * (n // 2)] = True
            commands = {f"uav{i}": Command(u=u[i].copy()) for i in range(n)}
            commands.update({f"ugv{i}": Command(u=ugv_u[i].copy()) for i in range(n)})
            before = ugv[:, 2].copy()
            uav, ugv, velocity = _integrate(uav, ugv, velocity, u, ugv_u,
                                            landed.copy(), cfg)
            integrate_per_agent(uav_states, ugv_states, uav_velocity, commands,
                                {f"uav{i}": bool(landed[i]) for i in range(n)},
                                dt, lag, deck_z, limit)
            crossed += int(np.sum(np.abs(ugv[:, 2] - before) > math.pi))
            for i in range(n):
                st = ugv_states[f"ugv{i}"]
                assert ugv[i].tobytes() == np.array([st.x, st.y, st.theta]).tobytes()
                assert uav[i].tobytes() == uav_states[f"uav{i}"].p.tobytes()
                assert velocity[i].tobytes() == uav_velocity[f"uav{i}"].tobytes()
            assert np.all((-math.pi < ugv[:, 2]) & (ugv[:, 2] <= math.pi))
            assert np.all(uav[landed, 2] == deck_z)
        assert landed.any() and (n == 1 or not landed.all())
    assert crossed > 20  # headings wrapped across +-pi
