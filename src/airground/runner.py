"""Deterministic virtual-time simulation loop.

Within one time instant the order is fixed: operator events, then network
deliveries, then the watcher tick (followed by a second delivery drain so
zero-latency traffic lands in the same instant), then every agent's control
tick, then kinematic integration.  All randomness flows from the scenario
seed through named substreams, so a config+seed pair reproduces its logs
byte for byte.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass

import numpy as np

from .agents import (UAV, UGV, AgentControlUnit, Command, Gains, UavState,
                     UgvState, step_ugv, step_uav)
from .config import ScenarioConfig
from .errors import CapacityError, SafetyAbortError
from .logfmt import fmt9
from .netsim import WATCHER_ID, LinkStats, MsgType, StarBus
from .summary import (CONFIG_FILE, METRICS_FILE, TRACE_FILE, TRAJECTORY_FILE,
                      TRAJECTORY_HEADER, WATCHER_FILE, WATCHER_HEADER,
                      MetricsSummary, PhysicsView, Roster, TickBlock,
                      summarize_dir, tick_barriers)
from .watcher import Watcher, WatcherRecord, WaypointTrack


@dataclass
class RunResult:
    out_dir: str
    metrics: MetricsSummary
    trajectory_path: str
    watcher_path: str
    trace_path: str | None
    touchdown_times: dict[int, float]
    watcher_records: list[WatcherRecord]
    link_stats: dict[str, LinkStats]
    relaxed_events: int = 0


class _Localization:
    """Edge-side position source: ground truth plus optional Gaussian noise."""

    def __init__(self, noise_std: float, seed: int):
        self._std = noise_std
        self._rng = np.random.default_rng(
            np.random.SeedSequence([seed, zlib.crc32(b"localization")]))

    def poses(self, uav_states: dict[str, UavState],
              ugv_states: dict[str, UgvState]) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for aid in sorted(uav_states):
            out[aid] = uav_states[aid].p.copy()
        for aid in sorted(ugv_states):
            st = ugv_states[aid]
            out[aid] = np.array([st.x, st.y, st.theta])
        if self._std > 0.0:
            for aid in sorted(out):
                out[aid] = out[aid] + self._rng.normal(0.0, self._std, out[aid].shape)
        return out


def _kind_count(record: WatcherRecord, kind: str) -> int:
    return record.kind_counts.get(kind, 0)


def run(cfg: ScenarioConfig, out_dir: str, trace: bool = False) -> RunResult:
    os.makedirs(out_dir, exist_ok=True)
    view = PhysicsView.from_config(cfg)

    uav_states: dict[str, UavState] = {}
    ugv_states: dict[str, UgvState] = {}
    units: dict[str, AgentControlUnit] = {}
    tracks: dict[str, WaypointTrack] = {}
    for i in range(cfg.n_pairs):
        uid, gid = f"uav{i}", f"ugv{i}"
        uav_states[uid] = UavState(p=cfg.uavs[i].start.copy())
        ugv_states[gid] = UgvState(
            x=float(cfg.ugvs[i].start[0]), y=float(cfg.ugvs[i].start[1]),
            theta=float(cfg.ugvs[i].start[2]),
            offset=cfg.ugv_offset, wheel_base=cfg.wheel_base,
        )
        tracks[uid] = WaypointTrack(cfg.uavs[i].waypoints, cfg.uavs[i].speed)
        tracks[gid] = WaypointTrack(cfg.ugvs[i].waypoints, cfg.ugvs[i].speed)
        units[uid] = AgentControlUnit(uid, UAV, Gains.of(cfg.gains_uav, 3),
                                      cfg.safety, cfg.hold_timeout)
        units[gid] = AgentControlUnit(gid, UGV, Gains.of(cfg.gains_ugv, 2),
                                      cfg.safety, cfg.hold_timeout,
                                      offset=cfg.ugv_offset,
                                      wheel_base=cfg.wheel_base)

    max_latency = cfg.network.base_latency + cfg.network.jitter
    coordinator = Watcher(
        cfg.n_pairs, cfg.safety, cfg.capacity, tracks,
        platform_height=cfg.platform_height, ugv_offset=cfg.ugv_offset,
        period=1.0 / cfg.watcher_rate, max_latency=max_latency,
        activation_margin=cfg.watcher.activation_margin,
        smoothing=cfg.watcher.smoothing,
        touchdown_radius_sq=cfg.watcher.touchdown_radius_sq,
        touchdown_height=cfg.watcher.touchdown_height,
        touchdown_hold=cfg.watcher.touchdown_hold,
    )
    trace_lines: list[str] | None = [] if trace else None
    bus = StarBus(cfg.agent_ids(), cfg.network, cfg.seed, trace=trace_lines)
    localization = _Localization(cfg.localization_noise, cfg.seed)

    agent_ids = cfg.agent_ids()
    kinds = tuple(aid[:3] for aid in agent_ids)
    roster = Roster(tuple(agent_ids), kinds)
    # Control ticks whose min_h is not yet evaluated: their states, and
    # their trajectory lines up to the min_h column.
    block = TickBlock(roster)
    pending_lines: list[str] = []
    commands: dict[str, Command] = {
        aid: Command(u=np.zeros(3 if aid.startswith("uav") else 2))
        for aid in agent_ids
    }
    # Low-level tracking state: the velocity a UAV actually flies (first-order
    # lag toward the command when uav_velocity_lag > 0, else the command).
    uav_velocity: dict[str, np.ndarray] = {
        f"uav{i}": np.zeros(3) for i in range(cfg.n_pairs)
    }
    traj_lines: list[str] = [TRAJECTORY_HEADER]
    watcher_lines: list[str] = [WATCHER_HEADER]
    watcher_records: list[WatcherRecord] = []
    events = list(cfg.events)
    event_idx = 0
    relaxed_events = 0

    steps_ctrl = cfg.steps_per_control()
    steps_watch = cfg.steps_per_watcher()
    total = round(cfg.duration / cfg.dt)

    def route(messages):
        # A LANDING_SIGNAL needs no action here: the watcher has already
        # switched the UAV's setpoint stream to the platform.
        for msg in messages:
            unit = units[msg.dst]
            if msg.msg_type is MsgType.POSE_UPDATE:
                unit.on_pose(msg.payload, msg.send_time)
            elif msg.msg_type is MsgType.SETPOINT_UPDATE:
                unit.on_setpoint(msg.payload[0], msg.payload[1], msg.send_time)
            elif msg.msg_type is MsgType.CONSTRAINT_UPDATE:
                unit.on_constraints(msg.payload, msg.send_time)
            elif msg.msg_type is MsgType.TOUCHDOWN_ACK:
                unit.on_touchdown_ack()

    def flush_block():
        per_agent, _, _ = tick_barriers(view, roster, *block.arrays())
        for line, h in zip(pending_lines, per_agent.ravel().tolist()):
            traj_lines.append(line + fmt9(h))
        pending_lines.clear()
        block.clear()

    def dump_state(step, t, reason):
        dump = {
            "step": step, "time": t, "reason": reason,
            "uavs": {aid: list(map(float, st.p)) for aid, st in uav_states.items()},
            "ugvs": {aid: [st.x, st.y, st.theta] for aid, st in ugv_states.items()},
        }
        path = os.path.join(out_dir, "state_dump.json")
        with open(path, "w") as f:
            json.dump(dump, f, indent=2, sort_keys=True)
        return path

    for step in range(total + 1):
        t = step * cfg.dt

        while event_idx < len(events) and events[event_idx].time <= t + 1e-12:
            coordinator.handle_landing_signal(events[event_idx].pair, t)
            event_idx += 1

        route(bus.deliver_due(t))

        if step % steps_watch == 0:
            try:
                outbound, records = coordinator.tick(
                    t, localization.poses(uav_states, ugv_states))
            except CapacityError as exc:
                path = dump_state(step, t, f"watcher: {exc}")
                raise SafetyAbortError(
                    f"watcher failed at t={t}: {exc} (state dump: {path})")
            for ob in outbound:
                bus.send(ob.msg_type, WATCHER_ID, ob.dst, ob.payload, t)
            watcher_records.extend(records)
            t_str = fmt9(t)
            for rec in records:
                watcher_lines.append(
                    f"{t_str},{rec.agent_id},{rec.phase},{rec.active_count},"
                    f"{_kind_count(rec, 'workspace')},"
                    f"{_kind_count(rec, 'uav_other_ugv')},"
                    f"{_kind_count(rec, 'landing')},"
                    f"{_kind_count(rec, 'uav_uav')},"
                    f"{_kind_count(rec, 'ugv_ugv')},"
                    f"{';'.join(rec.proximal)}"
                )
            route(bus.deliver_due(t))  # zero-latency traffic lands this instant

        if step % steps_ctrl == 0:
            telemetry = {}
            for aid in agent_ids:
                try:
                    command, tele = units[aid].tick(t)
                except (RuntimeError, np.linalg.LinAlgError) as exc:
                    path = dump_state(step, t, f"{aid}: {exc}")
                    raise SafetyAbortError(
                        f"safety filter failed for {aid} at t={t}: {exc} "
                        f"(state dump: {path})")
                commands[aid] = command
                telemetry[aid] = tele
                if tele.status == "relaxed":
                    relaxed_events += 1

            t_str = fmt9(t)
            states = []
            for aid, kind in zip(agent_ids, kinds):
                if kind == "uav":
                    st = uav_states[aid]
                    strs = (fmt9(st.p[0]), fmt9(st.p[1]), fmt9(st.p[2]), fmt9(0.0))
                else:
                    st = ugv_states[aid]
                    strs = (fmt9(st.x), fmt9(st.y), fmt9(0.0), fmt9(st.theta))
                tele = telemetry[aid]
                states.append((float(strs[0]), float(strs[1]), float(strs[2]),
                               float(strs[3]), tele.status == "landed"))
                u = tele.u_applied
                ux, uy = fmt9(u[0]), fmt9(u[1])
                uz = fmt9(u[2]) if len(u) == 3 else fmt9(0.0)
                sx, sy, sz, sth = strs
                pending_lines.append(
                    f"{t_str},{aid},{kind},{sx},{sy},{sz},{sth},"
                    f"{ux},{uy},{uz},{tele.status},"
                )
            block.add_tick(*zip(*states))
            if block.full():
                flush_block()

        if step < total:
            for i in range(cfg.n_pairs):
                gid = f"ugv{i}"
                cmd = commands[gid]
                ugv_states[gid] = step_ugv(ugv_states[gid], cmd.v, cmd.omega, cfg.dt)
            for i in range(cfg.n_pairs):
                uid = f"uav{i}"
                if units[uid].landed:
                    st = ugv_states[f"ugv{i}"]
                    uav_states[uid] = UavState(p=np.array(
                        [st.x, st.y, cfg.platform_height + cfg.safety.hover_clearance]))
                    uav_velocity[uid] = np.zeros(3)
                elif cfg.uav_velocity_lag > 0.0:
                    alpha = cfg.dt / cfg.uav_velocity_lag
                    uav_velocity[uid] = (uav_velocity[uid]
                                         + alpha * (commands[uid].u - uav_velocity[uid]))
                    uav_states[uid] = step_uav(uav_states[uid], uav_velocity[uid], cfg.dt)
                else:
                    uav_states[uid] = step_uav(uav_states[uid], commands[uid].u, cfg.dt)

    if block.ticks:
        flush_block()
    trajectory_path = os.path.join(out_dir, TRAJECTORY_FILE)
    with open(trajectory_path, "w") as f:
        f.write("\n".join(traj_lines) + "\n")
    watcher_path = os.path.join(out_dir, WATCHER_FILE)
    with open(watcher_path, "w") as f:
        f.write("\n".join(watcher_lines) + "\n")
    trace_path = None
    if trace_lines is not None:
        trace_path = os.path.join(out_dir, TRACE_FILE)
        with open(trace_path, "w") as f:
            f.write("\n".join(trace_lines) + ("\n" if trace_lines else ""))
    with open(os.path.join(out_dir, CONFIG_FILE), "w") as f:
        f.write(cfg.to_yaml())

    metrics = summarize_dir(out_dir)  # also cross-checks the log we just wrote
    with open(os.path.join(out_dir, METRICS_FILE), "w") as f:
        f.write(metrics.to_json() + "\n")

    return RunResult(
        out_dir=out_dir, metrics=metrics, trajectory_path=trajectory_path,
        watcher_path=watcher_path, trace_path=trace_path,
        touchdown_times=dict(coordinator.touchdown_times),
        watcher_records=watcher_records, link_stats=bus.link_stats(),
        relaxed_events=relaxed_events,
    )
