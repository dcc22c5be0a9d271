"""Deterministic virtual-time simulation loop.

Within one time instant the order is fixed: operator events, then network
deliveries, then the watcher tick (followed by a second delivery drain so
zero-latency traffic lands in the same instant), then the control ticks,
then kinematic integration, in which each UGV maps its unit's held
offset-point velocity through its current heading (agents.step_ugv) and
the landed UAVs ride their decks, written by the index their units keep
(KindControl.landed_rows) as the updates' landed bits reach them.  The
control units of a vehicle kind are one agents.KindControl, written by the
message router from a per-agent table of unit index and handler, one
handler call per message: the watcher's one update per agent per tick.  A
kind's control tick runs only when a message reached it or one of its
updates went stale, and then filters the units without a cached solution
as one batch; otherwise every unit holds its last command.  All
randomness flows from the scenario seed through named substreams, so a
config+seed pair reproduces its logs byte for byte.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass

import numpy as np

from .agents import (UAV, UGV, FilterError, KindControl, step_ugv, step_uav,
                     wrap_angle)
from .config import ScenarioConfig
from .errors import CapacityError, InvalidInputError, SafetyAbortError
from .logfmt import fmt9
from .netsim import WATCHER_ID, LinkStats, StarBus
# run() no longer calls summarize_dir; bench/ still looks it up on this module.
from .summary import (CONFIG_FILE, METRICS_FILE, TRACE_FILE, TRAJECTORY_FILE,
                      WATCHER_FILE, WATCHER_HEADER, MetricsFold, MetricsSummary,
                      TrajectoryWriter, summarize_dir, tick_barriers)
from .watcher import Watcher, WatcherRecord


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


def _integrate(uav, ugv, velocity, u, ugv_u, landed, cfg: ScenarioConfig):
    """One dt of kinematics for the whole fleet.

    UGV poses (x, y, theta) move under their held offset-point velocities
    ugv_u, mapped through each vehicle's current heading (step_ugv).  A UAV
    flies its tracked velocity: a first-order lag toward its command u when
    uav_velocity_lag > 0, else the command itself.  The landed UAVs ride
    their platforms at hover clearance above the deck, with zero tracked
    velocity; landed is their index as KindControl.landed_rows keeps it
    (None while none has landed, slice(None) once all have, so a fully
    landed fleet is written by slice).  Returns the new UAV positions, UGV
    poses and tracked velocities."""
    ugv = step_ugv(ugv, ugv_u, cfg.ugv_offset, cfg.safety.turn_rate_limit, cfg.dt)
    if cfg.uav_velocity_lag > 0.0:
        alpha = cfg.dt / cfg.uav_velocity_lag
        velocity = velocity + alpha * (u - velocity)
        u = velocity
    uav = step_uav(uav, u, cfg.dt)
    if landed is not None:
        velocity[landed] = 0.0
        uav[landed, :2] = ugv[landed, :2]
        uav[landed, 2] = cfg.platform_height + cfg.safety.hover_clearance
    return uav, ugv, velocity


def run(cfg: ScenarioConfig, out_dir: str, trace: bool = False) -> RunResult:
    # Rendered before any output is opened, so a scenario that YAML cannot
    # write (InvalidInputError) fails here rather than after the run.
    config_text = cfg.to_yaml()
    os.makedirs(out_dir, exist_ok=True)
    n = cfg.n_pairs
    agent_ids = cfg.agent_ids()

    # The fleet, indexed by pair: UAV positions, UGV poses (x, y, theta),
    # the velocities the UAVs actually fly, and the latest commands.
    uav = np.array([spec.start for spec in cfg.uavs], dtype=float)
    ugv = np.array([spec.start for spec in cfg.ugvs], dtype=float)
    ugv[:, 2] = [wrap_angle(a) for a in ugv[:, 2].tolist()]
    uav_velocity = np.zeros((n, 3))

    # The control units of each kind, indexed by pair; their latest
    # commands (uavs.u, ugvs.u) drive the integration.
    uavs = KindControl(agent_ids[0::2], UAV, cfg.gains_uav, cfg.safety, cfg.hold_timeout)
    ugvs = KindControl(agent_ids[1::2], UGV, cfg.gains_ugv, cfg.safety, cfg.hold_timeout,
                       offset=cfg.ugv_offset)
    # Per agent: its unit's index and update handler.
    routes = {aid: (i, control.on_update)
              for control in (uavs, ugvs) for i, aid in enumerate(control.ids)}

    max_latency = cfg.network.base_latency + cfg.network.jitter
    coordinator = Watcher(
        n, cfg.safety, cfg.capacity,
        [(s.waypoints, s.speed) for pair in zip(cfg.uavs, cfg.ugvs) for s in pair],
        platform_height=cfg.platform_height, ugv_offset=cfg.ugv_offset,
        period=1.0 / cfg.watcher_rate, max_latency=max_latency,
        **vars(cfg.watcher))
    trace_lines: list[str] | None = [] if trace else None
    bus = StarBus(agent_ids, cfg.network, cfg.seed, trace=trace_lines)
    # Localization noise, one (2n, 3) draw per watcher tick: row k perturbs
    # sorted(agent_ids)[k] (uav0, uav1, uav10, ..., ugv0, ...), the order
    # that fixes the stream.
    noise_rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, zlib.crc32(b"localization")]))
    rank = {aid: k for k, aid in enumerate(sorted(agent_ids))}
    uav_rows = [rank[f"uav{i}"] for i in range(n)]
    ugv_rows = [rank[f"ugv{i}"] for i in range(n)]

    writer = TrajectoryWriter(agent_ids)
    fold = MetricsFold(n)
    # What each agent's trajectory row logs: (x, y, z, theta), with z = 0
    # for a UGV and theta = 0 for a UAV, the applied input padded to 3 with
    # zeros, and the status of the unit's last tick.
    logged = np.zeros((2 * n, 4))
    u_logged = np.zeros((2 * n, 3))
    statuses = ["hold"] * (2 * n)
    watcher_lines: list[str] = [WATCHER_HEADER]   # the header, then one chunk per tick
    # A watcher.csv line is its time and a tail that follows from the
    # watcher's gate tables alone: (tables, tails) of the last build.
    tails_of: tuple = (None, [])
    watcher_records: list[WatcherRecord] = []
    events = list(cfg.events)
    event_idx = 0

    steps_ctrl = cfg.steps_per_control()
    steps_watch = cfg.steps_per_watcher()
    total = cfg.total_steps()

    def route(messages):
        for msg in messages:
            i, on_update = routes[msg.dst]
            on_update(i, *msg.payload, msg.send_time)

    def min_h(times, statuses, *block):
        """The writer's min_h: folds a flushed block into the metrics.  The
        states a reader of the log sees must be finite; step and t are the
        loop's at the flush."""
        if not (np.isfinite(block[:4]).all()
                and np.isfinite(np.array(times, dtype=float)).all()):
            raise abort(step, t, "non-finite logged state",
                        f"non-finite state logged by t={t}")
        per_agent, family, dist = tick_barriers(cfg, *block)
        fold.barriers(family, dist)
        fold.ticks(times, statuses)
        return per_agent

    def abort(step, t, reason, message):
        """Writes state_dump.json; returns the SafetyAbortError to raise."""
        dump = {
            "step": step, "time": t, "reason": reason,
            "uavs": {f"uav{i}": p for i, p in enumerate(uav.tolist())},
            "ugvs": {f"ugv{i}": p for i, p in enumerate(ugv.tolist())},
        }
        path = os.path.join(out_dir, "state_dump.json")
        with open(path, "w") as f:
            json.dump(dump, f, indent=2, sort_keys=True)
        return SafetyAbortError(f"{message} (state dump: {path})")

    for step in range(total + 1):
        t = step * cfg.dt

        while event_idx < len(events) and events[event_idx].time <= t + 1e-12:
            coordinator.handle_landing_signal(events[event_idx].pair)
            event_idx += 1

        route(bus.deliver_due(t))

        if step % steps_watch == 0:
            seen_uav, seen_ugv = uav, ugv
            if cfg.localization_noise > 0.0:
                noise = noise_rng.normal(0.0, cfg.localization_noise, (2 * n, 3))
                seen_uav, seen_ugv = uav + noise[uav_rows], ugv + noise[ugv_rows]
            try:
                outbound, records = coordinator.tick(t, seen_uav, seen_ugv)
            except (CapacityError, InvalidInputError) as exc:
                raise abort(step, t, f"watcher: {exc}",
                            f"watcher failed at t={t}: {exc}")
            for dst, payload in outbound:
                bus.send(WATCHER_ID, dst, payload, t)
            watcher_records += records
            if coordinator.tables is not tails_of[0]:
                # Row counts in column order, then the proximal set.
                tails_of = coordinator.tables, [
                    f",{rec.agent_id},{rec.phase},{rec.active_count},{k.get('workspace', 0)},"
                    f"{k.get('uav_other_ugv', 0)},{k.get('landing', 0)},{k.get('uav_uav', 0)},"
                    f"{k.get('ugv_ugv', 0)},{';'.join(rec.proximal)}"
                    for rec in records for k in [rec.kind_counts]]
            t_str = fmt9(t)
            watcher_lines.append(t_str + ("\n" + t_str).join(tails_of[1]))
            route(bus.deliver_due(t))  # zero-latency traffic lands this instant

        if step % steps_ctrl == 0:
            try:
                ticked = uavs.tick(t) | ugvs.tick(t)
            except FilterError as exc:
                raise abort(step, t, str(exc), f"safety filter failed for "
                            f"{exc.agent_id} at t={t}: {exc.cause}")
            if ticked:
                u_logged[0::2], u_logged[1::2, :2] = uavs.u, ugvs.u
                statuses[0::2], statuses[1::2] = uavs.status, ugvs.status
            logged[0::2, :3] = uav
            logged[1::2, :2] = ugv[:, :2]
            logged[1::2, 3] = ugv[:, 2]
            writer.add_tick(fmt9(t), logged, u_logged, statuses)
            if writer.full():
                writer.flush(min_h)

        if step < total:
            uav, ugv, uav_velocity = _integrate(uav, ugv, uav_velocity, uavs.u, ugvs.u,
                                                uavs.landed_rows, cfg)

    writer.flush(min_h)
    trajectory_path = os.path.join(out_dir, TRAJECTORY_FILE)
    writer.write(trajectory_path)
    watcher_path = os.path.join(out_dir, WATCHER_FILE)
    with open(watcher_path, "w") as f:
        f.write("\n".join(watcher_lines) + "\n")
    trace_path = None
    if trace_lines is not None:
        trace_path = os.path.join(out_dir, TRACE_FILE)
        with open(trace_path, "w") as f:
            f.write("\n".join(trace_lines) + ("\n" if trace_lines else ""))
    with open(os.path.join(out_dir, CONFIG_FILE), "w") as f:
        f.write(config_text)

    # The metrics come from the loop; `airground summarize` (summarize_dir)
    # re-derives them from the files above as an independent check.
    fold.rows((rec.agent_id, rec.active_count) for rec in watcher_records)
    link_stats = bus.link_stats()
    if trace:  # what the trace records
        fold.links(link_stats)
    metrics = fold.result()
    with open(os.path.join(out_dir, METRICS_FILE), "w") as f:
        f.write(metrics.to_json() + "\n")

    return RunResult(
        out_dir=out_dir, metrics=metrics, trajectory_path=trajectory_path,
        watcher_path=watcher_path, trace_path=trace_path,
        touchdown_times=dict(coordinator.touchdown_times),
        watcher_records=watcher_records, link_stats=link_stats,
        relaxed_events=metrics.status_counts.get("relaxed", 0),
    )
