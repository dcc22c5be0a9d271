"""Pinned benchmark workloads.

Each workload is a pure function of its seed that returns the plain scenario
dict handed to ``airground.config_from_dict``.  The definitions live here,
not in ``tests/`` or ``scenarios/``, so editing the test helpers or the
example scenarios cannot change what the benchmark measures.

* ``cross3``  -- the three-pair crossing scenario with a lossy link.  Small N:
  per-agent constant costs (agent tick, QP, bus, log formatting) dominate.
* ``land4``   -- four pairs landing on moving platforms at 100 Hz control:
  the only workload that runs the landing phases and the landed path.
* ``grid64``  -- 64 pairs on a lattice where every UAV swaps with its column
  neighbour and every UGV with its row neighbour: all-pairs gating,
  ``proximal_set`` and per-tick barrier evaluation dominate.
"""

from __future__ import annotations

import copy
import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
CROSSING_YAML = os.path.join(HERE, "scenarios", "crossing_three.yaml")
# sha256 of scenarios/crossing_three.yaml at the commit that defined the
# benchmark; the copy under bench/ must never drift from it.
CROSSING_SHA256 = "df43d517bc335487eb135808381cdcafca10bc97570ba2d644bcecd3acac0c29"

# Per-family tolerance on the worst barrier value of a run (same values as
# the acceptance suite's forward-invariance criterion).
SEPARATIONS = {"uav_uav": 0.5, "uav_other_ugv": 0.7, "ugv_ugv": 1.0}
INVARIANCE_TOL = {
    "workspace": 1e-3,
    "landing": 1e-3,
    "uav_uav": max(1e-3, 0.01 * SEPARATIONS["uav_uav"]),
    "uav_other_ugv": max(1e-3, 0.01 * SEPARATIONS["uav_other_ugv"]),
    "ugv_ugv": max(1e-3, 0.01 * SEPARATIONS["ugv_ugv"]),
}
LANDING_DEADLINE_S = 40.0

DEFAULT_SAFETY = {
    "uav_separation": 0.5,
    "uav_ugv_separation": 0.7,
    "ugv_separation": 1.0,
    "funnel_sharpness": 1.0,
    "funnel_height": 0.5,
    "hover_clearance": 0.2,
    "barrier_gain": 1.0,
    "uav_speed_limit": 1.0,
    "ugv_speed_limit": 0.6,
    "turn_rate_limit": 4.0,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], dict]   # seed -> scenario dict
    lands: bool = False            # every pair must touch down in time
    grid: bool = False             # pairwise activity floor is asserted


def _base(n_pairs: int, duration: float, seed: int) -> dict:
    return {
        "pairs": n_pairs,
        "dt": 0.01,
        "duration": duration,
        "seed": seed,
        "control_rate": 50.0,
        "watcher_rate": 20.0,
        "hold_timeout": 0.25,
        "platform_height": 0.0,
        "ugv_offset": 0.1,
        "wheel_base": 0.2,
        "workspace": {"x": [-8, 8], "y": [-8, 8], "z": [0, 3]},
        "safety": copy.deepcopy(DEFAULT_SAFETY),
        "gains": {"uav": 1.0, "ugv": 1.0},
        "network": {"latency": 0.0, "jitter": 0.0, "drop": 0.0},
        "agents": [],
        "events": [],
    }


def crossing_three(seed: int) -> dict:
    """The pinned crossing scenario; the seed replaces only the scenario
    seed, which drives the link loss and jitter streams."""
    with open(CROSSING_YAML, "rb") as f:
        text = f.read()
    digest = hashlib.sha256(text).hexdigest()
    if digest != CROSSING_SHA256:
        raise ValueError(f"{CROSSING_YAML} changed: sha256 {digest}")
    data = yaml.safe_load(text)
    data["seed"] = int(seed)
    return data


def landing(n_pairs: int, seed: int, ugv_speed: float, signal_time: float,
            duration: float) -> dict:
    """UGVs cruise on long straight lanes; each UAV starts offset from its
    platform and gets a landing signal, staggered by 0.5 s per pair."""
    rng = np.random.default_rng(seed)
    data = _base(n_pairs, duration, seed)
    data["safety"] = dict(DEFAULT_SAFETY, uav_speed_limit=1.2,
                          ugv_speed_limit=0.65, barrier_gain=2.0)
    data["control_rate"] = 100.0
    data["gains"] = {"uav": 1.2, "ugv": 1.0}
    agents = []
    lane_gap = 2.2
    for i in range(n_pairs):
        y = (i - (n_pairs - 1) / 2) * lane_gap
        x0 = -6.0 + rng.uniform(0, 0.5)
        ugv = {
            "start": [float(x0), float(y), 0.0],
            "waypoints": [[7.0, float(y)], [float(x0), float(y)]],
            "speed": float(ugv_speed),
        }
        ux = x0 + 2.0 + rng.uniform(0, 1.0)
        uy = y + rng.uniform(-0.6, 0.6)
        uav = {
            "start": [float(ux), float(uy), float(1.2 + 0.2 * (i % 2))],
            "waypoints": [[float(ux), float(uy), 1.2]],
            "speed": 0.0,
        }
        agents.append({"uav": uav, "ugv": ugv})
    data["agents"] = agents
    data["events"] = [{"time": signal_time + 0.5 * i, "type": "landing", "pair": i}
                      for i in range(n_pairs)]
    return data


GRID_SPACING = 2.0      # lattice pitch (m)
GRID_MARGIN = 1.5       # wall clearance around the lattice (m)
GRID_PASS_OFFSET = 0.15 # each mover aims this far to its right of its partner


def grid(n_pairs: int, seed: int, duration: float) -> dict:
    """Pairs on a square lattice whose workspace grows with N.

    UGV k sits on lattice point (row, col); its UAV hovers over the cell
    centre up and right of it.  Columns pair up (0-1, 2-3, ...) and every UAV
    shuttles to its partner column's position; rows pair up the same way for
    the UGVs.  Partners therefore meet head-on, each aiming slightly to its
    right and the UAVs at different altitudes, so gates open and QP rows
    bind across the whole fleet without a symmetric stall.  The seed only
    jitters positions by a few centimetres.
    """
    rng = np.random.default_rng(seed)
    side = math.ceil(math.sqrt(n_pairs))
    s = GRID_SPACING
    half = side * s / 2 + GRID_MARGIN
    data = _base(n_pairs, duration, seed)
    data["workspace"] = {"x": [-half, half], "y": [-half, half], "z": [0, 3]}

    def lattice(row: int, col: int) -> tuple[float, float]:
        return (col - (side - 1) / 2) * s, (row - (side - 1) / 2) * s

    def partner(index: int) -> int:
        # the last column/row of an odd lattice pairs backwards
        return index + 1 if index % 2 == 0 and index + 1 < side else index - 1

    agents = []
    for k in range(n_pairs):
        row, col = divmod(k, side)
        jx, jy = rng.uniform(-0.05, 0.05, 2)
        gx, gy = lattice(row, col)
        gx, gy = gx + jx, gy + jy
        tx, ty = lattice(partner(row), col)
        sign = 1.0 if partner(row) > row else -1.0   # driving +y or -y
        tx += sign * GRID_PASS_OFFSET                 # keep to the right
        heading = math.atan2(ty - gy, tx - gx)
        ugv = {"start": [gx, gy, heading],
               "waypoints": [[tx, ty], [gx, gy]], "speed": 0.35}

        ux, uy = gx + s / 2, gy + s / 2
        uz = 1.0 + 0.2 * (col % 2) + float(rng.uniform(0.0, 0.05))
        px, py = lattice(row, partner(col))
        px, py = px + s / 2, py + s / 2
        sign = 1.0 if partner(col) > col else -1.0   # flying +x or -x
        py -= sign * GRID_PASS_OFFSET
        pz = 1.0 + 0.2 * (partner(col) % 2)
        uav = {"start": [ux, uy, uz],
               "waypoints": [[px, py, pz], [ux, uy, uz]], "speed": 0.6}
        agents.append({"uav": _floats(uav), "ugv": _floats(ugv)})
    data["agents"] = agents
    return data


def _floats(spec: dict) -> dict:
    """Plain Python floats: run() writes the scenario back out with
    yaml.safe_dump, which rejects numpy scalars."""
    out = dict(spec)
    out["start"] = [float(x) for x in spec["start"]]
    out["waypoints"] = [[float(x) for x in w] for w in spec["waypoints"]]
    return out


CROSS3_WHY = ("N=3 crossing over a lossy link (20 ms, 5 ms jitter, 2% drop): "
              "agents+qp+netsim are 45% of traced run() self time; pairwise "
              "work is tiny, so fleet-geometry changes should not move it")
LAND4_WHY = ("4 pairs land on moving platforms at 100 Hz control: landing "
             "phases, touchdowns and the landed path (42% of agent ticks); "
             "runner logging is its largest layer")
GRID64_WHY = ("N=64 lattice of neighbour swaps: watcher+summary are 74% of "
              "traced run() self time (all-pairs gating, proximal_set, "
              "barrier recheck); moves sim_rate and summarize_s")

LAND4_DURATION = 40.0
GRID64_DURATION = 1.0

WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload("cross3", CROSS3_WHY, crossing_three),
        Workload("land4", LAND4_WHY,
                 lambda seed: landing(4, seed, ugv_speed=0.45, signal_time=2.0,
                                      duration=LAND4_DURATION),
                 lands=True),
        Workload("grid64", GRID64_WHY,
                 lambda seed: grid(64, seed, GRID64_DURATION), grid=True),
    )
}
