"""Programmatic scenario builders shared by the runner and acceptance tests."""

import copy
import math

import numpy as np

from airground.config import ScenarioConfig, config_from_dict

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


def base_dict(n_pairs: int, duration: float = 5.0, seed: int = 0) -> dict:
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


def single_pair(duration=5.0, seed=0, uav_waypoints=None, ugv_waypoints=None,
                uav_speed=0.0, ugv_speed=0.0, **overrides) -> ScenarioConfig:
    data = base_dict(1, duration, seed)
    data["agents"] = [{
        "uav": {"start": [0.0, 0.0, 1.0],
                "waypoints": uav_waypoints or [[0.0, 0.0, 1.0]],
                "speed": uav_speed},
        "ugv": {"start": [1.5, 0.0, 0.0],
                "waypoints": ugv_waypoints or [[1.6, 0.0]],
                "speed": ugv_speed},
    }]
    data.update(overrides)
    return config_from_dict(data)


def ring_positions(n: int, radius: float, jitter: float, rng) -> list[np.ndarray]:
    out = []
    for i in range(n):
        phi = 2 * math.pi * i / n + rng.uniform(-jitter, jitter)
        r = radius * (1 + rng.uniform(-0.08, 0.08))
        out.append(np.array([r * math.cos(phi), r * math.sin(phi)]))
    return out


def _rotate(p: np.ndarray, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([c * p[0] - s * p[1], s * p[0] + c * p[1]])


def crossing_scenario(n_pairs: int, seed: int, duration: float = 60.0,
                      **overrides) -> ScenarioConfig:
    """Agents spawn on a ring and cross to the far side.

    UAVs cross at distinct altitudes through the shared center.  UGV targets
    are their antipodes rotated by a fixed angle: every pair of chords still
    intersects (endpoints interleave around the ring), but the conflicts
    arrive pairwise and staggered instead of as one simultaneous pile-up at
    the center.  Jitter breaks exact symmetry so the projection filter never
    stalls on a perfectly balanced conflict.
    """
    rng = np.random.default_rng(seed)
    data = base_dict(n_pairs, duration, seed)
    uav_ring = ring_positions(n_pairs, 3.0, 0.25, rng)
    ugv_ring = ring_positions(n_pairs, 4.5, 0.25, rng)
    agents = []
    for i in range(n_pairs):
        z0 = 0.9 + 0.25 * (i % 3) + rng.uniform(0, 0.1)
        z1 = 0.9 + 0.25 * ((i + 1) % 3) + rng.uniform(0, 0.1)
        across = -uav_ring[i] + rng.uniform(-0.4, 0.4, 2)
        uav = {
            "start": [float(uav_ring[i][0]), float(uav_ring[i][1]), float(z0)],
            "waypoints": [
                [float(across[0]), float(across[1]), float(z1)],
                [float(uav_ring[i][0]), float(uav_ring[i][1]), float(z0)],
            ],
            "speed": 0.6,
        }
        g_across = _rotate(-ugv_ring[i], 0.7) + rng.uniform(-0.3, 0.3, 2)
        heading = math.atan2(g_across[1] - ugv_ring[i][1],
                             g_across[0] - ugv_ring[i][0])
        ugv = {
            "start": [float(ugv_ring[i][0]), float(ugv_ring[i][1]), float(heading)],
            "waypoints": [
                [float(g_across[0]), float(g_across[1])],
                [float(ugv_ring[i][0]), float(ugv_ring[i][1])],
            ],
            "speed": 0.35,
        }
        agents.append({"uav": uav, "ugv": ugv})
    data["agents"] = agents
    data.update(overrides)
    return config_from_dict(data)


def landing_scenario(n_pairs: int, seed: int, ugv_speed: float,
                     signal_time: float = 2.0, duration: float = 50.0,
                     **overrides) -> ScenarioConfig:
    """UGVs cruise on long straight legs; UAVs start offset and get a landing
    signal shortly into the run."""
    rng = np.random.default_rng(seed)
    data = base_dict(n_pairs, duration, seed)
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
    data.update(overrides)
    return config_from_dict(data)


def clustered_scenario(duration: float = 6.0, seed: int = 1,
                       **overrides) -> ScenarioConfig:
    """Three pairs parked in concentric triangles, everyone mutually in range
    of everyone else's activation gate."""
    data = base_dict(3, duration, seed)
    agents = []
    r_u = 0.9 / math.sqrt(3)
    r_g = 1.3 / math.sqrt(3)
    for i in range(3):
        phi = 2 * math.pi * i / 3 + math.pi / 2
        ux, uy = r_u * math.cos(phi), r_u * math.sin(phi)
        gx, gy = r_g * math.cos(phi), r_g * math.sin(phi)
        agents.append({
            "uav": {"start": [float(ux), float(uy), 0.5],
                    "waypoints": [[float(ux), float(uy), 0.5]], "speed": 0.0},
            "ugv": {"start": [float(gx), float(gy), float(phi)],
                    "waypoints": [[float(gx + 0.01 * math.cos(phi)),
                                   float(gy + 0.01 * math.sin(phi))]],
                    "speed": 0.0},
        })
    data["agents"] = agents
    data.update(overrides)
    return config_from_dict(data)


def grid_scenario(n_pairs: int, seed: int, duration: float = 1.0,
                  **overrides) -> ScenarioConfig:
    """Pairs on a square lattice (2 m pitch) whose workspace grows with N.

    Columns pair up and every UAV shuttles to its partner column; rows pair
    up the same way for the UGVs.  Partners meet head-on, each aiming 0.15 m
    to its right and the UAVs at different altitudes, so gates open and
    rows bind across the whole fleet without a symmetric stall.
    """
    rng = np.random.default_rng(seed)
    side = math.ceil(math.sqrt(n_pairs))
    s = 2.0
    half = side * s / 2 + 1.5
    data = base_dict(n_pairs, duration, seed)
    data["workspace"] = {"x": [-half, half], "y": [-half, half], "z": [0, 3]}

    def lattice(row, col):
        return (col - (side - 1) / 2) * s, (row - (side - 1) / 2) * s

    def partner(index):
        return index + 1 if index % 2 == 0 and index + 1 < side else index - 1

    agents = []
    for k in range(n_pairs):
        row, col = divmod(k, side)
        jx, jy = rng.uniform(-0.05, 0.05, 2)
        gx, gy = lattice(row, col)
        gx, gy = float(gx + jx), float(gy + jy)
        tx, ty = lattice(partner(row), col)
        tx += 0.15 if partner(row) > row else -0.15
        heading = math.atan2(ty - gy, tx - gx)
        ux, uy = gx + s / 2, gy + s / 2
        uz = 1.0 + 0.2 * (col % 2) + float(rng.uniform(0.0, 0.05))
        px, py = lattice(row, partner(col))
        px, py = px + s / 2, py + s / 2
        py -= 0.15 if partner(col) > col else -0.15
        pz = 1.0 + 0.2 * (partner(col) % 2)
        agents.append({
            "uav": {"start": [ux, uy, uz],
                    "waypoints": [[px, py, pz], [ux, uy, uz]], "speed": 0.6},
            "ugv": {"start": [gx, gy, heading],
                    "waypoints": [[float(tx), float(ty)], [gx, gy]],
                    "speed": 0.35},
        })
    data["agents"] = agents
    data.update(overrides)
    return config_from_dict(data)
