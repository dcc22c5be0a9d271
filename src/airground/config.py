"""Scenario configuration: YAML schema, defaults, and validation.

Validation is exhaustive rather than fail-fast: every violation found is
reported, each with a machine-readable code (RADIUS_ORDER, SPEED_BOUND,
CAPACITY, SPAWN_INFEASIBLE, SYMMETRIC_DEADLOCK, BAD_EVENT, BAD_VALUE,
MISSING_FIELD).  The spawn checks inflate the required clearances by twice
the unicycle control-point offset so that offset-space safety implies
body-frame safety from the first tick.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from .barriers import (Bounds, SafetyParams, eval_landing, offset_points,
                       pairwise_sq_distances)
from .errors import ConfigError, ConfigViolation, InvalidInputError
from .netsim import LinkModel
from .watcher import WatcherOptions, derived_margin

_GOLDEN_ANGLE = 2.399963229728653

# libyaml's parser and emitter where PyYAML was built with them; each
# matches its Python counterpart (the same dicts, the same text) and is
# several times faster.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


@dataclass
class AgentSpec:
    start: np.ndarray
    waypoints: list[np.ndarray]
    speed: float = 0.0


@dataclass
class LandingEvent:
    time: float
    pair: int


@dataclass
class ScenarioConfig:
    n_pairs: int
    dt: float
    duration: float
    seed: int
    capacity: int
    control_rate: float
    watcher_rate: float
    hold_timeout: float
    platform_height: float
    ugv_offset: float
    wheel_base: float
    localization_noise: float
    uav_velocity_lag: float  # low-level tracking time constant; 0 = perfect
    safety: SafetyParams
    gains_uav: np.ndarray
    gains_ugv: np.ndarray
    network: LinkModel
    watcher: WatcherOptions
    uavs: list[AgentSpec]
    ugvs: list[AgentSpec]
    events: list[LandingEvent]
    perturb_setpoints: bool = False
    raw: dict = field(default_factory=dict, repr=False)

    def agent_ids(self) -> list[str]:
        ids = []
        for i in range(self.n_pairs):
            ids.append(f"uav{i}")
            ids.append(f"ugv{i}")
        return ids

    def steps_per_control(self) -> int:
        return round(1.0 / (self.dt * self.control_rate))

    def steps_per_watcher(self) -> int:
        return round(1.0 / (self.dt * self.watcher_rate))

    def to_yaml(self) -> str:
        return yaml.dump(self.raw, Dumper=YAML_DUMPER, sort_keys=True)


def _get(data: dict, key: str, default=None, *, required=False, violations=None):
    if key in data:
        return data[key]
    if required and violations is not None:
        violations.append(ConfigViolation("MISSING_FIELD", f"missing required field '{key}'"))
    return default


def _number(v: list[ConfigViolation], section: dict, key: str, default,
            cast=float, where: str = ""):
    """section[key] converted by cast; the default when the key is absent or
    null, and also (reported as BAD_VALUE) when the value is malformed, NaN
    or infinite, or for cast int a boolean or a number with a fraction."""
    raw = section.get(key)
    if raw is None:
        return default
    try:
        value = cast(raw)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        v.append(ConfigViolation("BAD_VALUE", f"{where}{key} must be a number, got {raw!r}"))
        return default
    if cast is int and (isinstance(raw, bool) or isinstance(raw, float) and raw != value):
        v.append(ConfigViolation("BAD_VALUE", f"{where}{key} must be an integer, got {raw!r}"))
        return default  # int() would have truncated it
    return value


def _section(v: list[ConfigViolation], data: dict, key: str, kind=dict, *,
             required: bool = False):
    """data[key] as a dict (or list), empty when absent or null; a value of
    any other type is reported as BAD_VALUE."""
    value = _get(data, key, kind(), required=required, violations=v) or kind()
    if not isinstance(value, kind):
        noun = "mapping" if kind is dict else "list"
        v.append(ConfigViolation("BAD_VALUE", f"{key} must be a {noun}, got {value!r}"))
        return kind()
    return value


def _as_floats(value, n: int, finite: bool = True):
    arr = np.asarray(value, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"expected {n} numbers, got {value!r}")
    # Checked element by element: on a few numbers, several times faster
    # than a NumPy reduction, and a scenario has hundreds of these vectors.
    if finite and not all(map(math.isfinite, arr.tolist())):
        raise ValueError(f"expected finite numbers, got {value!r}")
    return arr


def load_yaml(text: str):
    """Parse YAML text into plain Python data (safe tags only)."""
    return yaml.load(text, Loader=YAML_LOADER)


def load_mapping(text: str) -> dict:
    """Parse a scenario's YAML text into its top-level mapping, unvalidated;
    raises ConfigError when the text is not YAML or not a mapping."""
    try:
        data = load_yaml(text)
    except yaml.YAMLError as exc:
        raise ConfigError([ConfigViolation("BAD_VALUE", f"not valid YAML: {exc}")])
    if not isinstance(data, dict):
        raise ConfigError([ConfigViolation("BAD_VALUE", "top level must be a mapping")])
    return data


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario; raises ConfigError listing every problem."""
    return config_from_dict(load_mapping(text))


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r") as f:
        return parse_config(f.read())


def config_from_dict(data: dict) -> ScenarioConfig:
    v: list[ConfigViolation] = []

    _get(data, "pairs", required=True, violations=v)
    reported = len(v)
    n_pairs = _number(v, data, "pairs", 0, int)
    if n_pairs <= 0 and len(v) == reported:
        v.append(ConfigViolation("BAD_VALUE", f"pairs must be >= 1, got {n_pairs}"))

    dt = _number(v, data, "dt", 0.01)
    duration = _number(v, data, "duration", 10.0)
    seed = _number(v, data, "seed", 0, int)
    control_rate = _number(v, data, "control_rate", 50.0)
    watcher_rate = _number(v, data, "watcher_rate", 20.0)
    hold_timeout = _number(v, data, "hold_timeout", 0.25)
    platform_height = _number(v, data, "platform_height", 0.0)
    ugv_offset = _number(v, data, "ugv_offset", 0.1)
    wheel_base = _number(v, data, "wheel_base", 0.2)
    noise = _number(v, data, "localization_noise", 0.0)
    velocity_lag = _number(v, data, "uav_velocity_lag", 0.0)
    perturb = bool(_get(data, "perturb_setpoints", False))

    if seed < 0:  # numpy's SeedSequence takes non-negative integers only
        v.append(ConfigViolation("BAD_VALUE", f"seed must be >= 0, got {seed}"))
    if dt <= 0:
        v.append(ConfigViolation("BAD_VALUE", f"dt must be positive, got {dt}"))
    if duration < 0:
        v.append(ConfigViolation("BAD_VALUE", f"duration must be >= 0, got {duration}"))
    if ugv_offset <= 0:
        v.append(ConfigViolation("BAD_VALUE", "ugv_offset must be positive"))
    if wheel_base <= 0:
        v.append(ConfigViolation("BAD_VALUE", "wheel_base must be positive"))
    if hold_timeout <= 0:
        v.append(ConfigViolation("BAD_VALUE", "hold_timeout must be positive"))
    if noise < 0:
        v.append(ConfigViolation("BAD_VALUE", "localization_noise must be >= 0"))
    if velocity_lag < 0:
        v.append(ConfigViolation("BAD_VALUE", "uav_velocity_lag must be >= 0"))
    for name, rate in (("control_rate", control_rate), ("watcher_rate", watcher_rate)):
        if rate <= 0:
            v.append(ConfigViolation("BAD_VALUE", f"{name} must be positive"))
        elif dt > 0:
            steps = 1.0 / (dt * rate)
            if abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
                v.append(ConfigViolation(
                    "BAD_VALUE",
                    f"{name}={rate} Hz does not divide the dt={dt} grid evenly",
                ))

    ws = _section(v, data, "workspace")
    try:
        # Non-finite bounds are left to Bounds.validate, which names the axis.
        bx = _as_floats(ws.get("x", [-6.0, 6.0]), 2, finite=False)
        by = _as_floats(ws.get("y", [-6.0, 6.0]), 2, finite=False)
        bz = _as_floats(ws.get("z", [0.0, 3.0]), 2, finite=False)
        bounds = Bounds(float(bx[0]), float(bx[1]), float(by[0]), float(by[1]),
                        float(bz[0]), float(bz[1]))
    except (ValueError, TypeError) as exc:
        v.append(ConfigViolation("BAD_VALUE", f"workspace: {exc}"))
        bounds = Bounds(-6.0, 6.0, -6.0, 6.0, 0.0, 3.0)

    saf = _section(v, data, "safety", required=True)
    safety = SafetyParams(bounds=bounds, **{
        f.name: _number(v, saf, f.name, f.default, where="safety.")
        for f in fields(SafetyParams) if f.name != "bounds"})
    for problem in safety.validate():
        code = "RADIUS_ORDER" if "separation radii" in problem else (
            "SPEED_BOUND" if "speed limits" in problem else "BAD_VALUE")
        v.append(ConfigViolation(code, problem))

    min_capacity = 2 * n_pairs + 4 if n_pairs > 0 else 4
    capacity = _number(v, data, "capacity", min_capacity, int)
    if n_pairs > 0 and capacity < min_capacity:
        v.append(ConfigViolation(
            "CAPACITY",
            f"capacity {capacity} is below the {min_capacity} rows a UAV can need "
            f"with {n_pairs} pairs",
        ))

    gains = _section(v, data, "gains")
    gain = {}
    for kind, dim in (("uav", 3), ("ugv", 2)):
        raw_g = gains.get(kind, 1.0)
        try:
            gain[kind] = _as_floats(raw_g if np.ndim(raw_g) else np.full(dim, raw_g), dim)
        except (ValueError, TypeError):
            v.append(ConfigViolation(
                "BAD_VALUE", f"gains.{kind} must be a number or {dim} numbers"))
            gain[kind] = np.ones(dim)
    g_uav, g_ugv = gain["uav"], gain["ugv"]
    if np.any(g_uav <= 0) or np.any(g_ugv <= 0):
        v.append(ConfigViolation("BAD_VALUE", "gains must be positive"))
    elif not bounds.validate():
        reach = _filter_reach(safety, max(g_uav.tolist() + g_ugv.tolist()))
        if not math.isfinite(reach):
            v.append(ConfigViolation(
                "BAD_VALUE", "speed limits, gains and barrier_gain are too large: the "
                f"safety filter's terms over the workspace reach {reach}, must be finite"))

    net = _section(v, data, "network")
    network = LinkModel(
        base_latency=_number(v, net, "latency", 0.0, where="network."),
        jitter=_number(v, net, "jitter", 0.0, where="network."),
        drop_prob=_number(v, net, "drop", 0.0, where="network."),
    )
    max_latency = network.base_latency + network.jitter
    latency_finite = math.isfinite(2.0 * network.jitter) and math.isfinite(max_latency)
    if network.base_latency < 0 or network.jitter < 0:
        v.append(ConfigViolation("BAD_VALUE", "network latency and jitter must be >= 0"))
    elif not latency_finite:
        v.append(ConfigViolation(
            "BAD_VALUE", "network jitter is too large: 2*jitter and latency+jitter "
            f"must be finite, got latency {network.base_latency!r}, jitter {network.jitter!r}"))
    if not 0.0 <= network.drop_prob <= 1.0:
        v.append(ConfigViolation("BAD_VALUE", "network drop must be in [0, 1]"))
    elif network.drop_prob >= 1.0:
        network = LinkModel(network.base_latency, network.jitter, 0.9999999999)

    wv = _section(v, data, "watcher")
    if "velocity_stale_after" in wv:
        warnings.warn("watcher.velocity_stale_after is no longer read and will be "
                      "rejected in a future version; remove it", FutureWarning, stacklevel=2)
    watcher = WatcherOptions(**{
        f.name: _number(v, wv, f.name, f.default, where="watcher.")
        for f in fields(WatcherOptions)})
    if not 0 < watcher.smoothing <= 1:
        v.append(ConfigViolation("BAD_VALUE", "watcher.smoothing must be in (0, 1]"))
    if watcher.activation_margin is None and watcher_rate > 0 and latency_finite:
        margin = derived_margin(safety.uav_speed_limit, 1.0 / watcher_rate, max_latency)
        if not math.isfinite(margin):
            v.append(ConfigViolation("BAD_VALUE", (
                f"the derived watcher activation_margin is {margin}, must be finite: "
                f"latency+jitter {max_latency!r}, uav_speed_limit {safety.uav_speed_limit!r}")))

    agents = _section(v, data, "agents", list, required=True)
    if n_pairs > 0 and len(agents) != n_pairs:
        v.append(ConfigViolation(
            "BAD_VALUE", f"expected {n_pairs} agent pair entries, got {len(agents)}"))
    uavs: list[AgentSpec] = []
    ugvs: list[AgentSpec] = []
    # A spec that does not parse is left out of uavs/ugvs, so the spawn
    # checks, which need the whole fleet, do not run on made-up values.
    for i, entry in enumerate(agents):
        if not isinstance(entry, dict):
            v.append(ConfigViolation(
                "BAD_VALUE", f"agents[{i}] must be a mapping, got {entry!r}"))
            continue
        for kind, dim, bucket in (("uav", 3, uavs), ("ugv", 2, ugvs)):
            spec = entry.get(kind)
            if not isinstance(spec, dict):
                v.append(ConfigViolation("MISSING_FIELD", f"agents[{i}].{kind} missing")
                         if spec is None else ConfigViolation(
                             "BAD_VALUE", f"agents[{i}].{kind} must be a mapping"))
                continue
            reported = len(v)
            try:
                start = _as_floats(spec.get("start"), 3)
            except (ValueError, TypeError):
                v.append(ConfigViolation(
                    "BAD_VALUE",
                    f"agents[{i}].{kind}.start must be 3 numbers "
                    f"({'x,y,z' if kind == 'uav' else 'x,y,theta'})",
                ))
                start = np.zeros(3)
            wps = spec.get("waypoints") or [start[:dim]]
            try:
                waypoints = [_as_floats(w, dim) for w in wps]
            except (ValueError, TypeError):
                v.append(ConfigViolation(
                    "BAD_VALUE", f"agents[{i}].{kind}.waypoints must be {dim}-vectors"))
                waypoints = [np.zeros(dim)]
            parsed = len(v) == reported
            speed = _number(v, spec, "speed", 0.0, where=f"agents[{i}].{kind}.")
            limit = safety.uav_speed_limit if kind == "uav" else safety.ugv_speed_limit
            if speed < 0:
                v.append(ConfigViolation("BAD_VALUE", f"agents[{i}].{kind}.speed < 0"))
            elif speed > limit:
                v.append(ConfigViolation(
                    "SPEED_BOUND",
                    f"agents[{i}].{kind} track speed {speed} exceeds the "
                    f"admissible limit {limit}",
                ))
            if parsed:
                bucket.append(AgentSpec(start=start, waypoints=waypoints, speed=speed))

    if perturb:
        for i, spec in enumerate(uavs):
            phi = _GOLDEN_ANGLE * (i + 1)
            nudge = 1e-3 * np.array([math.cos(phi), math.sin(phi), 0.0])
            spec.waypoints = [w + nudge for w in spec.waypoints]
        for i, spec in enumerate(ugvs):
            phi = _GOLDEN_ANGLE * (i + 1) + 1.0
            nudge = 1e-3 * np.array([math.cos(phi), math.sin(phi)])
            spec.waypoints = [w + nudge for w in spec.waypoints]

    events: list[LandingEvent] = []
    for i, entry in enumerate(_section(v, data, "events", list)):
        if not isinstance(entry, dict):
            v.append(ConfigViolation(
                "BAD_EVENT", f"events[{i}] must be a mapping, got {entry!r}"))
            continue
        etype = entry.get("type", "landing")
        if etype != "landing":
            v.append(ConfigViolation("BAD_EVENT", f"events[{i}]: unknown type {etype!r}"))
            continue
        time = _number(v, entry, "time", -1.0, where=f"events[{i}].")
        pair = _number(v, entry, "pair", -1, int, where=f"events[{i}].")
        if time < 0:
            v.append(ConfigViolation("BAD_EVENT", f"events[{i}]: time must be >= 0"))
        if not 0 <= pair < max(n_pairs, 1):
            v.append(ConfigViolation("BAD_EVENT", f"events[{i}]: pair {pair} out of range"))
        else:
            events.append(LandingEvent(time=time, pair=pair))
    events.sort(key=lambda e: (e.time, e.pair))

    if n_pairs > 0 and len(uavs) == n_pairs and len(ugvs) == n_pairs:
        _validate_spawn(v, safety, uavs, ugvs, ugv_offset, platform_height)

    if v:
        raise ConfigError(v)

    return ScenarioConfig(
        n_pairs=n_pairs, dt=dt, duration=duration, seed=seed, capacity=capacity,
        control_rate=control_rate, watcher_rate=watcher_rate,
        hold_timeout=hold_timeout, platform_height=platform_height,
        ugv_offset=ugv_offset, wheel_base=wheel_base, localization_noise=noise,
        uav_velocity_lag=velocity_lag,
        safety=safety, gains_uav=g_uav, gains_ugv=g_ugv, network=network,
        watcher=watcher, uavs=uavs, ugvs=ugvs, events=events,
        perturb_setpoints=perturb, raw=data,
    )


def _filter_reach(safety: SafetyParams, gain: float) -> float:
    """max(K*D + v, kappa*D**2 + 12*D*v): a bound on the terms the safety
    filter computes for agents and setpoints inside the workspace (diagonal
    D), with v the larger speed limit, K the largest gain and kappa the
    barrier gain.  A nominal input -K*(p - p_des) + p_des_dot is at most
    K*D + v before clipping; in a sphere row (a = 2r, |r| <= D), a.u and the
    time term 2r.v_other are each at most 6*D*v over three axes and kappa*h
    at most kappa*D**2, so a.u + b is at most kappa*D**2 + 12*D*v."""
    b = safety.bounds
    diag = math.dist((b.x_min, b.y_min, b.z_min), (b.x_max, b.y_max, b.z_max))
    speed = max(safety.uav_speed_limit, safety.ugv_speed_limit)
    return max(gain * diag + speed,
               safety.barrier_gain * diag ** 2 + 12.0 * diag * speed)


def _inside(bounds: Bounds, x: float, y: float, z: float | None = None) -> bool:
    ok = bounds.x_min < x < bounds.x_max and bounds.y_min < y < bounds.y_max
    if z is not None:
        ok = ok and bounds.z_min < z < bounds.z_max
    return ok


def _validate_spawn(v: list[ConfigViolation], safety: SafetyParams,
                    uavs: list[AgentSpec], ugvs: list[AgentSpec],
                    offset: float, platform_height: float) -> None:
    bounds = safety.bounds
    pad = 2.0 * offset  # offset-space rows protect the body only up to this slack
    n = len(uavs)
    uav_starts = np.array([spec.start for spec in uavs])
    ugv_starts = np.array([spec.start for spec in ugvs])
    offsets = offset_points(ugv_starts, offset)
    for i, ((x, y, _), (ox, oy)) in enumerate(zip(ugv_starts.tolist(), offsets.tolist())):
        if not _inside(bounds, x, y) or not _inside(bounds, ox, oy):
            v.append(ConfigViolation(
                "SPAWN_INFEASIBLE", f"ugv{i} spawns outside the workspace"))
    platforms = ugv_starts.copy()
    platforms[:, 2] = platform_height
    try:
        funnel_h = eval_landing(uav_starts, platforms, safety.funnel_sharpness,
                                safety.funnel_height, safety.hover_clearance)[0]
    except InvalidInputError:  # bad funnel params, reported by SafetyParams.validate
        funnel_h = None
    for i, (x, y, z) in enumerate(uav_starts.tolist()):
        if not _inside(bounds, x, y, z):
            v.append(ConfigViolation(
                "SPAWN_INFEASIBLE", f"uav{i} spawns outside the workspace"))
        if funnel_h is not None and funnel_h[i] <= 0:
            v.append(ConfigViolation(
                "SPAWN_INFEASIBLE",
                f"uav{i} spawns outside its landing funnel safe set (h={funnel_h[i]:.4g})"))
    if funnel_h is None:
        return

    # Every pairwise distance in two array passes.  Aerial: each UAV start
    # against [UAV starts | platforms | UAV first waypoints].  Ground: [UGV
    # offset points | UGV starts] against [offset points | first waypoints].
    air = np.sqrt(pairwise_sq_distances(uav_starts, np.concatenate(
        (uav_starts, platforms, [spec.waypoints[0] for spec in uavs]))))
    ground = np.sqrt(pairwise_sq_distances(
        np.concatenate((offsets, ugv_starts[:, :2])),
        np.concatenate((offsets, [spec.waypoints[0] for spec in ugvs]))))
    d_uav, d_cross, d_ugv = air[:, :n], air[:, n:2 * n], ground[:n, :n]
    need_uav = safety.uav_separation + pad
    need_ugv = safety.ugv_separation + pad
    need_cross = safety.uav_ugv_separation + pad
    others = ~np.eye(n, dtype=bool)
    close_uav = d_uav <= need_uav
    close_ugv = d_ugv <= need_ugv
    close = others & (close_uav | close_ugv)
    for i, j in (np.argwhere(close).tolist() if close.any() else ()):
        if i > j:
            continue  # symmetric: each pair once, as (i, j) with i < j
        if close_uav[i, j]:
            v.append(ConfigViolation(
                "SPAWN_INFEASIBLE",
                f"uav{i}/uav{j} spawn {d_uav[i, j]:.3f} m apart; need > "
                f"{need_uav:.3f}"))
        if close_ugv[i, j]:
            v.append(ConfigViolation(
                "SPAWN_INFEASIBLE",
                f"ugv{i}/ugv{j} spawn {d_ugv[i, j]:.3f} m apart; need > "
                f"{need_ugv:.3f}"))
    close = others & (d_cross <= need_cross)
    for i, j in (np.argwhere(close).tolist() if close.any() else ()):
        v.append(ConfigViolation(
            "SPAWN_INFEASIBLE",
            f"uav{i}/ugv{j} spawn {d_cross[i, j]:.3f} m apart; need > "
            f"{need_cross:.3f}"))
    # Exactly antipodal crossing tasks stall projection filters; reject them.
    # reaches[i, j]: agent i starts on agent j's first waypoint.
    for bucket, label, reaches in ((uavs, "uav", air[:, 2 * n:] < 1e-9),
                                   (ugvs, "ugv", ground[n:, n:] < 1e-9)):
        dim = 3 if label == "uav" else 2
        swaps = others & reaches & reaches.T
        for i, j in (np.argwhere(swaps).tolist() if swaps.any() else ()):
            spec = bucket[i]
            if i < j and np.linalg.norm(spec.waypoints[0][:dim] - spec.start[:dim]) > 0:
                v.append(ConfigViolation(
                    "SYMMETRIC_DEADLOCK",
                    f"{label}{i} and {label}{j} swap positions along the same "
                    "line; enable perturb_setpoints or offset the tasks"))
