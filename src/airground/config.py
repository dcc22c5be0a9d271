"""Scenario configuration: YAML schema, defaults, and validation.

Validation is exhaustive rather than fail-fast: every violation found is
reported, each with a machine-readable code (RADIUS_ORDER, SPEED_BOUND,
CAPACITY, SPAWN_INFEASIBLE, SYMMETRIC_DEADLOCK, BAD_EVENT, BAD_VALUE,
MISSING_FIELD).  The spawn checks inflate the required clearances by twice
the unicycle control-point offset so that offset-space safety implies
body-frame safety from the first tick.

dump_yaml writes a scenario back out with the bytes of
yaml.safe_dump(data, sort_keys=True): plain data in one text pass, and
anything else through PyYAML.  load_yaml is its inverse: it reads the text
of that pass (resolved_config.yaml) in one pass too, and any other text
with PyYAML.
"""

from __future__ import annotations

import functools
import math
import re
import warnings
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from .barriers import (Bounds, SafetyParams, eval_landing, offset_points,
                       pairwise_sq_distances)
from .errors import ConfigError, ConfigViolation, InvalidInputError
from .netsim import LinkModel
from .watcher import WatcherOptions, derived_margin, smoothing_violations

_GOLDEN_ANGLE = 2.399963229728653

# The bounds a number read by _number can be held to, in its message's words.
POSITIVE, NON_NEGATIVE = "positive", ">= 0"

# The most steps a run may take: the largest count a float holds exactly.
MAX_STEPS = 2.0 ** 53

# The plain top-level numbers, in the order they are read: (key, default,
# cast, bound).
_FIELDS = (
    ("dt", 0.01, float, POSITIVE),
    ("duration", 10.0, float, NON_NEGATIVE),
    ("seed", 0, int, NON_NEGATIVE),   # numpy's SeedSequence takes no negative seed
    ("control_rate", 50.0, float, POSITIVE),
    ("watcher_rate", 20.0, float, POSITIVE),
    ("hold_timeout", 0.25, float, POSITIVE),
    ("platform_height", 0.0, float, None),
    ("ugv_offset", 0.1, float, POSITIVE),
    ("wheel_base", 0.2, float, POSITIVE),
    ("localization_noise", 0.0, float, NON_NEGATIVE),
    ("uav_velocity_lag", 0.0, float, NON_NEGATIVE),
)


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

    def total_steps(self) -> int:
        """The run's last step: steps 0 to total_steps(), each dt apart."""
        return round(self.duration / self.dt)

    def steps_per_control(self) -> int:
        return round(1.0 / (self.dt * self.control_rate))

    def steps_per_watcher(self) -> int:
        return round(1.0 / (self.dt * self.watcher_rate))

    def to_yaml(self) -> str:
        """The scenario as given (raw), as resolved_config.yaml holds it."""
        return dump_yaml(self.raw)


class _NotPlain(Exception):
    """Raised by _plain_yaml on data, and by _read_plain on text, that each
    leaves to PyYAML."""


# A string written plain: an identifier that PyYAML's resolver reads back as
# a string, so not one of on, yes, null, true and their kin.
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]{0,63}\Z")
_RESOLVER = yaml.resolver.Resolver()


@functools.lru_cache(maxsize=4096)
def _plain_str(text: str) -> bool:
    return (_IDENTIFIER.match(text) is not None
            and _RESOLVER.resolve(yaml.ScalarNode, text, (True, False))
            == _RESOLVER.DEFAULT_SCALAR_TAG)


def _scalar(x, seen: set[int]) -> str:
    """x as SafeRepresenter writes it, for a float, str, bool, int, None or
    an empty list or dict."""
    t = type(x)
    if t is float:
        if x != x:
            return ".nan"
        if x == math.inf or x == -math.inf:
            return ".inf" if x > 0 else "-.inf"
        text = repr(x).lower()
        if "." not in text and "e" in text:  # 1e+17 is not a YAML float
            return text.replace("e", ".0e", 1)
        return text
    if t is str:
        if _plain_str(x):
            return x
    elif t is bool:
        return "true" if x else "false"
    elif t is int:
        return str(x)
    elif x is None:
        return "null"
    elif (t is dict or t is list) and id(x) not in seen:
        seen.add(id(x))
        return "{}" if t is dict else "[]"
    raise _NotPlain


def _plain_yaml(data) -> str | None:
    """yaml.safe_dump(data, sort_keys=True)'s text, written in one pass, for
    plain data: dicts with str keys, lists, floats, ints, bools, None and
    identifier strings, with no list or dict reached twice.  None for any
    other data."""
    parts: list[str] = []
    put = parts.append
    seen: set[int] = set()   # PyYAML anchors a container it meets twice

    def block(x, indent: int, lead: str) -> None:
        """Writes the non-empty dict or list x at indent; lead starts its
        first line (the indent, or the dashes of the items it opens)."""
        if id(x) in seen:
            raise _NotPlain
        seen.add(id(x))
        pad = " " * indent
        if type(x) is dict:
            if not all(type(key) is str for key in x):
                raise _NotPlain
            inner = " " * (indent + 2)
            for key in sorted(x):
                if not _plain_str(key):
                    raise _NotPlain
                value = x[key]
                t = type(value)
                if t is dict and value:
                    put(f"{lead}{key}:\n")
                    block(value, indent + 2, inner)
                elif t is list and value:   # a sequence under a key is not indented
                    put(f"{lead}{key}:\n")
                    block(value, indent, pad)
                else:
                    put(f"{lead}{key}: {_scalar(value, seen)}\n")
                lead = pad
        else:
            for item in x:
                t = type(item)
                if (t is dict or t is list) and item:
                    block(item, indent + 2, lead + "- ")
                else:
                    put(f"{lead}- {_scalar(item, seen)}\n")
                lead = pad

    if type(data) is not dict and type(data) is not list:
        return None   # PyYAML ends a document that is one scalar with '...'
    try:
        if data:
            block(data, 0, "")
        else:
            put(_scalar(data, seen) + "\n")
    except _NotPlain:
        return None
    return "".join(parts)


# The scalars _scalar writes as words, as PyYAML reads them.
_WORDS = {"null": None, "true": True, "false": False,
          ".nan": math.nan, ".inf": math.inf, "-.inf": -math.inf}
_NUMBER_START = frozenset("-0123456789")


def _read_scalar(token: str):
    """The value of a scalar as _scalar writes it; any other token as a
    value that _scalar writes differently, or not at all."""
    if token in _WORDS:
        return _WORDS[token]
    if token[:1] in _NUMBER_START:
        return float(token) if "." in token or "e" in token else int(token)
    if token == "[]" or token == "{}":
        return [] if token == "[]" else {}
    return token


def _read_plain(text: str):
    """The data whose _plain_yaml text is text, read in one pass; None for
    any other text, never an exception.

    Reads the block layout _plain_yaml writes, a line at a time: key:
    scalar; key: alone, opening a mapping indented two more or a sequence
    at the same indent; - scalar; and - opening a nested item on the same
    line.  What it reads is returned only if _plain_yaml writes it back as
    text, and PyYAML reads such text to equal data: it is yaml.safe_dump's
    text of plain data (dump_yaml's tests hold _plain_yaml to that).
    Comments, flow style, quotes, other spellings of a scalar, unsorted or
    duplicate keys, tabs and CRLF line ends all fail that check."""
    if text == "{}\n" or text == "[]\n":
        return {} if text == "{}\n" else []
    lines = text.split("\n")
    if lines.pop():   # the text must end with a line end
        return None
    end = len(lines)
    i = 0   # the line being read

    def block(col: int):
        """The sequence or mapping whose first entry starts at column col
        of line i, and its later ones at column col of the lines after."""
        nonlocal i
        line, pad = lines[i], " " * col
        if line.startswith("- ", col):
            seq, dash, item = [], pad + "- ", col + 2
            while True:
                if line.startswith("- ", item) or line.find(":", item) >= 0:
                    seq.append(block(item))
                else:
                    seq.append(_read_scalar(line[item:]))
                    i += 1
                if i == end or not lines[i].startswith(dash):
                    return seq
                line = lines[i]
        mapping = {}
        while True:
            i += 1
            j = line.find(": ", col)
            if j >= 0:
                mapping[line[col:j]] = _read_scalar(line[j + 2:])
            elif line.endswith(":"):   # a non-empty sequence or mapping
                mapping[line[col:-1]] = block(col if lines[i].startswith("- ", col) else col + 2)
            else:
                raise _NotPlain
            if i == end:
                return mapping
            line = lines[i]
            if not line.startswith(pad):
                return mapping

    try:
        data = block(0)
        if i == end and _plain_yaml(data) == text:
            return data
    except (_NotPlain, ValueError, IndexError, RecursionError):   # IndexError: past the end
        pass
    return None


def dump_yaml(data) -> str:
    """The text of yaml.safe_dump(data, sort_keys=True): written by
    _plain_yaml where it can, else by PyYAML.  Raises InvalidInputError,
    naming the value, on data PyYAML's safe representer cannot write."""
    text = _plain_yaml(data)
    if text is not None:
        return text
    try:
        return yaml.safe_dump(data, sort_keys=True)
    except yaml.YAMLError as exc:
        raise InvalidInputError(f"cannot write the scenario as YAML: {exc}") from exc


def _require(v: list[ConfigViolation], data: dict, key: str) -> None:
    if key not in data:
        v.append(ConfigViolation("MISSING_FIELD", f"missing required field '{key}'"))


def _number(v: list[ConfigViolation], section: dict, key: str, default,
            cast=float, bound=None, where: str = "", code: str = "BAD_VALUE"):
    """section[key] converted by cast; the default when the key is absent or
    null, and also (reported as BAD_VALUE) when the value is malformed, NaN
    or infinite, a boolean, or for cast int a number with a fraction.  A
    number outside bound (None, POSITIVE or NON_NEGATIVE), a default too,
    is reported under code, naming the value as given, and returned."""
    raw = value = section.get(key)
    if raw is None:
        value = default
    else:
        try:
            value = cast(raw)
            finite = cast is int or math.isfinite(value)
        except (TypeError, ValueError, OverflowError):
            finite = False
        if not finite or cast is float and isinstance(raw, bool):
            v.append(ConfigViolation("BAD_VALUE", f"{where}{key} must be a number, got {raw!r}"))
            value = default
        elif cast is int and (isinstance(raw, bool) or isinstance(raw, float) and raw != value):
            v.append(ConfigViolation("BAD_VALUE", f"{where}{key} must be an integer, got {raw!r}"))
            value = default  # int() would have truncated it
    if bound is not None and value is not None and not (
            value > 0 if bound == POSITIVE else value >= 0):
        v.append(ConfigViolation(code, f"{where}{key} must be {bound}, got {raw!r}"))
    return value


def _section(v: list[ConfigViolation], data: dict, key: str, kind=dict, *,
             required: bool = False):
    """data[key] as a dict (or list), empty when absent or null; a value of
    any other type is reported as BAD_VALUE."""
    if required:
        _require(v, data, key)
    value = data.get(key) or kind()
    if not isinstance(value, kind):
        noun = "mapping" if kind is dict else "list"
        v.append(ConfigViolation("BAD_VALUE", f"{key} must be a {noun}, got {value!r}"))
        return kind()
    return value


def _as_floats(value, n: int, finite: bool = True):
    arr = np.asarray(value, dtype=float)
    if arr.shape != (n,) or bool in map(type, value):  # YAML true is not 1.0
        raise ValueError(f"expected {n} numbers, got {value!r}")
    # Checked element by element: on a few numbers, several times faster
    # than a NumPy reduction, and a scenario has hundreds of these vectors.
    if finite and not all(map(math.isfinite, arr.tolist())):
        raise ValueError(f"expected finite numbers, got {value!r}")
    return arr


def load_yaml(text: str):
    """Parse YAML text into plain Python data (safe tags only): the text
    dump_yaml writes for plain data, as in resolved_config.yaml, in one
    pass (_read_plain), and any other text with PyYAML, whose results and
    errors it gives unchanged."""
    data = _read_plain(text)
    return yaml.safe_load(text) if data is None else data


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

    _require(v, data, "pairs")
    reported = len(v)
    n_pairs = _number(v, data, "pairs", 0, int)
    if n_pairs <= 0 and len(v) == reported:
        v.append(ConfigViolation("BAD_VALUE", f"pairs must be >= 1, got {n_pairs}"))

    top = {key: _number(v, data, key, default, cast, bound)
           for key, default, cast, bound in _FIELDS}
    perturb = data.get("perturb_setpoints")
    if perturb is None:
        perturb = False
    elif not isinstance(perturb, bool):
        v.append(ConfigViolation(
            "BAD_VALUE", f"perturb_setpoints must be true or false, got {perturb!r}"))
        perturb = False

    dt, watcher_rate = top["dt"], top["watcher_rate"]
    for name in ("control_rate", "watcher_rate"):
        rate = top[name]
        if rate > 0 and dt > 0:
            period = dt * rate   # can underflow to 0, and its inverse overflow to inf
            steps = 1.0 / period if period > 0 else math.inf
            if math.isinf(steps) or abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
                v.append(ConfigViolation(
                    "BAD_VALUE",
                    f"{name}={rate} Hz does not divide the dt={dt} grid evenly",
                ))
    # A run counts its steps in floats: past 2**53 they are no longer exact,
    # and far before that the run never ends.
    duration = top["duration"]
    if dt > 0 and not (steps := duration / dt) <= MAX_STEPS:
        v.append(ConfigViolation(
            "BAD_VALUE", f"duration={duration} is {steps} steps of dt={dt}, must be at most 2**53"))

    ws = _section(v, data, "workspace")
    try:
        # Non-finite bounds are left to Bounds.validate, which names the axis.
        bx, by, bz = [_as_floats(ws.get(axis, default), 2, finite=False).tolist() for axis, default
                      in (("x", [-6.0, 6.0]), ("y", [-6.0, 6.0]), ("z", [0.0, 3.0]))]
        bounds = Bounds(*bx, *by, *bz)
    except (ValueError, TypeError) as exc:
        v.append(ConfigViolation("BAD_VALUE", f"workspace: {exc}"))
        bounds = Bounds(-6.0, 6.0, -6.0, 6.0, 0.0, 3.0)

    saf = _section(v, data, "safety", required=True)
    safety = SafetyParams(bounds=bounds, **{
        f.name: _number(v, saf, f.name, f.default, where="safety.")
        for f in fields(SafetyParams) if f.name != "bounds"})
    v += safety.validate()

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
            gain[kind] = _as_floats(raw_g if np.ndim(raw_g) else [raw_g] * dim, dim)
        except (ValueError, TypeError):
            v.append(ConfigViolation(
                "BAD_VALUE", f"gains.{kind} must be a number or {dim} numbers"))
            gain[kind] = np.ones(dim)
    g_uav, g_ugv = gain["uav"], gain["ugv"]
    if np.any(g_uav <= 0) or np.any(g_ugv <= 0):
        v.append(ConfigViolation("BAD_VALUE", "gains must be positive"))
    elif not bounds.validate():
        b = bounds
        diag = math.dist((b.x_min, b.y_min, b.z_min), (b.x_max, b.y_max, b.z_max))
        if not math.isfinite(diag * diag):
            v.append(ConfigViolation(
                "BAD_VALUE", f"workspace is too large: its diagonal squared is {diag * diag}, "
                "must be finite"))
        elif not math.isfinite(
                reach := _filter_reach(safety, max(g_uav.tolist() + g_ugv.tolist()), diag)):
            v.append(ConfigViolation(
                "BAD_VALUE", "speed limits, gains and barrier_gain are too large: the "
                f"safety filter's terms over the workspace reach {reach}, must be finite"))

    net = _section(v, data, "network")
    network = LinkModel(*[_number(v, net, key, 0.0, where="network.")
                          for key in ("latency", "jitter", "drop")])
    v += network.validate()

    wv = _section(v, data, "watcher")
    if "velocity_stale_after" in wv:
        warnings.warn("watcher.velocity_stale_after is no longer read and will be "
                      "rejected in a future version; remove it", FutureWarning, stacklevel=2)
    # Every option but smoothing is >= 0: a negative margin gates off every
    # separation row, a negative touchdown window can never be entered and
    # a negative dwell is no time.
    watcher = WatcherOptions(**{
        f.name: _number(v, wv, f.name, f.default, where="watcher.",
                        bound=None if f.name == "smoothing" else NON_NEGATIVE)
        for f in fields(WatcherOptions)})
    v += smoothing_violations(watcher.smoothing)
    if watcher.activation_margin is None and watcher_rate > 0 and network.delays_finite():
        max_latency = network.base_latency + network.jitter
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
        # pair first, so that its BAD_VALUE comes before time's BAD_EVENT
        pair = _number(v, entry, "pair", -1, int, where=f"events[{i}].")
        time = _number(v, entry, "time", -1.0, bound=NON_NEGATIVE, where=f"events[{i}].",
                       code="BAD_EVENT")
        if not 0 <= pair < max(n_pairs, 1):
            v.append(ConfigViolation("BAD_EVENT", f"events[{i}]: pair {pair} out of range"))
        else:
            events.append(LandingEvent(time=time, pair=pair))
    events.sort(key=lambda e: (e.time, e.pair))

    if n_pairs > 0 and len(uavs) == n_pairs and len(ugvs) == n_pairs:
        _validate_spawn(v, safety, uavs, ugvs, top["ugv_offset"], top["platform_height"])

    if v:
        raise ConfigError(v)

    return ScenarioConfig(
        n_pairs=n_pairs, capacity=capacity, **top, safety=safety, gains_uav=g_uav,
        gains_ugv=g_ugv, network=network, watcher=watcher, uavs=uavs, ugvs=ugvs,
        events=events, perturb_setpoints=perturb, raw=data,
    )


def _filter_reach(safety: SafetyParams, gain: float, diag: float) -> float:
    """max(K*D + v, kappa*D**2 + 12*D*v): a bound on the terms the safety
    filter computes for agents and setpoints inside the workspace (diagonal
    D = diag), with v the larger speed limit, K the largest gain and kappa
    the barrier gain.  A nominal input -K*(p - p_des) + p_des_dot is at most
    K*D + v before clipping; in a sphere row (a = 2r, |r| <= D), a.u and the
    time term 2r.v_other are each at most 6*D*v over three axes and kappa*h
    at most kappa*D**2, so a.u + b is at most kappa*D**2 + 12*D*v."""
    speed = max(safety.uav_speed_limit, safety.ugv_speed_limit)
    return max(gain * diag + speed,
               safety.barrier_gain * (diag * diag) + 12.0 * diag * speed)


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
    # A distance past the float range (a huge platform_height or ugv_offset)
    # is inf, which every check below reads correctly.
    with np.errstate(over="ignore"):
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
    # The pairs held to a separation: none when the pad overflows, which
    # would report every pair as needing more than inf.
    checked = others
    if n > 1 and not math.isfinite(pad):
        v.append(ConfigViolation(
            "SPAWN_INFEASIBLE", f"ugv_offset={offset} is too large: the spawn separation "
            f"pad 2*ugv_offset is {pad}, must be finite"))
        checked = np.zeros((n, n), dtype=bool)
    close_uav = d_uav <= need_uav
    close_ugv = d_ugv <= need_ugv
    close = checked & (close_uav | close_ugv)
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
    close = checked & (d_cross <= need_cross)
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
