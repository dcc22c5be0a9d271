import copy
import glob
import math
import os
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from airground import run, summarize_dir
from airground.barriers import SafetyParams
from airground.config import (_plain_yaml, config_from_dict, dump_yaml, load_config,
                              load_yaml, parse_config)
from airground.errors import ConfigError, InvalidInputError

from scenario_helpers import grid_scenario
from test_golden import GOLDEN

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")

BASE = {
    "pairs": 2,
    "dt": 0.01,
    "duration": 5.0,
    "seed": 3,
    "control_rate": 50.0,
    "watcher_rate": 20.0,
    "workspace": {"x": [-6, 6], "y": [-6, 6], "z": [0, 3]},
    "safety": {
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
    },
    "gains": {"uav": 1.0, "ugv": 1.0},
    "network": {"latency": 0.0, "jitter": 0.0, "drop": 0.0},
    "agents": [
        {
            "uav": {"start": [-2.0, 0.0, 1.0], "waypoints": [[2.0, 0.5, 1.0]],
                    "speed": 0.5},
            "ugv": {"start": [-2.0, -2.0, 0.0], "waypoints": [[2.0, -2.0]],
                    "speed": 0.4},
        },
        {
            "uav": {"start": [2.0, 1.5, 1.0], "waypoints": [[-2.0, 1.0, 1.2]],
                    "speed": 0.5},
            "ugv": {"start": [2.0, 2.0, 3.141592653589793],
                    "waypoints": [[-2.0, 2.0]], "speed": 0.4},
        },
    ],
}


def variant(**overrides):
    data = copy.deepcopy(BASE)
    for key, value in overrides.items():
        parts = key.split("__")
        node = data
        for part in parts[:-1]:
            node = node[part]
        node[parts[-1]] = value
    return data


def codes_of(data):
    with pytest.raises(ConfigError) as err:
        config_from_dict(data)
    return [v.code for v in err.value.violations]


class TestAcceptedConfigs:
    def test_base_config_valid(self):
        cfg = config_from_dict(copy.deepcopy(BASE))
        assert cfg.n_pairs == 2
        assert cfg.capacity == 8  # defaults to 2N+4
        assert cfg.agent_ids() == ["uav0", "ugv0", "uav1", "ugv1"]

    def test_radius_ordering_accepted(self):
        cfg = config_from_dict(variant(safety__uav_separation=0.5,
                                       safety__uav_ugv_separation=0.7,
                                       safety__ugv_separation=1.0))
        assert cfg.safety.ugv_separation == 1.0

    def test_yaml_round_trip(self):
        import yaml
        cfg = config_from_dict(copy.deepcopy(BASE))
        again = parse_config(cfg.to_yaml())
        assert again.n_pairs == cfg.n_pairs
        assert again.seed == cfg.seed

    def test_scenarios_load_alike_with_either_yaml_parser(self):
        paths = sorted(glob.glob(os.path.join(SCENARIOS, "*.yaml")))
        assert paths
        for path in paths:
            with open(path) as f:
                text = f.read()
            assert load_yaml(text) == yaml.load(text, Loader=yaml.SafeLoader), path

    def test_resolved_config_dumps_alike_with_either_yaml_emitter(self):
        """to_yaml's one-pass writer takes every scenario and writes the
        bytes PyYAML's safe_dump writes."""
        configs = [load_config(path) for path in
                   sorted(glob.glob(os.path.join(SCENARIOS, "*.yaml")))]
        configs += [build() for build, *_ in GOLDEN.values()]
        configs += [grid_scenario(n, seed=2) for n in (4, 16, 64, 256)]
        for cfg in configs:
            assert _plain_yaml(cfg.raw) is not None  # every scenario is plain data
            assert cfg.to_yaml() == yaml.safe_dump(cfg.raw, sort_keys=True)

    def test_parse_config_from_text(self):
        import yaml
        cfg = parse_config(yaml.safe_dump(BASE))
        assert cfg.duration == 5.0

    def test_empty_safety_section_takes_safety_params_defaults(self):
        cfg = config_from_dict(variant(safety={}))
        assert cfg.safety == SafetyParams(bounds=cfg.safety.bounds)
        assert cfg.safety.turn_rate_limit == 4.0

    def test_watcher_section_without_retired_key_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config_from_dict(variant(watcher={"smoothing": 0.5}))


class TestRejections:
    def test_spawn_violations_listed_in_pair_order(self):
        """Separation violations come per (i, j) pair in row-major order,
        the UAV message before the UGV one, then cross-layer pairs, then
        deadlocks, UAVs first."""
        data = copy.deepcopy(BASE)
        data["pairs"] = 4
        a = data["agents"]
        a.extend(copy.deepcopy(a[:2]))
        a[0]["ugv"]["start"] = [-1.9, -0.2, 0.0]
        a[1]["uav"]["waypoints"] = [[-1.9, 0.5, 0.9]]
        a[1]["ugv"]["start"] = [2.2, -2.0, 0.0]
        a[1]["ugv"]["waypoints"] = [[2.3, -1.9]]
        a[2]["uav"]["start"] = [-1.8, 0.1, 0.5]
        a[2]["ugv"]["start"] = [2.3, -1.9, 3.0]
        a[2]["ugv"]["waypoints"] = [[2.2, -2.0]]
        a[3]["uav"]["start"] = [-1.9, 0.5, 0.9]
        a[3]["uav"]["waypoints"] = [[2.0, 1.5, 1.0]]
        a[3]["ugv"]["start"] = [-1.5, 0.3, 1.0]
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        swap = "swap positions along the same line; enable perturb_setpoints " \
               "or offset the tasks"
        assert [(v.code, v.message) for v in err.value.violations] == [
            ("SPAWN_INFEASIBLE", "uav0/uav2 spawn 0.548 m apart; need > 0.700"),
            ("SPAWN_INFEASIBLE", "uav0/uav3 spawn 0.520 m apart; need > 0.700"),
            ("SPAWN_INFEASIBLE", "ugv0/ugv3 spawn 0.683 m apart; need > 1.200"),
            ("SPAWN_INFEASIBLE", "ugv1/ugv2 spawn 0.151 m apart; need > 1.200"),
            ("SPAWN_INFEASIBLE", "uav2/uav3 spawn 0.574 m apart; need > 0.700"),
            ("SPAWN_INFEASIBLE", "uav2/ugv0 spawn 0.592 m apart; need > 0.900"),
            ("SPAWN_INFEASIBLE", "uav2/ugv3 spawn 0.616 m apart; need > 0.900"),
            ("SYMMETRIC_DEADLOCK", f"uav1 and uav3 {swap}"),
            ("SYMMETRIC_DEADLOCK", f"ugv1 and ugv2 {swap}"),
        ]

    def test_radius_order_violation(self):
        codes = codes_of(variant(safety__uav_separation=0.8))
        assert "RADIUS_ORDER" in codes

    def test_capacity_too_small(self):
        codes = codes_of(variant(capacity=7))  # needs 2N+4 = 8
        assert "CAPACITY" in codes

    def test_speed_bound_violation(self):
        codes = codes_of(variant(safety__ugv_speed_limit=1.5))
        assert "SPEED_BOUND" in codes

    def test_track_speed_exceeding_limit(self):
        data = variant()
        data["agents"][0]["ugv"]["speed"] = 0.9  # > ugv_speed_limit
        assert "SPEED_BOUND" in codes_of(data)

    def test_spawn_outside_workspace(self):
        data = variant()
        data["agents"][0]["uav"]["start"] = [-7.0, 0.0, 1.0]
        assert "SPAWN_INFEASIBLE" in codes_of(data)

    def test_spawn_too_close(self):
        data = variant()
        data["agents"][1]["uav"]["start"] = [-1.9, 0.0, 1.0]  # 0.1 m from uav0
        assert "SPAWN_INFEASIBLE" in codes_of(data)

    def test_spawn_below_funnel(self):
        data = variant()
        # directly above its own vehicle but under the hover clearance
        data["agents"][0]["uav"]["start"] = [-2.0, -2.0, 0.1]
        assert "SPAWN_INFEASIBLE" in codes_of(data)

    def test_uneven_rate_grid(self):
        assert "BAD_VALUE" in codes_of(variant(control_rate=33.0))

    @pytest.mark.parametrize("latency, jitter", [
        (0.02, 1.0e308),      # 2*jitter overflows
        (1.7e308, 0.9e308),   # 2*jitter is finite, latency+jitter is not
    ])
    def test_jitter_that_overflows_a_delivery_time_rejected(self, latency, jitter):
        data = variant(network={"latency": latency, "jitter": jitter, "drop": 0.0})
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert [(v.code, v.message) for v in err.value.violations] == [(
            "BAD_VALUE", "network jitter is too large: 2*jitter and latency+jitter "
            f"must be finite, got latency {latency!r}, jitter {jitter!r}")]

    def test_largest_finite_jitter_accepted(self):
        jitter = 8.9e307  # 2*jitter and latency+jitter are still finite
        cfg = config_from_dict(variant(network={"latency": 0.02, "jitter": jitter}))
        assert cfg.network.jitter == jitter

    @pytest.mark.parametrize("overrides", [
        # the speed limits and gains that used to validate and overflow
        {"safety__uav_speed_limit": 1e308, "safety__ugv_speed_limit": 1e307,
         "gains": {"uav": 1e308, "ugv": 1e308}},
        {"gains": {"uav": [1.0, 1.0, 1e308], "ugv": 1.0}},   # K*D overflows
        {"safety__uav_speed_limit": 1e307},                 # 12*D*v overflows
        {"safety__barrier_gain": 1e307},                    # kappa*D**2 overflows
    ])
    def test_overflowing_limits_and_gains_rejected(self, overrides):
        violations = self._violations(variant(**overrides))
        assert ("BAD_VALUE", "speed limits, gains and barrier_gain are too large: the "
                "safety filter's terms over the workspace reach inf, must be finite"
                ) in violations

    def test_largest_gains_and_limits_within_the_bound_accepted(self):
        # D = |(12, 12, 3)| = 17.23 for the test workspace
        cfg = config_from_dict(variant(gains={"uav": 1e306, "ugv": 1e306},
                                       safety__uav_speed_limit=1e305))
        assert cfg.gains_uav[0] == 1e306

    def test_infinite_activation_margin_rejected(self):
        data = variant(network={"latency": 1.0e308, "jitter": 0.0})
        assert self._violations(data) == [(
            "BAD_VALUE", "the derived watcher activation_margin is inf, must be "
            "finite: latency+jitter 1e+308, uav_speed_limit 1.0")]

    def test_explicit_activation_margin_needs_no_derived_one(self):
        cfg = config_from_dict(variant(network={"latency": 1.0e308, "jitter": 0.0},
                                       watcher={"activation_margin": 2.0}))
        assert cfg.watcher.activation_margin == 2.0

    @pytest.mark.parametrize("key, value", [
        ("activation_margin", -5.0), ("activation_margin", -1e-9),
        ("touchdown_radius_sq", -0.01), ("touchdown_height", -0.02),
        ("touchdown_hold", -0.5)])
    def test_negative_watcher_options_rejected(self, key, value):
        """A negative margin gates off every separation row, a negative
        touchdown window cannot be entered and a negative dwell is no time."""
        assert self._violations(variant(watcher={key: value})) == [
            ("BAD_VALUE", f"watcher.{key} must be >= 0, got {value!r}")]

    @pytest.mark.parametrize("key", ["activation_margin", "touchdown_radius_sq",
                                     "touchdown_height", "touchdown_hold"])
    def test_zero_and_null_watcher_options_accepted(self, key):
        assert getattr(config_from_dict(variant(watcher={key: 0.0})).watcher, key) == 0.0
        assert config_from_dict(variant(watcher={"activation_margin": None})
                                ).watcher.activation_margin is None

    @staticmethod
    def _violations(data):
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        return [(v.code, v.message) for v in err.value.violations]

    def test_bad_event_pair(self):
        data = variant()
        data["events"] = [{"time": 1.0, "type": "landing", "pair": 5}]
        assert "BAD_EVENT" in codes_of(data)

    def test_all_violations_reported_not_just_first(self):
        data = variant(safety__uav_separation=0.8, capacity=7)
        data["agents"][0]["uav"]["start"] = [-7.0, 0.0, 1.0]
        codes = codes_of(data)
        assert {"RADIUS_ORDER", "CAPACITY", "SPAWN_INFEASIBLE"} <= set(codes)

    def test_missing_agents_reported(self):
        data = variant()
        del data["agents"]
        assert "MISSING_FIELD" in codes_of(data)

    def test_not_yaml(self):
        with pytest.raises(ConfigError):
            parse_config(":\nnot yaml: [unclosed")

    @pytest.mark.parametrize("key, value, message", [
        ("dt", "fast", "dt must be a number, got 'fast'"),
        ("pairs", "abc", "pairs must be a number, got 'abc'"),
        ("safety", 5, "safety must be a mapping, got 5"),
        ("network", 3, "network must be a mapping, got 3"),
        ("watcher", [1], "watcher must be a mapping, got [1]"),
        ("agents", "abc", "agents must be a list, got 'abc'"),
        ("events", 4, "events must be a list, got 4"),
        ("dt", float("nan"), "dt must be a number, got nan"),
        ("duration", float("inf"), "duration must be a number, got inf"),
        ("dt", float("-inf"), "dt must be a number, got -inf"),
        ("gains", {"uav": float("inf"), "ugv": 1.0},
         "gains.uav must be a number or 3 numbers"),
        ("gains", {"uav": 1.0, "ugv": [1.0, float("nan")]},
         "gains.ugv must be a number or 2 numbers"),
    ])
    def test_malformed_value_is_a_violation(self, key, value, message):
        data = variant(hold_timeout=-1.0)  # a violation that must still show
        data[key] = value
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        found = [(x.code, x.message) for x in err.value.violations]
        assert ("BAD_VALUE", message) in found
        assert ("BAD_VALUE", "hold_timeout must be positive, got -1.0") in found

    @pytest.mark.parametrize("seed", [-1, -5, -2**70])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ConfigError) as err:
            config_from_dict(variant(seed=seed))
        assert [(x.code, x.message) for x in err.value.violations] == [
            ("BAD_VALUE", f"seed must be >= 0, got {seed}")]

    def test_zero_seed_accepted(self):
        assert config_from_dict(variant(seed=0)).seed == 0

    @pytest.mark.parametrize("key, value", [
        ("seed", 2.7), ("seed", True), ("seed", False), ("capacity", 12.5),
        ("capacity", True), ("pairs", 1.5), ("pairs", True), ("seed", 1e-300)])
    def test_integer_keys_are_not_truncated(self, key, value):
        """int() would run seed 2.7 as 2 and seed true as 1, while the
        recorded config names the value as given."""
        with pytest.raises(ConfigError) as err:
            config_from_dict(variant(**{key: value}))
        found = [(x.code, x.message) for x in err.value.violations]
        assert ("BAD_VALUE", f"{key} must be an integer, got {value!r}") in found
        if key != "pairs":  # a rejected pair count also mismatches the agents
            assert len(found) == 1

    @pytest.mark.parametrize("key, value, message", [
        ("duration", True, "duration must be a number, got True"),
        ("network__drop", True, "network.drop must be a number, got True"),
        ("safety__barrier_gain", False, "safety.barrier_gain must be a number, got False"),
        ("gains__ugv", True, "gains.ugv must be a number or 2 numbers"),
        ("gains__uav", [1.0, True, 1.0], "gains.uav must be a number or 3 numbers"),
        ("workspace__z", [False, 3], "workspace: expected 2 numbers, got [False, 3]")])
    def test_booleans_are_not_numbers(self, key, value, message):
        """YAML true would otherwise read as 1.0: a 1 s run for duration
        true, a blackout for network.drop true, a spawn at x = 1."""
        with pytest.raises(ConfigError) as err:
            config_from_dict(variant(**{key: value}))
        assert ("BAD_VALUE", message) in [(x.code, x.message) for x in err.value.violations]

    def test_boolean_start_is_not_a_number(self):
        data = variant()
        data["agents"][0]["uav"]["start"] = [True, 0, 1]
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert ("BAD_VALUE", "agents[0].uav.start must be 3 numbers (x,y,z)") in [
            (x.code, x.message) for x in err.value.violations]

    def test_integral_floats_accepted_as_integers(self):
        cfg = config_from_dict(variant(seed=3.0, capacity=12.0, pairs=2.0))
        assert (cfg.seed, cfg.capacity, cfg.n_pairs) == (3, 12, 2)
        assert all(type(x) is int for x in (cfg.seed, cfg.capacity, cfg.n_pairs))

    def test_fractional_event_pair_rejected(self):
        data = variant()
        data["events"] = [{"time": 1.0, "type": "landing", "pair": 0.5}]
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert ("BAD_VALUE", "events[0].pair must be an integer, got 0.5") in [
            (x.code, x.message) for x in err.value.violations]

    def test_malformed_nested_values_are_violations(self):
        data = variant(safety__uav_speed_limit="fast", network__drop="x")
        data["watcher"] = {"activation_margin": "wide"}
        data["agents"][0]["uav"]["speed"] = "slow"
        data["agents"][1]["ugv"] = 3
        data["events"] = [{"time": "soon", "pair": 0}]
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        messages = {x.message for x in err.value.violations
                    if x.code == "BAD_VALUE"}
        assert {"safety.uav_speed_limit must be a number, got 'fast'",
                "network.drop must be a number, got 'x'",
                "watcher.activation_margin must be a number, got 'wide'",
                "agents[0].uav.speed must be a number, got 'slow'",
                "agents[1].ugv must be a mapping",
                "events[0].time must be a number, got 'soon'"} <= messages

    @pytest.mark.parametrize("edit, expected", [
        (lambda d: d["agents"][0].pop("uav"),
         ("MISSING_FIELD", "agents[0].uav missing")),
        (lambda d: d["agents"][1].update(ugv=3),
         ("BAD_VALUE", "agents[1].ugv must be a mapping")),
        (lambda d: d["agents"][0]["uav"].update(start="here"),
         ("BAD_VALUE", "agents[0].uav.start must be 3 numbers (x,y,z)")),
        (lambda d: d["agents"][1]["ugv"].update(waypoints=[[1, 2, 3]]),
         ("BAD_VALUE", "agents[1].ugv.waypoints must be 2-vectors")),
        (lambda d: d["agents"].__setitem__(0, 7),
         ("BAD_VALUE", "agents[0] must be a mapping, got 7")),
        (lambda d: d["agents"][0]["ugv"].update(start=[-2.0, -2.0, float("inf")]),
         ("BAD_VALUE", "agents[0].ugv.start must be 3 numbers (x,y,theta)")),
        (lambda d: d["agents"][1]["uav"].update(start=[float("-inf"), 0.0, 1.0]),
         ("BAD_VALUE", "agents[1].uav.start must be 3 numbers (x,y,z)")),
        (lambda d: d["agents"][0]["ugv"].update(waypoints=[[float("inf"), -1.1]]),
         ("BAD_VALUE", "agents[0].ugv.waypoints must be 2-vectors")),
    ])
    def test_unparsed_agent_spec_gets_no_spawn_verdict(self, edit, expected):
        """A spec that did not parse reports its own violation and nothing
        else: the spawn checks have no values of it to judge."""
        data = variant()
        edit(data)
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert [(x.code, x.message) for x in err.value.violations] == [expected]

    def test_missing_spec_in_shipped_scenario_reported_once(self):
        with open(os.path.join(SCENARIOS, "hover_pair.yaml")) as f:
            data = load_yaml(f.read())
        del data["agents"][0]["uav"]
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert [(x.code, x.message) for x in err.value.violations] == [
            ("MISSING_FIELD", "agents[0].uav missing")]

    @pytest.mark.parametrize("entry", [5, "land", [1.0, 0], None])
    def test_non_mapping_event_is_a_bad_event(self, entry):
        data = variant()
        data["events"] = [{"time": 1.0, "pair": 0}, entry]
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert [(x.code, x.message) for x in err.value.violations] == [
            ("BAD_EVENT", f"events[1] must be a mapping, got {entry!r}")]

    def test_non_finite_spawn_is_rejected(self):
        """A non-finite start does not parse: it is reported as a bad value
        and its spec gets no spawn verdict."""
        data = variant()
        data["agents"][1]["uav"]["start"] = [float("nan"), 0.0, 1.0]
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert [(x.code, x.message) for x in err.value.violations] == [
            ("BAD_VALUE", "agents[1].uav.start must be 3 numbers (x,y,z)")]

    def test_retired_watcher_key_still_loads(self):
        data = variant()
        data["watcher"] = {"velocity_stale_after": 0.2}
        with pytest.warns(FutureWarning, match="watcher.velocity_stale_after"):
            cfg = config_from_dict(data)
        assert cfg.watcher == config_from_dict(variant()).watcher


class TestSymmetricDeadlock:
    def swap_config(self):
        data = variant()
        a0 = data["agents"][0]["uav"]
        a1 = data["agents"][1]["uav"]
        a0["start"], a0["waypoints"] = [-2.0, 0.0, 1.0], [[2.0, 0.0, 1.0]]
        a1["start"], a1["waypoints"] = [2.0, 0.0, 1.0], [[-2.0, 0.0, 1.0]]
        return data

    def test_exact_swap_rejected(self):
        assert "SYMMETRIC_DEADLOCK" in codes_of(self.swap_config())

    def test_perturbation_option_clears_it(self):
        data = self.swap_config()
        data["perturb_setpoints"] = True
        cfg = config_from_dict(data)
        w0 = cfg.uavs[0].waypoints[0]
        assert np.linalg.norm(w0 - np.array([2.0, 0.0, 1.0])) == pytest.approx(
            1e-3, rel=1e-6)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1])
    def test_non_boolean_perturbation_rejected(self, value):
        # A truthy string would otherwise nudge every waypoint.
        data = variant(perturb_setpoints=value)
        assert "BAD_VALUE" in codes_of(data)
        assert not config_from_dict(variant(perturb_setpoints=None)).perturb_setpoints


# -- every number read with a bound, against one set of values -----------------

FIELD_VALUES = [0, -1.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, True, "x", [1.0], None]

# (path, default, cast, bound): the top-level table, the network section
# (read unbounded: its rules are LinkModel's), the watcher section and an
# event's time, whose bound is reported as BAD_EVENT.
READ_FIELDS = [
    ("dt", 0.01, float, "positive"),
    ("duration", 10.0, float, ">= 0"),
    ("seed", 0, int, ">= 0"),
    ("control_rate", 50.0, float, "positive"),
    ("watcher_rate", 20.0, float, "positive"),
    ("hold_timeout", 0.25, float, "positive"),
    ("platform_height", 0.0, float, None),
    ("ugv_offset", 0.1, float, "positive"),
    ("wheel_base", 0.2, float, "positive"),
    ("localization_noise", 0.0, float, ">= 0"),
    ("uav_velocity_lag", 0.0, float, ">= 0"),
    ("network.latency", 0.0, float, None),
    ("network.jitter", 0.0, float, None),
    ("network.drop", 0.0, float, None),
    ("watcher.activation_margin", None, float, ">= 0"),
    ("watcher.smoothing", 0.7, float, None),
    ("watcher.touchdown_radius_sq", 0.01, float, ">= 0"),
    ("watcher.touchdown_height", 0.02, float, ">= 0"),
    ("watcher.touchdown_hold", 0.5, float, ">= 0"),
    ("events[0].time", -1.0, float, ">= 0"),
]


def off_grid(name, rate, dt):
    return ("BAD_VALUE", f"{name}={rate} Hz does not divide the dt={dt} grid evenly")


def inf_margin(latency):
    return ("BAD_VALUE", "the derived watcher activation_margin is inf, must be finite: "
            f"latency+jitter {latency!r}, uav_speed_limit 1.0")


NEGATIVE_LINK = ("BAD_VALUE", "network latency and jitter must be >= 0")
DROP_RANGE = ("BAD_VALUE", "network drop must be in [0, 1]")

# The violations of a value that its field's own bound lets through, or
# that has no bound, from the other rules that read it: the rate grid, the
# link rules, the smoothing range, the derived margin and the spawn checks.
OTHER_RULES = {
    ("dt", 5e-324): [off_grid("control_rate", 50.0, 5e-324),
                     off_grid("watcher_rate", 20.0, 5e-324),
                     ("BAD_VALUE", "duration=5.0 is inf steps of dt=5e-324, must be at most 2**53")],
    ("duration", 1e308): [
        ("BAD_VALUE", "duration=1e+308 is inf steps of dt=0.01, must be at most 2**53")],
    ("dt", 1e308): [off_grid("control_rate", 50.0, 1e308), off_grid("watcher_rate", 20.0, 1e308)],
    ("control_rate", 5e-324): [off_grid("control_rate", 5e-324, 0.01)],
    ("control_rate", 1e308): [off_grid("control_rate", 1e308, 0.01)],
    ("watcher_rate", 5e-324): [off_grid("watcher_rate", 5e-324, 0.01),
                               inf_margin(0.0)],
    ("watcher_rate", 1e308): [off_grid("watcher_rate", 1e308, 0.01)],
    ("platform_height", 1e308): [
        ("SPAWN_INFEASIBLE", f"uav{i} spawns outside its landing funnel safe set (h=-1e+308)")
        for i in (0, 1)],
    ("ugv_offset", 1e308): [
        ("SPAWN_INFEASIBLE", "ugv0 spawns outside the workspace"),
        ("SPAWN_INFEASIBLE", "ugv1 spawns outside the workspace"),
        ("SPAWN_INFEASIBLE", "ugv_offset=1e+308 is too large: the spawn separation pad "
         "2*ugv_offset is inf, must be finite")],
    ("network.latency", -1.0): [NEGATIVE_LINK],
    ("network.latency", 1e308): [inf_margin(1e308)],
    ("network.jitter", -1.0): [NEGATIVE_LINK],
    ("network.jitter", 1e308): [(
        "BAD_VALUE", "network jitter is too large: 2*jitter and latency+jitter must be "
        "finite, got latency 0.0, jitter 1e+308")],
    ("network.drop", -1.0): [DROP_RANGE],
    ("network.drop", 1e308): [DROP_RANGE],
    **{("watcher.smoothing", value): [
        ("BAD_VALUE", f"watcher.smoothing must be in (0, 1], got {float(value)!r}")]
       for value in (0, -1.0, 1e308)},
}


def read_back(cfg, path):
    """The value cfg holds for the field at path."""
    section, _, key = path.rpartition(".")
    if section == "events[0]":
        return cfg.events[0].time
    if section == "network":
        return getattr(cfg.network, {"latency": "base_latency", "drop": "drop_prob"}.get(key, key))
    return getattr(cfg.watcher if section else cfg, key)


@pytest.mark.parametrize("value", FIELD_VALUES, ids=repr)
@pytest.mark.parametrize("path, default, cast, bound", READ_FIELDS, ids=lambda f: f)
def test_every_read_number_is_kept_or_reported(path, default, cast, bound, value):
    """Each value is either read as itself (or the field's default, for
    null), or rejected with exactly its expected violations: a value that is
    no number, or no integer, is reported and replaced by the default; the
    value read is then held to the field's bound, naming the value as
    given; other rules that read it report after.  Nothing but ConfigError
    leaves config_from_dict."""
    data = variant(events=[{"time": 1.0, "pair": 0}])
    section, _, key = path.rpartition(".")
    node = data["events"][0] if section == "events[0]" else data.setdefault(section, {}) \
        if section else data
    node[key] = value
    want = []
    number = type(value) in (int, float) and math.isfinite(value)
    if value is None:
        read = default
    elif cast is int and (type(value) is bool or number and value != int(value)):
        want.append(("BAD_VALUE", f"{path} must be an integer, got {value!r}"))
        read = default
    elif not number:
        want.append(("BAD_VALUE", f"{path} must be a number, got {value!r}"))
        read = default
    else:
        read = cast(value)
    if bound is not None and read is not None and not (
            read > 0 if bound == "positive" else read >= 0):
        code = "BAD_EVENT" if section == "events[0]" else "BAD_VALUE"
        want.append((code, f"{path} must be {bound}, got {value!r}"))
    if number:
        want += OTHER_RULES.get((path, value), [])
    if want:
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert [(x.code, x.message) for x in err.value.violations] == want
    else:
        got = read_back(config_from_dict(data), path)
        assert got == read and type(got) is type(read)


def test_integers_past_the_float_range_are_read():
    """An int too large for a float is no float, and is an integer: it is
    reported, or read, instead of raising OverflowError."""
    huge = 10 ** 400
    assert config_from_dict(variant(seed=huge)).seed == huge
    with pytest.raises(ConfigError) as err:
        config_from_dict(variant(dt=huge, capacity=-huge))
    assert [(x.code, x.message) for x in err.value.violations] == [
        ("BAD_VALUE", f"dt must be a number, got {huge!r}"),
        ("CAPACITY", f"capacity {-huge} is below the 8 rows a UAV can need with 2 pairs")]


def test_workspace_past_the_float_range_is_a_violation():
    """A workspace whose diagonal squared overflows is reported as a
    workspace too large, not as an OverflowError or as a filter reach that
    blames the gains."""
    with pytest.raises(ConfigError) as err:
        config_from_dict(variant(workspace={"x": [-1e200, 1e200]}))
    assert [(x.code, x.message) for x in err.value.violations] == [(
        "BAD_VALUE", "workspace is too large: its diagonal squared is inf, must be finite")]


def test_filter_reach_past_the_float_range_names_the_gains():
    """A finite workspace diagonal whose filter terms overflow through the
    barrier gain still blames the gains."""
    with pytest.raises(ConfigError) as err:
        config_from_dict(variant(safety__barrier_gain=1e307))
    assert [(x.code, x.message) for x in err.value.violations] == [(
        "BAD_VALUE", "speed limits, gains and barrier_gain are too large: the safety "
        "filter's terms over the workspace reach inf, must be finite")]


def test_overflowing_spawn_pad_names_ugv_offset():
    """An ugv_offset whose spawn pad 2*ugv_offset overflows is reported once,
    naming ugv_offset, and not as every pair needing more than inf; the
    other spawn checks still run."""
    data = variant(ugv_offset=1e308)
    with pytest.raises(ConfigError) as err:
        config_from_dict(data)
    assert [(x.code, x.message) for x in err.value.violations] == [
        ("SPAWN_INFEASIBLE", "ugv0 spawns outside the workspace"),
        ("SPAWN_INFEASIBLE", "ugv1 spawns outside the workspace"),
        ("SPAWN_INFEASIBLE", "ugv_offset=1e+308 is too large: the spawn separation pad "
         "2*ugv_offset is inf, must be finite")]
    # A single pair has no spawn separation to pad.
    single = variant(ugv_offset=1e308, pairs=1)
    single["agents"] = single["agents"][:1]
    with pytest.raises(ConfigError) as err:
        config_from_dict(single)
    assert [(x.code, x.message) for x in err.value.violations] == [
        ("SPAWN_INFEASIBLE", "ugv0 spawns outside the workspace")]


@pytest.mark.parametrize("duration, steps", [(1e308, "inf"), (1e300, "1e+302")])
def test_duration_past_2_to_the_53_steps_is_a_violation(duration, steps):
    """A duration of more than 2**53 steps of dt is reported: 1e308 s made
    total_steps raise OverflowError, and 1e300 s a run that never ends.
    2**53 steps exactly still validate."""
    with pytest.raises(ConfigError) as err:
        config_from_dict(variant(duration=duration))
    assert [(x.code, x.message) for x in err.value.violations] == [
        ("BAD_VALUE", f"duration={duration} is {steps} steps of dt=0.01, must be at most 2**53")]
    assert config_from_dict(variant(duration=2.0 ** 53 * 0.01)).total_steps() == 2 ** 53


# -- dump_yaml against PyYAML ----------------------------------------------------

# Strings the resolver reads as something else, or that need quotes.
SPECIAL = ["on", "yes", "No", "null", "true", "False", "1.5", "0x1F", "a b", "",
           "-a", "\u00e9", "\u65e5\u672c", "Z" * 65]
PLAIN_KEYS = st.sampled_from(["a", "b", "pairs", "uav_speed_limit", "_x", "x1",
                              "Zz", "onion", "yesterday", "Z" * 64])
PLAIN_SCALARS = (
    st.none() | st.booleans()
    | st.integers() | st.integers(2**64, 2**80) | st.integers(-2**80, -2**64)
    | st.floats() | st.sampled_from([-0.0, 5e-324, 2.2e-308, 1e16, 1e17, 1e20, 1.5e-7,
                                      math.inf, -math.inf, math.nan])
    | PLAIN_KEYS)


def nested(scalars, keys):
    return st.recursive(
        scalars, lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(keys, inner, max_size=4), max_leaves=24)


PLAIN_DOCUMENTS = st.dictionaries(PLAIN_KEYS, nested(PLAIN_SCALARS, PLAIN_KEYS),
                                  max_size=5) | st.lists(nested(PLAIN_SCALARS, PLAIN_KEYS),
                                                         max_size=4)


@settings(max_examples=100, deadline=None)
@given(PLAIN_DOCUMENTS)
def test_plain_emitter_writes_what_pyyaml_writes(data):
    """On plain data (nested lists and maps, empty ones, -0.0, subnormals,
    +-inf, nan, ints past 2**64) the one-pass emitter runs and writes the
    bytes of yaml.safe_dump."""
    text = _plain_yaml(data)
    assert text is not None
    assert text == yaml.safe_dump(data, sort_keys=True)
    assert dump_yaml(data) == text


@st.composite
def mixed_documents(draw):
    """A plain document with one non-plain value put in at a random place:
    a resolver-special or non-identifier string (as a value or a key), a
    tuple, an int-keyed map, or a container reached twice by identity.
    Returns the document and that value's kind."""
    data = {"head": draw(nested(PLAIN_SCALARS, PLAIN_KEYS))}
    shared = draw(st.lists(PLAIN_SCALARS, max_size=2) | st.dictionaries(PLAIN_KEYS, PLAIN_SCALARS,
                                                                      max_size=2))
    odd = draw(st.sampled_from(SPECIAL).map(lambda s: ("str", s))
               | st.sampled_from(SPECIAL).map(lambda s: ("key", {s: 1.0}))
               | st.just(("tuple", (1.0, "a")))
               | st.just(("int keys", {2: "b", 1: None}))
               | st.just(("shared", [shared, {"again": shared}])))
    # Down a random path of fresh containers, so it sits at any depth.
    node = data
    for step in draw(st.lists(st.sampled_from(["map", "list"]), max_size=3)):
        child = {} if step == "map" else []
        if isinstance(node, dict):
            node["n"] = child
        else:
            node.append(child)
        node = child
    if isinstance(node, dict):
        node["odd"] = odd[1]
    else:
        node.append(odd[1])
    return data, odd[0]


@settings(max_examples=60, deadline=None)
@given(mixed_documents())
def test_non_plain_data_falls_back_to_pyyaml(case):
    """Special strings, tuples, non-str keys and shared containers are left
    to PyYAML, whose anchors and quotes come out unchanged."""
    data, kind = case
    assert _plain_yaml(data) is None
    text = dump_yaml(data)
    assert text == yaml.safe_dump(data, sort_keys=True)
    assert ("&id001" in text) == (kind == "shared")


def test_special_strings_and_shared_containers_take_pyyaml():
    for text in SPECIAL:
        assert _plain_yaml({"k": text}) is None, text
        assert _plain_yaml({text: 1}) is None, text
        assert dump_yaml({"k": [text]}) == yaml.safe_dump({"k": [text]}, sort_keys=True)
    for shared in ([], {}, [1.0], {"a": 1}):
        data = {"a": shared, "b": [shared]}
        assert _plain_yaml(data) is None
        assert "&id001" in dump_yaml(data)
    # Equal but distinct containers are plain.
    assert _plain_yaml({"a": [1.0], "b": [[1.0]]}) == "a:\n- 1.0\nb:\n- - 1.0\n"


def test_unwritable_value_names_itself():
    with pytest.raises(InvalidInputError, match=r"0\.6"):
        dump_yaml({"speed": np.float64(0.6)})


# -- load_yaml against PyYAML ----------------------------------------------------

def same_data(a, b) -> bool:
    """a and b are equal data of the same types, maps in the same key order,
    with NaN equal to NaN and -0.0 told from 0.0."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return list(a) == list(b) and all(same_data(a[key], b[key]) for key in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(same_data, a, b))
    return repr(a) == repr(b) if type(a) is float else a == b


def no_pyyaml_load(*args, **kwargs):
    raise AssertionError("yaml.load was called")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(PLAIN_DOCUMENTS)
def test_plain_text_is_read_without_pyyaml(data):
    """load_yaml reads the text the one-pass emitter writes in one pass of
    its own, with PyYAML's load unused: to the data PyYAML reads, which
    re-emits to the same text."""
    text = _plain_yaml(data)
    want = yaml.load(text, Loader=yaml.SafeLoader)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(yaml, "load", no_pyyaml_load)
        again = load_yaml(text)
    assert same_data(again, want)
    assert _plain_yaml(again) == text


def respell(token: str, choice: int) -> str:
    """Another YAML spelling of a scalar, or of a value of another type."""
    spellings = {"true": ["True", "yes", "TRUE", "on"], "false": ["False", "no", "off"],
                 "null": ["~", "Null", ""], ".inf": [".Inf", "inf", "+.inf"],
                 "-.inf": ["-.INF", "-inf"], ".nan": [".NaN", "nan"],
                 "[]": ["[ ]", "!!seq []"], "{}": ["{ }", "!!map {}"]}.get(token)
    if spellings is None and token and token[0] in "-0123456789":
        if "." in token:   # a float: 1.0 as 1., 1.0e0, +1.0 or 1.0_0
            mantissa, _, exponent = token.partition("e")
            spellings = [mantissa.rstrip("0") + (f"e{exponent}" if exponent else ""),
                         token + "e0" if not exponent else token.upper(),
                         "+" + token if token[0] != "-" else token.replace("-", "-0", 1),
                         mantissa + "_0" + (f"e{exponent}" if exponent else "")]
        else:              # an int: +1, 01, 0x1 or 1_0
            spellings = ["+" + token, "0" + token, hex(int(token)), token + "_0", token + ".0"]
    if spellings is None:  # a string
        spellings = [f"'{token}'", f'"{token}"', token.upper(), "!!str " + token]
    return spellings[choice % len(spellings)]


@st.composite
def edited_plain_texts(draw):
    """The plain text of a document with one edit: a line re-indented, two
    lines swapped, a scalar re-spelled, a trailing comment or space, flow
    style, a tab, a duplicated line (a key given twice), CRLF line ends or
    a BOM."""
    data = draw(PLAIN_DOCUMENTS | st.sampled_from([BASE]))
    text = _plain_yaml(data)
    lines = text.splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    line = lines[k]
    kind = draw(st.sampled_from(["indent", "swap", "respell", "comment", "space", "flow",
                                 "tab", "duplicate", "crlf", "bom"]))
    if kind == "indent":
        lines[k] = (" " * draw(st.integers(1, 4)) + line if draw(st.booleans())
                    else line[draw(st.integers(1, 2)):] if line.startswith(" ") else " " + line)
    elif kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[k], lines[j] = lines[j], line
    elif kind == "respell":
        head, sep, token = line.rpartition(": ") if ": " in line else line.rpartition("- ")
        lines[k] = head + sep + respell(token, draw(st.integers(0, 4)))
    elif kind == "comment":
        lines[k] = line + draw(st.sampled_from([" # note", "  #", "#x"]))
    elif kind == "space":
        lines[k] = line + " "
    elif kind == "flow":
        if draw(st.booleans()):
            return yaml.safe_dump(data, default_flow_style=True, sort_keys=True)
        head, sep, token = line.rpartition(": ") if ": " in line else line.rpartition("- ")
        lines[k] = head + sep + draw(st.sampled_from(["[{0}]", "[{0}, {0}]", "{{a: {0}}}"])
                                     ).format(token)
    elif kind == "tab":
        at = draw(st.integers(0, len(line)))
        lines[k] = line[:at] + "\t" + line[at:]
    elif kind == "duplicate":
        lines.insert(k, line)
    text = "\n".join(lines) + "\n"
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    return "\ufeff" + text if kind == "bom" else text


def yaml_outcome(load, text: str):
    try:
        return True, load(text)
    except yaml.YAMLError:
        return False, None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(edited_plain_texts())
def test_edited_plain_text_reads_as_pyyaml_reads_it(text):
    """One edit to a plain text either keeps it plain, and the one-pass
    reader gives what PyYAML's safe loader gives, or sends it to PyYAML:
    load_yaml's data is always what yaml.safe_load gives, or both raise
    YAMLError."""
    ok, data = yaml_outcome(load_yaml, text)
    want_ok, want = yaml_outcome(yaml.safe_load, text)
    assert ok == want_ok and same_data(data, want)


def test_tab_inside_a_key_is_not_yaml_on_any_build():
    """The scenario parser is PyYAML's Python SafeLoader whether or not
    PyYAML was built with libyaml, whose loader reads this text as a
    mapping with the key 'a\\tgents' (so the scenario would miss agents)."""
    with pytest.raises(ConfigError) as err:
        parse_config(yaml.safe_dump(BASE).replace("agents:", "a\tgents:"))
    [violation] = err.value.violations
    assert violation.code == "BAD_VALUE"
    assert violation.message.startswith("not valid YAML: ")


def test_summarize_reads_a_grid_runs_config_without_pyyaml(tmp_path):
    """resolved_config.yaml, as a grid run writes it, is read in one pass:
    summarize_dir reproduces metrics.json with PyYAML's load unused."""
    run(grid_scenario(16, seed=2, duration=0.5), str(tmp_path))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(yaml, "load", no_pyyaml_load)
        summary = summarize_dir(str(tmp_path))
    assert summary.to_json() + "\n" == (tmp_path / "metrics.json").read_text()
