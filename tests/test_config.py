import copy
import glob
import os
import warnings

import numpy as np
import pytest
import yaml

from airground.barriers import SafetyParams
from airground.config import (config_from_dict, load_config, load_yaml,
                              parse_config)
from airground.errors import ConfigError

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
        """to_yaml uses libyaml's emitter where PyYAML has it; it must write
        the bytes the Python emitter writes."""
        configs = [load_config(path) for path in
                   sorted(glob.glob(os.path.join(SCENARIOS, "*.yaml")))]
        configs += [build() for build, *_ in GOLDEN.values()]
        configs += [grid_scenario(n, seed=2) for n in (4, 16, 64)]
        for cfg in configs:
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
        assert ("BAD_VALUE", "hold_timeout must be positive") in found

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
