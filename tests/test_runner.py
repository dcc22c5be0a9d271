import csv
import json
import math
import os

import numpy as np
import pytest

import airground.runner as runner_mod
from airground.errors import InvalidInputError, SafetyAbortError
from airground.runner import run
from airground.summary import BLOCK_SAMPLES, LogIntegrityError, summarize_dir

from scenario_helpers import (clustered_scenario, crossing_scenario,
                              landing_scenario, single_pair)


def read_rows(path):
    with open(path) as f:
        return list(csv.DictReader(f))


class TestBasicRuns:
    def test_single_pair_holds_station_safely(self, tmp_path):
        cfg = single_pair(duration=4.0)
        result = run(cfg, str(tmp_path))
        for fam, h in result.metrics.family_min_h.items():
            assert float(h) >= 0.0, fam
        rows = read_rows(result.trajectory_path)
        last_uav = [r for r in rows if r["agent_id"] == "uav0"][-1]
        assert abs(float(last_uav["x"])) < 5e-3
        assert abs(float(last_uav["z"]) - 1.0) < 5e-3

    def test_trajectory_header_and_shape(self, tmp_path):
        cfg = single_pair(duration=1.0)
        result = run(cfg, str(tmp_path))
        with open(result.trajectory_path) as f:
            header = f.readline().strip()
        assert header == ("time_s,agent_id,kind,x,y,z,theta,ux,uy,uz,"
                          "qp_status,min_h")
        rows = read_rows(result.trajectory_path)
        # 1s at 50 Hz control = 51 ticks x 2 agents
        assert len(rows) == 51 * 2

    def test_agents_hold_until_first_update_arrives(self, tmp_path):
        cfg = single_pair(duration=1.0, network={"latency": 0.1, "jitter": 0.0,
                                                 "drop": 0.0})
        result = run(cfg, str(tmp_path))
        rows = read_rows(result.trajectory_path)
        for r in rows:
            if float(r["time_s"]) < 0.1:
                assert r["qp_status"] == "hold"
            if float(r["time_s"]) > 0.3:
                assert r["qp_status"] == "optimal"

    def test_metrics_files_written(self, tmp_path):
        cfg = single_pair(duration=1.0)
        run(cfg, str(tmp_path), trace=True)
        for name in ("trajectory.csv", "watcher.csv", "trace.log",
                     "metrics.json", "resolved_config.yaml"):
            assert (tmp_path / name).exists()


class TestCrossingArrival:
    def test_two_uavs_swap_sides_and_reach_setpoints(self, tmp_path):
        from scenario_helpers import base_dict
        from airground.config import config_from_dict

        data = base_dict(2, duration=25.0, seed=13)
        data["agents"] = [
            {
                "uav": {"start": [-2.5, 0.05, 1.0],
                        "waypoints": [[2.5, 0.1, 1.1]], "speed": 0.0},
                "ugv": {"start": [-5.0, -3.0, 0.0],
                        "waypoints": [[-5.0, -3.0]], "speed": 0.0},
            },
            {
                "uav": {"start": [2.5, -0.05, 1.0],
                        "waypoints": [[-2.5, -0.1, 1.2]], "speed": 0.0},
                "ugv": {"start": [5.0, 3.0, 0.0],
                        "waypoints": [[5.0, 3.0]], "speed": 0.0},
            },
        ]
        cfg = config_from_dict(data)
        result = run(cfg, str(tmp_path))
        assert float(result.metrics.family_min_h["uav_uav"]) >= -5e-3
        rows = read_rows(result.trajectory_path)
        finals = {r["agent_id"]: r for r in rows}
        for aid, target in (("uav0", (2.5, 0.1, 1.1)), ("uav1", (-2.5, -0.1, 1.2))):
            got = np.array([float(finals[aid]["x"]), float(finals[aid]["y"]),
                            float(finals[aid]["z"])])
            assert np.linalg.norm(got - np.array(target)) < 0.05, aid


class TestDeterminism:
    def test_byte_identical_logs_and_traces(self, tmp_path):
        cfg_a = crossing_scenario(2, seed=5, duration=8.0,
                                  network={"latency": 0.02, "jitter": 0.005,
                                           "drop": 0.02})
        cfg_b = crossing_scenario(2, seed=5, duration=8.0,
                                  network={"latency": 0.02, "jitter": 0.005,
                                           "drop": 0.02})
        ra = run(cfg_a, str(tmp_path / "a"), trace=True)
        rb = run(cfg_b, str(tmp_path / "b"), trace=True)
        for name in ("trajectory.csv", "watcher.csv", "trace.log"):
            with open(tmp_path / "a" / name, "rb") as f:
                bytes_a = f.read()
            with open(tmp_path / "b" / name, "rb") as f:
                bytes_b = f.read()
            assert bytes_a == bytes_b, name

    def test_different_seed_changes_jittered_trace(self, tmp_path):
        import copy

        from airground.config import config_from_dict

        net = {"latency": 0.02, "jitter": 0.01, "drop": 0.1}
        cfg_a = crossing_scenario(2, seed=5, duration=4.0, network=net)
        data = copy.deepcopy(cfg_a.raw)
        data["seed"] = 6  # same geometry, different network randomness
        cfg_b = config_from_dict(data)
        ra = run(cfg_a, str(tmp_path / "a"), trace=True)
        rb = run(cfg_b, str(tmp_path / "b"), trace=True)
        with open(ra.trace_path) as f:
            ta = f.read()
        with open(rb.trace_path) as f:
            tb = f.read()
        assert ta != tb


class TestEventCausality:
    def test_no_effect_before_signal_time(self, tmp_path):
        base = landing_scenario(1, seed=3, ugv_speed=0.4, signal_time=3.0,
                                duration=6.0)
        quiet = landing_scenario(1, seed=3, ugv_speed=0.4, signal_time=3.0,
                                 duration=6.0, events=[])
        r_event = run(base, str(tmp_path / "event"))
        r_quiet = run(quiet, str(tmp_path / "quiet"))
        rows_event = read_rows(r_event.trajectory_path)
        rows_quiet = read_rows(r_quiet.trajectory_path)
        for re_, rq in zip(rows_event, rows_quiet):
            if float(re_["time_s"]) < 3.0:
                assert re_ == rq
        assert rows_event != rows_quiet  # the signal did change the run


class TestLanding:
    def test_touchdown_and_rigid_attachment(self, tmp_path):
        cfg = landing_scenario(1, seed=2, ugv_speed=0.4, duration=30.0)
        result = run(cfg, str(tmp_path))
        assert result.touchdown_times.get(0) is not None
        rows = read_rows(result.trajectory_path)
        by_time = {}
        for r in rows:
            by_time.setdefault(r["time_s"], {})[r["agent_id"]] = r
        landed_ticks = [t for t, agents in by_time.items()
                        if agents["uav0"]["qp_status"] == "landed"]
        assert landed_ticks, "UAV never reported landed"
        # Skip the transition tick: attachment happens at the integration
        # step after the ack arrives, exact from the next logged tick on.
        clearance = cfg.safety.hover_clearance
        for t in landed_ticks[1:]:
            uav, ugv = by_time[t]["uav0"], by_time[t]["ugv0"]
            assert uav["x"] == ugv["x"]
            assert uav["y"] == ugv["y"]
            assert float(uav["z"]) == pytest.approx(clearance, abs=1e-12)

    def test_funnel_invariant_during_descent(self, tmp_path):
        cfg = landing_scenario(2, seed=4, ugv_speed=0.45, duration=30.0)
        result = run(cfg, str(tmp_path))
        assert float(result.metrics.family_min_h["landing"]) >= -1e-3
        assert set(result.touchdown_times) == {0, 1}

    def test_landing_outcomes_in_metrics(self, tmp_path):
        cfg = landing_scenario(1, seed=5, ugv_speed=0.35, duration=30.0)
        result = run(cfg, str(tmp_path))
        outcome = result.metrics.landing_outcomes[0]
        assert outcome is not None
        assert outcome >= result.touchdown_times[0]  # ack arrives after detection


class TestNetworkDegradation:
    def test_full_blackout_holds_agents_still(self, tmp_path):
        cfg = single_pair(duration=2.0,
                          uav_waypoints=[[3.0, 0.0, 1.5]],
                          network={"latency": 0.0, "jitter": 0.0, "drop": 1.0})
        result = run(cfg, str(tmp_path))
        rows = read_rows(result.trajectory_path)
        for r in rows:
            if float(r["time_s"]) >= 0.25:
                assert r["qp_status"] == "hold", r
                assert float(r["ux"]) == 0.0 and float(r["uy"]) == 0.0
        start = [r for r in rows if r["agent_id"] == "uav0"][0]
        end = [r for r in rows if r["agent_id"] == "uav0"][-1]
        assert start["x"] == end["x"] and start["z"] == end["z"]

    def test_lossy_network_still_converges(self, tmp_path):
        cfg = single_pair(duration=6.0, uav_waypoints=[[1.5, 0.5, 1.2]],
                          network={"latency": 0.05, "jitter": 0.01,
                                   "drop": 0.3})
        result = run(cfg, str(tmp_path))
        rows = [r for r in read_rows(result.trajectory_path)
                if r["agent_id"] == "uav0"]
        final = rows[-1]
        assert abs(float(final["x"]) - 1.5) < 0.05
        assert float(result.metrics.family_min_h["landing"]) >= -1e-3


class TestSummarize:
    def test_recomputation_matches_run_metrics(self, tmp_path):
        cfg = crossing_scenario(2, seed=9, duration=6.0)
        result = run(cfg, str(tmp_path), trace=True)
        again = summarize_dir(str(tmp_path))
        assert again.to_json() == result.metrics.to_json()
        assert again.active_links == 4  # 2N links with N=2
        assert again.agent_to_agent_messages == 0

    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize("case", [
        "no_duration", "one_pair", "crossing", "whole_blocks",
        "whole_blocks_3", "landings", "relaxed"])
    def test_loop_metrics_equal_recomputed(self, tmp_path, case, trace):
        """run() builds its metrics in the loop; summarize_dir re-derives
        them from the files.  Both must agree key for key, and metrics.json
        must hold run()'s."""
        cfg = {
            "no_duration": lambda: single_pair(duration=0.0),
            "one_pair": lambda: single_pair(duration=1.0),
            "crossing": lambda: crossing_scenario(3, seed=2, duration=3.0),
            # 512 ticks of 2 agents, and 170 ticks of 6: whole blocks only
            "whole_blocks": lambda: single_pair(duration=10.22),
            "whole_blocks_3": lambda: crossing_scenario(3, seed=2, duration=3.38),
            "landings": lambda: landing_scenario(2, seed=3, ugv_speed=0.4,
                                                 duration=10.0),
            "relaxed": lambda: clustered_scenario(duration=3.0),
        }[case]()
        result = run(cfg, str(tmp_path), trace=trace)
        m = result.metrics
        assert summarize_dir(str(tmp_path)).to_json() == m.to_json()
        assert (tmp_path / "metrics.json").read_text() == m.to_json() + "\n"
        assert (m.active_links is not None) == trace
        if case == "no_duration":
            assert m.ticks == 1 and m.duration == 0.0
        if case.startswith("whole_blocks"):
            assert m.ticks == 2 * (BLOCK_SAMPLES // (2 * cfg.n_pairs))
        if case == "landings":
            assert None not in m.landing_outcomes.values()
        if case == "relaxed":
            assert m.status_counts["relaxed"] > 0

    def test_repeated_agent_line(self, tmp_path):
        """A tick that logs an agent twice: the later line gives its state,
        and both lines are checked and counted."""
        result = run(single_pair(duration=1.0), str(tmp_path))
        with open(result.trajectory_path) as f:
            lines = f.read().splitlines()
        lines.insert(5, lines[5])
        with open(result.trajectory_path, "w") as f:
            f.write("\n".join(lines) + "\n")
        again = summarize_dir(str(tmp_path))
        status = lines[5].split(",")[10]
        assert again.ticks == result.metrics.ticks
        assert again.status_counts[status] == result.metrics.status_counts[status] + 1
        assert again.family_min_h == result.metrics.family_min_h

    def test_tampered_state_detected(self, tmp_path):
        cfg = single_pair(duration=1.0)
        result = run(cfg, str(tmp_path))
        with open(result.trajectory_path) as f:
            lines = f.read().splitlines()
        fields = lines[20].split(",")
        fields[3] = "4.2"  # move an agent without touching min_h
        lines[20] = ",".join(fields)
        with open(result.trajectory_path, "w") as f:
            f.write("\n".join(lines) + "\n")
        with pytest.raises(LogIntegrityError):
            summarize_dir(str(tmp_path))

    @pytest.mark.parametrize("kind, logged", [(None, "nan"), ("rover", "-inf")])
    def test_non_finite_min_h_disagrees(self, tmp_path, kind, logged):
        """A logged min_h must equal the recomputed one or lie within 1e-9
        of it: NaN never does, nor does -inf where an agent without barrier
        terms (its kind is neither uav nor ugv) recomputes to +inf."""
        result = run(single_pair(duration=1.0), str(tmp_path))
        with open(result.trajectory_path) as f:
            lines = f.read().splitlines()
        fields = lines[20].split(",")
        fields[2] = kind or fields[2]
        fields[11] = logged
        lines[20] = ",".join(fields)
        with open(result.trajectory_path, "w") as f:
            f.write("\n".join(lines) + "\n")
        with pytest.raises(LogIntegrityError) as err:
            summarize_dir(str(tmp_path))
        assert f":21: logged min_h {float(logged)!r}" in str(err.value)

    def test_first_bad_line_mid_block_is_reported(self, tmp_path):
        """Lines are evaluated a block of ticks at a time but checked in
        file order: the earliest bad line is reported, ahead of a later
        bad line and a later malformed line in the same block."""
        cfg = crossing_scenario(3, seed=2, duration=5.0)
        result = run(cfg, str(tmp_path))
        with open(result.trajectory_path) as f:
            lines = f.read().splitlines()
        agents = 2 * cfg.n_pairs
        block_end = 1 + (BLOCK_SAMPLES // agents) * agents  # its last file line
        first, second, garbage = block_end // 3, block_end // 2, block_end - 3
        assert 2 < first < second < garbage < block_end
        for lineno in (first, second):
            fields = lines[lineno - 1].split(",")
            fields[11] = "123.5"
            lines[lineno - 1] = ",".join(fields)
        lines[garbage - 1] = "garbage"
        with open(result.trajectory_path, "w") as f:
            f.write("\n".join(lines) + "\n")
        with pytest.raises(LogIntegrityError) as err:
            summarize_dir(str(tmp_path))
        assert f":{first}: logged min_h 123.5" in str(err.value)

    def test_malformed_line_mid_tick_is_reported(self, tmp_path):
        """A malformed line leaves its tick incomplete: that tick is not
        evaluated, so the malformed line is what gets reported."""
        result = run(single_pair(duration=1.0), str(tmp_path))
        with open(result.trajectory_path) as f:
            lines = f.read().splitlines()
        lines.insert(2, "0,ugv0,ugv,not-a-number,0,0,0,0,0,0,optimal,0")
        with open(result.trajectory_path, "w") as f:
            f.write("\n".join(lines) + "\n")
        with pytest.raises(InvalidInputError, match=":3:"):
            summarize_dir(str(tmp_path))

    @pytest.mark.parametrize("column, value", [(3, "nan"), (5, "nan"), (6, "-inf")])
    def test_non_finite_state_is_rejected(self, tmp_path, column, value):
        result = run(single_pair(duration=1.0), str(tmp_path))
        with open(result.trajectory_path) as f:
            lines = f.read().splitlines()
        fields = lines[6].split(",")
        assert fields[2] == "ugv"
        fields[column] = value
        lines[6] = ",".join(fields)
        with open(result.trajectory_path, "w") as f:
            f.write("\n".join(lines) + "\n")
        with pytest.raises(InvalidInputError, match=":7: state must be finite"):
            summarize_dir(str(tmp_path))

    @pytest.mark.parametrize("value", ["abc", "nan", "inf"])
    def test_bad_time_is_reported_with_its_line(self, tmp_path, value):
        """A time that is not a finite number names its file and line, like
        every other malformed field; nan and inf are not a duration."""
        result = run(single_pair(duration=1.0), str(tmp_path))
        with open(result.trajectory_path) as f:
            lines = f.read().splitlines()
        for k in (-2, -1):  # both lines of the last tick
            fields = lines[k].split(",")
            fields[0] = value
            lines[k] = ",".join(fields)
        with open(result.trajectory_path, "w") as f:
            f.write("\n".join(lines) + "\n")
        with pytest.raises(InvalidInputError,
                           match=f"trajectory.csv:{len(lines) - 1}: "):
            summarize_dir(str(tmp_path))

    def test_malformed_line_reports_line_number(self, tmp_path):
        cfg = single_pair(duration=1.0)
        result = run(cfg, str(tmp_path))
        with open(result.trajectory_path) as f:
            lines = f.read().splitlines()
        lines[5] = "garbage"
        with open(result.trajectory_path, "w") as f:
            f.write("\n".join(lines) + "\n")
        with pytest.raises(Exception) as err:
            summarize_dir(str(tmp_path))
        assert ":6:" in str(err.value)

    def test_empty_run_summary(self, tmp_path):
        cfg = single_pair(duration=0.0)
        result = run(cfg, str(tmp_path))
        assert result.metrics.ticks == 1  # t=0 snapshot only
        assert result.metrics.status_counts.get("hold", 0) >= 0


class TestWatcherFailure:
    def test_capacity_error_aborts_with_state_dump(self, tmp_path):
        cfg = clustered_scenario(duration=1.0)
        cfg.capacity = 6  # validated at 10, the rows a fully proximal UAV needs
        with pytest.raises(SafetyAbortError, match="watcher failed at t=0"):
            run(cfg, str(tmp_path))
        with open(tmp_path / "state_dump.json") as f:
            dump = json.load(f)
        assert dump["step"] == 0
        assert "exceed capacity 6" in dump["reason"]
        assert sorted(dump["uavs"]) == ["uav0", "uav1", "uav2"]


class TestNonFiniteState:
    """A state that turns non-finite mid-run ends in a safety abort with a
    state dump, whichever check sees it first."""

    @staticmethod
    def poison_step(monkeypatch, at_call):
        step, calls = runner_mod.step_uav, []

        def step_uav(uav, u, dt):
            calls.append(None)
            out = step(uav, u, dt)
            if len(calls) == at_call:
                out[0, 0] = np.inf
            return out
        monkeypatch.setattr(runner_mod, "step_uav", step_uav)

    def test_logged_after_the_last_watcher_tick(self, tmp_path, monkeypatch):
        """The last integration (t=0.51 -> 0.52) goes non-finite; the
        watcher last ticked at t=0.5, so only the trajectory block sees
        it."""
        self.poison_step(monkeypatch, at_call=52)
        with pytest.raises(SafetyAbortError, match="non-finite state logged"):
            run(crossing_scenario(2, seed=9, duration=0.52), str(tmp_path))
        dump = json.loads((tmp_path / "state_dump.json").read_text())
        assert dump["step"] == 52 and dump["reason"] == "non-finite logged state"
        assert dump["uavs"]["uav0"][0] == math.inf

    def test_seen_by_the_watcher(self, tmp_path, monkeypatch):
        self.poison_step(monkeypatch, at_call=30)
        with pytest.raises(SafetyAbortError, match="watcher failed at t=0.3"):
            run(crossing_scenario(2, seed=9, duration=1.0), str(tmp_path))
        dump = json.loads((tmp_path / "state_dump.json").read_text())
        assert "fleet poses must be finite" in dump["reason"]


class TestWatcherLog:
    def test_row_count_histogram_matches_records(self, tmp_path):
        cfg = clustered_scenario(duration=3.0)
        result = run(cfg, str(tmp_path))
        hist = result.metrics.row_count_histogram
        for i in range(3):
            assert set(hist[f"uav{i}"]) == {10}
            assert set(hist[f"ugv{i}"]) == {6}

    def test_records_carry_proximal_sets(self, tmp_path):
        cfg = clustered_scenario(duration=1.0)
        result = run(cfg, str(tmp_path))
        rec = next(r for r in result.watcher_records if r.agent_id == "uav0")
        assert set(rec.proximal) == {"uav1", "uav2", "ugv1", "ugv2"}


class TestCommandBounds:
    def test_all_logged_commands_respect_admissible_boxes(self, tmp_path):
        cfg = crossing_scenario(3, seed=21, duration=12.0)
        result = run(cfg, str(tmp_path))
        uav_lim = cfg.safety.uav_speed_limit + 1e-9
        ugv_lim = cfg.safety.ugv_speed_limit + 1e-9
        for r in read_rows(result.trajectory_path):
            lim = uav_lim if r["kind"] == "uav" else ugv_lim
            for axis in ("ux", "uy", "uz"):
                assert abs(float(r[axis])) <= lim, r


class TestLargerFleet:
    def test_six_pairs_run_clean(self, tmp_path):
        cfg = crossing_scenario(6, seed=3, duration=8.0)
        result = run(cfg, str(tmp_path), trace=True)
        assert cfg.capacity == 16  # defaults to 2N+4
        assert result.metrics.active_links == 12
        assert result.metrics.agent_to_agent_messages == 0
        for fam, h in result.metrics.family_min_h.items():
            assert float(h) >= -0.01, (fam, h)


class TestLowLevelLag:
    def test_lagged_tracking_slows_but_still_converges(self, tmp_path):
        fast = single_pair(duration=4.0, uav_waypoints=[[1.0, 0.0, 1.0]])
        slow = single_pair(duration=4.0, uav_waypoints=[[1.0, 0.0, 1.0]],
                           uav_velocity_lag=0.4)
        r_fast = run(fast, str(tmp_path / "fast"))
        r_slow = run(slow, str(tmp_path / "slow"))

        def x_at(result, t):
            for r in read_rows(result.trajectory_path):
                if r["agent_id"] == "uav0" and float(r["time_s"]) == t:
                    return float(r["x"])

        assert x_at(r_slow, 1.0) < x_at(r_fast, 1.0)  # lag delays the response
        assert abs(x_at(r_slow, 4.0) - 1.0) < 0.05    # but it still arrives

    def test_noisy_localization_stays_deterministic(self, tmp_path):
        a = single_pair(duration=2.0, localization_noise=0.005)
        b = single_pair(duration=2.0, localization_noise=0.005)
        ra = run(a, str(tmp_path / "a"))
        rb = run(b, str(tmp_path / "b"))
        with open(ra.trajectory_path, "rb") as f:
            bytes_a = f.read()
        with open(rb.trajectory_path, "rb") as f:
            bytes_b = f.read()
        assert bytes_a == bytes_b


class TestTraceOrdering:
    def test_send_times_monotone_per_link(self, tmp_path):
        cfg = crossing_scenario(2, seed=8, duration=4.0,
                                network={"latency": 0.03, "jitter": 0.01,
                                         "drop": 0.0})
        result = run(cfg, str(tmp_path), trace=True)
        last = {}
        with open(result.trace_path) as f:
            for line in f:
                if not line.startswith("send"):
                    continue
                fields = dict(p.split("=", 1) for p in line.split()[1:])
                key = (fields["src"], fields["dst"])
                t = float(fields["t"])
                assert t >= last.get(key, -1.0)
                last[key] = t
