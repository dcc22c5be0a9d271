import contextlib
import copy
import dataclasses
import io
import json
import os
import shutil

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from airground import cli
from airground.cli import main
from airground.logfmt import fmt9
from airground.watcher import TrackTable

from scenario_helpers import clustered_scenario, crossing_scenario, grid_scenario, single_pair

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def write_config(tmp_path, data, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


class TestValidate:
    def test_valid_config_exits_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, single_pair(duration=1.0).raw)
        assert main(["validate", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        data = single_pair(duration=1.0).raw
        data["safety"]["uav_separation"] = 0.9  # breaks the radius ordering
        path = write_config(tmp_path, data)
        assert main(["validate", path]) == 2
        assert "RADIUS_ORDER" in capsys.readouterr().err

    def test_missing_file_exits_two(self):
        assert main(["validate", "/nonexistent/config.yaml"]) == 2

    def test_shipped_scenarios_validate(self):
        for name in ("hover_pair.yaml", "landing_demo.yaml",
                     "crossing_three.yaml"):
            assert main(["validate", os.path.join(SCENARIOS, name)]) == 0


class TestMalformedValues:
    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("line", ["dt: fast", "pairs: abc", "safety: 5",
                                      "network: 3"])
    def test_malformed_value_exits_two(self, tmp_path, capsys, command, line):
        path = tmp_path / "hover_pair.yaml"
        with open(os.path.join(SCENARIOS, "hover_pair.yaml")) as f:
            path.write_text(f.read() + line + "\n")
        args = [command, str(path)]
        if command == "run":
            args += ["--out-dir", str(tmp_path / "out")]
        assert main(args) == 2
        assert f"[BAD_VALUE] {line.split(':')[0]} must be a" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("old, new, message", [
        ("start: [-6.0, -1.1, 0.0]", "start: [-6.0, -1.1, .inf]",
         "agents[0].ugv.start must be 3 numbers (x,y,theta)"),
        ("duration: 30.0", "duration: .inf", "duration must be a number, got inf"),
        ("uav: 1.2", "uav: .inf", "gains.uav must be a number or 3 numbers"),
        ("[[7.0, -1.1],", "[[.inf, -1.1],", "agents[0].ugv.waypoints must be 2-vectors"),
    ], ids=["start", "duration", "gains", "waypoint"])
    def test_non_finite_number_exits_two(self, tmp_path, capsys, command, old, new,
                                         message):
        with open(os.path.join(SCENARIOS, "landing_demo.yaml")) as f:
            text = f.read()
        assert text.count(old) == 1
        path = tmp_path / "landing_demo.yaml"
        path.write_text(text.replace(old, new))
        args = [command, str(path)]
        if command == "run":
            args += ["--out-dir", str(tmp_path / "out")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"[BAD_VALUE] {message}" in err
        assert "Traceback" not in err


class TestHugeJitter:
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_jitter_that_overflows_exits_two(self, tmp_path, capsys, command):
        """Delivery times of -jitter + 2*jitter*u would overflow: the config
        is rejected before the bus draws anything."""
        with open(os.path.join(SCENARIOS, "crossing_three.yaml")) as f:
            text = f.read()
        assert text.count("jitter: 0.005") == 1
        path = tmp_path / "crossing_three.yaml"
        path.write_text(text.replace("jitter: 0.005", "jitter: 1.0e+308"))
        args = [command, str(path)]
        if command == "run":
            args += ["--out-dir", str(tmp_path / "out")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "[BAD_VALUE] network jitter is too large" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_latency_that_makes_the_margin_infinite_exits_two(self, tmp_path, capsys,
                                                              command):
        """A latency whose derived activation margin is infinite would open
        every gate at any distance: the config is rejected."""
        with open(os.path.join(SCENARIOS, "crossing_three.yaml")) as f:
            text = f.read()
        assert text.count("latency: 0.02") == 1 and text.count("jitter: 0.005") == 1
        path = tmp_path / "crossing_three.yaml"
        path.write_text(text.replace("latency: 0.02", "latency: 1.0e+308")
                        .replace("jitter: 0.005", "jitter: 0.0"))
        args = [command, str(path)]
        if command == "run":
            args += ["--out-dir", str(tmp_path / "out")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "[BAD_VALUE] the derived watcher activation_margin is inf" in err
        assert "Traceback" not in err


class TestHugeDuration:
    @pytest.mark.parametrize("command, duration", [
        ("validate", "1.0e+308"), ("validate", "1.0e+300"), ("run", "1.0e+308")])
    def test_duration_past_2_to_the_53_steps_exits_two(self, tmp_path, capsys, command,
                                                        duration):
        """A duration of more than 2**53 steps of dt is rejected: 1e308 s made
        run exit 1 with an OverflowError, and 1e300 s ran without end."""
        with open(os.path.join(SCENARIOS, "hover_pair.yaml")) as f:
            text = f.read()
        assert text.count("duration: 10.0") == 1
        path = tmp_path / "hover_pair.yaml"
        path.write_text(text.replace("duration: 10.0", f"duration: {duration}"))
        args = [command, str(path)]
        if command == "run":
            args += ["--out-dir", str(tmp_path / "out")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"[BAD_VALUE] duration={float(duration)} is " in err
        assert "must be at most 2**53" in err
        assert "Traceback" not in err

    def test_duration_override_past_2_to_the_53_steps_exits_two(self, tmp_path, capsys):
        """run --duration is held to the same rule as the file's duration."""
        args = ["run", os.path.join(SCENARIOS, "hover_pair.yaml"), "--duration", "1e308",
                "--out-dir", str(tmp_path / "out")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "[BAD_VALUE] duration=1e+308 is inf steps of dt=0.01, must be at most 2**53" in err


class TestWatcherOptions:
    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("line", ["activation_margin: -5.0", "touchdown_radius_sq: -0.01",
                                      "touchdown_height: -0.02", "touchdown_hold: -0.5"])
    def test_negative_watcher_option_exits_two(self, tmp_path, capsys, command, line):
        """A negative activation margin sends no separation row at all, and a
        negative touchdown window never lands: the config is rejected."""
        with open(os.path.join(SCENARIOS, "crossing_three.yaml")) as f:
            data = yaml.safe_load(f)
        key, value = line.split(": ")
        data.setdefault("watcher", {})[key] = float(value)
        args = [command, write_config(tmp_path, data, "negative.yaml")]
        if command == "run":
            args += ["--out-dir", str(tmp_path / "out")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"[BAD_VALUE] watcher.{key} must be >= 0, got {value}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestNanInTheFilter:
    def test_overflowing_gains_end_in_a_safety_abort(self, tmp_path, capsys,
                                                     monkeypatch):
        """Speed limits and gains near the float maximum fail validation.
        Set after it, the filter's steps overflow into NaN: the run ends in
        a safety abort with a state dump, not a traceback."""
        with open(os.path.join(SCENARIOS, "crossing_three.yaml")) as f:
            data = yaml.safe_load(f)
        data["duration"] = 3.0
        huge = copy.deepcopy(data)
        huge["safety"].update(uav_speed_limit=1e308, ugv_speed_limit=1e307)
        huge.update(gains={"uav": 1e308, "ugv": 1e308})
        assert main(["validate", write_config(tmp_path, huge, "huge.yaml")]) == 2
        err = capsys.readouterr().err
        assert "[BAD_VALUE] speed limits, gains and barrier_gain are too large" in err
        assert "[BAD_VALUE] the derived watcher activation_margin is inf" in err
        validated = cli.config_mod.config_from_dict

        def overflowing(raw):
            cfg = validated(raw)
            cfg.safety = dataclasses.replace(cfg.safety, uav_speed_limit=1e308,
                                             ugv_speed_limit=1e307)
            cfg.gains_uav, cfg.gains_ugv = np.full(3, 1e308), np.full(2, 1e308)
            return cfg

        monkeypatch.setattr(cli.config_mod, "config_from_dict", overflowing)
        out_dir = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", write_config(tmp_path, data), "--out-dir", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert "safety abort" in err and "non-finite step" in err
        assert "Traceback" not in err
        assert (out_dir / "state_dump.json").exists()

    def test_nan_nominal_input_ends_in_a_safety_abort(self, tmp_path, capsys,
                                                      monkeypatch):
        """A NaN setpoint makes a unit's nominal input NaN: the batched scan
        passes it to the scalar projection, whose failure names the unit
        and ends the run in a safety abort with a state dump."""
        sample = TrackTable.sample

        def nan_after_one_second(table, t):
            points, rates = sample(table, t)
            return (np.full_like(points, np.nan) if t >= 1.0 else points), rates

        monkeypatch.setattr(TrackTable, "sample", nan_after_one_second)
        out_dir = tmp_path / "out"
        path = write_config(tmp_path, single_pair(duration=3.0).raw)
        with np.errstate(invalid="ignore"):
            assert main(["run", path, "--out-dir", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert "safety abort: safety filter failed for uav0 at t=1.0" in err
        assert "Traceback" not in err
        dump = json.loads((out_dir / "state_dump.json").read_text())
        assert dump["reason"].startswith("uav0: active-set projection")


    def test_relaxation_failure_ends_in_a_safety_abort(self, tmp_path, capsys,
                                                       monkeypatch):
        """The clustered fleet's UGVs relax from t=0; a relaxation that
        raises names its unit and ends the run in a safety abort with a
        state dump, not a traceback."""
        def broken(z, A, b, limit):
            raise RuntimeError("relaxation broke")

        monkeypatch.setattr("airground.qp.solve_relaxed", broken)
        out_dir = tmp_path / "out"
        path = write_config(tmp_path, clustered_scenario(duration=6.0).raw)
        assert main(["run", path, "--out-dir", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert "safety abort: safety filter failed for ugv0 at t=0.0: relaxation broke" in err
        assert "Traceback" not in err
        dump = json.loads((out_dir / "state_dump.json").read_text())
        assert dump["reason"] == "ugv0: relaxation broke"


class TestRun:
    def test_run_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, single_pair(duration=1.0).raw)
        out_dir = str(tmp_path / "out")
        assert main(["run", cfg, "--out-dir", out_dir, "--trace"]) == 0
        assert os.path.exists(os.path.join(out_dir, "trajectory.csv"))
        assert os.path.exists(os.path.join(out_dir, "trace.log"))
        assert "run complete" in capsys.readouterr().out

    def test_run_invalid_config_exits_two(self, tmp_path):
        data = single_pair(duration=1.0).raw
        data["capacity"] = 2
        cfg = write_config(tmp_path, data)
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2

    def test_run_invalid_yaml_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("pairs: [")
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert "[BAD_VALUE] not valid YAML" in capsys.readouterr().err

    def test_run_non_mapping_exits_two(self, tmp_path, capsys):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        assert main(["run", str(path), "--seed", "4",
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert "top level must be a mapping" in capsys.readouterr().err

    def test_seed_and_duration_overrides(self, tmp_path):
        cfg = write_config(tmp_path, single_pair(duration=9.0).raw)
        out_dir = str(tmp_path / "out")
        assert main(["run", cfg, "--seed", "99", "--duration", "0.5",
                     "--out-dir", out_dir]) == 0
        with open(os.path.join(out_dir, "resolved_config.yaml")) as f:
            resolved = yaml.safe_load(f)
        assert resolved["seed"] == 99
        assert resolved["duration"] == 0.5


    @pytest.mark.parametrize("scenario, duration", [("hover_pair.yaml", "1"),
                                                    ("crossing_three.yaml", "4")])
    @pytest.mark.parametrize("capacity", ["1.0e+30", "11"])
    def test_capacity_above_the_rows_needed_writes_the_default_logs(
            self, tmp_path, capsys, scenario, duration, capacity):
        """No agent holds more than 2N+4 rows, so the blocks are padded to
        that under any larger capacity: a run with capacity 1e30 exits 0 and
        writes the logs of the default-capacity run."""
        with open(os.path.join(SCENARIOS, scenario)) as f:
            text = f.read()
        logs = {}
        for name, extra in (("default", ""), ("large", f"capacity: {capacity}\n")):
            path = tmp_path / f"{name}.yaml"
            path.write_text(text + extra)
            out_dir = tmp_path / name
            assert main(["run", str(path), "--duration", duration,
                         "--out-dir", str(out_dir)]) == 0
            logs[name] = [(out_dir / log).read_bytes()
                          for log in ("trajectory.csv", "watcher.csv")]
        assert logs["large"] == logs["default"]

    @pytest.mark.parametrize("command", ["validate", "run", "run --seed"])
    def test_negative_seed_exits_two(self, tmp_path, capsys, command):
        """A seed numpy cannot take is a config violation, from the scenario
        file and from --seed alike, not a traceback from the run."""
        with open(os.path.join(SCENARIOS, "hover_pair.yaml")) as f:
            text = f.read()
        args = [command.split()[0]]
        if command == "run --seed":
            args += ["--seed", "-1"]
        else:
            text = text.replace("seed: 7", "seed: -5")
        path = tmp_path / "hover_pair.yaml"
        path.write_text(text)
        args.append(str(path))
        if command != "validate":
            args += ["--out-dir", str(tmp_path / "out")]
        assert main(args) == 2
        assert "[BAD_VALUE] seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_unusable_out_dir_exits_two(self, tmp_path, capsys, sub):
        """--out-dir naming a file, or a path under one, is reported on one
        line naming the path."""
        cfg = write_config(tmp_path, single_pair(duration=0.1).raw)
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        out_dir = str(blocker / sub) if sub else str(blocker)
        assert main(["run", cfg, "--out-dir", out_dir]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write to output directory {out_dir}: ")
        assert err.count("\n") == 1


class TestSummarize:
    def test_summarize_run_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path, single_pair(duration=1.0).raw)
        out_dir = str(tmp_path / "out")
        assert main(["run", cfg, "--out-dir", out_dir]) == 0
        capsys.readouterr()
        assert main(["summarize", out_dir]) == 0
        out = capsys.readouterr().out
        assert "family_min_h" in out

    def test_summarize_tampered_dir_fails(self, tmp_path):
        cfg = write_config(tmp_path, single_pair(duration=1.0).raw)
        out_dir = str(tmp_path / "out")
        main(["run", cfg, "--out-dir", out_dir])
        traj = os.path.join(out_dir, "trajectory.csv")
        with open(traj) as f:
            lines = f.read().splitlines()
        parts = lines[10].split(",")
        parts[3] = "3.9"
        lines[10] = ",".join(parts)
        with open(traj, "w") as f:
            f.write("\n".join(lines) + "\n")
        assert main(["summarize", out_dir]) == 1

    def test_summarize_nan_min_h_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, single_pair(duration=1.0).raw)
        out_dir = str(tmp_path / "out")
        assert main(["run", cfg, "--out-dir", out_dir]) == 0
        traj = os.path.join(out_dir, "trajectory.csv")
        with open(traj) as f:
            lines = f.read().splitlines()
        parts = lines[20].split(",")
        parts[11] = "nan"
        lines[20] = ",".join(parts)
        with open(traj, "w") as f:
            f.write("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["summarize", out_dir]) == 1
        assert "trajectory.csv:21: logged min_h nan" in capsys.readouterr().err

    def test_summarize_unknown_kind_fails(self, tmp_path, capsys):
        """An agent logged with a kind other than its own would drop out
        of its family minima; its first line is reported instead, even
        when its min_h column is made to agree."""
        cfg = write_config(tmp_path, single_pair(duration=1.0).raw)
        out_dir = str(tmp_path / "out")
        assert main(["run", cfg, "--out-dir", out_dir]) == 0
        traj = os.path.join(out_dir, "trajectory.csv")
        with open(traj) as f:
            lines = f.read().splitlines()
        first = None
        for k, line in enumerate(lines[1:], start=2):
            parts = line.split(",")
            if parts[1] == "ugv0":
                parts[2], parts[11] = "rover", "inf"
                lines[k - 1] = ",".join(parts)
                first = first or k
        with open(traj, "w") as f:
            f.write("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["summarize", out_dir]) == 1
        err = capsys.readouterr().err
        assert f"trajectory.csv:{first}: expected 0,ugv0,ugv, got 0,ugv0,rover" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("status", ["bogus", "failed"])
    def test_summarize_unknown_status_fails(self, tmp_path, capsys, status):
        """A status the writer never logs would enter status_counts; the
        line is reported instead, its min_h still agreeing.  A filter
        failure aborts the run, so no line says failed."""
        cfg = write_config(tmp_path, crossing_scenario(3, 1, duration=1.0).raw)
        out_dir = str(tmp_path / "out")
        assert main(["run", cfg, "--out-dir", out_dir]) == 0
        traj = os.path.join(out_dir, "trajectory.csv")
        with open(traj) as f:
            lines = f.read().splitlines()
        parts = lines[40].split(",")
        parts[10] = status
        lines[40] = ",".join(parts)
        with open(traj, "w") as f:
            f.write("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["summarize", out_dir]) == 1
        err = capsys.readouterr().err
        assert f"{traj}:41: unknown qp_status '{status}'" in err
        assert "Traceback" not in err

    def test_summarize_missing_watcher_log_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, single_pair(duration=1.0).raw)
        out_dir = str(tmp_path / "out")
        assert main(["run", cfg, "--out-dir", out_dir]) == 0
        os.remove(os.path.join(out_dir, "watcher.csv"))
        capsys.readouterr()
        assert main(["summarize", out_dir]) == 1
        err = capsys.readouterr().err
        assert "cannot summarize" in err and "watcher.csv" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("column, value", [(3, "-3"), (3, "x"), (3, "12"), (4, "-5"),
                                               (6, "+1"), (8, "")])
    def test_summarize_bad_watcher_row_counts_fail(self, tmp_path, capsys, column, value):
        """Row counts must be non-negative integers with active_count the
        sum of the five family columns; the first bad line is named."""
        cfg = write_config(tmp_path, single_pair(duration=1.0).raw)
        out_dir = str(tmp_path / "out")
        assert main(["run", cfg, "--out-dir", out_dir]) == 0
        path = os.path.join(out_dir, "watcher.csv")
        with open(path) as f:
            lines = f.read().splitlines()
        for k in (6, 9):
            parts = lines[k].split(",")
            parts[column] = value
            lines[k] = ",".join(parts)
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["summarize", out_dir]) == 1
        err = capsys.readouterr().err
        assert f"{path}:7: row counts " in err
        assert "Traceback" not in err

    def test_summarize_missing_dir_fails(self):
        assert main(["summarize", "/nonexistent/run"]) == 1

    def traced_run(self, tmp_path, capsys, raw=None):
        cfg = write_config(tmp_path, raw or single_pair(duration=1.0).raw)
        out_dir = str(tmp_path / "out")
        assert main(["run", cfg, "--out-dir", out_dir, "--trace"]) == 0
        capsys.readouterr()
        trace = os.path.join(out_dir, "trace.log")
        with open(trace) as f:
            lines = f.read().splitlines()
        return out_dir, trace, lines

    def test_blank_trace_lines_are_skipped(self, tmp_path, capsys):
        out_dir, trace, lines = self.traced_run(tmp_path, capsys)
        assert main(["summarize", out_dir]) == 0
        clean = capsys.readouterr().out
        with open(trace, "w") as f:
            f.write("\n".join(lines[:3] + ["", "   "] + lines[3:]) + "\n\n")
        assert main(["summarize", out_dir]) == 0
        assert capsys.readouterr().out == clean

    def test_trace_token_without_equals_fails_cleanly(self, tmp_path, capsys):
        out_dir, trace, lines = self.traced_run(tmp_path, capsys)
        clean = lines[4]
        lines[4] += " garbled"
        with open(trace, "w") as f:
            f.write("\n".join(lines) + "\n")
        assert main(["summarize", out_dir]) == 1
        err = capsys.readouterr().err
        assert "cannot summarize" in err
        assert f"{trace}:5: expected {clean}, got {clean} garbled" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad", ["bogus t=1", "send t=1 src=watcher",
                                     "deliver t=1 dst=uav0", "bogus t=1 src=uav0 dst=ugv0",
                                     "send t=1 src=uav0 dst=ugv0 type=update seq=1 due=1"])
    def test_trace_line_without_known_event_or_endpoints_fails(self, tmp_path, capsys,
                                                               bad):
        out_dir, trace, lines = self.traced_run(tmp_path, capsys)
        with open(trace, "w") as f:
            f.write("\n".join(lines + [bad]) + "\n")
        assert main(["summarize", out_dir]) == 1
        err = capsys.readouterr().err
        assert "cannot summarize" in err
        assert f"{trace}:{len(lines) + 1}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("event, edit", [("send", "delete"), ("send", "duplicate"),
                                             ("drop", "delete"), ("deliver", "duplicate")])
    def test_trace_edit_breaking_a_links_sequence_fails(self, tmp_path, capsys, event, edit):
        """Deleting the first send or drop line of a lossy run, or
        duplicating the first send or deliver line, is reported at the first
        line that differs from the replayed bus's: the deleted line's place,
        or the duplicate."""
        raw = crossing_scenario(3, 4, duration=1.0, network={
            "latency": 0.02, "jitter": 0.005, "drop": 0.05}).raw
        out_dir, trace, lines = self.traced_run(tmp_path, capsys, raw)
        assert main(["summarize", out_dir]) == 0
        capsys.readouterr()
        k = next(k for k, line in enumerate(lines) if line.startswith(event + " "))
        if edit == "delete":
            del lines[k]
            bad = k
        else:
            lines.insert(k, lines[k])
            bad = k + 1
        with open(trace, "w") as f:
            f.write("\n".join(lines) + "\n")
        assert main(["summarize", out_dir]) == 1
        err = capsys.readouterr().err
        assert f"{trace}:{bad + 1}: expected " in err
        assert "Traceback" not in err

    def landing_trace(self, tmp_path, capsys):
        """An 8 s traced landing_demo.yaml run: 161 watcher ticks, and four
        updates in flight at the end, all sent at t=8."""
        out_dir = str(tmp_path / "out")
        assert main(["run", os.path.join(SCENARIOS, "landing_demo.yaml"), "--duration", "8",
                     "--trace", "--out-dir", out_dir]) == 0
        capsys.readouterr()
        trace = os.path.join(out_dir, "trace.log")
        with open(trace) as f:
            lines = f.read().splitlines()
        return out_dir, trace, lines

    def test_deleted_last_update_of_a_link_fails(self, tmp_path, capsys):
        """Deleting the log's last send line, whose message is still in
        flight at the end, leaves the log one line short of the replay."""
        out_dir, trace, lines = self.landing_trace(tmp_path, capsys)
        k = max(k for k, line in enumerate(lines) if line.startswith("send "))
        assert lines[k].startswith("send t=8 src=watcher dst=ugv1 type=update seq=161 ")
        deleted = lines.pop(k)
        with open(trace, "w") as f:
            f.write("\n".join(lines) + "\n")
        assert main(["summarize", out_dir]) == 1
        err = capsys.readouterr().err
        assert f"{trace}: ends after line 1275, expected {deleted} next" in err
        assert "Traceback" not in err

    def test_deleted_deliver_line_fails(self, tmp_path, capsys):
        """A deleted deliver line is named at its place, where the next
        line now stands."""
        out_dir, trace, lines = self.landing_trace(tmp_path, capsys)
        k = lines.index(next(line for line in lines
                             if line.startswith("deliver t=1.27 src=watcher dst=ugv1 ")))
        assert " seq=26 " in lines[k]
        deleted = lines.pop(k)
        with open(trace, "w") as f:
            f.write("\n".join(lines) + "\n")
        assert main(["summarize", out_dir]) == 1
        err = capsys.readouterr().err
        assert f"{trace}:205: expected {deleted}, got {lines[k]}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("source", ["landing_demo", "bench_crossing_three", "zero_latency"])
    def test_traced_runs_summarize_without_false_alarms(self, tmp_path, capsys, source):
        """Messages still in flight at the end of a run, and ones delivered
        in its last step, are not taken for a missing deliver line."""
        if source == "landing_demo":
            out_dir, _, lines = self.landing_trace(tmp_path, capsys)
            sent = {tuple(line.split()[2:6]) for line in lines if line.startswith("send ")}
            delivered = {tuple(line.split()[2:6]) for line in lines
                         if line.startswith("deliver ")}
            assert len(sent - delivered) == 4
        elif source == "bench_crossing_three":   # 20 ms latency, 5 ms jitter, 2% drop
            out_dir = str(tmp_path / "out")
            assert main(["run", os.path.join(SCENARIOS, "..", "bench", "scenarios",
                                             "crossing_three.yaml"),
                         "--trace", "--out-dir", out_dir]) == 0
        else:
            out_dir, _, _ = self.traced_run(tmp_path, capsys)
        capsys.readouterr()
        assert main(["summarize", out_dir]) == 0
        with open(os.path.join(out_dir, "metrics.json")) as f:
            assert capsys.readouterr().out == f.read()

    @pytest.mark.parametrize("log, old, new", [
        # A deliver line retimed before its message was sent.
        ("trace.log", "deliver t=1.27 src=watcher dst=ugv1 type=update seq=26 ",
         "deliver t=0.5 src=watcher dst=ugv1 type=update seq=26 "),
        # A message the bus cannot carry, appended: agents never send.
        ("trace.log", None, "drop t=8 src=uav0 dst=watcher type=update seq=1"),
        # The delivery time of a message still in flight at the end.
        ("trace.log", "dst=ugv0 type=update seq=161 due=8.0189438",
         "dst=ugv0 type=update seq=161 due=8.0189439"),
        # A pair's first landed lines, on both of its agents' lines: its
        # touchdown moves a tick later, after its UAV's first landed line.
        ("watcher.csv", ",uav0,landed,|,ugv0,landed,", ",uav0,landing,|,ugv0,landing,"),
        ("watcher.csv", ",uav1,landed,|,ugv1,landed,", ",uav1,landing,|,ugv1,landing,"),
        ("watcher.csv", ",uav0,landing,", ",uav0,bogus,"),
    ], ids=["retimed_deliver", "uplink_drop", "due", "landed", "landed_pair1",
            "bogus_phase"])
    def test_landing_trace_edit_fails(self, tmp_path, capsys, log, old, new):
        """Each edit exits 1 naming a line: trace.log must be the replayed
        bus's, a UAV may read landed in trajectory.csv only from the tick
        where watcher.csv's phases first read landed for its pair, and a
        phase must be one the watcher logs.  An edit "a|b" to "c|d" puts c
        for a and d for b, each on the first line that holds it."""
        out_dir, trace, events = self.landing_trace(tmp_path, capsys)
        path = os.path.join(out_dir, log)
        with open(path) as f:
            lines = f.read().splitlines()
        if old is None:
            lines.append(new)
            k = len(lines) - 1
        else:
            for was, now in zip(old.split("|"), new.split("|")):
                k = next(k for k, line in enumerate(lines) if was in line)
                lines[k] = lines[k].replace(was, now)
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        assert main(["summarize", out_dir]) == 1
        err = capsys.readouterr().err
        if log == "watcher.csv" and "bogus" in new:
            assert f"{path}:{k + 1}: unknown phase 'bogus'" in err
        elif log == "watcher.csv":   # the UAV's first landed line now comes too early
            uav = old.split(",")[1]
            trajectory = os.path.join(out_dir, "trajectory.csv")
            with open(trajectory) as f:
                first = next(j for j, line in enumerate(f)
                             if line.split(",")[1:11:9] == [uav, "landed"])
            assert (f"{trajectory}:{first + 1}: {uav} reads landed before watcher.csv "
                    "lands its pair") in err
        else:
            assert f"{trace}:{k + 1}: expected " in err
        assert "Traceback" not in err

    def test_landing_the_watcher_never_logged_fails(self, tmp_path, capsys):
        """With every landed phase of pair 1 in watcher.csv put back to
        landing, uav1's first landed line in trajectory.csv is reported."""
        out_dir, _, _ = self.landing_trace(tmp_path, capsys)
        watcher = os.path.join(out_dir, "watcher.csv")
        with open(watcher) as f:
            lines = f.read().splitlines()
        with open(watcher, "w") as f:
            f.writelines((line.replace(",landed,", ",landing,")
                          if line.split(",")[1] in ("uav1", "ugv1") else line) + "\n"
                         for line in lines)
        trajectory = os.path.join(out_dir, "trajectory.csv")
        with open(trajectory) as f:
            first = next(j for j, line in enumerate(f)
                         if line.split(",")[1:11:9] == ["uav1", "landed"])
        assert main(["summarize", out_dir]) == 1
        err = capsys.readouterr().err
        assert (f"{trajectory}:{first + 1}: uav1 reads landed before watcher.csv "
                "lands its pair") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("agent, which, lineno, problem", [
        ("ugv0", min, 451, "phase 'task' differs from 'landed' on its pair's UAV line"),
        ("uav0", max, 642, "phase 'task' moves its pair back from 'landed'"),
        ("uav1", max, 644, "phase 'task' moves its pair back from 'landed'"),
    ], ids=["ugv0_first", "uav0_last", "uav1_last"])
    def test_pair_phase_edit_fails(self, tmp_path, capsys, agent, which, lineno, problem):
        """A pair's UAV and UGV lines carry one phase, which never moves
        back: a UGV line's first landed, or a UAV line's last, changed to
        task in the landing demo's watcher.csv exits 1 naming that line."""
        out_dir, _, _ = self.landing_trace(tmp_path, capsys)
        path = os.path.join(out_dir, "watcher.csv")
        with open(path) as f:
            lines = f.read().splitlines()
        k = which(k for k, line in enumerate(lines) if f",{agent},landed," in line)
        assert k + 1 == lineno
        lines[k] = lines[k].replace(",landed,", ",task,")
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        assert main(["summarize", out_dir]) == 1
        err = capsys.readouterr().err
        assert f"{path}:{lineno}: {problem}" in err
        assert "Traceback" not in err

    def test_deleted_final_deliver_line_fails(self, tmp_path, capsys):
        """On ideal links every message is delivered in the step it is
        sent, the last ones at the end of the run."""
        out_dir, trace, lines = self.traced_run(tmp_path, capsys,
                                                grid_scenario(16, 1, duration=3.0).raw)
        assert lines[-1].startswith("deliver t=3 ")
        deleted = lines.pop()
        with open(trace, "w") as f:
            f.write("\n".join(lines) + "\n")
        assert main(["summarize", out_dir]) == 1
        err = capsys.readouterr().err
        assert f"{trace}: ends after line {len(lines)}, expected {deleted} next" in err

    def test_whitespace_lines_in_csv_logs_are_skipped(self, tmp_path, capsys):
        out_dir, _, _ = self.traced_run(tmp_path, capsys)
        assert main(["summarize", out_dir]) == 0
        clean = capsys.readouterr().out
        for name in ("trajectory.csv", "watcher.csv"):
            path = os.path.join(out_dir, name)
            with open(path) as f:
                lines = f.read().splitlines()
            with open(path, "w") as f:
                f.write("\n".join(lines[:4] + ["   ", "\t"] + lines[4:] + [" "]) + "\n")
        assert main(["summarize", out_dir]) == 0
        assert capsys.readouterr().out == clean


@pytest.fixture(scope="module")
def landing_run(tmp_path_factory):
    """An 8 s traced landing_demo.yaml run: drops, jitter and two landings."""
    out_dir = str(tmp_path_factory.mktemp("landing_run"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", os.path.join(SCENARIOS, "landing_demo.yaml"), "--duration", "8",
                     "--trace", "--out-dir", out_dir]) == 0
    return out_dir


@st.composite
def trace_edits(draw):
    """One edit of a trace's lines: (kind, line index, argument, token)."""
    kind = draw(st.sampled_from(["delete", "duplicate", "swap", "value", "blank",
                                 "no_newline", "cut", "append"]))
    k = draw(st.integers(0, 1400))
    arg = draw(st.sampled_from(["0", "1", "8", "uav0", "ugv1", "watcher", "update",
                                "touchdown_ack", ""]) | st.floats(0, 10).map(fmt9)
               if kind == "value" else
               st.sampled_from(["", " ", "\t", " \x0c "]) if kind == "blank" else
               st.integers(0, 80) if kind == "cut" else
               st.sampled_from(["drop t=8 src=uav0 dst=watcher type=update seq=1",
                                "send t=8", "bogus", "deliver t=8 src=watcher dst=uav0"])
               if kind == "append" else st.none())
    return kind, k, arg, draw(st.integers(0, 7))


def edit_trace(lines: list[str], kind: str, k: int, arg, token: int) -> str:
    lines = list(lines)
    k = min(k, len(lines) - 1)
    if kind == "delete":
        del lines[k]
    elif kind == "duplicate":
        lines.insert(k, lines[k])
    elif kind == "swap" and k + 1 < len(lines):
        lines[k], lines[k + 1] = lines[k + 1], lines[k]
    elif kind == "value":   # the value of one key=value token
        tokens = lines[k].split(" ")
        j = 1 + token % (len(tokens) - 1)
        tokens[j] = tokens[j].partition("=")[0] + "=" + arg
        lines[k] = " ".join(tokens)
    elif kind == "blank":
        lines.insert(k, arg)
    elif kind == "cut":
        lines[k] = lines[k][:arg]
    elif kind == "append":
        lines.append(arg)
    text = "\n".join(lines) + "\n"
    return text[:-1] if kind == "no_newline" else text


@settings(max_examples=120, deadline=None, derandomize=True)
@given(edit=trace_edits())
def test_trace_edits_are_caught(landing_run, tmp_path_factory, edit):
    """summarize reproduces metrics.json when an edit leaves the trace's
    non-blank lines as they were, and otherwise exits 1 naming a line of
    trace.log or its end."""
    with open(os.path.join(landing_run, "trace.log")) as f:
        clean = f.read().splitlines()
    text = edit_trace(clean, *edit)
    out_dir = str(tmp_path_factory.mktemp("edited"))
    for name in ("resolved_config.yaml", "trajectory.csv", "watcher.csv", "metrics.json"):
        shutil.copy(os.path.join(landing_run, name), out_dir)
    trace = os.path.join(out_dir, "trace.log")
    with open(trace, "w") as f:
        f.write(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(["summarize", out_dir])
    if [line for line in text.split("\n") if line and not line.isspace()] == clean:
        with open(os.path.join(landing_run, "metrics.json")) as f:
            assert (status, out.getvalue()) == (0, f.read())
    else:
        assert status == 1 and f"cannot summarize: {trace}:" in err.getvalue()
    shutil.rmtree(out_dir)


class TestSafetyAbort:
    def test_unrecoverable_filter_failure_exits_three(self, tmp_path,
                                                      monkeypatch, capsys):
        from airground import cli
        from airground.errors import SafetyAbortError

        def explode(cfg, out_dir, trace=False):
            raise SafetyAbortError("filter could not recover")

        monkeypatch.setattr(cli.runner, "run", explode)
        cfg = write_config(tmp_path, single_pair(duration=1.0).raw)
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 3
        assert "safety abort" in capsys.readouterr().err

    def test_watcher_capacity_failure_exits_three(self, tmp_path, monkeypatch,
                                                  capsys):
        from airground import cli

        validated = cli.config_mod.config_from_dict

        def shrink_capacity(raw):
            cfg = validated(raw)
            cfg.capacity = 5  # after validation: the watcher hits the limit
            return cfg

        monkeypatch.setattr(cli.config_mod, "config_from_dict", shrink_capacity)
        cfg = write_config(tmp_path, clustered_scenario(duration=1.0).raw)
        out_dir = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out_dir)]) == 3
        assert "safety abort: watcher failed" in capsys.readouterr().err
        assert (out_dir / "state_dump.json").exists()
