import copy
import dataclasses
import json
import os

import numpy as np
import pytest
import yaml

from airground import cli
from airground.cli import main
from airground.watcher import TrackTable

from scenario_helpers import clustered_scenario, crossing_scenario, single_pair

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
        """An agent logged with a kind other than uav or ugv would drop out
        of every family minimum; its first line is reported instead, even
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
        assert f"trajectory.csv:{first}: kind must be uav or ugv, got 'rover'" in err
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

    def traced_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, single_pair(duration=1.0).raw)
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
        lines[4] += " garbled"
        with open(trace, "w") as f:
            f.write("\n".join(lines) + "\n")
        assert main(["summarize", out_dir]) == 1
        err = capsys.readouterr().err
        assert "cannot summarize" in err
        assert f"{trace}:5:" in err and "'garbled'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad", ["bogus t=1", "send t=1 src=watcher",
                                     "deliver t=1 dst=uav0", "bogus t=1 src=uav0 dst=ugv0"])
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
