"""Command-line entry points: run, validate, summarize.

Exit codes: 0 success, 1 internal/integrity failure, 2 invalid config or
unusable output directory, 3 safety abort.
"""

from __future__ import annotations

import argparse
import sys

from . import config as config_mod
from . import runner, summary
from .errors import ConfigError, SafetyAbortError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airground",
        description="Safety-filtered UAV/UGV fleet simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write logs")
    p_run.add_argument("config_file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--duration", type=float, default=None,
                       help="override the scenario duration (s)")
    p_run.add_argument("--out-dir", default="out",
                       help="directory for trajectory/watcher/metrics files")
    p_run.add_argument("--trace", action="store_true",
                       help="also write the per-message network trace")

    p_val = sub.add_parser("validate", help="check a scenario config")
    p_val.add_argument("config_file")
    p_val.set_defaults(seed=None, duration=None)

    p_sum = sub.add_parser("summarize",
                           help="recompute safety metrics from a run directory")
    p_sum.add_argument("out_dir")
    return parser


def _load(path: str, seed: int | None, duration: float | None):
    with open(path, "r") as f:
        raw = config_mod.load_mapping(f.read())
    if seed is not None:
        raw["seed"] = seed
    if duration is not None:
        raw["duration"] = duration
    return config_mod.config_from_dict(raw)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "summarize":
        try:
            metrics = summary.summarize_dir(args.out_dir)
        except summary.LogIntegrityError as exc:
            print(f"log integrity failure: {exc}", file=sys.stderr)
            return 1
        except (OSError, ValueError, ConfigError) as exc:
            print(f"cannot summarize: {exc}", file=sys.stderr)
            return 1
        print(metrics.to_json())
        return 0

    try:   # validate or run
        cfg = _load(args.config_file, args.seed, args.duration)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"[{violation.code}] {violation.message}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print("config OK")
        return 0
    try:
        result = runner.run(cfg, args.out_dir, trace=args.trace)
    except SafetyAbortError as exc:
        print(f"safety abort: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # e.g. --out-dir names a file, or lies under one
        print(f"cannot write to output directory {args.out_dir}: {exc}", file=sys.stderr)
        return 2
    print(f"run complete: {result.trajectory_path}")
    print(result.metrics.to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
