"""Fleet benchmark: real-time factor of pinned workloads, plus a traced
per-layer split.

    python3 bench/run_bench.py --workload cross3 --seed 1 --seconds 35 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.  Each
invocation runs one workload in this single process:

* ``--trace 0`` times repeated untraced ``airground.run`` calls for about
  ``--seconds`` seconds and prints the end-to-end metrics, with host times
  read at a reference machine speed (see reference.py).
* ``--trace 1`` runs the workload once untraced and once with span wrappers
  installed, proves the two outputs byte-identical, and prints the
  per-layer metrics.

Every run is checked: no exception, no failed QP, every barrier family above
its tolerance, every landing on time (``land4``) and real pairwise activity
(``grid64``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch output goes
to ``.bench_out/`` in the checkout and is removed afterwards, except the
span dump of a traced run.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

from reference import SpeedSampler
from workloads import INVARIANCE_TOL, LANDING_DEADLINE_S, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

# (name, unit, better) -- must match BENCHMARK.json.
END_TO_END = [
    ("sim_rate", "s/s", "higher"),
    ("summarize_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]
PER_LAYER = [
    ("watcher.tick_s", "s", "lower"),
    ("watcher.ticks", "count", "lower"),
    ("watcher.proximal_s", "s", "lower"),
    ("watcher.assemble_s", "s", "lower"),
    ("watcher.estimator_s", "s", "lower"),
    ("watcher.self_s", "s", "lower"),
    ("watcher.rows", "count", "lower"),
    ("watcher.gate_hit_ratio", "ratio", "higher"),
    ("barriers.row_s", "s", "lower"),
    ("barriers.rows_built", "count", "lower"),
    ("agents.tick_s", "s", "lower"),
    ("agents.ticks", "count", "lower"),
    ("agents.self_s", "s", "lower"),
    ("agents.hold_ticks", "count", "lower"),
    ("agents.landed_ticks", "count", "higher"),
    ("agents.step_s", "s", "lower"),
    ("qp.project_s", "s", "lower"),
    ("qp.calls", "count", "lower"),
    ("qp.iters", "count", "lower"),
    ("qp.rows", "count", "lower"),
    ("qp.infeasible", "count", "lower"),
    ("qp.trivial_ratio", "ratio", "higher"),
    ("qp.relax_s", "s", "lower"),
    ("qp.relax_calls", "count", "lower"),
    ("netsim.send_s", "s", "lower"),
    ("netsim.deliver_s", "s", "lower"),
    ("netsim.sent", "count", "lower"),
    ("netsim.dropped", "count", "lower"),
    ("netsim.delivered_ratio", "ratio", "higher"),
    ("netsim.bytes", "B", "lower"),
    ("netsim.queue_peak", "count", "lower"),
    ("summary.inloop_s", "s", "lower"),
    ("summary.inloop_calls", "count", "lower"),
    ("summary.postrun_s", "s", "lower"),
    ("summary.recheck_s", "s", "lower"),
    ("config.validate_s", "s", "lower"),
    ("config.load_s", "s", "lower"),
    ("logfmt.fmt9_calls", "count", "lower"),
    ("runner.self_s", "s", "lower"),
    ("runner.steps", "count", "lower"),
    ("io.out_bytes", "B", "lower"),
    ("run.traced_s", "s", "lower"),
    ("run.us_per_agent_tick", "us", "lower"),
    ("trace.sim_rate_delta", "s/s", "higher"),
    ("share.watcher", "ratio", "lower"),
    ("share.barriers", "ratio", "lower"),
    ("share.agents", "ratio", "lower"),
    ("share.qp", "ratio", "lower"),
    ("share.netsim", "ratio", "lower"),
    ("share.summary", "ratio", "lower"),
    ("share.config", "ratio", "lower"),
    ("share.runner", "ratio", "lower"),
    ("share.watcher_summary", "ratio", "lower"),
    ("share.agents_qp_netsim", "ratio", "lower"),
]

MIN_REPEATS = 2          # digests are compared across repeats
SETUP_BUDGET_S = 0.25    # set-up is timed for this long before the runs ...
SETUP_MIN = 5            # ... and at least this many times,
SETUP_SLICE_S = 0.1      # then for this long before each run, so set-up
                         # samples span the same window as the runs
WARMUP_FRACTION = 0.05   # untimed first run, this share of the workload


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def bootstrap():
    """Import airground from the checkout's src/ tree."""
    init = os.path.join(SRC, "airground", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no airground sources at {init}")
    sys.path.insert(0, SRC)
    import airground
    if os.path.abspath(airground.__file__) != init:
        raise BenchError(f"imported {airground.__file__}, expected {init}")
    return airground


# -- one run ----------------------------------------------------------------

def digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in ("trajectory.csv", "watcher.csv"):
        with open(os.path.join(out_dir, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def dir_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, n)) for n in os.listdir(out_dir))


def check_run(workload, cfg, result) -> list[str]:
    """Reasons this run's output is wrong; empty when it passes."""
    problems = []
    m = result.metrics
    if m.status_counts.get("failed", 0):
        problems.append(f"{m.status_counts['failed']} failed QP ticks")
    for fam, h in sorted(m.family_min_h.items()):
        if h < -INVARIANCE_TOL[fam]:
            problems.append(f"{fam} min h {h:.6g} below -{INVARIANCE_TOL[fam]}")
    if workload.lands:
        for ev in cfg.events:
            down = result.touchdown_times.get(ev.pair)
            if down is None or down - ev.time > LANDING_DEADLINE_S:
                problems.append(f"pair {ev.pair} signalled at {ev.time} s: "
                                f"touchdown {down}")
    if workload.grid:
        floor = wall_funnel_floor(cfg, result)
        rows = sum(r.active_count for r in result.watcher_records)
        if rows <= floor:
            problems.append(f"{rows} rows assembled, wall+funnel floor {floor}")
    return problems


def watcher_ticks(result) -> int:
    return len({r.time for r in result.watcher_records})


def wall_funnel_floor(cfg, result) -> int:
    """Rows the watcher assembles with no pair ever gated: five walls plus
    the funnel per UAV, four walls per UGV."""
    return watcher_ticks(result) * cfg.n_pairs * (6 + 4)


def sim_stats(cfg, result, out_digest: str, run_s: float) -> dict:
    """What the run simulated; identical for identical output digests."""
    m = result.metrics
    links = result.link_stats.values()
    agent_ticks = m.ticks * 2 * cfg.n_pairs
    return {
        "control_ticks": m.ticks,
        "watcher_ticks": watcher_ticks(result),
        "agent_ticks": agent_ticks,
        "qp_calls": sum(m.status_counts.get(s, 0)
                        for s in ("optimal", "relaxed", "failed")),
        "relaxations": result.relaxed_events,
        "messages_sent": sum(s.sent for s in links),
        "messages_dropped": sum(s.dropped for s in links),
        "rows_assembled": sum(r.active_count for r in result.watcher_records),
        "family_min_h": dict(sorted(m.family_min_h.items())),
        "digest": out_digest,
        "host_us_per_agent_tick": run_s / agent_ticks * 1e6,
    }


def gate_hit_ratio(cfg, result) -> float:
    """Active gated pairs over pairs gated.  Each watcher tick gates every
    unordered UAV pair, every unordered UGV pair and every ordered UAV/other
    UGV pair; an active gate contributes one row (two for the symmetric
    families, one in each agent's matrix)."""
    n = cfg.n_pairs
    hits = 0.0
    for r in result.watcher_records:
        k = r.kind_counts
        hits += (k.get("uav_uav", 0) + k.get("ugv_ugv", 0)) / 2 + k.get("uav_other_ugv", 0)
    return hits / (watcher_ticks(result) * 2 * n * (n - 1))


class Runner:
    """Runs one workload's config into fresh scratch directories."""

    def __init__(self, ag, workload, seed: int, duration: float | None):
        self.ag = ag
        self.workload = workload
        self.data = workload.build(seed)
        if duration is not None:
            self.data["duration"] = duration
        self.cfg = ag.config_from_dict(copy.deepcopy(self.data))
        os.makedirs(OUT_ROOT, exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_ROOT)
        self._n = 0

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def new_dir(self) -> str:
        self._n += 1
        return os.path.join(self.scratch, f"run{self._n}")

    def setup_times(self, sampler, budget_s: float, at_least: int = 1) -> list[float]:
        """Time config_from_dict on the generator's output, repeatedly.

        Each time is net of speed sampling and read at the machine speed
        sampled over the whole slice, since one set-up is often too short to
        hold a sample of its own."""
        times: list[float] = []
        with sampler.interval() as whole:
            start = time.perf_counter()
            while len(times) < at_least or time.perf_counter() - start < budget_s:
                data = copy.deepcopy(self.data)
                with sampler.interval() as iv:
                    self.ag.config_from_dict(data)
                times.append(iv.net_s)
        return [t * whole.scale for t in times]

    def warm_up(self) -> None:
        data = copy.deepcopy(self.data)
        data["duration"] = round(self.cfg.duration * WARMUP_FRACTION, 2)
        out = self.new_dir()
        self.ag.run(self.ag.config_from_dict(data), out)
        shutil.rmtree(out)

    def run(self, sampler, call=None):
        """One run: (Interval, RunResult, out_dir, problems)."""
        out = self.new_dir()
        with sampler.interval() as iv:
            result = (call or self.ag.run)(self.cfg, out)
        return iv, result, out, check_run(self.workload, self.cfg, result)


# -- the two modes -------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def untraced(runner: Runner, seconds: float, log) -> dict:
    """Repeat the workload for about `seconds` and report end-to-end metrics.

    Host times are read at the reference machine speed (see reference.py).
    sim_rate is the real-time factor of the whole window (total simulated
    over total scaled host seconds of run()), summarize_s the mean scaled
    summarize_dir time and setup_s the median scaled set-up time, from
    set-ups spread over the window.
    """
    run_times, summarize, digests, failures = [], [], set(), []
    stats = None
    attempted = 0
    repeat_s: list[float] = []
    with SpeedSampler() as sampler:
        setup = runner.setup_times(sampler, SETUP_BUDGET_S, SETUP_MIN)
        runner.warm_up()
        start = time.perf_counter()
        while True:
            attempted += 1
            t_rep = time.perf_counter()
            setup += runner.setup_times(sampler, SETUP_SLICE_S)
            try:
                run_iv, result, out, problems = runner.run(sampler)
                with sampler.interval() as sum_iv:
                    again = runner.ag.summarize_dir(out)
                if again.to_json() != result.metrics.to_json():
                    problems.append("summarize_dir disagrees with run() metrics")
                out_digest = digest(out)
                shutil.rmtree(out)
            except Exception as exc:  # a failed run is counted, never fatal
                problems = [f"{type(exc).__name__}: {exc}"]
            if problems:
                failures.append(problems)
            else:
                run_times.append(run_iv)
                summarize.append(sum_iv)
                digests.add(out_digest)
                stats = stats or sim_stats(runner.cfg, result, out_digest, run_iv.net_s)
            repeat_s.append(time.perf_counter() - t_rep)
            elapsed = time.perf_counter() - start
            if attempted >= MIN_REPEATS and elapsed + statistics.median(repeat_s) > seconds:
                break
        measured = time.perf_counter() - start
        window_scale = sampler.scale()
        n_samples = len(sampler.samples)

    if len(digests) > 1:
        failures.append([f"output digests differ across repeats: {sorted(digests)}"])
    for problems in failures:
        log(f"FAILED RUN: {'; '.join(problems)}")
    if stats is not None:
        stats["host_us_per_agent_tick"] = (
            statistics.mean(iv.net_s for iv in run_times) / stats["agent_ticks"] * 1e6)
        log("simstats " + json.dumps(stats, sort_keys=True))
    log(f"{len(run_times)} of {attempted} runs passed in {measured:.1f} s; "
        f"fail_rate {len(failures) / attempted:.4g}")
    log(f"machine speed: {n_samples} samples, window scale {window_scale:.4f} "
        f"(scaled = host x scale; per-run scales "
        + (f"{min(iv.scale for iv in run_times):.4f}..{max(iv.scale for iv in run_times):.4f})"
           if run_times else "n/a)"))

    duration = runner.cfg.duration
    total = duration * len(run_times)
    values = {
        "sim_rate": total / sum(iv.net_s * iv.scale for iv in run_times) if run_times else 0.0,
        "summarize_s": statistics.mean(iv.net_s * iv.scale for iv in summarize) if summarize else 0.0,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    spread = {  # per-sample detail for the log: unscaled runs, scaled set-ups
        "sim_rate": ("unscaled per run", [duration / iv.net_s for iv in run_times]),
        "summarize_s": ("unscaled per run", [iv.net_s for iv in summarize]),
        "setup_s": ("per set-up", setup),
    }
    metrics = {}
    for name, unit, _ in END_TO_END:
        line = f"{name:<12} {values[name]:.6g} {unit}"
        label, samples = spread.get(name, ("", []))
        if samples:
            q1, med, q3 = quartiles(samples)
            line += (f"  ({label}: median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, "
                     f"n={len(samples)})")
        log(line)
        metrics[name] = {"value": values[name], "unit": unit}
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def traced(runner: Runner, log) -> dict:
    """One untraced and one traced run of the workload; per-layer metrics."""
    timer = SpeedSampler()  # never started: plain host-time intervals
    setup = statistics.median(runner.setup_times(timer, SETUP_BUDGET_S, SETUP_MIN))
    runner.warm_up()
    try:
        values, failures = layer_values(runner, timer, setup, log)
    except Exception as exc:  # a failed run is counted, never fatal
        values = dict.fromkeys((m for m, _, _ in PER_LAYER), 0.0)
        failures = {"run": [f"{type(exc).__name__}: {exc}"]}
    for run, problems in failures.items():
        for problem in problems:
            log(f"FAILED CHECK ({run}): {problem}")
    metrics = {}
    for name, unit, _ in PER_LAYER:
        log(f"{name:<24} {values[name]:.6g} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    failed = sum(1 for problems in failures.values() if problems)
    return {"correct": not failed, "attempted": 2, "failed": failed,
            "metrics": metrics}


def layer_values(runner: Runner, timer, setup: float, log):
    """Per-layer metrics plus the problems found in each of the two runs."""
    import tracing

    run_iv, res_u, out_u, untraced_problems = runner.run(timer)
    run_u = run_iv.net_s
    digest_u = digest(out_u)

    tracer = tracing.Tracer(run_id=f"{runner.workload.name}-seed{runner.cfg.seed}")
    tracer.install()
    try:
        _, res_t, out_t, problems = runner.run(timer, call=lambda cfg, out: tracer.call(
            runner.ag.run, cfg, out))
    finally:
        tracer.restore()
    if tracer.missing:
        log(f"warning: not traced (attribute missing): {', '.join(tracer.missing)}")
    if not tracer.restored():
        problems.append("wrapped attributes were not restored")
    digest_t = digest(out_t)
    if digest_t != digest_u:
        problems.append(f"traced output {digest_t} != untraced {digest_u}")
    if runner.ag.summarize_dir(out_t).to_json() != res_t.metrics.to_json():
        problems.append("summarize_dir disagrees with run() metrics")
    tracer.write(os.path.join(OUT_ROOT, f"spans-{runner.workload.name}.csv"))

    st = tracer.stats()
    c = tracer.counters
    run_ns = st[tracing.ROOT].total_ns
    layers = tracing.layer_self_ns(st)
    if tracer.roots() != 1 or sum(layers.values()) != run_ns:
        problems.append(f"span accounting: {tracer.roots()} roots, layer self "
                        f"times sum to {sum(layers.values())} ns of {run_ns} ns")
    links = res_t.link_stats.values()
    if (c.sent, c.dropped) != (sum(s.sent for s in links), sum(s.dropped for s in links)):
        problems.append("bus counters disagree with the run's link stats")
    qp_calls = st["qp.project"].count
    if runner.workload.grid and c.qp_iters <= qp_calls:
        problems.append(f"qp.iters {c.qp_iters} <= qp.calls {qp_calls}: "
                        "no QP row ever bound")

    cfg = runner.cfg
    stats = sim_stats(cfg, res_u, digest_u, run_u)
    stats.update(qp_iters=c.qp_iters, relax_iters=c.relax_iters)
    log("simstats " + json.dumps(stats, sort_keys=True))

    def secs(name, part="total_ns"):
        return getattr(st[name], part) / 1e9

    sim_rate_u = cfg.duration / run_u
    values = {
        "watcher.tick_s": secs("watcher.tick"),
        "watcher.ticks": st["watcher.tick"].count,
        "watcher.proximal_s": secs("watcher.proximal"),
        "watcher.assemble_s": secs("watcher.assemble"),
        "watcher.estimator_s": secs("watcher.estimator"),
        "watcher.self_s": secs("watcher.tick", "self_ns"),
        "watcher.rows": stats["rows_assembled"],
        "watcher.gate_hit_ratio": gate_hit_ratio(cfg, res_t),
        "barriers.row_s": secs("barriers.row"),
        "barriers.rows_built": c.rows_built,
        "agents.tick_s": secs("agents.tick"),
        "agents.ticks": st["agents.tick"].count,
        "agents.self_s": secs("agents.tick", "self_ns"),
        "agents.hold_ticks": c.hold_ticks,
        "agents.landed_ticks": c.landed_ticks,
        "agents.step_s": secs("agents.step"),
        "qp.project_s": secs("qp.project"),
        "qp.calls": qp_calls,
        "qp.iters": c.qp_iters,
        "qp.rows": c.qp_rows,
        "qp.infeasible": c.qp_infeasible,
        "qp.trivial_ratio": c.qp_trivial / qp_calls if qp_calls else 0.0,
        "qp.relax_s": secs("qp.relax"),
        "qp.relax_calls": st["qp.relax"].count,
        "netsim.send_s": secs("netsim.send"),
        "netsim.deliver_s": secs("netsim.deliver"),
        "netsim.sent": c.sent,
        "netsim.dropped": c.dropped,
        "netsim.delivered_ratio": c.delivered / c.sent if c.sent else 0.0,
        "netsim.bytes": sum(s.bytes for s in links),
        "netsim.queue_peak": c.queue_peak,
        "summary.inloop_s": secs("summary.inloop"),
        "summary.inloop_calls": st["summary.inloop"].count,
        "summary.postrun_s": secs("summary.postrun"),
        "summary.recheck_s": secs("summary.recheck"),
        "config.validate_s": setup,
        "config.load_s": secs("config.load"),
        "logfmt.fmt9_calls": c.fmt9_calls,
        "runner.self_s": secs(tracing.ROOT, "self_ns"),
        "runner.steps": round(cfg.duration / cfg.dt) + 1,
        "io.out_bytes": dir_bytes(out_t),
        "run.traced_s": run_ns / 1e9,
        "run.us_per_agent_tick": stats["host_us_per_agent_tick"],
        "trace.sim_rate_delta": cfg.duration / (run_ns / 1e9) - sim_rate_u,
    }
    for layer, ns in layers.items():
        values[f"share.{layer}"] = ns / run_ns
    values["share.watcher_summary"] = (layers["watcher"] + layers["summary"]) / run_ns
    values["share.agents_qp_netsim"] = (
        layers["agents"] + layers["qp"] + layers["netsim"]) / run_ns

    log(f"traced run {run_ns / 1e9:.3f} s vs untraced {run_u:.3f} s; "
        f"{len(tracer.spans)} spans; layer self-time shares: "
        + ", ".join(f"{k} {v / run_ns:.3f}" for k, v in layers.items()))
    return values, {"untraced": untraced_problems, "traced": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        ag = bootstrap()
    except (BenchError, ImportError) as exc:
        print(f"run_bench: {exc}", file=sys.stderr)
        return 2
    result = bench(ag, WORKLOADS[args.workload], args.seed, args.seconds,
                   bool(args.trace))
    print(json.dumps(result))
    return 0


def bench(ag, workload, seed: int, seconds: float, trace: bool,
          duration: float | None = None, log=print) -> dict:
    """Measure one workload; duration overrides its simulated length."""
    log(f"workload {workload.name} seed {seed} trace {int(trace)}: {workload.why}")
    runner = Runner(ag, workload, seed, duration)
    try:
        return traced(runner, log) if trace else untraced(runner, seconds, log)
    finally:
        runner.close()


if __name__ == "__main__":
    sys.exit(main())
