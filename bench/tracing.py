"""Span tracing from outside the program.

The tracer replaces layer functions at the module or class attributes their
callers resolve at call time (``airground.runner.tick_barriers``,
``airground.qp.project_with_box``, ``Watcher.proximal_set``, ...) with thin
wrappers that record one span per call: name, start, end and parent span,
all tagged with the traced run's id.  Spans stay in memory until the run
ends.  ``restore`` puts the original objects back; the benchmark checks that
it did.

A layer's self time is the duration of its spans minus the part of each
span's interval that its child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

import airground.agents
import airground.netsim
import airground.qp
import airground.runner
import airground.summary
import airground.watcher

perf_ns = time.perf_counter_ns

ROOT = "runner.run"

# Which layer each span's self time belongs to.
LAYER_OF_SPAN = {
    ROOT: "runner",
    "watcher.tick": "watcher",
    "watcher.proximal": "watcher",
    "watcher.assemble": "watcher",
    "watcher.estimator": "watcher",
    "barriers.row": "barriers",
    "agents.tick": "agents",
    "agents.step": "agents",
    "qp.project": "qp",
    "qp.relax": "qp",
    "netsim.send": "netsim",
    "netsim.deliver": "netsim",
    "summary.inloop": "summary",
    "summary.postrun": "summary",
    "summary.recheck": "summary",
    "config.load": "config",
}
LAYERS = ("watcher", "barriers", "agents", "qp", "netsim", "summary", "config",
          "runner")


@dataclass
class Counters:
    """Exact counts taken at the same boundaries as the spans."""

    rows_built: int = 0
    hold_ticks: int = 0
    landed_ticks: int = 0
    qp_iters: int = 0
    qp_rows: int = 0
    qp_infeasible: int = 0
    qp_trivial: int = 0
    relax_iters: int = 0
    sent: int = 0
    dropped: int = 0
    delivered: int = 0
    queue_peak: int = 0
    fmt9_calls: int = 0


def _count_row(c: Counters, args, result) -> None:
    c.rows_built += 1


def _count_wall_rows(c: Counters, args, result) -> None:
    c.rows_built += len(result)


def _count_agent_tick(c: Counters, args, result) -> None:
    status = result[1].status
    if status == "hold":
        c.hold_ticks += 1
    elif status == "landed":
        c.landed_ticks += 1


def _count_project(c: Counters, args, result) -> None:
    u, iters = result
    c.qp_iters += iters
    c.qp_rows += args[1].shape[0]
    if u is None:
        c.qp_infeasible += 1
    elif iters == 1:  # the first feasibility scan accepted the nominal input
        c.qp_trivial += 1


def _count_relax(c: Counters, args, result) -> None:
    c.relax_iters += result.iterations


def _count_send(c: Counters, args, result) -> None:
    c.sent += 1
    if result is None:
        c.dropped += 1
    c.queue_peak = max(c.queue_peak, args[0].pending())


def _count_deliver(c: Counters, args, result) -> None:
    c.delivered += len(result)


# (owner, attribute, span name, counter hook)
TARGETS: list[tuple[object, str, str, Callable | None]] = [
    (airground.watcher.Watcher, "tick", "watcher.tick", None),
    (airground.watcher.Watcher, "proximal_set", "watcher.proximal", None),
    (airground.watcher.Watcher, "assemble_constraints", "watcher.assemble", None),
    (airground.watcher.VelocityEstimator, "push", "watcher.estimator", None),
    (airground.watcher.VelocityEstimator, "estimate", "watcher.estimator", None),
    (airground.watcher, "build_constraint_row", "barriers.row", _count_row),
    (airground.watcher, "build_workspace_rows", "barriers.row", _count_wall_rows),
    (airground.agents.AgentControlUnit, "tick", "agents.tick", _count_agent_tick),
    (airground.runner, "step_uav", "agents.step", None),
    (airground.runner, "step_ugv", "agents.step", None),
    (airground.qp, "project_with_box", "qp.project", _count_project),
    (airground.qp, "solve_relaxed", "qp.relax", _count_relax),
    (airground.netsim.StarBus, "send", "netsim.send", _count_send),
    (airground.netsim.StarBus, "deliver_due", "netsim.deliver", _count_deliver),
    (airground.runner, "tick_barriers", "summary.inloop", None),
    (airground.runner, "summarize_dir", "summary.postrun", None),
    (airground.summary, "tick_barriers", "summary.recheck", None),
    (airground.summary, "load_config", "config.load", None),
]
# Counted but not spanned: a span per number formatted would swamp the run.
COUNTED = [(airground.runner, "fmt9")]


@dataclass
class SpanStats:
    count: int = 0
    total_ns: int = 0
    self_ns: int = 0


@dataclass
class Tracer:
    run_id: str
    spans: list = field(default_factory=list)   # (name, start, end, parent)
    counters: Counters = field(default_factory=Counters)
    missing: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def _spanned(self, original, name: str, hook):
        spans, stack, counters = self.spans, self._stack, self.counters

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_ns()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1)
            if hook is not None:
                hook(counters, args, result)
            return result

        return wrapper

    def _counted(self, original):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters.fmt9_calls += 1
            return original(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        for owner, attr, name, hook in TARGETS:
            self._patch(owner, attr,
                        lambda fn, name=name, hook=hook: self._spanned(fn, name, hook))
        for owner, attr in COUNTED:
            self._patch(owner, attr, self._counted)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every patched attribute holds its original object."""
        return all(owner.__dict__.get(attr) is original
                   for owner, attr, original in self._patched)

    def call(self, fn, *args, **kwargs):
        """Run fn as the root span of this trace."""
        return self._spanned(fn, ROOT, None)(*args, **kwargs)

    # -- analysis -----------------------------------------------------------

    def stats(self) -> dict[str, SpanStats]:
        """Per span name: calls, inclusive time and self time.

        Coverage is the union of the child intervals clipped to the parent,
        so the self times of all spans add up to the root's duration only if
        every span closed and nested inside its parent.
        """
        covered = [0] * len(self.spans)
        reach = [None] * len(self.spans)   # latest child end seen per parent
        for name, start, end, parent in self.spans:
            if parent < 0:
                continue
            _, p_start, p_end, _ = self.spans[parent]
            lo = max(start, p_start, reach[parent] or p_start)
            hi = min(end, p_end)
            if hi > lo:
                covered[parent] += hi - lo
            reach[parent] = max(reach[parent] or p_start, hi)
        out: dict[str, SpanStats] = defaultdict(SpanStats)
        for (name, start, end, _), cov in zip(self.spans, covered):
            st = out[name]
            st.count += 1
            st.total_ns += end - start
            st.self_ns += end - start - cov
        return out

    def roots(self) -> int:
        return sum(1 for span in self.spans if span[3] < 0)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("run_id,span,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{self.run_id},{i},{name},{start},{end},{parent}\n")


def layer_self_ns(stats: dict[str, SpanStats]) -> dict[str, int]:
    out = dict.fromkeys(LAYERS, 0)
    for name, st in stats.items():
        out[LAYER_OF_SPAN[name]] += st.self_ns
    return out
