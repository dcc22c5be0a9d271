"""Virtual-time star-topology delivery queue.

The coordinator (the watcher) is the only sender: it sends each agent one
update per watcher tick, carrying its pose, setpoint, constraint rows and
its pair's landed bit together, so a drop or a delay always takes all of
them.  A send to a node outside the fleet is a hard failure; trace lines
name the update's type and source: type=update, src=watcher.  Each link
owns an RNG stream derived from the scenario seed and the link's name, so
adding links never perturbs the draws of existing ones.  A link seeds its
stream on its first draw, so a link that never draws (an ideal one)
builds no Generator; the bus checks the seed once, when it is made.

A link reads its stream as uniforms in [0, 1), in send order: one drop draw
per update when drop_prob > 0 (dropped when the draw is below drop_prob,
so a drop_prob of 1.0 drops every update), then one jitter draw u per kept
update when jitter > 0, which adds -jitter + (jitter - -jitter) * u to the
base latency.  The uniforms are drawn _BLOCK at a time.  Each one is the
value a scalar Generator.uniform() returns at that point of the stream,
and the jitter term is the float uniform(-jitter, jitter) returns, so the
schedule is the same as with one Generator call per draw.

Delivery is a deterministic total order: (due, seq, dst).  A queue entry
also carries the send time, the payload and its link's counters.  A link's
byte count adds each sent update's nominal size (wire_bytes).
"""

from __future__ import annotations

import heapq
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigViolation, InvalidInputError, ParameterRecord, TopologyViolationError
from .logfmt import fmt9

WATCHER_ID = "watcher"
_BLOCK = 256  # uniforms a link draws from its stream at a time


@dataclass(frozen=True)
class LinkModel(ParameterRecord):
    base_latency: float = 0.0
    jitter: float = 0.0        # uniform half-width added to the latency
    drop_prob: float = 0.0

    def delays_finite(self) -> bool:
        """Whether every delivery time stays finite: 2*jitter and latency+jitter do."""
        return math.isfinite(2.0 * self.jitter) and math.isfinite(self.base_latency + self.jitter)

    def validate(self) -> list[ConfigViolation]:
        """Every rule this link model breaks, in a scenario's network terms."""
        problems = []
        if self.base_latency < 0 or self.jitter < 0:
            problems.append(ConfigViolation("BAD_VALUE", "network latency and jitter must be >= 0"))
        elif not self.delays_finite():
            problems.append(ConfigViolation(
                "BAD_VALUE", "network jitter is too large: 2*jitter and latency+jitter must "
                f"be finite, got latency {self.base_latency!r}, jitter {self.jitter!r}"))
        if not 0.0 <= self.drop_prob <= 1.0:
            problems.append(ConfigViolation("BAD_VALUE", "network drop must be in [0, 1]"))
        return problems


@dataclass
class LinkStats:
    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    bytes: int = 0


def wire_bytes(payload) -> int:
    """An update's nominal size: a 16B header (with the landed bit), 8 bytes
    per number of its pose, setpoint position and rate, and its rows' A and
    b behind a 16B header of their own (with the active row count)."""
    pose, position, rate, a, b, _, _ = payload
    return 32 + 8 * (pose.size + position.size + rate.size + a.size + b.size)


class _Link:
    """The watcher's link to one agent: its counters, its RNG stream read
    _BLOCK uniforms at a time, and its last sequence number.  The stream's
    Generator is built from entropy (the seed and the link's tag) on the
    first draw."""

    __slots__ = ("stats", "entropy", "rng", "draws", "next_draw", "seq")

    def __init__(self, stats: LinkStats, entropy: list[int]):
        self.stats = stats
        self.entropy = entropy
        self.rng: np.random.Generator | None = None
        self.draws: list[float] = []
        self.next_draw = 0
        self.seq = 0

    def uniform(self) -> float:
        """The stream's next uniform in [0, 1)."""
        k = self.next_draw
        if k == len(self.draws):
            if self.rng is None:
                self.rng = np.random.default_rng(np.random.SeedSequence(self.entropy))
            self.draws = self.rng.random(_BLOCK).tolist()
            k = 0
        self.next_draw = k + 1
        return self.draws[k]


class StarBus:
    """The watcher's delivery queue: one virtual-time link to each agent."""

    def __init__(self, agent_ids: list[str], link: LinkModel, seed: int,
                 trace: list[str] | None = None):
        link.require_valid()
        try:  # what each link's SeedSequence will take, checked up front
            np.random.SeedSequence([seed, 0])
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"seed must be a non-negative integer, got {seed!r}") from exc
        self.link = link
        self.agents = set(agent_ids)
        self.trace = trace
        self._links: dict[str, _Link] = {}   # by agent, once it is first sent to
        # (due, seq, dst, sent, payload, the link's stats); the first three
        # are unique, so payloads and stats are never compared.
        self._queue: list[tuple[float, int, str, float, object, LinkStats]] = []
        self._seed = seed
        # uniform(-jitter, jitter) is -jitter + (jitter - -jitter) * u.
        self._jitter_low = -link.jitter
        self._jitter_range = link.jitter - -link.jitter

    def _open_link(self, dst: str) -> _Link:
        """The record of a link's first update; only agents receive."""
        if dst not in self.agents:
            raise TopologyViolationError(
                f"link {WATCHER_ID} -> {dst} is not part of the star topology")
        tag = zlib.crc32(f"{WATCHER_ID}->{dst}".encode())
        link = self._links[dst] = _Link(LinkStats(), [self._seed, tag])
        return link

    def send(self, dst: str, payload, now: float) -> float | None:
        """Schedule an update to dst; returns its delivery time, or None
        when the link model drops it."""
        link = self._links.get(dst) or self._open_link(dst)
        link.seq = seq = link.seq + 1
        stats = link.stats
        stats.sent += 1
        stats.bytes += wire_bytes(payload)
        model = self.link
        if model.drop_prob > 0.0 and link.uniform() < model.drop_prob:
            stats.dropped += 1
            if self.trace is not None:
                self.trace.append(f"drop t={fmt9(now)} src=watcher dst={dst} "
                                  f"type=update seq={seq}")
            return None
        latency = model.base_latency
        if model.jitter > 0.0:
            latency += self._jitter_low + self._jitter_range * link.uniform()
        due = max(now, now + latency)
        heapq.heappush(self._queue, (due, seq, dst, now, payload, stats))
        if self.trace is not None:
            self.trace.append(f"send t={fmt9(now)} src=watcher dst={dst} "
                              f"type=update seq={seq} due={fmt9(due)}")
        return due

    def deliver_due(self, now: float) -> list[tuple[str, object, float]]:
        """Pop every update due by `now` in (due, seq, dst) order, as
        (dst, payload, send time) triples."""
        queue, out = self._queue, []
        while queue and queue[0][0] <= now:
            _, seq, dst, sent, payload, stats = heapq.heappop(queue)
            stats.delivered += 1
            if self.trace is not None:
                self.trace.append(f"deliver t={fmt9(now)} src=watcher dst={dst} "
                                  f"type=update seq={seq} sent={fmt9(sent)}")
            out.append((dst, payload, sent))
        return out

    def pending(self) -> int:
        return len(self._queue)

    def link_stats(self) -> dict[str, LinkStats]:
        """Per-agent-link counters; only links that carried traffic appear."""
        return {agent: link.stats for agent, link in sorted(self._links.items())}
