"""Virtual-time star-topology message bus.

All cross-node traffic travels between the coordinator and an agent; there
are no agent-to-agent links, and an attempt to use one is a hard failure.
Each directed link owns an RNG stream derived from the scenario seed and the
link's name, so adding links never perturbs the draws of existing ones.

A link reads its stream as uniforms in [0, 1), in send order: one drop draw
per message when drop_prob > 0 (the message is dropped when the draw is
below drop_prob), then one jitter draw u per kept message when jitter > 0,
which adds -jitter + (jitter - -jitter) * u to the base latency.  The
uniforms are drawn _BLOCK at a time.  Each one is the value a scalar
Generator.uniform() returns at that point of the stream, and the jitter
term is the float uniform(-jitter, jitter) returns, so the schedule is the
same as with one Generator call per draw.

Delivery is a deterministic total order: (deliver_time, seq, src, dst).
A queue entry also carries the message and its link's counters.  Payloads
are sized by exact type (WIRE_SIZES), a subclass as its nearest listed
base.
"""

from __future__ import annotations

import heapq
import math
import zlib
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInputError, TopologyViolationError
from .logfmt import fmt9

WATCHER_ID = "watcher"
_BLOCK = 256  # uniforms a link draws from its stream at a time


class MsgType(Enum):
    POSE_UPDATE = "pose"
    SETPOINT_UPDATE = "setpoint"
    CONSTRAINT_UPDATE = "constraints"
    LANDING_SIGNAL = "landing_signal"
    TOUCHDOWN_ACK = "touchdown_ack"


@dataclass(slots=True)
class Message:
    msg_type: MsgType
    src: str
    dst: str
    send_time: float
    deliver_time: float
    seq: int          # strictly increasing per (src, dst)
    payload: object = None


@dataclass(frozen=True)
class LinkModel:
    base_latency: float = 0.0
    jitter: float = 0.0        # uniform half-width added to the latency
    drop_prob: float = 0.0

    def validate(self) -> None:
        if self.base_latency < 0 or self.jitter < 0:
            raise InvalidInputError("latency and jitter must be non-negative")
        if not (math.isfinite(2.0 * self.jitter)
                and math.isfinite(self.base_latency + self.jitter)):
            raise InvalidInputError("latency and jitter must keep every delivery "
                                    "time finite (2*jitter and latency+jitter)")
        if not 0.0 <= self.drop_prob < 1.0:
            raise InvalidInputError("drop_prob must be in [0, 1)")


@dataclass
class LinkStats:
    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    bytes: int = 0


def _object_bytes(field) -> int:
    nbytes = getattr(field, "wire_bytes", None)
    return nbytes() if callable(nbytes) else 64


# Nominal payload field sizes by type: 8 bytes per scalar, strings as utf-8,
# sequences field by field, wire_bytes() where an object defines it, 64
# otherwise.
WIRE_SIZES = {np.ndarray: lambda field: field.size * 8, type(None): lambda field: 0,
              int: lambda field: 8, float: lambda field: 8,
              str: lambda field: len(field.encode()),
              tuple: lambda field: sum(map(_field_bytes, field)),
              list: lambda field: sum(map(_field_bytes, field)), object: _object_bytes}


def _field_bytes(field) -> int:
    """A field's size by its type's entry, or by the first base of its type
    that has one."""
    if type(field) is np.ndarray:  # most fields: poses, setpoints
        return field.size * 8
    size = WIRE_SIZES.get(type(field))
    if size is None:  # remembered: the entry depends on the type alone
        size = WIRE_SIZES[type(field)] = next(
            WIRE_SIZES[base] for base in type(field).__mro__ if base in WIRE_SIZES)
    return size(field)


def _payload_bytes(payload) -> int:
    """Nominal wire size: a 16B header plus the payload's fields."""
    return 16 + _field_bytes(payload)


class _Link:
    """One directed link: its agent's counters (shared with the reverse
    direction), its RNG stream read _BLOCK uniforms at a time, and its last
    sequence number."""

    __slots__ = ("stats", "rng", "draws", "next_draw", "seq")

    def __init__(self, stats: LinkStats, rng: np.random.Generator):
        self.stats = stats
        self.rng = rng
        self.draws: list[float] = []
        self.next_draw = 0
        self.seq = 0

    def uniform(self) -> float:
        """The stream's next uniform in [0, 1)."""
        k = self.next_draw
        if k == len(self.draws):
            self.draws = self.rng.random(_BLOCK).tolist()
            k = 0
        self.next_draw = k + 1
        return self.draws[k]


class StarBus:
    """Event-queued message transport restricted to agent <-> watcher links."""

    def __init__(self, agent_ids: list[str], link: LinkModel, seed: int,
                 trace: list[str] | None = None):
        link.validate()
        self.link = link
        self.agents = set(agent_ids)
        self.trace = trace
        self._links: dict[tuple[str, str], _Link] = {}
        self._stats: dict[str, LinkStats] = {}
        # (deliver_time, seq, src, dst, message, the link's stats); the first
        # four are unique, so messages and stats are never compared.
        self._queue: list[tuple[float, int, str, str, Message, LinkStats]] = []
        self._seed = seed
        # uniform(-jitter, jitter) is -jitter + (jitter - -jitter) * u.
        self._jitter_low = -link.jitter
        self._jitter_range = link.jitter - -link.jitter

    def _check_link(self, src: str, dst: str) -> str:
        """Returns the agent endpoint naming the star link."""
        if src == WATCHER_ID and dst in self.agents:
            return dst
        if dst == WATCHER_ID and src in self.agents:
            return src
        raise TopologyViolationError(
            f"link {src} -> {dst} is not part of the star topology"
        )

    def _open_link(self, src: str, dst: str) -> _Link:
        """The record of a star link's first message in this direction."""
        agent = self._check_link(src, dst)
        tag = zlib.crc32(f"{src}->{dst}".encode())
        rng = np.random.default_rng(np.random.SeedSequence([self._seed, tag]))
        link = self._links[src, dst] = _Link(self._stats.setdefault(agent, LinkStats()), rng)
        return link

    def send(self, msg_type: MsgType, src: str, dst: str, payload,
             now: float) -> Message | None:
        """Schedule a message; returns None when the link model drops it."""
        link = self._links.get((src, dst)) or self._open_link(src, dst)
        link.seq = seq = link.seq + 1
        stats = link.stats
        stats.sent += 1
        stats.bytes += _payload_bytes(payload)
        model = self.link
        if model.drop_prob > 0.0 and link.uniform() < model.drop_prob:
            stats.dropped += 1
            if self.trace is not None:
                self.trace.append(f"drop t={fmt9(now)} src={src} dst={dst} "
                                  f"type={msg_type.value} seq={seq}")
            return None
        latency = model.base_latency
        if model.jitter > 0.0:
            latency += self._jitter_low + self._jitter_range * link.uniform()
        deliver = max(now, now + latency)
        msg = Message(msg_type, src, dst, now, deliver, seq, payload)
        heapq.heappush(self._queue, (deliver, seq, src, dst, msg, stats))
        if self.trace is not None:
            self.trace.append(f"send t={fmt9(now)} src={src} dst={dst} "
                              f"type={msg_type.value} seq={seq} due={fmt9(deliver)}")
        return msg

    def deliver_due(self, now: float) -> list[Message]:
        """Pop every message due by `now` in (deliver_time, seq, link) order."""
        queue, out = self._queue, []
        while queue and queue[0][0] <= now:
            msg, stats = heapq.heappop(queue)[4:]
            stats.delivered += 1
            if self.trace is not None:
                self.trace.append(f"deliver t={fmt9(now)} src={msg.src} dst={msg.dst} "
                                  f"type={msg.msg_type.value} seq={msg.seq} "
                                  f"sent={fmt9(msg.send_time)}")
            out.append(msg)
        return out

    def pending(self) -> int:
        return len(self._queue)

    def link_stats(self) -> dict[str, LinkStats]:
        """Per-agent-link counters; only links that carried traffic appear."""
        return dict(sorted(self._stats.items()))
