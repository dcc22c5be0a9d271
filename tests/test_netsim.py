from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airground.errors import InvalidInputError, TopologyViolationError
from airground.netsim import _BLOCK, WATCHER_ID, LinkModel, MsgType, StarBus, _payload_bytes
from airground.watcher import ConstraintMatrix

from oracles import ScalarDrawBus, payload_bytes, payload_bytes_by_isinstance


AGENTS = ["uav0", "ugv0", "uav1", "ugv1"]


def make_bus(latency=0.0, jitter=0.0, drop=0.0, seed=1, trace=None):
    return StarBus(AGENTS, LinkModel(latency, jitter, drop), seed, trace=trace)


class TestTopology:
    def test_star_links_accepted_both_directions(self):
        bus = make_bus()
        assert bus.send(MsgType.POSE_UPDATE, WATCHER_ID, "uav0", None, 0.0)
        assert bus.send(MsgType.TOUCHDOWN_ACK, "uav0", WATCHER_ID, None, 0.0)

    def test_agent_to_agent_rejected(self):
        bus = make_bus()
        with pytest.raises(TopologyViolationError):
            bus.send(MsgType.POSE_UPDATE, "uav0", "ugv0", None, 0.0)

    def test_unknown_node_rejected(self):
        bus = make_bus()
        with pytest.raises(TopologyViolationError):
            bus.send(MsgType.POSE_UPDATE, WATCHER_ID, "uav9", None, 0.0)


class TestDelivery:
    def test_zero_latency_delivers_same_instant(self):
        bus = make_bus()
        bus.send(MsgType.POSE_UPDATE, WATCHER_ID, "uav0", 42, 0.05)
        out = bus.deliver_due(0.05)
        assert len(out) == 1 and out[0].payload == 42
        assert out[0].deliver_time == out[0].send_time == 0.05

    def test_latency_defers_delivery(self):
        bus = make_bus(latency=0.03)
        bus.send(MsgType.POSE_UPDATE, WATCHER_ID, "uav0", None, 0.0)
        assert bus.deliver_due(0.02) == []
        assert len(bus.deliver_due(0.03)) == 1

    def test_empty_queue(self):
        assert make_bus().deliver_due(10.0) == []

    def test_tie_order_by_seq_then_link(self):
        bus = make_bus()
        bus.send(MsgType.POSE_UPDATE, WATCHER_ID, "ugv1", "b1", 0.0)
        bus.send(MsgType.POSE_UPDATE, WATCHER_ID, "uav0", "a2", 0.0)
        bus.send(MsgType.SETPOINT_UPDATE, WATCHER_ID, "ugv1", "b2", 0.0)
        out = bus.deliver_due(0.0)
        # Same deliver_time everywhere: seq breaks ties, then link id.
        assert [(m.seq, m.dst) for m in out] == [(1, "uav0"), (1, "ugv1"), (2, "ugv1")]

    def test_jitter_can_reorder_transport(self):
        bus = make_bus(latency=0.05, jitter=0.04, seed=3)
        stamps = []
        for k in range(30):
            msg = bus.send(MsgType.POSE_UPDATE, WATCHER_ID, "uav0", k, 0.01 * k)
            stamps.append(msg.deliver_time)
        out = bus.deliver_due(10.0)
        payloads = [m.payload for m in out]
        assert sorted(payloads) == list(range(30))
        assert payloads != list(range(30))  # at least one inversion under jitter

    def test_seq_strictly_increasing_per_link(self):
        bus = make_bus(drop=0.3, seed=9)
        seqs = []
        for k in range(50):
            msg = bus.send(MsgType.POSE_UPDATE, WATCHER_ID, "uav0", k, 0.0)
            if msg is not None:
                seqs.append(msg.seq)
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)


class TestDeterminism:
    def test_identical_schedule_for_identical_seed(self):
        def schedule(seed):
            bus = make_bus(latency=0.02, jitter=0.01, drop=0.1, seed=seed)
            out = []
            for k in range(200):
                msg = bus.send(MsgType.POSE_UPDATE, WATCHER_ID,
                               AGENTS[k % 4], k, 0.01 * k)
                out.append(None if msg is None else (msg.seq, msg.deliver_time))
            return out

        assert schedule(5) == schedule(5)
        assert schedule(5) != schedule(6)

    def test_per_link_streams_independent(self):
        # The uav0 link's draws must not change when another link also sends.
        def uav0_schedule(extra_traffic):
            bus = make_bus(latency=0.02, jitter=0.01, drop=0.2, seed=11)
            out = []
            for k in range(100):
                if extra_traffic:
                    bus.send(MsgType.POSE_UPDATE, WATCHER_ID, "ugv1", k, 0.01 * k)
                msg = bus.send(MsgType.POSE_UPDATE, WATCHER_ID, "uav0", k, 0.01 * k)
                out.append(None if msg is None else msg.deliver_time)
            return out

        assert uav0_schedule(False) == uav0_schedule(True)


class TestStatsAndTrace:
    def test_conservation_per_link(self):
        bus = make_bus(latency=0.01, drop=0.25, seed=2)
        for k in range(300):
            bus.send(MsgType.POSE_UPDATE, WATCHER_ID, AGENTS[k % 4], None, 0.001 * k)
        bus.deliver_due(0.1)
        stats = bus.link_stats()
        in_flight = bus.pending()
        total_sent = sum(s.sent for s in stats.values())
        total_done = sum(s.delivered + s.dropped for s in stats.values())
        assert total_sent == total_done + in_flight
        bus.deliver_due(1e9)
        stats = bus.link_stats()
        for s in stats.values():
            assert s.sent == s.delivered + s.dropped

    def test_idle_bus_has_no_counters(self):
        assert make_bus().link_stats() == {}

    def test_active_link_count(self):
        bus = make_bus()
        for aid in AGENTS:
            bus.send(MsgType.POSE_UPDATE, WATCHER_ID, aid, None, 0.0)
        assert len(bus.link_stats()) == 4  # one link per agent: 2N with N=2

    def test_full_mesh_link_count_baseline(self):
        # The star needs 2N links; a full mesh would need 2N*(2N-1).
        n_agents = len(AGENTS)
        assert n_agents * (n_agents - 1) == 12
        assert n_agents == 4

    def test_trace_records_send_drop_deliver(self):
        trace = []
        bus = make_bus(drop=0.5, seed=4, trace=trace)
        for k in range(40):
            bus.send(MsgType.POSE_UPDATE, WATCHER_ID, "uav0", None, 0.01 * k)
        bus.deliver_due(10.0)
        kinds = {line.split()[0] for line in trace}
        assert kinds == {"send", "drop", "deliver"}
        sends = sum(1 for l in trace if l.startswith("send"))
        drops = sum(1 for l in trace if l.startswith("drop"))
        delivers = sum(1 for l in trace if l.startswith("deliver"))
        assert sends + drops == 40
        assert delivers == sends


class TestLinkModel:
    @pytest.mark.parametrize("latency, jitter", [(0.02, 1.0e308), (1.7e308, 0.9e308)])
    def test_jitter_that_overflows_a_delivery_time_rejected(self, latency, jitter):
        with pytest.raises(InvalidInputError, match="finite"):
            make_bus(latency=latency, jitter=jitter)


class _Sized:
    def wire_bytes(self):
        return 5


# One payload of each shape the bus sizes: header only, scalars, a string,
# arrays, nested sequences, an object with wire_bytes() and one without, and
# subclasses of sized types, which size as their base.
PAYLOADS = [None, 7, True, 2.5, "landing", np.zeros(3), (np.zeros(3), np.ones(3)),
            [1, (2.0, "ab"), None], (0, 1),
            ConstraintMatrix("uav0", 0.0, np.zeros((8, 3)), np.zeros(8), [], []),
            object(), np.float64(1.5), np.int64(3), namedtuple("Pair", "a b")(1, 2.0),
            np.zeros((2, 2)).view(np.matrix), _Sized(), 1 + 2j]
LINKS = [(WATCHER_ID, aid) for aid in AGENTS] + [(aid, WATCHER_ID) for aid in AGENTS]


def test_wire_sizes_match_recursive_sizes():
    for payload in PAYLOADS:
        assert _payload_bytes(payload) == payload_bytes(payload)
        assert _payload_bytes(payload) == payload_bytes_by_isinstance(payload)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       latency=st.sampled_from([0.0, 0.02]),
       jitter=st.one_of(st.just(0.0), st.floats(1e-6, 0.1), st.just(8.9e307)),
       drop=st.one_of(st.just(0.0), st.floats(0.0, 0.9, exclude_max=True)),
       schedule=st.integers(0, 2**32 - 1))
def test_block_draws_match_scalar_draws(seed, latency, jitter, drop, schedule):
    """Every other message goes over one link, so its draws span several
    blocks; the rest are spread over the other links, both directions.
    Drop decisions, sequence numbers, delivery-time bits, delivery order
    and link statistics all equal those of one scalar draw per decision."""
    link = LinkModel(latency, jitter, drop)
    bus, ref = StarBus(AGENTS, link, seed), ScalarDrawBus(AGENTS, link, seed)
    rng = np.random.default_rng(schedule)
    n = 4 * _BLOCK
    others = rng.integers(1, len(LINKS), n)
    payloads = rng.integers(0, len(PAYLOADS), n)
    now = 0.0
    for k in range(n):
        src, dst = LINKS[0 if k % 2 else others[k]]
        msg_type = MsgType.POSE_UPDATE if src == WATCHER_ID else MsgType.TOUCHDOWN_ACK
        got = bus.send(msg_type, src, dst, PAYLOADS[payloads[k]], now)
        want = ref.send(msg_type, src, dst, PAYLOADS[payloads[k]], now)
        assert (got is None) == (want is None)
        if got is not None:
            assert (got.seq, got.deliver_time.hex()) == (want.seq, want.deliver_time.hex())
        if k % 64 == 63:
            now += 0.05
            assert ([(m.src, m.dst, m.seq) for m in bus.deliver_due(now)]
                    == [(m.src, m.dst, m.seq) for m in ref.deliver_due(now)])
    assert ([(m.src, m.dst, m.seq) for m in bus.deliver_due(1e309)]
            == [(m.src, m.dst, m.seq) for m in ref.deliver_due(1e309)])
    assert ({k: vars(v) for k, v in bus.link_stats().items()}
            == {k: vars(v) for k, v in ref.link_stats().items()})
