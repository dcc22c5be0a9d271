import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import airground.runner as runner_mod
from airground.errors import InvalidInputError, TopologyViolationError
from airground.netsim import _BLOCK, WATCHER_ID, LinkModel, StarBus, wire_bytes

from oracles import ScalarDrawBus, type_walk_payload_bytes
from scenario_helpers import single_pair


AGENTS = ["uav0", "ugv0", "uav1", "ugv1"]


def make_bus(latency=0.0, jitter=0.0, drop=0.0, seed=1, trace=None):
    return StarBus(AGENTS, LinkModel(latency, jitter, drop), seed, trace=trace)


def update(tag=0.0, dim=3, capacity=8, landed=False):
    """An update payload (pose, position, rate, a, b, count, landed) whose
    pose starts with tag."""
    return (np.array([tag, 0.0, 1.0]), np.zeros(dim), np.zeros(dim),
            np.zeros((capacity, dim)), np.zeros(capacity), 0, landed)


def seqs(trace, *kinds):
    """The (dst, seq) of each of a trace's lines of the given kinds, in order."""
    return [(fields["dst"], int(fields["seq"]))
            for kind, *tokens in map(str.split, trace) if kind in kinds
            for fields in [dict(token.split("=") for token in tokens)]]


class TestTopology:
    def test_unknown_node_rejected(self):
        """Only the fleet's agents receive: the watcher itself and an id
        outside the fleet are no destination."""
        bus = make_bus()
        for dst in ("uav9", WATCHER_ID):
            with pytest.raises(TopologyViolationError):
                bus.send(dst, update(), 0.0)
        assert bus.link_stats() == {}


class TestDelivery:
    def test_zero_latency_delivers_same_instant(self):
        bus = make_bus()
        due = bus.send("uav0", update(42), 0.05)
        [(dst, payload, sent)] = bus.deliver_due(0.05)
        assert dst == "uav0" and payload[0][0] == 42
        assert due == sent == 0.05

    def test_latency_defers_delivery(self):
        bus = make_bus(latency=0.03)
        assert bus.send("uav0", update(), 0.0) == 0.03
        assert bus.deliver_due(0.02) == []
        assert len(bus.deliver_due(0.03)) == 1

    def test_empty_queue(self):
        assert make_bus().deliver_due(10.0) == []

    def test_tie_order_by_seq_then_link(self):
        trace = []
        bus = make_bus(trace=trace)
        bus.send("ugv1", update(1), 0.0)
        bus.send("uav0", update(2), 0.0)
        bus.send("ugv1", update(3), 0.0)
        out = bus.deliver_due(0.0)
        # Same delivery time everywhere: seq breaks ties, then link id.
        assert [(dst, int(payload[0][0])) for dst, payload, _ in out] == [
            ("uav0", 2), ("ugv1", 1), ("ugv1", 3)]
        assert seqs(trace, "deliver") == [("uav0", 1), ("ugv1", 1), ("ugv1", 2)]

    def test_jitter_can_reorder_transport(self):
        bus = make_bus(latency=0.05, jitter=0.04, seed=3)
        stamps = []
        for k in range(30):
            stamps.append(bus.send("uav0", update(k), 0.01 * k))
        out = bus.deliver_due(10.0)
        payloads = [int(payload[0][0]) for _, payload, _ in out]
        assert sorted(payloads) == list(range(30))
        assert payloads != list(range(30))  # at least one inversion under jitter

    def test_seq_strictly_increasing_per_link(self):
        """Every update sent on a link, dropped or kept, takes the link's
        next sequence number."""
        trace = []
        bus = make_bus(drop=0.3, seed=9, trace=trace)
        dropped = sum(bus.send("uav0", update(k), 0.0) is None for k in range(50))
        assert 0 < dropped < 50
        assert seqs(trace, "send", "drop") == [("uav0", k) for k in range(1, 51)]


class TestDeterminism:
    def test_identical_schedule_for_identical_seed(self):
        def schedule(seed):
            bus = make_bus(latency=0.02, jitter=0.01, drop=0.1, seed=seed)
            out = []
            for k in range(200):
                out.append(bus.send(AGENTS[k % 4], update(k), 0.01 * k))
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
                    bus.send("ugv1", update(k), 0.01 * k)
                out.append(bus.send("uav0", update(k), 0.01 * k))
            return out

        assert uav0_schedule(False) == uav0_schedule(True)


class TestStatsAndTrace:
    def test_conservation_per_link(self):
        bus = make_bus(latency=0.01, drop=0.25, seed=2)
        for k in range(300):
            bus.send(AGENTS[k % 4], update(), 0.001 * k)
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
            bus.send(aid, update(), 0.0)
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
            bus.send("uav0", update(), 0.01 * k)
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

    def test_the_bus_takes_a_scenarios_link_rules(self):
        """A link model holds the rules a scenario's network section is
        checked by, and the bus raises every violation of them, in their
        words."""
        with pytest.raises(InvalidInputError) as err:
            make_bus(latency=-0.1, drop=1.5)
        assert str(err.value) == ("network latency and jitter must be >= 0; "
                                  "network drop must be in [0, 1]")

    def test_a_drop_of_one_drops_every_update(self):
        """A drop of 1.0 is kept as 1.0: every uniform draw is below it."""
        assert LinkModel(drop_prob=1.0).drop_prob == 1.0
        bus = make_bus(drop=1.0)
        assert all(bus.send(AGENTS[k % 4], update(), 0.0) is None for k in range(10_000))
        assert bus.pending() == 0 and bus.deliver_due(1e309) == []
        assert {s.dropped for s in bus.link_stats().values()} == {2_500}


# Update payloads of both vehicle kinds (a UGV's setpoint has two
# coordinates), several capacities, and both landed bits.
UPDATES = [update(0.5, dim, capacity, landed) for dim in (3, 2) for capacity in (6, 8, 13)
           for landed in (False, True)]


class TestLazyStreams:
    def test_ideal_links_build_no_generator(self, monkeypatch, tmp_path):
        """A link seeds its stream on its first draw: a run on ideal links
        (no drop, no jitter) builds no Generator, and a jittered one builds
        one per link."""
        buses = []

        class Bus(StarBus):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                buses.append(self)

        monkeypatch.setattr(runner_mod, "StarBus", Bus)
        for network, drawn in (({"latency": 0.0, "jitter": 0.0, "drop": 0.0}, False),
                               ({"latency": 0.02, "jitter": 0.005, "drop": 0.0}, True)):
            runner_mod.run(single_pair(duration=0.5, network=network),
                           str(tmp_path / str(drawn)))
            links = buses.pop()._links
            assert len(links) == 2  # the watcher's links to uav0 and ugv0
            assert {link.rng is not None for link in links.values()} == {drawn}

    @pytest.mark.parametrize("seed", [-1, 2.5, None])
    def test_bad_seed_raises_on_ideal_links(self, seed):
        with pytest.raises(InvalidInputError, match="seed"):
            make_bus(seed=seed)


def test_wire_sizes_match_type_walk():
    """Sizes read off an update's array shapes equal the type walk over its
    payload; the landed bit rides in the header and adds nothing."""
    for payload in UPDATES:
        assert wire_bytes(payload) == type_walk_payload_bytes(payload)
    assert wire_bytes(update(landed=True)) == wire_bytes(update())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       latency=st.sampled_from([0.0, 0.02]),
       jitter=st.one_of(st.just(0.0), st.floats(1e-6, 0.1), st.just(8.9e307)),
       drop=st.one_of(st.just(0.0), st.floats(0.0, 0.9, exclude_max=True)),
       schedule=st.integers(0, 2**32 - 1))
def test_block_draws_match_scalar_draws(seed, latency, jitter, drop, schedule):
    """Every other update goes over one link, so its draws span several
    blocks; the rest are spread over the other links.  Drop decisions,
    sequence numbers, delivery-time bits, delivery order and link
    statistics all equal those of one scalar draw per decision."""
    link = LinkModel(latency, jitter, drop)
    trace: list[str] = []
    bus, ref = StarBus(AGENTS, link, seed, trace=trace), ScalarDrawBus(AGENTS, link, seed)
    rng = np.random.default_rng(schedule)
    n = 4 * _BLOCK
    others = rng.integers(1, len(AGENTS), n)
    picks = rng.integers(0, len(UPDATES), n)

    def deliveries(now):
        got = [(dst, id(payload), sent) for dst, payload, sent in bus.deliver_due(now)]
        want = ref.deliver_due(now)
        assert got == [(s.dst, id(s.payload), s.sent) for s in want]
        assert seqs(trace, "deliver") == [(s.dst, s.seq) for s in want]
        trace.clear()

    now = 0.0
    for k in range(n):
        dst = AGENTS[0 if k % 2 else others[k]]
        payload = UPDATES[picks[k]]
        got = bus.send(dst, payload, now)
        want = ref.send(dst, payload, now)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.hex() == want.due.hex()
            assert seqs(trace, "send")[-1] == (dst, want.seq)
        if k % 64 == 63:
            now += 0.05
            deliveries(now)
    deliveries(1e309)
    assert ({k: vars(v) for k, v in bus.link_stats().items()}
            == {k: vars(v) for k, v in ref.link_stats().items()})
