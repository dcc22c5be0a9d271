"""Byte-identity guard for the deterministic logs.

The digests below were recorded from earlier implementations: the first
three before the watcher's gating and the per-tick barrier evaluation were
vectorized, from the scalar implementations; the clustered run and the
landing trace before the agents' landing state, the QP entry points and the
sphere barriers were each reduced to one path; the noisy crossing before the
watcher's per-agent velocity estimators became one per family; the lossy
100 Hz crossing before a control unit reused its filtered command between
deliveries; the noisy 12-pair grid, whose localization noise is drawn in
the lexicographic order of the agent ids (uav0, uav1, uav10, ...), before
the runner held the fleet as arrays; the clustered run on a platform raised
0.1 m, which pins the platform embedding of the cross-layer and funnel rows,
before the watcher assembled its constraint matrices in one array pass per
barrier family; the lossy 100 Hz landing, whose units hold, resume and land
between deliveries, before the runner ticked a control unit only when its
output could change and wrote trajectory rows a block at a time; the
drop-only and jitter-only crossings, one per branch of a link's draws,
before the bus drew each link's uniforms in blocks.  A change
that alters any logged byte of these runs -- a reordered constraint row, a
last-ulp difference in a recomputed min_h, one message more or less on the
bus -- fails here.  A change that is meant to alter the logs (a bug fix) must say
so and re-record them.
"""

import hashlib
import os

import pytest

from airground import config_from_dict, load_config, run

from scenario_helpers import clustered_scenario, grid_scenario, landing_scenario

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def crossing_three_5s(**overrides):
    raw = load_config(os.path.join(SCENARIOS, "crossing_three.yaml")).raw
    return config_from_dict(dict(raw, duration=5.0, **overrides))


def noisy_crossing(**overrides):
    """Noisy poses into the watcher's estimators and the UAV tracking lag."""
    return crossing_three_5s(localization_noise=0.02, uav_velocity_lag=0.1,
                             **overrides)


def lossy_landing_100hz():
    """Two landings at 100 Hz control over a link that drops a tenth of the
    messages: units go stale, hold, resume and land between deliveries."""
    return landing_scenario(
        2, seed=3, ugv_speed=0.4, duration=10.0, hold_timeout=0.12,
        network={"latency": 0.03, "jitter": 0.02, "drop": 0.1})


def lossy_crossing_100hz(**overrides):
    """Control at 100 Hz over a link that drops a quarter of the messages:
    each delivery is reused for several ticks, and gaps end in holds."""
    return crossing_three_5s(
        control_rate=100.0, hold_timeout=0.12,
        network={"latency": 0.03, "jitter": 0.02, "drop": 0.25}, **overrides)


def drop_only_crossing():
    """A link that drops and never jitters: only the drop draws run."""
    return crossing_three_5s(network={"latency": 0.02, "jitter": 0.0, "drop": 0.2})


def jitter_only_crossing():
    """A link that jitters and never drops: only the jitter draws run."""
    return crossing_three_5s(network={"latency": 0.02, "jitter": 0.01, "drop": 0.0})


# name -> (scenario, trajectory.csv, watcher.csv, trace.log or None: untraced)
GOLDEN = {
    "crossing_three_5s": (
        crossing_three_5s,
        "29fafc1a41e1158d4f31be37f8e9cb4b92b13896895d4e96cab73a59287436a2",
        "bd639830838265febd31362d8eca1fd755170ddd38778882edbbda8d8ea32610",
        None,
    ),
    "landing_2pairs": (
        lambda: landing_scenario(2, seed=3, ugv_speed=0.4, duration=10.0),
        "6949d3537bfd5073b088aabe2b820ed37a5f7f7c8726c90ec22a0b13666d8561",
        "69dff705949769e177d72e36f50f0b8ab808d20343a32aa59d152f4eff82e6d2",
        "2f92e6bb2ab1ae93be680012c54c0f509fd30c6e42f853f43b9fc894302b9699",
    ),
    "grid_16pairs": (
        lambda: grid_scenario(16, seed=1, duration=0.5),
        "c00e627b56e6f4921091d2b4db6851fd52eb878e04ea452f6c0af14f75c43de7",
        "c3eea8008808281658c591557e5844be5074ab8b35fac3bc0891702520064f21",
        None,
    ),
    "noisy_crossing_5s": (
        noisy_crossing,
        "5e5ecb4f5372d0ec877343fe44c5fc7fd360bc6b3daf805373e19610c39e8d02",
        "79c8dc66b003ae637434abd638959d63dba5c433b2ea46a651a6f9312d96d989",
        "8485b3325bd136ff5caf247288ac9a5971db129e549ca5aff01296b5f45266c5",
    ),
    "lossy_crossing_100hz_5s": (
        lossy_crossing_100hz,
        "f7f837f6e75f017fff996333d132b34e00efcd5225c64fadf39dfe640f49a3e1",
        "d11ef98bb950ae2c1e584c6d5ead98b81f568a4f9057fa29503461be82a519cd",
        "e2e8e3a6212574249087b117b38f3d3193383e456de63d53b81eaf9380d7c616",
    ),
    "lossy_landing_100hz": (
        lossy_landing_100hz,
        "56582ba2bff80275d55900f55b75ca9cf782e89e896903626b4c860928b1af69",
        "17d6500b2572a67621dbac5dc6c604f46c93ea2385adade4e5b62c6182d0b3f6",
        "849f7b7adc583b589210de3e1ec552b6663bf28057065d969e761bf8e86c404e",
    ),
    "noisy_grid_12pairs": (
        lambda: grid_scenario(12, seed=1, duration=0.5, localization_noise=0.02),
        "25fc774ace4fe29a20965485734a04d71e882646ce37908ce6deb03089246595",
        "a0ef26012ab8851020cb52fb062223be9685755a7549120192107a0f14dd3ffe",
        "5e5eb31948be4cd0dc19ab90ce514e50475061f2c4ee29755da27d2bf3d955a4",
    ),
    "clustered_6s": (
        lambda: clustered_scenario(duration=6.0),
        "6326e40dd4013d3c8d4049fa72ef1d27f579bad743747a9ba2f9d7c78fcc8160",
        "a9f2dc37b63e993e45a37e4f9146ac04cb456e377bd88328a9dac7c089e3ae07",
        None,
    ),
    "clustered_raised_platform": (
        lambda: clustered_scenario(duration=3.0, platform_height=0.1),
        "785e5c0d488c2c9d1a4ab31af36f5e4b552176dce7b5c7384dc023c06db7aa1a",
        "42a076a3173533d44776b1e193405edf18b21c35fa78f28a4a1f34ceceaabcba",
        "5fa80288e33aad41e79b269c76cc49e4a21ba05f4796fdb465d345f5777a0eaf",
    ),
    "drop_only_crossing_5s": (
        drop_only_crossing,
        "64c11b6004f7bc142613decb79fb17b9be460d8f185e73d28a04310b68751a49",
        "e00ed3611983b63b92bed721361801f361fffcbcfba2805d395d6753adde3324",
        "f2aaf1f65441b01cf300f733b997bd036139a47d394c12c4e19ea59a0870b76d",
    ),
    "jitter_only_crossing_5s": (
        jitter_only_crossing,
        "a247eb152a83ff4f78cd4884c522892b8b9e7fabc98c56af0d216e839e96b089",
        "eedc88442c82cc89a425a4ffbc185c8322cad7b005c68dbed7eee6e1ff7f9677",
        "62d35accac4cc2de4637418e42bbb4ce6207445090b82c2566aebbcb6f2435dc",
    ),
}


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_logs_match_recorded_digests(tmp_path, name):
    build, trajectory, watcher, trace = GOLDEN[name]
    result = run(build(), str(tmp_path), trace=trace is not None)
    # relaxed_events counts relaxed statuses per agent per control tick,
    # skipped ticks included, as the log does.
    assert result.relaxed_events == result.metrics.status_counts.get("relaxed", 0)
    if name == "landing_2pairs":  # the digests must cover the landed path
        assert len(result.touchdown_times) == 2
        with open(result.trace_path) as f:
            assert "type=landing_signal" in f.read()
    if name == "clustered_6s":  # and the slack relaxation
        assert result.relaxed_events > 0
    if name == "clustered_raised_platform":  # every family, platform raised
        rows = {}
        for rec in result.watcher_records:
            for kind, count in rec.kind_counts.items():
                rows[kind] = rows.get(kind, 0) + count
        assert set(rows) == {"workspace", "uav_other_ugv", "landing",
                             "uav_uav", "ugv_ugv"}
        assert result.relaxed_events > 0
    if name == "lossy_landing_100hz":  # holds and touchdowns, unit by unit
        assert {"hold", "optimal", "landed"} <= set(result.metrics.status_counts)
        assert result.touchdown_times == {0: 6.0, 1: 6.25}
    if name == "lossy_crossing_100hz_5s":  # and holds between reused ticks
        with open(result.trajectory_path) as f:
            statuses = [line.split(",")[10] for line in f.read().splitlines()[1:]]
        assert "hold" in statuses and "optimal" in statuses
    if name == "drop_only_crossing_5s":  # drops, and no jitter
        assert all(s.dropped > 0 for s in result.link_stats.values())
    if name == "jitter_only_crossing_5s":  # every message kept
        assert all(s.dropped == 0 for s in result.link_stats.values())
    assert sha256(result.trajectory_path) == trajectory
    assert sha256(result.watcher_path) == watcher
    if trace is not None:
        assert sha256(result.trace_path) == trace


def test_retired_watcher_key_changes_nothing(tmp_path):
    """watcher.velocity_stale_after is no longer read; scenarios that still
    set it get a FutureWarning naming the key and run exactly as without
    it, even at a negative value, the one setting that once forced every
    estimate to its worst case."""
    _, trajectory, watcher, trace = GOLDEN["noisy_crossing_5s"]
    with pytest.warns(FutureWarning, match="watcher.velocity_stale_after"):
        result = run(noisy_crossing(watcher={"velocity_stale_after": -1.0}),
                     str(tmp_path), trace=True)
    assert sha256(result.trajectory_path) == trajectory
    assert sha256(result.watcher_path) == watcher
    assert sha256(result.trace_path) == trace
