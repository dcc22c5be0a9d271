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
before the bus drew each link's uniforms in blocks; the crossing whose
jitter is as wide as its latency, where updates overtake each other and
units keep the latest stamp, before the watcher's fan-out was built from
its arrays and the bus sized payloads by type.  The metrics.json
digests were recorded while run() still re-read its own logs through
summarize_dir, before it built its metrics in the loop; every run also
checks that summarize_dir, the independent re-check, agrees with them.

Three bug fixes re-recorded digests on purpose.  When a UGV began to hold
its filtered offset-point velocity and map it through its current heading
at every integration step, instead of holding one body twist between
solves, the trajectory.csv and metrics.json digests of every run whose
UGVs turn were re-recorded (all but the two landings, whose platforms
drive straight); no watcher.csv or trace.log changed.  When the watcher
began to send each agent one update per tick, carrying pose, setpoint and
matrix together with one drop and one jitter draw, in place of three
messages, and stopped sending the landing signal that no unit acted on,
every trace.log and traced metrics.json digest was re-recorded, and the
trajectory.csv and watcher.csv digests of the runs over lossy or jittery
links; on ideal links the three messages had landed in the same instant,
so those runs' trajectory.csv and watcher.csv stayed the same.  When the
touchdown acknowledgement gave way to a landed bit on every update, so that
a dropped acknowledgement no longer left a landed pair's UAV flying, the
landing runs lost the acknowledgements' sends and draws: the landing
trace's trace.log and metrics.json (two messages fewer) were re-recorded,
its trajectory.csv and watcher.csv staying the same, as on ideal links an
acknowledgement and its tick's update had landed in the same instant; and
the lossy 100 Hz landing's trajectory.csv, trace.log and metrics.json,
whose UAV links draw differently after their touchdowns (uav1 now holds
for two ticks before its landed bit arrives, at the same tick as the
acknowledgement did), its watcher.csv staying the same.  A change that
alters any logged byte of these runs -- a reordered constraint row, a
last-ulp difference in a recomputed min_h, one message more or less on the
bus -- fails here.  A change that is meant to alter the logs (a bug fix) must say
so and re-record them.
"""

import hashlib
import os

import pytest

from airground import config_from_dict, load_config, run, summarize_dir

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


def overtaking_crossing():
    """Jitter as wide as the latency: later updates overtake earlier ones,
    so units meet stale stamps (latest wins) and several updates of one
    kind land at one instant."""
    return crossing_three_5s(network={"latency": 0.06, "jitter": 0.06, "drop": 0.05})


def overtaken_deliveries(trace_path: str) -> tuple[int, int]:
    """Deliveries sent before one already delivered to the same (dst, type),
    and extra deliveries of one (dst, type) at one instant."""
    latest, older, per_instant = {}, 0, {}
    with open(trace_path) as f:
        for line in f:
            if line.startswith("deliver "):
                fields = dict(part.split("=", 1) for part in line.split()[1:])
                key, sent = (fields["dst"], fields["type"]), float(fields["sent"])
                older += sent < latest.get(key, -1.0)
                latest[key] = max(latest.get(key, -1.0), sent)
                instant = (fields["t"], *key)
                per_instant[instant] = per_instant.get(instant, 0) + 1
    return older, sum(1 for count in per_instant.values() if count > 1)


# name -> (scenario, trajectory.csv, watcher.csv, trace.log or None: untraced)
GOLDEN = {
    "crossing_three_5s": (
        crossing_three_5s,
        "ade4285362ed5d23a2c8f9ba9c776d2668892767fb8817910da6a6e1f8c54ad6",
        "eedc88442c82cc89a425a4ffbc185c8322cad7b005c68dbed7eee6e1ff7f9677",
        None,
    ),
    "landing_2pairs": (
        lambda: landing_scenario(2, seed=3, ugv_speed=0.4, duration=10.0),
        "6949d3537bfd5073b088aabe2b820ed37a5f7f7c8726c90ec22a0b13666d8561",
        "69dff705949769e177d72e36f50f0b8ab808d20343a32aa59d152f4eff82e6d2",
        "60fafd380383dd50d778de6b6a9a4b8f5db2c7c627871e91adb87a8b79743c4b",
    ),
    "grid_16pairs": (
        lambda: grid_scenario(16, seed=1, duration=0.5),
        "5ea03f44d81755cf9fabea18aad07536381abd176295385d2bc26d0ee4631473",
        "c3eea8008808281658c591557e5844be5074ab8b35fac3bc0891702520064f21",
        None,
    ),
    "noisy_crossing_5s": (
        noisy_crossing,
        "55182f1c5b383df41aab8840d0a0eb0735aa8fbd5a355cd0442b803b7061505f",
        "79c8dc66b003ae637434abd638959d63dba5c433b2ea46a651a6f9312d96d989",
        "bec54ef14f001da8da5923737e4a3cc0c36741ead957c93b24aa544c6e425030",
    ),
    "lossy_crossing_100hz_5s": (
        lossy_crossing_100hz,
        "cde739ec6a630e70bb7d376a4049b3f2e8358f6430b00678069097d260d6e75b",
        "91a6862c5e49e65ddb4ac7c6f535bed663c71b2e402132cc9fd3a5c3cb28917b",
        "1ff5916ec46dd9d6cebd255fb38c93aa78242b2bff7ca60ffcacbf8ebb2df5c6",
    ),
    "lossy_landing_100hz": (
        lossy_landing_100hz,
        "62ceb7056fa76fddf1b2947a44400030f6be499e99c8e0a665c2a8a6c1345b74",
        "fdc241ef3f78a53265e381914b621d17e28e651708ce9248c0938018302b632a",
        "820f0801643e57cac374393f36aeae94264d1ab3ae459486891584d1106c621f",
    ),
    "noisy_grid_12pairs": (
        lambda: grid_scenario(12, seed=1, duration=0.5, localization_noise=0.02),
        "5867d6f0012ff4d0308d1872219da237ec6a7ebd5d408594bb4065feb5dbc5b0",
        "a0ef26012ab8851020cb52fb062223be9685755a7549120192107a0f14dd3ffe",
        "17021b5d7ddfb2e3068476be7ac54463b72d1420c1b3bbab00f75ba6b38673c8",
    ),
    "clustered_6s": (
        lambda: clustered_scenario(duration=6.0),
        "4614dcede096b64dc6b05605902010237e6011f8e3f44f531f245401f177f0f0",
        "a9f2dc37b63e993e45a37e4f9146ac04cb456e377bd88328a9dac7c089e3ae07",
        None,
    ),
    "clustered_raised_platform": (
        lambda: clustered_scenario(duration=3.0, platform_height=0.1),
        "2af39f47d2e3f39d969f8f5821fff82cc8e3aee5bdfb6b6b804a83dc0b4ce2b2",
        "42a076a3173533d44776b1e193405edf18b21c35fa78f28a4a1f34ceceaabcba",
        "18c9abae0d529d6015f3fff24f75bbb1a230f02260b946ab2e3a90257f504947",
    ),
    "drop_only_crossing_5s": (
        drop_only_crossing,
        "02c87984bbbb48391b9252dfa6780d1ff6f35675379fbc632326ae0d0c4596bc",
        "9e02305374f3f7ed9f96d369a6300d6bb836bb59819926f9afe9f0d29af60f2f",
        "ebd8c60de97e9df062ba4c73a72c264d3d430d46ee9e5189c3f4728eefeea218",
    ),
    "jitter_only_crossing_5s": (
        jitter_only_crossing,
        "ce06cf9a09c0af27268d9e573a66f24c4cb612408679209f59d4f57e852b769a",
        "eedc88442c82cc89a425a4ffbc185c8322cad7b005c68dbed7eee6e1ff7f9677",
        "1cf8960a57e5f6b0679d645d54333c792246210a0f798c3409e7cc9a1caf154e",
    ),
    "overtaking_crossing_5s": (
        overtaking_crossing,
        "c6bf8c0b2c85e637d422abc0a937f77644e99f96c1830fae13042ad74a438729",
        "a38a2002d9418affdac3c40ee4b90a8a6825f20f6fc5bfcdb9991bf8853275bc",
        "25b5f60f12e3fcbe316f5bee38d8588580022fc4f3d73749266c6138d78b68e7",
    ),
}


# name -> metrics.json
METRICS = {
    "clustered_6s": "e79f60895755fefbb3caf5211a5833c507cabdc1901a557009427808413a07f1",
    "clustered_raised_platform": "dfbd9f9e9b1a0374eac5a672e6614eb7eb47f614bff4050c5e3e3abcc5f33b80",
    "crossing_three_5s": "d591e85b90477321202074a3397f04b9c80939d8501f5743998d45635a59be11",
    "drop_only_crossing_5s": "67656adb69dfc693fca6f2856ab6745e39c24c6098ba2321c2086cf4a9642c39",
    "grid_16pairs": "d0f8ab609d3c5ad95384b14c68baf6e053d1997ab32601d8d127097e1da14eb9",
    "jitter_only_crossing_5s": "2ec63dab9b0981734e862e434ac1453d0b7482f88d1f55e9e624ab2b3166dc18",
    "landing_2pairs": "4a9c8251a2e771d3bb5a79c8f80b8efc21fe3525ab310e8a029231003c0025b2",
    "lossy_crossing_100hz_5s": "cbf9c7e1f7228e31891a04a01ade09c632ac7af351fb9c33be8b52c5444ecf08",
    "lossy_landing_100hz": "8f648592b4d3c609159e875215d579931085a3c6df405e83461daea00a305001",
    "noisy_crossing_5s": "eb3b97a3e9f533ca8f0cac8466a084e5d3487ff7734a73c9a3314efe9d2fcbe9",
    "noisy_grid_12pairs": "515952eefd579e4360b5451581ab450a816f4157296176f670ab998f5a5e8964",
    "overtaking_crossing_5s": "98b50ee4ca40968d8d46b57bad62a0e4ecc6d7a9dcb9f37b4ef63b565519a7fd",
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
            assert f.read().count("send t=") == 2 * 2 * 201  # one update per agent per tick
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
        assert result.touchdown_times == {0: 5.7, 1: 6.1000000000000005}
    if name == "lossy_crossing_100hz_5s":  # and holds between reused ticks
        with open(result.trajectory_path) as f:
            statuses = [line.split(",")[10] for line in f.read().splitlines()[1:]]
        assert "hold" in statuses and "optimal" in statuses
    if name == "drop_only_crossing_5s":  # drops, and no jitter
        assert all(s.dropped > 0 for s in result.link_stats.values())
    if name == "jitter_only_crossing_5s":  # every message kept
        assert all(s.dropped == 0 for s in result.link_stats.values())
    if name == "overtaking_crossing_5s":  # stale stamps and same-instant repeats
        assert overtaken_deliveries(result.trace_path) == (91, 32)
    assert sha256(result.trajectory_path) == trajectory
    assert sha256(result.watcher_path) == watcher
    if trace is not None:
        assert sha256(result.trace_path) == trace
    assert sha256(str(tmp_path / "metrics.json")) == METRICS[name]
    assert summarize_dir(str(tmp_path)).to_json() == result.metrics.to_json()


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
