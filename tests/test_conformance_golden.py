"""Differential golden traces: the refactored hot path is bit-exact.

The engine rebuild (indexed calendar queue, compiled MEDL dispatch tables,
single channel-state process) is a pure performance refactor -- the typed
event stream it produces must be byte-identical to the stream the
pre-refactor stack produced.  Both paper conformance scenarios were
captured as JSONL golden fixtures before the refactor; here each scenario
is replayed on both event-queue implementations and the exported stream is
compared byte-for-byte against the fixture.
"""

import filecmp
from pathlib import Path

import pytest

from repro.conformance import SCENARIOS

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

#: (scenario name, golden fixture) -- captured from the pre-refactor stack.
GOLDEN_TRACES = [
    ("trace1", GOLDEN_DIR / "trace1_events.jsonl"),
    ("trace2", GOLDEN_DIR / "trace2_events.jsonl"),
]


@pytest.mark.parametrize("event_queue", ["calendar", "heap"])
@pytest.mark.parametrize("name,golden", GOLDEN_TRACES,
                         ids=[name for name, _ in GOLDEN_TRACES])
def test_conformance_trace_is_byte_identical(name, golden, event_queue,
                                             tmp_path):
    cluster = SCENARIOS[name].run(event_queue=event_queue)
    exported = tmp_path / f"{name}_{event_queue}.jsonl"
    cluster.monitor.export_jsonl(str(exported))
    assert filecmp.cmp(str(exported), str(golden), shallow=False), (
        f"{name} event stream on the {event_queue!r} queue diverged from "
        f"the pre-refactor golden fixture {golden.name}")


def test_golden_fixtures_are_nonempty():
    for _, golden in GOLDEN_TRACES:
        lines = golden.read_text().splitlines()
        assert len(lines) > 100
        assert all(line.startswith("{") for line in lines)


# -- generated and adversarial goldens -----------------------------------------
#
# The paper traces run four nodes on one shared grid.  These two runs cover
# what they do not: drifting grids at N > 4 (every node on its own crystal)
# and mid-slot interference from collision attackers.  Each is pinned by the
# SHA-256 and line count of its exported JSONL, captured before the
# receive-log refactor of the slot judge.

#: (run, SHA-256 of the exported JSONL, line count).
GENERATED_GOLDENS = [
    ("star16_drift", "55cb39f0e09c9e61d31fcab0656380a3ef3f06ccba9e2d392af5977ecf047086",
     3735),
    ("adversarial_collision",
     "c1be1699ad8a29dc68725efcdc1ff4996108cf30b3aa2838c236896c43d3aa1f", 469),
    ("adversarial_collision_full",
     "648ac469795bf26ba253740113d14be8a075e0e85c23c87b3e62beb38bc98fab", 4624),
]


def _export_star16_drift(event_queue, path):
    """16-node star, +/-100 ppm crystals, 40 rounds: the full event stream."""
    from repro.cluster import Cluster
    from repro.gen import Dist, GenConfig, materialize

    spec = materialize(GenConfig(nodes=16, ppm=Dist.uniform(-100, 100),
                                 power_on_delay=Dist.uniform(0, 500), seed=0))
    spec.event_queue = event_queue
    cluster = Cluster(spec)
    cluster.power_on()
    cluster.run(rounds=40)
    cluster.monitor.export_jsonl(str(path))


def _export_collision_preset(event_queue, path, monkeypatch, full=False):
    """The ``adversarial-collision`` preset at seed 0, as ``--jsonl`` writes
    it; ``full`` keeps every event kind instead of the adversarial slice."""
    import repro.cluster
    from repro.faults import campaign
    from repro.sim.engine import Simulator

    # The preset builds its clusters internally; route them to the queue.
    monkeypatch.setattr(
        repro.cluster, "Simulator",
        lambda queue, grid: Simulator(queue=event_queue, grid=grid))
    if full:
        monkeypatch.setattr(campaign, "_export_slice",
                            lambda cluster: list(cluster.monitor))
    campaign.run_adversarial_preset("adversarial-collision",
                                    seed=0).export_jsonl(str(path))


@pytest.mark.parametrize("event_queue", ["calendar", "heap"])
@pytest.mark.parametrize("run,sha256,lines", GENERATED_GOLDENS,
                         ids=[run for run, _, _ in GENERATED_GOLDENS])
def test_generated_run_matches_golden_digest(run, sha256, lines, event_queue,
                                             tmp_path, monkeypatch):
    import hashlib

    exported = tmp_path / f"{run}_{event_queue}.jsonl"
    if run == "star16_drift":
        _export_star16_drift(event_queue, exported)
    else:
        _export_collision_preset(event_queue, exported, monkeypatch,
                                 full=run.endswith("_full"))
    data = exported.read_bytes()
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == sha256, (
        f"{run} event stream on the {event_queue!r} queue diverged from "
        f"its golden digest")
