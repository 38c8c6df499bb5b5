"""Layer map, metric names and traced-run attribution for the benchmark.

The benchmark attributes host time to the repository's own layers:

    sim        discrete-event engine (engine, process, clock, rng, resources)
    ttp        the TTP/C protocol controller and its state machines
    network    channels, topologies, star coupler, guardians
    obs        typed events and monitors, including sim/monitor.py
    faults     fault descriptors, injection, campaigns
    gen        large-N cluster generator and sweeps
    exec       the resilient task runner
    model      the Section 5 transition system
    modelcheck the explicit-state checker engines
    other      core, analysis, cluster.py, conformance.py, stdlib leftovers

Time comes from ``cProfile`` around the benchmark's public calls: every
function's self time is charged to the layer of the file that defines it,
and the self time of builtins and stdlib functions is split among their
direct callers' layers in proportion to the time each caller spent in
them.  Counts come from the profiler's exact call counts and from the
wrappers in :mod:`probes`, so they repeat exactly between runs of the
same code.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Tuple

#: End-to-end metrics (untraced runs) and their units.
END_TO_END: Dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "work_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs) and their units.
PER_LAYER: Dict[str, str] = {
    "sim.self_s": "s",
    "sim.events_fired": "count",
    "sim.events_per_slot": "count/slot",
    "ttp.self_s": "s",
    "ttp.slot_judgments": "count",
    "ttp.judgments_per_slot": "count/slot",
    "network.self_s": "s",
    "network.transmissions": "count",
    "network.deliveries": "count",
    "obs.self_s": "s",
    "obs.typed_events": "count",
    "obs.dispatches": "count",
    "faults.self_s": "s",
    "gen.self_s": "s",
    "gen.materialize_s": "s",
    "exec.self_s": "s",
    "exec.tasks": "count",
    "exec.retries": "count",
    "model.self_s": "s",
    "model.successor_calls": "count",
    "modelcheck.self_s": "s",
    "modelcheck.states": "count",
    "modelcheck.transitions": "count",
    "modelcheck.states_per_s": "1/s",
    "modelcheck.trace_s": "s",
    "setup.import_repro_s": "s",
    "setup.import_numpy_s": "s",
    "other.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Every entry of ``src/repro`` (package or top-level module) -> layer.
#: The self-test fails when the source tree has an entry this map lacks.
LAYER_MAP: Dict[str, str] = {
    "sim": "sim",
    "sim/monitor.py": "obs",
    "ttp": "ttp",
    "network": "network",
    "obs": "obs",
    "faults": "faults",
    "gen": "gen",
    "exec": "exec",
    "model": "model",
    "modelcheck": "modelcheck",
    "core": "other",
    "analysis": "other",
    "staticcheck": "other",
    "__init__.py": "other",
    "cli.py": "other",
    "cluster.py": "other",
    "conformance.py": "other",
    "py.typed": "other",
}

LAYERS = ("sim", "ttp", "network", "obs", "faults", "gen", "exec", "model",
          "modelcheck", "other")

#: Controller methods that judge one completed slot for one receiver.
JUDGE_FUNCTIONS = frozenset({"_judge_completed_slot", "_judge_observations"})

_MARKER = os.sep + "repro" + os.sep

Key = Tuple[str, int, str]


def layer_map_gaps(src_repro: str) -> List[str]:
    """Entries of the ``src/repro`` tree that :data:`LAYER_MAP` misses."""
    return sorted(entry for entry in os.listdir(src_repro)
                  if entry != "__pycache__" and entry not in LAYER_MAP)


def layer_of(filename: str) -> str:
    """Layer of a profiled function's file; ``""`` outside ``src/repro``."""
    position = filename.rfind(_MARKER)
    if position < 0 or not filename.endswith(".py"):
        return ""
    relative = filename[position + len(_MARKER):].replace(os.sep, "/")
    if relative in LAYER_MAP:
        return LAYER_MAP[relative]
    return LAYER_MAP.get(relative.split("/", 1)[0], "other")


def attribute(stats: Dict[Key, tuple]) -> Dict[str, float]:
    """Per-layer self seconds from ``cProfile.Profile().stats``.

    A stats entry is ``(primitive calls, calls, self time, cumulative
    time, callers)``; ``callers`` maps each caller to ``(calls, primitive
    calls, self time, cumulative time)`` of the calls from that caller.
    """
    self_s = {layer: 0.0 for layer in LAYERS}
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, callers) in stats.items():
        layer = layer_of(filename)
        if layer:
            self_s[layer] += tottime
            continue
        edge_time = sum(edge[2] for edge in callers.values())
        if edge_time <= 0.0:
            self_s["other"] += tottime
            continue
        for caller, edge in callers.items():
            share = tottime * edge[2] / edge_time
            self_s[layer_of(caller[0]) or "other"] += share
    return self_s


def _calls_between(stats: Dict[Key, tuple],
                   callee_ok, caller_ok) -> int:
    total = 0
    for key, entry in stats.items():
        if not callee_ok(key):
            continue
        for caller, edge in entry[4].items():
            if caller_ok(caller):
                total += edge[0]
    return total


def profile_counts(stats: Dict[Key, tuple]) -> Dict[str, int]:
    """Exact layer counts read off the profiler's call graph."""
    def in_layer(layer: str):
        return lambda key: layer_of(key[0]) == layer

    def named(layer: str, names: Iterable[str]):
        names = frozenset(names)
        return lambda key: key[2] in names and layer_of(key[0]) == layer

    def is_emit(key: Key) -> bool:
        return key[2] == "emit" and key[0].endswith(
            os.sep.join(("repro", "sim", "monitor.py")))

    def is_transmit(key: Key) -> bool:
        return key[2] == "transmit" and key[0].endswith(
            os.sep.join(("repro", "network", "channel.py")))

    def is_successors(key: Key) -> bool:
        return layer_of(key[0]) == "model" and (
            key[2].endswith("successors") or key[2].endswith("successors_batch"))

    def any_repro(key: Key) -> bool:
        return bool(layer_of(key[0]))

    def not_judge(key: Key) -> bool:
        return not named("ttp", JUDGE_FUNCTIONS)(key)

    return {
        "ttp.slot_judgments": _calls_between(
            stats, named("ttp", JUDGE_FUNCTIONS), not_judge),
        "network.transmissions": _calls_between(
            stats, is_transmit, lambda key: True),
        "network.deliveries": _calls_between(
            stats, in_layer("ttp"), in_layer("network")),
        "obs.typed_events": _calls_between(stats, is_emit, lambda key: True),
        "obs.dispatches": _calls_between(
            stats, lambda key: any_repro(key) and not is_emit(key), is_emit),
        "model.successor_calls": _calls_between(
            stats, is_successors, in_layer("modelcheck")),
    }


def trace_rebuild_seconds(stats: Dict[Key, tuple]) -> float:
    """Cumulative seconds in the checker's counterexample rebuilds."""
    return sum(entry[3] for key, entry in stats.items()
               if layer_of(key[0]) == "modelcheck"
               and key[2].startswith("_rebuild"))


def parse_importtime(lines: Iterable[str]) -> Dict[str, float]:
    """Import seconds of ``repro`` (top-level entries) and ``numpy`` from
    ``python -X importtime`` output; 0.0 for a package never imported."""
    repro_us = 0
    numpy_us = 0
    for line in lines:
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1])
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        module = name.strip()
        if depth == 0 and (module == "repro" or module.startswith("repro.")):
            repro_us += cumulative
        if module == "numpy":
            numpy_us = max(numpy_us, cumulative)
    return {"setup.import_repro_s": repro_us / 1e6,
            "setup.import_numpy_s": numpy_us / 1e6}
