"""Cold end-to-end benchmark of the reproduction, with a traced layer run.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload scale-sweep --seed 0 --trace 1
    python3 perfbench/run.py --self-test

Every measurement is a fresh interpreter (``perfbench/child.py``) that
imports what the matching ``repro`` command imports, calls the same
public functions, and checks their outputs.  ``--trace 0`` starts such
processes until ``--seconds`` have passed (at least three), times a
fixed calibration loop between them, and reports the median of each
end-to-end metric with times scaled to the loop's reference speed.  ``--trace 1`` runs one process
with span wrappers only and two under ``cProfile`` and reports the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
carry provenance, per-process figures and the simulated-statistics
fingerprint.  See ``perfbench/README.md``.
"""

import argparse
import compileall
import hashlib
import heapq
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from child import IMPORTS, OPERATIONS
from layers import END_TO_END, LAYERS, PER_LAYER, layer_map_gaps, parse_importtime

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
CHILD = BENCH_DIR / "child.py"

#: Seed used while tuning the benchmark, and one kept out of tuning.
TUNING_SEED = 0
HELD_OUT_SEED = 1000
#: Fewest measured processes in an untraced run, however short --seconds.
MIN_PROCESSES = 3
#: Everything, processes included, ends this many seconds after start.
DEADLINE_S = 170.0
#: Calibration loop time (s) on a quiet 2.1 GHz Xeon vCPU; times are
#: reported scaled to it (see calibrate()).
REFERENCE_CALIBRATION_S = 0.15
#: Share of an untraced run spent timing the calibration loop, spread
#: between the measured processes.
CALIBRATION_SHARE = 0.15
#: Largest tolerated gap between the summed layer self times and the
#: traced work time, as a share of the latter (profiler bookkeeping).
ACCOUNTING_TOLERANCE = 0.10


def self_test() -> list:
    """Problems that make a run meaningless; empty when all is well."""
    if not (SRC / "repro").is_dir():
        return [f"no source tree at {SRC / 'repro'}; run from a checkout "
                f"of the repository"]
    problems = [f"src/repro/{entry} is missing from layers.LAYER_MAP"
                for entry in layer_map_gaps(str(SRC / "repro"))]
    try:
        declared = json.loads(BENCHMARK_JSON.read_text())
    except (OSError, ValueError) as error:
        return problems + [f"cannot read {BENCHMARK_JSON.name}: {error}"]
    for key, printed in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {entry["name"]: entry["unit"] for entry in declared[key]}
        if listed != printed:
            problems.append(f"{key} in {BENCHMARK_JSON.name} {sorted(listed.items())} "
                            f"differs from the printed {sorted(printed.items())}")
    workloads = {entry["name"] for entry in declared["workloads"]}
    if workloads != set(IMPORTS):
        problems.append(f"workloads {sorted(workloads)} differ from "
                        f"{sorted(IMPORTS)}")
    return problems


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance(args) -> dict:
    try:
        from importlib.metadata import version
        numpy_version = version("numpy")
    except Exception:  # noqa: BLE001 - absent or unreadable metadata
        numpy_version = None
    declared = json.loads(BENCHMARK_JSON.read_text())["run_seconds"]
    role = {TUNING_SEED: "tuning", HELD_OUT_SEED: "held-out"}
    return {
        "workload": args.workload, "seed": args.seed,
        "seed_role": role.get(args.seed, "other"),
        "tuning_seed": TUNING_SEED, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "declared_seconds": declared,
        "reduced": args.seconds < declared, "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy_version,
        "platform": platform.platform(), "commit": _commit(),
        "src_digest": _source_digest(),
    }


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop that exercises what the
    workloads spend their time on: a BFS over integer codes with a dict
    as the visited set, and a heap-driven event loop calling methods on
    small slotted objects.  It calls no program code, so a change to the
    program cannot move it; only the speed of the host can.

    Other tenants of a shared host slow every process for tens of
    seconds at a time, by as much as a half, which moves whole runs.
    Timed between the measured processes, the loop slows with them, and
    scaling a run's medians by its median loop time removes most of that
    movement.
    """
    started = time.perf_counter()
    parent = {1: None}
    frontier = [1]
    while frontier and len(parent) < 150_000:
        level = []
        for code in frontier:
            for step in (3, 7, 11):
                target = (code * step + 1) % 1_000_003
                if target not in parent:
                    parent[target] = code
                    level.append(target)
        frontier = level

    class Node:
        __slots__ = ("index", "fired")

        def __init__(self, index: int) -> None:
            self.index = index
            self.fired = 0

        def fire(self, now: float) -> float:
            self.fired += 1
            return now + 1.0 + self.index % 7

    nodes = [Node(index) for index in range(64)]
    queue = [(0.0, index) for index in range(64)]
    for _ in range(150_000):
        now, index = heapq.heappop(queue)
        heapq.heappush(queue, (nodes[index].fire(now), index))
    return time.perf_counter() - started


def _environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """One measured process; a process that fails is reported in the dict."""
    command = [sys.executable]
    if mode == "profile":
        command += ["-X", "importtime"]
    spawned = time.monotonic()
    command += [str(CHILD), "--workload", workload, "--seed", str(seed),
                "--spawn", repr(spawned), "--mode", mode]
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, env=_environment(),
                               cwd=str(ROOT))
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), process.kill)
    timer.start()
    try:
        output = process.stdout.read().decode(errors="replace")
        _, status, usage = os.wait4(process.pid, 0)
    except BaseException:
        process.kill()
        process.wait()
        raise
    finally:
        timer.cancel()
        process.stdout.close()
    ended = time.monotonic()
    process.returncode = os.waitstatus_to_exitcode(status)
    lines = output.splitlines()
    outcome = {"mode": mode, "wall_s": ended - spawned,
               "cpu_s": usage.ru_utime + usage.ru_stime,
               "peak_rss_mb": usage.ru_maxrss / 1024.0,
               "exit": process.returncode, "lines": lines, "report": None}
    if process.returncode == 0 and lines:
        try:
            outcome["report"] = json.loads(lines[-1])
        except ValueError:
            pass
    return outcome


def _failures(workload: str, outcome: dict) -> list:
    report = outcome["report"]
    if report is None:
        tail = " | ".join(outcome["lines"][-3:])
        return [f"process exited {outcome['exit']} without a report: {tail}"
                ] * OPERATIONS[workload]
    return report["failures"]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def untraced(args, deadline: float, emit) -> tuple:
    started = time.monotonic()
    outcomes = []
    calibrations = []

    def calibrate_share() -> None:
        while (not calibrations or sum(calibrations)
               < CALIBRATION_SHARE * (time.monotonic() - started)):
            calibrations.append(calibrate())

    while (len(outcomes) < MIN_PROCESSES
           or time.monotonic() - started < args.seconds):
        if time.monotonic() >= deadline - 1.0:
            break
        calibrate_share()
        outcomes.append(spawn(args.workload, args.seed, "plain", deadline))
        last = outcomes[-1]
        emit(f"process {len(outcomes)}: wall {last['wall_s']:.4f} s, "
             f"cpu {last['cpu_s']:.4f} s, rss {last['peak_rss_mb']:.1f} MB"
             + ("" if last["report"] is None else
                f", setup {last['report']['setup_s']:.4f} s, "
                f"work {last['report']['work_s']:.4f} s"))
    calibrate_share()
    reports = [outcome["report"] for outcome in outcomes if outcome["report"]]
    samples = {
        "wall_s": [outcome["wall_s"] for outcome in outcomes],
        "setup_s": [report["setup_s"] for report in reports],
        "work_s": [report["work_s"] for report in reports],
        "cpu_s": [outcome["cpu_s"] for outcome in outcomes],
        "peak_rss_mb": [outcome["peak_rss_mb"] for outcome in outcomes],
    }
    scale = REFERENCE_CALIBRATION_S / statistics.median(calibrations)
    emit(f"calibration: median {statistics.median(calibrations):.4f} s over "
         f"{len(calibrations)} loops (min {min(calibrations):.4f}, max "
         f"{max(calibrations):.4f}); times below are scaled by {scale:.4f}")
    metrics = {}
    for name, values in samples.items():
        factor = scale if END_TO_END[name] == "s" else 1.0
        metrics[name] = _median(values) * factor
        emit(f"{name}: {metrics[name]:.4f}{' scaled' * (factor != 1.0)}, raw median "
             f"{_median(values):.4f} over {len(values)} processes "
             f"(min {min(values, default=0):.4f}, "
             f"max {max(values, default=0):.4f})")
    return outcomes, metrics, []


def traced(args, deadline: float, emit) -> tuple:
    outcomes = [spawn(args.workload, args.seed, mode, deadline)
                for mode in ("spans", "profile", "profile")]
    problems = []
    spans, profiled = outcomes[0]["report"], [o["report"] for o in outcomes[1:]]
    if spans is None or None in profiled:
        return outcomes, {name: 0.0 for name in PER_LAYER}, [
            "a traced process produced no report"]

    counts = [report["counts"] for report in profiled]
    wrapped = {name: counts[0].get(name) for name in spans["counts"]}
    if counts[0] != counts[1] or wrapped != spans["counts"]:
        problems.append(f"counts differ between traced runs: "
                        f"{[spans['counts']] + counts}")
    for report in profiled:
        accounted = sum(report["self_s"].values())
        emit(f"traced work {report['work_s']:.4f} s, layer self times sum "
             f"to {accounted:.4f} s")
        if abs(accounted / report["work_s"] - 1.0) > ACCOUNTING_TOLERANCE:
            problems.append(f"layer self times {accounted:.4f} s do not add "
                            f"up to traced work {report['work_s']:.4f} s")

    count = counts[0]
    slots = count.get("sim.slots", 0)
    check_s = spans["spans"].get("modelcheck.check", {}).get("total_s", 0.0)
    imports = [parse_importtime(outcome["lines"]) for outcome in outcomes[1:]]
    metrics = {f"{layer}.self_s": statistics.mean(
        report["self_s"][layer] for report in profiled) for layer in LAYERS}
    for name in PER_LAYER:
        if name in count:
            metrics[name] = count[name]
    metrics.update({
        "sim.events_per_slot": count.get("sim.events_fired", 0) / slots
        if slots else 0.0,
        "ttp.judgments_per_slot": count.get("ttp.slot_judgments", 0) / slots
        if slots else 0.0,
        "gen.materialize_s": spans["spans"].get(
            "gen.materialize", {}).get("total_s", 0.0),
        "modelcheck.states_per_s": spans["counts"].get(
            "modelcheck.states", 0) / check_s if check_s else 0.0,
        "modelcheck.trace_s": statistics.mean(
            report["trace_s"] for report in profiled),
        "trace.overhead_ratio": statistics.mean(
            report["work_s"] for report in profiled) / spans["work_s"],
    })
    for key in ("setup.import_repro_s", "setup.import_numpy_s"):
        metrics[key] = statistics.mean(entry[key] for entry in imports)
    emit(f"simulated slots: {slots}; spans: "
         + json.dumps(spans["spans"], sort_keys=True))
    return outcomes, {name: metrics.get(name, 0) for name in PER_LAYER}, problems


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(IMPORTS))
    parser.add_argument("--seed", type=int, default=TUNING_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of an untraced run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the layer map and metric names, then exit")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    problems = self_test()
    if problems or args.self_test:
        for problem in problems:
            print(f"self-test: {problem}", file=sys.stderr)
        if not problems:
            print("self-test ok")
        return 2 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = json.loads(BENCHMARK_JSON.read_text())["run_seconds"]

    def emit(line: str) -> None:
        print(line, flush=True)

    emit("provenance: " + json.dumps(provenance(args), sort_keys=True))
    compileall.compile_dir(str(SRC), quiet=2)
    subprocess.run([sys.executable, "-c", "; ".join(
        f"import {module}" for module in IMPORTS[args.workload])],
        env=_environment(), cwd=str(ROOT), check=False,
        stdout=subprocess.DEVNULL, timeout=60)

    run = traced if args.trace else untraced
    outcomes, metrics, problems = run(args, deadline, emit)
    failures = [failure for outcome in outcomes
                for failure in _failures(args.workload, outcome)]
    attempted = sum(outcome["report"]["attempted"] if outcome["report"]
                    else OPERATIONS[args.workload] for outcome in outcomes)
    fingerprints = sorted({outcome["report"]["fingerprint"]
                           for outcome in outcomes if outcome["report"]})
    if len(fingerprints) > 1:
        problems.append(f"simulated statistics differ between processes: "
                        f"{fingerprints}")
    reports = [outcome["report"] for outcome in outcomes if outcome["report"]]
    for note in reports[0]["notes"] if reports else []:
        emit(f"simulated: {note}")
    emit(f"fingerprint: {fingerprints[0] if len(fingerprints) == 1 else None}")
    for line in failures + problems:
        emit(f"FAILED: {line}")
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not failures and not problems and bool(outcomes),
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
