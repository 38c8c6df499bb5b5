"""One cold benchmark process: import, run one workload, check, report.

Started by ``run.py`` as a fresh interpreter so that imports and lazy
table builds are paid as a user of ``repro verify``/``sweep``/``campaign``
pays them.  The last line of standard output is one JSON object.

    python3 perfbench/child.py --workload verify --seed 0 \\
        --spawn <time.monotonic() of the parent at spawn> --mode plain

``--mode`` is ``plain`` (nothing installed), ``spans`` (the wrappers of
:mod:`probes`) or ``profile`` (wrappers plus ``cProfile`` over the work).
"""

import argparse
import hashlib
import json
import time
from importlib import import_module

#: Modules a user of the matching ``repro`` CLI command imports.
IMPORTS = {
    "verify": ("repro.cli", "repro.core.verification"),
    "scale-sweep": ("repro.cli", "repro.gen"),
    "fault-campaign": ("repro.cli", "repro.faults.campaign"),
}

#: Operations one process attempts: checker runs, sweep cells, campaign
#: cells and presets.
OPERATIONS = {"verify": 5, "scale-sweep": 3, "fault-campaign": 11}

#: EXP-V1 state counts at the paper's four slots (packed/tuple engines).
VERIFY_STATES_SLOTS4 = {"passive": 14772, "time_windows": 14772,
                        "small_shifting": 14772, "full_shifting": 20806}
VERIFY_CEX_SLOTS4 = 13
#: The violating full_shifting configuration at five slots.
VERIFY_SLOTS5 = {"states": 350635, "transitions": 922274, "depth": 15}

SWEEP_SIZES = (16, 32, 64)
SWEEP_ROUNDS = 40.0
#: Paper eq. (5) crystals and spread power-on, so per-node ticks differ.
SWEEP_PPM = 100.0
SWEEP_POWER_ON = 500.0

CAMPAIGN_ROUNDS = 200.0
#: EXP-S2: faults the bus lets through; the star contains all four.
BUS_PROPAGATES = {"sos_signal", "masquerade_cold_start", "invalid_c_state"}


class Operations:
    """Counts operations and their failed output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list = []
        self.digest: dict = {}
        self.notes: list = []

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}" if detail else label)

    def raised(self, labels, error: BaseException) -> None:
        for label in labels:
            self.attempted += 1
            self.failures.append(f"{label}: raised {error!r}")


def _trace_digest(trace) -> list:
    if trace is None:
        return []
    return [[repr(step.state), sorted((str(k), repr(v))
                                      for k, v in step.label.items())]
            for step in trace]


def _check_summary(result) -> dict:
    check = result.check
    return {"holds": result.property_holds, "states": check.states_explored,
            "transitions": check.transitions_explored,
            "depth": check.depth_reached,
            "counterexample": _trace_digest(result.counterexample)}


def run_verify(ops: Operations, call, _seed: int) -> None:
    from repro.core.authority import CouplerAuthority
    from repro.core.verification import (expected_verdicts,
                                         verify_all_authorities,
                                         verify_authority)

    labels = [f"slots4/{name}" for name in VERIFY_STATES_SLOTS4]
    try:
        matrix = call("verify_all_authorities", verify_all_authorities,
                      slots=4)
    except Exception as error:  # noqa: BLE001 - counted, not fatal
        ops.raised(labels, error)
    else:
        expected = expected_verdicts()
        for authority, result in matrix.items():
            name = authority.value
            summary = _check_summary(result)
            ops.digest[f"slots4/{name}"] = summary
            cex = len(result.counterexample or ())
            want_cex = 0 if expected[authority] else VERIFY_CEX_SLOTS4
            ops.check(f"slots4/{name}",
                      result.property_holds == expected[authority]
                      and summary["states"] == VERIFY_STATES_SLOTS4[name]
                      and cex == want_cex,
                      f"holds={result.property_holds} "
                      f"states={summary['states']} counterexample={cex}")
    try:
        result = call("verify_authority", verify_authority,
                      CouplerAuthority.FULL_SHIFTING, slots=5)
    except Exception as error:  # noqa: BLE001
        ops.raised(["slots5/full_shifting"], error)
        return
    summary = _check_summary(result)
    ops.digest["slots5/full_shifting"] = summary
    got = {key: summary[key] for key in VERIFY_SLOTS5}
    ops.check("slots5/full_shifting",
              not result.property_holds and got == VERIFY_SLOTS5
              and len(result.counterexample or ()) == VERIFY_SLOTS5["depth"],
              f"holds={result.property_holds} {got}")


def run_scale_sweep(ops: Operations, call, seed: int) -> None:
    from repro.gen import GenConfig, run_sweep
    from repro.gen.config import Dist

    config = GenConfig(ppm=Dist.uniform(-SWEEP_PPM, SWEEP_PPM),
                       power_on_delay=Dist.uniform(0.0, SWEEP_POWER_ON),
                       seed=seed)
    try:
        report = call("run_sweep", run_sweep, config,
                      sizes=list(SWEEP_SIZES), rounds=SWEEP_ROUNDS)
    except Exception as error:  # noqa: BLE001
        ops.raised([f"cell/{size}" for size in SWEEP_SIZES], error)
        return
    ops.digest["report"] = report
    cells = {cell["size"]: cell for cell in report["cells"]}
    for size in SWEEP_SIZES:
        cell = cells.get(size)
        if cell is None:
            ops.check(f"cell/{size}", False, "missing from the report")
            continue
        integrated = cell["integrated"]
        consistent = (cell["completed"] == (integrated == size)
                      and (cell["startup_rounds"] is None)
                      == (not cell["completed"])
                      and not cell["faulty"] and cell["typed_events"] > 0)
        # A synchronized cluster must form.  Nodes left out of it are the
        # known +/-100 ppm defect (as many as 7 of 16 on some seeds): they
        # are recorded below and in the fingerprint, not failed, so the
        # fail ratio does not depend on the seed a run is given.
        ops.check(f"cell/{size}", consistent and integrated >= 2,
                  f"integrated={integrated}/{size} cell={cell}")
        ops.notes.append(f"N={size}: {integrated}/{size} integrated, "
                         f"{len(cell['victims'])} grid victims")


def run_fault_campaign(ops: Operations, call, seed: int) -> None:
    from repro.faults.campaign import (ADVERSARIAL_PRESETS,
                                       run_adversarial_preset, run_campaign)

    labels = [f"{fault}/{topology}"
              for fault in sorted(BUS_PROPAGATES | {"babbling_idiot"})
              for topology in ("bus", "star")]
    try:
        campaign = call("run_campaign", run_campaign,
                        rounds=CAMPAIGN_ROUNDS, seed=seed)
    except Exception as error:  # noqa: BLE001
        ops.raised(labels, error)
    else:
        for outcome in campaign.outcomes:
            fault = outcome.fault.fault_type.value
            label = f"{fault}/{outcome.topology}"
            ops.digest[label] = {"victims": outcome.victims,
                                 "integrated": outcome.integrated,
                                 "states": outcome.states}
            want = outcome.topology == "bus" and fault in BUS_PROPAGATES
            ops.check(label, outcome.propagated == want,
                      f"victims={outcome.victims}")
    for name in sorted(ADVERSARIAL_PRESETS):
        try:
            preset = call("run_adversarial_preset", run_adversarial_preset,
                          name, seed=seed, rounds=CAMPAIGN_ROUNDS)
        except Exception as error:  # noqa: BLE001
            ops.raised([name], error)
            continue
        ops.digest[name] = {"rows": [list(row) for row in preset.rows],
                            "verdicts": preset.verdicts}
        ops.check(name, preset.holds,
                  str(sorted(key for key, met in preset.verdicts.items()
                             if not met)))


WORKLOADS = {"verify": run_verify, "scale-sweep": run_scale_sweep,
             "fault-campaign": run_fault_campaign}


def _arguments() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawn", type=float, required=True,
                        help="time.monotonic() of the parent at spawn")
    parser.add_argument("--mode", default="plain",
                        choices=("plain", "spans", "profile"))
    return parser.parse_args()


def main() -> None:
    args = _arguments()
    for module in IMPORTS[args.workload]:
        import_module(module)
    imports_done = time.monotonic()

    ops = Operations()
    probes = None
    profiler = None
    if args.mode != "plain":
        from probes import Probes

        probes = Probes()
        probes.install()
        call = probes.span
    else:
        def call(_name, function, *call_args, **call_kwargs):
            return function(*call_args, **call_kwargs)
    if args.mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    started = time.perf_counter()
    WORKLOADS[args.workload](ops, call, args.seed)
    work_s = time.perf_counter() - started
    if profiler is not None:
        profiler.disable()

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": imports_done - args.spawn,
        "work_s": work_s,
        "attempted": ops.attempted,
        "failures": ops.failures,
        "notes": ops.notes,
        "fingerprint": hashlib.sha256(json.dumps(
            ops.digest, sort_keys=True, default=repr).encode()).hexdigest(),
    }
    if probes is not None:
        report["counts"] = dict(probes.counts)
        report["spans"] = probes.totals()
    if profiler is not None:
        from layers import attribute, profile_counts, trace_rebuild_seconds

        profiler.create_stats()
        report["self_s"] = attribute(profiler.stats)
        report["counts"].update(profile_counts(profiler.stats))
        report["trace_s"] = trace_rebuild_seconds(profiler.stats)
    print(json.dumps(report, sort_keys=True))


if __name__ == "__main__":
    main()
