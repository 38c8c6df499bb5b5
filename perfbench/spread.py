"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload verify --seeds 0-9
    python3 perfbench/spread.py --workload verify --seeds 0-9 --out a.json
    python3 perfbench/spread.py --workload verify --seeds 0-9 --against a.json

Runs ``run.py`` once per seed, then prints for every end-to-end metric the
median of the per-run values and their quartile distance as a share of
the median, next to the metric's bound in ``BENCHMARK.json`` (a spread
should stay below a third of it).  ``--out`` records the runs with their
provenance and refuses to do so for a reduced run (``--seconds`` below
the declared ``run_seconds``), so committed numbers are never taken from
a shortened run.  ``--against`` compares with such a record: every median
within its bound and every seed's simulated-statistics fingerprint equal.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
               workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, capture_output=True, text=True,
                          cwd=str(ROOT), timeout=200)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
    record = {"seed": seed, "result": json.loads(lines[-1])}
    for line in lines:
        key, _, value = line.partition(": ")
        if key == "provenance":
            record["provenance"] = json.loads(value)
        elif key == "fingerprint":
            record["fingerprint"] = value
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--against", default=None)
    args = parser.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {entry["name"]: entry["bound"] for entry in declared["end_to_end"]}
    if (args.out and args.seconds is not None
            and args.seconds < declared["run_seconds"]):
        raise SystemExit(f"refusing to record a reduced run: --seconds "
                         f"{args.seconds} < run_seconds "
                         f"{declared['run_seconds']}")

    runs = []
    for seed in _seeds(args.seeds):
        runs.append(run_once(args.workload, seed, args.seconds))
        result = runs[-1]["result"]
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{name}={entry['value']:.4f}"
                         for name, entry in result["metrics"].items()),
              flush=True)

    summary = {}
    ok = all(run["result"]["correct"] for run in runs)
    for name, bound in bounds.items():
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        low, _, high = statistics.quantiles(values, n=4)
        spread = (high - low) / median
        summary[name] = {"median": median, "spread": spread, "bound": bound}
        flag = "ok" if spread < bound / 3 else "WIDE"
        if name == "setup_s":
            flag += " (exempt)"
        print(f"{name}: median {median:.4f}, quartile spread {spread:.4f} "
              f"of median, bound {bound} -> {flag}")

    if args.against:
        before = json.loads(Path(args.against).read_text())
        for name, entry in summary.items():
            worse = entry["median"] / before["summary"][name]["median"] - 1.0
            verdict = "ok" if worse <= entry["bound"] else "WORSE"
            ok = ok and verdict == "ok"
            print(f"{name}: median moved {worse:+.4f} vs record -> {verdict}")
        previous = {run["seed"]: run.get("fingerprint")
                    for run in before["runs"]}
        for run in runs:
            if run["seed"] in previous and previous[run["seed"]] != run.get(
                    "fingerprint"):
                ok = False
                print(f"seed {run['seed']}: fingerprint differs from record")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "summary": summary, "runs": runs},
            indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
