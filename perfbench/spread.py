"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload cold_churn --seeds 1-10

Prints, per metric, the median, the quartiles and the spread (quartile
distance over the median) next to the bound ``BENCHMARK.json`` fixes,
flagging any spread above a third of its bound.  Runs are sequential;
a run that fails or reports ``correct: false`` stops the script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from tally import spread

ROOT = Path(__file__).resolve().parents[1]


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in
              spec["end_to_end"] + spec["per_layer"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=300)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: correct=false, failed={result['failed']}")
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in
            result["metrics"].items()), flush=True)
    print(f"\n{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, series in values.items():
        q1, _, q3 = statistics.quantiles(series, n=4)
        value = spread(series)
        bound = bounds.get(name)
        flag = " <-- over bound/3" if bound and value > bound / 3 else ""
        print(f"{name:34} {statistics.median(series):12.5g} {q1:12.5g} "
              f"{q3:12.5g} {value:8.3f} {bound if bound else '':>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
