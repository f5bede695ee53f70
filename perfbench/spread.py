"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload enumerate --seeds 1 2 3 4 5 --seconds 35

Runs run.py once per seed, one run at a time, and prints per metric (gated
or reported only) the median, the quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) as a share of the median, and the sample count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import CHILD_TIMEOUT_S, HERE, OUT, WORKLOAD_NAMES


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "runs": len(values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=35)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    samples: dict[str, list[int]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            return 1
        record = json.loads((OUT / f"result-{args.workload}-seed{seed}-trace0.json").read_text())
        metrics = {**record["metrics"], **record["reported"]}
        line = {k: round(m["value"], 4) for k, m in metrics.items()}
        print(f"seed {seed}: {json.dumps(line)}", flush=True)
        for name, m in metrics.items():
            values.setdefault(name, []).append(m["value"])
            samples.setdefault(name, []).append(m["n"])

    table = {name: dict(summarize(v), samples=samples[name]) for name, v in values.items()}
    print(f"\n{args.workload}: {len(args.seeds)} runs of {args.seconds:g} s")
    print("| metric | median | q1 | q3 | spread | samples per run |")
    print("|---|---|---|---|---|---|")
    for name, row in table.items():
        print(
            f"| {name} | {row['median']:.6g} | {row['q1']:.6g} | {row['q3']:.6g} "
            f"| {row['spread']:.3f} | {min(row['samples'])}-{max(row['samples'])} |"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
