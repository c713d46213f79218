#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each named workload and prints, per
metric, the median, the distance between the first and third quartile
as a share of the median, and whether that share is within a third of
the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --seeds 1-10 [--workloads lm-ps,dense-ar]
        [--seconds 10] [--binary .bench_build/release/perfbench]

Run from the repository root after building the benchmark with
`cargo build --release --offline --manifest-path perfbench/Cargo.toml`.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--binary", default=".bench_build/release/perfbench")
    ap.add_argument("--verbose", action="store_true", help="print every run's value")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in names:
        values = {}
        for seed in parse_seeds(args.seeds):
            cmd = [args.binary, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED\n{out.stderr}")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            steady = share < bound / 3
            ok &= steady or name == "setup_s"
            print(f"{workload:10} {name:14} median {med:12.4f}  spread {share:6.3f}"
                  f"  bound {bound:.2f}  {'ok' if steady else 'WIDE'}")
            if args.verbose:
                print("    " + " ".join(f"{v:.4g}" for v in vals))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
