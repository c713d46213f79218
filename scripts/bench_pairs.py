#!/usr/bin/env python3
"""Alternating before/after pairs of the benchmark in BENCHMARK.json.

Builds the benchmark twice in a work directory, each copy with its own
target directory: the base revision (`git archive <rev>`, extracted once
per work directory, so pass a new --work after moving --rev) and the
working tree (tracked and untracked, non-ignored files, copied afresh on
every call). Nothing under perfbench/ in the repository is written, its
Cargo.lock included. Then, per workload, it runs N pairs on the same
seed, alternating which side goes first, and prints:

  * every run: pair, seed, side, correct flag, attempted/failed counts
    and, without --trace, its end-to-end metrics;
  * per metric: each side's median and quartiles, the change's relative
    move of the median, in how many pairs the change was better, and the
    median and quartiles of the per-pair ratio change/base. Both runs of
    a pair share a seed and run back to back, so the ratio shows an
    effect even when the host's speed drifts across the round by more
    than the effect.

An end-to-end metric is marked "unresolved" where the base side's
IQR/median exceeds the metric's bound in BENCHMARK.json; otherwise it
reads "better" or "worse" when the medians differ by more than the base
side's IQR, and "flat" when they do not.

    python3 scripts/bench_pairs.py [--rev HEAD] [--pairs 10]
        [--workloads dense-ar,lm-ps] [--seed 1000] [--seconds 20]
        [--trace 0|1] [--work DIR]

Run from the repository root. With --trace 1 the per-layer metrics are
compared (they have no bounds). Builds take a few minutes each on a
2-vCPU host; a kept --work directory skips them on the next call.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

SIDES = ("base", "change")


def sh(cmd, cwd=None, **kw):
    return subprocess.run(cmd, cwd=cwd, check=True, **kw)


def checkout_base(rev, dest):
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", rev], stdout=subprocess.PIPE)
    sh(["tar", "-x", "-C", dest], stdin=archive.stdout)
    if archive.wait() != 0:
        sys.exit(f"bench_pairs: git archive {rev} failed")


def checkout_working_tree(dest):
    listed = sh(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                capture_output=True).stdout.decode().split("\0")
    for path in filter(None, listed):
        if not os.path.isfile(path):
            continue  # deleted in the working tree
        target = os.path.join(dest, path)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(path, target)


def build(root, target, command):
    """Builds the benchmark in `root` into `target` with the declared
    command's cargo flags."""
    manifest = command[command.index("--manifest-path") + 1]
    flags = [c for c in command[2:command.index("--")]
             if c.startswith("--") and c != "--manifest-path"]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    sh(["cargo", "build", *flags, "--manifest-path", manifest], cwd=root, env=env)


def run_one(root, target, command, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                         timeout=20 * seconds + 300)
    try:
        result = json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    if out.returncode != 0:
        result["correct"] = False
    return result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", default="HEAD", help="base revision (default HEAD)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default="", help="comma-separated (default: all)")
    ap.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", default="", help="work directory to keep (default: temporary)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    command = spec["command"]
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    bounds = {m["name"]: m.get("bound") for m in metrics}
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in spec["workloads"]])

    # Sources are copied afresh (the base one only once per work
    # directory); the target directories persist, so a kept --work
    # directory rebuilds only what changed.
    work = args.work or tempfile.mkdtemp(prefix="bench_pairs.")
    roots = {side: os.path.join(work, side) for side in SIDES}
    targets = {side: os.path.join(work, f"target-{side}") for side in SIDES}
    if not os.path.isdir(roots["base"]):
        checkout_base(args.rev, roots["base"])
    if os.path.isdir(roots["change"]):
        shutil.rmtree(roots["change"])
    checkout_working_tree(roots["change"])
    for side in SIDES:
        build(roots[side], targets[side], command)
    print(f"base {args.rev} vs working tree; {args.pairs} pairs of {seconds} s, "
          f"trace {args.trace}, seeds {args.seed}..{args.seed + args.pairs - 1}; work {work}")

    ok = True
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_one(roots[side], targets[side], command, workload, seed,
                                 seconds, args.trace)
                runs[side].append(result)
                ok &= bool(result["correct"])
                # End-to-end runs list their few metrics; traced runs
                # have dozens, summarized below.
                values = "" if args.trace else "".join(
                    f" {name} {m['value']:.5g}" for name, m in result["metrics"].items())
                print(f"{workload} pair {i + 1:2} seed {seed} {side:6} correct "
                      f"{str(result['correct']).lower():5} attempted {result['attempted']} "
                      f"failed {result['failed']}{values}", flush=True)
        for name in better:
            vals = {side: [r["metrics"].get(name, {}).get("value") for r in runs[side]]
                    for side in SIDES}
            if any(v is None for side in SIDES for v in vals[side]):
                continue
            if not any(vals["base"] + vals["change"]):
                continue  # a layer this workload does not run
            (bq1, bmed, bq3), (cq1, cmed, cq3) = (quartiles(vals[s]) for s in SIDES)
            sign = 1 if better[name] == "higher" else -1
            wins = sum(sign * (c - b) > 0 for b, c in zip(vals["base"], vals["change"]))
            move = (cmed - bmed) / bmed if bmed else float("nan")
            ratios = [c / b for b, c in zip(vals["base"], vals["change"]) if b]
            rq1, rmed, rq3 = quartiles(ratios) if ratios else (float("nan"),) * 3
            spread = (bq3 - bq1) / abs(bmed) if bmed else float("inf")
            bound = bounds[name]
            if bound is not None and spread > bound:
                verdict = "unresolved"
            elif abs(cmed - bmed) <= bq3 - bq1:
                verdict = "flat"
            else:
                verdict = "better" if sign * (cmed - bmed) > 0 else "worse"
            print(f"{workload:10} {name:24} base {bmed:12.5g} [{bq1:.5g}, {bq3:.5g}]  "
                  f"change {cmed:12.5g} [{cq1:.5g}, {cq3:.5g}]  {move:+7.1%}  "
                  f"change better {wins}/{args.pairs}  "
                  f"pair ratio {rmed:.3f} [{rq1:.3f}, {rq3:.3f}]  base iqr/med {spread:.3f}"
                  f"{'' if bound is None else f' (bound {bound})'}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
