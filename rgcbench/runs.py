#!/usr/bin/env python3
"""Collect, check and compare runs of the benchmark declared in BENCHMARK.json.

Run from the root of the repository:

    python3 rgcbench/runs.py collect --seeds 1-10 --out a.jsonl [--workloads suite,serve_warm]
    python3 rgcbench/runs.py spread a.jsonl
    python3 rgcbench/runs.py compare parent.jsonl change.jsonl

`collect` runs the declared command once per workload and seed, round-robin
over workloads, and appends one line per run. `spread` prints each end-to-end
metric's median, quartiles and quartile spread against its bound. `compare`
gives each workload and end-to-end metric a verdict by the rules of a
parent/change comparison: better only if the change wins at least nine tenths
of the seed-paired runs and the medians differ by more than the parent's
quartile spread; worse if the change's median is worse by more than the bound;
unresolved if the parent's own spread is wider than the bound (unless every
change run beats every parent run); otherwise same.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(args):
    bench = load_bench()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    with open(args.out, "a") as out:
        for seed in seed_range(args.seeds):
            for w in workloads:
                cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]),
                                          "--trace", str(args.trace)]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.exit(f"{w} seed {seed}: exit {proc.returncode}")
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": w, "seed": seed, "trace": args.trace, "result": result}) + "\n")
                out.flush()
                brief = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"{w} seed {seed}: correct={result['correct']} {brief}", flush=True)


def read_runs(path):
    """{workload: [(seed, {metric: value})]} of the untraced runs in `path`."""
    runs = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            if r["trace"] == 0:
                metrics = {k: v["value"] for k, v in r["result"]["metrics"].items()}
                runs.setdefault(r["workload"], []).append((r["seed"], metrics))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(args):
    bench = load_bench()
    runs = read_runs(args.file)
    worst = 0.0
    for w, rows in runs.items():
        print(f"{w} ({len(rows)} runs)")
        for m in bench["end_to_end"]:
            vals = [r[m["name"]] for _, r in rows if m["name"] in r]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            share = (q3 - q1) / med if med else float("inf")
            flag = "" if m["name"] == "setup_s" or share < m["bound"] / 3 else "  <-- above bound/3"
            if m["name"] != "setup_s":
                worst = max(worst, share / m["bound"])
            print(f"  {m['name']:<14} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {share:7.2%} bound {m['bound']:.0%}{flag}")
    print(f"largest spread / bound: {worst:.2f}")


def verdict(parent, change, better, bound):
    sign = 1 if better == "lower" else -1
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    pairs = min(len(parent), len(change))
    gain = sign * (pmed - cmed)
    if pairs and wins >= 0.9 * pairs and gain > (pq3 - pq1):
        return "better"
    if -gain > bound * abs(pmed):
        return "worse"
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if (pq3 - pq1) > bound * abs(pmed) and not all_better:
        return "unresolved"
    return "same"


def compare(args):
    bench = load_bench()
    parent, change = read_runs(args.parent), read_runs(args.change)
    for w in sorted(set(parent) & set(change)):
        print(w)
        p_by_seed, c_by_seed = dict(parent[w]), dict(change[w])
        seeds = sorted(set(p_by_seed) & set(c_by_seed))
        for m in bench["end_to_end"]:
            name = m["name"]
            p = [p_by_seed[s][name] for s in seeds if name in p_by_seed[s]]
            c = [c_by_seed[s][name] for s in seeds if name in c_by_seed[s]]
            if not p or not c:
                continue
            pq1, pmed, pq3 = quartiles(p)
            cq1, cmed, cq3 = quartiles(c)
            print(f"  {name:<14} parent {pmed:<12.6g} [{pq1:.6g}, {pq3:.6g}]  "
                  f"change {cmed:<12.6g} [{cq1:.6g}, {cq3:.6g}]  {verdict(p, c, m['better'], m['bound'])}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads")
    c.add_argument("--trace", type=int, default=0, choices=[0, 1])
    c.add_argument("--out", required=True)
    s = sub.add_parser("spread")
    s.add_argument("file")
    k = sub.add_parser("compare")
    k.add_argument("parent")
    k.add_argument("change")
    args = ap.parse_args()
    {"collect": collect, "spread": spread, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    main()
