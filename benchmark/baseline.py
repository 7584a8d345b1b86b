#!/usr/bin/env python3
"""Check the benchmark's stability and record its baseline.

Run from the repository root; the benchmark command, workloads, run length
and bounds are read from BENCHMARK.json.

  python3 benchmark/baseline.py spread [--seeds 10] [--first-seed 1] [--workload W]...
      Run every workload once per seed and report, for each end-to-end
      metric, the distance between the first and third quartile of its
      values as a share of their median (Python's statistics.quantiles),
      against the metric's bound and a third of it. Exits 1 unless every
      spread, setup_s's included, is under a third of its bound.

  python3 benchmark/baseline.py sets [--sets 2] [--seed 11] [--out benchmark/BASELINE.json]
      Run every workload --sets times at one seed, check that every set
      agrees with the first within the bounds (modeled metrics exactly),
      and write the sets with nproc, `rustc -V` and the seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(spec, workload, seed, detail=None):
    # The same arguments every untraced run of BENCHMARK.json's command gets.
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    if detail:
        cmd += ["--json", detail]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return result


def spread(spec, args):
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            metrics = run(spec, w, seed)["metrics"]
            for name in bounds:
                values[name].append(metrics[name]["value"])
            print(f"{w} seed {seed}: " + ", ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rel = (q3 - q1) / med if med else float("inf")
            limit = bounds[name] / 3
            if rel > bounds[name]:
                flag = "OVER BOUND"
            elif rel > limit:
                flag = "over bound/3"
            else:
                flag = "ok"
            ok &= flag == "ok"
            print(f"  {w:24} {name:16} median {med:<14.6g} spread {rel:8.4f}  bound/3 {limit:.4f}  {flag}")
    return 0 if ok else 1


def sets(spec, args):
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    recorded = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.sets):
            one = {}
            for w in spec["workloads"]:
                path = os.path.join(tmp, f"{w['name']}.json")
                run(spec, w["name"], args.seed, detail=path)
                with open(path) as f:
                    report = json.load(f)
                one[w["name"]] = {"passes": report["passes"], "end_to_end": report["end_to_end"]}
                print(f"set {i + 1} {w['name']}: R={report['passes']} " + ", ".join(
                    f"{n}={m['value']:.6g}" for n, m in report["end_to_end"].items()), flush=True)
            recorded.append(one)

    disagreements = []
    for later in recorded[1:]:
        for w, first in recorded[0].items():
            for name, m in first["end_to_end"].items():
                a, b = m["value"], later[w]["end_to_end"][name]["value"]
                bound, better = bounds[name]
                if m["clock"] == "modeled":
                    bad = a != b
                else:
                    worse = (a - b) / a if better == "higher" else (b - a) / a
                    bad = abs(worse) > bound
                if bad:
                    disagreements.append(f"{w} {name}: {a} vs {b} (bound {bound})")
    for d in disagreements:
        print("DISAGREE", d)

    rustc = subprocess.run(["rustc", "-V"], stdout=subprocess.PIPE, text=True).stdout.strip()
    baseline = {
        "nproc": os.cpu_count(),
        "rustc": rustc,
        "seed": args.seed,
        "run_seconds": spec["run_seconds"],
        "sets_agree_within_bounds": not disagreements,
        "sets": recorded,
    }
    with open(args.out, "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0 if not disagreements else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--seeds", type=int, default=10)
    s.add_argument("--first-seed", type=int, default=1)
    s.add_argument("--workload", action="append")
    b = sub.add_parser("sets")
    b.add_argument("--sets", type=int, default=2)
    b.add_argument("--seed", type=int, default=11)
    b.add_argument("--out", default="benchmark/BASELINE.json")
    args = p.parse_args()
    spec = load_spec()
    sys.exit(spread(spec, args) if args.mode == "spread" else sets(spec, args))


if __name__ == "__main__":
    main()
