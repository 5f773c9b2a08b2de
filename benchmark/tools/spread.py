#!/usr/bin/env python3
"""Run each workload several times, each with another seed, and print for
every metric its median and the distance between its first and third
quartile as a share of the median -- the spread the bounds in BENCHMARK.json
are held to. Run from the root of the repo:

    python3 benchmark/tools/spread.py [--runs 10] [--trace 0|1] [--first-seed 1] [workload ...]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--dump", help="write every run's values to this JSON file")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    worst = 0.0
    dump = {}
    for workload in names:
        values, walls, invalid = {}, [], []
        for i in range(args.runs):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(args.first_seed + i),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.time()
            run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            walls.append(time.time() - t0)
            if run.returncode != 0:
                sys.exit(f"{workload} seed {args.first_seed + i}: exit {run.returncode}\n{run.stdout}")
            result = json.loads(run.stdout.strip().splitlines()[-1])
            assert result["correct"], run.stdout
            invalid += [f"seed {args.first_seed + i}: {l}" for l in run.stdout.splitlines() if l.startswith("INVALID")]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            values.setdefault("(failed events)", []).append(result["failed"])
        dump[workload] = values
        print(f"\n## {workload}: {args.runs} runs, wall {statistics.median(walls):.1f} s median, {max(walls):.1f} s max")
        for line in invalid:
            print(line)
        print(f"| {'metric':<52} | {'median':>14} | {'spread':>7} | {'bound':>6} |")
        print(f"|{'-' * 54}|{'-' * 16}|{'-' * 9}|{'-' * 8}|")
        for name, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [med] * 3
            spread = (q[2] - q[0]) / abs(med) if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = " !" if spread > bound / 3 else ""
            shown = "" if bound is None else f"{bound:.2f}"
            print(f"| {name:<52} | {med:>14.6g} | {spread:>6.1%} | {shown:>6} |{flag}")
    if args.dump:
        json.dump(dump, open(args.dump, "w"), indent=1)
    print(f"\nworst spread as a share of its bound: {worst:.2f} (aim: below 0.33)")


if __name__ == "__main__":
    main()
