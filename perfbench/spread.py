#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report how much each
end-to-end metric spreads.

For every workload, runs the benchmark once per seed and prints, per
metric, the median and the interquartile range as a share of the median
(quartiles from ``statistics.quantiles(values, n=4)``), next to the
metric's bound from BENCHMARK.json and a third of it, the target a
steady benchmark stays under.

    python3 perfbench/spread.py                       # 10 seeds, every workload
    python3 perfbench/spread.py --runs 5 --workload write_heavy
    python3 perfbench/spread.py --trace 1 --runs 1    # per-layer values

Run it from the repository root; it builds the benchmark through the
command in BENCHMARK.json. Raw results are appended, one JSON object a
line, to the file given with ``--out``; ``--baseline`` writes each
metric's median and quartiles per workload, with the first run's
fingerprint, as the committed baseline (``perfbench/baseline.json``).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result}")
    result["notes"] = [l for l in lines if l.startswith("#")]
    for line in lines:
        if line.startswith("fingerprint "):
            result["fingerprint"] = json.loads(line[len("fingerprint "):])
    return result, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--baseline")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = open(args.out, "a", encoding="utf-8") if args.out else None
    baseline = {"runs_per_workload": args.runs, "run_seconds": bench["run_seconds"],
                "trace": args.trace, "workloads": {}}

    for workload in workloads:
        values, walls, units = {}, [], {}
        for i in range(args.runs):
            seed = args.first_seed + i
            result, wall = run_once(bench["command"], workload, seed,
                                    bench["run_seconds"], args.trace)
            walls.append(wall)
            if "fingerprint" not in baseline:
                fp = dict(result.get("fingerprint", {}))
                for per_run in ("seed", "workload", "keys", "shape", "fsync"):
                    fp.pop(per_run, None)
                baseline["fingerprint"] = fp
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            if out:
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "wall_s": wall, **result}) + "\n")
                out.flush()
        print(f"== {workload}: {args.runs} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            summary[name] = {"median": med, "q1": q1, "q3": q3, "unit": units[name]}
        baseline["workloads"][workload] = summary
        for name, vals in values.items():
            if len(vals) < 2:
                print(f"  {name:<40} {vals[0]:>14.4f}")
                continue
            med, iqr = spread(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and iqr >= bound / 3:
                flag = "  <-- above a third of the bound"
            shown = f"{bound:.3f}" if bound is not None else "  -  "
            print(f"  {name:<40} median {med:>14.4f}  iqr/median {iqr:6.3f}  bound {shown}{flag}")
    if out:
        out.close()
    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
