"""Steadiness report: repeat each workload over several seeds and summarise.

    python3 perfbench/steady.py --seeds 0-9
    python3 perfbench/steady.py --workloads rendezvous --seeds 0-4
    python3 perfbench/steady.py --seeds 0-9 --record
    python3 perfbench/steady.py --seeds 0-9 --report perfbench/baseline/BENCH_baseline.json

Runs ``run.py --trace 0`` once per (seed, workload) for the
``run_seconds`` that BENCHMARK.json fixes, one process at a time, seeds in
the outer loop so that a drift in machine load touches every workload.
For each metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median; for the
end-to-end times also the spread the unscaled seconds would have had
(harness.SpeedScale).  A spread above
a tenth is flagged, as is one above a third of the metric's bound in
BENCHMARK.json.

``--record`` stores every episode's outcome (round counts, unconverged
windows, final error, artifact hashes) in reference.json as the reference
for later correctness checks; do it only on a commit whose behaviour is the
intended baseline.  ``--report`` writes the runs and the summary to a file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".bench_out", "results")
FLAG_SPREAD = 0.1
RUN_TIMEOUT_S = 600


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(RESULTS, f"{workload}-seed{seed}-trace0.json")) as fh:
        return {"line": line, "result": json.load(fh)}


def summarise(values: list) -> dict:
    values = [v for v in values if v is not None]
    if not values:
        return {"median": None, "q1": None, "q3": None, "spread": None}
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def record(runs: list) -> None:
    path = os.path.join(HERE, "reference.json")
    with open(path) as fh:
        reference = json.load(fh)
    keep = ("total_rounds", "unconverged", "failed_windows", "final_max_error",
            "trajectories_sha256", "errors_sha256")
    for run in runs:
        res = run["result"]
        seeds = reference.setdefault(res["workload"], {})
        seeds[str(res["seed"])] = {str(k): {key: ep[key] for key in keep}
                                   for k, ep in enumerate(res["episodes"])}
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description="Benchmark steadiness report")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--report")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]

    runs = []
    for seed in seeds:
        for workload in workloads:
            run = run_once(workload, seed, seconds)
            runs.append(run)
            line = run["line"]
            brief = "  ".join(f"{k}={v['value']:.5g}" if v["value"] is not None
                              else f"{k}=none"
                              for k, v in list(line["metrics"].items())[:6])
            print(f"{workload:<16} seed {seed:>3} correct={line['correct']} "
                  f"failed={line['failed']}/{line['attempted']}  {brief}",
                  flush=True)

    limit = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    print()
    for workload in workloads:
        lines = [r["line"] for r in runs if r["result"]["workload"] == workload]
        summary[workload] = {}
        print(f"{workload}  ({len(lines)} runs, all correct: "
              f"{all(x['correct'] for x in lines)})")
        raws = [r["result"]["end_to_end_raw"] for r in runs
                if r["result"]["workload"] == workload]
        print(f"  {'metric':<40} {'unit':<6} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'unscaled':>8}  bound")
        for name, metric in lines[0]["metrics"].items():
            s = summarise([x["metrics"][name]["value"] for x in lines])
            if name in raws[0]:
                s["unscaled_spread"] = summarise([x[name] for x in raws])["spread"]
            summary[workload][name] = dict(s, unit=metric["unit"])
            if s["median"] is None:
                print(f"  {name:<40} {metric['unit']:<6} no samples")
                continue
            bound = limit.get(name)
            flags = []
            if s["spread"] > FLAG_SPREAD:
                flags.append("SPREAD>0.1")
            if bound is not None and s["spread"] > bound / 3:
                flags.append("SPREAD>BOUND/3")
            unscaled = s.get("unscaled_spread")
            print(f"  {name:<40} {metric['unit']:<6} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['spread']:>8.4f} "
                  f"{'' if unscaled is None else f'{unscaled:8.4f}':>8}  "
                  f"{'' if bound is None else bound} {' '.join(flags)}")

    if args.record:
        record(runs)
    if args.report:
        report = {"seconds": seconds, "seeds": seeds,
                  "metadata": runs[0]["result"]["metadata"], "summary": summary,
                  "runs": [{k: v for k, v in r["result"].items() if k != "metadata"}
                           for r in runs]}
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
