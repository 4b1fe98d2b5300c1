"""Closed-loop MPC benchmark of optcons.

    python3 perfbench/run.py --workload rendezvous --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One controller runs in this process on the sequential path,
one closed-loop step after another.  A run executes a fixed number of
episodes (workloads.py), sized from ``--seconds`` so that every count is
the same on every machine and commit, checks each episode's outputs
against ``reference.json``, and writes a results file to
``.bench_out/results/``.

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` also runs each episode under the tracer (tracer.py),
requires byte-identical artifacts with tracing on and off, and reports
the per-layer metrics of the traced episodes.

stdout holds a table of every metric with its unit; its last line is one
JSON object with ``correct``, ``attempted`` and ``failed`` (closed-loop
windows, and windows lost to a numeric failure) and ``metrics``.  Exit
code 0 means a result was printed, whether or not it is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def import_program() -> None:
    """Put this checkout's src/ first on sys.path; exit 2 if it is absent."""
    init = os.path.join(SRC, "optcons", "__init__.py")
    if not os.path.isfile(init):
        print("error: no src/optcons/__init__.py here; run from the root of "
              "a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import optcons
    if os.path.abspath(optcons.__file__) != init:
        print(f"error: imported optcons from {optcons.__file__}, not {init}",
              file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Closed-loop MPC benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    loadavg = os.getloadavg()[0]
    t0 = time.perf_counter()
    import_program()
    import_s = time.perf_counter() - t0
    import harness
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh).get(args.workload, {}).get(str(args.seed), {})
    out_base = os.path.join(OUT, args.workload, f"seed{args.seed}")
    result = harness.run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), out_base, reference)
    result["metadata"] = dict(harness.run_metadata(ROOT, loadavg),
                              import_s=import_s)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(harness.format_table(result))
    if args.trace:
        units, values = harness.PER_LAYER_UNITS, result["per_layer"]
    else:
        units, values = harness.END_TO_END_UNITS, result["end_to_end"]
    c = result["counts"]
    print(json.dumps({"correct": result["correct"], "attempted": c["windows"],
                      "failed": c["failed_windows"],
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
