"""Ten-seed check and baseline record.

Runs every workload (or those named) once per seed with ``--trace 0``, each
run in a fresh process as a benchmark harness would, plus one traced run
with the first seed, then prints for each end-to-end metric the median and
the spread (interquartile range over median, quartiles as
``statistics.quantiles(values, n=4)`` gives them) beside the metric's
bound from ``BENCHMARK.json``.  Run from the root of a checkout::

    python3 perfbench/record.py --out perfbench-out/check.json
    python3 perfbench/record.py --workloads search,cli --seeds 1-5

A traced run checks its counts against ``baseline/seed.json`` when the
sources match it; to record a new baseline of changed inputs, delete the
stale file first and write the new one with ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    out = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, help="write every run and the summary here")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"description": f"every run of the check (--seconds {args.seconds}, seeds "
                             f"{first}-{last}) per workload, the summary (median, quartiles, "
                             f"spread = IQR / median) and one traced run with seed {first}",
              "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs, start = [], time.time()
        for seed in range(first, last + 1):
            result, notes = _run(workload, seed, args.seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect: {notes}", file=sys.stderr)
                return 1
            runs.append({"seed": seed, "result": result})
            env = json.loads(notes[0][4:])
        traced, notes = _run(workload, first, args.seconds, 1)
        if not traced["correct"]:
            print(f"{workload} traced: incorrect: {notes}", file=sys.stderr)
            return 1
        summary = {}
        print(f"{workload}: {len(runs)} runs in {time.time() - start:.0f} s")
        for name in sorted(bounds):
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            median, q1, q3, spread = _spread(values)
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            flag = "" if spread < bounds[name] / 3 else (
                "  (over a third of the bound)" if spread < bounds[name] else "  (OVER THE BOUND)")
            if name != "setup_s" and bounds[name]:
                worst = max(worst, spread / bounds[name])
            print(f"  {name:15} median {median:12.6g}  spread {spread:.3f}  "
                  f"bound {bounds[name]}{flag}")
        record["env"] = env
        record["workloads"][workload] = {"runs": runs, "summary": summary,
                                         "traced": [{"seed": first, "result": traced}]}
    print(f"largest spread over bound, setup_s aside: {worst:.2f}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
