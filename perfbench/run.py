"""Seeded end-to-end and per-layer benchmark for unifrag.

Run from the root of a checkout::

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

With ``--trace 0`` the run repeats the workload's pass (a fixed, seeded
list of operations in seeded order, see WORKLOADS.md) in a closed loop
with one client until ``--seconds`` of op time have run, and reports the
end-to-end metrics, with every time scaled to a nominal machine speed by
the reference of ``ruler.py``.  With ``--trace 1`` it alternates untraced passes with passes in
which every public layer function is wrapped, and reports the per-layer
metrics of one traced pass; a fixed pass keeps every count in them exactly
repeatable for a given seed.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from ruler import NOMINAL_S, Ruler

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"

# set-up samples and cold starts per run, spread over it
SAMPLE_REPS = 15
# one set-up sample builds the inputs back to back for at least this long
SETUP_BLOCK_S = 0.1
TRACE_REPS = 3
WARMUP_S = 0.5
# the infinity axiom at n <= 5, unpruned and pruned, on the seed code
SEED_ANCHOR_NODES = (8103, 832)
BASELINE = Path(__file__).resolve().parent / "baseline" / "seed.json"

END_TO_END_UNITS = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p95_ms": "ms",
    "success_rate": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
    "cold_start_ms": "ms",
}


def _layer_unit(name: str) -> str:
    for suffix, unit in ((".self_s", "s"), (".total_s", "s"), ("chars_per_s", "chars/s"),
                         ("elements_per_s", "1/s"), ("out_chars", "chars"),
                         ("us_per_node", "us"), ("prune_ratio", "ratio"),
                         ("trace_overhead", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def _environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    commit = "unavailable (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "unifrag").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count(),
            "commit": commit, "src_sha256": digest.hexdigest()[:16]}


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def _run_pass(wl, tracer=None, ruler=None, budget=math.inf,
              between=None) -> tuple[list[float], list[int], int, list[str]]:
    """One pass over the workload's operations, or its first blocks of
    ``wl.block`` ops until their latencies add up to ``budget``: latencies,
    the ruler position after each op, the failed count and the reasons of
    failures that are not known defects.  ``between(busy)`` runs after
    every block."""
    wl.pairs.clear()
    latencies, positions, failed, wrong = [], [], 0, []
    busy = 0.0
    clock = time.perf_counter
    for i, op in enumerate(wl.ops):
        start = clock()
        try:
            reason = tracer.run_op(i, op.fn) if tracer else op.fn()
        except Exception as e:  # a crash is a failed operation, not a crashed run
            reason = f"raised {type(e).__name__}"
        latencies.append(clock() - start)
        busy += latencies[-1]
        if ruler:
            positions.append(ruler.tick())
        if reason:
            failed += 1
            if not op.defect:
                wrong.append(reason)
        if (i + 1) % wl.block == 0:
            if between:
                between(busy)
            if busy >= budget:
                break
    return latencies, positions, failed, wrong


def _build(workload: str, seed: int, scale: str, workdir: Path):
    import workloads
    return workloads.WORKLOADS[workload](random.Random(seed), workloads.SCALES[scale], workdir)


def _prepared(wl):
    """The workload with its expected answers worked out."""
    if wl.prepare:
        wl.prepare()
    return wl


def _warm_up(wl, ruler=None) -> None:
    deadline = time.perf_counter() + WARMUP_S
    wl.pairs.clear()
    for op in wl.ops:
        try:
            op.fn()
        except Exception:
            pass
        if ruler:
            ruler.tick()
        if time.perf_counter() > deadline:
            break


def _cold_start_ms() -> float:
    """Wall time of one fresh command-line process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "unifrag.cli", "parse", "-e", "E x. (P(x) & E y. R(x,y))"]
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True)
    return (time.perf_counter() - start) * 1000


def _set_up_sample(workload: str, seed: int, scale: str, workdir: Path) -> float:
    """Seconds per set-up, averaged over builds run back to back for at
    least SETUP_BLOCK_S, so that one sample resolves a set-up of a few
    milliseconds.  A build overwrites the files of the one before."""
    gc.collect()
    builds, start = 0, time.perf_counter()
    while True:
        _build(workload, seed, scale, workdir)
        builds += 1
        elapsed = time.perf_counter() - start
        if elapsed >= SETUP_BLOCK_S:
            return elapsed / builds


def measure(workload: str, seed: int, seconds: float, scale: str = "full",
            reps: int = SAMPLE_REPS) -> tuple[dict, list[str]]:
    """The untraced run: end-to-end metrics.

    Every time is a wall time scaled to the nominal machine speed of
    ``ruler.py``.  Throughput is the ops attempted over the scaled busy
    time of the loop, and the latency percentiles are taken over every op
    of every pass.  The set-up samples and cold starts are spread over the
    run, each after a pass and each between reference samples; the run
    reports the median of each.
    """
    workdir = OUT / f"work-{os.getpid()}"
    ruler = Ruler()
    setups: list[float] = []
    cold: list[float] = []
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        wl = _prepared(_build(workload, seed, scale, workdir))
        _warm_up(wl, ruler)
        ruler.samples.clear()
        latencies, positions = [], []
        passes, failed, wrong, busy = 0, 0, [], 0.0

        def between(pass_busy: float) -> None:
            # the set-up samples and cold starts fall due evenly over the run
            due = min(reps, int((busy + pass_busy) * reps / seconds))
            if len(setups) < due:
                sample, k = ruler.bracket(lambda: _set_up_sample(workload, seed, scale, workdir))
                setups.append(sample * k)
            if len(cold) < due:
                sample, k = ruler.bracket(_cold_start_ms)
                cold.append(sample * k)

        while busy < seconds:
            lat, pos, f, w = _run_pass(wl, ruler=ruler, budget=seconds - busy, between=between)
            latencies += lat
            positions += pos
            passes += 1
            failed += f
            wrong += w
            busy += sum(lat)
        while len(setups) < reps:
            sample, k = ruler.bracket(lambda: _set_up_sample(workload, seed, scale, workdir))
            setups.append(sample * k)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    while len(cold) < reps:
        sample, k = ruler.bracket(_cold_start_ms)
        cold.append(sample * k)
    scaled = sorted(x * ruler.scale(p) for x, p in zip(latencies, positions))
    attempted = len(scaled)
    metrics = {
        "ops_per_s": attempted / sum(scaled),
        "op_p50_ms": _percentile(scaled, 0.50) * 1000,
        "op_p95_ms": _percentile(scaled, 0.95) * 1000,
        "success_rate": 1 - failed / attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cold_start_ms": statistics.median(cold),
    }
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                          for k, v in metrics.items()}}
    beyond = attempted - math.ceil(attempted * 0.95)
    refs = sorted(ruler.samples)
    notes = [f"ops = {attempted} ({beyond} beyond p95) in {passes} passes (the last may be "
             f"cut at a block of {wl.block}) of {len(wl.ops)}, "
             f"wall busy = {busy:.3f} s, scaled busy = {sum(scaled):.3f} s, "
             f"error_rate = {failed / attempted:.6f}",
             f"reference = {len(refs)} samples, median {statistics.median(refs) * 1000:.4f} ms, "
             f"p5 {_percentile(refs, 0.05) * 1000:.4f} ms, p95 {_percentile(refs, 0.95) * 1000:.4f} ms "
             f"(nominal {NOMINAL_S * 1000:.4f} ms)"]
    return result, notes + sorted(set(wrong))


def traced(workload: str, seed: int, scale: str = "full") -> tuple[dict, list[str]]:
    """The traced run: per-layer metrics of one fixed pass.  Untraced and
    traced passes alternate TRACE_REPS times; the last traced pass gives
    the per-layer numbers and the medians give ``trace_overhead``."""
    from spans import Tracer

    workdir = OUT / f"work-{os.getpid()}"
    untraced_s, traced_s = [], []
    attempted, failed, wrong = 0, 0, []
    try:
        shutil.rmtree(workdir, ignore_errors=True)
        wl = _prepared(_build(workload, seed, scale, workdir))
        _warm_up(wl)
        for _ in range(TRACE_REPS):
            start = time.perf_counter()
            _run_pass(wl)
            untraced_s.append(time.perf_counter() - start)
            tracer = Tracer()
            tracer.install()
            try:
                start = time.perf_counter()
                latencies, _, f, w = _run_pass(wl, tracer)
                traced_s.append(time.perf_counter() - start)
            finally:
                tracer.uninstall()
            attempted += len(latencies)
            failed += f
            wrong += w
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = tracer.metrics()
    metrics["trace_overhead"] = statistics.median(traced_s) / statistics.median(untraced_s)
    metrics["ops"] = len(wl.ops)
    metrics["modelfind.anchor_nodes"] = wl.counters.get("infinity_nodes", 0)
    metrics["modelfind.anchor_nodes_pruned"] = wl.counters.get("infinity_nodes_pruned", 0)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    if scale == "full":
        wrong += _count_mismatches(workload, seed, metrics)
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": _layer_unit(k)} for k, v in metrics.items()}}
    notes = [f"spans = {len(tracer.spans)}, untraced passes = {untraced_s}, "
             f"traced passes = {traced_s}"]
    return result, notes + sorted(set(wrong))


# counts that must repeat exactly across runs with one seed
DETERMINISTIC = ("modelfind.nodes", "modelfind.anchor_nodes", "modelfind.anchor_nodes_pruned",
                 "translate.fu1_to_dl.out_chars", "translate.dlr0_to_fu1.out_chars",
                 "translate.to_dnf_block.disjuncts", "ops", "cli.run.raised")


def _repeatable(metrics: dict) -> list[str]:
    return [k for k in metrics if k.endswith(".calls")] + list(DETERMINISTIC)


def _on_seed_code() -> Optional[dict]:
    """The first baseline, when src/unifrag is the code it was taken on."""
    if not BASELINE.is_file():
        return None
    baseline = json.loads(BASELINE.read_text())
    return baseline if baseline["env"]["src_sha256"] == _environment()["src_sha256"] else None


def _count_mismatches(workload: str, seed: int, metrics: dict) -> list[str]:
    """On the seed code, the infinity-axiom anchor must take its known node
    counts, and a traced run must repeat the counts the baseline's traced
    run recorded in another process for the same workload and seed."""
    baseline = _on_seed_code()
    if baseline is None:
        return []
    wrong = []
    if workload == "search":
        anchor = (metrics["modelfind.anchor_nodes"], metrics["modelfind.anchor_nodes_pruned"])
        if anchor != SEED_ANCHOR_NODES:
            wrong.append(f"infinity axiom took {anchor[0]}/{anchor[1]} nodes, not "
                         f"{SEED_ANCHOR_NODES[0]}/{SEED_ANCHOR_NODES[1]} as on the seed code")
    for run in baseline["workloads"][workload]["traced"]:
        if run["seed"] == seed:
            recorded = run["result"]["metrics"]
            wrong += [f"{k} = {metrics[k]}, the baseline recorded {recorded[k]['value']}"
                      for k in _repeatable(metrics) if metrics[k] != recorded[k]["value"]]
    return wrong


def selftest() -> int:
    """Every workload at a tiny size: metric names match BENCHMARK.json,
    nothing but the known command-line defects fails, the counts of a traced
    run repeat exactly in a second process, and on the seed code the
    infinity-axiom anchor takes its known node counts."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    seed_code = _on_seed_code() is not None
    for name in workloads.WORKLOADS:
        result, notes = measure(name, 1, 0.2, scale="tiny", reps=1)
        assert set(result["metrics"]) == e2e, (name, set(result["metrics"]) ^ e2e)
        assert result["correct"], (name, notes)
        if name != "cli":
            assert result["failed"] == 0, (name, notes)
        first, notes = traced(name, 1, scale="tiny")
        assert set(first["metrics"]) == layers, (name, set(first["metrics"]) ^ layers)
        assert first["correct"], (name, notes)
        out = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", "1",
                              "--trace", "1", "--scale", "tiny"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout
        second = json.loads(out.strip().splitlines()[-1])
        for key in _repeatable(first["metrics"]):
            a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
            assert a == b, (name, key, a, b)
        if name == "search":
            anchor = (first["metrics"]["modelfind.anchor_nodes"]["value"],
                      first["metrics"]["modelfind.anchor_nodes_pruned"]["value"])
            if seed_code:
                assert anchor == SEED_ANCHOR_NODES, anchor
            print(f"selftest search: infinity axiom at n <= 5 took {anchor[0]} nodes unpruned, "
                  f"{anchor[1]} pruned"
                  + (" (checked: the seed code)" if seed_code else " (src differs from the seed code)"))
        print(f"selftest {name}: ok ({result['attempted']} ops, {result['failed']} failed)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes: full, or the self-test's tiny ones")
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload at a tiny size and check the output")
    args = parser.parse_args()
    if not (SRC / "unifrag" / "__init__.py").is_file():
        print(f"error: no unifrag sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import unifrag
    if Path(unifrag.__file__).resolve().parent != SRC / "unifrag":
        print(f"error: imported unifrag from {unifrag.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.selftest:
        return selftest()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.trace:
        result, notes = traced(args.workload, args.seed, args.scale)
    else:
        result, notes = measure(args.workload, args.seed, args.seconds, args.scale)
    print("env " + json.dumps(_environment(), sort_keys=True))
    for note in notes:
        print(note)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
