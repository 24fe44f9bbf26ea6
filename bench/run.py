"""ipso benchmark: three batch workloads, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload trec-sweep --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload, one table
    python3 bench/run.py --write-spec                   # regenerate BENCHMARK.json
    python3 bench/run.py --workload all --save bench/BENCH_baseline.json [--trace 1]

Each run writes the workload's seeded inputs under .bench_work/ (not
timed), times SETUP_RUNS fresh `import ipso, ipso.cli` processes, then
runs the workload in WORKER_PROCESSES fresh worker processes one after
another (worker.py), each for its share of --seconds; the first checks
the outputs and the others must reproduce them byte for byte.  Timings
are scaled to a reference host speed (calibration.py); raw figures are
printed beside them.  A traced run uses one worker.  The last line of
stdout is one JSON object: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1.
ipso is imported from src/ of the checkout this file sits in; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibration
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_work"
SETUP_RUNS = 3
WORKER_PROCESSES = 2  # an untraced run splits its time over this many fresh processes
RUN_SECONDS = 24
TIME_LIMIT_S = 170  # a run must end within 180 s

WHY = {
    "trec-sweep": "the paper's quadratic job: ipso sweep over 5 runs x 249 topics x 100 docs "
                  "(10 pairs x 36 cells) plus category_fractions at k=5,10,20; pair work dominates",
    "trec-ingest": "the everyday path: coverage over 2 full runs (249k lines each), then compare "
                   "--format text and topics on the pair; parse_run dominates",
    "census": "no TREC input: enumerate k=15, dp_counts, 1e6-sample census at k=20/50/100 with "
              "1 and 2 workers, grid, hasse, certify, kendall; whole-space numpy kernels",
}

#: (name, unit, better, bound).  failed_frac is reported beside these
#: (as `failed` / `attempted`) but is not a bounded metric: it is 0 on
#: correct code, and a spread relative to a median of 0 is undefined.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def spec() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WHY[name]} for name in workloads.WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in tracer.PER_LAYER],
    }


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(env: dict) -> tuple:
    """Median (scaled, raw) time of fresh interpreters importing ipso and its CLI."""
    command = [sys.executable, "-c", "import ipso, ipso.cli"]
    raw = []
    with calibration.Calibrator() as calibrator:
        calibrator.measure()
        for _ in range(SETUP_RUNS):
            start = perf_counter()
            subprocess.run(command, env=env, check=True, cwd=ROOT)
            raw.append(perf_counter() - start)
            calibrator.measure()
    median = statistics.median(raw)
    return median * calibration.scale(calibrator.samples), median


def run_one(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    """Prepare the inputs, time set-up, run the workers; return the merged result."""
    env = _env()
    work = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        start = perf_counter()
        manifest = workloads.prepare(workload, seed, work / "inputs")
        generate_s = perf_counter() - start
        setup_s, raw_setup_s = measure_setup(env)
        processes = 1 if trace else WORKER_PROCESSES
        parts = []
        for index in range(processes):
            result_path = work / f"result{index}.json"
            command = [sys.executable, str(BENCH_DIR / "worker.py"), workload, str(seed),
                       str(seconds / processes), "1" if trace else "0", "1" if index == 0 else "0",
                       str(work / "inputs"), str(result_path)]
            if trace:
                command.append(str(WORK_DIR / f"trace-{workload}-seed{seed}.json"))
            subprocess.run(command, env=env, check=True, cwd=ROOT,
                           timeout=max(10.0, deadline - perf_counter()))
            parts.append(json.loads(result_path.read_text()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = _merge(parts)
    result.update({
        "workload": workload,
        "seed": seed,
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "generate_s": generate_s,
        "inputs": {key: manifest[key] for key in ("topics", "systems", "depth",
                                                  "qrels_relevant_share") if key in manifest},
    })
    return result


def _merge(parts: list) -> dict:
    """One result from the worker processes of a run.

    The first worker checked its outputs; every other worker's outputs
    must hash the same as the first's.  An operation with a problem in
    any worker counts as failed wherever it ran.
    """
    reference = parts[0]["digests"]
    problems = {}
    for part in parts:
        for name, found in part["problems"].items():
            problems.setdefault(name, []).extend(found)
        for name, digests in part["digests"].items():
            if digests != reference.get(name):
                problems.setdefault(name, []).append("output differs between worker processes")
    iterations = [it for part in parts for it in part["iterations"]]
    instances = [op for it in iterations for op in it]
    op_samples = {}
    for name, _, scaled in instances:
        op_samples.setdefault(name, []).append(scaled)
    result = {
        "processes": len(parts),
        "iterations": len(iterations),
        "wall_samples_s": [sum(scaled for _, _, scaled in it) for it in iterations],
        "raw_wall_samples_s": [sum(raw for _, raw, _ in it) for it in iterations],
        "op_median_s": {name: statistics.median(v) for name, v in op_samples.items()},
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
        "attempted": len(instances),
        "failed": sum(1 for name, *_ in instances if problems.get(name)),
        "problems": problems,
        "digests": {name: digests[0] for name, digests in sorted(reference.items())},
        "mix": parts[0]["mix"],
    }
    if "per_layer" in parts[0]:
        result["per_layer"] = parts[0]["per_layer"]
        result["untraced_wall_s"] = parts[0]["untraced_wall_s"]
    else:
        result["wall_s"] = statistics.median(result["wall_samples_s"])
        result["raw_wall_s"] = statistics.median(result["raw_wall_samples_s"])
    return result


def environment() -> dict:
    """Machine, library versions and revision, for a saved result file."""
    from importlib.metadata import version

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "revision": revision,
    }


def save(path: Path, seed: int, seconds: int, trace: bool, results: dict) -> None:
    """Merge this invocation's results into a BENCH_*.json file."""
    saved = json.loads(path.read_text()) if path.exists() else {}
    saved.update({"environment": environment(), "seed": seed, "seconds": seconds})
    saved.setdefault("traced" if trace else "untraced", {}).update(results)
    path.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n")


def _print_report(result: dict, trace: bool) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"iterations {result['iterations']} in {result['processes']} process(es)  "
          f"trace {'on' if trace else 'off'}")
    print(f"  inputs {json.dumps(result['inputs'])}  generated in {result['generate_s']:.2f} s")
    if trace:
        print(f"  untraced wall_s {result['untraced_wall_s']:.4f} s")
        for name, unit, _, moves in tracer.PER_LAYER:
            print(f"  {name:<26} {result['per_layer'][name]:>14.6g} {unit:<6} -> {moves}")
        print("  all layers run single-threaded except the 2-worker sampler, so no layer "
              "reports wait time")
    else:
        print(f"  setup_s      {result['setup_s']:.4f} s  (raw {result['raw_setup_s']:.4f} s, "
              f"median of {SETUP_RUNS})")
        print(f"  wall_s       {result['wall_s']:.4f} s  (raw {result['raw_wall_s']:.4f} s, "
              f"median of {result['iterations']})")
        print(f"  peak_rss_mb  {result['peak_rss_mb']:.1f} MB")
    print(f"  failed_frac  {failed / attempted:.4f} ratio  ({failed} of {attempted} operations)")
    for name, seconds in result["op_median_s"].items():
        print(f"  op {name:<20} {seconds:9.4f} s  sha256 {result['digests'].get(name, '-')}")
    for key, value in result["mix"].items():
        print(f"  mix {key}: {value}")
    for name, found in result["problems"].items():
        for problem in found:
            print(f"  FAILED {name}: {problem}")


def _line(result: dict, trace: bool) -> dict:
    if trace:
        units = {name: unit for name, unit, _, _ in tracer.PER_LAYER}
        metrics = {name: {"value": result["per_layer"][name], "unit": units[name]}
                   for name in units}
    else:
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit, _, _ in END_TO_END}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from this benchmark's tables and exit")
    parser.add_argument("--save", type=Path, default=None,
                        help="also merge the full results into this JSON file")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "ipso" / "__init__.py").is_file():
        print(f"bench: no ipso sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + TIME_LIMIT_S
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    lines, results = {}, {}
    for name in names:
        try:
            result = run_one(name, args.seed, args.seconds, bool(args.trace), deadline)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        _print_report(result, bool(args.trace))
        lines[name] = _line(result, bool(args.trace))
        results[name] = result
        if args.workload == "all":
            deadline = perf_counter() + TIME_LIMIT_S
    if args.save is not None:
        save(args.save, args.seed, args.seconds, bool(args.trace), results)
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
