#!/usr/bin/env python3
"""The repository benchmark: paper-scale Dragonfly interference cells and a
Figure 4 campaign, measured end to end (--trace 0) or per layer (--trace 1).

    python3 perfbench/run.py --workload fft3d_ur_pdes --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run it from the repository root. The first run builds the simulator library
and perfbench_cell (perfbench/CMakeLists.txt, RelAssert, the repository's
default build type) into .bench_build/perfbench. Every workload repetition
is its own perfbench_cell process, so a crash or a hang costs one
repetition, counted as failed cells, and never the run. The workloads and
the metric names and units come from BENCHMARK.json; the expected output
digests from perfbench/digests.json.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give the run metadata, the output
digest and every metric with its unit. The exit code is 0 only when every
output check passed. perfbench/README.md describes the workloads, metrics
and checks.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
THREADS = max(1, min(4, NPROC or 1))
# Iteration divisor: every app of these workloads runs one iteration, the
# smallest paper-shaped run (the 1,056-node system is kept).
SCALE = 64
# A run stops starting repetitions after --seconds and never measures for
# more than this (the build is not counted).
RUN_BUDGET_S = 170.0
BUILD_TYPE = "RelAssert"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Expected output digest per topology, workload and seed (record_digests.py).
DIGESTS_FILE = BENCH_DIR / "digests.json"

# How each workload BENCHMARK.json names is run.
WORKLOADS = {
    "fft3d_ur_pdes": {
        "mode": "cell",
        "apps": "FFT3D,UR",
        "routing": "UGALg",
    },
    "fig4_campaign": {
        "mode": "campaign",
        "plan": "fig4_campaign.cfg",
    },
}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def log(message):
    print(message, file=sys.stderr, flush=True)


BUILD_DIR = ROOT / ".bench_build" / "perfbench"


def build():
    """Configure (once) and build perfbench_cell; returns its path or None."""
    out = BUILD_DIR
    cmake = shutil.which("cmake")
    if cmake is None:
        log("perfbench: cmake not found")
        return None
    configure = [cmake, "-S", str(BENCH_DIR), "-B", str(out), f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
    if not (out / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for command in (configure,
                    [cmake, "--build", str(out), "--target", "perfbench_cell", "-j", str(NPROC)]):
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(command)}")
            return None
    return out / "perfbench_cell"


def child_env():
    """The environment without DFSIM_* overrides, so only the flags decide."""
    return {k: v for k, v in os.environ.items() if not k.startswith("DFSIM_")}


def run_child(command, timeout_s):
    """Runs one measuring process; returns (parsed output or None, error)."""
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=timeout_s,
                              env=child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout_s:.0f} s"
    if done.returncode != 0:
        how = (f"died on signal {-done.returncode}" if done.returncode < 0
               else f"exited {done.returncode}")
        tail = done.stderr.strip().splitlines()[-1:] or [""]
        return None, f"{how}: {tail[0]}"
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "printed no result"


def child_command(exe, workload, seed, tiny, workdir, trace=False, threads=THREADS):
    """perfbench_cell's command line."""
    spec = WORKLOADS[workload]
    command = [str(exe), spec["mode"], "--scale", str(SCALE), "--seed", str(seed),
               "--workdir", str(workdir)]
    if spec["mode"] == "cell":
        command += ["--apps", spec["apps"], "--routing", spec["routing"],
                    "--cell-threads", str(threads)]
    else:
        command += ["--plan", str(BENCH_DIR / spec["plan"]), "--jobs", str(threads)]
    if trace:
        command.append("--trace")
    if tiny:
        command.append("--tiny")
    return command


def cells_per_process(workload):
    """Cells one process of `workload` attempts (counted as failed if it dies)."""
    if WORKLOADS[workload]["mode"] == "cell":
        return 1
    plan = (BENCH_DIR / WORKLOADS[workload]["plan"]).read_text()
    axes = {}
    for line in plan.splitlines():
        if line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        if value:
            axes[key.strip()] = len(value.split(","))
    return axes["plan.routings"] * axes["plan.targets"] * axes["plan.backgrounds"]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def jsonl_reports(jsonl_bytes):
    """The embedded report document of every campaign JSONL line, as bytes."""
    reports = []
    for line in jsonl_bytes.splitlines():
        start = line.index(b'"report":') + len(b'"report":')
        reports.append(line[start:-1])
    return reports


def trace_equivalence_errors(trace_cells):
    """The traced cell must replay its untraced cell exactly; a difference
    means the per-layer numbers describe another simulation."""
    errors = []
    for i, cell in enumerate(trace_cells):
        untraced, traced = cell["untraced"], cell["traced"]
        for key in ("events", "makespan", "packets", "completed"):
            if traced[key] != untraced[key]:
                errors.append(f"traced cell {i}: {key} {traced[key]} != untraced {untraced[key]}")
    return errors


# --- metrics -----------------------------------------------------------------

def end_to_end_metrics(results, attempted, failed):
    metrics = {"completed_ratio": (attempted - failed) / attempted}
    if results:
        walls = [r["wall_s"] for r in results]
        metrics.update({
            "wall_s": statistics.median(walls),
            # The fastest set-up of each process: noise only adds time.
            "setup_s": statistics.median([min(r["setup_s"]) for r in results]),
            "cpu_s": statistics.median([r["cpu_s"] for r in results]),
            "peak_rss_mb": statistics.median([r["peak_rss_kb"] for r in results]) / 1024.0,
            "cells_per_s": sum(r["completed_cells"] for r in results) / sum(walls),
        })
    return metrics


def ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(result, workers):
    cells = result["trace_cells"]
    untraced = [c["untraced"] for c in cells]
    traced = [c["traced"] for c in cells]
    events = sum(u["events"] for u in untraced)
    packets = sum(u["packets"] for u in untraced)
    run_s = sum(t["run_s"] for t in traced)
    routing_busy = sum(t["routing_busy_s"] for t in traced)
    routing_calls = sum(t["routing_calls"] for t in traced)
    mpi_busy = sum(t["mpi_busy_s"] for t in traced)
    pdes_events = sum(u["events"] for u in untraced if u["pdes_domains"] > 1)
    windows = sum(u["pdes_windows"] for u in untraced)
    cell_s = [u["setup_s"] + u["run_s"] + u["report_s"] + u["json_s"] for u in untraced]
    wall = result["untraced_wall_s"]
    return {
        "sim.events": events,
        "sim.events_per_packet": ratio(events, packets),
        "sim.peak_queue_depth": max(t["peak_queue"] for t in traced),
        "sim.ns_per_event": 1e9 * ratio(result["untraced_cpu_s"], events),
        "sim.events_per_s": ratio(events, wall),
        "pdes.domains": max(u["pdes_domains"] for u in untraced),
        "pdes.windows": windows,
        "pdes.events_per_window": ratio(pdes_events, windows),
        "pdes.cross_domain_fraction": ratio(sum(u["pdes_cross_domain"] for u in untraced), events),
        "pdes.merged_events": sum(u["pdes_merged"] for u in untraced),
        "pdes.cpu_per_wall": ratio(result["untraced_cpu_s"], wall),
        "routing.calls": routing_calls,
        "routing.busy_s": routing_busy,
        "routing.ns_per_call": 1e9 * ratio(routing_busy, routing_calls),
        "routing.share": ratio(routing_busy, run_s),
        "net.packets": packets,
        "net.mean_hops": ratio(sum(u["hop_sum"] for u in untraced), packets),
        "mpi.completions": sum(t["mpi_calls"] for t in traced),
        "mpi.busy_s": mpi_busy,
        "mpi.share": ratio(mpi_busy, run_s),
        "core.blueprint_s": sum(t["blueprint_s"] for t in traced),
        "core.build_s": sum(t["build_s"] for t in traced),
        "core.report_s": sum(u["report_s"] for u in untraced),
        "core.json_s": sum(u["json_s"] for u in untraced),
        "plan.cells": len(cells),
        "plan.failed": result.get("failed_cells", 0),
        "plan.attempts": result.get("attempts", len(cells)),
        "plan.cell_s.p50": statistics.median(cell_s),
        "plan.cell_s.max": max(cell_s),
        "plan.parallel_efficiency": ratio(sum(cell_s), workers * wall),
        "trace.overhead_s": result["traced_wall_s"] - wall,
    }


# --- one workload --------------------------------------------------------------

def metadata(workload, seed, trace, tiny, build_info):
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env)
        if done.returncode == 0:
            commit = done.stdout.strip()
    mode = WORKLOADS[workload]["mode"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "scale": SCALE,
        "topology": "tiny" if tiny else "paper",
        "jobs": THREADS if mode == "campaign" else 1,
        "cell_threads": THREADS if mode == "cell" else 1,
        "host": platform.node(),
        "cpu_model": cpu_model,
        "nproc": NPROC,
        "compiler": (build_info or {}).get("compiler", "unknown"),
        "build_type": (build_info or {}).get("build_type", "unknown"),
        "assertions": (build_info or {}).get("assertions"),
        "git_commit": commit,
    }


def run_workload(exe, workload, seed, seconds, trace, tiny):
    """Runs one workload; returns a dict with the result line, its metadata,
    the output digest, the failed checks and every process's own output."""
    work_root = BUILD_DIR.parent / "work"
    start = time.monotonic()
    per_process = cells_per_process(workload)
    results, errors = [], []
    attempted = failed = 0
    digests = set()
    rep = 0
    while True:
        elapsed = time.monotonic() - start
        # Another repetition starts only if, at the mean pace so far, it
        # ends within --seconds; the first one always runs.
        if rep > 0 and (trace or elapsed * (rep + 1) / rep > seconds):
            break
        if elapsed >= RUN_BUDGET_S:
            break
        workdir = work_root / f"{workload}-{os.getpid()}-{rep}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        result, error = run_child(
            child_command(exe, workload, seed, tiny, workdir, trace),
            RUN_BUDGET_S - elapsed)
        rep += 1
        attempted += per_process
        if result is None:
            failed += per_process
            errors.append(f"{workload} process {rep}: {error}")
        else:
            results.append(result)
            rep_failed, rep_errors, digest = check_process(workload, result, workdir, trace)
            failed += rep_failed
            errors += rep_errors
            digests.add(digest)
        shutil.rmtree(workdir, ignore_errors=True)

    if len(digests) > 1:
        errors.append(f"{workload}: outputs differ between repetitions of one seed")
    digest = digests.pop() if len(digests) == 1 else None
    expected = expected_digest(workload, seed, tiny)
    if digest and expected and digest != expected:
        errors.append(f"{workload}: output digest {digest} differs from the one recorded "
                      f"for seed {seed} in {DIGESTS_FILE.name}, {expected}")
    if trace:
        workers = THREADS if WORKLOADS[workload]["mode"] == "campaign" else 1
        metrics = per_layer_metrics(results[0], workers) if results else {}
    else:
        metrics = end_to_end_metrics(results, attempted, failed)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    missing = [name for name in units if name not in metrics]
    if missing:
        errors.append(f"{workload}: no value for {', '.join(missing)}")
    line = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    build_info = results[0].get("build") if results else None
    return {"line": line, "meta": metadata(workload, seed, trace, tiny, build_info),
            "digest": digest, "digest_expected": expected, "errors": errors,
            "processes": results}


def expected_digest(workload, seed, tiny):
    """The recorded digest of this workload and seed, or None if none is."""
    recorded = json.loads(DIGESTS_FILE.read_text()) if DIGESTS_FILE.exists() else {}
    return recorded.get("tiny" if tiny else "paper", {}).get(workload, {}).get(str(seed))


def check_process(workload, result, workdir, trace):
    """Output checks for one process; returns (failed cells, errors, digest)."""
    spec = WORKLOADS[workload]
    errors = []
    if trace:
        cells = result["trace_cells"]
        errors += trace_equivalence_errors(cells)
        failed = sum(1 for c in cells if not c["untraced"]["completed"])
        domains = [c["untraced"]["pdes_domains"] for c in cells]
        reports = [(workdir / f"trace_cell_{i}.json").read_bytes() for i in range(len(cells))]
    else:
        failed = result["cells"] - result["completed_cells"]
        domains = [result.get("pdes_domains", 1)]
        reports = []
    if spec["mode"] == "campaign":
        jsonl = (workdir / "campaign.jsonl").read_bytes()
        failed = max(failed, result["cells"] - result["completed_cells"])
        if result["failed_cells"] or result["worker_errors"]:
            errors.append(f"{workload}: {result['failed_cells']} campaign cells failed")
        if trace and jsonl_reports(jsonl) != reports:
            errors.append(f"{workload}: traced pass reports differ from the campaign JSONL")
        digest = sha256(jsonl)
    else:
        digest = sha256(reports[0] if trace else (workdir / "report.json").read_bytes())
    if failed:
        errors.append(f"{workload}: {failed} cells did not complete")
    # The cell must engage the PDES engine; on one CPU it has one domain.
    if spec["mode"] == "cell" and any((d > 1) != (THREADS > 1) for d in domains):
        errors.append(f"{workload}: expected {'more than one' if THREADS > 1 else 'one'} "
                      f"PDES domain, got {domains}")
    return failed, errors, digest


def emit(outcome, raw_dir):
    """Prints the metadata, digest and metrics of one workload and keeps the
    whole outcome, with each process's output, under raw_dir."""
    meta = outcome["meta"]
    print(json.dumps({"meta": meta, "digest": outcome["digest"],
                      "digest_expected": outcome["digest_expected"]}, sort_keys=True))
    for name, metric in outcome["line"]["metrics"].items():
        print(f"# {meta['workload']:<20} {name:<28} {metric['value']:>16.6g} {metric['unit']}")
    for error in outcome["errors"]:
        log(f"perfbench: CHECK FAILED: {error}")
    raw_dir.mkdir(parents=True, exist_ok=True)
    name = f"{meta['workload']}_seed{meta['seed']}_trace{meta['trace']}.json"
    (raw_dir / name).write_text(json.dumps(outcome, indent=1))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke size: DragonflyParams::tiny() instead of the paper system")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"perfbench: no simulator sources under {ROOT / 'src'}; run from a full checkout")
        return 2
    exe = build()
    if exe is None:
        return 2

    workloads = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    lines = []
    for workload in workloads:
        outcome = run_workload(exe, workload, args.seed, args.seconds, bool(args.trace), args.tiny)
        emit(outcome, BUILD_DIR.parent / "results")
        lines.append((workload, outcome["line"]))
    if len(lines) == 1:
        final = lines[0][1]
    else:
        final = {
            "correct": all(line["correct"] for _, line in lines),
            "attempted": sum(line["attempted"] for _, line in lines),
            "failed": sum(line["failed"] for _, line in lines),
            "metrics": {f"{w}.{name}": metric
                        for w, line in lines for name, metric in line["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
