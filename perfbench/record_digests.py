#!/usr/bin/env python3
"""Records the expected output digest of every workload for a range of seeds
in perfbench/digests.json. run.py fails a run whose digest differs from the
recorded one, so a change that alters the simulated output shows.

    python3 perfbench/record_digests.py --seeds 0-31 [--tiny]

Run it from the repository root after a change that alters the simulated
output on purpose, and commit digests.json with that change. A digest does
not depend on the thread count, so each process runs on one thread and
min(4, nproc) of them run side by side.
"""

import argparse
import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def record(exe, workload, seed, tiny):
    """Runs one workload at one seed; returns (digest, None) or (None, error)."""
    workdir = run.BUILD_DIR.parent / "digests" / f"{workload}-{seed}-{int(tiny)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    command = run.child_command(exe, workload, seed, tiny, workdir, threads=1)
    result, error = run.run_child(command, 900)
    try:
        if result is None:
            return None, error
        if result["completed_cells"] != result["cells"]:
            return None, f"{result['cells'] - result['completed_cells']} cells did not complete"
        output = "campaign.jsonl" if run.WORKLOADS[workload]["mode"] == "campaign" else "report.json"
        return run.sha256((workdir / output).read_bytes()), None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 0-31")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke size: DragonflyParams::tiny() instead of the paper system")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    exe = run.build()
    if exe is None:
        return 2
    jobs = [(w, s) for w in run.WORKLOAD_NAMES for s in seeds]
    with ThreadPoolExecutor(max_workers=run.THREADS) as pool:
        outcomes = list(pool.map(lambda job: record(exe, job[0], job[1], args.tiny), jobs))

    recorded = json.loads(run.DIGESTS_FILE.read_text()) if run.DIGESTS_FILE.exists() else {}
    topology = recorded.setdefault("tiny" if args.tiny else "paper", {})
    failures = 0
    for (workload, seed), (digest, error) in zip(jobs, outcomes):
        if digest is None:
            failures += 1
            run.log(f"record_digests: {workload} seed {seed}: {error}")
            continue
        topology.setdefault(workload, {})[str(seed)] = digest
    for workload, by_seed in topology.items():
        topology[workload] = dict(sorted(by_seed.items(), key=lambda item: int(item[0])))
    run.DIGESTS_FILE.write_text(json.dumps(recorded, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
