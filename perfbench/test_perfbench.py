#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/test_perfbench.py

Runs every workload once at smoke size (DragonflyParams::tiny()), traced and
untraced, and checks that each metric BENCHMARK.json names is printed with
its unit. It also checks the failure paths: a traced cell that does not
replay its untraced cell is rejected, an output that differs from its
recorded digest is rejected, a measuring process that dies is counted as
failed cells without ending the run, and a directory holding only the
benchmark's own files makes the benchmark exit non-zero without a result.
It builds perfbench_cell like run.py does, on first use.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = run.SPEC
SCRATCH = run.BUILD_DIR.parent / "selftest"


def run_benchmark(*args, cwd=run.ROOT):
    command = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(command, capture_output=True, text=True, cwd=cwd, timeout=900)


class SmokeTest(unittest.TestCase):
    def check_metrics(self, trace, declared):
        for workload in SPEC["workloads"]:
            name = workload["name"]
            with self.subTest(workload=name, trace=trace):
                done = run_benchmark("--workload", name, "--seed", "7", "--seconds", "1",
                                     "--trace", str(trace), "--tiny")
                self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                line = json.loads(done.stdout.strip().splitlines()[-1])
                self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(line["correct"])
                self.assertGreaterEqual(line["attempted"], 1)
                self.assertEqual(line["failed"], 0)
                self.assertEqual(set(line["metrics"]), {m["name"] for m in declared})
                for metric in declared:
                    emitted = line["metrics"][metric["name"]]
                    self.assertEqual(emitted["unit"], metric["unit"], metric["name"])
                    self.assertIsInstance(emitted["value"], (int, float), metric["name"])

    def test_end_to_end_metrics_emitted_with_units(self):
        self.check_metrics(0, SPEC["end_to_end"])

    def test_per_layer_metrics_emitted_with_units(self):
        self.check_metrics(1, SPEC["per_layer"])


class FailurePathTest(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        SCRATCH.mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_equivalence_check_rejects_mismatched_event_count(self):
        cell = {"events": 1000, "makespan": 5, "packets": 10, "completed": True}
        self.assertEqual(run.trace_equivalence_errors([{"untraced": cell, "traced": dict(cell)}]),
                         [])
        errors = run.trace_equivalence_errors(
            [{"untraced": cell, "traced": dict(cell, events=999)}])
        self.assertEqual(len(errors), 1)
        self.assertIn("events", errors[0])

    def test_digest_check_rejects_changed_output(self):
        recorded = json.loads(run.DIGESTS_FILE.read_text())
        self.assertIn("7", recorded["tiny"]["fft3d_ur_pdes"])
        recorded["tiny"]["fft3d_ur_pdes"]["7"] = "0" * 64
        wrong = SCRATCH / "digests.json"
        wrong.write_text(json.dumps(recorded))
        exe = run.build()
        self.assertIsNotNone(exe)
        saved, run.DIGESTS_FILE = run.DIGESTS_FILE, wrong
        try:
            outcome = run.run_workload(exe, "fft3d_ur_pdes", 7, 0.1, False, True)
        finally:
            run.DIGESTS_FILE = saved
        self.assertFalse(outcome["line"]["correct"])
        self.assertTrue(any("differs from the one recorded" in e for e in outcome["errors"]),
                        outcome["errors"])

    def test_dying_process_is_counted_not_fatal(self):
        crash = SCRATCH / "crash.sh"
        crash.write_text("#!/bin/sh\nkill -SEGV $$\n")
        crash.chmod(0o755)
        for workload in run.WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                outcome = run.run_workload(crash, workload, 1, 0.1, False, True)
                line, errors = outcome["line"], outcome["errors"]
                self.assertFalse(line["correct"])
                self.assertGreaterEqual(line["attempted"], 1)
                self.assertEqual(line["failed"], line["attempted"])
                self.assertEqual(line["metrics"]["completed_ratio"]["value"], 0.0)
                self.assertIsNone(outcome["digest"])
                self.assertTrue(any("signal 11" in e for e in errors), errors)

    def test_benchmark_files_alone_exit_nonzero_without_result(self):
        shutil.copy(run.ROOT / "BENCHMARK.json", SCRATCH)
        shutil.copytree(run.BENCH_DIR, SCRATCH / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_benchmark("--workload", "fft3d_ur_pdes", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=SCRATCH)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
