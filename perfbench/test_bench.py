#!/usr/bin/env python3
"""Tests of the benchmark itself, on its smoke mode (tiny inputs).

Run from the root of the repository:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The first test to run builds the harness (a few minutes from scratch).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


# Per-layer metrics that may be 0 or negative on a correct run.
SIGNED = {
    # Differences of medians of two separate executions of the same
    # requests or programs.
    "serve.cold.session_self_ms", "serve.cold.transport_ms",
    "serve.warm.transport_ms", "trace.overhead_ms",
}
MAY_BE_ZERO = {
    # Input-dependent counts: on some (small) programs Opt II redirects
    # nothing, Opt I simplifies no must-flow-from closure and no PTA cycle
    # collapses; re-resolution only runs when something was redirected.
    "core.opt2.redirected_nodes", "core.opt2.reresolve_ms",
    "core.plan.simplified_mfcs", "analysis.pta.collapses",
}
# Always 0 on a correct run: the daemon's store is in memory, so a write
# fails only under an injected I/O fault, and that is a failed operation.
ZERO = {"serve.snapshot.write_failures"}


def run_bench(workload, seed, trace, env=None, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError("benchmark failed (%d):\n%s" %
                             (proc.returncode, proc.stderr[-4000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_metric_is_printed_with_its_unit(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                self.check_metrics(result_of(run_bench(w["name"], 1, 0)),
                                   SPEC["end_to_end"])
            with self.subTest(workload=w["name"], trace=1):
                self.check_metrics(result_of(run_bench(w["name"], 1, 1)),
                                   SPEC["per_layer"])

    def test_end_to_end_metrics_are_never_zero(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                r = result_of(run_bench(w["name"], 3, 0))
                for name, m in r["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer_metrics_are_positive_unless_signed(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                r = result_of(run_bench(w["name"], 3, 1))
                for name, m in r["metrics"].items():
                    if name in ZERO:
                        self.assertEqual(m["value"], 0, name)
                    elif name in MAY_BE_ZERO:
                        self.assertGreaterEqual(m["value"], 0, name)
                    elif name not in SIGNED:
                        self.assertGreater(m["value"], 0, name)

    def test_two_seeds_give_the_same_metric_names(self):
        a = result_of(run_bench("synth-deep", 1, 0))
        b = result_of(run_bench("synth-deep", 2, 0))
        self.assertEqual(set(a["metrics"]), set(b["metrics"]))
        a = result_of(run_bench("suite-exec", 1, 1))
        b = result_of(run_bench("suite-exec", 2, 1))
        self.assertEqual(set(a["metrics"]), set(b["metrics"]))

    def test_traced_run_writes_a_chrome_trace(self):
        result_of(run_bench("synth-deep", 7, 1))
        bdir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        path = os.path.join(ROOT, bdir, "traces", "synth-deep-seed7.json")
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        names = {e["name"] for e in events}
        for layer in ("parser", "analysis.pta", "vfg", "core.opt2",
                      "runtime.usher", "serve.call", "serve.session"):
            self.assertIn(layer, names)
        vfg = [e for e in events if e["name"] == "vfg"]
        self.assertGreater(vfg[0]["args"]["vfg.nodes"], 0)
        for e in events:
            self.assertEqual(e["ph"], "X")
            self.assertGreaterEqual(e["dur"], 0)
            parent = e["args"]["parent"]
            if parent >= 0:
                self.assertEqual(events[parent]["args"]["op"],
                                 e["args"]["op"])


class GateTest(unittest.TestCase):
    def test_injected_fault_shows_in_error_rate(self):
        env = dict(os.environ, USHER_INJECT_FAULT="opt2@0")
        proc = run_bench("synth-deep", 1, 0, env=env)
        r = result_of(proc)
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)
        self.assertLessEqual(r["failed"], r["attempted"])
        rate = [l for l in proc.stdout.splitlines()
                if l.startswith("# error_rate ")]
        self.assertEqual(len(rate), 1)
        self.assertGreater(float(rate[0].split()[2]), 0)
        # Degraded analyses and degraded serve replies are both failures.
        self.assertIn("degraded", proc.stderr)
        self.assertIn("reply DEGRADED", proc.stderr)

    def test_snapshot_write_failure_shows_in_error_rate(self):
        env = dict(os.environ, USHER_INJECT_IO_FAULT="snapshot-write@1")
        proc = run_bench("synth-deep", 1, 0, env=env)
        r = result_of(proc)
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)
        self.assertLessEqual(r["failed"], r["attempted"])
        self.assertIn("snapshot store write failed", proc.stderr)

    def test_bare_directory_fails_without_a_result(self):
        bdir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        bare = os.path.join(ROOT, bdir, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = run_bench("synth-deep", 1, 0, env=env, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
