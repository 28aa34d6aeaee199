"""Self-test of the benchmark: metrics, checks that bite, repeatable counts.

    python3 perfbench/selftest.py

Runs every workload at the tiny size, feeds the checks deliberately wrong
output, and compares the work counts of two traced runs with the same seed.
It takes about 15 s.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)


def bench(*args):
    """(exit status, stdout lines, result object) of one benchmark process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args, "--size", "tiny"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    lines = proc.stdout.splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


class TinyRuns(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                status, lines, result = bench("--workload", name, "--seed", "1",
                                              "--seconds", "0.1", "--trace", "0")
                self.assertEqual(status, 0)
                self.assertEqual(result["failed"], 0)
                self.assertTrue(result["correct"])
                self.assertIn("failed_share: 0 share", "\n".join(lines))
                self.assertEqual(set(result["metrics"]), set(run.END_TO_END_UNITS))
                for metric, unit in run.END_TO_END_UNITS.items():
                    self.assertEqual(result["metrics"][metric]["unit"], unit)
                    self.assertGreater(result["metrics"][metric]["value"], 0)
                    self.assertTrue(any(l.startswith(f"{metric}: ") and l.endswith(f" {unit}")
                                        for l in lines), metric)

    def test_work_counts_repeat_for_a_seed(self):
        units = tracer.per_layer_names()
        counted = [m for m, unit in units.items() if unit in ("count", "bytes")]
        for name in WORKLOADS:
            with self.subTest(workload=name):
                runs = [bench("--workload", name, "--seed", "5", "--seconds", "0.1",
                              "--trace", "1") for _ in range(2)]
                for status, _, result in runs:
                    self.assertEqual(status, 0)
                    self.assertEqual(set(result["metrics"]), set(units))
                first, second = ({m: r[2]["metrics"][m]["value"] for m in counted}
                                 for r in runs)
                self.assertEqual(first, second)
                self.assertGreater(sum(first.values()), 0)


class ChecksBite(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.fresh_import()

    def test_altered_reference_value_fails_one_case(self):
        workload = workloads.WORKLOADS["isolated-sweep"]
        reference = copy.deepcopy(workloads.load_reference(workload.name))
        cases = workload.make_pass(1, 0, "tiny")
        self.assertEqual(workload.run_pass(cases, reference).failed, 0)
        lhs, rhs = reference[cases[0].key]
        reference[cases[0].key] = [lhs + " + 1", rhs]
        result = workload.run_pass(workload.make_pass(1, 0, "tiny"), reference)
        self.assertEqual(result.failed, 1)
        self.assertEqual([c.key for c in result.cases if c.error], [cases[0].key])

    def test_altered_corpus_line_fails(self):
        workload = workloads.WORKLOADS["corpus-cli"]
        reference = copy.deepcopy(workloads.load_reference(workload.name))
        path, cases = workload.make_pass(1, 0, "tiny")
        template = cases[0][1]
        reference[template] = [line.replace("=", "= -", 1) for line in reference[template]]
        result = workload.run_pass((path, cases), reference)
        self.assertGreaterEqual(result.failed, 1)
        self.assertTrue(any(c.key == template and c.error for c in result.cases))

    def test_non_isolated_divisibility_case_fails(self):
        # the checked preconditions hold but w = x^2 y z is not an isolated
        # singularity, so the valuation bound is violated and the CLI exits 1
        workload = workloads.WORKLOADS["corpus-cli"]
        text = (ROOT / "tests" / "fixtures" / "violation.mflef").read_text(encoding="utf-8")
        workloads.WORK_DIR.mkdir(exist_ok=True)
        path = workloads.WORK_DIR / "selftest-violation.mflef"
        path.write_text(text, encoding="utf-8")
        template = "divisibility A minus alpha 2"
        status, stdout, _ = workload.run_document(path)
        self.assertEqual(status, 1)
        # even with the printed line itself as the reference, the verdict fails
        printed = [stdout.splitlines()[0].partition(": ")[2]]
        result = workload.run_pass((path, [("nonisolated", template)]), {template: printed})
        self.assertGreaterEqual(result.failed, 1)


class TracerPatching(unittest.TestCase):
    def test_every_binding_patched_and_restored(self):
        run.fresh_import()
        modules = {n: m for n, m in sys.modules.items() if n.startswith("mflef")}
        originals = {(n, a): getattr(m, a) for n, m in modules.items()
                     for a in ("cohomology", "graded_euler_supertrace", "run_command")
                     if hasattr(m, a)}
        self.assertIn(("mflef.lefschetz", "cohomology"), originals)
        spans = tracer.SpanTracer().install()
        try:
            for (n, a), original in originals.items():
                self.assertIsNot(getattr(modules[n], a), original, f"{n}.{a}")
        finally:
            spans.uninstall()
        for (n, a), original in originals.items():
            self.assertIs(getattr(modules[n], a), original, f"{n}.{a}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
