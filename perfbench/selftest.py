"""Self-tests of the benchmark harness: output checks count tampered
outputs as failures, and the tracer computes self time correctly.

    python3 perfbench/selftest.py
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import rmfperc.analytic  # noqa: E402
import rmfperc.cli  # noqa: E402

import checks  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import Job  # noqa: E402

SWEEP = ("tree-sim", "--m", "2", "--offspring", "deterministic", "--grid", "0.14:0.30:0.01",
         "--horizon", "50", "--cap", "1000", "--replicas", "200", "--seed", "7")


class ReplayCli:
    """Stands in for rmfperc.cli: each call writes the next scripted
    (exit code, payload)."""

    def __init__(self, *outputs):
        self.outputs = list(outputs)

    def main(self, argv):
        code, payload = self.outputs.pop(0)
        sys.stdout.buffer.write(payload)
        return code


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with tempfile.TemporaryDirectory() as work:
            runner = run.Runner(rmfperc.cli, [], Path(work))
            error, cls.good = runner._run(Job(SWEEP, checks.TreeSweep(m=2)))
        if error is not None:
            raise RuntimeError(error)

    def failures(self, *outputs):
        with tempfile.TemporaryDirectory() as work:
            runner = run.Runner(ReplayCli(*outputs), [Job(SWEEP, checks.TreeSweep(m=2))], Path(work))
            for _ in outputs:
                runner.run_pass()
        return runner.attempted, runner.failures

    def tampered(self) -> bytes:
        doc = json.loads(self.good)
        rows = doc["rows"]
        i = next(i for i in range(1, len(rows)) if rows[i]["survival"] > rows[i - 1]["survival"])
        rows[i - 1]["survival"], rows[i]["survival"] = rows[i]["survival"], rows[i - 1]["survival"]
        return json.dumps(doc).encode()

    def test_real_output_passes(self):
        self.assertEqual(self.failures((0, self.good), (0, self.good)), (2, []))

    def test_survival_decreasing_in_theta_fails(self):
        attempted, failures = self.failures((0, self.tampered()))
        self.assertEqual(attempted, 1)
        self.assertEqual(len(failures), 1)
        self.assertIn("survival decreases", failures[0])

    def test_schema_violation_fails(self):
        doc = json.loads(self.good)
        doc["replicas"] = "many"
        _, failures = self.failures((0, json.dumps(doc).encode()))
        self.assertIn("schema", failures[0])

    def test_nonzero_exit_fails(self):
        _, failures = self.failures((2, b""))
        self.assertIn("exit code 2", failures[0])

    def test_output_change_between_passes_fails(self):
        changed = self.good.replace(b'"seed": 7', b'"seed": 8')
        attempted, failures = self.failures((0, self.good), (0, changed))
        self.assertEqual(attempted, 2)
        self.assertEqual(len(failures), 1)
        self.assertIn("differs", failures[0])


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class SelfTime(unittest.TestCase):
    def test_nested_spans_and_leaves(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock=clock)

        def leaf():
            clock.t += 5

        def inner():
            clock.t += 3
            leaf()

        def outer():
            clock.t += 1
            inner()
            clock.t += 2
            inner()
            leaf()
            clock.t += 1

        # names under "core." are hot leaves: counted, never spans
        leaf = tracer.wrap(leaf, "core.leaf")
        inner = tracer.wrap(inner, "demo.inner")
        outer = tracer.wrap(outer, "demo.outer")
        tracer.job = 4
        outer()

        stats = tracer.stats
        self.assertEqual((stats["demo.outer"].total_s, stats["demo.outer"].self_s), (25, 4))
        self.assertEqual((stats["demo.inner"].calls, stats["demo.inner"].total_s, stats["demo.inner"].self_s), (2, 16, 6))
        self.assertEqual((stats["core.leaf"].calls, stats["core.leaf"].self_s), (3, 15))
        spans = [s.as_dict() for s in tracer.spans]
        self.assertEqual(
            spans,
            [
                {"id": 0, "name": "demo.outer", "start": 0, "end": 25, "parent": None, "job": 4, "self_s": 4},
                {"id": 1, "name": "demo.inner", "start": 1, "end": 9, "parent": 0, "job": 4, "self_s": 3},
                {"id": 2, "name": "demo.inner", "start": 11, "end": 19, "parent": 0, "job": 4, "self_s": 3},
            ],
        )

    def test_wraps_rebound_names_and_restores_them(self):
        original = rmfperc.analytic.m_critical
        with tracing.Tracer() as tracer:
            self.assertIsNot(rmfperc.cli.m_critical, original)
            self.assertIs(rmfperc.cli.m_critical, rmfperc.analytic.m_critical)
            rmfperc.cli.m_critical(0.75)
        self.assertIs(rmfperc.cli.m_critical, original)
        self.assertIs(rmfperc.analytic.m_critical, original)
        self.assertEqual(tracer.stats["analytic.m_critical"].calls, 1)

    def test_layer_metrics_match_benchmark_json(self):
        declared = set(run.declared_units(1))
        computed = set(tracing.layer_metrics(tracing.Tracer(), [], 0))
        setup = {f"setup.import.{label}_s" for label, _ in probe.IMPORTS}
        self.assertEqual(computed | setup | {"setup.import_s", "trace.overhead_s"}, declared)


if __name__ == "__main__":
    unittest.main()
