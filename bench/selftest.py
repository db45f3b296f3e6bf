"""Self-test of the benchmark harness: its arithmetic and its inputs.

    python3 bench/selftest.py

Checks the percentile and sample-count rule, self time on a synthetic span
tree, fail_ratio over raising and failing instances, that a search verdict
other than the known one fails, and that two processes with different
PYTHONHASHSEED values generate the same instances.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(run.percentile(values, 0.5), 50.0)
        self.assertEqual(run.percentile(values, 0.9), 90.0)
        self.assertEqual(run.percentile([7.0], 0.9), 7.0)
        self.assertEqual(run.percentile([1.0, 2.0], 0.5), 1.0)
        with self.assertRaises(ValueError):
            run.percentile([], 0.5)

    def test_sample_count_rule(self):
        # MIN_POOL distinct samples leave at least ten beyond the p90
        values = [float(v) for v in range(run.MIN_POOL)]
        self.assertGreaterEqual(run.beyond(values, 0.9), 10)
        # fewer samples would not
        self.assertLess(run.beyond(values[:99], 0.9), 10)


class SelfTime(unittest.TestCase):
    def test_nested_and_sibling_children(self):
        # root [0,10]; children a [1,4] and b [5,9]; a has child c [2,3];
        # b has 1 s of leaf time; d [9.5,12] sticks out of root and is clipped
        names = ["root", "a", "b", "c", "d"]
        name = [0, 1, 2, 3, 4]
        parent = [-1, 0, 0, 1, 0]
        start = [0.0, 1.0, 5.0, 2.0, 9.5]
        end = [10.0, 4.0, 9.0, 3.0, 12.0]
        leaf = [0.0, 0.0, 1.0, 0.0, 0.0]
        totals = spans.span_totals(names, name, parent, start, end, leaf)
        self.assertAlmostEqual(totals["root"][1], 10 - 3 - 4 - 0.5)
        self.assertAlmostEqual(totals["a"][1], 3 - 1)
        self.assertAlmostEqual(totals["b"][1], 4 - 1)
        self.assertAlmostEqual(totals["c"][1], 1)
        self.assertAlmostEqual(totals["d"][1], 2.5)
        self.assertEqual(totals["root"][2], 10.0)

    def test_same_name_spans_add_up(self):
        names = ["f"]
        totals = spans.span_totals(
            names, [0, 0, 0], [-1, 0, -1], [0.0, 1.0, 5.0], [4.0, 2.0, 6.0], [0.0] * 3
        )
        self.assertEqual(totals["f"][0], 3)
        self.assertAlmostEqual(totals["f"][1], 3 + 1 + 1)

    def test_tracer_records_parents(self):
        tracer = spans.Tracer()
        outer = tracer.open(tracer.name_id("outer"))
        inner = tracer.open(tracer.name_id("inner"))
        tracer.charge_leaf(0.0)
        tracer.close(inner)
        tracer.close(outer)
        self.assertEqual(list(tracer.parent), [-1, outer])
        totals = tracer.totals()
        self.assertLessEqual(totals["outer"][1], totals["outer"][2])


class _Fake:
    def __init__(self, stratum, run_fn, verify_fn):
        self.stratum, self.run, self.verify, self.inputs = stratum, run_fn, verify_fn, ""


def _raise():
    raise ValueError("boom")


class FailRatio(unittest.TestCase):
    def test_exceptions_and_failed_checks_count(self):
        ok = _Fake("ok", lambda: 1, lambda out: ([], "1"))
        raising = _Fake("raises", _raise, lambda out: ([], ""))
        failing = _Fake("fails", lambda: 2, lambda out: (["postcondition"], "2"))
        bad_check = _Fake("check-raises", lambda: 3, lambda out: _raise())
        outcome = run.Outcome()
        for i, inst in enumerate((ok, raising, failing, bad_check, ok)):
            run.run_instance(inst, i, outcome)
        self.assertEqual(outcome.attempted, 5)
        self.assertEqual(outcome.failed, 3)
        self.assertAlmostEqual(run.fail_ratio(outcome.attempted, outcome.failed), 0.6)
        self.assertEqual(run.fail_ratio(0, 0), 0.0)

    def test_median_pass_per_instance(self):
        outcome = run.Outcome()
        for seconds in (0.3, 0.1, 0.2):
            outcome.record(0, "a", seconds, [])
        outcome.record(1, "b", 0.4, ["bad"])
        self.assertEqual(outcome.latencies(), {0: 0.2, 1: 0.4})
        self.assertAlmostEqual(outcome.ops_per_s(), 2 / 0.6)
        self.assertEqual((outcome.attempted, outcome.failed), (4, 1))


class KnownVerdicts(unittest.TestCase):
    def test_search_verdict_must_match(self):
        import workloads
        from fullshift.sft import canonicalize_clopen
        from fullshift.tables import TableMap

        m = workloads.matrix("FULL2")
        region = canonicalize_clopen(m, [(1,)])

        def inst(expect):
            return workloads._search_instance("s", m, 2, 5, expect, region=region, order=2)

        swap = workloads.cons.cylinder_swap(m, (1, 1), (1, 2))  # order 2, inside U_1
        self.assertEqual(inst("exhaust").verify(None)[0], [])
        self.assertEqual(inst("hit").verify(swap)[0], [])
        self.assertEqual(len(inst("hit").verify(None)[0]), 1)  # a missed witness
        # a witness where the search is known to exhaust fails, even a valid one
        self.assertEqual(len(inst("exhaust").verify(swap)[0]), 1)
        self.assertEqual(len(inst("hit").verify(TableMap.identity(m))[0]), 1)  # order 1


_DIGEST = """
import hashlib, sys
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
for name in workloads.WORKLOADS:
    h = hashlib.sha256()
    for inst in workloads.iter_pool(name, 7, {tmp!r}):
        h.update(f"{{inst.stratum}}\\n{{inst.inputs}}".encode())
    print(name, h.hexdigest())
"""


class StableInputs(unittest.TestCase):
    def test_instances_do_not_depend_on_hash_seed(self):
        workdir = ROOT / ".bench_tmp"
        workdir.mkdir(exist_ok=True)
        outputs = []
        for hash_seed in ("1", "2"):
            with tempfile.TemporaryDirectory(dir=workdir) as tmp:
                code = _DIGEST.format(src=str(ROOT / "src"), bench=str(BENCH_DIR), tmp=tmp)
                env = dict(os.environ, PYTHONHASHSEED=hash_seed)
                proc = subprocess.run(
                    [sys.executable, "-c", code], env=env, capture_output=True, text=True,
                    timeout=170,
                )
                self.assertEqual(proc.returncode, 0, proc.stderr)
                outputs.append(proc.stdout.replace(tmp, "<tmp>"))
        self.assertEqual(len(outputs[0].splitlines()), 4)
        self.assertEqual(outputs[0], outputs[1])


if __name__ == "__main__":
    unittest.main()
