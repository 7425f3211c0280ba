"""Fast self-test of the benchmark harness (about 10 seconds).

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that BENCHMARK.json names every
metric the harness emits, with the same units; that short end-to-end and
traced runs emit all of them; that each workload's gate rejects a corrupted
table or reference; and that a traced run fails when a wrapper is bypassed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, ChordalSweep, CompleteCwl, RandomBetti  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def quiet_run(workload, trace: bool) -> dict:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return run.run(workload, seed=7, seconds=0, trace=trace, root=ROOT)


class BenchmarkFile(unittest.TestCase):
    def test_names_and_units_match_the_harness(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in BENCH["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in BENCH["per_layer"]],
            [(n, spans.metric_unit(n)) for n in spans.metric_names()])
        self.assertEqual({w["name"] for w in BENCH["workloads"]}, set(WORKLOADS))

    def test_every_layer_is_expected_or_idle_on_each_workload(self):
        for workload in WORKLOADS.values():
            self.assertEqual(workload.layers | workload.idle, set(spans.LAYERS),
                             workload.name)
            self.assertFalse(workload.layers & workload.idle, workload.name)


class Emission(unittest.TestCase):
    # 8 ideals reach 15 generators, so both Betti engines run
    workload = RandomBetti(count=8)

    def test_end_to_end_run_emits_every_metric_with_its_unit(self):
        result = quiet_run(self.workload, trace=False)
        self.assertTrue(result["correct"])
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            {m["name"]: m["unit"] for m in BENCH["end_to_end"]})

    def test_traced_run_emits_every_per_layer_metric_with_its_unit(self):
        result = quiet_run(self.workload, trace=True)
        self.assertTrue(result["correct"])
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            {m["name"]: m["unit"] for m in BENCH["per_layer"]})
        self.assertGreater(result["metrics"]["linalg.matrix_rank.calls"]["value"], 0)

    def test_bypassed_wrapper_fails_the_traced_run(self):
        install = spans.Tracer.install

        def install_then_bypass(tracer, package):
            install(tracer, package)
            # a caller that reaches the engine under a name the tracer missed
            package.resolution.koszul_betti = package.resolution.koszul_betti.__wrapped__

        spans.Tracer.install = install_then_bypass
        try:
            result = quiet_run(self.workload, trace=True)
        finally:
            spans.Tracer.install = install
        self.assertFalse(result["correct"])


class Gates(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.package = run.import_package(ROOT / "src")

    def test_random_betti_rejects_a_wrong_table_or_reference(self):
        workload = RandomBetti(count=4)
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            items = workload.build(3, Path(tmp))
            workload.write_inputs()
            outputs = [run.run_item(self.package.cli.main, argv)[1] for argv in items]
        self.assertEqual(workload.check(items, outputs), {})
        table = json.loads(outputs[1])
        table["multigraded"][-1][2] += 1
        bad = outputs[:1] + [json.dumps(table), ""] + outputs[3:]
        self.assertEqual(set(workload.check(items, bad)), {1, 2})
        workload.gens[2] = workload.gens[2][1:]
        self.assertEqual(set(workload.check(items, outputs)), {2})

    def test_chordal_sweep_rejects_a_wrong_reference_or_verdict(self):
        workload = ChordalSweep()
        items = workload.build(0, HERE)
        good = workload.reference
        self.assertEqual(workload.check(items, [good]), {})
        rows = good.splitlines()
        k = next(i for i, row in enumerate(rows) if '"cwl": false' in row)
        rows[k] = rows[k].replace('"cwl": false', '"cwl": true')
        flipped = "\n".join(rows) + "\n"
        self.assertEqual(set(workload.check(items, [flipped])), {0})
        workload.reference = flipped  # a corrupted expected file
        self.assertEqual(set(workload.check(items, [good])), {0})
        self.assertEqual(set(workload.check(items, [flipped])), {0})

    def test_complete_cwl_rejects_a_wrong_verdict_or_certificate(self):
        workload = CompleteCwl()
        items = workload.build(0, HERE)
        order = [str(m) for m in self.package.knt_closed_form(5, 3).generators]
        report = {"overall": True, "certificate": order,
                  "per_degree": [{"degree": d, "verdict": "linear"} for d in range(9, 13)]}
        self.assertEqual(workload.check(items, [json.dumps(report)]), {})
        wrong = [
            dict(report, certificate=order[-1:] + order[:-1]),
            dict(report, certificate=order[1:]),
            dict(report, per_degree=report["per_degree"][:3]
                 + [{"degree": 12, "verdict": "not linear"}]),
        ]
        for bad in wrong:
            self.assertEqual(set(workload.check(items, [json.dumps(bad)])), {0}, bad)


if __name__ == "__main__":
    unittest.main()
