"""Tests of the benchmark itself (stdlib unittest).

    python3 -m unittest discover -s bench -p "test_*.py"

They cover the percentile rule, the self-time arithmetic, the seeded
draw of homotopy pairs, the runner's aggregation, and a tiny-size pass
of each workload checked against the recorded goldens.
"""

from __future__ import annotations

import json
import sys
import unittest
from unittest import mock

import measure
import run
import workloads as wl

sys.path.insert(0, str(wl.BENCH.parent / "src"))


class TailPercentile(unittest.TestCase):
    def test_hundred_samples_give_p90(self):
        self.assertEqual(measure.tail_percentile(100), (90, 90))
        self.assertEqual(measure.tail_percentile(1000), (90, 900))

    def test_fewer_samples_lower_the_percentile(self):
        self.assertEqual(measure.tail_percentile(40), (75, 30))
        self.assertEqual(measure.tail_percentile(20), (50, 10))

    def test_too_few_samples_fall_back_to_the_median(self):
        self.assertEqual(measure.tail_percentile(5), (50, 3))
        self.assertEqual(measure.tail_percentile(1), (50, 1))

    def test_highest_percentile_with_ten_beyond(self):
        for n in range(20, 400):
            p, rank = measure.tail_percentile(n)
            self.assertGreaterEqual(n - rank, 10, n)
            if p < 90:
                self.assertLess(n - -(-(p + 1) * n // 100), 10, n)

    def test_tail_value_is_nearest_rank(self):
        samples = list(range(100, 0, -1))
        self.assertEqual(measure.tail_value(samples), (90, 90))


def span(name, start, end, parent=-1):
    return measure.Span(name, start, end, parent, -1)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            span("pass", 0.0, 10.0),
            span("a", 1.0, 3.0, 0),
            span("b", 2.0, 5.0, 0),  # overlaps a: the union counts
            span("a.inner", 1.5, 2.0, 1),
        ]
        self.assertEqual(measure.self_times(spans), [6.0, 1.5, 3.0, 0.5])

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("p", 0.0, 4.0), span("c", 3.0, 6.0, 0)]
        self.assertEqual(measure.self_times(spans), [3.0, 3.0])

    def test_totals_by_name(self):
        spans = [span("pass", 0.0, 10.0), span("a", 1.0, 2.0, 0),
                 span("a", 4.0, 6.0, 0)]
        self.assertEqual(measure.self_time_by_name(spans),
                         {"pass": 7.0, "a": 3.0})

    def test_tracer_records_parents_and_ops(self):
        tracer = measure.Tracer()
        with tracer.span("pass"):
            tracer.op = 0
            with tracer.span("x"):
                with tracer.span("y"):
                    pass
        self.assertEqual([(s.name, s.parent, s.op) for s in tracer.spans],
                         [("pass", -1, -1), ("x", 0, 0), ("y", 1, 0)])
        self.assertTrue(all(s.end >= s.start for s in tracer.spans))


def fake_pass(wall, traced=False, layers=None):
    return {"setup_s": 0.5, "setup_slowdown": 1.0,
            "wall_s": wall, "cpu_s": wall, "slowdown": 1.0,
            "op_slowdown": [1.0] * 10,
            "peak_rss_mb": 30.0, "latency_s": [wall / 10] * 10,
            "attempted": 10, "failed": 0, "traced": traced,
            "layers": layers or {}, "span_self_s": {"paths.pi1": 0.25}}


class CalibrationTest(unittest.TestCase):
    def test_samples_in_proportion_to_op_time(self):
        cal = measure.Calibration()
        cal.sample(0.0)
        self.assertEqual(cal.units, 1)
        cal.sample(0.4)  # 10% of it: about 40 ms of units
        self.assertGreaterEqual(cal.seconds, 0.04)
        self.assertGreater(cal.units, 1)
        self.assertGreater(cal.slowdown(), 0)

    def test_an_op_is_bracketed_by_the_units_around_it(self):
        cal = measure.Calibration()
        cal.after_op = [1.0, 3.0, 2.0]
        self.assertEqual(cal.op_slowdowns(), [1.0, 2.0, 2.5])

    def test_times_are_divided_by_the_slowdown(self):
        p = fake_pass(2.0, True, {"cli.import_ms": 100.0,
                                                     "cochains.classes": 7})
        p["slowdown"] = p["setup_slowdown"] = 2.0
        p["op_slowdown"] = [4.0] * 10
        self.assertEqual(run.layer_value(p, "cli.import_ms", "ms"), 50.0)
        self.assertEqual(run.layer_value(p, "paths.pi1_s", "s"), 0.125)
        self.assertEqual(run.layer_value(p, "cochains.classes", "count"), 7)
        values, _ = run.end_to_end([p], [p])
        self.assertEqual((values["wall_s"], values["setup_s"]), (1.0, 0.25))
        self.assertEqual(values["op_p50_ms"], 50.0)


class HomotopyDraw(unittest.TestCase):
    def test_allocation_is_proportional_and_exact(self):
        share = wl.allocate({"no": 40, "yes1": 35, "yes2": 25}, 30)
        self.assertEqual(share, {"no": 12, "yes1": 11, "yes2": 7})
        self.assertEqual(sum(wl.allocate({"a": 1, "b": 1, "c": 1}, 2).values()),
                         2)

    def test_draw_depends_only_on_the_seed(self):
        pool = json.loads(wl.GOLDENS.read_text())["homotopy"]
        a = wl.draw_pairs(pool, 5, 30, 0)
        self.assertEqual(a, wl.draw_pairs(pool, 5, 30, 0))
        self.assertNotEqual(a, wl.draw_pairs(pool, 6, 30, 0))
        self.assertEqual(len(a), 30 * len(pool))
        self.assertEqual(sum(e[4] == "yes" for e in a),
                         round(30 * wl.YES_SHARE) * len(pool))
        mix = lambda pairs: sorted(wl.stratum(e[4], e[5]) for e in pairs)
        self.assertEqual(mix(a), mix(wl.draw_pairs(pool, 6, 30, 1)))

    def test_passes_deal_out_each_stratum_before_repeating(self):
        pool = {"P": [["b", f"{v}{i}", "q", v, 1] for i in range(5)
                      for v in ("yes", "no")]}
        seen = [e[2] for i in range(10) for e in wl.draw_pairs(pool, 1, 3, i)
                if e[4] == "no"]  # one "no" a pass
        self.assertEqual(sorted(seen[:5]), [f"no{i}" for i in range(5)])
        self.assertEqual(seen[5:], seen[:5])


class Aggregation(unittest.TestCase):
    def test_end_to_end_medians(self):
        passes = [fake_pass(w) for w in (1.0, 2.0, 9.0)]
        values, extra = run.end_to_end(passes, passes)
        self.assertEqual(values["wall_s"], 2.0)
        self.assertEqual(values["ok_ratio"], 1.0)
        self.assertEqual(extra, {"op_samples": 30, "op_tail_percentile": 66})

    def test_setup_time_comes_from_the_set_up_runs(self):
        setups = [{"setup_s": s, "setup_slowdown": 2.0}
                  for s in (0.1, 0.2, 0.4)]
        values, _ = run.end_to_end([fake_pass(1.0)], setups)
        self.assertEqual(values["setup_s"], 0.1)

    def test_per_layer_and_overhead(self):
        spec = [{"name": "paths.pi1_s", "unit": "s"},
                {"name": "paths.pi1_ms", "unit": "ms"},
                {"name": "cochains.classes", "unit": "count"},
                {"name": "trace.overhead_s", "unit": "s"}]
        passes = [fake_pass(2.0), fake_pass(2.5, True, {
            "cochains.classes": 7})]
        values, _ = run.per_layer(passes, spec)
        self.assertEqual(values, {"paths.pi1_s": 0.25, "paths.pi1_ms": 250.0,
                                  "cochains.classes": 7,
                                  "trace.overhead_s": 0.5})


TINY = {
    "SUITE_CRITERIA": (5, 9),
    "ATLAS_CELLS": (("circle2", "z2"),),
    "HOMOTOPY_PAIRS_PER_POSET": 3,
    "CLI_INVOCATIONS": wl.CLI_INVOCATIONS[:2] + wl.CLI_INVOCATIONS[-8:-7],
}


class TinyPasses(unittest.TestCase):
    """Each workload at a tiny size, traced, against the goldens."""

    def run_tiny(self, name):
        golden = json.loads(wl.GOLDENS.read_text())
        circle2 = {"circle2": wl.atlas_posets()["circle2"]}
        with mock.patch.multiple(wl, **TINY), \
                mock.patch.object(wl, "atlas_posets", lambda: circle2):
            workload = wl.WORKLOADS[name](3, 0, golden)
            tracer = measure.Tracer()
            ops = wl.Ops(tracer)
            try:
                workload.run(ops)
                workload.verify(ops)
                layers = workload.layers(ops, tracer)
            finally:
                if hasattr(workload, "close"):
                    workload.close()
        self.assertEqual(ops.problems, {})
        self.assertGreater(len(ops.latency), 0)
        self.assertTrue(tracer.spans)
        declared = {m["name"] for m in json.loads(
            (wl.BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
        self.assertLessEqual(set(layers), declared)
        self.assertLessEqual(
            {s.name for s in tracer.spans} - {"pass", "cli.bare", "cli.import"},
            {n.rsplit("_", 1)[0] for n in declared})
        return layers

    def test_suite(self):
        self.run_tiny("suite")

    def test_atlas(self):
        layers = self.run_tiny("atlas")
        self.assertEqual(layers["cochains.cocycles"], 16)

    def test_homotopy(self):
        layers = self.run_tiny("homotopy")
        self.assertEqual(sum(v for k, v in layers.items()
                             if k.startswith("paths.verdict_")), 6)

    def test_cli(self):
        layers = self.run_tiny("cli")
        self.assertIn("cli.validate_ms", layers)
        self.assertGreater(layers["cli.import_ms"], 0)


if __name__ == "__main__":
    unittest.main()
