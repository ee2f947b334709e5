"""Tests of the benchmark's own helpers (no build needed).

    python3 -m unittest discover -s scbench -p 'test_*.py'
"""

import json
import math
import os
import random
import unittest

import bench

INF = math.inf


def fake_raw(plan, seed):
    """A raw driver record shaped like driver.cc's, with made-up
    measurements drawn from @p seed."""
    rng = random.Random(seed)
    w = plan["config"]
    profile = {span: {"count": 10, "total_ns": rng.randint(1, 10**7)}
               for span in list(bench.PHASE_SPANS.values()) +
               ["batch_compute"]}
    if w["mode"] == "offline":
        rows = [[rng.uniform(250, 350), w["batch"], w["batch"] - 1,
                 w["batch"] * w["len"]] for _ in plan["batches"]]
    else:
        rows = []
        for t, _, cls, deadline_ms in plan["requests"]:
            queue = rng.uniform(0, 20)
            rows.append([t * 1e3, rng.uniform(0, 1), rng.uniform(2, 20),
                         cls, 0, 1, queue, queue + rng.uniform(1, 30),
                         64, 1, 0, 1, 1, cls, 1 if deadline_ms else 0])
    serve = {"batches": len(rows), "batch_images": len(rows),
             "batch_kernel": 1, "rejected": 0, "shed": 0, "cancelled": 0,
             "unavailable": 0,
             "by_mode": {"fused": 1, "reference": 0, "progressive": 1,
                         "binary": 1},
             "close": {"full": 1, "timeout": 1, "expedited": 0,
                       "drain": 0}}
    p = {"traced": 0, "wall_s": plan["seconds"], "cpu_s": 1.0,
         "checked": 1, "mismatches": 0, "unexpected": 0, "rows": rows,
         "serve": serve, "profile": profile}
    return {"simd": "avx2", "compiler": "x", "assertions": "off",
            "threads": 4, "peak_rss_mb": 80.0, "install_s": [1.0, 1.1],
            "engine_build_s": [0.9], "passes": [p, dict(p, traced=1)]}


class TailTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        values = list(range(1, 401))  # 1..400
        value, pct, n = bench.tail(values)
        self.assertEqual(n, 400)
        self.assertEqual(value, 390)  # 391..400 lie beyond it
        self.assertAlmostEqual(pct, 97.5)
        self.assertEqual(sum(v > value for v in values),
                         bench.TAIL_BEYOND)

    def test_smallest_sample_with_a_tail(self):
        value, pct, n = bench.tail(list(range(11)))
        self.assertEqual((value, n), (0, 11))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_too_few_samples_gives_the_maximum(self):
        self.assertEqual(bench.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))
        self.assertEqual(bench.tail([]), (0.0, 0.0, 0))

    def test_order_does_not_matter(self):
        values = [random.Random(7).random() for _ in range(100)]
        self.assertEqual(bench.tail(values), bench.tail(sorted(values)))

    def test_failures_as_infinite_push_the_tail_out(self):
        lats = [10.0] * 100 + [INF] * 11
        self.assertEqual(bench.tail(lats)[0], INF)
        self.assertEqual(bench.tail(lats[:-1])[0], 10.0)


class LadderTest(unittest.TestCase):
    LIMIT = 100.0

    def test_flat_rung_has_no_growing_backlog(self):
        self.assertFalse(bench.backlog_growing([20.0, 25.0] * 50,
                                               self.LIMIT))

    def test_rising_latency_is_a_growing_backlog(self):
        lats = [10.0 + i for i in range(100)]  # +1 ms per request
        self.assertTrue(bench.backlog_growing(lats, self.LIMIT))

    def test_failures_taking_over_count_as_growth(self):
        self.assertTrue(bench.backlog_growing([10.0] * 50 + [INF] * 50,
                                              self.LIMIT))
        self.assertFalse(bench.backlog_growing([INF] * 100, self.LIMIT))

    def test_max_rate_is_the_last_passing_rung(self):
        ok = [20.0] * 100
        slow = [20.0] * 80 + [150.0] * 20
        rungs = [(50.0, ok), (100.0, ok), (150.0, slow), (200.0, slow)]
        self.assertEqual(bench.max_rate(rungs, self.LIMIT), 100.0)

    def test_every_rung_passing_gives_the_top_rate(self):
        rungs = [(r, [30.0] * 100) for r in (50.0, 100.0, 150.0)]
        self.assertEqual(bench.max_rate(rungs, self.LIMIT), 150.0)

    def test_lowest_rung_failing_gives_zero(self):
        rungs = [(50.0, [30.0] * 50 + [INF] * 50), (100.0, [30.0] * 100)]
        self.assertEqual(bench.max_rate(rungs, self.LIMIT), 0.0)

    def test_a_pass_above_a_failure_does_not_count(self):
        growing = [10.0 + 2 * i for i in range(40)]
        rungs = [(50.0, [30.0] * 100), (100.0, growing),
                 (150.0, [30.0] * 100)]
        self.assertEqual(bench.max_rate(rungs, self.LIMIT), 50.0)

    def test_a_few_failures_stay_within_the_tail(self):
        lats = [30.0] * 200 + [INF] * bench.TAIL_BEYOND
        self.assertTrue(bench.rung_passes(lats, self.LIMIT))
        self.assertFalse(bench.rung_passes(lats + [INF], self.LIMIT))


class ServiceTest(unittest.TestCase):
    @staticmethod
    def rows(high, balanced, fast):
        return [{"cls": cls, "queue_ms": 2.0, "total_ms": 2.0 + ms}
                for cls, values in ((bench.HIGH, high),
                                    (bench.BALANCED, balanced),
                                    (bench.FAST, fast))
                for ms in values]

    def test_geometric_mean_of_class_medians(self):
        rows = self.rows([30.0, 31.0, 29.0], [16.0, 30.0, 20.0], [0.3])
        self.assertAlmostEqual(bench.service_ms(rows),
                               (30.0 * 20.0 * 0.3) ** (1 / 3))

    def test_a_cheap_class_counts_as_much_as_a_dear_one(self):
        base = bench.service_ms(self.rows([30.0], [20.0], [0.3]))
        slow_fast = bench.service_ms(self.rows([30.0], [20.0], [0.6]))
        slow_high = bench.service_ms(self.rows([60.0], [20.0], [0.3]))
        self.assertAlmostEqual(slow_fast / base, 2 ** (1 / 3))
        self.assertAlmostEqual(slow_high / base, 2 ** (1 / 3))

    def test_no_answers(self):
        self.assertEqual(bench.service_ms([]), 0.0)


class SeedTest(unittest.TestCase):
    def test_seed_changes_inputs_not_metric_names_or_units(self):
        for workload in bench.WORKLOADS:
            a = bench.make_plan(workload, 1, 4)
            b = bench.make_plan(workload, 2, 4)
            self.assertNotEqual(bench.plan_text(a), bench.plan_text(b),
                                workload)
            self.assertEqual(a["config"], b["config"])
            e2e = [bench.end_to_end(p, fake_raw(p, s), fake_raw(p, s)
                                    ["passes"][0])[0]
                   for p, s in ((a, 1), (b, 2))]
            layers = [bench.per_layer(p, r, r["passes"][1], r["passes"][0],
                                      4)
                      for p, r in ((a, fake_raw(a, 1)),
                                   (b, fake_raw(b, 2)))]
            self.assertEqual(set(e2e[0]), set(e2e[1]))
            self.assertTrue(set(bench.END_TO_END) <= set(e2e[0]))
            self.assertEqual(set(layers[0]), set(bench.PER_LAYER))
            self.assertEqual(set(layers[1]), set(bench.PER_LAYER))

    def test_same_seed_same_inputs(self):
        for workload in bench.WORKLOADS:
            self.assertEqual(
                bench.plan_text(bench.make_plan(workload, 9, 4)),
                bench.plan_text(bench.make_plan(workload, 9, 4)))

    def test_offered_load_is_fixed_by_the_workload(self):
        w = bench.WORKLOADS["serve_steady"]
        for seed in (1, 2, 3):
            plan = bench.make_plan("serve_steady", seed, 10)
            self.assertEqual(len(plan["requests"]), round(w["rate"] * 10))
            self.assertTrue(all(0 <= r[0] < 10 for r in plan["requests"]))
            classes = [r[2] for r in plan["requests"]]
            self.assertEqual(classes.count(bench.HIGH),
                             round(len(classes) * w["mix"][bench.HIGH]))

    def test_inputs_stay_inside_the_test_set(self):
        for workload in bench.WORKLOADS:
            plan = bench.make_plan(workload, 3, 4)
            idx = [i for _, batch in plan.get("batches", [])
                   for i in batch] + \
                [r[1] for r in plan.get("requests", [])]
            self.assertTrue(idx)
            self.assertTrue(all(0 <= i < bench.TEST_IMAGES for i in idx))


class BenchmarkJsonTest(unittest.TestCase):
    def test_matches_the_metric_tables(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "..", "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        listed = [w["name"] for w in spec["workloads"]]
        self.assertTrue(listed)
        self.assertTrue(set(listed) <= set(bench.WORKLOADS), listed)
        for key, table in (("end_to_end", bench.END_TO_END),
                           ("per_layer", bench.PER_LAYER)):
            self.assertEqual(
                {m["name"]: (m["unit"], m["better"]) for m in spec[key]},
                table, key)


if __name__ == "__main__":
    unittest.main()
