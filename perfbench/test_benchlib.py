"""Self-tests of the benchmark's helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import json
import math
import unittest
from pathlib import Path

import benchlib as bl

HERE = Path(__file__).resolve().parent


class PercentileChoice(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        # 1100 samples: rank 1089 leaves 11 beyond.
        self.assertEqual(bl.supported_percentile(1100, 99), 99)
        # 1000 samples: p99 leaves exactly 10 beyond.
        self.assertEqual(bl.supported_percentile(1000, 99), 99)

    def test_falls_back_to_highest_supported(self):
        # 200 samples: p99 leaves 2, p95 leaves 10.
        self.assertEqual(bl.supported_percentile(200, 99), 95)
        p = bl.supported_percentile(150, 99)
        self.assertGreaterEqual(150 - math.ceil(p / 100 * 150), 10)
        self.assertLess(150 - math.ceil((p + 0.1) / 100 * 150), 10)

    def test_too_few_samples(self):
        self.assertIsNone(bl.supported_percentile(15, 99))
        self.assertEqual(bl.supported_percentile(21, 50), 50)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(bl.percentile(values, 50), 50)
        self.assertEqual(bl.percentile(values, 99), 99)
        self.assertEqual(bl.percentile([3.0], 99), 3.0)

    def test_median(self):
        self.assertEqual(bl.median([3, 1, 2]), 2)
        self.assertEqual(bl.median([4, 1, 2, 3]), 2.5)


class Accounting(unittest.TestCase):
    def test_nested_self_time(self):
        spans = [("core.search", 0, 10, "a"), ("stats.fill", 2, 6, "a")]
        by_name, root = bl.layer_self_times(spans, 0, 12)
        self.assertEqual(by_name, {"core.search": 6, "stats.fill": 4})
        self.assertEqual(root, 2)

    def test_concurrent_leaves_share_the_instant(self):
        spans = [("circuit.transient", 0, 4, "a"),
                 ("circuit.transient", 0, 4, "b"),
                 ("soda.fabric", 2, 4, "c")]
        by_name, root = bl.layer_self_times(spans, 0, 4)
        self.assertAlmostEqual(by_name["circuit.transient"], 2 + 4 / 3)
        self.assertAlmostEqual(by_name["soda.fabric"], 2 / 3)
        self.assertEqual(root, 0)

    def test_wait_spans_yield_to_work(self):
        spans = [("service.request", 0, 10, "client"),
                 ("service.wait", 1, 9, "client"),
                 ("core.mc_eval", 2, 8, "worker")]
        by_name, root = bl.layer_self_times(spans, 0, 10)
        self.assertEqual(by_name["core.mc_eval"], 6)
        self.assertEqual(by_name["service.wait"], 2)
        self.assertEqual(by_name["service.request"], 2)
        self.assertEqual(root, 0)

    def test_sums_to_wall_with_clipping(self):
        spans = [("device.build", -5, 3, "a"), ("stats.fill", 3, 3, "a"),
                 ("unknown.layer", 4, 20, "b"), ("arch.curves", 5, 6, "a")]
        metrics = bl.self_time_metrics(spans, 0, 10e9)
        self.assertAlmostEqual(sum(metrics[n] for n in bl.SELF_TIME_METRICS),
                               10.0)
        self.assertEqual(metrics["stats.fill_s"], 0.0)

    def test_trace_events_round_trip(self):
        trace = {"traceEvents": [{"name": "soda.fabric", "ph": "X", "pid": 1,
                                  "tid": 2, "ts": 1.5, "dur": 2.0}]}
        spans = bl.load_trace_spans(trace, 100, "x/")
        self.assertEqual(spans, [("soda.fabric", 1600.0, 3600.0, "x/2")])
        back = bl.load_trace_spans(bl.trace_document(spans))
        self.assertEqual(back, [("soda.fabric", 1600.0, 3600.0, "0")])


class AccountingChecks(unittest.TestCase):
    def healthy(self, workload):
        metrics = {name: 0.0 for name in bl.PER_LAYER}
        for name in bl.EXPECTED_LAYERS[workload]:
            metrics[name] = 1.0
        metrics["unattributed_s"] = 0.05
        metrics["trace.wall_s"] = sum(metrics[n] for n in bl.SELF_TIME_METRICS)
        return metrics

    def test_healthy_runs_pass(self):
        for workload in bl.WORKLOADS:
            self.assertEqual(
                bl.accounting_problems(workload, self.healthy(workload)), [])

    def test_missing_span_fails(self):
        metrics = self.healthy("hw_sim")
        metrics["unattributed_s"] += metrics["soda.fabric_s"]
        metrics["soda.fabric_s"] = 0.0
        problems = bl.accounting_problems("hw_sim", metrics)
        self.assertEqual(len(problems), 2, problems)
        self.assertIn("unattributed_s", problems[0])
        self.assertIn("soda.fabric_s is 0", problems[1])

    def test_sum_must_match_wall(self):
        metrics = self.healthy("tables_cold")
        metrics["trace.wall_s"] += 0.5
        self.assertIn("sum to", bl.accounting_problems("tables_cold",
                                                       metrics)[0])

    def test_bypassed_layers_must_be_idle(self):
        metrics = self.healthy("service_mix")
        metrics["device.builds"] = 3
        metrics["circuit.newton_iters"] = 1
        problems = bl.accounting_problems("service_mix", metrics)
        self.assertEqual(len(problems), 2, problems)
        self.assertTrue(problems[0].startswith("circuit.newton_iters"))
        self.assertTrue(problems[1].startswith("device.builds"))
        # device.builds is expected work on the paper-table path.
        metrics = self.healthy("tables_cold")
        metrics["device.builds"] = 504
        self.assertEqual(bl.accounting_problems("tables_cold", metrics), [])

    def test_expected_layers_are_self_times(self):
        for names in bl.EXPECTED_LAYERS.values():
            for name in names:
                self.assertIn(name, bl.SELF_TIME_METRICS)


class Names(unittest.TestCase):
    def test_catalogue_names_and_units(self):
        pairs = [(n, spec[0]) for n, spec in bl.END_TO_END.items()]
        pairs += list(bl.PER_LAYER.items())
        self.assertEqual(bl.check_names(pairs), [])
        self.assertEqual(bl.check_names([("_x", "s"), ("a", "m s")]),
                         [("_x", "s"), ("a", "m s")])

    def test_benchmark_json_matches_catalogue(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(bl.WORKLOADS))
        self.assertEqual({m["name"]: (m["unit"], m["better"], m["bound"])
                          for m in spec["end_to_end"]}, bl.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         bl.PER_LAYER)
        for metric in spec["per_layer"]:
            want = "higher" if metric["name"] in bl.HIGHER_IS_BETTER else "lower"
            self.assertEqual(metric["better"], want, metric["name"])
        for metric in spec["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def test_every_span_layer_has_a_self_time_metric(self):
        for metric in bl.SPAN_LAYERS.values():
            self.assertIn(metric, bl.SELF_TIME_METRICS)


class Plan(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        a = json.dumps(bl.make_plan(7, 3000))
        self.assertEqual(a, json.dumps(bl.make_plan(7, 3000)))
        self.assertNotEqual(a, json.dumps(bl.make_plan(8, 3000)))

    def test_properties(self):
        plan = bl.make_plan(1, 2000)
        props = bl.plan_properties(plan)
        self.assertEqual(props["batch_share"], 1 / bl.BATCH_EVERY)
        self.assertGreater(props["unique_interactive_keys"], bl.CACHE_ENTRIES)
        self.assertGreater(props["repeat_share"], 0.0)
        self.assertLess(props["repeat_share"], 1.0)
        for block in range(0, 2000, bl.BATCH_EVERY):
            strata = plan[block:block + bl.BATCH_EVERY]
            self.assertEqual(sum(1 for inter, _ in strata if not inter), 1)
        batch = [t for inter, t in plan if not inter]
        # Every fifth batch request repeats one of the four before it.
        self.assertEqual(len(batch) - len(set(batch)), len(batch) // 5)

    def test_warm_keys_are_not_plan_keys(self):
        universe = set(bl.interactive_universe()) | set(bl.batch_universe())
        self.assertFalse(universe & set(bl.warm_requests()))


if __name__ == "__main__":
    unittest.main()
