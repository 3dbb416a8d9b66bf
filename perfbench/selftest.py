"""Tests of the benchmark itself (not collected by the project's test suite).

    python3 perfbench/selftest.py

Runs every case of every workload once for two seeds and compares the
conjugation-invariant answers, checks that a wrong pinned answer and a
crashing case are counted as failures without stopping the run, that
tracing leaves every output unchanged, and that BENCHMARK.json pins the
metric names the run reports.  Takes a little over a minute.
"""

from __future__ import annotations

import json
import re
import sys
import time
import unittest

import run
import cases as cases_mod
import layers

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def build(workload: str, seed: int) -> list[dict]:
    got, note = run.fork_call(lambda: cases_mod.build(workload, seed),
                              time.perf_counter() + 120)
    assert got is not None, note
    return got


def invariant(case: dict, out: str):
    """The part of an answer that must not depend on the change of basis."""
    if case["verb"] == "analyze":
        rep = json.loads(out)
        rep["dickson"].pop("witness", None)
        return rep
    if case["verb"] == "closed_loop":
        res = json.loads(out)
        res.pop("modulus")
        return res
    return out


def run_once(cases_list, trace=False) -> run.Samples:
    return run.measure(cases_list, 0, trace, time.perf_counter() + 600)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.import_program()

    def test_answers_agree_across_seeds(self):
        for workload in cases_mod.WORKLOADS:
            with self.subTest(workload=workload):
                a, b = build(workload, 3), build(workload, 4)
                self.assertEqual([c["id"] for c in a], [c["id"] for c in b])
                outs = []
                for cs in (a, b):
                    got = []
                    for case in cs:
                        res, note = run.fork_call(
                            lambda: run.run_case(case, 0, False),
                            time.perf_counter() + 120)
                        self.assertIsNotNone(res, note)
                        self.assertEqual(cases_mod.check(case, res["rc"], res["out"]), [],
                                         case["id"])
                        got.append(invariant(case, res["out"]))
                    outs.append(got)
                for case, x, y in zip(a, *outs):
                    self.assertEqual(x, y, case["id"])
                for x, y in zip(a, b):
                    if x["inputs"][0] is not None:
                        self.assertNotEqual(x["inputs"], y["inputs"], x["id"])

    def test_wrong_pin_and_crash_are_counted(self):
        cs = build("group-lattice", 3)[:4]
        self.assertEqual(cs[2]["id"], "classify borel(F5)")
        cs[2]["expect"] = dict(cs[2]["expect"], c="1/5")
        broken = dict(cs[3], id="analyze garbage", inputs=["{not json"])
        s = run_once(cs + [broken])
        self.assertEqual(s.attempted, 5)
        self.assertEqual([f[0] for f in s.failures],
                         ["classify borel(F5)", "analyze garbage"])
        self.assertIn("c: got '1/4', expected '1/5'", s.failures[0][1])
        self.assertEqual([len(t) for t in s.times], [1, 1, 0, 1, 0])

    def test_trace_keeps_outputs_and_reports_pinned_names(self):
        cs = build("group-lattice", 5)
        cs = [c for c in cs if c["id"] in ("oracle F2", "analyze gl2(F5)")]
        cs += [c for c in build("data", 5) if c["verb"] == "closed_loop"][:1]
        s = run_once(cs, trace=True)
        self.assertEqual(s.failures, [])
        self.assertEqual(s.attempted, 2 * len(cs))
        m = layers.merge([r[0] for r in s.layers])
        self.assertGreater(m["classify.reference_builds"], 0)  # GL2(F5) -> PGL2(5)
        self.assertGreater(m["matgrp.mat_mul.calls"], 0)
        self.assertEqual(m["matgrp.enumerate_subgroups.calls"], 1)
        self.assertEqual(m["cli.main.calls"], 2)
        pinned = [e["name"] for e in SPEC["per_layer"]]
        self.assertEqual(pinned, list(layers.metric_units()) +
                         ["trace.overhead_s", "trace.overhead_share"])
        for mod, names in layers.TIMED.items():
            for name in names:
                self.assertTrue(hasattr(sys.modules[f"apcong.{mod}"], name), name)

    def test_benchmark_json_follows_the_contract(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(cases_mod.WORKLOADS))
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in SPEC[key]]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(NAME.match(n) for n in names))
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(len(w["why"]) <= 200 for w in SPEC["workloads"]))
        runs = 4 + 22 * len(SPEC["workloads"])
        self.assertLess(runs * (SPEC["run_seconds"] + 5), 3420)


if __name__ == "__main__":
    unittest.main(verbosity=2)
