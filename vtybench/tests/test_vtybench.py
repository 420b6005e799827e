"""Tests of the benchmark itself: its reference checks, its tracer, its records.

    python3 -m unittest discover -s vtybench/tests

Run from the root of a vty checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH_DIR.parent


def _scratch(name: str) -> Path:
    path = run.WORK_DIR / f"test-{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _one_round(name: str, workdir: Path, seed: int = 5):
    workload = workloads.WORKLOADS[name]
    return workload, workloads.generate(workload, seed, len(workload.shapes), workdir)


def _rewrite_result(answer, step: int, change):
    """The answer with the JSON report of one step edited by ``change``."""
    steps = list(answer)
    code, text = steps[step]
    report = json.loads(text)
    change(report["result"])
    steps[step] = (code, json.dumps(report))
    return tuple(steps)


def _drop_formula(result):
    result["formulas"] = result["formulas"][1:]
    result["count"] -= 1


def _flip_irreducible(result):
    result["irreducible"] = "YES" if result["irreducible"] == "NO" else "NO"


def _forget_pair(result):
    result["consistency"]["minimal_inconsistent_sets"] = []


# one plausible wrong answer per workload: (step, edit)
CORRUPTIONS = {
    "proofs": lambda answer: _rewrite_result(answer, 0, _drop_formula),
    "subsets": lambda answer: _rewrite_result(answer, 1, _flip_irreducible),
    "knowledge": lambda answer: _rewrite_result(answer, 0, _forget_pair),
    "machines": lambda answer: answer[:2] + ((0, ("HALT", answer[2][1][1], answer[2][1][2] + 1)),),
}


class ReferenceTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        session.check_checkout()

    def setUp(self):
        self.workdir = _scratch("reference")
        self.addCleanup(shutil.rmtree, self.workdir, True)

    def test_one_corrupted_answer_makes_error_rate_nonzero(self):
        for name, corrupt in CORRUPTIONS.items():
            with self.subTest(workload=name):
                workload, requests = _one_round(name, self.workdir)
                sess = session.Session()
                sess.load_packaged(workload.packaged)
                answers: list = []
                run.timed_pass(sess, requests, answers)
                self.assertEqual(run.check_answers(requests, answers), [])
                answers[-1] = corrupt(answers[-1])
                failures = run.check_answers(requests, answers)
                self.assertEqual([index for index, _ in failures], [len(requests) - 1])

    def test_a_request_that_raises_fails(self):
        _, requests = _one_round("machines", self.workdir)
        answers = [RuntimeError("boom")] * len(requests)
        self.assertEqual(len(run.check_answers(requests, answers)), len(requests))

    def test_a_pass_that_answers_differently_fails(self):
        workload, requests = _one_round("machines", self.workdir)
        sess = session.Session()
        sess.load_packaged(workload.packaged)
        answers: list = []
        run.timed_pass(sess, requests, answers)
        answers[0] = CORRUPTIONS["machines"](answers[0])
        run.timed_pass(sess, requests, answers)
        self.assertIsInstance(answers[0], RuntimeError)

    def test_same_seed_same_inputs(self):
        texts = []
        for copy in ("a", "b"):
            workdir = self.workdir / copy
            workdir.mkdir()
            _, requests = _one_round("knowledge", workdir)
            texts.append([(r.spec, Path(r.steps[0].argv[1]).read_text()) for r in requests])
        self.assertEqual(texts[0], texts[1])


class TracerTest(unittest.TestCase):
    def test_every_binding_is_patched_and_restored(self):
        session.check_checkout()
        session.Session()
        probe = tracer.Tracer()
        probe.install()
        modules = {name: module for name, module in sys.modules.items()
                   if name == "vty" or name.startswith("vty.")}
        for name in (*tracer.SPANNED, *tracer.COUNTED):
            original = probe.originals[name]
            left = [f"{module_name}.{binding}" for module_name, module in modules.items()
                    for binding, value in vars(module).items() if value is original]
            home, attr, *recursive = tracer.SPANNED.get(name) or tracer.COUNTED[name]
            # a recursive primitive keeps its own binding, through which it recurses
            self.assertEqual(left, [f"{home}.{attr}"] if any(recursive) else [], name)
        for dotted in ("vty.cli.closure", "vty.calculus.closure", "vty.projection.proves",
                       "vty.varieties.check_consistency", "vty.projection.check_consistency",
                       "vty.semantics.evaluate", "vty.calculus.match_pattern",
                       "vty.calculus.substitute", "vty.varieties.theorem_formulas"):
            module, binding = dotted.rsplit(".", 1)
            self.assertTrue(hasattr(getattr(modules[module], binding), "__wrapped__"), dotted)
        probe.uninstall()
        self.assertFalse(hasattr(modules["vty.cli"].closure, "__wrapped__"))

    def test_counts_repeat_across_hash_seeds(self):
        workdir = _scratch("hashseed")
        self.addCleanup(shutil.rmtree, workdir, True)
        script = f"""
import json, sys
sys.path.insert(0, {str(BENCH_DIR)!r})
from pathlib import Path
import layers, session, workloads
from tracer import Tracer
session.check_checkout()
out = {{}}
for name, workload in workloads.WORKLOADS.items():
    requests = workloads.generate(workload, 5, len(workload.shapes), Path({str(workdir)!r}))
    sess = session.Session()
    probe = Tracer()
    probe.install()
    sess.load_packaged(workload.packaged)
    for index, request in enumerate(requests):
        sess.cold()
        with probe.recording(index):
            sess.run(request)
    values = layers.request_metrics(*probe.take())
    values.update(layers.baseline_counts(name, probe, sess.cold))
    out[name] = {{k: v for k, v in values.items() if layers.METRICS[k][0] in ("count", "ratio")}}
print(json.dumps(out, sort_keys=True))
"""
        outputs = []
        for hash_seed in ("0", "4242"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed}
            done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=600)
            self.assertEqual(done.returncode, 0, done.stderr)
            outputs.append(json.loads(done.stdout))
        self.assertEqual(outputs[0], outputs[1])
        for name, values in outputs[0].items():
            mapped = [k for k, (_, _, on) in layers.METRICS.items()
                      if name in on and k in values]
            self.assertTrue(all(values[k] for k in mapped), name)


def _calibrations(times: float) -> dict[str, float]:
    """Calibration times of a host ``times`` slower than the reference."""
    return {work: times * seconds for work, seconds in speed.REFERENCE_S.items()}


class SpeedTest(unittest.TestCase):
    def test_a_uniform_slowdown_cancels(self):
        parts = [("terms", 0.010), ("bigints", 0.020)]
        self.assertAlmostEqual(speed.scaled(parts, [_calibrations(1.0)]), 0.030)
        slow = [(work, 2 * seconds) for work, seconds in parts]
        self.assertAlmostEqual(speed.scaled(slow, [_calibrations(2.0)]), 0.030)

    def test_each_kind_of_work_follows_its_own_job(self):
        samples = [{"terms": speed.REFERENCE_S["terms"],
                    "bigints": 3 * speed.REFERENCE_S["bigints"]}]
        parts = [("terms", 0.010), ("bigints", 0.030)]
        self.assertAlmostEqual(speed.scaled(parts, samples), 0.020)

    def test_scaling_follows_the_calibrations_nearby(self):
        count = 4 * speed.WINDOW
        # the host halves its speed midway through the pass
        record = [(_calibrations(1.0 if i < count // 2 else 2.0), [("terms", 0.010)])
                  for i in range(count)]
        scaled = speed.scale(record)
        self.assertAlmostEqual(scaled[0], 0.010)
        self.assertAlmostEqual(scaled[-1], 0.005)

    def test_the_calibration_jobs_are_fixed(self):
        for work, (job, expected) in speed.JOBS.items():
            self.assertEqual(job(), expected, work)
        self.assertEqual(set(speed.sample()), set(speed.REFERENCE_S))

    def test_every_step_names_a_calibration_job(self):
        workdir = _scratch("speed")
        self.addCleanup(shutil.rmtree, workdir, True)
        for name in workloads.WORKLOADS:
            _, requests = _one_round(name, workdir)
            for request in requests:
                for step in request.steps:
                    self.assertIn(step.work, speed.REFERENCE_S, name)


class RecordsTest(unittest.TestCase):
    def test_benchmark_json_matches_the_metric_tables(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [(name, unit, better) for name, (unit, better, _) in layers.METRICS.items()])

    def test_refuses_to_run_without_vty(self):
        bare = _scratch("bare")
        self.addCleanup(shutil.rmtree, bare, True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
        done = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
                               "proofs", "--seconds", "1"], cwd=bare,
                              capture_output=True, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
