"""Run one workload of the vty benchmark and print its metrics.

    python3 vtybench/run.py --workload proofs --seed 1 --seconds 15 --trace 0

Run from the root of a vty checkout; vty is imported from its ``src``.
One process, one closed-loop client, no threads: the next request starts
when the previous one has returned. Each request goes through
``vty.cli.main(argv)`` with stdout captured, so the answer checked is
the JSON report a CLI user reads (``universal_run`` has no command and
is called directly). Set-up is measured as the median of several fresh
in-process imports, each followed by the packaged inputs the workload
reads and two warm-up requests.
Every time is scaled to a reference host speed by calibration jobs
timed beside it (``speed.py``); the printout gives wall time too.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the same requests run in one pass under the tracer and the per-layer
metrics are printed. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
when every answer matched its reference, 1 when one did not, and 2 when
the checkout does not hold vty.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import session  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from reference import Reference  # noqa: E402
from tracer import Tracer, span_totals, write_spans  # noqa: E402

PASSES = 5
SETUPS = 2 * PASSES - 1  # a pass follows every other set-up
WORK_DIR = BENCH_DIR / "work"
OUT_DIR = BENCH_DIR / "out"

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


def set_up(workload, warmups, traced: bool):
    """One fresh import plus the workload's own set-up work.

    Returns the session, its tracer (or None), the set-up's (work, wall
    seconds) parts and, when traced, the self time of manifest parsing
    during set-up. Import and parsing count as ``terms`` work, each
    warm-up step as its own kind (``speed.py``).
    """
    sess = session.Session()
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
        tracer.request = "setup"
    start = time.perf_counter()
    sess.load_packaged(workload.packaged)
    parts = [("terms", sess.import_s + time.perf_counter() - start)]
    for request in warmups:
        sess.run(request, parts)
    parse_ms = 0.0
    if tracer is not None:
        tracer.request = None
        spans, _ = tracer.take()
        parse_ms = span_totals(spans).get("manifest.parse_manifest", {}).get("self_ms", 0.0)
    return sess, tracer, parts, parse_ms


def timed_pass(sess, requests, answers: list, tracer=None,
               record: list | None = None) -> list[float]:
    """Run the list once, closed loop, each request from empty vty caches.

    Returns the seconds each request took. The first pass fills
    ``answers``; a later pass replaces an answer that it does not
    reproduce with an error, so the request fails. Given ``record``,
    the calibration jobs are timed before each request, and they and
    the request's (work, wall seconds) steps are appended there.
    """
    clock = time.perf_counter
    latencies: list[float] = []
    for index, request in enumerate(requests):
        sess.cold()
        session.settle()
        parts: list = []
        if record is not None:
            record.append((speed.sample(), parts))
        with tracer.recording(index) if tracer else contextlib.nullcontext():
            start = clock()
            try:
                answer = sess.run(request, parts)
            except Exception as exc:  # a request that raises is a failed request
                answer = exc
            latencies.append(clock() - start)
        if index == len(answers):
            answers.append(answer)
        elif answer != answers[index] and not isinstance(answers[index], Exception):
            answers[index] = RuntimeError("passes over the list answered differently")
    return latencies


def check_answers(requests, answers) -> list[tuple[int | None, list[str]]]:
    """(request index, problems) for every answer its reference rejects."""
    reference = Reference()
    failures = []
    for index, (request, answer) in enumerate(zip(requests, answers)):
        if isinstance(answer, Exception):
            problems = [f"raised {type(answer).__name__}: {answer}"]
        else:
            problems = reference.check(request, answer)
        if problems:
            failures.append((index, problems))
    return failures


def end_to_end(setups: list[float], latencies: list[float], rss_mib: float) -> dict:
    ms = [value * 1000 for value in latencies]
    return {
        "setup_s": statistics.median(setups),
        "throughput_rps": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10)[8],
        "peak_rss_mib": rss_mib,
    }


def untraced_run(workload, requests, warmups):
    """SETUPS fresh set-ups, with PASSES passes over the list among them.

    Every time is scaled to the reference host speed by the calibration
    jobs timed beside it (``speed.py``). A request's latency is then its
    median over the passes, and ``setup_s`` the median of the set-ups.
    Returns the scaled metrics and, for the printout, the same metrics
    from unscaled wall time.
    """
    setups: list[float] = []
    wall_setups: list[float] = []
    answers: list = []
    passes: list[list[float]] = []
    wall_passes: list[list[float]] = []
    for index in range(SETUPS):
        around = [speed.sample() for _ in range(speed.SETUP_SAMPLES)]
        sess, _, parts, _ = set_up(workload, warmups, traced=False)
        around += [speed.sample() for _ in range(speed.SETUP_SAMPLES)]
        setups.append(speed.scaled(parts, around))
        wall_setups.append(sum(seconds for _, seconds in parts))
        if index % 2 == 0:
            record: list = []
            wall_passes.append(timed_pass(sess, requests, answers, record=record))
            passes.append(speed.scale(record))
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [statistics.median(times) for times in zip(*passes)]
    values = end_to_end(setups, latencies, rss_mib)
    wall = end_to_end(wall_setups, [statistics.median(t) for t in zip(*wall_passes)], rss_mib)
    return values, END_TO_END, check_answers(requests, answers), latencies, wall


def tracing_overhead(sess, tracer, requests) -> dict[str, float]:
    """Throughput with and without the tracer, alternating request by request.

    Alternating keeps the host's slow stretches from landing on one side.
    """
    traced = untraced = 0.0
    for request in requests:
        tracer.uninstall()
        untraced += timed_pass(sess, [request], [])[0]
        tracer.install()
        traced += timed_pass(sess, [request], [], tracer)[0]
    tracer.take()
    return {"trace.traced_rps": len(requests) / traced,
            "trace.untraced_rps": len(requests) / untraced,
            "trace.overhead_pct": 100 * (1 - untraced / traced)}


def traced_run(workload, requests, warmups):
    """One traced pass over the list; then the baseline cases and the tracing overhead."""
    imports, parses = [], []
    for _ in range(PASSES):
        sess, tracer, _, parse_ms = set_up(workload, warmups, traced=True)
        imports.append(sess.import_s * 1000)
        parses.append(parse_ms)
    answers: list = []
    latencies = timed_pass(sess, requests, answers, tracer)
    spans, counts = tracer.take()
    write_spans(OUT_DIR / f"{workload.name}.spans.jsonl", spans)
    values = layers.request_metrics(spans, counts)
    values["setup.import_ms"] = statistics.median(imports)
    values["setup.parse_manifest_ms"] = statistics.median(parses)
    values.update(layers.baseline_counts(workload.name, tracer, sess.cold))
    values.update(tracing_overhead(sess, tracer, requests[:len(requests) // 4]))
    tracer.uninstall()
    values.update(layers.baseline_times(workload.name, sess.cold))

    failures = check_answers(requests, answers)
    for name, (_, _, nonzero_on) in layers.METRICS.items():
        if workload.name in nonzero_on and not values[name]:
            failures.append((None, [f"self-check: {name} reads zero on {workload.name}"]))
    units = {name: unit for name, (unit, _, _) in layers.METRICS.items()}
    return {name: values[name] for name in units}, units, failures, latencies, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15,
                        help="run length; sets the fixed request count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    count = workloads.request_count(workload, args.seconds, PASSES)
    workdir = WORK_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        session.check_checkout()
        workdir.mkdir(parents=True, exist_ok=True)
        requests = workloads.generate(workload, args.seed, count, workdir)
        warmups = workloads.generate(workload, args.seed, workloads.WARMUP_REQUESTS,
                                     workdir, stream="warmup")
        run = traced_run if args.trace else untraced_run
        values, units, failures, latencies, wall = run(workload, requests, warmups)
    except session.CheckoutError as exc:
        print(f"vtybench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(latencies)
    failed = sum(1 for index, _ in failures if index is not None)
    print(f"workload {workload.name}: seed {args.seed}, {attempted} requests "
          f"(fixed count), {'traced' if args.trace else 'untraced'}")
    for name, value in values.items():
        print(f"  {name:<58} {value:>14.6g} {units[name]}")
    print(f"  {'error_rate':<58} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} requests failed)")
    if not args.trace:
        beyond = sum(1 for value in latencies if value * 1000 > values["latency_p90_ms"])
        print(f"  samples: {attempted} latencies, {beyond} beyond p90; "
              f"each the median of {PASSES} passes; "
              f"setup_s is the median of {SETUPS} set-ups")
        print("  times above are scaled to the reference host speed (speed.py); "
              "unscaled wall time gave "
              + ", ".join(f"{name} {value:.6g}" for name, value in wall.items()
                          if name != "peak_rss_mib"))
    for index, problems in failures[:5]:
        where = "" if index is None else f"request {index}: "
        print(f"vtybench: {where}{'; '.join(problems)}", file=sys.stderr)
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
