"""pdfa-forge benchmark: one seeded workload per process, timed from outside.

Usage (from the repository root):

    python3 bench/run.py --workload learn-table --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``learn-table``, ``learn-remote`` and
``offline-ops``. The run sets the workload up ``SETUP_REPEATS`` times from
the seed, timing import and set-up at the reference speed of
``clock.TaskClock`` like every task. It then repeats passes over its task
list in a closed loop until the next pass would overrun ``--seconds``,
checking every result. The last line
of standard output is one JSON object: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of traced passes, which
alternate with untraced ones so the tracing overhead is measured too.
``--size tiny`` shrinks every input for the smoke test. The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

from clock import TaskClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "mq_misses": "count",
    "eq_queries": "count",
    "peak_rss_mb": "MB",
}

LEARNER_TIMES = [
    "self_s", "learn_s", "closed_s", "close_step_s", "consistent_s", "consistent_step_s",
    "cex_update_s", "build_hypothesis_s", "dimensions_s", "blue_s", "red_classes_s",
    "red_class_count_s", "row_signature_s",
]
LEARNER_COUNTS = [
    "close_steps", "consistent_steps", "cex_updates", "red_rows", "blue_rows",
    "suffixes", "cells", "mq_misses", "mq_hits",
]
PER_LAYER = {
    **{f"learner.{m}": "s" for m in LEARNER_TIMES},
    **{f"learner.{m}": "count" for m in LEARNER_COUNTS},
    "words.self_s": "s",
    "words.word_key_calls": "count",
    "words.word_key_s": "s",
    "relations.self_s": "s",
    "relations.signature_calls": "count",
    "relations.signature_s": "s",
    "models.self_s": "s",
    "models.query_calls": "count",
    "models.query_s": "s",
    "models.cache_hit_ratio": "ratio",
    "models.rtt_p50_ms": "ms",
    "models.rtt_p99_ms": "ms",
    "models.rtt_samples": "count",
    "models.http_requests": "count",
    "models.retries": "count",
    "models.errors": "count",
    "models.stub_connections": "count",
    "teacher.self_s": "s",
    "teacher.check_s": "s",
    "teacher.check_calls": "count",
    "teacher.mq_misses": "count",
    "teacher.mq_hits": "count",
    "teacher.cex_symbols": "count",
    "automata.self_s": "s",
    "automata.quotient_s": "s",
    "automata.realize_s": "s",
    "automata.lm_equivalent_s": "s",
    "automata.exact_check_s": "s",
    "automata.json_roundtrip_s": "s",
    "automata.isomorphic_s": "s",
    "automata.states_in": "count",
    "automata.states_out": "count",
    "tolerance.self_s": "s",
    "tolerance.prop17_s": "s",
    "tolerance.cliques_s": "s",
    "tolerance.string_tolerant_s": "s",
    "tolerance.partitions": "count",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["learn-table", "learn-remote", "offline-ops"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    return parser.parse_args(argv)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def import_package():
    """Import the checkout's own ``src/pdfa_forge`` and the benchmark modules."""
    sys.path.insert(0, str(SRC))
    import pdfa_forge
    import tracing
    import workloads

    if Path(pdfa_forge.__file__).resolve().parent != SRC / "pdfa_forge":
        raise ImportError(f"imported pdfa_forge from {pdfa_forge.__file__}, not {SRC}")
    return tracing, workloads


def set_up(clock: TaskClock, workloads, name: str, seed: int, size: str):
    """Build the workload ``SETUP_REPEATS`` times; keep the last.

    Returns each build's time at the reference speed of ``clock``. As in the
    passes, the stub's injected sleeps (warm-up queries) are left unscaled.
    """
    times, workload = [], None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        workload, raw, speed = clock.time(
            workloads.WORKLOADS[name], random.Random(f"{name}:{seed}"), size
        )
        slept = workload.stub.requests * workloads.STUB_DELAY_S if workload.stub else 0.0
        times.append(slept + (raw - slept) * speed)
    return workload, times


def measure(tracing, workload, seconds: float, trace: bool):
    """Run passes until the next one would overrun ``seconds``.

    With tracing, every untraced pass is followed by a traced one.
    """
    start = time.perf_counter()
    untraced, traced, failures = [], [], []
    while True:
        untraced.append(workload.run_pass(None))
        failures += workload.verify(untraced[-1])
        if trace:
            tracer = tracing.Tracer()
            with tracing.traced(tracer):
                traced.append(workload.run_pass(tracer))
            failures += workload.verify(traced[-1])
        elapsed = time.perf_counter() - start
        if elapsed * (len(untraced) + 1) / len(untraced) > seconds:
            return untraced, traced, failures


def wall_s(passes, reference: bool) -> float:
    """Sum over tasks of each task's median time across passes.

    ``reference`` picks the times at the reference speed of ``clock.TaskClock``.
    """
    times = [p.reference_s if reference else p.task_s for p in passes]
    return sum(statistics.median(t[i] for t in times) for i in range(len(times[0])))


def count_mismatches(untraced, traced) -> list[str]:
    """Counts must repeat exactly across passes and agree with the proxies."""
    reference = untraced[0].counts
    out = []
    for i, result in enumerate(untraced[1:] + traced, start=1):
        for key, value in reference.items():
            if result.counts.get(key) != value:
                out.append(f"pass {i}: {key} = {result.counts.get(key)}, first pass {value}")
    for i, result in enumerate(traced):
        calls, counts = result.tracer.calls, result.counts
        pairs = [
            ("models.rtt_samples", counts["models.rtt_samples"], counts["mq_misses"]),
            ("models.query calls", calls["models.query"], counts["mq_misses"] + counts["mq_hits"]),
        ]
        if "teacher.check_calls" in counts:
            pairs += [
                ("teacher.check calls", counts["teacher.check_calls"], counts["eq_queries"]),
                ("close_step calls", calls["learner.close_step"], counts["learner.close_steps"]),
                ("consistent_step calls", calls["learner.consistent_step"],
                 counts["learner.consistent_steps"]),
                ("cex_update calls", calls["learner.cex_update"], counts["learner.cex_updates"]),
            ]
        for name, traced_value, program_value in pairs:
            if traced_value != program_value:
                out.append(f"traced pass {i}: {name} = {traced_value}, program says {program_value}")
    return out


def layer_metrics(tracing, result, stub) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    t, c = result.tracer, result.counts
    total = lambda key: t.total_s.get(key, 0.0)  # noqa: E731
    calls = lambda key: t.calls.get(key, 0)  # noqa: E731
    m: dict[str, float] = {f"{layer}.self_s": t.self_s.get(layer, 0.0) for layer in tracing.LAYERS}
    m["learner.learn_s"] = total("learner.learn")
    for stem in [*tracing.TABLE_METHODS.values(), *tracing.TABLE_PROPERTIES]:
        m[f"learner.{stem}_s"] = total(f"learner.{stem}")
    teacher_misses, teacher_hits = c.get("teacher.mq_misses", 0), c.get("teacher.mq_hits", 0)
    m.update({
        "learner.close_steps": calls("learner.close_step"),
        "learner.consistent_steps": calls("learner.consistent_step"),
        "learner.cex_updates": calls("learner.cex_update"),
        "learner.red_rows": c.get("learner.red_rows", 0),
        "learner.blue_rows": c.get("learner.blue_rows", 0),
        "learner.suffixes": c.get("learner.suffixes", 0),
        "learner.cells": c.get("learner.cells", 0),
        "learner.mq_misses": c["mq_misses"] - teacher_misses if calls("learner.learn") else 0,
        "learner.mq_hits": c["mq_hits"] - teacher_hits if calls("learner.learn") else 0,
        "words.word_key_calls": calls("words.word_key"),
        "words.word_key_s": total("words.word_key"),
        "relations.signature_calls": calls("relations.signature"),
        "relations.signature_s": total("relations.signature"),
        "models.query_calls": calls("models.query"),
        "models.query_s": total("models.query"),
        "models.cache_hit_ratio": (
            c["mq_hits"] / (c["mq_hits"] + c["mq_misses"]) if c["mq_hits"] + c["mq_misses"] else 0.0
        ),
        "models.rtt_p50_ms": percentile(result.latencies_s, 0.50) * 1e3,
        "models.rtt_p99_ms": percentile(result.latencies_s, 0.99) * 1e3,
        "models.rtt_samples": c["models.rtt_samples"],
        "models.http_requests": c["models.http_requests"],
        "models.retries": (
            c["models.http_requests"] - (c["models.rtt_samples"] - c["models.errors"])
            if stub else 0
        ),
        "models.errors": c["models.errors"],
        "models.stub_connections": stub.peak_connections if stub else 0,
        "teacher.check_s": total("teacher.check"),
        "teacher.check_calls": c.get("teacher.check_calls", 0),
        "teacher.mq_misses": teacher_misses,
        "teacher.mq_hits": teacher_hits,
        "teacher.cex_symbols": c.get("teacher.cex_symbols", 0),
        "automata.states_in": c.get("automata.states_in", 0),
        "automata.states_out": c.get("automata.states_out", 0),
        "tolerance.partitions": c.get("tolerance.partitions", 0),
        "trace.unattributed_s": sum(result.task_s) - t.top_s,
    })
    for op in ["quotient", "realize", "lm_equivalent", "exact_check", "json_roundtrip", "isomorphic"]:
        m[f"automata.{op}_s"] = total(f"automata.{op}")
    for op in ["prop17", "cliques", "string_tolerant"]:
        m[f"tolerance.{op}_s"] = total(f"tolerance.{op}")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pdfa_forge" / "__init__.py").is_file():
        print(f"error: no pdfa_forge sources under {SRC}", file=sys.stderr)
        return 2
    # RemoteModel at its default settings, and the local stub never behind a proxy.
    os.environ.pop("PDFA_FORGE_LM_TIMEOUT_MS", None)
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"

    clock = TaskClock()
    (tracing, workloads), import_raw, speed = clock.time(import_package)
    import_s = import_raw * speed
    workload, setup_times = set_up(clock, workloads, args.workload, args.seed, args.size)
    try:
        print(f"inputs {args.workload} seed={args.seed} size={args.size}: "
              f"{json.dumps(workload.fingerprint)}")
        untraced, traced, failures = measure(tracing, workload, args.seconds, bool(args.trace))
        # Run-wide checks count as one more task.
        run_failures = []
        stub = workload.stub
        if stub is not None and stub.peak_connections > 1:
            # One closed-loop caller: one keep-alive connection, one handler thread.
            run_failures.append(f"stub saw {stub.peak_connections} concurrent connections")
        per_layer = [layer_metrics(tracing, r, stub) for r in traced]
    finally:
        workload.close()

    passes = untraced + traced
    run_failures += count_mismatches(untraced, traced)
    attempted = sum(len(r.outputs) for r in passes) + 1
    untraced_wall = wall_s(untraced, reference=False)
    if args.trace:
        metrics = {}
        for key in per_layer[0]:
            values = [m[key] for m in per_layer]
            if PER_LAYER[key] != "count":
                metrics[key] = statistics.median(values)
            elif len(set(values)) == 1:
                metrics[key] = values[0]
            else:
                run_failures.append(f"{key} differs between traced passes: {values}")
                metrics[key] = statistics.median(values)
        traced_wall = wall_s(traced, reference=False)
        metrics.update({
            "trace.untraced_wall_s": untraced_wall,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
        })
        units = PER_LAYER
        if metrics["models.rtt_samples"] and args.workload == "learn-remote" and (
            metrics["models.rtt_p50_ms"] / 1e3
            > workloads.STUB_DELAY_S + workloads.RTT_SLACK_S
        ):
            run_failures.append(
                f"stub round trip p50 {metrics['models.rtt_p50_ms']:.2f} ms too high"
            )
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "wall_s": wall_s(untraced, reference=True),
            "mq_misses": untraced[0].counts["mq_misses"],
            "eq_queries": untraced[0].counts["eq_queries"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    missing = set(units) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metric set differs from the declared one: {sorted(missing)}")

    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"setup {[round(s, 4) for s in setup_times]} s + import {import_s:.4f} s "
          f"(reference speed; raw import {import_raw:.4f} s); "
          f"raw wall {untraced_wall:.4f} s")
    failed = len(failures) + bool(run_failures)
    print(f"failed_frac {failed / attempted:.4g} ({failed}/{attempted})")
    for failure in failures + run_failures:
        print(f"FAILED {failure}")
    for key in units:
        print(f"  {key:32s} {metrics[key]:>14.6g} {units[key]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
