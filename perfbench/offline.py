"""The offline-solve workload: the paper's solvers as a library user
calls them, on a fixed seeded batch, with every result certified.

No sockets, processes or caches beyond the solvers' own, so this is the
steadiest of the workloads.  Run as a script it is the set-up probe: a
fresh interpreter that imports ``repro`` and makes the first, cold pass,
and reports how long both took.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

SETUPS = 3          # cold starts per run (this process + 2 probes); setup_s is their median

ALGORITHMS = ("greedy", "partition", "cost_partition", "ptas")
# The solvers' own telemetry counters per algorithm, reported per pass
# under the per-layer names.
COUNTERS = {
    "greedy": {"heap_pops": "greedy.heap_pops"},
    "partition": {"thresholds_tried": "partition.thresholds_tried"},
    "cost_partition": {"guesses_tried": "cost_partition.guesses_tried",
                       "knapsack_cells": "knapsack.cells"},
    "ptas": {"ptas_dp_states": "ptas.dp_states"},
}


@dataclass
class Case:
    algorithm: str
    call: Callable[[], Any]
    k: int | None = None
    budget: float | None = None


def build_batch(seed: int) -> list[Case]:
    """The fixed batch, repeated so each algorithm takes a similar share
    of a pass: GREEDY and M-PARTITION at n=100k, m=64, k=512, one
    M-PARTITION case whose threshold scan is long (k=64), the section
    3.2 cost partition at n=1,000, m=16 with a quarter of the total cost
    as budget, and the section 4 PTAS at n=10, m=3, eps=0.75 with half.
    The seed draws every instance but the long scan's and the PTAS set."""
    import numpy as np

    from repro import (
        cost_partition_rebalance,
        greedy_rebalance,
        m_partition_rebalance,
        ptas_rebalance,
    )
    from repro.workloads import random_instance

    from perfbench.traffic import zipf_seed

    cases: list[Case] = []

    def rng() -> np.random.Generator:
        return np.random.default_rng([seed, len(cases)])

    def unit_cost(algorithm: str, solve, n: int, k: int, inst=None) -> None:
        if inst is None:
            inst = random_instance(n, 64, rng(), size_family="lognormal")
        cases.append(Case(algorithm, lambda: solve(inst, k), k=k))

    def budgeted(algorithm: str, solve, n: int, m: int, share: float,
                 *extra: float, gen: np.random.Generator | None = None) -> None:
        inst = random_instance(n, m, gen or rng(), cost_family="random")
        budget = share * float(inst.costs.sum())
        cases.append(Case(algorithm, lambda: solve(inst, budget, *extra),
                          budget=budget))

    for _ in range(5):
        unit_cost("greedy", greedy_rebalance, 100_000, 512)
    for _ in range(3):
        unit_cost("partition", m_partition_rebalance, 100_000, 512)
    # One fixed instance: its scan (about 660 thresholds) is a quarter
    # of a pass, and a seeded one would swing the pass time by seed.
    unit_cost("partition", m_partition_rebalance, 100_000, 64,
              zipf_seed(100_000, 64))
    for _ in range(40):
        budgeted("cost_partition", cost_partition_rebalance, 1_000, 16, 0.25)
    # A fixed set too: one PTAS call here takes 2 to 90 ms by instance,
    # so 30 seeded ones moved the PTAS median call by up to 1.6x and its
    # share of the pass by 2x from seed to seed.
    for i in range(30):
        budgeted("ptas", ptas_rebalance, 10, 3, 0.5, 0.75,
                 gen=np.random.default_rng([0, i]))
    return cases


@dataclass
class Pass:
    """One pass over the batch: results, per-call wall and CPU seconds,
    and (when collected) the solvers' counters summed per algorithm."""

    results: list[Any]
    wall_s: list[float]
    cpu_s: list[float]
    counters: dict[str, dict[str, int]]


def run_pass(cases: list[Case], collect: bool = False, tracer=None) -> Pass:
    """Solve every case once."""
    from contextlib import nullcontext

    from repro import telemetry

    out = Pass([], [], [], {a: {} for a in ALGORITHMS})
    for case in cases:
        span = (tracer.span(f"{case.algorithm}.solve") if tracer is not None
                else nullcontext())
        with telemetry.collect() if collect else nullcontext() as col, span:
            start, cpu = time.perf_counter(), time.process_time()
            result = case.call()
            out.wall_s.append(time.perf_counter() - start)
            out.cpu_s.append(time.process_time() - cpu)
        if col is not None:
            got = out.counters[case.algorithm]
            for name in COUNTERS[case.algorithm]:
                got[name] = got.get(name, 0) + col.counters.get(name, 0)
        out.results.append(result)
    return out


def per_algorithm_ms(cases: list[Case], seconds: list[float],
                     reduce: Callable[[list[float]], float]) -> float:
    """``reduce`` over each algorithm's calls in one pass, in ms, then
    the geometric mean over the four algorithms: each weighs the same,
    whatever its share of the batch, and a change to any one moves it."""
    from statistics import geometric_mean

    return geometric_mean(
        1e3 * reduce([s for c, s in zip(cases, seconds) if c.algorithm == a])
        for a in ALGORITHMS
    )


def digest(results: list[Any]) -> str:
    """One hash over every result's mapping, in batch order."""
    import hashlib

    h = hashlib.sha256()
    for result in results:
        h.update(result.assignment.mapping.tobytes())
    return h.hexdigest()


def certify_all(cases: list[Case], results: list[Any]) -> list[Any]:
    from repro.core.certify import certify

    return [certify(r, k=c.k, budget=c.budget) for c, r in zip(cases, results)]


def cold_start(seed: int) -> tuple[float, list[Case], list[Any]]:
    """``import repro`` plus the first, cold pass, timed (building the
    inputs in between is not): one ``setup_s`` sample, in a process that
    has not imported ``repro`` yet."""
    start = time.perf_counter()
    import repro  # noqa: F401

    imported = time.perf_counter() - start
    cases = build_batch(seed)
    start = time.perf_counter()
    results = run_pass(cases).results
    return imported + time.perf_counter() - start, cases, results


def probe(seed: int) -> None:
    """Set-up probe in a fresh interpreter.  Its results must hash to
    those of the certified cold pass in the measuring process."""
    setup_s, cases, results = cold_start(seed)
    print(json.dumps({
        "setup_s": setup_s, "calls": len(cases), "digest": digest(results),
    }))


def run_offline(seed: int, seconds: float, trace: bool, run_dir: Path,
                src: Path) -> dict[str, Any]:
    """Set-up probes, a cold pass, then warm passes for ``seconds``.

    The cold pass is certified call by call; every warm pass must
    reproduce its mappings byte for byte, so each warm result carries
    the certificate of the identical cold one.
    """
    # Before this process imports numpy itself: the cold start times
    # ``import repro``, numpy included.
    setup_s, cases, results = cold_start(seed)

    import numpy as np

    from .proc import own_hwm_mb
    from .stats import ratio
    from .trace import Tracer

    setups = [setup_s]
    probes = []
    env = dict(os.environ, TMPDIR=str(run_dir))
    for _ in range(0 if trace else SETUPS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), str(seed), str(src)],
            capture_output=True, text=True, timeout=120, env=env, check=True,
        )
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        setups.append(probes[-1]["setup_s"])

    certs = certify_all(cases, results)
    attempted = len(cases)
    failed = sum(not c.valid for c in certs)
    reference = [r.assignment.mapping.tobytes() for r in results]
    for out in probes:
        attempted += out["calls"]
        if out["digest"] != digest(results):
            failed += out["calls"]

    tracer = Tracer(False)
    call_ms: list[float] = []
    pass_s: list[float] = []
    # Per pass: the per-algorithm median call time and mean call CPU,
    # each as a geometric mean over the algorithms (per_algorithm_ms).
    pass_p50_ms: list[float] = []
    pass_cpu_ms: list[float] = []
    untraced_p50_ms: list[float] = []
    counters: dict[str, dict[str, int]] = {a: {} for a in ALGORITHMS}
    start = time.perf_counter()
    # Traced: untraced passes for the first half, traced ones after;
    # at least one of each.
    traced_from = start + seconds / 2
    while (not pass_s or time.perf_counter() - start < seconds
           or tracer.enabled != trace):
        if (trace and not tracer.enabled and pass_s
                and time.perf_counter() >= traced_from):
            untraced_p50_ms, pass_p50_ms, call_ms = pass_p50_ms, [], []
            tracer = Tracer(True)
        began = time.perf_counter()
        with tracer.span("offline.pass", root=True):
            done = run_pass(cases, collect=tracer.enabled, tracer=tracer)
        pass_s.append(time.perf_counter() - began)
        call_ms.extend(1e3 * s for s in done.wall_s)
        pass_p50_ms.append(per_algorithm_ms(cases, done.wall_s, np.median))
        pass_cpu_ms.append(per_algorithm_ms(cases, done.cpu_s, np.mean))
        for algorithm, values in done.counters.items():
            for name, value in values.items():
                counters[algorithm][name] = counters[algorithm].get(name, 0) + value
        attempted += len(cases)
        failed += sum(r.assignment.mapping.tobytes() != ref
                      for r, ref in zip(done.results, reference))
    # The timings are means over the window's passes, not medians: with
    # a handful of passes a median lands on one of them, while a shared
    # VM's speed varies from pass to pass.
    e2e = {
        "setup_s": (np.median(setups), "s"),
        # A typical call of each solver: the long M-PARTITION scan is one
        # of four partition calls, so it leaves the median alone.
        "decide_p50_ms": (np.mean(pass_p50_ms), "ms"),
        # CPU (all threads) per call, mean per solver, so the long scan
        # and any slow call count; each solver weighs the same.
        "cpu_ms_per_epoch": (np.mean(pass_cpu_ms), "ms"),
        "rss_mb": (own_hwm_mb(), "MB"),
        "proven_ratio": (sum(c.proven_ratio for c in certs) / len(certs), "1"),
        # The whole pass, each solver by its share of the batch.
        "batch_s": (np.mean(pass_s), "s"),
    }
    lines = [
        f"offline-solve: {len(cases)} calls per pass, {len(pass_s)} warm passes, "
        f"{len(call_ms)} timed calls",
        f"call ms over all calls: mean {np.mean(call_ms):.3f}, "
        f"p50 {np.median(call_ms):.3f}, p90 {np.percentile(call_ms, 90):.3f}, "
        f"p99 {np.percentile(call_ms, 99):.3f}",
        f"failed_frac {ratio(failed, attempted):.6f}; certificates: "
        f"{sum(c.valid for c in certs)}/{len(certs)} valid, worst ratio "
        f"{max(c.proven_ratio for c in certs):.4f}",
    ]
    out: dict[str, Any] = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "e2e": e2e, "lines": lines,
    }
    if trace:
        layers = {
            f"{a}.solve_ms": (tracer.median_ms(f"{a}.solve"), "ms")
            for a in ALGORITHMS
        }
        passes = len(tracer.durations("offline.pass"))
        for algorithm, names in COUNTERS.items():
            for name, layer in names.items():
                layers[layer] = (counters[algorithm].get(name, 0) / passes, "count")
        layers["decide.p90_ms"] = (np.percentile(call_ms, 90), "ms")
        layers["decide.p99_ms"] = (np.percentile(call_ms, 99), "ms")
        layers["trace.overhead_ms"] = (
            np.mean(pass_p50_ms) - np.mean(untraced_p50_ms), "ms")
        out["layers"] = layers
        tracer.write(run_dir.parent / f"trace-offline-solve-{seed}.json")
    return out


if __name__ == "__main__":
    sys.path[:0] = [sys.argv[2], str(Path(__file__).resolve().parents[1])]
    probe(int(sys.argv[1]))
