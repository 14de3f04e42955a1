"""E12 — warm-start engine vs from-scratch M-PARTITION in the epoch loop.

The acceptance configuration for the engine (n=5000 sites, m=64
servers, 200 epochs) plus smaller kernels for pytest-benchmark.  The
engine must beat the from-scratch policy on wall clock while producing
the byte-identical trajectory.
"""

import time

import numpy as np

from repro.analysis import experiment_e12_engine
from repro.websim import (
    ComposedTraffic,
    DiurnalTraffic,
    EngineMPartitionPolicy,
    FlashCrowdTraffic,
    MPartitionPolicy,
    Simulation,
    build_cluster,
)


def _run(policy, *, num_sites, num_servers, epochs, seed=12):
    cluster = build_cluster(num_sites, num_servers, np.random.default_rng(seed))
    traffic = ComposedTraffic(
        (DiurnalTraffic(), FlashCrowdTraffic(probability=0.1))
    )
    sim = Simulation(cluster=cluster, traffic=traffic, policy=policy,
                     seed=seed + 1)
    t0 = time.perf_counter()
    result = sim.run(epochs)
    wall = time.perf_counter() - t0
    return result, wall


def test_e12_table(benchmark, show_report):
    report = benchmark.pedantic(experiment_e12_engine, rounds=1, iterations=1)
    show_report(report)
    for row in report.rows:
        assert row[-1] is True  # identical trajectories everywhere
    engine_rows = [r for r in report.rows if r[1] == "m-partition-engine"]
    assert engine_rows and all(row[3] > 1.0 for row in engine_rows)


def test_engine_beats_scratch_at_acceptance_scale():
    """n=5k sites, m=64 servers, 200 epochs: identical decisions, less
    wall clock, and a multiple less decide time.

    Decides are about a tenth of a run, so with one run per policy host
    noise decides the wall comparison; the walls compared are the best
    of three whole runs per policy, interleaved (scratch, engine,
    scratch, ...), and the trajectories and decide totals come from the
    last pair.
    """
    config = dict(num_sites=5_000, num_servers=64, epochs=200)
    scratch_walls, engine_walls = [], []
    for _ in range(3):
        scratch, wall = _run(MPartitionPolicy(k=16), **config)
        scratch_walls.append(wall)
        engine, wall = _run(EngineMPartitionPolicy(k=16), **config)
        engine_walls.append(wall)
    scratch_wall, engine_wall = min(scratch_walls), min(engine_walls)
    assert [r.makespan for r in scratch.records] == [
        r.makespan for r in engine.records
    ]
    assert [r.migrations for r in scratch.records] == [
        r.migrations for r in engine.records
    ]
    scratch_decide = sum(r.decide_seconds for r in scratch.records)
    engine_decide = sum(r.decide_seconds for r in engine.records)
    assert engine_wall < scratch_wall
    assert engine_decide < scratch_decide / 1.5
    print(
        f"\n[E12 acceptance] wall {scratch_wall:.2f}s -> {engine_wall:.2f}s "
        f"({scratch_wall / engine_wall:.2f}x), decide {scratch_decide:.2f}s "
        f"-> {engine_decide:.2f}s ({scratch_decide / engine_decide:.2f}x)"
    )


def test_scratch_epoch_kernel(benchmark):
    def run():
        result, _ = _run(
            MPartitionPolicy(k=8), num_sites=1_000, num_servers=16, epochs=20
        )
        return result

    result = benchmark(run)
    assert len(result.records) == 20


def test_engine_epoch_kernel(benchmark):
    def run():
        result, _ = _run(
            EngineMPartitionPolicy(k=8), num_sites=1_000, num_servers=16,
            epochs=20,
        )
        return result

    result = benchmark(run)
    assert len(result.records) == 20
