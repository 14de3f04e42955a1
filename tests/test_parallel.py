"""Tests for the deterministic process-pool sweep runner."""

import numpy as np
import pytest

from repro import telemetry
from repro.core import ptas_rebalance
from repro.parallel import default_workers, run_sweep, run_until
from repro.websim import (
    DiurnalTraffic,
    MPartitionPolicy,
    Simulation,
    build_cluster,
    run_many,
)
from repro.workloads import random_instance


def _square(x):
    telemetry.count("square_calls")
    return x * x


def _is_even_square(x):
    return x * x if x % 2 == 0 else None


class TestRunSweep:
    def test_serial_matches_parallel_order(self):
        items = list(range(9))
        assert run_sweep(_square, items, workers=1) == run_sweep(
            _square, items, workers=2
        )

    def test_results_in_input_order(self):
        out = run_sweep(_square, [5, 3, 1, 4], workers=2)
        assert out == [25, 9, 1, 16]

    def test_serial_fallback_runs_inline(self):
        # Unpicklable closures are fine with workers=1: no pool involved.
        seen = []
        out = run_sweep(lambda x: seen.append(x) or x, [1, 2, 3], workers=1)
        assert out == [1, 2, 3] and seen == [1, 2, 3]

    def test_worker_telemetry_merged(self):
        with telemetry.collect() as col:
            run_sweep(_square, range(6), workers=2)
        assert col.counters.get("square_calls") == 6

    def test_serial_telemetry_still_counts(self):
        with telemetry.collect() as col:
            run_sweep(_square, range(4), workers=1)
        assert col.counters.get("square_calls") == 4

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestRunUntil:
    def test_returns_first_accepted_index(self):
        for workers in (1, 2):
            hit = run_until(
                _is_even_square, [1, 3, 4, 6, 5], lambda r: r is not None,
                workers=workers, chunk=2,
            )
            assert hit == (2, 16)

    def test_none_when_nothing_accepted(self):
        for workers in (1, 2):
            assert run_until(
                _is_even_square, [1, 3, 5], lambda r: r is not None,
                workers=workers, chunk=2,
            ) is None

    def test_serial_stops_at_hit(self):
        calls = []

        def probe(x):
            calls.append(x)
            return x

        assert run_until(probe, [1, 2, 3, 4], lambda r: r == 2, workers=1) == (
            1, 2,
        )
        assert calls == [1, 2]  # nothing past the hit is evaluated


class TestCollectorMerge:
    def test_merge_adds_spans_and_counters(self):
        a = telemetry.Collector()
        a.record_span("phase", 0.5)
        a.add("cells", 10)
        b = telemetry.Collector()
        b.record_span("phase", 0.25)
        b.record_span("other", 1.0)
        b.add("cells", 5)
        a.merge(b.as_dict())
        assert a.spans["phase"] == [2, 0.75]
        assert a.spans["other"] == [1, 1.0]
        assert a.counters["cells"] == 15


class TestParallelPTAS:
    def test_parallel_guess_search_identical_threshold(self):
        inst = random_instance(
            7, 3, np.random.default_rng(9), cost_family="random",
            integer_sizes=True,
        )
        budget = float(inst.costs.sum()) / 2.0
        serial = ptas_rebalance(inst, budget, eps=1.0, workers=1)
        fanned = ptas_rebalance(inst, budget, eps=1.0, workers=2)
        assert fanned.guessed_opt == serial.guessed_opt
        assert fanned.planned_cost == serial.planned_cost
        assert fanned.meta["guesses_tried"] == serial.meta["guesses_tried"]
        assert (
            fanned.assignment.mapping == serial.assignment.mapping
        ).all()

    def test_parallel_merges_worker_telemetry(self):
        inst = random_instance(
            6, 3, np.random.default_rng(4), cost_family="random",
            integer_sizes=True,
        )
        budget = float(inst.costs.sum())
        with telemetry.collect() as col:
            ptas_rebalance(inst, budget, eps=1.0, workers=2)
        assert "ptas.dp" in col.spans
        assert col.counters.get("ptas_dp_states", 0) > 0


class TestWebsimRunMany:
    def test_run_many_matches_serial(self):
        sims = [
            Simulation(
                cluster=build_cluster(30, 3, np.random.default_rng(s)),
                traffic=DiurnalTraffic(),
                policy=MPartitionPolicy(k=2),
                seed=s,
            )
            for s in (0, 1)
        ]
        serial = [sim.run(5) for sim in sims]
        fanned = run_many(sims, 5, workers=2)
        assert [
            [r.makespan for r in res.records] for res in serial
        ] == [[r.makespan for r in res.records] for res in fanned]

    def test_run_many_default_inline(self):
        sims = [
            Simulation(
                cluster=build_cluster(20, 2, np.random.default_rng(7)),
                traffic=DiurnalTraffic(),
                policy=MPartitionPolicy(k=1),
                seed=7,
            )
        ]
        (res,) = run_many(sims, 3)
        assert len(res.records) == 3


class TestCLIWorkers:
    def test_cli_workers_flag(self, capsys):
        from repro.cli import main

        assert main(["E2", "--workers", "2"]) == 0
        assert "[E2]" in capsys.readouterr().out

    def test_cli_workers_profile(self, capsys):
        from repro.cli import main

        assert main(["E2", "--workers", "2", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "telemetry — E2" in out

    def test_cli_rejects_unknown(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["E99", "--workers", "2"])


class TestThreadExecutor:
    def test_thread_matches_process_results(self):
        items = list(range(12))
        assert run_sweep(_square, items, workers=3, executor="thread") == [
            x * x for x in items
        ]

    def test_thread_pool_accepts_unpicklable_callables(self):
        # The motivating case: stateful, unpicklable objects (the
        # service's shard engines) can't cross a process boundary.
        seen = []

        def record(x):
            seen.append(x)
            return x + 1

        out = run_sweep(record, [1, 2, 3, 4], workers=2, executor="thread")
        assert out == [2, 3, 4, 5]
        assert sorted(seen) == [1, 2, 3, 4]

    def test_thread_worker_telemetry_merged(self):
        with telemetry.collect() as col:
            run_sweep(_square, range(6), workers=2, executor="thread")
        assert col.counters.get("square_calls") == 6

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(_square, [1], workers=2, executor="fiber")

    def test_serial_ignores_executor_kind(self):
        assert run_sweep(_square, [3], workers=1, executor="thread") == [9]
