"""Tests for the deterministic process-pool sweep runner."""

import numpy as np
import pytest

from repro import telemetry
from repro.parallel import default_workers, run_sweep
from repro.websim import (
    DiurnalTraffic,
    MPartitionPolicy,
    Simulation,
    build_cluster,
    run_many,
)


def _square(x):
    telemetry.count("square_calls")
    return x * x


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

