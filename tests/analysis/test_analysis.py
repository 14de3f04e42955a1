"""Tests for the analysis harness: tables, ratios, scaling, experiments."""

import time

import numpy as np
import pytest

from repro.analysis import (
    ExperimentReport,
    RatioStats,
    loglog_slope,
    measure_ratios,
    measure_scaling,
    render_table,
)
from repro.analysis.scaling import ScalingPoint
from repro.core import greedy_rebalance, make_instance


class TestTables:
    def test_render_basic(self):
        report = ExperimentReport(
            experiment_id="EX",
            title="demo",
            columns=("a", "b"),
        )
        report.add_row(1, 2.5)
        report.add_row("x", float("inf"))
        text = report.render()
        assert "[EX] demo" in text
        assert "2.5" in text and "inf" in text

    def test_row_arity_checked(self):
        report = ExperimentReport(
            experiment_id="EX", title="demo", columns=("a", "b")
        )
        with pytest.raises(ValueError):
            report.add_row(1)

    def test_notes_rendered(self):
        text = render_table("t", ["c"], [[1]], notes=["hello note"])
        assert "* hello note" in text

    def test_empty_table(self):
        text = render_table("t", ["col"], [])
        assert "col" in text


class TestRatios:
    def test_measure_against_known_opt(self):
        inst = make_instance(sizes=[5, 5], initial=[0, 0], num_processors=2)
        stats = measure_ratios(
            [(inst, 1)],
            {"greedy": lambda i, k: greedy_rebalance(i, k)},
            opt_values=[5.0],
        )
        s = stats["greedy"]
        assert s.count == 1
        assert s.mean == pytest.approx(1.0)
        assert s.worst == pytest.approx(1.0)

    def test_measure_with_exact_solver(self):
        inst = make_instance(
            sizes=[6, 3, 3], initial=[0, 0, 0], num_processors=2
        )
        stats = measure_ratios(
            [(inst, 2)], {"greedy": lambda i, k: greedy_rebalance(i, k)}
        )
        assert stats["greedy"].worst >= 1.0

    def test_stats_from_samples(self):
        s = RatioStats.from_samples("x", [1.0, 1.5], [0, 2], [0.001, 0.003])
        assert s.mean == pytest.approx(1.25)
        assert s.worst == 1.5
        assert s.mean_moves == 1.0
        assert s.mean_runtime_ms == pytest.approx(2.0)


class TestScaling:
    def test_linear_slope(self):
        points = [ScalingPoint(n=n, seconds=n * 1e-6) for n in (100, 200, 400, 800)]
        assert loglog_slope(points) == pytest.approx(1.0, abs=1e-6)

    def test_quadratic_slope(self):
        points = [ScalingPoint(n=n, seconds=n * n * 1e-9) for n in (100, 200, 400)]
        assert loglog_slope(points) == pytest.approx(2.0, abs=1e-6)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            loglog_slope([ScalingPoint(n=1, seconds=1.0)])

    def test_measure_scaling_runs(self):
        points = measure_scaling(
            make_input=lambda n: n,
            run=lambda n: sum(range(n)),
            sizes=(1000, 2000),
            repeats=1,
        )
        assert [p.n for p in points] == [1000, 2000]
        assert all(p.seconds >= 0 for p in points)


class TestExperimentsSmoke:
    """Every experiment driver runs end-to-end at reduced scale and
    satisfies its own 'within bound' claims."""

    def test_e1(self):
        from repro.analysis import experiment_e1_greedy

        report = experiment_e1_greedy(ms=(2, 3), trials=4)
        assert all(row[-1] for row in report.rows)  # all within bound

    def test_e2(self):
        from repro.analysis import experiment_e2_partition

        report = experiment_e2_partition(trials=6)
        assert all(row[-1] for row in report.rows)

    def test_e3(self):
        from repro.analysis import experiment_e3_scaling

        report = experiment_e3_scaling(sizes=(256, 512, 1024), m=4)
        slopes = [row[2] for row in report.rows]
        assert all(s < 2.0 for s in slopes)  # decisively sub-quadratic

    def test_e4(self):
        from repro.analysis import experiment_e4_ptas

        report = experiment_e4_ptas(eps_values=(2.0, 1.0), trials=3)
        for eps, bound, mean_r, worst_r, ok, _ in report.rows:
            assert ok and worst_r <= bound + 1e-9

    def test_e5(self):
        from repro.analysis import experiment_e5_costs

        report = experiment_e5_costs(trials=5)
        assert all(row[-1] for row in report.rows)  # budgets respected

    def test_e6(self):
        from repro.analysis import experiment_e6_websim

        report = experiment_e6_websim(num_sites=20, num_servers=3, epochs=8)
        rows = {row[0]: row for row in report.rows}
        assert rows["m-partition"][1] <= rows["none"][1] + 1e-9

    def test_e7(self):
        from repro.analysis import experiment_e7_movemin

        report = experiment_e7_movemin(trials=2, n=8)
        assert all(row[-1] for row in report.rows)  # greedy is sound
        yes = [r for r in report.rows if r[0].startswith("yes")]
        no = [r for r in report.rows if r[0].startswith("no")]
        assert all(r[1] for r in yes)
        assert not any(r[1] for r in no)

    def test_e8(self):
        from repro.analysis import experiment_e8_frontier

        report = experiment_e8_frontier(m=3, jobs_per_processor=3, displaced=4)
        makespans = [row[3] for row in report.rows]  # m-partition column
        # The frontier must end at least as low as it starts.
        assert makespans[-1] <= makespans[0] + 1e-9

    def test_e9(self):
        from repro.analysis import experiment_e9_headtohead

        report = experiment_e9_headtohead(trials=4)
        worst = {row[0]: row[3] for row in report.rows}
        assert worst["m-partition"] <= 1.5 + 1e-9
        assert worst["greedy"] <= 2.0 + 1e-9

    def test_e10(self):
        from repro.analysis import experiment_e10_hardness

        report = experiment_e10_hardness(trials=1)
        assert all(row[-1] for row in report.rows)


class TestCLI:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E10" in out

    def test_run_single(self, capsys):
        from repro.cli import main

        assert main(["E2"]) == 0
        out = capsys.readouterr().out
        assert "[E2]" in out

    def test_unknown_experiment(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["E99"])

    def test_help_span_shows_registry_gaps(self):
        from repro.cli import _runnable_span

        # E16 is retired: the span must not advertise it as runnable.
        assert _runnable_span() == "E1..E15, E17, A1..A3"


class TestScaleAndAblations:
    def test_e11(self):
        from repro.analysis import experiment_e11_scale_oracles

        report = experiment_e11_scale_oracles(sizes=((500, 8),))
        assert all(row[-1] for row in report.rows)

    def test_a1(self):
        from repro.analysis import ablation_a1_insert_order

        report = ablation_a1_insert_order(trials=4)
        tight = {r[1]: r[3] for r in report.rows if r[0].startswith("tight")}
        assert tight["ascending"] == max(tight.values())

    def test_a2(self):
        from repro.analysis import ablation_a2_knapsack_backend

        report = ablation_a2_knapsack_backend(trials=3)
        assert all(row[-1] for row in report.rows)

    def test_a3(self):
        from repro.analysis import ablation_a3_scan_strategy

        report = ablation_a3_scan_strategy(sizes=(128, 256), m=4)
        assert all(row[-1] for row in report.rows)

    def test_cli_runs_ablation(self, capsys):
        from repro.cli import main

        assert main(["A1"]) == 0
        assert "[A1]" in capsys.readouterr().out
