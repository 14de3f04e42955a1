"""Experiment drivers E1–E10 (see DESIGN.md section 3).

The paper is a theory paper with no empirical tables; each driver here
regenerates, as a table, the quantity one of its theorems bounds —
measured on the paper's own tightness instances and on random families
— plus the motivating web-cluster simulation.  Each driver returns an
:class:`~repro.analysis.tables.ExperimentReport`; the benchmark harness
prints them, and EXPERIMENTS.md records paper-expected vs measured.
"""

from __future__ import annotations

import time

import numpy as np

from ..baselines.local_search import hill_climb_rebalance
from ..baselines.random_moves import random_rebalance
from ..baselines.shmoys_tardos import shmoys_tardos_rebalance
from ..core.cost_partition import cost_partition_rebalance
from ..core.exact import exact_rebalance
from ..core.greedy import greedy_rebalance
from ..core.instance import Instance
from ..core.lower_bounds import combined_lower_bound
from ..core.partition import m_partition_rebalance, partition_rebalance
from ..core.ptas import ptas_rebalance
from ..hardness.gap_costs import verify_gadget_gap
from ..hardness.conflict import conflict_gadget_from_3dm, feasible_conflict_assignment
from ..hardness.constrained import constrained_gadget_from_3dm, exact_constrained
from ..hardness.move_minimization import (
    min_moves_exact,
    min_moves_greedy,
    reduction_from_partition,
)
from ..hardness.partition_problem import random_no_instance, random_yes_instance
from ..hardness.three_dim_matching import planted_yes_instance, verified_no_instance
from ..websim.policies import (
    EngineMPartitionPolicy,
    FullRepackPolicy,
    GreedyPolicy,
    HillClimbPolicy,
    MPartitionPolicy,
    NoRebalance,
)
from ..websim.simulator import Simulation, build_cluster
from ..websim.traffic import make_traffic
from ..workloads.adversarial import (
    greedy_tight_instance,
    partition_tight_instance,
    planted_imbalance_instance,
)
from ..workloads.generators import random_instance
from .ratios import measure_ratios
from .scaling import loglog_slope, measure_scaling
from .tables import ExperimentReport

__all__ = [
    "experiment_e1_greedy",
    "experiment_e2_partition",
    "experiment_e3_scaling",
    "experiment_e4_ptas",
    "experiment_e5_costs",
    "experiment_e6_websim",
    "experiment_e7_movemin",
    "experiment_e8_frontier",
    "experiment_e9_headtohead",
    "experiment_e10_hardness",
    "experiment_e11_scale_oracles",
    "experiment_e12_engine",
    "experiment_e13_kernels",
    "experiment_e14_service",
    "experiment_e15_wire",
    "experiment_e17_cluster",
    "wire_sizes",
    "ALL_EXPERIMENTS",
]


# ----------------------------------------------------------------------
# E1 — Theorem 1: GREEDY is a tight (2 - 1/m)-approximation.
# ----------------------------------------------------------------------
def experiment_e1_greedy(
    ms: tuple[int, ...] = (2, 3, 4, 6, 8),
    trials: int = 20,
    seed: int = 0,
) -> ExperimentReport:
    """Tightness family ratio vs ``2 - 1/m``, plus random-family ratios."""
    report = ExperimentReport(
        experiment_id="E1",
        title="GREEDY approximation ratio (Theorem 1: tight 2 - 1/m)",
        columns=("family", "m", "measured ratio", "bound 2-1/m", "within"),
    )
    for m in ms:
        instance, k, opt = greedy_tight_instance(m)
        # The paper's adversary makes Step 2 reinsert the big job last.
        res = greedy_rebalance(instance, k, insert_order="ascending")
        ratio = res.makespan / opt
        bound = 2.0 - 1.0 / m
        report.add_row("tight(Thm1)", m, ratio, bound, ratio <= bound + 1e-9)

    rng = np.random.default_rng(seed)
    for m in ms[:3]:
        ratios = []
        for _ in range(trials):
            inst = random_instance(int(rng.integers(5, 10)), m, rng,
                                   integer_sizes=True)
            k = int(rng.integers(0, inst.num_jobs + 1))
            opt = exact_rebalance(inst, k=k).makespan
            ratios.append(greedy_rebalance(inst, k).makespan / opt)
        bound = 2.0 - 1.0 / m
        worst = max(ratios)
        report.add_row(f"random x{trials}", m, worst, bound, worst <= bound + 1e-9)
    report.notes.append(
        "tight family: one size-m job + m(m-1) unit jobs, k = m-1; "
        "adversarial reinsertion order realizes exactly 2 - 1/m."
    )
    return report


# ----------------------------------------------------------------------
# E2 — Theorems 2/3: (M-)PARTITION is a tight 1.5-approximation.
# ----------------------------------------------------------------------
def experiment_e2_partition(
    trials: int = 30, seed: int = 1
) -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="E2",
        title="(M-)PARTITION approximation ratio (Theorems 2-3: tight 1.5)",
        columns=("family", "algorithm", "worst ratio", "bound", "within"),
    )
    instance, k, opt = partition_tight_instance()
    r_known = partition_rebalance(instance, opt, k=k).makespan / opt
    report.add_row("tight(Thm2)", "partition(OPT)", r_known, 1.5, r_known <= 1.5 + 1e-9)
    r_m = m_partition_rebalance(instance, k).makespan / opt
    report.add_row("tight(Thm2)", "m-partition", r_m, 1.5, r_m <= 1.5 + 1e-9)

    rng = np.random.default_rng(seed)
    worst_known = worst_m = 1.0
    for _ in range(trials):
        inst = random_instance(
            int(rng.integers(5, 10)), int(rng.integers(2, 5)), rng,
            integer_sizes=True,
        )
        k = int(rng.integers(0, inst.num_jobs + 1))
        opt = exact_rebalance(inst, k=k).makespan
        worst_known = max(
            worst_known, partition_rebalance(inst, opt, k=k).makespan / opt
        )
        worst_m = max(worst_m, m_partition_rebalance(inst, k).makespan / opt)
    report.add_row(f"random x{trials}", "partition(OPT)", worst_known, 1.5,
                   worst_known <= 1.5 + 1e-9)
    report.add_row(f"random x{trials}", "m-partition", worst_m, 1.5,
                   worst_m <= 1.5 + 1e-9)
    report.notes.append(
        "tight family: procs {1/2, 1} and {1/2}, k=1; PARTITION makes no "
        "move and lands on exactly 1.5."
    )
    return report


# ----------------------------------------------------------------------
# E3 — O(n log n) runtime scaling.
# ----------------------------------------------------------------------
def experiment_e3_scaling(
    sizes: tuple[int, ...] = (512, 1024, 2048, 4096, 8192),
    m: int = 16,
    seed: int = 2,
) -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="E3",
        title="Runtime scaling (Theorems 1/3: O(n log n))",
        columns=("algorithm", "n range", "log-log slope", "time@max-n (ms)"),
    )

    def make_input(n: int) -> tuple[Instance, int]:
        rng = np.random.default_rng(seed + n)
        return random_instance(n, m, rng), n // 10

    for name, runner in (
        ("greedy", lambda pair: greedy_rebalance(pair[0], pair[1])),
        ("m-partition", lambda pair: m_partition_rebalance(pair[0], pair[1])),
    ):
        points = measure_scaling(make_input, runner, sizes, repeats=2)
        slope = loglog_slope(points)
        report.add_row(
            name,
            f"{sizes[0]}..{sizes[-1]}",
            slope,
            points[-1].seconds * 1e3,
        )
    report.notes.append(
        "slope ~1 is quasi-linear; m-partition pays an O(n) threshold scan "
        "with O(m log n) work per threshold on top of the O(n log n) sort."
    )
    return report


# ----------------------------------------------------------------------
# E4 — Theorem 4: PTAS quality/cost trade-off.
# ----------------------------------------------------------------------
def experiment_e4_ptas(
    eps_values: tuple[float, ...] = (2.0, 1.0, 0.75, 0.5),
    trials: int = 8,
    seed: int = 3,
) -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="E4",
        title="PTAS ratio vs eps (Theorem 4: makespan <= (1+eps) OPT, cost <= B)",
        columns=("eps", "bound 1+eps", "mean ratio", "worst ratio",
                 "budget ok", "mean time (ms)"),
    )
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(trials):
        inst = random_instance(
            int(rng.integers(5, 9)), int(rng.integers(2, 4)), rng,
            cost_family="random", integer_sizes=True,
        )
        budget = float(rng.uniform(0.0, inst.costs.sum()))
        opt = exact_rebalance(inst, budget=budget).makespan
        cases.append((inst, budget, opt))
    for eps in eps_values:
        ratios = []
        times = []
        budget_ok = True
        for inst, budget, opt in cases:
            start = time.perf_counter()
            res = ptas_rebalance(inst, budget, eps=eps)
            times.append(time.perf_counter() - start)
            ratios.append(res.makespan / opt if opt else 1.0)
            budget_ok &= res.relocation_cost <= budget + 1e-9
        report.add_row(
            eps, 1.0 + eps, float(np.mean(ratios)), float(np.max(ratios)),
            budget_ok, float(np.mean(times) * 1e3),
        )
    report.notes.append(
        "ratio must stay below 1+eps and shrink as eps does; runtime grows "
        "steeply (the DP is exponential in the class count)."
    )
    return report


# ----------------------------------------------------------------------
# E5 — Section 3.2 vs the Shmoys–Tardos 2-approximation.
# ----------------------------------------------------------------------
def experiment_e5_costs(
    trials: int = 15, seed: int = 4
) -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="E5",
        title="Weighted rebalancing: Section 3.2 vs Shmoys-Tardos LP (2-approx)",
        columns=("algorithm", "mean ratio", "worst ratio", "mean cost used",
                 "budget ok"),
    )
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(trials):
        inst = random_instance(
            int(rng.integers(5, 10)), int(rng.integers(2, 4)), rng,
            cost_family="random", integer_sizes=True,
        )
        budget = float(rng.uniform(1.0, inst.costs.sum()))
        opt = exact_rebalance(inst, budget=budget).makespan
        cases.append((inst, budget, opt))
    for name, fn in (
        ("cost-partition(3.2)", lambda i, b: cost_partition_rebalance(i, b)),
        ("shmoys-tardos", lambda i, b: shmoys_tardos_rebalance(i, budget=b)),
    ):
        ratios = []
        costs = []
        ok = True
        for inst, budget, opt in cases:
            res = fn(inst, budget)
            ratios.append(res.makespan / opt if opt else 1.0)
            costs.append(res.relocation_cost)
            ok &= res.relocation_cost <= budget + 1e-6
        report.add_row(name, float(np.mean(ratios)), float(np.max(ratios)),
                       float(np.mean(costs)), ok)
    report.notes.append(
        "the paper's algorithm should dominate the LP baseline's worst "
        "case (1.5(1+alpha) vs 2)."
    )
    return report


# ----------------------------------------------------------------------
# E6 — the motivating web-cluster simulation.
# ----------------------------------------------------------------------
def experiment_e6_websim(
    num_sites: int = 60,
    num_servers: int = 6,
    epochs: int = 40,
    k: int = 3,
    seed: int = 5,
    traffic: str = "diurnal+flash",
) -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="E6",
        title="Web-cluster simulation: bounded-migration policies "
              "(Section 1 motivation)",
        columns=("policy", "mean makespan", "peak makespan", "mean imbalance",
                 "migrations"),
    )
    policies = (
        NoRebalance(),
        GreedyPolicy(k=k),
        MPartitionPolicy(k=k),
        HillClimbPolicy(k=k),
        FullRepackPolicy(),
    )
    for policy in policies:
        rng = np.random.default_rng(seed)
        cluster = build_cluster(num_sites, num_servers, rng)
        model = make_traffic(traffic, flash_probability=0.15)
        sim = Simulation(cluster=cluster, traffic=model, policy=policy,
                         seed=seed + 1)
        res = sim.run(epochs)
        s = res.summary()
        report.add_row(
            s["policy"], s["mean_makespan"], s["peak_makespan"],
            s["mean_imbalance"], s["total_migrations"],
        )
    report.notes.append(
        f"k={k} migrations/epoch; bounded policies should approach "
        "full-repack at a small fraction of its migrations and dominate "
        "no-rebalancing."
    )
    return report


# ----------------------------------------------------------------------
# E7 — Theorem 5: move minimization encodes PARTITION.
# ----------------------------------------------------------------------
def experiment_e7_movemin(
    trials: int = 6, n: int = 10, seed: int = 6
) -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="E7",
        title="Move minimization (Theorem 5: inapproximable; gadget gap)",
        columns=("gadget", "exact achievable", "exact moves",
                 "greedy achievable", "greedy sound"),
    )
    rng = np.random.default_rng(seed)
    for kind in ("yes", "no"):
        for t in range(trials):
            part = (
                random_yes_instance(n, rng)
                if kind == "yes"
                else random_no_instance(n, rng)
            )
            inst, bound = reduction_from_partition(part)
            exact = min_moves_exact(inst, bound)
            greedy = min_moves_greedy(inst, bound)
            # Soundness: greedy never claims achievable when exact says no.
            sound = (not greedy.achievable) or exact.achievable
            report.add_row(
                f"{kind}#{t}", exact.achievable,
                exact.moves if exact.moves is not None else "-",
                greedy.achievable, sound,
            )
    report.notes.append(
        "yes-gadgets are achievable, no-gadgets never are; any polynomial "
        "approximation would have to tell these apart (Theorem 5)."
    )
    return report


# ----------------------------------------------------------------------
# E8 — makespan-vs-k frontier.
# ----------------------------------------------------------------------
def experiment_e8_frontier(
    m: int = 4,
    jobs_per_processor: int = 5,
    displaced: int = 8,
    seed: int = 7,
) -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="E8",
        title="Makespan vs move budget k (planted-imbalance family)",
        columns=("k", "lower bound", "greedy", "m-partition", "exact/planted"),
    )
    rng = np.random.default_rng(seed)
    instance, k_star, opt = planted_imbalance_instance(
        m, jobs_per_processor, displaced, rng
    )
    for k in range(0, k_star + 3):
        lb = combined_lower_bound(instance, k)
        g = greedy_rebalance(instance, k).makespan
        mp = m_partition_rebalance(instance, k).makespan
        planted = opt if k >= k_star else float("nan")
        report.add_row(k, lb, g, mp, planted)
    report.notes.append(
        f"displaced={displaced}: the frontier must flatten at the planted "
        f"optimum once k >= {k_star}."
    )
    return report


# ----------------------------------------------------------------------
# E9 — head-to-head comparison.
# ----------------------------------------------------------------------
def experiment_e9_headtohead(
    trials: int = 12, seed: int = 8
) -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="E9",
        title="Head-to-head on random families (ratio vs exact)",
        columns=("algorithm", "mean ratio", "p95 ratio", "worst ratio",
                 "mean moves", "mean time (ms)"),
    )
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(trials):
        inst = random_instance(
            int(rng.integers(6, 11)), int(rng.integers(2, 5)), rng,
            size_family=str(rng.choice(["uniform", "exponential", "zipf"])),
            integer_sizes=True,
        )
        k = int(rng.integers(1, inst.num_jobs))
        cases.append((inst, k))
    algorithms = {
        "greedy": lambda i, k: greedy_rebalance(i, k),
        "m-partition": lambda i, k: m_partition_rebalance(i, k),
        "hill-climb": lambda i, k: hill_climb_rebalance(i, k=k),
        "random": lambda i, k: random_rebalance(i, k=k, seed=0),
    }
    stats = measure_ratios(cases, algorithms)
    for name, s in stats.items():
        report.add_row(name, s.mean, s.p95, s.worst, s.mean_moves,
                       s.mean_runtime_ms)
    report.notes.append(
        "expected order: m-partition <= 1.5 worst, greedy <= 2 - 1/m worst, "
        "hill-climb unbounded-in-theory, random far behind."
    )
    return report


# ----------------------------------------------------------------------
# E10 — Theorems 6/7 + Corollary 1 gadget gaps.
# ----------------------------------------------------------------------
def experiment_e10_hardness(
    n: int = 3, trials: int = 4, seed: int = 9
) -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="E10",
        title="Hardness gadgets (Theorems 6-7, Corollary 1): observed gaps",
        columns=("gadget", "instance", "has matching", "observed", "consistent"),
    )
    rng = np.random.default_rng(seed)
    for t in range(trials):
        yes = planted_yes_instance(n, n, rng)
        no = verified_no_instance(n, 2 * n, rng)
        for label, tdm in (("yes", yes), ("no", no)):
            # Theorem 6: two-valued-cost GAP.
            v = verify_gadget_gap(tdm)
            report.add_row(
                "Thm6 GAP", f"{label}#{t}", v["has_matching"],
                f"makespan {v['gadget_makespan']}", bool(v["consistent"]),
            )
            # Theorem 7: conflict scheduling feasibility.
            g = conflict_gadget_from_3dm(tdm)
            feasible = feasible_conflict_assignment(g) is not None
            report.add_row(
                "Thm7 conflict", f"{label}#{t}", v["has_matching"],
                f"feasible={feasible}", feasible == v["has_matching"],
            )
        # Corollary 1: constrained rebalancing (yes-instances only; the
        # gadget needs every element covered by some triple).
        ci, target = constrained_gadget_from_3dm(yes)
        mk, _ = exact_constrained(ci, k=ci.instance.num_jobs)
        report.add_row(
            "Cor1 constrained", f"yes#{t}", True, f"makespan {mk}",
            abs(mk - target) < 1e-9,
        )
    report.notes.append(
        "every yes-gadget must hit the small value (2 / feasible); every "
        "no-gadget must miss it — the 1.5 and unbounded gaps of Section 5."
    )
    return report


# ----------------------------------------------------------------------
# E11 — guarantees certified at scale (no exact solver).
# ----------------------------------------------------------------------
def experiment_e11_scale_oracles(
    sizes: tuple[tuple[int, int], ...] = ((1_000, 16), (10_000, 32),
                                          (50_000, 64)),
    seed: int = 10,
) -> ExperimentReport:
    """Theorem bounds verified at sizes exact search cannot touch.

    Two oracles make this possible: the closed-form optimum for
    unit-size jobs (the Rudolph et al. model of Section 1) and the
    planted-imbalance family, where the Lemma-1 lower bound is exactly
    the optimum.  Each run is re-checked by an independent certificate
    (:mod:`repro.core.certify`).
    """
    from ..core.certify import certify
    from ..core.unit_jobs import unit_opt_value, unit_rebalance_exact

    report = ExperimentReport(
        experiment_id="E11",
        title="Guarantees certified at scale (unit-size and planted oracles)",
        columns=("oracle", "n", "m", "algorithm", "ratio vs oracle",
                 "bound", "certified"),
    )
    rng = np.random.default_rng(seed)
    for n, m in sizes:
        # Unit-size oracle.
        initial = rng.integers(0, m, n)
        inst = Instance(
            sizes=np.ones(n), costs=np.ones(n), num_processors=m,
            initial=initial,
        )
        k = n // 20
        opt = unit_opt_value(inst, k)
        exact = unit_rebalance_exact(inst, k)
        assert exact.makespan == opt
        for name, res in (
            ("greedy", greedy_rebalance(inst, k)),
            ("m-partition", m_partition_rebalance(inst, k)),
        ):
            cert = certify(res, k=k)
            bound = 1.5 if name == "m-partition" else 2.0 - 1.0 / m
            ratio = res.makespan / opt
            report.add_row(
                "unit", n, m, name, ratio, bound,
                cert.valid and ratio <= bound + 1e-9,
            )
        # Planted oracle.
        per = max(2, n // m)
        displaced = per // 2
        inst2, k2, opt2 = planted_imbalance_instance(m, per, displaced, rng)
        for name, res in (
            ("greedy", greedy_rebalance(inst2, k2)),
            ("m-partition", m_partition_rebalance(inst2, k2)),
        ):
            cert = certify(res, k=k2)
            bound = 1.5 if name == "m-partition" else 2.0 - 1.0 / m
            ratio = res.makespan / opt2
            report.add_row(
                "planted", inst2.num_jobs, m, name, ratio, bound,
                cert.valid and ratio <= bound + 1e-9,
            )
    report.notes.append(
        "oracle optima are exact by construction; certificates "
        "re-derive loads, budgets and bounds independently of the "
        "algorithms' own bookkeeping."
    )
    return report


# ----------------------------------------------------------------------
# E12 — the warm-start engine vs from-scratch M-PARTITION in the loop.
# ----------------------------------------------------------------------
def experiment_e12_engine(
    num_sites: int = 2_000,
    num_servers: int = 32,
    epochs: int = 50,
    k: int = 8,
    seed: int = 12,
) -> ExperimentReport:
    """Epoch-loop wall clock: engine-backed vs from-scratch M-PARTITION.

    Both policies must produce the identical trajectory (the engine is a
    transparent acceleration); the table reports the decide-time totals
    and the engine's cache counters under dense traffic (every site's
    load drifts each epoch) and sparse traffic (flash crowds only — most
    snapshots change a handful of sites, and fully decayed crowds
    return byte-identical snapshots the decision cache answers).
    """
    report = ExperimentReport(
        experiment_id="E12",
        title="Warm-start engine vs from-scratch M-PARTITION "
              "(epoch-loop decide wall clock)",
        columns=("traffic", "policy", "decide s", "speedup",
                 "tables reused", "buckets patched", "cache hits",
                 "identical"),
    )
    traffics = (
        ("dense",
         lambda: make_traffic("diurnal+flash", flash_probability=0.1)),
        ("sparse", lambda: make_traffic("flash", flash_probability=0.05)),
    )
    for label, build_traffic in traffics:
        runs = {}
        for policy in (MPartitionPolicy(k=k), EngineMPartitionPolicy(k=k)):
            rng = np.random.default_rng(seed)
            cluster = build_cluster(num_sites, num_servers, rng)
            sim = Simulation(cluster=cluster, traffic=build_traffic(),
                             policy=policy, seed=seed + 1)
            res = sim.run(epochs)
            runs[policy.name] = (
                res,
                sum(r.decide_seconds for r in res.records),
            )
        scratch_res, scratch_s = runs["m-partition"]
        engine_res, engine_s = runs["m-partition-engine"]
        identical = [r.makespan for r in scratch_res.records] == [
            r.makespan for r in engine_res.records
        ] and [r.migrations for r in scratch_res.records] == [
            r.migrations for r in engine_res.records
        ]
        # Counters live on the engine the simulation deep-copied away,
        # so replay the same trajectory against a probe engine directly.
        stats = _engine_stats_for(
            EngineMPartitionPolicy(k=k), build_traffic(),
            num_sites, num_servers, epochs, seed,
        )
        report.add_row(label, "m-partition", scratch_s, 1.0, "-", "-", "-",
                       identical)
        report.add_row(
            label, "m-partition-engine", engine_s,
            scratch_s / engine_s if engine_s else float("inf"),
            stats["tables_reused"], stats["buckets_patched"],
            stats["cache_hits"], identical,
        )
    report.notes.append(
        f"n={num_sites} sites, m={num_servers} servers, {epochs} epochs, "
        f"k={k}; identical=True certifies the engine returned the exact "
        "from-scratch decisions while reusing cached threshold tables."
    )
    return report


def _engine_stats_for(
    probe: EngineMPartitionPolicy,
    traffic,
    num_sites: int,
    num_servers: int,
    epochs: int,
    seed: int,
) -> dict[str, int]:
    """Run the epoch loop directly against ``probe``'s engine so its
    cache counters survive (Simulation deep-copies its policy)."""
    rng = np.random.default_rng(seed + 1)
    cluster = build_cluster(num_sites, num_servers, np.random.default_rng(seed))
    for epoch in range(epochs):
        traffic.step(cluster.sites, epoch, rng)
        assignment = probe.decide(cluster.to_instance(), epoch)
        cluster.apply_assignment(assignment)
    return probe.engine.stats.as_dict()


# ----------------------------------------------------------------------
# E13 — vectorized DP kernels + parallel sweep vs the reference paths.
# ----------------------------------------------------------------------
def experiment_e13_kernels(
    trials: int = 4,
    seed: int = 13,
    worker_counts: tuple[int, ...] = (1, 2),
) -> ExperimentReport:
    """Kernel-vs-reference decide time for the cost/budgeted solvers.

    Three cases at the E4/E5 seed sizes — the budgeted PTAS, the
    Section-3.2 cost-partition scan, and the bare exact knapsack — each
    run once per backend over identical instances.  ``identical=True``
    certifies the kernel returned the exact reference solution (guess,
    planned cost, and assignment; kept set for the knapsack).  The
    ``dp work`` column is the backend's own account of its DP effort
    (``ptas_dp_states`` / ``knapsack_cells`` telemetry counters): the
    reference counts every allocated cell, the kernel only the cells it
    actually touches.  Worker rows rerun the kernel PTAS with the outer
    guess sweep fanned out over ``repro.parallel`` worker processes —
    the thresholds are identical by construction, so the row only
    measures scheduling overhead vs parallelism on this machine.
    """
    from .. import telemetry as _telemetry

    report = ExperimentReport(
        experiment_id="E13",
        title="Vectorized DP kernels vs reference (decide wall clock)",
        columns=("case", "backend", "time (s)", "speedup", "dp work",
                 "identical"),
    )
    rng = np.random.default_rng(seed)

    def timed(fn, cases):
        outs = []
        with _telemetry.collect() as col:
            start = time.perf_counter()
            for case in cases:
                outs.append(fn(case))
            elapsed = time.perf_counter() - start
        return outs, elapsed, dict(col.counters)

    def result_key(res):
        return (res.guessed_opt, res.planned_cost,
                tuple(int(x) for x in res.assignment.mapping))

    # Case 1: the budgeted PTAS at the E4 seed size.
    ptas_cases = []
    for _ in range(trials):
        inst = random_instance(7, 3, rng, cost_family="random",
                               integer_sizes=True)
        ptas_cases.append((inst, float(inst.costs.sum()) / 2.0))
    ref, ref_s, ref_w = timed(
        lambda c: ptas_rebalance(c[0], c[1], eps=0.75, backend="reference"),
        ptas_cases,
    )
    ker, ker_s, ker_w = timed(
        lambda c: ptas_rebalance(c[0], c[1], eps=0.75, backend="kernel"),
        ptas_cases,
    )
    identical = all(
        result_key(a) == result_key(b) for a, b in zip(ref, ker)
    )
    report.add_row("E4 ptas (n=7 m=3 eps=0.75)", "reference", ref_s, 1.0,
                   ref_w.get("ptas_dp_states", 0), True)
    report.add_row("E4 ptas (n=7 m=3 eps=0.75)", "kernel", ker_s,
                   ref_s / ker_s if ker_s else float("inf"),
                   ker_w.get("ptas_dp_states", 0), identical)
    for w in worker_counts:
        if w <= 1:
            continue
        par, par_s, _ = timed(
            lambda c: ptas_rebalance(c[0], c[1], eps=0.75, backend="kernel",
                                     workers=w),
            ptas_cases,
        )
        identical_w = all(
            result_key(a) == result_key(b) for a, b in zip(ker, par)
        )
        report.add_row(
            "E4 ptas (n=7 m=3 eps=0.75)", f"kernel workers={w}", par_s,
            ref_s / par_s if par_s else float("inf"), "-", identical_w,
        )

    # Case 2: the cost-partition guess scan at the E5 upper seed size.
    cp_cases = []
    for t in range(trials):
        inst = random_instance(64, 6, rng, cost_family="random")
        cp_cases.append((inst, float(inst.costs.sum()) / 4.0))
    ref, ref_s, ref_w = timed(
        lambda c: cost_partition_rebalance(c[0], c[1], backend="reference"),
        cp_cases,
    )
    ker, ker_s, ker_w = timed(
        lambda c: cost_partition_rebalance(c[0], c[1], backend="kernel"),
        cp_cases,
    )
    identical = all(
        result_key(a) == result_key(b) for a, b in zip(ref, ker)
    )
    report.add_row("E5 cost-partition (n=64 m=6)", "reference", ref_s, 1.0,
                   ref_w.get("knapsack_cells", 0), True)
    report.add_row("E5 cost-partition (n=64 m=6)", "kernel", ker_s,
                   ref_s / ker_s if ker_s else float("inf"),
                   ker_w.get("knapsack_cells", 0), identical)

    # Case 3: the bare exact knapsack on an overloaded shape (the DP
    # actually runs; fitting shapes exit through the all-fits shortcut).
    from ..core.knapsack import keep_max_cost_exact

    ks_cases = []
    for _ in range(trials * 12):
        sizes = rng.integers(1, 15, 48).astype(np.float64)
        costs = rng.integers(0, 20, 48).astype(np.float64)
        ks_cases.append((sizes, costs, float(sizes.sum()) * 0.6))
    ref, ref_s, ref_w = timed(
        lambda c: keep_max_cost_exact(c[0], c[1], c[2], backend="reference"),
        ks_cases,
    )
    ker, ker_s, ker_w = timed(
        lambda c: keep_max_cost_exact(c[0], c[1], c[2], backend="kernel"),
        ks_cases,
    )
    identical = all(a == b for a, b in zip(ref, ker))
    report.add_row("exact knapsack (n=48 overloaded)", "reference", ref_s,
                   1.0, ref_w.get("knapsack_cells", 0), True)
    report.add_row("exact knapsack (n=48 overloaded)", "kernel", ker_s,
                   ref_s / ker_s if ker_s else float("inf"),
                   ker_w.get("knapsack_cells", 0), identical)

    report.notes.append(
        "same instances per backend; identical=True certifies byte-equal "
        "solutions. Worker rows depend on the machine's core count "
        "(process-pool overhead dominates on a single core)."
    )
    return report


# ----------------------------------------------------------------------
# E14 — the rebalancing service: batching + admission vs naive serving.
# ----------------------------------------------------------------------
def _e14_run(server_config, loadgen_config):
    """One load-generation run against a fresh in-process server;
    returns the report plus whether the server still answered ``ping``
    after the run (the no-crash witness for the overload rows)."""
    from ..service import ServiceClient, run_loadgen, start_background

    with start_background(server_config) as handle:
        report = run_loadgen(handle.host, handle.port, loadgen_config)
        with ServiceClient(handle.host, handle.port, timeout=5.0) as probe:
            alive = probe.ping()
    return report, alive


def experiment_e14_service(
    rate: float = 120.0,
    duration_s: float = 2.0,
    duplicates: int = 4,
    deadline_ms: float = 300.0,
    seed: int = 14,
) -> ExperimentReport:
    """The asyncio service: batched vs naive goodput under open load.

    Four runs against fresh in-process servers on a workload calibrated
    so one from-scratch solve costs >= 15ms on this host (so the naive
    one-request-per-solve server's capacity is well below the offered
    rate regardless of machine speed).  ``batched`` is the full
    pipeline — admission queue, fingerprint-dedupe micro-batching, warm
    per-shard engines; ``naive`` solves every request from scratch,
    one at a time.  The overload rows re-run each mode past capacity
    with a tighter admission queue: graceful degradation means the
    excess is turned away as rejections/sheds while the server stays
    alive (``alive`` = answered ``ping`` after the run) — never an
    unbounded queue or a crash.
    """
    from dataclasses import replace as _replace

    from ..service import ServerConfig, calibrate_workload

    base, scratch_s = calibrate_workload(seed=seed)
    report = ExperimentReport(
        experiment_id="E14",
        title="Rebalancing service: batched vs naive serving (open loop)",
        columns=("mode", "rate/s", "goodput/s", "p50 ms", "p99 ms",
                 "ok", "late", "rej", "shed", "err", "alive"),
    )
    cases = (
        ("batched", ServerConfig(max_queue=64), rate),
        ("naive", ServerConfig.naive(max_queue=64), rate),
        ("batched 2x rate q=24", ServerConfig(max_queue=24), 2 * rate),
        ("naive overload q=24", ServerConfig.naive(max_queue=24), rate),
    )
    for mode, server_config, offered_rate in cases:
        lg = _replace(
            base, rate=offered_rate, duration_s=duration_s,
            duplicates=duplicates, deadline_ms=deadline_ms,
        )
        run, alive = _e14_run(server_config, lg)
        report.add_row(
            mode, offered_rate, run.goodput_per_s, run.p50_ms, run.p99_ms,
            run.completed, run.late, run.rejected, run.shed, run.errors,
            alive,
        )
    report.notes.append(
        f"calibrated workload: n={base.num_sites} m={base.num_servers} "
        f"k={base.k}, scratch solve {scratch_s * 1e3:.1f}ms "
        f"(naive capacity ~{1.0 / scratch_s:.0f}/s); "
        f"duplicates={duplicates}, deadline {deadline_ms:.0f}ms. "
        "goodput counts completions within the client deadline; "
        "rej = admission rejections, shed = server-side deadline "
        "expiries. Client and servers share this host, so the batched "
        "ceiling is also machine-bound."
    )
    return report


# ----------------------------------------------------------------------
# E15 — wire formats: v2 binary + delta snapshots vs v1 JSON.
# ----------------------------------------------------------------------
def wire_sizes(config) -> dict:
    """Frame sizes for one epoch stream under every transport.

    Encodes each snapshot of ``config``'s workload as a full v1-JSON
    request and a full v2-binary request, and each consecutive-epoch
    transition as the v2 delta frame the client would actually send
    (``compute_delta`` + fingerprint header).  Returns the per-request
    byte counts plus the changed-site counts behind the deltas.
    """
    from ..core.instance import compute_delta
    from ..service import PROTOCOL_V1, PROTOCOL_V2, build_snapshots, encode_frame

    def request(key, payload):
        return {"op": "rebalance", "shard": "wire", "k": config.k,
                "deadline_ms": 300.0, key: payload}

    snapshots = build_snapshots(config)
    v1_full = [len(encode_frame(request("instance", s.to_dict()),
                                version=PROTOCOL_V1)) for s in snapshots]
    v2_full = [len(encode_frame(request("instance", s.to_wire()),
                                version=PROTOCOL_V2)) for s in snapshots]
    v2_delta, changed = [], []
    for prev, cur in zip(snapshots, snapshots[1:]):
        delta = compute_delta(prev, cur)
        changed.append(int(len(delta["idx"])))
        message = request("delta", {"base": "00" * 16, **delta})
        v2_delta.append(len(encode_frame(message, version=PROTOCOL_V2)))
    return {
        "epochs": len(snapshots),
        "v1_full_bytes": float(np.mean(v1_full)),
        "v2_full_bytes": float(np.mean(v2_full)),
        "v2_delta_bytes": float(np.mean(v2_delta)),
        "v2_delta_max_bytes": int(max(v2_delta)),
        "changed_sites_mean": float(np.mean(changed)),
        "binary_reduction": float(np.mean(v1_full) / np.mean(v2_full)),
        "delta_reduction": float(np.mean(v1_full) / np.mean(v2_delta)),
    }


def experiment_e15_wire(
    duration_s: float = 2.0,
    deadline_ms: float = 300.0,
    overload: float = 1.35,
    rate_cap: float = 400.0,
    seed: int = 15,
) -> ExperimentReport:
    """Wire formats end to end: bytes per request and goodput.

    One steady-traffic multi-shard workload, calibrated so a single
    v1-JSON codec round costs a fixed time on this host, offered at
    ``overload`` times the v1 codec's own capacity.  The v1 leg must
    fall behind — its codec cannot even serialize the offered load on
    time — while the v2 binary+delta leg, whose deltas land on the
    server's resident arrays in O(changed sites), serves the same
    arrival stream with its event loop barely working.  The last row
    prices the full v2 binary snapshot, which is only modestly smaller
    than JSON; the order-of-magnitude win is the delta row, and it is
    the transport the optimized leg actually runs on.
    """
    from dataclasses import replace as _replace

    from ..service import ServerConfig, calibrate_wire_workload

    base, codec_s = calibrate_wire_workload(seed=seed)
    sizes = wire_sizes(base)
    rate = min(rate_cap, overload / codec_s)
    report = ExperimentReport(
        experiment_id="E15",
        title="Wire formats: v2 binary + delta snapshots vs v1 JSON",
        columns=("transport", "req bytes", "vs v1", "goodput/s",
                 "p50 ms", "p99 ms", "ok", "late", "shed", "err", "alive"),
    )
    lg = _replace(base, rate=rate, duration_s=duration_s,
                  deadline_ms=deadline_ms)
    cases = (
        ("v1 json full / thread", ServerConfig(max_queue=64), lg,
         sizes["v1_full_bytes"], 1.0),
        ("v2 delta", ServerConfig(max_queue=64),
         _replace(lg, protocol="binary", delta=True),
         sizes["v2_delta_bytes"], sizes["delta_reduction"]),
    )
    for mode, server_config, config, req_bytes, reduction in cases:
        run, alive = _e14_run(server_config, config)
        report.add_row(
            mode, int(req_bytes), f"{reduction:.1f}x", run.goodput_per_s,
            run.p50_ms, run.p99_ms, run.completed, run.late, run.shed,
            run.errors, alive,
        )
    report.add_row(
        "v2 binary full (encoded only)", int(sizes["v2_full_bytes"]),
        f"{sizes['binary_reduction']:.2f}x", "-", "-", "-", "-", "-", "-",
        "-", "-",
    )
    report.notes.append(
        f"calibrated workload: n={base.num_sites} m={base.num_servers} "
        f"k={base.k}, shards={base.shards}, duplicates={base.duplicates}, "
        f"steady traffic ({sizes['changed_sites_mean']:.1f} changed "
        f"sites/epoch); v1 codec round {codec_s * 1e3:.1f}ms -> offered "
        f"rate {rate:.0f}/s = {overload:.2f}x the v1 codec's capacity. "
        "Request bytes are measured frame sizes for the same epoch "
        "stream; the delta row is what the optimized leg sends once its "
        "per-shard bases are warm."
    )
    return report


# ----------------------------------------------------------------------
# E17 — the cluster tier: router + N backend processes, failover.
# ----------------------------------------------------------------------
def _e17_balanced_shard_base(
    node_names: list[str], shards: int, vnodes: int = 64
) -> str:
    """A shard base name whose ``shards`` lane names split evenly
    across the backend ring.

    The ring is a pure function of logical node names and crc32, so
    the hunt is deterministic: every E17 run measures the same
    placement.  The split matters because goodput under overload is
    per-owner capacity summed over nodes — an uneven split caps the
    cluster leg below the linear-scaling claim E17 pins.
    """
    from collections import Counter

    from ..service import HashRing

    ring = HashRing(tuple(node_names), vnodes=vnodes)
    per_node = shards // len(node_names)
    for trial in range(10_000):
        base = f"lane{trial}"
        counts = Counter(ring.owner(f"{base}-{i}") for i in range(shards))
        if all(counts.get(name, 0) == per_node for name in node_names):
            return base
    raise RuntimeError("no balanced shard split found")  # pragma: no cover


def _e17_workload(seed: int):
    """A small fixed-size workload plus its measured scratch-solve
    time.

    E17's per-node capacity comes from the synthetic service floor,
    not the solve, so the instance only needs to be big enough to
    exercise the delta path.  Keeping it small keeps the per-request
    CPU (codec, router re-encoding, replicate handling) negligible
    next to the floor — on a one-core host that CPU is shared by the
    loadgen, the router, and both backends, and a calibrated-size
    instance would eat the scale-out it is trying to measure.
    """
    import time as _time

    from ..core.partition import m_partition_rebalance
    from ..service import LoadGenConfig, build_snapshots

    config = LoadGenConfig(
        num_sites=300, num_servers=12, k=8, epochs=24, seed=seed
    )
    from dataclasses import replace as _replace

    snapshot = build_snapshots(_replace(config, epochs=1))[0]
    solve_s = float("inf")
    for _ in range(2):  # best-of-2 strips scheduler spikes
        start = _time.perf_counter()
        m_partition_rebalance(snapshot, config.k)
        solve_s = min(solve_s, _time.perf_counter() - start)
    return config, solve_s


def _e17_leg(
    loadgen_config,
    n_backends: int,
    *,
    router: bool,
    kill_at_s: float | None = None,
    max_queue: int = 16,
    solve_delay_ms: float = 0.0,
):
    """One E17 leg: spawn real ``serve`` OS processes, optionally put
    a router in front, and run the open loop.

    Backends run ``--naive --solver-workers 1`` plus a synthetic
    per-solve service-time floor (``--solve-delay-ms``): each node
    serves exactly one request per ``solve + floor`` interval, and the
    sleep releases the GIL and the core.  Capacity is therefore pinned
    *per node* no matter how many cores the host has — without the
    floor, two CPU-bound backend processes on a one-core CI box share
    the core and can never show the scale-out the cluster tier
    actually provides.  ``--max-queue`` is sized by the caller so a
    full queue drains in about half the deadline: admitted requests
    complete in time and the excess is rejected (backpressure), which
    goodput correctly ignores.  A deeper queue would silently convert
    rejections into deadline misses and cap measured goodput far
    below capacity.  ``kill_at_s`` arms a ``kill -9`` of the *last*
    backend mid-run — the failover injection.  Returns
    ``(report, router_counters)``.
    """
    import threading

    from ..service import (
        BackendSpec,
        RouterConfig,
        ServiceClient,
        run_loadgen,
        spawn_serve_process,
        start_router_background,
    )

    extra = (
        "--naive", "--solver-workers", "1", "--max-queue", str(max_queue),
        "--solve-delay-ms", str(solve_delay_ms),
    )
    processes = []
    handle = None
    timer = None
    counters: dict[str, int] = {}
    try:
        for _ in range(n_backends):
            processes.append(spawn_serve_process(*extra))
        if router:
            specs = tuple(
                BackendSpec(f"backend-{i}", proc.host, proc.port)
                for i, proc in enumerate(processes)
            )
            handle = start_router_background(RouterConfig(backends=specs))
            host, port = handle.host, handle.port
        else:
            host, port = processes[0].host, processes[0].port
        if kill_at_s is not None:
            timer = threading.Timer(kill_at_s, processes[-1].kill)
            timer.start()
        report = run_loadgen(host, port, loadgen_config)
        if router:
            with ServiceClient(host, port, timeout=10.0) as probe:
                counters = probe.status()["router"]["metrics"]["counters"]
    finally:
        if timer is not None:
            timer.cancel()
        if handle is not None:
            handle.stop()
        for proc in processes:
            proc.terminate()
    return report, counters


def experiment_e17_cluster(
    duration_s: float = 2.5,
    deadline_ms: float = 500.0,
    overload: float = 2.4,
    rate_cap: float = 150.0,
    shards: int = 8,
    seed: int = 17,
    solve_delay_ms: float = 80.0,
) -> ExperimentReport:
    """The cluster tier end to end: scale-out goodput and failover.

    Per-node capacity is pinned by construction: backends solve one
    request at a time and each solve carries a ``solve_delay_ms``
    service-time floor (slept on the solve thread, releasing the GIL
    and the core), so a node serves ~``1/(solve + floor)`` requests
    per second regardless of host CPU — two backends scale to ~2x
    even on a one-core machine, which is what lets this experiment
    measure the *cluster tier* rather than the core count.  The
    workload is offered at ``overload`` times one node's capacity.
    Three legs, same arrival stream: a single backend process
    saturates at its capacity; two backend processes behind the
    router serve about twice that (the shard lanes split evenly
    across the ring by construction); and the failover leg
    ``kill -9``-s one of the two mid-run — the router promotes the
    delta-replicated standby and replays in-flight requests, so
    clients observe a latency blip but **zero errors**.
    """
    from dataclasses import replace as _replace

    base, solve_s = _e17_workload(seed)
    service_s = solve_s + solve_delay_ms / 1e3
    capacity = 1.0 / service_s
    rate = min(rate_cap, overload * capacity)
    # Queue depth scales with the pinned service time so a full queue
    # drains in ~70% of the deadline: deep enough to smooth arrival
    # bursts (a too-thin queue lets a node idle between them), shallow
    # enough that every admitted request still clears the deadline.
    max_queue = max(2, int(0.7 * (deadline_ms / 1e3) / service_s))
    shard_base = _e17_balanced_shard_base(["backend-0", "backend-1"], shards)
    lg = _replace(
        base, rate=rate, duration_s=duration_s, deadline_ms=deadline_ms,
        connections=16, duplicates=1, shards=shards, shard=shard_base,
        protocol="binary", delta=True,
    )
    report = ExperimentReport(
        experiment_id="E17",
        title="Cluster tier: router over backend processes, failover mid-run",
        columns=("topology", "goodput/s", "vs single", "p50 ms", "p99 ms",
                 "ok", "late", "rej", "shed", "err", "replicated", "deaths"),
    )
    single, _ = _e17_leg(
        lg, 1, router=False, max_queue=max_queue,
        solve_delay_ms=solve_delay_ms,
    )
    cluster, counters = _e17_leg(
        lg, 2, router=True, max_queue=max_queue,
        solve_delay_ms=solve_delay_ms,
    )
    failover, f_counters = _e17_leg(
        lg, 2, router=True, kill_at_s=duration_s / 2, max_queue=max_queue,
        solve_delay_ms=solve_delay_ms,
    )
    for name, run, ctrs in (
        ("single backend (direct)", single, {}),
        ("router + 2 backends", cluster, counters),
        ("router + 2 backends, one killed", failover, f_counters),
    ):
        ratio = (
            run.goodput_per_s / single.goodput_per_s
            if single.goodput_per_s else float("nan")
        )
        report.add_row(
            name, run.goodput_per_s, f"{ratio:.2f}x", run.p50_ms,
            run.p99_ms, run.completed, run.late, run.rejected, run.shed,
            run.errors, ctrs.get("router.replicated", 0),
            ctrs.get("router.backend_deaths", 0),
        )
    report.notes.append(
        f"fixed small workload: n={base.num_sites} m={base.num_servers} "
        f"k={base.k}; scratch solve {solve_s * 1e3:.1f}ms + "
        f"{solve_delay_ms:.0f}ms service floor -> per-backend capacity "
        f"~{capacity:.0f}/s pinned regardless of host cores, offered "
        f"rate {rate:.0f}/s = {overload:.1f}x one backend.  Backends "
        "are real OS processes (--naive --solver-workers 1 "
        "--solve-delay-ms: one request per service interval; "
        f"--max-queue {max_queue} drains in ~70% of the deadline); the "
        f"{shards} shard lanes split 50/50 across the ring "
        f"(base {shard_base!r}, hunted deterministically).  The failover "
        "leg SIGKILLs one backend at the half-way mark: the router "
        "detects the death inline (transport error) or via health "
        "probes, promotes the standby that absorbed the shard's delta "
        "replica stream, and replays the in-flight requests — the err "
        "column staying 0 through a kill -9 is the tentpole claim."
    )
    return report


ALL_EXPERIMENTS = {
    "E1": experiment_e1_greedy,
    "E2": experiment_e2_partition,
    "E3": experiment_e3_scaling,
    "E4": experiment_e4_ptas,
    "E5": experiment_e5_costs,
    "E6": experiment_e6_websim,
    "E7": experiment_e7_movemin,
    "E8": experiment_e8_frontier,
    "E9": experiment_e9_headtohead,
    "E10": experiment_e10_hardness,
    "E11": experiment_e11_scale_oracles,
    "E12": experiment_e12_engine,
    "E13": experiment_e13_kernels,
    "E14": experiment_e14_service,
    "E15": experiment_e15_wire,
    "E17": experiment_e17_cluster,
}
