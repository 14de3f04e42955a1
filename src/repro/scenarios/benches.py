"""Catalog-driven acceptance bench runners (the BENCH_* records).

Each runner here used to live inline in a ``benchmarks/bench_e*.py``
script with its own hard-coded knobs; the scripts are now thin pytest
shims and the logic lives here, parameterized by the scenario's
tier-resolved ``bench`` params.  A runner returns ``(metrics, detail)``:

* ``metrics`` — a *flat* dict of scalars; the drift comparator gates
  these per the scenario's policy and the catalog's acceptance checks
  evaluate against them.  Runners do **not** assert — pass/fail is the
  catalog's declarative job.
* ``detail`` — the free-form record payload humans read (per-leg
  reports, hunt ladders, counters); never drift-compared.

``log`` is a print-like callable for progress lines (CI logs keep the
narrative the old scripts printed).
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Callable

__all__ = ["BENCH_RUNNERS"]

Log = Callable[[str], None]


def _leg_record(report, alive=None):
    out = report.as_dict()
    out.pop("latency_ms", None)   # bucket dump; percentiles retained
    out.pop("steady_ms", None)    # ditto (churn-stream reports)
    out.pop("warmup_ms", None)
    if alive is not None:
        out["alive_after"] = alive
    return out


def _accounted(report) -> bool:
    """Every offered request got exactly one recorded outcome."""
    return (report.completed + report.late + report.rejected + report.shed
            + report.errors) == report.offered


# ----------------------------------------------------------------------
# E13 — kernel backends vs reference DPs.
# ----------------------------------------------------------------------
def bench_e13(params: dict[str, Any], log: Log):
    import numpy as np

    from ..core import cost_partition_rebalance, ptas_rebalance
    from ..workloads import random_instance

    trials = params.get("trials", 4)
    eps = params.get("eps", 0.75)
    ptas_seed = params.get("ptas_seed", 13)
    cost_seed = params.get("cost_seed", 8)
    ptas_reps = params.get("ptas_reps", 3)
    cost_reps = params.get("cost_reps", 12)

    def key(res):
        return (res.guessed_opt, res.planned_cost,
                tuple(int(x) for x in res.assignment.mapping))

    def cases_for(n, m, seed, budget_div):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(trials):
            inst = random_instance(n, m, rng, cost_family="random",
                                   integer_sizes=(n <= 16))
            out.append((inst, float(inst.costs.sum()) / budget_div))
        return out

    def best_of_pair(ref_fn, ker_fn, cases, reps):
        # Interleaved best-of-N strips scheduler/allocator spikes that
        # otherwise dominate millisecond kernels on a busy host.
        ref_best = [float("inf")] * len(cases)
        ker_best = [float("inf")] * len(cases)
        for _ in range(reps):
            for i, case in enumerate(cases):
                start = time.perf_counter()
                ref_fn(case)
                ref_best[i] = min(ref_best[i], time.perf_counter() - start)
                start = time.perf_counter()
                ker_fn(case)
                ker_best[i] = min(ker_best[i], time.perf_counter() - start)
        return sum(ref_best), sum(ker_best)

    detail: dict[str, Any] = {}
    identical = True

    cases = cases_for(7, 3, ptas_seed, 2.0)
    ref_out = [ptas_rebalance(i, b, eps=eps, backend="reference")
               for i, b in cases]
    ker_out = [ptas_rebalance(i, b, eps=eps, backend="kernel")
               for i, b in cases]
    identical &= [key(r) for r in ref_out] == [key(r) for r in ker_out]
    ref_s, ker_s = best_of_pair(
        lambda c: ptas_rebalance(c[0], c[1], eps=eps, backend="reference"),
        lambda c: ptas_rebalance(c[0], c[1], eps=eps, backend="kernel"),
        cases, reps=ptas_reps,
    )
    ptas_speedup = ref_s / ker_s if ker_s else float("inf")
    detail["e4_ptas"] = {
        "n": 7, "m": 3, "eps": eps, "trials": len(cases),
        "reference_s": ref_s, "kernel_s": ker_s, "speedup": ptas_speedup,
    }
    log(f"[E13] e4_ptas: {ref_s * 1e3:.2f}ms -> {ker_s * 1e3:.2f}ms "
        f"({ptas_speedup:.2f}x)")

    cases = cases_for(64, 6, cost_seed, 4.0)
    ref_out = [cost_partition_rebalance(i, b, backend="reference")
               for i, b in cases]
    ker_out = [cost_partition_rebalance(i, b, backend="kernel")
               for i, b in cases]
    identical &= [key(r) for r in ref_out] == [key(r) for r in ker_out]
    ref_s, ker_s = best_of_pair(
        lambda c: cost_partition_rebalance(c[0], c[1], backend="reference"),
        lambda c: cost_partition_rebalance(c[0], c[1], backend="kernel"),
        cases, reps=cost_reps,
    )
    cost_speedup = ref_s / ker_s if ker_s else float("inf")
    detail["e5_cost_partition"] = {
        "n": 64, "m": 6, "trials": len(cases),
        "reference_s": ref_s, "kernel_s": ker_s, "speedup": cost_speedup,
    }
    log(f"[E13] e5_cost_partition: {ref_s * 1e3:.2f}ms -> "
        f"{ker_s * 1e3:.2f}ms ({cost_speedup:.2f}x)")

    metrics = {
        "e4_ptas_speedup": ptas_speedup,
        "e5_cost_partition_speedup": cost_speedup,
        "solutions_identical": bool(identical),
    }
    return metrics, detail


# ----------------------------------------------------------------------
# E14 — batched vs naive serving.
# ----------------------------------------------------------------------
def bench_e14(params: dict[str, Any], log: Log):
    from ..service import (
        ServerConfig,
        ServiceClient,
        calibrate_workload,
        run_loadgen,
        start_background,
    )

    rate = params.get("rate", 120.0)
    duration_s = params.get("duration_s", 2.0)
    duplicates = params.get("duplicates", 4)
    deadline_ms = params.get("deadline_ms", 300.0)
    max_queue = params.get("max_queue", 64)
    overload_queue = params.get("overload_queue", 24)

    def run(server_config, loadgen_config):
        with start_background(server_config) as handle:
            report = run_loadgen(handle.host, handle.port, loadgen_config)
            with ServiceClient(handle.host, handle.port, timeout=5.0) as probe:
                alive = probe.ping()
                status = probe.status()
        return report, alive, status

    base, scratch_s = calibrate_workload()
    lg = replace(base, rate=rate, duration_s=duration_s,
                 duplicates=duplicates, deadline_ms=deadline_ms)

    batched, batched_alive, _ = run(ServerConfig(max_queue=max_queue), lg)
    naive, naive_alive, _ = run(ServerConfig.naive(max_queue=max_queue), lg)
    # Overload rows: past capacity with a tight admission queue.  The
    # naive solver is the slow path, so its queue is where rejections
    # must appear; the batched server gets twice the offered rate.
    over_b, over_b_alive, over_b_status = run(
        ServerConfig(max_queue=overload_queue), replace(lg, rate=2 * rate)
    )
    over_n, over_n_alive, over_n_status = run(
        ServerConfig.naive(max_queue=overload_queue), lg
    )

    ratio = batched.goodput_per_s / max(naive.goodput_per_s, 1e-9)
    log(f"[E14] batched {batched.goodput_per_s:.1f}/s (p99 "
        f"{batched.p99_ms:.1f}ms) vs naive {naive.goodput_per_s:.1f}/s "
        f"(p99 {naive.p99_ms:.1f}ms): {ratio:.1f}x")
    log(f"[E14] overload: naive rejected {over_n.rejected}, shed "
        f"{over_n.shed}; batched@2x rejected {over_b.rejected}, late "
        f"{over_b.late}")

    legs = (batched, naive, over_b, over_n)
    metrics = {
        "goodput_ratio": ratio,
        "batched_p99_le_naive": bool(batched.p99_ms <= naive.p99_ms),
        "errors_total": sum(leg.errors for leg in legs),
        "accounted_ok": all(_accounted(leg) for leg in legs),
        "alive_all": bool(batched_alive and naive_alive and over_b_alive
                          and over_n_alive),
        "overload_naive_rejected": over_n.rejected,
        "overload_queues_drained": bool(
            over_b_status["queue"]["depth"] == 0
            and over_n_status["queue"]["depth"] == 0
        ),
    }
    detail = {
        "workload": {
            "num_sites": base.num_sites, "num_servers": base.num_servers,
            "k": base.k, "scratch_solve_ms": 1e3 * scratch_s,
            "rate_per_s": rate, "duration_s": duration_s,
            "duplicates": duplicates, "deadline_ms": deadline_ms,
        },
        "batched": _leg_record(batched, batched_alive),
        "naive": _leg_record(naive, naive_alive),
        "overload_batched_2x": _leg_record(over_b, over_b_alive),
        "overload_naive": _leg_record(over_n, over_n_alive),
        "goodput_ratio": ratio,
    }
    return metrics, detail


# ----------------------------------------------------------------------
# E15 — v2 binary + delta snapshots vs v1 JSON.
# ----------------------------------------------------------------------
def bench_e15(params: dict[str, Any], log: Log):
    import numpy as np

    from ..analysis.experiments import wire_sizes
    from ..core.instance import Instance
    from ..service import (
        PROTOCOL_V1,
        PROTOCOL_V2,
        ServerConfig,
        ServiceClient,
        build_snapshots,
        calibrate_wire_workload,
        encode_frame,
        run_loadgen,
        start_background,
        unpack_payload,
    )

    duration_s = params.get("duration_s", 2.0)
    deadline_ms = params.get("deadline_ms", 300.0)
    overload = params.get("overload", 1.35)
    rate_cap = params.get("rate_cap", 400.0)
    smoke_epochs = params.get("smoke_epochs", 12)

    base, codec_s = calibrate_wire_workload()

    # Wire invariants, no server: v2 strictly smaller than v1 for the
    # same snapshot, bit-exact through the codec, deltas >= 5x smaller.
    reference = build_snapshots(replace(base, epochs=1))[0]
    message = {"op": "rebalance", "shard": "smoke", "k": base.k,
               "deadline_ms": deadline_ms}
    v1 = encode_frame(message | {"instance": reference.to_dict()},
                      version=PROTOCOL_V1)
    v2 = encode_frame(message | {"instance": reference.to_wire()},
                      version=PROTOCOL_V2)
    decoded = Instance.from_dict(unpack_payload(v2[8:])["instance"])
    decode_exact = bool(
        np.array_equal(decoded.sizes, reference.sizes)
        and np.array_equal(decoded.costs, reference.costs)
        and np.array_equal(decoded.initial, reference.initial)
    )
    smoke_sizes = wire_sizes(replace(base, epochs=smoke_epochs))

    sizes = wire_sizes(base)
    rate = min(rate_cap, overload / codec_s)
    lg = replace(base, rate=rate, duration_s=duration_s,
                 deadline_ms=deadline_ms)

    def run(server_config, loadgen_config):
        with start_background(server_config) as handle:
            report = run_loadgen(handle.host, handle.port, loadgen_config)
            with ServiceClient(handle.host, handle.port, timeout=5.0) as probe:
                alive = probe.ping()
                status = probe.status()
        return report, alive, status

    baseline, base_alive, base_status = run(ServerConfig(max_queue=64), lg)
    optimized, opt_alive, opt_status = run(
        ServerConfig(max_queue=64),
        replace(lg, protocol="binary", delta=True),
    )

    ratio = optimized.goodput_per_s / max(baseline.goodput_per_s, 1e-9)
    log(f"[E15] wire: v1 full {sizes['v1_full_bytes']:.0f}B, v2 full "
        f"{sizes['v2_full_bytes']:.0f}B ({sizes['binary_reduction']:.2f}x), "
        f"delta {sizes['v2_delta_bytes']:.0f}B "
        f"({sizes['delta_reduction']:.0f}x)")
    log(f"[E15] goodput at {rate:.0f}/s: v2+delta "
        f"{optimized.goodput_per_s:.1f}/s (p99 {optimized.p99_ms:.1f}ms) vs "
        f"v1 json {baseline.goodput_per_s:.1f}/s "
        f"(p99 {baseline.p99_ms:.1f}ms): {ratio:.1f}x")

    metrics = {
        "v2_frame_smaller": bool(len(v2) < len(v1)),
        "v2_full_smaller": bool(
            sizes["v2_full_bytes"] < sizes["v1_full_bytes"]
            and smoke_sizes["v2_full_bytes"] < smoke_sizes["v1_full_bytes"]
        ),
        "decode_bit_exact": decode_exact,
        "binary_reduction": sizes["binary_reduction"],
        "delta_reduction": sizes["delta_reduction"],
        "goodput_ratio": ratio,
        "optimized_p99_le_baseline": bool(
            optimized.p99_ms <= baseline.p99_ms
        ),
        "optimized_deltas_sent": optimized.deltas_sent,
        "errors_total": baseline.errors + optimized.errors,
        "accounted_ok": _accounted(baseline) and _accounted(optimized),
        "alive_all": bool(base_alive and opt_alive),
        # The optimized leg's deltas landed on the resident tips.
        "optimized_resident_path": bool(
            opt_status["metrics"]["counters"].get("service.resident_deltas", 0)
            > 0
        ),
        "queues_drained": bool(
            base_status["queue"]["depth"] == 0
            and opt_status["queue"]["depth"] == 0
        ),
    }
    detail = {
        "workload": {
            "num_sites": base.num_sites, "num_servers": base.num_servers,
            "k": base.k, "shards": base.shards,
            "duplicates": base.duplicates, "traffic": base.traffic,
            "codec_round_ms": 1e3 * codec_s, "rate_per_s": rate,
            "duration_s": duration_s, "deadline_ms": deadline_ms,
            "overload": overload,
        },
        "wire": sizes,
        "baseline_v1_thread": _leg_record(baseline, base_alive),
        "optimized_v2_delta": _leg_record(optimized, opt_alive),
        "goodput_ratio": ratio,
    }
    return metrics, detail


# ----------------------------------------------------------------------
# E17 — cluster tier: scale-out, kill -9 failover, router trajectory.
# ----------------------------------------------------------------------
def bench_e17(params: dict[str, Any], log: Log):
    import numpy as np

    from ..analysis.experiments import (
        _e17_balanced_shard_base,
        _e17_leg,
        _e17_workload,
    )
    from ..service import (
        BackendSpec,
        RouterConfig,
        ServerConfig,
        ServiceClient,
        start_background,
        start_router_background,
    )
    from ..websim import (
        EngineMPartitionPolicy,
        ServicePolicy,
        Simulation,
        build_cluster,
        make_traffic,
    )

    duration_s = params.get("duration_s", 2.5)
    deadline_ms = params.get("deadline_ms", 500.0)
    rate_cap = params.get("rate_cap", 150.0)
    shards = params.get("shards", 8)
    solve_delay_ms = params.get("solve_delay_ms", 80.0)
    overloads = tuple(params.get("overloads", (2.4, 3.0)))
    traj_epochs = params.get("traj_epochs", 12)
    traj_k = params.get("traj_k", 3)
    traj_sites = params.get("traj_sites", 80)
    traj_servers = params.get("traj_servers", 6)
    traj_seed = params.get("traj_seed", 36)
    p99_blip_factor = params.get("p99_blip_factor", 4.0)
    seed = params.get("seed", 17)

    def simulation(policy):
        rng = np.random.default_rng(traj_seed)
        cluster = build_cluster(traj_sites, traj_servers, rng)
        traffic = make_traffic("diurnal+flash", flash_probability=0.2)
        return Simulation(cluster=cluster, traffic=traffic, policy=policy,
                          seed=traj_seed)

    # Websim through the router == in-process engine, record for record
    # — across two in-process backends so the decision stream crosses
    # the ring, delta replication, and both protocols' re-encoding.
    want = simulation(EngineMPartitionPolicy(k=traj_k)).run(traj_epochs)
    with start_background(ServerConfig()) as b0, \
            start_background(ServerConfig()) as b1:
        config = RouterConfig(backends=(
            BackendSpec("backend-0", b0.host, b0.port),
            BackendSpec("backend-1", b1.host, b1.port),
        ))
        with start_router_background(config) as router:
            policy = ServicePolicy(
                router.host, router.port, k=traj_k, shard="bench-traj",
                protocol="binary", delta=True,
            )
            try:
                got = simulation(policy).run(traj_epochs)
            finally:
                policy.close()
            with ServiceClient(router.host, router.port) as probe:
                traj_counters = (
                    probe.status()["router"]["metrics"]["counters"]
                )
    trajectory_identical = (
        len(got.records) == len(want.records) == traj_epochs
        and all(
            ours.makespan == theirs.makespan
            and ours.migrations == theirs.migrations
            and ours.migration_cost == theirs.migration_cost
            and ours.imbalance == theirs.imbalance
            for ours, theirs in zip(got.records, want.records)
        )
    )
    log(f"[E17] trajectory identical through the router: "
        f"{trajectory_identical} "
        f"({traj_counters.get('router.replicated', 0)} replica frames)")

    def cluster_lg(overload):
        base, solve_s = _e17_workload(seed)
        service_s = solve_s + solve_delay_ms / 1e3
        capacity = 1.0 / service_s
        rate = min(rate_cap, overload * capacity)
        # Full-queue drain ~70% of the deadline: deep enough to smooth
        # bursts, shallow enough admitted requests clear the deadline.
        max_queue = max(2, int(0.7 * (deadline_ms / 1e3) / service_s))
        shard_base = _e17_balanced_shard_base(
            ["backend-0", "backend-1"], shards
        )
        lg = replace(
            base, rate=rate, duration_s=duration_s, deadline_ms=deadline_ms,
            connections=16, duplicates=1, shards=shards, shard=shard_base,
            protocol="binary", delta=True,
        )
        return lg, solve_s, capacity, max_queue

    # Capacity is pinned by calibration, but a loaded host can still
    # depress one leg mid-run, so the overload factor is hunted over a
    # short ladder: a higher offered rate deepens the single leg's
    # saturation without moving the cluster leg's ceiling.
    attempts = []
    found = None
    for overload in overloads:
        lg, solve_s, capacity, max_queue = cluster_lg(overload)
        single, _ = _e17_leg(lg, 1, router=False, max_queue=max_queue,
                             solve_delay_ms=solve_delay_ms)
        cluster, counters = _e17_leg(lg, 2, router=True, max_queue=max_queue,
                                     solve_delay_ms=solve_delay_ms)
        ratio = cluster.goodput_per_s / max(single.goodput_per_s, 1e-9)
        attempts.append({
            "overload": overload, "rate_per_s": lg.rate,
            "single_goodput_per_s": single.goodput_per_s,
            "cluster_goodput_per_s": cluster.goodput_per_s,
            "ratio": ratio,
        })
        log(f"[E17] {lg.rate:.0f}/s ({overload:.1f}x one backend): single "
            f"{single.goodput_per_s:.1f}/s, cluster "
            f"{cluster.goodput_per_s:.1f}/s -> {ratio:.2f}x")
        if ratio >= 1.8:
            found = (lg, solve_s, capacity, max_queue, single, cluster,
                     counters, ratio)
            break

    metrics = {
        "trajectory_identical": bool(trajectory_identical),
        "scaleout_found": found is not None,
    }
    detail: dict[str, Any] = {
        "attempts": attempts,
        "trajectory_replicated_frames":
            traj_counters.get("router.replicated", 0),
    }
    if found is None:
        return metrics, detail
    lg, solve_s, capacity, max_queue, single, cluster, counters, ratio = found

    failover, f_counters = _e17_leg(
        lg, 2, router=True, kill_at_s=duration_s / 2, max_queue=max_queue,
        solve_delay_ms=solve_delay_ms,
    )
    log(f"[E17] failover: goodput {failover.goodput_per_s:.1f}/s, errors "
        f"{failover.errors}, p99 {failover.p99_ms:.0f}ms, deaths "
        f"{f_counters.get('router.backend_deaths', 0)}, replays "
        f"{f_counters.get('router.failover_replays', 0)}")

    metrics.update({
        "scaleout_ratio": ratio,
        "failover_errors": failover.errors,
        "failover_deaths": f_counters.get("router.backend_deaths", 0),
        "failover_p99_bounded": bool(
            failover.p99_ms <= p99_blip_factor * deadline_ms
        ),
        "failover_completed": failover.completed,
    })
    detail.update({
        "workload": {
            "num_sites": lg.num_sites, "num_servers": lg.num_servers,
            "k": lg.k, "shards": shards, "shard_base": lg.shard,
            "scratch_solve_ms": 1e3 * solve_s,
            "solve_delay_ms": solve_delay_ms,
            "per_backend_capacity_per_s": capacity,
            "rate_per_s": lg.rate, "duration_s": duration_s,
            "deadline_ms": deadline_ms, "max_queue": max_queue,
        },
        "goodput": {
            "single_per_s": single.goodput_per_s,
            "cluster_per_s": cluster.goodput_per_s,
            "ratio": ratio,
        },
        "single": _leg_record(single),
        "cluster": {**_leg_record(cluster), "router_counters": counters},
        "failover": {**_leg_record(failover), "router_counters": f_counters},
    })
    return metrics, detail


# ----------------------------------------------------------------------
# E18 — O(churn) steady-state decides at scale.
# ----------------------------------------------------------------------
def bench_e18(params: dict[str, Any], log: Log):
    from ..service import (
        BackendSpec,
        ChurnStreamConfig,
        HashRing,
        ServiceClient,
        run_churn_stream,
        spawn_router_process,
        spawn_serve_process,
    )

    backends = params.get("backends", 3)
    shards = params.get("shards", 6)
    servers = params.get("servers", 64)
    k = params.get("k", 512)
    churn = params.get("churn", 16)
    epochs = params.get("epochs", 24)
    warmup = params.get("warmup", 3)
    sites_small = params.get("sites_small", 16_700)
    sites_large = params.get("sites_large", 167_000)
    epoch_interval_ms = params.get("epoch_interval_ms", 300.0)
    growth_bound = params.get("p50_growth_bound", 2.0)
    required_total_large = params.get("required_total_large", 0)
    seed = params.get("seed", 18)

    node_names = tuple(f"backend-{i}" for i in range(backends))

    def balanced_shard_base() -> str:
        # Consistent hashing places the shard streams unevenly for most
        # name bases; "n sites across all backends" needs every backend
        # to own at least one stream (preferring a perfect split).
        ring = HashRing(node_names)
        best, best_spread = "e18", 0
        for attempt in range(1000):
            base = f"e18-{attempt}"
            owners = {ring.owner(f"{base}-{i}") for i in range(shards)}
            if len(owners) == backends:
                counts = [
                    sum(1 for i in range(shards)
                        if ring.owner(f"{base}-{i}") == node)
                    for node in node_names
                ]
                if max(counts) == shards // backends:
                    return base
                if len(owners) > best_spread:
                    best, best_spread = base, len(owners)
        if best_spread != backends:
            raise RuntimeError("no shard base covers all backends")
        return best

    def run_leg(sites_per_shard: int, shard_base: str, replicate: bool):
        # A fresh cluster per leg keeps the legs independent — nothing
        # warm carries over, so byte-identity across legs is meaningful.
        processes = []
        try:
            for _ in range(backends):
                processes.append(spawn_serve_process())
            specs = tuple(
                BackendSpec(name, proc.host, proc.port)
                for name, proc in zip(node_names, processes)
            )
            # The router must be its own OS process (as deployed): a
            # daemon-thread router here would share the caller's GIL.
            router_args = () if replicate else ("--no-replicate",)
            router = spawn_router_process(specs, *router_args)
            processes.append(router)
            config = ChurnStreamConfig(
                shard=shard_base, shards=shards, k=k,
                num_sites=sites_per_shard, num_servers=servers,
                churn=churn, epochs=epochs, warmup_epochs=warmup,
                seed=seed, timeout=600.0,
                epoch_interval_ms=epoch_interval_ms,
            )
            report = run_churn_stream(router.host, router.port, config)
            with ServiceClient(router.host, router.port,
                               timeout=120.0) as probe:
                status = probe.status()
        finally:
            for proc in processes:
                proc.terminate()
        counters = status["router"]["metrics"]["counters"]
        engines = {"incremental_decides": 0, "decisions": 0,
                   "churn_fallbacks": 0}
        for backend in status["backends"].values():
            for shard_stats in backend.get("shards", {}).values():
                engine = shard_stats.get("engine") or {}
                for key_ in engines:
                    engines[key_] += engine.get(key_, 0)
        return report, counters, engines

    def clean(report) -> bool:
        return (
            report.errors == 0
            and report.fp_mismatches == 0
            and report.completed == shards * epochs
            and report.deltas_sent == shards * (epochs - 1)
        )

    shard_base = balanced_shard_base()

    small, small_counters, small_engines = run_leg(
        sites_small, shard_base, replicate=False
    )
    log(f"[E18] small n={shards * sites_small}: steady p50 "
        f"{small.steady_p50_ms:.2f}ms p95 {small.steady_p95_ms:.2f}ms "
        f"({small.duration_s:.1f}s wall)")

    rerun, _, _ = run_leg(sites_small, shard_base, replicate=False)
    trajectory_identical = rerun.trajectories == small.trajectories
    log(f"[E18] small rerun byte-identical: {trajectory_identical} "
        f"({len(small.trajectories)} shard trajectories)")

    large, large_counters, large_engines = run_leg(
        sites_large, shard_base, replicate=False
    )
    growth = large.steady_p50_ms / max(small.steady_p50_ms, 1e-9)
    log(f"[E18] large n={shards * sites_large}: steady p50 "
        f"{large.steady_p50_ms:.2f}ms p95 {large.steady_p95_ms:.2f}ms -> "
        f"p50 growth {growth:.2f}x for "
        f"{sites_large / max(sites_small, 1):.0f}x sites")

    repl, repl_counters, repl_engines = run_leg(
        sites_large, shard_base, replicate=True
    )
    log(f"[E18] large+replication: steady p50 {repl.steady_p50_ms:.2f}ms, "
        f"{repl_counters.get('router.replicated', 0)} standby replays")

    total_large = shards * sites_large
    metrics = {
        "total_sites_large": total_large,
        "scale_target_met": bool(
            total_large >= required_total_large
        ) if required_total_large else True,
        "p50_growth": growth,
        "p50_growth_bound": growth_bound,
        "steady_p50_small_ms": small.steady_p50_ms,
        "steady_p50_large_ms": large.steady_p50_ms,
        "trajectory_identical": bool(trajectory_identical),
        "replication_trajectory_identical": bool(
            repl.trajectories == large.trajectories
        ),
        "legs_clean": bool(
            clean(small) and clean(rerun) and clean(large) and clean(repl)
        ),
        "incremental_decides_small": small_engines["incremental_decides"],
        "incremental_decides_large": large_engines["incremental_decides"],
        "churn_fallbacks_large": large_engines["churn_fallbacks"],
        "router_passthrough_ok": bool(
            large_counters.get("router.resident_deltas", 0)
            >= shards * (epochs - 1)
        ),
        "replication_replays_ok": bool(
            repl_counters.get("router.replicated", 0)
            >= shards * (epochs - 1)
        ),
        "replication_errors":
            repl_counters.get("router.replication_errors", 0),
    }
    detail = {
        "workload": {
            "backends": backends, "shards": shards,
            "servers_per_shard": servers, "k": k,
            "churn_per_shard_per_epoch": churn,
            "epochs": epochs, "warmup_epochs": warmup,
            "sites_per_shard_small": sites_small,
            "sites_per_shard_large": sites_large,
            "total_sites_small": shards * sites_small,
            "total_sites_large": total_large,
            "shard_base": shard_base,
            "solve_delay_ms": 0.0,
            "epoch_interval_ms": epoch_interval_ms,
        },
        "small": {
            **_leg_record(small),
            "router_counters": small_counters,
            "engines": small_engines,
        },
        "large": {
            **_leg_record(large),
            "router_counters": large_counters,
            "engines": large_engines,
        },
        "large_with_replication": {
            **_leg_record(repl),
            "router_counters": repl_counters,
            "engines": repl_engines,
        },
    }
    return metrics, detail


# ----------------------------------------------------------------------
# E19 — sharded router data plane: many-core scale-out proof.
# ----------------------------------------------------------------------
def bench_e19(params: dict[str, Any], log: Log):
    """Router goodput scales with data-plane worker processes.

    The measurement device mirrors E17's ``--solve-delay-ms``: each
    worker's relay capacity is *pinned by construction* with a
    concurrency gate (``relay_concurrency`` permits) plus a synthetic
    per-relay service-time floor held under the permit
    (``relay_delay_s``), so per-worker capacity is
    ``permits / (delay + real service)`` — independent of how many
    host cores happen to exist.  Offering both legs the same rate
    (an ``overload`` multiple of the N-worker aggregate) makes the
    goodput ratio N-to-1 a property of the architecture, measurable
    on a one-core CI box and unchanged on a many-core host (where the
    pin also stops mattering).
    """
    import os

    import numpy as np

    from ..service import (
        BackendSpec,
        ChurnStreamConfig,
        LoadGenConfig,
        RouterConfig,
        ServiceClient,
        HashRing,
        run_churn_stream,
        run_loadgen,
        spawn_serve_process,
        start_sharded_router,
        worker_for,
    )
    from ..websim import (
        EngineMPartitionPolicy,
        ServicePolicy,
        Simulation,
        build_cluster,
        make_traffic,
    )

    workers = params.get("workers", 4)
    min_ratio = params.get("min_ratio", 2.5)
    relay_concurrency = params.get("relay_concurrency", 1)
    relay_delay_ms = params.get("relay_delay_ms", 40.0)
    relay_queue = params.get("relay_queue", 6)
    overload = params.get("overload", 1.2)
    duration_s = params.get("duration_s", 4.0)
    deadline_ms = params.get("deadline_ms", 600.0)
    p99_tolerance = params.get("p99_tolerance", 1.05)
    sites = params.get("sites", 400)
    servers = params.get("servers", 8)
    k = params.get("k", 4)
    shards = params.get("shards", 2 * workers)
    connections = params.get("connections", 16)
    traj_epochs = params.get("traj_epochs", 12)
    traj_k = params.get("traj_k", 3)
    traj_sites = params.get("traj_sites", 80)
    traj_servers = params.get("traj_servers", 6)
    traj_seed = params.get("traj_seed", 36)
    enc_sites = params.get("enc_sites", 2_000)
    enc_churn = params.get("enc_churn", 8)
    enc_epochs = params.get("enc_epochs", 150)
    enc_shards = params.get("enc_shards", 2)
    seed = params.get("seed", 19)
    cores = os.cpu_count() or 1

    def balanced_worker_base() -> str:
        """A shard-name base whose ``shards`` streams split perfectly
        across the ``workers`` crc32-affine data-plane slices."""
        target = shards // workers
        best, best_spread = "e19", 1
        for attempt in range(5_000):
            base = f"e19-{attempt}"
            counts = [0] * workers
            for i in range(shards):
                counts[worker_for(f"{base}-{i}", workers)] += 1
            if max(counts) == target:
                return base
            spread = sum(1 for c in counts if c)
            if spread > best_spread:
                best, best_spread = base, spread
        if best_spread != workers:
            raise RuntimeError("no shard base covers all workers")
        return best

    shard_base = balanced_worker_base()
    per_worker_capacity = relay_concurrency / (relay_delay_ms / 1e3)
    rate = overload * per_worker_capacity * workers

    def scaling_leg(worker_count: int):
        processes = []
        try:
            processes = [spawn_serve_process(), spawn_serve_process()]
            specs = tuple(
                BackendSpec(f"backend-{i}", p.host, p.port)
                for i, p in enumerate(processes)
            )
            config = RouterConfig(
                backends=specs, replicate=False,
                relay_concurrency=relay_concurrency,
                relay_delay_s=relay_delay_ms / 1e3,
                relay_queue=relay_queue,
            )
            lg = LoadGenConfig(
                rate=rate, duration_s=duration_s,
                connections=connections, duplicates=1,
                num_sites=sites, num_servers=servers, k=k,
                deadline_ms=deadline_ms, seed=seed,
                protocol="binary", delta=False,
                shards=shards, shard=shard_base, traffic="drift",
            )
            with start_sharded_router(config, worker_count) as sharded:
                report = run_loadgen(sharded.host, sharded.port, lg)
                with ServiceClient(sharded.host, sharded.port,
                                   timeout=30.0) as probe:
                    status = probe.status()
            counters = status["router"]["metrics"]["counters"]
            return report, counters
        finally:
            for proc in processes:
                proc.terminate()

    single, single_counters = scaling_leg(1)
    log(f"[E19] offered {rate:.0f}/s ({overload:.1f}x the {workers}-worker "
        f"aggregate): 1 worker goodput {single.goodput_per_s:.1f}/s, "
        f"p99 {single.p99_ms:.0f}ms, rejected {single.rejected}")
    multi, multi_counters = scaling_leg(workers)
    ratio = multi.goodput_per_s / max(single.goodput_per_s, 1e-9)
    log(f"[E19] {workers} workers: goodput {multi.goodput_per_s:.1f}/s, "
        f"p99 {multi.p99_ms:.0f}ms, rejected {multi.rejected} -> "
        f"{ratio:.2f}x at {'<=' if multi.p99_ms <= single.p99_ms else '>'} "
        f"single-worker p99")

    # -- trajectory identity through the sharded data plane ------------
    def simulation(policy):
        rng = np.random.default_rng(traj_seed)
        cluster = build_cluster(traj_sites, traj_servers, rng)
        traffic = make_traffic("diurnal+flash", flash_probability=0.2)
        return Simulation(cluster=cluster, traffic=traffic, policy=policy,
                          seed=traj_seed)

    want = simulation(EngineMPartitionPolicy(k=traj_k)).run(traj_epochs)

    def identical(got) -> bool:
        return len(got.records) == len(want.records) == traj_epochs and all(
            ours.makespan == theirs.makespan
            and ours.migrations == theirs.migrations
            and ours.migration_cost == theirs.migration_cost
            and ours.imbalance == theirs.imbalance
            for ours, theirs in zip(got.records, want.records)
        )

    class _MidRunFault:
        """Fire ``action`` right before deciding epoch ``at_epoch``;
        deep-copy-safe the same way the E17 kill wrapper is."""

        name = "service-faults"

        def __init__(self, inner, at_epoch, action):
            self.inner = inner
            self.at_epoch = at_epoch
            self.action = action
            self.fired = False

        def __deepcopy__(self, memo):
            return self

        def decide(self, instance, epoch):
            if epoch == self.at_epoch and not self.fired:
                self.fired = True
                self.action()
            return self.inner.decide(instance, epoch)

    traj_shard = "bench-traj"

    def traj_leg(fault: str | None):
        processes = [spawn_serve_process(), spawn_serve_process()]
        try:
            specs = tuple(
                BackendSpec(f"backend-{i}", p.host, p.port)
                for i, p in enumerate(processes)
            )
            config = RouterConfig(backends=specs)
            owner, standby = HashRing(
                tuple(s.name for s in specs)
            ).owners(traj_shard, 2)
            with start_sharded_router(config, workers) as sharded:
                policy = ServicePolicy(
                    sharded.host, sharded.port, k=traj_k,
                    shard=traj_shard, protocol="binary", delta=True,
                    retries=8,
                )

                def kill_owner():
                    processes[int(owner.rsplit("-", 1)[1])].kill()

                def migrate_to_standby():
                    with ServiceClient(sharded.host, sharded.port,
                                       retries=4) as probe:
                        moved = probe.call(
                            {"op": "migrate", "shard": traj_shard,
                             "target": standby},
                            shard=traj_shard,
                        )
                        assert moved.get("ok"), moved

                action = {"kill9": kill_owner,
                          "migrate": migrate_to_standby}.get(fault)
                wrapped = (
                    policy if action is None
                    else _MidRunFault(policy, traj_epochs // 2, action)
                )
                try:
                    got = simulation(wrapped).run(traj_epochs)
                finally:
                    policy.close()
                with ServiceClient(sharded.host, sharded.port,
                                   timeout=30.0) as probe:
                    counters = (
                        probe.status()["router"]["metrics"]["counters"]
                    )
            return identical(got), counters
        finally:
            for proc in processes:
                proc.terminate()

    traj_plain, plain_counters = traj_leg(None)
    log(f"[E19] plain trajectory identical through {workers}-worker "
        f"data plane: {traj_plain} "
        f"({plain_counters.get('router.resident_deltas', 0)} passthrough "
        f"deltas)")
    traj_kill, kill_counters = traj_leg("kill9")
    log(f"[E19] kill -9 backend mid-run: identical {traj_kill}, deaths "
        f"{kill_counters.get('router.backend_deaths', 0)}")
    traj_migrate, migrate_counters = traj_leg("migrate")
    log(f"[E19] live migration mid-run: identical {traj_migrate}, "
        f"migrations {migrate_counters.get('router.migrations', 0)}")

    # -- client-side CPU: reusable frame encoder A/B -------------------
    # One discard run absorbs interpreter/numpy warmup, then the sides
    # alternate and each takes its *min* CPU over ``enc_reps`` — the
    # per-epoch meta-encode saving is small against run noise, so a
    # single-shot comparison would gate on GC luck, not the code path.
    enc_reps = params.get("enc_reps", 3)
    enc_proc = spawn_serve_process()
    try:
        enc_config = ChurnStreamConfig(
            shard="e19-enc", shards=enc_shards, k=16,
            num_sites=enc_sites, num_servers=16, churn=enc_churn,
            epochs=enc_epochs, warmup_epochs=3, seed=seed,
            use_encoder=True,
        )
        run_churn_stream(
            enc_proc.host, enc_proc.port,
            replace(enc_config, epochs=min(20, enc_epochs)),
        )
        cpu_on: list[float] = []
        cpu_off: list[float] = []
        enc_on = enc_off = None
        for _ in range(enc_reps):
            enc_off = run_churn_stream(
                enc_proc.host, enc_proc.port,
                replace(enc_config, use_encoder=False),
            )
            enc_on = run_churn_stream(
                enc_proc.host, enc_proc.port, enc_config
            )
            cpu_off.append(enc_off.client_cpu_s)
            cpu_on.append(enc_on.client_cpu_s)
    finally:
        enc_proc.terminate()
    best_on, best_off = min(cpu_on), min(cpu_off)
    enc_ratio = best_off / max(best_on, 1e-9)
    enc_identical = enc_on.trajectories == enc_off.trajectories
    log(f"[E19] encoder A/B over {enc_shards * enc_epochs} epochs x "
        f"{enc_reps} reps: client CPU {best_on:.3f}s (encoder) vs "
        f"{best_off:.3f}s (dict rebuild) -> {enc_ratio:.2f}x, "
        f"byte-identical {enc_identical}")

    p99_bounded = multi.p99_ms <= p99_tolerance * single.p99_ms
    metrics = {
        "cores": cores,
        "workers": workers,
        "scaling_ratio": ratio,
        "min_ratio": min_ratio,
        "scaleout_ok": bool(ratio >= min_ratio),
        "goodput_single_per_s": single.goodput_per_s,
        "goodput_multi_per_s": multi.goodput_per_s,
        "p99_single_ms": single.p99_ms,
        "p99_multi_ms": multi.p99_ms,
        "p99_bounded": bool(p99_bounded),
        "scaling_clean": bool(
            single.errors == 0 and multi.errors == 0
            and _accounted(single) and _accounted(multi)
        ),
        "relay_path_used": bool(
            multi_counters.get("router.relayed_fulls", 0) > 0
        ),
        "traj_plain_identical": bool(traj_plain),
        "traj_kill9_identical": bool(traj_kill),
        "traj_migrate_identical": bool(traj_migrate),
        "kill9_deaths": kill_counters.get("router.backend_deaths", 0),
        "migrations": migrate_counters.get("router.migrations", 0),
        "encoder_cpu_ratio": enc_ratio,
        "encoder_not_slower": bool(best_on <= 1.1 * best_off),
        "encoder_trajectory_identical": bool(enc_identical),
        "encoder_clean": bool(
            enc_on.errors == 0 and enc_off.errors == 0
            and enc_on.fp_mismatches == 0 and enc_off.fp_mismatches == 0
        ),
    }
    detail = {
        "capacity_pin": {
            "relay_concurrency": relay_concurrency,
            "relay_delay_ms": relay_delay_ms,
            "relay_queue": relay_queue,
            "per_worker_capacity_per_s": per_worker_capacity,
            "offered_rate_per_s": rate,
            "overload_vs_multi_aggregate": overload,
            "cores": cores,
            "note": "per-worker capacity is pinned by the relay gate "
                    "(permits / (delay + service)); the 1-to-N goodput "
                    "ratio is host-core-independent by construction",
        },
        "workload": {
            "sites": sites, "servers": servers, "k": k,
            "shards": shards, "shard_base": shard_base,
            "duration_s": duration_s, "deadline_ms": deadline_ms,
            "connections": connections,
        },
        "single_worker": {**_leg_record(single),
                          "router_counters": single_counters},
        "multi_worker": {**_leg_record(multi),
                         "router_counters": multi_counters},
        "trajectories": {
            "epochs": traj_epochs, "k": traj_k, "sites": traj_sites,
            "servers": traj_servers,
            "plain_counters": plain_counters,
            "kill9_counters": kill_counters,
            "migrate_counters": migrate_counters,
        },
        "encoder_ab": {
            "sites": enc_sites, "churn": enc_churn,
            "epochs": enc_epochs, "shards": enc_shards,
            "reps": enc_reps,
            "client_cpu_s_encoder": cpu_on,
            "client_cpu_s_dict": cpu_off,
            "encoder": _leg_record(enc_on),
            "dict_rebuild": _leg_record(enc_off),
        },
    }
    return metrics, detail


BENCH_RUNNERS: dict[str, Callable[[dict, Log], tuple[dict, dict]]] = {
    "e13-kernels": bench_e13,
    "e14-service": bench_e14,
    "e15-wire": bench_e15,
    "e17-cluster": bench_e17,
    "e18-scale": bench_e18,
    "e19-dataplane": bench_e19,
}
