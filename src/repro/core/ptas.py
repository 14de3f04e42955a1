"""PTAS for budgeted load rebalancing (Section 4, Theorem 4).

Given a relocation-cost budget ``B``, the scheme finds an assignment of
relocation cost at most ``B`` whose makespan is at most
``(1 + eps) * OPT(B)``, where ``OPT(B)`` is the best makespan achievable
within the budget.

Construction, following the paper with ``delta = eps / 5``:

* **Outer search** — guesses ``T`` for the (discretized) optimum are
  scanned in increasing order on a geometric ``(1 + delta)`` grid
  starting at the structural lower bound ``max(avg load, max size)``.
  The first guess whose DP cost fits the budget is taken; it is within
  one grid step of the smallest admissible guess.

* **Discretization** — jobs of size > ``delta * T`` are *large*; their
  sizes round up to the nearest ``l_i = delta * (1 + delta)^i * T``,
  giving ``s = ceil(log_{1+delta}(1/delta))`` size classes.  Small-job
  loads round up to multiples of ``delta * T``.

* **Configurations** — a processor configuration is a tuple
  ``(x_1..x_s, V')``: ``x_i`` large jobs of class ``i`` plus small-load
  allowance ``V'`` (a multiple of ``delta * T``), *W-feasible* when
  ``V' + sum x_i l_i <= W = (1 + 2 delta) T`` (Definition 6).

* **Dynamic program** — states ``(n_1..n_s, M, V)``: distribute ``n_i``
  class-``i`` jobs and total small allowance ``V`` over the first ``M``
  processors; the transition tries every W-feasible configuration for
  processor ``M`` and adds the greedy transformation cost
  ``COST(C, C')`` (cheapest large jobs per class; small jobs in
  increasing cost-to-size ratio until the load is within
  ``V' + delta T``).  We memoize top-down over *reachable* states only,
  which keeps small instances tractable despite the scheme's enormous
  worst-case polynomial.

* **Reassignment** — removed large jobs fill per-class deficits; removed
  small jobs go, largest first, to any processor whose current small
  load is below its allowance ``V'`` (Lemma 11 bounds the resulting
  loads by ``(1 + 3 delta)`` of the target).

Faithfulness note: like the paper, the DP distributes the small-load
allowance ``V = V_R + delta * m * T`` exactly (base case ``V == 0``).
An optimal witness may under-consume ``V`` by up to ``~m * delta * T``
and needs spare W-headroom to absorb the surplus; when that headroom is
missing the guess fails and the outer loop pays one extra ``(1+delta)``
grid step — covered by choosing ``delta = eps / 6`` internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import telemetry
from . import kernels
from .assignment import Assignment
from .instance import Instance
from .result import RebalanceResult

__all__ = ["PTASLimits", "ptas_rebalance"]

_INF = float("inf")


@dataclass(frozen=True)
class PTASLimits:
    """Resource guards for the DP (the scheme is polynomial but huge)."""

    max_states: int = 2_000_000
    max_configs_per_processor: int = 200_000


@dataclass
class _Discretization:
    """Everything derived from one guess ``T``."""

    guess: float
    delta: float
    num_classes: int  # s
    class_sizes: np.ndarray  # l_i, 1-indexed conceptually; here [0..s-1]
    unit: float  # delta * T, the small-load quantum
    w_cap: float  # W = (1 + 2 delta) T
    # Per processor:
    large_by_class: list[list[list[int]]]  # [proc][class] -> job idx, cost asc
    large_cost_prefix: list[list[np.ndarray]]
    small_jobs: list[list[int]]  # per proc, sorted by cost/size ratio asc
    small_size_prefix: list[np.ndarray]
    small_cost_prefix: list[np.ndarray]
    small_load: list[float]
    class_counts: np.ndarray  # global N_i
    total_small_units: int  # V / unit


def _discretize(instance: Instance, guess: float, delta: float) -> _Discretization:
    num_classes = max(1, math.ceil(math.log(1.0 / delta) / math.log(1.0 + delta)))
    class_sizes = np.array(
        [delta * (1.0 + delta) ** (i + 1) * guess for i in range(num_classes)]
    )
    unit = delta * guess
    m = instance.num_processors

    large_by_class: list[list[list[int]]] = [
        [[] for _ in range(num_classes)] for _ in range(m)
    ]
    small_jobs: list[list[int]] = [[] for _ in range(m)]
    small_load = [0.0] * m
    class_counts = np.zeros(num_classes, dtype=np.int64)

    for j in range(instance.num_jobs):
        size = float(instance.sizes[j])
        p = int(instance.initial[j])
        if size > delta * guess:
            ratio = size / (delta * guess)
            cls = max(1, math.ceil(math.log(ratio) / math.log(1.0 + delta) - 1e-12))
            cls = min(cls, num_classes)
            if class_sizes[cls - 1] < size - 1e-12 * size:
                raise ValueError(
                    f"job of size {size} exceeds the largest class at guess "
                    f"{guess}; raise the guess above the maximum job size"
                )
            large_by_class[p][cls - 1].append(j)
            class_counts[cls - 1] += 1
        else:
            small_jobs[p].append(j)
            small_load[p] += size

    # Sort large jobs by ascending cost (cheapest removed first) and
    # small jobs by ascending cost-to-size ratio.
    large_cost_prefix: list[list[np.ndarray]] = []
    for p in range(m):
        prefixes = []
        for cls in range(num_classes):
            large_by_class[p][cls].sort(
                key=lambda j: (instance.costs[j], j)
            )
            costs = np.array(
                [instance.costs[j] for j in large_by_class[p][cls]], dtype=np.float64
            )
            prefixes.append(np.concatenate(([0.0], np.cumsum(costs))))
        large_cost_prefix.append(prefixes)

    small_size_prefix: list[np.ndarray] = []
    small_cost_prefix: list[np.ndarray] = []
    for p in range(m):
        small_jobs[p].sort(
            key=lambda j: (instance.costs[j] / instance.sizes[j], j)
        )
        ssz = np.array([instance.sizes[j] for j in small_jobs[p]], dtype=np.float64)
        scs = np.array([instance.costs[j] for j in small_jobs[p]], dtype=np.float64)
        small_size_prefix.append(np.concatenate(([0.0], np.cumsum(ssz))))
        small_cost_prefix.append(np.concatenate(([0.0], np.cumsum(scs))))

    total_small = sum(small_load)
    v_r_units = math.ceil(total_small / unit - 1e-12) if total_small > 0 else 0
    total_small_units = v_r_units + m  # + delta * m * T, in units

    return _Discretization(
        guess=guess,
        delta=delta,
        num_classes=num_classes,
        class_sizes=class_sizes,
        unit=unit,
        w_cap=(1.0 + 2.0 * delta) * guess,
        large_by_class=large_by_class,
        large_cost_prefix=large_cost_prefix,
        small_jobs=small_jobs,
        small_size_prefix=small_size_prefix,
        small_cost_prefix=small_cost_prefix,
        small_load=small_load,
        class_counts=class_counts,
        total_small_units=total_small_units,
    )


def _enumerate_large_vectors(
    disc: _Discretization, limit: int
) -> list[tuple[tuple[int, ...], float]]:
    """All large-class count vectors ``x`` with ``sum x_i l_i <= W`` and
    ``x_i <= N_i``; returns ``(x, rounded_large_load)`` pairs."""
    out: list[tuple[tuple[int, ...], float]] = []
    sizes = disc.class_sizes
    counts = disc.class_counts
    s = disc.num_classes

    def rec(cls: int, current: list[int], load: float) -> None:
        if len(out) > limit:
            raise RuntimeError(
                "PTAS configuration enumeration exceeded "
                f"{limit} entries; reduce instance size or increase eps"
            )
        if cls == s:
            out.append((tuple(current), load))
            return
        max_count = int(counts[cls])
        x = 0
        while x <= max_count and load + x * sizes[cls] <= disc.w_cap + 1e-9:
            current.append(x)
            rec(cls + 1, current, load + x * sizes[cls])
            current.pop()
            x += 1

    rec(0, [], 0.0)
    return out


def _small_removal_cost(disc: _Discretization, proc: int, target: float) -> float:
    """Greedy small-removal cost so the remaining small load on ``proc``
    is at most ``target + unit`` (the paper's ``V' + delta * OPT``)."""
    v = disc.small_load[proc]
    slack = target + disc.unit
    if v <= slack + 1e-12:
        return 0.0
    need = v - slack
    prefix = disc.small_size_prefix[proc]
    r = int(np.searchsorted(prefix, need - 1e-12, side="left"))
    r = min(r, prefix.shape[0] - 1)
    return float(disc.small_cost_prefix[proc][r])


def _small_removal_set(disc: _Discretization, proc: int, target: float) -> list[int]:
    """The jobs the greedy of :func:`_small_removal_cost` removes."""
    v = disc.small_load[proc]
    slack = target + disc.unit
    if v <= slack + 1e-12:
        return []
    need = v - slack
    prefix = disc.small_size_prefix[proc]
    r = int(np.searchsorted(prefix, need - 1e-12, side="left"))
    r = min(r, prefix.shape[0] - 1)
    return disc.small_jobs[proc][:r]


def _solve_dp(
    instance: Instance, disc: _Discretization, limits: PTASLimits
) -> tuple[float, list[tuple[tuple[int, ...], int]]] | None:
    """Run the DP; return ``(min_cost, per-processor configs)`` or
    ``None`` when no exact distribution of ``V`` exists."""
    m = instance.num_processors
    large_vectors = _enumerate_large_vectors(
        disc, limits.max_configs_per_processor
    )
    unit = disc.unit

    # Per (processor, large-vector) removal cost for the large classes.
    def large_cost(proc: int, x: tuple[int, ...]) -> float:
        total = 0.0
        for cls in range(disc.num_classes):
            have = len(disc.large_by_class[proc][cls])
            keep = min(x[cls], have)
            total += float(disc.large_cost_prefix[proc][cls][have - keep])
        return total

    memo: dict[tuple[int, tuple[int, ...], int], float] = {}
    choice: dict[
        tuple[int, tuple[int, ...], int], tuple[tuple[int, ...], int]
    ] = {}

    def f(proc: int, n: tuple[int, ...], v_units: int) -> float:
        if proc == m:
            return 0.0 if (all(c == 0 for c in n) and v_units == 0) else _INF
        key = (proc, n, v_units)
        if key in memo:
            return memo[key]
        if len(memo) > limits.max_states:
            raise RuntimeError(
                f"PTAS DP exceeded {limits.max_states} states; "
                "reduce instance size or increase eps"
            )
        best = _INF
        best_choice: tuple[tuple[int, ...], int] | None = None
        remaining = m - proc
        for x, load in large_vectors:
            if any(x[i] > n[i] for i in range(disc.num_classes)):
                continue
            lc = large_cost(proc, x)
            if lc >= best:
                continue
            v_max = int((disc.w_cap - load + 1e-9) // unit)
            v_max = min(v_max, v_units)
            # The remaining processors must be able to absorb what is
            # left of V: each can take at most floor(W / unit).
            per_proc_cap = int((disc.w_cap + 1e-9) // unit)
            v_min = max(0, v_units - (remaining - 1) * per_proc_cap)
            child_n = tuple(n[i] - x[i] for i in range(disc.num_classes))
            for v_prime in range(v_max, v_min - 1, -1):
                cost = lc + _small_removal_cost(disc, proc, v_prime * unit)
                if cost >= best:
                    # Small-removal cost grows as v_prime shrinks, so
                    # no smaller v_prime can improve on this x.
                    break
                sub = f(proc + 1, child_n, v_units - v_prime)
                if cost + sub < best:
                    best = cost + sub
                    best_choice = (x, v_prime)
        memo[key] = best
        if best_choice is not None:
            choice[key] = best_choice
        return best

    root_n = tuple(int(c) for c in disc.class_counts)
    total_cost = f(0, root_n, disc.total_small_units)
    telemetry.count("ptas_dp_states", len(memo))
    if not math.isfinite(total_cost):
        return None

    # Walk the choices to extract each processor's configuration.
    configs: list[tuple[tuple[int, ...], int]] = []
    n = root_n
    v = disc.total_small_units
    for proc in range(m):
        x, v_prime = choice[(proc, n, v)]
        configs.append((x, v_prime))
        n = tuple(n[i] - x[i] for i in range(disc.num_classes))
        v -= v_prime
    return total_cost, configs


def _realize(
    instance: Instance,
    disc: _Discretization,
    configs: list[tuple[tuple[int, ...], int]],
) -> Assignment:
    """Turn per-processor configurations into an actual assignment."""
    m = instance.num_processors
    mapping = np.array(instance.initial, dtype=np.int64)

    # Large jobs: keep the most expensive per class up to x_i, pool the
    # rest, then fill per-class deficits.
    pool_by_class: list[list[int]] = [[] for _ in range(disc.num_classes)]
    deficit: list[list[int]] = [[] for _ in range(disc.num_classes)]  # procs, repeated
    for p in range(m):
        x, _ = configs[p]
        for cls in range(disc.num_classes):
            have = disc.large_by_class[p][cls]
            keep = min(x[cls], len(have))
            pool_by_class[cls].extend(have[: len(have) - keep])
            for _ in range(x[cls] - keep):
                deficit[cls].append(p)
    for cls in range(disc.num_classes):
        if len(pool_by_class[cls]) != len(deficit[cls]):
            raise AssertionError(
                "large-job bookkeeping out of balance in class "
                f"{cls}: {len(pool_by_class[cls])} pooled vs "
                f"{len(deficit[cls])} deficit slots"
            )
        for j, p in zip(pool_by_class[cls], deficit[cls]):
            mapping[j] = p

    # Small jobs: apply the greedy removal per processor, then place the
    # pool on processors with small load below their allowance.
    small_load = list(disc.small_load)
    allowance = [configs[p][1] * disc.unit for p in range(m)]
    pool_small: list[int] = []
    for p in range(m):
        removed = _small_removal_set(disc, p, allowance[p])
        for j in removed:
            pool_small.append(j)
            small_load[p] -= float(instance.sizes[j])
    pool_small.sort(key=lambda j: (-instance.sizes[j], j))
    for j in pool_small:
        candidates = [p for p in range(m) if small_load[p] < allowance[p] - 1e-12]
        if not candidates:
            raise AssertionError(
                "no processor has spare small-load allowance; the DP's "
                "exact-V invariant was violated"
            )
        p = min(candidates, key=lambda q: small_load[q] - allowance[q])
        mapping[j] = p
        small_load[p] += float(instance.sizes[j])

    return Assignment(instance=instance, mapping=mapping)


def _evaluate_guess(
    payload: tuple[Instance, float, float, PTASLimits, str],
) -> tuple[float, list[tuple[tuple[int, ...], int]]] | None:
    """Discretize and solve one outer guess ``T``.

    Module-level (and fed a single picklable payload) so the parallel
    sweep runner can fan guesses out across worker processes.
    """
    instance, guess, delta, limits, backend = payload
    with telemetry.span("ptas.discretize"):
        disc = _discretize(instance, guess, delta)
    with telemetry.span("ptas.dp"):
        if backend == "kernel":
            return kernels.solve_ptas_dp(disc, instance.num_processors, limits)
        if backend == "reference":
            return _solve_dp(instance, disc, limits)
        raise ValueError(f"unknown backend {backend!r}")


def ptas_rebalance(
    instance: Instance,
    budget: float,
    eps: float = 0.5,
    limits: PTASLimits | None = None,
    backend: str = "kernel",
    workers: int = 1,
) -> RebalanceResult:
    """Run the Section-4 PTAS with cost budget ``B = budget``.

    Returns an assignment of relocation cost at most ``budget`` and
    makespan at most ``(1 + eps)`` times the optimal makespan achievable
    within the budget (up to the grid/rounding slack discussed in the
    module docstring; the test suite checks the end-to-end bound against
    the exact optimum).

    ``eps`` trades quality for time *steeply*: the number of size
    classes is ``ceil(log_{1+delta}(1/delta))`` with ``delta = eps/6``,
    and the DP is exponential in that count.  Values below roughly
    ``0.75`` are only practical for very small instances.

    ``backend`` selects the configuration-DP implementation:
    ``"kernel"`` (default) is the iterative layered DP in
    :mod:`repro.core.kernels`, ``"reference"`` the original recursive
    memo DP — both return identical costs and configurations.
    ``workers > 1`` fans the independent outer guesses out over that
    many worker processes; the chunked in-order scan accepts exactly
    the guess the serial scan would, so the chosen threshold (and hence
    the result) is identical.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if limits is None:
        limits = PTASLimits()
    if instance.num_jobs == 0:
        return RebalanceResult(
            assignment=Assignment.initial(instance),
            algorithm="ptas",
            guessed_opt=0.0,
            planned_cost=0.0,
            meta={"eps": eps},
        )
    delta = eps / 6.0
    lb = max(instance.average_load, instance.max_size)
    ub = 4.0 * max(instance.initial_makespan, lb)
    guesses: list[float] = []
    t = lb
    while t < ub:
        guesses.append(t)
        t *= 1.0 + delta
    guesses.append(ub)

    tmark = telemetry.mark()
    tol = 1e-9 * max(1.0, budget)

    def admissible(solved) -> bool:
        return solved is not None and solved[0] <= budget + tol

    payloads = [(instance, guess, delta, limits, backend) for guess in guesses]
    if workers > 1:
        from .. import parallel

        hit = parallel.run_until(
            _evaluate_guess, payloads, admissible, workers=workers
        )
        scan = [] if hit is None else [hit]
    else:
        hit = None
        scan = (
            (i, _evaluate_guess(payloads[i])) for i in range(len(guesses))
        )
    for idx, solved in scan:
        if not admissible(solved):
            continue
        guess = guesses[idx]
        tried = idx + 1
        cost, configs = solved
        telemetry.count("guesses_tried", tried)
        disc = _discretize(instance, guess, delta)
        with telemetry.span("ptas.realize"):
            assignment = _realize(instance, disc, configs)
        if assignment.relocation_cost > budget + tol:
            # Defensive: realization never exceeds the planned cost,
            # but refuse to return an infeasible answer.
            break  # pragma: no cover
        return RebalanceResult(
            assignment=assignment,
            algorithm="ptas",
            guessed_opt=guess,
            planned_cost=cost,
            meta=telemetry.attach(
                {
                    "eps": eps,
                    "delta": delta,
                    "num_classes": disc.num_classes,
                    "guesses_tried": tried,
                    "backend": backend,
                },
                tmark,
            ),
        )
    raise RuntimeError(
        "PTAS failed to find a within-budget guess; this should be "
        "impossible because the identity assignment costs nothing"
    )  # pragma: no cover
