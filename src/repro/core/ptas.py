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
  ``V' + delta T``).  Only *reachable* states are visited, which keeps
  small instances tractable despite the scheme's enormous worst-case
  polynomial.  :func:`_layered_dp` runs it iteratively, one layer per
  processor: states are single integers (mixed-radix over the class
  counts plus the small-load digit), a forward pass collects each
  layer's reachable set, and a backward pass computes exact suffix
  costs from per-processor large-removal and small-removal edge tables
  built once per guess.  Candidates are scanned in configuration
  enumeration order with the small allowance descending, and only a
  strict improvement replaces the best, so ties resolve the same way
  as in the top-down memoized recursion the test suite keeps as its
  oracle.

* **Configuration cache** — the W-feasibility test
  ``sum x_i l_i <= (1 + 2 delta) T`` scales linearly in the guess
  ``T``, so the feasible large-class vectors depend only on ``delta``
  and the class counts; :func:`_normalized_vectors` enumerates them once
  per such signature, in units of ``T`` with a *relative* ``1e-9``
  tolerance (an absolute one in units of the job sizes differs only for
  configurations within ``1e-9`` of the knife edge).

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
from functools import lru_cache

import numpy as np

from .. import telemetry
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


def _small_removal_set(disc: _Discretization, proc: int, target: float) -> list[int]:
    """The jobs the greedy small removal takes off ``proc`` so its
    remaining small load is at most ``target + unit`` (the paper's
    ``V' + delta * OPT``): a prefix of its cost-to-size-ratio order."""
    v = disc.small_load[proc]
    slack = target + disc.unit
    if v <= slack + 1e-12:
        return []
    need = v - slack
    prefix = disc.small_size_prefix[proc]
    r = int(np.searchsorted(prefix, need - 1e-12, side="left"))
    r = min(r, prefix.shape[0] - 1)
    return disc.small_jobs[proc][:r]


@lru_cache(maxsize=64)
def _normalized_vectors(
    delta: float, num_classes: int, counts: tuple[int, ...], limit: int
) -> np.ndarray:
    """All W-feasible large-class count vectors, in enumeration order.

    Works in units of the guess ``T``: class ``i`` has normalized size
    ``delta * (1 + delta)**(i + 1)`` against the normalized cap
    ``1 + 2 delta``, so the result is reusable across every guess that
    shares ``(delta, counts)`` — the per-class-count-signature cache
    :func:`_layered_dp` relies on.
    """
    sizes_norm = [delta * (1.0 + delta) ** (i + 1) for i in range(num_classes)]
    wcap_norm = 1.0 + 2.0 * delta
    out: list[tuple[int, ...]] = []

    def rec(cls: int, current: list[int], load: float) -> None:
        if len(out) > limit:
            raise RuntimeError(
                "PTAS configuration enumeration exceeded "
                f"{limit} entries; reduce instance size or increase eps"
            )
        if cls == num_classes:
            out.append(tuple(current))
            return
        max_count = counts[cls]
        x = 0
        while x <= max_count and load + x * sizes_norm[cls] <= wcap_norm + 1e-9:
            current.append(x)
            rec(cls + 1, current, load + x * sizes_norm[cls])
            current.pop()
            x += 1

    rec(0, [], 0.0)
    mat = np.array(out, dtype=np.int64)
    return mat.reshape(len(out), num_classes)


def _layered_dp(
    disc: _Discretization, m: int, limits: PTASLimits
) -> tuple[float, list[tuple[tuple[int, ...], int]]] | None:
    """Run the DP; return ``(min_cost, per-processor configs)`` or
    ``None`` when no exact distribution of ``V`` exists.  Raises
    ``RuntimeError`` past the resource guards in ``limits``."""
    s_cls = disc.num_classes
    counts = tuple(int(x) for x in disc.class_counts)
    vec_mat = _normalized_vectors(
        disc.delta, s_cls, counts, limits.max_configs_per_processor
    )
    num_vecs = vec_mat.shape[0]
    unit = disc.unit

    # Per-guess rescale: loads accumulated class-ascending, left to
    # right, as an enumeration in units of job size would sum them, so
    # the v_max floor divisions below see the same bits.
    loads = np.zeros(num_vecs)
    for cls in range(s_cls):
        loads += vec_mat[:, cls] * disc.class_sizes[cls]
    ppc = int((disc.w_cap + 1e-9) // unit)
    vmax_all = ((disc.w_cap - loads + 1e-9) // unit).astype(np.int64)
    np.minimum(vmax_all, ppc, out=vmax_all)

    # Mixed-radix state encoding: class digits (class 0 most
    # significant) then the small-unit digit with weight 1.
    vn1 = disc.total_small_units + 1
    weights = [0] * s_cls
    w = 1
    for cls in range(s_cls - 1, -1, -1):
        weights[cls] = w
        w *= counts[cls] + 1
    vmix = (vec_mat * np.array(weights, dtype=np.int64)).sum(axis=1)
    offsets = (vmix * vn1).tolist()
    vmax_list = vmax_all.tolist()
    root_mix = sum(counts[cls] * weights[cls] for cls in range(s_cls))
    root_code = root_mix * vn1 + disc.total_small_units

    # Per-processor edge tables: edge[p][k][v'] = large-removal cost of
    # vector k on processor p plus the small-removal cost of allowance
    # v' — precomputed once instead of per transition.
    targets = np.arange(ppc + 1) * unit
    slack = targets + unit
    sc_mat = np.zeros((m, ppc + 1))
    for p in range(m):
        v_small = disc.small_load[p]
        prefix = disc.small_size_prefix[p]
        need = v_small - slack
        r = np.searchsorted(prefix, need - 1e-12, side="left")
        np.minimum(r, prefix.shape[0] - 1, out=r)
        row = disc.small_cost_prefix[p][r]
        row[v_small <= slack + 1e-12] = 0.0
        sc_mat[p] = row
    lc_mat = np.zeros((m, num_vecs))
    for p in range(m):
        acc = np.zeros(num_vecs)
        for cls in range(s_cls):
            have = len(disc.large_by_class[p][cls])
            kept = np.minimum(vec_mat[:, cls], have)
            acc += disc.large_cost_prefix[p][cls][have - kept]
        lc_mat[p] = acc

    # Feasible vectors per distinct class-count residue (mix code),
    # shared across layers and small-unit digits.
    feas_cache: dict[int, list[tuple[int, int, int]]] = {}
    radices = [counts[cls] + 1 for cls in range(s_cls)]

    def feas(mix: int) -> list[tuple[int, int, int]]:
        got = feas_cache.get(mix)
        if got is not None:
            return got
        digits = np.empty(s_cls, dtype=np.int64)
        rem = mix
        for cls in range(s_cls):
            digits[cls] = rem // weights[cls]
            rem -= digits[cls] * weights[cls]
        ok = np.flatnonzero((vec_mat <= digits).all(axis=1))
        entry = [(int(k), offsets[k], vmax_list[k]) for k in ok]
        feas_cache[mix] = entry
        return entry

    # Forward pass: reachable states per layer (state dedup).
    layers: list[list[int]] = [[root_code]]
    seen_states = 1
    frontier = {root_code}
    for proc in range(m - 1):
        absorb = (m - proc - 1) * ppc
        nxt: set[int] = set()
        for code in frontier:
            mix, v = divmod(code, vn1)
            vlo_floor = v - absorb
            if vlo_floor < 0:
                vlo_floor = 0
            for _k, off, vmaxk in feas(mix):
                vm = vmaxk if vmaxk < v else v
                base = code - off
                for vp in range(vlo_floor, vm + 1):
                    nxt.add(base - vp)
        seen_states += len(nxt)
        if seen_states > limits.max_states:
            raise RuntimeError(
                f"PTAS DP exceeded {limits.max_states} states; "
                "reduce instance size or increase eps"
            )
        layers.append(sorted(nxt))
        frontier = nxt
    telemetry.count("ptas_dp_states", seen_states)

    # Backward pass: exact suffix costs; candidates in enumeration
    # order with the allowance descending, and strict-improvement
    # updates, so ties resolve to the first candidate in that order.
    suffix: dict[int, float] = {0: 0.0}
    choices: list[dict[int, tuple[int, int]]] = [dict() for _ in range(m)]
    for proc in range(m - 1, -1, -1):
        lc_p = lc_mat[proc].tolist()
        edge_p = (lc_mat[proc][:, None] + sc_mat[proc][None, :]).tolist()
        absorb = (m - proc - 1) * ppc
        cur: dict[int, float] = {}
        choice_p = choices[proc]
        nxt_get = suffix.get
        for code in layers[proc]:
            mix, v = divmod(code, vn1)
            vlo = v - absorb
            if vlo < 0:
                vlo = 0
            best = _INF
            best_k = -1
            best_vp = -1
            for k, off, vmaxk in feas(mix):
                lc = lc_p[k]
                if lc >= best:
                    continue
                erow = edge_p[k]
                vm = vmaxk if vmaxk < v else v
                base = code - off
                for vp in range(vm, vlo - 1, -1):
                    cost = erow[vp]
                    if cost >= best:
                        # Small-removal cost grows as the allowance
                        # shrinks; no smaller vp can improve on this k.
                        break
                    sub = nxt_get(base - vp)
                    if sub is None:
                        continue
                    total = cost + sub
                    if total < best:
                        best = total
                        best_k = k
                        best_vp = vp
            if best_k >= 0:
                cur[code] = best
                choice_p[code] = (best_k, best_vp)
        suffix = cur

    total_cost = suffix.get(root_code, _INF)
    if not math.isfinite(total_cost):
        return None

    configs: list[tuple[tuple[int, ...], int]] = []
    code = root_code
    for proc in range(m):
        k, vp = choices[proc][code]
        configs.append((tuple(int(x) for x in vec_mat[k]), vp))
        code = code - offsets[k] - vp
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


def ptas_rebalance(
    instance: Instance,
    budget: float,
    eps: float = 0.5,
    limits: PTASLimits | None = None,
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
    for tried, guess in enumerate(guesses, start=1):
        with telemetry.span("ptas.discretize"):
            disc = _discretize(instance, guess, delta)
        with telemetry.span("ptas.dp"):
            solved = _layered_dp(disc, instance.num_processors, limits)
        if solved is None or solved[0] > budget + tol:
            continue
        cost, configs = solved
        telemetry.count("guesses_tried", tried)
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
                },
                tmark,
            ),
        )
    raise RuntimeError(
        "PTAS failed to find a within-budget guess; this should be "
        "impossible because the identity assignment costs nothing"
    )  # pragma: no cover
