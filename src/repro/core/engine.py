"""Warm-start rebalancing engine for epoch streams (Theorem 3, amortized).

The websim epoch loop used to rebuild every solver data structure from
scratch each epoch: :func:`~repro.core.thresholds.build_tables` re-sorts
all jobs and :func:`~repro.core.partition.evaluate_guess` walks the
processors in a Python loop for every threshold tried.  Consecutive
epochs of one evolving cluster differ only in the sites whose traffic
shifted, so almost all of that work is repeated verbatim.

:class:`RebalanceEngine` serves a *stream* of snapshots of one evolving
instance and amortizes the solver state across them:

* **Table cache** — the per-processor ascending orders and prefix sums
  (:class:`~repro.core.thresholds.ThresholdTables`) are kept between
  calls and patched via :func:`~repro.core.thresholds.patch_tables`:
  only the processors whose job composition changed are re-sorted,
  ``O(changed · n_i log n_i)`` instead of the full ``O(n log n)``
  Python bucketing pass.
* **Vectorized guess evaluation** — ``(a_i, b_i, has_large_i)`` for
  *all* processors at once from flattened prefix arrays (a handful of
  numpy passes over ``n`` elements) instead of three ``searchsorted``
  calls per processor per threshold.  The final Step-3 selection goes
  through the same :func:`~repro.core.partition._finalize_evaluation`
  as the scalar path, so evaluations are identical by construction.
* **Decision cache** — a fingerprint (blake2b over sizes, costs,
  initial assignment and processor count) keyed LRU of full
  :class:`~repro.core.result.RebalanceResult` objects, so a
  byte-identical snapshot (e.g. a flash crowd that fully decayed back
  to baseline) returns the cached decision without touching the solver.

Differential property tests enforce that every decision (assignment,
stopping guess, planned move count) is identical to a from-scratch
:func:`~repro.core.partition.m_partition_rebalance` call on the same
snapshot; the caches are pure transparent accelerations.

Telemetry counters (visible through :mod:`repro.telemetry` and mirrored
on :attr:`RebalanceEngine.stats`): ``cache_hits``, ``tables_reused``,
``buckets_patched``, ``full_builds``, plus the shared
``thresholds_tried``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .. import telemetry
from . import rollhash
from .assignment import Assignment
from .instance import Instance
from .partition import GuessEvaluation, _construct, _finalize_evaluation
from .partition_incremental import scan_incremental
from .result import RebalanceResult
from .thresholds import (
    ThresholdTables,
    build_tables,
    candidate_guesses,
    patch_tables,
    patch_tables_hint,
    scan_start,
)

__all__ = ["ChurnHint", "EngineStats", "RebalanceEngine", "snapshot_fingerprint"]

# A churn hint names the jobs that changed since the engine's tables
# were last valid: (idx, old_sizes, old_costs, old_initial), with the
# *new* values read from the snapshot itself.  ``old_sizes``/``old_costs``
# ride along so fingerprints can be rolled by the same tuple; the table
# patch itself only consumes ``idx`` and ``old_initial``.
ChurnHint = tuple


def _normalize_hint(hint: tuple) -> tuple:
    """Unique-ify a churn hint by job index (first occurrence wins).

    Hints accumulated across epochs may repeat a job; the *first* old
    value recorded for it is its value as of the tables' state, which is
    what the patch and fingerprint roll both need.
    """
    idx = np.asarray(hint[0], dtype=np.int64)
    old_sizes = np.asarray(hint[1], dtype=np.float64)
    old_costs = np.asarray(hint[2], dtype=np.float64)
    old_initial = np.asarray(hint[3], dtype=np.int64)
    already_canonical = idx.shape[0] < 2 or bool(np.all(idx[:-1] < idx[1:]))
    if already_canonical:
        return (idx, old_sizes, old_costs, old_initial)
    uniq, first = np.unique(idx, return_index=True)
    return (uniq, old_sizes[first], old_costs[first], old_initial[first])


def _merge_hints(pending: tuple | None, fresh: tuple | None) -> tuple | None:
    """Net-merge two normalized hints; ``pending`` is the older one."""
    if pending is None:
        return fresh
    if fresh is None:
        return pending
    return _normalize_hint(
        (
            np.concatenate((pending[0], fresh[0])),
            np.concatenate((pending[1], fresh[1])),
            np.concatenate((pending[2], fresh[2])),
            np.concatenate((pending[3], fresh[3])),
        )
    )


@dataclass
class EngineStats:
    """Running counters of the engine's cache behavior.

    Always maintained (they are a handful of integer adds per decision),
    independent of whether :mod:`repro.telemetry` collection is active.
    """

    decisions: int = 0
    cache_hits: int = 0
    tables_reused: int = 0
    buckets_patched: int = 0
    full_builds: int = 0
    thresholds_tried: int = 0
    incremental_decides: int = 0
    churn_fallbacks: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "decisions": self.decisions,
            "cache_hits": self.cache_hits,
            "tables_reused": self.tables_reused,
            "buckets_patched": self.buckets_patched,
            "full_builds": self.full_builds,
            "thresholds_tried": self.thresholds_tried,
            "incremental_decides": self.incremental_decides,
            "churn_fallbacks": self.churn_fallbacks,
        }


class _FlatTables:
    """Flattened per-processor views for vectorized guess evaluation.

    Concatenates every processor's prefix sums (``prefix[1:]``, length
    ``n_i`` each) into one array tagged with its processor id.  Within a
    segment the prefix values are ascending, so "how many prefix entries
    of processor ``i`` are at most ``x``" is a boolean mask plus one
    ``bincount`` — for all processors at once.
    """

    __slots__ = ("m", "n", "sizes", "job_proc", "counts", "prefix_flat",
                 "prefix_proc", "sizes_asc")

    def __init__(self, tables: ThresholdTables) -> None:
        instance = tables.instance
        self.m = instance.num_processors
        self.n = instance.num_jobs
        self.sizes = instance.sizes
        self.job_proc = instance.initial
        self.counts = np.array(
            [proc.num_jobs for proc in tables.processors], dtype=np.int64
        )
        if self.n:
            self.prefix_flat = np.concatenate(
                [proc.prefix[1:] for proc in tables.processors]
            )
        else:
            self.prefix_flat = np.empty(0)
        self.prefix_proc = np.repeat(np.arange(self.m, dtype=np.int64), self.counts)
        self.sizes_asc = tables.sizes_asc

    def evaluate(self, guess: float) -> GuessEvaluation:
        """Vectorized equivalent of
        :func:`repro.core.partition.evaluate_guess`.

        Derivation (per processor ``i``, all comparisons on the same
        floats the scalar path uses):

        * ``s_cnt = #{jobs on i with size <= guess/2}``;
        * ``a_i = s_cnt - keep`` where ``keep = #{1 <= l <= s_cnt :
          P_l <= guess/2}`` (``P_0 = 0`` always qualifies, cancelling
          the scalar path's ``searchsorted(...) - 1``);
        * ``b_i = q - min(#{l >= 1 : P_l <= guess}, q)`` with
          ``q = n_i`` if the processor is all-small else ``s_cnt + 1``.
        """
        half = guess / 2.0
        m = self.m
        total_large = self.n - int(
            np.searchsorted(self.sizes_asc, half, side="right")
        )
        s_cnt = np.bincount(self.job_proc[self.sizes <= half], minlength=m)
        cnt_prefix_half = np.bincount(
            self.prefix_proc[self.prefix_flat <= half], minlength=m
        )
        cnt_prefix_full = np.bincount(
            self.prefix_proc[self.prefix_flat <= guess], minlength=m
        )
        a = s_cnt - np.minimum(cnt_prefix_half, s_cnt)
        q = np.where(s_cnt == self.counts, self.counts, s_cnt + 1)
        b = q - np.minimum(cnt_prefix_full, q)
        has_large = s_cnt < self.counts
        return _finalize_evaluation(guess, total_large, a, b, has_large)


def snapshot_fingerprint(instance: Instance) -> bytes:
    """Digest of everything a rebalancing decision can depend on.

    Shared by the engine's decision cache and the service layer's
    within-batch dedupe (:mod:`repro.service.batching`): two instances
    with equal fingerprints are byte-identical snapshots.

    Since the O(churn) decide path landed this is the *additive rolling
    hash* of :mod:`repro.core.rollhash`, not blake2b: the full digest
    here is still one O(n) vectorized pass, but a server holding the
    roll-capable state updates it from a churn of ``c`` sites in O(c)
    and lands on the byte-identical digest.  The digest stays 16 opaque
    bytes; every consumer treats it as a cache key.

    The digest is memoized on the instance — its arrays are read-only,
    so the bytes can never change — which matters at service rates:
    clients and the server both fingerprint every epoch snapshot they
    touch, and hashing three ``n``-element arrays is an O(n) cost that
    would otherwise recur per request instead of per snapshot.
    """
    memo = instance.__dict__.get("_snapshot_digest")
    if memo is not None:
        return memo
    digest = rollhash.instance_fingerprint(instance)
    object.__setattr__(instance, "_snapshot_digest", digest)
    return digest


_fingerprint = snapshot_fingerprint


class RebalanceEngine:
    """Stateful M-PARTITION server for a stream of epoch snapshots.

    One engine serves one evolving cluster with one fixed move budget
    ``k``; construct a fresh engine (or call :meth:`reset`) for a
    different stream or budget.  Decisions are guaranteed identical to
    :func:`repro.core.partition.m_partition_rebalance` on every
    snapshot — the caches only skip repeated work, never change the
    answer.
    """

    #: Above this fraction of changed jobs, the incremental scan stops
    #: paying for itself and the engine falls back to the vectorized
    #: full path (the tables are still hint-patched either way).
    churn_limit: float = 0.25

    def __init__(
        self, k: int, cache_size: int = 64, churn_limit: float | None = None
    ) -> None:
        if k < 0:
            raise ValueError("k must be non-negative")
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        self.k = k
        self.cache_size = cache_size
        if churn_limit is not None:
            self.churn_limit = churn_limit
        self.stats = EngineStats()
        self._tables: ThresholdTables | None = None
        self._cache: OrderedDict[bytes, RebalanceResult] = OrderedDict()
        # O(churn) path state: a pending (not yet applied) churn hint,
        # and whether _tables.sizes_asc has gone stale under hint
        # patching (it is only refreshed on full-scan decides).
        self._pending: tuple | None = None
        self._sizes_stale = False

    def reset(self) -> None:
        """Drop all cached state (tables, decisions, counters)."""
        self.stats = EngineStats()
        self._tables = None
        self._cache.clear()
        self._pending = None
        self._sizes_stale = False

    def note_churn(
        self,
        idx: np.ndarray,
        old_sizes: np.ndarray,
        old_costs: np.ndarray,
        old_initial: np.ndarray,
    ) -> None:
        """Record churn that happened *without* a decide.

        The server's solve plane applies every wire delta onto the
        shard's resident arrays in arrival order, but not every delta
        triggers a decision (deadline-shed requests and decision-memo
        hits still advance the state).  Those churn sets accumulate here
        and are folded into the next :meth:`rebalance` hint, keeping the
        warm tables patchable even though the arrays they alias have
        already moved on.
        """
        self._pending = _merge_hints(
            self._pending, _normalize_hint((idx, old_sizes, old_costs, old_initial))
        )

    @property
    def has_pending_churn(self) -> bool:
        """True when churn recorded via :meth:`note_churn` (or a cache
        hit with a hint) has not yet been folded into a decide.

        The server's solve plane checks this before handing the engine
        an arbitrary replacement snapshot with no hint: pending churn
        only describes the sites it names, so such a snapshot must be
        preceded by a :meth:`reset` (the pending hint cannot account
        for the other sites' differences).
        """
        return self._pending is not None

    def cached(self, fingerprint: bytes) -> RebalanceResult | None:
        """Decision-cache lookup by fingerprint alone.

        On a hit this counts a full decision (``decisions`` and
        ``cache_hits``) and returns the cached result — byte-identical
        to what :meth:`rebalance` would return — without the caller ever
        materializing the snapshot.  On a miss it returns ``None`` and
        touches no counters; the caller must follow up with
        :meth:`rebalance`.
        """
        cached = self._cache.get(fingerprint)
        if cached is None:
            return None
        self._cache.move_to_end(fingerprint)
        self.stats.decisions += 1
        self.stats.cache_hits += 1
        telemetry.count("cache_hits")
        return cached

    # ------------------------------------------------------------------
    def _update_tables(self, instance: Instance) -> ThresholdTables:
        """Cached tables patched to ``instance``, or a full build."""
        if self._tables is None:
            with telemetry.span("engine.build_tables"):
                tables = build_tables(instance)
            self.stats.full_builds += 1
            telemetry.count("full_builds")
        else:
            with telemetry.span("engine.patch_tables"):
                tables, patched = patch_tables(self._tables, instance)
            if patched < 0:
                self.stats.full_builds += 1
                telemetry.count("full_builds")
            else:
                self.stats.tables_reused += 1
                self.stats.buckets_patched += patched
                telemetry.count("tables_reused")
                telemetry.count("buckets_patched", patched)
        self._tables = tables
        return tables

    def rebalance(
        self,
        instance: Instance,
        *,
        fingerprint: bytes | None = None,
        changed: tuple | None = None,
    ) -> RebalanceResult:
        """Decide one epoch: M-PARTITION on ``instance`` with budget
        ``k``, served warm from the engine's caches.

        ``fingerprint`` lets a caller that already hashed the snapshot
        (the service layer rolls :func:`snapshot_fingerprint` at
        admission for batching dedupe and delta bases) skip the second
        hashing pass; it must be ``snapshot_fingerprint(instance)``.

        ``changed`` is an optional churn hint ``(idx, old_sizes,
        old_costs, old_initial)`` naming exactly the jobs that differ
        from the snapshot the engine's tables describe (plus any churn
        recorded via :meth:`note_churn`).  With a hint the engine never
        diffs arrays — which is what makes it correct for the O(churn)
        server path, where ``instance`` is a read-only view of resident
        arrays mutated in place, aliasing the tables' own snapshot.
        When the hinted churn is at most ``churn_limit * n`` the decide
        runs the windowed incremental scan
        (:func:`~repro.core.partition_incremental.scan_incremental`) —
        O(churn · bucket + scanned · log) instead of O(n log n) — and is
        byte-identical to the full path by construction (differential
        tests enforce it).
        """
        tmark = telemetry.mark()
        fp = fingerprint if fingerprint is not None else _fingerprint(instance)
        cached = self.cached(fp)
        if cached is not None:
            if changed is not None:
                # The arrays advanced even though the decision was
                # cached; remember the churn for the next real decide.
                self._pending = _merge_hints(
                    self._pending, _normalize_hint(changed)
                )
            return cached
        self.stats.decisions += 1

        hint = _merge_hints(
            self._pending,
            _normalize_hint(changed) if changed is not None else None,
        )
        self._pending = None
        n = instance.num_jobs
        hint_usable = (
            hint is not None
            and self._tables is not None
            and self._tables.instance.num_jobs == n
            and self._tables.instance.num_processors == instance.num_processors
            and n > 0
        )
        incremental = False
        if hint_usable:
            with telemetry.span("engine.patch_tables"):
                tables, changed_procs = patch_tables_hint(
                    self._tables, instance, hint[0], hint[3]
                )
            self._tables = tables
            self._sizes_stale = True
            self.stats.tables_reused += 1
            self.stats.buckets_patched += int(changed_procs.shape[0])
            telemetry.count("tables_reused")
            telemetry.count("buckets_patched", int(changed_procs.shape[0]))
            incremental = hint[0].shape[0] <= self.churn_limit * n
            if not incremental:
                self.stats.churn_fallbacks += 1
                telemetry.count("churn_fallbacks")
        else:
            if self._sizes_stale or (hint is not None and self._tables is not None):
                # The warm tables were hint-patched against arrays that
                # mutate in place (or the hint does not match their
                # shape), so a value diff against them is meaningless —
                # rebuild from the snapshot.
                self._tables = None
                self._sizes_stale = False
            tables = self._update_tables(instance)

        if n == 0:
            result = RebalanceResult(
                assignment=Assignment.initial(instance),
                algorithm="m-partition-engine",
                guessed_opt=0.0,
                planned_moves=0,
            )
            self._remember(fp, result)
            return result

        if incremental:
            with telemetry.span("engine.scan_incremental"):
                scan = scan_incremental(tables, self.k, instance.average_load)
            if scan is not None:
                stop_guess, k_hat, tried, refreshes, state = scan
                self.stats.thresholds_tried += tried
                self.stats.incremental_decides += 1
                telemetry.count("thresholds_tried", tried)
                telemetry.count("incremental_refreshes", refreshes)
                # The scan state holds every processor's exact values at
                # the stop guess (values change only at a processor's
                # own thresholds, all of which are in its stream), so
                # the Step-3 selection finalizes straight from it.
                ev = _finalize_evaluation(
                    stop_guess,
                    state.total_large_jobs,
                    state.a,
                    state.b,
                    state.has_large,
                )
                assert ev.planned_moves == k_hat, (
                    f"incremental k-hat {k_hat} disagrees with rescan "
                    f"{ev.planned_moves} at guess {stop_guess}"
                )
                with telemetry.span("engine.construct"):
                    assignment = _construct(instance, tables, ev)
                # O(moves) post-condition on the steady path: the O(n)
                # load-recompute guard of ``validate`` runs on every
                # full decide (and fallback), and the incremental
                # construction is additionally pinned by the k-hat
                # rescan assert above plus the differential tests.
                assert assignment.num_moves <= self.k, (
                    f"{assignment.num_moves} moves exceeds budget {self.k}"
                )
                result = RebalanceResult(
                    assignment=assignment,
                    algorithm="m-partition-engine",
                    guessed_opt=ev.guess,
                    planned_moves=ev.planned_moves,
                    meta=telemetry.attach(
                        {
                            "L_T": ev.total_large,
                            "m_L": ev.large_processors,
                            "L_E": ev.extra_large,
                            "thresholds_tried": tried,
                            "engine": self.stats.as_dict(),
                        },
                        tmark,
                    ),
                )
                self._remember(fp, result)
                return result
            # Candidate streams exhausted without a feasible stop —
            # fall through to the full scan, which reproduces the full
            # path's result or error semantics exactly.

        if self._sizes_stale:
            # Hint patching leaves the global ascending sizes stale; the
            # vectorized scan needs them fresh.
            tables = ThresholdTables(
                instance=instance,
                processors=tables.processors,
                sizes_asc=np.sort(instance.sizes),
            )
            self._tables = tables
            self._sizes_stale = False

        candidates = candidate_guesses(tables)
        flat = _FlatTables(tables)
        start = scan_start(candidates, instance.average_load)
        tried = 0
        stop_ev: GuessEvaluation | None = None
        with telemetry.span("engine.scan"):
            for idx in range(start, candidates.shape[0]):
                ev = flat.evaluate(float(candidates[idx]))
                tried += 1
                if ev.feasible and ev.planned_moves <= self.k:
                    stop_ev = ev
                    break
        self.stats.thresholds_tried += tried
        telemetry.count("thresholds_tried", tried)
        if stop_ev is None:  # pragma: no cover - same safeguard as rescan
            raise RuntimeError("no feasible threshold found")
        with telemetry.span("engine.construct"):
            assignment = _construct(instance, tables, stop_ev)
        assignment.validate(max_moves=self.k)
        result = RebalanceResult(
            assignment=assignment,
            algorithm="m-partition-engine",
            guessed_opt=stop_ev.guess,
            planned_moves=stop_ev.planned_moves,
            meta=telemetry.attach(
                {
                    "L_T": stop_ev.total_large,
                    "m_L": stop_ev.large_processors,
                    "L_E": stop_ev.extra_large,
                    "thresholds_tried": tried,
                    "engine": self.stats.as_dict(),
                },
                tmark,
            ),
        )
        self._remember(fp, result)
        return result

    def _remember(self, fp: bytes, result: RebalanceResult) -> None:
        if self.cache_size == 0:
            return
        self._cache[fp] = result
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
