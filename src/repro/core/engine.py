"""Warm-start rebalancing engine for epoch streams (Theorem 3, amortized).

The websim epoch loop used to rebuild every solver data structure from
scratch each epoch: :func:`~repro.core.thresholds.build_tables` re-sorts
all jobs, and the threshold scan starts from nothing.  Consecutive
epochs of one evolving cluster differ only in the sites whose traffic
shifted, so almost all of that work is repeated verbatim.

:class:`RebalanceEngine` serves a *stream* of snapshots of one evolving
instance and amortizes the solver state across them:

* **Table cache** — the per-processor ascending orders and prefix sums
  (the rows of :class:`~repro.core.thresholds.ThresholdTables`) are
  kept between calls and patched in place: from a churn hint naming the
  changed jobs (:func:`~repro.core.thresholds.patch_tables_hint`, a
  sorted merge into each affected row, O(churn + affected rows'
  lengths)) or, without one, from a value diff against the cached
  snapshot (:func:`~repro.core.thresholds.patch_tables`).  Only the
  rows whose job composition changed are rewritten, instead of the full
  ``O(n log n)`` sort of every job.
* **One threshold scan** — every decide, hinted or not, runs
  M-PARTITION's windowed scan
  (:func:`~repro.core.partition.scan_thresholds`) over the patched
  tables, reading all rows with whole-array operations, and finalizes
  the Step-3 selection from the scan's per-processor columns at the
  stop guess, exactly as a from-scratch
  :func:`~repro.core.partition.m_partition_rebalance` does.
* **Decision cache** — a fingerprint (the rolling hash of sizes,
  costs, initial assignment and processor count) keyed LRU of full
  :class:`~repro.core.result.RebalanceResult` objects, so a
  byte-identical snapshot (e.g. a flash crowd that fully decayed back
  to baseline) returns the cached decision without touching the solver.
  It serves in-process streams (websim policies, E12), which revisit
  snapshots.  The service builds its shard engines with
  ``cache_size=0``: it collapses duplicates before they reach an
  engine, and each cached result keeps a full mapping alive.

Differential property tests enforce that every decision (assignment,
stopping guess, planned move count) is identical to a from-scratch
:func:`~repro.core.partition.m_partition_rebalance` call on the same
snapshot; the caches are pure transparent accelerations.

Telemetry counters (visible through :mod:`repro.telemetry` and mirrored
on :attr:`RebalanceEngine.stats`): ``cache_hits``, ``tables_reused``,
``buckets_patched`` (table rows patched), ``full_builds``,
``incremental_decides`` (decides served from a churn hint), plus the
shared ``thresholds_tried``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .. import telemetry
from . import rollhash
from .assignment import Assignment
from .instance import Instance
from .partition import _construct, scan_thresholds
from .result import RebalanceResult
from .thresholds import ThresholdTables, build_tables, patch_tables, patch_tables_hint

__all__ = [
    "ChurnHint", "EngineStats", "RebalanceEngine", "snapshot_fingerprint",
    "snapshot_state",
]

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

    def as_dict(self) -> dict[str, int]:
        return {
            "decisions": self.decisions,
            "cache_hits": self.cache_hits,
            "tables_reused": self.tables_reused,
            "buckets_patched": self.buckets_patched,
            "full_builds": self.full_builds,
            "thresholds_tried": self.thresholds_tried,
            "incremental_decides": self.incremental_decides,
        }


def snapshot_fingerprint(instance: Instance) -> bytes:
    """Digest of everything a rebalancing decision can depend on.

    Shared by the engine's decision cache and the service layer's
    coalescing and response memo (:mod:`repro.service.admission`): two
    instances with equal fingerprints are byte-identical snapshots.

    Since the O(churn) decide path landed this is the *additive rolling
    hash* of :mod:`repro.core.rollhash`, not blake2b: the full digest
    here is still one O(n) vectorized pass, but a server holding the
    roll-capable state updates it from a churn of ``c`` sites in O(c)
    and lands on the byte-identical digest.  The digest stays 16 opaque
    bytes; every consumer treats it as a cache key.

    The digest is memoized on the instance (see :func:`snapshot_state`)
    — its arrays are read-only, so the bytes can never change — which
    matters at service rates: clients and the server both fingerprint
    every epoch snapshot they touch, and hashing three ``n``-element
    arrays is an O(n) cost that would otherwise recur per request
    instead of per snapshot.
    """
    return snapshot_state(instance).digest()


def snapshot_state(instance: Instance) -> rollhash.RollingFingerprint:
    """The roll-capable state behind :func:`snapshot_fingerprint`,
    memoized on the instance.

    A server seeding a resident tip from a decoded full snapshot needs
    this state, not just the digest; taking it from the memo keeps the
    snapshot's O(n) hash to one pass per request.  The state is shared:
    callers that roll it must roll a :meth:`~RollingFingerprint.copy`.
    """
    memo = instance.__dict__.get("_snapshot_state")
    if memo is None:
        memo = rollhash.fingerprint_state(
            instance.sizes, instance.costs, instance.initial,
            instance.num_processors,
        )
        object.__setattr__(instance, "_snapshot_state", memo)
    return memo


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

    def __init__(self, k: int, cache_size: int = 64) -> None:
        if k < 0:
            raise ValueError("k must be non-negative")
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        self.k = k
        self.cache_size = cache_size
        self.stats = EngineStats()
        self._tables: ThresholdTables | None = None
        self._cache: OrderedDict[bytes, RebalanceResult] = OrderedDict()
        # O(churn) path state: a pending (not yet applied) churn hint,
        # and whether _tables were last hint-patched — their snapshot
        # may then alias arrays mutated in place, so an unhinted decide
        # must rebuild instead of diffing against it.
        self._pending: tuple | None = None
        self._hint_patched = False

    def reset(self) -> None:
        """Drop all cached state (tables, decisions, counters)."""
        self.stats = EngineStats()
        self._tables = None
        self._cache.clear()
        self._pending = None
        self._hint_patched = False

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

    # ------------------------------------------------------------------
    def _update_tables(self, instance: Instance) -> ThresholdTables:
        """Cached tables patched to ``instance``, or a full build."""
        if self._tables is None:
            with telemetry.span("engine.build_tables"):
                tables = build_tables(instance)
            self.stats.full_builds += 1
            telemetry.count("full_builds")
        else:
            # Patches rewrite rows in place: until one completes, the
            # cached tables describe no snapshot.
            tables, self._tables = self._tables, None
            with telemetry.span("engine.patch_tables"):
                tables, patched = patch_tables(tables, instance)
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

        ``fingerprint`` keys the decision cache; a caller that already
        hashed the snapshot (e.g. rolled it with a delta) passes it to
        skip the second hashing pass, and it must then be
        ``snapshot_fingerprint(instance)``.  With ``cache_size=0`` no
        fingerprint is needed or computed.

        ``changed`` is an optional churn hint ``(idx, old_sizes,
        old_costs, old_initial)`` naming exactly the jobs that differ
        from the snapshot the engine's tables describe (plus any churn
        recorded via :meth:`note_churn`).  With a hint the engine never
        diffs arrays — which is what makes it correct for the O(churn)
        server path, where ``instance`` is a read-only view of resident
        arrays mutated in place, aliasing the tables' own snapshot.
        Hinted or not, the decide runs the one windowed threshold scan
        (:func:`~repro.core.partition.scan_thresholds`), so a hinted
        decide costs a row patch per affected processor plus
        whole-array scan and construction work, and is byte-identical to
        a from-scratch decide (differential tests enforce it).
        """
        tmark = telemetry.mark()
        fp = None
        if self.cache_size:
            fp = fingerprint if fingerprint is not None else _fingerprint(instance)
            cached = self._cache.get(fp)
            if cached is not None:
                self._cache.move_to_end(fp)
                self.stats.decisions += 1
                self.stats.cache_hits += 1
                telemetry.count("cache_hits")
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
        if hint_usable:
            tables, self._tables = self._tables, None
            with telemetry.span("engine.patch_tables"):
                tables, changed_procs = patch_tables_hint(
                    tables, instance, hint[0], hint[3]
                )
            self._tables = tables
            self._hint_patched = True
            self.stats.tables_reused += 1
            self.stats.buckets_patched += int(changed_procs.shape[0])
            self.stats.incremental_decides += 1
            telemetry.count("tables_reused")
            telemetry.count("buckets_patched", int(changed_procs.shape[0]))
        else:
            if self._hint_patched or (hint is not None and self._tables is not None):
                # The warm tables were hint-patched against arrays that
                # mutate in place (or the hint does not match their
                # shape), so a value diff against them is meaningless —
                # rebuild from the snapshot.
                self._tables = None
                self._hint_patched = False
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

        with telemetry.span(
            "engine.scan_incremental" if hint_usable else "engine.scan"
        ):
            ev, tried = scan_thresholds(tables, self.k, instance.average_load)
        self.stats.thresholds_tried += tried
        telemetry.count("thresholds_tried", tried)
        with telemetry.span("engine.construct"):
            assignment = _construct(instance, tables, ev)
        if hint_usable:
            # O(moves) post-condition on the steady path, where an O(n)
            # load recompute would dominate the decide; the construction
            # is pinned by the differential tests.
            if assignment.num_moves > self.k:
                raise AssertionError(
                    f"{assignment.num_moves} moves exceeds budget {self.k}"
                )
        else:
            assignment.validate(max_moves=self.k)
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

    def _remember(self, fp: bytes | None, result: RebalanceResult) -> None:
        if fp is None:
            return
        self._cache[fp] = result
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
