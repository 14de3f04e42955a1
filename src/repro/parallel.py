"""Deterministic process-pool sweep runner.

The experiments and benchmarks in this repo are mostly
*embarrassingly parallel sweeps*: apply one picklable function to a
list of independent items.  This module gives them a single fan-out API
with the three properties the reproduction needs:

* **Deterministic ordering** — results come back indexed by input
  position regardless of worker scheduling, so a parallel run is
  byte-identical to a serial one.
* **Telemetry merge** — when the parent has a telemetry collector
  installed, each worker collects its own spans/counters and the parent
  folds them back in (:meth:`repro.telemetry.Collector.merge`), so
  ``--profile`` still accounts for work done in workers.
* **Serial fallback** — ``workers <= 1`` (or a single item) runs inline
  on the calling thread with zero pool overhead, which keeps the
  parallel path an opt-in strictly-faster variant of the serial one.

:func:`spawn_piped_process` starts the long-lived worker processes of
the sharded router's data plane.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable

from . import telemetry

__all__ = [
    "default_workers",
    "run_sweep",
    "spawn_piped_process",
]


def default_workers() -> int:
    """Worker count to use when the caller says "all": the CPU count."""
    return max(1, os.cpu_count() or 1)


def _call_collected(payload: tuple) -> tuple[int, Any, dict | None]:
    """Worker-side shim: run one item, optionally under a collector."""
    fn, idx, item, with_telemetry = payload
    if with_telemetry:
        with telemetry.collect() as collector:
            out = fn(item)
        return idx, out, collector.as_dict()
    return idx, fn(item), None


def _merge_worker_telemetry(data: dict | None) -> None:
    collector = telemetry.current()
    if collector is not None and data is not None:
        collector.merge(data)


def run_sweep(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    workers: int | None = None,
    chunksize: int = 1,
) -> list[Any]:
    """Apply ``fn`` to every item, returning results in input order.

    ``fn`` and the items must be picklable when ``workers > 1`` (``fn``
    is typically a module-level function taking one payload tuple).
    ``workers=None`` means :func:`default_workers`.
    """
    items = list(items)
    if workers is None:
        workers = default_workers()
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]

    with_tel = telemetry.enabled()
    payloads = [(fn, idx, item, with_tel) for idx, item in enumerate(items)]
    results: list[Any] = [None] * len(items)
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        for idx, out, tel in pool.map(
            _call_collected, payloads, chunksize=chunksize
        ):
            results[idx] = out
            _merge_worker_telemetry(tel)
    return results


# ----------------------------------------------------------------------
# Piped worker processes
# ----------------------------------------------------------------------
def spawn_piped_process(target, *args, daemon: bool = True):
    """Start a ``spawn``-context process wired to a duplex pipe.

    ``target(child_conn, *args)`` runs in the child; the parent gets
    ``(process, parent_conn)``.  The child's end is closed in the
    parent so EOF propagates when the child exits — the idiom the
    sharded-router control plane builds its pipe protocol on.  ``spawn``
    (never fork): forking a process that already runs an asyncio loop
    plus solver threads is undefined behavior.
    """
    ctx = multiprocessing.get_context("spawn")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=target, args=(child, *args), daemon=daemon)
    proc.start()
    child.close()
    return proc, parent

