"""Seeded inputs of the service workloads.

The program sees only what these generate; the workload seed never
crosses the wire.
"""

from __future__ import annotations

import numpy as np

from repro.core.instance import Instance
from repro.service.resident import ResidentShard
from repro.websim.traffic import zipf_popularities


def zipf_seed(n: int, m: int) -> Instance:
    """Zipf(0.9) loads, unit costs, round-robin placement: the seed
    snapshot of ``repro.service.loadgen.ChurnStreamConfig``."""
    return Instance(
        sizes=np.maximum(zipf_popularities(n, exponent=0.9), 1e-9),
        costs=np.ones(n, dtype=np.float64),
        num_processors=m,
        initial=np.arange(n, dtype=np.int64) % m,
    )


class ChurnShard:
    """One delta-churn shard stream.

    The generator keeps its own :class:`ResidentShard` of the shard, so
    each epoch is O(churn): ``churn`` sites change load by a factor drawn
    from [0.6, 1.8], last epoch's returned moves ride along, and the
    result is a delta against the fingerprint the server holds.
    """

    def __init__(self, seed: int, index: int, n: int, m: int,
                 churn: int) -> None:
        self.rng = np.random.default_rng([seed, index])
        self.churn = churn
        self.seed_instance = zipf_seed(n, m)
        self.res = ResidentShard(self.seed_instance)
        self.moves_idx = np.empty(0, dtype=np.int64)
        self.moves_to = np.empty(0, dtype=np.int64)

    @property
    def num_sites(self) -> int:
        return self.res.num_jobs

    def step(self) -> dict:
        """The next epoch's delta (not yet committed locally)."""
        res = self.res
        c_idx = np.sort(self.rng.choice(self.num_sites, size=self.churn,
                                        replace=False))
        c_sizes = np.maximum(
            res.sizes[c_idx] * self.rng.uniform(0.6, 1.8, self.churn), 1e-9
        )
        idx = np.union1d(c_idx, self.moves_idx)
        sizes = res.sizes[idx].copy()
        initial = res.initial[idx].copy()
        sizes[np.searchsorted(idx, c_idx)] = c_sizes
        if self.moves_idx.shape[0]:
            initial[np.searchsorted(idx, self.moves_idx)] = self.moves_to
        return {"base": res.fp_hex, "idx": idx, "sizes": sizes,
                "costs": res.costs[idx].copy(), "initial": initial}

    def commit(self, delta: dict) -> None:
        """Advance the local tip: the same frame the router, primary and
        standby apply."""
        frame, fp = self.res.preview(delta)
        self.res.commit(frame, fp)

    def note_moves(self, idx: np.ndarray, to: np.ndarray) -> None:
        self.moves_idx, self.moves_to = idx, to


# Full-drift load shape: a diurnal swing of +-SWING over PERIOD epochs,
# times uniform noise in 1 +- NOISE.
PERIOD = 64
SWING = 0.5
NOISE = 0.05


class DriftCluster:
    """One full-drift cluster: every site's load moves every epoch.

    Load of site ``i`` at epoch ``e`` is its Zipf base times a diurnal
    swing ``1 + SWING * sin(2 pi (e / PERIOD + phase_i))`` with a per-site
    phase, times uniform noise in ``1 +- NOISE``.  The placement is
    whatever the previous decision returned.
    """

    def __init__(self, seed: int, n: int, m: int) -> None:
        self.seed = seed
        self.m = m
        self.base = np.maximum(zipf_popularities(n, exponent=0.9), 1e-9)
        self.phase = np.random.default_rng([seed, 0]).uniform(0.0, 1.0, n)
        self.costs = np.ones(n, dtype=np.float64)
        self.placement = np.arange(n, dtype=np.int64) % m

    def sizes(self, epoch: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, 1, epoch])
        diurnal = 1.0 + SWING * np.sin(2.0 * np.pi * (epoch / PERIOD + self.phase))
        return self.base * diurnal * rng.uniform(
            1.0 - NOISE, 1.0 + NOISE, self.base.shape[0]
        )

    def snapshot(self, epoch: int) -> Instance:
        return Instance(sizes=self.sizes(epoch), costs=self.costs,
                        num_processors=self.m,
                        initial=self.placement.copy())


def changed_share(before: Instance, after: Instance) -> float:
    """Share of sites whose load, cost or placement differs."""
    changed = (
        (before.sizes != after.sizes)
        | (before.costs != after.costs)
        | (before.initial != after.initial)
    )
    return float(changed.mean())
