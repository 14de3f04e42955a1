"""The repo benchmark: one command per workload run.

    python3 perfbench/run.py --workload delta-churn --seed 1 --seconds 15 --trace 0

Workloads:

* ``delta-churn``: two 200k-site shard streams through the shipped
  router and two ``serve`` backends, 16 sites changed per epoch, moves-only
  deltas every 50 ms per shard: the O(churn) steady state.
* ``full-drift``: one 50k-site cluster whose every load moves every
  epoch, submitted as full v2 snapshots by two stateless frontends every
  100 ms: the O(n) codec, validation and full-solve path, half of it
  answered from shared work.
* ``offline-solve``: the paper's GREEDY, M-PARTITION, cost partition and
  PTAS called in process on a fixed seeded batch.

Every run checks every decision (see ``gate.py``) and ends with one JSON
line: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``.  A layer a workload does not exercise reports 0.
Spans of a traced run are written to ``.perfbench/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Metric names and units are declared once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

WORKLOADS = ("delta-churn", "full-drift", "offline-solve")


def run(workload: str, seed: int, seconds: float, trace: bool,
        run_dir: Path) -> dict:
    if workload == "offline-solve":
        from perfbench.offline import run_offline

        return run_offline(seed, seconds, trace, run_dir, SRC)
    from perfbench.service import DELTA_CHURN, FULL_DRIFT, run_service

    spec = DELTA_CHURN if workload == "delta-churn" else FULL_DRIFT
    return run_service(spec, seed, seconds, trace, run_dir, SRC)


def result_line(out: dict, trace: bool) -> str:
    names, values = (PER_LAYER, out.get("layers", {})) if trace else (
        END_TO_END, out["e2e"])
    undeclared = set(values) - set(names)
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    metrics = {}
    for name, unit in names.items():
        value, got_unit = values.get(name, (0.0, unit))
        if got_unit != unit:
            raise RuntimeError(f"{name} measured in {got_unit}, declared {unit}")
        metrics[name] = {"value": float(value), "unit": unit}
    return json.dumps({
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    })


def stop_children(grace_s: float = 10.0) -> None:
    """Terminate whatever this process still has running and reap it;
    what outlives the grace period is killed."""
    from perfbench.proc import tree

    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in tree(os.getpid())[1:]:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            try:
                if os.waitpid(-1, os.WNOHANG) == (0, 0):
                    time.sleep(0.05)
            except ChildProcessError:
                return


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(SRC), str(ROOT)]
    if importlib.util.find_spec("repro") is None:
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run_dir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  run_dir)
    finally:
        stop_children()
    for line in out["lines"]:
        print(line)
    print(result_line(out, bool(args.trace)), flush=True)
    if out["correct"]:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
