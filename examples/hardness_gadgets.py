#!/usr/bin/env python
"""Watching the Section-5 hardness results happen.

The paper's negative results are constructive: each one compiles a
known NP-hard problem into a rebalancing-flavored instance whose
*answer gap* any good approximation algorithm would have to bridge.
This example builds each gadget and shows the gap with exact solvers.

Run:  python examples/hardness_gadgets.py
"""

import numpy as np

from repro.hardness import (
    conflict_gadget_from_3dm,
    constrained_gadget_from_3dm,
    exact_constrained,
    feasible_conflict_assignment,
    min_moves_exact,
    min_moves_greedy,
    planted_yes_instance,
    random_no_instance,
    random_yes_instance,
    reduction_from_partition,
    verified_no_instance,
    verify_gadget_gap,
)

rng = np.random.default_rng(2003)

# ----------------------------------------------------------------------
print("=" * 70)
print("Theorem 5: move minimization is inapproximable (from PARTITION)")
print("=" * 70)
for label, part in (
    ("yes", random_yes_instance(10, rng)),
    ("no ", random_no_instance(10, rng)),
):
    inst, bound = reduction_from_partition(part)
    exact = min_moves_exact(inst, bound)
    greedy = min_moves_greedy(inst, bound)
    print(f"PARTITION {label}-instance {part.values}")
    print(f"  gadget: all jobs on processor 0 of 2, load bound {bound}")
    print(f"  exact : achievable={exact.achievable} moves={exact.moves}")
    print(f"  greedy: achievable={greedy.achievable}  <- a polynomial "
          f"heuristic may wrongly give up (Theorem 5 says some always will)")

# ----------------------------------------------------------------------
print()
print("=" * 70)
print("Theorem 6: two-valued-cost GAP has no sub-1.5 approximation (3DM)")
print("=" * 70)
yes3 = planted_yes_instance(3, 4, rng)
no3 = verified_no_instance(3, 6, rng)
for label, tdm in (("yes", yes3), ("no ", no3)):
    v = verify_gadget_gap(tdm)
    print(f"3DM {label}-instance, {tdm.num_triples} triples over n={tdm.n}: "
          f"matching={v['has_matching']}")
    print(f"  gadget optimal makespan within budget {v['budget']}: "
          f"{v['gadget_makespan']}   (2 iff matching; else >= 3 — the 3/2 gap)")

# ----------------------------------------------------------------------
print()
print("=" * 70)
print("Corollary 1: Constrained Load Rebalancing, same 1.5 gap")
print("=" * 70)
cinst, target = constrained_gadget_from_3dm(yes3)
makespan, _ = exact_constrained(cinst, k=cinst.instance.num_jobs)
print(f"yes-gadget: {cinst.instance.num_jobs} jobs restricted to allowed "
      f"machine subsets; optimal constrained makespan = {makespan} "
      f"(target {target})")

# ----------------------------------------------------------------------
print()
print("=" * 70)
print("Theorem 7: Conflict Scheduling is inapproximable within ANY ratio")
print("=" * 70)
for label, tdm in (("yes", yes3), ("no ", no3)):
    gadget = conflict_gadget_from_3dm(tdm)
    mapping = feasible_conflict_assignment(gadget)
    print(f"3DM {label}-instance -> conflict gadget "
          f"({gadget.num_jobs} jobs, {gadget.num_machines} machines, "
          f"{len(gadget.conflicts)} conflict pairs): "
          f"feasible={'yes' if mapping is not None else 'no'}")
print(
    "\nFeasibility itself encodes 3DM, so any finite-ratio approximation\n"
    "would decide an NP-complete problem — there is nothing to\n"
    "approximate until P = NP."
)
