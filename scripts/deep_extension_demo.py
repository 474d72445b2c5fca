#!/usr/bin/env python3
"""Show where the chain construction hits its wall, and how a deeper search
bound gets past it.

The second chain element is 3, so the third must echo row 3 of the target
grid — and row-3 entries occupy slots 78 and 91 of the underlying codes.
The smallest code with both bits set ranks near 9.3 * 10^10, so any bound
below that exhausts, while a bound of 2 * 10^11 finds the witness exactly.
The search is pure counting (no tables of that size exist), so both runs
finish instantly.
"""

import argparse
import sys
import time

from omegalab.codec import PartialFn, partial_fn_index
from omegalab.finset import CombinationSpec, Family
from omegalab.generic import IN, Demand, TargetGrid, build_generic


def run_once(bound: int, label: str) -> None:
    grid = TargetGrid.constant(4, 4)
    schedule = [Demand(CombinationSpec(), 0, IN)] * 3
    started = time.monotonic()
    run = build_generic([Family(bound, ())], grid, schedule, bound)
    elapsed = time.monotonic() - started
    print(f"--- search bound {bound:_} ({label}) ---")
    if run.degraded:
        print(f"degraded: {run.failure_kind} at demand {run.failed_at}")
        print(f"chain so far: {list(run.condition.elements)}")
    else:
        print(f"chain: {list(run.condition.elements)}")
    print(f"elapsed: {elapsed:.3f}s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--deep-bound", type=int, default=2 * 10 ** 11)
    args = parser.parse_args()

    run_once(1 << 20, "the desk-scale default; exhausts")
    run_once(args.deep_bound, "past the wall")

    # entries (0, 0, i, 0) and (3, 0, i, 0) for both layers i: slots 0, 1,
    # 78 and 91
    witness = partial_fn_index(PartialFn.from_entries(
        [(0, 0, 0, 0), (0, 0, 1, 0), (3, 0, 0, 0), (3, 0, 1, 0)]))
    print(f"predicted third element (rank of the row-0+row-3 echo): "
          f"{witness:_}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
