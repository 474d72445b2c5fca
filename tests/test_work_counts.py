"""Exact call counts of the engine functions that carry the work.

A fixed prefix of ops, one set of tiny `run_pipeline` configs and one of
tiny `find_independent_shuffle` searches, runs under cProfile, and the
number of calls of each function below is pinned.  Counts do not depend on
the machine, so an algorithmic regression shows here exactly, where a
timing would need many paired runs.  A change that moves a count updates
the pin and says why.
"""

import cProfile
import os
import pstats

from omegalab.config import ExperimentConfig
from omegalab.diag import run_pipeline
from omegalab.extender import (FamilyMap, PartialInjection,
                               find_independent_shuffle)
from omegalab.finset import bit_family

TINY_PIPELINE = dict(builds=2, universe=1 << 12, rows=8, cols=8,
                     value_bound=4, threshold=2, depth=2, probes=2,
                     probe_bound=4, search_bound=1 << 12, samples=4)

# (module file, function name) -> calls over the op prefix below
PINNED_CALLS = {
    ("codec.py", "nth_partial_fn"): 227,
    ("codec.py", "_unrank_walk"): 227,  # once per decode
    ("codec.py", "_next_extension"): 38,
    ("diag.py", "grid_fn_from_perm"): 32,
    ("diag.py", "verify_catch"): 64,
    ("finset.py", "min_combination_size"): 14,
    ("finset.py", "_intersection_sizes"): 22,
    ("finset.py", "_block_splits"): 54,
    ("extender.py", "random"): 14,  # AtomShuffle.random
    ("extender.py", "atoms_of"): 8,
    ("extender.py", "_completion"): 8,  # once per search
    ("extender.py", "_complete"): 14,  # once per attempt
}


def op_prefix():
    for seed in range(1, 9):
        run_pipeline(ExperimentConfig(seed=seed, **TINY_PIPELINE))
    n = 1 << 10
    family, g = bit_family(3, n), FamilyMap.from_dict({0: 1, 1: 0})
    for seed in range(1, 9):
        # seeds 1 and 5 pass on their first attempt; the rest exhaust 2
        threshold = 8 if seed % 4 == 1 else n
        find_independent_shuffle(PartialInjection.empty(n), g, family,
                                 threshold, depth=4, layers=2, budget=2,
                                 seed=seed)


def test_call_counts_are_pinned():
    profile = cProfile.Profile()
    profile.runcall(op_prefix)
    calls = dict.fromkeys(PINNED_CALLS, 0)
    for (path, _, name), (_, total, *_) in pstats.Stats(profile).stats.items():
        key = (os.path.basename(path), name)
        if key in calls:
            calls[key] += total
    assert calls == PINNED_CALLS
