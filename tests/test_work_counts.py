"""Exact call counts of the engine functions that carry the work.

A fixed prefix of ops runs under cProfile, and the number of calls of each
function below is pinned: one set of tiny `run_pipeline` configs with one
of tiny `find_independent_shuffle` searches; shaped like the `codec-deep`
workload, a few rank/unrank round trips, least-extension searches and
`build_generic` folds; and, shaped like the `cli-cold` workload, a few
`diag-experiment` requests through `cli.main` on tiny config files.
Counts do not depend on the machine, so an algorithmic regression shows
here exactly, where a timing would need many paired runs.  A change that
moves a count updates the pin and says why.
"""

import cProfile
import json
import os
import pstats
import random

from omegalab import cli
from omegalab.codec import (least_extension_index, nth_partial_fn,
                            partial_fn_index)
from omegalab.config import ExperimentConfig
from omegalab.diag import run_pipeline
from omegalab.extender import (FamilyMap, PartialInjection,
                               find_independent_shuffle)
from omegalab.finset import CombinationSpec, Family, bit_family
from omegalab.generic import IN, Demand, TargetGrid, build_generic

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


def codec_deep_prefix():
    # round trips from 10^7 to past 10^45, as the workload's rank slots
    for e in (7, 15, 25, 35, 45):
        m = 3 * 10 ** e + 1
        assert partial_fn_index(nth_partial_fn(m)) == m
    # searches for two- and three-entry probes above 0, 10^3 and 10^4
    for probe, above in ((3, 0), (9, 1000), (5, 10_000)):
        assert least_extension_index(nth_partial_fn(probe), above,
                                     1 << 20) is not None
    # folds of three demands over an empty family with a deep search bound
    for k, bound in enumerate((10 ** 12, 10 ** 20)):
        grid = TargetGrid.random(4, 4, 2, random.Random(k))
        schedule = tuple(Demand(CombinationSpec(), p, IN) for p in (1, 5, 2))
        build_generic([Family(bound, ())], grid, schedule, bound)


CODEC_DEEP_PINNED_CALLS = {
    ("codec.py", "_unrank_walk"): 16,
    ("codec.py", "_rank_below"): 12,
    ("codec.py", "_next_extension"): 7,
    ("codec.py", "least_extension_index"): 7,  # 3 here, 4 from the folds
    ("generic.py", "extend_to_meet"): 6,  # once per demand
}


def call_counts(ops, pinned):
    profile = cProfile.Profile()
    profile.runcall(ops)
    calls = dict.fromkeys(pinned, 0)
    for (path, _, name), (_, total, *_) in pstats.Stats(profile).stats.items():
        key = (os.path.basename(path), name)
        if key in calls:
            calls[key] += total
    return calls


def test_call_counts_are_pinned():
    assert call_counts(op_prefix, PINNED_CALLS) == PINNED_CALLS


def test_codec_deep_call_counts_are_pinned():
    assert call_counts(codec_deep_prefix, CODEC_DEEP_PINNED_CALLS) == \
        CODEC_DEEP_PINNED_CALLS


CLI_COLD_PINNED_CALLS = {
    ("jsonio.py", "read_json"): 3,  # one config per request
    ("jsonio.py", "write_json"): 3,  # one report per request
    ("diag.py", "run_pipeline"): 3,
    ("codec.py", "nth_partial_fn"): 86,
    ("diag.py", "verify_catch"): 24,
}


def test_cli_cold_call_counts_are_pinned(tmp_path):
    # one config file and one report file per request, as the workload's
    # child processes read and write them
    requests = []
    for seed in (1, 2, 3):
        config = tmp_path / f"config-{seed}.json"
        config.write_text(json.dumps(
            ExperimentConfig(seed=seed, **TINY_PIPELINE).to_json_obj()))
        requests.append(["diag-experiment", "--config", str(config),
                         "--out", str(tmp_path / f"report-{seed}.json")])

    def cli_cold_prefix():
        for argv in requests:
            # every tiny config degrades (search-exhausted or grid-overflow)
            assert cli.main(argv) == cli.EX_DEGRADED
    assert call_counts(cli_cold_prefix, CLI_COLD_PINNED_CALLS) == \
        CLI_COLD_PINNED_CALLS
