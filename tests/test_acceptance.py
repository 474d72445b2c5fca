"""Acceptance criteria, one test per numbered criterion.

Each test is tagged @pytest.mark.criterion(n, title); the conftest hook
prints one PASS/FAIL/XFAIL line per criterion after the run.  Criteria 4
and 6 are strict expected failures at this scale: the witness search can
only reach entry slots below the enumeration bound's bit length, and the
third chain element of every build needs slots 78 and 91.  The README
section "Scale and the reachability wall" carries the analysis; the tests
state the criteria faithfully rather than weakening them.

Criterion 5 passes vacuously at the acceptance config: its 200 samples
check 0 capture cases.  A case is a chain element that the permutation
sends to another element of its chain, and each chain has at most two
elements, all below 115, in a universe of 2^20 points, where a uniform
permutation relates a given pair with probability about 2^-19.
test_capture_check_is_not_vacuous_on_a_small_universe runs the same
experiment on 64 points, where 2 000 samples check over a hundred cases.
"""

import dataclasses
import math
import random
import time

import pytest

from omegalab.codec import nth_partial_fn, partial_fn_index, raw_code_of_index
from omegalab.config import ExperimentConfig
from omegalab.diag import run_pipeline
from omegalab.errors import GridOverflow, SearchExhausted
from omegalab.extender import (AtomShuffle, FamilyMap, PartialInjection,
                               atoms_of, build_permutation,
                               find_independent_shuffle, shuffle_sizes)
from omegalab.finset import (Family, FinSet, bit_family,
                             boolean_combination, combination_specs,
                             is_independent)
from omegalab.generic import IN, Demand, extend_to_meet, is_condition
from omegalab.jsonio import canonical_dumps

ACCEPTANCE_CONFIG = ExperimentConfig(
    builds=4, universe=1 << 20, rows=16, cols=16, value_bound=4,
    threshold=4, depth=4, probes=4, probe_bound=16, search_bound=1 << 20,
    samples=200, seed=20260816)


@pytest.fixture(scope="module")
def pipeline():
    return run_pipeline(ACCEPTANCE_CONFIG)


@pytest.fixture(scope="module")
def joint_family(pipeline):
    sets = tuple(b.run.result_set for b in pipeline.builds)
    return Family(ACCEPTANCE_CONFIG.universe, sets)


@pytest.mark.criterion(1, "canonical independence family")
def test_criterion_1_independence_family():
    started = time.monotonic()
    fam = bit_family(8, 1 << 14)
    rep = is_independent(fam, threshold=16, depth=8)
    assert rep.ok
    full_depth = [s for s in combination_specs(8, 8) if s.depth == 8]
    assert len(full_depth) == 256
    for spec in full_depth:
        assert len(boolean_combination(fam, spec)) == 64
    assert time.monotonic() - started <= 10.0


@pytest.mark.criterion(2, "enumeration round-trip")
def test_criterion_2_enumeration_roundtrip():
    # independent oracle: scan raw codes, keep those with at most one value
    # per point, compare against the library's enumeration
    def unpair(q):
        t = (math.isqrt(8 * q + 1) - 1) // 2
        if (t + 1) * (t + 2) // 2 <= q:
            t += 1
        return t - (q - t * (t + 1) // 2), q - t * (t + 1) // 2

    def functional(raw):
        groups, slot = set(), 0
        while raw:
            if raw & 1:
                g = unpair(slot)[0]
                if g in groups:
                    return False
                groups.add(g)
            raw >>= 1
            slot += 1
        return True

    oracle = [r for r in range(1 << 14) if functional(r)]
    assert oracle[:12] == [0, 1, 2, 3, 4, 6, 8, 9, 10, 11, 12, 14]
    assert [raw_code_of_index(m) for m in range(len(oracle))] == oracle

    assert nth_partial_fn(0).entries == ()
    assert nth_partial_fn(3).entries == ((0, 0, 0, 0), (0, 0, 1, 0))
    assert nth_partial_fn(4).entries == ((0, 0, 0, 1),)

    for m in range(10 ** 5):
        assert partial_fn_index(nth_partial_fn(m)) == m


@pytest.mark.criterion(3, "permutation extension exactness")
def test_criterion_3_extension_exactness():
    swap = FamilyMap.from_dict({0: 1, 1: 0})
    halves = Family(4, (FinSet.from_members(4, [0, 1]),
                        FinSet.from_members(4, [2, 3])))
    perm = build_permutation(PartialInjection.empty(4), swap, halves,
                             AtomShuffle(((0, 1), (0, 1))))
    assert perm.images == (2, 3, 0, 1)

    rng = random.Random(20260816)
    for _ in range(1000):
        e = rng.randint(2, 8)
        n = 1 << e
        fam = bit_family(e, n)
        dom = sorted(rng.sample(range(e), rng.randint(0, e)))
        images = list(dom)
        rng.shuffle(images)
        g = FamilyMap(tuple(zip(dom, images)))
        dec = atoms_of(g, fam)
        pairs = []
        for k, atom in enumerate(dec.atoms):
            src = atom.to_list()
            tgt = dec.atoms[dec.action[k]].to_list()
            take = rng.randint(0, len(src))
            pairs.extend(zip(src[:take], tgt[:take]))
        f = PartialInjection(n, tuple(pairs))
        sizes = shuffle_sizes(f, g, fam)
        result = build_permutation(f, g, fam, AtomShuffle.random(sizes, rng))
        for x, y in f.pairs:
            assert result.images[x] == y
        for j, j2 in g.pairs:
            assert result.apply_set(fam.sets[j]) == fam.sets[j2]


@pytest.mark.criterion(4, "generic construction soundness")
@pytest.mark.xfail(
    strict=True,
    reason="witness search cannot reach the entry slots of rows >= 3 below "
           "the enumeration bound; every build degrades at its third chain "
           "element (see README, \"Scale and the reachability wall\")")
def test_criterion_4_generic_soundness(pipeline, joint_family):
    for record in pipeline.builds:
        assert not record.run.degraded
        assert is_condition(record.run.condition.elements, record.grid).ok
    depth = min(ACCEPTANCE_CONFIG.depth, len(joint_family.sets))
    assert is_independent(joint_family, ACCEPTANCE_CONFIG.threshold, depth).ok


@pytest.mark.criterion(5, "pair-capture theorem shadow")
def test_criterion_5_capture_shadow(pipeline):
    assert pipeline.sampling.samples >= 200
    assert pipeline.sampling.violations == 0
    assert len(pipeline.samples) == pipeline.sampling.samples
    assert sum(s.violations for s in pipeline.samples) == 0


def test_capture_check_is_not_vacuous_on_a_small_universe():
    # criterion 5's companion: at the acceptance config no sample relates
    # two chain elements, so the pass there checks no case.  On 64 points
    # 2 000 samples relate them often enough to check over a hundred cases
    config = dataclasses.replace(ACCEPTANCE_CONFIG, universe=64,
                                 search_bound=64, samples=2000)
    sampling = run_pipeline(config).sampling
    assert sampling.violations == 0
    assert sampling.up_checked + sampling.down_checked > 0


@pytest.mark.criterion(6, "constructive density")
@pytest.mark.xfail(
    strict=True,
    reason="meeting any in-demand from a finished build needs an echo of its "
           "second chain element, whose entry slots lie beyond every index "
           "below the bound (see README, \"Scale and the reachability "
           "wall\")")
def test_criterion_6_constructive_density(pipeline, joint_family):
    failures = 0
    attempts = 0
    for record in pipeline.builds:
        cond = record.run.condition
        for spec in combination_specs(len(joint_family.sets),
                                      ACCEPTANCE_CONFIG.depth):
            for probe in range(ACCEPTANCE_CONFIG.probe_bound):
                attempts += 1
                demand = Demand(spec, probe, IN)
                try:
                    extend_to_meet(cond, demand, [joint_family],
                                   ACCEPTANCE_CONFIG.search_bound)
                except (SearchExhausted, GridOverflow):
                    failures += 1
    assert attempts == len(pipeline.builds) * 81 * ACCEPTANCE_CONFIG.probe_bound
    assert failures == 0


@pytest.mark.criterion(7, "homogenization step success rate")
def test_criterion_7_homogenization_rate():
    fam = bit_family(3, 1 << 12)
    swap = FamilyMap.from_dict({0: 1, 1: 0})
    f = PartialInjection.empty(1 << 12)
    successes = 0
    for seed in range(20):
        rep = find_independent_shuffle(f, swap, fam, threshold=8, depth=4,
                                       layers=2, budget=10 ** 4, seed=seed)
        if rep.ok:
            successes += 1
            assert rep.independence.ok
            d = min(4, len(rep.closure.sets))
            assert is_independent(rep.closure, 8, d).ok
            for j, j2 in swap.pairs:
                assert rep.permutation.apply_set(fam.sets[j]) == fam.sets[j2]
        else:
            assert rep.exhausted
    assert successes >= 18


@pytest.mark.criterion(8, "report determinism")
def test_criterion_8_report_determinism(pipeline):
    fresh = run_pipeline(ACCEPTANCE_CONFIG)
    assert canonical_dumps(fresh.to_json_obj()) == \
        canonical_dumps(pipeline.to_json_obj())
