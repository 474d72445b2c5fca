"""Reading a permutation through the enumeration, and the capture check.

A permutation pi of the universe induces a partial function on a grid: on
layer 0 the row-m values come from the function indexed by pi(m), on layer 1
from the one indexed by the preimage of m.  Whenever a set A matches a target
grid pairwise, every pi-related pair inside A is caught by that induced
function somewhere in the earlier row — verify_catch checks this exactly, and
run_pipeline samples it at scale.

grid_fn_from_perm decodes only the indices that can reach their row (a cutoff
in closed form; at desk scale rows 0-2, the reachability wall), and keeps the
decoded (point code, value) pairs that fall in the row.  verify_catch takes
the set as a generic.Condition, which checked the pairwise match against its
grid when it was made, so no sample checks that precondition again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial
from typing import Any, Iterable, NamedTuple, Optional, Protocol

from .codec import PartialFn, cantor_unpair, nth_partial_fn
from .config import GRID_TAG, PERM_TAG, ExperimentConfig, child_seed
from .finset import Family, FinSet, IndependenceReport, is_independent
from .generic import (ComboDensityReport, Condition, GenericRun, TargetGrid,
                      agreements, auto_schedule, build_generic,
                      check_all_combos_dense)
from .jsonio import (density_to_obj, grid_to_obj, independence_to_obj,
                     run_to_obj)


class PointPermutation(Protocol):
    n: int

    def apply(self, x: int) -> int: ...

    def inverse_apply(self, y: int) -> int: ...


def grid_fn_from_perm(perm: PointPermutation, rows: int, cols: int) -> PartialFn:
    """The induced partial function on {0..rows-1} x {0..cols-1} x {0,1}:
    layer 0 of row m reads the function indexed by perm(m), layer 1 the one
    indexed by the preimage of m.

    Query order is pinned — images for m = 0..rows-1, then preimages
    likewise — so lazily sampled permutations give reproducible results.

    Only indices that can reach their row are decoded.  Index j has all its
    slots below bit s exactly when j < count_functional_below(s), and every
    slot of row m on a layer is at least the slot of entry (m, 0, layer, 0),
    cantor_pair(point_code(m, 0, layer), 0), so an index below that count
    leaves the row empty.  That slot opens diagonal
    c = point_code(m, 0, layer) = m(m+1) + layer, so the count, the row's
    cutoff, is (c+1)! = factorial(m(m+1) + layer + 1).  The cutoffs rise with
    m (1, 6, 5 040, about 6.2e9 on layer 0), and past the first one at or
    above perm.n no row can be read at all.

    Each decoded function gives its points in its own row and layer, below
    cols, as they are; no two rows or layers share a point, so the result
    needs no validation.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be >= 1")
    points = []
    for layer, index_of in ((0, perm.apply), (1, perm.inverse_apply)):
        cutoff = 0
        for m in range(rows):
            j = index_of(m)  # queried for every row, to keep the draws
            low = m * (m + 1) + layer  # point_code(m, 0, layer)
            if cutoff < perm.n:  # once past n it stays past every j
                cutoff = factorial(low + 1)
            if j < cutoff:
                continue
            for c, v in nth_partial_fn(j).points:
                if c >= low and c & 1 == layer:
                    a, b = cantor_unpair(c >> 1)
                    if a == m and b < cols:
                        points.append((c, v))
    points.sort()
    return PartialFn(tuple(points))


def moved_within(perm: PointPermutation, bound: int) -> tuple[int, ...]:
    """Points below the bound that the permutation does not fix."""
    return tuple(m for m in range(bound) if perm.apply(m) != m)


def case_split(perm: PointPermutation, members: Iterable[int]
               ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split the pi-related pairs inside the set by direction: elements sent
    up to another element, and elements sent down to one."""
    elem_set = set(members)
    # each image read once, in ascending order, so the draws do not change
    related = [(m, y) for m in sorted(elem_set)
               if (y := perm.apply(m)) in elem_set]
    return (tuple(m for m, y in related if m < y),
            tuple(m for m, y in related if m > y))


def matches(fn: PartialFn, target: TargetGrid) -> int:
    """How many points of the target the partial function gets right; its
    points outside the target do not count."""
    return len(agreements(fn, target))


class CatchReport(NamedTuple):
    """Every pi-related pair inside the set, each checked for a captured
    match in the earlier row of the induced function."""

    ok: bool
    up_cases: tuple[int, ...]
    down_cases: tuple[int, ...]
    failures: tuple[tuple[int, int, int], ...]  # (row, partner, layer)


def verify_catch(cond: Condition, perm: PointPermutation) -> CatchReport:
    """Exact check of the capture property for one chain and permutation.
    The chain matches its grid pairwise, as every Condition does, so every
    case's row lies inside the grid."""
    target = cond.grid
    up, down = case_split(perm, cond.elements)
    cases = ([(m, perm.apply(m), 0) for m in up]
             + [(perm.apply(n), n, 1) for n in down])
    failures = tuple(
        (m, n, i) for m, n, i in cases
        if not any((a, j) == (m, i)
                   for a, _, j in agreements(nth_partial_fn(n), target)))
    return CatchReport(not failures, up, down, failures)


class LazyPermutation:
    """A uniformly random permutation of [0, n), sampled only where queried.

    Both directions are kept consistent; every unqueried image is uniform
    over the unused points.  Deterministic given the seed and query order.
    A draw is randrange(n)'s own loop of n.bit_length()-bit getrandbits
    words, also redrawn while used: the same calls, so the same stream.
    """

    def __init__(self, n: int, seed: int):
        if n < 1:
            raise ValueError("universe size must be >= 1")
        self.n = n
        self._rng = random.Random(seed)
        self._fwd: dict[int, int] = {}
        self._bwd: dict[int, int] = {}

    def apply(self, x: int) -> int:
        return self._sample(x, self._fwd, self._bwd)

    def inverse_apply(self, y: int) -> int:
        return self._sample(y, self._bwd, self._fwd)

    def _sample(self, x: int, there: dict[int, int],
                back: dict[int, int]) -> int:
        """x's partner in one direction: recorded, or drawn uniformly from
        the points with no partner yet in the other direction."""
        if not 0 <= x < self.n:
            raise ValueError(f"{x} outside the universe [0, {self.n})")
        if x in there:
            return there[x]
        n, draw = self.n, self._rng.getrandbits
        k = n.bit_length()
        y = draw(k)
        while y >= n or y in back:
            y = draw(k)
        there[x], back[y] = y, x
        return y


class BuildRecord(NamedTuple):
    index: int
    run: GenericRun

    @property
    def grid(self) -> TargetGrid:
        return self.run.condition.grid

    def to_json_obj(self) -> dict[str, Any]:
        return {"index": self.index, "grid": grid_to_obj(self.grid),
                "elements": list(self.run.condition.elements),
                **run_to_obj(self.run)}


class SampleRecord(NamedTuple):
    """One sampled permutation: how much it moves low rows, how well its
    induced function matches each target, and the capture verdicts."""

    index: int
    moved: int
    matches: tuple[int, ...]  # per build
    up_checked: int
    down_checked: int
    violations: int

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "moved": self.moved,
            "matches": list(self.matches),
            "up_checked": self.up_checked,
            "down_checked": self.down_checked,
            "violations": self.violations,
        }


class SamplingSummary(NamedTuple):
    samples: int
    violations: int
    up_checked: int
    down_checked: int
    moved_min: Optional[int]
    moved_max: Optional[int]
    moved_total: int
    match_min: Optional[int]
    match_max: Optional[int]
    match_total: int

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "samples": self.samples,
            "violations": self.violations,
            "up_checked": self.up_checked,
            "down_checked": self.down_checked,
            "moved": {"min": self.moved_min, "max": self.moved_max,
                      "total": self.moved_total},
            "matches": {"min": self.match_min, "max": self.match_max,
                        "total": self.match_total},
        }


@dataclass(frozen=True)
class PipelineReport:
    config: ExperimentConfig
    builds: tuple[BuildRecord, ...]
    independence: IndependenceReport
    density: ComboDensityReport
    samples: tuple[SampleRecord, ...]
    sampling: SamplingSummary

    @property
    def degraded(self) -> bool:
        return any(b.run.degraded for b in self.builds)

    @property
    def ok(self) -> bool:
        return (not self.degraded and self.independence.ok and self.density.ok
                and self.sampling.violations == 0)

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "config": self.config.to_json_obj(),
            "builds": [b.to_json_obj() for b in self.builds],
            "degraded": self.degraded,
            "independence": independence_to_obj(self.independence),
            "density": density_to_obj(self.density),
            "per_sample": [s.to_json_obj() for s in self.samples],
            "sampling": self.sampling.to_json_obj(),
            "ok": self.ok,
        }


def run_pipeline(config: ExperimentConfig) -> PipelineReport:
    """The full experiment: build one matching set per random target grid
    (each seeing its predecessors), test joint independence and combination
    density, then sample permutations and count capture violations.

    Deterministic: the report is a pure function of the configuration.
    """
    n = config.universe
    builds: list[BuildRecord] = []
    built_sets: list[FinSet] = []
    for alpha in range(config.builds):
        grid = TargetGrid.random(
            config.rows, config.cols, config.value_bound,
            random.Random(child_seed(config.seed, GRID_TAG, alpha)))
        prior = Family(n, tuple(built_sets))
        schedule = auto_schedule(len(built_sets), config.probes)
        run = build_generic([prior], grid, schedule, config.search_bound)
        builds.append(BuildRecord(alpha, run))
        built_sets.append(run.result_set)

    joint = Family(n, tuple(built_sets))
    depth = min(config.depth, len(joint.sets))
    independence = is_independent(joint, config.threshold, depth)
    density = check_all_combos_dense([joint], config.probe_bound,
                                     config.search_bound, depth)

    records: list[SampleRecord] = []
    for s in range(config.samples):
        perm = LazyPermutation(n, child_seed(config.seed, PERM_TAG, s))
        fn = grid_fn_from_perm(perm, config.rows, config.cols)
        moved = len(moved_within(perm, config.rows))
        match_counts = []
        up_checked = down_checked = violations = 0
        for record in builds:
            match_counts.append(matches(fn, record.grid))
            catch = verify_catch(record.run.condition, perm)
            up_checked += len(catch.up_cases)
            down_checked += len(catch.down_cases)
            violations += len(catch.failures)
        records.append(SampleRecord(s, moved, tuple(match_counts),
                                    up_checked, down_checked, violations))

    all_matches = [c for r in records for c in r.matches]
    sampling = SamplingSummary(
        config.samples,
        sum(r.violations for r in records),
        sum(r.up_checked for r in records),
        sum(r.down_checked for r in records),
        min((r.moved for r in records), default=None),
        max((r.moved for r in records), default=None),
        sum(r.moved for r in records),
        min(all_matches, default=None),
        max(all_matches, default=None),
        sum(all_matches))
    return PipelineReport(config, tuple(builds), independence, density,
                          tuple(records), sampling)
