"""Chain construction over the canonical enumeration.

A *chain* (here: Condition) is a finite increasing set of enumeration indices
in which every earlier element is "echoed" by every later one: for the pair
m < n, the n-th partial function must agree with the target grid somewhere in
row m, on both layers i = 0 and i = 1.  Scheduled demands extend a chain step
by step; each demand either plants a witness inside a designated index set
(polarity "in") or records a witness that is permanently outside the chain
(polarity "out").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from .codec import (EMPTY_FN, PartialFn, check_dense, least_extension_index,
                    nth_partial_fn, point_code)
from .errors import GridOverflow, SearchExhausted
from .finset import (CombinationSpec, Family, FinSet, combination_mask,
                     combination_masks, combination_specs)

IN = "in"
OUT = "out"

# A target grid holds rows * cols * 2 values; past this many (a 32 MiB
# tuple) TargetGrid.random and .constant refuse before allocating.
MAX_GRID_CELLS = 1 << 22


def check_grid_size(rows: int, cols: int) -> None:
    """Refuse a grid past MAX_GRID_CELLS values, before it is allocated."""
    if rows * cols * 2 > MAX_GRID_CELLS:
        raise ValueError(f"grid of {rows}x{cols}x2 values is past the cap "
                         f"of {MAX_GRID_CELLS}")


@dataclass(frozen=True)
class TargetGrid:
    """A total value table on {0..rows-1} x {0..cols-1} x {0,1}."""

    rows: int
    cols: int
    value_bound: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1 or self.value_bound < 1:
            raise ValueError("grid dimensions and value bound must be >= 1")
        if len(self.values) != self.rows * self.cols * 2:
            raise ValueError("value table must cover the full grid")
        if any(not 0 <= v < self.value_bound for v in self.values):
            raise ValueError("grid values must lie in [0, value_bound)")

    def value_at(self, m: int, k: int, i: int) -> int:
        if not (0 <= m < self.rows and 0 <= k < self.cols and i in (0, 1)):
            raise GridOverflow(f"grid point {(m, k, i)} outside "
                               f"{self.rows}x{self.cols}x2")
        return self.values[(m * self.cols + k) * 2 + i]

    @classmethod
    def constant(cls, rows: int, cols: int, value_bound: int = 1,
                 fill: int = 0) -> "TargetGrid":
        check_grid_size(rows, cols)
        return cls(rows, cols, value_bound, (fill,) * (rows * cols * 2))

    @classmethod
    def random(cls, rows: int, cols: int, value_bound: int,
               rng: random.Random) -> "TargetGrid":
        check_grid_size(rows, cols)
        # row-major (m, k, i) draw order; pinned for reproducibility
        vals = tuple(rng.randrange(value_bound)
                     for _ in range(rows * cols * 2))
        return cls(rows, cols, value_bound, vals)


def agreements(fn: PartialFn, grid: TargetGrid) -> list[tuple[int, int, int]]:
    """(m, k, i) of each point where fn is defined inside the grid and equals
    it, in point-code order, which for one (m, i) is column order."""
    rows, cols, values = grid.rows, grid.cols, grid.values
    return [(m, k, i) for m, k, i, v in fn.entries
            if m < rows and k < cols and v == values[(m * cols + k) * 2 + i]]


def _pairwise_witness(elements: Sequence[int], grid: TargetGrid
                      ) -> Optional[tuple[int, int, int]]:
    """Least (m, n, i) violating the pair-matching property, else None.

    Only the rows of non-maximal elements are consulted, so the largest
    element may lie beyond the grid; a non-maximal element at or past
    grid.rows raises GridOverflow.  Each later element is decoded once.
    """
    later = [{(m, i) for m, _, i in agreements(nth_partial_fn(n), grid)}
             for n in elements[1:]]
    for pos_m, m in enumerate(elements):
        if pos_m < len(elements) - 1 and m >= grid.rows:
            raise GridOverflow(
                f"element {m} is paired below a later element but the grid "
                f"has only {grid.rows} rows")
        for n, matched in zip(elements[pos_m + 1:], later[pos_m:]):
            for i in (0, 1):
                if (m, i) not in matched:
                    return (m, n, i)
    return None


class ConditionReport(NamedTuple):
    ok: bool
    witness: Optional[tuple[int, int, int]]


def is_condition(elements: Iterable[int], grid: TargetGrid) -> ConditionReport:
    """Check the chain property for an increasing set of indices."""
    elems = tuple(sorted(set(elements)))
    if any(e < 0 for e in elems):
        raise ValueError("chain elements must be >= 0")
    w = _pairwise_witness(elems, grid)
    return ConditionReport(w is None, w)


@dataclass(frozen=True)
class Condition:
    """A validated chain; extension only appends past the maximum."""

    elements: tuple[int, ...]
    grid: TargetGrid

    def __post_init__(self):
        elems = self.elements
        if list(elems) != sorted(set(elems)):
            raise ValueError("elements must be strictly increasing")
        rep = is_condition(elems, self.grid)
        if not rep.ok:
            raise ValueError(f"not a chain: pair {rep.witness} has no match")

    @classmethod
    def empty(cls, grid: TargetGrid) -> "Condition":
        return cls((), grid)

    @property
    def max_element(self) -> Optional[int]:
        return self.elements[-1] if self.elements else None

    def extended(self, n: int) -> "Condition":
        if self.elements and n <= self.elements[-1]:
            raise ValueError("extension must exceed the current maximum")
        return Condition(self.elements + (n,), self.grid)


@dataclass(frozen=True)
class Demand:
    """One density demand: a combination over prior families, a probe index,
    and a polarity (plant a witness inside, or record one outside)."""

    spec: CombinationSpec
    probe_index: int
    polarity: str

    def __post_init__(self):
        if self.polarity not in (IN, OUT):
            raise ValueError(f"polarity must be '{IN}' or '{OUT}'")
        if self.probe_index < 0:
            raise ValueError("probe index must be >= 0")


class MeetResult(NamedTuple):
    condition: Condition
    witness: int


def merge_families(families: Sequence[Family]) -> Family:
    if not families:
        raise ValueError("at least one family is required (it may have no sets)")
    n = families[0].n
    sets: list = []
    for fam in families:
        if fam.n != n:
            raise ValueError("families live in different universes")
        sets.extend(fam.sets)
    return Family(n, tuple(sets))


def _merge_for_search(families: Sequence[Family], search_bound: int) -> Family:
    """merge_families, refusing a search bound past the merged universe or
    below 1."""
    merged = merge_families(families)
    if search_bound > merged.n:
        raise ValueError("search bound cannot exceed the universe size")
    if search_bound < 1:
        raise ValueError("search bound must be >= 1")
    return merged


def _echo_points(elements: Sequence[int], grid: TargetGrid,
                 base: PartialFn) -> list[tuple[int, int]]:
    """For each chain element m and layer i, the least column k free in the
    base, as the point (point_code(m, k, i), grid value): a code new to the
    base and to every other echo, so no pair needs checking again."""
    taken = {c for c, _ in base.points}
    extra = []
    for m in elements:
        if m >= grid.rows:
            raise GridOverflow(
                f"chain element {m} needs grid row {m} but only "
                f"{grid.rows} rows exist")
        for i in (0, 1):
            k = 0
            while point_code(m, k, i) in taken:
                k += 1
            if k >= grid.cols:
                raise GridOverflow(
                    f"no free column below {grid.cols} for row {m}, layer {i}")
            extra.append((point_code(m, k, i), grid.value_at(m, k, i)))
    return extra


def extend_to_meet(cond: Condition, demand: Demand, families: Sequence[Family],
                   search_bound: int) -> MeetResult:
    """Extend the chain to meet one demand; raises SearchExhausted when no
    witness exists below the bound.

    Polarity "in": augment the probe with one fresh echo entry per chain
    element and layer, then plant the least matching index from the demand's
    set past the current maximum.  Polarity "out": record the least index of
    the demand's set, outside the chain, whose function extends the probe,
    then end-extend the chain past it (so the witness stays decided-out).
    The demand's set is searched as its finset.combination_mask, which is
    co-finite when no set enters positively: no universe is built.  A search
    bound past the families' universe is a ValueError, as in build_generic.
    """
    merged = _merge_for_search(families, search_bound)
    grid = cond.grid
    probe = nth_partial_fn(demand.probe_index)
    within = combination_mask(merged, demand.spec)
    above = cond.max_element if cond.elements else -1

    if demand.polarity == IN:
        augmented = PartialFn(tuple(sorted(
            probe.points + tuple(_echo_points(cond.elements, grid, probe)))))
        n = least_extension_index(augmented, above, search_bound,
                                  within=within)
        if n is None:
            raise SearchExhausted(
                f"no in-witness below {search_bound} for probe "
                f"{demand.probe_index} over spec {demand.spec}")
        return MeetResult(cond.extended(n), n)

    witness = least_extension_index(probe, -1, search_bound, within=within,
                                    without=cond.elements)
    if witness is None:
        raise SearchExhausted(
            f"no out-witness below {search_bound} for probe "
            f"{demand.probe_index} over spec {demand.spec}")
    pad_probe = PartialFn(tuple(sorted(
        _echo_points(cond.elements, grid, EMPTY_FN))))
    above2 = max(above, witness)
    pad = least_extension_index(pad_probe, above2, search_bound)
    if pad is None:
        raise SearchExhausted(
            f"no end-extension past {above2} below {search_bound} to lock "
            f"the out-witness {witness}")
    return MeetResult(cond.extended(pad), witness)


class StepRecord(NamedTuple):
    """One met demand; it added one element, the chain's new maximum."""

    demand: Demand
    witness: int


class GenericRun(NamedTuple):
    """Outcome of folding a demand schedule from the empty chain."""

    universe: int
    search_bound: int
    condition: Condition
    steps: tuple[StepRecord, ...]
    schedule_length: int
    failure_kind: Optional[str]
    failure_detail: Optional[str]

    @property
    def degraded(self) -> bool:
        return self.failure_kind is not None

    @property
    def failed_at(self) -> Optional[int]:
        """The demand the fold stopped at, after meeting every earlier one."""
        return len(self.steps) if self.degraded else None

    @property
    def result_set(self) -> FinSet:
        return FinSet.from_members(self.universe, self.condition.elements)

    @property
    def decided_below(self) -> int:
        """Membership below this bound is settled: absent means excluded."""
        m = self.condition.max_element
        return 0 if m is None else m + 1


def build_generic(families: Sequence[Family], grid: TargetGrid,
                  schedule: Sequence[Demand], search_bound: int) -> GenericRun:
    """Fold extend_to_meet over the schedule, starting from the empty chain.

    A SearchExhausted or GridOverflow stops the fold and yields a degraded
    run carrying everything met so far; other errors propagate.  A search
    bound past the families' universe is a ValueError: the chain would name
    points outside it.
    """
    merged = _merge_for_search(families, search_bound)
    cond = Condition.empty(grid)
    steps: list[StepRecord] = []
    kind = detail = None
    for demand in schedule:
        try:
            res = extend_to_meet(cond, demand, families, search_bound)
        except (SearchExhausted, GridOverflow) as e:
            kind, detail = e.kind, str(e)
            break
        cond = res.condition
        steps.append(StepRecord(demand, res.witness))
    return GenericRun(merged.n, search_bound, cond, tuple(steps),
                      len(schedule), kind, detail)


def auto_schedule(prior_set_count: int, probes: int) -> tuple[Demand, ...]:
    """The round-robin schedule: for each probe index, every combination spec
    over the prior sets (lexicographic order), polarity in then out."""
    if probes < 0:
        raise ValueError("probe count must be >= 0")
    specs = list(combination_specs(prior_set_count, prior_set_count))
    out: list[Demand] = []
    for probe in range(probes):
        for spec in specs:
            out.append(Demand(spec, probe, IN))
            out.append(Demand(spec, probe, OUT))
    return tuple(out)


class ComboDensityReport(NamedTuple):
    ok: bool
    failing_spec: Optional[CombinationSpec]
    failing_probe: Optional[int]
    probe_bound: int
    search_bound: int


def check_all_combos_dense(families: Sequence[Family], probe_bound: int,
                           search_bound: int, depth: int) -> ComboDensityReport:
    """Is every combination of the families dense in the enumeration, in the
    check_dense sense?  Reports the least failing (spec, probe), walking the
    combinations by finset.combination_masks.  Their masks hold no universe,
    so each search stops below min(search_bound, n), where the sets end."""
    merged = merge_families(families)
    for mask, pos, neg in combination_masks(merged, depth):
        rep = check_dense(mask, probe_bound, min(search_bound, merged.n))
        if not rep.ok:
            return ComboDensityReport(False, CombinationSpec(pos, neg),
                                      rep.missing_probe, probe_bound,
                                      search_bound)
    return ComboDensityReport(True, None, None, probe_bound, search_bound)
