import random
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalab import diag, generic
from omegalab.codec import (EMPTY_FN, PartialFn, check_dense,
                            index_of_raw_code, nth_partial_fn, point_code)
from omegalab.errors import GridOverflow, SearchExhausted
from omegalab.finset import (CombinationSpec, Family, FinSet, bit_family,
                             boolean_combination, combination_specs)
from omegalab.generic import (IN, OUT, ComboDensityReport, Condition, Demand,
                              GenericRun, TargetGrid, agreements,
                              auto_schedule, build_generic,
                              check_all_combos_dense, extend_to_meet,
                              is_condition, merge_families)

ZERO_GRID = TargetGrid.constant(4, 4)


def family_of(n, sets):
    return Family(n, tuple(FinSet.from_members(n, s) for s in sets))


def no_sets(n=1 << 12):
    return [Family(n, ())]


def in_demand(probe=0):
    return Demand(CombinationSpec(), probe, IN)


def out_demand(probe=0):
    return Demand(CombinationSpec(), probe, OUT)


class TestTargetGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TargetGrid(0, 4, 1, ())
        with pytest.raises(ValueError):
            TargetGrid(2, 2, 1, (0,) * 7)
        with pytest.raises(ValueError):
            TargetGrid(1, 1, 1, (1, 0))

    def test_value_lookup_row_major(self):
        grid = TargetGrid(2, 2, 8, tuple(range(8)))
        assert grid.value_at(0, 0, 0) == 0
        assert grid.value_at(0, 0, 1) == 1
        assert grid.value_at(0, 1, 0) == 2
        assert grid.value_at(1, 1, 1) == 7
        with pytest.raises(GridOverflow):
            grid.value_at(2, 0, 0)
        with pytest.raises(GridOverflow):
            grid.value_at(0, 2, 0)

    def test_random_is_seed_deterministic(self):
        a = TargetGrid.random(3, 3, 4, random.Random(11))
        b = TargetGrid.random(3, 3, 4, random.Random(11))
        c = TargetGrid.random(3, 3, 4, random.Random(12))
        assert a == b and a != c

    def test_size_cap_refuses_before_drawing(self):
        rng = random.Random(0)
        with pytest.raises(ValueError, match="past the cap"):
            TargetGrid.random(100_000, 100_000, 4, rng)
        assert rng.random() == random.Random(0).random()  # nothing drawn
        cap_rows = generic.MAX_GRID_CELLS // 2
        with pytest.raises(ValueError, match="past the cap"):
            TargetGrid.constant(cap_rows + 1, 1)
        assert len(TargetGrid.constant(1000, 1000).values) == 2 * 10 ** 6

    def test_agreements(self):
        fn = nth_partial_fn(3)  # (0,0,0)->0 and (0,0,1)->0
        found = agreements(fn, ZERO_GRID)
        assert (0, 0, 0) in found
        assert (0, 0, 1) in found
        assert not any(m == 1 and i == 0 for m, _, i in found)
        ones = TargetGrid.constant(4, 4, 2, 1)
        assert not any((m, i) == (0, 0) for m, _, i in agreements(fn, ones))


class TestIsCondition:
    def test_small_sets(self):
        assert is_condition([], ZERO_GRID).ok
        assert is_condition([5], ZERO_GRID).ok  # maximal element needs no row
        assert is_condition([0, 3], ZERO_GRID).ok

    def test_failing_pair_witness(self):
        rep = is_condition([0, 1], ZERO_GRID)
        assert not rep.ok
        # the function at index 1 defines nothing on layer 1 of row 0
        assert rep.witness == (0, 1, 1)

    def test_non_maximal_element_beyond_grid(self):
        with pytest.raises(GridOverflow):
            is_condition([5, 7], ZERO_GRID)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            is_condition([-1], ZERO_GRID)

    def test_each_later_element_decoded_once(self, monkeypatch):
        # every decoded function echoes rows 0..3 with zeros, so any chain
        # below the grid's rows passes and every pair is checked
        echo = PartialFn.from_entries(
            (m, 0, i, 0) for m in range(ZERO_GRID.rows) for i in (0, 1))
        decoded = []
        monkeypatch.setattr(generic, "nth_partial_fn",
                            lambda n: decoded.append(n) or echo)
        assert is_condition([0, 1, 2, 3, 9], ZERO_GRID).ok
        assert sorted(decoded) == [1, 2, 3, 9]


def row_match_column(fn, m, i, grid):
    """The per-row scan that agreements replaced, as an oracle: the least
    column k < cols where fn(m, k, i) is defined and equals the grid."""
    for a, b, ii, v in fn.entries:
        if a == m and ii == i and b < grid.cols and v == grid.value_at(m, b, i):
            return b
    return None


def row_scan_witness(elements, grid):
    """The pair check by one row scan per earlier element and layer."""
    for pos_m, m in enumerate(elements):
        if pos_m < len(elements) - 1 and m >= grid.rows:
            raise GridOverflow(m)
        for n in elements[pos_m + 1:]:
            for i in (0, 1):
                if row_match_column(nth_partial_fn(n), m, i, grid) is None:
                    return (m, n, i)
    return None


def echo_entries(elements, grid, base):
    """The entry-based echo that generic._echo_points replaced, as an
    oracle: the least column past the base per element and layer, as an
    entry (m, k, i, value)."""
    extra, defined = [], dict(base.points)
    for m in elements:
        if m >= grid.rows:
            raise GridOverflow(m)
        for i in (0, 1):
            k = 0
            while point_code(m, k, i) in defined:
                k += 1
            if k >= grid.cols:
                raise GridOverflow(m)
            extra.append((m, k, i, grid.value_at(m, k, i)))
    return extra


SMALL_GRIDS = st.builds(
    lambda rows, cols, bound, seed: TargetGrid.random(
        rows, cols, bound, random.Random(seed)),
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
    st.integers(0, 2 ** 32))
# low indices define points in the first rows, high ones past them
SMALL_CHAINS = st.lists(st.one_of(st.integers(0, 400),
                                  st.integers(0, 10 ** 12)),
                        max_size=5, unique=True).map(sorted)


class TestAgreementsAgainstRowScan:
    @given(SMALL_GRIDS, SMALL_CHAINS)
    @settings(max_examples=300, deadline=None)
    def test_pair_check(self, grid, chain):
        try:
            expected = row_scan_witness(chain, grid)
        except GridOverflow:
            with pytest.raises(GridOverflow):
                is_condition(chain, grid)
            return
        assert is_condition(chain, grid).witness == expected

    @given(SMALL_GRIDS, st.one_of(st.integers(0, 400),
                                  st.integers(0, 10 ** 12)))
    @settings(max_examples=300, deadline=None)
    def test_match_count(self, grid, index):
        fn = nth_partial_fn(index)
        assert diag.matches(fn, grid) == sum(
            m < grid.rows and k < grid.cols and v == grid.value_at(m, k, i)
            for m, k, i, v in fn.entries)

    @given(SMALL_GRIDS, st.data())
    @settings(max_examples=300, deadline=None)
    def test_capture_check(self, grid, data):
        # a chain handed in past Condition's validation, every element but
        # the largest inside the grid's rows, as the capture check requires
        chain = sorted(data.draw(st.sets(st.integers(0, grid.rows - 1))))
        chain.append(data.draw(st.one_of(st.integers(grid.rows, 400),
                                         st.integers(grid.rows, 10 ** 12))))
        cond = object.__new__(Condition)
        object.__setattr__(cond, "elements", tuple(chain))
        object.__setattr__(cond, "grid", grid)
        images = dict(zip(chain, data.draw(st.permutations(chain))))
        perm = SimpleNamespace(apply=lambda x: images.get(x, x))
        rep = diag.verify_catch(cond, perm)
        expected = tuple(
            [(m, perm.apply(m), 0) for m in rep.up_cases
             if row_match_column(nth_partial_fn(perm.apply(m)), m, 0,
                                 grid) is None]
            + [(perm.apply(n), n, 1) for n in rep.down_cases
               if row_match_column(nth_partial_fn(n), perm.apply(n), 1,
                                   grid) is None])
        assert rep.failures == expected
        assert rep.ok == (not expected)

    @given(SMALL_GRIDS, SMALL_CHAINS, st.one_of(st.integers(0, 400),
                                                st.integers(0, 10 ** 12)))
    @settings(max_examples=300, deadline=None)
    def test_echo_points(self, grid, chain, probe_index):
        for base in (EMPTY_FN, nth_partial_fn(probe_index)):
            try:
                extra = echo_entries(chain, grid, base)
            except GridOverflow:
                with pytest.raises(GridOverflow):
                    generic._echo_points(chain, grid, base)
                continue
            got = PartialFn(tuple(sorted(
                base.points + tuple(generic._echo_points(chain, grid, base)))))
            assert got == PartialFn.from_entries(list(base.entries) + extra)


class TestCondition:
    def test_construction_checks_chain(self):
        cond = Condition((0, 3), ZERO_GRID)
        assert cond.max_element == 3
        with pytest.raises(ValueError):
            Condition((0, 1), ZERO_GRID)
        with pytest.raises(ValueError):
            Condition((3, 0), ZERO_GRID)
        with pytest.raises(GridOverflow):
            Condition((5, 7), ZERO_GRID)  # row 5 is past the grid's 4

    def test_extension_must_grow(self):
        cond = Condition.empty(ZERO_GRID)
        assert cond.max_element is None
        cond = cond.extended(0).extended(3)
        assert cond.elements == (0, 3)
        with pytest.raises(ValueError):
            cond.extended(3)


class TestExtendToMeet:
    def test_in_demand_from_empty_chain(self):
        res = extend_to_meet(Condition.empty(ZERO_GRID), in_demand(),
                             no_sets(), 1 << 12)
        assert res.condition.elements == (0,)
        assert res.witness == 0

    def test_in_demand_echoes_prior_element(self):
        cond = Condition((0,), ZERO_GRID)
        res = extend_to_meet(cond, in_demand(), no_sets(), 1 << 12)
        # the witness must agree with the grid in row 0 on both layers;
        # the least such index is 3 (value 0 at both points of row 0)
        assert res.condition.elements == (0, 3)
        assert res.witness == 3

    def test_out_demand_locks_witness_outside(self):
        cond = Condition((0,), ZERO_GRID)
        res = extend_to_meet(cond, out_demand(), no_sets(), 1 << 12)
        assert res.witness == 1          # least index not already in the chain
        assert res.condition.elements == (0, 3)   # end-extension past it
        assert 1 not in res.condition.elements

    def test_in_demand_restricted_to_set(self):
        fams = [family_of(1 << 12, [[0, 2, 5, 9]])]
        demand = Demand(CombinationSpec(pos=(0,)), 0, IN)
        res = extend_to_meet(Condition.empty(ZERO_GRID), demand, fams, 1 << 12)
        assert res.witness == 0
        res2 = extend_to_meet(res.condition, demand, fams, 1 << 12)
        # next member of the set past 0 whose function echoes row 0 is 9
        assert res2.witness == 9
        assert nth_partial_fn(9).extends(nth_partial_fn(3))

    def test_exhaustion_raises(self):
        fams = [family_of(1 << 12, [[0, 2]])]
        demand = Demand(CombinationSpec(pos=(0,)), 0, IN)
        cond = Condition((0,), ZERO_GRID)
        with pytest.raises(SearchExhausted):
            extend_to_meet(cond, demand, fams, 1 << 12)

    def test_search_bound_past_universe_rejected(self):
        # a neg-only demand's mask is co-finite, so without the check this
        # planted witness 3 in a 2-point universe
        with pytest.raises(ValueError, match="cannot exceed the universe"):
            extend_to_meet(Condition((0,), TargetGrid.constant(4, 4)),
                           Demand(CombinationSpec(neg=(0,)), 0, IN),
                           [family_of(2, [[1]])], 100)
        res = extend_to_meet(Condition.empty(ZERO_GRID),
                             Demand(CombinationSpec(neg=(0,)), 0, IN),
                             [family_of(2, [[1]])], 2)
        assert res.witness == 0


class TestBuildGeneric:
    def test_two_in_demands(self):
        run = build_generic(no_sets(), ZERO_GRID,
                            [in_demand(), in_demand()], 1 << 12)
        assert not run.degraded
        assert run.condition.elements == (0, 3)
        assert [s.witness for s in run.steps] == [0, 3]
        assert run.result_set.to_list() == [0, 3]
        assert run.decided_below == 4

    def test_third_in_demand_exhausts_small_bound(self):
        # echoing row 3 forces entry slots 78 and 91; no index below 2**20
        # reaches them, so the third step must stop the fold
        run = build_generic(no_sets(1 << 20), ZERO_GRID,
                            [in_demand()] * 3, 1 << 20)
        assert run.degraded
        assert run.failure_kind == "search-exhausted"
        assert run.failed_at == 2
        assert run.condition.elements == (0, 3)
        assert run.schedule_length == 3

    def test_deep_bound_reaches_third_element(self):
        bound = 2 * 10 ** 11
        run = build_generic([Family(bound, ())], ZERO_GRID,
                            [in_demand()] * 3, bound)
        assert not run.degraded
        first, second, third = run.condition.elements
        assert (first, second) == (0, 3)
        # the witness is exactly the echo of rows 0 and 3: entry slots
        # {0, 1, 78, 91}, i.e. raw code 2**91 + 2**78 + 3
        assert third == index_of_raw_code((1 << 91) + (1 << 78) + 3)
        assert third > 10 ** 10
        assert is_condition(run.condition.elements, ZERO_GRID).ok

    def test_grid_overflow_degrades(self):
        grid = TargetGrid.constant(2, 2)
        run = build_generic(no_sets(), grid, [in_demand()] * 3, 1 << 12)
        assert run.degraded
        assert run.failure_kind == "grid-overflow"
        assert run.failed_at == 2
        assert run.condition.elements == (0, 3)

    def test_out_witness_never_joins_later(self):
        run = build_generic(no_sets(), ZERO_GRID,
                            [out_demand(), out_demand()], 1 << 12)
        assert not run.degraded
        outs = [s.witness for s in run.steps]
        assert outs and all(w == 0 for w in outs)  # 0 is never swallowed
        for w in outs:
            assert w not in run.condition.elements
            assert w < run.decided_below  # decided, and decided out

    def test_search_bound_past_universe_rejected(self):
        with pytest.raises(ValueError, match="cannot exceed the universe"):
            build_generic(no_sets(4096), ZERO_GRID, [in_demand()], 4097)
        assert build_generic(no_sets(4096), ZERO_GRID, [in_demand()],
                             4096).condition.elements == (0,)

    def test_empty_schedule(self):
        run = build_generic(no_sets(), ZERO_GRID, [], 1 << 12)
        assert not run.degraded and run.condition.elements == ()
        assert run.decided_below == 0

    @pytest.mark.parametrize("bound", [0, -5])
    def test_search_bound_below_one_rejected_for_any_schedule(self, bound):
        for schedule in ((), [in_demand()]):
            with pytest.raises(ValueError, match="search bound must be >= 1"):
                build_generic(no_sets(), ZERO_GRID, schedule, bound)

    def test_fold_builds_no_function_from_entries(self, monkeypatch):
        # echoes join the probe as stored (point code, value) pairs
        calls = []
        from_entries = PartialFn.from_entries
        monkeypatch.setattr(PartialFn, "from_entries",
                            lambda entries: calls.append(entries)
                            or from_entries(entries))
        bound = 2 * 10 ** 11
        run = build_generic([Family(bound, ())], ZERO_GRID,
                            [in_demand(), out_demand(1), in_demand()], bound)
        assert not run.degraded and len(run.condition.elements) == 3
        assert calls == []


class TestDemandMask:
    # a demand's set is searched as one mask; a neg-only one is co-finite

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_neg_only_equals_pos_over_the_complement(self, data):
        n = data.draw(st.integers(1, 1 << 12))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        full = (1 << n) - 1
        masks = [data.draw(st.sampled_from((
            0, full, rng.getrandbits(n),
            full ^ FinSet.from_members(n, rng.sample(range(n), min(n, 5))).mask,
            FinSet.from_members(n, rng.sample(range(n), min(n, 5))).mask)))
            for _ in range(data.draw(st.integers(1, 3)))]
        neg = tuple(data.draw(st.lists(st.integers(0, len(masks) - 1),
                                       min_size=1, unique=True)))
        grid = TargetGrid.random(rng.randint(1, 6), rng.randint(1, 4),
                                 rng.randint(1, 2), rng)
        shape = data.draw(st.lists(st.tuples(st.integers(0, 8), st.booleans()),
                                   min_size=1, max_size=5))
        bound = data.draw(st.integers(1, n))
        runs = []
        for sets, spec in ((masks, CombinationSpec(neg=neg)),
                           ([full ^ m for m in masks], CombinationSpec(pos=neg))):
            family = Family(n, tuple(FinSet(n, m) for m in sets))
            schedule = [Demand(spec, p, IN if inside else OUT)
                        for p, inside in shape]
            run = build_generic([family], grid, schedule, bound)
            runs.append((run.condition.elements,
                         [s.witness for s in run.steps], run.failure_kind))
        assert runs[0] == runs[1]

    def test_neg_only_memory_follows_the_sets(self):
        # no Python set of the neg set's 2^19 members: the search reads the
        # co-finite mask's bytes, about 128 kB
        n = 1 << 20
        family = bit_family(1, n)
        schedule = [Demand(CombinationSpec(neg=(0,)), p, IN) for p in range(4)]
        tracemalloc.start()
        try:
            run = build_generic([family], ZERO_GRID, schedule, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        complement = Family(n, (FinSet(n, ((1 << n) - 1) ^ family.sets[0].mask),))
        pos_run = build_generic(
            [complement], ZERO_GRID,
            [Demand(CombinationSpec(pos=(0,)), p, IN) for p in range(4)], n)
        assert (run.condition.elements, run.failure_kind) == \
            (pos_run.condition.elements, pos_run.failure_kind) == \
            ((0,), "search-exhausted")


class TestMergeFamilies:
    def test_concatenates_in_order(self):
        a = family_of(8, [[0], [1, 2]])
        b = family_of(8, [[3]])
        merged = merge_families([a, b])
        assert merged.n == 8
        assert [s.to_list() for s in merged.sets] == [[0], [1, 2], [3]]

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            merge_families([Family(8, ()), Family(4, ())])
        with pytest.raises(ValueError):
            merge_families([])


class TestAutoSchedule:
    def test_shape_one_set_two_probes(self):
        sched = auto_schedule(1, 2)
        specs = [CombinationSpec(), CombinationSpec(neg=(0,)),
                 CombinationSpec(pos=(0,))]
        expected = tuple(Demand(spec, probe, pol)
                         for probe in (0, 1)
                         for spec in specs
                         for pol in (IN, OUT))
        assert sched == expected

    def test_zero_probes(self):
        assert auto_schedule(2, 0) == ()


class TestCheckAllCombosDense:
    def test_detects_sparse_combination(self):
        fams = [family_of(64, [[0]])]
        rep = check_all_combos_dense(fams, probe_bound=2, search_bound=64,
                                     depth=1)
        assert not rep.ok
        assert rep.failing_spec == CombinationSpec(pos=(0,))
        assert rep.failing_probe == 1

    def test_passes_on_generous_split(self):
        # split a decent initial segment by parity of index
        evens = [m for m in range(0, 512, 2)]
        fams = [family_of(512, [evens])]
        rep = check_all_combos_dense(fams, probe_bound=4, search_bound=512,
                                     depth=1)
        assert isinstance(rep, ComboDensityReport)
        assert rep.ok == (rep.failing_spec is None)

    def test_complement_shape_at_two_to_the_twenty(self):
        # the README's verify-star scale: the complement of bit 0 is the
        # first combination to miss a probe, probe 3
        n = 1 << 20
        rep = check_all_combos_dense([bit_family(4, n)], 16, n, 4)
        assert rep == ComboDensityReport(False, CombinationSpec(neg=(0,)), 3,
                                         16, n)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_spec_by_spec_loop(self, data):
        n = data.draw(st.integers(1, 70))
        full = (1 << n) - 1
        masks = st.one_of(st.just(0), st.just(full), st.integers(0, full))
        fam = Family(n, tuple(FinSet(n, data.draw(masks))
                              for _ in range(data.draw(st.integers(0, 4)))))
        depth = data.draw(st.integers(0, len(fam.sets) + 1))
        probe_bound = data.draw(st.integers(1, 6))
        search_bound = data.draw(st.integers(1, n))
        expected = ComboDensityReport(True, None, None, probe_bound,
                                      search_bound)
        for spec in combination_specs(len(fam.sets), depth):
            rep = check_dense(boolean_combination(fam, spec).mask,
                              probe_bound, search_bound)
            if not rep.ok:
                expected = ComboDensityReport(False, spec, rep.missing_probe,
                                              probe_bound, search_bound)
                break
        assert check_all_combos_dense([fam], probe_bound, search_bound,
                                      depth) == expected

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_bound_past_the_universe_reads_as_the_universe(self, data):
        # the scan's masks hold no universe (co-finite for neg-only specs),
        # so a bound past n must still search below n alone
        n = data.draw(st.integers(1, 70))
        full = (1 << n) - 1
        masks = st.one_of(st.just(0), st.just(full), st.integers(0, full))
        fam = Family(n, tuple(FinSet(n, data.draw(masks))
                              for _ in range(data.draw(st.integers(0, 4)))))
        depth = data.draw(st.integers(0, len(fam.sets)))
        probe_bound = data.draw(st.integers(1, 6))
        past = data.draw(st.integers(n + 1, 4 * n))
        at_n, beyond = (check_all_combos_dense([fam], probe_bound, bound,
                                               depth) for bound in (n, past))
        assert (beyond.ok, beyond.failing_spec, beyond.failing_probe) == (
            at_n.ok, at_n.failing_spec, at_n.failing_probe)
        assert beyond.search_bound == past

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            check_all_combos_dense([Family(8, ())], 1, 8, -1)


@st.composite
def small_schedules(draw):
    n_specs = draw(st.integers(0, 1))  # over at most one prior set
    demands = draw(st.lists(
        st.tuples(st.booleans(), st.integers(0, 3), st.booleans()),
        max_size=5))
    out = []
    for use_set, probe, polarity_in in demands:
        spec = CombinationSpec(neg=(0,)) if (use_set and n_specs) else CombinationSpec()
        out.append(Demand(spec, probe, IN if polarity_in else OUT))
    fams = [family_of(1 << 12, [[0, 1]] if n_specs else [])]
    return fams, out


class TestScheduleProperties:
    @given(small_schedules())
    @settings(max_examples=60, deadline=None)
    def test_fold_invariants(self, fams_and_schedule):
        fams, schedule = fams_and_schedule
        run = build_generic(fams, ZERO_GRID, schedule, 1 << 12)
        elems = run.condition.elements
        assert list(elems) == sorted(set(elems))
        assert is_condition(elems, ZERO_GRID).ok
        if run.degraded:
            assert run.failed_at is not None
            assert len(run.steps) == run.failed_at
        else:
            assert len(run.steps) == len(schedule)
        # each met demand added one element, the chain's new maximum
        assert len(elems) == len(run.steps)
        for step in run.steps:
            if step.demand.polarity == IN:
                assert step.witness in run.condition.elements
            else:
                assert step.witness not in run.condition.elements
                assert step.witness < run.decided_below
