import dataclasses
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalab import diag, generic
from omegalab.codec import (PartialFn, cantor_pair, count_functional_below,
                            nth_partial_fn, point_code)
from omegalab.config import ExperimentConfig, child_seed
from omegalab.diag import (LazyPermutation, SampleRecord, case_split,
                           grid_fn_from_perm, matches, moved_within,
                           run_pipeline, verify_catch)
from omegalab.errors import GridOverflow
from omegalab.finset import bit_family
from omegalab.generic import Condition, TargetGrid

ZERO_GRID = TargetGrid.constant(4, 4)


def least_row_slot(m, layer):
    # the slot of entry (m, 0, layer, 0), the least of row m on the layer
    return cantor_pair(point_code(m, 0, layer), 0)


class Table:
    """The permutation of [0, n) with the given images, as two tables."""

    def __init__(self, images):
        self.n = len(images)
        self.apply = tuple(images).__getitem__
        inverse = [0] * self.n
        for x, y in enumerate(images):
            inverse[y] = x
        self.inverse_apply = inverse.__getitem__


def swap03(n=16):
    images = list(range(n))
    images[0], images[3] = 3, 0
    return Table(images)


SMOKE = ExperimentConfig(builds=2, universe=4096, rows=8, cols=8,
                         value_bound=1, threshold=2, depth=2, probes=2,
                         probe_bound=2, search_bound=4096, samples=5, seed=7)


class TestGridFnFromPerm:
    def test_swap_reads_both_layers(self):
        fn = grid_fn_from_perm(swap03(), 4, 4)
        # row 0 layer 0 comes from the function at index 3; row 0 layer 1
        # from the preimage of 0, also index 3; rows 1..3 contribute nothing
        assert fn.entries == ((0, 0, 0, 0), (0, 0, 1, 0))

    def test_identity_low_rows(self):
        fn = grid_fn_from_perm(Table(range(16)), 4, 4)
        # index m's own function: 1 -> {(0,0,0): 0}, 2 -> {(0,0,1): 0}, but
        # those live in row 0, read only when m = 0 (whose function is empty)
        assert fn.entries == ()

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            grid_fn_from_perm(swap03(), 0, 4)

    @given(st.integers(0, 2 ** 31), st.booleans(), st.integers(1, 16),
           st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
           st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_entries_equal_brute_force_read(self, seed, lazy, rows, cols,
                                            t_rows, t_cols, value_bound):
        # every in-grid point of layer 0 (layer 1) of row m is read from the
        # function indexed by perm(m) (the preimage of m), and nothing else;
        # at n = 2^20 the indices read on row 2 lie past its cutoffs (5 040
        # and 40 320), at n <= 4096 below them
        rng = random.Random(seed)
        n = rng.choice((8, 64, 4096, 1 << 20))
        rows = min(rows, n)
        if lazy or n > 4096:
            perm = LazyPermutation(n, seed)
        else:
            images = list(range(n))
            rng.shuffle(images)
            perm = Table(images)
        fn = grid_fn_from_perm(perm, rows, cols)
        assert isinstance(fn, PartialFn)
        # a lazy permutation is sampled by now
        assert grid_points(fn) == brute_force_read(perm, rows, cols)
        target = TargetGrid.random(t_rows, t_cols, value_bound, rng)
        values = dict(fn.points)
        count = sum(1 for m in range(t_rows) for k in range(t_cols)
                    for i in (0, 1) if values.get(point_code(m, k, i))
                    == target.value_at(m, k, i))
        assert matches(fn, target) == count

    @pytest.mark.parametrize("m, layer", [(m, i) for m in range(3)
                                          for i in (0, 1)])
    def test_cutoff_is_exact_at_its_boundary(self, m, layer):
        # the first index whose code reaches the row's least slot holds
        # exactly that slot's entry; the index before it misses the row
        t = count_functional_below(least_row_slot(m, layer))
        assert not any(a == m and i == layer
                       for a, _, i, _ in nth_partial_fn(t - 1).entries)
        assert (m, 0, layer, 0) in nth_partial_fn(t).entries
        for j in (t - 1, t):
            perm = Transposition(1 << 20, m, j)
            fn = grid_fn_from_perm(perm, 16, 16)
            assert grid_points(fn) == brute_force_read(perm, 16, 16)
            value = dict(fn.points).get(point_code(m, 0, layer))
            assert (value == 0) == (j == t)

    def test_decodes_only_rows_below_the_wall(self, monkeypatch):
        # rows 3.. need an index past about 6.2e9, so at n = 2^20 only rows
        # 0..2 of each layer are decoded; every row is still queried, so the
        # permutation's later draws are those of the full pinned order.
        # Each index past its row's cutoff is one call of the public
        # nth_partial_fn, so a trace of that name sees every decode
        decoded = []

        def counted(j):
            decoded.append(j)
            return nth_partial_fn(j)
        monkeypatch.setattr(diag, "nth_partial_fn", counted)
        for seed in range(5):
            decoded.clear()
            perm = LazyPermutation(1 << 20, seed)
            grid_fn_from_perm(perm, 16, 16)
            assert len(decoded) <= 6
            queried = LazyPermutation(1 << 20, seed)
            images = [queried.apply(m) for m in range(16)]
            preimages = [queried.inverse_apply(m) for m in range(16)]
            assert decoded == [
                j for layer, read in enumerate((images, preimages))
                for m, j in enumerate(read)
                if j >= count_functional_below(least_row_slot(m, layer))]
            assert [perm.apply(x) for x in range(40)] == \
                [queried.apply(x) for x in range(40)]

    @pytest.mark.parametrize("n", [3, 7, 64, 1 << 12, 1 << 20, 10 ** 12])
    def test_equals_the_entry_filter(self, n):
        # columns 1 and 2 cut rows that hold more; 16 and 64 are past every
        # column a decode reaches at these sizes
        rows = min(16, n)
        for seed in range(40):
            for cols in (1, 2, 16, 64):
                fn = grid_fn_from_perm(LazyPermutation(n, seed), rows, cols)
                expected = entry_filter_grid_fn(LazyPermutation(n, seed),
                                                rows, cols)
                assert fn == expected
                assert fn.entries == expected.entries

    @pytest.mark.parametrize("layer", [0, 1])
    def test_cutoff_closed_form(self, layer):
        for m in range(40):
            assert math.factorial(m * (m + 1) + layer + 1) == \
                count_functional_below(least_row_slot(m, layer))


def entry_filter_grid_fn(perm, rows, cols):
    """grid_fn_from_perm as it was before it read points: each decode's
    entries filtered by row, layer and column, each cutoff counted from its
    slot, and the result validated by from_entries."""
    entries = []
    for layer, index_of in ((0, perm.apply), (1, perm.inverse_apply)):
        cutoff = 0
        for m in range(rows):
            j = index_of(m)
            if cutoff < perm.n:
                cutoff = count_functional_below(least_row_slot(m, layer))
            if j >= cutoff:
                entries.extend((m, b, layer, v)
                               for a, b, i, v in nth_partial_fn(j).entries
                               if a == m and i == layer and b < cols)
    return PartialFn.from_entries(entries)


class Transposition:
    """The permutation of [0, n) swapping x and y, without a table."""

    def __init__(self, n, x, y):
        self.n, self.x, self.y = n, x, y

    def apply(self, v):
        return self.y if v == self.x else self.x if v == self.y else v

    inverse_apply = apply


def grid_points(fn):
    return {(m, k, i): v for m, k, i, v in fn.entries}


def brute_force_read(perm, rows, cols):
    expected = {}
    for m in range(rows):
        for i, source in ((0, perm.apply(m)), (1, perm.inverse_apply(m))):
            values = dict(nth_partial_fn(source).points)
            for k in range(cols):
                v = values.get(point_code(m, k, i))
                if v is not None:
                    expected[(m, k, i)] = v
    return expected


class TestCaseSplit:
    def test_swap_pair_inside(self):
        assert case_split(swap03(), [0, 3]) == ((0,), (3,))

    def test_partner_outside_ignored(self):
        assert case_split(swap03(), [0]) == ((), ())
        assert case_split(swap03(), [3, 5]) == ((), ())  # 0 is outside
        assert case_split(swap03(), [0, 3, 5]) == ((0,), (3,))

    def test_identity_has_no_cases(self):
        identity = Table(range(16))
        assert case_split(identity, range(16)) == ((), ())


class TestMovedWithin:
    def test_counts_low_non_fixed_points(self):
        assert moved_within(swap03(), 4) == (0, 3)
        assert moved_within(swap03(), 3) == (0,)
        assert moved_within(Table(range(8)), 8) == ()


class TestMatches:
    def test_exact_counts(self):
        fn = grid_fn_from_perm(swap03(), 4, 4)
        assert matches(fn, ZERO_GRID) == 2
        ones = TargetGrid.constant(4, 4, 2, 1)
        assert matches(fn, ones) == 0


class TestVerifyCatch:
    # the precondition, a set matching its grid pairwise, is the argument's
    # type: Condition refuses any other set (see test_generic.TestCondition)
    def test_swap_pair_is_caught(self):
        rep = verify_catch(Condition((0, 3), ZERO_GRID), swap03())
        assert rep.ok
        assert rep.up_cases == (0,) and rep.down_cases == (3,)
        assert rep.failures == ()

    def test_precondition_pairwise_match(self):
        with pytest.raises(ValueError):
            verify_catch(Condition((0, 1), ZERO_GRID), swap03())

    def test_precondition_wraps_grid_overflow(self):
        # a member past the grid's rows stops the chain before the check runs
        with pytest.raises(GridOverflow):
            verify_catch(Condition((5, 7), ZERO_GRID), swap03(16))

    def test_vacuous_when_nothing_moves_inside(self):
        rep = verify_catch(Condition((0, 3), ZERO_GRID),
                           Table(range(16)))
        assert rep.ok and rep.up_cases == () and rep.down_cases == ()

    def test_cases_are_the_pairs_the_permutation_relates(self):
        # chains that build_generic builds on small grids, against every
        # permutation of their 5-7 points: each chain element sent to
        # another chain element is one case, and every case is caught
        rng = random.Random(13)
        chains = set()
        for n in (5, 6, 7):
            for _ in range(12):
                grid = TargetGrid.random(rng.randint(1, 3), rng.randint(1, 3),
                                         rng.randint(1, 2), rng)
                schedule = generic.auto_schedule(1, rng.randint(1, 3))
                run = generic.build_generic([bit_family(1, n)], grid,
                                            schedule, n)
                chains.add((n, run.condition))
        assert {c.elements for _, c in chains} >= {(0, 3), (0, 5)}
        cases = 0
        for n in (5, 6, 7):
            perms = [Table(p) for p in itertools.permutations(range(n))]
            for cond in [c for size, c in chains if size == n]:
                for perm in perms:
                    rep = verify_catch(cond, perm)
                    related = sum(perm.apply(x) != x
                                  and perm.apply(x) in cond.elements
                                  for x in cond.elements)
                    assert rep.ok
                    assert len(rep.up_cases) + len(rep.down_cases) == related
                    cases += related
        assert cases > 0

    def test_a_chain_that_is_no_condition_is_caught(self):
        # (0, 1) fails is_condition: function 1 has no layer-1 entry in row
        # 0.  Handed in past Condition's validation, some permutation of 4
        # points relates the pair, and the check catches that row
        assert not generic.is_condition((0, 1), ZERO_GRID).ok
        cond = object.__new__(Condition)
        object.__setattr__(cond, "elements", (0, 1))
        object.__setattr__(cond, "grid", ZERO_GRID)
        failures = {f for p in itertools.permutations(range(4))
                    for f in verify_catch(cond, Table(p)).failures}
        assert failures == {(0, 1, 1)}


class TestLazyPermutation:
    def test_deterministic_given_query_order(self):
        a = LazyPermutation(64, 5)
        b = LazyPermutation(64, 5)
        assert [a.apply(x) for x in range(20)] == \
            [b.apply(x) for x in range(20)]

    def test_query_order_matters_but_stays_consistent(self):
        p = LazyPermutation(64, 5)
        ys = [p.inverse_apply(y) for y in range(10)]
        for y, x in enumerate(ys):
            assert p.apply(x) == y

    def test_full_query_is_bijection(self):
        p = LazyPermutation(40, 9)
        images = [p.apply(x) for x in range(40)]
        assert sorted(images) == list(range(40))

    def test_inverse_consistency(self):
        p = LazyPermutation(64, 1)
        for x in range(30):
            assert p.inverse_apply(p.apply(x)) == x

    def test_bounds_checked(self):
        p = LazyPermutation(8, 0)
        with pytest.raises(ValueError):
            p.apply(8)
        with pytest.raises(ValueError):
            p.inverse_apply(-1)

    def test_interleaved_draws_are_pinned(self):
        # reports depend on the exact randrange draws of both directions,
        # in query order; these values pin them
        p = LazyPermutation(64, 5)
        got = [v for x in range(8)
               for v in (p.apply(x), p.inverse_apply(x + 20))]
        assert got == [32, 45, 3, 59, 31, 6, 14, 47,
                       60, 31, 48, 13, 22, 27, 52, 35]

    # LazyPermutation(1 << 20, s): images of 0..39, then preimages of 0..39
    STREAM = {
        0: ([807917, 882002, 84901, 542987, 1019064, 849208, 636092, 999496,
             750883, 458107, 292078, 591056, 293068, 198874, 525349, 308200,
             650426, 207121, 154649, 692473, 990155, 211185, 741954, 910524,
             663112, 428820, 1000362, 928395, 546291, 130609, 29447, 195605,
             836393, 2396, 1035107, 698635, 511518, 682002, 132087, 400696],
             [464946, 500413, 298832, 939460, 191293, 168707, 671203, 1026108,
             228710, 632179, 610461, 261747, 697828, 426145, 603261, 933209,
             192166, 807196, 664895, 507735, 608865, 385600, 397182, 391600,
             69148, 545377, 999357, 144882, 188375, 273100, 313629, 81037,
             168292, 820607, 578046, 493882, 451309, 879594, 577158, 944899]),
        1: ([281782, 132344, 534918, 247293, 1039002, 942651, 990370, 796110,
             440307, 196837, 1023109, 59448, 817488, 907578, 4416, 934044,
             558535, 479749, 214385, 665698, 64151, 46812, 53363, 19304,
             799443, 454241, 885242, 60902, 464921, 918316, 1039793, 488813,
             724986, 484162, 458817, 963858, 607716, 45067, 872792, 209715],
             [389873, 621575, 253524, 697712, 885222, 398143, 636209, 595925,
             1047238, 824922, 72405, 1007108, 509062, 847853, 868879, 362822,
             769914, 785809, 181335, 920569, 226348, 343300, 824715, 777042,
             1026961, 62023, 984235, 91199, 647033, 825438, 357248, 353567,
             475922, 25798, 418416, 486908, 848203, 721055, 740869, 962869]),
    }

    @pytest.mark.parametrize("seed", [0, 1])
    def test_draw_stream_is_pinned(self, seed):
        # every report rests on these draws; a change to how a point is
        # drawn shows here before it shows in a report digest
        p = LazyPermutation(1 << 20, seed)
        images = [p.apply(x) for x in range(40)]
        preimages = [p.inverse_apply(y) for y in range(40)]
        assert (images, preimages) == self.STREAM[seed]

    @given(st.one_of(st.sampled_from([1, 2, 3, 10 ** 12]),
                     st.integers(1, 40).flatmap(
                         lambda k: st.sampled_from([1 << k, (1 << k) + 1]))),
           st.integers(0, 2 ** 32), st.data())
    @settings(max_examples=150, deadline=None)
    def test_draws_equal_randrange_redraws(self, n, seed, data):
        # the reference: randrange(n), redrawn while the point is used
        queries = data.draw(st.lists(
            st.tuples(st.booleans(), st.integers(0, n - 1)), max_size=40))
        rng = random.Random(seed)
        fwd: dict = {}
        bwd: dict = {}
        expected = []
        for inverse, x in queries:
            there, back = (bwd, fwd) if inverse else (fwd, bwd)
            if x not in there:
                y = rng.randrange(n)
                while y in back:
                    y = rng.randrange(n)
                there[x], back[y] = y, x
            expected.append(there[x])
        p = LazyPermutation(n, seed)
        assert [p.inverse_apply(x) if inverse else p.apply(x)
                for inverse, x in queries] == expected

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_distribution_support(self, seed):
        p = LazyPermutation(6, seed)
        assert sorted(p.apply(x) for x in range(6)) == list(range(6))


class TestChildSeed:
    def test_distinct_streams(self):
        seen = {child_seed(7, tag, idx) for tag in (1, 2, 3, 4)
                for idx in range(50)}
        assert len(seen) == 200

    def test_validation(self):
        with pytest.raises(ValueError):
            child_seed(7, -1, 0)
        with pytest.raises(ValueError):
            child_seed(7, 1, -1)


class TestExperimentConfig:
    def test_json_roundtrip(self):
        obj = SMOKE.to_json_obj()
        assert obj["K"] == 2 and obj["N"] == 4096 and obj["Ma"] == 8
        assert ExperimentConfig.from_json_obj(obj) == SMOKE

    def test_strict_parsing(self):
        obj = SMOKE.to_json_obj()
        with pytest.raises(ValueError):
            ExperimentConfig.from_json_obj({**obj, "extra": 1})
        missing = dict(obj)
        del missing["t"]
        with pytest.raises(ValueError):
            ExperimentConfig.from_json_obj(missing)
        with pytest.raises(ValueError):
            ExperimentConfig.from_json_obj({**obj, "K": True})

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(0, 16, 2, 2, 1, 1, 1, 1, 1, 16, 1, 0)


class TestRunPipeline:
    def test_smoke_run_shape(self):
        rep = run_pipeline(SMOKE)
        assert len(rep.builds) == 2
        assert len(rep.samples) == SMOKE.samples
        # every build hits the reachability wall at this scale, so the run
        # degrades — but the capture property must still hold exactly
        assert rep.degraded and not rep.ok
        assert rep.sampling.violations == 0
        assert all(isinstance(s, SampleRecord) for s in rep.samples)
        assert rep.sampling.samples == SMOKE.samples
        assert rep.sampling.up_checked == sum(s.up_checked for s in rep.samples)

    def test_byte_identical_reports(self):
        from omegalab.jsonio import canonical_dumps
        a = canonical_dumps(run_pipeline(SMOKE).to_json_obj())
        b = canonical_dumps(run_pipeline(SMOKE).to_json_obj())
        assert a == b

    def test_report_bytes_are_pinned(self):
        from omegalab.jsonio import canonical_dumps
        text = canonical_dumps(run_pipeline(SMOKE).to_json_obj())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f02c72894c1765dafe01983a72e17dbce1ffa278b0e595434d7c88fb3dfecad9")

    def test_chain_is_checked_once_per_build_not_per_sample(self, monkeypatch):
        # each build's Condition validated its chain when it was made; the
        # samples trust it instead of running is_condition again
        checks = []
        real = generic.is_condition

        def counted(*args):
            checks.append(args)
            return real(*args)
        monkeypatch.setattr(generic, "is_condition", counted)
        counts = []
        for samples in (1, 50):
            checks.clear()
            run_pipeline(dataclasses.replace(SMOKE, samples=samples))
            counts.append(len(checks))
        assert counts[0] == counts[1] > 0

    def test_report_keys(self):
        obj = run_pipeline(SMOKE).to_json_obj()
        assert set(obj) == {"config", "builds", "degraded", "independence",
                            "density", "per_sample", "sampling", "ok"}
        assert len(obj["per_sample"]) == SMOKE.samples
        assert obj["config"]["seed"] == 7

    def test_search_bound_cannot_exceed_universe(self):
        with pytest.raises(ValueError):
            run_pipeline(ExperimentConfig(1, 16, 2, 2, 1, 1, 1, 1, 1, 32, 1, 0))
