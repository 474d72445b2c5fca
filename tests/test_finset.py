import hashlib
import itertools
import random
import sys
import tracemalloc
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalab import finset
from omegalab.finset import (MAX_UNIVERSE, CombinationSpec, Family, FinSet,
                             IndependenceReport, bit_family,
                             boolean_combination, combination_mask,
                             combination_masks, combination_specs,
                             count_combinations, full_mask, is_independent,
                             is_saturated, min_combination_size)


def family_of(n, sets):
    return Family(n, tuple(FinSet.from_members(n, s) for s in sets))


def oracle_combination(family: Family, spec: CombinationSpec) -> list[int]:
    """Per-element membership predicate, independent of the bitmask algebra."""
    out = []
    for x in range(family.n):
        if all(x in family.sets[i] for i in spec.pos) and \
                not any(x in family.sets[j] for j in spec.neg):
            out.append(x)
    return out


def oracle_least_failing(family, threshold, depth):
    for spec in combination_specs(len(family.sets), depth):
        if len(oracle_combination(family, spec)) < threshold:
            return spec
    return None


@st.composite
def families(draw, max_n=24, max_sets=4):
    n = draw(st.integers(1, max_n))
    count = draw(st.integers(0, max_sets))
    sets = tuple(FinSet(n, draw(st.integers(0, (1 << n) - 1)))
                 for _ in range(count))
    return Family(n, sets)


@st.composite
def wide_families(draw):
    """Up to 7 sets over 1..70 points (widths off the byte grid too), with
    empty and full sets drawn often."""
    n = draw(st.integers(1, 70))
    full = (1 << n) - 1
    masks = st.one_of(st.just(0), st.just(full), st.integers(0, full))
    count = draw(st.integers(0, 7))
    return Family(n, tuple(FinSet(n, draw(masks)) for _ in range(count)))


class TestFinSet:
    def test_membership_and_size(self):
        s = FinSet.from_members(10, [3, 1, 7])
        assert s.to_list() == [1, 3, 7]
        assert len(s) == 3
        assert 3 in s and 0 not in s and 10 not in s

    def test_out_of_universe_member_rejected(self):
        with pytest.raises(ValueError):
            FinSet.from_members(4, [4])
        with pytest.raises(ValueError):
            FinSet(4, 1 << 4)

    def test_iteration_matches_list_on_large_universe(self):
        # the byte-wise bit iterator must stay exact on big masks
        n = 1 << 14
        members = list(range(0, n, 97)) + [n - 1]
        s = FinSet.from_members(n, members)
        assert s.to_list() == sorted(set(members))

    def test_repr_never_raises(self):
        # decimal up to 2126 bits (640 digits, the least int/str limit a
        # process may set), hex past it, which the limit exempts
        edge, big = (1 << 2126) - 1, 1 << 2126
        assert repr(FinSet(4, 5)) == "FinSet(n=4, mask=5)"
        assert repr(FinSet(2127, edge)) == f"FinSet(n=2127, mask={edge})"
        assert repr(FinSet(2127, big)) == f"FinSet(n=2127, mask={hex(big)})"
        fam = bit_family(1, 1 << 15)
        assert repr(fam).startswith("Family(n=32768, sets=(FinSet(n=32768, "
                                    "mask=0xaaaa")
        assert eval(repr(fam.sets[0])) == fam.sets[0]
        if hasattr(sys, "set_int_max_str_digits"):
            old = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(640)
            try:
                assert str(edge) in repr(FinSet(2127, edge))
            finally:
                sys.set_int_max_str_digits(old)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_to_list_equals_iteration_and_bit_oracle(self, data):
        # n = 1, the empty mask and the top member n - 1 are drawn on purpose
        n = data.draw(st.one_of(st.just(1), st.integers(1, 200)))
        full = (1 << n) - 1
        s = FinSet(n, data.draw(st.one_of(
            st.just(0), st.just(1 << (n - 1)), st.just(full),
            st.integers(0, full))))
        assert s.to_list() == list(iter(s)) == \
            [x for x in range(n) if s.mask >> x & 1]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_from_members_equals_or_per_member(self, data):
        n = data.draw(st.one_of(st.just(1), st.integers(1, 200)))
        # unsorted, with repeats, and often holding n - 1
        members = data.draw(st.lists(
            st.one_of(st.just(n - 1), st.integers(0, n - 1)), max_size=60))
        mask = 0
        for x in members:  # the construction from_members replaced
            mask |= 1 << x
        s = FinSet.from_members(n, members)
        assert s.mask == mask
        assert FinSet.from_members(n, iter(members)) == s

    @pytest.mark.parametrize("members, bad", [
        ([-1], -1), ([2, -9, 1], -9), ([0, 4], 4), ([3, 100, -1], 100)])
    def test_from_members_rejects_negative_and_outside(self, members, bad):
        with pytest.raises(ValueError, match=f"member {bad} outside"):
            FinSet.from_members(4, members)


class TestCombinationSpec:
    def test_sorts_and_validates(self):
        spec = CombinationSpec((2, 0), (3, 1))
        assert spec.pos == (0, 2) and spec.neg == (1, 3)
        assert spec.depth == 4

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            CombinationSpec((0,), (0,))
        with pytest.raises(ValueError):
            CombinationSpec((1, 1), ())

    def test_spec_enumeration_order(self):
        specs = [(s.pos, s.neg) for s in combination_specs(2, 2)]
        assert specs == [
            ((), ()), ((), (0,)), ((), (0, 1)), ((), (1,)),
            ((0,), ()), ((0,), (1,)), ((0, 1), ()), ((1,), ()),
            ((1,), (0,)),
        ]
        assert len(list(combination_specs(4, 4))) == 81  # 3^4


class TestBooleanCombination:
    @given(families())
    def test_matches_membership_oracle(self, family):
        for spec in combination_specs(len(family.sets), len(family.sets)):
            got = boolean_combination(family, spec).to_list()
            assert got == oracle_combination(family, spec)

    def test_empty_spec_is_universe(self):
        fam = Family(5, (FinSet.from_members(5, [1]),))
        assert boolean_combination(fam, CombinationSpec((), ())).to_list() == \
            [0, 1, 2, 3, 4]

    def test_index_out_of_range(self):
        fam = Family(5, ())
        with pytest.raises(ValueError):
            boolean_combination(fam, CombinationSpec((0,), ()))


class TestBitFamily:
    def test_small_examples(self):
        assert [s.to_list() for s in bit_family(1, 4).sets] == [[1, 3]]
        assert [s.to_list() for s in bit_family(2, 8).sets] == \
            [[1, 3, 5, 7], [2, 3, 6, 7]]
        assert bit_family(2, 8).labels == ("bit0", "bit1")

    def test_requires_room(self):
        with pytest.raises(ValueError):
            bit_family(3, 7)

    @pytest.mark.parametrize("j", range(7))
    def test_three_bits_threshold_scaling(self, j):
        # every full combination fixes 3 bits, leaving exactly 2^j members
        fam = bit_family(3, 1 << (3 + j))
        assert is_independent(fam, 1 << j, 3).ok
        if j:
            assert not is_independent(fam, (1 << j) + 1, 3).ok

    def test_matches_bit_predicate(self):
        fam = bit_family(4, 64)
        for bit, s in enumerate(fam.sets):
            assert s.to_list() == [x for x in range(64) if (x >> bit) & 1]


class TestUniverseCap:
    HUGE = MAX_UNIVERSE + 1

    def test_sparse_sets_past_the_cap_stay_legal(self):
        # chain searches build such families over astronomically large
        # universes; only a mask of the whole universe is refused
        fam = family_of(10 ** 40, [[0, 5], [1000]])
        assert fam.sets[1].to_list() == [1000]

    @pytest.mark.parametrize("n, member", [
        (MAX_UNIVERSE + 1, MAX_UNIVERSE), (10 ** 30, 10 ** 29)])
    def test_member_past_the_cap_refused(self, n, member):
        # its mask would pass 8 MiB: refused before any buffer is made
        with pytest.raises(ValueError, match=f"member {member} is past the cap"):
            FinSet.from_members(n, [0, member])

    def test_whole_universe_checks_refuse(self):
        # the size checks build no universe: TestCombinationScan runs them
        # past the cap
        fam = family_of(self.HUGE, [[0], [1]])
        for check in (lambda: boolean_combination(fam, CombinationSpec((0,))),
                      lambda: bit_family(2, self.HUGE),
                      lambda: is_saturated(fam, 1)):
            with pytest.raises(ValueError, match="past the cap"):
                check()


class TestIsIndependent:
    def test_bit_family_pass_and_fail(self):
        fam = bit_family(3, 64)
        ok = is_independent(fam, 8, 3)
        assert ok.ok and ok.failing is None and ok.size_found == 8
        bad = is_independent(fam, 9, 3)
        assert not bad.ok and bad.size_found == 8

    def test_set_with_complement_fails(self):
        a = FinSet.from_members(8, [0, 1, 2])
        fam = Family(8, (a, FinSet(8, 0b11111000)))  # a and its complement
        rep = is_independent(fam, 1, 2)
        assert not rep.ok and rep.size_found == 0
        # lexicographically least failing spec, pos-major: the empty-pos spec
        # ((), (0, 1)) hits the empty set before ((0, 1), ()) does
        assert (rep.failing.pos, rep.failing.neg) == ((), (0, 1))

    @given(families(), st.integers(1, 6))
    @settings(max_examples=60)
    def test_failing_spec_is_lexicographically_least(self, family, threshold):
        depth = len(family.sets)
        rep = is_independent(family, threshold, depth)
        expected = oracle_least_failing(family, threshold, depth)
        if expected is None:
            assert rep.ok
        else:
            assert (rep.failing.pos, rep.failing.neg) == \
                (expected.pos, expected.neg)

    @given(families(), st.integers(2, 6))
    @settings(max_examples=60)
    def test_monotone_in_threshold(self, family, threshold):
        depth = len(family.sets)
        if is_independent(family, threshold, depth).ok:
            assert is_independent(family, threshold - 1, depth).ok

    @given(families())
    @settings(max_examples=60)
    def test_monotone_in_depth(self, family):
        depth = len(family.sets)
        if depth == 0:
            return
        if is_independent(family, 1, depth).ok:
            for d in range(depth):
                assert is_independent(family, 1, d).ok

    @given(families())
    @settings(max_examples=60)
    def test_ok_iff_min_size_reaches_threshold(self, family):
        depth = len(family.sets)
        smallest = min_combination_size(family, depth)
        for t in {1, max(1, smallest), smallest + 1}:
            assert is_independent(family, t, depth).ok == (smallest >= t)

    @given(families())
    @settings(max_examples=60)
    def test_full_depth_combinations_partition_universe(self, family):
        k = len(family.sets)
        total = 0
        for spec in combination_specs(k, k):
            if len(spec.pos) + len(spec.neg) == k:
                total += len(boolean_combination(family, spec))
        assert total == family.n

    def test_failure_splits_each_index_set_once(self, monkeypatch):
        # the least-size pass splits the 495 index sets of 4 members; the
        # failing spec is then the empty one, whose index set is split once
        split = []
        real = finset._block_splits
        monkeypatch.setattr(finset, "_block_splits",
                            lambda sizes, block: split.extend(block)
                            or real(sizes, block))
        n = 2 ** 14
        rep = is_independent(bit_family(12, n), n + 1, 4)
        assert rep == IndependenceReport(False, CombinationSpec(), n, n + 1, 4)
        assert len(split) <= 495 + 1
        assert len(set(split)) == len(split)

    def test_parameter_validation(self):
        fam = bit_family(2, 4)
        with pytest.raises(ValueError):
            is_independent(fam, 0, 2)
        with pytest.raises(ValueError):
            is_independent(fam, 1, 3)


class TestCombinationScan:
    """The size checks (intersection table and subtractions) and the mask
    scan against a spec-by-spec oracle: boolean_combination on each spec of
    combination_specs, which builds every combination's set on its own."""

    @staticmethod
    def assert_equal_spec_by_spec_loop(family, depth, threshold):
        sizes = [(spec, len(boolean_combination(family, spec)))
                 for spec in combination_specs(len(family.sets), depth)]
        smallest = min(size for _, size in sizes)
        failing = [(spec, size) for spec, size in sizes if size < threshold]
        if failing:
            expected = IndependenceReport(False, *failing[0], threshold, depth)
        else:
            expected = IndependenceReport(True, None, smallest, threshold,
                                          depth)
        assert is_independent(family, threshold, depth) == expected
        assert min_combination_size(family, depth) == smallest

    @given(wide_families(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_reports_equal_spec_by_spec_loop(self, family, data):
        depth = data.draw(st.integers(0, len(family.sets)))
        threshold = data.draw(st.integers(1, family.n + 1))
        self.assert_equal_spec_by_spec_loop(family, depth, threshold)

    @given(st.integers(1, 40), st.integers(8, 10), st.data())
    @settings(max_examples=25, deadline=None)
    def test_many_sets_equal_spec_by_spec_loop(self, n, k, data):
        # up to 386 index sets, each split 2^|T| ways
        family = Family(n, tuple(
            FinSet(n, data.draw(st.integers(0, (1 << n) - 1)))
            for _ in range(k)))
        depth = data.draw(st.integers(0, 4))
        threshold = data.draw(st.integers(1, n + 1))
        self.assert_equal_spec_by_spec_loop(family, depth, threshold)

    @given(st.lists(st.sets(st.integers(0, 200), max_size=30), max_size=5),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_reports_equal_mask_counts_at_any_universe(self, members, data):
        # the oracle sizes each spec's combination_mask on its own: a
        # co-finite mask M (no pos set) holds n - popcount(~M) points, so at
        # n = 10^12 no mask of the universe is built on either side
        n = data.draw(st.sampled_from((201, 10 ** 12)))
        family = family_of(n, [sorted(s) for s in members])
        depth = data.draw(st.integers(0, len(family.sets)))
        threshold = data.draw(st.one_of(st.integers(1, 202),
                                        st.integers(max(n - 250, 1), n + 1)))
        sizes = []
        for spec in combination_specs(len(family.sets), depth):
            mask = combination_mask(family, spec)
            sizes.append((spec, mask.bit_count() if mask >= 0
                          else n - (~mask).bit_count()))
        smallest = min(size for _, size in sizes)
        failing = next(((spec, size) for spec, size in sizes
                        if size < threshold), None)
        expected = IndependenceReport(True, None, smallest, threshold, depth) \
            if failing is None else \
            IndependenceReport(False, *failing, threshold, depth)
        assert is_independent(family, threshold, depth) == expected
        assert min_combination_size(family, depth) == smallest

    def test_reports_pinned(self):
        # 300 seeded families (n 1-70, k <= 7, empty and full sets drawn
        # often, every depth and threshold 1..n+1): the sha256 of the
        # reprs is pinned to the value of the mask-by-mask scan
        rng = random.Random(20261018)
        reports = []
        for _ in range(300):
            n = rng.randint(1, 70)
            full = (1 << n) - 1
            masks = [rng.choice((0, full, rng.getrandbits(n)))
                     for _ in range(rng.randint(0, 7))]
            family = Family(n, tuple(FinSet(n, m) for m in masks))
            depth = rng.randint(0, len(masks))
            threshold = rng.randint(1, n + 1)
            reports.append((is_independent(family, threshold, depth),
                            min_combination_size(family, depth)))
        assert sum(rep.ok for rep, _ in reports) == 111
        text = "\n".join(map(repr, reports))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9e1ba717108ec444d59b64a6419e585aea2d487e5ab86091792814ccc14ac63c")

    @given(wide_families(), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_masks_follow_spec_order(self, family, depth):
        # each mask is the spec's universe-free combination_mask; cut to the
        # universe, it is the spec's boolean_combination
        got = list(combination_masks(family, depth))
        specs = list(combination_specs(len(family.sets), depth))
        assert got == [(combination_mask(family, spec), spec.pos, spec.neg)
                       for spec in specs]
        full = full_mask(family.n)
        for (mask, _, _), spec in zip(got, specs):
            assert mask & full == boolean_combination(family, spec).mask

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            next(combination_masks(bit_family(2, 4), -1))
        with pytest.raises(ValueError):
            next(combination_specs(2, -1))

    def test_count_matches_enumeration(self):
        for k in range(9):
            for d in range(k + 2):
                assert count_combinations(k, d) == \
                    len(list(combination_specs(k, d)))
        assert count_combinations(12, 4) == 9969  # a 12-set closure, d = 4


def oracle_split_sizes(sizes, t):
    """The sizes of the 2^|T| combinations (P, T - P) for the index set T
    (a bitmask), one butterfly per T: the list indexed by s whose bit i puts
    T's i-th least index in P.  Starts from |A_P| for every P inside T and,
    one index x of T at a time, takes |P, Q + x| = |P, Q| - |P + x, Q|."""
    subsets = [0]  # in order of s
    rest = t
    while rest:
        low = rest & -rest
        subsets += [p | low for p in subsets]
        rest ^= low
    split = list(map(sizes.__getitem__, subsets))
    for _ in range(t.bit_count()):
        with_x = split[1::2]
        split = list(map(sub, split[0::2], with_x)) + with_x
    return split


class TestBlockSplits:
    """The column passes over a block of index sets against the per-T
    butterfly oracle_split_sizes."""

    @staticmethod
    def assert_blocks_match_per_t(family, depth, monkeypatch):
        # min_combination_size's blocks cover the index sets of `depth`
        # members once each, and each block's column s holds split s of
        # every T in it
        blocks = []
        real = finset._block_splits
        monkeypatch.setattr(finset, "_block_splits",
                            lambda sizes, block: blocks.append(
                                (block, real(sizes, block))) or blocks[-1][1])
        smallest = min_combination_size(family, depth)
        sizes = finset._intersection_sizes(family, depth)
        seen = []
        for block, columns in blocks:
            assert len(columns) == 1 << depth
            for at, t in enumerate(block):
                expected = oracle_split_sizes(sizes, sum(1 << i for i in t))
                assert [column[at] for column in columns] == expected
            seen.extend(block)
        assert seen == list(itertools.combinations(range(len(family.sets)),
                                                   depth))
        assert smallest == min(min(map(min, columns)) for _, columns in blocks)
        return len(blocks)

    @given(wide_families(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_blocks_equal_per_t_butterfly(self, family, data):
        depth = data.draw(st.integers(0, len(family.sets)))
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.assert_blocks_match_per_t(family, depth, monkeypatch)

    @given(st.integers(1, 40), st.data())
    @settings(max_examples=5, deadline=None)
    def test_many_blocks_equal_per_t_butterfly(self, n, data):
        # 3 432 index sets of 7 members, 128 to a block of 2^14 sizes
        family = Family(n, tuple(
            FinSet(n, data.draw(st.integers(0, (1 << n) - 1)))
            for _ in range(14)))
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert self.assert_blocks_match_per_t(family, 7, monkeypatch) == 27

    @given(wide_families(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_block_of_any_index_sets(self, family, data):
        # any ascending index sets of one size, in any order and any number
        k = len(family.sets)
        depth = data.draw(st.integers(0, k))
        sizes = finset._intersection_sizes(family, depth)
        pool = list(itertools.combinations(range(k), depth))
        block = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                   max_size=12))
        columns = finset._block_splits(sizes, block)
        for at, t in enumerate(block):
            assert [column[at] for column in columns] == \
                oracle_split_sizes(sizes, sum(1 << i for i in t))

    def test_memory_bounded_by_block(self):
        # C(14, 7) * 2^7 = 439 296 split sizes, taken 2^14 at a time
        tracemalloc.start()
        try:
            smallest = min_combination_size(bit_family(14, 2 ** 14), 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert smallest == 128
        assert peak < 4 << 20


class TestIsSaturated:
    def test_triangle_family(self):
        fam = family_of(3, [[0, 1], [0, 2], [1, 2]])
        assert is_saturated(fam, 1).ok
        rep = is_saturated(fam, 2)
        assert not rep.ok
        assert rep.witness == ((), (0, 1))  # no member inside {2}

    def test_zero_bound_is_vacuous(self):
        assert is_saturated(Family(3, ()), 0).ok

    @given(families(max_n=10, max_sets=3), st.integers(0, 3))
    @settings(max_examples=60)
    def test_antitone_in_bound(self, family, bound):
        if is_saturated(family, bound).ok:
            for s in range(bound):
                assert is_saturated(family, s).ok

    def test_full_powerset_family_is_saturated(self):
        n = 4
        fam = Family(n, tuple(FinSet(n, mask) for mask in range(1 << n)))
        assert is_saturated(fam, n).ok

    @given(families(max_n=7, max_sets=4), st.integers(0, 8))
    @settings(max_examples=100, deadline=None)
    def test_witness_equals_brute_force(self, family, bound):
        # every demand of 1..bound points, each tried against every member;
        # Python's tuple order is the lexicographic pre-order of the walk
        unmet = []
        for size in range(1, bound + 1):
            for points in itertools.combinations(range(family.n), size):
                for inside in itertools.product((True, False), repeat=size):
                    p = tuple(x for x, i in zip(points, inside) if i)
                    q = tuple(x for x, i in zip(points, inside) if not i)
                    if not any(all(x in s for x in p) and
                               not any(x in s for x in q)
                               for s in family.sets):
                        unmet.append((p, q))
        rep = is_saturated(family, bound)
        assert rep.ok == (not unmet)
        assert rep.witness == (min(unmet) if unmet else None)

    def test_deep_first_witness_needs_no_recursion(self):
        # the walk reaches q = (0..1099) through its 1 099 prefixes, all met
        # by the one set {1099}; a frame per point would pass Python's limit
        fam = family_of(1500, [[1099]])
        rep = is_saturated(fam, 1200)
        assert rep.witness == ((), tuple(range(1100)))
