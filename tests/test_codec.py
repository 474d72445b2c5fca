import dataclasses
import hashlib
import math
import random
import resource
import subprocess
import sys
from bisect import bisect_left
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalab import codec
from omegalab.codec import (EMPTY_FN, SLOT_LIMIT, PartialFn, _build_cache,
                            _member_bytes, _next_member,
                            _unrank, cantor_pair,
                            cantor_unpair, check_dense,
                            count_functional_below, index_of_raw_code,
                            least_extension_index, nth_partial_fn,
                            partial_fn_index, point_code, raw_code_of_index)
from omegalab.finset import (CombinationSpec, Family, FinSet, bit_family,
                             full_mask)
from omegalab.generic import (IN, OUT, Demand, TargetGrid, auto_schedule,
                             build_generic)


# --- independent oracle -------------------------------------------------------
# A from-scratch reading of the encoding, sharing no code with the library:
# diagonal-walk pairing, bit-by-bit raw decoding, linear functional scan.

def oracle_pair(a, b):
    return (a + b) * (a + b + 1) // 2 + b


def oracle_unpair(q):
    t = (math.isqrt(8 * q + 1) - 1) // 2
    if (t + 1) * (t + 2) // 2 <= q:
        t += 1
    b = q - t * (t + 1) // 2
    return t - b, b


def oracle_raw_entries(raw):
    """Decode a raw code into ((a, b, i), value) pairs, slot by slot."""
    entries = []
    slot = 0
    while raw:
        if raw & 1:
            pc, value = oracle_unpair(slot)
            ab, i = divmod(pc, 2)
            a, b = oracle_unpair(ab)
            entries.append(((a, b, i), value))
        raw >>= 1
        slot += 1
    return entries


def oracle_is_functional(raw):
    points = [p for p, _ in oracle_raw_entries(raw)]
    return len(points) == len(set(points))


def oracle_enumeration(raw_bound):
    return [r for r in range(raw_bound) if oracle_is_functional(r)]


ORACLE_RAWS = oracle_enumeration(1 << 16)


def point_decode(code):
    """The point (a, b, i) whose point_code is `code`."""
    a, b = cantor_unpair(code >> 1)
    return a, b, code & 1


def slot_decode(slot):
    """The entry (a, b, i, value) that occupies `slot`."""
    code, value = cantor_unpair(slot)
    return (*point_decode(code), value)


class TestPairings:
    def test_cantor_spot_values(self):
        assert cantor_pair(0, 0) == 0
        assert cantor_pair(1, 0) == 1
        assert cantor_pair(0, 1) == 2
        assert cantor_pair(1, 1) == 4
        assert cantor_unpair(4) == (1, 1)

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_pair_roundtrip(self, a, b):
        q = cantor_pair(a, b)
        assert q == oracle_pair(a, b)
        assert cantor_unpair(q) == (a, b)

    @given(st.integers(0, 10**9))
    def test_unpair_roundtrip(self, q):
        a, b = cantor_unpair(q)
        assert cantor_pair(a, b) == q

    def test_point_codes(self):
        assert point_code(0, 0, 0) == 0
        assert point_code(0, 0, 1) == 1
        assert point_code(1, 0, 0) == 2
        assert point_decode(2) == (1, 0, 0)

    def test_entry_slot_roundtrip(self):
        slot = cantor_pair(point_code(2, 5, 1), 7)
        assert slot_decode(slot) == (2, 5, 1, 7)


class TestEnumerationAgainstOracle:
    def test_first_functional_raws(self):
        assert ORACLE_RAWS[:12] == [0, 1, 2, 3, 4, 6, 8, 9, 10, 11, 12, 14]

    def test_raw_codes_match_oracle(self):
        got = [raw_code_of_index(m) for m in range(len(ORACLE_RAWS))]
        assert got == ORACLE_RAWS

    def test_entries_match_oracle_decoding(self):
        for m in range(300):
            expected = sorted((point_code(*p), p, v)
                              for p, v in oracle_raw_entries(ORACLE_RAWS[m]))
            fn = nth_partial_fn(m)
            assert [(a, b, i, v) for _, (a, b, i), v in expected] == \
                list(fn.entries)

    def test_count_functional_below_matches_oracle(self):
        # the argument is a slot-position bound: counts functional raws < 2**bits
        for bits in (0, 1, 4, 8, 12, 16):
            assert count_functional_below(bits) == \
                len(oracle_enumeration(1 << bits))

    def test_counts_at_frozen_tiers(self):
        # group-product values; the small ones are re-checked by the oracle
        assert count_functional_below(20) == 4320
        assert count_functional_below(30) == 120960
        assert count_functional_below(38) == 1088640
        assert count_functional_below(40) == 1814400
        assert count_functional_below(78) == 6227020800
        assert count_functional_below(91) == 87178291200


class TestSpotValues:
    def test_low_indices(self):
        assert nth_partial_fn(0).entries == ()
        assert nth_partial_fn(1).entries == ((0, 0, 0, 0),)
        assert nth_partial_fn(2).entries == ((0, 0, 1, 0),)
        assert nth_partial_fn(3).entries == ((0, 0, 0, 0), (0, 0, 1, 0))
        assert nth_partial_fn(4).entries == ((0, 0, 0, 1),)
        assert nth_partial_fn(5).entries == ((0, 0, 0, 1), (0, 0, 1, 0))

    def test_low_inverse_values(self):
        assert partial_fn_index(EMPTY_FN) == 0
        assert partial_fn_index(PartialFn.from_entries([(0, 0, 0, 0)])) == 1
        assert partial_fn_index(
            PartialFn.from_entries([(0, 0, 0, 0), (0, 0, 1, 0)])) == 3
        assert partial_fn_index(PartialFn.from_entries([(0, 0, 0, 1)])) == 4


class TestRoundTrips:
    def test_index_roundtrip_prefix(self):
        for m in range(5000):
            assert partial_fn_index(nth_partial_fn(m)) == m

    @given(st.integers(0, 1_500_000))
    @settings(max_examples=120, deadline=None)  # spans the table and past it
    def test_index_roundtrip_sampled(self, m):
        assert partial_fn_index(nth_partial_fn(m)) == m
        assert nth_partial_fn(m).raw_code == raw_code_of_index(m)

    @given(st.integers(0, 10 ** 60))
    @settings(max_examples=150, deadline=None)
    def test_walk_builds_the_validated_function(self, m):
        # nth_partial_fn skips from_entries: its output must be what the
        # validating constructor makes of the same entries, and rank back
        fn = nth_partial_fn(m)
        assert fn == PartialFn.from_entries(fn.entries)
        assert partial_fn_index(fn) == m

    def test_raw_codes_strictly_increase(self):
        raws = [raw_code_of_index(m) for m in range(4000)]
        assert all(x < y for x, y in zip(raws, raws[1:]))

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                              st.integers(0, 1)),
                    unique=True, max_size=4),
           st.data())
    @settings(max_examples=80)
    def test_fn_roundtrip_via_index(self, points, data):
        fn = PartialFn.from_entries(
            (*p, data.draw(st.integers(0, 3))) for p in points)
        assert nth_partial_fn(partial_fn_index(fn)) == fn

    def test_deep_single_slot_values(self):
        # indices found by counting, far past the fixed table
        assert index_of_raw_code(1 << 78) == 6227020800
        assert raw_code_of_index(6227020800) == 1 << 78
        assert index_of_raw_code(1 << 91) == 87178291200
        assert raw_code_of_index(87178291200) == 1 << 91

    def test_completeness_small_grid(self):
        # every function on point codes < 4 with values < 4 appears exactly once
        points = [point_decode(pc) for pc in range(4)]
        seen = set()
        for assignment in range(5 ** 4):
            entries = []
            rest = assignment
            for p in points:
                rest, choice = divmod(rest, 5)
                if choice:
                    entries.append((*p, choice - 1))
            fn = PartialFn.from_entries(entries)
            m = partial_fn_index(fn)
            assert nth_partial_fn(m) == fn
            seen.add(m)
        assert len(seen) == 5 ** 4


def refusal(entries):
    with pytest.raises(ValueError) as refused:
        PartialFn.from_entries(entries)
    return str(refused.value)


class TestPartialFn:
    # errors, reprs and frozenness as they were printed when a function
    # stored its entries, before it stored its (point code, value) pairs
    def test_repr_prints_entries(self):
        assert repr(EMPTY_FN) == "PartialFn(entries=())"
        assert repr(PartialFn.from_entries([(1, 2, 0, 5)])) == \
            "PartialFn(entries=((1, 2, 0, 5),))"
        assert repr(PartialFn.from_entries(
            [(3, 1, 1, 7), (0, 0, 1, 0), (0, 0, 0, 0)])) == \
            "PartialFn(entries=((0, 0, 0, 0), (0, 0, 1, 0), (3, 1, 1, 7)))"
        assert repr(nth_partial_fn(5)) == \
            "PartialFn(entries=((0, 0, 0, 1), (0, 0, 1, 0)))"

    def test_equal_functions_hash_equal(self):
        entries = [(3, 1, 1, 7), (0, 0, 1, 0), (0, 0, 0, 0)]
        fn = PartialFn.from_entries(entries)
        again = PartialFn.from_entries(reversed(entries))
        assert fn == again and hash(fn) == hash(again)
        assert fn != PartialFn.from_entries([(3, 1, 1, 6), *entries[1:]])
        for m in (0, 5, 4321, 10 ** 30):
            made = PartialFn.from_entries(nth_partial_fn(m).entries)
            assert made == nth_partial_fn(m)
            assert hash(made) == hash(nth_partial_fn(m))
        assert len({nth_partial_fn(5), PartialFn.from_entries(
            [(0, 0, 1, 0), (0, 0, 0, 1)]), EMPTY_FN}) == 2
        assert len(fn) == 3 and len(EMPTY_FN) == 0
        assert EMPTY_FN == nth_partial_fn(0)

    @pytest.mark.parametrize("name", ["points", "entries", "slots", "other"])
    def test_frozen(self, name):
        fn = nth_partial_fn(5)
        with pytest.raises(dataclasses.FrozenInstanceError) as refused:
            setattr(fn, name, ())
        assert str(refused.value) == f"cannot assign to field {name!r}"
        assert fn.entries == ((0, 0, 0, 1), (0, 0, 1, 0))

    def test_functionality_enforced(self):
        assert refusal([(0, 0, 0, 1), (0, 0, 0, 2)]) == \
            "two values for point (0, 0, 0)"

    def test_layer_and_sign_validation(self):
        for entry in ((0, 0, 2, 0), (0, 0, 0, -1), (-1, 0, 0, 0),
                      (0, -1, 0, 0)):
            assert refusal([entry]) == f"bad entry {entry}"
        assert refusal([(0, 0, 0)]) == \
            "not enough values to unpack (expected 4, got 3)"
        assert refusal([("x", 0, 0, 0)]) == "bad entry ('x', 0, 0, 0)"

    @pytest.mark.parametrize("entry", [
        (0.7, 0, 0, 0), (0, 1.0, 0, 0), (0, 0, 0, 2.5), ("3", 0, 0, 0),
        (0, 0, True, 0), (False, 0, 0, 0)])
    def test_non_integer_members_refused(self, entry):
        # refused as jsonio refuses them, not truncated or parsed by int()
        assert refusal([entry]) == f"bad entry {entry}"

    def test_extends(self):
        small = PartialFn.from_entries([(0, 0, 0, 0)])
        big = PartialFn.from_entries([(0, 0, 0, 0), (1, 0, 1, 3)])
        clash = PartialFn.from_entries([(0, 0, 0, 1)])
        assert big.extends(small)
        assert big.extends(EMPTY_FN) and small.extends(small)
        assert not small.extends(big)
        assert not clash.extends(small)

    def test_huge_points_carry_no_raw_code(self):
        fn = PartialFn.from_entries([(10**8, 0, 0, 0)])
        with pytest.raises(ValueError):
            _ = fn.raw_code
        with pytest.raises(ValueError):
            partial_fn_index(fn)
        assert fn.slots[-1] > SLOT_LIMIT


class TestCheckDense:
    def test_initial_segment_is_dense(self):
        rep = check_dense(FinSet.from_members(64, range(64)).mask, 16, 64)
        assert rep.ok and rep.missing_probe is None

    def test_single_zero_fails_second_probe(self):
        rep = check_dense(FinSet.from_members(16, [0]).mask, 2, 16)
        assert not rep.ok and rep.missing_probe == 1

    def test_even_indices_by_brute_force(self):
        members = [m for m in range(0, 4000, 2)]
        rep = check_dense(FinSet.from_members(4000, members).mask, 8,
                          4000)
        expected_ok = True
        for probe in range(8):
            probe_fn = nth_partial_fn(probe)
            if not any(nth_partial_fn(n).extends(probe_fn) for n in members):
                expected_ok = False
                assert rep.missing_probe == probe
                break
        assert rep.ok == expected_ok

    @pytest.mark.parametrize("members", [FinSet(16, 0xFFFF),
                                         FinSet.from_members(16, range(16))])
    def test_member_past_search_bound_is_no_witness(self, members):
        # probe 4 is a member, but no index below the bound 4 extends it
        rep = check_dense(members.mask, 8, 4)
        assert not rep.ok and rep.missing_probe == 4

    @pytest.mark.parametrize("members, missing", [
        (FinSet.from_members(64, [0]), 1), (FinSet(64, (1 << 64) - 1), 64)])
    def test_huge_bounds_cut_at_the_universe(self, members, missing):
        # the probes' mask stops at the set's universe: bounds of 10**12 give
        # the first missing probe at once, with no 10**12-bit integer
        rep = check_dense(members.mask, 10 ** 12, 10 ** 12)
        assert not rep.ok and rep.missing_probe == missing

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_co_finite_mask_equals_its_cut_to_the_universe(self, data):
        # below a bound b <= n, a co-finite mask and its cut to {0..n-1}
        # hold the same members, so they must give the same report
        n = data.draw(st.integers(1, 5000))
        holes = data.draw(st.one_of(
            st.just(0), st.integers(0, (1 << n) - 1),
            st.sets(st.integers(0, n + 64), max_size=40).map(
                lambda xs: sum(1 << x for x in xs))))
        probe_bound = data.draw(st.integers(1, 30))
        search_bound = data.draw(st.integers(1, n))
        assert check_dense(~holes, probe_bound, search_bound) == check_dense(
            ~holes & full_mask(n), probe_bound, search_bound)

    def test_memory_follows_the_members_not_their_values(self):
        # a mask of the self-witnessing probes would ask for 2^(10^12) bits;
        # run in a child under a 1 GiB address-space cap, so a regression
        # fails there, not on the machine
        code = ("from omegalab.codec import check_dense\n"
                "from omegalab.finset import FinSet\n"
                "big = 10 ** 12\n"
                "print(check_dense(FinSet(big, 0b1011).mask, big, big)"
                ".missing_probe)\n")

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, preexec_fn=cap, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["4"]


class TestLeastExtensionIndex:
    def test_empty_probe_takes_next_free(self):
        assert least_extension_index(EMPTY_FN, -1, 100) == 0
        assert least_extension_index(EMPTY_FN, 5, 100) == 6
        assert least_extension_index(EMPTY_FN, -1, 100, without=[0, 1, 3]) == 2

    def test_search_respects_probe(self):
        probe = PartialFn.from_entries([(0, 0, 0, 0), (0, 0, 1, 0)])
        assert least_extension_index(probe, -1, 1 << 20) == 3
        assert least_extension_index(probe, 3, 1 << 20) == \
            index_of_raw_code(0b1011)  # next raw containing slots {0, 1}

    def test_within_path(self):
        def within(*members):
            return FinSet.from_members(16, members).mask
        probe = PartialFn.from_entries([(0, 0, 0, 0)])
        assert least_extension_index(probe, -1, 1 << 20,
                                     within=within(0, 2, 3)) == 3
        assert least_extension_index(probe, -1, 1 << 20,
                                     within=within(0, 2)) is None
        # the least extension (0) is no member, the member right after it is
        assert least_extension_index(EMPTY_FN, -1, 100,
                                     within=within(1, 5)) == 1
        assert least_extension_index(probe, -1, 1 << 20, within=within(1, 3),
                                     without=[1]) == 3
        # a negative mask is co-finite: every index outside {1, 3}
        assert least_extension_index(probe, -1, 1 << 20,
                                     within=~within(1, 3)) == 7
        assert least_extension_index(probe, 6, 8, within=~within(1, 3),
                                     without=[7]) is None

    def test_unreachable_slots_return_none(self):
        probe = PartialFn.from_entries([(50, 0, 0, 0)])
        assert least_extension_index(probe, -1, 1 << 20) is None

    def test_far_row_entry_is_none_without_a_raw_code(self):
        # an echo entry in row 120 sits past SLOT_LIMIT: the bound check
        # answers before the probe's raw code, which would refuse it
        for probe in (PartialFn.from_entries([(120, 0, 0, 0)]),
                      PartialFn.from_entries([(0, 0, 0, 0), (120, 3, 1, 2)])):
            with pytest.raises(ValueError):
                _ = probe.raw_code
            for bound in (1 << 20, 10 ** 80):
                for above in (-1, 5, bound + 1):
                    assert least_extension_index(probe, above, bound) is None

    @given(st.integers(0, 600), st.integers(-1, 3))
    @settings(max_examples=150, deadline=None)
    def test_single_slot_bound_is_its_count_below(self, s, above):
        # the code holding only slot s is the first of those holding s: it
        # ranks at C(s), the count of codes with every slot below s
        probe = PartialFn.from_entries([slot_decode(s)])
        count = count_functional_below(s)
        assert count == index_of_raw_code(1 << s)
        assert least_extension_index(probe, above, count) is None
        expected = count if above < count else None
        assert least_extension_index(probe, above, count + 1) == expected

    def test_bound_is_exclusive(self):
        probe = PartialFn.from_entries([(0, 0, 0, 0)])
        assert least_extension_index(probe, 0, 2) == 1
        assert least_extension_index(probe, 1, 2) is None

    def test_engine_never_builds_the_table(self):
        # in a fresh process, a small pipeline and two searches whose
        # `above` lies in the table's range leave the table unbuilt
        searches = [(3, 500, 2 ** 20), (5, 29_984, 2 ** 40)]
        code = ("from omegalab import codec\n"
                "from omegalab.config import ExperimentConfig\n"
                "from omegalab.diag import run_pipeline\n"
                "run_pipeline(ExperimentConfig(2, 4096, 8, 8, 1, 2, 2, 2, 2,"
                " 4096, 5, 7))\n"
                f"for m, above, bound in {searches!r}:\n"
                "    print(codec.least_extension_index(codec.nth_partial_fn(m),"
                " above, bound))\n"
                "print(codec._segment.cache_info().currsize)\n")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        expected = [least_extension_index(nth_partial_fn(m), above, bound)
                    for m, above, bound in searches]
        assert res.stdout.split() == [str(n) for n in expected] + ["0"]

    def test_agrees_with_linear_scan(self):
        for probe_idx in range(8):
            probe = nth_partial_fn(probe_idx)
            expected = next(n for n in range(3000)
                            if n > probe_idx
                            and nth_partial_fn(n).extends(probe))
            assert least_extension_index(probe, probe_idx, 3000) == expected


# --- the counting path, below and past the sorted table -------------------------
# raw_code_of_index reads indices below 120 960 from the sorted table, so these
# call the counting functions directly.  The table itself is built by expanding
# every group's choices, not by counting, and serves as the brute-force oracle.

TABLE_30 = _build_cache(30)  # every functional code with slots below 30


def _slot_group(slot: int) -> int:
    # the point code this slot describes
    return cantor_unpair(slot)[0]


def _next_superset(mask: int, low: int) -> int:
    """Least functional raw code above the functional code `low` that
    contains the functional code `mask`.

    Such a code agrees with `low` above some position p, sets bit p where
    `low` has it clear, and at its least holds only mask's slots below p; a
    lower admissible p gives a smaller code.  p cannot lie below mask's top
    slot missing from `low`.  The scan starts at the first position q at or
    above both codes' bit lengths whose group holds no slot of mask.  q is
    admissible, as (1 << q) | mask is functional and lies above low: so the
    scan always finds a p, and no p above q gives a smaller code.  `kept`
    holds the groups of low's slots above p, and `rest` those of mask's
    slots below p.
    """
    kept: set[int] = set()
    rest = {_slot_group(s) for s in range(mask.bit_length()) if mask >> s & 1}
    q = max(low.bit_length(), mask.bit_length())
    while _slot_group(q) in rest:
        q += 1
    g, v = cantor_unpair(q + 1)
    for p in range(q, max((mask & ~low).bit_length() - 1, 0) - 1, -1):
        g, v = (g + 1, v - 1) if v else (0, g - 1)  # the group of slot p
        in_mask, in_low = mask >> p & 1, low >> p & 1
        if in_mask:
            rest.discard(g)
        if not (in_low or g in kept or (g in rest and not in_mask)):
            best = p
        if in_low:
            if g in rest:
                break  # every lower p keeps this slot and mask's of group g
            kept.add(g)
    bit = 1 << best
    return (low & -(bit << 1)) | bit | (mask & (bit - 1))


def superset_least_extension(probe, above, bound, excluded):
    """The raw-code search that the one-pass search replaced, as an oracle:
    unrank `above`, step through the next supersets of the probe's code
    and rank each one."""
    s = probe.slots[-1]
    # every extension holds slot s, so it ranks at C(s) or later
    if s > SLOT_LIMIT or count_functional_below(s) >= bound:
        return None
    mask = probe.raw_code
    code = mask if above < 0 else _next_superset(mask, raw_code_of_index(above))
    while (n := index_of_raw_code(code)) < bound:
        if n not in excluded:
            return n
        code = _next_superset(mask, code)
    return None


def brute_least_extension(probe, above, bound, without, within=-1):
    """Linear scan of the table for the least extension index among the
    members of the mask `within`."""
    for n in range(max(above + 1, 0), min(bound, len(TABLE_30))):
        if (n not in without and within >> n & 1
                and all(TABLE_30[n] >> s & 1 for s in probe.slots)):
            return n
    return None


class TestCountingPath:
    def test_unrank_and_rank_match_table(self):
        assert len(TABLE_30) == count_functional_below(30) == 120960
        assert [_unrank(m) for m in range(len(TABLE_30))] == TABLE_30
        assert all(index_of_raw_code(raw) == m for m, raw in enumerate(TABLE_30))

    def test_rank_counts_non_functional_codes(self):
        # a non-functional code's rank is still the count of functional codes below it
        for raw in range(1 << 16):
            assert index_of_raw_code(raw) == bisect_left(ORACLE_RAWS, raw)

    @given(st.integers(0, 10 ** 100))
    @settings(max_examples=300, deadline=None)
    def test_rank_inverts_unrank_up_to_googol(self, m):
        raw = _unrank(m)
        assert oracle_is_functional(raw)
        assert index_of_raw_code(raw) == m
        assert _unrank(m + 1) > raw
        assert nth_partial_fn(m).raw_code == raw_code_of_index(m)

    def test_lookup_across_table_boundary(self):
        raws = [raw_code_of_index(m) for m in range(120_950, 120_971)]
        assert raws == [_unrank(m) for m in range(120_950, 120_971)]
        assert all(x < y for x, y in zip(raws, raws[1:]))

    @given(st.integers(0, 2000), st.integers(0, 20_000))
    @settings(max_examples=200, deadline=None)
    def test_next_superset_against_stepping(self, mask_index, low_index):
        # step through the codes after `low` until one contains `mask`
        mask, low = raw_code_of_index(mask_index), raw_code_of_index(low_index)
        m = index_of_raw_code(low) + 1
        while raw_code_of_index(m) & mask != mask:
            m += 1
        assert _next_superset(mask, low) == raw_code_of_index(m)

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_one_pass_search_against_superset_steps(self, data):
        # far-row probes, `above` on both sides of the table's end, bounds
        # up to 10^80, and exclusions of the first one or two answers
        probe = data.draw(st.one_of(
            st.integers(1, 3000).map(nth_partial_fn),
            st.integers(1, 10 ** 30).map(nth_partial_fn),
            st.tuples(st.one_of(st.integers(0, 4), st.integers(0, 130)),
                      st.integers(0, 4), st.integers(0, 1),
                      st.integers(0, 4)).map(
                lambda e: PartialFn.from_entries([e]))))
        above = data.draw(st.one_of(st.integers(-1, 3), st.integers(-1, 120_960),
                                    st.integers(120_000, 200_000),
                                    st.integers(-1, 10 ** 40)))
        bound = data.draw(st.one_of(
            st.integers(1, 1 << 20), st.integers(1, 10 ** 80),
            st.integers(2, 10 ** 6).map(lambda d: max(above + d, 1)),
            st.integers(2, 10 ** 40).map(lambda d: max(above + d, 1))))
        if probe.slots[-1] < 2000:  # the pass alone, whatever the bound
            mask = probe.raw_code
            code = mask if above < 0 else \
                _next_superset(mask, raw_code_of_index(above))
            assert codec._next_extension(codec._slot_pairs(probe), above) == \
                index_of_raw_code(code)
        excluded = set(data.draw(st.lists(st.integers(0, 1 << 20), max_size=4)))
        for _ in range(data.draw(st.integers(0, 2))):
            first = superset_least_extension(probe, above, bound, excluded)
            if first is not None:
                excluded.add(first)
        assert codec._least_extension(codec._slot_pairs(probe), above, bound,
                                      excluded) == \
            superset_least_extension(probe, above, bound, excluded)

    def test_no_pass_when_nothing_lies_between(self):
        # above >= bound - 1 leaves no index strictly between the two
        with mock.patch.object(codec, "_next_extension",
                               wraps=codec._next_extension) as spy:
            assert least_extension_index(nth_partial_fn(3), 10 ** 80, 10) is None
            assert least_extension_index(nth_partial_fn(3), 9, 10) is None
            assert spy.call_count == 0
            assert least_extension_index(nth_partial_fn(3), 8, 10) == 9
            assert spy.call_count == 1

    def test_counts_match_group_products(self):
        # the closed form (w+1)!(k+1) against the product over groups
        for bits in range(200):
            product = 1
            for q in range(bits + 1):
                product *= 1 + sum(cantor_pair(q, v) < bits for v in range(bits))
            assert count_functional_below(bits) == product

    @given(st.integers(0, 3000), st.integers(-1, 121_000),
           st.integers(1, 120_960), st.sampled_from((None, "in", "out")),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_least_extension_agrees_with_linear_scan(self, probe_idx, above,
                                                     bound, restrict, data):
        probe = nth_partial_fn(probe_idx)
        # exclude some of the first extensions, so the search must step past them
        first = []
        for n in range(max(above + 1, 0), bound):
            if len(first) == 6:
                break
            if TABLE_30[n] & probe.raw_code == probe.raw_code:
                first.append(n)
        some_first = st.lists(st.sampled_from(first), max_size=5) if first \
            else st.just([])
        without = set(data.draw(some_first))
        without |= set(data.draw(st.lists(st.integers(0, 120_960), max_size=20)))
        within = -1
        if restrict:  # a member set holding some of the first extensions,
            # or (out) the co-finite mask of every index outside it
            members = set(data.draw(st.lists(st.integers(0, 120_960),
                                             max_size=40)))
            members |= set(data.draw(some_first))
            within = FinSet.from_members(120_961, members).mask
            if restrict == "out":
                within = ~within
        assert least_extension_index(probe, above, bound, within=within,
                                     without=without) == \
            brute_least_extension(probe, above, bound, without, within)

    @given(st.lists(st.integers(0, 120_959), max_size=60),
           st.integers(1, 40), st.integers(1, 120_960))
    @settings(max_examples=100, deadline=None)
    def test_check_dense_agrees_with_linear_scan(self, members, probe_bound,
                                                 search_bound):
        missing = next((m for m in range(probe_bound)
                        if brute_least_extension(
                            nth_partial_fn(m), -1, search_bound, set(),
                            sum(1 << x for x in set(members))) is None), None)
        rep = check_dense(FinSet.from_members(120_960, members).mask,
                          probe_bound, search_bound)
        assert (rep.ok, rep.missing_probe) == (missing is None, missing)

    def test_least_extension_none_cases(self):
        for probe_idx in (3, 40, 1439, 5000, 120_959):
            probe = nth_partial_fn(probe_idx)
            for bound in (1, 2, 4, 40, 1440, 5000, 120_960):
                for above in (-1, 0, bound // 2, bound - 1, bound):
                    assert least_extension_index(probe, above, bound) == \
                        brute_least_extension(probe, above, bound, set())
        # the probe's code lies at or past the bound's code: no extension below it
        assert least_extension_index(nth_partial_fn(100), -1, 100) is None
        assert least_extension_index(nth_partial_fn(100), -1, 101) == 100
        # the probe's one slot lies past every slot of the bound's code
        probe = PartialFn.from_entries([(3, 0, 0, 0)])
        assert probe.slots[-1] >= raw_code_of_index(120_960).bit_length()
        assert least_extension_index(probe, -1, 120_960) is None


# --- the position walk and raw-code rank, as oracles --------------------------
# The unranking walk that stepped through every bit position below its
# answer's top slot, and the rank that peeled a raw code's bits with one
# isqrt each, as they were before the diagonal walk and the slot rank
# replaced them.

def position_walk_start(m):
    w, f = 0, 1  # f = (w+1)! <= m < (w+2)!, unless m == 0
    while f * (w + 2) <= m:
        w += 1
        f *= w + 1
    k = m // f  # least bound w(w+1)/2 + k whose count (w+1)!(k+1) exceeds m
    counts = [*range(w, k - 1, -1), *range(k, 0, -1)]
    return w * (w + 1) // 2 + k, counts, f * (k + 1)


def position_unrank_walk(m):
    p, counts, total = position_walk_start(m)
    slots = []
    g, v = cantor_unpair(p)  # the slot one above the walk's first position
    while m:
        p -= 1
        g, v = (g + 1, v - 1) if v else (0, g - 1)
        c = counts[g]
        if not c:
            continue
        total = total // (c + 1) * c
        if m >= total:  # all `total` codes that leave p clear precede m: set p
            m -= total
            slots.append((p, g, v))
            total //= c
            counts[g] = 0
        else:
            counts[g] = c - 1
    return slots


def raw_rank_below(raw, used):
    total = 0
    while raw:
        s = raw.bit_length() - 1
        raw ^= 1 << s
        w = (math.isqrt(8 * s + 1) - 1) // 2
        k = s - w * (w + 1) // 2
        used_factors = 1
        for u in used:
            if u <= w:  # groups past w have no slot below s
                used_factors *= w + 1 - u + (u > w - k)
        total += math.factorial(w + 1) * (k + 1) // used_factors
        if w - k in used:  # slot s is the k-th of diagonal w: group w - k
            break
        used.append(w - k)
    return total


def _factorial_boundary(w, k, delta):
    # (w+1)! k + delta: where the walk's start moves to the next bound
    return max(math.factorial(w + 1) * k + delta, 0)


ORACLE_INDICES = st.one_of(
    st.integers(0, (1 << 20) - 1),  # the pipeline's range
    st.integers(0, 56).flatmap(lambda w: st.builds(
        _factorial_boundary, st.just(w), st.integers(1, w + 1),
        st.sampled_from((-1, 0, 1)))),
    st.integers(0, 10 ** 80))


class TestWalksAgainstOracles:
    @given(ORACLE_INDICES)
    @settings(max_examples=400, deadline=None)
    def test_diagonal_walk_equals_position_walk(self, m):
        slots = position_unrank_walk(m)
        assert codec._unrank_walk(m) == slots
        fn = nth_partial_fn(m)
        assert fn.entries == tuple((*point_decode(g), v) for g, v in
                                   sorted((g, v) for _, g, v in slots))
        raw = sum(1 << p for p, _, _ in slots)
        assert partial_fn_index(fn) == raw_rank_below(raw, []) == m

    def test_run_walk_equals_position_walk_below_50_000(self):
        # every way a run of free groups ends comes up here: a set slot, a
        # used group, the diagonal's end, and m reaching 0 inside the run
        for m in range(50_000):
            assert codec._unrank_walk(m) == position_unrank_walk(m)

    @given(st.integers(1000, 5000).flatmap(
        lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1)))
    @settings(max_examples=10, deadline=None)
    def test_run_walk_equals_position_walk_at_thousands_of_bits(self, m):
        slots = position_unrank_walk(m)
        assert codec._unrank_walk(m) == slots
        assert partial_fn_index(nth_partial_fn(m)) == m

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20),
                              st.integers(0, 1), st.integers(0, 40)),
                    max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_slot_rank_equals_raw_rank(self, entries):
        # functions no walk made: entries clash, so keep the first per point
        points = {}
        for a, b, i, v in entries:
            points.setdefault((a, b, i), v)
        fn = PartialFn.from_entries((*p, v) for p, v in points.items())
        assert partial_fn_index(fn) == raw_rank_below(fn.raw_code, [])

    @given(st.one_of(
        st.integers(0, (1 << 2000) - 1),
        st.lists(st.integers(0, 3000), max_size=40).map(
            lambda bits: sum(1 << b for b in set(bits)))))
    @settings(max_examples=300, deadline=None)
    def test_rank_of_any_raw_code_equals_raw_rank(self, raw):
        # most of these codes are not functional: the count stops at the
        # first repeated group, as before
        assert index_of_raw_code(raw) == raw_rank_below(raw, [])


# nth_partial_fn as it was when a function stored its entries: each of the
# walk's (group, value) pairs turned into (a, b, i, v), one isqrt per entry.

def entry_decode(m):
    entries = []
    for g, v in sorted((g, v) for _, g, v in codec._unrank_walk(m)):
        q = g >> 1
        w = (math.isqrt(8 * q + 1) - 1) // 2
        b = q - w * (w + 1) // 2
        entries.append((w - b, b, g & 1, v))
    return tuple(entries)


class TestPointsAgainstEntryDecode:
    def test_every_index_below_2_16(self):
        for m in range(1 << 16):
            assert nth_partial_fn(m).entries == entry_decode(m)

    def test_factorial_boundaries(self):
        for w in range(41):
            for k in range(1, w + 2):
                for delta in (-1, 0, 1):
                    m = _factorial_boundary(w, k, delta)
                    assert nth_partial_fn(m).entries == entry_decode(m)

    @given(ORACLE_INDICES)
    @settings(max_examples=300, deadline=None)
    def test_sampled_indices(self, m):
        fn = nth_partial_fn(m)
        assert fn.entries == entry_decode(m)
        assert fn.points == tuple((point_code(a, b, i), v)
                                  for a, b, i, v in fn.entries)
        assert fn == PartialFn.from_entries(reversed(fn.entries))


def merge_least_member_extension(probe, members, above, bound, excluded):
    """The member-by-member merge that the leapfrog replaced, as an oracle:
    from the first member on, each member past the current extension asks
    for the least extension at or past it."""
    pairs = codec._slot_pairs(probe)
    e = codec._least_extension(pairs, above, bound, excluded)
    for n in members.to_list():
        if e is not None and n > e:
            e = codec._least_extension(pairs, n - 1, bound, excluded)
        if e is None:
            return None
        if n == e:
            return n
    return None


def _bits_of(mask):
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


class TestMemberSearch:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_next_member_against_bit_scan(self, data):
        # sparse sets have zero runs of many bytes, dense ones have none
        members = data.draw(st.one_of(
            st.lists(st.integers(0, 500), max_size=6),
            st.integers(0, (1 << 501) - 1).map(_bits_of)))
        mask = sum(1 << x for x in set(members))
        if data.draw(st.booleans()):  # the co-finite complement of the set
            mask = ~mask
        view = _member_bytes(mask)
        # inside a byte, on a member, just past one, across runs, and far
        # past the data, where the byte offset must not reach re
        near = [max(m + d, 0) for m in members for d in (-9, -1, 0, 1, 5, 8)]
        x = data.draw(st.one_of(st.integers(0, 520),
                                st.sampled_from(near or [0]),
                                st.integers(len(view) * 8, 10 ** 30)))
        # every bit from the bit length on equals the sign bit
        assert _next_member(view, x) == next(
            (y for y in range(x, max(x, mask.bit_length()) + 1)
             if mask >> y & 1), None)

    def test_next_member_far_past_the_data(self):
        assert [_member_bytes(m) for m in (0, -1, 0x80, ~0x80)] == \
            [b"\x00", b"\xff", b"\x80\x00", b"\x7f\xff"]
        assert _next_member(b"\x00", 0) is None
        assert _next_member(b"\x80\x00", 7) == 7
        assert _next_member(b"\x80\x00", 8) is None
        assert _next_member(b"\x01" + bytes(9) + b"\x02", 1) == 81
        assert _next_member(b"\x01" + bytes(9), 10 ** 30) is None
        # every index outside U = {0, 1, 3}: U's next clear bit inside the
        # data, x itself past it
        view = _member_bytes(~0b1011)
        assert view == b"\xf4"
        assert [_next_member(view, x) for x in (0, 3, 7, 8, 10 ** 30)] == \
            [2, 4, 7, 8, 10 ** 30]
        assert _next_member(b"\xff", 10 ** 30) == 10 ** 30

    @given(st.integers(0, 3000), st.integers(-1, 70_000),
           st.integers(1, 10 ** 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_leapfrog_equals_member_merge(self, probe_idx, above, bound, data):
        # the same answer from the same counting searches, in the same order
        probe = nth_partial_fn(probe_idx)
        n = 1 << 16
        first = least_extension_index(probe, above, bound)
        near = [] if first is None or first >= n else \
            [min(first + d, n - 1) for d in (0, 1, 2, 50, 400)]
        members = FinSet.from_members(n, near + data.draw(st.one_of(
            st.lists(st.integers(0, n - 1), max_size=40),
            st.integers(0, n - 1).map(lambda lo: list(range(lo, n, 3))))))
        excluded = set(data.draw(st.lists(st.sampled_from(near or [0]),
                                          max_size=3)))
        with mock.patch.object(codec, "_least_extension",
                               wraps=codec._least_extension) as spy:
            got = codec._least_member_extension(
                probe, _member_bytes(members.mask), above, bound, excluded)
            leapfrog_calls = list(spy.call_args_list)
            spy.reset_mock()
            expected = merge_least_member_extension(probe, members, above,
                                                    bound, excluded)
            assert got == expected
            assert leapfrog_calls == spy.call_args_list

    def test_one_probe_sort_per_search(self):
        # probe 3's extensions run 3, 9, 27, 33: excluding 3 forces a retry,
        # and the members 10 and 28 make the leapfrog step twice more
        probe = nth_partial_fn(3)
        members = FinSet.from_members(64, [10, 28, 33]).mask
        with mock.patch.object(codec, "_slot_pairs",
                               wraps=codec._slot_pairs) as sorts, \
                mock.patch.object(codec, "_next_extension",
                                  wraps=codec._next_extension) as steps:
            assert least_extension_index(probe, -1, 1 << 20, within=members,
                                         without=[3]) == 33
        assert steps.call_count == 4
        assert sorts.call_count == 1

    def test_searches_never_iterate_a_finset(self, monkeypatch):
        # both searches read the mask's bytes once; listing or walking a
        # 2^20-point set per probe is what they must not do
        n = 1 << 20
        dense = FinSet(n, ((1 << n) - 1) & ~0b10110)
        sparse = FinSet.from_members(n, [9, 40, 41, 700, n - 1])
        probe = nth_partial_fn(40)

        def searches():
            return [check_dense(s.mask, 16, n) for s in (dense, sparse)] + [
                least_extension_index(probe, above, n, within=s.mask)
                for s in (dense, sparse) for above in (-1, 40, 5000)]

        def refuse(self):
            raise AssertionError("a search iterated a FinSet")
        expected = searches()
        monkeypatch.setattr(FinSet, "__iter__", refuse)
        assert searches() == expected


# --- pinned search results ----------------------------------------------------
# Seeded searches of every shape the callers make, hashed.  The digests were
# taken from the search that unranked its bound to find a top slot; the search
# that derives its top from the probe and `above` must return the same values.

def _pinned_probe(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return nth_partial_fn(rng.randrange(3000))
    if kind == 1:
        return nth_partial_fn(rng.randrange(10 ** rng.randint(4, 40)))
    row = rng.choice((rng.randrange(4), rng.randrange(130)))
    entry = (row, rng.randrange(4), rng.randrange(2), rng.randrange(4))
    if kind == 2:
        return PartialFn.from_entries([entry])
    # a small function plus one echo entry in a far row, as a chain makes
    small = nth_partial_fn(rng.randrange(3000))
    return PartialFn.from_entries(list(small.entries)
                                  + [(100 + row % 30, *entry[1:])])


def _pinned_above(rng, bound):
    return rng.choice((-1, rng.randrange(bound), bound - 1,
                       bound + rng.randrange(bound)))


def _pinned_bound(rng):
    return rng.randrange(1, 10 ** rng.randint(1, 80) + 1)


def _digest(results):
    return hashlib.sha256("\n".join(map(repr, results)).encode()).hexdigest()


class TestSearchResultsPinned:
    def test_least_extension_index(self):
        # 4 000 searches: bounds 1..10^80, `above` on both sides of the
        # bound, far-row probes; half inside a member set that holds the
        # first extension and its neighbours, some excluding that extension
        rng = random.Random(20261019)
        results = []
        for _ in range(4000):
            probe, bound = _pinned_probe(rng), _pinned_bound(rng)
            above = _pinned_above(rng, bound)
            first = least_extension_index(probe, above, bound)
            without = set(rng.sample(range(64), rng.randint(0, 8)))
            if first is not None and rng.random() < 0.3:
                without.add(first)
            within = -1
            if rng.random() < 0.5:
                near = [] if first is None or first >= 1 << 16 else \
                    [first] + [min(first + d, (1 << 16) - 1)
                               for d in rng.sample(range(1, 400), 6)]
                within = FinSet.from_members(1 << 16, near + rng.sample(
                    range(1 << 16), rng.randint(0, 30))).mask
            results.append((first, least_extension_index(
                probe, above, bound, within=within, without=without)))
        assert sum(r is not None for pair in results for r in pair) == 1672
        assert _digest(results) == (
            "7b5c5578ed309d1c2dd977c878621fe5e6341adb1e8ce21f38a49644a1fb8631")

    def test_check_dense(self):
        # 300 checks over empty, sparse, dense random and full sets
        rng = random.Random(20261020)
        results = []
        for _ in range(300):
            n = rng.choice((64, 4096, 1 << 16))
            members = rng.choice((
                FinSet(n), FinSet(n, rng.getrandbits(n)), FinSet(n, (1 << n) - 1),
                FinSet.from_members(n, rng.sample(range(n), rng.randint(1, 40)))))
            search_bound = rng.choice((rng.randint(1, n), _pinned_bound(rng)))
            results.append(check_dense(members.mask, rng.randint(1, 24),
                                       search_bound))
        assert sum(rep.ok for rep in results) == 139
        assert _digest(results) == (
            "b56271472d3c899d37ab7fb3c134822172bc04259963ee130a5427c57dc18b7f")

    def test_build_generic(self):
        # 80 folds on grids of up to 130 rows, so that echo entries reach
        # rows whose slots lie past SLOT_LIMIT
        rng = random.Random(20261021)
        results = []
        for _ in range(80):
            n = rng.choice((256, 4096, 1 << 16))
            if rng.random() < 0.5:
                family = bit_family(rng.randint(0, 3), n)
            else:
                family = Family(n, tuple(FinSet(n, rng.getrandbits(n))
                                         for _ in range(rng.randint(0, 3))))
            grid = TargetGrid.random(rng.randint(1, 130), rng.randint(1, 8),
                                     rng.randint(1, 3), rng)
            schedule = auto_schedule(len(family.sets), rng.randint(1, 4))
            if rng.random() < 0.5:  # far probes put chain elements past 100
                sides = [rng.choice(("pos", "neg", None)) for _ in family.sets]
                spec = CombinationSpec(
                    tuple(j for j, s in enumerate(sides) if s == "pos"),
                    tuple(j for j, s in enumerate(sides) if s == "neg"))
                schedule = [Demand(spec, rng.randrange(200), rng.choice((IN, OUT)))
                            for _ in range(rng.randint(1, 6))]
            run = build_generic([family], grid, schedule, rng.randint(1, n))
            results.append((run.condition.elements,
                            [(s.demand, s.witness) for s in run.steps],
                            run.failure_kind, run.failure_detail))
        assert sum(kind is None for _, _, kind, _ in results) == 7
        assert _digest(results) == (
            "035180a22a4c2487612e070767be1426fc9ef36f5d7df5ae0f75cec4050dc2ba")
