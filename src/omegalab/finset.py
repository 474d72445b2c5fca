"""Bounded-universe sets, set families, and exhaustive combination checks.

Sets over the universe {0..n-1} are stored as integer bitmasks, which keeps
intersections and complements cheap even for universes of a million points.
A check that builds the whole universe, as one mask (full_mask) or as one
column per point (is_saturated), first passes _check_universe, which refuses
universes past MAX_UNIVERSE (2^26 points, 8 MiB as a mask) with a ValueError
instead of asking for memory the input does not need.

Combination sets come from one scan, combination_masks: a pre-order
depth-first walk from -1 over (pos, neg), in which each combination is one
big-int AND of its parent's mask with a set or its complement ~mask: no
universe is built, and a combination with no pos set is co-finite.  A family
of k sets has sum_{j<=d} C(k,j)*2^j combinations of depth <= d
(count_combinations).  combination_specs and is_saturated run the same
walk: is_saturated over the points, each read as the k-bit set of the
family members holding it.  Only generic.check_all_combos_dense needs the
sets themselves.

The size checks (is_independent, min_combination_size) need only sizes, so
they AND intersections, not combinations: the same prefix walk gives
|A_T| = |intersection of the sets indexed by T| for each of the
sum_{j<=d} C(k,j) index sets T with |T| <= d (|A_()| = n, with no mask of
the universe built), keyed by T as a bitmask carried down the walk, and
each combination's size follows by subtraction,
|P, Q + x| = |P, Q| - |P + x, Q|: a Moebius butterfly over the 2^|T|
splits of T into pos and neg (Knuth, TAOCP 4A, 7.1.3).  The butterfly runs
on columns, not on one T at a time: for a block of index sets, each of the
2^d split positions is one column over the block, and each subset-key OR,
size lookup and subtraction pass is one C-level map over whole columns.
A block holds at most _SPLIT_VALUES sizes, so memory does not grow with
C(k,d)*2^d.  They read n only as |A_()|, so they answer at any universe
size.

The non-empty cells of k sets (the atoms of the Boolean algebra they
generate) come from one cut, cells: each set splits every block so far into
its outside and inside halves, and empty halves are dropped, so at most
min(2^k, |full|) blocks are ever held and the cut costs
O(k * min(2^k, |full|)) ANDs; this is the partition-refinement step
(Paige and Tarjan, SIAM J. Comput. 16(6), 1987).  The size checks do not
use it: their intersection walk is cheaper than a histogram of cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress, islice
from math import comb
from operator import or_, sub
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence


# The largest universe a check builds whole: 2^26 points, an 8 MiB mask.
# Sets and families may be larger, as long as no check needs the whole
# universe at once (a chain search over a sparse family does not).
MAX_UNIVERSE = 1 << 26


def _check_universe(n: int) -> None:
    """Refuse a universe past MAX_UNIVERSE, before a check builds it whole."""
    if n > MAX_UNIVERSE:
        raise ValueError(f"universe of {n} points is past the cap of "
                         f"{MAX_UNIVERSE} for checks that build it whole")


def full_mask(n: int) -> int:
    """The mask of the whole universe {0..n-1}, refused past MAX_UNIVERSE."""
    _check_universe(n)
    return (1 << n) - 1


# the base-2 digit characters "0" and "1" as the bytes 0 and 1
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


# Masks of up to 2126 bits have at most 640 decimal digits, below the least
# int/str limit Python lets a process set; a repr gives larger ones in hex,
# which the limit exempts, so it never raises.
_DECIMAL_MASK_BITS = 2126


@dataclass(frozen=True, repr=False)
class FinSet:
    """A subset of {0..n-1}, canonically represented by its bitmask."""

    n: int
    mask: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("universe size must be >= 1")
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError("set members must lie in [0, n)")

    def __repr__(self) -> str:
        mask = self.mask
        shown = mask if mask.bit_length() <= _DECIMAL_MASK_BITS else hex(mask)
        return f"FinSet(n={self.n}, mask={shown})"

    @classmethod
    def from_members(cls, n: int, members: Iterable[int]) -> "FinSet":
        """The set of the given members, in any order, repeats allowed.

        Linear in the largest member: the bits go into a byte buffer that
        ends at that member's byte, read as one integer at the end (ORing
        1 << x per member would copy the growing mask each time).  Every
        member is checked first: a negative one would index the buffer from
        its end, and one at or past MAX_UNIVERSE would ask for a mask past
        8 MiB, so it is refused before the buffer is made.
        """
        members = list(members)
        for x in members:
            if not 0 <= x < n:
                raise ValueError(f"member {x} outside universe of size {n}")
        top = max(members, default=-1)
        if top >= MAX_UNIVERSE:
            raise ValueError(f"member {top} is past the cap of {MAX_UNIVERSE} "
                             f"on a set's mask")
        buf = bytearray((top >> 3) + 1)
        for x in members:
            buf[x >> 3] |= 1 << (x & 7)
        return cls(n, int.from_bytes(buf, "little"))

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_list())

    def to_list(self) -> list[int]:
        """The members in ascending order, in one C-level pass: the mask's
        base-2 digits, lowest first, select from range() via compress."""
        sel = format(self.mask, "b")[::-1].encode().translate(_DIGIT_FLAGS)
        return list(compress(range(len(sel)), sel))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, x: int) -> bool:
        return 0 <= x < self.n and (self.mask >> x) & 1 == 1


@dataclass(frozen=True)
class Family:
    """An ordered, optionally labelled list of sets over one universe."""

    n: int
    sets: tuple[FinSet, ...]
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("universe size must be >= 1")
        for s in self.sets:
            if s.n != self.n:
                raise ValueError("family member lives in a different universe")
        if self.labels is not None and len(self.labels) != len(self.sets):
            raise ValueError("labels must match sets one to one")

    def __len__(self) -> int:
        return len(self.sets)

    def sets_at(self, indices: Sequence[int]) -> list[FinSet]:
        """The sets at the given indices, refusing any out of range."""
        count = len(self.sets)
        for idx in indices:
            if not 0 <= idx < count:
                raise ValueError(f"index {idx} out of range for family of "
                                 f"{count} sets")
        return [self.sets[idx] for idx in indices]


@dataclass(frozen=True)
class CombinationSpec:
    """Which family members enter a combination positively / complemented."""

    pos: tuple[int, ...] = ()
    neg: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "pos", tuple(sorted(self.pos)))
        object.__setattr__(self, "neg", tuple(sorted(self.neg)))
        if len(set(self.pos)) != len(self.pos) or len(set(self.neg)) != len(self.neg):
            raise ValueError("repeated index in combination spec")
        if set(self.pos) & set(self.neg):
            raise ValueError("pos and neg must be disjoint")

    @property
    def depth(self) -> int:
        return len(self.pos) + len(self.neg)


class IndependenceReport(NamedTuple):
    ok: bool
    failing: Optional[CombinationSpec]
    size_found: int
    threshold: int
    depth: int


class SaturationReport(NamedTuple):
    ok: bool
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]]
    bound: int


def combination_mask(family: Family, spec: CombinationSpec) -> int:
    """The mask of the pos-indexed sets intersected with the complements of
    the neg-indexed ones, with no universe: one AND walk from -1, so the
    empty spec gives -1 (every index) and a neg-only spec a negative,
    co-finite mask.  Its size follows the sets, not n."""
    pos, neg = family.sets_at(spec.pos), family.sets_at(spec.neg)
    mask = -1
    for s in pos:
        mask &= s.mask
    for s in neg:
        mask &= ~s.mask
    return mask


def boolean_combination(family: Family, spec: CombinationSpec) -> FinSet:
    """Intersect the pos-indexed sets with the complements of the neg-indexed ones.

    The empty spec yields the full universe.
    """
    mask = combination_mask(family, spec)
    return FinSet(family.n, mask & full_mask(family.n))


def _prefix_masks(pool: Sequence[int], table: Sequence[int], base: int,
                  max_len: int, chosen: list[int]) -> Iterator[int]:
    # ascending tuples over pool in lexicographic pre-order, () first, as
    # base AND table[i] over their members; `chosen` holds the tuple while
    # its mask is out, and each mask is one AND off its parent's
    yield base
    prefix = [base]
    at: list[int] = []  # positions in pool of the chosen members
    j = 0
    while True:
        if j < len(pool) and len(at) < max_len:
            prefix.append(prefix[-1] & table[pool[j]])
            at.append(j)
            chosen.append(pool[j])
            yield prefix[-1]
            j += 1
        elif at:
            j = at.pop() + 1
            chosen.pop()
            prefix.pop()
        else:
            return


def _combinations(masks: Sequence[int], full: int, depth: int
                  ) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    # (full AND masks[pos] AND complements[neg], pos, neg) of every disjoint
    # pos, neg with |pos|+|neg| <= depth, pos-major in lexicographic order:
    # the pos tuples over all indices, under each the neg tuples over the rest
    if depth < 0:
        raise ValueError("depth must be >= 0")
    complements = [full ^ m for m in masks]
    indices = range(len(masks))
    pos: list[int] = []
    neg: list[int] = []
    for pos_mask in _prefix_masks(indices, masks, full, depth, pos):
        rest = [i for i in indices if i not in pos]
        pos_t = tuple(pos)
        for mask in _prefix_masks(rest, complements, pos_mask,
                                  depth - len(pos), neg):
            yield mask, pos_t, tuple(neg)


def cells(masks: Sequence[int], full: int) -> list[tuple[int, int]]:
    """(signature, mask) of every non-empty cell the masks cut `full` into,
    in ascending signature order; bit t of a signature is membership in
    masks[t].

    Each mask splits every block into its outside half and its inside half,
    outside halves first, which keeps the signatures ascending, and empty
    halves are dropped: at most min(2^t, |full|) blocks meet the t-th mask.
    """
    blocks = [(0, full)] if full else []
    for t, m in enumerate(masks):
        outside = ~m
        halves = ([(sig, b & outside) for sig, b in blocks]
                  + [(sig | 1 << t, b & m) for sig, b in blocks])
        blocks = [(sig, b) for sig, b in halves if b]
    return blocks


def combination_specs(count: int, depth: int) -> Iterator[CombinationSpec]:
    """All disjoint (pos, neg) index pairs with |pos|+|neg| <= depth.

    Enumerated pos-major in lexicographic tuple order, so the first failing
    spec a scan reports is the lexicographically least one.
    """
    for _, pos, neg in _combinations([0] * count, 0, depth):
        yield CombinationSpec(pos, neg)


def count_combinations(count: int, depth: int) -> int:
    """How many specs combination_specs(count, depth) lists: each of the
    C(count, j) index sets of size j <= depth splits into pos and neg in 2^j
    ways."""
    return sum(comb(count, j) << j for j in range(min(count, depth) + 1))


def combination_masks(family: Family, depth: int
                      ) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """(mask, pos, neg) of every combination of depth <= `depth`, in the
    order of combination_specs, so the first failure a scan meets is the
    lexicographically least.  Each mask is combination_mask(family, spec),
    with no universe: co-finite (negative) when no set enters positively.

    One pre-order walk from -1: the pos tuples over the sets, and under each
    the neg tuples over the remaining sets against precomputed complements.
    """
    return _combinations([s.mask for s in family.sets], -1, depth)


def _check_depth(family: Family, depth: int) -> None:
    if not 0 <= depth <= len(family.sets):
        raise ValueError("depth must lie in [0, number of sets]")


def _intersection_sizes(family: Family, depth: int) -> dict[int, int]:
    # |A_T| for every index set T with |T| <= depth, keyed by T as a bitmask
    # over the family's indices
    _check_depth(family, depth)
    masks = [s.mask for s in family.sets]
    chosen: list[int] = []
    key_of = [0]  # key_of[j]: the key of chosen[:j], carried down the walk
    sizes: dict[int, int] = {}
    for mask in _prefix_masks(range(len(masks)), masks, -1, depth, chosen):
        j = len(chosen)
        if j:  # the walk moved to a child of chosen[:j - 1]
            del key_of[j:]
            key_of.append(key_of[-1] | 1 << chosen[-1])
        sizes[key_of[j]] = mask.bit_count()
    # base -1 ANDs to each set unchanged; the empty T's size is n itself
    sizes[0] = family.n
    return sizes


# the most split sizes one block of index sets holds at a time
_SPLIT_VALUES = 1 << 14


def _block_splits(sizes: dict[int, int], block: Sequence[tuple[int, ...]]
                  ) -> list[list[int]]:
    """For a block of index sets T of one size d, each an ascending tuple,
    the sizes of the 2^d combinations (P, T - P) of every T: column s holds,
    per T, the split whose bit i puts T's i-th least index in P.

    Each step is one C-level map over a whole column: the subset keys of
    split s OR T's index bits into the key of s without its top bit, their
    |A_P| are dict lookups, and one index x of T at a time the butterfly
    takes |P, Q + x| = |P, Q| - |P + x, Q| for each P without x: a pass
    pairs each even column s with s + 1, then moves s's lowest bit to the
    top, so after d passes every bit was lowest once and the layout is back.
    """
    keys = [[0] * len(block)]  # in order of s
    for column in zip(*block):
        bits = list(map((1).__lshift__, column))
        keys += [list(map(or_, key, bits)) for key in keys]
    split = [list(map(sizes.__getitem__, key)) for key in keys]
    del keys  # freed before the passes copy the block's sizes
    for _ in block[0]:  # one pass per index x of T
        with_x = split[1::2]
        split = [list(map(sub, a, b)) for a, b in zip(split[0::2], with_x)] \
            + with_x
    return split


def _least_size(sizes: dict[int, int], count: int, depth: int) -> int:
    # only the index sets of exactly `depth` members need splitting: a
    # combination of lower depth is the disjoint union of its two extensions
    # by any further index, so it is never smaller than they are.  They are
    # split a block at a time, _SPLIT_VALUES sizes a block, so memory does
    # not grow with their number
    index_sets = combinations(range(count), depth)
    per_block = max(1, _SPLIT_VALUES >> depth)
    blocks = iter(lambda: list(islice(index_sets, per_block)), [])
    return min(min(map(min, _block_splits(sizes, block))) for block in blocks)


def is_independent(family: Family, threshold: int, depth: int) -> IndependenceReport:
    """Does every combination of up to `depth` sets have >= `threshold` members?

    On failure the report carries the lexicographically least failing spec
    (pos-major, the order of combination_specs) and its size; on success,
    the smallest combination size.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    sizes = _intersection_sizes(family, depth)
    smallest = _least_size(sizes, len(family.sets), depth)
    if smallest >= threshold:
        return IndependenceReport(True, None, smallest, threshold, depth)
    # the least failing spec: walk combination_specs' order, each (pos, neg)
    # read as split s of T = pos + neg, T's splits taken on first need as a
    # block of one
    split_of: dict[tuple[int, ...], list[list[int]]] = {}
    for _, pos, neg in _combinations([0] * len(family.sets), 0, depth):
        members = tuple(sorted(pos + neg))
        if members not in split_of:
            split_of[members] = _block_splits(sizes, [members])
        size = split_of[members][sum(1 << k for k, i in enumerate(members)
                                     if i in pos)][0]
        if size < threshold:
            break  # reached: the least size is below the threshold
    return IndependenceReport(False, CombinationSpec(pos, neg), size,
                              threshold, depth)


def min_combination_size(family: Family, depth: int) -> int:
    """Smallest combination size over all specs of depth <= `depth`."""
    return _least_size(_intersection_sizes(family, depth), len(family.sets),
                       depth)


def is_saturated(family: Family, bound: int) -> SaturationReport:
    """Can every small demand (p inside, q outside) be met by some member?

    Checks all disjoint point sets p, q with 1 <= |p|+|q| <= bound: some member
    A must satisfy p <= A and A & q = 0.  bound = 0 demands nothing.  The
    witness, when present, is the lexicographically least failing (p, q).
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    _check_universe(family.n)
    # read each point as the set of family indices whose set holds it: a
    # demand (p, q) is met iff the combination (pos p, neg q) of these
    # columns is non-empty
    columns = [0] * family.n
    for i, s in enumerate(family.sets):
        for x in s:
            columns[x] |= 1 << i
    for mask, p, q in _combinations(columns, (1 << len(family.sets)) - 1, bound):
        if not mask and (p or q):
            return SaturationReport(False, (p, q), bound)
    return SaturationReport(True, None, bound)


def bit_family(k: int, n: int) -> Family:
    """The family [A_0..A_{k-1}] over {0..n-1} with A_j = {x : bit j of x set}."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if n < 1 or k >= n.bit_length():  # 2^k <= n, without building 2^k
        raise ValueError(f"bit_family needs 2^k <= n, got k={k}, n={n}")
    universe = full_mask(n)
    sets = []
    for j in range(k):
        block = 1 << j
        period = block * 2
        # one period of the pattern (high half set), replicated across n bits
        unit = ((1 << block) - 1) << block
        reps = (n + period - 1) // period
        repunit = ((1 << (period * reps)) - 1) // ((1 << period) - 1)
        sets.append(FinSet(n, (unit * repunit) & universe))
    return Family(n, tuple(sets), tuple(f"bit{j}" for j in range(k)))
