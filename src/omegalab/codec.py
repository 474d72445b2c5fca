"""Canonical, bit-exact enumeration of finite partial functions on N x N x {0,1}.

Every partial function from triples (a, b, i) to values v gets one integer
"raw code": each defined entry occupies the bit at slot ``pair(code(a,b,i), v)``
(Cantor pairing throughout), and the raw code is the sum of those bits.  A raw
code is *functional* when no two of its slots name the same triple.  The
enumeration lists the functional raw codes in increasing order; index m in
that list is the m-th partial function.

Ranking, unranking and the least-extension search count instead of scanning
codes.  Slots group by the triple they describe, at most one slot per group
may be set, and the functional codes with all slots below a bit bound number
the product over groups of (1 + the group's slots below it), which is
(w+1)! * (k+1) for the bound w(w+1)/2 + k, 0 <= k <= w.  Unranking walks the
positions below its answer's top slot once, a diagonal at a time: diagonal d
holds slot d - g of each group g <= d, so a free group's slots at or below
it are known, and the product changes by one exact division and
multiplication per free slot: O(bits) big-integer steps.

A PartialFn is stored as its (point code, value) pairs sorted by point code,
the codec's native form: group g of the enumeration is point code g, and its
slot v is the function's value v there.  The engine reads those pairs.
Three views are read from them on first use: the entries (a, b, i, value)
serve JSON, repr and generic.agreements; the slots and the raw code serve
callers outside the engine.
nth_partial_fn keeps the walk's (group, value) pairs and computes no entry;
it does not re-validate them, since the walk yields a functional code by
construction.  Ranking reads the pairs, point code c with value v as slot v
of diagonal c + v, and builds no raw code: k closed-form counts for k
entries, each divided by the factors of the groups used above it, O(k^2)
small steps, k = O(sqrt(bits)).

The least extension of a probe past an index is found in one top-down pass
that walks the index's digits as unranking does and picks the answer's
deviation slot in the same step; its rank is the index less the walk's
remainder there, plus the closed-form counts of the few slots below it.  The
probe's pairs are sorted once per search, and the search bound is compared
only with that rank.  Every search runs within a
member mask: it reads the mask once as its signed little-endian bytes and
leapfrogs its members (each found by a C-level byte search) with the probe's
extensions, so no member is decoded.  A negative mask is co-finite: past its
bytes every index is a member, so -1 (the default) is every index and ~U
every index outside U.
`raw_code_of_index` reads its first 120 960 answers (every code with all
slots below bit 30) from a sorted table built on first use, about 7 MB, so
callers that scan many consecutive small indices pay O(1) per lookup; every
other lookup counts.  Only callers outside the engine build the table.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

# Beyond this slot position a single entry already forces the enumeration
# index past ~2^(10^7); refuse to rank such codes instead of looping forever.
SLOT_LIMIT = 10 ** 7


def cantor_pair(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + b


def cantor_unpair(q: int) -> tuple[int, int]:
    w = (math.isqrt(8 * q + 1) - 1) // 2
    b = q - w * (w + 1) // 2
    return w - b, b


def point_code(a: int, b: int, i: int) -> int:
    return 2 * cantor_pair(a, b) + i


def _check_slot(slot: int) -> None:
    if slot > SLOT_LIMIT:
        raise ValueError("entry slot exceeds the representable range "
                         f"(slot {slot} > {SLOT_LIMIT})")


@dataclass(frozen=True, repr=False)
class PartialFn:
    """A finite partial function, stored as its (point code, value) pairs
    sorted by point code; its entries (a, b, i, value) come in that order."""

    points: tuple[tuple[int, int], ...]

    @classmethod
    def from_entries(cls, entries: Iterable[Sequence[int]]) -> "PartialFn":
        points: dict[int, int] = {}  # point code -> value
        for e in entries:
            a, b, i, v = e  # ints, not bools, as jsonio reads them
            if (any(not isinstance(x, int) or isinstance(x, bool) for x in e)
                    or a < 0 or b < 0 or v < 0 or i not in (0, 1)):
                raise ValueError(f"bad entry {(a, b, i, v)}")
            code = point_code(a, b, i)
            if code in points:
                raise ValueError(f"two values for point {(a, b, i)}")
            points[code] = v
        return cls(tuple(sorted(points.items())))

    @cached_property
    def entries(self) -> tuple[tuple[int, int, int, int], ...]:
        """(a, b, i, value) per point: code c is point_code's inverse,
        (a, b) = cantor_unpair(c >> 1) and i = c & 1."""
        return tuple((*cantor_unpair(c >> 1), c & 1, v) for c, v in self.points)

    def __repr__(self) -> str:
        return f"PartialFn(entries={self.entries!r})"

    @cached_property
    def slots(self) -> tuple[int, ...]:
        return tuple(sorted(cantor_pair(c, v) for c, v in self.points))

    @cached_property
    def raw_code(self) -> int:
        if self.points:
            _check_slot(self.slots[-1])
        code = 0
        for s in self.slots:
            code |= 1 << s
        return code

    def extends(self, smaller: "PartialFn") -> bool:
        """True when every entry of `smaller` appears identically here."""
        return set(smaller.points) <= set(self.points)

    def __len__(self) -> int:
        return len(self.points)


EMPTY_FN = PartialFn(())


# --- counting machinery -----------------------------------------------------

def _diagonal(bound: int) -> tuple[int, int]:
    """(w, k) with bound = w(w+1)/2 + k, 0 <= k <= w: the slots below bound
    fill diagonals 0..w-1 and the first k slots of diagonal w."""
    w = (math.isqrt(8 * bound + 1) - 1) // 2
    return w, bound - w * (w + 1) // 2


def count_functional_below(bit_bound: int) -> int:
    """Functional raw codes whose slots all lie below bit_bound."""
    w, k = _diagonal(max(bit_bound, 0))
    return math.factorial(w + 1) * (k + 1)


def _walk_start(m: int) -> tuple[int, int, int]:
    """(w, k, total) before the walk of the m-th code, m >= 0: the least
    bound w(w+1)/2 + k, 0 <= k <= w + 1, whose count total = (w+1)!(k+1)
    exceeds m, which is the code's bit length."""
    w, f = 0, 1  # f = (w+1)! <= m < (w+2)!, unless m == 0
    while f * (w + 2) <= m:
        w += 1
        f *= w + 1
    k = m // f
    return w, k, f * (k + 1)


def _unrank_walk(m: int) -> list[tuple[int, int, int]]:
    """(position, group, value) of each slot of the m-th functional code, top
    down, by one walk of the positions below its bit length, a diagonal at a
    time: diagonal d holds group g's slot (g, d - g) at position
    d(d+3)/2 - g, from g = 0 at its top.  `total` counts the functional codes
    with all slots below the walk's position and no group used yet; a free
    group meets its slot (g, v) with v + 1 slots at or below it, so passing
    the slot turns its factor v + 2 of that product into v + 1."""
    if m < 0:
        raise ValueError("index must be >= 0")
    w, k, total = _walk_start(m)
    slots: list[tuple[int, int, int]] = []
    used = set()
    first = w - k + 1  # diagonal w is walked below the bound only
    for d in range(w, -1, -1):
        for g in range(first, d + 1):
            if g in used:
                continue
            v = d - g
            total = total // (v + 2) * (v + 1)
            if m >= total:  # the `total` codes leaving the slot clear precede m
                m -= total
                slots.append((d * (d + 3) // 2 - g, g, v))
                if not m:
                    return slots
                total //= v + 1
                used.add(g)
        first = 0
    return slots


def _unrank(m: int) -> int:
    """Raw code of the m-th functional code."""
    raw = 0
    for p, _, _ in _unrank_walk(m):
        raw |= 1 << p
    return raw


# --- sorted table of the initial segment -------------------------------------

_SEGMENT_BITS = 30


def _build_cache(bits: int) -> list[int]:
    values = [0]
    w, k = _diagonal(bits)
    for q in range(w + 1):
        # group q's slots below bits: one per full diagonal from q up, one
        # more on diagonal w if q > w - k
        count = w - q + (q > w - k)
        opts = [0] + [1 << cantor_pair(q, v) for v in range(count)]
        values = [base + o for base in values for o in opts]
    values.sort()
    return values


@cache
def _segment() -> list[int]:
    """Every functional code with all slots below bit 30, ascending, so that
    scans over consecutive small indices do not pay one walk per index."""
    return _build_cache(_SEGMENT_BITS)


_SEGMENT_SIZE = count_functional_below(_SEGMENT_BITS)  # 120 960


def raw_code_of_index(m: int) -> int:
    """Raw code of the m-th partial function (ascending raw order)."""
    if 0 <= m < _SEGMENT_SIZE:
        return _segment()[m]
    return _unrank(m)


def index_of_raw_code(raw: int) -> int:
    """Count of functional raw codes strictly below `raw`.

    For a functional `raw` this is exactly its enumeration index.  A
    non-functional `raw` stops at its first repeated group (_rank_below).
    """
    if raw < 0:
        raise ValueError("raw codes are non-negative")
    if raw.bit_length() - 1 > SLOT_LIMIT:
        raise ValueError(
            f"raw code has a slot beyond {SLOT_LIMIT}; its index is "
            "astronomically large and not representable here")
    return _rank_below(_raw_pairs(raw), [])


def _raw_pairs(raw: int) -> Iterator[tuple[int, int]]:
    """(diagonal, offset) of each set bit of raw, top down."""
    while raw:
        s = raw.bit_length() - 1
        raw ^= 1 << s
        yield _diagonal(s)


def _slot_pairs(fn: PartialFn) -> list[tuple[int, int]]:
    """(diagonal, offset) of each of fn's slots, top down: point code c with
    value v is slot v of diagonal c + v."""
    return sorted(((c + v, v) for c, v in fn.points), reverse=True)


def _rank_below(pairs: Iterable[tuple[int, int]], used: list[int]) -> int:
    """Count of the functional codes below the code whose slots are `pairs`,
    (diagonal, offset) top down, when the groups in `used` (extended in
    place) are taken by slots above them all: per slot k of diagonal w, of
    group w - k, the (w+1)!(k+1) codes below it over the factors of the used
    groups.  It stops at a group used twice."""
    total = 0
    for w, k in pairs:
        used_factors = 1
        for u in used:
            if u <= w:  # groups past w have no slot below this one
                used_factors *= w + 1 - u + (u > w - k)
        total += math.factorial(w + 1) * (k + 1) // used_factors
        if w - k in used:
            break
        used.append(w - k)
    return total


def nth_partial_fn(m: int) -> PartialFn:
    """The m-th partial function in the canonical enumeration, built straight
    from the walk: its groups are distinct point codes, so the walk's (group,
    value) pairs sorted by group are the function's points, and nothing needs
    checking again."""
    return PartialFn(tuple(sorted([(g, v) for _, g, v in _unrank_walk(m)])))


def partial_fn_index(fn: PartialFn) -> int:
    """Inverse of nth_partial_fn, ranked from fn's slots.  Refuses, like
    `PartialFn.raw_code`, a function with an entry slot past SLOT_LIMIT."""
    pairs = _slot_pairs(fn)
    if pairs:
        d, v = pairs[0]
        _check_slot(d * (d + 1) // 2 + v)
    return _rank_below(pairs, [])


# --- density and extension search --------------------------------------------

class DenseReport(NamedTuple):
    ok: bool
    missing_probe: Optional[int]
    probe_bound: int
    search_bound: int


def check_dense(within: int, probe_bound: int, search_bound: int) -> DenseReport:
    """Does every probe index m < probe_bound have an extension witness among
    the members of the mask `within` below search_bound?

    A witness for m is any member n < search_bound whose partial function
    extends the m-th one.  A negative `within` is co-finite, as in
    least_extension_index.  Reports the least unwitnessed probe.
    """
    if probe_bound < 1 or search_bound < 1:
        raise ValueError("bounds must be >= 1")
    data = _member_bytes(within)
    for m in range(probe_bound):
        if m < search_bound and _next_member(data, m) == m:
            continue  # a function extends itself
        if _least_member_extension(nth_partial_fn(m), data, -1,
                                   search_bound, set()) is None:
            return DenseReport(False, m, probe_bound, search_bound)
    return DenseReport(True, None, probe_bound, search_bound)


def least_extension_index(probe: PartialFn, above: int, search_bound: int,
                          within: int = -1,
                          without: Iterable[int] = ()) -> Optional[int]:
    """Smallest index n with above < n < search_bound whose function extends
    `probe`, among the members of the mask `within` and avoiding `without`.
    A negative `within` holds every index past its bits: -1 is every index,
    ~U every index outside U.

    Returns None when no such index exists below the bound.
    """
    if search_bound < 1:
        raise ValueError("search bound must be >= 1")
    return _least_member_extension(probe, _member_bytes(within), above,
                                   search_bound, set(without))


def _least_extension(pairs: list[tuple[int, int]], above: int,
                     search_bound: int, excluded: set[int]) -> Optional[int]:
    """The counting search of least_extension_index, every index a member,
    for the probe whose slots are `pairs` (its _slot_pairs)."""
    if above >= search_bound - 1:
        return None  # no index lies strictly between the two
    if not pairs:
        n = above + 1 if above >= 0 else 0
        while n in excluded:
            n += 1
        return n if n < search_bound else None

    # every code holding the probe's top slot, slot k of diagonal w, ranks
    # after the (w+1)!(k+1) codes with all slots below it; (w+1)! >= 2^w
    # settles a large w without the factorial
    w, k = pairs[0]
    if (w >= search_bound.bit_length()
            or math.factorial(w + 1) * (k + 1) >= search_bound):
        return None
    n = _next_extension(pairs, above)
    while n < search_bound and n in excluded:
        n = _next_extension(pairs, n)
    return n if n < search_bound else None


def _next_extension(pairs: list[tuple[int, int]], above: int) -> int:
    """Index of the least code past the `above`-th code `low` that holds the
    probe's slots `pairs` (its _slot_pairs, top down), by one top-down walk
    of `low`'s digits, a diagonal at a time as in _unrank_walk.

    The answer agrees with `low` above its lowest admissible slot `best`,
    sets it, and below it holds only the probe's slots.  A slot is
    admissible when `low` has it clear and its group is used neither by
    `low` above it (`kept`) nor by the probe below it (`rest`, the probe's
    value of each such group); the first slot at or past `low`'s bit length
    whose group is not in `rest` is.  The walk stops at the first probe slot
    that `low` lacks, or at a slot of `low` whose group the probe uses lower
    down.  The walk's remainder r at `best` counts the codes below `low`
    that agree with it above `best`, so the answer ranks at above - r plus
    the counts of `best` and of the probe's slots below it.
    """
    if above < 0:
        return _rank_below(pairs, [])
    w, k, total = _walk_start(above)
    if pairs[0] >= (w, k):  # the probe lies above `low`: it is the answer
        return _rank_below(pairs, [])
    rest = {d - v: v for d, v in pairs}
    d, v = (w, k) if k <= w else (w + 1, 0)
    while d - v in rest:
        d, v = (d, v + 1) if v < d else (d + 1, 0)
    best, r, m, kept, used = (d, v), above, above, [], 0
    first = w - k + 1
    for d in range(w, -1, -1):
        for g in range(first, d + 1):
            v = d - g
            in_probe = rest.get(g) == v
            if in_probe:
                del rest[g]
            free = g not in kept
            # a free group counts its slot, also once the walk (m) has ended
            if free and m:
                total = total // (v + 2) * (v + 1)
                if m >= total:  # `low` holds slot (d, v)
                    m -= total
                    total //= v + 1
                    if g in rest:
                        break
                    kept.append(g)
                    continue
            if free and (in_probe or g not in rest):
                best, r, used = (d, v), m, len(kept)
            if in_probe:
                break
        else:
            first = 0
            continue
        break  # the walk stopped inside diagonal d
    return above - r + _rank_below([best, *(q for q in pairs if q < best)],
                                   kept[:used])


def _least_member_extension(probe: PartialFn, data: bytes,
                            above: int, search_bound: int,
                            excluded: set[int]) -> Optional[int]:
    """Least member n of `data` (a mask's `_member_bytes`), above < n <
    search_bound and not excluded, whose function extends `probe`.  A
    leapfrog: from extension e to the least member n >= e, and from n != e
    to the least extension >= n by one counting search.  The probe's slots
    are sorted once, for every step."""
    pairs = _slot_pairs(probe)
    e = _least_extension(pairs, above, search_bound, excluded)
    while e is not None:
        n = _next_member(data, e)
        if n is None or n == e:
            return n
        e = _least_extension(pairs, n - 1, search_bound, excluded)
    return None


def _member_bytes(mask: int) -> bytes:
    """The mask's signed little-endian bytes: the top byte's sign bit says
    whether every index past them is a member."""
    return mask.to_bytes(mask.bit_length() // 8 + 1, "little", signed=True)


_NONZERO_BYTE = re.compile(rb"[^\x00]")


def _next_member(data: bytes, x: int) -> Optional[int]:
    """Least member at or past x >= 0 of `data`, where member x is bit x & 7
    of byte x >> 3: x's own byte, then the next nonzero byte by one C-level
    search that copies nothing.  Past the data the top byte's sign bit
    decides: every x is a member of a negative mask and none of a
    non-negative one.  Inside it, a negative mask's nonzero top byte stops
    the search, so None means no member at all."""
    i = x >> 3
    if i >= len(data):  # also keeps a huge x away from re's offset
        return x if data[-1] >> 7 else None
    byte = data[i] >> (x & 7) << (x & 7)
    if not byte:
        found = _NONZERO_BYTE.search(data, i + 1)
        if found is None:
            return None
        i, byte = found.start(), found[0][0]
    return (i << 3) + (byte & -byte).bit_length() - 1
