"""Extending partial data to full permutations of a bounded universe.

A finite family of sets cuts the universe into cells ("atoms").  A partial
map g on family indices induces a map on those cells; a partial injection f
on points is *compatible* with g when it sends each point's cell to the
image cell.  atoms_of takes the non-empty cells of dom(g)'s sets, and of
their images, from finset.cells: O(|g| * min(2^|g|, N)) ANDs of N-bit
masks, however many of the 2^|g| signatures are empty.  build_permutation
completes such a pair to a full permutation, filling each cell with an
order bijection twisted by a per-cell shuffle.  A Permutation holds its
image tuple and its inverse, both from the one O(n) pass that checks it.
find_independent_shuffle draws shuffles until the family, closed under
the completed permutation's forward and backward images, stays independent.
Sets are imaged a front at a time, in C-level passes with no Python loop
over points: up to eight sets share one byte per point, holding each set's
base-2 digit for that point in its own bit, and one itemgetter over the
preimage table moves every byte at once, so a front of K sets costs
ceil(K/8) gathers.  Each attempt of the search draws its cell shuffles from
batched 32-bit words of random.shuffle's stream and takes the closure's
least combination size once.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .codec import _is_int
from .errors import (CardinalityMismatch, IncompatiblePair,
                     InducedMapNotPermutation)
from .finset import (Family, FinSet, IndependenceReport, cells, full_mask,
                     min_combination_size)


def _check_pairs(pairs: Sequence[tuple[int, int]], what: str) -> tuple[tuple[int, int], ...]:
    if not all(_is_int(x) for pair in pairs for x in pair):
        raise ValueError(f"{what} members must be integers")
    ordered = tuple(sorted((a, b) for a, b in pairs))
    sources = [a for a, _ in ordered]
    targets = [b for _, b in ordered]
    if len(set(sources)) != len(sources):
        raise ValueError(f"{what} maps some source twice")
    if len(set(targets)) != len(targets):
        raise ValueError(f"{what} is not injective")
    return ordered


@dataclass(frozen=True)
class PartialInjection:
    """Finitely many point pairs (x, y), injective, inside [0, n), sorted."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 1:
            raise ValueError("universe size must be an integer >= 1")
        ordered = _check_pairs(self.pairs, "partial injection")
        for a, b in ordered:
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"pair {(a, b)} leaves the universe [0, {self.n})")
        object.__setattr__(self, "pairs", ordered)

    @classmethod
    def empty(cls, n: int) -> "PartialInjection":
        return cls(n, ())


@dataclass(frozen=True)
class FamilyMap:
    """An injective partial map on family indices, as its sorted pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        ordered = _check_pairs(self.pairs, "family map")
        if any(a < 0 or b < 0 for a, b in ordered):
            raise ValueError("family indices must be >= 0")
        object.__setattr__(self, "pairs", ordered)

    @classmethod
    def from_dict(cls, mapping: dict[int, int]) -> "FamilyMap":
        return cls(tuple(mapping.items()))


class AtomDecomposition(NamedTuple):
    """The nonempty cells cut by the sets g touches, in signature order.

    signatures[k] has bit j set when cell k lies inside the set indexed by
    the j-th domain element of g; action[k] is the position of the cell the
    induced map sends cell k to.
    """

    n: int
    atoms: tuple[FinSet, ...]
    signatures: tuple[int, ...]
    action: tuple[int, ...]


def atoms_of(g: FamilyMap, family: Family) -> AtomDecomposition:
    """Cut the universe by the sets named in dom(g) and read off how g moves
    the cells; raises InducedMapNotPermutation when the moved cells do not
    line up with the decomposition.

    The image cut is the same cut of the sets named in ran(g), so an image
    cell shares its source cell's signature.  Image cells of distinct
    signatures are disjoint, so once each is a cell of the decomposition the
    induced map is a bijection.
    """
    count = len(family.sets)
    # FamilyMap keeps every index >= 0
    if any(j >= count or j2 >= count for j, j2 in g.pairs):
        raise ValueError(f"family map touches index outside [0, {count})")
    full = full_mask(family.n)
    cut = cells([family.sets[j].mask for j, _ in g.pairs], full)
    image_of = dict(cells([family.sets[j2].mask for _, j2 in g.pairs], full))
    position = {mask: k for k, (_, mask) in enumerate(cut)}
    action = []
    for sig, _ in cut:
        k2 = position.get(image_of.get(sig))
        if k2 is None:
            raise InducedMapNotPermutation(
                f"image of the cell with signature {sig} is not a cell of "
                f"the decomposition")
        action.append(k2)
    atoms = tuple(FinSet(family.n, mask) for _, mask in cut)
    return AtomDecomposition(family.n, atoms, tuple(sig for sig, _ in cut),
                             tuple(action))


class CompatibilityReport(NamedTuple):
    ok: bool
    witness: Optional[tuple[int, int]]  # (point, family index) that disagree


def _compatibility(f: PartialInjection, g: FamilyMap, family: Family
                   ) -> tuple[AtomDecomposition, int, int,
                              Optional[tuple[int, int]]]:
    """g's decomposition, dom(f) and ran(f) as masks, and the least witness
    of f disagreeing with g.

    Per j in dom(g), the members of A_j in dom(f) and of A_g(j) in ran(f)
    are listed once; the pairs are then checked in order against those
    sets, so the work is linear in |f| and no mask is shifted per point.
    """
    if f.n != family.n:
        raise ValueError("partial injection and family disagree on the universe")
    dec = atoms_of(g, family)  # validates g's induced action up front
    dom = FinSet.from_members(f.n, (x for x, _ in f.pairs)).mask
    ran = FinSet.from_members(f.n, (y for _, y in f.pairs)).mask
    inside = [(j, set(FinSet(f.n, family.sets[j].mask & dom).to_list()),
               set(FinSet(f.n, family.sets[j2].mask & ran).to_list()))
              for j, j2 in g.pairs]
    for x, y in f.pairs:
        for j, sources, targets in inside:
            if (x in sources) != (y in targets):
                return dec, dom, ran, (x, j)
    return dec, dom, ran, None


def check_compatible(f: PartialInjection, g: FamilyMap,
                     family: Family) -> CompatibilityReport:
    """Does f respect membership the way g prescribes?  The witness is the
    least (x, j) with x's membership in set j differing from f(x)'s
    membership in set g(j)."""
    witness = _compatibility(f, g, family)[3]
    return CompatibilityReport(witness is None, witness)


# the most 32-bit words one getrandbits call asks for while drawing shuffles
_DRAW_WORDS = 4096


@dataclass(frozen=True)
class AtomShuffle:
    """One permutation of positions per cell, twisting the order bijection.
    A plain record: build_permutation checks a caller's shuffle, and the
    search does not re-check the ones random draws."""

    perms: tuple[tuple[int, ...], ...]

    @classmethod
    def random(cls, sizes: Sequence[int], rng: random.Random) -> "AtomShuffle":
        """Per cell, the permutation rng.shuffle(list(range(size))) makes,
        read from the same stream, so rng ends in the same state.

        shuffle is Fisher-Yates (Durstenfeld 1964; Knuth, TAOCP 2, 3.4.2,
        Algorithm P): for i from size - 1 down to 1 it swaps p[i] with p[j],
        j drawn below i + 1 as the top k = (i + 1).bit_length() bits of one
        32-bit word, a word giving j > i being dropped for the next.  Here
        the words come from one getrandbits(32 * m) call per batch, which the
        generator fills with the same m words, first word lowest.  m is at
        most the swaps left, each of which takes a word or more, so a batch
        never reads past the words shuffle draws, and at most _DRAW_WORDS,
        so a batch's memory does not grow with the cell.
        """
        perms = []
        for s in sizes:
            p = list(range(s))
            i = s - 1  # p[i] is swapped next
            # j is a word's top (i + 1).bit_length() bits; that length drops
            # by one each time i falls below low
            k = s.bit_length()
            shift, low = 32 - k, (1 << k >> 1) - 1
            while i > 0:
                m = min(i, _DRAW_WORDS)
                # "<I": the words in draw order on either byte order
                for word in struct.unpack(f"<{m}I", rng.getrandbits(32 * m)
                                          .to_bytes(4 * m, "little")):
                    j = word >> shift
                    if j <= i:
                        p[i], p[j] = p[j], p[i]
                        i -= 1
                        if i < low:
                            shift += 1
                            low >>= 1
            perms.append(tuple(p))
        return cls(tuple(perms))


@dataclass(frozen=True)
class Permutation:
    """A bijection of [0, n), stored as the image tuple and its inverse."""

    n: int
    images: tuple[int, ...]
    inverse: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # one O(n) pass checks the images and builds the inverse: n images,
        # none negative, permute [0, n) exactly when every write
        # inverse[y] = x lands (no image is past n - 1 or other than an int)
        # and no slot is left at -1 (no image comes twice); a bool lands as
        # 0 or 1, so only the images at inverse[0] and inverse[1] can be one
        if not _is_int(self.n) or self.n < 1:
            raise ValueError("universe size must be an integer >= 1")
        images = self.images
        inverse = [-1] * len(images)
        try:
            ok = len(images) == self.n and min(images, default=0) >= 0
            if ok:
                for x, y in enumerate(images):
                    inverse[y] = x
        except (IndexError, TypeError):
            ok = False
        if (not ok or -1 in inverse
                or not all(_is_int(images[x]) for x in inverse[:2])):
            raise ValueError("images must list each point of [0, n) exactly once")
        object.__setattr__(self, "inverse", tuple(inverse))

    def apply_set(self, s: FinSet) -> FinSet:
        return self.apply_sets((s,))[0]

    def apply_sets(self, sets: Sequence[FinSet]) -> list[FinSet]:
        """The forward images of the sets, in order."""
        return self._image_sets(sets, self.inverse)

    def inverse_apply_sets(self, sets: Sequence[FinSet]) -> list[FinSet]:
        """The backward images of the sets, in order."""
        return self._image_sets(sets, self.images)

    def _image_sets(self, sets: Sequence[FinSet],
                    preimages: Sequence[int]) -> list[FinSet]:
        """Per set s, the set holding y exactly when preimages[y] is in s.

        Eight sets at a time share one byte per point: the set in slot b
        puts its base-2 digit for point x in bit b of byte x.  One
        itemgetter(*preimages) call moves every point's byte at once, and
        each slot's bits are read back as a base-2 numeral.  Each step is a
        C-level pass (format, int.from_bytes, shifts, to_bytes,
        int(..., 2)), with no Python loop over points; base-2 conversions
        are exempt from the int/str digit limit.
        """
        n = self.n
        if any(s.n != n for s in sets):
            raise ValueError("set lives in a different universe")
        if n == 1:
            # the identity; one index would make itemgetter return a bare
            # int, and bytes(int) is a zero buffer of that length
            return list(sets)
        pick = itemgetter(*preimages)  # keeps the tuple, does not copy it
        lanes = int.from_bytes(b"\1" * n, "little")  # 1 in every byte
        zeros = lanes * 0x30  # the digit "0" in every byte
        images = []
        for c in range(0, len(sets), 8):
            chunk = sets[c:c + 8]
            column = 0
            for b, s in enumerate(chunk):
                # format puts x's digit at byte n-1-x: read "big", at byte x
                digits = int.from_bytes(format(s.mask, f"0{n}b").encode(), "big")
                column |= (digits - zeros) << b
            moved = int.from_bytes(bytes(pick(column.to_bytes(n, "little"))),
                                   "little")
            images.extend(FinSet(n, int((moved >> b & lanes | zeros)
                                        .to_bytes(n, "big"), 2))
                          for b in range(len(chunk)))
        return images


def _completion(f: PartialInjection, g: FamilyMap, family: Family
                ) -> tuple[list[list[int]], list[list[int]]]:
    """What every completion of (f, g) shares, derived and checked once: per
    cell (in signature order) its points outside dom(f), and its image
    cell's points outside ran(f).  Raises IncompatiblePair or
    CardinalityMismatch, or as atoms_of does."""
    dec, dom, ran, witness = _compatibility(f, g, family)
    if witness is not None:
        raise IncompatiblePair(f"point {witness[0]} disagrees with its image "
                               f"about set {witness[1]}")
    source_masks = [a.mask & ~dom for a in dec.atoms]
    target_masks = [dec.atoms[k2].mask & ~ran for k2 in dec.action]
    # a target cell whose mask is a source cell's (every one, when dom(f) =
    # ran(f)) shares that cell's list: each distinct mask is listed once
    listed = {m: FinSet(f.n, m).to_list()
              for m in {*source_masks, *target_masks}}
    sources = [listed[m] for m in source_masks]
    targets = [listed[m] for m in target_masks]
    for k, (src, tgt) in enumerate(zip(sources, targets)):
        if len(src) != len(tgt):
            raise CardinalityMismatch(
                f"cell {k} has {len(src)} free points but its image cell "
                f"has {len(tgt)}")
    return sources, targets


def _complete(f: PartialInjection, sources: list[list[int]],
              targets: list[list[int]], shuffle: AtomShuffle) -> Permutation:
    # _completion checked the cells; the shuffle is one random drew or one
    # build_permutation checked
    images = [-1] * f.n
    for x, y in f.pairs:
        images[x] = y
    for src, tgt, perm_k in zip(sources, targets, shuffle.perms):
        for x, pos in zip(src, perm_k):
            images[x] = tgt[pos]
    return Permutation(f.n, tuple(images))


def build_permutation(f: PartialInjection, g: FamilyMap, family: Family,
                      shuffle: AtomShuffle) -> Permutation:
    """Complete the compatible pair (f, g) to a permutation of the universe.

    Cell by cell (ascending signature), the points outside dom(f) go to the
    image cell's points outside ran(f), in order twisted by the shuffle.
    Raises IncompatiblePair, InducedMapNotPermutation or CardinalityMismatch
    when the data cannot be completed this way, then ValueError when the
    shuffle's shape is not the free cell sizes (each cell's points outside
    dom(f)), and then ValueError when a cell's shuffle does not permute its
    positions.
    """
    sources, targets = _completion(f, g, family)
    if len(shuffle.perms) != len(sources):
        raise ValueError(f"shuffle covers {len(shuffle.perms)} cells, "
                         f"decomposition has {len(sources)}")
    for k, (perm_k, src) in enumerate(zip(shuffle.perms, sources)):
        if len(perm_k) != len(src):
            raise ValueError(f"shuffle for cell {k} has length "
                             f"{len(perm_k)}, cell needs {len(src)}")
    # len(p) ints covering 0..len(p)-1 permute them; the type test refuses
    # floats, which the set test alone would take (1.0 == 1)
    if not all(all(map(_is_int, p)) and {*p} == {*range(len(p))}
               for p in shuffle.perms):
        raise ValueError("each cell shuffle must permute 0..size-1")
    return _complete(f, sources, targets, shuffle)


def orbit_closure(family: Family, perm: Permutation, layers: int) -> Family:
    """Close the family under forward and backward images of the permutation,
    up to the given number of layers; duplicates (as sets) are dropped.

    Order: the original sets, then for each layer the forward images (family
    order) followed by the backward images.

    Stops after the first layer ell that adds no set, which is exact: each
    image pi^(+-ell)(A) then equals some pi^e(B) with |e| < ell, so each
    image of layer ell + 1 is some pi^(e+-1)(B), of an exponent at most
    ell, and already in the closure; by induction so is every later one.
    """
    if family.n != perm.n:
        raise ValueError("family and permutation disagree on the universe")
    if layers < 0:
        raise ValueError("layer count must be >= 0")
    base_labels = family.labels or tuple(f"set{j}" for j in range(len(family.sets)))
    sets = list(family.sets)
    labels = list(base_labels)
    seen = {s.mask for s in sets}
    image_of = {"+": perm.apply_sets, "-": perm.inverse_apply_sets}
    fronts = {sign: family.sets for sign in image_of}
    for ell in range(1, layers + 1):
        before = len(sets)
        for sign, image in image_of.items():  # forward first, then backward
            fronts[sign] = image(fronts[sign])
            for j, s in enumerate(fronts[sign]):
                if s.mask not in seen:
                    seen.add(s.mask)
                    sets.append(s)
                    labels.append(f"{base_labels[j]}{sign}{ell}")
        if len(sets) == before:
            break  # no later layer adds a set either
    return Family(family.n, tuple(sets), tuple(labels))


@dataclass(frozen=True)
class ShuffleSearchReport:
    """Outcome of the randomized search for an independence-preserving
    completion.  Exhausting the budget is an outcome, not an error."""

    ok: bool
    attempts: int
    budget: int
    shuffle: Optional[AtomShuffle]
    permutation: Optional[Permutation]
    closure: Optional[Family]
    independence: Optional[IndependenceReport]
    best_attempt: Optional[int]
    best_min_size: Optional[int]
    # always `not ok`; a field, not a property, so that the repr lists it
    exhausted: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "exhausted", not self.ok)


def find_independent_shuffle(f: PartialInjection, g: FamilyMap, family: Family,
                             threshold: int, depth: int, layers: int,
                             budget: int, seed: int) -> ShuffleSearchReport:
    """Draw random shuffles until the completed permutation's orbit closure
    stays independent, or the budget runs out.  The pair is checked and its
    free cells derived once; an attempt draws and applies a shuffle, closes
    the family, and takes the closure's least combination size once: that
    size is both the verdict and the score of a failed attempt.

    The checked depth is clamped to the closure's set count.  On failure the
    report carries the best attempt seen, judged by the smallest combination
    size its closure achieved.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if layers < 0:
        raise ValueError("layer count must be >= 0")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    sources, targets = _completion(f, g, family)
    sizes = tuple(len(s) for s in sources)
    rng = random.Random(seed)
    best_attempt: Optional[int] = None
    best_min_size: Optional[int] = None
    for attempt in range(1, budget + 1):
        shuffle = AtomShuffle.random(sizes, rng)
        perm = _complete(f, sources, targets, shuffle)
        closure = orbit_closure(family, perm, layers)
        d = min(depth, len(closure.sets))
        size = min_combination_size(closure, d)  # verdict and score at once
        if size >= threshold:
            rep = IndependenceReport(True, None, size, threshold, d)
            return ShuffleSearchReport(True, attempt, budget, shuffle, perm,
                                       closure, rep, attempt, size)
        if best_min_size is None or size > best_min_size:
            best_attempt, best_min_size = attempt, size
    return ShuffleSearchReport(False, budget, budget, None, None, None, None,
                               best_attempt, best_min_size)
