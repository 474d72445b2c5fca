import hashlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalab import extender
from omegalab.errors import (CardinalityMismatch, IncompatiblePair,
                             InducedMapNotPermutation)
from omegalab.extender import (AtomDecomposition, AtomShuffle, FamilyMap,
                               PartialInjection, Permutation, atoms_of,
                               build_permutation, check_compatible,
                               find_independent_shuffle, orbit_closure)
from omegalab.finset import (MAX_UNIVERSE, Family, FinSet, bit_family, cells,
                             full_mask)

SWAP01 = FamilyMap.from_dict({0: 1, 1: 0})


def family_of(n, sets):
    return Family(n, tuple(FinSet.from_members(n, s) for s in sets))


def halves4():
    return family_of(4, [[0, 1], [2, 3]])


def demand_with_cells(sizes):
    """(f, g, family, free) with free cells of these sizes, in signature
    order: cell 0 lies outside every set, cell j + 1 is set j, and g fixes
    each set.  A cell of size 0 is one point that f fixes.  free[k] lists
    cell k's free points, which g's identity sends onto themselves."""
    blocks, start = [], 0
    for size in sizes:
        blocks.append(list(range(start, start + max(size, 1))))
        start += max(size, 1)
    fixed = tuple((b[0], b[0]) for b, size in zip(blocks, sizes) if not size)
    g = FamilyMap(tuple((j, j) for j in range(len(blocks) - 1)))
    free = [b if size else [] for b, size in zip(blocks, sizes)]
    fam = family_of(start, blocks[1:])
    return PartialInjection(start, fixed), g, fam, free


def parent_shuffle_refusal(perms, sizes):
    """The message build_permutation gives a shuffle of these perms on
    cells of these sizes, or None: the shape checks, then the set/min/max
    check that AtomShuffle ran on construction before it moved here."""
    if len(perms) != len(sizes):
        return (f"shuffle covers {len(perms)} cells, "
                f"decomposition has {len(sizes)}")
    for k, (p, size) in enumerate(zip(perms, sizes)):
        if len(p) != size:
            return (f"shuffle for cell {k} has length {len(p)}, "
                    f"cell needs {size}")
    for p in perms:
        if (len(set(p)) != len(p) or min(p, default=0) < 0
                or max(p, default=-1) >= len(p)):
            return "each cell shuffle must permute 0..size-1"
    return None


class TestPartialInjection:
    def test_validation(self):
        with pytest.raises(ValueError):
            PartialInjection(4, ((0, 1), (0, 2)))  # source mapped twice
        with pytest.raises(ValueError):
            PartialInjection(4, ((0, 1), (2, 1)))  # not injective
        with pytest.raises(ValueError):
            PartialInjection(4, ((0, 4),))  # leaves the universe

    @pytest.mark.parametrize("make, what", [
        (lambda: PartialInjection(4, ((0.7, 1.9),)), "partial injection"),
        (lambda: PartialInjection(4, ((0, 1), (2, "3"))), "partial injection"),
        (lambda: PartialInjection(4, ((True, 1),)), "partial injection"),
        (lambda: FamilyMap(((True, 1.5),)), "family map"),
        (lambda: FamilyMap(((0, 1.0),)), "family map"),
        (lambda: FamilyMap((("0", 1),)), "family map")])
    def test_non_integer_members_refused(self, make, what):
        # refused as jsonio refuses them, not truncated by int()
        with pytest.raises(ValueError,
                           match=f"^{what} members must be integers$"):
            make()

    @pytest.mark.parametrize("n", [0, -3, 2.0, True, "4"])
    def test_universe_size_must_be_a_positive_int(self, n):
        with pytest.raises(ValueError,
                           match="^universe size must be an integer >= 1$"):
            PartialInjection(n, ())

    def test_pairs_are_sorted_by_source(self):
        f = PartialInjection(8, tuple({3: 5, 1: 2}.items()))
        assert f.pairs == ((1, 2), (3, 5))
        assert f == PartialInjection(8, ((3, 5), (1, 2)))
        assert PartialInjection.empty(8).pairs == ()
        assert FamilyMap.from_dict({2: 0, 0: 2}).pairs == ((0, 2), (2, 0))


class TestAtoms:
    def test_bit_family_under_swap(self):
        dec = atoms_of(SWAP01, bit_family(2, 8))
        assert [a.to_list() for a in dec.atoms] == \
            [[0, 4], [1, 5], [2, 6], [3, 7]]
        assert dec.signatures == (0, 1, 2, 3)
        assert dec.action == (0, 2, 1, 3)

    def test_empty_map_gives_one_cell(self):
        dec = atoms_of(FamilyMap(()), halves4())
        assert len(dec.atoms) == 1
        assert dec.atoms[0].to_list() == [0, 1, 2, 3]
        assert dec.action == (0,)

    def test_misaligned_images_rejected(self):
        fam = family_of(3, [[0, 1], [1, 2]])
        with pytest.raises(InducedMapNotPermutation):
            atoms_of(FamilyMap.from_dict({0: 1}), fam)

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            atoms_of(FamilyMap.from_dict({0: 5}), halves4())

    def test_universe_past_the_cap_refused(self):
        fam = family_of(MAX_UNIVERSE + 1, [[0]])
        with pytest.raises(ValueError, match="past the cap"):
            atoms_of(FamilyMap(((0, 0),)), fam)

    def test_forty_sets_over_64_points(self):
        # at most 64 cells are non-empty, and only those are cut: a cut of
        # every signature would list 2^40
        rng = random.Random(40)
        fam = Family(64, tuple(FinSet(64, rng.getrandbits(64))
                               for _ in range(40)))
        started = time.perf_counter()
        dec = atoms_of(FamilyMap(tuple((j, j) for j in range(40))), fam)
        assert time.perf_counter() - started < 0.5
        assert 1 <= len(dec.atoms) <= 64 and dec.action == tuple(
            range(len(dec.atoms)))
        assert sum(len(a) for a in dec.atoms) == 64


def oracle_cut(full, masks):
    # cut[sig]: the points lying in the t-th mask exactly when bit t of sig
    # is set, listed for every one of the 2^len(masks) signatures
    cut = [full]
    for m in masks:
        cut = [c & ~m for c in cut] + [c & m for c in cut]
    return cut


def oracle_atoms_of(g, family):
    # atoms_of read off the cut of every signature
    count = len(family.sets)
    for j, j2 in g.pairs:
        if not (0 <= j < count and 0 <= j2 < count):
            raise ValueError(f"family map touches index outside [0, {count})")
    full = full_mask(family.n)
    cut = oracle_cut(full, [family.sets[j].mask for j, _ in g.pairs])
    images = oracle_cut(full, [family.sets[j2].mask for _, j2 in g.pairs])
    position = {}
    sigs = []
    for sig, cell in enumerate(cut):
        if cell:
            position[cell] = len(sigs)
            sigs.append(sig)
    action = []
    for sig in sigs:
        if images[sig] not in position:
            raise InducedMapNotPermutation(
                f"image of the cell with signature {sig} is not a cell of "
                f"the decomposition")
        action.append(position[images[sig]])
    if len(set(action)) != len(action):
        raise InducedMapNotPermutation("induced cell map is not a bijection")
    return AtomDecomposition(family.n, tuple(FinSet(family.n, m)
                                             for m in position),
                             tuple(sigs), tuple(action))


@st.composite
def families_and_maps(draw):
    # sets drawn from a small pool holding the empty set, the universe, bit
    # sets and repeats, so that g often permutes the cells it cuts
    n = draw(st.integers(1, 40))
    k = draw(st.integers(0, 8))
    bits = [m for j in range(n.bit_length())
            if (m := sum(1 << x for x in range(n) if x >> j & 1))]
    pool = st.one_of(st.just(0), st.just((1 << n) - 1),
                     st.sampled_from(bits or [0]),
                     st.integers(0, (1 << n) - 1))
    family = Family(n, tuple(FinSet(n, draw(pool)) for _ in range(k)))
    dom = draw(st.permutations(range(k)))[:draw(st.integers(0, k))]
    if draw(st.integers(0, 3)):
        image = draw(st.permutations(dom))
    else:  # any injective image, now and then past the last index
        image = draw(st.permutations(range(k + 1)))[:len(dom)]
    return family, FamilyMap(tuple(zip(dom, image)))


class TestCellCut:
    @given(families_and_maps())
    @settings(max_examples=300, deadline=None)
    def test_cells_are_the_non_empty_cells_of_the_full_cut(self, drawn):
        family, _ = drawn
        masks = [s.mask for s in family.sets]
        full = full_mask(family.n)
        assert cells(masks, full) == [
            (sig, cell) for sig, cell in enumerate(oracle_cut(full, masks))
            if cell]

    @given(families_and_maps())
    @settings(max_examples=300, deadline=None)
    def test_atoms_of_equals_the_oracle(self, drawn):
        family, g = drawn
        try:
            expected = oracle_atoms_of(g, family)
        except (ValueError, InducedMapNotPermutation) as e:
            with pytest.raises(type(e)) as got:
                atoms_of(g, family)
            assert type(got.value) is type(e) and str(got.value) == str(e)
        else:
            assert atoms_of(g, family) == expected

    def test_empty_universe_mask_has_no_cells(self):
        assert cells([0b1010], 0) == []
        assert cells([], 0b111) == [(0, 0b111)]


class TestCompatibility:
    def test_compatible_pair(self):
        f = PartialInjection(4, ((0, 3),))
        assert check_compatible(f, SWAP01, halves4()).ok

    def test_incompatible_witness_is_least(self):
        f = PartialInjection(4, ((0, 0),))
        rep = check_compatible(f, SWAP01, halves4())
        assert not rep.ok and rep.witness == (0, 0)

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            check_compatible(PartialInjection.empty(8), SWAP01, halves4())

    @staticmethod
    def pairwise_witness(f, g, family):
        # the least (x, j) by testing each pair's membership set by set
        for x, y in f.pairs:
            for j, j2 in g.pairs:
                if (x in family.sets[j]) != (y in family.sets[j2]):
                    return x, j
        return None

    @given(st.integers(1, 24), st.data())
    @settings(max_examples=150, deadline=None)
    def test_witness_equals_pairwise_check(self, n, data):
        # g permutes some of k random sets, so atoms_of often accepts it;
        # half the time f is the identity on its domain, compatible when each
        # A_j and A_g(j) agree there
        k = data.draw(st.integers(1, 4))
        family = Family(n, tuple(FinSet(n, data.draw(st.integers(0, (1 << n) - 1)))
                                 for _ in range(k)))
        dom = data.draw(st.lists(st.integers(0, k - 1), unique=True))
        g = FamilyMap(tuple(zip(dom, data.draw(st.permutations(dom)))))
        xs = data.draw(st.lists(st.integers(0, n - 1), unique=True))
        ys = data.draw(st.permutations(range(n)))[:len(xs)]
        if data.draw(st.booleans()):
            ys = xs  # the identity on dom(f): compatible when g is
        f = PartialInjection(n, tuple(zip(xs, ys)))
        try:
            rep = check_compatible(f, g, family)
        except InducedMapNotPermutation:
            return
        expected = self.pairwise_witness(f, g, family)
        assert rep == (expected is None, expected)

    def test_linear_in_pairs(self, free_cell_sizes):
        # 104 858 pairs over 2^20 points: testing each pair by shifting a
        # 2^20-bit mask took seconds; the member sets take well under one
        n = 1 << 20
        family = bit_family(2, n)

        def swap(x):  # exchanges bits 0 and 1, as SWAP01 does the sets
            return x & ~3 | (x & 1) << 1 | x >> 1 & 1
        f = PartialInjection(n, tuple((x, swap(x)) for x in range(0, n, 10)))
        bad = PartialInjection(n, f.pairs[:-1] + ((n - 6, n - 6),))
        started = time.perf_counter()
        assert check_compatible(f, SWAP01, family).ok
        assert sum(free_cell_sizes(f, SWAP01, family)) == n - len(f.pairs)
        assert check_compatible(bad, SWAP01, family).witness == (n - 6, 0)
        assert time.perf_counter() - started < 2.0


class TestBuildPermutation:
    def test_swap_of_halves(self, free_cell_sizes):
        sizes = free_cell_sizes(PartialInjection.empty(4), SWAP01, halves4())
        assert sizes == (2, 2)
        perm = build_permutation(PartialInjection.empty(4), SWAP01, halves4(),
                                 AtomShuffle(tuple(tuple(range(s))
                                                   for s in sizes)))
        assert perm.images == (2, 3, 0, 1)

    def test_fixed_pair_respected(self, free_cell_sizes):
        f = PartialInjection(4, ((0, 3),))
        sizes = free_cell_sizes(f, SWAP01, halves4())
        assert sizes == (1, 2)
        perm = build_permutation(f, SWAP01, halves4(),
                                 AtomShuffle(tuple(tuple(range(s))
                                                   for s in sizes)))
        assert perm.images == (3, 2, 0, 1)

    def test_incompatible_pair_raises(self):
        f = PartialInjection(4, ((0, 0),))
        with pytest.raises(IncompatiblePair):
            build_permutation(f, SWAP01, halves4(), AtomShuffle(((), ())))

    def test_cardinality_mismatch(self, free_cell_sizes):
        # no shuffle fits cells of different sizes: the free cells' check
        # raises as build_permutation does, before any shuffle is asked for
        fam = family_of(5, [[0, 1], [2, 3, 4]])
        with pytest.raises(CardinalityMismatch):
            free_cell_sizes(PartialInjection.empty(5), SWAP01, fam)
        with pytest.raises(CardinalityMismatch):
            build_permutation(PartialInjection.empty(5), SWAP01, fam,
                              AtomShuffle(((0, 1), (0, 1, 2))))

    def test_shuffle_twists_free_points(self):
        twisted = AtomShuffle(((1, 0), (0, 1)))
        perm = build_permutation(PartialInjection.empty(4), SWAP01, halves4(),
                                 twisted)
        assert perm.images == (3, 2, 0, 1)

    def test_wrong_shuffle_shape(self):
        with pytest.raises(ValueError):
            build_permutation(PartialInjection.empty(4), SWAP01, halves4(),
                              AtomShuffle(((0, 1),)))

    @pytest.mark.parametrize("f, g, fam, shuffle, error, message", [
        (PartialInjection(4, ((0, 0),)), SWAP01, halves4(),
         AtomShuffle(((), ())), IncompatiblePair,
         "point 0 disagrees with its image about set 0"),
        (PartialInjection.empty(5), SWAP01,
         family_of(5, [[0, 1], [2, 3, 4]]),
         AtomShuffle(((0, 1), (0, 1, 2))), CardinalityMismatch,
         "cell 0 has 2 free points but its image cell has 3"),
        (PartialInjection.empty(4), SWAP01, halves4(), AtomShuffle(((0, 1),)),
         ValueError, "shuffle covers 1 cells, decomposition has 2"),
        (PartialInjection.empty(4), SWAP01, halves4(),
         AtomShuffle(((0, 1), (0,))), ValueError,
         "shuffle for cell 1 has length 1, cell needs 2"),
        (PartialInjection.empty(8), SWAP01, halves4(),
         AtomShuffle(((0, 1), (0, 1))), ValueError,
         "partial injection and family disagree on the universe"),
        (PartialInjection.empty(3), FamilyMap.from_dict({0: 1}),
         family_of(3, [[0, 1], [1, 2]]), AtomShuffle(((0,),)),
         InducedMapNotPermutation,
         "image of the cell with signature 0 is not a cell of the decomposition"),
        (PartialInjection.empty(4), FamilyMap.from_dict({0: 5}), halves4(),
         AtomShuffle(((0,),)), ValueError,
         r"family map touches index outside \[0, 2\)"),
        # two faults, mismatched cells and a short shuffle: the pair is
        # checked before the shuffle's shape
        (PartialInjection.empty(5), SWAP01,
         family_of(5, [[0, 1], [2, 3, 4]]), AtomShuffle(((0, 1),)),
         CardinalityMismatch,
         "cell 0 has 2 free points but its image cell has 3"),
        # the pair, then the shuffle's shape, then its positions
        (PartialInjection(4, ((0, 0),)), SWAP01, halves4(),
         AtomShuffle(((0, 0), (0, 1))), IncompatiblePair,
         "point 0 disagrees with its image about set 0"),
        (PartialInjection.empty(4), SWAP01, halves4(), AtomShuffle(((0, 0),)),
         ValueError, "shuffle covers 1 cells, decomposition has 2"),
        (PartialInjection.empty(4), SWAP01, halves4(),
         AtomShuffle(((0, 0), (0,))), ValueError,
         "shuffle for cell 1 has length 1, cell needs 2"),
        (PartialInjection.empty(4), SWAP01, halves4(),
         AtomShuffle(((0, 1), (1, 1))), ValueError,
         r"each cell shuffle must permute 0\.\.size-1"),
        (PartialInjection.empty(4), SWAP01, halves4(),
         AtomShuffle(((0.0, 1.0), (0, 1))), ValueError,
         r"each cell shuffle must permute 0\.\.size-1"),
    ])
    def test_error_messages(self, f, g, fam, shuffle, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            build_permutation(f, g, fam, shuffle)

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_shuffle_check_matches_parent(self, free_cell_sizes, sizes, data):
        # cell counts and lengths off by one either way, positions in
        # [-2, length + 1] with repeats, or permutations; empty cells included
        f, g, fam, free = demand_with_cells(sizes)
        assert free_cell_sizes(f, g, fam) == tuple(sizes)
        count = max(len(sizes) + data.draw(st.integers(-1, 1)), 0)
        perms = []
        for k in range(count):
            size = sizes[k] if k < len(sizes) else 2
            length = max(size + data.draw(st.integers(-1, 1)), 0)
            perms.append(tuple(data.draw(st.one_of(
                st.permutations(range(length)),
                st.lists(st.integers(-2, length + 1), min_size=length,
                         max_size=length)))))
        expected = parent_shuffle_refusal(perms, sizes)
        if expected is not None:
            with pytest.raises(ValueError) as caught:
                build_permutation(f, g, fam, AtomShuffle(tuple(perms)))
            assert str(caught.value) == expected
            return
        perm = build_permutation(f, g, fam, AtomShuffle(tuple(perms)))
        images = list(range(f.n))  # f fixes the points of empty cells
        for src, p in zip(free, perms):
            for x, pos in zip(src, p):
                images[x] = src[pos]
        assert perm.images == tuple(images)
        if any(perms):  # the same shape with float positions is refused
            floats = tuple(tuple(map(float, p)) for p in perms)
            with pytest.raises(ValueError,
                               match=r"^each cell shuffle must permute"):
                build_permutation(f, g, fam, AtomShuffle(floats))

    @given(st.integers(0, 2 ** 31), st.integers(2, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_compatible_instances(self, free_cell_sizes, seed, e,
                                         data):
        # build a cell-respecting partial injection, complete it, and check
        # the postcondition: the result extends f and carries set j onto
        # set g(j) for every j in the domain of g
        n = 1 << e
        fam = bit_family(e, n)
        rng = random.Random(seed)
        dom = sorted(rng.sample(range(e), rng.randint(0, e)))
        images = list(dom)
        rng.shuffle(images)
        g = FamilyMap(tuple(zip(dom, images)))
        dec = atoms_of(g, fam)
        pairs = []
        for k, atom in enumerate(dec.atoms):
            src = atom.to_list()
            tgt = dec.atoms[dec.action[k]].to_list()
            take = data.draw(st.integers(0, len(src)))
            pairs.extend(zip(src[:take], tgt[:take]))
        f = PartialInjection(n, tuple(pairs))
        assert check_compatible(f, g, fam).ok
        sizes = free_cell_sizes(f, g, fam)
        perm = build_permutation(f, g, fam, AtomShuffle.random(sizes, rng))
        for x, y in f.pairs:
            assert perm.images[x] == y
        for j, j2 in g.pairs:
            assert perm.apply_set(fam.sets[j]) == fam.sets[j2]


class TestPermutation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation(3, (0, 0, 2))
        with pytest.raises(ValueError):
            Permutation(3, (0, 1))

    @pytest.mark.parametrize("n, images", [
        (0, ()), (-1, ()), (2.0, (0, 1)), (True, (0,)), ("2", (0, 1))])
    def test_universe_size_must_be_a_positive_int(self, n, images):
        # a float n used to pass, as len(images) == n, and fail later in
        # _image_sets with a TypeError
        with pytest.raises(ValueError,
                           match="^universe size must be an integer >= 1$"):
            Permutation(n, images)

    @pytest.mark.parametrize("images", [(0, 2, 2), (1, 1, 0), (0, 1, 3),
                                        (-1, 0, 1), (0, 1, 2, 2)])
    def test_repeated_or_outside_image_rejected(self, images):
        with pytest.raises(ValueError):
            Permutation(3, images)

    @staticmethod
    def parent_accepts(n, images):
        # the earlier set/min/max check, kept as the oracle of the one pass,
        # and no bool image, which that check let through
        return not (len(images) != n or len(set(images)) != n
                    or min(images, default=0) < 0
                    or max(images, default=-1) >= n
                    or any(isinstance(y, bool) for y in images))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_pass_check_equals_the_set_check(self, data):
        n = data.draw(st.one_of(st.just(1), st.integers(1, 9)))
        length = data.draw(st.sampled_from([n - 1, n, n + 1]))
        if data.draw(st.booleans()):  # a permutation, then a few edits
            images = data.draw(st.permutations(range(n)))[:length]
            images += [n - 1] * (length - len(images))
            for _ in range(data.draw(st.integers(0, 2))):
                at = data.draw(st.integers(0, max(length - 1, 0)))
                images[at:at + 1] = [data.draw(st.integers(-2, n + 1))]
        else:  # repeats, outside values and bools, drawn freely
            images = data.draw(st.lists(
                st.one_of(st.integers(-2, n + 1), st.booleans()),
                min_size=length, max_size=length))
        images = tuple(images)
        if self.parent_accepts(n, images):
            p = Permutation(n, images)
            assert p.images == images
            assert [p.inverse[y] for y in images] == list(range(n))
        else:
            with pytest.raises(ValueError) as caught:
                Permutation(n, images)
            assert str(caught.value) == \
                "images must list each point of [0, n) exactly once"

    @pytest.mark.parametrize("images", [(0.0, 1.0), (1, 0.0), (0, "1"),
                                        (0, None)])
    def test_non_integer_image_rejected(self, images):
        # the set check let (0.0, 1.0) through, and apply_sets then failed
        # with a TypeError (its min raised one on (0, "1") and (0, None));
        # an image must index the inverse table
        with pytest.raises(ValueError, match="exactly once"):
            Permutation(2, images)

    @pytest.mark.parametrize("n, images", [
        (2, (True, False)), (2, (0, True)), (2, (False, 1)), (1, (False,)),
        (3, (2, True, 0))])
    def test_bool_images_rejected(self, n, images):
        # Permutation(2, (True, False)) used to construct and compare equal
        # to Permutation(2, (1, 0)); a bool can only be the image 0 or 1
        with pytest.raises(ValueError, match="exactly once"):
            Permutation(n, images)

    def test_inverse(self):
        p = Permutation(4, (2, 0, 3, 1))
        assert [p.inverse[p.images[x]] for x in range(4)] == [0, 1, 2, 3]
        s = FinSet.from_members(4, [0, 3])
        assert p.apply_set(s).to_list() == [1, 2]
        assert p.inverse_apply_sets([p.apply_set(s)])[0] == s

    @staticmethod
    def assert_front_images_are_pointwise(p, sets):
        # {p(x) : x in s} and {x : p(x) in s}, point by point
        forward = [sorted(p.images[x] for x in s) for s in sets]
        backward = [[x for x in range(p.n) if p.images[x] in s] for s in sets]
        assert [s.to_list() for s in p.apply_sets(sets)] == forward
        assert [s.to_list() for s in p.inverse_apply_sets(sets)] == backward
        assert [p.apply_set(s).to_list() for s in sets] == forward
        assert [p.inverse_apply_sets([s])[0].to_list()
                for s in sets] == backward

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_set_images_equal_pointwise_oracle(self, data):
        # fronts on both sides of the eight sets that share a byte column
        n = data.draw(st.one_of(st.sampled_from([1, 2, 7, 8, 9]),
                                st.integers(1, 70)))
        images = data.draw(st.permutations(range(n)))
        full = (1 << n) - 1
        count = data.draw(st.sampled_from([0, 1, 8, 9, 17]))
        masks = st.one_of(st.just(0), st.just(full), st.integers(0, full))
        sets = [FinSet(n, data.draw(masks)) for _ in range(count)]
        self.assert_front_images_are_pointwise(Permutation(n, tuple(images)),
                                               sets)

    @pytest.mark.parametrize("count", [0, 1, 8, 9, 17])
    def test_set_images_at_workload_size(self, count):
        n = 1 << 14
        rng = random.Random(count)
        images = list(range(n))
        rng.shuffle(images)
        full = (1 << n) - 1
        sets = [FinSet(n, 0), FinSet(n, full)] + [
            FinSet(n, rng.getrandbits(n)) for _ in range(count)]
        self.assert_front_images_are_pointwise(Permutation(n, tuple(images)),
                                               sets[:count])

    def test_set_images_on_one_point(self):
        p = Permutation(1, (0,))
        for s in (FinSet(1, 0), FinSet(1, 1)):
            assert p.apply_set(s) == s == p.inverse_apply_sets([s])[0]
        with pytest.raises(ValueError):
            p.apply_set(FinSet(2, 1))

    @pytest.mark.parametrize("mask, image", [
        (0b00, 0b00), (0b01, 0b10), (0b10, 0b01), (0b11, 0b11)])
    def test_set_images_on_two_points(self, mask, image):
        # two preimages make itemgetter return a tuple, one a bare digit
        swap = Permutation(2, (1, 0))
        s = FinSet(2, mask)
        assert swap.apply_set(s) == FinSet(2, image)
        assert swap.inverse_apply_sets([s])[0] == FinSet(2, image)


class TestOrbitClosure:
    def test_one_layer_example(self):
        fam = family_of(4, [[0, 1]])
        cyc = Permutation(4, (1, 2, 3, 0))
        closed = orbit_closure(fam, cyc, 1)
        assert [s.to_list() for s in closed.sets] == [[0, 1], [1, 2], [0, 3]]
        assert closed.labels == ("set0", "set0+1", "set0-1")

    def test_duplicates_dropped(self):
        fam = halves4()
        swap = Permutation(4, (2, 3, 0, 1))
        closed = orbit_closure(fam, swap, 3)
        assert len(closed.sets) == 2  # the halves only trade places

    def test_zero_layers(self):
        fam = bit_family(2, 8)
        identity = Permutation(8, tuple(range(8)))
        assert orbit_closure(fam, identity, 0).sets == fam.sets

    @given(st.integers(0, 2 ** 31), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_double_closure_equals_doubled_layers(self, seed, layers):
        rng = random.Random(seed)
        images = list(range(8))
        rng.shuffle(images)
        perm = Permutation(8, tuple(images))
        fam = family_of(8, [rng.sample(range(8), 3)])
        once = orbit_closure(fam, perm, layers)
        twice = orbit_closure(once, perm, layers)
        direct = orbit_closure(fam, perm, 2 * layers)
        assert {s.mask for s in twice.sets} == {s.mask for s in direct.sets}

    @staticmethod
    def every_layer_closure(family, perm, layers):
        # the closure built layer by layer to the end, with no early stop
        sets, labels = list(family.sets), list(family.labels)
        seen = {s.mask for s in sets}
        fronts = {"+": family.sets, "-": family.sets}
        for ell in range(1, layers + 1):
            for sign, image in (
                    ("+", perm.apply_set),
                    ("-", lambda s: perm.inverse_apply_sets([s])[0])):
                fronts[sign] = [image(s) for s in fronts[sign]]
                for j, s in enumerate(fronts[sign]):
                    if s.mask not in seen:
                        seen.add(s.mask)
                        sets.append(s)
                        labels.append(f"{family.labels[j]}{sign}{ell}")
        return Family(family.n, tuple(sets), tuple(labels))

    @given(st.integers(0, 2 ** 31), st.integers(1, 12), st.integers(0, 3),
           st.integers(0, 40))
    @settings(max_examples=150, deadline=None)
    def test_early_stop_equals_every_layer(self, seed, n, k, layers):
        rng = random.Random(seed)
        images = list(range(n))
        rng.shuffle(images)
        perm = Permutation(n, tuple(images))
        fam = Family(n, tuple(FinSet.from_members(n, rng.sample(
            range(n), rng.randint(0, n))) for _ in range(k)),
            tuple(f"s{j}" for j in range(k)))
        assert orbit_closure(fam, perm, layers) == \
            self.every_layer_closure(fam, perm, layers)

    def test_layer_count_costs_nothing_past_the_orbit(self, monkeypatch):
        # {0, 1, 2} under an 8-cycle: layers 1-4 add its 7 shifts, layer 5
        # adds nothing and ends the closure, whatever layer count is asked
        calls = []
        for name in ("apply_sets", "inverse_apply_sets"):
            real = getattr(Permutation, name)
            monkeypatch.setattr(Permutation, name,
                                lambda self, sets, real=real:
                                calls.append(1) or real(self, sets))
        cyc = Permutation(8, (1, 2, 3, 4, 5, 6, 7, 0))
        closed = orbit_closure(family_of(8, [[0, 1, 2]]), cyc, 10 ** 5)
        assert len(closed.sets) == 8
        assert len(calls) == 2 * 5


def build_with_shuffle(perms):
    """build_permutation on cells shaped like the perms, with those perms."""
    f, g, fam, _ = demand_with_cells([len(p) for p in perms])
    return build_permutation(f, g, fam, AtomShuffle(perms))


class TestAtomShuffle:
    # a shuffle is a plain record; build_permutation checks it where a
    # caller hands it in
    def test_validation(self):
        with pytest.raises(ValueError):
            build_with_shuffle(((0, 2),))
        assert build_with_shuffle(((), (0,), (1, 0))).images == (0, 1, 3, 2)

    @pytest.mark.parametrize("perms", [
        ((0, 0),), ((1, 2),), ((-1, 0),), ((0, 1), (0, 2)), ((2, 0, 0),),
        ((0,), (1,)), ((0.0, 1.0),), ((1, 0.0),), ((0.5,),), (("0",),),
    ])
    def test_repeated_or_outside_position_rejected(self, perms):
        AtomShuffle(perms)  # the record itself is not checked
        message = r"^each cell shuffle must permute 0\.\.size-1$"
        with pytest.raises(ValueError, match=message):
            build_with_shuffle(perms)

    def test_random_shapes(self):
        sh = AtomShuffle.random((3, 0, 2), random.Random(1))
        assert [len(p) for p in sh.perms] == [3, 0, 2]

    @pytest.mark.parametrize("seed", [0, 1, 5, 2 ** 40 + 3])
    def test_random_is_random_shuffle_stream(self, seed):
        # the perms rng.shuffle makes, and rng left in the same state: sizes
        # on both sides of powers of two, and past the words of one batch
        sizes = [0, 1, 2, 3] + [size for k in range(2, 13)
                                for size in (2 ** k - 1, 2 ** k, 2 ** k + 1)]
        sizes += [5000, extender._DRAW_WORDS * 2 + 7]
        rng, oracle = random.Random(seed), random.Random(seed)
        perms = []
        for size in sizes:
            p = list(range(size))
            oracle.shuffle(p)
            perms.append(tuple(p))
        assert AtomShuffle.random(sizes, rng).perms == tuple(perms)
        assert rng.getrandbits(64) == oracle.getrandbits(64)

    def test_random_asks_at_most_a_batch_of_words(self):
        asked = []

        class Counted(random.Random):
            def getrandbits(self, k):
                asked.append(k)
                return super().getrandbits(k)
        AtomShuffle.random((3 * extender._DRAW_WORDS, 5), Counted(1))
        assert max(asked) == 32 * extender._DRAW_WORDS


class TestFindIndependentShuffle:
    def test_succeeds_on_symmetric_family(self):
        rep = find_independent_shuffle(
            PartialInjection.empty(8), SWAP01, bit_family(2, 8),
            threshold=2, depth=2, layers=1, budget=50, seed=5)
        assert rep.ok and rep.attempts >= 1
        assert rep.independence.ok
        assert rep.best_min_size == rep.independence.size_found
        assert not rep.exhausted
        # success postconditions hold for the returned artifacts
        for j, j2 in SWAP01.pairs:
            assert rep.permutation.apply_set(bit_family(2, 8).sets[j]) == \
                bit_family(2, 8).sets[j2]

    def test_report_repr_at_workload_size(self):
        # its closure's masks have 2^14 bits, past the int/str digit limit
        rep = find_independent_shuffle(
            PartialInjection.empty(1 << 14), SWAP01, bit_family(2, 1 << 14),
            threshold=1, depth=1, layers=1, budget=1, seed=0)
        assert rep.ok and ", mask=0x" in repr(rep)

    def test_budget_zero_exhausts(self):
        rep = find_independent_shuffle(
            PartialInjection.empty(8), SWAP01, bit_family(2, 8),
            threshold=2, depth=2, layers=1, budget=0, seed=5)
        assert not rep.ok and rep.exhausted
        assert rep.attempts == 0 and rep.best_attempt is None

    def test_unreachable_threshold_reports_best(self):
        rep = find_independent_shuffle(
            PartialInjection.empty(8), SWAP01, bit_family(2, 8),
            threshold=3, depth=2, layers=1, budget=7, seed=5)
        assert not rep.ok and rep.exhausted
        assert rep.attempts == 7
        assert rep.best_attempt == 1  # all attempts tie at min size 2
        assert rep.best_min_size == 2
        assert rep.permutation is None and rep.closure is None

    def test_threshold_validated_up_front(self):
        with pytest.raises(ValueError, match="threshold"):
            find_independent_shuffle(
                PartialInjection.empty(8), SWAP01, bit_family(2, 8),
                threshold=0, depth=2, layers=1, budget=0, seed=5)

    @pytest.mark.parametrize("budget", [0, 1])
    @pytest.mark.parametrize("depth, layers, message", [
        (-1, 1, "depth must be >= 0"), (2, -1, "layer count must be >= 0")])
    def test_depth_and_layers_validated_up_front(self, budget, depth, layers,
                                                 message):
        # refused before any attempt, so a zero budget cannot hide it
        with pytest.raises(ValueError, match=message):
            find_independent_shuffle(
                PartialInjection.empty(8), SWAP01, bit_family(2, 8),
                threshold=2, depth=depth, layers=layers, budget=budget,
                seed=5)

    def test_incompatible_input_raises(self):
        with pytest.raises(IncompatiblePair):
            find_independent_shuffle(
                PartialInjection(4, ((0, 0),)), SWAP01, halves4(),
                threshold=1, depth=1, layers=1, budget=3, seed=0)

    @pytest.mark.parametrize("budget", [0, 3])
    def test_cardinality_mismatch_raises_at_any_budget(self, budget):
        # no budget completes cells of sizes 2 and 3: a zero budget says so
        # too, instead of reporting an exhausted search
        with pytest.raises(CardinalityMismatch):
            find_independent_shuffle(
                PartialInjection.empty(5), SWAP01,
                family_of(5, [[0, 1], [2, 3, 4]]),
                threshold=1, depth=1, layers=1, budget=budget, seed=0)

    def test_pinned_search(self):
        # a search that succeeds on its last attempt; its outcome is pinned
        f = PartialInjection(32, ((1, 2), (6, 5)))
        rep = find_independent_shuffle(f, SWAP01, bit_family(3, 32),
                                       threshold=3, depth=3, layers=1,
                                       budget=6, seed=5)
        assert rep.ok and rep.attempts == 6
        assert rep.best_attempt == 6 and rep.best_min_size == 3
        assert rep.permutation.images == (
            28, 2, 25, 23, 12, 22, 5, 19, 24, 30, 21, 31, 8, 14, 1, 11,
            16, 6, 9, 15, 20, 10, 13, 7, 4, 18, 17, 3, 0, 26, 29, 27)

    def test_reports_pinned(self):
        # 108 seeded searches over three shapes (one with a non-empty f),
        # budgets 0..8, thresholds on both sides of reach: the sha256 of
        # their reprs is pinned to the value of the mask-by-mask scan
        reports = []
        for family, f, g, depth, layers, thresholds in (
                (bit_family(2, 8), {}, {0: 1, 1: 0}, 2, 1, (1, 2, 3)),
                (bit_family(3, 32), {1: 2, 6: 5}, {0: 1, 1: 0}, 3, 1,
                 (2, 3, 4)),
                (bit_family(3, 64), {}, {0: 1, 1: 2, 2: 0}, 3, 2,
                 (3, 4, 5))):
            for budget in (0, 1, 2, 3, 6, 8):
                for threshold in thresholds:
                    for seed in (5, 11):
                        reports.append(find_independent_shuffle(
                            PartialInjection(family.n, tuple(f.items())),
                            FamilyMap.from_dict(g), family, threshold,
                            depth, layers, budget, seed))
        assert sum(rep.ok for rep in reports) == 63
        text = "\n".join(map(repr, reports))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "d54477239f93dfd9866e9e390fdda9b555e7637f73055dacdaafeac07b168ba5")

    def test_drawn_shuffles_are_not_rechecked(self, monkeypatch):
        # build_permutation holds the only shuffle check, and the search
        # hands it none of its draws, at any budget
        calls = []

        def counted(*args):
            calls.append(args)
            return build_permutation(*args)
        monkeypatch.setattr(extender, "build_permutation", counted)
        for budget in (0, 1, 8):
            rep = find_independent_shuffle(
                PartialInjection.empty(8), SWAP01, bit_family(2, 8),
                threshold=3, depth=2, layers=1, budget=budget, seed=5)
            assert rep.attempts == budget  # the threshold is unreachable
        assert calls == []

    def test_decomposition_derived_once_per_search(self, monkeypatch):
        calls = []

        def counted(g, family):
            calls.append(g)
            return atoms_of(g, family)
        monkeypatch.setattr(extender, "atoms_of", counted)
        counts = []
        for budget in (0, 1, 8):
            calls.clear()
            rep = find_independent_shuffle(
                PartialInjection.empty(8), SWAP01, bit_family(2, 8),
                threshold=3, depth=2, layers=1, budget=budget, seed=5)
            assert rep.attempts == budget  # the threshold is unreachable
            counts.append(len(calls))
        assert counts[0] == counts[1] == counts[2] >= 1

