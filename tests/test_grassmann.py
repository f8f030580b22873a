"""Pair combinatorics, Y-sets, witnesses, Pluecker and tropical tests."""

import hashlib
import itertools
import random
import pytest

import gitfankit
import gitfankit.grassmann as gr
from gitfankit import polyhedral
from gitfankit.exact_linalg import kernel_basis, rank
from gitfankit.grassmann import (
    TwoBlock,
    all_two_blocks,
    brute_force_supports,
    delta_contains,
    delta_meets_relint,
    is_y_set,
    lineality_image,
    mask_to_yset,
    pairs,
    split_image,
    split_vector,
    trivalent_trees,
    trop_contains,
    tropical_sign,
    true_two_blocks,
    two_block_hyperplane,
    wedge_support,
    weights,
    y_set_masks,
    y_set_witness,
)
from gitfankit.polyhedral import Cone, _dot


def test_pair_counts():
    p0, pn = pairs(3)
    assert (len(p0), len(pn)) == (6, 3)
    p0, pn = pairs(4)
    assert len(p0) == 10
    assert len(weights(4).p) == 6


def test_pairs_guard():
    with pytest.raises(ValueError):
        pairs(1)


def test_weight_fixture_n3():
    wd = weights(3)
    assert wd.v[(1, 2)] == (1, 0, 0)
    assert wd.v[(0, 1)] == (-1, -1, 0)
    assert wd.v[(0, 2)] == (-1, 0, -1)
    assert wd.w[(0, 2)] == (0, 1, 0)
    assert wd.w[(1, 3)] == (1, 0, 1)
    assert all(_dot(a, b) == 0 for a in wd.p for b in wd.q)


def test_columns_pairwise_independent():
    for n in (3, 4, 5):
        wd = weights(n)
        prim = set()
        for p in pairs(n)[0]:
            from gitfankit.exact_linalg import primitive_vector

            prim.add(primitive_vector(wd.v[p]))
        assert len(prim) == len(pairs(n)[0])


def test_kernel_of_p_is_rowspace_of_q():
    for n in (3, 4):
        wd = weights(n)
        assert all(_dot(a, b) == 0 for a in wd.p for b in wd.q)
        assert rank(wd.p) + rank(wd.q) == len(pairs(n)[0])


# Q and its Gale dual P, as integer rows; n=5 by the sha256 of repr() of the
# row tuple
WEIGHT_PINS = {
    3: (
        ((1, 0, 0, 1, 1, 0), (0, 1, 0, 1, 0, 1), (0, 0, 1, 0, 1, 1)),
        ((-1, -1, 0, 1, 0, 0), (-1, 0, -1, 0, 1, 0), (0, -1, -1, 0, 0, 1)),
    ),
    4: (
        (
            (1, 0, 0, 0, 1, 1, 1, 0, 0, 0),
            (0, 1, 0, 0, 1, 0, 0, 1, 1, 0),
            (0, 0, 1, 0, 0, 1, 0, 1, 0, 1),
            (0, 0, 0, 1, 0, 0, 1, 0, 1, 1),
        ),
        (
            (-1, -1, 0, 0, 1, 0, 0, 0, 0, 0),
            (-1, 0, -1, 0, 0, 1, 0, 0, 0, 0),
            (-1, 0, 0, -1, 0, 0, 1, 0, 0, 0),
            (0, -1, -1, 0, 0, 0, 0, 1, 0, 0),
            (0, -1, 0, -1, 0, 0, 0, 0, 1, 0),
            (0, 0, -1, -1, 0, 0, 0, 0, 0, 1),
        ),
    ),
    5: (
        "746e9b4e78e0e9f2b97a5a3e9dbcb44b67a90262695120c638f2fc7dacf6e697",
        "b2f822c618c9d056b645a0d68976fb560d6c59ea7a81599682b566f41bbe52c0",
    ),
}


@pytest.mark.parametrize("n", sorted(WEIGHT_PINS))
def test_weight_data_pinned(n):
    got = (weights(n).q, weights(n).p)
    for rows in got:
        assert type(rows) is tuple
        assert all(type(r) is tuple and all(type(x) is int for x in r) for r in rows)
    if n == 5:
        got = tuple(hashlib.sha256(repr(rows).encode()).hexdigest() for rows in got)
    assert got == WEIGHT_PINS[n]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_weights_p_is_the_kernel_basis_of_q(n):
    """P, read off the pairs, is the basis of ker Q that ``kernel_basis``
    computes, and its inner columns are the unit vectors."""
    wd = weights(n)
    assert kernel_basis(wd.q) == wd.p
    d = len(pairs(n)[1])
    assert [wd.v[p] for p in pairs(n)[1]] == [tuple(int(r == k) for r in range(d)) for k in range(d)]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda pair, col: tuple(2 * x for x in col) if pair == (1, 2) else col,
        lambda pair, col: col[1:] + col[:1] if pair == (0, 1) else col,
    ],
    ids=["inner-column-doubled", "outer-column-moved"],
)
def test_weights_rejects_a_q_off_its_gale_dual(monkeypatch, corrupt):
    """The negative control of the check P Q^t = 0 in ``weights``: with one
    column of Q corrupted, the P read off the pairs is no Gale dual of it."""
    n = 4
    real = gr._weight_column
    monkeypatch.setattr(gr, "_weight_column", lambda pair, m: corrupt(pair, real(pair, m)))
    weights.cache_clear()
    try:
        with pytest.raises(AssertionError, match="P Q\\^t != 0"):
            weights(n)
    finally:
        monkeypatch.undo()
        weights.cache_clear()
    assert weights(n).v[(1, 2)] == (1, 0, 0, 0, 0, 0)


# -- the exchange condition ---------------------------------------------------


def ymask(n, members):
    """The mask of a set of pairs over {0..n}."""
    all_pairs = pairs(n)[0]
    return sum(1 << all_pairs.index((min(p), max(p))) for p in members)


def test_empty_is_y_set():
    assert is_y_set(0, 3)


def test_disjoint_pair_fails():
    assert not is_y_set(ymask(3, [(0, 1), (2, 3)]), 3)


def test_full_set_is_y_set():
    assert is_y_set(ymask(3, pairs(3)[0]), 3)


def test_enumerate_n2_all_subsets():
    assert y_set_masks(2) == tuple(range(8))


@pytest.mark.parametrize("n", [2, 3])
def test_oracle_equivalence(n):
    assert brute_force_supports(n) == set(y_set_masks(n))


def test_brute_force_soundness_direction():
    # every realised support satisfies the exchange condition
    for mask in brute_force_supports(3):
        assert is_y_set(mask, 3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_y_set_masks_match_exchange_filter(n):
    # the pruned enumerator against the exchange test on all 2^m subsets
    m = len(pairs(n)[0])
    expected = tuple(mask for mask in range(1 << m) if is_y_set(mask, n))
    assert y_set_masks(n) == expected


def test_y_set_counts():
    assert [len(y_set_masks(n)) for n in range(2, 7)] == [8, 37, 172, 814, 4013]


def _exchange_dfs_masks(n):
    """The exchange-rule enumerator: depth first over the pairs in canonical
    order, each 4-set's rules decided at its last pair."""
    all_pairs, _ = pairs(n)
    bit = {p: 1 << k for k, p in enumerate(all_pairs)}
    rules = [[] for _ in all_pairs]
    for i, j, k, l in itertools.combinations(range(n + 1), 4):
        m1 = bit[(i, j)] | bit[(k, l)]
        m2 = bit[(i, k)] | bit[(j, l)]
        m3 = bit[(i, l)] | bit[(j, k)]
        rules[all_pairs.index((k, l))] += [(m1, m2, m3), (m2, m1, m3), (m3, m1, m2)]
    out = []
    stack = [(0, 0)]
    while stack:
        depth, mask = stack.pop()
        if depth == len(all_pairs):
            out.append(mask)
            continue
        for cand in (mask, mask | 1 << depth):
            if all(
                cand & mp != mp or cand & ma == ma or cand & mb == mb
                for mp, ma, mb in rules[depth]
            ):
                stack.append((depth + 1, cand))
    return tuple(sorted(out))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_y_set_masks_match_exchange_dfs(n):
    # the partition enumeration against the exchange rules, one size past
    # the CLI's range
    assert y_set_masks(n) == _exchange_dfs_masks(n)
    if n == 7:
        assert len(y_set_masks(n)) == 20_892


def test_mask_to_yset_rejects_bits_past_the_last_pair():
    assert mask_to_yset((1 << 6) - 1, 3) == frozenset(pairs(3)[0])
    for mask in (1 << 6, 1 << 40):
        with pytest.raises(ValueError, match="not a set of pairs"):
            mask_to_yset(mask, 3)


def test_mask_to_yset_rejects_negative_masks():
    for mask in (-1, -(1 << 40)):
        with pytest.raises(ValueError, match="not a set of pairs"):
            mask_to_yset(mask, 3)


def test_oracle_equivalence_n4_forced():
    # the oracle's value ranges still exhaust all supports one size up
    assert brute_force_supports(4) == set(y_set_masks(4))


# -- witnesses ----------------------------------------------------------------


def test_witness_single_pair():
    u, v = y_set_witness(ymask(3, [(0, 1)]), 3)
    assert u == (1, 1, 0, 0)
    assert v == (1, 2, 0, 0)


def test_witness_affine_example():
    mask = ymask(3, [(0, 2), (0, 3), (2, 3)])
    u, v = y_set_witness(mask, 3)
    assert u == (1, 0, 1, 1)
    assert v == (1, 0, 2, 3)
    assert wedge_support(u, v) == mask


def test_witness_star_mode():
    # no pair holds 0: the point 0 is isolated and gets zero in both vectors
    mask = ymask(3, [(1, 2), (1, 3), (2, 3)])
    u, v = y_set_witness(mask, 3)
    assert u[0] == 0 and v[0] == 0
    assert wedge_support(u, v) == mask


def test_witness_rejects_non_y_set():
    with pytest.raises(ValueError, match="not a Y-set"):
        y_set_witness(ymask(3, [(0, 1), (2, 3)]), 3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_all_y_sets_witnessed(n):
    # the witness is the class labelling: u marks the non-isolated points,
    # v numbers the classes from 1 in order of first point
    for mask in y_set_masks(n):
        u, v = y_set_witness(mask, n)
        covered = {i for p in mask_to_yset(mask, n) for i in p}
        assert u == tuple(int(i in covered) for i in range(n + 1))
        labels = [x for x in v if x]
        assert [x for i, x in enumerate(labels) if x not in labels[:i]] == list(
            range(1, max(labels, default=0) + 1)
        )
        assert wedge_support(u, v) == mask


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_every_y_set_has_a_labelling_witness(n):
    for mask in y_set_masks(n):
        u, v = y_set_witness(mask, n)
        assert wedge_support(u, v) == mask


def lifted_witness_orders(mask, n):
    """The orders y_p at t = 0 of the minors of [u + t 1 ; v + t b] over
    Q[t], b_i = i^2, with (u, v) the witness of the Y-set mask: the minor
    at ij is (u_i v_j - u_j v_i) + (u_i b_j + v_j - u_j b_i - v_i) t +
    (b_j - b_i) t^2.  None where the minor is the zero polynomial."""
    u, v = y_set_witness(mask, n)
    b = [i * i for i in range(n + 1)]
    orders = []
    for i, j in pairs(n)[0]:
        coeffs = (u[i] * v[j] - u[j] * v[i], u[i] * b[j] + v[j] - u[j] * b[i] - v[i], b[j] - b[i])
        orders.append(next((e for e, c in enumerate(coeffs) if c), None))
    return orders


@pytest.mark.parametrize("n, count", [(2, 8), (3, 37), (4, 172), (5, 814), (6, 4013)])
def test_lifted_witness_certifies_the_relint_criterion(n, count):
    """The "if" half of the relint criterion (``gitfan._gkz_pool``), Y-set by
    Y-set: the orders y of the lifted witness are at most 2, vanish exactly
    on the Y-set, and -y passes the max-convention four-point test, so y >=
    0 meets the min-convention one with zero set exactly J.  Negative
    control: y itself fails the max-convention test for some Y-set."""
    unflipped_fails = 0
    masks = y_set_masks(n)
    assert len(masks) == count
    for mask in masks:
        y = lifted_witness_orders(mask, n)
        assert all(e is not None and e <= 2 for e in y), mask
        assert sum(1 << k for k, e in enumerate(y) if e == 0) == mask
        assert trop_contains([-e for e in y], n), mask
        unflipped_fails += not trop_contains(y, n)
    if n == 3:
        assert unflipped_fails == 23
    assert unflipped_fails > 0 or n == 2


def test_witness_succeeds_on_y_sets_alone_n4():
    """Negative control: of the 1,024 sets of pairs at n = 4 a witness
    verifies for the 172 Y-sets and for no other."""
    witnessed, refused = set(), set()
    for mask in range(1 << 10):
        try:
            y_set_witness(mask, 4)
        except ValueError:
            refused.add(mask)
        else:
            witnessed.add(mask)
    assert witnessed == set(y_set_masks(4))
    assert len(witnessed) == 172 and len(refused) == 852


# -- wedge supports -----------------------------------------------------------


def test_wedge_support_basis():
    assert wedge_support((1, 0, 0, 0), (0, 1, 0, 0)) == ymask(3, [(0, 1)])


def test_wedge_support_zero_minors():
    got = wedge_support((1, 1, 1, 1), (0, 1, 1, 1))
    assert got == ymask(3, [(0, 1), (0, 2), (0, 3)])


def test_wedge_support_mixed():
    got = wedge_support((1, 1, 2, 0), (0, 1, 1, 0))
    assert got == ymask(3, [(0, 1), (0, 2), (1, 2)])


# -- Pluecker -----------------------------------------------------------------


def plucker_quadruples(n):
    """For each i<j<k<l the three monomials of T_ij T_kl - T_ik T_jl + T_il T_jk,
    as index-pair products in sign order (+, -, +)."""
    return [
        (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k)))
        for i, j, k, l in itertools.combinations(range(n + 1), 4)
    ]


def plucker_value(coords, quad):
    (a1, a2), (b1, b2), (c1, c2) = quad
    return coords[a1] * coords[a2] - coords[b1] * coords[b2] + coords[c1] * coords[c2]


def wedge_coordinates(u, v):
    """The Pluecker coordinates u_i v_j - u_j v_i of u wedge v, i < j."""
    n = len(u) - 1
    return {
        (i, j): u[i] * v[j] - u[j] * v[i]
        for i in range(n + 1)
        for j in range(i + 1, n + 1)
    }


def test_plucker_counts():
    assert len(plucker_quadruples(3)) == 1
    assert len(plucker_quadruples(4)) == 5


def test_wedge_points_satisfy_plucker():
    rng = random.Random(9)
    for n in (3, 4, 5):
        quads = plucker_quadruples(n)
        for _ in range(350):
            u = tuple(rng.randint(-4, 4) for _ in range(n + 1))
            v = tuple(rng.randint(-4, 4) for _ in range(n + 1))
            coords = wedge_coordinates(u, v)
            assert all(plucker_value(coords, q) == 0 for q in quads)
            # the library's support of u wedge v is where these coordinates live
            assert mask_to_yset(wedge_support(u, v), n) == {p for p, x in coords.items() if x}


# -- two-block partitions -----------------------------------------------------


def test_hyperplane_singleton():
    assert two_block_hyperplane(TwoBlock(3, {1})) == (-1, 1, 1)


def test_hyperplane_pair():
    assert two_block_hyperplane(TwoBlock(4, {1, 2})) == (-1, -1, 1, 1)


def test_two_block_canonicalisation():
    tb = TwoBlock(4, frozenset({1, 4}))
    assert tb.block == frozenset({2, 3})
    assert len(all_two_blocks(4)) == 7
    assert [sorted(t.block) for t in true_two_blocks(4)] == [[2, 3], [2, 4], [3, 4]]
    assert true_two_blocks(3) == []
    tb = TwoBlock(4, {1, 2})
    assert tb.block == frozenset({3, 4}) and tb.n == 4
    assert tb == TwoBlock(4, frozenset({3, 4})) and hash(tb) == hash(TwoBlock(4, {1, 2}))
    assert repr(tb) == "TwoBlock(n=4, block=frozenset({3, 4}))"
    with pytest.raises(ValueError, match="^both blocks must be nonempty$"):
        TwoBlock(4, set())
    with pytest.raises(ValueError, match="^both blocks must be nonempty$"):
        TwoBlock(3, {1, 2, 3})
    with pytest.raises(ValueError, match="^block out of range$"):
        TwoBlock(3, {2, 5})


@pytest.mark.parametrize("kind", [set, frozenset, list, tuple, iter])
def test_two_block_stores_a_frozenset_of_any_iterable(kind):
    """Whatever iterable holds the block, with or without 1 and with
    repeats, the stored block is the frozenset of the side without 1."""
    from gitfankit.gitfan import nu_ray

    for given, block in [([3, 4], {3, 4}), ([3, 3, 4], {3, 4}), ([1, 2], {3, 4}), ([2], {2})]:
        tb = TwoBlock(4, kind(given))
        assert type(tb.block) is frozenset and tb.block == frozenset(block)
        ref = TwoBlock(4, frozenset(block))
        assert tb == ref and hash(tb) == hash(ref)
    tb = TwoBlock(4, kind([3, 4]))
    assert tb.complement == frozenset({1, 2}) and tb.is_true
    assert nu_ray(tb) == nu_ray(TwoBlock(4, frozenset({3, 4})))


# -- trees and tropical tests -------------------------------------------------


def _all_splits(n):
    """Splits of the leaf set {0..n} with both sides of size >= 2, stored by
    the block not containing 0, sorted by (size, sorted block)."""
    rest = range(1, n + 1)
    blocks = [frozenset(c) for r in range(2, n) for c in itertools.combinations(rest, r)]
    return sorted(blocks, key=lambda b: (len(b), sorted(b)))


def _compatible(b1, b2):
    return b1 <= b2 or b2 <= b1 or not (b1 & b2)


def _trees_by_split_filter(n):
    """The reference: every (n - 2)-subset of the splits, in
    ``itertools.combinations`` order, kept when its splits are pairwise
    compatible."""
    return [
        combo
        for combo in itertools.combinations(_all_splits(n), n - 2)
        if all(_compatible(a, b) for a, b in itertools.combinations(combo, 2))
    ]


def test_tree_counts():
    """(2n - 3)!! trees at n = 2..7, each distinct, with n - 2 pairwise
    compatible splits of the leaf set {0..n}."""
    for n, count in zip(range(2, 8), (1, 3, 15, 105, 945, 10395)):
        trees = trivalent_trees(n)
        assert len(trees) == count and len(set(trees)) == count
        splits = set(_all_splits(n))
        for tree in trees:
            assert len(tree) == n - 2 and set(tree) <= splits
            assert all(_compatible(a, b) for a, b in itertools.combinations(tree, 2))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_trees_match_the_split_filter(n):
    """Leaf insertion gives the reference's trees, each with its splits in
    the same order, in the same list order."""
    assert trivalent_trees(n) == _trees_by_split_filter(n)


def test_split_vector_crossing():
    # split {0,1 | 2,3}: block stored as {2,3}
    vec = split_vector(frozenset({2, 3}), 3)
    order = pairs(3)[0]
    expected = tuple(
        1 if (i in (2, 3)) != (j in (2, 3)) else 0 for i, j in order
    )
    assert vec == expected


def _sum_of_v0i(wd):
    """The lineality image as the sum of the columns v_0i, i = 1..n."""
    cols = [wd.v[(0, i)] for i in range(1, wd.n + 1)]
    return tuple(sum(c[i] for c in cols) for i in range(len(wd.p)))


@pytest.mark.parametrize("n", range(2, 8))
def test_lineality_image_is_the_sum_of_the_v0i(n):
    wd = weights(n)
    assert lineality_image(wd) == _sum_of_v0i(wd)


def test_trop_lineality_passes():
    n = 3
    order = pairs(n)[0]
    for a in [(1, 2, 3, 4), (0, -1, 5, 2)]:
        w = [a[i] + a[j] for i, j in order]
        assert trop_contains(w, n)


def test_trop_split_passes():
    assert trop_contains(split_vector(frozenset({2, 3}), 3), 3)


def test_trop_generic_fails_with_unique_max():
    w = [0, 0, 0, 0, 0, 1]  # only w_23 nonzero: unique max on the quadruple
    assert not trop_contains(w, 3)
    order = pairs(4)[0]
    rng = random.Random(1)
    rejected = 0
    for _ in range(20):
        w = [rng.randint(0, 50) for _ in order]
        if not trop_contains(w, 4):
            rejected += 1
    assert rejected > 10


def _signed_tree_cones(n, sign):
    """The tree cones of Delta under the given orientation: the split images
    times the sign, with the lineality image and its negative."""
    wd = weights(n)
    lin = lineality_image(wd)
    neg = tuple(-x for x in lin)
    return [
        Cone.from_generators(
            [tuple(sign * x for x in split_image(wd, b)) for b in tree] + [lin, neg], len(wd.p)
        )
        for tree in trivalent_trees(n)
    ]


def _relint_meets(cone, tree_cones):
    """relint(cone) meets one of the tree cones: their intersection has,
    for every facet of the cone, a generator strictly inside it."""
    for d in tree_cones:
        gens = cone.intersect(d).generators()
        if all(any(_dot(f, g) > 0 for g in gens) for f in cone.facets):
            return True
    return False


def _sign_disagreements(n, sign):
    """The column subsets (as masks) on which the orientation disagrees
    with the Y-set criterion for relative interiors."""
    wd = weights(n)
    all_pairs = pairs(n)[0]
    full = (1 << len(all_pairs)) - 1
    cones = _signed_tree_cones(n, sign)
    out = []
    for mask in range(1 << len(all_pairs)):
        members = [p for k, p in enumerate(all_pairs) if mask >> k & 1]
        sigma = Cone.from_generators([wd.v[p] for p in members], len(wd.p))
        if _relint_meets(sigma, cones) != is_y_set(full ^ mask, n):
            out.append(mask)
    return out


def test_tropical_sign_calibrated():
    assert tropical_sign() == -1


def test_full_calibration_picks_tropical_sign():
    """The calibration over all 64 column subsets at n = 3, under both
    signs: exactly one sign agrees with the Y-set criterion everywhere, and
    it is ``tropical_sign()``; its tree cones are the package's."""
    agree = [s for s in (1, -1) if not _sign_disagreements(3, s)]
    assert agree == [tropical_sign()]
    for n in (3, 4):
        assert tuple(_signed_tree_cones(n, tropical_sign())) == gr._tree_cones(n)


def test_tropical_sign_runs_no_conversion(monkeypatch):
    """With every cache empty, the check builds no cone."""

    def no_dd(*args, **kwargs):
        raise AssertionError("tropical_sign ran a double-description conversion")

    gitfankit.clear_caches()
    monkeypatch.setattr(polyhedral, "_dd", no_dd)
    try:
        assert tropical_sign() == -1
    finally:
        monkeypatch.undo()
        tropical_sign.cache_clear()


def test_tropical_sign_rejects_the_min_convention(monkeypatch):
    """Negative control: under a min-convention four-point test the
    subset {12} takes the opposite sign, and the check raises."""

    def min_contains(w, n):
        return trop_contains([-x for x in w], n)

    tropical_sign.cache_clear()
    monkeypatch.setattr(gr, "trop_contains", min_contains)
    try:
        with pytest.raises(AssertionError, match="wrong sign"):
            tropical_sign()
    finally:
        monkeypatch.undo()
        tropical_sign.cache_clear()


def test_delta_preimage_invariance():
    rng = random.Random(4)
    for n in (3, 4):
        wd = weights(n)
        order = pairs(n)[0]
        sign = tropical_sign()
        for _ in range(25):
            w0 = [rng.randint(-3, 3) for _ in order]
            coeffs = [rng.randint(-3, 3) for _ in range(n)]
            shift = [
                sum(coeffs[r] * wd.q[r][k] for r in range(n))
                for k in range(len(order))
            ]
            w1 = [a + b for a, b in zip(w0, shift)]
            assert trop_contains([sign * t for t in w0], n) == trop_contains(
                [sign * t for t in w1], n
            )


def test_relint_criterion_n3_smoke():
    wd = weights(3)
    order = pairs(3)[0]
    # a couple of hand cases: complement a Y-set / not a Y-set
    sigma = Cone.from_generators([wd.v[(0, 1)]], 3)
    assert delta_meets_relint(sigma, wd)  # complement of {01} is a Y-set
    bad = [p for p in order if p not in {(0, 1), (2, 3)}]
    sigma = Cone.from_generators([wd.v[p] for p in bad], 3)
    assert not delta_meets_relint(sigma, wd)  # complement {01},{23} is not


@pytest.mark.parametrize("n", [3, 4])
def test_relint_criterion(n):
    """relint(cone(v_p; p in J)) meets Delta iff the complement of J is a
    Y-set, for every column subset J at n = 3 (64) and n = 4 (1,024)."""
    wd = weights(n)
    all_pairs = pairs(n)[0]
    for mask in range(1 << len(all_pairs)):
        members = [p for k, p in enumerate(all_pairs) if mask >> k & 1]
        sigma = Cone.from_generators([wd.v[p] for p in members], len(wd.p))
        complement = mask ^ ((1 << len(all_pairs)) - 1)
        assert delta_meets_relint(sigma, wd) == is_y_set(complement, n), members


@pytest.mark.parametrize("n", [3, 4])
def test_opposite_tropical_sign_fails(n):
    """The orientation is not vacuous: with the split images not negated,
    some column subset disagrees with the Y-set criterion."""
    assert _sign_disagreements(n, -tropical_sign())


def test_delta_contains_lineality_and_splits():
    wd = weights(3)
    lin = lineality_image(wd)
    assert delta_contains(lin, wd)
    assert delta_contains([-x for x in lin], wd)
    sgn = tropical_sign()
    for block in _all_splits(3):
        img = split_image(wd, block)
        assert delta_contains([sgn * x for x in img], wd)


@pytest.mark.parametrize("length", [0, 3, 5, 7, 8])
def test_delta_contains_rejects_wrong_dimension(length):
    wd = weights(4)
    assert len(wd.p) == 6 and delta_contains((0,) * 6, wd)
    with pytest.raises(ValueError, match="point has wrong dimension"):
        delta_contains((0,) * length, wd)


def test_serialization(tmp_path, capsys):
    # the ysets payload writes each mask as its pairs "i,j", in pair order
    import json

    from gitfankit.cli import main

    out = tmp_path / "ysets.json"
    assert main(["ysets", "-n", "3", "-o", str(out)]) == 0
    capsys.readouterr()
    got = json.loads(out.read_text())["ysets"]
    assert ["0,1", "1,2"] in got
    assert got[1] == [f"{i},{j}" for i, j in sorted(mask_to_yset(y_set_masks(3)[1], 3))]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: wedge_support((1, 0), (0, 1, 0)), "vectors must have equal length"),
        (lambda: trop_contains((0,) * 5, 3), "vector length does not match the pair count"),
    ],
    ids=["wedge-lengths", "trop-length"],
)
def test_vectors_of_the_wrong_length_are_refused(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
