"""Index combinatorics of the Grassmannian cone Gr(2, n+1).

Pairs over {0,...,n} index the wedge coordinates; a Y-set is a subset of
those pairs realisable as the exact support of a decomposable 2-vector, held
throughout as a bitmask over ``pairs(n)[0]``.  The module provides the
exchange-condition test, the Y-set listing, a support witness and the
Y-cone's inequalities, both read off the class labelling, a brute-force
support oracle, the weight data (Q and its Gale dual P, both read off the
pairs), wall normals of two-block partitions and the tree-metric
(four-point) membership tests behind the Delta-reduction.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .exact_linalg import _dot

Pair = tuple[int, int]
Rows = tuple[tuple[int, ...], ...]


def pairs(n: int) -> tuple[list[Pair], list[Pair]]:
    """Canonical enumerations of all pairs over {0..n} and those over {1..n}."""
    if n < 2:
        raise ValueError("need n >= 2")
    all_pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    inner = [p for p in all_pairs if p[0] >= 1]
    return all_pairs, inner


class WeightData(NamedTuple):
    """Weight matrix Q = (E_n, D_n), its Gale dual P, both as integer rows,
    and the column maps."""

    n: int
    q: tuple[tuple[int, ...], ...]
    p: tuple[tuple[int, ...], ...]
    w: dict[Pair, tuple[int, ...]]
    v: dict[Pair, tuple[int, ...]]

    @property
    def pairs0(self) -> list[Pair]:
        return pairs(self.n)[0]

def _weight_column(pair: Pair, n: int) -> tuple[int, ...]:
    i, j = pair
    if i == 0:
        return tuple(1 if r == j else 0 for r in range(1, n + 1))
    return tuple(1 if r in (i, j) else 0 for r in range(1, n + 1))


@lru_cache(maxsize=None)
def weights(n: int) -> WeightData:
    """The weight data of n, read off the pairs.  Q's columns at the pairs
    0i are the identity, so ker Q has the basis P whose row ij is
    e_ij - e_0i - e_0j, one row per inner pair: P Q^t = 0 (checked here),
    and the identity at the inner pairs gives P rank (n+1 choose 2) - n, the
    dimension of ker Q.  Hence v_ij is the unit vector of ij among the inner
    pairs, and v_0i = -(sum of v_ij over j != i)."""
    all_pairs, inner = pairs(n)
    cols = [_weight_column(p, n) for p in all_pairs]
    q = tuple(zip(*cols))
    p = tuple(tuple((x == (i, j)) - (x in ((0, i), (0, j))) for x in all_pairs) for i, j in inner)
    if any(_dot(a, b) for a in p for b in q):
        raise AssertionError("P Q^t != 0: P is not a Gale dual of Q")
    return WeightData(n, q, p, dict(zip(all_pairs, cols)), dict(zip(all_pairs, zip(*p))))


# ---------------------------------------------------------------------------
# the exchange condition (*)
# ---------------------------------------------------------------------------


def _star_violation(members: frozenset[Pair]) -> Optional[tuple[Pair, Pair]]:
    for a, b in itertools.combinations(sorted(members), 2):
        i, j = a
        k, l = b
        if len({i, j, k, l}) < 4:
            continue
        opt1 = (min(j, l), max(j, l)) in members and (min(i, k), max(i, k)) in members
        opt2 = (min(j, k), max(j, k)) in members and (min(i, l), max(i, l)) in members
        if not (opt1 or opt2):
            return (a, b)
    return None


def mask_to_yset(mask: int, n: int) -> frozenset[Pair]:
    """The pairs of a mask: bit k stands for the k-th pair of ``pairs(n)[0]``."""
    all_pairs, _ = pairs(n)
    if not 0 <= mask < 1 << len(all_pairs):
        raise ValueError(f"mask {mask} is not a set of pairs for n={n}")
    return frozenset(p for k, p in enumerate(all_pairs) if mask >> k & 1)


def is_y_set(mask: int, n: int) -> bool:
    """The exchange condition on every disjoint pair of members."""
    return _star_violation(mask_to_yset(mask, n)) is None


@lru_cache(maxsize=None)
def y_set_masks(n: int) -> tuple[int, ...]:
    """Bitmasks (in canonical pair order) of all Y-sets, ascending.

    Read a set of pairs as a graph on {0..n}.  It satisfies (*) iff it is
    complete multipartite on its non-isolated points:

    - If ij is an edge and a non-isolated point k is joined to neither i nor
      j, then k has a neighbour l outside {i, j}, and the disjoint edges ij,
      kl break (*): both of its options join k to i or to j.  So no induced
      K2 + K1 lies among the non-isolated points, non-adjacency is an
      equivalence relation on them, and its classes are the parts.
    - Conversely, let ij and kl be disjoint edges of a complete multipartite
      graph.  If k is outside i's class and l outside j's, then ik and jl
      are edges.  Otherwise k is in i's class or l in j's; either way il and
      jk join different classes, so they are edges.

    So each point is labelled isolated or with a class number, classes
    numbered in order of first use (each partition once), and a labelling
    gives the pairs across its classes.  Labellings with fewer than two
    classes all give the empty set.
    """
    all_pairs, _ = pairs(n)
    bit = {p: 1 << k for k, p in enumerate(all_pairs)}
    # joins[p][s]: the pairs from point p to the points of the bitmask s < 2^p
    joins = [
        [sum(bit[(q, p)] for q in range(p) if s >> q & 1) for s in range(1 << p)]
        for p in range(n + 1)
    ]
    out = set()
    # (next point, pairs so far, point bitmask of each class)
    stack: list[tuple[int, int, tuple[int, ...]]] = [(0, 0, ())]
    while stack:
        p, mask, classes = stack.pop()
        if p > n:
            out.add(mask)
            continue
        used = sum(classes)
        stack.append((p + 1, mask, classes))
        stack.append((p + 1, mask | joins[p][used], classes + (1 << p,)))
        for c, members in enumerate(classes):
            grown = classes[:c] + (members | 1 << p,) + classes[c + 1 :]
            stack.append((p + 1, mask | joins[p][used ^ members], grown))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# wedge supports and witnesses
# ---------------------------------------------------------------------------


def wedge_support(u: Sequence, v: Sequence) -> int:
    """Mask of the support of the decomposable 2-vector u wedge v over {0..n}."""
    if len(u) != len(v):
        raise ValueError("vectors must have equal length")
    mask, k = 0, 0
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            if u[i] * v[j] - u[j] * v[i] != 0:
                mask |= 1 << k
            k += 1
    return mask


def _class_labels(mask: int, n: int) -> tuple[int, ...]:
    """The class number of each point of {0..n}, 0 for an isolated point:
    each non-isolated point joins the first class whose first point it is
    not joined to, else opens a new class, so classes are numbered from 1 in
    order of first point.  For a Y-set these are the non-adjacency classes
    (``y_set_masks``); for another set of pairs the labelling is unchecked."""
    joined = [0] * (n + 1)
    for k, (i, j) in enumerate(pairs(n)[0]):
        if mask >> k & 1:
            joined[i] |= 1 << j
            joined[j] |= 1 << i
    label = [0] * (n + 1)
    first: list[int] = []
    for i in range(n + 1):
        if joined[i]:
            c = next((c for c, f in enumerate(first) if not joined[i] >> f & 1), len(first))
            if c == len(first):
                first.append(i)
            label[i] = c + 1
    return tuple(label)


def y_set_witness(mask: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Vectors (u, v) over {0..n} whose wedge has the support of the mask.

    A Y-set is complete multipartite on its non-isolated points, with the
    non-adjacency classes as parts (``y_set_masks``).  Take u_i = 1 on the
    non-isolated points and 0 elsewhere, and v_i the class number of i
    (0 for an isolated point): the minor u_i v_j - u_j v_i is v_j - v_i on
    two non-isolated points, nonzero exactly across classes, and 0 at an
    isolated point.  The support is checked against the mask, so a set that
    is not a Y-set raises ``ValueError``.
    """
    v = _class_labels(mask, n)
    u = tuple(int(c > 0) for c in v)
    if wedge_support(u, v) != mask:
        raise ValueError(f"mask {mask} is not a Y-set for n={n}")
    return u, v


def y_cone_description(mask: int, n: int) -> tuple[Rows, Rows]:
    """Span equations and inequalities, each sorted, of the Y-cone
    omega_J = cone(w_p; p in J) in R^n (coordinates 1..n) of the Y-set J of
    the mask, read off its class labelling; the mask is not checked.

    Let S be the non-isolated points, the classes those of ``y_set_witness``,
    and x(A) the sum of x_i over i in A minus {0}.  Then omega_J is the set
    of x with x_i = 0 for i not in S, x_i >= 0 for i in S, and
    x(P) <= x(S - P) for every class P not joined to 0: only 0's own class
    when 0 is in S, every class otherwise.  The last is implied by x >= 0
    when P holds no point but 0, and is not listed then.  When 0 is not in
    S and there are two classes A and B, the two class conditions are the
    equation x(A) = x(B), listed as an equation.

    Proof: every generator e_i (pair {0, i}) or e_i + e_j (pair {i, j})
    meets each condition.  Conversely let x meet them and, by Farkas,
    a . w_p >= 0 on every generator but a . x < 0.  As x is 0 off S and
    x >= 0, a is negative somewhere on S.  Two points of different classes
    are joined, and e_j is a generator for each j joined to 0, so the
    negative entries lie in one class P not joined to 0; with m < 0 their
    minimum, a_j >= -m for every j in S - P.  So
    a . x >= m x(P) - m x(S - P) >= 0, a contradiction.

    Hence the cone is full-dimensional exactly when there is no equation,
    and then its facets are among the inequalities; no inequality vanishes
    on every generator (e_i on the pairs at i; a class condition is
    positive on a pair {0, j}, or on a pair missing P, which exists as a
    third class does).
    """
    label = _class_labels(mask, n)
    inner = label[1:]
    eqs = {tuple(int(r == i) for r in range(n)) for i, c in enumerate(inner) if not c}
    ineqs = {tuple(int(r == i) for r in range(n)) for i, c in enumerate(inner) if c}
    classes = [label[0]] if label[0] else sorted(set(inner) - {0})
    rows = [tuple(0 if not c else -1 if c == p else 1 for c in inner) for p in classes]
    if not label[0] and len(classes) == 2:
        eqs.add(rows[1])
    else:
        ineqs.update(r for r in rows if -1 in r)
    return tuple(sorted(eqs)), tuple(sorted(ineqs))


def brute_force_supports(n: int) -> set[int]:
    """The Y-set oracle: the masks of the supports of (1, x) wedge (0, y) and
    (0, x) wedge (0, y) for x in {0..n}^n and y in {0, 1}^n, computed from
    the wedges alone, without the exchange condition or the labelling."""
    if n < 2:
        raise ValueError("need n >= 2")
    out: set[int] = set()
    xs = list(itertools.product(range(n + 1), repeat=n))
    ys_ = list(itertools.product((0, 1), repeat=n))
    for x in xs:
        for y in ys_:
            out.add(wedge_support((1, *x), (0, *y)))
            out.add(wedge_support((0, *x), (0, *y)))
    return out


# ---------------------------------------------------------------------------
# two-block partitions
# ---------------------------------------------------------------------------


class _TwoBlockFields(NamedTuple):
    n: int
    block: frozenset[int]


class TwoBlock(_TwoBlockFields):
    """Two-block partition of {1..n}, stored by the block not containing 1."""

    __slots__ = ()

    def __new__(cls, n: int, block: Iterable[int]) -> "TwoBlock":
        a = frozenset(block)
        full = frozenset(range(1, n + 1))
        if not a or not (full - a):
            raise ValueError("both blocks must be nonempty")
        if not a <= full:
            raise ValueError("block out of range")
        return super().__new__(cls, n, full - a if 1 in a else a)

    @property
    def complement(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1)) - self.block

    @property
    def is_true(self) -> bool:
        return len(self.block) >= 2 and len(self.complement) >= 2


def all_two_blocks(n: int) -> list[TwoBlock]:
    return [TwoBlock(n, a) for r in range(1, n) for a in itertools.combinations(range(2, n + 1), r)]


def true_two_blocks(n: int) -> list[TwoBlock]:
    return [tb for tb in all_two_blocks(n) if tb.is_true]


def two_block_hyperplane(block: Union[TwoBlock, Iterable[int]], n: int = 0) -> tuple[int, ...]:
    """Wall normal: +1 on the given block, -1 on its complement."""
    if isinstance(block, TwoBlock):
        a, n = set(block.block), block.n
    else:
        a = set(block)
        if not n:
            raise ValueError("n required when passing a raw block")
        if not a or not a < set(range(1, n + 1)):
            raise ValueError(f"block {sorted(a)} is not a proper nonempty part of 1..{n}")
    return tuple(1 if i in a else -1 for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# tree space
# ---------------------------------------------------------------------------


def trivalent_trees(n: int) -> list[tuple[frozenset[int], ...]]:
    """The (2n - 3)!! trivalent trees on the leaves {0..n}, as their splits
    (blocks without 0) sorted by (size, sorted block), in the order of those
    lists.  Each tree on {0..m} comes from exactly one on {0..m-1}: attach m
    to one of its 2m - 3 edges, each named by its side A away from 0 ({a}
    for leaf a, {1..m-1} for leaf 0, else its split); m joins every split
    strictly containing A, and A + {m} (for leaf 0, {1..m-1}) is new."""
    if n < 2:
        raise ValueError("need n >= 2")
    trees: list[tuple[frozenset[int], ...]] = [()]
    for m in range(3, n + 1):
        leaf0 = frozenset(range(1, m))
        trees = [
            (*(s | {m} if edge < s else s for s in tree), leaf0 if edge == leaf0 else edge | {m})
            for tree in trees
            for edge in [*(frozenset({a}) for a in leaf0), *tree, leaf0]
        ]
    trees = [tuple(sorted(tree, key=lambda s: (len(s), sorted(s)))) for tree in trees]
    return sorted(trees, key=lambda tree: [(len(s), sorted(s)) for s in tree])


def split_vector(block: frozenset[int], n: int) -> tuple[int, ...]:
    """Characteristic vector over the pairs: 1 on pairs crossing the split."""
    return tuple(
        1 if (i in block) != (j in block) else 0 for i, j in pairs(n)[0]
    )


def split_image(wd: WeightData, block: frozenset[int]) -> tuple[int, ...]:
    vec = split_vector(block, wd.n)
    cols = [wd.v[p] for k, p in enumerate(wd.pairs0) if vec[k]]
    return tuple(sum(c[i] for c in cols) for i in range(len(wd.p)))


def lineality_image(wd: WeightData) -> tuple[int, ...]:
    cols = [wd.v[(0, i)] for i in range(1, wd.n + 1)]
    return tuple(sum(c[i] for c in cols) for i in range(len(wd.p)))


def tree_basis(n: int, tree: Iterable[frozenset[int]]) -> list[tuple[int, ...]]:
    """The basis of a tree cone's image in Delta: the split images times
    ``tropical_sign()``, then the lineality image."""
    wd, sign = weights(n), tropical_sign()
    splits = [tuple(sign * x for x in split_image(wd, block)) for block in tree]
    return splits + [lineality_image(wd)]


# ---------------------------------------------------------------------------
# tropical membership
# ---------------------------------------------------------------------------


def trop_contains(w: Sequence, n: int) -> bool:
    """Four-point condition: the max of the three pairings is attained twice."""
    all_pairs, _ = pairs(n)
    idx = {p: k for k, p in enumerate(all_pairs)}
    if len(w) != len(all_pairs):
        raise ValueError("vector length does not match the pair count")
    for i, j, k, l in itertools.combinations(range(n + 1), 4):
        s = (
            w[idx[(i, j)]] + w[idx[(k, l)]],
            w[idx[(i, k)]] + w[idx[(j, l)]],
            w[idx[(i, l)]] + w[idx[(j, k)]],
        )
        m = max(s)
        if sum(1 for t in s if t == m) < 2:
            return False
    return True


@lru_cache(maxsize=None)
def _tree_cones(n: int):
    """The trivalent tree cones of Delta, as polyhedral cones."""
    from .polyhedral import Cone

    bases = [tree_basis(n, tree) for tree in trivalent_trees(n)]
    return tuple(Cone.from_generators(b + [tuple(-x for x in b[-1])], len(b[0])) for b in bases)


def _relint_meets_delta(cone, n: int) -> bool:
    """Exact test that relint(cone) intersects Delta.

    For each tree cone D, the convex set C = cone /\\ D meets relint(cone)
    iff every facet of the cone is strictly positive on some generator of C.
    """
    for d in _tree_cones(n):
        gens = cone.intersect(d).generators()
        if all(any(_dot(facet, gen) > 0 for gen in gens) for facet in cone.facets):
            return True
    return False


@lru_cache(maxsize=None)
def tropical_sign() -> int:
    """The orientation s of Delta = P(s T), T the max-convention four-point
    set: s = -1.  ``gitfan._gkz_pool`` proves the relint criterion
    (relint cone(v_p; p in S) meets Delta iff the complement of S is a
    Y-set) in the min convention, that is for s = -1, on every subset at
    every n; so one subset on which the opposite sign breaks it fixes s.

    Checked here, with no cone conversion, on S = {12} at n = 3: its
    complement, K4 minus the edge 12, is complete tripartite ({1, 2}, {0},
    {3}), so a Y-set, and relint cone(v_12) is the open ray through
    v_12 = e_12, which meets the cone Delta iff e_12 does.  The preimage of
    s e_12 that ``delta_contains`` takes is s on the pair 12 and 0
    elsewhere, with pairings 0, 0 and s on the one quadruple: it passes the
    four-point test for s = -1 and fails it for s = +1.  The tests keep the
    full calibration over all 64 subsets at n = 3.
    """
    all_pairs, _ = pairs(3)
    k = all_pairs.index((1, 2))
    if not is_y_set((1 << len(all_pairs)) - 1 - (1 << k), 3):
        raise AssertionError("the complement of {12} is not a Y-set at n=3")
    wd = weights(3)
    verdicts = {s: trop_contains([0] * 3 + [s * x for x in wd.v[(1, 2)]], 3) for s in (1, -1)}
    if verdicts != {1: False, -1: True}:
        raise AssertionError(f"relint cone(v_12) meets Delta under the wrong sign: {verdicts}")
    return -1


def delta_contains(p: Sequence, wd: WeightData) -> bool:
    """Membership of a point in the projected tropical variety Delta.

    Applies the four-point test, oriented by ``tropical_sign()``, to the
    preimage w of p that is 0 on the pairs at 0 and p on the inner pairs:
    v_ij is the unit vector e_ij (``weights``), so P w = p.  The choice of
    preimage is irrelevant because ker P is the row space of Q, which lies
    in the tropical lineality.
    """
    if len(p) != len(wd.p):
        raise ValueError("point has wrong dimension")
    s = tropical_sign()
    return trop_contains([0] * wd.n + [s * x for x in p], wd.n)


def delta_meets_relint(cone, wd: WeightData) -> bool:
    """Exact test that the relative interior of a cone intersects Delta.

    This is the criterion the point test cannot decide for cones of higher
    dimension than Delta: a single interior representative may miss the
    tree-cone images even when the relative interior crosses them.
    """
    return _relint_meets_delta(cone, wd.n)
