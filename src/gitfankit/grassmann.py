"""Index combinatorics of the Grassmannian cone Gr(2, n+1).

Pairs over {0,...,n} index the wedge coordinates; a Y-set is a subset of
those pairs realisable as the exact support of a decomposable 2-vector.  The
module provides the exchange-condition test, constructive support witnesses,
a brute-force support oracle, the weight data (Q and its Gale dual P), wall
normals of two-block partitions and the tree-metric (four-point) membership
tests behind the Delta-reduction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

from .exact_linalg import _dot, gale_dual, solve

Pair = tuple[int, int]


def pairs(n: int) -> tuple[list[Pair], list[Pair]]:
    """Canonical enumerations of all pairs over {0..n} and those over {1..n}."""
    if n < 2:
        raise ValueError("need n >= 2")
    all_pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    inner = [p for p in all_pairs if p[0] >= 1]
    return all_pairs, inner


@dataclass(frozen=True)
class YSet:
    n: int
    members: frozenset[Pair]

    def __post_init__(self):
        for i, j in self.members:
            if not (0 <= i < j <= self.n):
                raise ValueError(f"pair ({i},{j}) out of range for n={self.n}")

    def serialize(self) -> list[str]:
        return [f"{i},{j}" for i, j in sorted(self.members)]


def yset(n: int, members: Iterable[Sequence[int]]) -> YSet:
    return YSet(n, frozenset((min(p), max(p)) for p in members))


@dataclass(frozen=True)
class WeightData:
    """Weight matrix Q = (E_n, D_n), a fixed Gale dual P, both as integer
    rows, and the column maps."""

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
    all_pairs, _ = pairs(n)
    cols = [_weight_column(p, n) for p in all_pairs]
    q = tuple(zip(*cols))
    p = gale_dual(q)
    w = dict(zip(all_pairs, cols))
    v = dict(zip(all_pairs, zip(*p)))
    return WeightData(n, q, p, w, v)


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


def is_y_set(ys: YSet) -> bool:
    """The exchange condition on every disjoint pair of members."""
    return _star_violation(ys.members) is None


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


def mask_to_yset(mask: int, n: int) -> YSet:
    all_pairs, _ = pairs(n)
    if not 0 <= mask < 1 << len(all_pairs):
        raise ValueError(f"mask {mask} is not a set of pairs for n={n}")
    return YSet(n, frozenset(p for k, p in enumerate(all_pairs) if mask >> k & 1))


def enumerate_y_sets(n: int) -> list[YSet]:
    """All Y-sets over {0..n}, in deterministic (mask-ascending) order."""
    return [mask_to_yset(m, n) for m in y_set_masks(n)]


# ---------------------------------------------------------------------------
# wedge supports and witnesses
# ---------------------------------------------------------------------------


def wedge_support(u: Sequence, v: Sequence) -> YSet:
    """Support of the decomposable 2-vector u wedge v over {0..n}."""
    if len(u) != len(v):
        raise ValueError("vectors must have equal length")
    n = len(u) - 1
    members = set()
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            if u[i] * v[j] - u[j] * v[i] != 0:
                members.add((i, j))
    return YSet(n, frozenset(members))


def _components(vertices: Sequence[int], edges: set[Pair]) -> list[frozenset[int]]:
    parent = {v: v for v in vertices}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    comps: dict[int, set[int]] = {}
    for v in vertices:
        comps.setdefault(find(v), set()).add(v)
    return [frozenset(c) for c in comps.values()]


def _affine_witness(ys: YSet) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Witness (x, y) with support of (1,x) wedge (0,y) equal to the Y-set.

    Requires some pair {0,k} to be present; follows the two-graph
    construction: components of the non-edge graph get distinct positive
    levels, isolated vertices of the joint graph get zero.
    """
    n = ys.n
    members = ys.members
    vertices = list(range(1, n + 1))
    e1 = {
        (i, j)
        for (i, j) in members
        if i >= 1 and ((0, i) in members or (0, j) in members)
    }
    e2 = {
        (i, j)
        for i in vertices
        for j in vertices
        if i < j
        and (i, j) not in members
        and (0, i) in members
        and (0, j) in members
    }
    comps12 = _components(vertices, e1 | e2)
    singles12 = {next(iter(c)) for c in comps12 if len(c) == 1}
    comps2 = [
        c
        for c in sorted(_components(vertices, e2), key=min)
        if not (len(c) == 1 and next(iter(c)) in singles12)
    ]
    x = [0] * n
    for p, comp in enumerate(comps2, start=1):
        for i in comp:
            x[i - 1] = p
    for i in singles12:
        x[i - 1] = 0
    y = [1 if (0, j) in members else 0 for j in range(1, n + 1)]
    return tuple(x), tuple(y)


def witness_vectors(
    x: Sequence[int], y: Sequence[int], mode: str
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ambient vectors whose wedge realises the witness support."""
    if mode == "affine":
        return (1, *x), (0, *y)
    if mode == "star":
        return (0, *x), (0, *y)
    raise ValueError(f"unknown mode {mode!r}")


def y_set_witness(ys: YSet) -> tuple[tuple[int, ...], tuple[int, ...], str]:
    """Constructive witness (x, y, mode) whose wedge support equals the Y-set.

    Mode "affine" realises (1,x) wedge (0,y); mode "star" (used when no pair
    contains 0) realises (0,x) wedge (0,y) after re-rooting at a covered
    index.  The output is verified against wedge_support before returning.
    """
    if not is_y_set(ys):
        raise ValueError("witness requested for a set failing the exchange condition")
    n = ys.n
    if not ys.members:
        return (0,) * n, (0,) * n, "affine"
    if any(i == 0 for i, _ in ys.members):
        x, y = _affine_witness(ys)
        u, v = witness_vectors(x, y, "affine")
        if wedge_support(u, v) != ys:
            raise AssertionError(f"affine witness verification failed for {ys}")
        return x, y, "affine"
    covered = sorted({i for p in ys.members for i in p})
    for root in covered:
        swap = {0: root, root: 0}
        relabeled = YSet(
            n,
            frozenset(
                (min(swap.get(i, i), swap.get(j, j)), max(swap.get(i, i), swap.get(j, j)))
                for i, j in ys.members
            ),
        )
        if not is_y_set(relabeled):
            continue
        xr, yr = _affine_witness(relabeled)
        ur, vr = witness_vectors(xr, yr, "affine")
        # permute coordinate 0 <-> root back
        u = list(ur)
        v = list(vr)
        u[0], u[root] = u[root], u[0]
        v[0], v[root] = v[root], v[0]
        if u[0] != 0 or v[0] != 0:
            continue
        x, y = tuple(u[1:]), tuple(v[1:])
        uu, vv = witness_vectors(x, y, "star")
        if wedge_support(uu, vv) == ys:
            return x, y, "star"
    raise AssertionError(f"no verified witness found for {ys}")


def brute_force_supports(n: int) -> set[YSet]:
    """All wedge supports within the witness value ranges: the Y-set oracle."""
    if n < 2:
        raise ValueError("need n >= 2")
    out: set[YSet] = set()
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


@dataclass(frozen=True)
class TwoBlock:
    """Two-block partition of {1..n}, stored by the block not containing 1."""

    n: int
    block: frozenset[int]

    def __post_init__(self):
        a = set(self.block)
        full = set(range(1, self.n + 1))
        if not a or not (full - a):
            raise ValueError("both blocks must be nonempty")
        if not a <= full:
            raise ValueError("block out of range")
        if 1 in a:
            object.__setattr__(self, "block", frozenset(full - a))

    @property
    def complement(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1)) - self.block

    @property
    def is_true(self) -> bool:
        return len(self.block) >= 2 and len(self.complement) >= 2


def all_two_blocks(n: int) -> list[TwoBlock]:
    out = []
    rest = list(range(2, n + 1))
    for r in range(1, n):
        for a in itertools.combinations(rest, r):
            out.append(TwoBlock(n, frozenset(a)))
    return out


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
    return tuple(1 if i in a else -1 for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# tree space
# ---------------------------------------------------------------------------


def all_splits(n: int) -> list[frozenset[int]]:
    """Splits of the leaf set {0..n} with both sides of size >= 2, stored by
    the block not containing 0."""
    out = []
    rest = list(range(1, n + 1))
    for r in range(2, n):
        out.extend(frozenset(c) for c in itertools.combinations(rest, r))
    return sorted(out, key=lambda b: (len(b), sorted(b)))


def splits_compatible(b1: frozenset[int], b2: frozenset[int]) -> bool:
    return b1 <= b2 or b2 <= b1 or not (b1 & b2)


def trivalent_trees(n: int) -> list[tuple[frozenset[int], ...]]:
    """Trivalent trees on the n+1 leaves {0..n} as maximal compatible split sets."""
    splits = all_splits(n)
    need = n - 2
    if need == 0:
        return [()]
    out = []
    for combo in itertools.combinations(splits, need):
        if all(splits_compatible(a, b) for a, b in itertools.combinations(combo, 2)):
            out.append(combo)
    return out


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
def _tree_cones(n: int, sign: int):
    """Images of the trivalent tree cones under P, as polyhedral cones."""
    from .polyhedral import Cone

    wd = weights(n)
    lin = lineality_image(wd)
    dim = len(wd.p)
    cones = []
    for tree in trivalent_trees(n):
        gens = [lin, tuple(-x for x in lin)]
        gens.extend(
            tuple(sign * x for x in split_image(wd, block)) for block in tree
        )
        cones.append(Cone.from_generators(gens, dim))
    return tuple(cones)


def _relint_meets_delta(cone, n: int, sign: int) -> bool:
    """Exact test that relint(cone) intersects Delta under the given sign.

    For each tree cone D, the convex set C = cone /\\ D meets relint(cone)
    iff every facet of the cone is strictly positive on some generator of C.
    """
    for d in _tree_cones(n, sign):
        c = cone.intersect(d)
        gens = c.generators()
        ok = True
        for facet in cone.facets:
            if not any(_dot(facet, gen) > 0 for gen in gens):
                ok = False
                break
        if ok:
            return True
    return False


@lru_cache(maxsize=None)
def tropical_sign() -> int:
    """Calibrate the four-point convention at n=3 against the Y-set criterion:
    relint(cone(v_eta; eta in J)) meets Delta iff the complement of J is a
    Y-set.  Exactly one orientation of the tropical variety satisfies this;
    the winning sign is applied globally by the Delta membership tests."""
    from .polyhedral import Cone

    wd = weights(3)
    all_pairs, _ = pairs(3)
    verdicts = {}
    for sign in (1, -1):
        ok = True
        for mask in range(1 << len(all_pairs)):
            subset = [p for k, p in enumerate(all_pairs) if mask >> k & 1]
            sigma = Cone.from_generators([wd.v[p] for p in subset], len(wd.p))
            expected = is_y_set(
                YSet(3, frozenset(p for p in all_pairs if p not in subset))
            )
            if _relint_meets_delta(sigma, 3, sign) != expected:
                ok = False
                break
        verdicts[sign] = ok
    if verdicts[1] == verdicts[-1]:
        raise AssertionError(
            f"tropical sign calibration inconclusive: {verdicts}"
        )
    return 1 if verdicts[1] else -1


@lru_cache(maxsize=None)
def _p_right_inverse(n: int) -> tuple[tuple[int, ...], ...]:
    """Integer right inverse of P up to a positive scale: the rows, one per
    pair, of a matrix R with P R = D I, where the columns of R are the
    preimages under P of the unit vectors and D > 0 is the lcm of their
    denominators."""
    p = weights(n).p
    cols = []
    for i in range(len(p)):
        x = solve(p, [1 if j == i else 0 for j in range(len(p))])
        if x is None:
            raise AssertionError("P is surjective; solve cannot fail")
        cols.append(x)
    d = math.lcm(*(x.denominator for col in cols for x in col))
    r = tuple(tuple((x * d).numerator for x in row) for row in zip(*cols))
    for i, row in enumerate(p):
        for j in range(len(p)):
            if sum(a * r[k][j] for k, a in enumerate(row)) != (d if i == j else 0):
                raise AssertionError("P R = D I failed for the right inverse of P")
    return r


def delta_contains(p: Sequence, wd: WeightData) -> bool:
    """Membership of a point in the projected tropical variety Delta.

    Applies the calibrated four-point test to the preimage R p, where R is
    the integer matrix with P R = D I built once per n.  The choice of
    preimage is irrelevant because ker P is the row space of Q, which lies in
    the tropical lineality, and the positive scale D is irrelevant because
    the four-point test is invariant under positive scaling.
    """
    if len(p) != len(wd.p):
        raise ValueError("point has wrong dimension")
    s = tropical_sign()
    return trop_contains(
        [s * _dot(row, p) for row in _p_right_inverse(wd.n)],
        wd.n,
    )


def delta_meets_relint(cone, wd: WeightData) -> bool:
    """Exact test that the relative interior of a cone intersects Delta.

    This is the criterion the point test cannot decide for cones of higher
    dimension than Delta: a single interior representative may miss the
    tree-cone images even when the relative interior crosses them.
    """
    return _relint_meets_delta(cone, wd.n, tropical_sign())
