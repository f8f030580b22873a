"""GIT fans of the Grassmannian cone and the blow-up pipeline.

Chambers are enumerated twice, by wall-sign regions and by the defining
intersection of Y-set cones.  Each Y-cone is held as span equations and
inequalities read off its Y-set's class labelling, with no conversion
(``grassmann.y_cone_description``): it is full-dimensional exactly when it
has no equation, and its facets are among its inequalities then.  Each
region R is certified against the second path at its ray sum p without a
conversion: R is full-dimensional, no holder of p has a span equation, the
generators of R satisfy every inequality of every holder, and every facet
of R is an inequality of a holder.  Every facet of an intersection of
full-dimensional cones is a facet of one of them, so this holds exactly
when R is the chamber of p (``_chamber_certified``).  The
ambient fans of the two distinguished chambers feed the iterated stellar
subdivision toward the reduced tropical fan, which is checked cone by cone
against it.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from . import grassmann as gr
from . import symmetry as sym
from .exact_linalg import _dot, kernel_basis, primitive_vector, rank, solve
from .grassmann import Pair, TwoBlock
from .polyhedral import (
    Cone,
    Fan,
    IVec,
    _canonical_subspace_basis,
    _neg,
    fan_from_maximal,
    is_subfan,
    stellar_subdivide,
)


class ChamberCertificationError(AssertionError):
    """A wall-sign region disagreed with the defining chamber intersection."""

    def __init__(self, rep, region_cone, chamber_cone):
        super().__init__(f"chamber certification failed at {rep}")
        self.rep = rep
        self.region_cone = region_cone
        self.chamber_cone = chamber_cone


# ---------------------------------------------------------------------------
# cones of weight columns
# ---------------------------------------------------------------------------


def omega(n: int) -> Cone:
    """The positive orthant, support of the GIT fan."""
    eye = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    return Cone.from_generators(eye, n)


def omega_star(n: int) -> Cone:
    """cone(e_i + e_j), support of the GIT fan of the smaller Grassmannian."""
    gens = [
        tuple(1 if r in (i, j) else 0 for r in range(1, n + 1))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]
    return Cone.from_generators(gens, n)


class _ConeTable(NamedTuple):
    """Cones listed by their span equations and inequalities, each distinct
    one once, with nothing built.

    ``eqs`` pairs the i-th distinct span equation with the bit 1 << i, so a
    span is a bitmask over them: cone k has the span mask ``spans[k]`` and
    the inequalities ``facet_ids[k]``, indices into ``normals``.  With its
    span equations they cut the cone out exactly, and none vanishes on the
    whole cone, so a point of the span lies in the relative interior
    exactly when every inequality is positive there.  A pool cone's
    inequalities are one GKZ wall per facet (``_gkz_pool``).  A Y-cone is
    full-dimensional exactly when it has no span equation, and then has its
    facets among its inequalities (``grassmann.y_cone_description``).
    ``masks[k]`` lists the Y-set masks cone k stands for.
    """

    ambient: int
    masks: tuple[tuple[int, ...], ...]
    eqs: tuple[tuple[IVec, int], ...]
    spans: tuple[int, ...]
    normals: tuple[IVec, ...]
    facet_ids: tuple[tuple[int, ...], ...]

    def facets(self, k: int) -> list[IVec]:
        return [self.normals[f] for f in self.facet_ids[k]]

    def span_eqs(self, k: int) -> list[IVec]:
        return [e for e, bit in self.eqs if self.spans[k] & bit]


def _cone_table(
    ambient: int,
    span_eqs: Sequence[Sequence[IVec]],
    ineqs: Sequence[Sequence[IVec]],
    masks: Sequence[Sequence[int]],
) -> _ConeTable:
    """The table of the cones with the given span equations and
    inequalities, each without repeats."""
    eq_bit = {e: 1 << i for i, e in enumerate(sorted({e for eqs in span_eqs for e in eqs}))}
    normals = sorted({a for rows in ineqs for a in rows})
    normal_id = {a: i for i, a in enumerate(normals)}
    return _ConeTable(
        ambient,
        tuple(tuple(m) for m in masks),
        tuple(eq_bit.items()),
        tuple(sum(eq_bit[e] for e in eqs) for eqs in span_eqs),
        tuple(normals),
        tuple(tuple(normal_id[a] for a in rows) for rows in ineqs),
    )


def _holders(table: _ConeTable, pt: Sequence[int], relint: bool = False) -> list[int]:
    """Indices of the table's cones holding the integer point pt, in their
    relative interior with ``relint``.

    A cone whose span misses pt is skipped on its mask alone; inequality
    values at pt are computed once per distinct normal.
    """
    low = 1 if relint else 0
    zero = sum(bit for e, bit in table.eqs if not _dot(e, pt))
    value: dict[int, int] = {}
    out = []
    for k, (mask, fids) in enumerate(zip(table.spans, table.facet_ids)):
        if mask & ~zero:
            continue
        for f in fids:
            d = value.get(f)
            if d is None:
                d = value[f] = _dot(table.normals[f], pt)
            if d < low:
                break
        else:
            out.append(k)
    return out


def _intersection(table: _ConeTable, ks: Iterable[int]) -> Cone:
    """The intersection of the table's cones ks, by double description."""
    ks = list(ks)
    return Cone.from_inequalities(
        [a for k in ks for a in table.facets(k)],
        [e for k in ks for e in table.span_eqs(k)],
        ambient=table.ambient,
    )


def _y_table(n: int, masks: Iterable[int]) -> _ConeTable:
    """The Y-cones omega_J = cone(w_p; p in J) of the given Y-set masks, each
    described by the span equations and inequalities read off its class
    labelling (``grassmann.y_cone_description``); masks of one description
    share one entry."""
    by_key: dict[tuple, list[int]] = {}
    for m in masks:
        by_key.setdefault(gr.y_cone_description(m, n), []).append(m)
    keys = sorted(by_key)
    return _cone_table(
        n, [eqs for eqs, _ in keys], [ineqs for _, ineqs in keys], [by_key[k] for k in keys]
    )


@lru_cache(maxsize=None)
def _y_pool(n: int) -> _ConeTable:
    """The Y-cones, the chambers' defining cones over the orthant."""
    return _y_table(n, gr.y_set_masks(n))


@lru_cache(maxsize=None)
def _y_star_pool(n: int) -> _ConeTable:
    """The Y*-cones: the cones of the Y-sets made of inner pairs only."""
    outer = sum(1 << k for k, p in enumerate(gr.pairs(n)[0]) if p[0] == 0)
    return _y_table(n, [m for m in gr.y_set_masks(n) if not m & outer])


def _table_chamber(w: Sequence, n: int, table: _ConeTable) -> Cone:
    pt = primitive_vector(w)
    if len(pt) != n:
        raise ValueError("point has wrong dimension")
    # the support is the Y-cone of all the table's pairs: outside it, no holder
    holders = _holders(table, pt)
    if not holders:
        raise ValueError(f"point {tuple(w)} lies outside the support")
    return _intersection(table, holders)


def chamber(w: Sequence, n: int) -> Cone:
    """The GIT chamber of a weight: intersection of all Y-set cones containing it."""
    return _table_chamber(w, n, _y_pool(n))


def chamber_star(w: Sequence, n: int) -> Cone:
    return _table_chamber(w, n, _y_star_pool(n))


def _chamber_certified(cone: Cone, n: int, star: bool = False) -> bool:
    """Whether the cone is the chamber (of the smaller support with
    ``star``) of its ray sum p, read off the Y-cones holding p with no
    conversion.  It is when

    1. the cone is full-dimensional,
    2. no holder has a span equation,
    3. every generator of the cone lies on the non-negative side of every
       inequality of every holder, and
    4. every facet of the cone is an inequality of some holder.

    This is exact.  A Y-cone is described exactly by its span equations
    and inequalities, is full-dimensional exactly when it has no equation,
    and then has its facets among its inequalities
    (``grassmann.y_cone_description``).  By 3 the cone lies in the
    intersection of the holders, which is chamber(p); by 4 chamber(p),
    inside every holder, lies on the inner side of each facet of the cone,
    so inside the cone.  Conversely a full-dimensional chamber(p) has p in
    its interior, so every holder is full-dimensional, and every facet of
    an intersection of full-dimensional cones is a facet of one of them,
    hence an inequality of it: a correct cone passes.
    """
    if cone.dim != n:
        return False
    table = _y_star_pool(n) if star else _y_pool(n)
    ids: set[int] = set()
    for k in _holders(table, cone.relint_point()):
        if table.spans[k]:
            return False
        ids.update(table.facet_ids[k])
    normals = {table.normals[f] for f in ids}
    if not normals.issuperset(cone.facets):
        return False
    gens = cone.generators()
    return all(_dot(a, g) >= 0 for a in normals for g in gens)


def _certify_chamber(cone: Cone, n: int, star: bool = False) -> Cone:
    """The cone, once it equals the chamber (of the smaller support with
    ``star``) of its relative interior point: certified from the holders
    of that point (``_chamber_certified``), or else compared with the
    chamber by double description; disagreement raises."""
    if _chamber_certified(cone, n, star):
        return cone
    rep = cone.relint_point()
    ch = chamber_star(rep, n) if star else chamber(rep, n)
    if ch != cone:
        raise ChamberCertificationError(rep, cone, ch)
    return cone


# ---------------------------------------------------------------------------
# wall arrangement and the GIT fan
# ---------------------------------------------------------------------------


def wall_normals(n: int) -> list[tuple[TwoBlock, tuple[int, ...]]]:
    return [
        (tb, gr.two_block_hyperplane(tb)) for tb in gr.all_two_blocks(n)
    ]


@lru_cache(maxsize=None)
def _wall_regions(n: int, star: bool) -> tuple[Cone, ...]:
    from .polyhedral import arrangement_leaves

    if n < 2 + star:
        raise ValueError(f"need n >= {2 + star} (got {n})")
    support = omega_star(n) if star else omega(n)
    walls = [normal for _, normal in wall_normals(n)]
    leaves = arrangement_leaves(
        n, support.facets, walls, base_eqs=support.span_eqs
    )
    return tuple(Cone.from_generators(leaf.rays, n) for leaf in leaves)


@lru_cache(maxsize=None)
def _region_fan(n: int, star: bool) -> Fan:
    """The fan of the wall-sign regions of the support."""
    return fan_from_maximal(_wall_regions(n, star))


def wall_fan(n: int) -> Fan:
    """The fan cut out of the orthant directly by the two-block walls."""
    return _region_fan(n, False)


def git_fan(n: int) -> Fan:
    """GIT fan by sign-region enumeration, every region certified against the
    defining intersection formula; disagreement raises."""
    return _certified_fan(n, False)


def git_fan_star(n: int) -> Fan:
    return _certified_fan(n, True)


@lru_cache(maxsize=None)
def _certified_fan(n: int, star: bool) -> Fan:
    """The region fan, once each region equals the chamber of its relative
    interior point.  The certified chambers are the regions, so the GIT fan
    and the wall fan are one fan, assembled once."""
    for region in _wall_regions(n, star):
        _certify_chamber(region, n, star)
    return _region_fan(n, star)


# ---------------------------------------------------------------------------
# the distinguished chambers and their ambient fans
# ---------------------------------------------------------------------------


def _f1(n: int) -> tuple[int, ...]:
    return tuple(1 if i == 0 else -1 for i in range(n))


def _f1j(n: int, j: int) -> tuple[int, ...]:
    return tuple(1 if i + 1 in (1, j) else -1 for i in range(n))


def _certified_chamber(n: int, ineqs: list) -> Cone:
    """The chamber cut out by the inequalities, certified against the
    defining intersection at its relative interior point."""
    if n < 3:
        raise ValueError("need n >= 3")
    eye = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    return _certify_chamber(Cone.from_inequalities(eye + ineqs, ambient=n), n)


@lru_cache(maxsize=None)
def lambda0(n: int) -> Cone:
    """The chamber on the w_01 side of the first wall."""
    return _certified_chamber(n, [_f1(n)])


@lru_cache(maxsize=None)
def lambda1(n: int) -> Cone:
    """The adjacent chamber across ker(f1), inside the smaller support."""
    neg_f1 = tuple(-x for x in _f1(n))
    return _certified_chamber(n, [neg_f1] + [_f1j(n, j) for j in range(2, n + 1)])


@lru_cache(maxsize=None)
def _enveloping_witnesses(n: int, lam_key: int) -> tuple[int, ...]:
    """Masks of the Y-sets J with relint(lam) inside relint(omega_J), in
    ascending order: the witnesses whose supersets are exactly the
    enveloping sets, for lambda0 (key 0) or lambda1 (key 1)."""
    if lam_key not in (0, 1):
        raise ValueError(f"chamber key must be 0 or 1 (got {lam_key!r})")
    lam = lambda1(n) if lam_key else lambda0(n)
    table = _y_pool(n)
    gens = lam.generators()
    out: list[int] = []
    for k in _holders(table, lam.relint_point(), relint=True):
        eqs, facets = table.span_eqs(k), table.facets(k)
        if all(_dot(e, g) == 0 for e in eqs for g in gens) and all(
            _dot(a, g) >= 0 for a in facets for g in gens
        ):
            out.extend(table.masks[k])
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def sigma_fan_cached(n: int, lam_key: int) -> Fan:
    """The ambient toric fan of lambda0 (key 0) or lambda1 (key 1): cones on
    column complements of enveloping sets, assembled from the minimal
    witnesses and validated."""
    witnesses = _enveloping_witnesses(n, lam_key)
    minimal = [j for j in witnesses if not any(k != j and k & j == k for k in witnesses)]
    fan = fan_from_maximal(_column_cone(n, j) for j in minimal)
    if not fan.is_simplicial:
        raise AssertionError(f"ambient fan for lambda{lam_key} is not simplicial")
    return fan


# ---------------------------------------------------------------------------
# the subdivision rays
# ---------------------------------------------------------------------------


def _nu_coefficients(a: Iterable[int], n: int) -> tuple[int, ...]:
    """The coefficients of nu over ``pairs(n)[0]``: 1 on each pair {0, i}
    with i in the block, 2 on each pair inside the block."""
    a = set(a)
    return tuple(1 if i == 0 and j in a else 2 if {i, j} <= a else 0 for i, j in gr.pairs(n)[0])


def nu_vector(a: Iterable[int], n: int) -> tuple[int, ...]:
    """sum of v_0i over the block plus twice the v_jk inside it."""
    coeffs = _nu_coefficients(a, n)
    return tuple(_dot(row, coeffs) for row in gr.weights(n).p)


def nu_ray(tb: TwoBlock) -> tuple[int, ...]:
    """Primitive subdivision ray of a true two-block partition; the two block
    expressions are asserted to agree exactly."""
    if not tb.is_true:
        raise ValueError("need a true two-block partition (both blocks >= 2)")
    v1 = nu_vector(tb.block, tb.n)
    v2 = nu_vector(tb.complement, tb.n)
    if v1 != v2:
        raise AssertionError(f"block expressions disagree for {tb}: {v1} != {v2}")
    return primitive_vector(v1)


def nu_order(n: int) -> list[TwoBlock]:
    """True partitions in subdivision order: descending block size, then lex."""
    return sorted(
        gr.true_two_blocks(n), key=lambda tb: (-len(tb.block), sorted(tb.block))
    )


def sigma_r_carrier(tb: TwoBlock) -> Cone:
    wd = gr.weights(tb.n)
    block = set(tb.block) | {0}
    gens = [wd.v[p] for p in gr.pairs(tb.n)[0] if set(p) <= block]
    return Cone.from_generators(gens, len(wd.p))


@lru_cache(maxsize=None)
def sigma_r(n: int) -> Fan:
    """Iterated stellar subdivision of the lambda1 ambient fan in the nu rays,
    in descending order; each carrier is verified before subdividing."""
    return _sigma_r_with_order(sigma_fan_cached(n, 1), nu_order(n))


def _sigma_r_with_order(base: Fan, order: Sequence[TwoBlock]) -> Fan:
    """Subdivide in the given order, each nu ray at its turn only when its
    carrier in the current fan is its block's carrier.  That carrier's rays
    are base rays, and subdividing adds only cones through the nu rays, so
    it is a cone of the base fan too."""
    fan = base
    for tb in order:
        ray = nu_ray(tb)
        if fan.carrier(ray) != sigma_r_carrier(tb):
            raise AssertionError(f"the carrier of the nu ray of {tb} is not its block's")
        fan = stellar_subdivide(fan, ray)
    return fan


# ---------------------------------------------------------------------------
# GKZ cones and the Delta-reduction
# ---------------------------------------------------------------------------


def _column_cone(n: int, ymask: int) -> Cone:
    """cone(v_p; p not in the Y-set of the mask)."""
    wd = gr.weights(n)
    cols = [wd.v[p] for k, p in enumerate(wd.pairs0) if not ymask >> k & 1]
    return Cone.from_generators(cols, len(wd.p))


@lru_cache(maxsize=None)
def _gkz_pool(n: int) -> tuple[tuple[tuple, tuple[int, ...]], ...]:
    """The distinct cones C = cone(v_p; p not in J) of the Y-sets J, in
    first-found order over ``y_set_masks``: each as (span equations, facet
    normals), read off the GKZ walls, with the masks of its Y-sets.

    These are the column cones whose relative interior meets Delta, so for
    a point of Delta they are all the column cones holding it in their
    relative interior.  This relint criterion (relint cone(v_p; p in S)
    meets Delta iff the complement J of S is a Y-set) is proved here; it is
    also tested for every column subset at n = 3, 4 against
    ``delta_meets_relint``.  Reduction: relint cone(v_p; p in S) is
    {P y : y > 0 on S, y = 0 on J}.  Delta is P(s T) for the max-convention
    four-point set T and s = ``tropical_sign()`` = -1: the proof below is
    the min convention's, and the opposite sign breaks the criterion at
    n = 3 on S = {12} (checked by ``tropical_sign``).  As ker P, the row
    space of Q, lies in T's lineality, the relint meets Delta iff some
    y >= 0 with zero set exactly J meets the min-convention four-point
    condition.  Only if: for disjoint ij, kl in J, y_ij + y_kl = 0 is the
    least of the three pairings, so it is attained twice, and a second
    pairing lies in J: that is the exchange condition.
    If: lift ``y_set_witness``'s (u, v) to [u + t 1 ; v + t b] over Q[t],
    b_i = i^2, and let y_p be the order at t = 0 of its minor at p.  It is
    0 exactly on J, as the t^0 term is the minor of u and v, and at most 2,
    as the t^2 term is b_j - b_i != 0; the orders of a Plucker vector meet
    the min-convention tropical Plucker relations.

    The span equations are the canonical basis of the kernel of the columns
    off J; the facet normals are the walls (``_gkz_walls``) of one sign on
    them, signed >= 0, whose zero sets there are maximal short of all of
    them, the first wall of each.  Proof: such a wall cuts the span L of C
    in a hyperplane supporting C, and its zero set spans the face cut;
    every proper face lies in a facet.  For a facet with hyperplane H in L,
    complete a basis of H and one column off H, all columns of C, by
    columns to a basis of R^d, and drop that one column: the rest span a
    wall meeting L in H.  So the maximal zero sets are the facets' columns,
    and the kept walls cut C out with the span equations.  The walls
    meeting L in H depend on C alone, so one cone gets one description.
    """
    wd = gr.weights(n)
    cols = [wd.v[p] for p in wd.pairs0]
    walls = _gkz_walls(n)
    # per column, the bitmasks of the walls positive, negative and zero on it
    signs = [[_dot(a, c) for a in walls] for c in cols]
    pos = [sum(1 << w for w, x in enumerate(row) if x > 0) for row in signs]
    neg = [sum(1 << w for w, x in enumerate(row) if x < 0) for row in signs]
    zero = [(1 << len(walls)) - 1 & ~(p | q) for p, q in zip(pos, neg)]
    groups: dict[tuple, list[int]] = {}
    for ymask in gr.y_set_masks(n):
        off = (1 << len(cols)) - 1 & ~ymask
        ks = [k for k in range(len(cols)) if off >> k & 1]
        above = below = 0
        for k in ks:
            above |= pos[k]
            below |= neg[k]
        # the walls of one sign on the columns off J, nonzero on some, taken
        # a zero set at a time: the first such wall, and with it every wall
        # zero on exactly the same columns off J
        cut: dict[int, IVec] = {}
        rest = above ^ below
        while rest:
            w = (rest & -rest).bit_length() - 1
            same, z = rest, 0
            for k in ks:
                if zero[k] >> w & 1:
                    same &= zero[k]
                    z |= 1 << k
                else:
                    same &= ~zero[k]
            rest &= ~same
            cut[z] = walls[w] if above >> w & 1 else _neg(walls[w])
        facets = sorted(a for z, a in cut.items() if not any(y != z and y & z == z for y in cut))
        # with no column left, the zero row: its kernel basis is the unit rows
        rows = [cols[k] for k in ks] or [(0,) * len(wd.p)]
        eqs = _canonical_subspace_basis(kernel_basis(rows))
        groups.setdefault((eqs, tuple(facets)), []).append(ymask)
    return tuple((key, tuple(masks)) for key, masks in groups.items())


@lru_cache(maxsize=None)
def _gkz_table(n: int) -> _ConeTable:
    """The pool as a table of cones, with the Y-set masks of each."""
    keys, masks = zip(*_gkz_pool(n))
    eqs, facets = zip(*keys)
    return _cone_table(len(gr.weights(n).p), eqs, facets, masks)


def _gkz_profile(pt: Sequence[int], n: int) -> frozenset[int]:
    """Indices of the pool cones whose relative interior contains pt."""
    return frozenset(_holders(_gkz_table(n), pt, relint=True))


def _profile_cone(profile: Iterable[int], pt: Sequence[int], n: int) -> Cone:
    """Intersection of the pool cones of a profile, checked to hold pt in its
    relative interior."""
    sigma = _intersection(_gkz_table(n), profile)
    if not sigma.contains(pt, "relative_interior"):
        raise AssertionError("GKZ cone does not contain its point in relint")
    return sigma


@lru_cache(maxsize=None)
def _gkz_walls(n: int) -> tuple[tuple[int, ...], ...]:
    """Hyperplanes spanned by columns, sorted, each as its canonical normal
    (positive first nonzero entry): the kernel of every d - 1 columns whose
    kernel is a line.  A hyperplane spanned by columns holds d - 1
    independent ones, so none is missed."""
    wd = gr.weights(n)
    cols = [wd.v[p] for p in gr.pairs(n)[0]]
    walls = set()
    for rows in itertools.combinations(cols, len(wd.p) - 1):
        kernel = kernel_basis(rows)
        if len(kernel) == 1:
            walls.add(_canonical_subspace_basis(kernel)[0])
    return tuple(sorted(walls))


def _sweep_tree(
    n: int, basis: Sequence[tuple[int, ...]]
) -> list[tuple[tuple[int, ...], frozenset[int]]]:
    """The ray sums of the full-dimensional regions the GKZ walls cut from
    the closed tree cone of the basis, in leaf order, each with its GKZ
    profile.

    The GKZ walls, pulled back to the tree coordinates, cut the closed tree
    cone T (split coordinates >= 0, the lineality coordinate free) into
    regions.  A region's representative is the sum of its rays and
    lineality vectors, which lies in its interior: it is asserted to have
    exactly the region's signs on the walls.  Every column span is a flat of
    the column matroid, hence the intersection of the GKZ walls that contain
    it, so a point with the region's signs lies in a column span exactly
    when the whole open region does; the GKZ profile, read off the spans and
    facet signs of the pool cones, is then one profile sigma_R on int R, and
    B int R lies in relint sigma_R.  The tree cone image lies inside Delta,
    so every representative is asserted to lie in Delta.

    The regions lose no maximal cone.  Take x in Delta in the relative
    interior of a maximal cone sigma' of the Delta-reduction.  Then x = B t
    with t in the closed tree cone T of some tree, and the closed regions
    tile T, so t lies in some region R.  The cone sigma_R holds B int R, a
    subset of Delta, in its relative interior, so it is a cone of the
    reduction, and it holds x = B t, as t lies in the closure of int R.  In
    a fan the cone holding x in its relative interior is a face of every
    cone holding x, so sigma' is a face of sigma_R, and sigma' = sigma_R as
    sigma' is maximal.

    Nor do they change a witness.  The cells of T (regions and their
    faces, signs in {+, -, 0}) come out of a sweep with boundaries in
    lexicographic sign order with + < - < 0.  Take a cell c whose profile
    sigma is maximal.  A region whose closure holds c keeps c's nonzero
    signs and is nonzero where c is 0, so it comes before c, and by the
    argument above its profile is sigma.  So in each tree the first cell
    of each maximal profile is a region, and the regions give the same
    first representatives.  The other cells only added profiles that are
    not maximal, which ``fan_from_maximal`` pruned.
    """
    from .polyhedral import arrangement_leaves

    wd = gr.weights(n)
    dim = len(wd.p)
    if rank(basis) != len(basis):
        raise AssertionError("tree cone image is degenerate")
    twalls: set[tuple[int, ...]] = set()
    for a in _gkz_walls(n):
        ta = tuple(_dot(a, b) for b in basis)
        if any(ta):
            ta = primitive_vector(ta)
            if next(x for x in ta if x) < 0:
                ta = tuple(-x for x in ta)
            twalls.add(ta)
    walls = sorted(twalls)
    k = len(basis)
    orthant = [tuple(1 if j == i else 0 for j in range(k)) for i in range(k - 1)]
    out = []
    for leaf in arrangement_leaves(k, orthant, walls):
        vecs = leaf.rays + leaf.lineality
        t = tuple(sum(v[j] for v in vecs) for j in range(k))
        if tuple((x > 0) - (x < 0) for x in (_dot(a, t) for a in walls)) != leaf.signs:
            raise AssertionError(f"the ray sum {t} of a region misses its wall signs")
        rep = tuple(sum(t[j] * basis[j][i] for j in range(k)) for i in range(dim))
        if not gr.delta_contains(rep, wd):
            raise AssertionError(f"tree cone representative {rep} lies outside Delta")
        out.append((rep, _gkz_profile(rep, n)))
    return out


class DeltaReduction(NamedTuple):
    fan: Fan
    witnesses: dict
    tree_count: int
    rep_count: int  # full-dimensional regions swept, over the orbit trees


@lru_cache(maxsize=None)
def _delta_reduction_data(n: int) -> DeltaReduction:
    """Maximal GKZ cones met by Delta, each with its first-found witness.

    The tree cone images cover Delta.  Only the first tree of each S_n orbit
    (``symmetry.tree_orbits``) is swept (``_sweep_tree``), and the first
    representative of each profile there gets its profile cone by
    conversion (``_profile_cone``).  Every tree, in ``trivalent_trees``
    order, then takes these pairs in leaf order, each moved by its sigma's
    permutation of the Gale coordinates (``symmetry.gale_permutation``): the
    point as a vector, the cone by ``Cone.permuted``.  Every image must lie
    in the relative interior of its moved cone, checked before the cone is
    looked up, so that a wrong move cannot hide behind a cone already seen.
    A cone not seen before gets the image as its witness, which must lie in
    Delta.  ``rep_count`` counts the regions swept, ``tree_count`` the trees
    covered.

    This is exact.  sigma maps every v_p to v_sigma(p) (checked in
    ``gale_permutation``) and every Y-set to a Y-set (checked here on the
    adjacent transpositions, which generate S_n), so it maps each pool cone
    cone(v_p; p not in J) onto the pool cone of sigma J, and its relative
    interior onto that cone's relative interior.  Hence the profile of
    sigma x is sigma applied to the profile of x, and the profile cone of
    sigma x is sigma applied to the profile cone of x.  Deduplicating by
    cone key is deduplicating by profile, as a profile is constant on the
    relative interior of its cone.  sigma maps the representative's tree
    basis onto sigma T's (asserted), hence its tree cone image onto sigma
    T's, and it permutes the GKZ walls, so it maps the regions of T onto
    the regions of sigma T: the regions, ray sums and profiles of sigma T
    are the images of T's.  So only the first representative of each
    profile of a swept tree need be moved: the later ones would be skipped.
    """
    if n < 3:
        raise ValueError(f"need n >= 3 (got {n})")
    masks = set(gr.y_set_masks(n))
    for i in range(1, n):
        swap = sym.pair_permutation(n, (*range(1, i), i + 1, i, *range(i + 2, n + 1)))
        if {sum(1 << s for k, s in enumerate(swap) if m >> k & 1) for m in masks} != masks:
            raise AssertionError(f"the Y-sets are not invariant under ({i} {i + 1})")
    wd = gr.weights(n)
    trees = gr.trivalent_trees(n)
    # per swept tree: the first representative of each profile, with its cone
    swept: dict[int, list[tuple[tuple[int, ...], Cone]]] = {}
    rep_count = 0
    # per cone key: the cone and its first witness
    cones: dict[tuple, tuple[Cone, tuple[int, ...]]] = {}
    for tree, (r, sigma) in zip(trees, sym.tree_orbits(n)):
        rep_basis = gr.tree_basis(n, trees[r])
        if r not in swept:
            reps = _sweep_tree(n, rep_basis)
            rep_count += len(reps)
            first: dict[frozenset[int], tuple[int, ...]] = {}
            for rep, profile in reps:
                first.setdefault(profile, rep)
            swept[r] = [(rep, _profile_cone(profile, rep, n)) for profile, rep in first.items()]
        inv = sym.gale_permutation(n, sigma)
        image, basis = [tuple(b[k] for k in inv) for b in rep_basis], gr.tree_basis(n, tree)
        if image[-1] != basis[-1] or sorted(image) != sorted(basis):
            raise AssertionError(f"sigma = {sigma} does not map tree {trees[r]} onto {tree}")
        for rep, cone in swept[r]:
            w, c = tuple(rep[k] for k in inv), cone.permuted(inv)
            if not c.contains(w, "relative_interior"):
                raise AssertionError(f"the image {w} misses its moved cone's relative interior")
            if c._key() not in cones:
                if not gr.delta_contains(w, wd):
                    raise AssertionError(f"the image {w} of a representative lies outside Delta")
                cones[c._key()] = (c, w)

    fan = fan_from_maximal(c for c, _ in cones.values())
    witnesses = {c._key(): cones[c._key()][1] for c in fan.maximal}
    return DeltaReduction(fan, witnesses, len(trees), rep_count)


def delta_reduction(n: int) -> Fan:
    """The Delta-reduction of the GKZ fan: maximal GKZ cones whose relative
    interiors meet the projected tropical variety, closed under faces."""
    return _delta_reduction_data(n).fan


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------


def verify_walls(n: int) -> dict:
    """The GIT fan checked against the wall fan region by region (each
    wall-sign region must equal the defining intersection at its relative
    interior point), plus the counted facts at n = 3, 4."""
    certificates = []
    result = True
    try:
        gf = git_fan(n)
    except ChamberCertificationError as err:
        result = False
        certificates.append(
            {
                "kind": "chamber-certification",
                "rep": list(err.rep),
                "region": [list(r) for r in err.region_cone.rays],
                "chamber": [list(r) for r in err.chamber_cone.rays],
            }
        )
        gf = None
    counts = {}
    if gf is not None:
        counts["walls"] = len(wall_normals(n))
        counts["maximal_chambers"] = len(gf.maximal)
        star = omega_star(n)
        counts["chambers_inside_star"] = sum(
            1 for c in gf.maximal if star.contains_cone(c)
        )
        expected = {
            3: {"walls": 3, "maximal_chambers": 4, "chambers_inside_star": 1},
            4: {"walls": 7, "maximal_chambers": 12, "chambers_inside_star": 8},
        }
        if n in expected and counts != expected[n]:
            result = False
            certificates.append({"kind": "counted-facts", "counts": counts})
    return {
        "claim": "walls",
        "n": n,
        "result": result,
        "counts": counts,
        "certificates": certificates,
    }


def verify_star_subfan(n: int) -> dict:
    ok = is_subfan(git_fan_star(n), git_fan(n))
    return {"claim": "star-subfan", "n": n, "result": ok, "certificates": []}


def verify_nu_equality(n: int) -> dict:
    """nu well-definedness: identical block expressions, difference of the
    coefficient vectors in the row space of Q with unit coefficients, the
    block's carrier as the carrier of the ray in the lambda1 ambient fan, and
    a carrier in the lambda0 ambient fan for every block."""
    sigma1 = sigma_fan_cached(n, 1)
    wd = gr.weights(n)
    all_pairs, _ = gr.pairs(n)
    certificates = []
    result = True
    for tb in gr.true_two_blocks(n):
        entry = {"block": sorted(tb.block)}
        try:
            ray = nu_ray(tb)
        except AssertionError as err:
            result = False
            entry["error"] = str(err)
            certificates.append(entry)
            continue
        diff = [
            a - b
            for a, b in zip(_nu_coefficients(tb.block, n), _nu_coefficients(tb.complement, n))
        ]
        urow = [0] * len(all_pairs)
        for i in range(1, n + 1):
            s = 1 if i in tb.block else -1
            for k, x in enumerate(wd.q[i - 1]):
                urow[k] += s * x
        if diff != urow:
            result = False
            entry["error"] = "difference not the signed row sum of Q"
            certificates.append(entry)
            continue
        if sigma1.carrier(ray) != sigma_r_carrier(tb):
            result = False
            entry["error"] = "carrier in the lambda1 ambient fan is not the block's"
            certificates.append(entry)
    # carriers over lambda0 exist for every block of size >= 2
    witnesses0 = _enveloping_witnesses(n, 0)
    for size in range(2, n):
        for a in itertools.combinations(range(2, n + 1), size):
            block = set(a) | {0}
            complement = sum(1 << k for k, p in enumerate(all_pairs) if not set(p) <= block)
            if not any(j & complement == j for j in witnesses0):
                result = False
                certificates.append(
                    {"block": sorted(a), "error": "carrier missing from Sigma_0"}
                )
    return {
        "claim": "nu-equality",
        "n": n,
        "result": result,
        "certificates": certificates,
    }


def verify_delta_subfan(n: int) -> dict:
    """The pipeline theorem at desk scale: the Delta-reduction is a subfan of
    the iterated stellar subdivision, with cone-by-cone certificates.  As
    Sigma_r is simplicial, a Delta cone is a face of a maximal cone m iff it
    is pointed with its rays among m's; ``is_subfan`` must agree with this
    scan.

    The Sigma_r checked is ``sigma_r(n)``, subdivided in ``nu_order(n)``.
    At n = 5 the order of the subdivisions changes the fan, so there the
    claim is proved for that order only."""
    data = _delta_reduction_data(n)
    sr = sigma_r(n)
    if not sr.is_simplicial:
        raise AssertionError("Sigma_r is not simplicial")
    certificates = []
    ok = True
    for c in data.fan.maximal:
        rays = set(c.rays)
        match = next((m for m in sr.maximal if c.is_pointed and rays <= set(m.rays)), None)
        witness = data.witnesses[c._key()]
        entry = {
            "delta_cone_rays": [list(r) for r in c.rays],
            "delta_witness": list(witness),
            "matched": match is not None,
        }
        if match is not None:
            entry["sigma_r_cone_rays"] = [list(r) for r in match.rays]
        else:
            ok = False
        certificates.append(entry)
    subfan = is_subfan(data.fan, sr)
    if subfan != ok:
        raise AssertionError("is_subfan disagrees with the certificate scan")
    return {
        "claim": "delta-subfan",
        "n": n,
        "result": ok,
        "delta_maximal": len(data.fan.maximal),
        "sigma_r_maximal": len(sr.maximal),
        "certificates": certificates,
    }


def verify_ray_classification(n: int) -> dict:
    """Rays of the Delta-reduction against the predicted candidates, plus the
    contraction check on the lambda0 ambient fan."""
    data = _delta_reduction_data(n)
    wd = gr.weights(n)
    candidates: dict[tuple[int, ...], str] = {}
    for p in gr.pairs(n)[1]:
        candidates[primitive_vector(wd.v[p])] = f"v_{p[0]}{p[1]}"
    for i in range(1, n + 1):
        candidates[primitive_vector(wd.v[(0, i)])] = f"v_0{i}"
    for tb in gr.true_two_blocks(n):
        candidates[nu_ray(tb)] = "nu_" + "".join(map(str, sorted(tb.block)))
    rays = set(data.fan.rays)
    unexpected = sorted(r for r in rays if r not in candidates)
    occurring = sorted(name for r, name in candidates.items() if r in rays)
    sigma0 = sigma_fan_cached(n, 0)
    sigma1 = sigma_fan_cached(n, 1)
    v01 = primitive_vector(wd.v[(0, 1)])
    sr_rays = set(sigma_r(n).rays)
    nu_rays_present = all(nu_ray(tb) in sr_rays for tb in gr.true_two_blocks(n))
    result = not unexpected and v01 not in set(sigma0.rays) and nu_rays_present
    return {
        "claim": "rays",
        "n": n,
        "result": result,
        "occurring": occurring,
        "unexpected": [list(r) for r in unexpected],
        "v01_ray_of_sigma0": v01 in set(sigma0.rays),
        "v01_ray_of_sigma1": v01 in set(sigma1.rays),
        "nu_rays_in_sigma_r": nu_rays_present,
        "certificates": [],
    }


# ---------------------------------------------------------------------------
# blow-up center ideals
# ---------------------------------------------------------------------------


Monomial = tuple[tuple[int, ...], tuple[int, ...]]  # T exponents, S exponents


def _poly_mul(a: dict[Monomial, int], b: dict[Monomial, int]) -> dict:
    out: dict[Monomial, int] = {}
    for (ta, sa), ca in a.items():
        for (tb, sb), cb in b.items():
            key = (
                tuple(x + y for x, y in zip(ta, tb)),
                tuple(x + y for x, y in zip(sa, sb)),
            )
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def _poly_str(poly: dict[Monomial, int], n: int) -> str:
    def mono_str(texp, sexp):
        parts = []
        for i in range(2, n + 1):
            e = texp[i - 2]
            if e == 1:
                parts.append(f"T{i}")
            elif e > 1:
                parts.append(f"T{i}^{e}")
        for i in range(2, n + 1):
            e = sexp[i - 2]
            if e == 1:
                parts.append(f"S{i}")
            elif e > 1:
                parts.append(f"S{i}^{e}")
        return "*".join(parts) if parts else "1"

    terms = sorted(poly.items(), key=lambda kv: (kv[0][0], kv[0][1]), reverse=True)
    out = ""
    for (texp, sexp), coeff in terms:
        mono = mono_str(texp, sexp)
        if coeff < 0:
            out += "-" if abs(coeff) == 1 else f"-{abs(coeff)}*"
        elif out:
            out += "+" if coeff == 1 else f"+{coeff}*"
        elif coeff != 1:
            out += f"{coeff}*"
        out += mono
    return out


def _pullback_monomial(exponent: dict[Pair, int], n: int) -> dict[Monomial, int]:
    """Substitute homogeneous coordinates: the pair {0,i} maps to T_i, the
    pair {1,j} to S_j, and an inner pair {j,k} to T_j S_k - T_k S_j."""
    zero = tuple(0 for _ in range(n - 1))
    poly: dict[Monomial, int] = {(zero, zero): 1}
    for (i, j), e in sorted(exponent.items()):
        if e == 0:
            continue
        if i == 0 and j == 1:
            raise ValueError("the contracted coordinate has no pullback")
        if i == 0:
            t = list(zero)
            t[j - 2] = 1
            factor = {(tuple(t), zero): 1}
        elif i == 1:
            s = list(zero)
            s[j - 2] = 1
            factor = {(zero, tuple(s)): 1}
        else:
            t1, s1 = list(zero), list(zero)
            t1[i - 2] = 1
            s1[j - 2] = 1
            t2, s2 = list(zero), list(zero)
            t2[j - 2] = 1
            s2[i - 2] = 1
            factor = {(tuple(t1), tuple(s1)): 1, (tuple(t2), tuple(s2)): -1}
        for _ in range(e):
            poly = _poly_mul(poly, factor)
    return poly


class CenterIdeal(NamedTuple):
    carrier_pairs: tuple[Pair, ...]
    alphas: tuple[int, ...]
    c: int
    exponents: tuple[tuple[int, ...], ...]  # over the carrier pairs, in order
    pullback_generators: tuple[str, ...]


def center_ideal(sigma0: Fan, nu: Sequence[int], n: int) -> CenterIdeal:
    """The toric blow-up center of a ray inside the given fan: monomials of
    degree c on the carrier, with the homogeneous-coordinate pullback."""
    wd = gr.weights(n)
    pt = primitive_vector(nu)
    carrier = sigma0.carrier(pt)
    if carrier is None:
        raise ValueError("ray lies outside the support of the fan")
    ray_to_pair = {primitive_vector(wd.v[p]): p for p in gr.pairs(n)[0]}
    try:
        carrier_pairs = tuple(sorted(ray_to_pair[r] for r in carrier.rays))
    except KeyError:
        raise ValueError("carrier rays are not weight columns") from None
    if not carrier.is_simplicial:
        raise ValueError(
            "carrier is not simplicial; minimal decomposition not unique"
        )
    # the columns of the system are the carrier's v_p
    coords = solve(list(zip(*(wd.v[p] for p in carrier_pairs))), pt)
    if coords is None:
        raise AssertionError("carrier does not span its ray")
    alphas = primitive_vector(coords)
    if any(a < 1 for a in alphas):
        raise AssertionError("ray is not interior to its carrier")
    c = math.lcm(*alphas)
    exps = []
    for combo in _bounded_solutions(alphas, c):
        exps.append(tuple(combo))
    generators = []
    for e in exps:
        poly = _pullback_monomial(
            {p: ev for p, ev in zip(carrier_pairs, e)}, n
        )
        generators.append(_poly_str(poly, n))
    return CenterIdeal(
        carrier_pairs, tuple(alphas), c, tuple(exps), tuple(generators)
    )


def _bounded_solutions(alphas: Sequence[int], c: int) -> list[list[int]]:
    out: list[list[int]] = []

    def rec(i: int, remaining: int, acc: list[int]):
        if i == len(alphas):
            if remaining == 0:
                out.append(list(acc))
            return
        for e in range(remaining // alphas[i] + 1):
            rec(i + 1, remaining - e * alphas[i], acc + [e])

    rec(0, c, [])
    return sorted(out, reverse=True)


def center_pullback(a: Iterable[int], n: int) -> list[str]:
    """The displayed generator schema: T_i^2 and T_jS_k - T_kS_j over the block."""
    a = sorted(set(a))
    if not set(a) <= set(range(2, n + 1)) or len(a) < 2:
        raise ValueError("block must be a subset of {2..n} with at least 2 elements")
    return [_poly_str(_pullback_monomial({(0, i): 2}, n), n) for i in a] + [
        _poly_str(_pullback_monomial({p: 1}, n), n) for p in itertools.combinations(a, 2)
    ]
