"""Exact polyhedral cones and fans.

Cones carry both descriptions in a canonical form: primitive sorted extremal
rays plus a lineality basis (V-side), and primitive irredundant facet normals
plus span equations (H-side).  Canonicalisation makes structural equality of
cones coincide with mathematical equality, so fans compare by sorted cone
lists.

The conversion engine is a double description method over plain Python
integers with the combinatorial adjacency test, run once per cone and in one
direction only: generators -> facets via the dual cone.  The rays and
lineality of a generated cone are read off the generators' zero sets over
the facets just found (``_maximal_zero_sets``), and a cone cut out by
inequalities is the polar of the cone its rows generate, with the two
descriptions swapped.  Faces need no conversion: they are read from
facet-ray incidence bitmasks by the same incidence rule.  Neither does
stellar subdivision: the facets of its simplicial pieces are
combinations of the star cone's facets, and each star cone is certified by
the signs those facets take on its rays and on the new ray (they must be its
dual basis, positive at the new ray exactly on the carrier) instead of
re-checking every pair of cones of the fan.

``fan_from_maximal`` first reads one table of sides.  Its planes are the
distinct hyperplanes, up to sign, of the input cones' facets and span
equations; each cone gets the bitmask of the planes it lies weakly above
(h.g >= 0 on every generator, lineality taken with both signs) and of those
it lies weakly below.  Cone d holds cone c iff c lies above each facet of d,
taken with its sign, and above and below each span equation of d: two mask
tests, the exact form of ``d.contains_cone(c)``.  A pair is certified
without solving anything when each cone lies weakly on one side of every
facet and span equation of the other.  Then each constraint of c2 either
holds on all of c1 or cuts c1 in a supporting hyperplane, so c1 ∩ c2 is an
intersection of faces of c1, hence a face of c1, and likewise of c2.

A pair the table does not certify is decided from P = c1 ∩ c2, built
by double description that starts from c1's own rays and lineality, with
c1's facet-ray incidences as the tight sets, and inserts only c2's span
equations and facets.  This is exact: the incidences of an irredundant
H-description are the true tight sets, so the combinatorial adjacency test
holds from the first insertion, and every insertion keeps them exact (a new
ray's tight set is its two parents' common one plus the new constraint, and
an old ray moved onto the new hyperplane along a lineality vector keeps its
own plus the new one).  A facet of c_i
vanishes on P iff it is in the tight set of every ray of P (P's lineality
lies in both cones' lineality, where every facet vanishes), and the
smallest face F_i of c_i holding P is cut by those facets.  P lies in F_i,
so P = F_i, i.e. P is a face of c_i, iff F_i lies in the other cone.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import Container, Iterable, NamedTuple, Optional, Sequence

from .exact_linalg import _dot, _primitive, _rref, primitive_vector

IVec = tuple[int, ...]


class FanAxiomViolation(Exception):
    """A collection of cones failed the common-face fan axiom."""

    def __init__(self, message: str, offending: tuple = ()):  # noqa: D401
        super().__init__(message)
        self.offending = offending


def _neg(a: IVec) -> IVec:
    return tuple(-x for x in a)


def _combine(ca: int, a: Sequence[int], cb: int, b: Sequence[int]) -> IVec:
    return _primitive([ca * x + cb * y for x, y in zip(a, b)])


# ---------------------------------------------------------------------------
# double description state
# ---------------------------------------------------------------------------


class _DDState:
    """Cone as lineality basis plus extremal rays, refined one halfspace at a time."""

    __slots__ = ("dim", "lin", "rays", "tights", "ninserted")

    def __init__(self, dim: int):
        self.dim = dim
        self.lin: list[IVec] = [
            tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)
        ]
        self.rays: list[IVec] = []
        self.tights: list[frozenset[int]] = []
        self.ninserted = 0

    @classmethod
    def of_cone(cls, cone: "Cone") -> "_DDState":
        """State of a cone read off its own V-description, facet j standing
        as inserted constraint j: a ray's tight set is the facets vanishing
        on it.  These incidences are exact and the facets cut out the cone,
        so the combinatorial adjacency test holds for later insertions."""
        st = cls.__new__(cls)
        st.dim = cone.ambient
        st.lin = list(cone.lineality)
        st.rays = list(cone.rays)
        st.tights = [
            frozenset(j for j, z in enumerate(cone._zero_masks) if z >> i & 1)
            for i in range(len(cone.rays))
        ]
        st.ninserted = len(cone.facets)
        return st

    def copy(self) -> "_DDState":
        st = _DDState.__new__(_DDState)
        st.dim = self.dim
        st.lin = list(self.lin)
        st.rays = list(self.rays)
        st.tights = list(self.tights)
        st.ninserted = self.ninserted
        return st

    def insert(self, a: Sequence[int]) -> None:
        """Intersect the current cone with {x : a.x >= 0}."""
        idx = self.ninserted
        self.ninserted += 1
        if not any(a):
            return
        pivot = None
        for k, l in enumerate(self.lin):
            if _dot(a, l) != 0:
                pivot = k
                break
        if pivot is not None:
            l0 = self.lin.pop(pivot)
            d0 = _dot(a, l0)
            if d0 < 0:
                l0 = _neg(l0)
                d0 = -d0
            self.lin = [_combine(d0, l, -_dot(a, l), l0) for l in self.lin]
            new_rays = []
            new_tights = []
            for r, t in zip(self.rays, self.tights):
                dr = _dot(a, r)
                # projection along l0 lands every old ray on the new hyperplane
                new_rays.append(r if dr == 0 else _combine(d0, r, -dr, l0))
                new_tights.append(t | {idx})
            new_rays.append(l0)
            new_tights.append(frozenset(range(idx)))
            self.rays = new_rays
            self.tights = new_tights
            return
        pos, zero, neg = [], [], []
        for k, r in enumerate(self.rays):
            d = _dot(a, r)
            (pos if d > 0 else zero if d == 0 else neg).append((k, d))
        if not neg:
            for k, _ in zero:
                self.tights[k] = self.tights[k] | {idx}
            return
        new_rays: list[IVec] = []
        new_tights: list[frozenset[int]] = []
        for k, _ in pos:
            new_rays.append(self.rays[k])
            new_tights.append(self.tights[k])
        for k, _ in zero:
            new_rays.append(self.rays[k])
            new_tights.append(self.tights[k] | {idx})
        for kp, dp in pos:
            tp = self.tights[kp]
            for kn, dn in neg:
                t = tp & self.tights[kn]
                adjacent = True
                for ko in range(len(self.rays)):
                    if ko != kp and ko != kn and t <= self.tights[ko]:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                new_rays.append(_combine(dp, self.rays[kn], -dn, self.rays[kp]))
                new_tights.append(t | {idx})
        self.rays = new_rays
        self.tights = new_tights

    def insert_equation(self, a: Sequence[int]) -> None:
        self.insert(a)
        self.insert(_neg(a))


def _dd(dim: int, ineqs: Iterable[Sequence[int]]) -> tuple[list[IVec], list[IVec]]:
    """V-description (lineality, rays) of {x : ineqs.x >= 0}."""
    st = _DDState(dim)
    for a in ineqs:
        st.insert(a)
    return st.lin, st.rays


# ---------------------------------------------------------------------------
# canonicalisation helpers
# ---------------------------------------------------------------------------


def _canonical_subspace_basis(vectors: Sequence[IVec]) -> tuple[IVec, ...]:
    """Canonical primitive basis (RREF rows) of the span of the given vectors."""
    rows, _ = _rref([v for v in vectors if any(v)])
    return tuple(rows)


def _reduce_mod_subspace(v: IVec, basis: Sequence[IVec]) -> IVec:
    """Orthogonal reduction of v modulo span(basis), exact over the rationals.

    The Gram system G y = B v is solved over the integers: row i of its
    echelon form reads d_i y_i = e_i, so with L the lcm of the d_i the
    reduction scaled by L is L v - sum (L e_i / d_i) b_i.
    """
    if not basis:
        return v
    rows, _ = _rref([[_dot(a, b) for b in basis] + [_dot(a, v)] for a in basis])
    k = len(basis)
    den = math.lcm(*(row[i] for i, row in enumerate(rows)))
    coeffs = [den // row[i] * row[k] for i, row in enumerate(rows)]
    return _primitive(
        [den * x - sum(c * b[j] for c, b in zip(coeffs, basis)) for j, x in enumerate(v)]
    )


def _canonical_rays(rays: Sequence[IVec], lineality: Sequence[IVec]) -> tuple[IVec, ...]:
    out = set()
    for r in rays:
        red = _reduce_mod_subspace(r, lineality)
        if any(red):
            out.add(red)
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# Cone
# ---------------------------------------------------------------------------


class _ConeFields(NamedTuple):
    ambient: int
    rays: tuple[IVec, ...]
    lineality: tuple[IVec, ...]
    facets: tuple[IVec, ...]
    span_eqs: tuple[IVec, ...]


class Cone(_ConeFields):
    """Rational polyhedral cone in canonical dual form.

    ``rays`` are primitive extremal rays reduced orthogonally modulo the
    lineality space; ``facets`` are primitive irredundant inward normals
    reduced modulo the span equations.  ``facets . x >= 0`` and
    ``span_eqs . x = 0`` cut out the cone exactly.  The fields live in a
    named-tuple base; the class keeps an instance dict for its cached zero
    masks.
    """

    @staticmethod
    def from_generators(generators: Iterable[Sequence[int]], ambient: int) -> "Cone":
        gens: list[IVec] = []
        seen = set()
        for g in generators:
            g = primitive_vector(g)
            if len(g) != ambient:
                raise ValueError("generator has wrong dimension")
            if not any(g):
                continue
            if g not in seen:
                seen.add(g)
                gens.append(g)
        return _cone_from_gens(tuple(sorted(gens)), ambient)

    @staticmethod
    def from_inequalities(
        ineqs: Iterable[Sequence[int]],
        eqs: Iterable[Sequence[int]] = (),
        *,
        ambient: int,
    ) -> "Cone":
        ineqs, eqs = list(map(primitive_vector, ineqs)), list(map(primitive_vector, eqs))
        for kind, rows in (("inequality", ineqs), ("equation", eqs)):
            if any(len(a) != ambient for a in rows):
                raise ValueError(f"{kind} has wrong dimension")
        cleaned_ineqs = tuple(sorted({a for a in ineqs if any(a)}))
        cleaned_eqs = tuple(sorted({e for e in eqs if any(e)}))
        return _cone_from_ineqs(cleaned_ineqs, cleaned_eqs, ambient)

    def permuted(self, perm: Sequence[int]) -> "Cone":
        """The image under the coordinate permutation x -> (x[k] for k in
        perm), with no conversion.  The map is orthogonal, so moved rays stay
        primitive and reduced modulo the moved lineality, and moved facets
        modulo the moved span equations: both are re-sorted, and the two
        subspace bases re-read in canonical form."""
        if sorted(perm) != list(range(self.ambient)):
            raise ValueError(f"{tuple(perm)} is not a permutation of range({self.ambient})")
        rays, lin, facets, eqs = (
            [tuple(v[k] for k in perm) for v in vectors]
            for vectors in (self.rays, self.lineality, self.facets, self.span_eqs)
        )
        return Cone(self.ambient, tuple(sorted(rays)), _canonical_subspace_basis(lin),
                    tuple(sorted(facets)), _canonical_subspace_basis(eqs))

    # -- basic queries ------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.ambient - len(self.span_eqs)

    @property
    def is_pointed(self) -> bool:
        return not self.lineality

    @property
    def is_simplicial(self) -> bool:
        return self.is_pointed and len(self.rays) == self.dim

    def generators(self) -> tuple[IVec, ...]:
        """Deduplicated sorted generator list (rays plus +/- lineality basis)."""
        gens = set(self.rays)
        for l in self.lineality:
            gens.add(l)
            gens.add(_neg(l))
        return tuple(sorted(gens))

    def is_zero(self) -> bool:
        return not self.rays and not self.lineality

    def contains(self, point: Sequence[int], mode: str = "closed") -> bool:
        """Membership test; ``mode`` is "closed" or "relative_interior"."""
        if mode not in ("closed", "relative_interior"):
            raise ValueError(f"unknown mode {mode!r}")
        if len(point) != self.ambient:
            raise ValueError("point has wrong dimension")
        if any(_dot(e, point) != 0 for e in self.span_eqs):
            return False
        if mode == "closed":
            return all(_dot(a, point) >= 0 for a in self.facets)
        return all(_dot(a, point) > 0 for a in self.facets)

    def relint_point(self) -> IVec:
        """Sum of the primitive rays: a canonical relative interior point."""
        pt = [0] * self.ambient
        for r in self.rays:
            for i, x in enumerate(r):
                pt[i] += x
        return tuple(pt)

    def contains_cone(self, other: "Cone") -> bool:
        return all(self.contains(g) for g in other.generators())

    def intersect(self, other: "Cone") -> "Cone":
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        return Cone.from_inequalities(
            self.facets + other.facets,
            self.span_eqs + other.span_eqs,
            ambient=self.ambient,
        )

    def is_face_of(self, other: "Cone") -> bool:
        """Exact test that self is a face of other: self lies in other, and
        so does the smallest face of other holding self, cut by the facets
        of other tight on all of self."""
        if self.ambient != other.ambient:
            return False
        gens = self.generators()
        if not all(other.contains(g) for g in gens):
            return False
        tight = [
            j for j, a in enumerate(other.facets) if all(_dot(a, g) == 0 for g in gens)
        ]
        return _face_lies_in(other, tight, self)

    def faces(self, known: Container[tuple[IVec, ...]] = ()) -> list["Cone"]:
        """All faces, from the minimal face (zero when pointed) up to the cone,
        except those whose ray tuple is in ``known``."""
        found = []
        for m in _face_masks(len(self.rays), self._zero_masks):
            if tuple(r for i, r in enumerate(self.rays) if m >> i & 1) not in known:
                found.append(self._face(m))
        return sorted(found, key=lambda c: (c.dim, c.rays, c.lineality))

    @cached_property
    def _zero_masks(self) -> tuple[int, ...]:
        """Per facet normal, the bitmask of the rays it vanishes on."""
        return tuple(
            sum(1 << i for i, r in enumerate(self.rays) if _dot(a, r) == 0)
            for a in self.facets
        )

    def _carrier_mask(self, point: Sequence[int]) -> int:
        """Ray mask of the smallest face holding a point of this cone: the
        AND of the zero masks of the facets tight at the point.  In a
        simplicial cone these are the rays on which the point has a positive
        coordinate, since the facet opposite ray r is the only one positive
        on r."""
        mask = (1 << len(self.rays)) - 1
        for a, z in zip(self.facets, self._zero_masks):
            if _dot(a, point) == 0:
                mask &= z
        return mask

    def _face(self, mask: int) -> "Cone":
        """The face whose rays are the rays in ``mask``, in canonical form.

        It keeps this cone's lineality; its span equations add the normals
        tight on the mask; its facets come from the normals whose cut of the
        mask is maximal among the proper cuts, by ``_maximal_zero_sets``
        (normals with equal cuts reduce to the same vector modulo the face's
        span).

        A face of a pointed simplicial cone is simplicial, and its facets are
        its dual basis: the u_s in its span with u_s.r_t = delta_st, a
        positive multiple of the ridge normal reduced modulo that span.  One
        integer RREF of [Gram(rays) | rays] gives them as the right halves of
        its rows, since the Gram matrix is invertible.  A row is primitive
        and reads [d e_s | d u_s], so its right half w is too: the content of
        w divides w.r_s = d.
        """
        if mask == (1 << len(self.rays)) - 1:
            return self
        zeros = self._zero_masks
        rays = tuple(r for i, r in enumerate(self.rays) if mask >> i & 1)
        tight = tuple(a for a, z in zip(self.facets, zeros) if mask & z == mask)
        span_eqs = _canonical_subspace_basis(self.span_eqs + tight)
        if self.is_simplicial:
            k = len(rays)
            rows, _ = _rref([[_dot(r, t) for t in rays] + list(r) for r in rays])
            facets = tuple(sorted(row[k:] for row in rows))
            return Cone(self.ambient, rays, (), facets, span_eqs)
        ridges = _maximal_zero_sets(self.facets, [mask & z for z in zeros], mask)
        facets = _canonical_rays(ridges, span_eqs)
        return Cone(self.ambient, rays, self.lineality, facets, span_eqs)

    def _key(self) -> tuple:
        return (self.facets, self.span_eqs)


def _face_masks(nrays: int, zeros: Sequence[int]) -> set[int]:
    """Ray masks of all faces: the full mask and every AND of zero masks."""
    masks = {(1 << nrays) - 1}
    for z in zeros:
        masks |= {m & z for m in masks}
    return masks


def _maximal_zero_sets(
    vectors: Sequence[IVec], zeros: Sequence[int], full: int
) -> list[IVec]:
    """The incidence rule: among the vectors whose zero mask is not ``full``,
    the first with each inclusion-maximal mask.

    Over the facets of C = cone(gens), a generator g lies in the relative
    interior of the face cut by the facets in its mask; the mask is full
    exactly when that face is the lineality L.  The rays of C modulo L span
    its minimal faces above L, the faces with maximal tight sets.  Each is
    generated by the generators it holds, so one of them has its tight set
    as mask; and the face cut by a maximal mask holds a ray face, whose
    generator's mask contains it, so is that face.  Hence the vectors kept
    are one generator per ray, equal to it modulo L up to a positive scale.
    Over the rays of a face, the facets with maximal cuts are its ridges.
    """
    first: dict[int, IVec] = {}
    for v, z in zip(vectors, zeros):
        if z != full:
            first.setdefault(z, v)
    return [v for z, v in first.items() if not any(z != o and z & o == z for o in first)]


def _generated_cone(gens: tuple[IVec, ...], ambient: int) -> Cone:
    """cone(gens) by one conversion.  The dual cone {u : u.g >= 0} gives the
    facets (its rays) and span equations (its lineality); the generators
    vanishing on every facet span the lineality, and the rays are read off
    the generators' zero sets over the facets."""
    lin_d, rays_d = _dd(ambient, gens)
    span_eqs = _canonical_subspace_basis(lin_d)
    facets = _canonical_rays(rays_d, span_eqs)
    full = (1 << len(facets)) - 1
    zeros = [sum(1 << j for j, a in enumerate(facets) if _dot(a, g) == 0) for g in gens]
    lineality = _canonical_subspace_basis([g for g, z in zip(gens, zeros) if z == full])
    rays = _canonical_rays(_maximal_zero_sets(gens, zeros, full), lineality)
    return Cone(ambient, rays, lineality, facets, span_eqs)


_cone_from_gens = lru_cache(maxsize=200_000)(_generated_cone)


@lru_cache(maxsize=200_000)
def _cone_from_ineqs(
    ineqs: tuple[IVec, ...], eqs: tuple[IVec, ...], ambient: int
) -> Cone:
    """The polar of the cone the rows generate, ineqs and +/- eqs: its rays
    and lineality are that cone's facets and span equations, and the other
    way round.  The DD cuts by the equations first, which drops the
    dimension before any inequality."""
    rows = tuple(r for e in eqs for r in (e, _neg(e))) + ineqs
    dual = _generated_cone(rows, ambient)
    return Cone(ambient, dual.facets, dual.span_eqs, dual.rays, dual.lineality)


# ---------------------------------------------------------------------------
# fans
# ---------------------------------------------------------------------------


# verdicts of the pair check, oldest first; bounded like the cone caches
_PAIR_CACHE: dict[tuple, bool] = {}
_PAIR_CACHE_MAX = 200_000


def _pair_has_common_face(c1: Cone, c2: Cone) -> bool:
    """Whether c1 and c2 meet in a common face, read off P = c1 ∩ c2.

    P is built by double description from c1's own rays, lineality and
    facet incidences, cutting only by c2's span equations and facets.  The
    smallest face of c_i holding P is cut by the facets of c_i tight on all
    of P; P is a face of c_i iff that face lies in the other cone.
    """
    cache_key = tuple(sorted((c1._key(), c2._key())))
    hit = _PAIR_CACHE.get(cache_key)
    if hit is not None:
        return hit
    st = _DDState.of_cone(c1)
    for e in c2.span_eqs:
        st.insert_equation(e)
    first = st.ninserted
    for a in c2.facets:
        st.insert(a)
    # P's lineality lies in both cones' lineality: every facet vanishes on it
    tight = frozenset(range(st.ninserted)).intersection(*st.tights)
    n1 = len(c1.facets)
    result = _face_lies_in(c1, [j for j in tight if j < n1], c2) and _face_lies_in(
        c2, [j - first for j in tight if j >= first], c1
    )
    if len(_PAIR_CACHE) >= _PAIR_CACHE_MAX:
        del _PAIR_CACHE[next(iter(_PAIR_CACHE))]
    _PAIR_CACHE[cache_key] = result
    return result


def _face_lies_in(cone: Cone, facets: Iterable[int], other: Cone) -> bool:
    """Whether the face of ``cone`` cut by the facets with the given indices
    (its rays in the AND of their zero masks, and its lineality) lies in
    ``other``."""
    mask = (1 << len(cone.rays)) - 1
    for j in facets:
        mask &= cone._zero_masks[j]
    return all(
        other.contains(r) for i, r in enumerate(cone.rays) if mask >> i & 1
    ) and all(other.contains(l) and other.contains(_neg(l)) for l in cone.lineality)


class Fan(NamedTuple):
    """Validated fan, stored through its maximal cones.  Two fans are equal
    when their maximal cones are, in any order; a fan equals no other type."""

    ambient: int
    maximal: tuple[Cone, ...]

    @property
    def rays(self) -> tuple[IVec, ...]:
        pool = set()
        for c in self.maximal:
            pool.update(c.rays)
        return tuple(sorted(pool))

    @property
    def is_simplicial(self) -> bool:
        return all(c.is_simplicial for c in self.maximal)

    def cones(self) -> dict[tuple, Cone]:
        """All cones of the fan (faces of maximal cones), keyed canonically.

        Cones of a fan share its lineality and carry canonical rays, so a face
        shared by several maximal cones is built once, for its ray set.
        """
        out: dict[tuple, Cone] = {}
        built: set[tuple[IVec, ...]] = set()
        for c in self.maximal:
            for f in c.faces(built):
                built.add(f.rays)
                out[f._key()] = f
        return out

    def contains_point(self, point: Sequence[int]) -> bool:
        return any(c.contains(point) for c in self.maximal)

    def has_cone(self, cone: Cone) -> bool:
        """Exact membership of a cone in this fan."""
        for c in self.maximal:
            if cone.is_face_of(c):
                return True
        return False

    def carrier(self, point: Sequence[int]) -> Optional[Cone]:
        """The unique cone containing the point in its relative interior, or
        None outside the support.  In a fan it is the smallest face holding
        the point of any cone that holds it, so the first holder is read."""
        holder = next((c for c in self.maximal if c.contains(point)), None)
        if holder is None:
            return None
        face = holder._face(holder._carrier_mask(point))
        if not face.contains(point, "relative_interior"):
            raise AssertionError("carrier computation failed the relint check")
        return face

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fan):
            return False
        return self.ambient == other.ambient and sorted(
            c._key() for c in self.maximal
        ) == sorted(c._key() for c in other.maximal)

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash((self.ambient, tuple(sorted(c._key() for c in self.maximal))))


def _side_table(cones: Sequence[Cone]) -> tuple[list[int], ...]:
    """Bitmasks over the distinct hyperplanes, up to sign, of the cones'
    facets and span equations.  Per cone: the planes h with h.g >= 0 on
    every generator (``above``) and with h.g <= 0 (``below``), and the
    planes on whose side of its own a contained cone must lie: its facets,
    by their sign, and its span equations, on both (``need_above``,
    ``need_below``)."""
    index: dict[IVec, int] = {}

    def bit(a: IVec) -> int:
        return 1 << index.setdefault(max(a, _neg(a)), len(index))

    need_above, need_below = [], []
    for c in cones:
        eqs = sum(bit(e) for e in c.span_eqs)
        need_above.append(eqs | sum(bit(a) for a in c.facets if a > _neg(a)))
        need_below.append(eqs | sum(bit(a) for a in c.facets if a < _neg(a)))
    above, below = [], []
    for c in cones:
        gens = c.generators()
        # dict order is index order: plane k is the k-th key
        dots = [[_dot(plane, g) for g in gens] for plane in index]
        above.append(sum(1 << k for k, d in enumerate(dots) if min(d, default=0) >= 0))
        below.append(sum(1 << k for k, d in enumerate(dots) if max(d, default=0) <= 0))
    return above, below, need_above, need_below


def fan_from_maximal(cones: Iterable[Cone]) -> Fan:
    """Assemble a fan from a collection of cones.

    Cones that are faces of others in the collection are pruned; the common
    face axiom is checked pairwise on the rest and a violation raises
    :class:`FanAxiomViolation` carrying the offending pair.  Both steps read
    ``_side_table`` (see the module docstring); only the pairs it does not
    certify go to ``_pair_has_common_face``.
    """
    cone_list = list(cones)
    if not cone_list:
        raise ValueError("empty cone collection")
    ambient = cone_list[0].ambient
    if any(c.ambient != ambient for c in cone_list):
        raise ValueError("mixed ambient dimensions")
    uniq: dict[tuple, Cone] = {}
    for c in cone_list:
        uniq.setdefault(c._key(), c)
    cone_list = list(uniq.values())
    if len(cone_list) == 1:
        return Fan(ambient, tuple(cone_list))
    above, below, need_above, need_below = _side_table(cone_list)
    dims = [c.dim for c in cone_list]
    keep = []
    for i, c in enumerate(cone_list):
        redundant = False
        for j, d in enumerate(cone_list):
            # a cone holds no cone of larger dimension
            if (
                j == i
                or dims[j] < dims[i]
                or need_above[j] & ~above[i]
                or need_below[j] & ~below[i]
            ):
                continue
            if not c.is_face_of(d):
                raise FanAxiomViolation(
                    "cone contained in another without being a face",
                    offending=(c, d),
                )
            redundant = True
        if not redundant:
            keep.append(i)
    sided = [a | b for a, b in zip(above, below)]
    planes = [a | b for a, b in zip(need_above, need_below)]
    for k, i in enumerate(keep):
        for j in keep[k + 1 :]:
            # each cone weakly on one side of every plane of the other
            if not (planes[j] & ~sided[i] or planes[i] & ~sided[j]):
                continue
            c1, c2 = cone_list[i], cone_list[j]
            if not _pair_has_common_face(c1, c2):
                raise FanAxiomViolation(
                    "pairwise intersection is not a common face",
                    offending=(c1, c2),
                )
    return Fan(ambient, tuple(sorted((cone_list[i] for i in keep), key=_fan_order)))


def _fan_order(c: Cone) -> tuple:
    """Sort key of the maximal cones of a ``Fan``."""
    return (c.rays, c.lineality, c.facets)


def is_subfan(f1: Fan, f2: Fan) -> bool:
    """True iff every cone of f1 (including all faces) is a cone of f2."""
    if f1.ambient != f2.ambient:
        raise ValueError("ambient dimension mismatch")
    return all(f2.has_cone(c) for c in f1.maximal)


# ---------------------------------------------------------------------------
# stellar subdivision
# ---------------------------------------------------------------------------


def stellar_subdivide(fan: Fan, ray: Sequence[int]) -> Fan:
    """Stellar subdivision of a simplicial fan at a ray inside its support.

    The carrier tau is the set of rays on which nu has positive simplicial
    coordinates in a cone holding it, read from the facets tight at nu as in
    ``Fan.carrier``.  Only the star of tau changes: each
    maximal cone c whose rays contain tau is replaced by its |tau| pieces
    cone(rays(c) - {t} + {nu}), t in tau.  Nothing is re-validated pairwise;
    each star cone c is certified by the facet signs its pieces are built
    from, and a failed check raises ``FanAxiomViolation``:

    - the cones holding nu are exactly the cones whose rays contain tau;
    - (a) each facet of c misses exactly one ray of c, one facet per ray, so
      the facets are the dual basis of the rays: n_r, the facet opposite r,
      is zero on the other rays and positive on r (facets of a cone are
      nonnegative on its rays);
    - (b) n_s.nu > 0 for s in tau and n_s.nu = 0 for the other rays of c.

    The piece without t keeps n_t opposite nu; its facet opposite s is the
    primitive (n_t.nu) n_s - (n_s.nu) n_t, which vanishes on nu and on every
    other ray but s, is positive on s, and equals n_s for s outside tau.  So
    by (a) and (b) each piece is the pointed simplicial cone its facets
    describe, with c's span equations, and needs no conversion.  The pieces
    tile c: nu lies in c, so nu = sum lambda_t t over the rays of c, where
    lambda_t = n_t.nu / n_t.t by (a) is positive exactly on tau by (b).  A
    point x = sum mu_r r of c equals (mu_t/lambda_t) nu +
    sum_(r != t) (mu_r - mu_t lambda_r/lambda_t) r, so it lies in the piece
    without t iff t minimises mu_t/lambda_t over tau.  Every point of c has
    a minimiser, and the pieces without t and t' share only the points where
    both minimise, their common face without t and t'.

    That suffices for the result to be a fan.  Cones outside the star do not
    change, so their pairs still meet in common faces.  A piece p of c meets
    an outside cone d inside G = c ∩ d, a face of c without tau (d does not
    hold nu); every face of c without tau is a face of a piece, so p ∩ d =
    p ∩ G is a face of G and of p.  Two pieces of one star cone meet properly
    by the tiling.  Pieces of star cones c and c' meet inside the face
    H = c ∩ c', which contains tau; the pieces of c restricted to H are the
    pieces of H, and those are fixed by ray sets, so c' induces the same ones
    and the two pieces meet in a common piece face.
    """
    if not fan.is_simplicial:
        raise ValueError("stellar subdivision requires a simplicial fan")
    nu = primitive_vector(ray)
    if not any(nu):
        raise ValueError("zero ray")
    holds = [c.contains(nu) for c in fan.maximal]
    holder = next((c for c, h in zip(fan.maximal, holds) if h), None)
    if holder is None:
        raise ValueError("ray lies outside the support of the fan")
    mask = holder._carrier_mask(nu)
    carrier_rays = [r for i, r in enumerate(holder.rays) if mask >> i & 1]
    tau = set(carrier_rays)
    in_star = [tau <= set(c.rays) for c in fan.maximal]
    if holds != in_star:
        raise FanAxiomViolation(
            "the cones holding the ray are not the star of its carrier",
            offending=tuple(
                c for c, h, s in zip(fan.maximal, holds, in_star) if h != s
            ),
        )
    new_max: list[Cone] = []
    for c, star in zip(fan.maximal, in_star):
        if not star:
            new_max.append(c)
            continue
        full = (1 << len(c.rays)) - 1
        missed = [full ^ z for z in c._zero_masks]
        if sorted(missed) != [1 << i for i in range(len(c.rays))]:
            raise FanAxiomViolation(
                "the facets of a star cone are not the dual basis of its rays",
                offending=(c,),
            )
        opposite = {c.rays[m.bit_length() - 1]: a for a, m in zip(c.facets, missed)}
        at_nu = {s: _dot(n_s, nu) for s, n_s in opposite.items()}
        if any(v <= 0 if s in tau else v != 0 for s, v in at_nu.items()):
            raise FanAxiomViolation(
                "the facet signs of a star cone at the ray disagree with its carrier",
                offending=(c,),
            )
        for t in carrier_rays:
            n_t = opposite[t]
            facets = [n_t] + [
                _combine(at_nu[t], n_s, -at_nu[s], n_t)
                for s, n_s in opposite.items()
                if s != t
            ]
            rays = tuple(sorted([r for r in c.rays if r != t] + [nu]))
            new_max.append(
                Cone(fan.ambient, rays, (), tuple(sorted(facets)), c.span_eqs)
            )
    return Fan(fan.ambient, tuple(sorted(new_max, key=_fan_order)))


# ---------------------------------------------------------------------------
# arrangement sweeps (sign-vector region and face enumeration)
# ---------------------------------------------------------------------------


class ArrangementLeaf(NamedTuple):
    signs: tuple[int, ...]
    rays: tuple[IVec, ...]
    lineality: tuple[IVec, ...]


def _sides(state: _DDState, wall: IVec) -> tuple[bool, bool]:
    """Whether the wall is strictly positive, and strictly negative, somewhere
    on the state's cone."""
    if any(_dot(wall, l) != 0 for l in state.lin):
        return True, True
    dots = [_dot(wall, r) for r in state.rays]
    return any(d > 0 for d in dots), any(d < 0 for d in dots)


def arrangement_leaves(
    ambient: int,
    base_ineqs: Sequence[IVec],
    walls: Sequence[IVec],
    *,
    base_eqs: Sequence[IVec] = (),
) -> list[ArrangementLeaf]:
    """Enumerate the full-dimensional closed regions of a wall arrangement
    inside a base cone, each with its signs in {+1,-1}, in lexicographic sign
    order with + before -.

    A branch is decided by the wall's signs on the parent's region before
    the cut: a strict side the wall never reaches would lose dimension and
    is skipped, and a wall that vanishes on the region takes both sides.
    """
    root = _DDState(ambient)
    for e in base_eqs:
        root.insert_equation(e)
    for a in base_ineqs:
        root.insert(a)
    leaves: list[ArrangementLeaf] = []

    def recurse(state: _DDState, depth: int, signs: tuple[int, ...]) -> None:
        if depth == len(walls):
            leaves.append(
                ArrangementLeaf(signs, tuple(state.rays), tuple(state.lin))
            )
            return
        w = walls[depth]
        pos, neg = _sides(state, w)
        if not (pos or neg):
            # the wall vanishes on the region: both closed sides are all of it
            pos = neg = True
        for sign, reached in ((1, pos), (-1, neg)):
            if reached:
                child = state.copy()
                child.insert(w if sign > 0 else _neg(w))
                recurse(child, depth + 1, signs + (sign,))

    recurse(root, 0, ())
    return leaves
