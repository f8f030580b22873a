"""Exact polyhedral cones and fans.

Cones carry both descriptions in a canonical form: primitive sorted extremal
rays plus a lineality basis (V-side), and primitive irredundant facet normals
plus span equations (H-side).  Canonicalisation makes structural equality of
cones coincide with mathematical equality, so fans compare by sorted cone
lists.

The conversion engine is a double description method over plain Python
integers with the combinatorial adjacency test, run in both directions
(generators -> facets via the dual cone, facets -> generators directly).
Faces need no conversion: they are read from facet-ray incidence bitmasks.
Neither does stellar subdivision: the facets of its simplicial pieces are
combinations of the star cone's facets, and each star cone is certified by
the signs those facets take on its rays and on the new ray (they must be its
dual basis, positive at the new ray exactly on the carrier) instead of
re-checking every pair of cones of the fan.

A pair of cones in ``fan_from_maximal`` is decided from P = c1 ∩ c2, built
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
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Container, Iterable, Optional, Sequence

from .exact_linalg import _dot, _primitive, _rref

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


def _dd(
    dim: int, ineqs: Iterable[Sequence[int]], eqs: Iterable[Sequence[int]] = ()
) -> tuple[list[IVec], list[IVec]]:
    """V-description (lineality, rays) of {x : ineqs.x >= 0, eqs.x = 0}."""
    st = _DDState(dim)
    for e in eqs:
        st.insert_equation(e)
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


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone in canonical dual form.

    ``rays`` are primitive extremal rays reduced orthogonally modulo the
    lineality space; ``facets`` are primitive irredundant inward normals
    reduced modulo the span equations.  ``facets . x >= 0`` and
    ``span_eqs . x = 0`` cut out the cone exactly.
    """

    ambient: int
    rays: tuple[IVec, ...]
    lineality: tuple[IVec, ...]
    facets: tuple[IVec, ...]
    span_eqs: tuple[IVec, ...]

    @staticmethod
    def from_generators(generators: Iterable[Sequence[int]], ambient: int) -> "Cone":
        gens: list[IVec] = []
        seen = set()
        for g in generators:
            g = tuple(int(x) for x in g)
            if len(g) != ambient:
                raise ValueError("generator has wrong dimension")
            if not any(g):
                continue
            g = _primitive(g)
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
        cleaned_ineqs = tuple(
            sorted({_primitive([int(x) for x in a]) for a in ineqs if any(a)})
        )
        cleaned_eqs = tuple(
            sorted({_primitive([int(x) for x in e]) for e in eqs if any(e)})
        )
        return _cone_from_ineqs(cleaned_ineqs, cleaned_eqs, ambient)

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
        if len(point) != self.ambient:
            raise ValueError("point has wrong dimension")
        if any(_dot(e, point) != 0 for e in self.span_eqs):
            return False
        if mode == "closed":
            return all(_dot(a, point) >= 0 for a in self.facets)
        if mode == "relative_interior":
            return all(_dot(a, point) > 0 for a in self.facets)
        raise ValueError(f"unknown mode {mode!r}")

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
        mask is maximal among the proper cuts (normals with equal cuts reduce
        to the same vector modulo the face's span).

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
        cuts: dict[int, IVec] = {}
        for a, z in zip(self.facets, zeros):
            if mask & z != mask:
                cuts.setdefault(mask & z, a)
        ridges = [
            a for c, a in cuts.items() if not any(c != o and c & o == c for o in cuts)
        ]
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


@lru_cache(maxsize=200_000)
def _cone_from_gens(gens: tuple[IVec, ...], ambient: int) -> Cone:
    if not gens:
        eye = tuple(
            tuple(1 if i == j else 0 for j in range(ambient)) for i in range(ambient)
        )
        return Cone(ambient, (), (), (), eye)
    # dual cone {u : u.g >= 0} gives facets (its rays) and span eqs (its lineality)
    lin_d, rays_d = _dd(ambient, gens)
    span_eqs = _canonical_subspace_basis(lin_d)
    facets = _canonical_rays(rays_d, span_eqs)
    lin_p, rays_p = _dd(ambient, facets, span_eqs)
    lineality = _canonical_subspace_basis(lin_p)
    rays = _canonical_rays(rays_p, lineality)
    return Cone(ambient, rays, lineality, facets, span_eqs)


@lru_cache(maxsize=200_000)
def _cone_from_ineqs(
    ineqs: tuple[IVec, ...], eqs: tuple[IVec, ...], ambient: int
) -> Cone:
    lin_p, rays_p = _dd(ambient, ineqs, eqs)
    lineality = _canonical_subspace_basis(lin_p)
    rays = _canonical_rays(rays_p, lineality)
    gens = set(rays)
    for l in lineality:
        gens.add(l)
        gens.add(_neg(l))
    return _cone_from_gens(tuple(sorted(gens)), ambient)


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


@dataclass(frozen=True)
class Fan:
    """Validated fan, stored through its maximal cones."""

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
            return NotImplemented
        return self.ambient == other.ambient and sorted(
            c._key() for c in self.maximal
        ) == sorted(c._key() for c in other.maximal)

    def __hash__(self) -> int:
        return hash((self.ambient, tuple(sorted(c._key() for c in self.maximal))))


def fan_from_maximal(cones: Iterable[Cone]) -> Fan:
    """Assemble a fan from a collection of cones.

    Cones that are faces of others in the collection are pruned; the common
    face axiom is checked pairwise on the rest and a violation raises
    :class:`FanAxiomViolation` carrying the offending pair.
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
    keep = []
    for c in cone_list:
        redundant = False
        for d in cone_list:
            # a cone holds no cone of larger dimension
            if d is c or d.dim < c.dim or not d.contains_cone(c):
                continue
            if not c.is_face_of(d):
                raise FanAxiomViolation(
                    "cone contained in another without being a face",
                    offending=(c, d),
                )
            redundant = True
        if not redundant:
            keep.append(c)
    for i, c1 in enumerate(keep):
        for c2 in keep[i + 1 :]:
            if not _pair_has_common_face(c1, c2):
                raise FanAxiomViolation(
                    "pairwise intersection is not a common face",
                    offending=(c1, c2),
                )
    return Fan(ambient, tuple(sorted(keep, key=_fan_order)))


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
    nu = _primitive([int(x) for x in ray])
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


def iterated_stellar(fan: Fan, rays: Iterable[Sequence[int]]) -> Fan:
    for r in rays:
        fan = stellar_subdivide(fan, r)
    return fan


# ---------------------------------------------------------------------------
# arrangement sweeps (sign-vector region and face enumeration)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArrangementLeaf:
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
    with_boundaries: bool = False,
) -> list[ArrangementLeaf]:
    """Enumerate sign classes of a wall arrangement inside a base cone.

    With ``with_boundaries`` false only full-dimensional closed regions are
    returned (signs in {+1,-1}); with it true every realised face is returned
    (signs in {+1,0,-1}), where realised means the closed class is not stuck
    inside a wall carrying a strict sign.

    A branch is decided by the wall's signs on the parent's cone before any
    cut: a strict side the wall never reaches would be flattened (or, for
    regions, lose dimension) and is skipped.  A strict cut keeps the span, so
    earlier strict signs are re-checked only after a zero cut that lowers the
    dimension; pruning there drops exactly the subtrees that emit nothing.
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
        if not with_boundaries and not (pos or neg):
            # the wall vanishes on the region: both closed sides are all of it
            pos = neg = True
        for sign, reached in ((1, pos), (-1, neg)):
            if reached:
                child = state.copy()
                child.insert(w if sign > 0 else _neg(w))
                recurse(child, depth + 1, signs + (sign,))
        if with_boundaries:
            child = state.copy()
            child.insert_equation(w)
            if (pos or neg) and any(
                s and not _sides(child, walls[j])[s < 0] for j, s in enumerate(signs)
            ):
                return
            recurse(child, depth + 1, signs + (0,))

    recurse(root, 0, ())
    return leaves
