"""Finite meet-semilattices, combinatorial blow-ups and the fan bridge.

Elements carry structural labels: any hashable for original elements, and
nested :class:`BlowPair` labels for elements created by blow-ups, so the
history of an iterated blow-up stays readable in the element itself.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cache, partial, reduce
from operator import and_, itemgetter
from typing import Collection, Hashable, Iterable, Iterator, Optional, Sequence

from .exact_linalg import _primitive
from .polyhedral import Cone, Fan, fan_from_maximal, stellar_subdivide


class BuildingSetCriterionConflict(Exception):
    """The interval-product test and the two-condition test disagreed."""


@dataclass(frozen=True)
class BlowPair:
    xi: Hashable
    x: Hashable

    def __repr__(self) -> str:
        return f"({self.xi!r},{self.x!r})"


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _compress(masks: Iterable[int], keep: Sequence[int]) -> list[int]:
    """Each mask restricted to the indices in keep (at least one), renumbered
    by their positions in keep: bit keep[p] becomes bit p."""
    pick, width = itemgetter(*keep), max(keep) + 1
    return [
        int("".join(pick(format(mask, f"0{width}b")[::-1]))[::-1], 2)
        for mask in masks
    ]


class FiniteSemilattice:
    """Finite meet-semilattice given by labelled elements and their up-sets.

    The order is stored once, as bitmasks over element indices: bit k of
    ``_up[i]`` is set when i <= k, and bit k of ``_down[i]`` when k <= i.
    Construction takes the up-set masks and validates that they describe a
    partial order, that a unique bottom exists and that every pair has a
    greatest lower bound; :meth:`from_relation` reads a relation matrix
    instead.  Meets and joins are lookups: the meet of a set is the element
    whose down-set is the intersection of theirs, the join the element whose
    up-set is the intersection of theirs, and the join is absent when no
    element has that up-set.
    """

    def __init__(self, labels: Sequence[Hashable], up: Sequence[int]):
        self.labels = tuple(labels)
        n = len(self.labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != n:
            raise ValueError("duplicate labels")
        up = list(up)
        if len(up) != n or any(mask >> n for mask in up):
            raise ValueError("relation has wrong shape")
        # one pass over the bits of each up-set: transpose it into the
        # down-sets, and note the first element i with some k above it whose
        # up-set leaves i's (not transitive); the checks are then raised
        # element by element, reflexivity, antisymmetry, transitivity
        down = [0] * n
        intransitive = n
        for i, mask in enumerate(up):
            bit, outside = 1 << i, ~mask
            while mask:
                low = mask & -mask
                k = low.bit_length() - 1
                down[k] |= bit
                if up[k] & outside and i < intransitive:
                    intransitive = i
                mask ^= low
        for i, mask in enumerate(up):
            if not mask >> i & 1:
                raise ValueError("relation not reflexive")
            if mask & down[i] != 1 << i:
                raise ValueError("relation not antisymmetric")
            if i == intransitive:
                raise ValueError("relation not transitive")
        bottoms = [i for i, mask in enumerate(up) if mask == (1 << n) - 1]
        if len(bottoms) != 1:
            raise ValueError("no unique bottom element")
        by_down = {mask: i for i, mask in enumerate(down)}
        for i, di in enumerate(down):
            for dj in down[i + 1 :]:
                if di & dj not in by_down:
                    # down-sets of distinct elements differ, so this is dj's index
                    j = down.index(dj, i + 1)
                    raise ValueError(
                        f"elements {self.labels[i]!r}, {self.labels[j]!r} have no meet"
                    )
        self._up, self._down = up, down
        self._by_up = {mask: i for i, mask in enumerate(up)}
        self._by_down = by_down
        self._bottom = bottoms[0]

    @classmethod
    def from_relation(
        cls, labels: Sequence[Hashable], leq: Sequence[Sequence[bool]]
    ) -> "FiniteSemilattice":
        """The semilattice whose order is the matrix leq: leq[i][k] when the
        i-th label lies below the k-th."""
        rows = [tuple(row) for row in leq]
        if any(len(row) != len(labels) for row in rows):
            raise ValueError("relation has wrong shape")
        return cls(labels, [sum(1 << k for k, x in enumerate(row) if x) for row in rows])

    # -- basic queries --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._index

    @property
    def bottom(self) -> Hashable:
        return self.labels[self._bottom]

    def leq(self, a: Hashable, b: Hashable) -> bool:
        return bool(self._up[self._index[a]] >> self._index[b] & 1)

    def lt(self, a: Hashable, b: Hashable) -> bool:
        return a != b and self.leq(a, b)

    def comparable(self, a: Hashable, b: Hashable) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def below(self, a: Hashable) -> list[Hashable]:
        return [self.labels[k] for k in _bits(self._down[self._index[a]])]

    def interval(self, a: Hashable, b: Hashable) -> list[Hashable]:
        mask = self._up[self._index[a]] & self._down[self._index[b]]
        return [self.labels[k] for k in _bits(mask)]

    def meet(self, xs: Iterable[Hashable]) -> Hashable:
        masks = [self._down[self._index[x]] for x in xs]
        if not masks:
            raise ValueError("meet of the empty set")
        return self.labels[self._by_down[reduce(and_, masks)]]

    def join(self, xs: Iterable[Hashable]) -> Optional[Hashable]:
        masks = [self._up[self._index[x]] for x in xs]
        if not masks:
            raise ValueError("join of the empty set")
        k = self._by_up.get(reduce(and_, masks))
        return None if k is None else self.labels[k]

    def hasse_edges(self) -> list[tuple[int, int]]:
        """Cover relations as index pairs (lower, upper): j covers i when
        the interval from i to j is exactly {i, j}."""
        edges = []
        for i, mask in enumerate(self._up):
            for j in _bits(mask & ~(1 << i)):
                if mask & self._down[j] == (1 << i) | (1 << j):
                    edges.append((i, j))
        return edges

    def dump(self) -> dict:
        """Debug dump: element label strings plus Hasse edges."""
        return {
            "elements": [repr(lab) for lab in self.labels],
            "hasse": sorted(self.hasse_edges()),
        }


# ---------------------------------------------------------------------------
# blow-ups
# ---------------------------------------------------------------------------


def blow_up(lattice: FiniteSemilattice, xi: Hashable) -> FiniteSemilattice:
    """Combinatorial blow-up at xi: keep x with x not >= xi, adjoin pairs (xi, x)
    for the survivors x that have a join with xi.

    Survivors keep their order, (xi, x) <= (xi, y) iff x <= y, y <= (xi, x)
    iff y <= x, and no pair lies below a survivor.
    """
    if xi not in lattice:
        raise ValueError(f"element {xi!r} not in the semilattice")
    if xi == lattice.bottom:
        raise ValueError("cannot blow up the bottom element")
    up = lattice._up
    above_xi = up[lattice._index[xi]]
    survivors = [i for i in range(len(lattice)) if not above_xi >> i & 1]
    # in a finite meet-semilattice, x and xi have a join iff they have a
    # common upper bound
    pairs = [i for i in survivors if up[i] & above_xi]
    # the bottom survives and pairs with xi, so neither index list is empty
    masks = _compress((up[i] for i in survivors), survivors + pairs)
    masks += [m << len(survivors) for m in _compress((up[i] for i in pairs), pairs)]
    labels = [lattice.labels[i] for i in survivors]
    labels += [BlowPair(xi, lattice.labels[i]) for i in pairs]
    return FiniteSemilattice(labels, masks)


def is_sorted_family(lattice: FiniteSemilattice, family) -> bool:
    """True when larger elements come first: xi_i > xi_j implies i < j."""
    family = list(family)
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            if lattice.lt(family[i], family[j]):
                return False
    return True


def iterated_blow_up(lattice: FiniteSemilattice, family) -> FiniteSemilattice:
    """Left fold of blow-ups in the given order."""
    family = list(family)
    if len(set(family)) != len(family):
        raise ValueError("family elements must be distinct")
    current = lattice
    for xi in family:
        if xi not in current:
            raise ValueError(
                f"element {xi!r} vanished before its turn; family not sorted?"
            )
        current = blow_up(current, xi)
    return current


# ---------------------------------------------------------------------------
# building sets, nested sets, harmonious pairs
# ---------------------------------------------------------------------------


def _building_by_intervals(lattice: FiniteSemilattice, s: frozenset) -> bool:
    for x in lattice.labels:
        if x == lattice.bottom:
            continue
        sx = [y for y in s if lattice.leq(y, x)]
        maxima = [y for y in sx if not any(lattice.lt(y, z) for z in sx)]
        if not maxima:
            return False
        intervals = [lattice.interval(lattice.bottom, y) for y in maxima]
        target = lattice.interval(lattice.bottom, x)
        size = 1
        for iv in intervals:
            size *= len(iv)
        if size != len(target):
            return False
        images = {}
        for combo in itertools.product(*intervals):
            j = lattice.join(combo)
            if j is None or not lattice.leq(j, x):
                return False
            if combo.count(lattice.bottom) == len(combo) - 1:
                # the canonical inclusion of each factor must be the identity
                nontrivial = [c for c in combo if c != lattice.bottom]
                if nontrivial and j != nontrivial[0]:
                    return False
            images[combo] = j
        if len(set(images.values())) != len(images):
            return False
        if set(images.values()) != set(target):
            return False
        combos = list(images)
        for c1 in combos:
            for c2 in combos:
                cw = all(lattice.leq(a, b) for a, b in zip(c1, c2))
                if cw != lattice.leq(images[c1], images[c2]):
                    return False
    return True


def _building_by_two_conditions(lattice: FiniteSemilattice, s: frozenset) -> bool:
    for x in lattice.labels:
        if x == lattice.bottom:
            continue
        sx = [y for y in s if lattice.leq(y, x)]
        maxima = [y for y in sx if not any(lattice.lt(y, z) for z in sx)]
        if not maxima or lattice.join(maxima) != x:
            return False
        for y in maxima:
            rest = [z for z in maxima if z != y]
            for r in range(1, len(rest) + 1):
                for t in itertools.combinations(rest, r):
                    w = lattice.join(t)
                    if w is None:
                        return False
                    sy = {z for z in s if lattice.leq(z, y)}
                    sw = {z for z in s if lattice.leq(z, w)}
                    if sy & sw:
                        return False
                    jy = lattice.join((y,) + t)
                    for z in lattice.below(y):
                        if z == y:
                            continue
                        if lattice.join((z,) + t) == jy:
                            return False
    return True


def is_building_set(lattice: FiniteSemilattice, s: Iterable[Hashable]) -> bool:
    """Building-set test by interval products, cross-checked against the
    two-condition criterion; a disagreement raises rather than picking one."""
    s = frozenset(s)
    if lattice.bottom in s:
        raise ValueError("building set candidates must avoid the bottom")
    a = _building_by_intervals(lattice, s)
    b = _building_by_two_conditions(lattice, s)
    if a != b:
        raise BuildingSetCriterionConflict(
            f"interval product says {a}, two-condition says {b} for {sorted(map(repr, s))}"
        )
    return a


def is_nested(
    lattice: FiniteSemilattice, s: Iterable[Hashable], c: Iterable[Hashable]
) -> bool:
    """Nested in s: every incomparable subset of size >= 2 has a join outside s."""
    s = frozenset(s)
    c = list(c)
    if not set(c) <= s:
        raise ValueError("candidate set must be contained in the reference set")
    for r in range(2, len(c) + 1):
        for h in itertools.combinations(c, r):
            if any(
                lattice.comparable(a, b) for a, b in itertools.combinations(h, 2)
            ):
                continue
            j = lattice.join(h)
            if j is None or j in s:
                return False
    return True


def is_harmonious(
    lattice: FiniteSemilattice, s: Iterable[Hashable], pair: tuple[Hashable, Hashable]
) -> bool:
    a, b = pair
    if lattice.meet((a, b)) == lattice.bottom:
        return True
    j = lattice.join((a, b))
    return j is None or j in frozenset(s)


def harmonious_closure(
    lattice: FiniteSemilattice, s: Iterable[Hashable]
) -> frozenset:
    """Close under adjoining joins of non-harmonious pairs, to a fixpoint."""
    current = frozenset(s)
    while True:
        added = set()
        for a, b in itertools.combinations(sorted(current, key=repr), 2):
            if not is_harmonious(lattice, current, (a, b)):
                added.add(lattice.join((a, b)))
        if added <= current:
            return current
        current = current | added


# ---------------------------------------------------------------------------
# fan bridge
# ---------------------------------------------------------------------------


def _inclusion_masks(sets: Sequence[Collection[Hashable]]) -> list[int]:
    """Up-set masks of the sets ordered by inclusion: the up-set of a set is
    the AND, over its members, of the masks of the sets holding that member
    (everything for the empty set)."""
    holders: dict[Hashable, int] = {}
    for k, members in enumerate(sets):
        for x in members:
            holders[x] = holders.get(x, 0) | 1 << k
    everything = (1 << len(sets)) - 1
    return [reduce(and_, map(holders.__getitem__, members), everything) for members in sets]


def face_poset(fan: Fan) -> FiniteSemilattice:
    """All cones of the fan ordered by the face relation; labels are the cones."""
    cones = sorted(fan.cones().values(), key=lambda c: (c.dim, c.rays, c.lineality))
    # cones of a fan share its lineality and carry canonical rays modulo it,
    # so one cone lies in another exactly when its rays are among the other's
    return FiniteSemilattice(cones, _inclusion_masks([c.rays for c in cones]))


def ray_face_poset(fan: Fan) -> FiniteSemilattice:
    """Face poset of a simplicial fan with ray tuples as labels.

    Every subset of a maximal cone's rays spans a face, so the faces are
    those subsets, built with no :class:`Cone`; they come in ``(len, rays)``
    order, the order :func:`face_poset` gives the cones of a simplicial fan,
    and the face order is inclusion."""
    faces = sorted(_ray_faces(fan), key=lambda f: (len(f), f))
    return FiniteSemilattice(faces, _inclusion_masks(faces))


def _ray_faces(fan: Fan) -> set[tuple]:
    """The faces of a simplicial fan as the subsets, in sorted ray tuples,
    of its maximal cones' rays."""
    if not fan.is_simplicial:
        raise ValueError("ray-set face posets need a simplicial fan")
    return {
        face
        for c in fan.maximal
        for k in range(len(c.rays) + 1)
        for face in itertools.combinations(c.rays, k)
    }


def poset_isomorphic(l1: FiniteSemilattice, l2: FiniteSemilattice) -> bool:
    """Isomorphism of finite posets by colour refinement plus backtracking.

    Both posets are refined against one colour table, starting from the
    sizes of each element's down- and up-set, until the joint partition
    stops splitting; an isomorphism preserves colours, so the backtracking
    that proves one only tries colour-matched images."""
    n = len(l1)
    if n != len(l2):
        return False
    lats = (l1, l2)
    below = [[list(_bits(m & ~(1 << i))) for i, m in enumerate(lat._down)] for lat in lats]
    above = [[list(_bits(m & ~(1 << i))) for i, m in enumerate(lat._up)] for lat in lats]
    table: dict = {}
    colors = [
        [
            table.setdefault((d.bit_count(), u.bit_count()), len(table))
            for d, u in zip(lat._down, lat._up)
        ]
        for lat in lats
    ]
    classes = 0
    while True:
        if sorted(colors[0]) != sorted(colors[1]):
            return False
        if len(table) == classes:
            break
        classes, table = len(table), {}
        colors = [
            [
                table.setdefault(
                    (
                        c[i],
                        tuple(sorted(map(c.__getitem__, dn))),
                        tuple(sorted(map(c.__getitem__, up))),
                    ),
                    len(table),
                )
                for i, (dn, up) in enumerate(zip(below[side], above[side]))
            ]
            for side, c in enumerate(colors)
        ]
    c1, c2 = colors

    by_color: dict[int, list[int]] = {}
    for j, c in enumerate(c2):
        by_color.setdefault(c, []).append(j)
    # place l1's elements depth first through comparabilities, starting in a
    # smallest colour class, so that each is comparable to an element placed
    # before it and its candidates are cut down by that element's image
    first = min(range(n), key=lambda i: (len(by_color[c1[i]]), i))
    order, placed = [first], 1 << first
    walk = [itertools.chain(below[0][first], above[0][first])]
    while walk:
        for k in walk[-1]:
            if not placed >> k & 1:
                order.append(k)
                placed |= 1 << k
                walk.append(itertools.chain(below[0][k], above[0][k]))
                break
        else:
            walk.pop()

    # depth-first search for a colour-preserving bijection that preserves
    # the order in both directions; the stack holds one candidate iterator
    # per assigned position
    up1, down1, up2, down2 = l1._up, l1._down, l2._up, l2._down
    image = [-1] * n
    done1 = done2 = 0
    stack = [iter(by_color[c1[order[0]]])]
    while stack:
        pos = len(stack) - 1
        i = order[pos]
        ups, downs = up1[i] & done1, down1[i] & done1
        for j in stack[pos]:
            if done2 >> j & 1:
                continue
            if (
                ups.bit_count() == (up2[j] & done2).bit_count()
                and downs.bit_count() == (down2[j] & done2).bit_count()
                and all(up2[j] >> image[k] & 1 for k in _bits(ups))
                and all(down2[j] >> image[k] & 1 for k in _bits(downs))
            ):
                break
        else:
            stack.pop()
            if pos:
                k = order[pos - 1]
                done1 ^= 1 << k
                done2 ^= 1 << image[k]
            continue
        image[i] = j
        done1 |= 1 << i
        done2 |= 1 << j
        if pos + 1 == n:
            return True
        stack.append(iter(by_color[c1[order[pos + 1]]]))
    return False


# ---------------------------------------------------------------------------
# randomized and exhaustive verification sweeps
# ---------------------------------------------------------------------------


def random_interior_ray(
    rng: random.Random, fan: Fan, min_rays: int = 1
) -> tuple[int, ...]:
    """A positive combination, one coefficient per ray, of at least
    ``min_rays`` random rays of a random maximal cone: in a simplicial fan
    its carrier is exactly the face those rays span."""
    cone_rays = rng.choice(fan.maximal).rays
    rays = rng.sample(cone_rays, rng.randint(min_rays, len(cone_rays)))
    coeffs = [rng.randint(1, 3) for _ in rays]
    return tuple(sum(c * r[i] for c, r in zip(coeffs, rays)) for i in range(fan.ambient))


def random_simplicial_fan(rng: random.Random, ambient: int, max_rays: int) -> Fan:
    """Random simplicial fan grown from an orthant by random stellar subdivisions."""
    fan = _orthant_fan(ambient)
    while len(fan.rays) < max_rays:
        fan = stellar_subdivide(fan, random_interior_ray(rng, fan, 2))
        if rng.random() < 0.25:
            break
    return fan


def _fk_bridge_trial(args: tuple[int, int, int, int]) -> Optional[dict]:
    seed, trial, max_ambient, max_rays = args
    rng = random.Random(seed * 1_000_003 + trial)
    ambient = rng.randint(2, max_ambient)
    fan = random_simplicial_fan(rng, ambient, max_rays)
    nu = random_interior_ray(rng, fan)
    subdivided = stellar_subdivide(fan, nu)
    poset = ray_face_poset(fan)
    carrier = fan.carrier(nu)
    if carrier.is_zero():
        return None
    blown = blow_up(poset, carrier.rays)
    # the canonical map: a survivor stays, (tau, x) goes to the face x + nu
    ray = _primitive(nu)
    images = [
        tuple(sorted(lab.x + (ray,))) if isinstance(lab, BlowPair) else lab
        for lab in blown.labels
    ]
    faces = _ray_faces(subdivided)
    if (
        len(images) != len(faces)
        or set(images) != faces
        or _inclusion_masks(images) != blown._up
    ):
        return {"trial": trial, "ambient": ambient, "ray": nu}
    return None


def verify_fk_bridge(
    seed: int = 2024,
    samples: int = 200,
    max_ambient: int = 4,
    max_rays: int = 7,
    jobs: int = 1,
) -> dict:
    """Random sweep: face poset of stellar(f, nu) iso blow_up(face poset of f,
    carrier), on random simplicial fans.

    The source face poset is a :func:`ray_face_poset`, labelled by ray
    tuples, and is blown up at the carrier tau, labelled by its rays.  No
    isomorphism is searched for: each trial checks the map the
    Feichtner-Kozlov correspondence names, from the blow-up to the faces of
    the subdivided fan.  A survivor x goes to x, and ``BlowPair(tau, x)`` to
    the sorted ray tuple of x + {nu}, with nu the primitive ray the
    subdivision inserts.  The trial passes when the map is a bijection onto
    the faces (its images are all of them, each once) and the inclusion
    masks of the images, in the blow-up's element order, equal the blow-up's
    up-set masks.  Faces of a simplicial fan are ordered by inclusion of
    their ray sets, so then x <= y iff image(x) <= image(y): the map is an
    order isomorphism, and a pass proves the claim exactly.

    The subdivided fan's face order is therefore never built as a
    :class:`FiniteSemilattice`.  It needs no validation of its own: the
    blow-up was validated as a meet-semilattice when it was built, and an
    order isomorphism carries a partial order, its bottom and every meet
    onto the image.

    A failing trial is certified by its index, ambient dimension and ray.
    Each trial draws from its own (seed, trial)-derived generator, so the
    outcome is identical for every worker count; at most one worker process
    is started per trial.
    """
    trials = [(seed, t, max_ambient, max_rays) for t in range(samples)]
    workers = min(jobs, samples)
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_fk_bridge_trial, trials)
    else:
        results = [_fk_bridge_trial(t) for t in trials]
    failures = [r for r in results if r is not None]
    return {
        "claim": "fk-bridge",
        "samples": samples,
        "seed": seed,
        "result": not failures,
        "certificates": failures,
    }


def _orthant_fan(dim: int) -> Fan:
    gens = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    return fan_from_maximal([Cone.from_generators(gens, dim)])


def _sorted_families(lattice: FiniteSemilattice) -> list[tuple]:
    """All sorted families (ordered, distinct, larger-first) of nonbottom
    elements, in depth-first preorder: each family comes after its prefix."""
    elems = [x for x in lattice.labels if x != lattice.bottom]
    out: list[tuple] = []

    def extend(prefix: tuple) -> None:
        out.append(prefix)
        for e in elems:
            if e in prefix:
                continue
            if any(lattice.lt(p, e) for p in prefix):
                continue
            extend(prefix + (e,))

    extend(())
    return [f for f in out if f]


def _sorted_family_blow_ups(
    lattice: FiniteSemilattice,
) -> Iterator[tuple[tuple, FiniteSemilattice]]:
    """Each sorted family with its iterated blow-up, built from its prefix's.

    The families come in depth-first preorder, so the current family's
    prefixes are on a stack: ``chain[k]`` is the blow-up along family[:k].
    """
    chain = [lattice]
    for family in _sorted_families(lattice):
        del chain[len(family):]
        chain.append(blow_up(chain[-1], family[-1]))
        yield family, chain[-1]


def verify_blowup_join_criterion(max_dim: int = 3) -> dict:
    """Exhaustive sweep on orthant face posets: nested in a building superset
    implies the (xi, 0)-join exists in the iterated blow-up.

    The face posets are :func:`ray_face_poset`s, so a failure certificate
    names its family and subset by ray tuples."""
    checked = 0
    failures = []
    for dim in range(2, max_dim + 1):
        lattice = ray_face_poset(_orthant_fan(dim))
        elems = [x for x in lattice.labels if x != lattice.bottom]
        building_sets = [
            frozenset(s)
            for r in range(1, len(elems) + 1)
            for s in itertools.combinations(elems, r)
            if is_building_set(lattice, s)
        ]
        # a (building set, subset) verdict repeats across every family that
        # holds the subset, so each one is decided once per lattice
        nested = cache(partial(is_nested, lattice))
        for family, blown in _sorted_family_blow_ups(lattice):
            fam_set = frozenset(family)
            supersets = [b for b in building_sets if fam_set <= b]
            bottom = lattice.bottom
            for r in range(1, len(family) + 1):
                for c in itertools.combinations(family, r):
                    if not any(nested(b, frozenset(c)) for b in supersets):
                        continue
                    checked += 1
                    targets = [BlowPair(xi, bottom) for xi in c]
                    if blown.join(targets) is None:
                        failures.append({"dim": dim, "family": repr(family), "subset": repr(c)})
    return {
        "claim": "thm44",
        "checked": checked,
        "result": not failures,
        "certificates": failures,
    }
