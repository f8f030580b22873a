"""Finite meet-semilattices, combinatorial blow-ups and the fan bridge.

Elements carry structural labels: any hashable for original elements, and
nested :class:`BlowPair` labels for elements created by blow-ups, so the
history of an iterated blow-up stays readable in the element itself.
"""

from __future__ import annotations

import itertools
import random
from functools import cache, partial, reduce
from operator import and_, itemgetter
from typing import Collection, Hashable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .exact_linalg import _primitive
from .polyhedral import Cone, Fan, fan_from_maximal, stellar_subdivide


class BuildingSetCriterionConflict(Exception):
    """The interval-product test and the two-condition test disagreed."""


class BlowPair(NamedTuple):
    """A new element (xi, x) of a blow-up.  It equals only a pair of the same
    class, never a plain tuple, so a pair label and a tuple label stay
    distinct in one poset."""

    xi: Hashable
    x: Hashable

    def __repr__(self) -> str:
        return f"({self.xi!r},{self.x!r})"

    def __eq__(self, other: object) -> bool:
        return type(other) is BlowPair and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


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

    Meets are checked on cover pairs only: two lower covers of one element,
    and two maximal elements, the lower covers of a top 1̂ adjoined above
    them.  The check is exact by this lemma.  Let P be a finite poset with
    1̂ adjoined; if any two lower covers of any z in P ∪ {1̂} have a meet,
    every pair x, y of P has one.  Induct on |↓c| for a common upper bound
    c of x and y (1̂ is one).  If x and y are comparable, the smaller is the
    meet.  Otherwise pick lower covers x' >= x and y' >= y of c.  If
    x' = y', recurse with c := x'.  Else m = x' ∧ y' exists by hypothesis,
    e = x ∧ m exists by induction (common upper bound x'), and so does
    f = e ∧ y (common upper bound y').  Every common lower bound u of x and
    y has u <= m, so u <= e, so u <= f; hence f = x ∧ y.  The converse is
    trivial.  The upper covers found on the way are kept as the Hasse
    diagram.
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
        # down-sets and OR the strict up-sets of the elements above i into
        # higher.  Transitivity fails at i when higher leaves i's up-set
        # (intransitive notes the first such i), and i's upper covers are
        # the members of its strict up-set outside higher.  The checks are
        # raised element by element, reflexivity, antisymmetry,
        # transitivity, before the covers are used.
        down = [0] * n
        covers = []
        intransitive = n
        for i, mask in enumerate(up):
            bit = 1 << i
            down[i] |= bit
            strict = rest = mask & ~bit
            higher = 0
            while rest:
                low = rest & -rest
                k = low.bit_length() - 1
                down[k] |= bit
                higher |= up[k] ^ low
                rest ^= low
            if higher & ~mask and i < intransitive:
                intransitive = i
            covers.append(strict & ~higher)
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
        # the lower covers of each element, and last those of the adjoined top
        lower: list[list[int]] = [[] for _ in range(n + 1)]
        for i, mask in enumerate(covers):
            if not mask:
                lower[n].append(i)
            for j in _bits(mask):
                lower[j].append(i)
        by_down = {mask: i for i, mask in enumerate(down)}
        for group in lower:
            for i, j in itertools.combinations(group, 2):
                if down[i] & down[j] not in by_down:
                    raise ValueError(
                        f"elements {self.labels[i]!r}, {self.labels[j]!r} have no meet"
                    )
        self._up, self._down, self._covers = up, down, covers
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
        """Cover relations as index pairs (lower, upper), read off the upper
        covers that validation keeps: j covers i when j is a minimal element
        of the strict up-set of i."""
        return [(i, j) for i, mask in enumerate(self._covers) for j in _bits(mask)]

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
    blown = blow_up(poset, fan.carrier(nu).rays)
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
    is started per trial.  ``samples`` and ``jobs`` must be positive: a sweep
    of no trial proves nothing.
    """
    if samples < 1 or jobs < 1:
        raise ValueError(f"need samples >= 1 and jobs >= 1 (got {samples}, {jobs})")
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


@cache
def _orthant_fan(dim: int) -> Fan:
    """The fan of the positive orthant of dimension dim, built once per dim."""
    gens = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    return fan_from_maximal([Cone.from_generators(gens, dim)])


def _coordinate_automorphisms(lattice: FiniteSemilattice, dim: int) -> list[tuple[int, ...]]:
    """The index maps of the dim! coordinate permutations on a face poset
    labelled by ray tuples, the identity first: g[i] is the index of the
    i-th label with the coordinates of its rays permuted.  Each map is
    checked to be an automorphism: it carries the up-set mask of every
    element onto the up-set mask of its image (it is injective, as the
    permutation of the rays is)."""
    index, up = lattice._index, lattice._up
    maps = []
    for perm in itertools.permutations(range(dim)):
        g = tuple(
            index.get(tuple(sorted(tuple(ray[p] for p in perm) for ray in label)))
            for label in lattice.labels
        )
        if None in g or any(
            sum(1 << g[k] for k in _bits(mask)) != up[g[i]] for i, mask in enumerate(up)
        ):
            raise ValueError(f"coordinate permutation {perm} is not an automorphism")
        maps.append(g)
    return maps


def _sorted_families(
    lattice: FiniteSemilattice, maps: Sequence[Sequence[int]]
) -> list[tuple[tuple[int, ...], int]]:
    """One sorted family (ordered, distinct, larger-first) of nonbottom
    element indices per orbit of the index maps, which must form a group:
    the one least among its images.  They come in depth-first preorder,
    each after its prefix, with the number of maps that fix them.

    The least families are closed under prefixes: if g F' < F' for a prefix
    F' of F, then g F < F.  So the walk extends only least families.  If F
    is least, g F > F for every g that moves F, so F + (e,) is least iff
    g e >= e for every g that fixes F."""
    up, bottom = lattice._up, lattice._index[lattice.bottom]
    out: list[tuple[tuple[int, ...], int]] = []

    def extend(family: tuple[int, ...], fixing: list) -> None:
        for e in range(len(up)):
            if e == bottom or any(up[p] >> e & 1 for p in family):
                continue
            if any(g[e] < e for g in fixing):
                continue
            grown, fixed = family + (e,), [g for g in fixing if g[e] == e]
            out.append((grown, len(fixed)))
            extend(grown, fixed)

    extend((), list(maps))
    return out


def verify_blowup_join_criterion(max_dim: int = 3) -> dict:
    """Exhaustive sweep on orthant face posets: nested in a building superset
    implies the (xi, 0)-join exists in the iterated blow-up.

    The face posets are :func:`ray_face_poset`s, so a failure certificate
    names its family and subset by ray tuples.  ``max_dim`` must be at
    least 2: a sweep of no poset proves nothing.

    The sweep runs up to the symmetry of the orthant.  S_dim permutes the
    coordinates, hence the rays, hence the faces; each permutation's map
    on the face poset L is checked to be an automorphism, and the list of
    building sets, computed in full, to be invariant under it.  One sorted
    family F per orbit is walked (``_sorted_families``), its blow-up built
    from its prefix's, and each checked (F, c) counts |S_dim| / #{g : g F =
    F}, the size of its orbit.  A failing (F, c) is reported as each of its
    images (g F, g c), in the order of the full sweep: families in
    depth-first preorder, then subsets as ``itertools.combinations`` yields
    them.  So the report is the full sweep's.

    Proof that (g F, g c) has the verdict of (F, c).  An isomorphism
    phi: M -> M' of finite meet-semilattices gives an isomorphism
    Bl_xi(M) -> Bl_{phi xi}(M') by x |-> phi x and (xi, x) |-> (phi xi,
    phi x), because ``blow_up`` reads only the order: x survives iff
    x is not >= xi, (xi, x) exists iff x and xi have a common upper bound,
    and the order of the survivors and pairs is read off the order of M.
    Starting from g on L, induction along F gives Bl_F(L) -> Bl_{gF}(L),
    which maps each survivor x to g x and each (xi, 0) to (g xi, 0).
    Isomorphisms keep joins, so the (xi, 0)-joins over c exist iff those
    over g c do.  Sortedness, ``is_building_set`` and ``is_nested`` depend
    on the order alone, so g F is sorted, a building superset B of F
    (c nested in B) gives the building superset g B of g F (g c nested in
    g B), and back by g^-1.
    """
    if max_dim < 2:
        raise ValueError(f"need max_dim >= 2 (got {max_dim}): a sweep of no poset proves nothing")
    checked = 0
    failures = []
    for dim in range(2, max_dim + 1):
        lattice = ray_face_poset(_orthant_fan(dim))
        labels, bottom, index = lattice.labels, lattice.bottom, lattice._index
        maps = _coordinate_automorphisms(lattice, dim)
        elems = [x for x in labels if x != bottom]
        building_sets = [
            frozenset(s)
            for r in range(1, len(elems) + 1)
            for s in itertools.combinations(elems, r)
            if is_building_set(lattice, s)
        ]
        for g in maps:
            if {frozenset(labels[g[index[x]]] for x in b) for b in building_sets} != set(building_sets):
                raise ValueError(f"the building sets of the {dim}-orthant are not invariant")
        # a (building set, subset) verdict repeats across every family that
        # holds the subset, so each one is decided once per lattice
        nested = cache(partial(is_nested, lattice))
        failing = set()
        # chain[k] is the blow-up along family[:k]: the walk is depth first
        chain = [lattice]
        for family, fixed in _sorted_families(lattice, maps):
            del chain[len(family):]
            chain.append(blow_up(chain[-1], labels[family[-1]]))
            members = [labels[i] for i in family]
            supersets = [b for b in building_sets if b.issuperset(members)]
            for r in range(1, len(family) + 1):
                for c in itertools.combinations(range(len(family)), r):
                    subset = frozenset(members[p] for p in c)
                    if not any(nested(b, subset) for b in supersets):
                        continue
                    checked += len(maps) // fixed
                    if chain[-1].join(BlowPair(members[p], bottom) for p in c) is None:
                        failing.update((tuple(g[i] for i in family), c) for g in maps)
        for family, c in sorted(failing, key=lambda fc: (fc[0], len(fc[1]), fc[1])):
            members = [labels[i] for i in family]
            failures.append(
                {"dim": dim, "family": repr(tuple(members)), "subset": repr(tuple(members[p] for p in c))}
            )
    return {
        "claim": "thm44",
        "checked": checked,
        "result": not failures,
        "certificates": failures,
    }
