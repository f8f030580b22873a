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
from operator import and_
from typing import Hashable, Iterable, Iterator, Optional, Sequence

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


class FiniteSemilattice:
    """Finite meet-semilattice given by labelled elements and a <= relation.

    The order is stored once, as bitmasks over element indices: bit k of
    ``_up[i]`` is set when i <= k, and bit k of ``_down[i]`` when k <= i.
    Construction validates that the relation is a partial order, that a
    unique bottom exists and that every pair has a greatest lower bound.
    Meets and joins are lookups: the meet of a set is the element whose
    down-set is the intersection of theirs, the join the element whose up-set
    is the intersection of theirs, and the join is absent when no element has
    that up-set.
    """

    def __init__(self, labels: Sequence[Hashable], leq: Sequence[Sequence[bool]]):
        self.labels = tuple(labels)
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("duplicate labels")
        rows = [tuple(row) for row in leq]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("relation matrix has wrong shape")
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        up = [sum(1 << k for k, x in enumerate(row) if x) for row in rows]
        down = [0] * n
        for i, mask in enumerate(up):
            for k in _bits(mask):
                down[k] |= 1 << i
        for i, mask in enumerate(up):
            if not mask >> i & 1:
                raise ValueError("relation not reflexive")
            if mask & down[i] != 1 << i:
                raise ValueError("relation not antisymmetric")
            if any(up[k] & ~mask for k in _bits(mask)):
                raise ValueError("relation not transitive")
        bottoms = [i for i, mask in enumerate(up) if mask == (1 << n) - 1]
        if len(bottoms) != 1:
            raise ValueError("no unique bottom element")
        by_down = {mask: i for i, mask in enumerate(down)}
        for i in range(n):
            for j in range(i + 1, n):
                if down[i] & down[j] not in by_down:
                    raise ValueError(
                        f"elements {self.labels[i]!r}, {self.labels[j]!r} have no meet"
                    )
        self._up, self._down = up, down
        self._by_up = {mask: i for i, mask in enumerate(up)}
        self._by_down = by_down
        self._bottom = bottoms[0]

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
    leq = [[up[i] >> k & 1 for k in survivors + pairs] for i in survivors]
    leq += [[0] * len(survivors) + [up[i] >> k & 1 for k in pairs] for i in pairs]
    labels = [lattice.labels[i] for i in survivors]
    labels += [BlowPair(xi, lattice.labels[i]) for i in pairs]
    return FiniteSemilattice(labels, leq)


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


def join_exists_in_blowup(
    lattice: FiniteSemilattice,
    family: Sequence[Hashable],
    subset: Iterable[Hashable],
) -> bool:
    """Directly test existence of the join of the (xi, bottom) elements."""
    subset = list(subset)
    if not set(subset) <= set(family):
        raise ValueError("subset must consist of family members")
    blown = iterated_blow_up(lattice, family)
    bottom = lattice.bottom
    targets = [BlowPair(xi, bottom) for xi in subset]
    for t in targets:
        if t not in blown:
            raise AssertionError(f"expected element {t!r} missing from blow-up")
    return blown.join(targets) is not None


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


def nested_complex_poset(
    lattice: FiniteSemilattice, s: Iterable[Hashable]
) -> FiniteSemilattice:
    """The nested-set complex of s ordered by inclusion, as a semilattice.

    Vertices are the elements of s; faces are the nested subsets (singletons
    and the empty set included).  Meets are intersections.
    """
    s = sorted(frozenset(s), key=repr)
    faces = [frozenset()]
    for r in range(1, len(s) + 1):
        for combo in itertools.combinations(s, r):
            if is_nested(lattice, frozenset(s), combo):
                faces.append(frozenset(combo))
    leq = [[f1 <= f2 for f2 in faces] for f1 in faces]
    return FiniteSemilattice(faces, leq)


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


def face_poset(fan: Fan) -> FiniteSemilattice:
    """All cones of the fan ordered by the face relation; labels are the cones."""
    cones = sorted(fan.cones().values(), key=lambda c: (c.dim, c.rays, c.lineality))
    # cones of a fan share its lineality and carry canonical rays modulo it,
    # so one cone lies in another exactly when its rays are among the other's
    ray_sets = [frozenset(c.rays) for c in cones]
    leq = [[r1 <= r2 for r2 in ray_sets] for r1 in ray_sets]
    return FiniteSemilattice(cones, leq)


def poset_isomorphic(l1: FiniteSemilattice, l2: FiniteSemilattice) -> bool:
    """Isomorphism of finite posets by colour refinement plus backtracking."""
    n1, n2 = len(l1), len(l2)
    if n1 != n2:
        return False

    def refine(lat: FiniteSemilattice) -> list:
        n = len(lat)
        colors = [(lat._down[i].bit_count(), lat._up[i].bit_count()) for i in range(n)]
        for _ in range(n):
            new = []
            for i in range(n):
                down = sorted(colors[k] for k in _bits(lat._down[i] & ~(1 << i)))
                up = sorted(colors[k] for k in _bits(lat._up[i] & ~(1 << i)))
                new.append((colors[i], tuple(down), tuple(up)))
            canon = {c: idx for idx, c in enumerate(sorted(set(new)))}
            new_ids = [canon[c] for c in new]
            if new_ids == colors:
                break
            colors = new_ids
        return colors

    c1, c2 = refine(l1), refine(l2)
    if sorted(c1) != sorted(c2):
        return False
    order = sorted(range(n1), key=lambda i: (c1[i], i))
    candidates = {i: [j for j in range(n2) if c2[j] == c1[i]] for i in order}

    assignment: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(pos: int) -> bool:
        if pos == n1:
            return True
        i = order[pos]
        for j in candidates[i]:
            if j in used:
                continue
            if all(
                (l1._up[i] >> i2 & 1) == (l2._up[j] >> j2 & 1)
                and (l1._down[i] >> i2 & 1) == (l2._down[j] >> j2 & 1)
                for i2, j2 in assignment.items()
            ):
                assignment[i] = j
                used.add(j)
                if backtrack(pos + 1):
                    return True
                del assignment[i]
                used.discard(j)
        return False

    return backtrack(0)


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
    poset = face_poset(fan)
    carrier = fan.carrier(nu)
    if carrier.is_zero():
        return None
    blown = blow_up(poset, carrier)
    if not poset_isomorphic(face_poset(subdivided), blown):
        return {"trial": trial, "ambient": ambient, "ray": nu}
    return None


def verify_fk_bridge(
    seed: int = 2024,
    samples: int = 200,
    max_ambient: int = 4,
    max_rays: int = 7,
    jobs: int = 1,
) -> dict:
    """Random sweep: face_poset(stellar(f, nu)) iso blow_up(face_poset(f), carrier).

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
    implies the (xi, 0)-join exists in the iterated blow-up."""
    checked = 0
    failures = []
    for dim in range(2, max_dim + 1):
        lattice = face_poset(_orthant_fan(dim))
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
