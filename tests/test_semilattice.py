"""Semilattices, blow-ups, building and nested sets, the fan bridge."""

import contextlib
import copy
import itertools
import random

import pytest

from gitfankit.polyhedral import Cone, fan_from_maximal, stellar_subdivide
from gitfankit.semilattice import (
    BlowPair,
    FiniteSemilattice,
    blow_up,
    face_poset,
    harmonious_closure,
    is_building_set,
    is_harmonious,
    is_nested,
    is_sorted_family,
    iterated_blow_up,
    poset_isomorphic,
    random_interior_ray,
    random_simplicial_fan,
    ray_face_poset,
    verify_blowup_join_criterion,
    verify_fk_bridge,
)


def cone(*gens, dim=3):
    return Cone.from_generators(list(gens), dim)


def orthant_fan(d):
    eye = [tuple(1 if i == j else 0 for j in range(d)) for i in range(d)]
    return fan_from_maximal([Cone.from_generators(eye, d)])


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
NU1, NU2, NU0 = (1, 1, 0), (0, 1, 1), (1, 1, 1)


def boolean_two():
    return FiniteSemilattice.from_relation(
        ["0", "a", "b", "ab"],
        [
            [True, True, True, True],
            [False, True, False, True],
            [False, False, True, True],
            [False, False, False, True],
        ],
    )


def orthant_poset(d=3):
    return face_poset(orthant_fan(d))


def test_meet_join_on_face_poset():
    f = fan_from_maximal([Cone.from_generators([(1, 0), (0, 1)], 2)])
    lat = face_poset(f)
    r1 = Cone.from_generators([(1, 0)], 2)
    r2 = Cone.from_generators([(0, 1)], 2)
    full = Cone.from_generators([(1, 0), (0, 1)], 2)
    assert lat.join([r1, r2]) == full
    assert lat.meet([r1, r2]) == lat.bottom
    assert lat.bottom.is_zero()


def test_join_absent_without_top():
    lat = FiniteSemilattice.from_relation(
        ["0", "a", "b"],
        [[True, True, True], [False, True, False], [False, False, True]],
    )
    assert lat.join(["a", "b"]) is None


def meetless_relation():
    """Two atoms with two incomparable upper bounds: the pairwise meet of the
    upper bounds does not exist."""
    labels = ["0", "a", "b", "x", "y"]
    leq = [[lab1 == lab2 for lab2 in labels] for lab1 in labels]

    def set_le(a, b):
        leq[labels.index(a)][labels.index(b)] = True

    for z in "abxy":
        set_le("0", z)
    for z in "xy":
        set_le("a", z)
        set_le("b", z)
    return labels, leq


def test_meet_validation_rejects_meetless():
    with pytest.raises(ValueError):
        FiniteSemilattice.from_relation(*meetless_relation())


INVALID_RELATIONS = [
    (["0", "0"], [[1, 1], [0, 1]], "duplicate labels"),
    (["0", "a"], [[1, 1]], "wrong shape"),
    (["0", "a"], [[1, 1], [0, 0]], "not reflexive"),
    (["0", "a"], [[1, 1], [1, 1]], "not antisymmetric"),
    (["0", "a", "b"], [[1, 1, 0], [0, 1, 1], [0, 0, 1]], "not transitive"),
    (["a", "b"], [[1, 0], [0, 1]], "no unique bottom"),
    ([], [], "no unique bottom"),
]


@pytest.mark.parametrize("labels, leq, message", INVALID_RELATIONS)
def test_constructor_rejections(labels, leq, message):
    with pytest.raises(ValueError, match=message):
        FiniteSemilattice.from_relation(labels, leq)


@pytest.mark.parametrize(
    "labels, leq",
    [(labels, leq) for labels, leq, _ in INVALID_RELATIONS] + [meetless_relation()],
)
def test_mask_path_rejects_like_matrix_path(labels, leq):
    with pytest.raises(ValueError) as by_matrix:
        FiniteSemilattice.from_relation(labels, leq)
    masks = [sum(1 << k for k, x in enumerate(row) if x) for row in leq]
    with pytest.raises(ValueError) as by_masks:
        FiniteSemilattice(labels, masks)
    assert str(by_masks.value) == str(by_matrix.value)


def test_wrong_shape_on_both_paths():
    # a row longer than the label list, and a mask with a bit past it
    with pytest.raises(ValueError) as by_matrix:
        FiniteSemilattice.from_relation(["0", "a"], [[1, 1], [0, 1, 1]])
    with pytest.raises(ValueError) as by_masks:
        FiniteSemilattice(["0", "a"], [3, 6])
    assert str(by_masks.value) == str(by_matrix.value) == "relation has wrong shape"


def test_blow_up_two_cone():
    f = fan_from_maximal([Cone.from_generators([(1, 0), (0, 1)], 2)])
    lat = face_poset(f)
    full = Cone.from_generators([(1, 0), (0, 1)], 2)
    r1 = Cone.from_generators([(1, 0)], 2)
    r2 = Cone.from_generators([(0, 1)], 2)
    blown = blow_up(lat, full)
    assert len(blown) == 6
    expected = {
        lat.bottom,
        r1,
        r2,
        BlowPair(full, lat.bottom),
        BlowPair(full, r1),
        BlowPair(full, r2),
    }
    assert set(blown.labels) == expected


def test_blow_up_atom_isomorphic():
    lat = boolean_two()
    assert poset_isomorphic(blow_up(lat, "a"), lat)


def test_blow_up_bottom_rejected():
    with pytest.raises(ValueError):
        blow_up(boolean_two(), "0")


def test_iterated_single_equals_blow_up():
    lat = boolean_two()
    assert poset_isomorphic(iterated_blow_up(lat, ["ab"]), blow_up(lat, "ab"))


def g_families(lat):
    c12 = cone(E1, E2)
    c23 = cone(E2, E3)
    r1, r2, r3 = cone(E1), cone(E2), cone(E3)
    g1 = [c12, c23, r1, r2, r3]
    g2 = [c23, c12, r1, r2, r3]
    return g1, g2, c12, c23, (r1, r2, r3)


def test_example_families_track_their_fans():
    # the two subdivision orders give different fans; each blow-up matches
    # its own fan's face poset (the fans happen to be abstractly isomorphic
    # as posets, under swapping the roles of the two subdivided faces)
    from gitfankit.polyhedral import iterated_stellar

    lat = orthant_poset()
    g1, g2, *_ = g_families(lat)
    assert is_sorted_family(lat, g1) and is_sorted_family(lat, g2)
    b1 = iterated_blow_up(lat, g1)
    b2 = iterated_blow_up(lat, g2)
    f12 = iterated_stellar(orthant_fan(3), [NU1, NU2])
    f21 = iterated_stellar(orthant_fan(3), [NU2, NU1])
    assert f12 != f21
    assert poset_isomorphic(b1, face_poset(f12))
    assert poset_isomorphic(b2, face_poset(f21))
    assert poset_isomorphic(b1, b2)


def test_example_families_with_orthant_isomorphic():
    lat = orthant_poset()
    g1, g2, *_ = g_families(lat)
    full = cone(E1, E2, E3)
    b1 = iterated_blow_up(lat, [full] + g1)
    b2 = iterated_blow_up(lat, [full] + g2)
    assert poset_isomorphic(b1, b2)


def test_unsorted_family_detected():
    lat = orthant_poset()
    full = cone(E1, E2, E3)
    assert not is_sorted_family(lat, [cone(E1), full])
    with pytest.raises(ValueError):
        iterated_blow_up(lat, [cone(E1, E2), full])


def test_building_set_everything():
    lat = orthant_poset()
    assert is_building_set(lat, [x for x in lat.labels if x != lat.bottom])


def test_building_set_example():
    lat = orthant_poset()
    _, _, c12, c23, rays = g_families(lat)
    assert not is_building_set(lat, [c12, c23, *rays])
    full = cone(E1, E2, E3)
    assert is_building_set(lat, [c12, c23, *rays, full])


def test_nested_chain():
    lat = orthant_poset()
    s = frozenset(x for x in lat.labels if x != lat.bottom)
    assert is_nested(lat, s, [cone(E1), cone(E1, E2)])


def test_nested_join_in_s_fails():
    lat = orthant_poset()
    c12, c23, full = cone(E1, E2), cone(E2, E3), cone(E1, E2, E3)
    s = frozenset([c12, c23, full, cone(E1), cone(E2), cone(E3)])
    assert not is_nested(lat, s, [c12, c23])


def test_nested_missing_join_fails():
    fan = fan_from_maximal([cone(E1, E2), cone(E2, E3)])
    lat = face_poset(fan)
    s = frozenset(x for x in lat.labels if x != lat.bottom)
    assert not is_nested(lat, s, [cone(E1), cone(E3)])


def test_harmonious_disjoint_meets():
    lat = orthant_poset()
    s = [cone(E1), cone(E2), cone(E3)]
    assert harmonious_closure(lat, s) == frozenset(s)


def test_harmonious_closure_adds_orthant():
    lat = orthant_poset()
    c12, c23, full = cone(E1, E2), cone(E2, E3), cone(E1, E2, E3)
    assert not is_harmonious(lat, [c12, c23], (c12, c23))
    clo = harmonious_closure(lat, [c12, c23])
    assert clo == frozenset([c12, c23, full])
    assert harmonious_closure(lat, clo) == clo


def join_exists_in_blowup(lattice, family, subset):
    """Directly test existence of the join of the (xi, bottom) elements."""
    blown = iterated_blow_up(lattice, family)
    targets = [BlowPair(xi, lattice.bottom) for xi in subset]
    assert all(t in blown for t in targets)
    return blown.join(targets) is not None


def test_join_exists_single():
    lat = orthant_poset()
    full = cone(E1, E2, E3)
    assert join_exists_in_blowup(lat, [full], [full])


def test_join_exists_example_family():
    lat = orthant_poset()
    g1, _, c12, c23, rays = g_families(lat)
    r1, r2, r3 = rays
    full = cone(E1, E2, E3)
    family = [full] + g1
    closure = harmonious_closure(lat, [c12, c23, r1, r2, r3])
    assert closure == frozenset([c12, c23, r1, r2, r3, full])
    assert is_building_set(lat, closure)
    # {r1, r3}: join is the missing 2-face, outside the closure, so nested,
    # and the pair of exceptional elements indeed has a join downstairs
    assert is_nested(lat, closure, [r1, r3])
    assert join_exists_in_blowup(lat, family, [r1, r3])
    # {c12, c23}: their join is the orthant, which every building superset of
    # the family contains, so the criterion does not apply; the direct join
    # is in fact absent (the two exceptional rays span no common cone)
    assert not is_nested(lat, closure, [c12, c23])
    assert not join_exists_in_blowup(lat, family, [c12, c23])


def test_face_poset_counts():
    f = fan_from_maximal([Cone.from_generators([(1, 0), (0, 1)], 2)])
    assert len(face_poset(f)) == 4
    assert len(orthant_poset(3)) == 8


def test_bridge_specific():
    fan = orthant_fan(3)
    lat = face_poset(fan)
    for nu in [NU1, NU0, (2, 1, 0)]:
        sub = stellar_subdivide(fan, nu)
        carrier = fan.carrier(nu)
        assert poset_isomorphic(face_poset(sub), blow_up(lat, carrier))


def test_poset_isomorphic_detects_difference():
    from gitfankit.polyhedral import iterated_stellar

    f1 = iterated_stellar(orthant_fan(3), [NU1])
    f12 = iterated_stellar(orthant_fan(3), [NU1, NU2])
    assert not poset_isomorphic(face_poset(f1), face_poset(f12))


def test_poset_isomorphic_rejects_size_mismatch():
    assert not poset_isomorphic(boolean_two(), orthant_poset(3))


def test_sorted_building_families_give_nested_complex():
    # exhaustive on the orthant face posets: whenever the underlying set of a
    # sorted family is a building set, the iterated blow-up is isomorphic to
    # the nested-set complex of that set
    from gitfankit.semilattice import _inclusion_masks, _orthant_fan, _sorted_families

    def nested_complex_poset(lat, s):
        # the nested subsets of s (the empty set and singletons included),
        # ordered by inclusion
        s = sorted(s, key=repr)
        faces = [
            frozenset(combo)
            for r in range(len(s) + 1)
            for combo in itertools.combinations(s, r)
            if not combo or is_nested(lat, frozenset(s), combo)
        ]
        return FiniteSemilattice(faces, _inclusion_masks(faces))

    for dim in (2, 3):
        lat = face_poset(_orthant_fan(dim))
        building_cache: dict = {}
        complex_cache: dict = {}
        checked = 0
        for family in _sorted_families(lat):
            key = frozenset(family)
            if key not in building_cache:
                building_cache[key] = is_building_set(lat, key)
            if not building_cache[key]:
                continue
            if key not in complex_cache:
                complex_cache[key] = nested_complex_poset(lat, key)
            blown = iterated_blow_up(lat, family)
            assert poset_isomorphic(blown, complex_cache[key]), family
            checked += 1
        assert checked > 0


def test_blow_up_stack_matches_iterated_blow_up(monkeypatch):
    # thm44 builds each family's blow-up from its prefix's: along every sorted
    # family of the orthant face posets it must equal the left fold from the
    # lattice, element for element and mask for mask, with one blow-up each
    import gitfankit.semilattice as sl

    calls = []
    real_blow_up = sl.blow_up

    def counting_blow_up(lattice, xi):
        calls.append(xi)
        return real_blow_up(lattice, xi)

    for dim in (2, 3):
        lat = face_poset(sl._orthant_fan(dim))
        families = sl._sorted_families(lat)
        monkeypatch.setattr(sl, "blow_up", counting_blow_up)
        built = list(sl._sorted_family_blow_ups(lat))
        monkeypatch.setattr(sl, "blow_up", real_blow_up)
        assert [f for f, _ in built] == families
        for family, blown in built:
            ref = iterated_blow_up(lat, family)
            assert blown.labels == ref.labels, family
            assert blown._up == ref._up, family
    assert len(calls) == 670


def test_harmonious_closure_all_pairs_harmonious():
    import itertools as it

    lat = orthant_poset()
    clo = harmonious_closure(lat, [cone(E1, E2), cone(E2, E3), cone(E1)])
    for a, b in it.combinations(sorted(clo, key=repr), 2):
        assert is_harmonious(lat, clo, (a, b))


def test_fk_bridge_workers_clamped_to_samples(monkeypatch):
    import multiprocessing

    opened = []

    class RecordingPool:
        """Stands in for multiprocessing.Pool: records the size, starts nothing."""

        def __init__(self, processes):
            opened.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(x) for x in items]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    rep = verify_fk_bridge(seed=5, samples=3, jobs=64)
    assert opened == [3]
    assert verify_fk_bridge(seed=5, samples=1, jobs=8) == verify_fk_bridge(seed=5, samples=1)
    assert rep == verify_fk_bridge(seed=5, samples=3)
    assert opened == [3]


def test_fk_bridge_sweep_smoke():
    rep = verify_fk_bridge(seed=5, samples=25)
    assert rep["result"] and rep["samples"] == 25


def test_random_fans_are_valid():
    rng = random.Random(3)
    for _ in range(10):
        fan = random_simplicial_fan(rng, rng.randint(2, 4), 7)
        assert fan.is_simplicial


def test_random_interior_ray_carrier_is_the_sampled_face():
    """The drawn ray is a positive combination of the sampled rays, so its
    carrier is exactly their face; a twin generator replays the sample."""
    for seed in range(60):
        fan = random_simplicial_fan(random.Random(seed), 4, 8)
        rng, twin = random.Random(seed), random.Random(seed)
        nu = random_interior_ray(rng, fan)
        cone_rays = twin.choice(fan.maximal).rays
        face = twin.sample(cone_rays, twin.randint(1, len(cone_rays)))
        assert fan.carrier(nu).rays == tuple(sorted(face)), seed


class ReferencePoset:
    """Brute-force poset queries straight from the definitions, on positions
    into a label list (hashing cone labels in every query would dominate)."""

    def __init__(self, labels, le):
        self.labels = list(labels)
        self.le = le
        self.elems = range(len(self.labels))

    def below(self, a):
        return [x for x in self.elems if self.le[x][a]]

    def interval(self, a, b):
        return [x for x in self.elems if self.le[a][x] and self.le[x][b]]

    def meet(self, a, b):
        lower = [x for x in self.elems if self.le[x][a] and self.le[x][b]]
        greatest = [m for m in lower if all(self.le[x][m] for x in lower)]
        assert len(greatest) == 1
        return greatest[0]

    def join(self, a, b):
        upper = [x for x in self.elems if self.le[a][x] and self.le[b][x]]
        least = [m for m in upper if all(self.le[m][x] for x in upper)]
        assert len(least) <= 1
        return least[0] if least else None

    def covers(self):
        return {
            (a, b)
            for a in self.elems
            for b in self.elems
            if a != b
            and self.le[a][b]
            and not any(self.le[a][c] and self.le[c][b] for c in self.elems if c not in (a, b))
        }

    def blow_up(self, xi):
        i = self.labels.index(xi)
        survivors = [x for x in self.elems if not self.le[i][x]]
        pairs = [x for x in survivors if self.join(x, i) is not None]
        labels = [self.labels[x] for x in survivors]
        labels += [BlowPair(xi, self.labels[x]) for x in pairs]
        # survivors keep their order; (xi, x) <= (xi, y) iff x <= y;
        # y <= (xi, x) iff y <= x; no pair lies below a survivor
        le = [[self.le[x][y] for y in survivors + pairs] for x in survivors]
        le += [[False] * len(survivors) + [self.le[x][y] for y in pairs] for x in pairs]
        return ReferencePoset(labels, le)


def assert_matches_reference(lat, ref):
    pos = {lab: i for i, lab in enumerate(ref.labels)}
    assert set(lat.labels) == set(pos)
    perm = [pos[lab] for lab in lat.labels]

    def at(xs):
        return sorted(pos[x] for x in xs)

    for a in lat.labels:
        assert at(lat.below(a)) == ref.below(pos[a])
        for b in lat.labels:
            ia, ib = pos[a], pos[b]
            assert lat.leq(a, b) == ref.le[ia][ib]
            assert at(lat.interval(a, b)) == ref.interval(ia, ib)
            assert pos[lat.meet([a, b])] == ref.meet(ia, ib)
            join = lat.join([a, b])
            assert (None if join is None else pos[join]) == ref.join(ia, ib)
    assert {(perm[i], perm[j]) for i, j in lat.hasse_edges()} == ref.covers()


def test_bitset_order_matches_reference():
    # face posets of random fans and one blow-up of each, against the
    # geometric containment relation and the blow-up definition
    rng = random.Random(11)
    for _ in range(20):
        fan = random_simplicial_fan(rng, rng.randint(2, 4), 7)
        lat = face_poset(fan)
        geometric = [[b.contains_cone(a) for b in lat.labels] for a in lat.labels]
        ref = ReferencePoset(lat.labels, geometric)
        assert_matches_reference(lat, ref)
        xi = rng.choice([x for x in lat.labels if x != lat.bottom])
        assert_matches_reference(blow_up(lat, xi), ref.blow_up(xi))


def test_face_poset_git_fan_n5():
    from gitfankit.gitfan import git_fan

    lat = face_poset(git_fan(5))
    assert len(lat) == 752
    assert len(lat.hasse_edges()) == 2525


def test_dump_shape():
    d = orthant_poset(2).dump()
    assert set(d) == {"elements", "hasse"}
    assert len(d["elements"]) == 4 and len(d["hasse"]) == 4


# -- ray-set face posets, isomorphism and negative controls -----------------


def relabelled(lat, rng):
    """lat with its elements moved to random indices."""
    import gitfankit.semilattice as sl

    n = len(lat)
    perm = list(range(n))
    rng.shuffle(perm)
    labels, up = [None] * n, [0] * n
    for i, mask in enumerate(lat._up):
        labels[perm[i]] = lat.labels[i]
        up[perm[i]] = sum(1 << perm[k] for k in sl._bits(mask))
    return FiniteSemilattice(labels, up)


def brute_isomorphic(a, b):
    """Reference: some permutation of a's indices carries its order onto b's."""
    n = len(a)
    rel_a = [(i, k) for i in range(n) for k in range(n) if a._up[i] >> k & 1]
    rel_b = {(i, k) for i in range(n) for k in range(n) if b._up[i] >> k & 1}
    return n == len(b) and len(rel_a) == len(rel_b) and any(
        all((p[i], p[k]) in rel_b for i, k in rel_a)
        for p in itertools.permutations(range(n))
    )


def poset_from_covers(labels, covers):
    """The poset on labels generated by the (lower, upper) cover pairs."""
    index = {lab: i for i, lab in enumerate(labels)}
    up = [1 << i for i in range(len(labels))]
    for _ in labels:
        for a, b in covers:
            up[index[a]] |= up[index[b]]
    return FiniteSemilattice(labels, up)


def test_poset_isomorphic_long_chain():
    # the backtracking goes one level per element, past the recursion limit
    n = 1200
    chain = FiniteSemilattice(range(n), [(1 << n) - (1 << i) for i in range(n)])
    assert poset_isomorphic(chain, chain)


def random_relations(rng, count=400):
    """Up-set masks of count seeded random relations on 1 to 7 elements:
    element 0 is the bottom, i < j only for i < j, and each up-set takes the
    (already closed) up-sets of the elements put above it."""
    for _ in range(count):
        n = rng.randint(1, 7)
        up = [(1 << n) - 1] + [1 << i for i in range(1, n)]
        for i in reversed(range(1, n)):
            for j in range(i + 1, n):
                if rng.random() < 0.35:
                    up[i] |= up[j]
        yield up


def test_poset_isomorphic_matches_brute_force_on_small_posets(monkeypatch):
    # every semilattice of at most 7 elements built by the two sweeps or by a
    # seeded draw of random relations, against every other of its size and
    # against a random relabelling of itself
    met = {}
    real_init = FiniteSemilattice.__init__

    def recording_init(self, labels, up):
        real_init(self, labels, up)
        if len(self) <= 7:
            met.setdefault(tuple(self._up), self)

    monkeypatch.setattr(FiniteSemilattice, "__init__", recording_init)
    verify_fk_bridge(seed=5, samples=25)
    verify_blowup_join_criterion()
    rng = random.Random(7)
    for up in random_relations(rng):
        with contextlib.suppress(ValueError):
            FiniteSemilattice(range(len(up)), up)
    monkeypatch.undo()
    posets = list(met.values())
    assert len(posets) > 100
    verdicts = []
    for a, b in itertools.combinations(posets, 2):
        if len(a) == len(b):
            verdicts.append(brute_isomorphic(a, b))
            assert poset_isomorphic(a, b) == verdicts[-1], (a._up, b._up)
    assert True in verdicts and False in verdicts
    for a in posets:
        b = relabelled(a, rng)
        assert brute_isomorphic(a, b) and poset_isomorphic(a, b)


def recorded_blow_ups(monkeypatch):
    """A list that collects (source, blow-up) for every later blow_up call."""
    import gitfankit.semilattice as sl

    seen = []
    real = sl.blow_up

    def recording(lattice, xi):
        blown = real(lattice, xi)
        seen.append((lattice, blown))
        return blown

    monkeypatch.setattr(sl, "blow_up", recording)
    return seen


def test_poset_isomorphic_accepts_relabelled_fk_posets(monkeypatch):
    # each trial's source face poset and its blow-up, against a relabelling
    seen = recorded_blow_ups(monkeypatch)
    assert verify_fk_bridge(seed=2024)["result"]
    monkeypatch.undo()
    posets = [lat for pair in seen for lat in pair]
    assert len(posets) == 400
    rng = random.Random(2024)
    for lat in posets:
        assert poset_isomorphic(lat, relabelled(lat, rng))


def test_poset_isomorphic_rejects_equal_count_multisets():
    # p has two upper covers and one element sits over two atoms in both;
    # in the first that element covers q and r, in the second p and q
    labels = ["0", "p", "q", "r", "s", "t", "u"]
    atoms = [("0", "p"), ("0", "q"), ("0", "r")]
    first = poset_from_covers(labels, atoms + [("p", "s"), ("p", "t"), ("q", "u"), ("r", "u")])
    second = poset_from_covers(labels, atoms + [("p", "s"), ("p", "u"), ("q", "u"), ("r", "t")])

    def counts(lat):
        return sorted((d.bit_count(), u.bit_count()) for d, u in zip(lat._down, lat._up))

    assert counts(first) == counts(second)
    assert not brute_isomorphic(first, second)
    assert not poset_isomorphic(first, second)


def test_poset_isomorphic_backtracks_past_colour_refinement():
    # a bottom under the 12-cycle and under two 6-cycles, each cycle read as
    # atoms covered by tops: every atom has two upper covers and every top
    # two atoms in both, so colour refinement splits nothing, and only the
    # search can tell the connected cycle from the two halves
    def cycles(*lengths):
        labels, covers, start = ["0"], [], 0
        for length in lengths:
            for i in range(length):
                atom, top = f"a{start + i}", f"t{start + i}"
                labels += [atom, top]
                covers += [("0", atom), (atom, top), (atom, f"t{start + (i - 1) % length}")]
            start += length
        return poset_from_covers(labels, covers)

    one, two = cycles(12), cycles(6, 6)
    assert not poset_isomorphic(one, two)
    rng = random.Random(5)
    for lat in (one, two):
        assert poset_isomorphic(lat, relabelled(lat, rng))


def test_ray_face_poset_matches_face_poset():
    from gitfankit import gitfan as gf

    rng = random.Random(2)
    fans = [orthant_fan(d) for d in (2, 3, 4)] + [gf.sigma_fan_cached(4, 1), gf.sigma_r(4)]
    fans += [random_simplicial_fan(rng, rng.randint(2, 4), 7) for _ in range(20)]
    for fan in fans:
        by_cones, by_rays = face_poset(fan), ray_face_poset(fan)
        assert by_rays.labels == tuple(c.rays for c in by_cones.labels)
        assert by_rays._up == by_cones._up


def test_ray_face_poset_rejects_non_simplicial_fans():
    square = Cone.from_generators([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 3)
    half_plane = Cone.from_generators([(1, 0), (0, 1), (0, -1)], 2)
    for c in (square, half_plane):
        with pytest.raises(ValueError, match="simplicial"):
            ray_face_poset(fan_from_maximal([c]))


def test_sweeps_build_no_face_cones(monkeypatch):
    def refuse(self, known=()):
        raise AssertionError("a sweep built face cones")

    monkeypatch.setattr(Cone, "faces", refuse)
    assert verify_fk_bridge(seed=5, samples=25)["result"]
    assert verify_blowup_join_criterion()["result"]


def without_last(lat):
    """lat without its last element, which must be maximal; the order of
    the rest is kept as it is."""
    n = len(lat) - 1
    keep = (1 << n) - 1
    out = copy.copy(lat)
    out.labels = lat.labels[:n]
    out._index = {lab: i for i, lab in enumerate(out.labels)}
    out._up = [mask & keep for mask in lat._up[:n]]
    out._down = [mask & keep for mask in lat._down[:n]]
    out._by_up = {mask: i for i, mask in enumerate(out._up)}
    out._by_down = {mask: i for i, mask in enumerate(out._down)}
    return out


def test_fk_bridge_reports_a_dropped_pair(monkeypatch):
    # negative control: a blow-up missing one element cannot match the
    # subdivided fan's face poset, and every trial must say so
    import gitfankit.semilattice as sl

    real = sl.blow_up

    def dropping(lattice, xi):
        blown = real(lattice, xi)
        # pairs come last, in the order of their survivors, and no element
        # lies above the pair of the last survivor
        assert isinstance(blown.labels[-1], BlowPair)
        return without_last(blown)

    monkeypatch.setattr(sl, "blow_up", dropping)
    rep = verify_fk_bridge(seed=5, samples=10)
    assert rep["result"] is False
    assert [c["trial"] for c in rep["certificates"]] == list(range(10))
    assert all(set(c) == {"trial", "ambient", "ray"} for c in rep["certificates"])


def bridge_verdicts(monkeypatch, **sweep):
    """The fk sweep's report, and per trial the pair (the sweep's verdict,
    the isomorphism search's verdict on the same subdivided fan and
    blow-up)."""
    import gitfankit.semilattice as sl

    blow_ups = recorded_blow_ups(monkeypatch)
    subdivided, verdicts = [], []
    real_subdivide, real_trial = sl.stellar_subdivide, sl._fk_bridge_trial

    def subdivide(fan, ray):
        subdivided.append(real_subdivide(fan, ray))
        return subdivided[-1]

    def judged(args):
        failure = real_trial(args)
        # a trial's last subdivision and blow-up are the two it compares
        searched = poset_isomorphic(ray_face_poset(subdivided[-1]), blow_ups[-1][1])
        verdicts.append((failure is None, searched))
        return failure

    monkeypatch.setattr(sl, "stellar_subdivide", subdivide)
    monkeypatch.setattr(sl, "_fk_bridge_trial", judged)
    rep = verify_fk_bridge(**sweep)
    monkeypatch.undo()
    assert len(verdicts) == sweep["samples"]
    return rep, verdicts


@pytest.mark.parametrize("seed, samples", [(2024, 200), (5, 25)])
def test_fk_canonical_map_agrees_with_isomorphism_search(monkeypatch, seed, samples):
    rep, verdicts = bridge_verdicts(monkeypatch, seed=seed, samples=samples)
    assert rep["result"]
    assert verdicts == [(True, True)] * samples


def test_fk_bridge_reports_a_dropped_relation(monkeypatch):
    # negative control: the blow-up keeps its labels but its bottom no
    # longer lies below its last element, so the canonical map misses one
    # inclusion and every trial must fail, as the search does
    import gitfankit.semilattice as sl

    real = sl.blow_up

    def weakened(lattice, xi):
        blown = real(lattice, xi)
        out = copy.copy(blown)
        out._up = list(blown._up)
        out._up[blown._bottom] ^= 1 << len(blown) - 1
        return out

    monkeypatch.setattr(sl, "blow_up", weakened)
    rep, verdicts = bridge_verdicts(monkeypatch, seed=5, samples=10)
    assert rep["result"] is False
    assert [c["trial"] for c in rep["certificates"]] == list(range(10))
    assert all(set(c) == {"trial", "ambient", "ray"} for c in rep["certificates"])
    assert verdicts == [(False, False)] * 10


def reference_validation(labels, up):
    """The checks of ``FiniteSemilattice.__init__`` as first written, with a
    bit generator per element: raises ValueError with the same messages."""

    def bits(mask):
        return (k for k in range(mask.bit_length()) if mask >> k & 1)

    labels = tuple(labels)
    n = len(labels)
    if len(set(labels)) != n:
        raise ValueError("duplicate labels")
    up = list(up)
    if len(up) != n or any(mask >> n for mask in up):
        raise ValueError("relation has wrong shape")
    down = [0] * n
    for i, mask in enumerate(up):
        for k in bits(mask):
            down[k] |= 1 << i
    for i, mask in enumerate(up):
        if not mask >> i & 1:
            raise ValueError("relation not reflexive")
        if mask & down[i] != 1 << i:
            raise ValueError("relation not antisymmetric")
        if any(up[k] & ~mask for k in bits(mask)):
            raise ValueError("relation not transitive")
    bottoms = [i for i, mask in enumerate(up) if mask == (1 << n) - 1]
    if len(bottoms) != 1:
        raise ValueError("no unique bottom element")
    by_down = {mask: i for i, mask in enumerate(down)}
    for i in range(n):
        for j in range(i + 1, n):
            if down[i] & down[j] not in by_down:
                raise ValueError(f"elements {labels[i]!r}, {labels[j]!r} have no meet")


def validation_outcome(build, labels, up):
    """None when build accepts the relation, else its error message."""
    try:
        build(labels, up)
    except ValueError as exc:
        return str(exc)
    return None


def test_validation_matches_reference_on_random_and_perturbed_relations(monkeypatch):
    # the seeded random relations, and every poset the fk and thm44 sweeps
    # build with one up-set bit flipped, are accepted or rejected alike
    met = []
    real_init = FiniteSemilattice.__init__

    def recording_init(self, labels, up):
        met.append((tuple(labels), list(up)))
        real_init(self, labels, up)

    monkeypatch.setattr(FiniteSemilattice, "__init__", recording_init)
    verify_fk_bridge()
    verify_blowup_join_criterion()
    monkeypatch.undo()
    assert len(met) == 1072
    rng = random.Random(7)
    cases = [(range(len(up)), up) for up in random_relations(rng)]
    for labels, up in met:
        flipped = list(up)
        flipped[rng.randrange(len(up))] ^= 1 << rng.randrange(len(up))
        cases.append((labels, flipped))
    # the same inputs with their elements moved to random indices, so that
    # index order is no longer a linear extension of the order
    for labels, up in list(cases):
        perm = list(range(len(up)))
        rng.shuffle(perm)
        moved = [0] * len(up)
        for i, mask in enumerate(up):
            moved[perm[i]] = sum(1 << perm[k] for k in range(len(up)) if mask >> k & 1)
        cases.append((labels, moved))
    outcomes = set()
    for labels, up in cases:
        outcome = validation_outcome(FiniteSemilattice, labels, up)
        assert outcome == validation_outcome(reference_validation, labels, up), (labels, up)
        outcomes.add(outcome if outcome is None else outcome.split()[-1])
    assert outcomes == {None, "reflexive", "antisymmetric", "transitive", "element", "meet"}


def test_thm44_reports_pairs_without_up_sets(monkeypatch):
    # negative control: when no blow-up pair lies below any other element,
    # two distinct (xi, 0) pairs never have a join
    import gitfankit.semilattice as sl

    real = sl.blow_up

    def stripped(lattice, xi):
        blown = real(lattice, xi)
        for k, lab in enumerate(blown.labels):
            if isinstance(lab, BlowPair):
                blown._up[k] = 1 << k
        blown._by_up = {mask: k for k, mask in enumerate(blown._up)}
        return blown

    monkeypatch.setattr(sl, "blow_up", stripped)
    rep = verify_blowup_join_criterion()
    assert rep["result"] is False and rep["certificates"]
    assert all(set(c) == {"dim", "family", "subset"} for c in rep["certificates"])
