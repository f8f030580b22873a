"""Cones, fans, stellar subdivision, arrangement sweeps."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from gitfankit import gitfan as gf
from gitfankit import polyhedral
from gitfankit.polyhedral import (
    Cone,
    Fan,
    FanAxiomViolation,
    arrangement_leaves,
    fan_from_maximal,
    is_subfan,
    iterated_stellar,
    stellar_subdivide,
)


def cone(*gens, dim=None):
    dim = dim if dim is not None else len(gens[0])
    return Cone.from_generators(list(gens), dim)


def orthant_fan(d):
    eye = [tuple(1 if i == j else 0 for j in range(d)) for i in range(d)]
    return fan_from_maximal([Cone.from_generators(eye, d)])


# -- dual descriptions -------------------------------------------------------


def test_dual_description_orthant2():
    c = cone((1, 0), (0, 1))
    assert c.facets == ((0, 1), (1, 0))
    assert c.span_eqs == ()


def test_dual_description_halfplane():
    c = cone((1, 0), (-1, 0), (0, 1))
    assert c.facets == ((0, 1),)
    assert c.span_eqs == ()
    assert c.lineality == ((1, 0),)


def test_simplicial_facets_against_inverse_oracle():
    """For a full-dimensional simplicial cone the facet normals are the rows
    of the inverse of the generator matrix, up to positive scaling: an
    independent check of the conversion engine."""
    from gitfankit.exact_linalg import primitive_vector, rank, solve

    rng = random.Random(23)
    produced = 0
    while produced < 40:
        dim = rng.randint(2, 5)
        gens = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(dim)]
        # generators as rows = M transposed
        if rank(gens) != dim:
            continue
        inv_rows = []
        for i in range(dim):
            y = solve(gens, [1 if j == i else 0 for j in range(dim)])
            assert y is not None
            inv_rows.append(primitive_vector(y))
        c = Cone.from_generators(gens, dim)
        produced += 1
        assert set(c.facets) == set(inv_rows)


# generator sets with optional -g partners, so that lineality is common
generator_sets = st.integers(2, 5).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(
            st.tuples(st.lists(st.integers(-3, 3), min_size=d, max_size=d), st.booleans()),
            min_size=1,
            max_size=8,
        ),
    )
)


def is_canonical_basis(rows):
    """Primitive RREF rows: positive pivots, strictly increasing, alone in
    their columns."""
    leads = [next(i for i, x in enumerate(r) if x) for r in rows]
    return (
        leads == sorted(set(leads))
        and all(r[i] > 0 and math.gcd(*r) == 1 for r, i in zip(rows, leads))
        and all(r[i] == 0 for k, r in enumerate(rows) for j, i in enumerate(leads) if j != k)
    )


@settings(max_examples=150, deadline=None)
@given(generator_sets)
def test_roundtrip_through_inequalities(case):
    d, drawn = case
    gens = []
    for g, with_negative in drawn:
        gens.append(tuple(g))
        if with_negative:
            gens.append(tuple(-x for x in g))
    c = Cone.from_generators(gens, d)
    assert Cone.from_inequalities(c.facets, c.span_eqs, ambient=d) == c
    assert is_canonical_basis(c.lineality) and is_canonical_basis(c.span_eqs)


def test_roundtrip_random_cones():
    rng = random.Random(11)
    for _ in range(120):
        dim = rng.randint(2, 6)
        gens = [
            tuple(rng.randint(-4, 4) for _ in range(dim))
            for _ in range(rng.randint(1, 12))
        ]
        c = Cone.from_generators(gens, dim)
        assert c == Cone.from_generators(c.generators(), dim)
        assert all(c.contains(g) for g in gens)


# -- membership ---------------------------------------------------------------


def test_contains_modes():
    c = cone((1, 0), (0, 1))
    assert c.contains((1, 1), "relative_interior")
    assert not c.contains((1, 0), "relative_interior")
    assert c.contains((1, 0))


def test_contains_relint_full_orthant():
    c = cone((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert c.contains((1, 2, 3), "relative_interior")


# -- intersection -------------------------------------------------------------


def test_intersect_common_ray():
    c = cone((1, 0, 0), (0, 1, 0)).intersect(cone((0, 1, 0), (0, 0, 1)))
    assert c.rays == ((0, 1, 0),)


def test_intersect_corner_chamber():
    omega = Cone.from_inequalities(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)], ambient=3
    )
    half = Cone.from_inequalities([(1, -1, -1)], ambient=3)
    c = omega.intersect(half)
    assert c.rays == ((1, 0, 0), (1, 0, 1), (1, 1, 0))


def test_intersect_idempotent():
    c = cone((1, 2, 0), (0, 1, 1))
    assert c.intersect(c) == c


# -- faces --------------------------------------------------------------------


def test_faces_of_two_cone():
    assert len(cone((1, 0), (0, 1)).faces()) == 4


def test_faces_of_ray():
    assert len(cone((1, 0)).faces()) == 2


@pytest.mark.parametrize("d", [2, 3, 4])
def test_faces_simplicial_count(d):
    eye = [tuple(1 if i == j else 0 for j in range(d)) for i in range(d)]
    assert len(Cone.from_generators(eye, d).faces()) == 2**d


def test_faces_closed_under_intersection():
    c = cone((1, 0, 0), (1, 1, 0), (0, 1, 1), (0, 0, 1))
    faces = c.faces()
    keys = {f._key() for f in faces}
    for f1 in faces:
        for f2 in faces:
            assert f1.intersect(f2)._key() in keys


# -- fan assembly -------------------------------------------------------------


def test_fan_single_cone():
    f = fan_from_maximal([cone((1, 0), (0, 1))])
    assert len(f.maximal) == 1


def test_fan_shared_ray():
    f = fan_from_maximal(
        [cone((1, 0, 0), (0, 1, 0)), cone((0, 1, 0), (0, 0, 1))]
    )
    assert len(f.maximal) == 2


def test_fan_overlap_rejected():
    with pytest.raises(FanAxiomViolation) as exc:
        fan_from_maximal([cone((1, 0), (1, 1)), cone((0, 1), (2, 1))])
    assert len(exc.value.offending) == 2


def test_fan_prunes_faces():
    big = cone((1, 0), (0, 1))
    f = fan_from_maximal([big, cone((1, 0))])
    assert f.maximal == (big,)


@pytest.mark.parametrize("order", [1, -1])
def test_fan_rejects_nested_cones_of_equal_dimension(order):
    # the containment scan skips only holders of lower dimension, so a
    # distinct cone of the same dimension inside another is still caught
    outer, inner = cone((1, 0), (0, 1)), cone((1, 0), (1, 1))
    assert outer.dim == inner.dim and outer.contains_cone(inner)
    with pytest.raises(FanAxiomViolation, match="contained in another without being a face") as exc:
        fan_from_maximal([outer, inner][::order])
    assert exc.value.offending == (inner, outer)


def common_face_reference(c1, c2):
    """The fan axiom by definition: the intersection is a face of both."""
    m = c1.intersect(c2)
    return m.is_face_of(c1) and m.is_face_of(c2)


def pair_verdicts(c1, c2):
    """The pair check in both argument orders, each computed afresh."""
    verdicts = []
    for a, b in ((c1, c2), (c2, c1)):
        polyhedral._PAIR_CACHE.clear()
        verdicts.append(polyhedral._pair_has_common_face(a, b))
    return verdicts


def test_pair_check_matches_intersection_reference(monkeypatch):
    """The pair certificate against the definition: c1 and c2 meet in a
    common face iff their intersection is a face of both."""
    monkeypatch.setattr(polyhedral, "_PAIR_CACHE", {})
    rng = random.Random(11)

    def vec(dim):
        return tuple(rng.randint(-2, 2) for _ in range(dim))

    def random_cone(dim):
        gens = [vec(dim) for _ in range(rng.randint(1, dim + 1))]
        if rng.random() < 0.2:
            gens.append(tuple(-x for x in gens[0]))
        return Cone.from_generators(gens, dim)

    verdicts = []
    lineality = lower = 0
    for _ in range(400):
        dim = rng.randint(2, 4)
        c1 = random_cone(dim)
        gens = c1.generators()
        if gens and rng.random() < 0.5:
            # a partner built on some of c1's generators, so both verdicts occur
            c2 = Cone.from_generators(rng.sample(gens, rng.randint(1, len(gens))) + [vec(dim)], dim)
        else:
            c2 = random_cone(dim)
        verdict = polyhedral._pair_has_common_face(c1, c2)
        assert verdict == common_face_reference(c1, c2), (c1, c2)
        verdicts.append(verdict)
        lineality += bool(c1.lineality or c2.lineality)
        lower += c1.dim < dim or c2.dim < dim
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100
    assert lineality >= 50 and lower >= 50


def test_pair_check_adversarial_cases(monkeypatch):
    monkeypatch.setattr(polyhedral, "_PAIR_CACHE", {})
    cases = []
    for d in (2, 3, 4):
        eye = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        # meet in {0}: no facet normal of either orthant alone separates them
        cases.append((cone(*eye), cone(*[tuple(-x for x in e) for e in eye]), True))
    orthant = cone((1, 0, 0), (0, 1, 0), (0, 0, 1))
    cases += [
        # full-dimensional simplicial cones overlapping in a non-face
        (cone((1, 0), (1, 2)), cone((1, 1), (0, 1)), False),
        (orthant, cone((1, 1, 0), (0, 1, 1), (-1, 0, 1)), False),
        # a face, and a subcone that is not a face
        (orthant, cone((1, 0, 0), (0, 1, 0), dim=3), True),
        (orthant, cone((1, 1, 0), (0, 0, 1)), False),
        (orthant, orthant, True),
        # {0} is a face of a pointed cone, not of one with lineality
        (Cone.from_generators([], 3), orthant, True),
        (Cone.from_generators([], 3), cone((1, 0, 0), (-1, 0, 0), (0, 1, 0)), False),
        # half-spaces sharing their boundary hyperplane, and one holding the orthant
        (
            cone((1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)),
            cone((-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)),
            True,
        ),
        (cone((1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)), orthant, False),
        # lower-dimensional cones in different spans crossing in their relints
        (cone((1, 0, 0), (0, 1, 0)), cone((1, 1, 1), (1, 1, -1)), False),
        (cone((1, 0, 0), (-1, 0, 0)), cone((0, 1, 0), (0, -1, 0)), False),
        (cone((1, 0, 0), (0, 1, 0)), cone((0, 0, 1), (1, 1, 1)), True),
    ]
    for c1, c2, expected in cases:
        assert common_face_reference(c1, c2) == expected, (c1, c2)
        assert pair_verdicts(c1, c2) == [expected, expected], (c1, c2)


def test_pair_check_matches_reference_on_fans(monkeypatch):
    monkeypatch.setattr(polyhedral, "_PAIR_CACHE", {})
    git_pairs = list(itertools.combinations(gf.git_fan(4).cones().values(), 2))
    assert len(git_pairs) == 3655
    for c1, c2 in git_pairs:
        assert pair_verdicts(c1, c2) == [True, True], (c1, c2)
    from gitfankit.semilattice import random_simplicial_fan

    # faces of different fans subdividing one orthant overlap in all ways
    pool = []
    for seed in range(4):
        rng = random.Random(seed)
        faces = list(random_simplicial_fan(rng, 3, 7).cones().values())
        pool += rng.sample(faces, min(10, len(faces)))
    verdicts = []
    for c1, c2 in itertools.combinations(pool, 2):
        expected = common_face_reference(c1, c2)
        assert pair_verdicts(c1, c2) == [expected, expected], (c1, c2)
        verdicts.append(expected)
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100


def test_is_face_of_matches_face_enumeration():
    git_cones = list(gf.git_fan(4).cones().values())
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    m1, m2, m3 = (-1, 0, 0), (0, -1, 0), (0, 0, -1)
    extras = [
        cone(e1, m1),  # a line
        cone(e1, m1, e2),  # a half-plane
        cone(e1, m1, e2, e3),  # a half-plane times a ray
        cone(e1, m1, e2, m2, e3, m3),  # the whole space
        Cone.from_generators([], 3),  # the zero cone
        cone(e1, e2, e3),
        cone(e1, e2),
        cone(e1),
        cone(e2),
        cone((1, 0), (0, 1)),  # another ambient dimension
        Cone.from_generators([], 2),
    ]
    verdicts = []
    for pool in (git_cones, extras):
        keys = {d._key(): {f._key() for f in d.faces()} for d in pool}
        for c, d in itertools.product(pool, repeat=2):
            expected = c._key() in keys[d._key()]
            assert c.is_face_of(d) == expected, (c, d)
            verdicts.append(expected)
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100


def test_pair_check_runs_no_dd_conversion(monkeypatch):
    fan = gf.git_fan(4)

    def no_dd(*args, **kwargs):
        raise AssertionError("double description conversion in the pair check")

    monkeypatch.setattr(polyhedral, "_dd", no_dd)
    monkeypatch.setattr(polyhedral, "_PAIR_CACHE", {})
    assert fan_from_maximal(fan.maximal) == fan
    assert len(polyhedral._PAIR_CACHE) == 66


def test_fan_from_maximal_rejects_overlapping_chamber():
    chambers = list(gf.git_fan(4).maximal)
    c = chambers.pop(0)
    # a neighbour across a common facet, and a point just past that facet
    d = next(d for d in chambers if len(set(c.rays) & set(d.rays)) == 3)
    shared = set(c.rays) & set(d.rays)
    apex = next(r for r in d.rays if r not in shared)
    x = tuple(3 * sum(v) + a for v, a in zip(zip(*shared), apex))
    assert d.contains(x, "relative_interior")
    grown = Cone.from_generators(c.rays + (x,), 4)
    assert not any(grown.contains_cone(e) for e in chambers)
    with pytest.raises(FanAxiomViolation, match="pairwise intersection") as exc:
        fan_from_maximal([grown] + chambers)
    assert exc.value.offending == (grown, d)


# -- stellar subdivision ------------------------------------------------------


def test_stellar_first_ray():
    f = stellar_subdivide(orthant_fan(3), (1, 1, 0))
    got = sorted(c.rays for c in f.maximal)
    assert got == [
        ((0, 0, 1), (0, 1, 0), (1, 1, 0)),
        ((0, 0, 1), (1, 0, 0), (1, 1, 0)),
    ]


def test_stellar_second_ray():
    f = iterated_stellar(orthant_fan(3), [(1, 1, 0), (0, 1, 1)])
    got = sorted(c.rays for c in f.maximal)
    assert got == [
        ((0, 0, 1), (0, 1, 1), (1, 1, 0)),
        ((0, 0, 1), (1, 0, 0), (1, 1, 0)),
        ((0, 1, 0), (0, 1, 1), (1, 1, 0)),
    ]


def test_stellar_existing_ray_unchanged():
    f = iterated_stellar(orthant_fan(3), [(1, 1, 0), (0, 1, 1)])
    assert stellar_subdivide(f, (1, 1, 0)) == f
    assert stellar_subdivide(f, (1, 0, 0)) == f


def test_stellar_interior_count():
    # interior ray of a simplicial d-cone: d maximal cones replace one
    for d in (2, 3, 4):
        f = stellar_subdivide(orthant_fan(d), tuple([1] * d))
        assert len(f.maximal) == d


def refinement_preserves_support(original, refined):
    """Support equality for a refinement, by exact containment one way and
    relint representatives of all refined pieces the other way."""
    for c in refined.maximal:
        if not any(d.contains_cone(c) for d in original.maximal):
            return False
    for c in original.maximal:
        for f in c.faces():
            if not f.is_zero() and not refined.contains_point(f.relint_point()):
                return False
    return True


def test_stellar_preserves_support():
    f0 = orthant_fan(3)
    f1 = iterated_stellar(f0, [(1, 1, 0), (0, 1, 1), (1, 2, 1)])
    assert refinement_preserves_support(f0, f1)


def test_stellar_sweep_keeps_simplicial_support():
    from gitfankit.semilattice import random_interior_ray, random_simplicial_fan

    rng = random.Random(17)
    for _ in range(30):
        fan = random_simplicial_fan(rng, rng.randint(2, 4), 7)
        sub = stellar_subdivide(fan, random_interior_ray(rng, fan))
        assert sub.is_simplicial
        assert refinement_preserves_support(fan, sub)


def test_stellar_outside_support():
    with pytest.raises(ValueError):
        stellar_subdivide(orthant_fan(2), (-1, 0))


def test_iterated_order_matters():
    f12 = iterated_stellar(orthant_fan(3), [(1, 1, 0), (0, 1, 1)])
    f21 = iterated_stellar(orthant_fan(3), [(0, 1, 1), (1, 1, 0)])
    assert f12 != f21


def test_iterated_nu0_first_order_independent():
    a = iterated_stellar(orthant_fan(3), [(1, 1, 1), (1, 1, 0), (0, 1, 1)])
    b = iterated_stellar(orthant_fan(3), [(1, 1, 1), (0, 1, 1), (1, 1, 0)])
    assert a == b


def test_iterated_empty():
    f = orthant_fan(3)
    assert iterated_stellar(f, []) == f


# -- subfans ------------------------------------------------------------------


def test_pair_cache_evicts_oldest(monkeypatch):
    monkeypatch.setattr(polyhedral, "_PAIR_CACHE", {})
    monkeypatch.setattr(polyhedral, "_PAIR_CACHE_MAX", 3)
    rays = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1)]
    cones = [cone(a, b) for a, b in zip(rays, rays[1:])]
    keys = []
    for c1, c2 in zip(cones, cones[1:]):
        assert polyhedral._pair_has_common_face(c1, c2)
        keys.append(tuple(sorted((c1._key(), c2._key()))))
    assert list(polyhedral._PAIR_CACHE) == keys[-3:]
    assert len(fan_from_maximal(cones).maximal) == len(cones)
    assert len(polyhedral._PAIR_CACHE) == 3


def test_subfan_reflexive():
    f = iterated_stellar(orthant_fan(3), [(1, 1, 0)])
    assert is_subfan(f, f)


def test_subfan_single_cone():
    f1 = fan_from_maximal([cone((1, 0, 0), (0, 1, 0))])
    f2 = fan_from_maximal(
        [cone((1, 0, 0), (0, 1, 0)), cone((0, 1, 0), (0, 0, 1))]
    )
    assert is_subfan(f1, f2)
    assert not is_subfan(f2, f1)


def test_subfan_example_fans_incomparable():
    f12 = iterated_stellar(orthant_fan(3), [(1, 1, 0), (0, 1, 1)])
    f21 = iterated_stellar(orthant_fan(3), [(0, 1, 1), (1, 1, 0)])
    assert not is_subfan(f12, f21)
    assert not is_subfan(f21, f12)


def test_subfan_transitive_on_refinements():
    f0 = orthant_fan(3)
    f1 = stellar_subdivide(f0, (1, 1, 1))
    f2 = stellar_subdivide(f1, (1, 1, 0))
    sub = fan_from_maximal([f2.maximal[0]])
    assert is_subfan(sub, f2)


# -- carriers and arrangement sweeps -----------------------------------------


def test_carrier():
    f = iterated_stellar(orthant_fan(3), [(1, 1, 0)])
    c = f.carrier((2, 2, 0))
    assert c.rays == ((1, 1, 0),)
    c = f.carrier((1, 2, 0))
    assert c.rays == ((0, 1, 0), (1, 1, 0))


def test_arrangement_regions_quadrants():
    eye = [(1, 0), (0, 1)]
    leaves = arrangement_leaves(2, [], [(1, -1)], base_eqs=[])
    assert len(leaves) == 2
    leaves = arrangement_leaves(2, eye, [(1, -1)])
    assert len(leaves) == 2


def test_arrangement_faces_count():
    # one line through the plane: 2 regions, the line itself realised as a face
    leaves = arrangement_leaves(2, [], [(1, -1)], with_boundaries=True)
    signs = sorted(l.signs for l in leaves)
    assert signs == [(-1,), (0,), (1,)]


def test_arrangement_faces_braid_count():
    # x=y, x=z, y=z in 3-space: 6 chambers, 6 walls, 1 common line; the
    # all-zero class is the line x=y=z and the mixed zero patterns are empty
    walls = [(1, -1, 0), (1, 0, -1), (0, 1, -1)]
    leaves = arrangement_leaves(3, [], walls, with_boundaries=True)
    by_zeros = {}
    for l in leaves:
        by_zeros.setdefault(l.signs.count(0), []).append(l.signs)
    assert len(by_zeros.get(0, [])) == 6
    assert len(by_zeros.get(1, [])) == 6
    assert by_zeros.get(2) is None  # two of the three coincidences force all
    assert by_zeros.get(3) == [(0, 0, 0)]
    full = [l for l in leaves if l.signs == (0, 0, 0)]
    assert full[0].lineality and not full[0].rays


def test_zero_cone_leaf_representative_is_ambient_zero():
    # a leaf's representative is the relative interior point of its cone
    leaves = arrangement_leaves(2, [], [(1, 0), (0, 1)], with_boundaries=True)
    zero = [l for l in leaves if l.signs == (0, 0)]
    assert len(zero) == 1 and not zero[0].rays and not zero[0].lineality
    assert Cone.from_generators(zero[0].rays, 2).relint_point() == (0, 0)
    assert all(len(Cone.from_generators(l.rays, 2).relint_point()) == 2 for l in leaves)


# -- faces from incidence against double-description references --------------


def reference_faces(c):
    """Faces by one double-description cut per facet, iterated."""
    found = {c._key(): c}
    frontier = [c]
    while frontier:
        nxt = []
        for f in frontier:
            for a in f.facets:
                g = Cone.from_inequalities(f.facets, f.span_eqs + (a,), ambient=f.ambient)
                if g._key() not in found:
                    found[g._key()] = g
                    nxt.append(g)
        frontier = nxt
    return sorted(found.values(), key=lambda c: (c.dim, c.rays, c.lineality))


def reference_carrier(fan, point):
    best = None
    for c in fan.maximal:
        if c.contains(point):
            tight = tuple(a for a in c.facets if sum(x * y for x, y in zip(a, point)) == 0)
            f = Cone.from_inequalities(c.facets, c.span_eqs + tight, ambient=c.ambient)
            if best is None or f.dim < best.dim:
                best = f
    return best


def test_faces_match_dd_reference():
    rng = random.Random(5)
    kinds = {"lineality": 0, "not simplicial": 0, "zero": 0, "lower-dimensional": 0}
    cases = [Cone.from_generators([], d) for d in (2, 3)]
    for _ in range(120):
        dim = rng.randint(2, 5)
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(1, 8))]
        if rng.random() < 0.3:
            gens.append(tuple(-x for x in gens[0]))
        if rng.random() < 0.3:
            # confine the cone to a hyperplane through the origin
            h = tuple(rng.randint(-2, 2) for _ in range(dim))
            gens = [tuple(h[j] * g[0] - h[0] * g[j] if j else 0 for j in range(dim)) for g in gens]
        cases.append(Cone.from_generators(gens, dim))
    for c in cases:
        kinds["lineality"] += bool(c.lineality)
        kinds["not simplicial"] += len(c.rays) > c.dim - len(c.lineality)
        kinds["zero"] += c.is_zero()
        kinds["lower-dimensional"] += c.dim < c.ambient
        assert c.faces() == reference_faces(c)
    assert min(kinds.values()) >= 2, kinds


def test_fan_cones_match_dd_reference():
    from gitfankit.gitfan import git_fan
    from gitfankit.semilattice import random_interior_ray, random_simplicial_fan

    rng = random.Random(29)
    fans = [random_simplicial_fan(rng, rng.randint(2, 4), 8) for _ in range(25)]
    fans.append(git_fan(4))
    # not simplicial: the cones over the faces of the cube, and two half-spaces
    corners = [(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)]
    fans.append(fan_from_maximal(
        cone(*(v for v in corners if v[i] == s)) for i in range(3) for s in (1, -1)
    ))
    fans.append(fan_from_maximal(
        Cone.from_inequalities([(s, 0, 0)], ambient=3) for s in (1, -1)
    ))
    assert len(fans[-2].maximal) == 6 and not fans[-2].is_simplicial
    assert fans[-1].maximal[0].lineality
    for fan in fans:
        expected = {f._key(): f for c in fan.maximal for f in reference_faces(c)}
        assert fan.cones() == expected
        for _ in range(5):
            point = random_interior_ray(rng, fan)
            assert fan.carrier(point) == reference_carrier(fan, point)


def assert_faces_match_generators(c):
    """Every face of c equals the cone built from its rays, field by field."""
    faces = c.faces()
    for f in faces:
        ref = Cone.from_generators(f.rays, c.ambient)
        for field in ("ambient", "rays", "lineality", "facets", "span_eqs"):
            assert getattr(f, field) == getattr(ref, field), (c, f, field)
    return faces


def test_simplicial_faces_match_from_generators():
    """Faces of pointed simplicial cones come from the dual basis; faces of
    other cones from the ridge normals.  Both give the canonical cone."""
    from gitfankit.semilattice import random_simplicial_fan

    rng = random.Random(41)
    fans = [gf.sigma_r(3), gf.sigma_r(4)]
    fans += [random_simplicial_fan(rng, rng.randint(2, 5), 9) for _ in range(20)]
    for fan in fans:
        assert fan.is_simplicial
        for c in fan.maximal:
            assert_faces_match_generators(c)
    # lower-dimensional simplicial cones, with span equations, down to the zero face
    for gens, ambient in (
        ([(1, 1, 0, 0), (0, 1, 1, 0)], 4),
        ([(1, 2, 3)], 3),
        ([(1, 0, 1, 2), (0, 2, -1, 1), (3, -1, 0, 1)], 4),
    ):
        c = Cone.from_generators(gens, ambient)
        assert c.is_simplicial and c.span_eqs
        faces = assert_faces_match_generators(c)
        assert faces[0].is_zero() and len(faces) == 2 ** len(gens)
    # not simplicial: the chambers of git_fan(5) take the general path
    chambers = [c for c in gf.git_fan(5).maximal if not c.is_simplicial]
    assert chambers
    for c in chambers:
        assert_faces_match_generators(c)


# -- arrangement sweep against the unpruned recursion ------------------------


def reference_leaves(ambient, base_ineqs, walls, base_eqs=(), with_boundaries=False):
    """Cut both strict sides (and the wall) on every branch, filter afterwards."""
    from gitfankit.exact_linalg import _bareiss_rank
    from gitfankit.polyhedral import _DDState

    def cone_dim(state):
        return len(state.lin) + _bareiss_rank(state.rays)

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    def not_flattened(state, wall, sign):
        if any(dot(wall, l) != 0 for l in state.lin):
            return True
        return any(sign * dot(wall, r) > 0 for r in state.rays)

    root = _DDState(ambient)
    for e in base_eqs:
        root.insert_equation(e)
    for a in base_ineqs:
        root.insert(a)
    target_dim = cone_dim(root)
    leaves = []

    def recurse(state, depth, signs):
        if depth == len(walls):
            if not with_boundaries or all(
                s == 0 or not_flattened(state, walls[j], s) for j, s in enumerate(signs)
            ):
                leaves.append((signs, tuple(state.rays), tuple(state.lin)))
            return
        w = walls[depth]
        for sign in (1, -1):
            child = state.copy()
            child.insert(tuple(sign * x for x in w))
            if (
                not_flattened(child, w, sign)
                if with_boundaries
                else cone_dim(child) == target_dim
            ):
                recurse(child, depth + 1, signs + (sign,))
        if with_boundaries:
            child = state.copy()
            child.insert_equation(w)
            recurse(child, depth + 1, signs + (0,))

    recurse(root, 0, ())
    return leaves


@pytest.mark.parametrize("with_boundaries", [False, True])
def test_arrangement_leaves_match_unpruned_reference(with_boundaries):
    rng = random.Random(41 + with_boundaries)
    seen = {"base_ineqs": 0, "base_eqs": 0, "wall vanishing on base": 0, "none": 0}
    for _ in range(70):
        dim = rng.randint(2, 4)

        def vec():
            return tuple(rng.randint(-2, 2) for _ in range(dim))

        ineqs = [vec() for _ in range(rng.choice([0, 0, 1, 2, 3]))]
        eqs = [vec() for _ in range(rng.choice([0, 0, 0, 1]))]
        walls = [vec() for _ in range(rng.randint(1, 4 if with_boundaries else 5))]
        if eqs and rng.random() < 0.5:
            walls.insert(rng.randrange(len(walls) + 1), tuple(2 * x for x in eqs[0]))
        if ineqs and rng.random() < 0.3:
            walls.insert(rng.randrange(len(walls) + 1), ineqs[0])
        seen["base_ineqs"] += bool(ineqs)
        seen["base_eqs"] += bool(eqs)
        seen["none"] += not ineqs and not eqs
        seen["wall vanishing on base"] += any(any(e) and w == tuple(2 * x for x in e) for e in eqs for w in walls)
        got = arrangement_leaves(dim, ineqs, walls, base_eqs=eqs, with_boundaries=with_boundaries)
        assert [(l.signs, l.rays, l.lineality) for l in got] == reference_leaves(
            dim, ineqs, walls, eqs, with_boundaries
        )
    assert min(seen.values()) >= 3, seen


# -- stellar subdivision as star surgery ---------------------------------------


def reference_stellar(fan, nu):
    """Stellar subdivision by double description and pairwise validation,
    with the carrier read from ``Fan.carrier``."""
    from gitfankit.exact_linalg import primitive_vector

    nu = primitive_vector(nu)
    tau = set(fan.carrier(nu).rays)
    new = []
    for c in fan.maximal:
        if tau <= set(c.rays):
            new += [Cone.from_generators([r for r in c.rays if r != t] + [nu], fan.ambient)
                    for t in sorted(tau)]
        else:
            new.append(c)
    return fan_from_maximal(new)


def keep_random_faces(rng, fan):
    """A non-pure fan: some maximal cones replaced by a random proper face."""
    kept = []
    for c in fan.maximal:
        if len(c.rays) > 1 and rng.random() < 0.5:
            c = Cone.from_generators(rng.sample(c.rays, rng.randint(1, len(c.rays) - 1)), fan.ambient)
        kept.append(c)
    return fan_from_maximal(kept)


def test_stellar_matches_pairwise_reference():
    from collections import Counter

    from gitfankit.semilattice import random_interior_ray, random_simplicial_fan

    rng = random.Random(47)
    carrier_dims = Counter()
    nonpure = 0
    for trial in range(36):
        fan = random_simplicial_fan(rng, rng.randint(2, 4), 7)
        if trial % 2:
            fan = keep_random_faces(rng, fan)
        for _ in range(3):
            nonpure += len({c.dim for c in fan.maximal}) > 1
            nu = random_interior_ray(rng, fan)
            carrier_dims[fan.carrier(nu).dim] += 1
            sub = stellar_subdivide(fan, nu)
            assert sub.maximal == fan_from_maximal(list(sub.maximal)).maximal
            assert sub.maximal == reference_stellar(fan, nu).maximal
            fan = sub
    assert set(carrier_dims) == {1, 2, 3, 4}, carrier_dims
    assert carrier_dims[1] >= 5 and nonpure >= 20, (carrier_dims, nonpure)


def test_sigma_r_steps_match_pairwise_reference():
    from gitfankit import gitfan as gf

    for n in (3, 4, 5):
        fan = gf.sigma_fan_cached(n, 1)
        for tb in gf.nu_order(n):
            fan = stellar_subdivide(fan, gf.nu_ray(tb))
            if n < 5:
                # the pairwise check takes seconds at n = 5
                assert fan_from_maximal(list(fan.maximal)).maximal == fan.maximal
            for c in fan.maximal:
                # pieces carry facets derived from the star cone's: each field
                # must equal the double-description canonical form
                assert c == Cone.from_generators(c.rays, fan.ambient)
        assert fan == gf.sigma_r(n)


def test_stellar_rejects_holders_outside_the_star():
    # not a fan: the second cone holds (1, 1) without having the carrier's rays
    bad = Fan(2, (cone((0, 1), (1, 0)), cone((1, 0), (1, 2))))
    with pytest.raises(FanAxiomViolation, match="star"):
        stellar_subdivide(bad, (1, 1))


def test_stellar_rejects_star_facets_off_the_dual_basis():
    # the facet (0, 1, 1) misses two rays of the orthant, so no facet is
    # opposite (0, 1, 0) alone
    bad = Cone(3, ((0, 0, 1), (0, 1, 0), (1, 0, 0)), (), ((0, 0, 1), (0, 1, 1), (1, 0, 0)), ())
    with pytest.raises(FanAxiomViolation, match="dual basis"):
        stellar_subdivide(Fan(3, (bad,)), (1, 1, 1))


def test_stellar_rejects_star_facet_signs_off_the_carrier():
    # the span equation of the ray cone misses its ray, so the carrier of
    # (1, 1) reads as {(1, 0)}; the quadrant's facets are positive at (1, 1)
    # on both of its rays
    ray = Cone(2, ((1, 0),), (), ((1, 0),), ((1, -1),))
    quadrant = cone((1, 0), (0, 1))
    with pytest.raises(FanAxiomViolation, match="disagree with its carrier"):
        stellar_subdivide(Fan(2, (ray, quadrant)), (1, 1))
