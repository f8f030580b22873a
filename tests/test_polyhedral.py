"""Cones, fans, stellar subdivision, arrangement sweeps."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from gitfankit import gitfan as gf
from gitfankit import polyhedral
from gitfankit.exact_linalg import primitive_vector
from gitfankit.polyhedral import (
    Cone,
    Fan,
    FanAxiomViolation,
    arrangement_leaves,
    fan_from_maximal,
    is_subfan,
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


def test_from_generators_scales_rational_entries():
    # (1/2, 1) and (0.5, 1) are the ray (1, 2), not (0, 1)
    assert Cone.from_generators([(Fraction(1, 2), 1)], 2).rays == ((1, 2),)
    assert Cone.from_generators([(0.5, 1)], 2).rays == ((1, 2),)


def test_from_inequalities_scales_rational_entries():
    # (1/2, -1) is the normal (1, -2), not (0, -1)
    assert Cone.from_inequalities([(Fraction(1, 2), -1)], ambient=2).facets == ((1, -2),)
    assert Cone.from_inequalities([], [(Fraction(1, 3), 1)], ambient=2).span_eqs == ((1, 3),)


@pytest.mark.parametrize("row", [(1, 0, 5), (1,)])
def test_from_inequalities_rejects_an_inequality_of_wrong_length(row):
    # a row is never truncated or padded to the ambient dimension: (1, 0, 5)
    # and (1,) are not the half-plane x0 >= 0
    with pytest.raises(ValueError, match="inequality has wrong dimension"):
        Cone.from_inequalities([row], ambient=2)


@pytest.mark.parametrize("row", [(1, 0, 5), (1,)])
def test_from_inequalities_rejects_an_equation_of_wrong_length(row):
    with pytest.raises(ValueError, match="equation has wrong dimension"):
        Cone.from_inequalities([(0, 1)], [row], ambient=2)


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
    # the polar of the cone the facets and +/- span equations generate
    neg_eqs = [tuple(-x for x in e) for e in c.span_eqs]
    assert swapped(Cone.from_generators(c.facets + c.span_eqs + tuple(neg_eqs), d)) == c
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
        assert_fields_equal(c, reference_from_generators(gens, dim))
        eqs = gens[:1] if rng.random() < 0.3 else []
        assert_fields_equal(
            Cone.from_inequalities(gens[1:], eqs, ambient=dim),
            reference_from_inequalities(gens[1:], eqs, dim),
        )


# -- one conversion per cone, against the two- and three-conversion
# constructors it replaced, kept here as references --------------------------


def swapped(c):
    """The polar's fields: rays and facets trade places, and so do the
    lineality and the span equations."""
    return Cone(c.ambient, c.facets, c.span_eqs, c.rays, c.lineality)


def reference_dd(dim, ineqs, eqs=()):
    st = polyhedral._DDState(dim)
    for e in eqs:
        st.insert_equation(e)
    for a in ineqs:
        st.insert(a)
    return st.lin, st.rays


def reference_from_generators(generators, ambient):
    """Facets by a DD of the dual cone, then rays by a second DD of the facets."""
    gens = sorted({primitive_vector(g) for g in generators if any(g)})
    if not gens:
        eye = tuple(tuple(int(i == j) for j in range(ambient)) for i in range(ambient))
        return Cone(ambient, (), (), (), eye)
    lin_d, rays_d = reference_dd(ambient, gens)
    span_eqs = polyhedral._canonical_subspace_basis(lin_d)
    facets = polyhedral._canonical_rays(rays_d, span_eqs)
    lin_p, rays_p = reference_dd(ambient, facets, span_eqs)
    lineality = polyhedral._canonical_subspace_basis(lin_p)
    rays = polyhedral._canonical_rays(rays_p, lineality)
    return Cone(ambient, rays, lineality, facets, span_eqs)


def reference_from_inequalities(ineqs, eqs, ambient):
    """Rays by a DD of the rows, then the round trip through the generators."""
    ineqs = sorted({primitive_vector(a) for a in ineqs if any(a)})
    eqs = sorted({primitive_vector(e) for e in eqs if any(e)})
    lin_p, rays_p = reference_dd(ambient, ineqs, eqs)
    lineality = polyhedral._canonical_subspace_basis(lin_p)
    rays = polyhedral._canonical_rays(rays_p, lineality)
    gens = list(rays) + list(lineality) + [tuple(-x for x in l) for l in lineality]
    return reference_from_generators(gens, ambient)


def assert_fields_equal(c, ref):
    for field in Cone._fields:
        assert getattr(c, field) == getattr(ref, field), (field, c, ref)


def rows_of(drawn, scales):
    """Integer rows with optional -g partners, each also given as a rational
    multiple of itself when its scale is above 1."""
    rows = []
    for (g, with_negative), k in zip(drawn, scales):
        rows.append(tuple(Fraction(x, k) for x in g) if k > 1 else tuple(g))
        if with_negative:
            rows.append(tuple(-x for x in g))
    return rows


constructor_cases = generator_sets.flatmap(
    lambda case: st.tuples(
        st.just(case),
        st.lists(st.integers(1, 3), min_size=len(case[1]), max_size=len(case[1])),
        st.lists(
            st.lists(st.integers(-2, 2), min_size=case[0], max_size=case[0]), max_size=2
        ),
        st.booleans(),
    )
)


@settings(max_examples=200, deadline=None)
@given(constructor_cases)
def test_constructors_match_the_reference(case):
    (d, drawn), scales, eqs, redundant = case
    rows = rows_of(drawn, scales)
    if redundant:
        # a duplicate, a positive multiple and a sum of two rows
        first, last = rows[0], rows[-1]
        rows += [first, tuple(2 * x for x in first), tuple(x + y for x, y in zip(first, last))]
    assert_fields_equal(Cone.from_generators(rows, d), reference_from_generators(rows, d))
    assert_fields_equal(
        Cone.from_inequalities(rows, eqs, ambient=d), reference_from_inequalities(rows, eqs, d)
    )


def constructor_edge_cases():
    """(kind, cone, reference cone) for the cases a random draw rarely hits."""
    eye = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    minus_eye = [tuple(-x for x in e) for e in eye]
    redundant = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
    plane = [(1, 1, 0, 0), (0, 1, 1, 0), (1, 2, 1, 0), (-1, 0, 1, 0)]
    cases = [
        ("zero cone", ([], 3), None),
        ("zero cone", None, ([], eye, 3)),
        ("zero cone", None, (eye + minus_eye, [], 3)),
        ("whole space", (eye + minus_eye, 3), None),
        ("whole space", None, ([], [], 3)),
        ("full-dimensional", (eye, 3), None),
        ("full-dimensional", None, (eye, [], 3)),
        ("redundant rows", (redundant, 3), None),
        ("redundant rows", None, ([(1, 0), (0, 1), (1, 1), (2, 2), (1, 0)], [], 2)),
        ("lower-dimensional", (plane, 4), None),
        (
            "lower-dimensional",
            None,
            ([(1, 0, 0, 0), (0, 1, 0, 0)], [(1, 1, 1, 1), (0, 0, 1, -1)], 4),
        ),
        ("lineality", ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (1, 1, 1)], 3), None),
        ("lineality", None, ([(0, 0, 1)], [], 3)),
        ("rational", ([(Fraction(1, 2), 1, 0), (0, Fraction(2, 3), 1)], 3), None),
        ("rational", None, ([(Fraction(1, 2), -1, 0)], [(0, 0, Fraction(1, 3))], 3)),
    ]
    for kind, gens_case, ineqs_case in cases:
        if gens_case:
            yield kind, Cone.from_generators(*gens_case), reference_from_generators(*gens_case)
        else:
            ineqs, eqs, ambient = ineqs_case
            yield (
                kind,
                Cone.from_inequalities(ineqs, eqs, ambient=ambient),
                reference_from_inequalities(ineqs, eqs, ambient),
            )


def test_constructors_match_the_reference_on_edge_cases():
    kinds = Counter()
    for kind, c, ref in constructor_edge_cases():
        assert_fields_equal(c, ref)
        kinds[kind] += 1
        if kind == "zero cone":
            assert c.is_zero() and c.dim == 0
        if kind == "whole space":
            assert not c.facets and not c.span_eqs and len(c.lineality) == c.ambient
        if kind == "lineality":
            assert c.lineality
        if kind == "lower-dimensional":
            assert c.span_eqs
    assert min(kinds.values()) >= 2, kinds


def counted_dd(monkeypatch):
    """A list that grows by one entry per ``_dd`` run."""
    runs = []
    dd = polyhedral._dd

    def counted(*args):
        runs.append(args)
        return dd(*args)

    monkeypatch.setattr(polyhedral, "_dd", counted)
    return runs


def cache_misses():
    return sum(
        fn.cache_info().misses
        for fn in (polyhedral._cone_from_gens, polyhedral._cone_from_ineqs)
    )


def test_each_cache_miss_runs_one_conversion(monkeypatch):
    import gitfankit

    gitfankit.clear_caches()
    runs = counted_dd(monkeypatch)
    rng = random.Random(17)
    builds = 0
    for _ in range(60):
        dim = rng.randint(2, 5)
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(0, 6))]
        for build in (
            lambda: Cone.from_generators(gens, dim),
            lambda: Cone.from_inequalities(gens, gens[:1], ambient=dim),
            lambda: Cone.from_generators(gens, dim),
        ):
            before, misses = len(runs), cache_misses()
            build()
            builds += 1
            # a hit runs no conversion, a miss runs exactly one
            assert len(runs) - before == cache_misses() - misses <= 1
    assert len(runs) == cache_misses() < builds


def test_dropping_maximality_from_the_incidence_rule_breaks_the_constructors(monkeypatch):
    import gitfankit

    gens = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
    ineqs = [(1, 0), (0, 1), (1, 1)]
    ref_g, ref_i = reference_from_generators(gens, 3), reference_from_inequalities(ineqs, [], 2)

    def every_zero_set(vectors, zeros, full):
        first = {}
        for v, z in zip(vectors, zeros):
            if z != full:
                first.setdefault(z, v)
        return list(first.values())

    gitfankit.clear_caches()
    assert Cone.from_generators(gens, 3) == ref_g
    assert Cone.from_inequalities(ineqs, ambient=2) == ref_i
    gitfankit.clear_caches()
    monkeypatch.setattr(polyhedral, "_maximal_zero_sets", every_zero_set)
    try:
        # (1, 1, 0) becomes a ray, and the redundant row x + y >= 0 a facet
        assert Cone.from_generators(gens, 3).rays != ref_g.rays
        assert Cone.from_inequalities(ineqs, ambient=2).facets != ref_i.facets
    finally:
        # the cached cones were built by the broken rule
        gitfankit.clear_caches()


@pytest.mark.parametrize(
    "argv, runs",
    [
        (["verify", "all", "-n", "4", "--seed", "2024", "--jobs", "1"], 36),
        (["fan", "sigmar", "-n", "4"], 12),
        (["poset", "gitfan", "-n", "5"], 82),
    ],
    ids=["verify-all-4", "fan-sigmar-4", "poset-gitfan-5"],
)
def test_conversion_budget(argv, runs, monkeypatch, tmp_path, capsys):
    # one conversion per cone built; the two- and three-conversion
    # constructors ran 343, 31 and 164 here
    import gitfankit
    from gitfankit.cli import main

    gitfankit.clear_caches()
    counted = counted_dd(monkeypatch)
    assert main(argv + ["-o", str(tmp_path / "payload.json")]) == 0
    capsys.readouterr()
    assert len(counted) == cache_misses() == runs


# -- membership ---------------------------------------------------------------


def test_contains_modes():
    c = cone((1, 0), (0, 1))
    assert c.contains((1, 1), "relative_interior")
    assert not c.contains((1, 0), "relative_interior")
    assert c.contains((1, 0))


def test_contains_relint_full_orthant():
    c = cone((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert c.contains((1, 2, 3), "relative_interior")


@pytest.mark.parametrize("point", [(0, 0, 1), (1, 1, 0)])
def test_contains_rejects_an_unknown_mode(point):
    """An unknown mode raises whether or not the point lies in the span:
    (0, 0, 1) fails the span equation of cone(e1, e2), (1, 1, 0) meets it."""
    with pytest.raises(ValueError, match="unknown mode 'interior'"):
        cone((1, 0, 0), (0, 1, 0)).contains(point, "interior")


@pytest.mark.parametrize("perm", [(0, 0, 1), (1, 0)])
def test_permuted_rejects_a_non_permutation(perm):
    """A repeated index would drop the span equation and a short tuple would
    shorten the rays; both raise instead."""
    with pytest.raises(ValueError, match="is not a permutation of range"):
        cone((1, 0, 0), (0, 1, 0)).permuted(perm)


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


def test_fan_reads_each_cone_dimension_once(monkeypatch):
    # the containment scan reads dimensions from a list, not per pair
    cones = [cone(a, b) for a, b in [((1, 0), (1, 1)), ((1, 1), (0, 1)), ((0, 1), (-1, 0))]]
    cones.append(cone((1, 0)))
    reads = Counter()
    real = Cone.dim

    def counted(self):
        reads[self._key()] += 1
        return real.fget(self)

    monkeypatch.setattr(Cone, "dim", property(counted))
    assert len(fan_from_maximal(cones).maximal) == 3
    assert set(reads.values()) == {1}


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
    # the side table settles every pair of chambers
    assert fan_from_maximal(fan.maximal) == fan
    assert polyhedral._PAIR_CACHE == {}
    pairs = list(itertools.combinations(fan.maximal, 2))
    assert all(polyhedral._pair_has_common_face(c1, c2) for c1, c2 in pairs)
    assert len(pairs) == len(polyhedral._PAIR_CACHE) == 66


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


def reference_fan_from_maximal(cones):
    """The assembler without the side table: every containment by
    ``contains_cone`` and every pair of kept cones by the DD pair check."""
    cone_list = list(cones)
    if not cone_list:
        raise ValueError("empty cone collection")
    ambient = cone_list[0].ambient
    if any(c.ambient != ambient for c in cone_list):
        raise ValueError("mixed ambient dimensions")
    uniq = {}
    for c in cone_list:
        uniq.setdefault(c._key(), c)
    cone_list = list(uniq.values())
    keep = []
    for c in cone_list:
        redundant = False
        for d in cone_list:
            if d is c or d.dim < c.dim or not d.contains_cone(c):
                continue
            if not c.is_face_of(d):
                raise FanAxiomViolation(
                    "cone contained in another without being a face", offending=(c, d)
                )
            redundant = True
        if not redundant:
            keep.append(c)
    for i, c1 in enumerate(keep):
        for c2 in keep[i + 1 :]:
            if not polyhedral._pair_has_common_face(c1, c2):
                raise FanAxiomViolation(
                    "pairwise intersection is not a common face", offending=(c1, c2)
                )
    return Fan(ambient, tuple(sorted(keep, key=polyhedral._fan_order)))


def assembler_inputs(build, *args):
    """The cone lists an uncached library builder hands to ``fan_from_maximal``."""
    seen = []

    def capture(cones):
        seen.append(list(cones))
        return fan_from_maximal(seen[-1])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf, "fan_from_maximal", capture)
        build.__wrapped__(*args)
    return seen


def side_table_inputs():
    """Named cone lists: GIT fan regions, Delta(4)'s profile cones and all
    its faces, the sigma ambient fans, random simplicial fans (maximal cones, all faces,
    and two fans overlaid), and collections that are not fans."""
    from gitfankit.semilattice import random_simplicial_fan

    cases = []
    for n in (3, 4, 5):
        for star in (False, True):
            cases.append((f"regions-{n}-{star}", list(gf._wall_regions(n, star))))
        for key in (0, 1):
            cases += [(f"sigma-{n}-{key}", c) for c in assembler_inputs(gf.sigma_fan_cached, n, key)]
    (profiles,) = assembler_inputs(gf._delta_reduction_data, 4)
    assert len(profiles) == 17
    cases.append(("delta-4-profiles", profiles))
    cases.append(("delta-4-faces", list(gf.delta_reduction(4).cones().values())))
    for seed in range(6):
        rng = random.Random(seed)
        ambient = 2 + seed % 3
        f1 = random_simplicial_fan(rng, ambient, 7)
        f2 = random_simplicial_fan(rng, ambient, 7)
        cases += [
            (f"random-{seed}-maximal", list(f1.maximal)),
            (f"random-{seed}-faces", list(f1.cones().values())),
            (f"random-{seed}-overlay", list(f1.maximal) + list(f2.maximal)),
        ]
    chambers = list(gf.git_fan(4).maximal)
    c = chambers[0]
    d = next(d for d in chambers[1:] if len(set(c.rays) & set(d.rays)) == 3)
    shared = set(c.rays) & set(d.rays)
    apex = next(r for r in d.rays if r not in shared)
    x = tuple(3 * sum(v) + a for v, a in zip(zip(*shared), apex))
    grown = Cone.from_generators(c.rays + (x,), 4)
    # a 2-cone from the interior of c across its facet into the interior of d
    crossing = Cone.from_generators([c.relint_point(), d.relint_point()], 4)
    outer, inner = cone((1, 0), (0, 1)), cone((1, 0), (1, 1))
    cases += [
        ("grown-chamber", [grown] + chambers[1:]),
        ("crossing-2-cone", chambers + [crossing]),
        ("nested-equal-dim", [outer, inner]),
        ("nested-equal-dim-reversed", [inner, outer]),
        ("crossing-facet", [outer, cone((1, 1), (-1, 1))]),
    ]
    return cases


def assemble(assembler, cones):
    try:
        return assembler(cones)
    except FanAxiomViolation as err:
        return (str(err), err.offending)


def test_side_table_assembler_matches_all_pairs_reference(monkeypatch):
    outcomes = Counter()
    for name, cones in side_table_inputs():
        monkeypatch.setattr(polyhedral, "_PAIR_CACHE", {})
        got = assemble(fan_from_maximal, cones)
        expected = assemble(reference_fan_from_maximal, cones)
        assert got == expected, name
        if isinstance(got, Fan):
            assert got.maximal == expected.maximal, name
        outcomes["fan" if isinstance(got, Fan) else got[0]] += 1
    assert outcomes["pairwise intersection is not a common face"] >= 4, outcomes
    assert outcomes["cone contained in another without being a face"] >= 2, outcomes
    assert outcomes["fan"] >= 25, outcomes


def test_side_table_containment_matches_contains_cone():
    checked = 0
    for name, cones in side_table_inputs():
        above, below, need_above, need_below = polyhedral._side_table(cones)
        for (i, c), (j, d) in itertools.product(enumerate(cones), repeat=2):
            holds = not (need_above[j] & ~above[i] or need_below[j] & ~below[i])
            assert holds == d.contains_cone(c), (name, i, j)
            checked += holds
    assert checked >= 1000


@pytest.mark.parametrize("star", [False, True])
def test_region_fans_need_no_pair_check(monkeypatch, star):
    monkeypatch.setattr(polyhedral, "_PAIR_CACHE", {})
    fan = gf._region_fan.__wrapped__(5, star)
    assert len(fan.maximal) == (76 if star else 81)
    assert polyhedral._PAIR_CACHE == {}


# -- stellar subdivision ------------------------------------------------------


def test_stellar_first_ray():
    f = stellar_subdivide(orthant_fan(3), (1, 1, 0))
    got = sorted(c.rays for c in f.maximal)
    assert got == [
        ((0, 0, 1), (0, 1, 0), (1, 1, 0)),
        ((0, 0, 1), (1, 0, 0), (1, 1, 0)),
    ]


def test_stellar_scales_a_rational_ray():
    # the ray is scaled to (1, 2, 0), not truncated to (0, 1, 0)
    f = stellar_subdivide(orthant_fan(3), (Fraction(1, 2), 1, 0))
    assert f == stellar_subdivide(orthant_fan(3), (1, 2, 0))
    assert (1, 2, 0) in f.rays


def test_stellar_second_ray():
    f = reduce(stellar_subdivide, [(1, 1, 0), (0, 1, 1)], orthant_fan(3))
    got = sorted(c.rays for c in f.maximal)
    assert got == [
        ((0, 0, 1), (0, 1, 1), (1, 1, 0)),
        ((0, 0, 1), (1, 0, 0), (1, 1, 0)),
        ((0, 1, 0), (0, 1, 1), (1, 1, 0)),
    ]


def test_stellar_existing_ray_unchanged():
    f = reduce(stellar_subdivide, [(1, 1, 0), (0, 1, 1)], orthant_fan(3))
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
    f1 = reduce(stellar_subdivide, [(1, 1, 0), (0, 1, 1), (1, 2, 1)], f0)
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
    f12 = reduce(stellar_subdivide, [(1, 1, 0), (0, 1, 1)], orthant_fan(3))
    f21 = reduce(stellar_subdivide, [(0, 1, 1), (1, 1, 0)], orthant_fan(3))
    assert f12 != f21


def test_iterated_nu0_first_order_independent():
    a = reduce(stellar_subdivide, [(1, 1, 1), (1, 1, 0), (0, 1, 1)], orthant_fan(3))
    b = reduce(stellar_subdivide, [(1, 1, 1), (0, 1, 1), (1, 1, 0)], orthant_fan(3))
    assert a == b


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
    f = stellar_subdivide(orthant_fan(3), (1, 1, 0))
    assert is_subfan(f, f)


def test_subfan_single_cone():
    f1 = fan_from_maximal([cone((1, 0, 0), (0, 1, 0))])
    f2 = fan_from_maximal(
        [cone((1, 0, 0), (0, 1, 0)), cone((0, 1, 0), (0, 0, 1))]
    )
    assert is_subfan(f1, f2)
    assert not is_subfan(f2, f1)


def test_subfan_example_fans_incomparable():
    f12 = reduce(stellar_subdivide, [(1, 1, 0), (0, 1, 1)], orthant_fan(3))
    f21 = reduce(stellar_subdivide, [(0, 1, 1), (1, 1, 0)], orthant_fan(3))
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
    f = stellar_subdivide(orthant_fan(3), (1, 1, 0))
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


def cell_leaves(ambient, base_ineqs, walls, base_eqs=()):
    """Every realised cell of a wall arrangement inside a base cone, signs in
    {+1,0,-1}, in lexicographic sign order with + < - < 0: the full-
    dimensional regions of ``arrangement_leaves`` and all their faces, where
    realised means the closed class is not stuck inside a wall carrying a
    strict sign.  A strict side the wall never reaches is skipped; a strict
    cut keeps the span, so earlier strict signs are re-checked only after a
    zero cut that lowers the dimension."""
    from gitfankit.polyhedral import ArrangementLeaf, _DDState, _neg, _sides

    root = _DDState(ambient)
    for e in base_eqs:
        root.insert_equation(e)
    for a in base_ineqs:
        root.insert(a)
    leaves = []

    def recurse(state, depth, signs):
        if depth == len(walls):
            leaves.append(ArrangementLeaf(signs, tuple(state.rays), tuple(state.lin)))
            return
        w = walls[depth]
        pos, neg = _sides(state, w)
        for sign, reached in ((1, pos), (-1, neg)):
            if reached:
                child = state.copy()
                child.insert(w if sign > 0 else _neg(w))
                recurse(child, depth + 1, signs + (sign,))
        child = state.copy()
        child.insert_equation(w)
        if (pos or neg) and any(
            s and not _sides(child, walls[j])[s < 0] for j, s in enumerate(signs)
        ):
            return
        recurse(child, depth + 1, signs + (0,))

    recurse(root, 0, ())
    return leaves


def test_arrangement_faces_count():
    # one line through the plane: 2 regions, the line itself realised as a face
    leaves = cell_leaves(2, [], [(1, -1)])
    signs = sorted(l.signs for l in leaves)
    assert signs == [(-1,), (0,), (1,)]


def test_arrangement_faces_braid_count():
    # x=y, x=z, y=z in 3-space: 6 chambers, 6 walls, 1 common line; the
    # all-zero class is the line x=y=z and the mixed zero patterns are empty
    walls = [(1, -1, 0), (1, 0, -1), (0, 1, -1)]
    leaves = cell_leaves(3, [], walls)
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
    leaves = cell_leaves(2, [], [(1, 0), (0, 1)])
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
    from gitfankit.exact_linalg import rank
    from gitfankit.polyhedral import _DDState

    def cone_dim(state):
        return len(state.lin) + rank(state.rays)

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
    """The regions of ``arrangement_leaves`` and, with boundaries, the cells
    of the test-local ``cell_leaves`` against the unpruned recursion."""
    sweep = cell_leaves if with_boundaries else arrangement_leaves
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
        got = sweep(dim, ineqs, walls, base_eqs=eqs)
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


def test_fan_equals_only_fans_with_the_same_cones():
    a, b = cone((1, 0), (1, 1)), cone((1, 1), (0, 1))
    fan = Fan(2, (a, b))
    assert fan == Fan(2, (b, a)) and not fan != Fan(2, (b, a))
    assert hash(fan) == hash(Fan(2, (b, a)))
    assert fan != (2, (a, b)) and not fan == (2, (a, b))
    assert (2, (a, b)) != fan and not (2, (a, b)) == fan
    assert fan != Fan(2, (a,))
    assert repr(a) == (
        "Cone(ambient=2, rays=((1, 0), (1, 1)), lineality=(), "
        "facets=((0, 1), (1, -1)), span_eqs=())"
    )
    assert a._zero_masks is a._zero_masks


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


# the pyramid over a square: one cone on four rays, so not simplicial
SQUARE_PYRAMID = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Cone.from_generators([(1, 0), (0, 1, 0)], 2), "generator has wrong dimension"),
        (lambda: cone((1, 0), (0, 1)).contains((1, 1, 1)), "point has wrong dimension"),
        (lambda: cone((1, 0), (0, 1)).intersect(cone((1, 0, 0))), "ambient dimension mismatch"),
        (lambda: fan_from_maximal([]), "empty cone collection"),
        (lambda: fan_from_maximal([cone((1, 0)), cone((1, 0, 0))]), "mixed ambient dimensions"),
        (lambda: is_subfan(orthant_fan(2), orthant_fan(3)), "ambient dimension mismatch"),
        (
            lambda: stellar_subdivide(fan_from_maximal([cone(*SQUARE_PYRAMID)]), (0, 0, 1)),
            "stellar subdivision requires a simplicial fan",
        ),
        (lambda: stellar_subdivide(orthant_fan(2), (0, 0)), "zero ray"),
    ],
    ids=[
        "generator-length", "point-length", "intersect-ambients", "empty-fan",
        "mixed-fan", "subfan-ambients", "stellar-not-simplicial", "stellar-zero-ray",
    ],
)
def test_malformed_input_is_refused(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
