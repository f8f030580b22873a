"""GIT fans, ambient fans, nu rays, GKZ cones, Delta-reduction, centers."""

import functools
import itertools
import json
import random
from fractions import Fraction

import pytest

import gitfankit
import gitfankit.gitfan as gf
import gitfankit.grassmann as gr
import gitfankit.symmetry as sym
from gitfankit.exact_linalg import kernel_basis, primitive_vector, solve
from gitfankit.grassmann import TwoBlock
from gitfankit import polyhedral
from gitfankit.polyhedral import Cone, _dot, is_subfan
from test_polyhedral import cell_leaves


def test_omega_star_inside_omega():
    for n in (3, 4, 5, 6):
        assert gf.omega(n).contains_cone(gf.omega_star(n))


def test_omega_star_n3():
    assert gf.omega_star(3).rays == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert gf.omega_star(3).contains((1, 1, 1), "relative_interior")


def test_chamber_inner_triangle():
    assert gf.chamber((1, 1, 1), 3) == gf.omega_star(3)


def test_chamber_corner():
    assert gf.chamber((3, 1, 1), 3).rays == ((1, 0, 0), (1, 0, 1), (1, 1, 0))


def test_chamber_contains_its_weight():
    rng = random.Random(2)
    for _ in range(15):
        w = tuple(rng.randint(0, 6) for _ in range(4))
        assert gf.chamber(w, 4).contains(w)


def test_chamber_outside_support():
    with pytest.raises(ValueError):
        gf.chamber((-1, 0, 0), 3)


def test_chamber_cone_recomputed_from_defining_sets():
    """The chamber is the intersection of omega_J over every Y-set J whose
    cone holds w, each Y-set taken from the enumeration on its own."""
    for w in ((3, 1, 1), (1, 1, 1), (2, 2, 1), (5, 1, 1, 1), (1, 1, 1, 1), (4, 3, 2, 1)):
        n = len(w)
        wd = gr.weights(n)
        acc = gf.omega(n)
        for mask in gr.y_set_masks(n):
            c = Cone.from_generators([wd.w[p] for p in sorted(gr.mask_to_yset(mask, n))], n)
            if c.contains(w):
                acc = acc.intersect(c)
        assert acc == gf.chamber(w, n), w


@pytest.mark.parametrize("n,chambers", [(3, 4), (4, 12)])
def test_git_fan_counts(n, chambers):
    fan = gf.git_fan(n)
    assert len(fan.maximal) == chambers
    assert fan == gf.wall_fan(n)


def test_git_fan_n4_inside_star():
    fan = gf.git_fan(4)
    star = gf.omega_star(4)
    assert sum(1 for c in fan.maximal if star.contains_cone(c)) == 8


# each library entry point and the least n of its domain
LIBRARY_DOMAINS = {
    "wall_fan": (lambda n: gf.wall_fan(n), 2),
    "git_fan": (lambda n: gf.git_fan(n), 2),
    "git_fan_star": (lambda n: gf.git_fan_star(n), 3),
    "sigma_r": (lambda n: gf.sigma_r(n), 3),
    "delta_reduction": (lambda n: gf.delta_reduction(n), 3),
    "verify_walls": (lambda n: gf.verify_walls(n), 2),
    "verify_star_subfan": (lambda n: gf.verify_star_subfan(n), 3),
    "verify_nu_equality": (lambda n: gf.verify_nu_equality(n), 3),
    "verify_delta_subfan": (lambda n: gf.verify_delta_subfan(n), 3),
    "verify_ray_classification": (lambda n: gf.verify_ray_classification(n), 3),
    "y_set_masks": (lambda n: gr.y_set_masks(n), 2),
    "brute_force_supports": (lambda n: gr.brute_force_supports(n), 2),
    "trivalent_trees": (lambda n: gr.trivalent_trees(n), 2),
}


@pytest.mark.parametrize("name", LIBRARY_DOMAINS)
def test_library_rejects_n_below_domain_before_building(name, monkeypatch):
    call, lo = LIBRARY_DOMAINS[name]
    built = []

    def spy(mod, attr):
        fn = getattr(mod, attr)

        def wrapper(*args, **kwargs):
            built.append(attr)
            return fn(*args, **kwargs)

        monkeypatch.setattr(mod, attr, wrapper)

    for attr in ("_cone_from_gens", "_cone_from_ineqs", "arrangement_leaves"):
        spy(polyhedral, attr)
    for attr in ("fan_from_maximal", "_gkz_table", "_gkz_pool"):
        spy(gf, attr)
    spy(gr, "weights")
    with pytest.raises(ValueError):
        call(lo - 1)
    assert built == []


@pytest.mark.parametrize("n", [3, 4])
def test_star_subfan(n):
    assert is_subfan(gf.git_fan_star(n), gf.git_fan(n))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_chambers_outside_star_are_corner_cones(n):
    """The complement of the inner support is covered by exactly n corner
    chambers, one per index, spanned by the weights containing that index."""
    fan = gf.git_fan(n)
    star = gf.omega_star(n)
    outside = [c for c in fan.maximal if not star.contains_cone(c)]
    wd = gr.weights(n)
    corners = []
    for i in range(1, n + 1):
        gens = [wd.w[p] for p in gr.pairs(n)[0] if i in p]
        corners.append(Cone.from_generators(gens, n))
    assert sorted(c.rays for c in outside) == sorted(c.rays for c in corners)


def test_lambda_chambers_n3():
    l0, l1 = gf.lambda0(3), gf.lambda1(3)
    assert l1 == gf.omega_star(3)
    common = l0.intersect(l1)
    assert common.dim == 2
    f1 = (1, -1, -1)
    assert all(sum(a * b for a, b in zip(f1, r)) == 0 for r in common.rays)
    star = gf.omega_star(3)
    assert star.contains_cone(l1)
    assert not star.contains_cone(l0)


@pytest.mark.parametrize("n", [3, 4])
def test_lambda_chambers_in_git_fan(n):
    fan = gf.git_fan(n)
    assert fan.has_cone(gf.lambda0(n))
    assert fan.has_cone(gf.lambda1(n))


def envelope_sets(lam_key, n):
    """The enveloping sets of lambda0 (key 0) or lambda1 (key 1): the index
    sets holding one of the chamber's enveloping witnesses."""
    witnesses = gf._enveloping_witnesses(n, lam_key)
    return {
        gr.mask_to_yset(mask, n)
        for mask in range(1 << len(gr.pairs(n)[0]))
        if any(j & mask == j for j in witnesses)
    }


def pair_mask(members, n):
    """The mask of a set of pairs in canonical pair order."""
    return sum(1 << k for k, p in enumerate(gr.pairs(n)[0]) if p in members)


def test_envelope_sets_n3():
    lam0 = gf.lambda0(3)
    envs = envelope_sets(0, 3)
    all_pairs = frozenset(gr.pairs(3)[0])
    # the full index set always qualifies (complement gives the zero cone)
    assert all_pairs in envs
    # the complement of the A={2,3} carrier set qualifies
    carrier_pairs = frozenset({(0, 2), (0, 3), (2, 3)})
    assert frozenset(all_pairs - carrier_pairs) in envs
    # every enveloping set contains a Y-set witness covering the chamber
    wd = gr.weights(3)
    rep = lam0.relint_point()
    for i in envs:
        found = False
        for members in envs:
            if members <= i and gr.is_y_set(pair_mask(members, 3), 3):
                c = Cone.from_generators([wd.w[p] for p in members], 3)
                if c.contains(rep, "relative_interior") and all(
                    c.contains(g) for g in lam0.generators()
                ):
                    found = True
                    break
        assert found


def test_envelope_sets_match_literal_definition():
    """The witness-closure computation must agree with the definition taken
    literally: I qualifies iff some Y-set J inside it has relint(lam) inside
    relint(omega_J) inside relint(omega_I), each inclusion checked directly."""
    n = 3
    wd = gr.weights(n)
    all_pairs = gr.pairs(n)[0]

    def omega_cone(members):
        return Cone.from_generators([wd.w[p] for p in members], n)

    def relint_inside(inner: Cone, outer: Cone) -> bool:
        return all(outer.contains(g) for g in inner.generators()) and outer.contains(
            inner.relint_point(), "relative_interior"
        )

    ysets = [gr.mask_to_yset(mask, n) for mask in gr.y_set_masks(n)]
    for key, lam in enumerate((gf.lambda0(n), gf.lambda1(n))):
        computed = envelope_sets(key, n)
        literal = set()
        for mask in range(1 << len(all_pairs)):
            members = frozenset(p for k, p in enumerate(all_pairs) if mask >> k & 1)
            omega_i = omega_cone(members)
            for j in ysets:
                if j <= members and relint_inside(lam, omega_cone(j)):
                    if relint_inside(omega_cone(j), omega_i):
                        literal.add(members)
                        break
        assert computed == literal


@pytest.mark.parametrize("key", [2, -1])
def test_sigma_fan_rejects_bad_chamber_key(key, monkeypatch):
    built = []
    for attr in ("lambda0", "lambda1", "_y_pool", "fan_from_maximal"):
        fn = getattr(gf, attr)
        monkeypatch.setattr(gf, attr, lambda *a, fn=fn, attr=attr: built.append(attr) or fn(*a))
    with pytest.raises(ValueError, match="chamber key"):
        gf.sigma_fan_cached(4, key)
    assert built == []


def test_sigma0_contains_carrier():
    wd = gr.weights(3)
    s0 = gf.sigma_fan_cached(3, 0)
    carrier = Cone.from_generators(
        [wd.v[(0, 2)], wd.v[(0, 3)], wd.v[(2, 3)]], 3
    )
    assert s0.has_cone(carrier)
    assert primitive_vector(wd.v[(0, 1)]) not in set(s0.rays)


def test_sigma0_contains_all_block_carriers():
    for n in (3, 4):
        wd = gr.weights(n)
        s0 = gf.sigma_fan_cached(n, 0)
        all_pairs = gr.pairs(n)[0]
        for size in range(2, n):
            for a in itertools.combinations(range(2, n + 1), size):
                block = set(a) | {0}
                carrier = Cone.from_generators(
                    [wd.v[p] for p in all_pairs if set(p) <= block], len(wd.p)
                )
                assert s0.has_cone(carrier), a
                assert carrier.contains(gf.nu_vector(a, n), "relative_interior")


def test_sigma1_simplicial_with_column_rays():
    for n in (3, 4):
        wd = gr.weights(n)
        fan = gf.sigma_fan_cached(n, 1)
        assert fan.is_simplicial
        columns = {primitive_vector(wd.v[p]) for p in gr.pairs(n)[0]}
        assert set(fan.rays) <= columns


def test_nu_order_empty_n3():
    assert gf.nu_order(3) == []


def test_nu_rays_n4():
    order = gf.nu_order(4)
    assert [sorted(tb.block) for tb in order] == [[2, 3], [2, 4], [3, 4]]
    for a, b in itertools.combinations(order, 2):
        assert not (a.block <= b.block or b.block <= a.block)


def test_nu_vector_fixture_n3():
    wd = gr.weights(3)
    assert gf.nu_vector([2, 3], 3) == wd.v[(0, 1)]
    expanded = tuple(
        wd.v[(0, 2)][r] + wd.v[(0, 3)][r] + 2 * wd.v[(2, 3)][r] for r in range(3)
    )
    assert expanded == (-1, -1, 0)


@pytest.mark.parametrize("block", [[9], [], [1, 2, 3, 4], [0, 2], [2, 5]])
def test_nu_vector_rejects_a_block_outside_1_to_n(block):
    """An out-of-range index, the empty block and the whole of 1..4 give no
    subdivision ray."""
    with pytest.raises(ValueError, match="is not a proper nonempty part of 1..4"):
        gf.nu_vector(block, 4)


def test_nu_block_expressions_agree():
    for n in (4, 5):
        for tb in gr.true_two_blocks(n):
            assert gf.nu_vector(tb.block, n) == gf.nu_vector(tb.complement, n)
            gf.nu_ray(tb)


def test_nu_ray_rejects_thin_partition():
    with pytest.raises(ValueError):
        gf.nu_ray(TwoBlock(4, frozenset({2})))


def test_sigma_r_n3_equals_sigma1():
    assert gf.sigma_r(3) == gf.sigma_fan_cached(3, 1)


def test_sigma_r_n4_rays():
    s1 = gf.sigma_fan_cached(4, 1)
    sr = gf.sigma_r(4)
    assert len(sr.rays) == len(s1.rays) + 3
    for tb in gr.true_two_blocks(4):
        assert gf.nu_ray(tb) in set(sr.rays)


def test_sigma_r_carriers_interior():
    for n in (4, 5):
        s1 = gf.sigma_fan_cached(n, 1)
        for tb in gr.true_two_blocks(n):
            carrier = Cone.from_generators(gf.sigma_r_carrier(tb), len(gr.weights(n).p))
            assert carrier.contains(gf.nu_ray(tb), "relative_interior")
            assert s1.has_cone(carrier)


@pytest.mark.parametrize("n, blocks", [(3, 0), (4, 3), (5, 10), (6, 25)])
def test_sigma_r_carrier_is_the_simplicial_cone_on_its_rays(n, blocks):
    # the rays fix the carrier: they are the rays of the cone they generate,
    # and that cone is simplicial
    assert len(gr.true_two_blocks(n)) == blocks
    for tb in gr.true_two_blocks(n):
        rays = gf.sigma_r_carrier(tb)
        carrier = Cone.from_generators(rays, len(gr.weights(n).p))
        assert carrier.rays == rays
        assert carrier.is_simplicial


def test_sigma_r_n4_every_linear_extension_agrees():
    base = gf.sigma_fan_cached(4, 1)
    orders = list(itertools.permutations(gf.nu_order(4)))
    assert len(orders) == 6
    assert {gf._sigma_r_with_order(base, o) for o in orders} == {gf.sigma_r(4)}


def test_sigma_r_n5_disjoint_blocks_commute():
    order = gf.nu_order(5)
    pos = {tuple(sorted(tb.block)): i for i, tb in enumerate(order)}
    i, j = pos[(2, 5)], pos[(3, 4)]
    order[i], order[j] = order[j], order[i]
    assert gf._sigma_r_with_order(gf.sigma_fan_cached(5, 1), order) == gf.sigma_r(5)


def test_sigma_r_n5_pinned():
    from collections import Counter

    sr = gf.sigma_r(5)
    assert len(sr.rays) == 25 and len(sr.maximal) == 291
    assert Counter(c.dim for c in sr.maximal) == {6: 18, 7: 152, 8: 120, 10: 1}
    # a refinement: every cone lies in exactly one Sigma_1 cone of its dimension
    s1 = gf.sigma_fan_cached(5, 1)
    for c in sr.maximal:
        assert sum(d.dim == c.dim and d.contains_cone(c) for d in s1.maximal) == 1


def gkz_cone(pt, n):
    """The GKZ cone of a point of Delta: the intersection of the pool cones
    holding it in their relative interior."""
    return gf._profile_cone(gf._gkz_profile(pt, n), pt, n)


def test_gkz_cone_relint_and_region_stability():
    # two points of Delta in the relative interior of one GKZ cone give one cone
    wd = gr.weights(3)
    assert gr.delta_contains((-2, -2, 2), wd) and gr.delta_contains((-5, -5, 4), wd)
    c1 = gkz_cone((-2, -2, 2), 3)
    c2 = gkz_cone((-5, -5, 4), 3)
    assert c1.contains((-2, -2, 2), "relative_interior")
    assert c1 == c2
    # a point of Delta in another GKZ cone
    assert gr.delta_contains((6, 2, 2), wd)
    c3 = gkz_cone((6, 2, 2), 3)
    assert c3.contains((6, 2, 2), "relative_interior")
    assert c3 != c1


def test_gkz_cones_along_delta():
    """Column cones with Y-set complements meet Delta in their relative
    interior, and the GKZ cone of any point of Delta keeps that point, hence
    a piece of Delta, in its own relative interior."""
    wd = gr.weights(3)
    all_pairs = gr.pairs(3)[0]
    for mask in range(1 << 6):
        members = frozenset(p for k, p in enumerate(all_pairs) if mask >> k & 1)
        expected = gr.is_y_set(mask ^ ((1 << 6) - 1), 3)
        sigma_j = Cone.from_generators([wd.v[p] for p in members], 3)
        assert gr.delta_meets_relint(sigma_j, wd) == expected
        if not expected or not members:
            continue
        rep = tuple(sum(wd.v[p][r] for p in members) for r in range(3))
        if any(rep) and gr.delta_contains(rep, wd):
            sigma = gkz_cone(rep, 3)
            assert gr.delta_meets_relint(sigma, wd)


def test_delta_reduction_n3_is_sigma1():
    assert gf.delta_reduction(3) == gf.sigma_fan_cached(3, 1)


def test_verify_delta_subfan_n3():
    rep = gf.verify_delta_subfan(3)
    assert rep["result"]
    assert all(c["matched"] for c in rep["certificates"])


def sigma_r_without_a_delta_cone(n):
    """Sigma_r(n) less every maximal cone holding the rays of the first Delta
    cone, and that cone's rays."""
    rays = set(gf.delta_reduction(n).maximal[0].rays)
    sr = gf.sigma_r(n)
    kept = tuple(m for m in sr.maximal if not rays <= set(m.rays))
    assert 0 < len(kept) < len(sr.maximal)
    return polyhedral.Fan(sr.ambient, kept), rays


@pytest.mark.parametrize("n", [3, 4])
def test_delta_subfan_reports_an_unmatched_cone(n, monkeypatch, capsys):
    from gitfankit.cli import main

    crippled, rays = sigma_r_without_a_delta_cone(n)
    monkeypatch.setattr(gf, "sigma_r", lambda n: crippled)
    rep = gf.verify_delta_subfan(n)
    assert rep["result"] is False
    unmatched = [c for c in rep["certificates"] if not c["matched"]]
    assert [set(map(tuple, c["delta_cone_rays"])) for c in unmatched] == [rays]
    assert main(["verify", "delta-subfan", "-n", str(n)]) == 1
    capsys.readouterr()


def test_delta_subfan_requires_simplicial_sigma_r(monkeypatch):
    # the ray subset scan is exact only on a simplicial fan
    pyramid = Cone.from_generators([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 3)
    monkeypatch.setattr(gf, "sigma_r", lambda n: polyhedral.Fan(3, (pyramid,)))
    with pytest.raises(AssertionError, match="not simplicial"):
        gf.verify_delta_subfan(3)


@pytest.mark.parametrize("n", [3, 4])
def test_delta_subfan_scan_is_independent_of_is_face_of(n, monkeypatch, capsys):
    # a face test that accepts everything fools is_subfan but not the ray
    # subset scan, so the two paths disagree and the run is an internal
    # failure
    from gitfankit.cli import main

    crippled, _ = sigma_r_without_a_delta_cone(n)
    monkeypatch.setattr(gf, "sigma_r", lambda n: crippled)
    monkeypatch.setattr(Cone, "is_face_of", lambda self, other: True)
    with pytest.raises(AssertionError, match="disagrees with the certificate scan"):
        gf.verify_delta_subfan(n)
    assert main(["verify", "delta-subfan", "-n", str(n)]) == 3
    assert "disagrees with the certificate scan" in capsys.readouterr().err


def test_delta_witnesses_in_relint():
    data = gf._delta_reduction_data(3)
    wd = gr.weights(3)
    for c in data.fan.maximal:
        wit = data.witnesses[(c.facets, c.span_eqs)]
        assert c.contains(wit, "relative_interior")
        assert gr.delta_contains(wit, wd)


# (trees covered, regions swept, maximal cones) and the sorted witnesses:
# the images of the regions' ray sums that first reached each maximal
# cone's profile
DELTA_PINS = {
    3: ((3, 4, 5), [(-2, -4, -4), (-2, -2, 2), (-2, 2, -2), (2, -2, -2), (6, 2, 2)]),
    4: (
        (15, 31, 17),
        [
            (-6, -6, -2, -2, -6, -6), (-6, -2, -6, -6, -2, -6), (-4, -4, -2, 2, -4, -4),
            (-4, -4, 2, -2, -4, -4), (-4, -2, -4, -4, 2, -4), (-4, 2, -4, -4, -2, -4),
            (-2, -6, -6, -6, -6, -2), (-2, -4, -4, -4, -4, 2), (-2, -2, -2, 10, 2, 2),
            (-2, -2, 2, 2, -2, -2), (-2, 2, -2, -2, 2, -2), (-2, 10, 2, -2, -2, 2),
            (2, -4, -4, -4, -4, -2), (2, -2, -2, -2, -2, 2), (6, 2, 2, 2, 2, 6),
            (10, -2, 2, -2, 2, -2), (10, 2, -2, 2, -2, -2),
        ],
    ),
}


@pytest.mark.parametrize("n", [3, 4])
def test_delta_reduction_counts(n):
    counts, witnesses = DELTA_PINS[n]
    data = gf._delta_reduction_data(n)
    assert (data.tree_count, data.rep_count, len(data.fan.maximal)) == counts
    assert sorted(data.witnesses.values()) == witnesses
    for c in data.fan.maximal:
        assert c.contains(data.witnesses[(c.facets, c.span_eqs)], "relative_interior")


def _tree_walls(n, basis):
    """The GKZ walls pulled back to the tree coordinates of the basis, each
    primitive with its first nonzero entry positive."""
    twalls = set()
    for a in gf._gkz_walls(n):
        ta = tuple(_dot(a, b) for b in basis)
        if any(ta):
            ta = primitive_vector(ta)
            twalls.add(ta if next(x for x in ta if x) > 0 else tuple(-x for x in ta))
    return twalls


def _orthant(k):
    """The split coordinates >= 0; the last, lineality, coordinate is free."""
    return [tuple(1 if j == i else 0 for j in range(k)) for i in range(k - 1)]


def _full_span_delta_reference(n):
    """The sweep before it was restricted to the regions of the closed tree
    cone: the coordinate hyperplanes t_i = 0 join the walls, no base cone is
    given, so every cell of the whole span of each tree cone image is swept
    (``cell_leaves``), and ``delta_contains`` filters the representatives.
    Each representative is the explicit genericity search over every column
    span of the full pool.  Returns the first representative of each
    profile, in the order found."""
    wd = gr.weights(n)
    dim = len(wd.p)
    sign = gr.tropical_sign()
    lin = gr.lineality_image(wd)
    spans = _full_spans(n)
    first_rep = {}
    for tree in gr.trivalent_trees(n):
        basis = [tuple(sign * x for x in gr.split_image(wd, b)) for b in tree] + [lin]
        k = len(basis)
        twalls = _tree_walls(n, basis) | set(_orthant(k))
        for leaf in cell_leaves(k, [], sorted(twalls)):
            vecs = [_image(basis, v) for v in leaf.rays + leaf.lineality]
            rep = _generic_rep_reference(vecs, spans, dim)
            if gr.delta_contains(rep, wd):
                first_rep.setdefault(gf._gkz_profile(rep, n), rep)
    return first_rep


def _image(basis, t):
    """The point B^T t of tree coordinates t."""
    return tuple(sum(c * b[i] for c, b in zip(t, basis)) for i in range(len(basis[0])))


@pytest.mark.parametrize("n", [3, 4])
def test_tree_cone_sweep_matches_full_span_reference(n, monkeypatch):
    """The orbit sweep of the regions of the closed tree cones finds the
    maximal profiles the all-trees full-span sweep of every cell finds, in
    the same order and with the same first representative, hence the same
    fan and witnesses; every point it tries lies in Delta: each region's
    representative and each new profile's witness."""
    reference = _full_span_delta_reference(n)
    cones = {profile: gf._profile_cone(profile, rep, n) for profile, rep in reference.items()}
    by_key = {}
    for profile, sigma in cones.items():
        by_key.setdefault((sigma.facets, sigma.span_eqs), (sigma, reference[profile]))
    ref_fan = polyhedral.fan_from_maximal(c for c, _ in by_key.values())
    maximal = {(c.facets, c.span_eqs) for c in ref_fan.maximal}
    restricted = {
        profile: rep
        for profile, rep in reference.items()
        if (cones[profile].facets, cones[profile].span_eqs) in maximal
    }

    tried = []
    real_contains = gr.delta_contains

    def recording_contains(p, wd):
        hit = real_contains(p, wd)
        tried.append((p, hit))
        return hit

    monkeypatch.setattr(gr, "delta_contains", recording_contains)
    data = gf._delta_reduction_data.__wrapped__(n)
    assert data.rep_count == DELTA_PINS[n][0][1]
    assert len(tried) == data.rep_count + len(restricted)
    assert all(hit for _, hit in tried)
    first_rep = {}
    for rep, _ in tried:
        first_rep.setdefault(gf._gkz_profile(rep, n), rep)
    assert first_rep == restricted
    assert list(first_rep) == list(restricted)
    assert data.fan == ref_fan
    assert data.witnesses == {
        (c.facets, c.span_eqs): by_key[(c.facets, c.span_eqs)][1] for c in ref_fan.maximal
    }


@pytest.mark.parametrize("n", [3, 4])
def test_ray_sums_are_full_span_generic_reps(n):
    """On every region of every tree, the sweep's representative, the ray
    sum, is the representative the explicit genericity search over every
    column span of the full pool picks."""
    spans = _full_spans(n)
    checked = 0
    for tree in gr.trivalent_trees(n):
        basis = gr.tree_basis(n, tree)
        k = len(basis)
        leaves = polyhedral.arrangement_leaves(k, _orthant(k), sorted(_tree_walls(n, basis)))
        expected = [
            _generic_rep_reference([_image(basis, v) for v in leaf.rays + leaf.lineality],
                                   spans, len(basis[0]))
            for leaf in leaves
        ]
        assert [rep for rep, _ in gf._sweep_tree(n, basis)] == expected
        checked += len(expected)
    assert checked == {3: 12, 4: 264}[n]


def test_sweep_rejects_a_cell_whose_ray_sum_misses_its_signs(monkeypatch):
    """Negative control: a region whose signs disagree with its ray sum
    stops the Delta-reduction."""
    real_leaves = polyhedral.arrangement_leaves

    def flipped_leaves(*args, **kwargs):
        leaves = real_leaves(*args, **kwargs)
        leaf = leaves[0]
        signs = (1 - abs(leaf.signs[0]),) + leaf.signs[1:]
        return [polyhedral.ArrangementLeaf(signs, leaf.rays, leaf.lineality)] + leaves[1:]

    monkeypatch.setattr(polyhedral, "arrangement_leaves", flipped_leaves)
    with pytest.raises(AssertionError, match="misses its wall signs"):
        gf._delta_reduction_data.__wrapped__(3)


def _delta_test_points(n, rng):
    """Seeded integer points: zero, images of random tree metrics, sums of
    random column subsets (which lie in proper pool spans) and random points."""
    wd = gr.weights(n)
    sign = gr.tropical_sign()
    lin = gr.lineality_image(wd)
    trees = gr.trivalent_trees(n)
    dim = len(wd.p)
    points = [(0,) * dim]
    for _ in range(25):
        tree = rng.choice(trees)
        gens = [gr.split_image(wd, block) for block in tree]
        coeffs = [rng.randint(0, 4) for _ in gens]
        t = rng.randint(-3, 3)
        points.append(
            tuple(
                sign * sum(c * g[i] for c, g in zip(coeffs, gens)) + t * lin[i]
                for i in range(dim)
            )
        )
        cols = rng.sample(wd.pairs0, rng.randint(1, 4))
        points.append(tuple(sum(wd.v[p][i] for p in cols) for i in range(dim)))
        points.append(tuple(rng.randint(-6, 6) for _ in range(dim)))
    return points


def _delta_contains_reference(point, wd):
    """The four-point test on the preimage that ``solve`` picks."""
    w = solve(wd.p, point)
    return gr.trop_contains([gr.tropical_sign() * x for x in w], wd.n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_delta_contains_matches_solve_reference(n):
    wd = gr.weights(n)
    verdicts = set()
    for point in _delta_test_points(n, random.Random(100 + n)):
        expected = _delta_contains_reference(point, wd)
        verdicts.add(expected)
        for scale in (1, 2, 7):
            assert gr.delta_contains(tuple(scale * x for x in point), wd) == expected, point
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", [3, 4])
def test_gkz_profile_matches_pool_scan(n):
    pool = _pool_cones(n)
    data = gf._delta_reduction_data(n)
    points = list(data.witnesses.values()) + _delta_test_points(n, random.Random(200 + n))
    for point in points:
        expected = frozenset(
            i for i, c in enumerate(pool) if c.contains(point, "relative_interior")
        )
        assert gf._gkz_profile(point, n) == expected, point


def _pool_cones(n):
    """The pool cones by double description, a reference independent of
    the walls: the column cone of the first Y-set mask of each entry."""
    return [gf._column_cone(n, masks[0]) for masks in gf._gkz_table(n).masks]


@functools.lru_cache(maxsize=None)
def _full_gkz_pool(n):
    """The pool over every column subset, one double description each: the
    distinct cones cone(v_p; p in J) for all J, in first-found order."""
    wd = gr.weights(n)
    all_pairs = gr.pairs(n)[0]
    seen = {}
    for r in range(len(all_pairs) + 1):
        for combo in itertools.combinations(all_pairs, r):
            c = Cone.from_generators([wd.v[p] for p in combo], len(wd.p))
            seen.setdefault((c.facets, c.span_eqs), c)
    return tuple(seen.values())


@functools.lru_cache(maxsize=None)
def _full_spans(n):
    """The distinct column spans, each as its canonical equations."""
    return tuple(sorted({c.span_eqs for c in _full_gkz_pool(n)}))


@pytest.mark.parametrize("n, spans", [(3, 17), (4, 356)])
def test_column_spans_are_wall_intersections(n, spans):
    """Every column span is the intersection of the GKZ walls that contain
    it: a flat of the column matroid is an intersection of hyperplanes."""
    walls = gf._gkz_walls(n)
    full = {c.span_eqs: c for c in _full_gkz_pool(n)}
    assert len(full) == spans
    for eqs, c in full.items():
        gens = c.rays + c.lineality
        containing = [a for a in walls if not any(_dot(a, g) for g in gens)]
        assert polyhedral._canonical_subspace_basis(containing) == eqs


def test_gkz_walls_n5():
    assert len(gf._gkz_walls(5)) == 400


@pytest.mark.parametrize("n, cones, spans, walls", [(3, 25, 17, 9), (4, 140, 356, 57)])
def test_y_set_pool_matches_full_pool(n, cones, spans, walls):
    """On the ray sum of every cell of every tree (``cell_leaves``, the
    regions and all their faces) and on every witness, the column cones
    holding the point in their relative interior are the same whether read
    from the Y-set pool or from the pool over all column subsets; the full pool has the pinned number of spans, and the walls
    are the normals of its codim-one cones."""
    full = _full_gkz_pool(n)
    pool = _pool_cones(n)
    assert len(pool) == len(gf._gkz_pool(n)) == cones
    assert set(c._key() for c in pool) < set(c._key() for c in full)
    assert len({c.span_eqs for c in full}) == spans
    normals = {c.span_eqs[0] for c in full if len(c.span_eqs) == 1}
    expected = {a if next(x for x in a if x) > 0 else tuple(-x for x in a) for a in normals}
    assert gf._gkz_walls(n) == tuple(sorted(expected)) and len(expected) == walls

    # every cell of every tree: the orbit trees' ray sums mapped by each
    # tree's sigma
    trees = gr.trivalent_trees(n)
    orbits = sym.tree_orbits(n)
    swept = {}
    for r in {r for r, _ in orbits}:
        basis = gr.tree_basis(n, trees[r])
        k = len(basis)
        leaves = cell_leaves(k, _orthant(k), sorted(_tree_walls(n, basis)))
        swept[r] = [_image(basis, [sum(x) for x in zip(*l.rays + l.lineality)]) for l in leaves]
    images = [
        tuple(rep[k] for k in sym.gale_permutation(n, sigma))
        for r, sigma in orbits
        for rep in swept[r]
    ]
    assert len(images) == {3: 30, 4: 990}[n]
    points = set(images) | set(gf._delta_reduction_data(n).witnesses.values())
    for point in points:
        from_pool = {pool[i]._key() for i in gf._gkz_profile(point, n)}
        from_full = {c._key() for c in full if c.contains(point, "relative_interior")}
        assert from_pool == from_full, point


@pytest.mark.parametrize("n, ysets", [(3, 37), (4, 172), (5, 814)])
def test_pool_read_off_the_walls_matches_double_description(n, ysets):
    """For every Y-set J, the description ``_gkz_pool`` reads off the walls
    cuts out the column cone built by double description, with the same
    span equations and as many facets, and every facet is positive on some
    column off J (so the relint test is strict on each)."""
    wd = gr.weights(n)
    cols = [wd.v[p] for p in wd.pairs0]
    seen = 0
    for (eqs, facets), masks in gf._gkz_pool(n):
        cone = Cone.from_inequalities(facets, eqs, ambient=len(wd.p))
        for ymask in masks:
            seen += 1
            ref = gf._column_cone(n, ymask)
            assert cone == ref and eqs == ref.span_eqs, ymask
            assert len(facets) == len(ref.facets), ymask
            off = [c for k, c in enumerate(cols) if not ymask >> k & 1]
            assert all(any(_dot(a, c) > 0 for c in off) for a in facets), ymask
            assert all(_dot(a, c) >= 0 for a in facets for c in off), ymask
    assert seen == ysets == len(gr.y_set_masks(n))


def _per_wall_gkz_pool(n):
    """The pool read off the walls one wall at a time: for each Y-set, each
    wall's signs on the columns off it, the first wall of each zero set."""
    wd = gr.weights(n)
    cols = [wd.v[p] for p in wd.pairs0]
    walls = gf._gkz_walls(n)
    pos = [sum(1 << k for k, c in enumerate(cols) if _dot(a, c) > 0) for a in walls]
    neg = [sum(1 << k for k, c in enumerate(cols) if _dot(a, c) < 0) for a in walls]
    groups = {}
    for ymask in gr.y_set_masks(n):
        off = (1 << len(cols)) - 1 & ~ymask
        cut = {}
        for a, above, below in zip(walls, pos, neg):
            if bool(above & off) != bool(below & off):
                cut.setdefault(off & ~(above | below), a if above & off else tuple(-x for x in a))
        facets = sorted(a for z, a in cut.items() if not any(y != z and y & z == z for y in cut))
        rows = [c for k, c in enumerate(cols) if off >> k & 1] or [(0,) * len(wd.p)]
        eqs = polyhedral._canonical_subspace_basis(kernel_basis(rows))
        groups.setdefault((eqs, tuple(facets)), []).append(ymask)
    return tuple((key, tuple(masks)) for key, masks in groups.items())


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pool_by_zero_sets_matches_the_per_wall_loop(n):
    """Visiting each zero set once gives the pool of the per-wall sign test:
    the same cones, descriptions, masks and order."""
    assert gf._gkz_pool(n) == _per_wall_gkz_pool(n)


def test_gkz_table_runs_no_conversion(monkeypatch):
    """Building the GKZ pool and its table for n = 3..5, walls included,
    runs no double description."""
    gitfankit.clear_caches()
    monkeypatch.setattr(polyhedral, "_dd", _no_dd)
    sizes = [len(gf._gkz_table(n).masks) for n in (3, 4, 5)]
    assert sizes == [25, 140, 734]
    assert [sum(map(len, gf._gkz_table(n).masks)) for n in (3, 4, 5)] == [37, 172, 814]
    monkeypatch.undo()
    gitfankit.clear_caches()


@pytest.mark.parametrize("n", [3, 4])
def test_pool_without_a_wall_misses_a_facet(n, monkeypatch):
    """The negative control of the pool read off the walls: with the first
    wall dropped, some description no longer cuts out its column cone."""
    walls = gf._gkz_walls(n)
    monkeypatch.setattr(gf, "_gkz_walls", lambda m: walls[1:])
    pool = gf._gkz_pool.__wrapped__(n)
    dim = len(gr.weights(n).p)
    assert any(
        Cone.from_inequalities(facets, eqs, ambient=dim) != gf._column_cone(n, masks[0])
        for (eqs, facets), masks in pool
    )


def _generic_rep_reference(vecs, spans, dim):
    """The vector-by-vector genericity search over explicit span equations."""

    def in_span(span, x):
        return not any(_dot(eq, x) for eq in span)

    for k in range(1, 64):
        rep = tuple(sum(k**e * v[i] for e, v in enumerate(vecs)) for i in range(dim))
        if not any(
            in_span(span, rep) and not all(in_span(span, v) for v in vecs)
            for span in spans
        ):
            return rep
    raise AssertionError("no generic representative found")


def test_ray_classification_n3():
    rep = gf.verify_ray_classification(3)
    assert rep["result"]
    assert rep["unexpected"] == []
    assert not rep["v01_ray_of_sigma0"]
    assert rep["v01_ray_of_sigma1"]


def test_verify_walls_and_star_reports():
    assert gf.verify_walls(3)["result"]
    assert gf.verify_star_subfan(3)["result"]
    assert gf.verify_nu_equality(4)["result"]


@pytest.mark.parametrize("n, count", [(3, "chambers_inside_star"), (4, "walls")])
def test_verify_walls_checks_every_count(n, count, monkeypatch):
    # the fan is built before the patch, so only the one count goes wrong
    gf.git_fan(n)
    if count == "walls":
        walls = gf.wall_normals(n)[1:]
        monkeypatch.setattr(gf, "wall_normals", lambda n: walls)
    else:
        monkeypatch.setattr(gf, "omega_star", gf.omega)
    rep = gf.verify_walls(n)
    assert rep["result"] is False
    assert rep["certificates"] == [{"kind": "counted-facts", "counts": rep["counts"]}]
    assert rep["counts"][count] == (6 if count == "walls" else 4)


# -- negative controls: a wrong chamber or carrier must fail its claim --------


def test_walls_report_a_chamber_off_its_region(tmp_path, monkeypatch, capsys):
    """Drop from the Y-cone table the facet normal that bounds the first
    n = 3 region on its wall: the certificate fails at that region, and the
    defining intersection, read from the same table, is the region merged
    with its neighbour across the wall."""
    from gitfankit.cli import main

    gitfankit.clear_caches()
    regions = gf._wall_regions(3, False)
    region = regions[0]
    rep = region.relint_point()
    wall = (-1, 1, -1)
    assert wall in region.facets
    neighbour = next(r for r in regions if tuple(-x for x in wall) in r.facets)
    table = gf._y_pool(3)
    drop = table.normals.index(wall)
    faulty = table._replace(
        facet_ids=tuple(tuple(i for i in f if i != drop) for f in table.facet_ids)
    )
    monkeypatch.setattr(gf, "_y_pool", lambda n: faulty)
    out = tmp_path / "walls.json"
    assert main(["verify", "walls", "-n", "3", "-o", str(out)]) == 1
    capsys.readouterr()
    merged = Cone.from_generators(region.rays + neighbour.rays, 3)
    assert json.loads(out.read_text())["certificates"] == [
        {
            "kind": "chamber-certification",
            "rep": list(rep),
            "region": [list(r) for r in region.rays],
            "chamber": [list(r) for r in merged.rays],
        }
    ]


# -- the chamber certificate against the double-description reference -------


def _chamber_reference(cone, n, star=False):
    """Whether the cone is the chamber of its ray sum, by double description."""
    rep = cone.relint_point()
    return (gf.chamber_star(rep, n) if star else gf.chamber(rep, n)) == cone


@pytest.mark.parametrize("n,star", [(3, False), (3, True), (4, False), (4, True), (5, False), (5, True)])
def test_chamber_certificate_matches_reference_on_regions(n, star):
    regions = gf._wall_regions(n, star)
    verdicts = [gf._chamber_certified(r, n, star) for r in regions]
    assert verdicts == [_chamber_reference(r, n, star) for r in regions]
    assert all(verdicts)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_chamber_certificate_matches_reference_on_lambdas(n):
    for lam in (gf.lambda0(n), gf.lambda1(n)):
        assert gf._chamber_certified(lam, n) == _chamber_reference(lam, n) is True


@pytest.mark.parametrize("n,star", [(4, False), (4, True)])
def test_chamber_certificate_rejects_a_region_with_a_facet_dropped(n, star):
    """Every region with one wall facet dropped, cut back to the support:
    it strictly holds the region, so it is no chamber."""
    support = gf.omega_star(n) if star else gf.omega(n)
    for region in gf._wall_regions(n, star):
        walls = [a for a in region.facets if a not in support.facets]
        assert walls
        for a in walls:
            grown = Cone.from_inequalities(
                [f for f in region.facets if f != a] + list(support.facets), ambient=n
            )
            assert grown != region and grown.contains_cone(region)
            assert not gf._chamber_certified(grown, n, star)
            assert not _chamber_reference(grown, n, star)


def test_chamber_certificate_rejects_proper_faces():
    """Faces of a region are lower-dimensional: the certificate refuses them
    (condition 1), and ``_certify_chamber`` decides them by the reference."""
    for region in gf._wall_regions(4, False):
        for face in region.faces():
            if face == region or face.is_zero():
                continue
            assert not gf._chamber_certified(face, 4)
            if _chamber_reference(face, 4):
                assert gf._certify_chamber(face, 4) is face
            else:
                with pytest.raises(gf.ChamberCertificationError):
                    gf._certify_chamber(face, 4)


@pytest.mark.parametrize("n,star", [(3, False), (3, True), (4, False), (4, True), (5, False), (5, True)])
def test_y_table_describes_its_cones(n, star):
    """Each entry of the Y-cone table, converted from its span equations and
    inequalities, is the cone of every Y-set listed with it: full-dimensional
    exactly when it has no equation, with its facets among its inequalities
    then, and each inequality positive on some generator.  The table lists
    every Y-set of its support once."""
    table = gf._y_star_pool(n) if star else gf._y_pool(n)
    wd = gr.weights(n)
    all_pairs = gr.pairs(n)[0]
    outer = sum(1 << k for k, p in enumerate(all_pairs) if p[0] == 0)
    masks = [m for m in gr.y_set_masks(n) if not (star and m & outer)]
    assert sorted(m for ms in table.masks for m in ms) == masks
    for k, ms in enumerate(table.masks):
        cone = Cone.from_inequalities(table.facets(k), table.span_eqs(k), ambient=n)
        assert (cone.dim == n) == (not table.spans[k])
        if cone.dim == n:
            assert set(cone.facets) <= set(table.facets(k))
        for m in ms:
            gens = [wd.w[p] for i, p in enumerate(all_pairs) if m >> i & 1]
            assert Cone.from_generators(gens, n) == cone
            assert all(any(_dot(a, g) > 0 for g in gens) for a in table.facets(k))


def test_chamber_certificate_needs_full_dimension_and_no_lower_holder(monkeypatch):
    """Two tables in the plane where a wrong cone meets conditions 3 and 4.
    The quadrant's ray sum (1, 1) lies on the diagonal ray, a
    lower-dimensional holder built on demand, so its chamber is that ray
    (condition 2 refuses the quadrant).  The diagonal ray lies in the half
    plane x + y >= 0, whose facet is the ray's own facet, but the ray is
    not full-dimensional (condition 1 refuses it)."""
    quadrant = Cone.from_generators([(1, 0), (0, 1)], 2)
    ray = Cone.from_generators([(1, 1)], 2)
    half = Cone.from_inequalities([(1, 1)], ambient=2)
    tables = {
        quadrant: gf._cone_table(
            2, [(), ray.span_eqs], [quadrant.facets, ray.facets], [(), ()]
        ),
        ray: gf._cone_table(2, [()], [half.facets], [()]),
    }
    for cone, chamber in ((quadrant, ray), (ray, half)):
        table = tables[cone]
        monkeypatch.setattr(gf, "_y_pool", lambda n: table)
        assert gf._intersection(table, gf._holders(table, cone.relint_point())) == chamber
        assert not gf._chamber_certified(cone, 2)


def _no_dd(*args, **kwargs):
    raise AssertionError("double description conversion on the Y-cone side")


def test_chamber_on_a_wall_reads_its_lower_dimensional_holders(monkeypatch):
    """At a point on a wall the chamber is the intersection over every
    omega_J holding the point, lower-dimensional ones included; the holders
    are read off the table with no conversion."""
    n = 4
    gitfankit.clear_caches()
    wd = gr.weights(n)
    table = gf._y_pool(n)
    region = gf._wall_regions(n, False)[0]
    wall_face = next(f for f in region.faces() if f.dim == n - 1)
    pt = wall_face.relint_point()
    with monkeypatch.context() as m:
        m.setattr(polyhedral, "_dd", _no_dd)
        holders = gf._holders(table, pt)
    assert any(table.spans[k] for k in holders)
    acc = gf.omega(n)
    for mask in gr.y_set_masks(n):
        c = Cone.from_generators([wd.w[p] for p in sorted(gr.mask_to_yset(mask, n))], n)
        if c.contains(pt):
            acc = acc.intersect(c)
    assert gf.chamber(pt, n) == acc
    assert acc.dim < n and not gf._chamber_certified(wall_face, n)


def test_y_tables_and_certificate_run_no_conversion(monkeypatch):
    """Building both Y-cone tables for n = 3..5 and certifying the 81
    regions at n = 5 run no double description and no ``chamber`` call."""
    gitfankit.clear_caches()
    regions = gf._wall_regions(5, False)
    assert len(regions) == 81
    monkeypatch.setattr(polyhedral, "_dd", _no_dd)
    monkeypatch.setattr(gf, "chamber", _no_dd)
    sizes = [len(pool(n).masks) for n in (3, 4, 5) for pool in (gf._y_pool, gf._y_star_pool)]
    assert sizes == [27, 8, 102, 37, 383, 172]
    assert sum(not s for s in gf._y_pool(5).spans) == 67
    for region in regions:
        assert gf._certify_chamber(region, 5) is region


@pytest.fixture
def wrong_carrier(monkeypatch):
    """The first block of nu_order(4) given the second block's carrier."""
    gitfankit.clear_caches()
    first, second = gf.nu_order(4)[:2]
    real = gf.sigma_r_carrier
    monkeypatch.setattr(
        gf, "sigma_r_carrier", lambda tb: real(second if tb == first else tb)
    )
    return first


def test_sigma_r_rejects_a_wrong_carrier(wrong_carrier, capsys):
    from gitfankit.cli import main

    assert main(["fan", "sigmar", "-n", "4"]) == 3
    assert "is not its block's" in capsys.readouterr().err


def test_nu_equality_reports_a_wrong_carrier(wrong_carrier, tmp_path, capsys):
    from gitfankit.cli import main

    out = tmp_path / "nu.json"
    assert main(["verify", "nu-equality", "-n", "4", "-o", str(out)]) == 1
    capsys.readouterr()
    assert json.loads(out.read_text())["certificates"] == [
        {
            "block": sorted(wrong_carrier.block),
            "error": "carrier in the lambda1 ambient fan is not the block's",
        }
    ]


# -- center ideals ------------------------------------------------------------


def test_center_ideal_fixture():
    s0 = gf.sigma_fan_cached(3, 0)
    nu = gf.nu_vector([2, 3], 3)
    ideal = gf.center_ideal(s0, nu, 3)
    assert ideal.carrier_pairs == ((0, 2), (0, 3), (2, 3))
    assert ideal.alphas == (1, 1, 2)
    assert ideal.c == 2
    assert set(ideal.exponents) == {(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1)}
    assert set(ideal.pullback_generators) == {
        "T2^2",
        "T2*T3",
        "T3^2",
        "T2*S3-T3*S2",
    }
    displayed = gf.center_pullback([2, 3], 3)
    assert set(displayed) == {"T2^2", "T3^2", "T2*S3-T3*S2"}
    assert set(ideal.pullback_generators) - set(displayed) == {"T2*T3"}


def test_center_pullback_schema_n4():
    out = gf.center_pullback([2, 3, 4], 4)
    assert "T2*S3-T3*S2" in out and "T2*S4-T4*S2" in out and "T3*S4-T4*S3" in out
    assert {"T2^2", "T3^2", "T4^2"} <= set(out)


def test_center_ideal_mirror_block():
    # a carrier built on pairs through index 1 pulls back into the second
    # homogeneous coordinates
    wd = gr.weights(3)
    s0 = gf.sigma_fan_cached(3, 0)
    nu = tuple(
        wd.v[(1, 2)][r] + wd.v[(1, 3)][r] + 2 * wd.v[(2, 3)][r] for r in range(3)
    )
    ideal = gf.center_ideal(s0, nu, 3)
    assert ideal.carrier_pairs == ((1, 2), (1, 3), (2, 3))
    assert set(ideal.pullback_generators) == {
        "S2^2",
        "S2*S3",
        "S3^2",
        "T2*S3-T3*S2",
    }


def test_center_ideal_scales_a_rational_ray():
    # a third of nu has entries -1/3; truncating them gave the zero vector
    s0 = gf.sigma_fan_cached(3, 0)
    nu = gf.nu_vector([2, 3], 3)
    assert gf.center_ideal(s0, [Fraction(x, 3) for x in nu], 3) == gf.center_ideal(s0, nu, 3)


def test_center_ideal_outside_support():
    s0 = gf.sigma_fan_cached(3, 0)
    with pytest.raises(ValueError):
        gf.center_ideal(s0, (1, 1, -5), 3)


def test_center_pullback_rejects_bad_block():
    with pytest.raises(ValueError):
        gf.center_pullback([3], 3)
    with pytest.raises(ValueError):
        gf.center_pullback([1, 2], 3)


# -- invariance under the choice of Gale dual ---------------------------------


def test_downstream_invariance_under_permuted_gale_dual():
    """An alternative kernel (permuted column elimination order) must leave
    the combinatorial statements unchanged."""
    n = 4
    wd = gr.weights(n)
    all_pairs = gr.pairs(n)[0]
    m = len(all_pairs)
    perm = list(range(m))
    rng = random.Random(6)
    rng.shuffle(perm)
    qrows = [[row[perm[k]] for k in range(m)] for row in wd.q]
    kperm = kernel_basis(qrows)
    # undo the permutation on columns
    alt = [tuple(row[perm.index(k)] for k in range(m)) for row in kperm]
    assert all(_dot(a, b) == 0 for a in alt for b in wd.q)
    vcols = dict(zip(all_pairs, zip(*alt)))

    def alt_nu(block):
        block = sorted(block)
        total = [0] * len(alt)
        for i in block:
            for r in range(len(alt)):
                total[r] += vcols[(0, i)][r]
        for j, k in itertools.combinations(block, 2):
            for r in range(len(alt)):
                total[r] += 2 * vcols[(j, k)][r]
        return tuple(total)

    for tb in gr.true_two_blocks(n):
        assert alt_nu(tb.block) == alt_nu(tb.complement)
        carrier_pairs = [
            p for p in all_pairs if set(p) <= set(tb.block) | {0}
        ]
        carrier = Cone.from_generators([vcols[p] for p in carrier_pairs], len(alt))
        assert carrier.contains(alt_nu(tb.block), "relative_interior")


def test_clear_caches_keeps_results():
    before = (gf.git_fan(3), gf.sigma_r(3), gf.delta_reduction(3))
    gitfankit.clear_caches()
    assert not polyhedral._PAIR_CACHE
    for cached in (
        polyhedral._cone_from_gens,
        polyhedral._cone_from_ineqs,
        gf._delta_reduction_data,
        gf._gkz_pool,
        gf._gkz_walls,
        gr.weights,
    ):
        assert cached.cache_info().currsize == 0
    assert (gf.git_fan(3), gf.sigma_r(3), gf.delta_reduction(3)) == before


def test_clear_caches_empties_every_module():
    import importlib
    import pkgutil

    modules = [
        importlib.import_module(f"gitfankit.{m.name}")
        for m in pkgutil.iter_modules(gitfankit.__path__)
    ]
    assert "gitfankit.symmetry" in {m.__name__ for m in modules}
    gf.delta_reduction(4)
    gitfankit.clear_caches()
    cached = [
        (mod.__name__, name)
        for mod in modules
        for name, obj in vars(mod).items()
        if hasattr(obj, "cache_info") and obj.cache_info().currsize
    ]
    assert cached == []


def test_chamber_refuses_a_weight_of_the_wrong_length():
    with pytest.raises(ValueError) as err:
        gf.chamber((1, 1), 3)
    assert str(err.value) == "point has wrong dimension"
