"""The S_n action on pairs, Gale columns, trivalent trees and the cones of Delta."""

import itertools
from collections import Counter

import pytest

import gitfankit
import gitfankit.gitfan as gf
import gitfankit.grassmann as gr
import gitfankit.symmetry as sym
from gitfankit.polyhedral import Cone


def image_pair(sigma, p):
    i, j = (sigma[x - 1] if x else 0 for x in p)
    return (min(i, j), max(i, j))


def image_tree(sigma, tree):
    return {frozenset(sigma[i - 1] for i in block) for block in tree}


def apply(m, x):
    """The matrix-vector product m x."""
    return tuple(sum(a * b for a, b in zip(row, x)) for row in m)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_gale_matrix_moves_every_column(n):
    """sigma's permutation of the Gale coordinates, read as the matrix
    M_sigma with (M_sigma x)_i = x[inv[i]], is a permutation matrix, moves
    v_p to v_sigma(p) for every pair, and agrees with the permutation on
    every column and on a generic point."""
    wd = gr.weights(n)
    d = len(wd.p)
    point = tuple(range(1, d + 1))
    for sigma in itertools.permutations(range(1, n + 1)):
        inv = sym.gale_permutation(n, sigma)
        assert sorted(inv) == list(range(d))
        m = tuple(tuple(int(inv[i] == k) for k in range(d)) for i in range(d))
        assert all(type(x) is int and x in (0, 1) for row in m for x in row)
        assert all(sum(row) == 1 for row in m) and all(sum(col) == 1 for col in zip(*m))
        for p in wd.pairs0:
            assert apply(m, wd.v[p]) == wd.v[image_pair(sigma, p)], (sigma, p)
            assert tuple(wd.v[p][k] for k in inv) == wd.v[image_pair(sigma, p)], (sigma, p)
        assert tuple(point[k] for k in inv) == apply(m, point)
        perm = sym.pair_permutation(n, sigma)
        assert [wd.pairs0[k] for k in perm] == [image_pair(sigma, p) for p in wd.pairs0]


def test_gale_permutation_rejects_a_wrong_pair_permutation(monkeypatch):
    """The negative control of the check in ``gale_permutation``: a pair
    permutation that swaps two inner pairs of sigma's image moves some v_0i
    off v_0sigma(i)."""
    real = sym.pair_permutation
    sigma = (2, 1, 3, 4)

    def swapped(n, s):
        perm = list(real(n, s))
        perm[n], perm[n + 2] = perm[n + 2], perm[n]
        return tuple(perm)

    sym.gale_permutation.cache_clear()
    monkeypatch.setattr(sym, "pair_permutation", swapped)
    try:
        with pytest.raises(AssertionError, match="does not map"):
            sym.gale_permutation(4, sigma)
    finally:
        monkeypatch.undo()
        sym.gale_permutation.cache_clear()


@pytest.mark.parametrize("sigma", [(1, 1, 2), (1, 2), (1, 2, 3, 4)])
def test_gale_permutation_rejects_a_non_permutation(sigma):
    """At n = 3, a repeated point, a short tuple and a tuple of 1..4 are no
    permutations of 1..3."""
    with pytest.raises(ValueError, match="is not a permutation of 1..3"):
        sym.gale_permutation(3, sigma)


@pytest.mark.parametrize("n, orbits", [(3, 1), (4, 2), (5, 3)])
def test_tree_orbit_counts(n, orbits):
    reps = {r for r, _ in sym.tree_orbits(n)}
    assert len(reps) == orbits
    identity = tuple(range(1, n + 1))
    assert all(sym.tree_orbits(n)[r] == (r, identity) for r in reps)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_each_sigma_maps_its_representative_onto_its_tree(n):
    """sigma maps the representative's splits onto the tree's, no earlier
    permutation does, and no earlier tree lies in the orbit."""
    trees = gr.trivalent_trees(n)
    perms = list(itertools.permutations(range(1, n + 1)))
    for t, (tree, (r, sigma)) in enumerate(zip(trees, sym.tree_orbits(n))):
        assert image_tree(sigma, trees[r]) == set(tree)
        first = next(s for s in perms if image_tree(s, trees[r]) == set(tree))
        assert first == sigma
        orbit = [trees.index(tuple(sorted(image_tree(s, tree), key=lambda b: (len(b), sorted(b)))))
                 for s in perms]
        assert min(orbit) == r <= t


def moved(x, inv):
    return tuple(x[k] for k in inv)


@pytest.mark.parametrize("cones, perms", [
    # tree cone images: lineality and span equations
    (lambda: gr._tree_cones(4), "gale"),
    # every face of Delta(4): pointed, with span equations
    (lambda: sorted({f for c in gf.delta_reduction(4).maximal for f in c.faces()}), "gale"),
    # the GIT fan on the weight side, under every permutation of its coordinates
    (lambda: gf.git_fan(4).maximal, "all"),
], ids=["tree-cones-4", "delta-4-faces", "git-fan-4"])
def test_permuted_cone_is_the_cone_of_its_permuted_generators(cones, perms):
    """``Cone.permuted`` equals the double description of the permuted
    generators, for every sigma's Gale permutation at n = 4 or every
    coordinate permutation."""
    cones = cones()
    dim = cones[0].ambient
    if perms == "gale":
        perms = [sym.gale_permutation(4, s) for s in itertools.permutations(range(1, 5))]
    else:
        perms = list(itertools.permutations(range(dim)))
    for inv in perms:
        for c in cones:
            expected = Cone.from_generators([moved(g, inv) for g in c.generators()], dim)
            assert c.permuted(inv) == expected, (inv, c)


def orbit_images(n):
    """Per tree, in order: its orbit representative's first region ray sum
    of each profile, and that profile's cone, both moved by the tree's
    sigma; the loop of ``_delta_reduction_data`` without its checks."""
    trees = gr.trivalent_trees(n)
    swept = {}
    images = []
    for r, sigma in sym.tree_orbits(n):
        if r not in swept:
            first = {}
            for rep, profile in gf._sweep_tree(n, gr.tree_basis(n, trees[r])):
                first.setdefault(profile, rep)
            swept[r] = [(rep, gf._profile_cone(p, rep, n)) for p, rep in first.items()]
        inv = sym.gale_permutation(n, sigma)
        images += [(moved(rep, inv), c.permuted(inv)) for rep, c in swept[r]]
    return images


@pytest.mark.parametrize("n, count", [(3, 9), (4, 63), (5, 600)])
def test_every_moved_cone_is_the_profile_cone_of_its_image(n, count):
    """Each moved cone is the intersection of the pool cones holding its
    moved point in their relative interior, built by double description."""
    images = orbit_images(n)
    assert len(images) == count
    for w, c in images:
        assert c == gf._profile_cone(gf._gkz_profile(w, n), w, n), w


def first_moved_tree(n):
    identity = tuple(range(1, n + 1))
    return next(t for t, (_, s) in enumerate(sym.tree_orbits(n)) if s != identity)


def test_an_unmoved_cone_fails_the_relint_check(monkeypatch, capsys):
    """The negative control of the move: a cone left in place for one sigma
    misses the moved point, before it could be skipped as seen."""
    from gitfankit.cli import main

    gitfankit.clear_caches()
    inv = sym.gale_permutation(4, sym.tree_orbits(4)[first_moved_tree(4)][1])
    real = Cone.permuted
    monkeypatch.setattr(Cone, "permuted", lambda c, perm: c if perm == inv else real(c, perm))
    assert main(["verify", "delta-subfan", "-n", "4"]) == 3
    assert "misses its moved cone's relative interior" in capsys.readouterr().err
    gitfankit.clear_caches()


def test_y_sets_short_of_an_orbit_fail_the_invariance_check(monkeypatch):
    """The negative control of the Y-set check: with one mask dropped whose
    orbit is not a point, some adjacent transposition moves the set."""
    masks = gr.y_set_masks(4)
    swap = sym.pair_permutation(4, (2, 1, 3, 4))
    dropped = next(
        m for m in masks if sum(1 << swap[k] for k in range(len(swap)) if m >> k & 1) != m
    )
    monkeypatch.setattr(gr, "y_set_masks", lambda n: tuple(m for m in masks if m != dropped))
    with pytest.raises(AssertionError, match="Y-sets are not invariant"):
        gf._delta_reduction_data.__wrapped__(4)
    gitfankit.clear_caches()


@pytest.mark.parametrize("n, calls, counts", [
    (3, (3, 4), (3, 4, 5, 6)),
    (4, (9, 31), (15, 31, 17, 13)),
    (5, (18, 1313), (105, 1313, 86, 25)),
], ids=["3", "4", "5"])
def test_one_conversion_per_swept_profile(n, calls, counts, monkeypatch):
    """``_profile_cone`` runs once per profile of a swept tree and
    ``_gkz_profile`` once per region; (trees, regions, maximal cones, rays)
    are pinned, Delta(5)'s 86 cones and 25 rays among them."""
    made = Counter()
    for name in ("_profile_cone", "_gkz_profile"):
        real = getattr(gf, name)
        monkeypatch.setattr(
            gf, name, lambda *a, real=real, name=name: made.update([name]) or real(*a)
        )
    data = gf._delta_reduction_data.__wrapped__(n)
    assert (made["_profile_cone"], made["_gkz_profile"]) == calls
    assert (data.tree_count, data.rep_count, len(data.fan.maximal), len(data.fan.rays)) == counts


def test_sigma_off_its_tree_is_rejected(monkeypatch):
    gitfankit.clear_caches()
    orbits = list(sym.tree_orbits(4))
    t = first_moved_tree(4)
    r, _ = orbits[t]
    orbits[t] = (r, tuple(range(1, 5)))
    monkeypatch.setattr(sym, "tree_orbits", lambda n: tuple(orbits))
    with pytest.raises(AssertionError, match="does not map tree"):
        gf._delta_reduction_data(4)
    gitfankit.clear_caches()
