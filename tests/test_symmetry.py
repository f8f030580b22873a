"""The S_n action on pairs, Gale columns, trivalent trees and the GKZ pool."""

import itertools

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


def pool_cones(n):
    """The pool cones by double description, a reference independent of
    the walls: the column cone of the first Y-set mask of each entry."""
    return [gf._column_cone(n, masks[0]) for masks in gf._gkz_table(n).masks]


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


@pytest.mark.parametrize("n", [3, 4])
def test_pool_permutation_is_the_image_of_each_cone(n):
    """Each sigma of ``tree_orbits`` permutes the pool indices, and sigma's
    permutation of the Gale coordinates maps pool cone i onto pool cone
    perm[i]."""
    pool = pool_cones(n)
    dim = len(gr.weights(n).p)
    for sigma in sorted({s for _, s in sym.tree_orbits(n)}):
        perm = gf._pool_permutation(n, sigma)
        assert sorted(perm) == list(range(len(pool)))
        inv = sym.gale_permutation(n, sigma)
        for i, c in enumerate(pool):
            image = Cone.from_generators([tuple(g[k] for k in inv) for g in c.generators()], dim)
            assert image == pool[perm[i]], (sigma, i)


def test_pool_permutation_is_a_bijection_n5():
    size = len(gf._gkz_pool(5))
    for sigma in {s for _, s in sym.tree_orbits(5)}:
        assert sorted(gf._pool_permutation(5, sigma)) == list(range(size))


def first_moved_tree(n):
    identity = tuple(range(1, n + 1))
    return next(t for t, (_, s) in enumerate(sym.tree_orbits(n)) if s != identity)


def test_corrupted_pool_permutation_is_internal_failure(monkeypatch, capsys):
    from gitfankit.cli import main

    gitfankit.clear_caches()
    sigma = sym.tree_orbits(4)[first_moved_tree(4)][1]
    real = gf._pool_permutation

    def corrupted(n, s):
        perm = real(n, s)
        return perm[1:] + perm[:1] if s == sigma else perm

    monkeypatch.setattr(gf, "_pool_permutation", corrupted)
    assert main(["verify", "delta-subfan", "-n", "4"]) == 3
    assert "another GKZ profile" in capsys.readouterr().err
    gitfankit.clear_caches()


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
