"""The action of S_n on the points 1..n, with 0 fixed, as the Delta sweep uses it.

A permutation sigma is the tuple (sigma(1), ..., sigma(n)), as
``itertools.permutations(range(1, n + 1))`` lists them, and sigma(0) = 0.  It
permutes the pairs over {0..n}, hence the Y-sets and the trivalent trees
(a split, stored by its block without 0, goes to the image block).  On the
Gale side it permutes the coordinates, which are the inner pairs: their Gale
columns are the unit vectors, so moving coordinate ij to sigma(ij) maps v_p
to v_sigma(p) for every pair p.

S_n reaches the Delta sweep through the Gale coordinates alone: points and
cones move by ``gale_permutation`` (``Cone.permuted``).  The pair
permutations serve ``gale_permutation`` and the check that the Y-sets are
S_n-invariant.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import grassmann as gr

Perm = tuple[int, ...]


def _image(sigma: Perm, i: int) -> int:
    return sigma[i - 1] if i else 0


@lru_cache(maxsize=None)
def pair_permutation(n: int, sigma: Perm) -> tuple[int, ...]:
    """Entry k is the index of the image of the k-th canonical pair."""
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"{tuple(sigma)} is not a permutation of 1..{n}")
    all_pairs, _ = gr.pairs(n)
    index = {p: k for k, p in enumerate(all_pairs)}
    return tuple(
        index[tuple(sorted((_image(sigma, i), _image(sigma, j))))] for i, j in all_pairs
    )


@lru_cache(maxsize=None)
def gale_permutation(n: int, sigma: Perm) -> tuple[int, ...]:
    """Entry i is the Gale coordinate that sigma moves to coordinate i, the
    index of sigma^-1(ij) among the inner pairs, ij the i-th one: sigma maps
    a point x of the Gale side to (x[k] for k in the permutation).

    As v_ij = e_ij (``grassmann.weights``), this maps v_ij to v_sigma(ij),
    and then v_0i to v_0sigma(i), as v_0i = -(sum of v_ij over j != i) and
    sigma fixes 0.  Both are checked here for every pair.
    """
    wd = gr.weights(n)
    perm = pair_permutation(n, sigma)
    # the inner pairs follow the n pairs at 0, and sigma keeps them there
    inverse = tuple(sorted(range(len(wd.p)), key=lambda k: perm[n + k]))
    for k, p in enumerate(wd.pairs0):
        if tuple(wd.v[p][i] for i in inverse) != wd.v[wd.pairs0[perm[k]]]:
            raise AssertionError(f"sigma = {sigma} does not map v_{p} to v_sigma(p)")
    return inverse


@lru_cache(maxsize=None)
def tree_orbits(n: int) -> tuple[tuple[int, Perm], ...]:
    """For each tree of ``trivalent_trees(n)``, in that order: the index of
    its orbit representative (the first tree of its orbit) and the first
    sigma, in ``itertools.permutations`` order, that maps the representative
    onto it.  A representative gets the identity."""
    trees = gr.trivalent_trees(n)
    index = {frozenset(t): i for i, t in enumerate(trees)}
    out: list = [None] * len(trees)
    for r, tree in enumerate(trees):
        if out[r] is not None:
            continue
        for sigma in itertools.permutations(range(1, n + 1)):
            image = frozenset(frozenset(_image(sigma, i) for i in b) for b in tree)
            t = index[image]
            if out[t] is None:
                out[t] = (r, sigma)
    for tree, (r, sigma) in zip(trees, out):
        image = {frozenset(_image(sigma, i) for i in b) for b in trees[r]}
        if image != set(tree):
            raise AssertionError(f"sigma = {sigma} does not map tree {r} onto {tree}")
    return tuple(out)
