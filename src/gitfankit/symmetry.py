"""The action of S_n on the points 1..n, with 0 fixed, as the Delta sweep uses it.

A permutation sigma is the tuple (sigma(1), ..., sigma(n)), as
``itertools.permutations(range(1, n + 1))`` lists them, and sigma(0) = 0.  It
permutes the pairs over {0..n}, hence the Y-sets and the trivalent trees
(a split, stored by its block without 0, goes to the image block).  On the
Gale side it acts by M_sigma with M_sigma v_p = v_sigma(p): the permutation
matrix of sigma on the inner pairs, whose Gale columns are unit vectors.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

from . import grassmann as gr
from .exact_linalg import _dot

Perm = tuple[int, ...]


def _image(sigma: Perm, i: int) -> int:
    return sigma[i - 1] if i else 0


@lru_cache(maxsize=None)
def pair_permutation(n: int, sigma: Perm) -> tuple[int, ...]:
    """Entry k is the index of the image of the k-th canonical pair."""
    all_pairs, _ = gr.pairs(n)
    index = {p: k for k, p in enumerate(all_pairs)}
    return tuple(
        index[tuple(sorted((_image(sigma, i), _image(sigma, j))))] for i, j in all_pairs
    )


def apply(m: Sequence[Sequence[int]], x: Sequence[int]) -> tuple[int, ...]:
    """The matrix-vector product m x."""
    return tuple(_dot(row, x) for row in m)


@lru_cache(maxsize=None)
def gale_matrix(n: int, sigma: Perm) -> tuple[tuple[int, ...], ...]:
    """M_sigma, the permutation matrix of sigma on the inner pairs: column ij
    is v_sigma(ij), the unit vector of sigma(ij).

    The Gale column v_ij is the unit vector e_ij (``grassmann.weights``)
    and sigma fixes 0, so M_sigma v_ij = v_sigma(ij), and then
    M_sigma v_0i = v_0sigma(i), as v_0i = -(sum of v_ij over j != i).  Both
    are checked here for every pair.
    """
    wd = gr.weights(n)
    perm = pair_permutation(n, sigma)
    # column ij is v_sigma(ij); the inner pairs follow the n pairs at 0
    m = tuple(zip(*(wd.v[wd.pairs0[perm[k]]] for k in range(n, len(wd.pairs0)))))
    for k, p in enumerate(wd.pairs0):
        if apply(m, wd.v[p]) != wd.v[wd.pairs0[perm[k]]]:
            raise AssertionError(f"M_sigma v_p != v_sigma(p) for sigma = {sigma}, p = {p}")
    return m


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
