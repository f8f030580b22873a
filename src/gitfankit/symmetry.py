"""The action of S_n on the points 1..n, with 0 fixed, as the Delta sweep uses it.

A permutation sigma is the tuple (sigma(1), ..., sigma(n)), as
``itertools.permutations(range(1, n + 1))`` lists them, and sigma(0) = 0.  It
permutes the pairs over {0..n}, hence the Y-sets and the trivalent trees
(a split, stored by its block without 0, goes to the image block).  On the
Gale side it acts by the integer matrix M_sigma with M_sigma v_p = v_sigma(p).
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
    """M_sigma = P Pi_sigma R / D, where Pi_sigma sends the unit vector of a
    pair to that of its image and P R = D I (``grassmann._p_right_inverse``).

    Pi_sigma keeps ker P, the row space of Q, since it only permutes Q's
    rows; R P e_p - D e_p lies in ker P, so M_sigma v_p = v_sigma(p).  Both
    that and the integrality of M_sigma are checked here.
    """
    wd = gr.weights(n)
    r = gr._p_right_inverse(n)
    d = sum(a * row[0] for a, row in zip(wd.p[0], r))
    perm = pair_permutation(n, sigma)
    # (Pi_sigma R) has row perm[k] equal to row k of R
    pi_r = [None] * len(r)
    for k, row in enumerate(r):
        pi_r[perm[k]] = row
    m = []
    for prow in wd.p:
        row = []
        for j in range(len(wd.p)):
            x = sum(a * col[j] for a, col in zip(prow, pi_r))
            if x % d:
                raise AssertionError(f"M_sigma is not integral for sigma = {sigma}")
            row.append(x // d)
        m.append(tuple(row))
    m = tuple(m)
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
