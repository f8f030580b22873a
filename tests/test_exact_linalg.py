"""Exact linear algebra: ranks, kernels, solving."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gitfankit.exact_linalg import (
    kernel_basis,
    primitive_vector,
    rank,
    solve,
)

Q3 = ((1, 0, 0, 1, 1, 0), (0, 1, 0, 1, 0, 1), (0, 0, 1, 0, 1, 1))
EYE2 = ((1, 0), (0, 1))


def dot(a, b):
    return sum(x * y for x, y in zip(a, b, strict=True))


def test_rank_identity():
    assert rank(((1, 0, 0), (0, 1, 0), (0, 0, 1))) == 3


def test_rank_zero():
    assert rank(((0, 0, 0, 0), (0, 0, 0, 0))) == 0


def test_rank_q3():
    assert rank(Q3) == 3


def test_rank_with_fractions():
    assert rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]) == 1
    assert rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 1]]) == 2


def test_kernel_identity_empty():
    assert kernel_basis(EYE2) == ()


def test_kernel_one_one():
    # free variable set to one, no sign flip
    assert kernel_basis([[1, 1]]) == ((-1, 1),)


def test_kernel_q3_fixture():
    assert kernel_basis(Q3) == (
        (-1, -1, 0, 1, 0, 0),
        (-1, 0, -1, 0, 1, 0),
        (0, -1, -1, 0, 0, 1),
    )


def test_solve_identity():
    assert solve(EYE2, [1, 2]) == (1, 2)


def test_solve_free_variable_zeroed():
    assert solve([[1, 1]], [3]) == (3, 0)


def test_solve_inconsistent_absent():
    assert solve([[1, 0], [1, 0]], [0, 1]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(EYE2, [1, 2, 3])


def test_primitive_vector():
    assert primitive_vector([Fraction(1, 2), Fraction(3, 4)]) == (2, 3)
    assert primitive_vector([4, -6]) == (2, -3)


@pytest.mark.parametrize(
    "v, expected",
    [
        ([3, 5, -7], (3, 5, -7)),
        ([-9, 6, 0], (-3, 2, 0)),
        ([Fraction(-1, 2), 3, Fraction(5, 4)], (-2, 12, 5)),
        ([Fraction(-2, 3), Fraction(4, 9), 0], (-3, 2, 0)),
        (["1/6", -1, 2], (1, -6, 12)),
        ([0, 0, 0], (0, 0, 0)),
        ([Fraction(0), Fraction(0)], (0, 0)),
        ([], ()),
    ],
)
def test_primitive_vector_cases(v, expected):
    got = primitive_vector(v)
    assert got == expected
    assert all(type(x) is int for x in got)


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-5, 5), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def fraction_rank(rows):
    """Rank by plain Gaussian elimination over Fraction, with no integer
    scaling: a reference independent of the package's echelon core."""
    a = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
rational_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-5, 5) | small_rationals, min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=150, deadline=None)
@given(small_matrices | rational_matrices)
def test_rank_matches_fraction_elimination(rows):
    assert rank(rows) == fraction_rank(rows)
    # a row repeated, and a multiple of it, leave the rank unchanged
    assert rank(rows + [rows[0], [Fraction(-2, 3) * x for x in rows[0]]]) == fraction_rank(rows)


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_rank_nullity_and_kernel_exactness(rows):
    k = kernel_basis(rows)
    assert rank(rows) + len(k) == len(rows[0])
    for row in k:
        assert all(type(x) is int for x in row)
        assert math.gcd(*row) == 1
        assert all(dot(r, row) == 0 for r in rows)


@settings(max_examples=100, deadline=None)
@given(small_matrices, st.lists(st.integers(-5, 5), min_size=1, max_size=4))
def test_solve_exact_or_certified_absent(rows, b):
    b = (b * 4)[: len(rows)]
    x = solve(rows, b)
    if x is not None:
        assert all(type(v) is Fraction for v in x)
        assert [dot(r, x) for r in rows] == b
    else:
        aug = [list(r) + [bv] for r, bv in zip(rows, b)]
        assert rank(aug) == rank(rows) + 1
