"""Exact linear algebra: ranks, kernels, solving, Gale duals."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gitfankit.exact_linalg import (
    QMatrix,
    QVector,
    gale_dual,
    kernel_basis,
    primitive_vector,
    rank,
    solve,
)


def weight_matrix_q3() -> QMatrix:
    return QMatrix.from_rows(
        [
            [1, 0, 0, 1, 1, 0],
            [0, 1, 0, 1, 0, 1],
            [0, 0, 1, 0, 1, 1],
        ]
    )


def test_rank_identity():
    assert rank(QMatrix.identity(3)) == 3


def test_rank_zero():
    assert rank(QMatrix.zero(2, 4)) == 0


def test_rank_q3():
    assert rank(weight_matrix_q3()) == 3


def test_rank_with_fractions():
    m = QMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])
    assert rank(m) == 1
    m2 = QMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 1]])
    assert rank(m2) == 2


def test_kernel_identity_empty():
    k = kernel_basis(QMatrix.identity(2))
    assert k.rows == 0 and k.cols == 2


def test_kernel_one_one():
    # free variable set to one, no sign flip
    k = kernel_basis(QMatrix.from_rows([[1, 1]]))
    assert k.row_list() == [[-1, 1]]


def test_kernel_q3_fixture():
    k = kernel_basis(weight_matrix_q3())
    assert [[int(x) for x in row] for row in k.row_list()] == [
        [-1, -1, 0, 1, 0, 0],
        [-1, 0, -1, 0, 1, 0],
        [0, -1, -1, 0, 0, 1],
    ]


def test_solve_identity():
    x = solve(QMatrix.identity(2), QVector([1, 2]))
    assert x is not None and list(x.entries) == [1, 2]


def test_solve_free_variable_zeroed():
    x = solve(QMatrix.from_rows([[1, 1]]), QVector([3]))
    assert x is not None and list(x.entries) == [3, 0]


def test_solve_inconsistent_absent():
    m = QMatrix.from_rows([[1, 0], [1, 0]])
    assert solve(m, QVector([0, 1])) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(QMatrix.identity(2), QVector([1, 2, 3]))


def test_gale_identity_no_rows():
    p = gale_dual(QMatrix.identity(2))
    assert p.rows == 0


def test_gale_q3():
    q = weight_matrix_q3()
    p = gale_dual(q)
    assert (p.rows, p.cols) == (3, 6)
    assert p.matmul(q.transpose()).is_zero()


def weight_matrix(n: int) -> QMatrix:
    pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    cols = []
    for i, j in pairs:
        if i == 0:
            cols.append([1 if r == j else 0 for r in range(1, n + 1)])
        else:
            cols.append([1 if r in (i, j) else 0 for r in range(1, n + 1)])
    return QMatrix.from_rows([[c[r] for c in cols] for r in range(n)])


def test_gale_q4():
    q = weight_matrix(4)
    p = gale_dual(q)
    assert (p.rows, p.cols) == (6, 10)
    assert p.matmul(q.transpose()).is_zero()


def test_gale_rank_deficient_rejected():
    with pytest.raises(ValueError):
        gale_dual(QMatrix.from_rows([[1, 1], [2, 2]]))


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


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_rank_nullity_and_kernel_exactness(rows):
    m = QMatrix.from_rows(rows)
    k = kernel_basis(m)
    assert rank(m) + k.rows == m.cols
    for i in range(k.rows):
        row = k.row(i)
        ints = row.as_ints()
        from math import gcd

        g = 0
        for x in ints:
            g = gcd(g, abs(x))
        assert g == 1
        assert all(m.row(j).dot(row) == 0 for j in range(m.rows))


@settings(max_examples=100, deadline=None)
@given(small_matrices, st.lists(st.integers(-5, 5), min_size=1, max_size=4))
def test_solve_exact_or_certified_absent(rows, b):
    m = QMatrix.from_rows(rows)
    b = (b * 4)[: m.rows]
    x = solve(m, QVector(b))
    if x is not None:
        assert list(m.matvec(x).entries) == [Fraction(v) for v in b]
    else:
        aug = QMatrix.from_rows(
            [list(r) + [bv] for r, bv in zip(m.row_list(), b)]
        )
        assert rank(aug) == rank(m) + 1
