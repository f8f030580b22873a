"""Exact rational vectors, matrices and the linear algebra used everywhere else.

All arithmetic is over ``fractions.Fraction`` (arbitrary-precision, always
reduced, positive denominator), so nothing here ever rounds.  Every routine
first clears denominators row by row and then eliminates over the integers:
fraction-free (Bareiss) elimination for rank, and integer Gauss-Jordan
elimination, read off as the rational reduced row echelon form, for kernels
and solving.  The integer cores also serve the cone conversions directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Scalar = Union[int, str, Fraction]


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class QVector:
    """Immutable vector of exact rationals."""

    entries: tuple[Fraction, ...]

    def __init__(self, entries: Iterable[Scalar]):
        object.__setattr__(self, "entries", tuple(_frac(x) for x in entries))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __add__(self, other: "QVector") -> "QVector":
        return QVector(a + b for a, b in zip(self.entries, other.entries, strict=True))

    def __sub__(self, other: "QVector") -> "QVector":
        return QVector(a - b for a, b in zip(self.entries, other.entries, strict=True))

    def __neg__(self) -> "QVector":
        return QVector(-a for a in self.entries)

    def dot(self, other: "QVector") -> Fraction:
        return sum(
            (a * b for a, b in zip(self.entries, other.entries, strict=True)),
            Fraction(0),
        )

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def as_ints(self) -> tuple[int, ...]:
        """Entries as plain ints; raises if any entry is non-integral."""
        out = []
        for a in self.entries:
            if a.denominator != 1:
                raise ValueError(f"entry {a} is not an integer")
            out.append(a.numerator)
        return tuple(out)


@dataclass(frozen=True)
class QMatrix:
    """Immutable row-major matrix of exact rationals."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __init__(self, rows: int, cols: int, entries: Iterable[Scalar]):
        ent = tuple(_frac(x) for x in entries)
        if len(ent) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(ent)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", ent)

    @classmethod
    def from_rows(cls, row_list: Sequence[Sequence[Scalar]]) -> "QMatrix":
        row_list = [list(r) for r in row_list]
        rows = len(row_list)
        cols = len(row_list[0]) if row_list else 0
        if any(len(r) != cols for r in row_list):
            raise ValueError("ragged rows")
        return cls(rows, cols, [x for r in row_list for x in r])

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    def row(self, i: int) -> QVector:
        return QVector(self.entries[i * self.cols : (i + 1) * self.cols])

    def col(self, j: int) -> QVector:
        return QVector(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self) -> list[list[Fraction]]:
        return [
            list(self.entries[i * self.cols : (i + 1) * self.cols])
            for i in range(self.rows)
        ]

    def transpose(self) -> "QMatrix":
        return QMatrix(
            self.cols,
            self.rows,
            [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def matvec(self, v: QVector) -> QVector:
        if v.dim != self.cols:
            raise ValueError("dimension mismatch")
        return QVector(self.row(i).dot(v) for i in range(self.rows))

    def matmul(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        ent = []
        ocols = [other.col(j) for j in range(other.cols)]
        for i in range(self.rows):
            r = self.row(i)
            for c in ocols:
                ent.append(r.dot(c))
        return QMatrix(self.rows, other.cols, ent)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)


def _cleared(v: Iterable[Scalar]) -> list[int]:
    """The vector times the lcm of its denominators: integers, same direction.

    Plain ints pass through unchanged (their denominator is one)."""
    fr = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
    den = math.lcm(*(x.denominator for x in fr))
    return [x.numerator * (den // x.denominator) for x in fr]


def _primitive(v: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries; zero stays zero."""
    g = math.gcd(*v)
    return tuple(v) if g <= 1 else tuple(x // g for x in v)


def primitive_vector(v: Iterable[Scalar]) -> tuple[int, ...]:
    """Scale a rational vector to primitive integer form (content 1).

    The direction is preserved: scaling is by a positive rational only.
    """
    return _primitive(_cleared(v))


def _bareiss_rank(vectors: Sequence[Sequence[int]]) -> int:
    """Rank of integer rows by fraction-free (Bareiss) elimination."""
    a = [list(v) for v in vectors if any(v)]
    if not a:
        return 0
    cols = len(a[0])
    r = 0
    prev = 1
    for c in range(cols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            for j in range(c + 1, cols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        if r == len(a):
            break
    return r


def rank(m: QMatrix) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    return _bareiss_rank([_cleared(r) for r in m.row_list()])


def _rref(rows: Sequence[Sequence[int]]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Gauss-Jordan elimination of integer rows, without fractions.

    Returns the nonzero rows of an echelon form and its pivot columns.  Each
    row is primitive, its pivot is positive and the other pivot columns are
    zero in it, so dividing every row by its pivot gives the reduced row
    echelon form over the rationals.
    """
    a = [tuple(r) for r in rows]
    cols = len(a[0]) if a else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        top = a[r] = _primitive(a[r] if a[r][c] > 0 else [-x for x in a[r]])
        p = top[c]
        for i, row in enumerate(a):
            f = row[c]
            if f != 0 and i != r:
                a[i] = _primitive([p * x - f * y for x, y in zip(row, top)])
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a[:r], pivots


def kernel_basis(m: QMatrix) -> QMatrix:
    """Basis of {x : Mx = 0} as rows, primitive integer, deterministic.

    One basis row per free column, taken in ascending column order, with the
    free variable set to one before integer scaling.  For the weight matrices
    used downstream this reproduces the fixture Gale duals exactly.
    """
    rows, pivots = _rref([_cleared(r) for r in m.row_list()])
    pivset = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivset:
            continue
        vec = [Fraction(0)] * m.cols
        vec[free] = Fraction(1)
        for row, p in zip(rows, pivots):
            vec[p] = Fraction(-row[free], row[p])
        basis.append(primitive_vector(vec))
    return QMatrix.from_rows(basis) if basis else QMatrix.zero(0, m.cols)


def solve(m: QMatrix, b: QVector) -> Optional[QVector]:
    """One exact solution of Mx = b with free variables zeroed, or None."""
    if b.dim != m.rows:
        raise ValueError("dimension mismatch between matrix and right-hand side")
    rows, pivots = _rref([_cleared(r + [b[i]]) for i, r in enumerate(m.row_list())])
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for row, p in zip(rows, pivots):
        x[p] = Fraction(row[m.cols], row[p])
    return QVector(x)


def gale_dual(q: QMatrix) -> QMatrix:
    """A Gale dual P of Q, i.e. P with P Q^t = 0 spanning the kernel of Q.

    Requires Q to have full row rank; rows of P are primitive integer vectors.
    """
    if rank(q) != q.rows:
        raise ValueError("weight matrix is rank deficient")
    p = kernel_basis(q)
    prod = p.matmul(q.transpose())
    if not prod.is_zero():
        raise AssertionError("Gale dual failed the P Q^t = 0 check")
    return p
