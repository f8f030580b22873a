"""Exact linear algebra on integer rows, the one matrix type of the package.

A matrix is a sequence of rows.  Rows are integer tuples everywhere inside
the package; rows with rational entries (``Fraction`` or strings such as
"1/2") are accepted too, and each is scaled to integers by the lcm of its
denominators before elimination, so nothing here ever rounds.  Rank,
kernels and solving use one integer Gauss-Jordan core, whose echelon form
reads off as the rational reduced row echelon form; the core also serves the
cone conversions directly.  ``fractions`` is imported only where a rational
value occurs: for a non-integer entry, and for the solution of ``solve``.
"""

from __future__ import annotations

import math
from operator import mul
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:
    from fractions import Fraction


def _cleared(v: Iterable) -> list[int]:
    """The vector times the lcm of its denominators: integers, same direction.

    A vector of plain ints comes back as a list of the same ints."""
    fr = list(v)
    if all(type(x) is int for x in fr):
        return fr
    from fractions import Fraction

    fr = [x if isinstance(x, int) else Fraction(x) for x in fr]
    den = math.lcm(*(x.denominator for x in fr))
    return [x.numerator * (den // x.denominator) for x in fr]


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    """Dot product of two integer vectors."""
    return sum(map(mul, a, b))


def _primitive(v: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries; zero stays zero."""
    g = math.gcd(*v)
    return tuple(v) if g <= 1 else tuple(x // g for x in v)


def primitive_vector(v: Iterable) -> tuple[int, ...]:
    """Scale a rational vector to primitive integer form (content 1).

    The direction is preserved: scaling is by a positive rational only.
    """
    return _primitive(_cleared(v))


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


def rank(rows: Sequence[Sequence]) -> int:
    """Rank over the rationals: the number of nonzero rows of the echelon form."""
    return len(_rref([_cleared(r) for r in rows])[0])


def kernel_basis(rows: Sequence[Sequence]) -> tuple[tuple[int, ...], ...]:
    """Basis of {x : Mx = 0}, M given by its rows: primitive integer rows,
    deterministic.

    One basis row per free column, taken in ascending column order: the
    free variable set to the lcm of the pivots, the pivot variables read off
    the integer echelon form, and the row divided by its content.  For the
    weight matrix Q this is the P that ``grassmann.weights`` reads off the
    pairs.  No rows give no columns, hence an empty basis.
    """
    cols = len(rows[0]) if rows else 0
    echelon, pivots = _rref([_cleared(r) for r in rows])
    den = math.lcm(*(row[p] for row, p in zip(echelon, pivots)))
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        v = [0] * cols
        v[free] = den
        for row, p in zip(echelon, pivots):
            v[p] = -(den // row[p]) * row[free]
        basis.append(_primitive(v))
    return tuple(basis)


def solve(rows: Sequence[Sequence], b: Sequence) -> Optional[tuple[Fraction, ...]]:
    """One exact solution of Mx = b, M given by its rows, with free variables
    zeroed, or None."""
    from fractions import Fraction

    if len(b) != len(rows):
        raise ValueError("dimension mismatch between matrix and right-hand side")
    cols = len(rows[0]) if rows else 0
    echelon, pivots = _rref([_cleared([*r, bi]) for r, bi in zip(rows, b)])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for row, p in zip(echelon, pivots):
        x[p] = Fraction(row[cols], row[p])
    return tuple(x)

