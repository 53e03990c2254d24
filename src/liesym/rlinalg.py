"""Small exact linear algebra over Fraction: rref, solve, null space.

Everything works on lists of lists of Fractions.  Sizes here are tiny
(dozens of rows), so clarity beats asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Matrix = List[List[Fraction]]


def _to_fractions(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(v) for v in row] for row in rows]


def rref(rows: Sequence[Sequence]) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = _to_fractions(rows)
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        lead = m[r][c]
        m[r] = [v / lead for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def solve(a: Sequence[Sequence], b: Sequence) -> Optional[List[Fraction]]:
    """One exact solution of A x = b, or None when inconsistent.

    Free variables are set to zero.
    """
    if not a:
        return [] if not any(Fraction(v) for v in b) else None
    ncols = len(a[0])
    aug = [list(row) + [bv] for row, bv in zip(a, b)]
    m, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(m, pivots):
        x[c] = row[-1]
    return x


def nullspace(a: Sequence[Sequence]) -> List[List[Fraction]]:
    """Basis of the exact null space of A."""
    if not a:
        return []
    ncols = len(a[0])
    m, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, c in zip(m, pivots):
            v[c] = -row[f]
        basis.append(v)
    return basis


def invert(a: Sequence[Sequence]) -> Optional[Matrix]:
    """Exact inverse of a square matrix, or None if singular."""
    n = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(_to_fractions(a))]
    m, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in m[:n]]

