"""Small dense linear algebra over prime fields.

Matrices are tuples of row tuples with entries reduced mod p; a matrix with
zero rows is (), one with zero columns has empty row tuples. Everything here
is exact modular arithmetic, no floating point anywhere.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Sequence

Matrix = tuple[tuple[int, ...], ...]

# the primes p for which F_p is supported, everywhere in the package
SUPPORTED_PRIMES = (2, 3, 5, 7, 11)


def check_prime(p: int) -> None:
    """ValueError unless p is one of `SUPPORTED_PRIMES`."""
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"p must be one of {SUPPORTED_PRIMES}, got {p}")


def zeros(rows: int, cols: int) -> Matrix:
    return tuple((0,) * cols for _ in range(rows))


def mat_mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    if not a:
        return ()
    inner = len(a[0])
    cols = len(b[0]) if b else 0
    if inner == 0:
        return zeros(len(a), cols)
    out = []
    for row in a:
        out.append(
            tuple(sum(row[k] * b[k][j] for k in range(inner)) % p for j in range(cols))
        )
    return tuple(out)


def rref(rows: Sequence[Sequence[int]], p: int) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form of the row list; returns (nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] % p), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def rank(rows: Sequence[Sequence[int]], p: int) -> int:
    return len(rref(rows, p)[0])


def grassmannian(
    n: int, k: int, p: int
) -> list[tuple[int, Matrix, tuple[int, ...], tuple[int, ...], Matrix]]:
    """All k-dimensional subspaces of F_p^n, each exactly once, as (place in
    the list, RREF basis, pivot columns, non-pivot columns, projection); the
    place lets a caller keep per-subspace values in a list.

    Order: pivot column sets lexicographically, then the free entries in
    `itertools.product` order, row by row, the last entry fastest.

    Row r of the projection gives the residue of a vector modulo the subspace
    at the r-th non-pivot coordinate c: v[c] minus the sum over basis rows of
    v[pivot] * row[c]. A vector lies in the subspace iff every row gives 0.
    """
    out: list = []
    if k < 0 or k > n:
        return out
    # equal rows share one tuple: a `HallModel` keeps each list, for every
    # frame of its space, until it is released
    rows_seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for pivots in combinations(range(n), k):
        free = nonpivot_columns(n, pivots)
        slot_of = {c: i for i, c in enumerate(free)}
        # free entries of the basis: (row, column, projection row)
        slots = [(r, j, slot_of[j]) for r, c in enumerate(pivots) for j in range(c + 1, n)
                 if j in slot_of]
        unit_rows = [[int(j == c) for j in range(n)] for c in pivots]
        unit_proj = [[int(j == c) for j in range(n)] for c in free]
        for vals in product(range(p), repeat=len(slots)):
            rows = [row[:] for row in unit_rows]
            proj = [row[:] for row in unit_proj]
            for (r, j, i), x in zip(slots, vals):
                rows[r][j] = x
                proj[i][pivots[r]] = -x % p
            basis = tuple(rows_seen.setdefault(r, r) for r in map(tuple, rows))
            out.append((len(out), basis, pivots, free, tuple(rows_seen.setdefault(r, r) for r in map(tuple, proj))))
    return out


def nonpivot_columns(n: int, pivots: tuple[int, ...]) -> tuple[int, ...]:
    pset = set(pivots)
    return tuple(j for j in range(n) if j not in pset)
