"""Exact linear algebra over a fixed prime field, in plain integers.

Everything in this package that needs ranks, kernels or solutions of linear
systems works over F_P for a fixed word-sized prime P.  The prime is large
enough that the generic constructions used elsewhere (random Frobenius
functionals, generic solutions picked from solution spaces) behave like
characteristic zero at the dimensions that occur here.

A matrix is a tuple of int rows with entries in [0, P).  A matrix without
rows has no width, so the functions that need one take it as an argument.
One row reduction, `rref`, does the work: it adds sparse rows
{column: coefficient} one at a time to a reduced echelon form, and `rank`,
`nullspace` and `solve` all reach it.  The matrices met here are small (no
E8 oracle build reduces one above 12 x 16, and most reductions are 1 x 1 or
2 x 2), so Python ints cost less than any array machinery would.
"""
from __future__ import annotations

from operator import mul

P = 32003  # prime

BACKEND = "int"  # the only row-reduction backend; reported by benchmarks


def inv_mod(x: int) -> int:
    x = int(x) % P
    if x == 0:
        raise ZeroDivisionError("inverse of 0 mod P")
    return pow(x, -1, P)


def _axpy(row: dict, f: int, other) -> None:
    """row -= f * other in place, for sparse rows; zeros are dropped."""
    for k, v in other.items():
        x = (row.get(k, 0) - f * v) % P
        if x:
            row[k] = x
        else:
            row.pop(k, None)


def rref(rows, piv: dict | None = None) -> dict[int, dict[int, int]]:
    """Reduced row echelon form mod P, as {pivot column: row}: each row is 1
    at its pivot, 0 at every other pivot column and 0 before its pivot.  A
    row is a sparse map {column: coefficient} or a dense sequence.  Given
    `piv`, an echelon form this function returned, the rows are added to it
    in place.  The RREF of a matrix is unique, whatever order its rows come
    in."""
    if piv is None:
        piv = {}
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        row = {c: v % P for c, v in items if v % P}
        # pivot rows vanish at each other's pivots, so one pass clears them
        for c in [c for c in row if c in piv]:
            _axpy(row, row[c], piv[c])
        if not row:
            continue
        lead = min(row)
        inv = pow(row[lead], -1, P)
        row = {k: v * inv % P for k, v in row.items()}
        # the new pivot lies past the lead of every row it is cleared from
        for other in piv.values():
            if lead in other:
                _axpy(other, other[lead], row)
        piv[lead] = row
    return piv


def as_matrix(a) -> tuple[tuple[int, ...], ...]:
    """Any sequence of int rows as a matrix: int rows reduced into [0, P)."""
    return tuple(tuple(int(x) % P for x in row) for row in a)


def zeros(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    return ((0,) * n,) * m


def identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(a, ncols: int) -> tuple[tuple[int, ...], ...]:
    """The transpose of `a`, which has `ncols` columns."""
    return tuple(zip(*a)) if a else ((),) * ncols


def rank(a) -> int:
    return len(rref(a))


def matmul(a, b, ncols: int | None = None) -> tuple[tuple[int, ...], ...]:
    """a @ b mod P; `ncols`, the width of b, is needed only when b has no
    rows."""
    cols = tuple(zip(*b)) if b else ((),) * ncols
    return tuple(tuple(sum(map(mul, row, col)) % P for col in cols) for row in a)


def nullspace(a, ncols: int) -> tuple[tuple[int, ...], ...]:
    """A basis of the right kernel of `a`, which has `ncols` columns, as
    rows: one vector per free column in increasing order, 1 there, 0 at the
    other free columns, read off the RREF."""
    piv = rref(a)
    out = []
    for fc in range(ncols):
        if fc in piv:
            continue
        v = [0] * ncols
        v[fc] = 1
        for pc, row in piv.items():
            x = row.get(fc)
            if x:
                v[pc] = -x % P
        out.append(tuple(v))
    return tuple(out)


def solve(a, b, ncols: int) -> tuple[tuple[int, ...], ...] | None:
    """One X with a @ X = b mod P (free variables set to 0), or None; `a`
    has `ncols` columns, and its rows are sparse or dense as in `rref`.  X
    is as wide as the rows of b, so it has no columns when b has no rows."""
    aug = []
    for ra, rb in zip(a, b):
        row = dict(ra) if isinstance(ra, dict) else {c: v for c, v in enumerate(ra) if v}
        row.update((ncols + j, v) for j, v in enumerate(rb) if v)
        aug.append(row)
    piv = rref(aug)
    if any(c >= ncols for c in piv):
        return None
    k = len(b[0]) if b else 0
    x = [[0] * k for _ in range(ncols)]
    for c, row in piv.items():
        for j, v in row.items():
            if j >= ncols:
                x[c][j - ncols] = v
    return tuple(map(tuple, x))
