"""The working prime field F_P in plain integers.

`_kernels` reduces numpy matrices over this field.  The layers that load no
numpy (the preprojective algebra in `higgs`) do their linear algebra here:
sparse rows as dicts {column: coefficient}, and small dense blocks as
lists of int rows.
"""
from __future__ import annotations

P = 32003  # prime; P*P < 2**63 / 8000, so numpy row ops never overflow int64


def _axpy(row: dict, f: int, other) -> None:
    """row -= f * other in place, for sparse rows; zeros are dropped."""
    for k, v in other.items():
        x = (row.get(k, 0) - f * v) % P
        if x:
            row[k] = x
        else:
            row.pop(k, None)


def rref(rows) -> dict[int, dict[int, int]]:
    """Reduced row echelon form of sparse rows, as {pivot column: row}; each
    row is 1 at its pivot, 0 at every other pivot column and 0 before its
    pivot.  The RREF of a matrix is unique, so this is the dense kernel's
    `rref`, row for row."""
    piv: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {c: v % P for c, v in row.items() if v % P}
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


def solve(a: list[list[int]], b: list[list[int]]) -> list[list[int]] | None:
    """X with a X = b for a square matrix a, or None if a is singular."""
    n = len(a)
    aug = [[x % P for x in a[r]] + [x % P for x in b[r]] for r in range(n)]
    for col in range(n):
        sel = next((r for r in range(col, n) if aug[r][col]), None)
        if sel is None:
            return None
        aug[col], aug[sel] = aug[sel], aug[col]
        inv = pow(aug[col][col], -1, P)
        pivot = aug[col] = [x * inv % P for x in aug[col]]
        for r in range(n):
            f = aug[r][col]
            if r != col and f:
                aug[r] = [(x - f * y) % P for x, y in zip(aug[r], pivot)]
    return [row[n:] for row in aug]
