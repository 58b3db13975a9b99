"""Exact linear algebra over a fixed prime field.

Everything in this package that needs ranks, kernels or solutions of linear
systems works over F_P for a fixed word-sized prime P.  The prime is large
enough that the generic constructions used elsewhere (random Frobenius
functionals, generic solutions picked from solution spaces) behave like
characteristic zero at the dimensions that occur here, while every
intermediate product of two reduced entries stays far inside int64.

Matrices are int64 numpy arrays with entries in [0, P).  One pure numpy
row-reduction kernel, `rref`, does the work; `rank`, `nullspace`, `solve`
and `row_space_contains` all reach it.  Most matrices met here are small
(E8 `mpr` reduces none with more than 8 rows or 12 columns, and about half
of its reductions are single rows), so the per-call overhead matters more
than the asymptotics.
"""
from __future__ import annotations

import numpy as np

BACKEND = "numpy"  # the only row-reduction backend; reported by benchmarks
P = 32003  # prime; P*P < 2**63 / 8000, so row ops never overflow int64


def reduce_mod(a) -> np.ndarray:
    """Coerce to an int64 array with entries reduced into [0, P)."""
    return np.asarray(a, dtype=np.int64) % P


def inv_mod(x: int) -> int:
    x = int(x) % P
    if x == 0:
        raise ZeroDivisionError("inverse of 0 mod P")
    return pow(x, -1, P)


def _rref_single_row(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_rref_general` on a 1 x n matrix: scale by the first nonzero entry."""
    nz = a[0].nonzero()[0]
    if nz.size == 0:
        return a, np.empty(0, dtype=np.int64)
    col = int(nz[0])
    return (a * pow(int(a[0, col]), -1, P)) % P, np.array([col], dtype=np.int64)


def _rref_general(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan elimination on a reduced matrix, which it overwrites."""
    m, n = a.shape
    pivots = []
    row = 0
    for col in range(n):
        if row == m:
            break
        nz = a[row:, col].nonzero()[0]
        if nz.size == 0:
            continue
        sel = row + int(nz[0])
        if sel != row:
            a[[row, sel]] = a[[sel, row]]
        pivot_row = (a[row] * pow(int(a[row, col]), -1, P)) % P
        # clears the column everywhere, the pivot row included; entries stay
        # above -P*P, far inside int64
        a -= np.multiply.outer(a[:, col], pivot_row)
        a %= P
        a[row] = pivot_row
        pivots.append(col)
        row += 1
    return a, np.array(pivots, dtype=np.int64)


def rref(a) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form mod P; returns (matrix, pivot columns)."""
    a = reduce_mod(a)  # always a fresh array, so the callee may overwrite it
    if a.size == 0:
        return a, np.empty(0, dtype=np.int64)
    if a.shape[0] == 1:
        return _rref_single_row(a)
    return _rref_general(a)


def rank(a) -> int:
    a = reduce_mod(a)
    if a.size == 0:
        return 0
    return len(rref(a)[1])


def matmul(a, b) -> np.ndarray:
    a = reduce_mod(a)
    b = reduce_mod(b)
    return (a @ b) % P


def matmul_reduced(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`matmul` for int64 arrays whose entries already lie in [0, P), such as
    the maps of a `reps.Rep`: skips reducing the factors again."""
    return (a @ b) % P


def nullspace(a) -> np.ndarray:
    """Columns form a basis of the right kernel of `a` mod P."""
    a = reduce_mod(a)
    m, n = a.shape
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if m == 0:
        return np.eye(n, dtype=np.int64)
    r, pivots = rref(a)
    pivset = set(int(c) for c in pivots)
    free = [c for c in range(n) if c not in pivset]
    basis = np.zeros((n, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for i, pc in enumerate(pivots):
            basis[int(pc), k] = (-r[i, fc]) % P
    return basis


def solve(a, b) -> np.ndarray | None:
    """One solution x of a @ x = b mod P (free variables set to 0), or None.

    `b` may be a vector or a matrix; the result matches its shape.
    """
    a = reduce_mod(a)
    b = reduce_mod(b)
    vector = b.ndim == 1
    m, n = a.shape
    bb = b.reshape(m, 1) if vector else b
    if bb.shape[0] != m:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    k = bb.shape[1]
    if m == 0:
        x = np.zeros((n, k), dtype=np.int64)
        return x[:, 0] if vector else x
    if n == 0:
        if np.any(bb % P):
            return None
        x = np.zeros((0, k), dtype=np.int64)
        return x[:, 0] if vector else x
    aug = np.concatenate([a, bb], axis=1)
    r, pivots = rref(aug)
    if any(int(c) >= n for c in pivots):
        return None
    x = np.zeros((n, k), dtype=np.int64)
    for i, c in enumerate(pivots):
        x[int(c)] = r[i, n:]
    return x[:, 0] if vector else x


def row_space_contains(a, v) -> bool:
    """Whether vector v lies in the row space of a (mod P)."""
    a = reduce_mod(a)
    v = reduce_mod(v).reshape(1, -1)
    return rank(np.concatenate([a, v], axis=0)) == rank(a)
