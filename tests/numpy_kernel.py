"""The array row reduction that `quiverlab._kernels` replaced, kept as a
test oracle: Gauss-Jordan elimination mod P on int64 numpy arrays, with
its rank, nullspace, solve and matrix product.  Entries of reduced
matrices stay below P, so every product of two fits in int64."""
import numpy as np

from quiverlab._kernels import P


def reduce_mod(a) -> np.ndarray:
    """Coerce to an int64 array with entries reduced into [0, P)."""
    return np.asarray(a, dtype=np.int64) % P


def rref(a) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form mod P; returns (matrix, pivot columns)."""
    a = reduce_mod(a)
    if a.size == 0:
        return a, np.empty(0, dtype=np.int64)
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
        # clears the column everywhere, the pivot row included
        a -= np.multiply.outer(a[:, col], pivot_row)
        a %= P
        a[row] = pivot_row
        pivots.append(col)
        row += 1
    return a, np.array(pivots, dtype=np.int64)


def rank(a) -> int:
    return len(rref(a)[1])


def matmul(a, b) -> np.ndarray:
    return (reduce_mod(a) @ reduce_mod(b)) % P


def nullspace(a) -> np.ndarray:
    """Columns form a basis of the right kernel of `a` mod P."""
    a = reduce_mod(a)
    m, n = a.shape
    if m == 0:
        return np.eye(n, dtype=np.int64)
    r, pivots = rref(a)
    free = [c for c in range(n) if c not in set(pivots.tolist())]
    basis = np.zeros((n, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for i, pc in enumerate(pivots):
            basis[int(pc), k] = (-r[i, fc]) % P
    return basis


def solve(a, b) -> np.ndarray | None:
    """One solution x of a @ x = b mod P (free variables set to 0), or None;
    `b` is a matrix."""
    a, b = reduce_mod(a), reduce_mod(b)
    n = a.shape[1]
    r, pivots = rref(np.concatenate([a, b], axis=1))
    if any(int(c) >= n for c in pivots):
        return None
    x = np.zeros((n, b.shape[1]), dtype=np.int64)
    for i, c in enumerate(pivots):
        x[int(c)] = r[i, n:]
    return x
