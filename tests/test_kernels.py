import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy_kernel as NK
from quiverlab import _kernels as K


def rand_matrix(draw, max_dim=6):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    # mostly zeros and small values, so that ranks vary
    entries = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, K.P - 1, 12345]) | st.integers(0, K.P - 1),
                            min_size=m * n, max_size=m * n))
    return tuple(tuple(entries[r * n:(r + 1) * n]) for r in range(m))


@st.composite
def small_matrices(draw):
    return rand_matrix(draw)


def as_array(rows) -> np.ndarray:
    return np.array(rows, dtype=np.int64).reshape(len(rows), -1)


def dense_row(row: dict, ncols: int) -> tuple[int, ...]:
    """A sparse row of `rref` as a dense one of length `ncols`."""
    return tuple(row.get(c, 0) for c in range(ncols))


def dense_rref(a) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """The int kernel's RREF as the oracle shows it: pivot rows in pivot
    order, then zero rows, and the pivot columns."""
    n = len(a[0])
    piv = K.rref(a)
    rows = [dense_row(piv[c], n) for c in sorted(piv)]
    return tuple(rows) + K.zeros(len(a) - len(rows), n), sorted(piv)


def test_reduce_mod_range():
    r = K.as_matrix([[-1, K.P, K.P + 3], [5, -K.P - 2, 0]])
    assert all(type(x) is int and 0 <= x < K.P for row in r for x in row)
    assert r[0] == (K.P - 1, 0, 3) and r[1] == (5, K.P - 2, 0)


def test_inv_mod():
    for x in (1, 2, 17, K.P - 1):
        assert (x * K.inv_mod(x)) % K.P == 1
    with pytest.raises(ZeroDivisionError):
        K.inv_mod(0)


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rref_shape_and_pivots(a):
    n = len(a[0])
    piv = K.rref(a)
    # pivot rows are 1 at their pivot, 0 before it and 0 at every other pivot
    for col, row in piv.items():
        assert row[col] == 1 and min(row) == col
        assert all(row.get(c, 0) == 0 for c in piv if c != col)
        assert all(0 < x < K.P for x in row.values())
    # the row space is preserved
    rows = [dense_row(row, n) for row in piv.values()]
    assert K.rank(list(a) + rows) == K.rank(a) == K.rank(rows) == len(piv)


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_kernel_matches_the_array_elimination(a):
    """The int kernel against the array Gauss-Jordan it replaced: the same
    RREF, nullspace basis, rank and solutions."""
    n = len(a[0])
    want, want_piv = NK.rref(as_array(a))
    got, got_piv = dense_rref(a)
    assert got == tuple(map(tuple, want.tolist())) and got_piv == want_piv.tolist()
    assert K.rank(a) == NK.rank(as_array(a))
    assert K.nullspace(a, n) == tuple(map(tuple, NK.nullspace(as_array(a)).T.tolist()))
    b = tuple((x, (3 * x + 1) % K.P) for x in range(len(a)))
    x = NK.solve(as_array(a), as_array(b))
    got = K.solve(a, b, n)
    assert got == (None if x is None else tuple(map(tuple, x.tolist())))


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_nullspace_annihilates(a):
    n = len(a[0])
    ns = K.nullspace(a, n)
    assert all(len(v) == n for v in ns)
    assert not any(map(any, K.matmul(a, K.transpose(ns, n), len(ns))))
    assert K.rank(a) + len(ns) == n


@settings(max_examples=60, deadline=None)
@given(small_matrices(), st.randoms(use_true_random=False))
def test_solve_consistent_system(a, rng):
    n = len(a[0])
    x = tuple((rng.randrange(K.P),) for _ in range(n))
    b = K.matmul(a, x)
    sol = K.solve(a, b, n)
    assert sol is not None and len(sol) == n
    assert K.matmul(a, sol) == b


def test_solve_inconsistent_system():
    a = ((1, 0), (0, 0))
    b = ((0,), (1,))
    assert K.solve(a, b, 2) is None


def test_matmul_matches_numpy():
    rng = np.random.default_rng(3)
    a = rng.integers(0, K.P, (7, 5))
    b = rng.integers(0, K.P, (5, 4))
    got = K.matmul(K.as_matrix(a), K.as_matrix(b))
    assert got == tuple(map(tuple, ((a @ b) % K.P).tolist()))
    # a product through no rows is the zero matrix of the given width
    assert K.matmul(K.zeros(3, 0), (), 4) == K.zeros(3, 4)


def test_rank_of_identity_and_zero():
    assert K.rank(K.identity(5)) == 5
    assert K.rank(K.zeros(4, 6)) == 0
    assert K.nullspace((), 3) == K.identity(3)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.lists(st.sampled_from([0, 0, 0, 1, 2, K.P - 1, 12345]), min_size=n, max_size=n)))
def test_rref_single_row_matches_general_path(row):
    want, want_piv = NK.rref(np.array([row], dtype=np.int64))
    got, got_piv = dense_rref((tuple(row),))
    assert got == tuple(map(tuple, want.tolist())) and got_piv == want_piv.tolist()


@settings(max_examples=40, deadline=None)
@given(small_matrices())
def test_rref_extends_an_echelon_form(a):
    """Rows added to an echelon form give the RREF of all rows at once."""
    piv = K.rref(a[:1])
    for row in a[1:]:
        assert K.rref([row], piv) is piv
    assert piv == K.rref(a)


def test_what_the_benchmark_reads():
    # the set-up probe prints BACKEND as one token; the tracer wraps rref
    assert isinstance(K.BACKEND, str) and K.BACKEND and K.BACKEND.split() == [K.BACKEND]
    assert callable(K.rref) and K.rref([(0, 2)]) == {1: {1: 1}}
