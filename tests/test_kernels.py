import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverlab import _kernels as K


def rand_matrix(draw, max_dim=6):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    entries = draw(st.lists(st.integers(0, K.P - 1), min_size=m * n, max_size=m * n))
    return np.array(entries, dtype=np.int64).reshape(m, n)


@st.composite
def small_matrices(draw):
    return rand_matrix(draw)


def test_reduce_mod_range():
    a = np.array([[-1, K.P, K.P + 3], [5, -K.P - 2, 0]])
    r = K.reduce_mod(a)
    assert r.dtype == np.int64
    assert ((0 <= r) & (r < K.P)).all()
    assert r[0, 0] == K.P - 1 and r[0, 2] == 3


def test_inv_mod():
    for x in (1, 2, 17, K.P - 1):
        assert (x * K.inv_mod(x)) % K.P == 1
    with pytest.raises(ZeroDivisionError):
        K.inv_mod(0)


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rref_shape_and_pivots(a):
    r, piv = K.rref(a)
    assert r.shape == a.shape
    # pivot columns carry unit vectors
    for row_i, col in enumerate(piv):
        col = int(col)
        assert r[row_i, col] == 1
        others = np.delete(r[:, col], row_i)
        assert not others.any()
    # row space is preserved
    for row in a:
        assert K.row_space_contains(r, row)
    for row in r:
        if row.any():
            assert K.row_space_contains(a, row)


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_nullspace_annihilates(a):
    ns = K.nullspace(a)
    assert ns.shape[0] == a.shape[1]
    assert not (K.reduce_mod(a @ ns)).any()
    assert K.rank(a) + ns.shape[1] == a.shape[1]


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_solve_consistent_system(a):
    rng = np.random.default_rng(int(a.sum()) % 2**31)
    x = rng.integers(0, K.P, a.shape[1])
    b = K.reduce_mod(a @ x)
    sol = K.solve(a, b)
    assert sol is not None
    assert np.array_equal(K.reduce_mod(a @ sol), b)


def test_solve_inconsistent_system():
    a = np.array([[1, 0], [0, 0]], dtype=np.int64)
    b = np.array([0, 1], dtype=np.int64)
    assert K.solve(a, b) is None


def test_matmul_matches_numpy():
    rng = np.random.default_rng(3)
    a = rng.integers(0, K.P, (7, 5))
    b = rng.integers(0, K.P, (5, 4))
    assert np.array_equal(K.matmul(a, b), (a @ b) % K.P)


def test_rank_of_identity_and_zero():
    assert K.rank(np.eye(5, dtype=np.int64)) == 5
    assert K.rank(np.zeros((4, 6), dtype=np.int64)) == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.lists(st.sampled_from([0, 0, 0, 1, 2, K.P - 1, 12345]), min_size=n, max_size=n)))
def test_rref_single_row_matches_general_path(row):
    a = np.array([row], dtype=np.int64)
    fast, fast_piv = K.rref(a)
    slow, slow_piv = K._rref_general(K.reduce_mod(a))
    assert np.array_equal(fast, slow)
    assert np.array_equal(fast_piv, slow_piv)
    assert fast.dtype == slow.dtype == np.int64
    assert fast_piv.dtype == slow_piv.dtype == np.int64
