"""The in-process memos: shared objects are read-only, labels map to one
object each, and `quiverlab.clear_caches` empties every memo without
changing any result.  Every memo is a module function, so clearing one
frees what it built, and the tables that algebras, functors and quivers
hold in place of memoized methods match the scans they replace."""

import gc
import importlib
import itertools
import re
import weakref

import pytest

import quiverlab
from quiverlab import _kernels as K
from quiverlab import boundary, cli
from quiverlab import complexes as cx
from quiverlab import dynkin
from quiverlab import higgs as hg
from quiverlab import lifting as lf
from quiverlab import morphcat as mp
from quiverlab import reps
from quiverlab.dynkin import DynkinType, build_quiver, coxeter_number
from quiverlab.errors import GuardError, InternalCheckError
from quiverlab.stalks import IndecLabel, e_exponent
from tests.test_higgs import word_end
from tests.test_stalks import ORACLE_TYPES


def test_projective_rep_maps_are_read_only():
    q = build_quiver("A3")
    P = reps.projective_rep(q, 3)
    assert P is reps.projective_rep(q, 3)
    m = P.map((2, 3))
    assert m == ((1,),)
    # matrices are tuples of int rows
    with pytest.raises(TypeError):
        m[0][0] = 5
    assert reps.projective_rep(q, 3).map((2, 3)) == ((1,),)


def test_canonical_morphism_matrices_are_read_only():
    q = build_quiver("D4")
    f = reps.canonical_projective_morphism(q, 1, 2)
    assert f is reps.canonical_projective_morphism(q, 1, 2)
    with pytest.raises(TypeError):
        f.mat(1)[0][0] = 7
    g = reps.canonical_injective_morphism(q, 1, 2)
    with pytest.raises(TypeError):
        g.mat(2)[0] = (0,)


def test_presentation_is_shared_and_read_only():
    q = build_quiver("A3")
    lab = mp.MprLabel(q, "mod", 1, 1)
    obj = mp.presentation(lab)
    assert obj is mp.presentation(lab)
    assert mp.presentation(obj) is obj
    # the matrix is int tuples
    with pytest.raises(TypeError):
        obj.mat[0][0] = 3
    assert all(type(row) is tuple for row in obj.mat)


def test_memos_cover_the_new_constructors():
    names = set(quiverlab.memos())
    for fn in ("reps.projective_rep", "reps.injective_rep",
               "reps.canonical_projective_morphism", "reps.canonical_injective_morphism",
               "morphcat._label_presentation", "reps._indec_data", "cli.source_digest",
               "complexes.tau_inv_orbit", "complexes._reachability",
               "stalks.presentation_terms"):
        assert f"quiverlab.{fn}" in names


def test_clear_caches_empties_every_memo_and_keeps_results(capsys):
    argv = ["mpr", "--type", "E8", "--format", "json"]
    assert cli.main(argv) == 0
    before = capsys.readouterr().out
    assert sum(m.cache_info().currsize for m in quiverlab.memos().values()) > 0
    quiverlab.clear_caches()
    sizes = {name: m.cache_info().currsize for name, m in quiverlab.memos().items()}
    assert sizes and not any(sizes.values()), sizes
    assert "quiverlab.complexes.tau_inv_orbit" in sizes and "quiverlab.complexes._reachability" in sizes
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == before
    # fresh objects after the clear, equal to the old ones
    q = build_quiver("E8")
    assert reps.projective_rep(q, 2).map((1, 2)) == ((1,),)


def test_shared_objects_cannot_be_rebound():
    q = build_quiver("A3")
    with pytest.raises(TypeError):
        reps.projective_rep(q, 3).maps[(1, 2)] = K.zeros(1, 1)
    with pytest.raises(TypeError):
        reps.canonical_projective_morphism(q, 1, 3).mats[0] = K.zeros(1, 1)


def test_equal_quivers_share_hash_and_memo_entries():
    a, b = build_quiver("D5"), build_quiver("D5", "1->2 2->3 3->4 3->5")
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != build_quiver("D5", "2->1 2->3 3->4 3->5")
    assert build_quiver("A3") < a  # ordering stays field by field
    reps.projective_rep.cache_clear()
    P = reps.projective_rep(a, 2)
    assert reps.projective_rep(b, 2) is P
    info = reps.projective_rep.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_orbit_and_reachability_arrays_are_read_only():
    q = build_quiver("D5")
    R = cx._reachability(q)
    assert R is cx._reachability(q)
    with pytest.raises(TypeError):
        R[0][0] = False
    C = cx.tau_inv_orbit(q, 1, 2)
    assert C is cx.tau_inv_orbit(q, 1, 2) and C.diffs
    for m in C.diffs.values():
        with pytest.raises(TypeError):
            m[0][0] = 1
    # the memo holds one lap past the window, no further
    last = e_exponent(q, 1) + coxeter_number(q.dtype) - 1
    cx.tau_inv_orbit(q, 1, last)
    with pytest.raises(GuardError):
        cx.tau_inv_orbit(q, 1, last + 1)


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_repeated_gamma_hom_minimizes_one_lap(monkeypatch):
    q = build_quiver("D4")
    h = coxeter_number(q.dtype)
    quiverlab.clear_caches()
    calls = _counting(monkeypatch, cx, "minimize")
    x, y = IndecLabel(q, 2, 0), IndecLabel(q, 2, 1)
    first = [boundary.gamma_hom(i, x, j, y) for i in (-1, 0, 1) for j in (-1, 0, 1)]
    again = [boundary.gamma_hom(i, x, j, y) for i in (-1, 0, 1) for j in (-1, 0, 1)]
    assert first == again
    assert 0 < len(calls) <= h + 1


def test_mpr_builds_no_matrix_translates(monkeypatch):
    q = build_quiver("E8")
    quiverlab.clear_caches()
    calls = _counting(monkeypatch, reps, "tau_inv_rep")
    assert len(mp.mpr_ar_quiver(q).meshes) == 120
    assert calls == []


def _algebra_arrays(q):
    alg = hg.preprojective_algebra(q)
    return [alg.products, alg.theta, alg.frobenius]


def _functor_arrays(q):
    F = cx.tau_inv_functor(q)
    lifts = [m for u in q.vertices for w in q.vertices if q.has_path(u, w)
             for m in F.lift_path(u, w)]
    return [*F.G.values(), *F._X.values(), *F._Y.values(), *lifts]


def _phi_table_arrays(q):
    return [entries for *_, entries in lf._phi_table(q)]


@pytest.mark.parametrize("arrays", [_algebra_arrays, _functor_arrays, _phi_table_arrays])
def test_memoized_algebra_functor_and_phi_arrays_are_read_only(arrays):
    got = arrays(build_quiver("D5"))
    assert got
    for m in got:
        # matrices and the algebra's tables are tuples and mapping proxies
        with pytest.raises(TypeError):
            m[...] = 0


def _used_algebra(q):
    alg = hg.preprojective_algebra(q)
    assert alg.block_indices(1, 2) and alg.module_indices(1)
    return alg, hg.preprojective_algebra


def _used_functor(q):
    F = cx.tau_inv_functor(q)
    assert F.lift_path(1, 2)
    return F, cx.tau_inv_functor


@pytest.mark.parametrize("build", [_used_algebra, _used_functor])
def test_clearing_its_memo_frees_an_algebra_or_functor(build):
    quiverlab.clear_caches()
    obj, memo = build(build_quiver("D5"))
    ref = weakref.ref(obj)
    del obj
    memo.cache_clear()
    gc.collect()
    assert ref() is None


def test_a_lift_leaves_its_algebra_to_the_algebra_memo():
    quiverlab.clear_caches()
    q = build_quiver("A3")
    lab = mp.mpr_indecomposables(q)[-1]
    f = hg.phi_image(lab)
    assert lf.lift_morphism(f).labels == (lab,)
    ref = weakref.ref(f.alg)
    del f
    hg.preprojective_algebra.cache_clear()
    gc.collect()
    assert ref() is None


def test_every_memo_is_a_module_function():
    for name in (*quiverlab._SUBMODULES, "cli"):
        importlib.import_module(f"quiverlab.{name}")
    names = quiverlab.memos()
    assert names and all(re.fullmatch(r"quiverlab\.\w+\.\w+", n) for n in names), sorted(names)


def _recursive_order(q):
    """The topological order as `Quiver.topological_order` once computed it."""
    order, seen, pending = [], set(), sorted(q.vertices)
    while pending:
        for v in list(pending):
            if all(u in seen for u, _ in q.arrows_into(v)):
                order.append(v)
                seen.add(v)
                pending.remove(v)
    return tuple(order)


def _recursive_path(q, u, w):
    """The directed path u -> ... -> w by recursion over the arrows out of u."""
    if u == w:
        return (u,)
    for _, x in q.arrows_from(u):
        rest = _recursive_path(q, x, w)
        if rest is not None:
            return (u,) + rest
    return None


@pytest.mark.parametrize("t", ORACLE_TYPES)
def test_walks_match_the_recursion_on_every_orientation(t):
    edges = DynkinType.parse(t).edges
    for flips in itertools.islice(itertools.product((False, True), repeat=len(edges)), 256):
        q = build_quiver(t, [(j, i) if f else (i, j) for (i, j), f in zip(edges, flips)])
        order, paths = dynkin._walks(q)
        assert order == q.topological_order() == _recursive_order(q)
        for u, w in itertools.product(q.vertices, repeat=2):
            want = _recursive_path(q, u, w)
            assert paths.get((u, w)) == q.path_vertices(u, w) == want
            assert q.has_path(u, w) == (want is not None)


@pytest.mark.parametrize("t", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"])
def test_index_tables_and_path_lifts_match_a_direct_scan(t):
    q = build_quiver(t)
    alg = hg.preprojective_algebra(q)
    words = range(alg.dim)
    for i in q.vertices:
        assert alg.module_indices(i) == tuple(k for k in words if word_end(alg, k) == i)
        for j in q.vertices:
            assert alg.block_indices(i, j) == tuple(
                k for k in words if alg.word_start(k) == i and word_end(alg, k) == j)
    F = cx.tau_inv_functor(q)
    for u, w in itertools.product(q.vertices, repeat=2):
        path = q.path_vertices(u, w)
        if path is None:
            with pytest.raises(InternalCheckError):
                F.lift_path(u, w)
            continue
        X, Y = K.identity(len(F.S[u])), K.identity(len(F.W[u]))
        for a in zip(path, path[1:]):
            X, Y = K.matmul(F._X[a], X, len(F.S[u])), K.matmul(F._Y[a], Y, len(F.W[u]))
        assert F.lift_path(u, w) == (X, Y)
