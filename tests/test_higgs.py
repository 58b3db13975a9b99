"""Tests for the self-injective algebra layer: the relation-quotient path
algebra, its Nakayama twist, the six-block triangular algebra, block
morphisms, the presentation functor, and lifting back to labels.  The dense
build that the sparse structure constants replaced is the oracle here,
on the types where its dim^3 table fits (through D8 and E6)."""

import functools
import io
import itertools
import json
import random

import numpy as np
import pytest

import numpy_kernel as NK
import quiverlab
from quiverlab import _kernels as K
from quiverlab import cli
from quiverlab import dynkin as dy
from quiverlab import higgs as hg
from quiverlab import lifting as lf
from quiverlab import morphcat as mc
from quiverlab import reps
from quiverlab.errors import GuardError, InternalCheckError
from tests.test_morphcat import _default_and_reversed
from tests.test_stalks import ORACLE_TYPES, _opposite_quivers, _oracle_quivers

LAMBDA_DIMS = {"A1": 1, "A2": 4, "A3": 10, "A4": 20, "D4": 28}
# the types whose dense dim^3 multiplication table fits in memory (D8: 175 MB)
DENSE_TYPES = [t for t in ORACLE_TYPES if t not in ("E7", "E8")]


def alg_for(t: str) -> hg.PreprojAlgebra:
    return hg.preprojective_algebra(dy.build_quiver(t))


def unit(alg: hg.PreprojAlgebra, v: int) -> dict:
    """The idempotent at v as a sparse element."""
    return {alg.e_index[v]: 1}


def word_end(alg: hg.PreprojAlgebra, k: int) -> int:
    """The vertex where basis word k ends, read off its last arrow."""
    s, w = alg.basis[k]
    return alg.darrows[w[-1]][1] if w else s


def path_string(alg: hg.PreprojAlgebra, k: int) -> str:
    """Basis word k as the vertex walk that the command line reads and
    prints, e.g. "1-2-3"."""
    s, w = alg.basis[k]
    return "-".join(map(str, (s, *(alg.darrows[a][1] for a in w))))


def phi_json(f: hg.LambdaMorphism) -> dict:
    """A block morphism in the form that `higgs --phi` prints: each entry
    lists its terms as [walk, coefficient], in increasing basis index."""
    return {"p1": list(f.p1), "p0": list(f.p0),
            "matrix": [[[[path_string(f.alg, k), c] for k, c in terms] for terms in row]
                       for row in f.entries]}


def dense(alg: hg.PreprojAlgebra, x) -> np.ndarray:
    """A sparse element (a map or pairs) as a coefficient vector."""
    out = np.zeros(alg.dim, dtype=np.int64)
    for k, c in dict(x).items():
        out[k] = c % K.P
    return out


def terms(vec) -> tuple:
    """A coefficient vector as the sorted (index, coefficient) terms that
    `mult` and `apply_theta` return."""
    return tuple((k, int(c)) for k, c in enumerate(np.asarray(vec) % K.P) if c)


def random_element(alg: hg.PreprojAlgebra, rng, size: int | None = None) -> dict:
    """A random element as a sparse map: coefficients in [1, P) on `size`
    random basis words, or on every basis word."""
    if size is None or size >= alg.dim:
        words = range(alg.dim)
    else:
        words = rng.choice(alg.dim, size, replace=False).tolist()
    return {int(k): int(rng.integers(1, K.P)) for k in words}


def dense_algebra(q):
    """The dense build that the sparse structure constants replaced: the
    basis words degree by degree from numpy row reductions, and the
    multiplication table, table[i, j] = b_i * b_j as a coefficient vector.
    Returns the doubled arrows, the basis and the table."""
    P = K.P
    darrows = [d for i, j in q.arrows for d in ((i, j), (j, i))]
    verts = q.vertices
    basis = [(v, ()) for v in verts]
    ends = list(verts)
    last = []
    layers = [range(len(verts))]
    step = {}
    while True:
        prev = layers[-1]
        below = layers[-2] if len(layers) > 1 else range(0)
        cands = [(p, a) for p in prev for a, (s, _) in enumerate(darrows) if s == ends[p]]
        col = {c: k for k, c in enumerate(cands)}
        rel = np.zeros((len(below), len(cands)), dtype=np.int64)
        for r, b in enumerate(below):
            for a, (s, _) in enumerate(darrows):
                if s == ends[b]:
                    sign = 1 if a % 2 == 0 else -1
                    for u, c in zip(prev, step[(b, a)]):
                        if c:
                            rel[r, col[(u, a ^ 1)]] += sign * c
        rr, pivots = NK.rref(rel)
        piv = set(pivots.tolist())
        keep = [k for k in range(len(cands)) if k not in piv]
        if not keep:
            break
        red = np.eye(len(cands), dtype=np.int64)[:, keep]
        for r, p in enumerate(pivots):
            red[p] = -rr[r, keep] % P
        base = len(basis)
        for k in keep:
            p, a = cands[k]
            basis.append((basis[p][0], basis[p][1] + (a,)))
            ends.append(darrows[a][1])
            last.append((p, a))
        step.update(zip(cands, red))
        layers.append(range(base, len(basis)))
    dim = len(basis)
    right = np.zeros((len(darrows), dim, dim), dtype=np.int64)
    for (p, a), vec in step.items():
        nxt = layers[len(basis[p][1]) + 1]
        right[a, p, nxt.start : nxt.stop] = vec
    ending = {v: [i for i in range(dim) if ends[i] == v] for v in verts}
    table = np.zeros((dim, dim, dim), dtype=np.int64)
    for j, v in enumerate(verts):
        table[ending[v], j, ending[v]] = 1
    for j, (p, a) in enumerate(last, start=len(verts)):
        rows, at = ending[basis[j][0]], ending[darrows[a][0]]
        table[rows, j] = table[rows, p][:, at] @ right[a, at] % P
    return darrows, basis, table


def dense_walk(darrows, basis, table, verts) -> np.ndarray:
    """The product of the doubled arrows along a walk, read off the table."""
    out = np.zeros(len(basis), dtype=np.int64)
    out[basis.index((verts[0], ()))] = 1
    for a, b in zip(verts, verts[1:]):
        out = out @ table[:, basis.index((a, (darrows.index((a, b)),)))] % K.P
    return out


# ---------------------------------------------------------------------------
# the algebra itself


def test_dimension_table():
    for t, d in LAMBDA_DIMS.items():
        assert alg_for(t).dim == d


def test_max_degree_is_coxeter_number_minus_two():
    for t in LAMBDA_DIMS:
        assert alg_for(t).max_degree == dy.coxeter_number(t) - 2


def test_a2_basis_paths():
    alg = alg_for("A2")
    assert [path_string(alg, i) for i in range(alg.dim)] == ["1", "2", "1-2", "2-1"]
    assert alg.e_index == {1: 0, 2: 1}


def test_left_projective_bases():
    alg = alg_for("A2")
    assert [path_string(alg, i) for i in alg.module_indices(1)] == ["1", "2-1"]
    assert [path_string(alg, i) for i in alg.module_indices(2)] == ["2", "1-2"]


def test_module_indices_partition_basis():
    for t in ("A2", "A3", "D4"):
        alg = alg_for(t)
        seen = sorted(k for v in alg.quiver.vertices for k in alg.module_indices(v))
        assert seen == list(range(alg.dim))


def test_block_indices_partition_basis():
    alg = alg_for("A3")
    seen = sorted(
        k
        for i in alg.quiver.vertices
        for j in alg.quiver.vertices
        for k in alg.block_indices(i, j)
    )
    assert seen == list(range(alg.dim))


def test_unit_laws():
    alg = alg_for("A3")
    table = dense_algebra(alg.quiver)[2]
    total = {alg.e_index[v]: 1 for v in alg.quiver.vertices}
    rng = np.random.default_rng(0)
    for x in (random_element(alg, rng), random_element(alg, rng, 3)):
        assert alg.mult(total, x) == alg.mult(x, total) == tuple(sorted(x.items()))
        # e_v picks out the paths starting at v
        ex = alg.mult(unit(alg, 1), x)
        assert ex == terms(table_contraction_mult(table, dense(alg, unit(alg, 1)), dense(alg, x)))
        assert all(alg.word_start(i) == 1 for i, _ in ex)
    # orthogonal idempotents
    assert alg.mult(unit(alg, 1), unit(alg, 2)) == ()


def test_two_step_round_trips_vanish():
    # the defining relations make arrow-then-reverse (and reverse-then-arrow)
    # zero in rank 2, where there is only one summand per relation
    alg = alg_for("A2")
    fwd, back = alg.walk((1, 2)), alg.walk((2, 1))
    assert alg.mult(fwd, back) == alg.mult(back, fwd) == ()


def test_mult_associative_random():
    alg = alg_for("A3")
    table = dense_algebra(alg.quiver)[2]
    rng = np.random.default_rng(3)
    for _ in range(12):
        # dense and sparse factors, so both ways through the products are taken
        x, y, z = (random_element(alg, rng, int(rng.integers(1, alg.dim + 1))) for _ in range(3))
        lhs = alg.mult(alg.mult(x, y), z)
        assert lhs == alg.mult(x, alg.mult(y, z))
        xy = table_contraction_mult(table, dense(alg, x), dense(alg, y))
        assert lhs == terms(table_contraction_mult(table, xy, dense(alg, z)))


def test_tree_path_embedding():
    alg = alg_for("A3")
    el = alg.walk(alg.quiver.path_vertices(1, 3))
    assert [(path_string(alg, k), c) for k, c in el.items()] == [("1-2-3", 1)]
    assert alg.quiver.path_vertices(3, 1) is None
    with pytest.raises(GuardError):
        alg.walk((1, 3))


def test_e7_and_e8_render():
    # the dense dim^3 table once refused these types (0.5 GB and 15.3 GB);
    # the sparse structure constants hold them, and every identity object,
    # kill object and projective embeds as its trivial presentation
    for t, dim in (("E7", 399), ("E8", 1240)):
        q = dy.build_quiver(t)
        alg = hg.preprojective_algebra(q)
        assert alg.dim == dim
        for lab in mc.mpr_indecomposables(q):
            if lab.kind == "mod" and lab.power:
                continue
            f = hg.phi_image(lab)
            v = lab.vertex
            want = {"dzero": ((v,), (v,), ((((alg.e_index[v], 1),),),)),
                    "done": ((v,), (), ()), "mod": ((), (v,), ((),))}[lab.kind]
            assert (f.p1, f.p0, f.entries) == want


@pytest.fixture
def drop_memos():
    """Empties every memo after the test, so that the algebras of three
    orientations of a type do not pile up.  Clearing `preprojective_algebra`
    alone would free them, since no other memo holds an algebra; clearing
    every memo drops the smaller tables with them."""
    yield
    quiverlab.clear_caches()


@pytest.mark.parametrize("q", list(_oracle_quivers()))
@pytest.mark.usefixtures("drop_memos")
def test_hilbert_series(q):
    # dim e_i Pi_d e_j = (M_d)_ij, where M_0 = I, M_1 = C and
    # M_d = C M_{d-1} - M_{d-2}; M_{h-1} vanishes
    alg = hg.preprojective_algebra(q)
    n, h = len(q.vertices), dy.coxeter_number(q.dtype)
    C = np.zeros((n, n), dtype=np.int64)
    for i, j in q.arrows:
        C[i - 1, j - 1] = C[j - 1, i - 1] = 1
    M = [np.eye(n, dtype=np.int64), C]
    while len(M) < h:
        M.append(C @ M[-1] - M[-2])
    counts = np.zeros((h, n, n), dtype=np.int64)
    for k, w in enumerate(alg.basis):
        counts[len(w[1]), alg.word_start(k) - 1, word_end(alg, k) - 1] += 1
    for d in range(h):
        assert np.array_equal(counts[d], M[d]), d
    assert alg.dim == n * h * (h + 1) // 6
    assert alg.max_degree == h - 2


def all_words_algebra(q, darrows):
    """The preprojective algebra from every word of the doubled quiver: one
    relation row per (prefix, suffix) pair around each mesh, reduced degree
    by degree.  Returns the basis, the multiplication table and the
    coordinates of every word."""

    def paths(length):
        if length == 0:
            return [(v, ()) for v in q.vertices]
        out = []
        for start, word in paths(length - 1):
            end = darrows[word[-1]][1] if word else start
            out.extend((start, word + (a,)) for a, (s, _) in enumerate(darrows) if s == end)
        return out

    basis, per_degree = [], []
    degree = 0
    while True:
        words = paths(degree)
        if not words:
            break
        index = {w: i for i, w in enumerate(words)}
        rows = []
        for plen in range(degree - 1):
            for ps, pw in paths(plen):
                pe = darrows[pw[-1]][1] if pw else ps
                for ss, sw in paths(degree - plen - 2):
                    if ss != pe:
                        continue
                    row = np.zeros(len(words), dtype=np.int64)
                    for a, (s, _) in enumerate(darrows):
                        if s == pe:
                            row[index[(ps, pw + (a, a ^ 1) + sw)]] += 1 if a % 2 == 0 else -1
                    rows.append(row)
        red = np.eye(len(words), dtype=np.int64)
        keep = list(range(len(words)))
        if rows:
            rr, pivots = NK.rref(np.array(rows))
            keep = [i for i in keep if i not in set(pivots.tolist())]
            for r, p in enumerate(pivots):
                red[p] = -rr[r] % K.P
        if not keep:
            break
        per_degree.append((words, red[:, keep], len(basis)))
        basis.extend(words[i] for i in keep)
        degree += 1
    dim, top = len(basis), degree - 1
    coords = {}
    for words, red, offset in per_degree:
        for w, vec in zip(words, red):
            coords[w] = np.zeros(dim, dtype=np.int64)
            coords[w][offset : offset + len(vec)] = vec
    table = np.zeros((dim, dim, dim), dtype=np.int64)
    for i, (s1, w1) in enumerate(basis):
        e1 = darrows[w1[-1]][1] if w1 else s1
        for j, (s2, w2) in enumerate(basis):
            if s2 == e1 and len(w1) + len(w2) <= top:
                table[i, j] = coords[(s1, w1 + w2)]
    return basis, table, coords


@pytest.mark.parametrize("t", ["A1", "A2", "A3", "A4", "A5", "D4", "D5"])
def test_degree_by_degree_matches_all_words(t):
    alg = alg_for(t)
    basis, table, coords = all_words_algebra(alg.quiver, alg.darrows)
    assert alg.basis == basis
    assert np.array_equal(dense_algebra(alg.quiver)[2], table)
    arrows = [w for w in coords if len(w[1]) == 1]
    assert len(arrows) == len(alg.darrows)
    for w in arrows:
        assert np.array_equal(dense(alg, alg.walk((w[0], alg.darrows[w[1][0]][1]))), coords[w])


@pytest.mark.parametrize("q", list(_oracle_quivers(DENSE_TYPES)))
@pytest.mark.usefixtures("drop_memos")
def test_sparse_constants_match_the_dense_build(q):
    """The same basis, the same product for every pair of basis words, and
    the same phi entries on every label as the dense build gives."""
    alg = hg.preprojective_algebra(q)
    darrows, basis, table = dense_algebra(q)
    assert (alg.darrows, alg.basis) == (darrows, basis)
    i, j, k = np.nonzero(table)
    want = sorted(zip(i.tolist(), j.tolist(), k.tolist(), table[i, j, k].tolist()))
    got = sorted((i, j, k, c) for (i, j), terms in alg.products.items() for k, c in terms)
    assert got == want
    for lab in mc.mpr_indecomposables(q):
        obj, f = mc.presentation(lab), hg.phi_image(lab)
        for r, row in enumerate(obj.mat):
            for c, s in enumerate(row):
                want = np.zeros(alg.dim, dtype=np.int64)
                if s:
                    walk = q.path_vertices(obj.p1[c], obj.p0[r])
                    want = s * dense_walk(darrows, basis, table, walk) % K.P
                assert np.array_equal(dense(alg, f.entries[r][c]), want)


def table_contraction_mult(table, x, y):
    """x * y by contracting the whole structure-constant table with x."""
    left = np.tensordot(np.asarray(x) % K.P, table, axes=(0, 0)) % K.P
    return (np.asarray(y) % K.P) @ left % K.P


@pytest.mark.parametrize("q", list(_oracle_quivers(DENSE_TYPES)))
@pytest.mark.usefixtures("drop_memos")
def test_action_matrices_match_table_contraction(q):
    """The product and the action matrices of `lifting` against the table:
    dense pairs, then a sparse factor on either side."""
    alg = hg.preprojective_algebra(q)
    table = dense_algebra(q)[2]
    words = range(alg.dim)
    rng = np.random.default_rng(5)
    for size in (None,) * 6 + (3,):
        x, y = random_element(alg, rng, size), random_element(alg, rng)
        for x, y in ((x, y), (y, x)) if size else ((x, y),):
            want = table_contraction_mult(table, dense(alg, x), dense(alg, y))
            assert alg.mult(x, y) == terms(want)
            left = lf._action(alg, tuple(x.items()), words, words, left=True)
            right = lf._action(alg, tuple(y.items()), words, words, left=False)
            assert np.array_equal(NK.matmul(left, dense(alg, y)), want)
            assert np.array_equal(NK.matmul(right, dense(alg, x)), want)


# ---------------------------------------------------------------------------
# the Nakayama twist and the socle form


def test_socle_form_supported_in_top_degree():
    for t in ("A2", "A3"):
        alg = alg_for(t)
        for i in np.nonzero(alg.frobenius)[0]:
            assert len(alg.basis[int(i)][1]) == alg.max_degree


def test_socle_form_adjunction():
    # f(xy) == f(y * theta(x)) is the defining property of the twist; the
    # products are the table's
    for t in ("A2", "A3"):
        alg = alg_for(t)
        table = dense_algebra(alg.quiver)[2]
        rng = np.random.default_rng(7)
        for _ in range(16):
            x, y = random_element(alg, rng), random_element(alg, rng)
            lhs = table_contraction_mult(table, dense(alg, x), dense(alg, y))
            rhs = table_contraction_mult(table, dense(alg, y), dense(alg, alg.apply_theta(x)))
            assert int(lhs @ alg.frobenius % K.P) == int(rhs @ alg.frobenius % K.P)


def test_twist_permutes_idempotents():
    for t in ("A2", "A3", "D4"):
        alg = alg_for(t)
        for v in alg.quiver.vertices:
            assert alg.apply_theta(unit(alg, v)) == ((alg.e_index[alg.star[v]], 1),)


def test_twist_is_an_involution_on_a2():
    alg = alg_for("A2")
    rng = np.random.default_rng(11)
    for _ in range(8):
        x = random_element(alg, rng, int(rng.integers(1, alg.dim + 1)))
        assert alg.apply_theta(alg.apply_theta(x)) == tuple(sorted(x.items()))


def test_twist_multiplicative():
    # theta(x y) == theta(x) theta(y), the products being the table's
    alg = alg_for("A3")
    table = dense_algebra(alg.quiver)[2]
    rng = np.random.default_rng(13)
    for _ in range(8):
        x, y = random_element(alg, rng), random_element(alg, rng)
        xy = terms(table_contraction_mult(table, dense(alg, x), dense(alg, y)))
        tx, ty = dense(alg, alg.apply_theta(x)), dense(alg, alg.apply_theta(y))
        assert alg.apply_theta(xy) == terms(table_contraction_mult(table, tx, ty))


def test_socle_weights_follow_vertex_involution():
    # top-degree paths ending at v must start at v*, so each left projective
    # has simple socle with the twisted weight
    for t in ("A2", "A3", "D4"):
        alg = alg_for(t)
        for i in range(alg.dim):
            if len(alg.basis[i][1]) == alg.max_degree:
                assert alg.word_start(i) == alg.star[word_end(alg, i)]


# ---------------------------------------------------------------------------
# the six-block triangular algebra


def test_block_algebra_total_dims():
    for t, d in (("A1", 1), ("A2", 4), ("A3", 10)):
        tq = lf.tq_algebra(dy.build_quiver(t))
        assert tq.total_dim == 6 * d == 6 * tq.algebra.dim


def test_block_pattern_products():
    tq = lf.tq_algebra(dy.build_quiver("A2"))
    d = tq.algebra.dim
    x = dict.fromkeys(range(d), 1)
    # composable within the pattern
    assert tq.block_product((0, 0), x, (0, 2), x) is not None
    # inner indices mismatch
    assert tq.block_product((1, 1), x, (0, 0), x) is None
    # composable but the target block is outside the pattern
    assert tq.block_product((2, 1), x, (1, 0), x) is None


def test_nakayama_permutation_a2_fixture():
    tq = lf.tq_algebra(dy.build_quiver("A2"))
    assert tq.nakayama_permutation() == {
        (0, 1): (1, 2),
        (0, 2): (1, 1),
        (1, 1): (2, 2),
        (1, 2): (2, 1),
        (2, 1): (0, 2),
        (2, 2): (0, 1),
    }


def test_nakayama_orders():
    for t, n in (("A1", 3), ("A2", 6), ("A3", 6)):
        assert lf.tq_algebra(dy.build_quiver(t)).nakayama_order() == n


# every type but E7 and E8, whose socle chase takes 10 s and more
NAKAYAMA_TYPES = [t for t in ORACLE_TYPES if t not in ("E7", "E8")]


@functools.cache
def _nakayama(t: str):
    """The block algebra of a type and its Nakayama permutation, computed
    once for the tests that read it."""
    tq = lf.tq_algebra(dy.build_quiver(t))
    return tq, tq.nakayama_permutation()


@pytest.mark.parametrize("t", NAKAYAMA_TYPES)
def test_nakayama_order_is_the_omega_order(t, monkeypatch):
    # two independent routes to the cyclic symmetry: the socle chase in the
    # block algebra, and the rotation omega of the frozen labels
    tq, perm = _nakayama(t)
    # `nakayama_order` reads the permutation already computed by `_nakayama`
    monkeypatch.setattr(tq, "nakayama_permutation", lambda: perm)
    assert tq.nakayama_order() == mc.omega_order(tq.quiver)


def test_nakayama_cubed_is_the_vertex_involution():
    for t in NAKAYAMA_TYPES:
        tq, perm = _nakayama(t)
        star = tq.algebra.star
        for (r, v) in perm:
            cur = (r, v)
            for _ in range(3):
                cur = perm[cur]
            assert cur == (r, star[v])


# ---------------------------------------------------------------------------
# the degree-shift symmetry on frozen labels


def test_omega_three_step_chain():
    q = dy.build_quiver("A2")
    e1 = mc.MprLabel(q, "done", 1, 0)
    chain = [e1]
    for _ in range(3):
        chain.append(mc.omega_action(chain[-1]))
    assert [str(x) for x in chain] == ["E(1)", "Z(1)", "M(P1)", "E(2)"]


def test_omega_orbit_and_order():
    # the vertex involution is trivial exactly on these diagrams
    trivial = {"A1", "D4", "D6", "D8", "E7", "E8"}
    for t in ORACLE_TYPES:
        q = dy.build_quiver(t)
        star = dy.nakayama_involution(q)
        assert all(star[v] == v for v in q.vertices) == (t in trivial)
        n = 3 if t in trivial else 6
        assert mc.omega_order(q) == n
        frozen = {mc.MprLabel(q, kind, v) for v in q.vertices for kind in ("mod", "dzero", "done")}
        covered = set()
        for lab in sorted(frozen):
            if lab in covered:
                continue
            orbit = mc.omega_orbit(lab)
            assert len(set(orbit)) == len(orbit) and n % len(orbit) == 0
            assert mc.omega_action(orbit[-1]) == orbit[0]
            # the orbits of the 3n frozen labels partition them
            assert set(orbit) <= frozen and not covered & set(orbit)
            covered |= set(orbit)
        assert covered == frozen


def test_omega_rejects_mutable_labels():
    q = dy.build_quiver("A2")
    with pytest.raises(GuardError):
        mc.omega_action(mc.MprLabel(q, "mod", 1, 1))


# ---------------------------------------------------------------------------
# block morphisms and the presentation functor

A2_PHI_TABLE = {
    # label -> (sources, targets, entry path strings row-major)
    "M(P1)": ((), (1,), []),
    "M(P2)": ((), (2,), []),
    "Z(1)": ((1,), (1,), [["1"]]),
    "M(t-1P1)": ((1,), (2,), [["1-2"]]),
    "E(1)": ((1,), (), []),
    "Z(2)": ((2,), (2,), [["2"]]),
    "E(2)": ((2,), (), []),
}


def a2_images():
    q = dy.build_quiver("A2")
    return {str(l): (l, hg.phi_image(l)) for l in mc.mpr_indecomposables(q)}


def test_phi_image_fixture():
    imgs = a2_images()
    assert set(imgs) == set(A2_PHI_TABLE)
    for name, (p1, p0, paths) in A2_PHI_TABLE.items():
        f = imgs[name][1]
        assert f.p1 == p1 and f.p0 == p0
        got = [[path for path, _ in entry] for row in phi_json(f)["matrix"] for entry in row]
        assert got == paths


def test_phi_images_indecomposable_and_distinct():
    imgs = [f for _, f in a2_images().values()]
    for f in imgs:
        assert lf.is_indecomposable(f)
        assert lf.is_isomorphic(f, f)
    for i, a in enumerate(imgs):
        for b in imgs[i + 1:]:
            assert not lf.is_isomorphic(a, b)


@pytest.mark.parametrize("t", ["A6", "D6"])
def test_phi_images_indecomposable_past_the_old_cap(t):
    for lab in mc.mpr_indecomposables(dy.build_quiver(t)):
        assert lf.is_indecomposable(hg.phi_image(lab))


def _phi_quivers():
    """The 16 types, each in its default, its opposite and one seeded
    orientation."""
    yield from (p for p in _oracle_quivers() if not p.id.endswith("seed2"))
    yield from _opposite_quivers()


@pytest.mark.parametrize("q", list(_phi_quivers()))
@pytest.mark.usefixtures("drop_memos")
def test_quiver_paths_are_basis_words(q):
    # every mesh relation is a sum of terms a a-star, so none touches a path
    # of the quiver: the path walks to one basis word with coefficient 1,
    # spelled by the path's own arrows (the even doubled-arrow indices)
    alg = hg.preprojective_algebra(q)
    for u, w in itertools.product(q.vertices, repeat=2):
        path = q.path_vertices(u, w)
        if path is None:
            continue
        ((k, c),) = alg.walk(path).items()
        arrows = tuple(alg.darrows.index(a) for a in zip(path, path[1:]))
        assert c == 1 and alg.basis[k] == (u, arrows), (u, w)
        assert all(a % 2 == 0 for a in arrows)


@pytest.mark.parametrize("q", list(_phi_quivers()))
@pytest.mark.usefixtures("drop_memos")
def test_phi_json_matches_the_algebra_route(q):
    # `higgs --phi` writes the presentation on quiver paths and builds no
    # algebra; `phi_image` builds the image on the algebra
    for lab, n in mc.mpr_number(q).items():
        out = io.StringIO()
        cli.run(cli.JobSpec("higgs", str(q.dtype), q.arrows, "json", {"op": "phi", "label": n}), out)
        want = {"label": {"id": n, "label": str(lab)}, **phi_json(hg.phi_image(lab))}
        assert json.loads(out.getvalue()) == want, lab


def underlying_matrix(f: hg.LambdaMorphism) -> tuple:
    """The induced linear map on underlying spaces (source basis maps
    through right multiplication by the entries), block by block from
    `lf._action`: the dense reference route for what the lift reads on the
    top."""
    alg = f.alg
    rows = [alg.module_indices(v) for v in f.p0]
    cols = [alg.module_indices(v) for v in f.p1]
    if not rows or not cols:
        return K.zeros(f.target_dim(), f.source_dim())
    out = []
    for r, kr in enumerate(rows):
        blocks = [lf._action(alg, f.entries[r][c], kr, kc, left=False) for c, kc in enumerate(cols)]
        out.extend(sum(parts, ()) for parts in zip(*blocks))
    return tuple(out)


def pair_endomorphism(X: hg.LambdaMorphism, f1, f0) -> tuple:
    """The underlying map [[U1, 0], [0, U0]] of an endomorphism pair
    (f1, f0) of X."""
    d1, d0 = X.source_dim(), X.target_dim()
    U1, U0 = underlying_matrix(f1), underlying_matrix(f0)
    return tuple(row + (0,) * d0 for row in U1) + tuple((0,) * d1 + row for row in U0)


def test_morphism_dims():
    alg = alg_for("A2")
    f = a2_images()["Z(1)"][1]
    assert f.source_dim() == len(alg.module_indices(1))
    assert f.target_dim() == len(alg.module_indices(1))
    U = underlying_matrix(f)
    assert len(U) == f.target_dim() and all(len(row) == f.source_dim() for row in U)


def test_hom_pair_dims_a2():
    imgs = a2_images()
    assert lf.hom_pair_dim(imgs["Z(1)"][1], imgs["Z(1)"][1]) == 1
    assert lf.hom_pair_dim(imgs["M(P1)"][1], imgs["M(P1)"][1]) == 1
    assert lf.hom_pair_dim(imgs["E(1)"][1], imgs["Z(1)"][1]) == 0


def test_entries_outside_their_block_rejected():
    alg = alg_for("A2")
    with pytest.raises(InternalCheckError):
        # the arrow path lives in the (1, 2) block, not (1, 1)
        hg.LambdaMorphism(alg, (1,), (1,), [[alg.walk((1, 2))]])


# ---------------------------------------------------------------------------
# lifting block morphisms back to labels


@pytest.mark.parametrize("t", ["A1", "A2", "A3", "A4"])
def test_lift_inverts_phi_on_labels(t):
    q = dy.build_quiver(t)
    for lab in mc.mpr_indecomposables(q):
        lift = lf.lift_morphism(hg.phi_image(lab))
        assert [str(x) for x in lift.labels] == [str(lab)]
        assert lift.unresolved == ()


def test_simple_module_lifts_to_a_conflation():
    q = dy.build_quiver("A2")
    alg = alg_for("A2")
    # presentation of the vertex-1 simple: projective cover with radical kernel
    f = hg.LambdaMorphism(alg, (2,), (1,), [[alg.walk((2, 1))]])
    lift = lf.lift_morphism(f)
    assert lift.labels == ()
    assert len(lift.unresolved) == 1
    conf = lift.unresolved[0]
    assert [str(x) for x in conf.sub] == ["M(P1)"]
    assert [str(x) for x in conf.quot] == ["E(2)"]
    # and the realization reproduces the morphism up to isomorphism
    assert lf.is_isomorphic(f, lf.realize_lift(q, lift))


def test_realize_round_trips_direct_sums():
    q = dy.build_quiver("A2")
    alg = alg_for("A2")
    labs = list(mc.mpr_indecomposables(q))
    f = lf.direct_sum(alg, [hg.phi_image(l) for l in labs])
    g = lf.realize_lift(q, lf.lift_morphism(f))
    assert lf.is_isomorphic(f, g)


def test_split_summands_recovers_pieces():
    alg = alg_for("A2")
    imgs = a2_images()
    f1 = imgs["M(P1)"][1]
    f2 = imgs["M(t-1P1)"][1]
    parts = lf.split_summands(lf.direct_sum(alg, [f1, f2]))
    assert len(parts) == 2
    hits = sorted(
        (lf.is_isomorphic(p, f1), lf.is_isomorphic(p, f2)) for p in parts
    )
    assert hits == [(False, True), (True, False)]


def test_strip_identity_summands():
    alg = alg_for("A2")
    imgs = a2_images()
    s = lf.direct_sum(alg, [imgs["M(P1)"][1], imgs["Z(1)"][1]])
    reduced, removed = lf.strip_identity_summands(s)
    assert removed == (1,)
    assert reduced.p1 == () and reduced.p0 == (1,)


# five modules, an identity object and a kill object
A4_SUM = ("M(P1)", "Z(1)", "M(t-1P2)", "M(t-2P1)", "E(2)", "M(t-3P1)")


def a4_sum() -> hg.LambdaMorphism:
    labs = {str(l): l for l in mc.mpr_indecomposables(dy.build_quiver("A4"))}
    return lf.direct_sum(alg_for("A4"), [hg.phi_image(labs[name]) for name in A4_SUM])


def test_lift_splits_an_a4_direct_sum():
    f = a4_sum()
    lift = lf.lift_morphism(f)
    # the labels in numbering order, identity summands among them
    assert [str(l) for l in lift.labels] == [
        "M(P1)", "Z(1)", "M(t-1P2)", "M(t-2P1)", "E(2)", "M(t-3P1)"]
    number = mc.mpr_number(f.alg.quiver)
    assert [number[l] for l in lift.labels] == sorted(number[l] for l in lift.labels)
    assert lift.unresolved == ()
    assert lf.is_isomorphic(f, lf.realize_lift(f.alg.quiver, lift))


def test_lift_builds_one_phi_image_per_matched_piece(monkeypatch):
    """Each piece is compared with the phi image of the one label that has
    its terms, never with the images of the others."""
    f = a4_sum()
    built = []

    def counted(lab):
        built.append(str(lab))
        return hg.phi_image(lab)

    monkeypatch.setattr(lf, "phi_image", counted)
    lift = lf.lift_morphism(f)
    # Z(1) splits off as an identity summand and needs no image
    assert sorted(built) == sorted(name for name in A4_SUM if name != "Z(1)")
    assert sorted(str(l) for l in lift.labels) == sorted(A4_SUM)
    # no A2 label has the terms (2) -> (1) of the simple at vertex 1
    built.clear()
    alg = alg_for("A2")
    lift = lf.lift_morphism(hg.LambdaMorphism(alg, (2,), (1,), [[alg.walk((2, 1))]]))
    assert len(lift.unresolved) == 1 and built == []


def test_lift_refuses_labels_that_share_terms(monkeypatch):
    monkeypatch.setattr(mc, "_terms", lambda lab: ((), (lab.vertex,)))
    with pytest.raises(InternalCheckError, match="share their terms"):
        lf.lift_morphism(a4_sum())


def full_pair_endomorphisms(X: hg.LambdaMorphism):
    """The underlying maps of a basis of End(X), built in full from the hom
    pairs: the reference route for everything the lift reads on the top."""
    slots1, slots0, basis = lf._hom_pair_space(X, X)
    return [pair_endomorphism(X, *lf._pair_matrices(X, X, slots1, slots0, vec))
            for vec in basis]


def test_end_corank_matches_traces_of_products():
    """The trace form of the tops has the rank of the dense trace form of
    the underlying maps, one matrix product per pair of endomorphisms."""
    phis = [hg.phi_image(l) for l in mc.mpr_indecomposables(dy.build_quiver("A3"))]
    for X in [a4_sum(), *phis]:
        mats = full_pair_endomorphisms(X)
        G = np.zeros((len(mats), len(mats)), dtype=np.int64)
        for a, A in enumerate(mats):
            for b, B in enumerate(mats):
                G[a, b] = int(np.trace(NK.matmul(A, B))) % K.P
        slots1, slots0, basis = lf._hom_pair_space(X, X)
        assert lf._end_corank([lf._top(X, X, slots1, slots0, vec) for vec in basis]) == NK.rank(G)


def newton_charpoly(M) -> list[int]:
    """Characteristic polynomial (monic, highest first) from Newton's
    identities on the traces of the powers of M."""
    n = len(M)
    A, power, s = np.array(M, dtype=np.int64).reshape(n, n), np.eye(n, dtype=np.int64), [0]
    for _ in range(n):
        power = NK.matmul(power, A)
        s.append(int(np.trace(power)) % K.P)
    c = [1]
    for k in range(1, n + 1):
        c.append(-(s[k] + sum(c[i] * s[k - i] for i in range(1, k))) * K.inv_mod(k) % K.P)
    return c


def test_charpoly_matches_newton_identities():
    """The Faddeev-LeVerrier recurrence against the power traces, on the
    tops of a basis of End of the A4 sum and on random matrices with zero
    blocks, up to 16 x 16."""
    rng = np.random.default_rng(17)
    X = a4_sum()
    slots1, slots0, basis = lf._hom_pair_space(X, X)
    mats = [lf._top(X, X, slots1, slots0, vec) for vec in basis]
    for n in [*range(8), 12, 16]:
        A = rng.integers(0, K.P, (n, n)) * (rng.random((n, n)) < 0.4)
        mats.append(K.as_matrix(A))
    for A in mats:
        assert lf._charpoly_modp(A) == newton_charpoly(A)


def _top_objects():
    """`a4_sum` and every A3 and A4 phi image."""
    yield a4_sum()
    for t in ("A3", "A4"):
        yield from (hg.phi_image(l) for l in mc.mpr_indecomposables(dy.build_quiver(t)))


def _poly_mul(f, g) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % K.P
    return out


def test_charpoly_of_the_underlying_map_factors_through_the_top():
    """charpoly(M) is the product over v of charpoly(T1_v)^dim P_v times
    charpoly(T0_v)^dim P_v, T1_v and T0_v the blocks of the top at the
    summands labelled v: so M and its top share their eigenvalues."""
    rng = random.Random(5)
    for X in _top_objects():
        labels = [(0, v) for v in X.p1] + [(1, v) for v in X.p0]
        slots1, slots0, basis = lf._hom_pair_space(X, X)
        for _ in range(3):
            vec = lf._combination(rng, basis)
            T = lf._top(X, X, slots1, slots0, vec)
            M = pair_endomorphism(X, *lf._pair_matrices(X, X, slots1, slots0, vec))
            want = [1]
            for side, v in sorted(set(labels)):
                idx = [i for i, lab in enumerate(labels) if lab == (side, v)]
                block = newton_charpoly([[T[i][j] for j in idx] for i in idx])
                for _ in X.alg.module_indices(v):
                    want = _poly_mul(want, block)
            assert newton_charpoly(M) == want, X
            assert lf._smallest_root(lf._charpoly_modp(T)) == lf._smallest_root(want)


def test_top_invertibility_is_full_rank_invertibility():
    """On the draws of `is_isomorphic` and on each basis endomorphism, the
    top has full rank exactly when both underlying maps do (Nakayama)."""
    seen = set()
    for X in _top_objects():
        slots1, slots0, basis = lf._hom_pair_space(X, X)
        draws = random.Random(0)
        vecs = [lf._combination(draws, basis) for _ in range(24)] + list(basis)
        m = len(X.p1) + len(X.p0)
        for vec in vecs:
            by_top = K.rank(lf._top(X, X, slots1, slots0, vec)) == m
            full = all(K.rank(underlying_matrix(f)) == f.source_dim()
                       for f in lf._pair_matrices(X, X, slots1, slots0, vec))
            assert by_top == full, X
            seen.add(full)
        assert lf.is_isomorphic(X, X)
    assert seen == {True, False}


def test_block_linear_maps_come_from_action_matrices(monkeypatch):
    """Every block linear map is read off the products by `_action`; none is
    built one element product at a time.  An inverse is the other way
    round: a finite series of element products, with no action matrix."""
    f = a4_sum()
    alg = f.alg
    products, actions = [], []
    mult, action = hg.PreprojAlgebra.mult, lf._action

    def counted_mult(self, x, y):
        products.append((x, y))
        return mult(self, x, y)

    def counted_action(*args, **kwargs):
        actions.append(args)
        return action(*args, **kwargs)

    monkeypatch.setattr(hg.PreprojAlgebra, "mult", counted_mult)
    monkeypatch.setattr(lf, "_action", counted_action)
    U = underlying_matrix(f)
    assert len(U) == f.target_dim() and all(len(row) == f.source_dim() for row in U)
    assert actions and products == []
    del actions[:]
    assert len(lf._hom_pair_space(f, f)[2]) > 0
    assert actions and products == []
    del actions[:]
    x = {k: 3 + len(alg.basis[k][1]) for k in alg.block_indices(1, 1)}
    ((inv,),) = lf._inverse(hg.LambdaMorphism(alg, (1,), (1,), [[x]])).entries
    assert actions == [] and products
    assert mult(alg, x, inv) == ((alg.e_index[1], 1),)


def random_automorphism(alg: hg.PreprojAlgebra, labels, rng: random.Random) -> hg.LambdaMorphism:
    """A random endomorphism of the sum of the projectives at `labels`,
    every path-space coefficient drawn, redrawn until its top is
    invertible."""
    while True:
        U = hg.LambdaMorphism(alg, labels, labels, [
            [{k: rng.randrange(K.P) for k in alg.block_indices(u, w)} for u in labels]
            for w in labels])
        if K.rank(lf._degree0(U)) == len(labels):
            return U


def test_series_inverse_inverts_the_underlying_map():
    """`_inverse` of a random automorphism of each side of `a4_sum`: its
    underlying map inverts the dense underlying map of the automorphism."""
    f, rng = a4_sum(), random.Random(3)
    for labels in (f.p1, f.p0):
        U = random_automorphism(f.alg, labels, rng)
        d = U.source_dim()
        assert K.matmul(underlying_matrix(U), underlying_matrix(lf._inverse(U)), d) == K.identity(d)


def _doubled_walks(q, u: int, w: int, longest: int = 5) -> list[str]:
    """The vertex walks u ~> w of at most `longest` steps in the doubled
    quiver, as the command line spells them."""
    near = {v: [b for a, b in q.arrows if a == v] + [a for a, b in q.arrows if b == v]
            for v in q.vertices}
    walks, frontier = [], [(u,)]
    for _ in range(longest + 1):
        walks += ["-".join(map(str, p)) for p in frontier if p[-1] == w]
        frontier = [p + (x,) for p in frontier for x in near[p[-1]]]
    return walks


def _random_lift_spec(rng: random.Random):
    """A well-formed `--lift` job on A2-A4 in a random orientation: 0-3
    terms per side, and entries of 0-2 [walk, coefficient] terms with walks
    of length at most 5 and coefficients in [-3, 3]."""
    n = rng.randint(2, 4)
    arrows = [(i, i + 1) if rng.random() < 0.5 else (i + 1, i) for i in range(1, n)]
    q = dy.build_quiver(f"A{n}", arrows)
    p1 = [rng.randint(1, n) for _ in range(rng.randint(0, 3))]
    p0 = [rng.randint(1, n) for _ in range(rng.randint(0, 3))]
    matrix = [[[[rng.choice(walks), rng.randint(-3, 3)] for _ in range(rng.randint(0, 2))]
               if (walks := _doubled_walks(q, u, w)) else [] for u in p1] for w in p0]
    argv = ["higgs", "--type", f"A{n}", "--orient", " ".join(f"{a}->{b}" for a, b in arrows),
            "--lift", json.dumps({"p1": p1, "p0": p0, "matrix": matrix})]
    return q, p1, p0, argv


@pytest.mark.parametrize("seed", range(8))
def test_lift_accounts_for_every_term(capsys, seed):
    """Whatever a well-formed spec is, its lift exits 0, and the terms of
    its labels (identity summands included) and of its unresolved
    conflations (quot gives p1, sub gives p0) are the spec's terms."""
    rng = random.Random(seed)
    for _ in range(12):
        q, p1, p0, argv = _random_lift_spec(rng)
        assert cli.main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        by_name = {str(lab): lab for lab in mc.mpr_indecomposables(q)}
        got1, got0 = [], []
        for item in out["labels"]:
            t1, t0 = mc._terms(mc.label_by_number(q, item["id"]))
            got1 += t1
            got0 += t0
        for conf in out["unresolved"]:
            got1 += [by_name[name].vertex for name in conf["quot"]]
            got0 += [by_name[name].vertex for name in conf["sub"]]
        assert (sorted(got1), sorted(got0)) == (sorted(p1), sorted(p0)), argv


def lift_stdout(capsys, f: hg.LambdaMorphism) -> str:
    """The stdout of `higgs --lift` on the block morphism f."""
    q = f.alg.quiver
    argv = ["higgs", "--type", str(q.dtype), "--orient", " ".join(f"{a}->{b}" for a, b in q.arrows),
            "--lift", json.dumps(phi_json(f))]
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def test_isomorphic_specs_lift_to_the_same_output(capsys):
    """The lift depends only on the isomorphism class of the spec: the
    summands of `a4_sum` in another order, and `a4_sum` and an A3 sum (with
    a repeated summand and a piece that matches no label) with each side
    conjugated by a random automorphism, print byte-identical output."""
    rng = random.Random(11)
    f = a4_sum()
    want = lift_stdout(capsys, f)
    labs = {str(l): l for l in mc.mpr_indecomposables(dy.build_quiver("A4"))}
    for order in ([5, 4, 3, 2, 1, 0], [2, 0, 5, 1, 3, 4]):
        permuted = lf.direct_sum(f.alg, [hg.phi_image(labs[A4_SUM[i]]) for i in order])
        assert lift_stdout(capsys, permuted) == want, order
    q3 = dy.build_quiver("A3")
    alg3 = hg.preprojective_algebra(q3)
    labs3 = {str(l): l for l in mc.mpr_indecomposables(q3)}
    simple = hg.LambdaMorphism(alg3, (2,), (1,), [[alg3.walk((2, 1))]])
    a3_sum = lf.direct_sum(alg3, [hg.phi_image(labs3[n]) for n in ("M(t-1P1)", "E(3)", "M(t-1P1)")]
                           + [simple, hg.phi_image(labs3["M(P2)"])])
    for g in (f, a3_sum):
        want = lift_stdout(capsys, g)
        for _ in range(2):
            g1, g0 = (random_automorphism(g.alg, labels, rng) for labels in (g.p1, g.p0))
            assert lift_stdout(capsys, lf._compose(lf._compose(g1, g), g0)) == want
    assert json.loads(want)["unresolved"] == [{"sub": ["M(P1)"], "quot": ["E(2)"]}]


def test_lift_multiplies_no_matrix_past_the_top(monkeypatch):
    """Every matrix product of the `a4_sum` lift has operands of at most
    m x m, m the number of projective summands: no underlying map of a
    module is built."""
    f = a4_sum()
    m = len(f.p1) + len(f.p0)
    shapes, matmul = [], K.matmul

    def recorded(a, b, ncols=None):
        shapes.append((len(a), len(a[0]) if a else 0, len(b), len(b[0]) if b else ncols))
        return matmul(a, b, ncols)

    monkeypatch.setattr(lf.K, "matmul", recorded)
    assert sorted(map(str, lf.lift_morphism(f).labels)) == sorted(A4_SUM)
    assert shapes and max(map(max, shapes)) <= m


def test_lift_splits_a_d5_sum_with_the_cap_widened(monkeypatch):
    """With the type cap widened here only, the D5 sum of three modules
    lifts to exactly their labels (0.08–0.10 s on 2 vCPUs)."""
    monkeypatch.setattr(lf, "_REP_FINITE", lf._REP_FINITE | {"D5"})
    q = dy.build_quiver("D5")
    number = mc.mpr_number(q)
    labs = {str(l): l for l in number}
    names = ("M(t-2P3)", "M(t-3P2)", "M(t-3P3)")
    f = lf.direct_sum(hg.preprojective_algebra(q), [hg.phi_image(labs[n]) for n in names])
    lift = lf.lift_morphism(f)
    assert [str(l) for l in lift.labels] == sorted(names, key=lambda n: number[labs[n]])
    assert lift.unresolved == ()


def test_lift_guard_outside_small_rank():
    algd = alg_for("D4")
    f = hg.LambdaMorphism(algd, (), (1,), [])
    with pytest.raises(GuardError):
        lf.lift_morphism(f)


# ---------------------------------------------------------------------------
# module presentations read from the tauinv orbit memo, against the matrix route

# labels whose orbit presentation has another basis than the matrix route's,
# so that `higgs --phi` prints another (isomorphic) morphism for them
MOVED_PHI = {"D4-default": (12,), "D4-reversed": (7, 8),
             "D5-default": (15, 20), "D5-reversed": (8, 9, 10, 16, 22)}


@pytest.mark.parametrize(
    "q", list(_default_and_reversed(["A1", "A2", "A3", "A4", "A5", "D4", "D5"])))
def test_orbit_presentations_keep_phi_images_up_to_isomorphism(q, request):
    """Where the orbit presentation and the matrix-route presentation differ,
    the two phi images are isomorphic, and the new one lifts back to its
    label: no identity summand, one indecomposable piece, matched first in
    the label table.  `lift_morphism` itself refuses D4 and D5, so these
    are its steps."""
    moved = []
    images = [(l, hg.phi_image(l)) for l in mc.mpr_indecomposables(q)]
    for n, lab in enumerate(mc.mpr_indecomposables(q), start=1):
        if lab.kind != "mod":
            continue
        new = mc.presentation(lab)
        old = mc.MprObject(q, *reps.min_presentation(reps.indec_rep(lab.module_label())))
        if (old.p1, old.p0) == (new.p1, new.p0) and np.array_equal(old.mat, new.mat):
            continue
        moved.append(n)
        f_new = hg.phi_image(lab)
        assert lf.is_isomorphic(hg.phi_image(old), f_new)
        reduced, stripped = lf.strip_identity_summands(f_new)
        assert stripped == ()
        (piece,) = lf.split_summands(reduced)
        assert next(l for l, img in images if lf.is_isomorphic(piece, img)) == lab
    assert tuple(moved) == MOVED_PHI.get(request.node.callspec.id, ())
