import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy_kernel as NK
from quiverlab.dynkin import build_quiver, coxeter_number, nakayama_involution
from quiverlab import _kernels as K
from quiverlab import complexes as cx
from quiverlab import reps, stalks
from quiverlab.errors import InternalCheckError
from quiverlab.stalks import DerivedLabel, normalize_label

from tests.test_dynkin import quiver_strategy
from tests.test_stalks import _opposite_quivers, _oracle_quivers

SMALL = ["A2", "A3", "D4"]


# ---------------------------------------------------------------------------
# test-local oracles: constructions that no library route takes


def arr(m, ncols: int) -> np.ndarray:
    """A matrix of int rows with `ncols` columns as an int64 array."""
    return np.array(m, dtype=np.int64).reshape(len(m), ncols)


def shift_pcpx(C: cx.PCpx, s: int) -> cx.PCpx:
    """Suspension applied s times: new term at degree d is the old term at
    degree d + s; the differential picks up the sign (-1)^s."""
    sign = -1 if s % 2 else 1
    return cx.PCpx(
        C.quiver,
        {d - s: t for d, t in C.terms.items()},
        {d - s: sign * np.array(m, dtype=np.int64) for d, m in C.diffs.items()},
    )


def compose_maps(g: cx.ChainMap, f: cx.ChainMap) -> cx.ChainMap:
    """g after f."""
    degs = set(f.src.degrees()) | set(g.tgt.degrees()) | set(f.tgt.degrees())
    return cx.ChainMap(f.src, g.tgt, {d: K.matmul(g.comp(d), f.comp(d), len(f.src.term(d)))
                                      for d in degs})


def stepwise_minimize(C: cx.PCpx) -> tuple[cx.PCpx, cx.ChainMap, cx.ChainMap]:
    """`cx.minimize` one elimination at a time: each step builds the next
    complex and its two step transports as validated chain maps, and
    composes them into the running iota and pi."""
    cur = C
    iota = cx.identity_map(C)
    pi = cx.identity_map(C)
    while True:
        found = None
        for d in cur.degrees():
            m = arr(cur.diff(d), len(cur.term(d)))
            src_l, tgt_l = cur.term(d), cur.term(d + 1)
            for r in range(m.shape[0]):
                for c in range(m.shape[1]):
                    if src_l[c] == tgt_l[r] and m[r, c] % K.P:
                        found = (d, r, c)
                        break
                if found:
                    break
            if found:
                break
        if not found:
            break
        d, r, c = found
        m = arr(cur.diff(d), len(cur.term(d)))
        u_inv = K.inv_mod(int(m[r, c]) % K.P)
        keep_c = [j for j in range(m.shape[1]) if j != c]
        keep_r = [i for i in range(m.shape[0]) if i != r]
        beta = m[r, keep_c].reshape(1, -1)
        gamma = m[keep_r, c].reshape(-1, 1)
        delta = m[np.ix_(keep_r, keep_c)]
        new_terms = dict(cur.terms)
        new_terms[d] = tuple(l for j, l in enumerate(cur.term(d)) if j != c)
        new_terms[d + 1] = tuple(l for i, l in enumerate(cur.term(d + 1)) if i != r)
        new_diffs = dict(cur.diffs)
        new_diffs[d] = (delta - u_inv * NK.matmul(gamma, beta)) % K.P
        if d - 1 in cur.diffs or cur.term(d - 1):
            new_diffs[d - 1] = np.delete(arr(cur.diff(d - 1), len(cur.term(d - 1))), c, axis=0)
        if d + 1 in cur.diffs or cur.term(d + 2):
            new_diffs[d + 1] = np.delete(arr(cur.diff(d + 1), len(cur.term(d + 1))), r, axis=1)
        nxt = cx.PCpx(cur.quiver, new_terms, new_diffs)
        n_src, n_tgt = len(keep_c), len(keep_r)
        iota_d = np.zeros((m.shape[1], n_src), dtype=np.int64)
        iota_d[keep_c, np.arange(n_src)] = 1
        iota_d[c, :] = (-u_inv * beta[0]) % K.P
        iota_d1 = np.zeros((m.shape[0], n_tgt), dtype=np.int64)
        iota_d1[keep_r, np.arange(n_tgt)] = 1
        step_iota = {dd: np.eye(len(cur.term(dd)), dtype=np.int64) for dd in cur.degrees()}
        step_iota[d] = iota_d
        step_iota[d + 1] = iota_d1
        pi_d = np.zeros((n_src, m.shape[1]), dtype=np.int64)
        pi_d[np.arange(n_src), keep_c] = 1
        pi_d1 = np.zeros((n_tgt, m.shape[0]), dtype=np.int64)
        pi_d1[np.arange(n_tgt), keep_r] = 1
        pi_d1[:, r] = (-u_inv * gamma[:, 0]) % K.P
        step_pi = {dd: np.eye(len(cur.term(dd)), dtype=np.int64) for dd in cur.degrees()}
        step_pi[d] = pi_d
        step_pi[d + 1] = pi_d1
        si = cx.ChainMap(nxt, cur, step_iota).validate()
        sp = cx.ChainMap(cur, nxt, step_pi).validate()
        iota = compose_maps(iota, si)
        pi = compose_maps(sp, pi)
        cur = nxt
    cur.validate()
    return cur, cx.ChainMap(cur, C, iota.comps).validate(), cx.ChainMap(C, cur, pi.comps).validate()


def min_presentation_pcpx(x) -> cx.PCpx:
    """Minimal presentation of a module, by the matrix route, as a two term
    complex in degrees (-1, 0)."""
    M = reps._as_rep(x)
    labels1, labels0, scal = reps.min_presentation(M)
    return cx.PCpx(M.quiver, {-1: tuple(labels1), 0: tuple(labels0)}, {-1: scal}).validate()


def apply_map(F: cx.TauInvFunctor, f: cx.ChainMap, TA=None, TB=None) -> cx.ChainMap:
    """The inverse translate functor on a chain map f: A -> B, from TA = F(A)
    to TB = F(B), blockwise from the lifted path morphisms."""
    if TA is None:
        TA = F.apply(f.src)
    if TB is None:
        TB = F.apply(f.tgt)
    comps = {}
    for e in set(TA.degrees()) | set(TB.degrees()):
        ns_src = sum(len(F.S[v]) for v in f.src.term(e + 1))
        nw_src = sum(len(F.W[v]) for v in f.src.term(e))
        ns_tgt = sum(len(F.S[v]) for v in f.tgt.term(e + 1))
        nw_tgt = sum(len(F.W[v]) for v in f.tgt.term(e))
        m = np.zeros((ns_tgt + nw_tgt, ns_src + nw_src), dtype=np.int64)
        m[:ns_tgt, :ns_src] = arr(F._block_lift(f.src.term(e + 1), f.tgt.term(e + 1), f.comp(e + 1), 0), ns_src)
        m[ns_tgt:, ns_src:] = arr(F._block_lift(f.src.term(e), f.tgt.term(e), f.comp(e), 1), nw_src)
        comps[e] = m
    return cx.ChainMap(TA, TB, comps).validate()


def hom_from_projective(i: int, C: cx.PCpx) -> tuple[dict[int, int], dict[int, np.ndarray]]:
    """The cochain complex Hom(P_i, C) of plain vector spaces, in the path
    basis: degree d keeps the slots of C^d reachable from i."""
    q = C.quiver
    keep = {d: [t for t, v in enumerate(C.term(d)) if q.has_path(i, v)] for d in C.degrees()}
    dims = {d: len(s) for d, s in keep.items() if s}
    mats = {}
    for d in C.degrees():
        if keep.get(d) and keep.get(d + 1):
            mats[d] = arr(C.diff(d), len(C.term(d)))[np.ix_(keep[d + 1], keep[d])]
    return dims, mats


def cochain_cohomology_dims(dims: dict[int, int], mats: dict[int, np.ndarray]) -> dict[int, int]:
    out = {}
    for d, n in dims.items():
        r_out = NK.rank(mats[d]) if d in mats else 0
        r_in = NK.rank(mats[d - 1]) if d - 1 in mats else 0
        h = n - r_out - r_in
        assert h >= 0, "negative cohomology dimension"
        if h:
            out[d] = h
    return out


def test_two_term_checks_hom_mask():
    q = build_quiver("A2")  # arrow 1 -> 2
    # P_1 -> P_2 exists (path 1 -> 2); P_2 -> P_1 does not
    cx.PCpx(q, {-1: (1,), 0: (2,)}, {-1: np.array([[1]])}).validate()
    with pytest.raises(InternalCheckError):
        cx.PCpx(q, {-1: (2,), 0: (1,)}, {-1: np.array([[1]])}).validate()


def test_square_zero_enforced():
    q = build_quiver("A3")
    with pytest.raises(InternalCheckError):
        cx.PCpx(
            q,
            {0: (1,), 1: (2,), 2: (3,)},
            {0: np.array([[1]]), 1: np.array([[1]])},
        ).validate()


def test_shift_moves_terms_and_signs():
    q = build_quiver("A2")
    C = cx.PCpx(q, {-1: (1,), 0: (2,)}, {-1: np.array([[5]])}).validate()
    S = shift_pcpx(C, 1)
    assert S.term(-2) == (1,) and S.term(-1) == (2,)
    assert S.diff(-2)[0][0] == (-5) % 32003
    SS = shift_pcpx(shift_pcpx(C, 1), -1)
    assert SS.terms == C.terms and np.array_equal(SS.diff(-1), C.diff(-1))


def test_cone_of_identity_is_contractible():
    q = build_quiver("A3")
    C = min_presentation_pcpx(reps.indec_rep(reps.IndecLabel(q, 1, 1)))
    cone = cx.cone(cx.identity_map(C))
    mini, _, _ = cx.minimize(cone)
    assert mini.is_zero()


@settings(max_examples=20, deadline=None)
@given(quiver_strategy(SMALL), st.integers(0, 10**6))
def test_minimize_strips_padding(q, seed):
    rng = np.random.default_rng(seed)
    lab = reps.IndecLabel(q, int(rng.integers(1, q.rank + 1)), 0)
    C = min_presentation_pcpx(reps.indec_rep(lab))
    # pad with a contractible identity complex on a random projective
    v = int(rng.integers(1, q.rank + 1))
    padded = cx.PCpx(
        q,
        {-1: C.term(-1) + (v,), 0: C.term(0) + (v,)},
        {-1: np.block([
            [arr(C.diff(-1), len(C.term(-1))), np.zeros((len(C.term(0)), 1), dtype=np.int64)],
            [np.zeros((1, len(C.term(-1))), dtype=np.int64), np.ones((1, 1), dtype=np.int64)],
        ])},
    ).validate()
    mini, iota, pi = cx.minimize(padded)
    assert mini.terms == C.terms
    assert np.array_equal(mini.diff(-1), C.diff(-1))
    # the transports are mutually inverse on the minimal model
    comp = compose_maps(pi, iota)
    for d in mini.degrees():
        assert np.array_equal(comp.comp(d), np.eye(len(mini.term(d)), dtype=np.int64))


@settings(max_examples=15, deadline=None)
@given(quiver_strategy(SMALL))
def test_cohomology_of_presentation_is_the_module(q):
    for lab, rep in reps.list_indecomposables(q):
        C = min_presentation_pcpx(rep)
        H = cx.cohomology(C)
        assert list(H) == [0]
        assert H[0].dim_vector() == rep.dim_vector()
        assert cx.split_complex(C) == [normalize_label(q, lab.vertex, lab.power, 0)]


def test_split_complex_sees_shifts():
    q = build_quiver("A2")
    C = cx.single_term(q, (1,), degree=2)
    # cohomology in degree 2 is the stalk desuspended twice
    assert cx.split_complex(C) == [DerivedLabel(q, 1, 0, -2)]


@settings(max_examples=10, deadline=None)
@given(quiver_strategy(SMALL))
def test_tauinv_functor_walks_presentations(q):
    F = cx.tau_inv_functor(q)
    for v in q.vertices:
        C = cx.single_term(q, (v,), degree=0)
        e = stalks.e_exponent(q, v)
        cur = C
        for k in range(1, e):
            cur, _ = _minimized(F.apply(cur))
            want = reps.indec_rep(reps.IndecLabel(q, v, k))
            assert cx.split_complex(cur) == [normalize_label(q, v, k, 0)]
            assert cx.cohomology(cur)[0].dim_vector() == want.dim_vector()


def _minimized(C):
    mini, iota, pi = cx.minimize(C)
    return mini, (iota, pi)


@settings(max_examples=8, deadline=None)
@given(quiver_strategy(["A2", "A3"]))
def test_tauinv_functor_full_lap_is_double_shift(q):
    # h applications send a projective stalk to its double suspension
    F = cx.tau_inv_functor(q)
    h = coxeter_number(q.dtype)
    star = nakayama_involution(q)
    for v in q.vertices:
        cur = cx.single_term(q, (v,), degree=0)
        for _ in range(h):
            cur, _ = _minimized(F.apply(cur))
        assert cx.split_complex(cur) == [DerivedLabel(q, v, 0, 2)]


@settings(max_examples=10, deadline=None)
@given(quiver_strategy(SMALL))
def test_tauinv_functor_respects_maps(q):
    # functor applied to a chain map still commutes with differentials
    F = cx.tau_inv_functor(q)
    for (u, w) in q.arrows:
        A = cx.single_term(q, (u,), degree=0)
        B = cx.single_term(q, (w,), degree=0)
        f = cx.ChainMap(A, B, {0: np.array([[1]], dtype=np.int64)}).validate()
        Tf = apply_map(F, f)
        Tf.validate()
        assert not cx.cone(Tf).is_zero()


def test_hom_from_projective_computes_graded_homs():
    q = build_quiver("A3")
    lab = reps.IndecLabel(q, 1, 1)  # tauinv P_1
    C = min_presentation_pcpx(reps.indec_rep(lab))
    for i in q.vertices:
        dims, mats = hom_from_projective(i, C)
        hdims = cochain_cohomology_dims(dims, mats)
        want = reps.hom_dim(reps.projective_rep(q, i), reps.indec_rep(lab))
        assert hdims.get(0, 0) == want


def rep_level_arrow_lifts(q):
    """The scalar blocks (X, Y) of every arrow lift, solved one unknown at a
    time: each unknown entry is assembled into a representation morphism and
    its coordinates are read back after composing."""
    P = 32003
    env, conn, G, W = {}, {}, {}, {}
    for i in q.vertices:
        labels_s, emb = reps._injective_envelope(reps.projective_rep(q, i))
        cok, proj = reps.cokernel(emb)
        labels_w, g = [], None
        if not cok.is_zero():
            labels_w, emb1 = reps._injective_envelope(cok)
            g = emb1.compose(proj)
        env[i], conn[i], W[i] = (labels_s, emb), g, labels_w
        G[i] = np.zeros((0, len(labels_s)), dtype=np.int64) if g is None else (
            reps._scalar_matrix_of_injective_map(
                g, labels_s, reps.injective_sum(q, tuple(labels_s))[1],
                labels_w, reps.injective_sum(q, tuple(labels_w))[1]))

    def coords_from_pu(f, slot_labels, offsets, u):
        return np.array([f.mat(u)[offsets[t][u - 1]][0] if q.has_path(v, u) else 0
                         for t, v in enumerate(slot_labels)], dtype=np.int64)

    def solve(cols, rhs, n):
        if n:
            x = NK.solve(np.array(cols, dtype=np.int64).T, rhs.reshape(-1, 1))
            return None if x is None else x[:, 0]
        return np.zeros(0, dtype=np.int64) if not np.any(rhs) else None

    out = {}
    for (u, w) in q.arrows:
        labels_su, emb_u = env[u]
        labels_sw, emb_w = env[w]
        target = emb_w.compose(reps.canonical_projective_morphism(q, u, w))
        off_w = reps.injective_sum(q, tuple(labels_sw))[1]
        unknowns = [(r, c) for r in range(len(labels_sw)) for c in range(len(labels_su))
                    if q.has_path(labels_su[c], labels_sw[r])]
        morphs, cols = [], []
        for (r, c) in unknowns:
            scal = np.zeros((len(labels_sw), len(labels_su)), dtype=np.int64)
            scal[r, c] = 1
            B = reps.assemble_injective_map(q, labels_su, labels_sw, scal)
            morphs.append(B)
            cols.append(coords_from_pu(B.compose(emb_u), labels_sw, off_w, u))
        sol = solve(cols, coords_from_pu(target, labels_sw, off_w, u), len(unknowns))
        X = np.zeros((len(labels_sw), len(labels_su)), dtype=np.int64)
        dom = reps.injective_sum(q, tuple(labels_su))[0]
        cod = reps.injective_sum(q, tuple(labels_sw))[0]
        mats = [np.zeros((cod.dim(v), dom.dim(v)), dtype=np.int64) for v in q.vertices]
        for k, (r, c) in enumerate(unknowns):
            X[r, c] = int(sol[k]) % P
            mats = [(a + int(sol[k]) * arr(m, dom.dim(v))) % P
                    for v, a, m in zip(q.vertices, mats, morphs[k].mats)]
        x_morph = reps.Morphism(dom, cod, mats).validate()
        for v in q.vertices:
            assert np.array_equal(x_morph.compose(emb_u).mat(v), target.mat(v))
        labels_wu, labels_ww = W[u], W[w]
        Y = np.zeros((len(labels_ww), len(labels_wu)), dtype=np.int64)
        if labels_ww:
            off_su = reps.injective_sum(q, tuple(labels_su))[1]
            off_ww = reps.injective_sum(q, tuple(labels_ww))[1]
            rhs = np.array(reps._scalar_matrix_of_injective_map(
                conn[w].compose(x_morph), labels_su, off_su, labels_ww, off_ww), dtype=np.int64)
            yunknowns = [(r, c) for r in range(len(labels_ww)) for c in range(len(labels_wu))
                         if q.has_path(labels_wu[c], labels_ww[r])]
            ycols = []
            for (r, c) in yunknowns:
                scal = np.zeros((len(labels_ww), len(labels_wu)), dtype=np.int64)
                scal[r, c] = 1
                B = reps.assemble_injective_map(q, labels_wu, labels_ww, scal)
                ycols.append(np.array(reps._scalar_matrix_of_injective_map(
                    B.compose(conn[u]), labels_su, off_su, labels_ww, off_ww), dtype=np.int64).reshape(-1))
            ysol = solve(ycols, rhs.reshape(-1), len(yunknowns))
            for k, (r, c) in enumerate(yunknowns):
                Y[r, c] = int(ysol[k]) % P
        out[(u, w)] = X, Y
    return G, out


@pytest.mark.parametrize("q", list(_oracle_quivers()))
def test_arrow_lifts_match_rep_level_solve(q):
    F = cx.TauInvFunctor(q)
    G, lifts = rep_level_arrow_lifts(q)
    for i in q.vertices:
        assert F.G[i] == K.as_matrix(G[i])
    assert set(lifts) == set(F._X) == set(F._Y)
    for a, (X, Y) in lifts.items():
        assert F._X[a] == K.as_matrix(X)
        assert F._Y[a] == K.as_matrix(Y)


# ---------------------------------------------------------------------------
# the orbit memo against the matrix route

@pytest.mark.parametrize("q", [*_oracle_quivers(), *_opposite_quivers()])
def test_orbit_memo_matches_the_matrix_route(q):
    """Window entries k < e_v are two-term complexes in degrees (-1, 0) with
    the terms of the matrix-route minimal presentation of tauinv^k P_v,
    which are also the knitted ones, and their cohomology is that
    indecomposable: one degree-0 brick (End is the field, so indecomposable)
    whose dimension vector is the knitted one, and `split_complex` names
    exactly its label.  Entry e_v, the first past the window, is the
    suspended projective at the involuted vertex, and every entry equals a
    fresh `minimize` chain.  Each type is taken in its
    default orientation, its opposite and two seeded ones."""
    F = cx.tau_inv_functor(q)
    dims = stalks._module_window(q)[0]
    star = nakayama_involution(q)
    for v in q.vertices:
        e = stalks.e_exponent(q, v)
        fresh = cx.single_term(q, (v,), 0)
        for k in range(e + 1):
            if k:
                fresh = cx.minimize(F.apply(fresh))[0]
            C = cx.tau_inv_orbit(q, v, k)
            assert C.terms == fresh.terms
            assert all(np.array_equal(C.diff(d), fresh.diff(d)) for d in C.degrees())
            if k == e:
                assert C.terms == {-1: (star[v],)}
                continue
            assert set(C.degrees()) <= {-1, 0}
            lab = reps.IndecLabel(q, v, k)
            labels1, labels0, _ = reps.min_presentation(reps.indec_rep(lab))
            assert sorted(C.term(-1)) == sorted(labels1)
            assert sorted(C.term(0)) == sorted(labels0)
            assert stalks.presentation_terms(q)[lab] == (tuple(sorted(labels1)), tuple(sorted(labels0)))
            H = cx.cohomology(C)
            assert list(H) == [0]
            assert H[0].dim_vector() == dims[lab]
            assert reps.hom_dim(H[0], H[0]) == 1
            assert cx.split_complex(C) == [normalize_label(q, v, k, 0)]


@pytest.mark.parametrize("q", list(_oracle_quivers()))
def test_minimize_matches_the_stepwise_oracle(q):
    """On every input of the orbit memo (the functor applied to the entry
    before it), the in-place elimination gives the terms, differentials and
    transports of the step-by-step one."""
    F = cx.tau_inv_functor(q)
    h = coxeter_number(q.dtype)
    for v in q.vertices:
        for k in range(1, stalks.e_exponent(q, v) + h):
            A = F.apply(cx.tau_inv_orbit(q, v, k - 1))
            (mini, iota, pi), (want, want_iota, want_pi) = cx.minimize(A), stepwise_minimize(A)
            assert mini.terms == want.terms
            for got, exp in ((mini.diffs, want.diffs), (iota.comps, want_iota.comps),
                             (pi.comps, want_pi.comps)):
                assert got.keys() == exp.keys()
                assert all(np.array_equal(got[d], exp[d]) for d in got)


# ---------------------------------------------------------------------------
# two-column totalization against the unshared computation


def dense_hom_bases(A: cx.PCpx, B: cx.PCpx):
    """Basis (a-degree, target slot, source slot) of each graded piece of
    the hom complex, with its differential as a dense matrix, one row per
    target basis element."""
    q = A.quiver
    bases = {}
    if A.is_zero() or B.is_zero():
        return bases, {}
    adeg, bdeg = A.degrees(), B.degrees()
    for d in range(min(bdeg) - max(adeg), max(bdeg) - min(adeg) + 1):
        basis = []
        for e in adeg:
            src, tgt = A.term(e), B.term(e + d)
            for r in range(len(tgt)):
                basis.extend((e, r, c) for c in range(len(src)) if q.has_path(src[c], tgt[r]))
        if basis:
            bases[d] = basis
    diffs = {}
    for d, basis in bases.items():
        tgt_basis = bases.get(d + 1, [])
        index = {b: i for i, b in enumerate(tgt_basis)}
        M = [[0] * len(basis) for _ in tgt_basis]
        sgn = -1 if d % 2 == 0 else 1  # D(f) = dB∘f - (-1)^d f∘dA
        for ci, (e, r, c) in enumerate(basis):
            for rp, row in enumerate(B.diff(e + d)):
                if row[r]:
                    M[index[(e, rp, c)]][ci] += row[r]
            dA = A.diff(e - 1)
            if dA:
                for cp, x in enumerate(dA[c]):
                    if x:
                        M[index[(e - 1, r, cp)]][ci] += sgn * x
        diffs[d] = K.as_matrix(M)
    return bases, diffs


def dense_delta_matrix(b0, b1, b01, d, xmap, nmap) -> list[list[int]]:
    """delta(f0, f1) = f0∘x - n∘f1, from Hom^d(X0,N0)⊕Hom^d(X1,N1) to
    Hom^d(X1,N0), dense."""
    src0, src1 = b0.get(d, []), b1.get(d, [])
    index = {b: i for i, b in enumerate(b01.get(d, []))}
    M = [[0] * (len(src0) + len(src1)) for _ in index]
    for ci, (e, r, c) in enumerate(src0):
        for cp, x in enumerate(xmap.comp(e)[c]):
            if x:
                M[index[(e, r, cp)]][ci] += x
    for ci, (e, r, c) in enumerate(src1):
        for rp, row in enumerate(nmap.comp(e + d)):
            if row[r]:
                M[index[(e, rp, c)]][len(src0) + ci] -= row[r]
    return M


def unshared_two_column_dims(X0, X1, xmap, N0, N1, nmap) -> dict[int, int]:
    """Cohomology dims of the two-column total complex, with each of the
    three hom complexes built on its own as dense matrices, every total
    differential padded to full width in every degree from one below the
    lowest basis to one above the highest, and two ranks taken per
    degree."""
    b0, d0 = dense_hom_bases(X0, N0)
    b1, d1 = dense_hom_bases(X1, N1)
    b01, d01 = dense_hom_bases(X1, N0)
    degs = set(b0) | set(b1) | {d + 1 for d in b01}
    if not degs:
        return {}
    lo, hi = min(degs) - 1, max(degs) + 1

    def tot_dim(d):
        return len(b0.get(d, [])) + len(b1.get(d, [])) + len(b01.get(d - 1, []))

    def tot_diff(d):
        n0, n1, n01 = len(b0.get(d, [])), len(b1.get(d, [])), len(b01.get(d - 1, []))
        m0, m1 = len(b0.get(d + 1, [])), len(b1.get(d + 1, []))
        rows = [list(row) + [0] * (n1 + n01) for row in d0.get(d, K.zeros(m0, n0))]
        rows += [[0] * n0 + list(row) + [0] * n01 for row in d1.get(d, K.zeros(m1, n1))]
        delta = dense_delta_matrix(b0, b1, b01, d, xmap, nmap)
        rows += [dr + [-x for x in row] for dr, row in
                 zip(delta, d01.get(d - 1, K.zeros(len(delta), n01)))]
        return K.as_matrix(rows)

    mats = {d: tot_diff(d) for d in range(lo, hi + 1)}
    for d in range(lo, hi):
        assert not any(map(any, K.matmul(mats[d + 1], mats[d], tot_dim(d))))
    out = {}
    for d in range(lo, hi + 1):
        n = tot_dim(d)
        if n:
            h = n - K.rank(mats[d]) - K.rank(mats.get(d - 1, ()))
            assert h >= 0
            if h:
                out[d] = h
    return out


@pytest.mark.parametrize("t", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"])
def test_two_column_dims_match_the_unshared_route(t):
    """Every embedding pair (i, j), every pair of projectives and every
    orbit power p <= h of the target, as `boundary.gamma_hom` reads them."""
    q = build_quiver(t)
    h = coxeter_number(q.dtype)
    for u, v, i, j in itertools.product(q.vertices, q.vertices, (-1, 0, 1), (-1, 0, 1)):
        X = cx.embedding_slots(i, cx.tau_inv_orbit(q, u, 0))
        for p in range(h + 1):
            N = cx.embedding_slots(j, cx.tau_inv_orbit(q, v, p))
            assert cx.two_column_dims(*X, *N) == unshared_two_column_dims(*X, *N), (u, v, i, j, p)


def test_two_column_dims_check_that_the_total_differential_squares_to_zero():
    # positive control: x is the identity of C = [P1 -> P2] in degree -1
    # only, so it is no chain map, and f0∘(x∘dC - dC∘x) survives in D∘D
    q = build_quiver("A2")
    C = cx.PCpx(q, {-1: (1,), 0: (2,)}, {-1: ((1,),)}).validate()
    x = cx.ChainMap(C, C, {-1: ((1,),)})
    N = cx.embedding_slots(0, cx.single_term(q, (2,), 0))
    with pytest.raises(InternalCheckError, match="^totalization differential does not square to zero$"):
        cx.two_column_dims(C, C, x, *N)
    assert cx.two_column_dims(C, C, cx.identity_map(C), *N) == {}
