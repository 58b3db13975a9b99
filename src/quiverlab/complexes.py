"""Complexes of projectives over a tree quiver, with a strict inverse
translate functor.

Between projectives every hom space is at most one dimensional, spanned by
the append-path morphism, so a complex of projectives is stored as vertex
labels per degree plus one scalar matrix per differential.  Plain matrix
multiplication mod P implements composition because structure constants of
the path basis are all 1 on a tree.

The derived inverse translate sends P_i to the two term complex

    [ sum of P_s over socle labels s ]  -->  [ sum of P_w ]
            degree -1                           degree 0

whose degree-0 cohomology is the module-level inverse translate and whose
degree -1 cohomology is the suspended part.  Lifting the generator
morphisms (one per quiver arrow) once and composing along paths makes the
functor strictly multiplicative, since a tree quiver has no relations
between distinct paths.
"""
from __future__ import annotations

import functools

import numpy as np

from . import _kernels as K
from . import reps
from .dynkin import Quiver
from .errors import InternalCheckError
from .stalks import DerivedLabel, normalize_label


def _hom_mask(q: Quiver, src_labels, tgt_labels) -> np.ndarray:
    out = np.zeros((len(tgt_labels), len(src_labels)), dtype=bool)
    for r, w in enumerate(tgt_labels):
        for c, u in enumerate(src_labels):
            out[r, c] = q.has_path(u, w)
    return out


class PCpx:
    """A cochain complex of sums of projectives, in scalar coordinates."""

    def __init__(self, quiver: Quiver, terms: dict[int, tuple[int, ...]], diffs: dict[int, np.ndarray]):
        self.quiver = quiver
        self.terms = {d: tuple(int(v) for v in t) for d, t in terms.items() if t}
        self.diffs = {}
        for d, m in diffs.items():
            m = K.reduce_mod(m)
            if m.size and np.any(m):
                self.diffs[d] = m

    def term(self, d: int) -> tuple[int, ...]:
        return self.terms.get(d, ())

    def diff(self, d: int) -> np.ndarray:
        m = self.diffs.get(d)
        if m is None:
            return np.zeros((len(self.term(d + 1)), len(self.term(d))), dtype=np.int64)
        return m

    def degrees(self) -> list[int]:
        return sorted(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def validate(self) -> "PCpx":
        q = self.quiver
        for d, m in self.diffs.items():
            if m.shape != (len(self.term(d + 1)), len(self.term(d))):
                raise InternalCheckError(f"differential at degree {d} has wrong shape")
            mask = _hom_mask(q, self.term(d), self.term(d + 1))
            if np.any(m[~mask] % K.P):
                raise InternalCheckError(f"differential at degree {d} has entries outside hom spaces")
        for d in self.degrees():
            comp = K.matmul(self.diff(d + 1), self.diff(d))
            if np.any(comp):
                raise InternalCheckError(f"differential does not square to zero at degree {d}")
        return self

    def total_rank(self) -> int:
        return sum(len(t) for t in self.terms.values())

    def __repr__(self) -> str:
        parts = [f"{d}:{list(self.term(d))}" for d in self.degrees()]
        return "PCpx(" + ", ".join(parts) + ")"


class ChainMap:
    def __init__(self, src: PCpx, tgt: PCpx, comps: dict[int, np.ndarray]):
        self.src = src
        self.tgt = tgt
        self.comps = {}
        for d, m in comps.items():
            m = K.reduce_mod(m)
            if m.size and np.any(m):
                self.comps[d] = m

    def comp(self, d: int) -> np.ndarray:
        m = self.comps.get(d)
        if m is None:
            return np.zeros((len(self.tgt.term(d)), len(self.src.term(d))), dtype=np.int64)
        return m

    def validate(self) -> "ChainMap":
        q = self.src.quiver
        for d, m in self.comps.items():
            if m.shape != (len(self.tgt.term(d)), len(self.src.term(d))):
                raise InternalCheckError(f"chain map component at degree {d} has wrong shape")
            mask = _hom_mask(q, self.src.term(d), self.tgt.term(d))
            if np.any(m[~mask] % K.P):
                raise InternalCheckError("chain map has entries outside hom spaces")
        for d in set(self.src.degrees()) | set(self.tgt.degrees()):
            lhs = K.matmul(self.tgt.diff(d), self.comp(d))
            rhs = K.matmul(self.comp(d + 1), self.src.diff(d))
            if not np.array_equal(lhs, rhs):
                raise InternalCheckError(f"chain map does not commute with differentials at degree {d}")
        return self


def identity_map(C: PCpx) -> ChainMap:
    return ChainMap(C, C, {d: np.eye(len(C.term(d)), dtype=np.int64) for d in C.degrees()})


def compose_maps(g: ChainMap, f: ChainMap) -> ChainMap:
    """g after f."""
    degs = set(f.src.degrees()) | set(g.tgt.degrees()) | set(f.tgt.degrees())
    return ChainMap(f.src, g.tgt, {d: K.matmul(g.comp(d), f.comp(d)) for d in degs})


def single_term(q: Quiver, labels, degree: int = 0) -> PCpx:
    return PCpx(q, {degree: tuple(labels)}, {})


def two_term(q: Quiver, labels1, labels0, mat, low_degree: int = -1) -> PCpx:
    """Complex [sum P over labels1] -> [sum P over labels0] in degrees
    (low_degree, low_degree + 1)."""
    return PCpx(
        q,
        {low_degree: tuple(labels1), low_degree + 1: tuple(labels0)},
        {low_degree: np.asarray(mat, dtype=np.int64)},
    ).validate()


def shift_pcpx(C: PCpx, s: int) -> PCpx:
    """Suspension applied s times: new term at degree d is the old term at
    degree d + s; the differential picks up the sign (-1)^s."""
    sign = -1 if s % 2 else 1
    return PCpx(
        C.quiver,
        {d - s: t for d, t in C.terms.items()},
        {d - s: sign * m for d, m in C.diffs.items()},
    )


def cone(f: ChainMap) -> PCpx:
    """Mapping cone: degree d is src^{d+1} + tgt^d."""
    A, B = f.src, f.tgt
    degs = sorted({d for d in A.degrees()} | {d + 1 for d in A.degrees()} | set(B.degrees()) | {d for d in B.degrees()})
    terms = {}
    for d in set([x - 1 for x in A.degrees()] + B.degrees()):
        t = tuple(A.term(d + 1)) + tuple(B.term(d))
        if t:
            terms[d] = t
    diffs = {}
    for d in terms:
        na1, nb = len(A.term(d + 1)), len(B.term(d))
        na2, nb2 = len(A.term(d + 2)), len(B.term(d + 1))
        m = np.zeros((na2 + nb2, na1 + nb), dtype=np.int64)
        m[:na2, :na1] = (-A.diff(d + 1)) % K.P
        m[na2:, :na1] = f.comp(d + 1)
        m[na2:, na1:] = B.diff(d)
        diffs[d] = m
    return PCpx(A.quiver, terms, diffs).validate()


# ---------------------------------------------------------------------------
# minimization (Gaussian elimination of unit diagonal entries)


def minimize(C: PCpx) -> tuple[PCpx, ChainMap, ChainMap]:
    """Homotopy-minimal model plus transports iota: min -> C and
    pi: C -> min with pi after iota the identity."""
    cur = C
    iota = identity_map(C)
    pi = identity_map(C)
    while True:
        found = None
        for d in cur.degrees():
            m = cur.diff(d)
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
        m = cur.diff(d)
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
        new_diffs[d] = (delta - u_inv * K.matmul(gamma, beta)) % K.P
        if d - 1 in cur.diffs or cur.term(d - 1):
            new_diffs[d - 1] = np.delete(cur.diff(d - 1), c, axis=0)
        if d + 1 in cur.diffs or cur.term(d + 2):
            new_diffs[d + 1] = np.delete(cur.diff(d + 1), r, axis=1)
        nxt = PCpx(cur.quiver, new_terms, new_diffs)
        # step transports
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
        si = ChainMap(nxt, cur, step_iota).validate()
        sp = ChainMap(cur, nxt, step_pi).validate()
        iota = compose_maps(iota, si)
        pi = compose_maps(sp, pi)
        cur = nxt
    cur.validate()
    # pi after iota is the identity on the minimal model
    pii = compose_maps(pi, iota)
    for d in cur.degrees():
        if not np.array_equal(pii.comp(d), np.eye(len(cur.term(d)), dtype=np.int64)):
            raise InternalCheckError("minimization transports are not a retraction")
    return cur, ChainMap(cur, C, iota.comps).validate(), ChainMap(C, cur, pi.comps).validate()


# ---------------------------------------------------------------------------
# the strict inverse translate functor


class TauInvFunctor:
    """tauinv on complexes of projectives, strict on the path basis."""

    def __init__(self, q: Quiver):
        self.quiver = q
        self.S: dict[int, tuple[int, ...]] = {}
        self.W: dict[int, tuple[int, ...]] = {}
        self.G: dict[int, np.ndarray] = {}
        env = {}
        conn = {}
        for i in q.vertices:
            P = reps.projective_rep(q, i)
            labels_s, emb = reps._injective_envelope(P)
            cok, proj = reps.cokernel(emb)
            if cok.is_zero():
                labels_w: list[int] = []
                g = None
            else:
                labels_w, emb1 = reps._injective_envelope(cok)
                g = emb1.compose(proj)
            self.S[i] = tuple(labels_s)
            self.W[i] = tuple(labels_w)
            if g is None:
                self.G[i] = np.zeros((0, len(labels_s)), dtype=np.int64)
            else:
                off0 = reps.injective_sum(q, tuple(labels_s))[1]
                off1 = reps.injective_sum(q, tuple(labels_w))[1]
                self.G[i] = reps._scalar_matrix_of_injective_map(g, labels_s, off0, labels_w, off1)
                rebuilt = reps.assemble_injective_map(q, labels_s, labels_w, self.G[i])
                for v in q.vertices:
                    if not np.array_equal(rebuilt.mat(v), g.mat(v)):
                        raise InternalCheckError("copresentation of a projective is not in scalar form")
            env[i] = (labels_s, emb)
            conn[i] = g
        self._X: dict[tuple[int, int], np.ndarray] = {}
        self._Y: dict[tuple[int, int], np.ndarray] = {}
        for (u, w) in q.arrows:
            self._X[(u, w)], self._Y[(u, w)] = self._lift_arrow(u, w, env, conn)

    # -- construction helpers ------------------------------------------------

    def _lift_arrow(self, u: int, w: int, env, conn):
        q = self.quiver
        labels_su, emb_u = env[u]
        labels_sw, emb_w = env[w]
        g_a = reps.canonical_projective_morphism(q, u, w)
        target = emb_w.compose(g_a)  # P_u -> E_w

        def coords_from_pu(f, slot_labels, offsets):
            # scalar coordinates of a morphism P_u -> sum of injectives
            rows = []
            for t, v in enumerate(slot_labels):
                if q.has_path(v, u):
                    rows.append(int(f.mat(u)[offsets[t][u - 1], 0]))
                else:
                    rows.append(0)
            return np.array(rows, dtype=np.int64)

        codw, off_w = reps.injective_sum(q, tuple(labels_sw))
        dom = reps.injective_sum(q, tuple(labels_su))[0]
        unknowns = [
            (r, c)
            for r in range(len(labels_sw))
            for c in range(len(labels_su))
            if q.has_path(labels_su[c], labels_sw[r])
        ]
        cols = []
        basis_morphs = []
        for (r, c) in unknowns:
            scal = np.zeros((len(labels_sw), len(labels_su)), dtype=np.int64)
            scal[r, c] = 1
            B = reps.assemble_injective_map(q, list(labels_su), list(labels_sw), scal)
            basis_morphs.append(B)
            cols.append(coords_from_pu(B.compose(emb_u), labels_sw, off_w))
        b = coords_from_pu(target, labels_sw, off_w)
        if unknowns:
            sol = K.solve(np.array(cols, dtype=np.int64).T, b)
        else:
            sol = np.zeros(0, dtype=np.int64) if not np.any(b) else None
        if sol is None:
            raise InternalCheckError("arrow lift through the envelope does not exist")
        X = np.zeros((len(labels_sw), len(labels_su)), dtype=np.int64)
        for k, (r, c) in enumerate(unknowns):
            X[r, c] = int(sol[k]) % K.P
        x_rep = None
        for k, (r, c) in enumerate(unknowns):
            if sol[k] % K.P:
                scaled = [m * int(sol[k]) for m in basis_morphs[k].mats]
                if x_rep is None:
                    x_rep = scaled
                else:
                    x_rep = [(a + b2) % K.P for a, b2 in zip(x_rep, scaled)]
        if x_rep is None:
            x_rep = [np.zeros((codw.dim(v), dom.dim(v)), dtype=np.int64) for v in q.vertices]
        x_morph = reps.Morphism(dom, codw, [m % K.P for m in x_rep]).validate()
        # check the defining equation at rep level
        lhs = x_morph.compose(emb_u)
        rhs = target
        for v in q.vertices:
            if not np.array_equal(lhs.mat(v), rhs.mat(v)):
                raise InternalCheckError("arrow lift equation fails at rep level")

        # now the degree-0 part: Y with Y G_u = G_w X
        labels_wu, labels_ww = list(self.W[u]), list(self.W[w])
        g_u, g_w = conn[u], conn[w]
        if not labels_ww:
            Y = np.zeros((0, len(labels_wu)), dtype=np.int64)
            return X, Y
        rhs_m = g_w.compose(x_morph) if g_w is not None else None
        if rhs_m is None:
            raise InternalCheckError("missing copresentation connecting map")
        off_su = reps.injective_sum(q, tuple(labels_su))[1]
        off_ww = reps.injective_sum(q, tuple(labels_ww))[1]
        rhs_coords = reps._scalar_matrix_of_injective_map(rhs_m, list(labels_su), off_su, labels_ww, off_ww)
        yunknowns = [
            (r, c)
            for r in range(len(labels_ww))
            for c in range(len(labels_wu))
            if q.has_path(labels_wu[c], labels_ww[r])
        ]
        ycols = []
        for (r, c) in yunknowns:
            scal = np.zeros((len(labels_ww), len(labels_wu)), dtype=np.int64)
            scal[r, c] = 1
            B = reps.assemble_injective_map(q, labels_wu, labels_ww, scal)
            comp = B.compose(g_u) if g_u is not None else None
            if comp is None:
                ycols.append(np.zeros(rhs_coords.size, dtype=np.int64))
            else:
                ycols.append(
                    reps._scalar_matrix_of_injective_map(comp, list(labels_su), off_su, labels_ww, off_ww).reshape(-1)
                )
        if yunknowns:
            ysol = K.solve(np.array(ycols, dtype=np.int64).T, rhs_coords.reshape(-1))
        else:
            ysol = np.zeros(0, dtype=np.int64) if not np.any(rhs_coords) else None
        if ysol is None:
            raise InternalCheckError("degree-0 arrow lift does not exist")
        Y = np.zeros((len(labels_ww), len(labels_wu)), dtype=np.int64)
        for k, (r, c) in enumerate(yunknowns):
            Y[r, c] = int(ysol[k]) % K.P
        if not np.array_equal(K.matmul(self.G[w], X), K.matmul(Y, self.G[u])):
            raise InternalCheckError("arrow lift does not commute with copresentations")
        return X, Y

    # -- the functor on scalar data ------------------------------------------

    @functools.lru_cache(maxsize=None)
    def lift_path(self, u: int, w: int) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) blocks of the image of the append-path morphism P_u -> P_w."""
        q = self.quiver
        path = q.path_vertices(u, w)
        if path is None:
            raise InternalCheckError(f"no path {u} ~> {w}")
        X = np.eye(len(self.S[u]), dtype=np.int64)
        Y = np.eye(len(self.W[u]), dtype=np.int64)
        for a, b in zip(path[:-1], path[1:]):
            X = K.matmul(self._X[(a, b)], X)
            Y = K.matmul(self._Y[(a, b)], Y)
        return X, Y

    def _block_lift(self, src_labels, tgt_labels, scal, which: int) -> np.ndarray:
        q = self.quiver
        parts = self.S if which == 0 else self.W
        row_sizes = [len(parts[w]) for w in tgt_labels]
        col_sizes = [len(parts[u]) for u in src_labels]
        out = np.zeros((sum(row_sizes), sum(col_sizes)), dtype=np.int64)
        roff = np.concatenate([[0], np.cumsum(row_sizes)]).astype(int)
        coff = np.concatenate([[0], np.cumsum(col_sizes)]).astype(int)
        for r, w in enumerate(tgt_labels):
            for c, u in enumerate(src_labels):
                s = int(scal[r, c]) % K.P
                if s == 0:
                    continue
                X, Y = self.lift_path(u, w)
                blk = X if which == 0 else Y
                out[roff[r] : roff[r + 1], coff[c] : coff[c + 1]] = (s * blk) % K.P
        return out

    def apply(self, C: PCpx) -> PCpx:
        """Termwise inverse translate, totalized with the sign (-1)^d on the
        internal differential."""
        q = self.quiver
        terms: dict[int, tuple[int, ...]] = {}
        for e in range(min(C.degrees(), default=0) - 1, max(C.degrees(), default=0) + 1):
            t = tuple(s for v in C.term(e + 1) for s in self.S[v]) + tuple(
                w for v in C.term(e) for w in self.W[v]
            )
            if t:
                terms[e] = t
        diffs: dict[int, np.ndarray] = {}
        for e in terms:
            ns_src = sum(len(self.S[v]) for v in C.term(e + 1))
            nw_src = sum(len(self.W[v]) for v in C.term(e))
            ns_tgt = sum(len(self.S[v]) for v in C.term(e + 2))
            nw_tgt = sum(len(self.W[v]) for v in C.term(e + 1))
            m = np.zeros((ns_tgt + nw_tgt, ns_src + nw_src), dtype=np.int64)
            m[:ns_tgt, :ns_src] = self._block_lift(C.term(e + 1), C.term(e + 2), C.diff(e + 1), 0)
            sizes_s = [len(self.S[v]) for v in C.term(e + 1)]
            sizes_w = [len(self.W[v]) for v in C.term(e + 1)]
            soff = np.concatenate([[0], np.cumsum(sizes_s)]).astype(int)
            woff = np.concatenate([[0], np.cumsum(sizes_w)]).astype(int)
            sign = -1 if (e + 1) % 2 else 1
            for t, v in enumerate(C.term(e + 1)):
                m[ns_tgt + woff[t] : ns_tgt + woff[t + 1], soff[t] : soff[t + 1]] = (
                    sign * self.G[v]
                ) % K.P
            m[ns_tgt:, ns_src:] = self._block_lift(C.term(e), C.term(e + 1), C.diff(e), 1)
            diffs[e] = m
        return PCpx(q, terms, diffs).validate()

    def apply_map(self, f: ChainMap, TA: PCpx | None = None, TB: PCpx | None = None) -> ChainMap:
        if TA is None:
            TA = self.apply(f.src)
        if TB is None:
            TB = self.apply(f.tgt)
        comps = {}
        for e in set(TA.degrees()) | set(TB.degrees()):
            ns_src = sum(len(self.S[v]) for v in f.src.term(e + 1))
            nw_src = sum(len(self.W[v]) for v in f.src.term(e))
            ns_tgt = sum(len(self.S[v]) for v in f.tgt.term(e + 1))
            nw_tgt = sum(len(self.W[v]) for v in f.tgt.term(e))
            m = np.zeros((ns_tgt + nw_tgt, ns_src + nw_src), dtype=np.int64)
            m[:ns_tgt, :ns_src] = self._block_lift(f.src.term(e + 1), f.tgt.term(e + 1), f.comp(e + 1), 0)
            m[ns_tgt:, ns_src:] = self._block_lift(f.src.term(e), f.tgt.term(e), f.comp(e), 1)
            comps[e] = m
        return ChainMap(TA, TB, comps).validate()


@functools.cache
def tau_inv_functor(q: Quiver) -> TauInvFunctor:
    return TauInvFunctor(q)


# ---------------------------------------------------------------------------
# realization, cohomology, splitting


def realize(C: PCpx) -> tuple[dict[int, reps.Rep], dict[int, reps.Morphism]]:
    """The honest representation-level complex underlying the scalar data."""
    q = C.quiver
    degs = C.degrees()
    terms = {}
    for d in degs:
        labels = C.term(d)
        terms[d] = reps.projective_sum(q, tuple(labels))[0]
    diffs = {}
    for d in degs:
        src = terms.get(d, reps.zero_rep(q))
        tgt = terms.get(d + 1, reps.zero_rep(q))
        if C.term(d) and C.term(d + 1):
            diffs[d] = reps.assemble_projective_map(q, list(C.term(d)), list(C.term(d + 1)), C.diff(d))
        else:
            diffs[d] = reps.Morphism(src, tgt, [np.zeros((tgt.dim(v), src.dim(v)), dtype=np.int64) for v in q.vertices])
    return terms, diffs


def cohomology(C: PCpx) -> dict[int, reps.Rep]:
    """Per-degree cohomology as representations (only nonzero degrees)."""
    q = C.quiver
    terms, diffs = realize(C)
    out = {}
    for d in C.degrees():
        ker, incl = reps.kernel(diffs[d])
        if d - 1 in diffs and not diffs[d - 1].src.is_zero():
            prev = diffs[d - 1]
            mats = []
            for v in q.vertices:
                x = K.solve(incl.mat(v), prev.mat(v))
                if x is None:
                    raise InternalCheckError("image does not land in the kernel")
                mats.append(x)
            F = reps.Morphism(prev.src, ker, mats).validate()
            H, _ = reps.cokernel(F)
        else:
            H = ker
        if not H.is_zero():
            out[d] = H
    return out


def split_complex(C: PCpx) -> list[DerivedLabel]:
    """Summands of the complex in the derived category: cohomology in degree
    d contributes its indecomposables desuspended d times."""
    q = C.quiver
    out: list[DerivedLabel] = []
    for d, H in cohomology(C).items():
        for lab, mult in sorted(reps.decompose(H).items()):
            out.extend([normalize_label(q, lab.vertex, lab.power, -d)] * mult)
    return sorted(out)


def min_presentation_pcpx(x) -> PCpx:
    """Minimal presentation of a module as a two term complex in degrees
    (-1, 0)."""
    M = reps._as_rep(x)
    labels1, labels0, scal = reps.min_presentation(M)
    return PCpx(M.quiver, {-1: tuple(labels1), 0: tuple(labels0)}, {-1: scal}).validate()


# ---------------------------------------------------------------------------
# hom complexes out of a projective


def hom_from_projective(i: int, C: PCpx) -> tuple[dict[int, int], dict[int, np.ndarray]]:
    """The cochain complex Hom(P_i, C) of plain vector spaces, in the path
    basis: degree d keeps the slots of C^d reachable from i."""
    q = C.quiver
    keep = {d: [t for t, v in enumerate(C.term(d)) if q.has_path(i, v)] for d in C.degrees()}
    dims = {d: len(s) for d, s in keep.items() if s}
    mats = {}
    for d in C.degrees():
        if keep.get(d) and keep.get(d + 1):
            mats[d] = C.diff(d)[np.ix_(keep[d + 1], keep[d])]
    return dims, mats


def cochain_cohomology_dims(dims: dict[int, int], mats: dict[int, np.ndarray]) -> dict[int, int]:
    out = {}
    for d, n in dims.items():
        r_out = K.rank(mats[d]) if d in mats else 0
        r_in = K.rank(mats[d - 1]) if d - 1 in mats else 0
        h = n - r_out - r_in
        if h < 0:
            raise InternalCheckError("negative cohomology dimension")
        if h:
            out[d] = h
    return out
